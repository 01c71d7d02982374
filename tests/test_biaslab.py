import numpy as np
import pytest

from gxelab import biaslab as bl
from gxelab.phenosim import CohortSizes, ScenarioSpec
from gxelab.util import ConfigError, EstimationError, SimulationError

SIZES = CohortSizes(n_discovery=64, n_analysis=2000, n_snps=120)


def base_spec(**kw):
    defaults = dict(g_regime="trio_pgi_family_controls", e_regime="exogenous",
                    beta_g=0.259, beta_e=0.6, beta_x=0.15, eta_m=0.2, eta_f=0.2)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestRunCell:
    def test_ideal_cell_unbiased(self):
        rep = bl.run_cell(base_spec(), reps=120, seed=601, sizes=SIZES)
        assert rep.verdicts() == {"G": "unbiased", "E": "unbiased", "GxE": "unbiased"}
        assert rep.n_failed == 0

    def test_population_cell_g_up_e_unbiased(self):
        rep = bl.run_cell(base_spec(g_regime="regular_pgi_no_family"), reps=120, seed=602, sizes=SIZES)
        assert rep.g.verdict == "up"
        assert rep.e.verdict == "unbiased"

    def test_family_controls_cell_g_down(self):
        rep = bl.run_cell(base_spec(g_regime="regular_pgi_family_controls"), reps=200, seed=603, sizes=SIZES)
        assert rep.g.verdict == "down"

    def test_predetermined_e_sign_flips_with_confound(self):
        up = bl.run_cell(base_spec(e_regime="predetermined", beta_estar=0.3), reps=80, seed=604, sizes=SIZES)
        down = bl.run_cell(base_spec(e_regime="predetermined", beta_estar=-0.3), reps=80, seed=605, sizes=SIZES)
        assert up.e.verdict == "up"
        assert down.e.verdict == "down"

    def test_failure_cap(self, monkeypatch):
        # an impossible spec is a config error before any replicate runs, not a replicate failure
        with pytest.raises(ConfigError, match="a_parent"):
            base_spec(e_regime="predetermined", a_parent=0.9, corr_e_estar=0.9)

        def failing(ds, weights):
            raise EstimationError("singular design")

        monkeypatch.setattr(bl, "_fit_cell", failing)
        with pytest.raises(SimulationError, match="100/100 replicates failed; the first with EstimationError"):
            bl.run_cell(base_spec(e_regime="predetermined"), reps=100, seed=606, sizes=SIZES)

    @pytest.mark.parametrize("kw", [dict(e_regime="endogenous_correlated", corr_e_estar=1.5),
                                    dict(e_regime="endogenous_active_rge", rho_active=-1.2)])
    def test_correlation_beyond_one_is_a_config_error(self, kw):
        # sqrt(1 - r^2) of the outcome model used to turn into NaNs and a ValueError inside the fit
        with pytest.raises(ConfigError, match="must be in \\[-1, 1\\]"):
            bl.run_cell(base_spec(**kw), reps=2, seed=610, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))

    def test_programming_error_propagates(self, monkeypatch):
        def broken(ds, weights):
            raise TypeError("not a replicate failure")

        monkeypatch.setattr(bl, "_fit_cell", broken)
        with pytest.raises(TypeError, match="not a replicate failure"):
            bl.run_cell(base_spec(), reps=3, seed=609, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))

    def test_deterministic_and_thread_invariant(self):
        small = CohortSizes(n_discovery=64, n_analysis=800, n_snps=60)
        a = bl.run_cell(base_spec(), reps=40, seed=607, sizes=small, threads=1)
        b = bl.run_cell(base_spec(), reps=40, seed=607, sizes=small, threads=4)
        assert a.g.mean_estimate == b.g.mean_estimate
        assert a.gxe.mc_se == b.gxe.mc_se

    def test_finite_discovery_mode_runs(self):
        sizes = CohortSizes(n_discovery=3000, n_analysis=1200, n_snps=60)
        rep = bl.run_cell(base_spec(g_regime="regular_pgi_no_family"), reps=12,
                          seed=608, sizes=sizes, discovery="finite")
        assert rep.g.verdict in ("up", "ambiguous")  # nurture pushes up; finite weights attenuate


class TestRunTable:
    def test_zero_confounds_every_cell_unbiased(self):
        clean = base_spec(eta_m=0.0, eta_f=0.0, beta_estar=0.0, w=0.0)
        sizes = CohortSizes(n_discovery=64, n_analysis=1500, n_snps=80)
        table = bl.run_table(clean, reps=60, seed=611, sizes=sizes)
        for (_, _), rep in table.cells.items():
            assert rep.g.verdict == "unbiased"
            assert rep.e.verdict == "unbiased"

    def test_exports(self):
        sizes = CohortSizes(n_discovery=64, n_analysis=600, n_snps=50)
        table = bl.run_table(base_spec(), reps=30, seed=612, sizes=sizes)
        d = table.as_dict()
        assert len(d) == 9
        key = "trio_pgi_family_controls|exogenous"
        assert set(d[key]) >= {"G", "E", "GxE", "reps"}
        rows = table.to_tsv_rows()
        assert rows[0][0] == "g_regime"
        assert len(rows) == 1 + 27
        signs = table.sign_matrix()
        assert set(signs) == set(bl.G_ROWS)


class TestOvercontrol:
    def test_nurture_pulls_child_estimate_down(self):
        rep = bl.overcontrol_experiment(delta=0.3, eta_m=0.2, eta_f=0.2, reps=200, seed=621, sizes=SIZES)
        assert rep.g.verdict == "down"
        assert rep.g.mean_estimate < 0.3 - 3 * rep.g.mc_se

    def test_no_nurture_unbiased(self):
        rep = bl.overcontrol_experiment(delta=0.3, eta_m=0.0, eta_f=0.0, reps=120, seed=622, sizes=SIZES)
        assert rep.g.verdict == "unbiased"

    def test_trio_weights_restore_unbiasedness(self):
        rep = bl.overcontrol_experiment(delta=0.3, eta_m=0.2, eta_f=0.2, reps=120, seed=623,
                                        sizes=SIZES, trio_weights=True)
        assert rep.g.verdict == "unbiased"


class TestNoisyEnvironment:
    def test_attenuation_by_reliability(self):
        for lam in (0.5, 0.8):
            e_mean, x_mean = bl.noisy_environment_experiment(
                beta_e=0.6, beta_x=0.15, reliability=lam, n=20000, reps=40, seed=641)
            assert e_mean / 0.6 == pytest.approx(lam, abs=0.05)
            assert x_mean / 0.15 == pytest.approx(lam, abs=0.05)

    def test_clean_environment_unattenuated(self):
        e_mean, x_mean = bl.noisy_environment_experiment(
            beta_e=0.6, beta_x=0.15, reliability=1.0, n=20000, reps=40, seed=642)
        assert e_mean == pytest.approx(0.6, abs=0.01)
        assert x_mean == pytest.approx(0.15, abs=0.01)


class TestGwasSelection:
    def selection_spec(self, arm_share):
        return ScenarioSpec(g_regime="regular_pgi_no_family", e_regime="endogenous_gwas_selection",
                            beta_g=0.259, beta_e=0.6, beta_x=0.0, arm_share=arm_share)

    def test_interaction_appears_without_technological_term(self):
        bias, diag = bl.gwas_selection_experiment(self.selection_spec(0.3), reps=120, seed=631, sizes=SIZES)
        assert bias.gxe.verdict == "up"
        assert diag.fitted_gxe > 3 * diag.fitted_gxe_mc_se
        assert diag.r2_treated > diag.r2_control
        assert diag.rge_significant_share < 0.15  # exogenous assignment: the check stays null
        assert abs(diag.rge_corr) < 0.02

    def test_failure_cap(self, monkeypatch):
        def failing(ds, weights):
            raise EstimationError("singular design")

        monkeypatch.setattr(bl, "_fit_cell", failing)
        with pytest.raises(SimulationError, match="3/3 replicates failed"):
            bl.gwas_selection_experiment(self.selection_spec(0.3), reps=3, seed=634,
                                         sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))

    def test_zero_arm_component_null(self):
        bias, diag = bl.gwas_selection_experiment(self.selection_spec(0.0), reps=80, seed=632, sizes=SIZES)
        assert bias.gxe.verdict in ("unbiased", "ambiguous")
        assert abs(diag.fitted_gxe) < 3 * diag.fitted_gxe_mc_se

    def test_balanced_discovery_shrinks_interaction(self):
        # analytic reduction is 1 - 0.5*sqrt(1+a^2)/sqrt(1+a^2/4) ~ 48% at a=0.3
        bias, diag = bl.gwas_selection_experiment(self.selection_spec(0.3), reps=200, seed=633, sizes=SIZES)
        assert abs(diag.remedy_gxe) < abs(diag.fitted_gxe)
        assert diag.reduction_share > 0.40
