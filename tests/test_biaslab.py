import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from gxelab import biaslab as bl
from gxelab.phenosim import CohortSizes, ScenarioSpec
from gxelab.util import ConfigError, EstimationError, SimulationError, check_failures

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

        def failing(ds, index):
            raise EstimationError("singular design")

        monkeypatch.setattr(bl, "_cell_design", failing)
        with pytest.raises(SimulationError, match="100/100 replicates failed; the first with EstimationError"):
            bl.run_cell(base_spec(e_regime="predetermined"), reps=100, seed=606, sizes=SIZES)

    def test_two_replicates_need_two_fits(self):
        # one failure is within the cap, but a Monte Carlo SE needs two fitted replicates
        def draw(r):
            if r == 0:
                raise EstimationError("singular design")
            return {"G": 0.0}

        with pytest.raises(SimulationError, match="1/2 replicates failed; the first with EstimationError: singular"):
            bl._run_replicates(2, 1, draw)

    def test_failure_rule(self):
        # at most max(1, 1% of reps) failures, and at least two fitted replicates
        for failed, reps in ((1, 100), (2, 200), (0, 2), (1, 3)):
            check_failures(["EstimationError: singular design"] * failed, reps)
        for failed, reps in ((2, 100), (3, 200), (1, 2)):
            with pytest.raises(SimulationError, match=f"^{failed}/{reps} replicates failed; the first with Estim"):
                check_failures(["EstimationError: singular design"] * failed, reps)

    @pytest.mark.parametrize("kw", [dict(e_regime="endogenous_correlated", corr_e_estar=1.5),
                                    dict(e_regime="endogenous_active_rge", rho_active=-1.2)])
    def test_correlation_beyond_one_is_a_config_error(self, kw):
        # sqrt(1 - r^2) of the outcome model used to turn into NaNs and a ValueError inside the fit
        with pytest.raises(ConfigError, match="must be in \\[-1, 1\\]"):
            bl.run_cell(base_spec(**kw), reps=2, seed=610, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))

    def test_programming_error_propagates(self, monkeypatch):
        def broken(ds, index):
            raise TypeError("not a replicate failure")

        monkeypatch.setattr(bl, "_cell_design", broken)
        with pytest.raises(TypeError, match="not a replicate failure"):
            bl.run_cell(base_spec(), reps=3, seed=609, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))

    def test_deterministic_and_thread_invariant(self):
        small = CohortSizes(n_discovery=64, n_analysis=800, n_snps=60)
        a = bl.run_cell(base_spec(), reps=40, seed=607, sizes=small, threads=1)
        b = bl.run_cell(base_spec(), reps=40, seed=607, sizes=small, threads=4)
        assert a.g.mean_estimate == b.g.mean_estimate
        assert a.gxe.mc_se == b.gxe.mc_se

    def test_peak_memory_of_a_cell(self):
        # each replicate's design is fit inside its draw, so a cell keeps none of
        # its replicates' (n_analysis x 7) [X, y] blocks; 200 of them are 21 MiB
        tracemalloc.start()
        try:
            bl.run_cell(base_spec(), reps=200, seed=613, sizes=SIZES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_finite_discovery_mode_runs(self):
        sizes = CohortSizes(n_discovery=3000, n_analysis=1200, n_snps=60)
        rep = bl.run_cell(base_spec(g_regime="regular_pgi_no_family"), reps=12,
                          seed=608, sizes=sizes, discovery="finite")
        assert rep.g.verdict in ("up", "ambiguous")  # nurture pushes up; finite weights attenuate


class TestRunTable:
    def test_zero_confounds_every_cell_unbiased(self):
        """With every confound off, each cell's G and E estimates are unbiased,
        checked at a family-wise rate. The verdict's rule |bias| < 3 MC SE is a
        two-sided test of size alpha = 2 (1 - Phi(3)) ~ 0.0027 per coefficient.
        Applied to the table's 18 coefficients (9 cells x G, E) it fails about
        5% of seeds when every null holds. Bonferroni at the verdict's own rate
        gives each coefficient the two-sided size alpha / 18, so the bound is
        |bias| < Phi^-1(1 - alpha / 36) MC SE ~ 3.79 MC SE. The verdict's
        precision rule, MC SE <= 0.02, is kept as it is."""
        clean = base_spec(eta_m=0.0, eta_f=0.0, beta_estar=0.0, w=0.0)
        sizes = CohortSizes(n_discovery=64, n_analysis=1500, n_snps=80)
        table = bl.run_table(clean, reps=60, seed=611, sizes=sizes)
        coefs = [c for rep in table.cells.values() for c in (rep.g, rep.e)]
        z = ndtri(1 - 0.0027 / (2 * len(coefs)))
        assert len(coefs) == 18 and z == pytest.approx(3.79, abs=0.005)
        for c in coefs:
            assert abs(c.bias) < z * c.mc_se and c.mc_se <= 0.02

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
        def failing(ds, index):
            raise EstimationError("singular design")

        monkeypatch.setattr(bl, "_cell_design", failing)
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


# Bias-lab results, (mean, mc_se, verdict) for G, E and GxE, then the failed
# count, per cell. First recorded before the replicate kernel moved to one
# dosage block per cohort; re-recorded when independent-SNP founders and the
# transmission choices moved to raw-word draws.
PIN_BASE = ScenarioSpec(g_regime="trio_pgi_family_controls", e_regime="exogenous", eta_m=0.5, eta_f=0.5,
                        nurture_alignment=0.3)
PIN_SIZES = CohortSizes(n_discovery=64, n_analysis=300, n_snps=40)
PINNED_TABLES = {
    "plim": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.33239271559508926, 0.08307200005707148, "ambiguous"), (0.6029293391066022, 0.08061509133444024, "ambiguous"), (0.19399770271962494, 0.0777768373182208, "ambiguous")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.24106399969569636, 0.017766518406007133, "unbiased"), (0.7402999190880942, 0.02931689788800524, "up"), (0.1464591975541879, 0.030447022303845137, "ambiguous")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.17631391601200389, 0.05467011936771121, "ambiguous"), (0.7500340314467829, 0.03635055077145426, "up"), (0.21231446679848687, 0.024599531293737934, "ambiguous")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.2348237262073565, 0.04679742033422062, "ambiguous"), (0.5908077566141255, 0.04330291621967909, "ambiguous"), (0.12861501875718234, 0.029001207205298248, "ambiguous")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.1789082730260262, 0.04116198235335965, "ambiguous"), (0.7224546474345973, 0.023212542437472446, "up"), (0.09299507850882355, 0.009111065147762156, "down")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(0.12275761533486633, 0.044607191558049916, "down"), (0.7683097067831213, 0.0405473539163715, "up"), (0.11865237242265995, 0.021453058197252985, "ambiguous")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.6902366346967774, 0.026814685829614573, "up"), (0.5992649773806243, 0.0604156287159368, "ambiguous"), (0.013530530257968026, 0.018953409608589704, "down")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.5780374893606786, 0.02150875269917176, "up"), (0.7861438927717247, 0.028420344461161928, "up"), (0.12126915773548948, 0.029295777970603735, "ambiguous")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.6434838749673316, 0.024779461354772922, "up"), (0.7359321832439892, 0.022369719855452837, "up"), (0.08058413372844693, 0.01715326024786643, "down")], 0),
    },
    "finite": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.10318011830177974, 0.06957653138120792, "ambiguous"), (0.6006109015646239, 0.07843949415233976, "ambiguous"), (0.117189854857586, 0.11214502747208176, "ambiguous")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.061881055586920704, 0.025967041319861196, "down"), (0.8478582278468495, 0.026384159813221977, "up"), (-0.0021637632349698344, 0.059288154317310396, "ambiguous")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.0684287951949671, 0.0466820170355156, "down"), (0.7344446858265631, 0.0435447973406889, "up"), (0.09496414862225859, 0.03996868618736307, "ambiguous")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.13956877739912746, 0.05548975787898844, "ambiguous"), (0.6420351464288309, 0.05145101995303988, "ambiguous"), (0.03022272027453223, 0.0347015307684738, "down")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.17177085946262857, 0.05741484683878028, "ambiguous"), (0.7921597448930342, 0.01819501145806196, "up"), (0.0294985693866147, 0.028321283524581867, "down")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(0.052129101881321, 0.031038829617208996, "down"), (0.7725249864802092, 0.027986900376682937, "up"), (0.11999353232294167, 0.027360833396967033, "ambiguous")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.37577858201298814, 0.05895046984388195, "ambiguous"), (0.584752390316024, 0.07784634796038367, "ambiguous"), (-0.02153775777658291, 0.06920521215143943, "ambiguous")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.2734982802158642, 0.038926803722248854, "ambiguous"), (0.8448444530400688, 0.035587974752786355, "up"), (0.10020517653031234, 0.024775440757125126, "ambiguous")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.36868212686671287, 0.014913759862914908, "up"), (0.7389383518669068, 0.025495669974569174, "up"), (0.011690998198972286, 0.03559440411920157, "down")], 0),
    },
}
PINNED_SELECTION = ([(0.29569959658454853, 0.027357540349069075, "ambiguous"), (0.713038488928828, 0.05514215368499934, "ambiguous"), (-0.04162836088294987, 0.03974767790424966, "ambiguous")], 0)
PINNED_DIAGNOSTICS = dict(fitted_gxe=-0.04162836088294987, fitted_gxe_mc_se=0.03974767790424966,
                          r2_treated=0.0678669664731958, r2_control=0.08595895325658354,
                          rge_corr=-0.03233033494945425, rge_significant_share=0.0,
                          remedy_gxe=-0.04995741887949321, reduction_share=-0.20008133445279985)


def assert_pinned(rep, pinned):
    coefs, failed = pinned
    for c, (mean, mc_se, verdict) in zip((rep.g, rep.e, rep.gxe), coefs):
        assert c.mean_estimate == pytest.approx(mean, rel=1e-12, abs=0)
        assert c.mc_se == pytest.approx(mc_se, rel=1e-12, abs=0)
        assert c.verdict == verdict
    assert rep.n_failed == failed


class TestPinnedResults:
    @pytest.mark.parametrize("discovery", ["plim", "finite"])
    def test_table_matches_recorded_results(self, discovery):
        table = bl.run_table(PIN_BASE, reps=6, seed=1401, sizes=PIN_SIZES, discovery=discovery)
        assert list(table.cells) == list(PINNED_TABLES[discovery])
        for cell, rep in table.cells.items():
            assert_pinned(rep, PINNED_TABLES[discovery][cell])

    def test_gwas_selection_matches_recorded_results(self):
        spec = ScenarioSpec(g_regime="regular_pgi_family_controls", e_regime="endogenous_gwas_selection",
                            beta_x=0.0, arm_share=0.3)
        bias, diag = bl.gwas_selection_experiment(spec, reps=6, seed=1402, sizes=PIN_SIZES)
        assert_pinned(bias, PINNED_SELECTION)
        for name, value in PINNED_DIAGNOSTICS.items():
            assert getattr(diag, name) == pytest.approx(value, rel=1e-12, abs=0), name

    def test_singular_design_is_a_replicate_failure(self):
        # no treated share: E and GxE are all zero in every replicate
        spec = ScenarioSpec(g_regime="regular_pgi_family_controls", e_regime="exogenous", treated_share=0.0)
        expected = ("4/4 replicates failed; the first with EstimationError: design matrix is rank deficient; "
                    "dependent columns: ['E', 'GxE']")
        with pytest.raises(SimulationError) as info:
            bl.run_cell(spec, reps=4, seed=1403, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))
        assert str(info.value) == expected

    def test_singular_design_failure_thread_invariant(self):
        spec = ScenarioSpec(g_regime="regular_pgi_family_controls", e_regime="exogenous", treated_share=0.0)
        expected = ("4/4 replicates failed; the first with EstimationError: design matrix is rank deficient; "
                    "dependent columns: ['E', 'GxE']")
        with pytest.raises(SimulationError) as info:
            bl.run_cell(spec, reps=4, seed=1403, sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20),
                        threads=2)
        assert str(info.value) == expected
