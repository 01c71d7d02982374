import tracemalloc

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

        def failing(ds, index):
            raise EstimationError("singular design")

        monkeypatch.setattr(bl, "_cell_design", failing)
        with pytest.raises(SimulationError, match="100/100 replicates failed; the first with EstimationError"):
            bl.run_cell(base_spec(e_regime="predetermined"), reps=100, seed=606, sizes=SIZES)

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


# Bias-lab results recorded before the replicate kernel moved to one dosage
# block per cohort and one batched coefficient fit per cell: (mean, mc_se,
# verdict) for G, E and GxE, then the failed count, per cell.
PIN_BASE = ScenarioSpec(g_regime="trio_pgi_family_controls", e_regime="exogenous", eta_m=0.5, eta_f=0.5,
                        nurture_alignment=0.3)
PIN_SIZES = CohortSizes(n_discovery=64, n_analysis=300, n_snps=40)
PINNED_TABLES = {
    "plim": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.27676179130956763, 0.04069700117221568, "ambiguous"), (0.6291364665348885, 0.058705486373213295, "ambiguous"), (0.2108375312757097, 0.03584657673944769, "ambiguous")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.2766637199907053, 0.02156033856009815, "ambiguous"), (0.7852993700722272, 0.03848596847552514, "up"), (0.13868147038479298, 0.03394984038140876, "ambiguous")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.2551327906876862, 0.021620611437880136, "ambiguous"), (0.763369746830354, 0.03213715094249451, "up"), (0.1770349796180655, 0.03696816391004394, "ambiguous")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.18597821793973812, 0.032833983247770065, "ambiguous"), (0.5773904239019352, 0.038806776758073196, "ambiguous"), (0.04776770604933726, 0.05748880231360465, "ambiguous")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.23654799574085236, 0.03746322363557274, "ambiguous"), (0.7081472809923994, 0.019124795501849562, "up"), (0.15096957397667982, 0.024019984380183945, "ambiguous")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(0.1550192374878848, 0.0352294893803682, "ambiguous"), (0.7860583717518516, 0.0371681109534154, "up"), (0.06030947648928935, 0.024791308859345176, "down")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.6462692105489566, 0.04287931580576824, "up"), (0.6115084086079469, 0.038843178327878765, "ambiguous"), (0.04762440185606723, 0.03807755541070469, "ambiguous")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.5792750504951402, 0.02817987142108492, "up"), (0.7727268479074643, 0.03620102794098127, "up"), (0.09551510862231237, 0.037638770857905304, "ambiguous")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.6081919207800568, 0.007887438325366166, "up"), (0.7503610071683546, 0.01771591569717787, "up"), (0.11585469646312817, 0.03874279362081531, "ambiguous")], 0),
    },
    "finite": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.08577120189385266, 0.038053859579011064, "down"), (0.6294589183599592, 0.062493405526233045, "ambiguous"), (0.10371164648454982, 0.042285114151442524, "ambiguous")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.0860370397436299, 0.034998235318618835, "down"), (0.8698716906343082, 0.04292545604664431, "up"), (0.06066133678955399, 0.01998740339113312, "down")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.029313139382469655, 0.031825916203933886, "down"), (0.7511993136917213, 0.032867636033538865, "up"), (0.016397995610309298, 0.02189711731855976, "down")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.06254757640468782, 0.048218967332554374, "down"), (0.574006670425303, 0.04737499454592933, "ambiguous"), (0.022351749883292943, 0.039933753313201294, "down")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.10749283097743427, 0.048509161209009805, "down"), (0.8135501759716995, 0.03729608398578568, "up"), (0.06687603428782118, 0.02792692498139974, "ambiguous")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(0.006295817468685014, 0.04261924102229554, "down"), (0.8026440819192345, 0.030705426679912412, "up"), (0.026214202243287157, 0.03453028733799985, "down")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.34811518534339586, 0.07550715978496159, "ambiguous"), (0.5910188768294535, 0.04757489148644402, "ambiguous"), (0.09142026372102859, 0.06783721423741634, "ambiguous")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.26798999349092817, 0.03497460163036898, "ambiguous"), (0.8306232138207438, 0.0294122447501643, "up"), (0.0511877828658433, 0.03810131863398998, "ambiguous")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.2984739648354699, 0.04974229217892898, "ambiguous"), (0.7717231007023743, 0.021704011694635907, "up"), (0.07462930514450496, 0.0351964340104419, "ambiguous")], 0),
    },
}
PINNED_SELECTION = ([(0.258914217789128, 0.034688854998070034, "ambiguous"), (0.7069769999066686, 0.05739992486733717, "ambiguous"), (-0.02845367463281567, 0.04804384994174433, "ambiguous")], 0)
PINNED_DIAGNOSTICS = dict(fitted_gxe=-0.02845367463281567, fitted_gxe_mc_se=0.04804384994174433,
                          r2_treated=0.06010570391697817, r2_control=0.07008682562953793,
                          rge_corr=0.0029702317950870694, rge_significant_share=0.16666666666666666,
                          remedy_gxe=-0.04464613294160791, reduction_share=-0.5690814461664453)


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
