import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from gxelab import biaslab as bl
from gxelab.phenosim import CohortSizes, ScenarioSpec
from gxelab.util import ConfigError, EstimationError, SimulationError, Stream, check_failures, substream

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

    @pytest.mark.parametrize("discovery", ["plim", "finite"])
    def test_cells_equal_run_cell_on_the_column_stream(self, discovery):
        """A column's rows share each replicate's dataset and index, and that
        changes no cell's arithmetic: every cell equals run_cell of its spec
        under its column's substream, to the bit."""
        sizes = CohortSizes(n_discovery=64, n_analysis=200, n_snps=20)
        table = bl.run_table(base_spec(), reps=5, seed=615, sizes=sizes, discovery=discovery)
        assert list(table.cells) == [(row, col) for row in bl.G_ROWS for col in bl.E_COLUMNS]
        for (row, col), rep in table.cells.items():
            alone = bl.run_cell(base_spec(g_regime=row, e_regime=col), reps=5,
                                seed=substream(615, Stream.BIAS_COLUMN, bl.E_COLUMNS.index(col)), sizes=sizes,
                                discovery=discovery)
            assert rep.as_dict() == alone.as_dict()
        with pytest.raises(ConfigError, match="only in g_regime"):
            bl.run_cells([base_spec(), base_spec(e_regime="predetermined")], reps=5, seed=615, sizes=sizes)

    @pytest.mark.parametrize("site, row, failed", [("simulate_scenario", 0, [1, 1, 1]), ("_cell_design", 2, [0, 0, 1])])
    def test_failures_are_counted_per_cell(self, monkeypatch, site, row, failed):
        # one failed simulation fails its replicate in every row of the column; one failed fit, in its own row only
        real, hits = getattr(bl, site), []

        def fail_once(first, *args):
            spec = first if site == "simulate_scenario" else first.spec
            if spec.g_regime == bl.G_ROWS[row] and not hits:
                hits.append(spec)
                raise EstimationError("singular design")
            return real(first, *args)

        monkeypatch.setattr(bl, site, fail_once)
        reports = bl.run_cells([base_spec(g_regime=g) for g in bl.G_ROWS], reps=100, seed=616,
                               sizes=CohortSizes(n_discovery=64, n_analysis=200, n_snps=20))
        assert [r.n_failed for r in reports] == failed

    def test_peak_memory_of_a_column(self):
        # each replicate's dataset is dropped once its three cells are fit, so a
        # column keeps none of its replicates' (3 n_analysis x n_snps) dosage blocks
        tracemalloc.start()
        try:
            bl.run_cells([base_spec(g_regime=row) for row in bl.G_ROWS], reps=200, seed=614, sizes=SIZES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


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
# transmission choices moved to raw-word draws, and again when the three rows
# of a column came to share each replicate's dataset (stream (BIAS_COLUMN, j)).
PIN_BASE = ScenarioSpec(g_regime="trio_pgi_family_controls", e_regime="exogenous", eta_m=0.5, eta_f=0.5,
                        nurture_alignment=0.3)
PIN_SIZES = CohortSizes(n_discovery=64, n_analysis=300, n_snps=40)
PINNED_TABLES = {
    "plim": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.25633889893876177, 0.06662825588387393, "ambiguous"), (0.6564023720072077, 0.03871275024737289, "ambiguous"), (0.13413338765833463, 0.06922697251105604, "ambiguous")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.20548185564442845, 0.01860554260665703, "unbiased"), (0.7285410204501855, 0.008261246069191038, "up"), (0.1313222390100501, 0.026909016678513992, "ambiguous")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.2535399703967505, 0.04217413452573182, "ambiguous"), (0.7532798842754787, 0.03484055256863875, "up"), (0.16835654499246852, 0.03108647193822288, "ambiguous")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.09700926172492445, 0.0433052030121052, "down"), (0.644548788468397, 0.052303211291014326, "ambiguous"), (0.1558783225855009, 0.04258794132052233, "ambiguous")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.13994095692818356, 0.015357885103151668, "down"), (0.690629207741893, 0.013030538131548863, "up"), (0.11265027888897487, 0.030641384901604084, "ambiguous")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(0.1527776751170536, 0.03650889353967441, "ambiguous"), (0.7638829690137174, 0.0158174346066423, "up"), (0.07662313902634448, 0.04120135003951857, "ambiguous")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.5609241939438299, 0.04607772921852174, "up"), (0.6215310889571564, 0.044661326100447304, "ambiguous"), (0.13529422158443877, 0.04717824963221517, "ambiguous")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.617777397146641, 0.022863587921851895, "up"), (0.7530371971790005, 0.01624789120579957, "up"), (0.10470247768801927, 0.029648248825325952, "ambiguous")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.6190252487456943, 0.018235168407118005, "up"), (0.7710028689233922, 0.02855299908305582, "up"), (0.06244950434845489, 0.037195288414800375, "ambiguous")], 0),
    },
    "finite": {
        ("trio_pgi_family_controls", "exogenous"): ([(0.18725754409703785, 0.05048484899064205, "ambiguous"), (0.6149239642933019, 0.04790065231841798, "ambiguous"), (-0.05341287239005623, 0.06570185262626402, "down")], 0),
        ("trio_pgi_family_controls", "predetermined"): ([(0.09358668326834396, 0.034619283147632886, "down"), (0.8343576163975698, 0.011658598474207292, "up"), (-0.01458128150636913, 0.03810332530328194, "down")], 0),
        ("trio_pgi_family_controls", "endogenous_correlated"): ([(0.021038496964721553, 0.03289879921944107, "down"), (0.7363894432946271, 0.04171835528001806, "up"), (0.016137618636650832, 0.019513755601774298, "down")], 0),
        ("regular_pgi_family_controls", "exogenous"): ([(0.15675040114086966, 0.043911811629928146, "ambiguous"), (0.6720744051226916, 0.046395063070465745, "ambiguous"), (0.031993785657015335, 0.017651810242572098, "down")], 0),
        ("regular_pgi_family_controls", "predetermined"): ([(0.10633020042467796, 0.03345339128112299, "down"), (0.7835057205787258, 0.017958330653146243, "up"), (0.0030111527903050306, 0.03511277307099561, "down")], 0),
        ("regular_pgi_family_controls", "endogenous_correlated"): ([(-0.0005685502554690821, 0.04865999105793424, "down"), (0.7323708643455707, 0.03794937714328346, "up"), (0.04919375396882811, 0.02221470227906187, "down")], 0),
        ("regular_pgi_no_family", "exogenous"): ([(0.33357888015022447, 0.03760978870701135, "ambiguous"), (0.6515856159461023, 0.0499419870479763, "ambiguous"), (0.03961785862322658, 0.024456833972558836, "down")], 0),
        ("regular_pgi_no_family", "predetermined"): ([(0.3253288738944113, 0.033771578565866996, "ambiguous"), (0.8174402330603477, 0.010676111005311368, "up"), (0.0013370539229135305, 0.031911707136640086, "down")], 0),
        ("regular_pgi_no_family", "endogenous_correlated"): ([(0.2615890897590742, 0.020320414213196577, "ambiguous"), (0.7487946854496181, 0.03815177356017072, "up"), (0.05165653890677116, 0.025477769250355387, "down")], 0),
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
