import numpy as np
import pytest

from gxelab import genome, phenosim as ps
from gxelab.regress import ols
from gxelab.util import ConfigError

from conftest import make_sibling_population, make_trio_population


@pytest.fixture(scope="module")
def panel200():
    return genome.random_panel(200, 1, seed=77, maf_range=(0.2, 0.5))


def slope(y, x):
    return np.cov(y, x)[0, 1] / np.var(x)


class TestGeneticValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_explicit_standardization(self, seed):
        rng = np.random.default_rng(seed)
        n, j = 300, 60
        panel = genome.build_panel([1] * j, rng.uniform(0.02, 0.5, j))
        g = genome.GenotypeMatrix([f"i{i}" for i in range(n)], panel, rng.integers(0, 2, (2, n, j)))
        w = rng.standard_normal(j)
        p = panel.maf
        reference = ((g.dosages - 2 * p) / np.sqrt(2 * p * (1 - p))) @ w
        values = ps.theoretical_standardize(g, w)
        assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_dosage_sd_is_maf_implied(self):
        panel = genome.build_panel([3], np.array([0.1, 0.25, 0.5]))
        np.testing.assert_allclose(panel.sd, np.sqrt([0.18, 0.375, 0.5]), rtol=1e-15)


class TestSimulateTrait:
    def test_zero_heritability(self, panel200):
        g = genome.simulate_founders(panel200, 0.0, 10000, seed=81)
        arch = ps.TraitArchitecture.random(panel200, 100, target_h2=0.0, seed=81)
        y = ps.simulate_trait(g, arch, seed=82)
        gv = ps.genetic_values(g, arch)
        assert abs(np.corrcoef(y, gv)[0, 1]) < 0.03

    def test_target_heritability_quarter(self, panel200):
        g = genome.simulate_founders(panel200, 0.0, 10000, seed=83)
        arch = ps.TraitArchitecture.random(panel200, 100, target_h2=0.25, seed=83)
        y = ps.simulate_trait(g, arch, seed=84)
        gv = ps.genetic_values(g, arch)
        r2 = np.corrcoef(y, gv)[0, 1] ** 2
        assert r2 == pytest.approx(0.25, abs=0.02)

    def test_noiseless_limit_rank_orders_by_dosage(self):
        panel = genome.build_panel([1], np.array([0.3]))
        g = genome.simulate_founders(panel, 0.0, 1000, seed=85)
        arch = ps.TraitArchitecture((panel.ids[0],), np.array([1.0]), target_h2=0.999)
        y = ps.simulate_trait(g, arch, seed=86)
        d = g.dosages[:, 0]
        assert y[d == 2].min() > y[d == 1].max() > y[d == 0].max()

    def test_standardization_invariant(self, panel200):
        g = genome.simulate_founders(panel200, 0.0, 5000, seed=87)
        arch = ps.TraitArchitecture.random(panel200, 50, target_h2=0.5, seed=87)
        y = ps.simulate_trait(g, arch, seed=88)
        assert abs(y.mean()) < 1e-9
        assert abs(y.var() - 1.0) < 1e-9

    def test_h2_of_one_rejected(self, panel200):
        with pytest.raises(ConfigError):
            ps.TraitArchitecture.random(panel200, 10, target_h2=1.0, seed=1)


@pytest.fixture(scope="module")
def trio_data(panel200):
    parents, children, ped = make_trio_population(20000, panel200, 0.0, seed=91)
    return parents, children, ped


class TestFamilyOutcome:

    def test_no_confounds_recovers_delta(self, trio_data, panel200):
        parents, children, ped = trio_data
        arch = ps.TraitArchitecture.random(panel200, 200, target_h2=0.25, seed=91)
        y = ps.simulate_family_outcome(children, parents, ped, arch,
                                       ps.NurtureParams(delta=0.3), seed=92)
        gv = ps.empirical_standardize(ps.genetic_values(children, arch))
        assert slope(y, gv) == pytest.approx(0.3, abs=0.02)

    def test_population_slope_includes_half_nurture(self, trio_data, panel200):
        parents, children, ped = trio_data
        arch = ps.TraitArchitecture.random(panel200, 200, target_h2=0.25, seed=91)
        nurture = ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2)
        y = ps.simulate_family_outcome(children, parents, ped, arch, nurture, seed=93)
        gv = ps.empirical_standardize(ps.genetic_values(children, arch))
        assert slope(y, gv) == pytest.approx(0.5, abs=0.03)

    def test_trio_regression_recovers_direct_effect(self, trio_data, panel200):
        parents, children, ped = trio_data
        arch = ps.TraitArchitecture.random(panel200, 200, target_h2=0.25, seed=91)
        nurture = ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2)
        y = ps.simulate_family_outcome(children, parents, ped, arch, nurture, seed=93)
        gv_c = ps.empirical_standardize(ps.genetic_values(children, arch))
        gv_all = ps.genetic_values(parents, arch)
        mu, sd = gv_all.mean(), gv_all.std()
        mi = parents.index_of(ped.mother_ids)
        fi = parents.index_of(ped.father_ids)
        X = np.column_stack([np.ones(len(y)), gv_c, (gv_all[mi] - mu) / sd, (gv_all[fi] - mu) / sd])
        fit = ols(y, X)
        assert fit.beta[1] == pytest.approx(0.3, abs=0.02)

    def test_sibling_spillover_biases_within_family_difference(self, panel200):
        parents, children, ped = make_sibling_population(8000, panel200, 0.0, seed=94)
        arch = ps.TraitArchitecture.random(panel200, 200, target_h2=0.25, seed=94)
        nurture = ps.NurtureParams(delta=0.3, gamma=0.1)
        y = ps.simulate_family_outcome(children, parents, ped, arch, nurture, seed=96)
        gv = ps.empirical_standardize(ps.genetic_values(children, arch))
        dy = y[0::2] - y[1::2]
        dg = gv[0::2] - gv[1::2]
        assert slope(dy, dg) == pytest.approx(0.2, abs=0.03)

    def test_sibling_term_requires_sibling_design(self, trio_data, panel200):
        parents, children, ped = trio_data
        arch = ps.TraitArchitecture.random(panel200, 50, target_h2=0.25, seed=91)
        with pytest.raises(ConfigError):
            ps.simulate_family_outcome(children, parents, ped, arch,
                                       ps.NurtureParams(delta=0.3, gamma=0.1), seed=96)


class TestScenarios:
    def test_exogenous_environment_independent_of_genes(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "exogenous", eta_m=0.2, eta_f=0.2)
        ds = ps.simulate_scenario(spec, ps.CohortSizes(500, 10000, n_snps=150), seed=101)
        dv_c, dv_m, _ = ps.theoretical_standardize(ds.analysis, ds.direct_weights).reshape(3, -1)
        e = ds.analysis.e
        assert abs(np.corrcoef(e, dv_c)[0, 1]) < 0.03
        assert abs(np.corrcoef(e, dv_m)[0, 1]) < 0.03

    def test_predetermined_environment(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "predetermined", a_parent=0.3)
        ds = ps.simulate_scenario(spec, ps.CohortSizes(500, 10000, n_snps=150), seed=102)
        dv_c, dv_m, dv_f = ps.theoretical_standardize(ds.analysis, ds.direct_weights).reshape(3, -1)
        midparent = (dv_m + dv_f) / np.sqrt(2)
        e = ds.analysis.e
        assert np.corrcoef(e, midparent)[0, 1] > 0.2
        # conditional on midparent, the child draw is Mendelian noise
        r_e = e - midparent * slope(e, midparent)
        r_c = dv_c - midparent * slope(dv_c, midparent)
        assert abs(np.corrcoef(r_e, r_c)[0, 1]) < 0.03

    def test_active_rge(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "endogenous_active_rge", rho_active=0.4)
        ds = ps.simulate_scenario(spec, ps.CohortSizes(500, 10000, n_snps=150), seed=103)
        dv_c = ps.theoretical_standardize(ds.analysis, ds.direct_weights)[:len(ds.analysis.ids)]
        assert np.corrcoef(ds.analysis.e, dv_c)[0, 1] == pytest.approx(0.4, abs=0.03)

    def test_correlated_environment(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "endogenous_correlated", corr_e_estar=0.5)
        ds = ps.simulate_scenario(spec, ps.CohortSizes(500, 10000, n_snps=150), seed=104)
        assert np.corrcoef(ds.analysis.e, ds.analysis.estar)[0, 1] == pytest.approx(0.5, abs=0.03)

    def test_gwas_selection_restricts_discovery(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "endogenous_gwas_selection", arm_share=0.3)
        ds = ps.simulate_scenario(spec, ps.CohortSizes(4000, 3000, n_snps=150), seed=105)
        assert len(ds.discovery().ids) == pytest.approx(2000, abs=150)
        assert ds.arm_weights is not None
        assert abs(ds.arm_weights @ ds.direct_weights) < 1e-10
        # analysis cohort keeps both arms
        assert set(np.unique(ds.analysis.e)) == {0.0, 1.0}

    def test_cohorts_disjoint(self):
        spec = ps.ScenarioSpec("trio_pgi_family_controls", "exogenous")
        ds = ps.simulate_scenario(spec, ps.CohortSizes(400, 400, n_snps=100), seed=106)
        assert not (set(ds.discovery().ids) & set(ds.analysis.ids))

    def test_cohort_equals_the_object_path(self):
        panel = genome.random_panel(30, 1, seed=3)
        n, seed = 40, np.random.SeedSequence(9, spawn_key=(2,))
        dosages = ps._trio_dosages(panel, n, seed)
        founders = genome.simulate_founders(panel, 0.0, 2 * n, seed)
        founders = genome.GenotypeMatrix([f"xp{i}" for i in range(2 * n)], panel, founders.planes)
        ref_ped = genome.Pedigree([f"xc{i}" for i in range(n)], founders.ids[:n], founders.ids[n:],
                                  [f"xfam{i}" for i in range(n)])
        ref_children = genome.transmit(founders, ref_ped, seed)
        assert ps._trio_pedigree("x", n) == ref_ped
        reference = [ref_children, founders.subset(ref_ped.mother_ids), founders.subset(ref_ped.father_ids)]
        assert dosages.dtype == np.int8
        assert np.array_equal(dosages, np.concatenate([g.dosages for g in reference]))

    def test_scenario_identical_with_cold_and_warm_pedigree_cache(self):
        spec = ps.ScenarioSpec("trio_pgi_family_controls", "endogenous_gwas_selection")
        sizes = ps.CohortSizes(60, 80, n_snps=20)
        ps._trio_pedigree.cache_clear()
        cold = ps.simulate_scenario(spec, sizes, seed=11)
        cold_discovery = cold.discovery()
        warm = ps.simulate_scenario(spec, sizes, seed=11)
        for a, b in ((cold_discovery, warm.discovery()), (cold.analysis, warm.analysis)):
            assert a.pedigree == b.pedigree
            assert np.array_equal(a.y, b.y) and np.array_equal(a.e, b.e) and np.array_equal(a.estar, b.estar)
            assert np.array_equal(a.dosages, b.dosages) and np.array_equal(a.values, b.values)
        assert ps._trio_pedigree.cache_info().hits == 2

    def test_impossible_predetermined_spec_rejected(self):
        with pytest.raises(ConfigError, match="a_parent\\^2 \\+ corr_e_estar\\^2"):
            ps.ScenarioSpec("regular_pgi_no_family", "predetermined", a_parent=0.6, corr_e_estar=0.9)
        with pytest.raises(ConfigError, match="a_parent\\^2 \\+ corr_e_estar\\^2"):
            ps.ScenarioSpec("regular_pgi_no_family", "predetermined", a_parent=float("nan"))
        ps.ScenarioSpec("regular_pgi_no_family", "exogenous", a_parent=0.6, corr_e_estar=0.9)

    @pytest.mark.parametrize("e_regime, field", [("endogenous_correlated", "corr_e_estar"),
                                                  ("endogenous_active_rge", "rho_active")])
    @pytest.mark.parametrize("r", [1.5, -1.2, float("nan")])
    def test_correlation_beyond_one_rejected(self, e_regime, field, r):
        with pytest.raises(ConfigError, match=f"{field} must be in \\[-1, 1\\] under {e_regime}"):
            ps.ScenarioSpec("regular_pgi_no_family", e_regime, **{field: r})
        ps.ScenarioSpec("regular_pgi_no_family", e_regime, **{field: -1.0})
        ps.ScenarioSpec("regular_pgi_no_family", "exogenous", **{field: r})  # unused by that regime

    def test_invalid_regimes_rejected(self):
        with pytest.raises(ConfigError):
            ps.ScenarioSpec("no_such_regime", "exogenous")
        with pytest.raises(ConfigError):
            ps.ScenarioSpec("regular_pgi_no_family", "randomized")

    def test_spec_json_roundtrip(self):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "predetermined", beta_estar=-0.3)
        assert ps.ScenarioSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ConfigError):
            ps.ScenarioSpec.from_json('{"g_regime": "regular_pgi_no_family"}')

    def test_cohort_tsv(self, tmp_path):
        spec = ps.ScenarioSpec("regular_pgi_no_family", "exogenous")
        ds = ps.simulate_scenario(spec, ps.CohortSizes(200, 200, n_snps=50), seed=107)
        path = str(tmp_path / "cohort.tsv")
        ps.write_cohort_tsv(path, ds.analysis)
        with open(path) as f:
            header = f.readline().split()
        assert header == ["iid", "family", "Y", "E", "Estar", "treated"]
