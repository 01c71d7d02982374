import warnings

import numpy as np
import pytest
from scipy import stats

from gxelab import genome, gwas, phenosim as ps
from gxelab.regress import ols
from gxelab.util import ConfigError, EstimationError

from conftest import make_sibling_population, make_trio_population


def slope_through_origin(y, x):
    return (x @ y) / (x @ x)


def monomorphic_snp(g, j, dosage=0):
    """Copy of g with SNP j monomorphic at the given dosage (0: every allele
    the major one, 2: every allele the minor one)."""
    planes = g.planes.copy()
    planes[:, :, j] = dosage // 2
    return genome.GenotypeMatrix(g.ids, g.panel, planes)


def assert_dead_and_rest_match(res, dead, design_of):
    """SNP `dead` reads beta 0, se 1e300, p 1; every other SNP matches
    regress.ols on the design design_of(j) returns (outcome, columns)."""
    assert (res.beta[dead], res.se[dead], res.p[dead]) == (0.0, 1e300, 1.0)
    for j in set(range(res.n_snps)) - {dead}:
        y, cols = design_of(j)
        ref = ols(y, np.column_stack([np.ones(len(y))] + cols))
        assert res.beta[j] == pytest.approx(ref.beta[1], rel=1e-10)
        assert res.se[j] == pytest.approx(ref.se[1], rel=1e-10)


@pytest.fixture(scope="module")
def nurture_world():
    """Trio cohort with same-architecture nurture: delta=0.3, eta=0.2 each."""
    panel = genome.random_panel(150, 1, seed=201, maf_range=(0.2, 0.5))
    parents, children, ped = make_trio_population(8000, panel, 0.0, seed=202)
    arch = ps.TraitArchitecture.random(panel, 150, target_h2=0.25, seed=203)
    nurture = ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2)
    y = ps.simulate_family_outcome(children, parents, ped, arch, nurture, seed=204)
    sigma = np.sqrt(2 * panel.maf * (1 - panel.maf))
    gv_sd = ps.genetic_values(children, arch).std()
    per_snp_direct = 0.3 * arch.effect_vector(panel) / sigma / gv_sd
    return panel, parents, children, ped, y, per_snp_direct


class TestRunGwas:
    def test_perfect_fit_floors_p(self):
        panel = genome.build_panel([1], np.array([0.4]))
        g = genome.simulate_founders(panel, 0.0, 500, seed=205)
        y = g.dosages[:, 0].astype(float)
        res = gwas.run_gwas(g, y)
        assert res.beta[0] == pytest.approx(1.0, abs=1e-10)
        assert res.p[0] <= 1e-300

    @pytest.mark.parametrize("dosage", [0, 2])
    def test_monomorphic_snp_marked_dead(self, dosage):
        panel = genome.build_panel([4], np.full(4, 0.3))
        g = genome.simulate_founders(panel, 0.4, 60, seed=245)
        g = monomorphic_snp(g, 2, dosage)
        y = np.random.default_rng(246).standard_normal(60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gwas.run_gwas(g, y)
        x = g.dosages.astype(float)
        assert_dead_and_rest_match(res, 2, lambda j: (y, [x[:, j]]))

    def test_null_trait_no_hits(self):
        panel = genome.random_panel(20000, 1, seed=206)
        g = genome.simulate_founders(panel, 0.0, 1500, seed=207)
        y = np.random.default_rng(208).standard_normal(1500)
        res = gwas.run_gwas(g, y)
        assert int((res.p < gwas.GENOME_WIDE_SIG).sum()) == 0

    def test_single_causal_snp_recovered(self):
        panel = genome.random_panel(50, 1, seed=209)
        g = genome.simulate_founders(panel, 0.0, 50000, seed=210)
        rng = np.random.default_rng(211)
        y = 0.1 * g.dosages[:, 7].astype(float) + rng.standard_normal(50000)
        res = gwas.run_gwas(g, y)
        assert abs(res.beta[7] - 0.1) < 3 * res.se[7]
        assert res.p[7] < gwas.GENOME_WIDE_SIG

    def test_controls_partialled_out(self):
        panel = genome.random_panel(30, 1, seed=212)
        g = genome.simulate_founders(panel, 0.0, 4000, seed=213)
        rng = np.random.default_rng(214)
        sex = rng.integers(0, 2, 4000).astype(float)
        y = 2.0 * sex + rng.standard_normal(4000)
        res = gwas.run_gwas(g, y, controls=sex[:, None], control_names=["sex"])
        assert np.all(res.p > 1e-4)

    def test_rank_deficient_controls_named(self):
        panel = genome.random_panel(5, 1, seed=215)
        g = genome.simulate_founders(panel, 0.0, 100, seed=216)
        c = np.ones((100, 2))
        with pytest.raises(EstimationError, match="dup"):
            gwas.run_gwas(g, np.zeros(100), controls=c, control_names=["dup1", "dup2"])

    def test_thread_invariance(self):
        panel = genome.random_panel(9000, 1, seed=217)
        g = genome.simulate_founders(panel, 0.0, 400, seed=218)
        y = np.random.default_rng(219).standard_normal(400)
        a = gwas.run_gwas(g, y, threads=1)
        b = gwas.run_gwas(g, y, threads=4)
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.se, b.se)

    def test_null_pvalues_uniform(self):
        panel = genome.random_panel(5000, 1, seed=220)
        g = genome.simulate_founders(panel, 0.0, 2000, seed=221)
        y = np.random.default_rng(222).standard_normal(2000)
        res = gwas.run_gwas(g, y)
        ks = stats.kstest(res.p, "uniform").statistic
        assert ks < 1.63 / np.sqrt(5000)  # 1% critical value


class TestTrioGwas:
    def test_trio_unbiased_population_inflated(self, nurture_world):
        panel, parents, children, ped, y, per_snp_direct = nurture_world
        trio = gwas.run_trio_gwas(children, parents, ped, y)
        pop = gwas.run_gwas(children, y)
        trio_scale = slope_through_origin(trio.beta, per_snp_direct)
        pop_scale = slope_through_origin(pop.beta, per_snp_direct)
        # cross-SNP aggregation noise is ~0.04 at this size: 3-sigma bands
        assert trio_scale == pytest.approx(1.0, abs=0.12)
        assert pop_scale == pytest.approx(0.5 / 0.3, abs=0.12)
        assert pop_scale - trio_scale > 0.3

    def test_no_confounds_designs_agree(self):
        panel = genome.random_panel(100, 1, seed=223)
        parents, children, ped = make_trio_population(6000, panel, 0.0, seed=224)
        arch = ps.TraitArchitecture.random(panel, 100, target_h2=0.25, seed=225)
        y = ps.simulate_family_outcome(children, parents, ped, arch, ps.NurtureParams(delta=0.3), seed=226)
        trio = gwas.run_trio_gwas(children, parents, ped, y)
        pop = gwas.run_gwas(children, y)
        diff = trio.beta - pop.beta
        joint_se = np.sqrt(trio.se**2 + pop.se**2)
        assert (np.abs(diff) < 4 * joint_se).mean() > 0.99

    def test_parent_coefficients_capture_nurture(self, nurture_world):
        panel, parents, children, ped, y, per_snp_direct = nurture_world
        trio = gwas.run_trio_gwas(children, parents, ped, y)
        nurture_per_snp = per_snp_direct / 0.3 * 0.2
        m_scale = slope_through_origin(trio.parent_beta[:, 0], nurture_per_snp)
        f_scale = slope_through_origin(trio.parent_beta[:, 1], nurture_per_snp)
        assert m_scale == pytest.approx(1.0, abs=0.15)
        assert f_scale == pytest.approx(1.0, abs=0.15)

    def test_incomplete_trios_dropped(self, nurture_world):
        panel, parents, children, ped, y, _ = nurture_world
        broken = genome.Pedigree(
            child_ids=ped.child_ids,
            mother_ids=["missing"] + ped.mother_ids[1:],
            father_ids=ped.father_ids,
            family_ids=ped.family_ids,
        )
        res = gwas.run_trio_gwas(children, parents, broken, y)
        assert res.n_dropped == 1
        assert res.n[0] == len(ped.child_ids) - 1

    def test_monomorphic_snp_marked_dead(self):
        panel = genome.build_panel([4], np.full(4, 0.3))
        parents, children, ped = make_trio_population(50, panel, 0.4, seed=241)
        parents, children = monomorphic_snp(parents, 2), monomorphic_snp(children, 2)
        y = np.random.default_rng(242).standard_normal(50)
        res = gwas.run_trio_gwas(children, parents, ped, y)
        mothers, fathers = parents.index_of(ped.mother_ids), parents.index_of(ped.father_ids)
        d = parents.dosages.astype(float)
        assert_dead_and_rest_match(res, 2, lambda j: (
            y, [children.dosages[:, j].astype(float), d[mothers, j], d[fathers, j]]))


@pytest.fixture(scope="module")
def sibling_world():
    panel = genome.random_panel(120, 1, seed=231, maf_range=(0.2, 0.5))
    parents, children, ped = make_sibling_population(8000, panel, 0.0, seed=232)
    arch = ps.TraitArchitecture.random(panel, 120, target_h2=0.25, seed=233)
    sigma = np.sqrt(2 * panel.maf * (1 - panel.maf))
    gv_sd = ps.genetic_values(children, arch).std()
    per_snp = arch.effect_vector(panel) / sigma / gv_sd
    return panel, parents, children, ped, arch, per_snp


class TestSiblingGwas:

    def test_variant_equivalence(self, sibling_world):
        panel, parents, children, ped, arch, _ = sibling_world
        y = ps.simulate_family_outcome(children, parents, ped, arch,
                                       ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2), seed=234)
        fe = gwas.run_sibling_gwas(children, ped, y, "family_fixed_effects")
        mc = gwas.run_sibling_gwas(children, ped, y, "mean_sibling_control")
        assert np.max(np.abs(fe.beta - mc.beta)) < 1e-10

    def test_sibling_removes_nurture(self, sibling_world):
        panel, parents, children, ped, arch, per_snp = sibling_world
        y = ps.simulate_family_outcome(children, parents, ped, arch,
                                       ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2), seed=235)
        fe = gwas.run_sibling_gwas(children, ped, y)
        pop = gwas.run_gwas(children, y)
        assert slope_through_origin(fe.beta, per_snp) == pytest.approx(0.3, abs=0.02)
        assert slope_through_origin(pop.beta, per_snp) == pytest.approx(0.5, abs=0.03)

    def test_sibling_spillover_bias(self, sibling_world):
        panel, parents, children, ped, arch, per_snp = sibling_world
        y = ps.simulate_family_outcome(children, parents, ped, arch,
                                       ps.NurtureParams(delta=0.3, gamma=0.1), seed=236)
        fe = gwas.run_sibling_gwas(children, ped, y)
        assert slope_through_origin(fe.beta, per_snp) == pytest.approx(0.2, abs=0.02)

    def test_singletons_excluded(self, sibling_world):
        panel, parents, children, ped, arch, _ = sibling_world
        fams = list(ped.family_ids)
        fams[1] = "lonely"
        ped2 = genome.Pedigree(ped.child_ids, ped.mother_ids, ped.father_ids, fams)
        y = np.random.default_rng(0).standard_normal(len(fams))
        res = gwas.run_sibling_gwas(children, ped2, y)
        assert res.n_dropped == 2  # the orphaned row and its now-singleton sibling

    def test_monomorphic_snp_marked_dead(self, small_panel, small_ld):
        parents, children, ped = make_sibling_population(40, small_panel, small_ld, seed=243)
        children = monomorphic_snp(children, 2)
        y = np.random.default_rng(244).standard_normal(80)
        res = gwas.run_sibling_gwas(children, ped, y, "mean_sibling_control")
        x = children.dosages.astype(float)
        fam_mean = 0.5 * (x[0::2] + x[1::2]).repeat(2, axis=0)
        assert_dead_and_rest_match(res, 2, lambda j: (y, [x[:, j], fam_mean[:, j]]))


class TestMetaAnalysis:
    def _toy_result(self, beta, se, n=100):
        panel = genome.build_panel([2], np.array([0.3, 0.4]))
        return gwas.result_from_stats(panel, np.array(beta, dtype=float), np.array(se, dtype=float), n, "population")

    def test_meta_with_itself(self):
        r = self._toy_result([0.5, -0.2], [0.1, 0.2])
        m = gwas.meta_analyze([r, r])
        assert np.allclose(m.beta, r.beta)
        assert np.allclose(m.se, r.se / np.sqrt(2))
        assert np.all(m.n == 200)

    def test_inverse_variance_formula(self):
        a = self._toy_result([0.0, 0.0], [1.0, 1.0])
        b = self._toy_result([5.0, 5.0], [2.0, 2.0])
        m = gwas.meta_analyze([a, b])
        assert np.allclose(m.beta, 1.0)
        assert np.allclose(m.se, 2 / np.sqrt(5))

    def test_split_halves_match_full(self):
        panel = genome.random_panel(40, 1, seed=241)
        g = genome.simulate_founders(panel, 0.0, 8000, seed=242)
        rng = np.random.default_rng(243)
        y = 0.05 * g.dosages[:, 3].astype(float) + rng.standard_normal(8000)
        full = gwas.run_gwas(g, y)
        ga = genome.GenotypeMatrix(g.ids[:4000], panel, g.planes[:, :4000])
        gb = genome.GenotypeMatrix(g.ids[4000:], panel, g.planes[:, 4000:])
        meta = gwas.meta_analyze([gwas.run_gwas(ga, y[:4000]), gwas.run_gwas(gb, y[4000:])])
        assert np.all(np.abs(meta.beta - full.beta) < 2 * full.se)

    def test_allele_mismatch_rejected(self):
        a = self._toy_result([0.1, 0.1], [0.1, 0.1])
        b = self._toy_result([0.1, 0.1], [0.1, 0.1])
        b.effect_allele[1] = "major"
        with pytest.raises(ConfigError, match="rs1"):
            gwas.meta_analyze([a, b])


class TestClump:
    def test_nothing_significant(self):
        panel = genome.random_panel(20, 5, seed=251)
        g = genome.simulate_founders(panel, 0.5, 500, seed=252)
        res = gwas.run_gwas(g, np.random.default_rng(253).standard_normal(500))
        assert gwas.clump(res, g).leads == []

    def test_correlated_pair_single_lead(self):
        panel = genome.build_panel([2], np.array([0.3, 0.3]))
        g = genome.simulate_founders(panel, 0.95, 4000, seed=254)
        y = g.dosages[:, 0] + 0.2 * np.random.default_rng(255).standard_normal(4000)
        res = gwas.run_gwas(g, y)
        assert res.p[0] < 5e-8 and res.p[1] < 5e-8
        leads = gwas.clump(res, g)
        assert len(leads.leads) == 1
        assert leads.snp_ids[0] == panel.ids[int(np.argmin(res.p))]

    def test_three_causal_loci(self):
        panel = genome.random_panel(60, 6, seed=256, maf_range=(0.25, 0.45))
        g = genome.simulate_founders(panel, 0.8, 6000, seed=257)
        rng = np.random.default_rng(258)
        causal = [3, 33, 57]  # one SNP inside blocks 0, 5, 9
        y = sum(0.25 * g.dosages[:, j].astype(float) for j in causal) + rng.standard_normal(6000)
        res = gwas.run_gwas(g, y)
        leads = gwas.clump(res, g)
        assert len(leads.leads) == 3
        assert sorted({locus for _, locus in leads.leads}) == [0, 5, 9]


class TestExports:
    def test_manhattan_values(self):
        panel = genome.build_panel([3], np.array([0.3, 0.3, 0.3]))
        res = gwas.result_from_stats(panel, np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), 10, "population")
        res.p = np.array([1.0, gwas.GENOME_WIDE_SIG, 1e-320])
        res.beta = stats.norm.isf(res.p / 2)  # keep the consistency invariant
        rows = gwas.manhattan_export(res)
        assert rows[0][2] == 0.0
        assert rows[1][2] == pytest.approx(7.301, abs=0.001)
        # 1e-320 is subnormal: the nearest double is ~5e-6 off in log10
        assert rows[2][2] == pytest.approx(320.0, abs=1e-5)

    def test_sumstats_roundtrip(self, tmp_path):
        panel = genome.random_panel(10, 1, seed=261)
        g = genome.simulate_founders(panel, 0.0, 300, seed=262)
        res = gwas.run_gwas(g, np.random.default_rng(263).standard_normal(300))
        path = str(tmp_path / "sumstats.tsv")
        gwas.write_sumstats_tsv(path, res)
        back = gwas.read_sumstats_tsv(path)
        assert back.snp_ids == res.snp_ids
        assert np.allclose(back.beta, res.beta, rtol=1e-9)
        assert np.allclose(back.se, res.se, rtol=1e-9)
        with open(path) as f:
            assert f.readline().strip().split("\t") == gwas.SUMSTATS_HEADER
