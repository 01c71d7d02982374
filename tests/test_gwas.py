import tracemalloc
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
        assert res.se[j] == pytest.approx(ref.se("x1"), rel=1e-10)


def shuffled(ped, seed):
    """ped with its rows in a seeded random order; each row keeps its ids."""
    idx = np.random.default_rng(seed).permutation(len(ped.child_ids))
    cols = (ped.child_ids, ped.mother_ids, ped.father_ids, ped.family_ids)
    return genome.Pedigree(*([col[i] for i in idx] for col in cols), design=ped.design)


def assert_same_stats(a, b):
    for field in ("beta", "se", "p", "n", "parent_beta"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.n_dropped == b.n_dropped


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

    @pytest.mark.parametrize("n_trios", [3, 4])
    def test_too_few_trios_rejected(self, small_panel, small_ld, n_trios):
        """Four coefficients need more than four trios for HC1's n/(n - k)."""
        parents, children, ped = make_trio_population(n_trios, small_panel, small_ld, seed=264)
        y = np.random.default_rng(265).standard_normal(n_trios)
        with pytest.raises(EstimationError, match=f"^{n_trios} observations for 4 regressors"):
            gwas.run_trio_gwas(children, parents, ped, y)

    @pytest.mark.parametrize("n_y", [29, 40])
    def test_outcome_length_checked(self, small_panel, small_ld, n_y):
        parents, children, ped = make_trio_population(30, small_panel, small_ld, seed=258)
        y = np.random.default_rng(259).standard_normal(n_y)
        with pytest.raises(ConfigError, match="^outcome length does not match genotypes$"):
            gwas.run_trio_gwas(children, parents, ped, y)

    def test_pedigree_rows_matched_by_id(self, small_panel, small_ld):
        parents, children, ped = make_trio_population(60, small_panel, small_ld, seed=245)
        y = np.random.default_rng(246).standard_normal(60)
        assert_same_stats(gwas.run_trio_gwas(children, parents, shuffled(ped, 247), y),
                          gwas.run_trio_gwas(children, parents, ped, y))


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
        assert np.array_equal(fe.se, mc.se) and np.array_equal(fe.p, mc.p)

    @pytest.mark.parametrize("variant", ["family_fixed_effects", "mean_sibling_control"])
    def test_null_calibration(self, variant):
        """Under y = u_f + eps no SNP has an effect, so a variant whose SE
        holds its size rejects about p = 5% of SNPs at p < 0.05. With S
        outcome draws on F pairs and J independent SNPs, the pooled rejection
        share has variance (p(1 - p)/J + 0.0262/F)/S. The first term is
        binomial. The second sums, over the J^2 pairs of SNPs, the covariance
        of their rejection indicators, rho^2 (2 c phi(c))^2 / 2 = 0.0262 rho^2
        at c = 1.96, where rho is the correlation of their within-pair dosage
        differences and E[rho^2] = 1/F. At S = 6, F = 1,000 and J = 2,000 the
        SD is 0.29%, so the band 5% +- 4 SD (3.85-6.15%) is left by chance
        with probability about 6e-5. The normal approximation to a t with
        about F residual degrees of freedom moves the size by 0.03%."""
        S, F, J = 6, 1000, 2000
        panel = genome.random_panel(J, 1, seed=266)
        _, children, ped = make_sibling_population(F, panel, 0.0, seed=267)
        rng = np.random.default_rng(269)
        rejected = [(gwas.run_sibling_gwas(children, ped, np.repeat(rng.standard_normal(F), 2)
                                           + rng.standard_normal(2 * F), variant).p < 0.05).mean()
                    for _ in range(S)]
        assert abs(np.mean(rejected) - 0.05) <= 4 * np.sqrt((0.05 * 0.95 / J + 0.0262 / F) / S)

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
        # the within-family reference: OLS on the SNP and family dummies, the intercept standing for family 0
        dummies = list((np.arange(80)[:, None] // 2 == np.arange(1, 40)).astype(float).T)
        assert_dead_and_rest_match(res, 2, lambda j: (y, [x[:, j]] + dummies))

    @pytest.mark.parametrize("variant", ["family_fixed_effects", "mean_sibling_control"])
    def test_pedigree_rows_matched_by_id(self, small_panel, small_ld, variant):
        parents, children, ped = make_sibling_population(40, small_panel, small_ld, seed=248)
        y = np.random.default_rng(249).standard_normal(80)
        assert_same_stats(gwas.run_sibling_gwas(children, shuffled(ped, 250), y, variant),
                          gwas.run_sibling_gwas(children, ped, y, variant))

    @pytest.mark.parametrize("variant", ["family_fixed_effects", "mean_sibling_control"])
    @pytest.mark.parametrize("n_y", [79, 90])
    def test_outcome_length_checked(self, small_panel, small_ld, variant, n_y):
        parents, children, ped = make_sibling_population(40, small_panel, small_ld, seed=260)
        y = np.random.default_rng(261).standard_normal(n_y)
        with pytest.raises(ConfigError, match="^outcome length does not match genotypes$"):
            gwas.run_sibling_gwas(children, ped, y, variant)

    def test_genotyped_families_outside_pedigree_left_out(self, small_panel, small_ld):
        parents, children, ped = make_sibling_population(40, small_panel, small_ld, seed=251)
        y = np.random.default_rng(252).standard_normal(80)
        cols = (ped.child_ids, ped.mother_ids, ped.father_ids, ped.family_ids)
        first30 = genome.Pedigree(*(col[:60] for col in cols), design="sibling-pairs")
        assert_same_stats(gwas.run_sibling_gwas(children, first30, y),
                          gwas.run_sibling_gwas(children.subset(first30.child_ids), first30, y[:60]))


def four_designs(panel, seed):
    """Population (two controls, two threads), trio and both sibling GWAS on
    small seeded cohorts over panel."""
    rng = np.random.default_rng(seed)
    g = genome.simulate_founders(panel, 0.5, 120, seed)
    parents, children, trio_ped = make_trio_population(60, panel, 0.5, seed + 1)
    _, siblings, sib_ped = make_sibling_population(40, panel, 0.5, seed + 2)
    y_pop, y_trio, y_sib = rng.standard_normal(120), rng.standard_normal(60), rng.standard_normal(80)
    return [gwas.run_gwas(g, y_pop, controls=rng.standard_normal((120, 2)), threads=2),
            gwas.run_trio_gwas(children, parents, trio_ped, y_trio),
            gwas.run_sibling_gwas(siblings, sib_ped, y_sib, "family_fixed_effects"),
            gwas.run_sibling_gwas(siblings, sib_ped, y_sib, "mean_sibling_control")]


class TestOneLoop:
    """Every design fits gwas.CHUNK SNP columns at a time."""

    def test_chunk_width_changes_nothing(self, monkeypatch):
        panel = genome.build_panel([5] * 6, 0.3)  # 30 SNPs: four chunks of 7 and one of 2
        pop, trio, fe, mc = four_designs(panel, 253)
        monkeypatch.setattr(gwas, "CHUNK", 7)
        pop7, trio7, fe7, mc7 = four_designs(panel, 253)
        assert_same_stats(trio7, trio)
        # The Frisch-Waugh slope's X'y is one BLAS gemv per chunk, and OpenBLAS sums
        # the columns past a chunk's last full block of 4 in another order: a width
        # of 7 moves those in the last bit
        for a, b in ((pop, pop7), (fe, fe7), (mc, mc7)):
            assert np.allclose(b.beta, a.beta, rtol=1e-12, atol=0) and np.allclose(b.se, a.se, rtol=1e-12, atol=0)
            assert np.array_equal(b.n, a.n) and b.n_dropped == a.n_dropped

    @pytest.mark.parametrize("design", ["trio", "family_fixed_effects", "mean_sibling_control"])
    def test_family_designs_thread_invariant(self, monkeypatch, design):
        monkeypatch.setattr(gwas, "CHUNK", 8)
        panel = genome.build_panel([5] * 6, 0.3)  # 30 SNPs: four chunks
        parents, children, trio_ped = make_trio_population(60, panel, 0.5, 262)
        _, siblings, sib_ped = make_sibling_population(40, panel, 0.5, 263)

        def run(threads):
            if design == "trio":
                return gwas.run_trio_gwas(children, parents, trio_ped, np.arange(60.0) % 7, threads)
            return gwas.run_sibling_gwas(siblings, sib_ped, np.arange(80.0) % 7, design, threads)

        assert_same_stats(run(2), run(1))

    @pytest.mark.parametrize("design", ["trio", "family_fixed_effects", "mean_sibling_control"])
    def test_peak_memory_below_one_float_copy(self, design):
        n_snps = 8 * gwas.CHUNK
        panel = genome.build_panel([8] * (n_snps // 8), 0.3)
        population = make_trio_population if design == "trio" else make_sibling_population
        parents, children, ped = population(250, panel, 0.0, seed=256)
        parents.dosages, children.dosages  # the int8 dosage blocks are inputs, built before tracing
        n = children.n_individuals
        y = np.random.default_rng(257).standard_normal(n)
        tracemalloc.start()
        try:
            if design == "trio":
                gwas.run_trio_gwas(children, parents, ped, y)
            else:
                gwas.run_sibling_gwas(children, ped, y, design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n_snps * 8  # one float64 copy of the analysed block


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
