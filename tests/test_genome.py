import re

import numpy as np
import pytest
from scipy import stats

from gxelab import genome
from gxelab.util import CalibrationError, ConfigError, PedigreeError, Stream, child_rng

from conftest import make_sibling_population, make_trio_population


def threshold_dosage_corr_oracle(maf: float, latent_rho: float) -> float:
    """Dosage correlation of two SNPs whose latent Gaussians have corr latent_rho.

    Alleles are indicators {Z < Phi^-1(maf)}; per-haplotype allele covariance
    comes from the bivariate normal orthant probability, dosages add two
    independent haplotypes.
    """
    t = stats.norm.ppf(maf)
    joint = stats.multivariate_normal.cdf([t, t], mean=[0, 0], cov=[[1, latent_rho], [latent_rho, 1]])
    return (joint - maf * maf) / (maf * (1 - maf))


def sibling_dosage_corr_oracle(p: float) -> float:
    """Sibling dosage correlation at one SNP by brute force over the 16 gamete
    picks and all parental haplotype configurations under Hardy-Weinberg."""
    num = 0.0
    e_d = 2 * p
    var = 2 * p * (1 - p)
    for hm in [(a, b) for a in (0, 1) for b in (0, 1)]:
        for hf in [(c, d) for c in (0, 1) for d in (0, 1)]:
            w = (p if hm[0] else 1 - p) * (p if hm[1] else 1 - p) * (p if hf[0] else 1 - p) * (p if hf[1] else 1 - p)
            for i in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):
                        for l in (0, 1):
                            c1 = hm[i] + hf[j]
                            c2 = hm[k] + hf[l]
                            num += w * (1 / 16) * (c1 - e_d) * (c2 - e_d)
    return num / var


class TestSimulateFounders:
    def test_maf_half_mean_dosage(self):
        panel = genome.build_panel([4], np.full(4, 0.5))
        g = genome.simulate_founders(panel, 0.0, 10000, seed=11)
        assert np.allclose(g.dosages.mean(axis=0), 1.0, atol=0.03)

    def test_rho_zero_adjacent_independent(self):
        panel = genome.build_panel([6], np.full(6, 0.3))
        g = genome.simulate_founders(panel, 0.0, 10000, seed=120)
        d = g.dosages.astype(float)
        for j in range(5):
            r = np.corrcoef(d[:, j], d[:, j + 1])[0, 1]
            assert abs(r) < 0.03

    def test_adjacent_corr_matches_threshold_oracle(self):
        maf, rho = 0.3, 0.9
        panel = genome.build_panel([2], np.full(2, maf))
        g = genome.simulate_founders(panel, rho, 40000, seed=13)
        d = g.dosages.astype(float)
        r = np.corrcoef(d[:, 0], d[:, 1])[0, 1]
        assert r == pytest.approx(threshold_dosage_corr_oracle(maf, rho), abs=0.02)

    def test_ld_decay_monotone_with_distance(self):
        panel = genome.build_panel([5], np.full(5, 0.25))
        g = genome.simulate_founders(panel, 0.8, 30000, seed=14)
        d = g.dosages.astype(float)
        corrs = [np.corrcoef(d[:, 0], d[:, j])[0, 1] for j in range(1, 5)]
        assert all(corrs[i] > corrs[i + 1] - 0.02 for i in range(3))
        oracle = [threshold_dosage_corr_oracle(0.25, 0.8**dist) for dist in range(1, 5)]
        assert np.allclose(corrs, oracle, atol=0.02)

    def test_hardy_weinberg_heterozygosity(self):
        panel = genome.build_panel([3], np.array([0.1, 0.3, 0.5]))
        n = 10000
        g = genome.simulate_founders(panel, 0.0, n, seed=15)
        for j, p in enumerate([0.1, 0.3, 0.5]):
            expected = 2 * p * (1 - p)
            se = np.sqrt(expected * (1 - expected) / n)
            het = (g.dosages[:, j] == 1).mean()
            assert abs(het - expected) < 3 * se

    def test_deterministic_and_thread_invariant(self, small_panel, small_ld):
        a = genome.simulate_founders(small_panel, small_ld, 200, seed=7, threads=1)
        b = genome.simulate_founders(small_panel, small_ld, 200, seed=7, threads=4)
        assert np.array_equal(a.planes, b.planes)
        c = genome.simulate_founders(small_panel, small_ld, 200, seed=8)
        assert not np.array_equal(a.planes, c.planes)

    def test_chunked_independent_draw_equals_one_shot_draw(self):
        n, j = 2000, 800  # 2**20 // (2 * 800) = 655 individuals per chunk: four chunks, the last ragged
        assert n > 3 * (2**20 // (2 * j))
        panel = genome.random_panel(j, 1, seed=5)
        planes = genome.founder_planes(panel, 0.0, n, seed=17)
        one_shot = child_rng(17, Stream.FOUNDERS, 0).random((2 * n, j)) < panel.maf
        assert planes.dtype == np.uint8
        assert np.array_equal(planes, one_shot.reshape(n, 2, j).transpose(1, 0, 2))


class TestTransmit:
    def test_forced_heterozygote(self):
        panel = genome.build_panel([1], np.array([0.5]))
        planes = np.zeros((2, 2, 1), dtype=np.uint8)
        planes[:, 0, 0] = 1  # mother dosage 2, father dosage 0
        parents = genome.GenotypeMatrix(["m", "f"], panel, planes)
        ped = genome.Pedigree(["c"], ["m"], ["f"], ["fam"])
        for seed in range(5):
            child = genome.transmit(parents, ped, seed)
            assert child.dosages[0, 0] == 1

    def test_parent_child_regression_and_correlation(self):
        panel = genome.build_panel([1], np.array([0.3]))
        parents, children, ped = make_trio_population(10000, panel, 0.0, seed=21)
        mi = parents.index_of(ped.mother_ids)
        fi = parents.index_of(ped.father_ids)
        dm = parents.dosages[mi, 0].astype(float)
        df = parents.dosages[fi, 0].astype(float)
        dc = children.dosages[:, 0].astype(float)
        midparent = 0.5 * (dm + df)
        slope = np.cov(dc, midparent)[0, 1] / np.var(midparent)
        assert slope == pytest.approx(1.0, abs=0.05)
        assert np.corrcoef(dc, dm)[0, 1] == pytest.approx(0.5, abs=0.03)
        assert np.corrcoef(dc, df)[0, 1] == pytest.approx(0.5, abs=0.03)

    def test_sibling_correlation_matches_oracle(self):
        panel = genome.build_panel([1], np.array([0.3]))
        parents, children, ped = make_sibling_population(10000, panel, 0.0, seed=22)
        d = children.dosages[:, 0].astype(float)
        r = np.corrcoef(d[0::2], d[1::2])[0, 1]
        oracle = sibling_dosage_corr_oracle(0.3)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert r == pytest.approx(oracle, abs=0.03)

    def test_child_alleles_present_in_parent(self, small_panel, small_ld):
        parents, children, ped = make_trio_population(300, small_panel, small_ld, seed=23)
        mi = parents.index_of(ped.mother_ids)
        fi = parents.index_of(ped.father_ids)
        dm = parents.dosages[mi]
        df = parents.dosages[fi]
        from_mother, from_father = children.planes
        assert not np.any((dm == 0) & (from_mother == 1))
        assert not np.any((dm == 2) & (from_mother == 0))
        assert not np.any((df == 0) & (from_father == 1))
        assert not np.any((df == 2) & (from_father == 0))

    def test_allele_frequency_conserved(self, small_panel, small_ld):
        parents, children, _ = make_trio_population(5000, small_panel, small_ld, seed=24)
        fp = genome.allele_frequencies(parents)
        fc = genome.allele_frequencies(children)
        se = np.sqrt(fp * (1 - fp) / (2 * 5000))
        assert np.all(np.abs(fc - fp) < 3 * se + 1e-12)

    @pytest.mark.parametrize("block_sizes", [[3, 1, 5, 2, 1, 4], [1] * 12], ids=["mixed_blocks", "single_snp_blocks"])
    def test_xor_kernel_matches_strand_choice_oracle(self, block_sizes):
        panel = genome.build_panel(block_sizes, np.full(sum(block_sizes), 0.4))
        planes = genome.founder_planes(panel, 0.5, 50, seed=31)
        idx = np.random.default_rng(32).integers(0, 50, (2, 70))
        child = genome.transmit_planes(planes[:, idx], panel, seed=33)
        # the strand choice as np.where on the per-block choice array, drawn from the same stream
        choice = child_rng(33, Stream.TRANSMISSION).integers(0, 2, size=(70, len(block_sizes), 2), dtype=np.uint8)
        block_of_snp = np.repeat(np.arange(len(block_sizes)), block_sizes)
        s0, s1 = planes
        oracle = np.stack([np.where(choice[:, block_of_snp, slot], s1[idx[slot]], s0[idx[slot]]) for slot in (0, 1)])
        assert child.dtype == np.uint8 and np.array_equal(child, oracle)

    def test_missing_parent_rejected(self, small_panel, small_ld):
        parents = genome.simulate_founders(small_panel, small_ld, 4, seed=1)
        ped = genome.Pedigree(["c"], ["nope"], [parents.ids[0]], ["fam"])
        with pytest.raises(PedigreeError):
            genome.transmit(parents, ped, 0)


class TestAssortativePairs:
    def test_target_zero(self):
        rng = np.random.default_rng(31)
        phen = rng.standard_normal(10000)
        pairs = genome.assortative_pairs(phen, 0.0, seed=31)
        a, b = zip(*pairs)
        r = np.corrcoef(phen[list(a)], phen[list(b)])[0, 1]
        assert abs(r) < 0.05

    def test_target_one_exact_rank_matching(self):
        rng = np.random.default_rng(32)
        phen = rng.standard_normal(10000)
        pairs = genome.assortative_pairs(phen, 1.0, seed=32)
        a, b = zip(*pairs)
        r = np.corrcoef(phen[list(a)], phen[list(b)])[0, 1]
        assert r >= 0.99

    def test_target_calibrated(self):
        rng = np.random.default_rng(33)
        phen = rng.standard_normal(20000)
        pairs = genome.assortative_pairs(phen, 0.4, seed=33)
        a, b = zip(*pairs)
        r = np.corrcoef(phen[list(a)], phen[list(b)])[0, 1]
        assert r == pytest.approx(0.4, abs=0.05)

    def test_degenerate_phenotype(self):
        with pytest.raises(CalibrationError):
            genome.assortative_pairs(np.ones(100), 0.5, seed=1)


class TestPrincipalComponents:
    def test_pc1_separates_subpopulations(self):
        n, j = 2000, 500
        rng = np.random.default_rng(41)
        mafs_a = rng.uniform(0.1, 0.5, j)
        shift = rng.choice([-1, 1], j) * rng.uniform(0.08, 0.16, j)
        mafs_b = np.clip(mafs_a + shift, 0.05, 0.5)
        panel = genome.build_panel([j], mafs_a)
        ga = genome.simulate_founders(panel, 0.0, n // 2, seed=42)
        panel_b = genome.build_panel([j], mafs_b)
        gb = genome.simulate_founders(panel_b, 0.0, n // 2, seed=43)
        planes = np.concatenate([ga.planes, gb.planes], axis=1)
        g = genome.GenotypeMatrix([f"i{i}" for i in range(n)], panel, planes)
        pcs = genome.principal_components(g, 2)
        label = np.r_[np.zeros(n // 2), np.ones(n // 2)]
        assert abs(np.corrcoef(pcs[:, 0], label)[0, 1]) > 0.9

    def test_homogeneous_population_null(self):
        panel = genome.random_panel(200, 10, seed=44)
        g = genome.simulate_founders(panel, 0.3, 5000, seed=45)
        pcs = genome.principal_components(g, 3)
        rng = np.random.default_rng(46)
        label = rng.integers(0, 2, 5000).astype(float)
        for c in range(3):
            assert abs(np.corrcoef(pcs[:, c], label)[0, 1]) < 0.05

    @pytest.mark.parametrize("n, j", [(60, 200), (400, 30)], ids=["wide", "tall"])
    def test_matches_svd_reference(self, n, j):
        panel = genome.random_panel(j, 10, seed=48)
        g = genome.simulate_founders(panel, 0.5, n, seed=49)
        d = g.dosages.astype(float)
        x = (d - d.mean(axis=0)) / d.std(axis=0)
        u = np.linalg.svd(x, full_matrices=False)[0][:, :5]
        u *= np.sign(u[np.argmax(np.abs(u), axis=0), range(5)])
        assert np.abs(genome.principal_components(g, 5) - u).max() < 1e-10

    def test_rank_one_pattern(self):
        panel = genome.build_panel([4], np.full(4, 0.5))
        n = 40
        planes = np.zeros((2, n, 4), dtype=np.uint8)
        planes[:, ::2, :] = 1  # alternating all-0 / all-2 rows: rank-1 standardized
        g = genome.GenotypeMatrix([f"i{i}" for i in range(n)], panel, planes)
        pcs = genome.principal_components(g, 1)
        pattern = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / np.sqrt(n)
        assert np.allclose(np.sign(pcs[0, 0]) * pcs[:, 0], pattern, rtol=0, atol=1e-12)

    def test_k_above_rank_rejected(self):
        panel = genome.build_panel([4], np.full(4, 0.5))
        planes = np.zeros((2, 40, 4), dtype=np.uint8)
        planes[:, ::2, :] = 1
        rank_one = genome.GenotypeMatrix([f"i{i}" for i in range(40)], panel, planes)
        with pytest.raises(ConfigError, match="rank"):
            genome.principal_components(rank_one, 2)
        with pytest.raises(ConfigError):
            genome.principal_components(rank_one, 5)
        planes = np.random.default_rng(50).integers(0, 2, (10, 50, 2)).astype(np.uint8).transpose(2, 0, 1)
        wide = genome.GenotypeMatrix([f"i{i}" for i in range(10)], genome.build_panel([50], np.full(50, 0.5)), planes)
        with pytest.raises(ConfigError, match="rank"):  # centring leaves rank n - 1
            genome.principal_components(wide, 10)

    def test_zero_variance_snp_warned_not_fatal(self):
        panel = genome.build_panel([3], np.full(3, 0.4))
        planes = np.random.default_rng(47).integers(0, 2, (50, 3, 2)).astype(np.uint8).transpose(2, 0, 1)
        planes[:, :, 1] = 0
        g = genome.GenotypeMatrix([f"i{i}" for i in range(50)], panel, planes)
        with pytest.warns(UserWarning, match="zero-variance"):
            pcs = genome.principal_components(g, 1)
        assert pcs.shape == (50, 1)


class TestGenotypeReader:
    """read_genotypes_tsv keeps read_tsv's line rules and today's check order."""

    PANEL = genome.build_panel([1, 1, 1], np.full(3, 0.3))
    LF = "iid\trs0\trs1\trs2\ni0\t0\t1\t2\ni1\t2\t2\t0\n"

    def read(self, tmp_path, text):
        path = tmp_path / "g.tsv"
        path.write_bytes(text.encode())
        return genome.read_genotypes_tsv(str(path), self.PANEL)

    def assert_same(self, a, b):
        assert a.ids == b.ids
        assert np.array_equal(a.planes, b.planes)

    def test_crlf_reads_as_its_lf_twin(self, tmp_path):
        self.assert_same(self.read(tmp_path, self.LF.replace("\n", "\r\n")), self.read(tmp_path, self.LF))

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        header, first, second = self.LF.splitlines()
        text = f"\n \t \n{header}\n\n  \n{first}\r\n\t\t\t\n{second}\n \n"
        self.assert_same(self.read(tmp_path, text), self.read(tmp_path, self.LF))

    def test_non_ascii_ids_round_trip(self, tmp_path):
        d = np.array([[0, 1, 2], [2, 2, 0], [1, 0, 1]])
        g = genome.GenotypeMatrix(["ïd-ü", "個体", "فرد٣"], self.PANEL, np.stack([d >= 1, d == 2]))
        path = str(tmp_path / "g.tsv")
        genome.write_genotypes_tsv(path, g)
        self.assert_same(genome.read_genotypes_tsv(path, self.PANEL), g)

    @pytest.mark.parametrize("digit", ["\uff11", "\u0661"], ids=["fullwidth", "arabic_indic"])
    def test_unicode_digit_cell_names_its_column(self, tmp_path, digit):
        assert int(digit) == 1  # int() would have taken it
        with pytest.raises(ConfigError, match=f"column 'rs1' of .*g.tsv holds '{digit}', not a dosage"):
            self.read(tmp_path, self.LF.replace("i1\t2\t2", f"i1\t2\t{digit}"))

    def test_first_bad_cell_in_row_major_order_when_the_byte_count_fits(self, tmp_path):
        # an empty cell and a two-byte digit leave the byte block its valid length
        text = self.LF.replace("i0\t0\t1\t2", "i0\t0\t1\t").replace("i1\t2", "i1\t\u0662")
        assert len(text.encode()) == len(self.LF.encode())
        with pytest.raises(ConfigError, match="column 'rs2' of .*g.tsv holds '', not a dosage"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("text, message", [
        ("iid\trsX\trs1\trs2\ni0\t0\t01\t2\ni0\t2\t2\ni1\t0\t1\t1\n", "data row 2 has 3 fields, the header has 4"),
        ("iid\trsX\trs1\trs2\ni0\t0\t01\t2\ni0\t2\t2\t0\n", "does not match the panel"),
        ("iid\trsX\trs1\trs2\n", "does not match the panel"),
        ("iid\trs0\trs1\trs2\ni0\t0\t01\t2\ni0\t2\t2\t0\n", "individual id 'i0' is repeated"),
        ("iid\trs0\trs1\trs2\ni0\t0\t1\t2\ni1\t2\t2\t5\ni2\t01\t1\t1\n", "column 'rs2' of"),
    ], ids=["ragged_first", "header_before_repeated", "header_before_no_individuals", "repeated_before_cell",
            "cells_in_row_major_order"])
    def test_error_order(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            self.read(tmp_path, text)


class TestAlleleFrequencies:
    def test_constant_columns(self):
        panel = genome.build_panel([2], np.full(2, 0.5))
        planes = np.zeros((2, 10, 2), dtype=np.uint8)
        planes[:, :, 1] = 1
        g = genome.GenotypeMatrix([f"i{i}" for i in range(10)], panel, planes)
        freqs = genome.allele_frequencies(g)
        assert freqs[0] == 0.0 and freqs[1] == 1.0

    def test_founder_frequency_near_maf(self):
        panel = genome.build_panel([1], np.array([0.2]))
        g = genome.simulate_founders(panel, 0.0, 10000, seed=48)
        assert genome.allele_frequencies(g)[0] == pytest.approx(0.2, abs=0.01)


class TestPanelAndIo:
    def test_panel_invariants(self):
        with pytest.raises(ConfigError):
            genome.Panel(["a"], [1], [100], [0.6], [0])
        with pytest.raises(ConfigError):
            genome.Panel(["a"], [1], [100], [0.0], [0])
        with pytest.raises(ConfigError):
            genome.Panel(["a", "b"], [1, 1], [100, 100], [0.3, 0.3], [0, 0])
        with pytest.raises(ConfigError, match="contiguous"):
            genome.Panel(["a", "b", "c"], [1, 1, 1], [100, 200, 300], [0.3, 0.3, 0.3], [0, 1, 0])
        with pytest.raises(ConfigError, match="SNP id 'a' is repeated"):
            genome.Panel(["a", "b", "a"], [1, 1, 1], [100, 200, 300], [0.3, 0.3, 0.3], [0, 1, 2])

    def test_panel_columns_are_read_only_and_looked_up_by_id(self):
        panel = genome.build_panel([2, 1], np.array([0.1, 0.25, 0.5]))
        for column in (panel.chrom, panel.pos, panel.maf, panel.block, panel.starts, panel.stops, panel.sd):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert (panel.starts.tolist(), panel.stops.tolist(), panel.block_sizes.tolist()) == ([0, 2], [2, 3], [2, 1])
        assert panel.columns(["rs2", "rs0"]).tolist() == [2, 0]
        with pytest.raises(ConfigError, match=r"absent from the panel: \['rsX'\]"):
            panel.columns(["rs1", "rsX"])
        g = genome.simulate_founders(panel, 0.0, 4, seed=1)
        assert g.panel is panel and g.subset(g.ids[:2]).panel is panel

    def test_pedigree_invariants(self, tmp_path):
        with pytest.raises(PedigreeError):
            genome.Pedigree(["c"], ["p"], ["p"], ["f"])
        with pytest.raises(PedigreeError, match="child id 'a' is repeated"):
            genome.Pedigree(["a", "b", "a"], ["m1", "m2", "m3"], ["f1", "f2", "f3"], ["x1", "x2", "x3"])
        parents = tmp_path / "parents.tsv"
        parents.write_text("iid\trs0\nf0\t0\nf1\t1\nf0\t2\n")
        with pytest.raises(ConfigError, match="'f0' is repeated in .*parents.tsv"):
            genome.read_genotypes_tsv(str(parents), genome.build_panel([1], np.array([0.3])))
        with pytest.raises(PedigreeError, match="ancestor"):
            genome.Pedigree(["a", "b"], ["b", "a"], ["x", "y"], ["f1", "f2"])
        with pytest.raises(PedigreeError, match="two children"):
            genome.Pedigree(["a"], ["m"], ["f"], ["fam"], design="sibling-pairs")

    def test_shared_ancestry_is_not_a_cycle(self):
        # c is the child of maternal half-siblings m and f, who share the mother g1
        ped = genome.Pedigree(["g1", "m", "f", "c"], ["a", "g1", "g1", "m"], ["b", "x1", "x2", "f"],
                              ["F0", "F1", "F2", "F3"])
        assert ped.child_ids == ["g1", "m", "f", "c"]
        with pytest.raises(PedigreeError, match="ancestor"):
            genome.Pedigree(["g1", "m", "c"], ["a", "g1", "m"], ["c", "x1", "g1"], ["F0", "F1", "F2"])

    def test_random_panel_blocks_and_sizes(self):
        panel = genome.random_panel(10, 4, seed=1, maf_range=(0.2, 0.3))
        assert panel.block_sizes.tolist() == [4, 4, 2]
        assert np.all((0.2 <= panel.maf) & (panel.maf <= 0.3))
        for n_snps, block_size in [(10, -2), (10, 0), (0, 5), (-3, 1)]:
            with pytest.raises(ConfigError, match="n_snps and block_size must be >= 1"):
                genome.random_panel(n_snps, block_size, seed=1)

    def test_genotype_tsv_roundtrip(self, tmp_path, small_panel, small_ld):
        g = genome.simulate_founders(small_panel, small_ld, 25, seed=5)
        path = str(tmp_path / "geno.tsv")
        genome.write_genotypes_tsv(path, g)
        g2 = genome.read_genotypes_tsv(path, small_panel)
        assert g2.ids == g.ids
        assert np.array_equal(g2.dosages, g.dosages)

    def test_panel_tsv_roundtrip(self, tmp_path, small_panel):
        path = str(tmp_path / "panel.tsv")
        genome.write_panel_tsv(path, small_panel)
        assert genome.read_panel_tsv(path) == small_panel

    def test_pedigree_tsv_roundtrip(self, tmp_path):
        ped = genome.Pedigree(["c1", "c2"], ["m1", "m2"], ["f1", "f2"], ["fam1", "fam2"])
        path = str(tmp_path / "ped.tsv")
        genome.write_pedigree_tsv(path, ped)
        ped2 = genome.read_pedigree_tsv(path)
        assert ped2.child_ids == ped.child_ids and ped2.family_ids == ped.family_ids
