import numpy as np
import pytest

from gxelab import genome, gwas, pgi as pgi_mod, phenosim as ps
from gxelab.util import ConfigError


def make_world(n_disc, n_hold, n_snps, h2, seed, block_size=1, rho=0.0):
    panel = genome.random_panel(n_snps, block_size, seed=seed, maf_range=(0.2, 0.5))
    g_disc = genome.simulate_founders(panel, rho, n_disc, seed=seed + 1)
    g_hold = genome.simulate_founders(panel, rho, n_hold, seed=seed + 2)
    g_hold = genome.GenotypeMatrix([f"h{i}" for i in range(n_hold)], panel, g_hold.planes)
    arch = ps.TraitArchitecture.random(panel, max(2, int(0.8 * n_snps)), target_h2=h2, seed=seed)
    y_disc = ps.simulate_trait(g_disc, arch, seed=seed + 3)
    y_hold = ps.simulate_trait(g_hold, arch, seed=seed + 4)
    return panel, arch, g_disc, y_disc, g_hold, y_hold


class TestBuildPgi:
    def test_single_snp_identity(self):
        panel = genome.build_panel([1], np.array([0.3]))
        g = genome.simulate_founders(panel, 0.0, 400, seed=301)
        res = gwas.result_from_stats(panel, np.array([1.0]), np.array([0.1]), 400, "population")
        p = pgi_mod.build_pgi(res, g)
        assert np.array_equal(p.raw_values, g.dosages[:, 0].astype(float))
        assert abs(p.values.mean()) < 1e-9
        assert p.values.std() == pytest.approx(1.0, abs=1e-9)

    def test_zero_weights_fail_loudly(self):
        panel = genome.build_panel([2], np.array([0.3, 0.4]))
        g = genome.simulate_founders(panel, 0.0, 100, seed=302)
        res = gwas.result_from_stats(panel, np.zeros(2), np.ones(2), 100, "population")
        with pytest.raises(ConfigError, match="zero variance"):
            pgi_mod.build_pgi(res, g)

    def test_allele_flip_counted_and_equivalent(self):
        panel = genome.build_panel([3], np.array([0.3, 0.4, 0.2]))
        g = genome.simulate_founders(panel, 0.0, 500, seed=303)
        res = gwas.result_from_stats(panel, np.array([0.5, -0.2, 0.1]), np.full(3, 0.1), 500, "population")
        straight = pgi_mod.build_pgi(res, g)
        flipped = gwas.result_from_stats(panel, np.array([-0.5, -0.2, 0.1]), np.full(3, 0.1), 500, "population")
        flipped.effect_allele[0] = "major"
        other = pgi_mod.build_pgi(flipped, g)
        assert other.n_flipped == 1
        assert np.allclose(other.values, straight.values)

    def test_unknown_snp_rejected(self):
        panel = genome.build_panel([2], np.array([0.3, 0.4]))
        g = genome.simulate_founders(panel, 0.0, 100, seed=304)
        alien = genome.Panel(["weird0", "rs1"], [2, 1], [100, 2000], [0.3, 0.4], [5, 0])
        res = gwas.result_from_stats(alien, np.ones(2), np.ones(2), 100, "population")
        with pytest.raises(ConfigError, match="weird0"):
            pgi_mod.build_pgi(res, g)

    def test_all_snps_beat_lead_snps(self):
        wins = 0
        gaps = []
        for rep in range(12):
            panel, arch, g_disc, y_disc, g_hold, y_hold = make_world(
                3000, 3000, 60, 0.4, seed=310 + 10 * rep)
            res = gwas.run_gwas(g_disc, y_disc)
            leads = gwas.clump(res, g_disc, p_thresh=1e-4, r2_thresh=0.1)
            p_all = pgi_mod.build_pgi(res, g_hold)
            r2_all = pgi_mod.incremental_r2(p_all, y_hold)
            if leads.leads:
                p_lead = pgi_mod.build_pgi(res, g_hold, selection=leads)
                r2_lead = pgi_mod.incremental_r2(p_lead, y_hold)
            else:
                r2_lead = 0.0
            gaps.append(r2_all - r2_lead)
            wins += r2_all >= r2_lead
        assert np.mean(gaps) > 0
        assert wins >= 10

    def test_standardization_idempotent(self):
        panel, arch, g_disc, y_disc, g_hold, y_hold = make_world(500, 500, 20, 0.3, seed=320)
        res = gwas.run_gwas(g_disc, y_disc)
        p = pgi_mod.build_pgi(res, g_hold)
        again = (p.values - p.values.mean()) / p.values.std()
        assert np.allclose(again, p.values, atol=1e-12)


class TestIncrementalR2:
    def test_independent_outcome(self):
        panel, arch, g_disc, y_disc, g_hold, _ = make_world(2000, 10000, 40, 0.3, seed=330)
        res = gwas.run_gwas(g_disc, y_disc)
        p = pgi_mod.build_pgi(res, g_hold)
        y_indep = np.random.default_rng(331).standard_normal(10000)
        assert pgi_mod.incremental_r2(p, y_indep) < 0.005

    def test_monotone_in_discovery_size(self):
        # tripling the discovery cohort twice: incremental R2 should rise
        increasing = 0
        for rep in range(10):
            r2s = []
            panel = genome.random_panel(80, 1, seed=340 + rep, maf_range=(0.2, 0.5))
            arch = ps.TraitArchitecture.random(panel, 64, target_h2=0.25, seed=340 + rep)
            g_hold = genome.simulate_founders(panel, 0.0, 4000, seed=341 + 31 * rep)
            y_hold = ps.simulate_trait(g_hold, arch, seed=342 + 31 * rep)
            for k, n_disc in enumerate((500, 1500, 4500)):
                g_disc = genome.simulate_founders(panel, 0.0, n_disc, seed=343 + 31 * rep + k)
                y_disc = ps.simulate_trait(g_disc, arch, seed=344 + 31 * rep + k)
                res = gwas.run_gwas(g_disc, y_disc)
                r2s.append(pgi_mod.incremental_r2(pgi_mod.build_pgi(res, g_hold), y_hold))
            increasing += r2s[0] < r2s[1] < r2s[2]
        assert increasing >= 9

    def test_true_weights_reach_heritability(self):
        panel, arch, _, _, g_hold, y_hold = make_world(100, 10000, 100, 0.4, seed=350)
        sigma = np.sqrt(2 * panel.maf * (1 - panel.maf))
        truth = gwas.result_from_stats(panel, arch.effect_vector(panel) / sigma, np.ones(100), 0, "truth")
        p = pgi_mod.build_pgi(truth, g_hold)
        assert pgi_mod.incremental_r2(p, y_hold) == pytest.approx(0.4, abs=0.02)


@pytest.fixture(scope="module")
def split_world():
    panel, arch, g_disc, y_disc, g_hold, y_hold = make_world(5000, 4000, 100, 0.25, seed=360)
    a, b = pgi_mod.split_sample_pgis(g_disc, y_disc, g_hold, seed=361)
    return panel, g_hold, y_hold, a, b


class TestSplitSample:

    def test_shared_signal_independent_noise(self, split_world):
        _, _, _, a, b = split_world
        r = np.corrcoef(a.values, b.values)[0, 1]
        assert 0.0 < r < 1.0

    def test_correlation_predicts_reliability(self, split_world):
        panel, g_hold, _, a, b = split_world
        var_x = g_hold.dosages.astype(float).var(axis=0)
        # measurement-error algebra: corr = signal / sqrt((signal+na)(signal+nb))
        raw_a, raw_b = a.raw_values, b.raw_values
        noise = {}
        for tag, p in (("a", a), ("b", b)):
            # per-SNP sampling noise of the half-sample GWAS behind index `tag`
            n_half = 2500
            resid_var = 1.0  # y standardized, per-SNP effects tiny
            noise[tag] = np.sum(resid_var / (n_half * var_x) * var_x)
        signal = np.sqrt(max(raw_a.var() - noise["a"], 1e-9) * max(raw_b.var() - noise["b"], 1e-9))
        pred = signal / np.sqrt(raw_a.var() * raw_b.var())
        realized = np.corrcoef(raw_a, raw_b)[0, 1]
        assert realized == pytest.approx(pred, abs=0.05)

    def test_halves_disjoint(self):
        panel, arch, g_disc, y_disc, g_hold, _ = make_world(600, 500, 30, 0.3, seed=370)
        # ids of the two halves never overlap: seeded permutation split
        from gxelab.util import Stream, child_rng
        perm = child_rng(361, Stream.SPLIT_SAMPLE).permutation(600)
        assert not (set(perm[:300]) & set(perm[300:]))


class TestOriv:
    def test_noiseless_indices_match_ols(self):
        rng = np.random.default_rng(380)
        gv = rng.standard_normal(5000)
        y = 0.3 * gv + rng.standard_normal(5000)
        fit = pgi_mod.oriv_estimate(gv, gv.copy(), y)
        assert fit.beta_iv == pytest.approx(fit.ols_beta, abs=1e-6)
        assert fit.attenuation == pytest.approx(1.0, abs=1e-12)

    def test_classical_errors_in_variables(self):
        rng = np.random.default_rng(381)
        n, beta, lam = 20000, 0.3, 0.6
        gv = rng.standard_normal(n)
        noise_sd = np.sqrt((1 - lam) / lam)
        a = gv + rng.standard_normal(n) * noise_sd
        b = gv + rng.standard_normal(n) * noise_sd
        y = beta * gv + rng.standard_normal(n)
        fit = pgi_mod.oriv_estimate(a, b, y)
        assert fit.ols_beta == pytest.approx(beta * lam, abs=0.02)
        assert fit.beta_iv == pytest.approx(beta, abs=0.03)
        assert fit.attenuation == pytest.approx(lam, abs=0.03)
        assert not fit.weak_instrument

    def test_attenuation_law_across_grid(self):
        rng = np.random.default_rng(382)
        n, beta = 20000, 0.3
        for lam in (0.4, 0.6, 0.8):
            gv = rng.standard_normal(n)
            noise_sd = np.sqrt((1 - lam) / lam)
            a = gv + rng.standard_normal(n) * noise_sd
            y = beta * gv + rng.standard_normal(n)
            from gxelab.regress import ols
            slope = ols(y, np.column_stack([np.ones(n), a])).beta[1]
            assert slope / beta == pytest.approx(lam, abs=0.03)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(383)
        gv = rng.standard_normal(3000)
        a = gv + rng.standard_normal(3000)
        b = gv + rng.standard_normal(3000)
        y = 0.3 * gv + rng.standard_normal(3000)
        f1 = pgi_mod.oriv_estimate(a, b, y)
        f2 = pgi_mod.oriv_estimate(b, a, y)
        assert f1.beta_iv == pytest.approx(f2.beta_iv, abs=1e-10)

    def test_weak_first_stage_flagged(self):
        rng = np.random.default_rng(384)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)  # unrelated: no first stage
        y = rng.standard_normal(200)
        fit = pgi_mod.oriv_estimate(a, b, y)
        assert fit.weak_instrument
