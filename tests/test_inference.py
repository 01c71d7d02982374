from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gxelab import inference as inf
from gxelab.gxe import GxeModelSpec, fit_gxe, gxe_design
from gxelab.regress import batched_ols_hc1, pvalue_from_z
from gxelab.util import CalibrationError, ConfigError, SimulationError, Stream, child_rng


def make_dataset(n, beta_x, seed, beta_g=0.259, beta_e=0.9):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(n)
    E = (rng.random(n) < 0.5).astype(float)
    Y = beta_g * G + beta_e * E + beta_x * G * E + rng.standard_normal(n)
    return {"Y": Y, "G": G, "E": E}


def refit_power(spec, seed):
    """Power at spec.beta_x from simulating and fitting every replicate at
    that beta_x, on the replicate streams the power simulator uses."""
    p = []
    for c, lo in enumerate(range(0, spec.reps, inf.POWER_CHUNK)):
        rng = child_rng(seed, Stream.POWER, c)
        size = min(inf.POWER_CHUNK, spec.reps - lo)
        G = rng.standard_normal((size, spec.n))
        E = (rng.random((size, spec.n)) < spec.treated_share).astype(float)
        Y = spec.beta_g * G + spec.beta_e * E + spec.beta_x * G * E + rng.standard_normal((size, spec.n))
        names, cols = gxe_design(G, E, GxeModelSpec())
        j = names.index("GxE")
        beta, se = batched_ols_hc1(Y, cols, j)
        p.extend(pvalue_from_z(beta[:, j] / se))
    return float((np.array(p) < spec.alpha).mean())


def refit_mde(spec, seed, target_power=0.8, power_tol=0.01, width_tol=0.005):
    """mde's bisection with every step refitting its replicates."""
    lo, hi = 0.0, 1.0
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        p = refit_power(replace(spec, beta_x=mid), seed)
        if abs(p - target_power) < power_tol:
            return mid
        lo, hi = (mid, hi) if p < target_power else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed", range(520, 530))
def test_one_draw_matches_refitting_every_effect(seed):
    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.0, n=200, reps=300)
    grid = [0.0, 0.1, 0.2, 0.35, 0.5]
    curve = inf.power_curve(spec, np.array(grid), seed=seed)
    assert curve.power.tolist() == [refit_power(replace(spec, beta_x=b), seed) for b in grid]
    assert inf.mde(spec, seed=seed) == refit_mde(spec, seed)


class TestPowerSimulate:
    def test_entry_assessment_power_above_90(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.90, beta_x=0.225, n=1000, reps=2000)
        assert inf.power_simulate(spec, seed=501) > 0.90

    def test_size_under_null(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.0, n=1000, reps=2000)
        assert inf.power_simulate(spec, seed=502) == pytest.approx(0.05, abs=0.02)

    def test_matches_analytic_power(self):
        # two-sided normal approximation: power = Phi(lambda - z_.975)
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.6, beta_x=0.15, n=3500, reps=2000)
        lam = 0.15 / (2 / np.sqrt(3500))
        analytic = stats.norm.cdf(lam - 1.959964)
        assert inf.power_simulate(spec, seed=503) == pytest.approx(analytic, abs=0.02)

    def test_monotone_in_effect_n_alpha(self):
        base = dict(beta_g=0.259, beta_e=0.6, n=800, reps=1500)
        curve = [inf.power_simulate(inf.PowerSpec(beta_x=b, **base), seed=504) for b in (0.0, 0.1, 0.2, 0.3)]
        assert all(curve[i] <= curve[i + 1] + 0.01 for i in range(3))
        by_n = [inf.power_simulate(inf.PowerSpec(beta_x=0.15, beta_g=0.259, beta_e=0.6, n=n, reps=1500), seed=505)
                for n in (500, 1000, 2000)]
        assert all(by_n[i] <= by_n[i + 1] + 0.01 for i in range(2))
        by_alpha = [inf.power_simulate(
            inf.PowerSpec(beta_x=0.15, beta_g=0.259, beta_e=0.6, n=1000, reps=1500, alpha=a), seed=506)
            for a in (0.01, 0.05, 0.10)]
        assert all(by_alpha[i] <= by_alpha[i + 1] + 0.01 for i in range(2))

    def test_deterministic_and_thread_invariant(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.2, n=500, reps=600)
        a = inf.power_simulate(spec, seed=507, threads=1)
        b = inf.power_simulate(spec, seed=507, threads=4)
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            inf.PowerSpec(0.2, 0.2, 0.1, 1000, reps=50)
        with pytest.raises(ConfigError):
            inf.PowerSpec(0.2, 0.2, 0.1, 1000, alpha=1.5)

    def test_curve_ci_width(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.0, n=300, reps=400)
        curve = inf.power_curve(spec, np.array([0.0, 0.3]), seed=508)
        half = 1.96 * np.sqrt(curve.power * (1 - curve.power) / 400)
        assert np.allclose(curve.ci_hi - curve.power, np.minimum(half, 1 - curve.power), atol=1e-12)


class TestMde:
    def test_key_stage_sample_size(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.6, beta_x=0.0, n=3500, reps=2000)
        value = inf.mde(spec, target_power=0.8, seed=511)
        assert 0.08 < value <= 0.10

    def test_power_at_mde_near_target(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.0, n=1000, reps=4000)
        value = inf.mde(spec, target_power=0.8, seed=512)
        from dataclasses import replace
        achieved = inf.power_simulate(replace(spec, beta_x=value), seed=513)
        assert achieved == pytest.approx(0.8, abs=0.04)

    def test_quadrupling_n_halves_mde(self):
        small = inf.PowerSpec(beta_g=0.259, beta_e=0.6, beta_x=0.0, n=1000, reps=2000)
        large = inf.PowerSpec(beta_g=0.259, beta_e=0.6, beta_x=0.0, n=4000, reps=2000)
        m_small = inf.mde(small, seed=514)
        m_large = inf.mde(large, seed=514)
        assert m_small / m_large == pytest.approx(2.0, rel=0.15)

    def test_unreachable_target(self):
        spec = inf.PowerSpec(beta_g=0.1, beta_e=0.1, beta_x=0.0, n=40, reps=500)
        with pytest.raises(CalibrationError):
            inf.mde(spec, target_power=0.95, seed=515)


class TestPermutation:
    def test_identity_permutation_reproduces_observed(self):
        data = make_dataset(400, beta_x=0.3, seed=521)
        spec = GxeModelSpec()
        observed = fit_gxe(data, spec)
        permuted = {**data, "G": data["G"][np.arange(400)], "E": data["E"][np.arange(400)]}
        again = fit_gxe(permuted, spec)
        assert observed.coef("GxE") == pytest.approx(again.coef("GxE"), abs=1e-14)

    def test_null_percentile_uniform(self):
        percentiles = []
        for rep in range(100):
            data = make_dataset(400, beta_x=0.0, seed=5300 + rep)
            res = inf.permutation_test(data, GxeModelSpec(), n_perm=199, seed=5400 + rep)
            percentiles.append(res.coef_percentile)
        ks = stats.kstest(percentiles, "uniform").statistic
        assert ks < 1.63 / np.sqrt(100)  # 1% critical value

    def test_signal_exits_envelope(self):
        exits = 0
        reps = 50
        for rep in range(reps):
            data = make_dataset(1000, beta_x=0.225, seed=5500 + rep)
            res = inf.permutation_test(data, GxeModelSpec(), n_perm=199, seed=5600 + rep)
            exits += res.outside_envelope(95)
        assert exits / reps >= 0.90

    def test_null_t_moments(self):
        data = make_dataset(5000, beta_x=0.0, seed=541)
        res = inf.permutation_test(data, GxeModelSpec(), n_perm=1000, seed=542)
        assert abs(res.null_ts.mean()) < 0.1
        assert res.null_ts.std() == pytest.approx(1.0, abs=0.1)

    def test_joint_permutation_preserves_ge_relation(self):
        rng = np.random.default_rng(543)
        n = 2000
        G = rng.standard_normal(n)
        E = (G + rng.standard_normal(n) > 0).astype(float)  # G-E dependence
        Y = rng.standard_normal(n)
        data = {"Y": Y, "G": G, "E": E}
        res = inf.permutation_test(data, GxeModelSpec(), n_perm=120, seed=544, joint=True)
        # reconstruct one permuted draw and check corr(G_p, E_p) is intact
        from gxelab.util import child_rng
        r = child_rng(544, Stream.PERMUTATION, 0)
        perm = r.permutation(n)
        assert np.corrcoef(G[perm], E[perm])[0, 1] == pytest.approx(np.corrcoef(G, E)[0, 1], abs=1e-12)
        assert np.isfinite(res.observed_coef)

    def test_reproducible_across_threads(self):
        data = make_dataset(800, beta_x=0.1, seed=545)
        a = inf.permutation_test(data, GxeModelSpec(), n_perm=300, seed=546, threads=1)
        b = inf.permutation_test(data, GxeModelSpec(), n_perm=300, seed=546, threads=4)
        assert np.array_equal(a.null_coefs, b.null_coefs)
        assert a.envelopes == b.envelopes


# Binary G and E on 12 rows: permuted apart (joint=False), a draw's G*E column
# can be all zero or equal to G or E, so its design is singular
BINARY_Y = np.array([0.3, -1.2, 2.1, 0.4, -0.5, 1.1, -0.7, 0.2, 0.9, -1.6, 0.6, -0.1])


class TestFailedReplicates:
    """A singular Monte Carlo fit is a failed replicate under util.check_failures:
    results read only the fitted replicates, and too many failures raise."""

    def test_singular_power_draw_raises(self):
        spec = inf.PowerSpec(beta_g=0.259, beta_e=0.5, beta_x=3.0, n=10, treated_share=0.05, reps=1000)
        with pytest.raises(SimulationError, match=r"912/1000 replicates failed; the first with a singular design"):
            inf.power_curve(spec, np.array([3.0]), seed=1)

    def test_power_reads_only_fitted_replicates(self):
        # 14 rows, half treated: a draw with at most one treated or untreated row is singular
        spec = inf.PowerSpec(beta_g=0.3, beta_e=0.5, beta_x=0.5, n=14, reps=1000)
        curve = inf.power_curve(spec, np.array([0.5]), seed=1)
        u, se = curve.draw
        assert curve.reps == len(u) == len(se) == 998 and np.isfinite(se).all()
        rejections = int(round(curve.power[0] * 998))
        assert curve.power[0] == rejections / 998
        half = 1.96 * np.sqrt(curve.power[0] * (1 - curve.power[0]) / 998)
        assert curve.ci_hi[0] - curve.power[0] == pytest.approx(half, rel=1e-12)
        assert 0.0 < curve.mde(target_power=0.25) < 0.5

    def test_singular_permutation_draws_raise(self):
        G, E = np.zeros(12), np.zeros(12)
        G[:3], E[2:5] = 1.0, 1.0
        with pytest.raises(SimulationError, match=r"81/200 replicates failed; the first with a singular design"):
            inf.permutation_test({"Y": BINARY_Y, "G": G, "E": E}, GxeModelSpec(), n_perm=200, seed=1, joint=False)

    def test_permutation_reads_only_fitted_draws(self):
        G = np.tile([0.0, 1.0], 6)
        E = np.array([0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1], dtype=float)
        res = inf.permutation_test({"Y": BINARY_Y, "G": G, "E": E}, GxeModelSpec(), n_perm=200, seed=1, joint=False)
        assert len(res.null_coefs) == len(res.null_ts) == 199
        assert np.isfinite(res.null_ts).all() and np.isfinite(res.null_coefs).all()
        assert np.isfinite([*res.envelopes[95], *res.t_envelopes[95]]).all()
        assert res.t_percentile == (res.null_ts <= res.observed_t).mean()
