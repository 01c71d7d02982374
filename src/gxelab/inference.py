"""Monte Carlo power analysis and randomization inference for interaction
effects.

The power simulator draws replicated datasets from
Y = beta_g*G + beta_e*E + beta_x*G*E + eps (G, eps standard normal, E
Bernoulli) and counts HC1 rejections of the interaction. The fitted design
[1, G, E, G*E] holds every term of that model, so a replicate's interaction
estimate is beta_x + u, with u and the standard error those of the fit of
eps alone. Power therefore does not depend on beta_g or beta_e, exactly, and
one draw of (u, se) per spec and seed gives the power at every beta_x, for
power_curve's whole grid and every step of mde's bisection.
These common random numbers keep estimated power monotone in the effect
size up to O(1/reps), which is what the bisection needs. It is not exactly
monotone: a larger beta_x can pull a replicate out of the lower rejection
tail of the two-sided test, so near beta_x = 0 the estimate can dip by a
few replicates' worth.

Both the power draw and the permutation test draw chunk c of POWER_CHUNK
replicates as (R, n) arrays from the stream (POWER or PERMUTATION, c) and fit
it FIT_ROWS rows at a time, each block's gxe.gxe_design columns in one
regress.batched_ols_hc1 call, so only one block's design is held. Each row is
fit on its own and the chunks run through util.chunk_map, so results depend
on neither the block size nor the thread count. A replicate
or draw whose design is singular (NaN from batched_ols_hc1) fails, under the
bias lab's rule, util.check_failures: power, its CI, mde and the permutation
percentiles and envelopes read only the fitted ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gxe import GxeModelSpec, fit_gxe, gxe_design
from .regress import batched_ols_hc1, pvalue_from_z
from .util import CalibrationError, ConfigError, Seed, Stream, check_failures, child_rng, chunk_map

POWER_CHUNK = 256  # replicates per stream draw, for power draws and permutations alike
FIT_ROWS = 16  # replicates per design build and batched fit: sets the memory held, not the results


@dataclass(frozen=True)
class PowerSpec:
    beta_g: float
    beta_e: float
    beta_x: float
    n: int
    treated_share: float = 0.5
    alpha: float = 0.05
    reps: int = 1000

    def __post_init__(self):
        if self.reps < 100:
            raise ConfigError("reps must be >= 100")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must be in (0, 1)")
        if not (0.0 < self.treated_share < 1.0):
            raise ConfigError("treated share must be in (0, 1)")
        if self.n < 10:
            raise ConfigError("n too small to fit the interaction model")


@dataclass
class PowerCurve:
    beta_x: np.ndarray
    power: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n: int
    reps: int  # fitted replicates
    alpha: float
    draw: tuple[np.ndarray, np.ndarray]  # the (u, se) replicates every power here is read from

    def mde(self, target_power: float = 0.8, power_tol: float = 0.01, width_tol: float = 0.005) -> float:
        """Smallest interaction coefficient reaching the target power, by
        bisection over [0, 1], every evaluation read from this curve's draw.

        Stops when the estimated power is within power_tol of the target or the
        bracket is narrower than width_tol; returns the bracket midpoint.
        Power at beta_x = 0 is the test size, so the target must lie in (alpha, 1).
        """
        if not (self.alpha < target_power < 1.0):
            raise ConfigError(f"target power must be in (alpha = {self.alpha}, 1), got {target_power}")
        lo, hi = 0.0, 1.0
        if _power(self.draw, hi, self.alpha) < target_power:
            raise CalibrationError(f"target power {target_power} unreachable with beta_x <= 1")
        while hi - lo > width_tol:
            mid = 0.5 * (lo + hi)
            p = _power(self.draw, mid, self.alpha)
            if abs(p - target_power) < power_tol:
                return mid
            if p < target_power:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _fit_interaction(Y: np.ndarray, G: np.ndarray, E: np.ndarray, spec: GxeModelSpec,
                     data: dict[str, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(beta_GxE, HC1 se) of each row of Y on the design of the same rows of
    G and E, built and fit FIT_ROWS rows at a time; NaN for a singular one."""
    blocks = []
    for s in range(0, len(G), FIT_ROWS):
        names, cols = gxe_design(G[s:s + FIT_ROWS], E[s:s + FIT_ROWS], spec, data)
        j = names.index("GxE")
        beta, se = batched_ols_hc1(Y[s:s + FIT_ROWS], cols, j)
        blocks.append((beta[:, j], se))
    return tuple(np.concatenate(b) for b in zip(*blocks))


def _interaction_draw(spec: PowerSpec, seed: Seed, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per fitted replicate, u and se such that the interaction estimate at any
    beta_x is beta_x + u with HC1 standard error se: the fit of eps alone."""
    def fit(c: int, lo: int, hi: int):
        rng, size = child_rng(seed, Stream.POWER, c), hi - lo
        G = rng.standard_normal((size, spec.n))
        E = (rng.random((size, spec.n)) < spec.treated_share).astype(float)
        return _fit_interaction(rng.standard_normal((size, spec.n)), G, E, GxeModelSpec())

    u, se = chunk_map(fit, spec.reps, POWER_CHUNK, threads)
    fitted = np.isfinite(se)
    check_failures([f"a singular design (replicate {r})" for r in np.flatnonzero(~fitted)], spec.reps)
    return u[fitted], se[fitted]


def _power(draw: tuple[np.ndarray, np.ndarray], beta_x: float, alpha: float) -> float:
    u, se = draw
    return float((pvalue_from_z((beta_x + u) / se) < alpha).mean())


def power_simulate(spec: PowerSpec, seed: Seed, threads: int = 1) -> float:
    """Share of replicates whose interaction p-value falls below alpha."""
    return _power(_interaction_draw(spec, seed, threads), spec.beta_x, spec.alpha)


def power_curve(spec: PowerSpec, beta_x_grid: np.ndarray, seed: Seed, threads: int = 1) -> PowerCurve:
    """Power at each beta_x of the grid, all read from one draw of replicates,
    which the curve keeps for its mde."""
    grid = np.asarray(beta_x_grid, dtype=float)
    draw = _interaction_draw(spec, seed, threads)
    power = np.array([_power(draw, b, spec.alpha) for b in grid])
    reps = len(draw[0])
    half = 1.96 * np.sqrt(power * (1 - power) / reps)
    return PowerCurve(beta_x=grid, power=power,
                      ci_lo=np.clip(power - half, 0, 1), ci_hi=np.clip(power + half, 0, 1),
                      n=spec.n, reps=reps, alpha=spec.alpha, draw=draw)


def mde(
    spec: PowerSpec,
    target_power: float = 0.8,
    seed: Seed = 0,
    threads: int = 1,
    power_tol: float = 0.01,
    width_tol: float = 0.005,
) -> float:
    """PowerCurve.mde on the draw of power_curve(spec, [], seed, threads)."""
    return power_curve(spec, np.empty(0), seed, threads).mde(target_power, power_tol, width_tol)


# ---------------------------------------------------------------------------
# Randomization inference
# ---------------------------------------------------------------------------

@dataclass
class PermutationResult:
    observed_coef: float
    observed_t: float
    coef_percentile: float
    t_percentile: float
    null_coefs: np.ndarray
    null_ts: np.ndarray
    envelopes: dict[int, tuple[float, float]]    # coefficient bounds
    t_envelopes: dict[int, tuple[float, float]]  # studentized bounds

    def outside_envelope(self, level: int = 95) -> bool:
        """Whether the observed t escapes the null t envelope. The test is studentized because permuted
        outcomes keep the alternative's full variance, which widens the raw-coefficient null."""
        lo, hi = self.t_envelopes[level]
        return not (lo <= self.observed_t <= hi)


def _percentile(null: np.ndarray, observed: float) -> float:
    return float((null <= observed).mean())


def permutation_test(
    data: dict[str, np.ndarray],
    fit_spec: GxeModelSpec,
    n_perm: int = 1000,
    seed: Seed = 0,
    joint: bool = True,
    threads: int = 1,
) -> PermutationResult:
    """Placebo distribution of the interaction estimate.

    Each draw re-assigns the (G, E) pair across individuals -- one shared row
    permutation by default, so G and E keep their mutual relation but lose
    any link to Y -- and refits the model. joint=False permutes G and E
    independently instead. The null holds the fitted draws only.
    """
    if n_perm < 100:
        raise ConfigError("n_perm must be >= 100")
    if fit_spec.se != "hc1" or "GxE" not in fit_spec.terms:
        raise ConfigError("permutation inference supports HC1 fits with a GxE term")
    observed = fit_gxe(data, fit_spec)
    obs_coef = observed.coef("GxE")
    obs_t = obs_coef / observed.se("GxE")

    Y = np.asarray(data["Y"], dtype=float)
    n = Y.shape[0]
    G = np.asarray(data["G"], dtype=float)
    E = np.asarray(data["E"], dtype=float)

    def fit(c: int, lo: int, hi: int):
        rng, size = child_rng(seed, Stream.PERMUTATION, c), hi - lo
        Gp = np.empty((size, n))
        Ep = np.empty((size, n))
        for r in range(size):
            perm = rng.permutation(n)
            Gp[r] = G[perm]
            Ep[r] = E[perm] if joint else E[rng.permutation(n)]
        beta, se = _fit_interaction(np.broadcast_to(Y, (size, n)), Gp, Ep, fit_spec, data)
        return beta, beta / se

    null_coefs, null_ts = chunk_map(fit, n_perm, POWER_CHUNK, threads)
    fitted = np.isfinite(null_ts)
    check_failures([f"a singular design (draw {r})" for r in np.flatnonzero(~fitted)], n_perm)
    null_coefs, null_ts = null_coefs[fitted], null_ts[fitted]

    envelopes, t_envelopes = {}, {}
    for level in (90, 95):
        tail = (100 - level) / 200.0
        envelopes[level] = (float(np.quantile(null_coefs, tail)), float(np.quantile(null_coefs, 1 - tail)))
        t_envelopes[level] = (float(np.quantile(null_ts, tail)), float(np.quantile(null_ts, 1 - tail)))
    return PermutationResult(
        observed_coef=float(obs_coef),
        observed_t=float(obs_t),
        coef_percentile=_percentile(null_coefs, obs_coef),
        t_percentile=_percentile(null_ts, obs_t),
        null_coefs=null_coefs,
        null_ts=null_ts,
        envelopes=envelopes,
        t_envelopes=t_envelopes,
    )

