"""Gene-environment regression fits.

fit_gxe covers the interacted specification family on the cubic monomial
basis with optional control-by-G and control-by-E interactions (controls are
demeaned before interacting so main effects stay interpretable at the
sample mean). fit_rdd_gxe is the month-of-birth discontinuity design:
integer running variable with the cutoff month at 0, treatment = born at or
after the cutoff, standard errors clustered on the running variable.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .regress import ols, pvalue_from_z
from .util import ConfigError, EstimationError, fmt_float

TERM_MENU = ("G", "E", "GxE", "G2", "E2", "G3", "E3", "G2E", "GE2")


@dataclass(frozen=True)
class GxeModelSpec:
    terms: tuple[str, ...] = ("G", "E", "GxE")
    controls: tuple[str, ...] = ()
    control_interactions: bool = False
    demean_controls: bool = True
    se: str = "hc1"                 # hc1 | cluster
    cluster_on: str | None = None

    def __post_init__(self):
        unknown = set(self.terms) - set(TERM_MENU)
        if unknown:
            raise ConfigError(f"unknown terms {sorted(unknown)}; menu is {TERM_MENU}")
        if "GxE" in self.terms and not {"G", "E"} <= set(self.terms):
            raise ConfigError("GxE requires both G and E main effects")
        if self.control_interactions and not self.demean_controls:
            raise ConfigError("control interactions require demeaned controls")
        if self.se == "cluster" and not self.cluster_on:
            raise ConfigError("cluster SEs need a cluster variable")
        if self.se not in ("hc1", "cluster"):
            raise ConfigError(f"unknown se mode {self.se!r}")


@dataclass
class GxeFit:
    coefficients: dict[str, float]
    cov: np.ndarray
    names: list[str]
    se_mode: str
    n: int
    r2: float
    n_clusters: int | None = None

    def __post_init__(self):
        asym = np.max(np.abs(self.cov - self.cov.T))
        if asym > 1e-10:
            raise EstimationError(f"covariance asymmetric by {asym:.2e}")
        eigs = np.linalg.eigvalsh(self.cov)
        if eigs.min() < -1e-10 * max(eigs.max(), 1.0):
            raise EstimationError("covariance is not positive semidefinite")

    def coef(self, term: str) -> float:
        return self.coefficients[term]

    def se(self, term: str) -> float:
        i = self.names.index(term)
        return float(np.sqrt(max(self.cov[i, i], 0.0)))

    def pvalue(self, term: str) -> float:
        return float(pvalue_from_z(self.coef(term) / self.se(term)))

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "r2": self.r2, "se_mode": self.se_mode,
            "n_clusters": self.n_clusters,
            "coefficients": {k: float(fmt_float(v)) for k, v in self.coefficients.items()},
            "se": {k: float(fmt_float(self.se(k))) for k in self.names},
        }, indent=2, sort_keys=True)


# built on demand: on (R, n) permutation or power stacks every product is costly
_TERM_COLUMNS = {
    "G": lambda G, E: G, "E": lambda G, E: E, "GxE": lambda G, E: G * E,
    "G2": lambda G, E: G * G, "E2": lambda G, E: E * E, "G3": lambda G, E: G**3, "E3": lambda G, E: E**3,
    "G2E": lambda G, E: G * G * E, "GE2": lambda G, E: G * E * E,
}


def gxe_design(G: np.ndarray, E: np.ndarray, spec: GxeModelSpec,
               data: dict[str, np.ndarray] | None = None) -> tuple[list[str], list[np.ndarray]]:
    """Names and columns of the interacted design: intercept, the requested
    terms in menu order, the controls, then control-by-G and control-by-E.

    G and E are (n,) for one fit or (R, n) for R fits at once; the intercept
    and controls are (n,) columns shared by every fit.
    """
    names = ["intercept"] + [t for t in TERM_MENU if t in spec.terms]
    cols = [np.ones(G.shape[-1])] + [_TERM_COLUMNS[t](G, E) for t in names[1:]]
    ctrl = []
    for c in spec.controls:
        if data is None or c not in data:
            raise ConfigError(f"control column {c!r} missing from data")
        v = np.asarray(data[c], dtype=float)
        ctrl.append(v - v.mean() if spec.demean_controls else v)
    names += [f"ctrl:{c}" for c in spec.controls]
    cols += ctrl
    if spec.control_interactions:
        names += [f"ctrlxG:{c}" for c in spec.controls] + [f"ctrlxE:{c}" for c in spec.controls]
        cols += [v * G for v in ctrl] + [v * E for v in ctrl]
    return names, cols


def fit_gxe(data: dict[str, np.ndarray], spec: GxeModelSpec) -> GxeFit:
    """OLS of Y on the requested interaction basis plus controls."""
    # a term name holds each factor it multiplies (GxE, G2E, ...); control
    # interactions multiply by both G and E
    interacted = spec.control_interactions and bool(spec.controls)
    for col in ("Y", "G", "E"):
        if col not in data and (col == "Y" or interacted or any(col in t for t in spec.terms)):
            raise ConfigError(f"data is missing column {col!r}")
    Y = np.asarray(data["Y"], dtype=float)
    n = Y.shape[0]
    # an unused G or E enters no column; zeros stand in for a missing one
    G, E = (np.asarray(data[c], dtype=float) if c in data else np.zeros(n) for c in ("G", "E"))
    names, cols = gxe_design(G, E, spec, data)
    X = np.column_stack(cols)
    clusters = None
    if spec.se == "cluster":
        if spec.cluster_on not in data:
            raise ConfigError(f"cluster column {spec.cluster_on!r} missing from data")
        clusters = np.asarray(data[spec.cluster_on])
    fit = ols(Y, X, names=names, se=spec.se, clusters=clusters)
    return GxeFit(
        coefficients=dict(zip(names, map(float, fit.beta))),
        cov=0.5 * (fit.cov + fit.cov.T),
        names=names, se_mode=spec.se, n=n, r2=fit.r2, n_clusters=fit.n_clusters,
    )


@dataclass(frozen=True)
class RddSpec:
    bandwidth: int = 3
    running: str = "MoB"
    outcome: str = "Y"
    g_col: str = "G"
    covariates: tuple[str, ...] = ()
    pcs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.bandwidth < 1:
            raise ConfigError("bandwidth must be >= 1")


def fit_rdd_gxe(data: dict[str, np.ndarray], spec: RddSpec, model: str = "main_effects") -> GxeFit:
    """Month-of-birth discontinuity fit.

    main_effects: Y on G, E, MoB, MoBxE plus demeaned covariates/PCs and
    their xE interactions. with_interaction adds GxE, MoBxG, MoBxGxE and the
    covariate-by-G interactions. Standard errors cluster on the running
    variable; the cluster count is recorded and below 10 draws a warning.
    """
    if model not in ("main_effects", "with_interaction"):
        raise ConfigError(f"unknown RDD model {model!r}")
    missing = [c for c in (spec.running, spec.outcome, spec.g_col, *spec.covariates, *spec.pcs) if c not in data]
    if missing:
        raise ConfigError(f"data is missing column {missing[0]!r}")
    mob = np.asarray(data[spec.running], dtype=float)
    if not np.allclose(mob, np.round(mob)):
        raise ConfigError("running variable must be integer month offsets (cutoff month = 0)")
    keep = (mob >= -spec.bandwidth) & (mob <= spec.bandwidth - 1)
    if not keep.any():
        raise ConfigError("no rows inside the bandwidth")
    mob = mob[keep]
    E = (mob >= 0).astype(float)
    if "E" in data:
        given = np.asarray(data["E"], dtype=float)[keep]
        if not np.array_equal(given, E):
            raise ConfigError("treatment column inconsistent with the running variable")
    left, right = np.unique(mob[E == 0]), np.unique(mob[E == 1])
    if len(left) < 2 or len(right) < 2:
        raise EstimationError("need at least 2 running-variable clusters on each side of the cutoff")
    n_clusters = len(left) + len(right)
    if n_clusters < 10:
        warnings.warn(f"only {n_clusters} running-variable clusters; cluster-robust inference is fragile")

    Y = np.asarray(data[spec.outcome], dtype=float)[keep]
    G = np.asarray(data[spec.g_col], dtype=float)[keep]
    n = Y.shape[0]

    names = ["intercept", "G", "E", "MoB", "MoBxE"]
    cols = [np.ones(n), G, E, mob, mob * E]
    if model == "with_interaction":
        names += ["GxE", "MoBxG", "MoBxGxE"]
        cols += [G * E, mob * G, mob * G * E]
    for c in (*spec.covariates, *spec.pcs):
        v = np.asarray(data[c], dtype=float)[keep]
        v = v - v.mean()
        names.append(f"ctrl:{c}")
        cols.append(v)
        if model == "with_interaction":
            names.append(f"ctrlxG:{c}")
            cols.append(v * G)
        names.append(f"ctrlxE:{c}")
        cols.append(v * E)

    X = np.column_stack(cols)
    fit = ols(Y, X, names=names, se="cluster", clusters=mob)
    return GxeFit(
        coefficients=dict(zip(names, map(float, fit.beta))),
        cov=0.5 * (fit.cov + fit.cov.T),
        names=names, se_mode="cluster", n=n, r2=fit.r2, n_clusters=fit.n_clusters,
    )


def slope_plot_data(
    data: dict[str, np.ndarray],
    g_col: str = "G",
    y_col: str = "Y",
    arm_col: str = "E",
    bins: int = 10,
    trim: float = 3.0,
) -> list[tuple[float, float, float, int]]:
    """(arm, bin center, mean outcome, count) over equal-width index bins,
    index trimmed to +/- trim standard deviations."""
    if bins < 3:
        raise ConfigError("need at least 3 bins")
    G = np.asarray(data[g_col], dtype=float)
    Y = np.asarray(data[y_col], dtype=float)
    arm = np.asarray(data[arm_col])
    inside = (G >= -trim) & (G <= trim)
    G, Y, arm = G[inside], Y[inside], arm[inside]
    edges = np.linspace(-trim, trim, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = []
    for a in np.unique(arm):
        mask = arm == a
        if not mask.any():
            raise ConfigError(f"arm {a!r} is empty")
        which = np.clip(np.digitize(G[mask], edges) - 1, 0, bins - 1)
        for b in range(bins):
            sel = which == b
            if sel.any():
                rows.append((float(a), float(centers[b]), float(Y[mask][sel].mean()), int(sel.sum())))
    return rows


def rge_check(g: np.ndarray, env: np.ndarray) -> tuple[float, float, float]:
    """Point-biserial correlation between the index and a binary environment,
    with its asymptotic standard error and two-sided p-value."""
    g = np.asarray(g, dtype=float)
    env = np.asarray(env, dtype=float)
    vals = np.unique(env)
    if vals.size < 2:
        raise ConfigError("environment is constant")
    if vals.size != 2:
        raise ConfigError("rge_check expects a binary environment")
    n = g.shape[0]
    r = float(np.corrcoef(g, env)[0, 1])
    se = (1.0 - r * r) / np.sqrt(n - 1)
    t = r * np.sqrt((n - 2) / max(1.0 - r * r, 1e-12))
    p = float(2 * stats.t.sf(abs(t), df=n - 2))
    return r, float(se), p
