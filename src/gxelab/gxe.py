"""Gene-environment regression fits.

fit_gxe covers the interacted specification family on the cubic monomial
basis with optional control-by-G and control-by-E interactions (controls are
always demeaned, so main effects stay interpretable at the sample mean).
fit_rdd_gxe is the month-of-birth discontinuity design on the columns Y, G
and MoB within rdd_sample's bandwidth window: integer running variable with
the cutoff month at 0, treatment E = born at or after the cutoff, standard
errors clustered on the running variable. Both return the OlsFit that
regress.ols builds, read by term name and checked positive semidefinite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .regress import OlsFit, ols
from .util import ConfigError, DataError, EstimationError

TERM_MENU = ("G", "E", "GxE", "G2", "E2", "G3", "E3", "G2E", "GE2")


@dataclass(frozen=True)
class GxeModelSpec:
    terms: tuple[str, ...] = ("G", "E", "GxE")
    controls: tuple[str, ...] = ()
    control_interactions: bool = False
    se: str = "hc1"                 # hc1 | cluster
    cluster_on: str | None = None

    def __post_init__(self):
        unknown = set(self.terms) - set(TERM_MENU)
        if unknown:
            raise ConfigError(f"unknown terms {sorted(unknown)}; menu is {TERM_MENU}")
        if "GxE" in self.terms and not {"G", "E"} <= set(self.terms):
            raise ConfigError("GxE requires both G and E main effects")
        if self.se == "cluster" and not self.cluster_on:
            raise ConfigError("cluster SEs need a cluster variable")
        if self.se not in ("hc1", "cluster"):
            raise ConfigError(f"unknown se mode {self.se!r}")


def _numeric(data: dict[str, np.ndarray], name: str) -> np.ndarray:
    """data[name] as floats; a DataError naming the column when it is not numeric."""
    try:
        return np.asarray(data[name], dtype=float)
    except ValueError:
        raise DataError(f"column {name!r} is not numeric") from None


# built on demand: on (R, n) permutation or power stacks every product is costly
_TERM_COLUMNS = {
    "G": lambda G, E: G, "E": lambda G, E: E, "GxE": lambda G, E: G * E,
    "G2": lambda G, E: G * G, "E2": lambda G, E: E * E, "G3": lambda G, E: G**3, "E3": lambda G, E: E**3,
    "G2E": lambda G, E: G * G * E, "GE2": lambda G, E: G * E * E,
}


def gxe_design(G: np.ndarray, E: np.ndarray, spec: GxeModelSpec,
               data: dict[str, np.ndarray] | None = None) -> tuple[list[str], list[np.ndarray]]:
    """Names and columns of the interacted design: intercept, the requested
    terms in menu order, the demeaned controls, then control-by-G and control-by-E.

    G and E are (n,) for one fit or (R, n) for R fits at once; the intercept
    and controls are (n,) columns shared by every fit.
    """
    names = ["intercept"] + [t for t in TERM_MENU if t in spec.terms]
    cols = [np.ones(G.shape[-1])] + [_TERM_COLUMNS[t](G, E) for t in names[1:]]
    ctrl = []
    for c in spec.controls:
        if data is None or c not in data:
            raise DataError(f"control column {c!r} missing from data")
        v = _numeric(data, c)
        ctrl.append(v - v.mean())
    names += [f"ctrl:{c}" for c in spec.controls]
    cols += ctrl
    if spec.control_interactions:
        names += [f"ctrlxG:{c}" for c in spec.controls] + [f"ctrlxE:{c}" for c in spec.controls]
        cols += [v * G for v in ctrl] + [v * E for v in ctrl]
    return names, cols


def fit_gxe(data: dict[str, np.ndarray], spec: GxeModelSpec) -> OlsFit:
    """OLS of Y on the requested interaction basis plus controls."""
    # a term name holds each factor it multiplies (GxE, G2E, ...); control
    # interactions multiply by both G and E
    interacted = spec.control_interactions and bool(spec.controls)
    for col in ("Y", "G", "E"):
        if col not in data and (col == "Y" or interacted or any(col in t for t in spec.terms)):
            raise DataError(f"data is missing column {col!r}")
    Y = np.asarray(data["Y"], dtype=float)
    # an unused G or E enters no column; zeros stand in for a missing one
    G, E = (np.asarray(data[c], dtype=float) if c in data else np.zeros(Y.shape[0]) for c in ("G", "E"))
    names, cols = gxe_design(G, E, spec, data)
    clusters = None
    if spec.se == "cluster":
        if spec.cluster_on not in data:
            raise DataError(f"cluster column {spec.cluster_on!r} missing from data")
        clusters = np.asarray(data[spec.cluster_on])
    return ols(Y, np.column_stack(cols), names, spec.se, clusters)


@dataclass(frozen=True)
class RddSpec:
    bandwidth: int = 3
    covariates: tuple[str, ...] = ()
    pcs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.bandwidth < 1:
            raise ConfigError("bandwidth must be >= 1")


def rdd_sample(data: dict[str, np.ndarray], spec: RddSpec) -> dict[str, np.ndarray]:
    """The rows with MoB in [-bandwidth, bandwidth), as float columns Y, G,
    MoB, the covariates and PCs, and E = MoB >= 0 (a given E must agree with
    it)."""
    missing = [c for c in ("MoB", "Y", "G", *spec.covariates, *spec.pcs) if c not in data]
    if missing:
        raise DataError(f"data is missing column {missing[0]!r}")
    mob = np.asarray(data["MoB"], dtype=float)
    if not np.allclose(mob, np.round(mob)):
        raise DataError("running variable must be integer month offsets (cutoff month = 0)")
    keep = (mob >= -spec.bandwidth) & (mob <= spec.bandwidth - 1)
    if not keep.any():
        raise DataError("no rows inside the bandwidth")
    E = (mob[keep] >= 0).astype(float)
    if "E" in data and not np.array_equal(np.asarray(data["E"], dtype=float)[keep], E):
        raise DataError("treatment column inconsistent with the running variable")
    sample = {c: _numeric(data, c)[keep] for c in ("Y", "G", *spec.covariates, *spec.pcs)}
    return {**sample, "E": E, "MoB": mob[keep]}


def fit_rdd_gxe(data: dict[str, np.ndarray], spec: RddSpec, model: str = "main_effects") -> OlsFit:
    """Month-of-birth discontinuity fit on rdd_sample's rows.

    main_effects: Y on G, E, MoB, MoBxE plus demeaned covariates/PCs and
    their xE interactions. with_interaction adds GxE, MoBxG, MoBxGxE and the
    covariate-by-G interactions. Standard errors cluster on the running
    variable; the cluster count is recorded and below 10 draws a warning.
    """
    if model not in ("main_effects", "with_interaction"):
        raise ConfigError(f"unknown RDD model {model!r}")
    s = rdd_sample(data, spec)
    Y, G, E, mob = s["Y"], s["G"], s["E"], s["MoB"]
    left, right = np.unique(mob[E == 0]), np.unique(mob[E == 1])
    if len(left) < 2 or len(right) < 2:
        raise EstimationError("need at least 2 running-variable clusters on each side of the cutoff")
    n_clusters = len(left) + len(right)
    if n_clusters < 10:
        warnings.warn(f"only {n_clusters} running-variable clusters; cluster-robust inference is fragile")

    names = ["intercept", "G", "E", "MoB", "MoBxE"]
    cols = [np.ones(Y.shape[0]), G, E, mob, mob * E]
    if model == "with_interaction":
        names += ["GxE", "MoBxG", "MoBxGxE"]
        cols += [G * E, mob * G, mob * G * E]
    for c in (*spec.covariates, *spec.pcs):
        v = s[c] - s[c].mean()
        names.append(f"ctrl:{c}")
        cols.append(v)
        if model == "with_interaction":
            names.append(f"ctrlxG:{c}")
            cols.append(v * G)
        names.append(f"ctrlxE:{c}")
        cols.append(v * E)
    return ols(Y, np.column_stack(cols), names, "cluster", mob)


def slope_plot_data(data: dict[str, np.ndarray], bins: int = 10) -> list[tuple[float, float, float, int]]:
    """(arm, bin center, mean Y, count) per arm of E over equal-width bins of
    the index G, which is trimmed to +/- 3 standard deviations."""
    if bins < 3:
        raise ConfigError("need at least 3 bins")
    G = np.asarray(data["G"], dtype=float)
    Y = np.asarray(data["Y"], dtype=float)
    arm = np.asarray(data["E"])
    inside = (G >= -3.0) & (G <= 3.0)
    G, Y, arm = G[inside], Y[inside], arm[inside]
    arms = np.unique(arm)
    if arms.size < 2:
        raise ConfigError(f"slope plot needs two arms of E with an index inside +/-3, got {arms.size}")
    edges = np.linspace(-3.0, 3.0, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = []
    for a in arms:
        mask = arm == a
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
    p = float(2 * stdtr(n - 2, -abs(t)))
    return r, float(se), p
