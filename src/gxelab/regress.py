"""OLS and IV engines used by every estimation module.

ols factorizes each design once, by reduced QR (checked_qr): the same R gives
the rank check, the coefficients by a triangular solve and the bread
(X'X)^-1 = R^-1 R^-T. tsls solves just-identified IV for its coefficients,
with bread (Z'X)^-1. Both end in one fit tail, which computes the residuals,
the covariance (one sandwich on scores from X or from the instruments Z, HC1,
or CR1 on integer cluster codes; or the classical one) and r2, and returns an
OlsFit: coefficients, SEs and p-values read by column name, a JSON writer, and
a covariance checked finite and positive semidefinite. tsls also returns its
first-stage OlsFit. batched_ols_hc1 fits many small designs at once, with the
HC1 SE of the one coefficient its caller reads; it takes the design as a list
of columns, each broadcastable to the (R, n) outcome array, so columns shared
by every fit are stored once. ols_beta gives one fit's coefficients only, from
one QR of [X, y] under checked_qr's checks and messages. p-values use the
two-sided normal approximation and are floored at 1e-320 before taking logs
downstream.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import chdtrc, ndtr

from .util import EstimationError, fmt_float

P_FLOOR = 1e-320
RANK_RTOL = 1e-10


def pvalue_from_z(z: np.ndarray | float) -> np.ndarray | float:
    """Two-sided normal p-value, floored to avoid underflow to 0."""
    p = 2.0 * ndtr(-np.abs(z))
    return np.maximum(p, P_FLOOR)


@dataclass
class OlsFit:
    beta: np.ndarray
    cov: np.ndarray
    residuals: np.ndarray
    r2: float
    n: int
    names: list[str]
    se_mode: str = "hc1"
    n_clusters: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.cov).all():
            raise EstimationError("covariance is not finite")
        eigs = np.linalg.eigvalsh(self.cov)
        if eigs.min() < -1e-10 * max(eigs.max(), 1.0):
            raise EstimationError("covariance is not positive semidefinite")

    def coef(self, term: str) -> float:
        return float(self.beta[self.names.index(term)])

    def se(self, term: str) -> float:
        i = self.names.index(term)
        return float(np.sqrt(max(self.cov[i, i], 0.0)))

    def pvalue(self, term: str) -> float:
        return float(pvalue_from_z(self.coef(term) / self.se(term)))

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "r2": self.r2, "se_mode": self.se_mode, "n_clusters": self.n_clusters,
            "coefficients": {k: float(fmt_float(self.coef(k))) for k in self.names},
            "se": {k: float(fmt_float(self.se(k))) for k in self.names},
        }, indent=2, sort_keys=True)


def _checked(A: np.ndarray, k: int, names: list[str] | None, mode: str):
    """np.linalg.qr(A, mode) for A whose first k columns are the design.
    EstimationError names those columns when A has no more rows than k, and
    the dependent ones, |diag R| <= RANK_RTOL * its max, otherwise."""
    n = A.shape[0]
    labels = list(names) if names else [f"x{i}" for i in range(k)]
    if n <= k:
        raise EstimationError(f"design has {n} rows for {k} columns {labels}")
    qr = np.linalg.qr(A, mode=mode)
    diag = np.abs(np.diagonal(qr if mode == "r" else qr[1])[:k])
    bad = np.nonzero(diag <= RANK_RTOL * diag.max())[0]
    if bad.size:
        raise EstimationError(f"design matrix is rank deficient; dependent columns: {[labels[i] for i in bad]}")
    return qr


def checked_qr(X: np.ndarray, names: list[str] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR (Q, R) of a full-rank design, under _checked's checks."""
    return _checked(X, X.shape[1], names, "reduced")


def ols_beta(y: np.ndarray, X: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """OLS coefficients alone, under checked_qr's checks and messages. One
    Householder QR of [X, y] gives X's R factor and Q'y in its last column,
    so no Q and no covariance are formed."""
    k = X.shape[1]
    r = _checked(np.column_stack([X, y]), k, names, "r")
    return np.linalg.solve(r[:k, :k], r[:k, k])


def sandwich(S: np.ndarray, resid: np.ndarray, bread: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
    """bread @ meat @ bread.T with score rows S * resid: HC1 when codes is
    None, else CR1 on the integer cluster codes 0..G-1, with the
    G/(G-1) * (n-1)/(n-k) small-sample factor.
    For OLS S = X and bread = (X'X)^-1; for IV S = Z and bread = (Z'X)^-1."""
    n, k = S.shape
    scores = S * resid[:, None]
    if codes is None:
        factor = n / (n - k)
    else:
        n_g = codes.max() + 1
        scores = np.stack([np.bincount(codes, weights=scores[:, j]) for j in range(k)], axis=1)
        factor = (n_g / (n_g - 1)) * ((n - 1) / (n - k))
    return bread @ (scores.T @ scores) @ bread.T * factor


def _fit_record(y, X, beta, S, bread, names, se, clusters) -> OlsFit:
    """The fit tail of ols and tsls: residuals y - X beta, the covariance (the
    sandwich on scores from S, or the classical one), r2 = 1 - SSR/SST, the
    cluster count and the checked OlsFit. Callers run it under np.errstate, so
    overflow shows as a non-finite covariance, which OlsFit rejects."""
    n, k = X.shape
    resid = y - X @ beta
    n_clusters = None
    if se == "cluster":
        if clusters is None:
            raise EstimationError("cluster SEs requested without a cluster variable")
        _, codes = np.unique(clusters, return_inverse=True)
        n_clusters = int(codes.max()) + 1
        cov = sandwich(S, resid, bread, codes)
    elif se == "classical":
        cov = bread * (resid @ resid) / (n - k)
    elif se == "hc1":
        cov = sandwich(S, resid, bread)
    else:
        raise EstimationError(f"unknown se mode {se!r}")
    tss = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - (resid @ resid) / tss if tss > 0 else 0.0
    return OlsFit(beta=beta, cov=cov, residuals=resid, r2=float(r2), n=n,
                  names=list(names) if names else [f"x{i}" for i in range(k)],
                  se_mode=se, n_clusters=n_clusters)


def ols(
    y: np.ndarray,
    X: np.ndarray,
    names: list[str] | None = None,
    se: str = "hc1",
    clusters: np.ndarray | None = None,
) -> OlsFit:
    """OLS via one QR. se is one of 'hc1', 'classical', 'cluster' (needs clusters)."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q, r = checked_qr(X, names)
        beta = solve_triangular(r, q.T @ y)
        r_inv = solve_triangular(r, np.eye(X.shape[1]))
        return _fit_record(y, X, beta, X, r_inv @ r_inv.T, names, se, clusters)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...n,...n->...", a, b)


def batched_ols_hc1(Y: np.ndarray, X, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Many small OLS fits at once, with the HC1 SE of one coefficient.

    Y: (R, n) outcomes. X: the k design columns, each broadcastable to (R, n),
    so a column shared by every fit is passed once as (n,). The normal
    equations are built pair by pair, one einsum per column pair; they are
    fine here because the designs are small (k <= ~13). Returns (beta (R, k),
    se (R,)), se the HC1 standard error of coefficient j alone:
    sqrt(sum_i a_i^2 e_i^2 * n/(n-k)) with a = X times row j of (X'X)^-1. A
    fit whose X'X is singular gets NaN in both.
    """
    Y = np.asarray(Y, dtype=float)
    R, n = Y.shape
    k = len(X)
    if n <= k:
        raise EstimationError(f"{n} observations for {k} regressors: the HC1 correction needs more observations")
    xtx = np.empty((R, k, k))
    xty = np.empty((R, k))
    for a in range(k):
        xty[:, a] = _dot(X[a], Y)
        for b in range(a, k):
            xtx[:, a, b] = xtx[:, b, a] = _dot(X[a], X[b])
    scale = np.sqrt(np.einsum("rkk->rk", xtx))
    singular = (scale == 0).any(axis=1)
    scale[singular] = 1.0
    corr = xtx / (scale[:, :, None] * scale[:, None, :])
    corr[singular] = np.eye(k)
    eig = np.linalg.eigvalsh(corr)
    singular |= eig[:, 0] <= RANK_RTOL * eig[:, -1]
    xtx[singular] = np.eye(k)
    beta = np.linalg.solve(xtx, xty[:, :, None])[:, :, 0]
    resid2 = (Y - sum(X[a] * beta[:, a, None] for a in range(k))) ** 2
    row = np.linalg.solve(xtx, np.eye(k)[j])
    var = _dot(sum(X[a] * row[:, a, None] for a in range(k)) ** 2, resid2) * (n / (n - k))
    beta[singular] = np.nan
    var[singular] = np.nan
    return beta, np.sqrt(var)


def breusch_pagan(resid: np.ndarray, Z: np.ndarray) -> tuple[float, float]:
    """Auxiliary regression of squared residuals on Z: LM stat n*R2 ~ chi2(k)."""
    resid = np.asarray(resid, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = resid.shape[0]
    X = np.column_stack([np.ones(n), Z])
    fit = ols(resid**2, X, se="classical")
    stat = n * fit.r2
    p = float(chdtrc(Z.shape[1], stat))
    return float(stat), p


def tsls(
    y: np.ndarray,
    endog: np.ndarray,
    instrument: np.ndarray,
    exog: np.ndarray,
    clusters: np.ndarray | None = None,
) -> tuple[OlsFit, OlsFit]:
    """Just-identified 2SLS of y on [endog, 1, exog] with one instrument.

    Returns (iv_fit, first_stage_fit), both OlsFit. The IV fit's coefficients
    are named "endog", "w0" (the intercept), "w1", ...; its covariance is the
    IV sandwich, with bread (Z'X)^-1 and scores from Z = [instrument, 1, exog],
    CR1 on clusters when given, HC1 otherwise. Its r2 is 1 - SSR/SST, which
    can be negative for IV. The first stage is the HC1 OLS of endog on Z, its
    instrument coefficient named "instrument"; it is also the rank check of Z.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    W = np.column_stack([np.ones(n), exog])
    X = np.column_stack([endog, W])
    Z = np.column_stack([instrument, W])
    names = ["endog"] + [f"w{i}" for i in range(W.shape[1])]
    first = ols(np.asarray(endog, dtype=float), Z, names=["instrument"] + names[1:], se="hc1")
    zx = Z.T @ X
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta = np.linalg.solve(zx, Z.T @ y)
        se = "hc1" if clusters is None else "cluster"
        return _fit_record(y, X, beta, Z, np.linalg.inv(zx), names, se, clusters), first
