"""Polygenic index construction, predictive power, and measurement-error
correction via split-sample instrumental variables (ORIV).

The stacked IV estimator duplicates the sample, instruments index A with
index B in one copy and B with A in the other, and clusters on the
individual. It is scale-faithful: fed raw (unstandardized) error-in-variables
proxies it recovers the raw-scale slope; fed standardized indices it
estimates the slope per standard deviation of the *measured* index divided
by the reliability, so callers rescale by sqrt(attenuation) when they want
effects per standard deviation of the latent true index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .genome import GenotypeMatrix
from .gwas import GwasResult, LeadSnpSet, run_gwas
from .regress import ols, ols_beta, tsls
from .util import ConfigError, Seed, Stream, child_rng


@dataclass
class Pgi:
    snp_ids: list[str]
    weights: np.ndarray
    raw_values: np.ndarray
    values: np.ndarray           # standardized on the analysis sample
    mean: float
    sd: float
    n_flipped: int = 0


def build_pgi(
    weights: GwasResult,
    g: GenotypeMatrix,
    selection: str | LeadSnpSet = "all_snps",
) -> Pgi:
    """Weighted dosage sum, standardized on the analysis sample.

    Effect alleles are harmonized by SNP id: a summary row whose effect
    allele is the panel's major allele gets its weight negated (the constant
    shift from reflecting dosages is absorbed by standardization). Ids that
    do not resolve in the panel are an error, as is a zero-variance index.
    """
    cols = g.panel.columns(weights.snp_ids, "summary statistics SNPs")
    if isinstance(selection, LeadSnpSet):
        keep = np.isin(np.asarray(weights.snp_ids, dtype=str), np.asarray(selection.snp_ids, dtype=str))
    elif selection == "all_snps":
        keep = np.ones(len(weights.snp_ids), dtype=bool)
    else:
        raise ConfigError(f"unknown selection rule {selection!r}")

    flip = keep & (np.asarray(weights.effect_allele, dtype=str) == "major")
    w = np.zeros(g.n_snps)
    w[cols[keep]] = np.where(flip, -weights.beta, weights.beta)[keep]
    raw = g.dosages.astype(float) @ w
    sd = raw.std()
    if sd == 0.0:
        raise ConfigError("polygenic index has zero variance on this sample")
    mean = raw.mean()
    return Pgi(snp_ids=list(compress(weights.snp_ids, keep)), weights=w, raw_values=raw, values=(raw - mean) / sd,
               mean=float(mean), sd=float(sd), n_flipped=int(flip.sum()))


def incremental_r2(pgi: Pgi | np.ndarray, y: np.ndarray) -> float:
    """R2 gain of the regression of y on [1, index] over the intercept-only fit."""
    v = pgi.values if isinstance(pgi, Pgi) else np.asarray(pgi, dtype=float)
    y = np.asarray(y, dtype=float)
    base = np.ones((y.shape[0], 1))
    r2_base = ols(y, base, se="classical").r2
    r2_full = ols(y, np.column_stack([base, v]), se="classical").r2
    return float(r2_full - r2_base)


def split_sample_pgis(
    discovery_g: GenotypeMatrix,
    discovery_y: np.ndarray,
    analysis_g: GenotypeMatrix,
    seed: Seed,
) -> tuple[Pgi, Pgi]:
    """Two indices from disjoint half-sample GWAS runs: their estimation
    errors are independent by construction."""
    n = discovery_g.n_individuals
    rng = child_rng(seed, Stream.SPLIT_SAMPLE)
    perm = rng.permutation(n)
    half_a, half_b = perm[: n // 2], perm[n // 2:]
    y = np.asarray(discovery_y, dtype=float)
    pgis = []
    for half in (half_a, half_b):
        ids = [discovery_g.ids[i] for i in sorted(half)]
        res = run_gwas(discovery_g.subset(ids), y[sorted(half)])
        pgis.append(build_pgi(res, analysis_g))
    return pgis[0], pgis[1]


@dataclass
class OrivFit:
    beta_iv: float
    se: float
    first_stage: float
    first_stage_f: float
    ols_beta: float
    attenuation: float          # split-half reliability estimate: corr(A, B)
    weak_instrument: bool
    n: int


def oriv_estimate(
    pgi_a: Pgi | np.ndarray,
    pgi_b: Pgi | np.ndarray,
    y: np.ndarray,
) -> OrivFit:
    """Stacked obviously-related IV: the sample is duplicated, with index A
    instrumented by B in one copy and B by A in the other, and standard
    errors clustered on the individual. The first-stage F is the squared HC1
    z of the instrument in the stacked first stage; ols_beta is the slope of
    the OLS of y on [1, A]."""
    a = pgi_a.values if isinstance(pgi_a, Pgi) else np.asarray(pgi_a, dtype=float)
    b = pgi_b.values if isinstance(pgi_b, Pgi) else np.asarray(pgi_b, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if a.shape[0] != n or b.shape[0] != n:
        raise ConfigError("index and outcome lengths differ")

    copy_flag = np.repeat([0.0, 1.0], n)
    fit, first = tsls(np.concatenate([y, y]), np.concatenate([a, b]), np.concatenate([b, a]),
                      exog=copy_flag, clusters=np.tile(np.arange(n), 2))
    f_stat = (first.coef("instrument") / first.se("instrument")) ** 2
    return OrivFit(
        beta_iv=fit.coef("endog"),
        se=fit.se("endog"),
        first_stage=first.coef("instrument"),
        first_stage_f=f_stat,
        ols_beta=float(ols_beta(y, np.column_stack([np.ones(n), a]))[1]),
        attenuation=float(np.corrcoef(a, b)[0, 1]),
        weak_instrument=f_stat < 10.0,
        n=n,
    )
