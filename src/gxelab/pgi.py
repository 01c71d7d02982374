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

import numpy as np

from .genome import GenotypeMatrix
from .gwas import GwasResult, LeadSnpSet, run_gwas
from .regress import ols, tsls
from .util import ConfigError, child_rng


@dataclass
class Pgi:
    snp_ids: list[str]
    weights: np.ndarray
    raw_values: np.ndarray
    values: np.ndarray           # standardized on the analysis sample
    mean: float
    sd: float
    provenance: str
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
    panel_pos = {s.id: j for j, s in enumerate(g.panel)}
    missing = [i for i in weights.snp_ids if i not in panel_pos]
    if missing:
        raise ConfigError(f"summary statistics contain SNPs absent from the panel: {missing[:5]}")
    if isinstance(selection, LeadSnpSet):
        chosen = set(selection.snp_ids)
        rows = [j for j, i in enumerate(weights.snp_ids) if i in chosen]
        provenance = f"{weights.design}:lead_snps(p<{selection.p_threshold:g})"
    elif selection == "all_snps":
        rows = list(range(len(weights.snp_ids)))
        provenance = f"{weights.design}:all_snps"
    else:
        raise ConfigError(f"unknown selection rule {selection!r}")

    n_flipped = 0
    w = np.zeros(g.n_snps)
    ids = []
    for j in rows:
        col = panel_pos[weights.snp_ids[j]]
        beta = weights.beta[j]
        if weights.effect_allele[j] == "major":
            beta = -beta
            n_flipped += 1
        w[col] = beta
        ids.append(weights.snp_ids[j])
    raw = g.dosages.astype(float) @ w
    sd = raw.std()
    if sd == 0.0:
        raise ConfigError("polygenic index has zero variance on this sample")
    mean = raw.mean()
    return Pgi(snp_ids=ids, weights=w, raw_values=raw, values=(raw - mean) / sd,
               mean=float(mean), sd=float(sd), provenance=provenance, n_flipped=n_flipped)


def incremental_r2(pgi: Pgi | np.ndarray, y: np.ndarray, controls: np.ndarray | None = None) -> float:
    """R2 gain from adding the index to the control-only regression."""
    v = pgi.values if isinstance(pgi, Pgi) else np.asarray(pgi, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    base = np.ones((n, 1)) if controls is None else np.column_stack([np.ones(n), controls])
    r2_base = ols(y, base, se="classical").r2
    r2_full = ols(y, np.column_stack([base, v]), se="classical").r2
    return float(r2_full - r2_base)


def split_sample_pgis(
    discovery_g: GenotypeMatrix,
    discovery_y: np.ndarray,
    analysis_g: GenotypeMatrix,
    seed: int,
    controls: np.ndarray | None = None,
) -> tuple[Pgi, Pgi]:
    """Two indices from disjoint half-sample GWAS runs: their estimation
    errors are independent by construction."""
    n = discovery_g.n_individuals
    rng = child_rng(seed, 41)
    perm = rng.permutation(n)
    half_a, half_b = perm[: n // 2], perm[n // 2:]
    if set(half_a) & set(half_b):
        raise ConfigError("discovery halves overlap")
    y = np.asarray(discovery_y, dtype=float)
    pgis = []
    for half in (half_a, half_b):
        ids = [discovery_g.ids[i] for i in sorted(half)]
        sub = discovery_g.subset(ids)
        ctl = None if controls is None else controls[sorted(half)]
        res = run_gwas(sub, y[sorted(half)], controls=ctl)
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
    controls: np.ndarray | None = None,
) -> OrivFit:
    """Stacked obviously-related IV: the sample is duplicated, with index A
    instrumented by B in one copy and B by A in the other, and standard
    errors clustered on the individual."""
    a = pgi_a.values if isinstance(pgi_a, Pgi) else np.asarray(pgi_a, dtype=float)
    b = pgi_b.values if isinstance(pgi_b, Pgi) else np.asarray(pgi_b, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if a.shape[0] != n or b.shape[0] != n:
        raise ConfigError("index and outcome lengths differ")

    y2 = np.concatenate([y, y])
    endog = np.concatenate([a, b])
    instr = np.concatenate([b, a])
    copy_flag = np.concatenate([np.zeros(n), np.ones(n)])
    exog = copy_flag[:, None] if controls is None else np.column_stack([copy_flag, np.vstack([controls, controls])])
    clusters = np.concatenate([np.arange(n), np.arange(n)])
    fit = tsls(y2, endog, instr, exog=exog, clusters=clusters)

    base = np.ones((n, 1)) if controls is None else np.column_stack([np.ones(n), controls])
    ols_fit = ols(y, np.column_stack([base, a]))
    lam = float(np.corrcoef(a, b)[0, 1])
    first_stage = ols(endog, np.column_stack([instr[:, None], np.ones(2 * n)[:, None], exog]), se="classical").beta[0]
    return OrivFit(
        beta_iv=float(fit.beta[0]),
        se=float(fit.se[0]),
        first_stage=float(first_stage),
        first_stage_f=fit.first_stage_f,
        ols_beta=float(ols_fit.beta[-1]),
        attenuation=lam,
        weak_instrument=fit.first_stage_f < 10.0,
        n=n,
    )
