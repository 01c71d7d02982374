"""Per-SNP association engines.

run_gwas residualizes the outcome and every SNP column on the controls once
(Frisch-Waugh), so the per-SNP loop is O(n) regardless of the control count;
the sibling fixed-effects variant shares its per-SNP slope formula with the
family means as the controls. The trio and sibling mean-control designs fit
one small regression per SNP through regress.batched_ols_hc1. All standard
errors are HC1; p-values are two-sided normal, floored at 1e-320. A SNP with
no usable variation (a singular per-SNP design) is reported with beta 0,
se 1e300 and p 1 instead of stopping the panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genome import GenotypeMatrix, Pedigree, SnpSpec
from .regress import P_FLOOR, RANK_RTOL, batched_ols_hc1, checked_qr, pvalue_from_z
from .util import ConfigError, EstimationError, fmt_float, indexed_map, parse_column, read_tsv, write_tsv

GENOME_WIDE_SIG = 5e-8
CHUNK = 4096


@dataclass
class GwasResult:
    snp_ids: list[str]
    chrom: np.ndarray
    pos: np.ndarray
    effect_allele: list[str]      # "minor" (panel coding) or "major" (flipped)
    beta: np.ndarray
    se: np.ndarray
    p: np.ndarray
    n: np.ndarray
    design: str
    n_dropped: int = 0
    parent_beta: np.ndarray | None = None  # trio design: (J, 2) mother/father coefficients

    def __post_init__(self):
        if np.any(self.se <= 0):
            raise EstimationError("standard errors must be positive")
        z = self.beta / self.se
        expected = np.asarray(pvalue_from_z(z))
        if np.any(np.abs(self.p - expected) > 1e-6):
            raise EstimationError("p-values inconsistent with beta/se under the normal approximation")

    @property
    def n_snps(self) -> int:
        return len(self.snp_ids)


def result_from_stats(panel: list[SnpSpec], beta, se, n, design, n_dropped=0) -> GwasResult:
    # zero-variance SNPs carry no information (beta 0, se huge, p 1);
    # perfect fits get the se floor so the p floor engages instead of 1/0
    se = np.asarray(se, dtype=float).copy()
    beta = np.asarray(beta, dtype=float).copy()
    dead = ~np.isfinite(beta) | ~np.isfinite(se)
    beta[dead] = 0.0
    se[dead] = 1e300
    se = np.maximum(se, 1e-300)
    p = np.asarray(pvalue_from_z(beta / se))
    return GwasResult(
        snp_ids=[s.id for s in panel],
        chrom=np.array([s.chromosome for s in panel]),
        pos=np.array([s.position for s in panel]),
        effect_allele=["minor"] * len(panel),
        beta=beta, se=se, p=p,
        n=np.full(len(panel), int(n)),
        design=design, n_dropped=n_dropped,
    )


def _slope_hc1(X: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Slope of y on each column of X and its HC1 standard error, for y and X
    already residualized on the k - 1 other regressors (Frisch-Waugh)."""
    n = X.shape[0]
    sxx = np.einsum("nj,nj->j", X, X)
    sxx[sxx == 0] = np.nan  # a column with no variation left: NaN marks it dead without 0/0
    b = (X.T @ y) / sxx
    resid = y[:, None] - X * b
    meat = np.einsum("nj,nj->j", X * X, resid * resid)
    return b, np.sqrt(meat / sxx**2 * (n / (n - k)))


def run_gwas(
    g: GenotypeMatrix,
    y: np.ndarray,
    controls: np.ndarray | None = None,
    control_names: list[str] | None = None,
    design: str = "population",
    threads: int = 1,
) -> GwasResult:
    """One OLS of y on [1, SNP_j, controls] per SNP, HC1 standard errors."""
    y = np.asarray(y, dtype=float)
    n = g.n_individuals
    if y.shape[0] != n:
        raise ConfigError("outcome length does not match genotypes")
    C = np.ones((n, 1))
    labels = ["intercept"]
    if controls is not None:
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        if controls.shape[0] != n:
            controls = controls.T
        C = np.column_stack([C, controls])
        labels += list(control_names) if control_names else [f"control{i}" for i in range(controls.shape[1])]
    k = C.shape[1] + 1
    q, _ = checked_qr(C, labels)
    y_r = y - q @ (q.T @ y)

    J = g.n_snps
    beta = np.empty(J)
    se = np.empty(J)
    chunks = [(s, min(s + CHUNK, J)) for s in range(0, J, CHUNK)]

    def work(ci: int):
        lo, hi = chunks[ci]
        X = g.dosages[:, lo:hi].astype(float)
        raw_ss = np.einsum("nj,nj->j", X, X)
        X -= q @ (q.T @ X)
        # checked_qr's rank rule: a constant SNP leaves rounding residue, not zeros
        X[:, np.einsum("nj,nj->j", X, X) <= RANK_RTOL**2 * raw_ss] = 0.0
        beta[lo:hi], se[lo:hi] = _slope_hc1(X, y_r, k)

    indexed_map(work, len(chunks), threads)
    return result_from_stats(g.panel, beta, se, n, design)


def run_trio_gwas(
    children: GenotypeMatrix,
    parents: GenotypeMatrix,
    pedigree: Pedigree,
    y: np.ndarray,
) -> GwasResult:
    """Per SNP: y on [1, x_child, x_mother, x_father]. The child coefficient
    estimates the direct effect. Children with unresolvable parents are
    dropped and counted."""
    y = np.asarray(y, dtype=float)
    known = set(parents.ids)
    keep = [i for i in range(len(pedigree.child_ids))
            if pedigree.mother_ids[i] in known and pedigree.father_ids[i] in known]
    n_dropped = len(pedigree.child_ids) - len(keep)
    if not keep:
        raise ConfigError("no complete trios")
    mi = parents.index_of([pedigree.mother_ids[i] for i in keep])
    fi = parents.index_of([pedigree.father_ids[i] for i in keep])
    ci = children.index_of([pedigree.child_ids[i] for i in keep])
    y = y[keep]
    cols = [np.ones(len(keep))] + [np.ascontiguousarray(g.dosages[i].T, dtype=float)
                                   for g, i in ((children, ci), (parents, mi), (parents, fi))]
    beta, se = batched_ols_hc1(np.broadcast_to(y, cols[1].shape), cols)
    res = result_from_stats(children.panel, beta[:, 1], se[:, 1], len(keep), "trio", n_dropped)
    res.parent_beta = beta[:, 2:].copy()
    return res


def run_sibling_gwas(
    siblings: GenotypeMatrix,
    pedigree: Pedigree,
    y: np.ndarray,
    variant: str = "family_fixed_effects",
) -> GwasResult:
    """Within-family association: either demeaned OLS (family fixed effects)
    or OLS with the family-mean genotype as a control. Point estimates of the
    two variants agree to numerical precision; singletons are excluded."""
    if variant not in ("family_fixed_effects", "mean_sibling_control"):
        raise ConfigError(f"unknown sibling variant {variant!r}")
    y = np.asarray(y, dtype=float)
    fams, inv, counts = np.unique(pedigree.family_ids, return_inverse=True, return_counts=True)
    keep = counts[inv] >= 2
    n_dropped = int((~keep).sum())
    inv = inv[keep]
    y = y[keep]
    x = siblings.dosages[keep].astype(float)
    n = y.shape[0]
    _, inv = np.unique(inv, return_inverse=True)
    n_fam = inv.max() + 1

    fam_sum_x = np.zeros((n_fam, x.shape[1]))
    np.add.at(fam_sum_x, inv, x)
    fam_n = np.bincount(inv).astype(float)
    fam_mean_x = fam_sum_x / fam_n[:, None]
    fam_mean_y = np.bincount(inv, weights=y) / fam_n

    if variant == "family_fixed_effects":
        beta, se = _slope_hc1(x - fam_mean_x[inv], y - fam_mean_y[inv], n_fam + 1)
    else:
        cols = [np.ones(n), np.ascontiguousarray(x.T), np.ascontiguousarray(fam_mean_x[inv].T)]
        beta_full, se_full = batched_ols_hc1(np.broadcast_to(y, cols[1].shape), cols)
        beta, se = beta_full[:, 1], se_full[:, 1]
    return result_from_stats(siblings.panel, beta, se, n, f"sibling_{variant}", n_dropped)


def meta_analyze(results: list[GwasResult]) -> GwasResult:
    """Inverse-variance-weighted fixed-effects meta-analysis."""
    if not results:
        raise ConfigError("nothing to meta-analyze")
    first = results[0]
    for r in results[1:]:
        if r.snp_ids != first.snp_ids:
            raise ConfigError("summary statistics cover different panels")
        for j, (a, b) in enumerate(zip(r.effect_allele, first.effect_allele)):
            if a != b:
                raise ConfigError(f"effect-allele mismatch at SNP {first.snp_ids[j]}")
    w = np.stack([1.0 / r.se**2 for r in results])
    beta = np.stack([r.beta for r in results])
    wsum = w.sum(axis=0)
    meta_beta = (w * beta).sum(axis=0) / wsum
    meta_se = wsum**-0.5
    n = np.stack([r.n for r in results]).sum(axis=0)
    out = result_from_stats([SnpSpec(i, int(c), int(pp), 0.5, 0) for i, c, pp in zip(first.snp_ids, first.chrom, first.pos)],
                             meta_beta, meta_se, 0, "meta")
    out.n = n
    out.effect_allele = list(first.effect_allele)
    return out


@dataclass
class LeadSnpSet:
    leads: list[tuple[str, int]]  # (snp id, locus id)
    p_threshold: float
    r2_threshold: float

    @property
    def snp_ids(self) -> list[str]:
        return [s for s, _ in self.leads]


def clump(
    result: GwasResult,
    g: GenotypeMatrix,
    p_thresh: float = GENOME_WIDE_SIG,
    r2_thresh: float = 0.1,
) -> LeadSnpSet:
    """Greedy lead-SNP selection by ascending p within LD blocks: accept a
    significant SNP unless its dosage r2 with an accepted lead in the same
    block reaches the threshold. Ties on p break by panel order."""
    if result.snp_ids != [s.id for s in g.panel]:
        raise ConfigError("summary statistics do not match the genotype panel")
    sig = np.nonzero(result.p < p_thresh)[0]
    order = sig[np.lexsort((sig, result.p[sig]))]
    block = np.array([s.block_id for s in g.panel])
    d = g.dosages
    accepted: list[int] = []
    for j in order:
        ok = True
        for a in accepted:
            if block[a] == block[j]:
                r = np.corrcoef(d[:, a].astype(float), d[:, j].astype(float))[0, 1]
                if r * r >= r2_thresh:
                    ok = False
                    break
        if ok:
            accepted.append(int(j))
    accepted.sort()
    return LeadSnpSet(leads=[(g.panel[j].id, int(block[j])) for j in accepted],
                      p_threshold=p_thresh, r2_threshold=r2_thresh)


def manhattan_export(result: GwasResult) -> list[tuple[int, int, float]]:
    """(chrom, pos, -log10 p) rows in panel order; p floored upstream at 1e-320."""
    logs = -np.log10(np.maximum(result.p, P_FLOOR))
    return [(int(c), int(pp), float(l)) for c, pp, l in zip(result.chrom, result.pos, logs)]


SUMSTATS_HEADER = ["SNP", "CHR", "POS", "EA", "BETA", "SE", "P", "N"]


def write_sumstats_tsv(path: str, result: GwasResult) -> None:
    rows = (
        [result.snp_ids[j], int(result.chrom[j]), int(result.pos[j]), result.effect_allele[j],
         fmt_float(result.beta[j]), fmt_float(result.se[j]), fmt_float(result.p[j]), int(result.n[j])]
        for j in range(result.n_snps)
    )
    write_tsv(path, SUMSTATS_HEADER, rows)


def read_sumstats_tsv(path: str) -> GwasResult:
    header, rows = read_tsv(path)
    if header != SUMSTATS_HEADER:
        raise ConfigError(f"summary statistics header must be {SUMSTATS_HEADER}")
    chrom, pos, beta, se, p, n = (parse_column(path, SUMSTATS_HEADER[j], [r[j] for r in rows], typ)
                                  for j, typ in ((1, int), (2, int), (4, float), (5, float), (6, float), (7, int)))
    return GwasResult(snp_ids=[r[0] for r in rows], chrom=chrom, pos=pos, effect_allele=[r[3] for r in rows],
                      beta=beta, se=se, p=p, n=n, design="file")
