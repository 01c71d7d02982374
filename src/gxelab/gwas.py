"""Per-SNP association engines.

Every design fits CHUNK SNP columns at a time in one loop (util.chunk_map) on
its threads. run_gwas and both sibling variants take one Frisch-Waugh step
per chunk (_fwl), against the controls' projection or the family means; the
trio design fits one small regression per SNP (regress.batched_ols_hc1).
Family designs match pedigree children to genotype rows by id; y has one
value per genotype row, in their order. Standard errors are HC1 (the sibling
designs count the family effects), p-values two-sided normal floored at 1e-320.
A SNP with no usable variation (a singular per-SNP design) gets beta 0, se
1e300 and p 1 instead of stopping the panel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .genome import GenotypeMatrix, Panel, Pedigree
from .regress import P_FLOOR, RANK_RTOL, batched_ols_hc1, checked_qr, pvalue_from_z
from .util import ConfigError, EstimationError, chunk_map, fmt_float, parse_column, read_tsv, write_tsv

GENOME_WIDE_SIG = 5e-8
CHUNK = 512  # SNP columns per residualization block, small enough to stay in cache


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


def _finite_stats(beta, se) -> dict[str, np.ndarray]:
    # zero-variance SNPs carry no information (beta 0, se huge, p 1);
    # perfect fits get the se floor so the p floor engages instead of 1/0
    se = np.asarray(se, dtype=float).copy()
    beta = np.asarray(beta, dtype=float).copy()
    dead = ~np.isfinite(beta) | ~np.isfinite(se)
    beta[dead] = 0.0
    se[dead] = 1e300
    se = np.maximum(se, 1e-300)
    return {"beta": beta, "se": se, "p": np.asarray(pvalue_from_z(beta / se))}


def result_from_stats(panel: Panel, beta, se, n, design, n_dropped=0) -> GwasResult:
    return GwasResult(snp_ids=list(panel.ids), chrom=panel.chrom, pos=panel.pos, effect_allele=["minor"] * len(panel),
                      n=np.full(len(panel), int(n)), design=design, n_dropped=n_dropped, **_finite_stats(beta, se))


def _fwl(x: np.ndarray, fitted, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Slope of y on each dosage column of x less fitted(x), and its HC1 standard
    error, for y already residualized on the k - 1 other regressors (Frisch-Waugh)."""
    n = x.shape[0]
    if n <= k:
        raise EstimationError(f"{n} observations for {k} regressors: the HC1 correction needs more observations")
    X = x.astype(float)
    raw_ss = np.einsum("nj,nj->j", X, X)
    X -= fitted(X)
    sxx = np.einsum("nj,nj->j", X, X)
    # checked_qr's rank rule (a constant SNP leaves rounding residue, not zeros); NaN marks the SNP dead
    sxx[sxx <= RANK_RTOL**2 * raw_ss] = np.nan
    b = (X.T @ y) / sxx
    resid = y[:, None] - X * b
    meat = np.einsum("nj,nj->j", X * X, resid * resid)
    return b, np.sqrt(meat / sxx**2 * (n / (n - k)))


def _outcome(y: np.ndarray, g: GenotypeMatrix) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[0] != g.n_individuals:
        raise ConfigError("outcome length does not match genotypes")
    return y


def run_gwas(
    g: GenotypeMatrix,
    y: np.ndarray,
    controls: np.ndarray | None = None,
    control_names: list[str] | None = None,
    threads: int = 1,
) -> GwasResult:
    """One OLS of y on [1, SNP_j, controls] per SNP, HC1 standard errors."""
    y = _outcome(y, g)
    n = g.n_individuals
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
    beta, se = chunk_map(lambda _, lo, hi: _fwl(g.dosages[:, lo:hi], lambda X: q @ (q.T @ X), y_r, k), g.n_snps, CHUNK,
                         threads)
    return result_from_stats(g.panel, beta, se, n, "population")


def run_trio_gwas(
    children: GenotypeMatrix,
    parents: GenotypeMatrix,
    pedigree: Pedigree,
    y: np.ndarray,
    threads: int = 1,
) -> GwasResult:
    """Per SNP: y on [1, x_child, x_mother, x_father], y following the rows of
    children. The child coefficient estimates the direct effect. Children with
    unresolvable parents are dropped and counted."""
    y = _outcome(y, children)
    known = set(parents.ids)
    trios = [(c, m, f) for c, m, f in zip(pedigree.child_ids, pedigree.mother_ids, pedigree.father_ids)
             if m in known and f in known]
    if not trios:
        raise ConfigError("no complete trios")
    # genotype-row order, so the pedigree's row order changes nothing
    trios = [trios[i] for i in np.argsort(children.index_of([c for c, _, _ in trios]))]
    ci, mi, fi = (g.index_of(ids) for g, ids in zip((children, parents, parents), zip(*trios)))
    y = y[ci]

    def fit(_, lo: int, hi: int):
        cols = [np.ones(len(trios))] + [np.ascontiguousarray(g.dosages[i, lo:hi].T, dtype=float)
                                        for g, i in ((children, ci), (parents, mi), (parents, fi))]
        beta, se = batched_ols_hc1(np.broadcast_to(y, cols[1].shape), cols, 1)
        return beta[:, 1], se, beta[:, 2:]

    beta, se, parent_beta = chunk_map(fit, children.n_snps, CHUNK, threads)
    n_dropped = len(pedigree.child_ids) - len(trios)
    return replace(result_from_stats(children.panel, beta, se, len(trios), "trio", n_dropped), parent_beta=parent_beta)


def run_sibling_gwas(
    siblings: GenotypeMatrix,
    pedigree: Pedigree,
    y: np.ndarray,
    variant: str = "family_fixed_effects",
    threads: int = 1,
) -> GwasResult:
    """Within-family association, y following the rows of siblings. Both
    variants fit the one family fixed-effects kernel: by Frisch-Waugh, OLS with
    the family-mean genotype as a control has the same slope. The SE is HC1
    with the family effects counted, n/(n - families - 1), which for pairs
    equals CR1 clustered on family. Singletons are excluded."""
    if variant not in ("family_fixed_effects", "mean_sibling_control"):
        raise ConfigError(f"unknown sibling variant {variant!r}")
    y = _outcome(y, siblings)
    rows = siblings.index_of(pedigree.child_ids)
    order = np.argsort(rows)  # genotype-row order, so the pedigree's row order changes nothing
    _, inv, counts = np.unique(np.asarray(pedigree.family_ids)[order], return_inverse=True, return_counts=True)
    keep = counts[inv] >= 2
    rows = rows[order][keep]
    y = y[rows]
    _, inv, fam_n = np.unique(inv[keep], return_inverse=True, return_counts=True)
    by_family, starts = np.argsort(inv), np.cumsum(fam_n) - fam_n
    y_within = y - (np.bincount(inv, weights=y) / fam_n)[inv]

    def fam_mean(X: np.ndarray) -> np.ndarray:  # dosages are integers: exact family sums in any order
        return (np.add.reduceat(X[by_family], starts) / fam_n[:, None])[inv]

    beta, se = chunk_map(lambda _, lo, hi: _fwl(siblings.dosages[rows, lo:hi], fam_mean, y_within, len(fam_n) + 1),
                         siblings.n_snps, CHUNK, threads)
    return result_from_stats(siblings.panel, beta, se, len(rows), f"sibling_{variant}", int((~keep).sum()))


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
    return replace(first, snp_ids=list(first.snp_ids), effect_allele=list(first.effect_allele), n=n, design="meta",
                   n_dropped=0, parent_beta=None, **_finite_stats(meta_beta, meta_se))


@dataclass
class LeadSnpSet:
    leads: list[tuple[str, int]]  # (snp id, locus id)

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
    if result.snp_ids != g.panel.ids:
        raise ConfigError("summary statistics do not match the genotype panel")
    sig = np.nonzero(result.p < p_thresh)[0]
    order = sig[np.lexsort((sig, result.p[sig]))]
    block = g.panel.block
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
    return LeadSnpSet(leads=[(g.panel.ids[j], int(block[j])) for j in accepted])


def manhattan_export(result: GwasResult) -> list[tuple[int, int, float]]:
    """(chrom, pos, -log10 p) rows in panel order; p floored upstream at 1e-320."""
    logs = -np.log10(np.maximum(result.p, P_FLOOR))
    return [(int(c), int(pp), float(l)) for c, pp, l in zip(result.chrom, result.pos, logs)]


SUMSTATS_HEADER = ["SNP", "CHR", "POS", "EA", "BETA", "SE", "P", "N"]


def write_sumstats_tsv(path: str, result: GwasResult) -> None:
    chrom, pos, n = (col.astype(int).tolist() for col in (result.chrom, result.pos, result.n))
    beta, se, p = (map(fmt_float, col.tolist()) for col in (result.beta, result.se, result.p))
    write_tsv(path, SUMSTATS_HEADER, zip(result.snp_ids, chrom, pos, result.effect_allele, beta, se, p, n))


def read_sumstats_tsv(path: str) -> GwasResult:
    header, rows = read_tsv(path)
    if header != SUMSTATS_HEADER:
        raise ConfigError(f"{path}: summary statistics header must be {SUMSTATS_HEADER}")
    snp_ids = [r[0] for r in rows]
    if len(set(snp_ids)) < len(snp_ids):
        repeated = next(i for i, k in Counter(snp_ids).items() if k > 1)
        raise ConfigError(f"SNP {repeated!r} is repeated in {path}")
    effect_allele = [r[3] for r in rows]
    other = [a for a in effect_allele if a not in ("minor", "major")]
    if other:
        raise ConfigError(f"column 'EA' of {path} holds {other[0]!r}, not minor or major")
    chrom, pos, beta, se, p, n = (parse_column(path, SUMSTATS_HEADER[j], [r[j] for r in rows], typ)
                                  for j, typ in ((1, int), (2, int), (4, float), (5, float), (6, float), (7, int)))
    return GwasResult(snp_ids=snp_ids, chrom=chrom, pos=pos, effect_allele=effect_allele,
                      beta=beta, se=se, p=p, n=n, design="file")
