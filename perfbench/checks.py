"""Checks of gxelab's outputs against computations made apart from the
program, or against properties the method must have.

Every check reads the files a command wrote, recomputes what it can with
plain numpy, and raises CheckFailed on a mismatch. None compares with a
stored copy of earlier output. Statistical bounds are set so that a correct
program trips them with negligible probability over a whole benchmark round
(hundreds of passes, thousands of individual comparisons); README.md gives
each bound and why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import stats


class CheckFailed(Exception):
    """An output does not match its independent computation or property."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Readers (independent of gxelab's own parsers)
# ---------------------------------------------------------------------------

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return header, rows


def read_columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_table(path)
    cols = np.array(rows, dtype=object).reshape(len(rows), len(header))
    out = {}
    for j, name in enumerate(header):
        col = cols[:, j].astype(str)
        try:
            out[name] = col.astype(float)
        except ValueError:
            out[name] = col
    return out


def read_panel(path: Path) -> dict[str, np.ndarray]:
    cols = read_columns(path)
    return {"id": cols["id"], "maf": cols["maf"], "block": cols["block"].astype(int)}


def read_dosages(path: Path, snp_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, dosages) of a genotype TSV whose header must match the panel."""
    snps, ids, d = _parse_dosages(path.read_bytes())
    require(snps == tuple(snp_ids), f"{path.name}: header does not match the panel")
    return ids, d


@functools.lru_cache(maxsize=4)
def _parse_dosages(data: bytes) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Several checks read the same genotype file; the parse is cached on
    its content. The arrays are read-only because callers share them."""
    lines = data.decode().splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:] if line.strip()]
    require(header[0] == "iid" and all(len(r) == len(header) for r in rows), "genotype table is ragged")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cell that is not an integer stops the parse with a warning
        d = np.fromstring("\t".join("\t".join(r[1:]) for r in rows), dtype=np.int64, sep="\t")
    require(d.size == len(rows) * (len(header) - 1), "genotype table has cells that are not integers")
    d = d.reshape(len(rows), len(header) - 1)
    ids = np.array([r[0] for r in rows])
    d.flags.writeable = ids.flags.writeable = False
    return tuple(header[1:]), ids, d


def read_phenotype(path: Path) -> tuple[np.ndarray, np.ndarray]:
    cols = read_columns(path)
    return cols["iid"], cols["Y"]


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Shared properties
# ---------------------------------------------------------------------------

def manifest(out: Path) -> None:
    """Every manifest sha256 matches the file it names."""
    m = read_json(out / "manifest.json")
    require(m["outputs"], "manifest lists no outputs")
    for name, digest in m["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        require(actual == digest, f"manifest sha256 of {name} does not match the file")


def dosage_range(d: np.ndarray) -> None:
    require(d.size and np.isin(d, (0, 1, 2)).all(), "dosages outside {0,1,2}")


def allele_frequencies(d: np.ndarray, maf: np.ndarray, false_alarm: float = 1e-6) -> None:
    """Sample allele frequency of each SNP against its panel MAF. The 2n
    founder alleles are independent Bernoulli(maf) draws; the z bound is
    Bonferroni-corrected so that the chance of any SNP tripping it is
    false_alarm."""
    n_alleles = 2 * d.shape[0]
    z = stats.norm.isf(false_alarm / (2 * d.shape[1]))
    dev = np.abs(d.mean(axis=0) / 2 - maf) / np.sqrt(maf * (1 - maf) / n_alleles)
    require(dev.max() < z, f"allele frequency of SNP {int(dev.argmax())} is {dev.max():.1f} SE from its MAF (bound {z:.1f})")


def adjacent_correlations(d: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = d - d.mean(axis=0)
    x = x / np.sqrt((x * x).mean(axis=0))
    r = (x[:, :-1] * x[:, 1:]).mean(axis=0)
    same = block[:-1] == block[1:]
    return r[same], r[~same]


def block_ld(d: np.ndarray, block: np.ndarray) -> None:
    """Adjacent SNPs correlate positively inside LD blocks and not across
    them. Each adjacent-pair correlation has SE about 1/sqrt(n); the bounds
    are 6 SE of the mean over pairs."""
    within, across = adjacent_correlations(d, block)
    n = d.shape[0]
    require(within.size and across.size, "panel has no within-block or no across-block neighbours")
    require(within.mean() > 6 / math.sqrt(n * within.size),
            f"mean within-block adjacent correlation {within.mean():.4f} is not positive")
    require(abs(across.mean()) < 6 / math.sqrt(n * across.size),
            f"mean across-block adjacent correlation {across.mean():.4f} is not near 0")


def standardized_trait(y: np.ndarray) -> None:
    require(np.isfinite(y).all(), "phenotype has non-finite values")
    require(abs(y.mean()) < 1e-8 and abs(y.std() - 1) < 1e-8,
            f"founder phenotype has mean {y.mean():.3g} and SD {y.std():.10f}, not 0 and 1")


def mendelian(child: np.ndarray, mother: np.ndarray, father: np.ndarray) -> None:
    """Each parent passes one of its own alleles: a heterozygous parent 0 or
    1 copies, a homozygote exactly its allele."""
    lo = (mother == 2).astype(int) + (father == 2)
    hi = (mother > 0).astype(int) + (father > 0)
    bad = (child < lo) | (child > hi)
    require(not bad.any(), f"{int(bad.sum())} child dosages impossible given the parents")


def hc1_fit(y: np.ndarray, X: np.ndarray, df_k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """OLS by least squares with HC1 standard errors; df_k overrides the
    parameter count in the n/(n-k) factor (absorbed fixed effects)."""
    n, k = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    e = y - X @ beta
    bread = np.linalg.pinv(X.T @ X)
    meat = (X * (e * e)[:, None]).T @ X
    cov = bread @ meat @ bread * (n / (n - (df_k or k)))
    return beta, np.sqrt(np.diag(cov))


def close(a, b, tol: float, what: str) -> None:
    a, b = np.asarray(a, float), np.asarray(b, float)
    worst = np.max(np.abs(a - b) / tol) if a.size else 0.0
    require(a.shape == b.shape and worst <= 1.0, f"{what} differs from the independent value (worst {worst:.3g} x tolerance)")


# ---------------------------------------------------------------------------
# genomics_pipeline
# ---------------------------------------------------------------------------

def founders(out: Path, cfg: dict) -> None:
    panel = read_panel(out / "panel.tsv")
    require(len(panel["id"]) == cfg["n_snps"], "panel size differs from the config")
    ids, d = read_dosages(out / "genotypes.tsv", panel["id"])
    require(len(ids) == cfg["n"], "genotype row count differs from the config")
    dosage_range(d)
    allele_frequencies(d, panel["maf"])
    block_ld(d, panel["block"])
    pid, y = read_phenotype(out / "phenotype.tsv")
    require(list(pid) == list(ids), "phenotype ids differ from genotype ids")
    standardized_trait(y)
    manifest(out)


def siblings(out: Path, cfg: dict) -> None:
    panel = read_panel(out / "panel.tsv")
    pids, parents = read_dosages(out / "parents.tsv", panel["id"])
    cids, children = read_dosages(out / "children.tsv", panel["id"])
    require(len(pids) == 2 * cfg["n"] and len(cids) == 2 * cfg["n"], "sibling cohort sizes differ from the config")
    dosage_range(parents)
    dosage_range(children)
    allele_frequencies(parents, panel["maf"])
    block_ld(parents, panel["block"])
    ped = read_columns(out / "pedigree.tsv")
    require(list(ped["child"]) == list(cids), "pedigree children differ from genotype ids")
    fams, counts = np.unique(ped["family"], return_counts=True)
    require((counts == 2).all(), "a family does not have exactly two children")
    row = {iid: i for i, iid in enumerate(pids)}
    mendelian(children, parents[[row[m] for m in ped["mother"]]], parents[[row[f] for f in ped["father"]]])
    sid, y = read_phenotype(out / "phenotype.tsv")
    require(list(sid) == list(cids) and np.isfinite(y).all(), "sibling phenotype ids or values are wrong")
    manifest(out)


def snp_sample(n_snps: int, size: int = 40) -> np.ndarray:
    """The fixed SNP sample every GWAS check refits."""
    return np.unique(np.linspace(0, n_snps - 1, size).round().astype(int))


def sumstats_consistent(ss: dict, panel: dict, n: int) -> None:
    require(list(ss["SNP"]) == list(panel["id"]), "summary statistics SNPs differ from the panel")
    require((ss["N"] == n).all(), "summary statistics N differs from the sample size")
    # compared as log10 p: rounding beta and SE to 10 digits moves log p by ~z^2 * 1e-10
    log_p = np.log10(np.maximum(2 * stats.norm.sf(np.abs(ss["BETA"] / ss["SE"])), 1e-320))
    close(np.log10(ss["P"]), log_p, 1e-6 * (1 + np.abs(log_p)), "p-value")


def principal_components(d: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of the Gram matrix of column-standardized dosages."""
    x = d.astype(float)
    sd = x.std(axis=0)
    x = (x[:, sd > 0] - x[:, sd > 0].mean(axis=0)) / sd[sd > 0]
    _, vecs = np.linalg.eigh(x @ x.T)
    return vecs[:, -k:]


def gwas_population(out: Path, sim: Path, n_pcs: int) -> None:
    """beta and HC1 SE for a fixed SNP sample match an independent fit of Y
    on [1, x_j, PCs], with the PCs from an eigh of the Gram matrix."""
    panel = read_panel(sim / "panel.tsv")
    ids, d = read_dosages(sim / "genotypes.tsv", panel["id"])
    pid, y = read_phenotype(sim / "phenotype.tsv")
    require(list(pid) == list(ids), "phenotype ids differ from genotype ids")
    ss = read_columns(out / "sumstats.tsv")
    pcs = principal_components(d, n_pcs)
    cols = [j for j in snp_sample(d.shape[1]) if d[:, j].std() > 0]
    fits = [hc1_fit(y, np.column_stack([np.ones(len(y)), d[:, j], pcs])) for j in cols]
    se = np.array([s[1] for _, s in fits])
    close(ss["BETA"][cols], [b[1] for b, _ in fits], 1e-6 * se, "population GWAS beta")
    close(ss["SE"][cols], se, 1e-6 * se, "population GWAS SE")
    sumstats_consistent(ss, panel, len(ids))
    man = read_columns(out / "manhattan.tsv")
    expected = -np.log10(np.maximum(ss["P"], 1e-320))
    close(man["NEGLOG10P"], expected, 1e-8 * (1 + expected), "Manhattan -log10 p")
    manifest(out)


def gwas_sibling(out: Path, sim: Path) -> None:
    """Within-family fit: Y and x_j demeaned per family, HC1 with the family
    effects counted in the degrees of freedom."""
    panel = read_panel(sim / "panel.tsv")
    ids, d = read_dosages(sim / "children.tsv", panel["id"])
    pid, y = read_phenotype(sim / "phenotype.tsv")
    ped = read_columns(sim / "pedigree.tsv")
    require(list(pid) == list(ids) == list(ped["child"]), "sibling ids disagree across files")
    ss = read_columns(out / "sumstats.tsv")
    _, fam = np.unique(ped["family"], return_inverse=True)
    size = np.bincount(fam)

    def demean(v):
        return v - (np.bincount(fam, weights=v) / size)[fam]

    yd = demean(y)
    cols = [j for j in snp_sample(d.shape[1]) if np.any(demean(d[:, j].astype(float)))]
    fits = [hc1_fit(yd, demean(d[:, j].astype(float))[:, None], df_k=len(size) + 1) for j in cols]
    se = np.array([s[0] for _, s in fits])
    close(ss["BETA"][cols], [b[0] for b, _ in fits], 1e-6 * se, "sibling GWAS beta")
    close(ss["SE"][cols], se, 1e-6 * se, "sibling GWAS SE")
    sumstats_consistent(ss, panel, len(ids))
    manifest(out)


def greedy_clump(p: np.ndarray, d: np.ndarray, block: np.ndarray, p_thresh: float, r2_thresh: float) -> list[int]:
    """Ascending p (ties by panel order); a SNP is dropped when its dosage
    r2 with an accepted lead of the same block reaches the threshold."""
    x = d - d.mean(axis=0)
    x = x / np.sqrt((x * x).sum(axis=0))
    leads: list[int] = []
    for j in sorted(np.nonzero(p < p_thresh)[0], key=lambda j: (p[j], j)):
        if all(block[a] != block[j] or (x[:, a] @ x[:, j]) ** 2 < r2_thresh for a in leads):
            leads.append(int(j))
    return sorted(leads)


def pgi(out: Path, sim: Path, gwas: Path, cfg: dict) -> None:
    """pgi.tsv equals an independent greedy clump plus a standardized
    weighted dosage sum."""
    panel = read_panel(sim / "panel.tsv")
    ids, d = read_dosages(sim / "genotypes.tsv", panel["id"])
    ss = read_columns(gwas / "sumstats.tsv")
    leads = greedy_clump(ss["P"], d.astype(float), panel["block"], cfg["p_thresh"], cfg["r2_thresh"])
    require(leads, "no lead SNPs: the index would be empty")
    w = np.zeros(d.shape[1])
    w[leads] = np.where(ss["EA"][leads] == "major", -1.0, 1.0) * ss["BETA"][leads]
    raw = d @ w
    expected = (raw - raw.mean()) / raw.std()
    got = read_columns(out / "pgi.tsv")
    require(list(got["iid"]) == list(ids), "PGI ids differ from genotype ids")
    close(got["pgi"], expected, 1e-7, "PGI value")
    manifest(out)


# ---------------------------------------------------------------------------
# power, permute, gxe and rdd
# ---------------------------------------------------------------------------

POWER_SE_BOUND = 5.0
MDE_SE_BOUND = 3.0


def analytic_power(beta_x, n: int, treated_share: float, alpha: float):
    """Two-sided power of the HC1 interaction test under the documented
    process Y = b_g G + b_e E + b_x G E + eps: the interaction estimate has
    SE 1/sqrt(n p (1-p))."""
    z = stats.norm.isf(alpha / 2)
    shift = np.asarray(beta_x, float) * math.sqrt(n * treated_share * (1 - treated_share))
    return stats.norm.cdf(shift - z) + stats.norm.cdf(-shift - z)


def analytic_effect(power: float, n: int, treated_share: float, alpha: float) -> float:
    z = stats.norm.isf(alpha / 2)
    return float((stats.norm.ppf(power) + z) / math.sqrt(n * treated_share * (1 - treated_share)))


def power(out: Path, cfg: dict) -> None:
    """Each grid point lies within POWER_SE_BOUND binomial SEs of the
    analytic power; the MDE lies in the band of `mde`'s stopping rule
    (acceptance criterion 2b's derivation with MDE_SE_BOUND SEs)."""
    n, reps, share, alpha = cfg["n"], cfg["reps"], cfg.get("treated_share", 0.5), cfg.get("alpha", 0.05)
    tab = read_columns(out / "power.tsv")
    close(tab["beta_x"], cfg["beta_x_grid"], 1e-12, "power grid")
    require((tab["n"] == n).all(), "power.tsv n differs from the config")
    a = analytic_power(tab["beta_x"], n, share, alpha)
    dev = np.abs(tab["power"] - a) / np.sqrt(a * (1 - a) / reps)
    require(dev.max() < POWER_SE_BOUND,
            f"power at beta_x={tab['beta_x'][dev.argmax()]} is {dev.max():.2f} SE from the analytic {a[dev.argmax()]:.4f}")
    half = 1.96 * np.sqrt(tab["power"] * (1 - tab["power"]) / reps)
    close(tab["ci_lo"], np.clip(tab["power"] - half, 0, 1), 1e-8, "power CI lower bound")
    close(tab["ci_hi"], np.clip(tab["power"] + half, 0, 1), 1e-8, "power CI upper bound")
    target, power_tol, width_tol = cfg["target_power"], 0.01, 0.005
    slack = power_tol + MDE_SE_BOUND * math.sqrt(target * (1 - target) / reps)
    lo = analytic_effect(target - slack, n, share, alpha) - width_tol / 2
    hi = analytic_effect(target + slack, n, share, alpha) + width_tol / 2
    value = read_json(out / "mde.json")["mde"]
    require(lo < value <= hi, f"MDE {value:.5f} outside the stopping-rule band ({lo:.5f}, {hi:.5f}]")
    manifest(out)


def gxe_design(data: dict, controls: list[str], interactions: bool) -> tuple[np.ndarray, list[str]]:
    """[1, G, E, GxE, controls, controls x G, controls x E], controls demeaned."""
    G, E = data["G"], data["E"]
    ctl = [data[c] - data[c].mean() for c in controls]
    cols = [np.ones_like(G), G, E, G * E] + ctl
    names = ["intercept", "G", "E", "GxE"] + [f"ctrl:{c}" for c in controls]
    if interactions:
        cols += [c * G for c in ctl] + [c * E for c in ctl]
        names += [f"ctrlxG:{c}" for c in controls] + [f"ctrlxE:{c}" for c in controls]
    return np.column_stack(cols), names


def permute(out: Path, data_path: Path, cfg: dict) -> None:
    data = read_columns(data_path)
    X, names = gxe_design(data, cfg["controls"], cfg["control_interactions"])
    beta, se = hc1_fit(data["Y"], X)
    i = names.index("GxE")
    res = read_json(out / "permutation.json")
    close([res["observed_coef"], res["observed_t"]], [beta[i], beta[i] / se[i]],
          1e-9 * (1 + np.abs([beta[i], beta[i] / se[i]])), "observed interaction coefficient and t")
    null = read_columns(out / "permutation_null.tsv")
    require(len(null["coef"]) == cfg["n_perm"], "permutation null has the wrong number of draws")
    require(res["coef_percentile"] == float((null["coef"] <= res["observed_coef"]).mean()), "coefficient percentile")
    require(res["t_percentile"] == float((null["t"] <= res["observed_t"]).mean()), "t percentile")
    for level in (90, 95):
        tail = (100 - level) / 200
        for key, col in (("envelopes_coef", "coef"), ("envelopes_t", "t")):
            expected = np.quantile(null[col], [tail, 1 - tail])
            close(res[key][str(level)], expected, 1e-8 * (1 + np.abs(expected)), f"{level}% {col} envelope")
    lo, hi = res["envelopes_t"]["95"]
    require(res["outside_95_t"] == (not lo <= res["observed_t"] <= hi), "outside_95_t flag")
    centred(null["t"])
    manifest(out)


def centred(t: np.ndarray) -> None:
    """Permuted (G, E) pairs carry no information on Y, so the null
    t-statistics average 0 (6 SE bound)."""
    require(abs(t.mean()) < 6 * t.std() / math.sqrt(len(t)), f"null t-statistics centred on {t.mean():.3f}, not 0")


def recovers(fit: dict, truth: dict[str, float], n_se: float, what: str) -> None:
    for term, value in truth.items():
        z = (fit["coefficients"][term] - value) / fit["se"][term]
        require(abs(z) < n_se, f"{what} {term} is {z:.1f} SE from its generating value {value}")


GXE_SE_BOUND = 6.0


def gxe(out: Path, truth: dict[str, float], n: int) -> None:
    fit = read_json(out / "gxe_fit.json")
    require(fit["n"] == n and fit["se_mode"] == "hc1", "gxe fit size or SE mode")
    recovers(fit, truth, GXE_SE_BOUND, "gxe")
    manifest(out)


def rdd(out: Path, truth: dict[str, float], n_clusters: int) -> None:
    fit = read_json(out / "rdd_fit.json")
    require(fit["se_mode"] == "cluster" and fit["n_clusters"] == n_clusters, "rdd SE mode or cluster count")
    recovers(fit, truth, GXE_SE_BOUND, "rdd")
    plot = read_columns(out / "slope_plot.tsv")
    require(set(plot["arm"]) == {0.0, 1.0} and np.isfinite(plot["mean_Y"]).all(), "slope plot arms or means")
    manifest(out)


# ---------------------------------------------------------------------------
# bias tables
# ---------------------------------------------------------------------------

EXPECTED_G = {"trio_pgi_family_controls": "unbiased",
              "regular_pgi_family_controls": "down",
              "regular_pgi_no_family": "up"}
# two-sided chance that a normal estimate lies 5 SE from its mean
UNBIASED_FALSE_ALARM = 2 * stats.norm.sf(5.0)


def verdict(bias: float, mc_se: float) -> str:
    """The documented rule: biased at 3 MC SE, unbiased only if precise."""
    if abs(bias) >= 3 * mc_se:
        return "up" if bias > 0 else "down"
    return "unbiased" if mc_se <= 0.02 else "ambiguous"


def bias_cells(out: Path, reps: int) -> dict:
    table = read_json(out / "bias_table.json")
    cells = table["cells"]
    require(len(cells) == 9, "bias table does not have nine cells")
    for key, cell in cells.items():
        require(cell["failed"] == 0 and cell["reps"] == reps, f"{key}: {cell['failed']} failed replicates")
        for term in ("G", "E", "GxE"):
            c = cell[term]
            require(all(math.isfinite(c[k]) for k in ("true", "mean", "bias", "mc_se")), f"{key} {term}: non-finite estimate")
            require(abs(c["bias"] - (c["mean"] - c["true"])) < 1e-12, f"{key} {term}: bias is not mean - true")
            require(c["verdict"] == verdict(c["bias"], c["mc_se"]), f"{key} {term}: verdict disagrees with the rule")
        row, col = key.split("|")
        require(table["sign_matrix"][row][col] == f"G:{cell['G']['verdict']} E:{cell['E']['verdict']}",
                f"{key}: sign matrix disagrees with the cell")
    return cells


def unbiased_bound(reps: int) -> float:
    """Bias in MC SEs that an unbiased coefficient exceeds with chance
    UNBIASED_FALSE_ALARM. The MC SE is estimated from the replicates, so
    bias / MC SE follows Student's t with reps - 1 degrees of freedom: 5.97
    at 40 replicates, 8.27 at 16."""
    return float(stats.t.isf(UNBIASED_FALSE_ALARM / 2, reps - 1))


def expect_unbiased(key: str, term: str, c: dict, reps: int, need_precision: bool) -> None:
    """An unbiased coefficient trips the 3-SE verdict rule in 0.27% of
    cells or more, so the check allows unbiased_bound(reps) MC SEs."""
    bound = unbiased_bound(reps)
    require(abs(c["bias"]) < bound * c["mc_se"],
            f"{key} {term}: bias {c['bias']:.4f} is {c['bias'] / c['mc_se']:.1f} MC SE (bound {bound:.2f})")
    require(not need_precision or c["mc_se"] <= 0.02, f"{key} {term}: MC SE {c['mc_se']:.4f} too wide to read as unbiased")


def bias_table_plim(out: Path, reps: int) -> None:
    """The sign matrix of acceptance criterion 7: G unbiased with trio
    weights, down with population weights and parental controls, up without
    family controls; E unbiased when exogenous and up otherwise."""
    for key, cell in bias_cells(out, reps).items():
        row, col = key.split("|")
        for term, expected in (("G", EXPECTED_G[row]), ("E", "unbiased" if col == "exogenous" else "up")):
            if expected == "unbiased":
                expect_unbiased(key, term, cell[term], reps, need_precision=True)
            else:
                require(cell[term]["verdict"] == expected, f"{key} {term}: verdict {cell[term]['verdict']}, expected {expected}")
    manifest(out)


def bias_table_finite(out: Path, reps: int) -> None:
    """Finite discovery: every estimate finite, no failed replicate, and the
    exogenous environment's coefficient unbiased."""
    for key, cell in bias_cells(out, reps).items():
        if key.endswith("|exogenous"):
            expect_unbiased(key, "E", cell["E"], reps, need_precision=False)
    manifest(out)
