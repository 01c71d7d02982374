"""The two workloads: their configs and inputs, and one pass of operations.

An operation is one `gxelab` command plus the check of its outputs. A pass
runs every operation of its workload once, in order, with its own seed; its
configs are written before the pass starts, so the timed region holds only
the commands. See README.md for why each workload and size was chosen.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


# Every op of every workload; run.py reports a per-op median for each.
OP_NAMES = ("simulate_founders", "gwas_population", "pgi", "simulate_siblings", "gwas_sibling",
            "power", "permute", "gxe", "rdd", "bias_table", "bias_table_finite")


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[], None]

    def __post_init__(self):
        if self.name not in OP_NAMES:
            raise ValueError(f"op {self.name!r} is missing from OP_NAMES")


def write_json(path: Path, obj: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def write_data(path: Path, columns: dict[str, np.ndarray]) -> Path:
    rows = zip(*(map(repr, map(float, v)) for v in columns.values()))
    path.write_text("\t".join(columns) + "\n" + "".join("\t".join(r) + "\n" for r in rows))
    return path


def command(name: str, cfg_path: Path, out: Path, seed: int | None, threads: int) -> list[str]:
    argv = [name, "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
    return argv + (["--seed", str(seed)] if seed is not None else [])


# ---------------------------------------------------------------------------
# genomics_pipeline: simulate -> gwas (PCs) -> pgi (clump); sibling simulate -> gwas
# ---------------------------------------------------------------------------

FOUNDERS = {"n": 1000, "n_snps": 2000, "block_size": 10, "rho": 0.8, "h2": 0.6, "n_causal": 10}
SIBLINGS = {"n": 500, "design": "sibling-pairs", "n_snps": 2000, "block_size": 10, "rho": 0.8,
            "h2": 0.6, "n_causal": 10, "delta": 0.3, "eta_m": 0.2, "eta_f": 0.2, "w": 0.2, "gamma": 0.2}
N_PCS = 10
PGI = {"selection": "clump", "p_thresh": 5e-8, "r2_thresh": 0.1}


def genomics_setup(inputs: Path, seed: int) -> None:
    write_json(inputs / "simulate_founders.json", FOUNDERS)
    write_json(inputs / "simulate_siblings.json", SIBLINGS)


def genomics_ops(inputs: Path, out: Path, seed: int, threads: int) -> list[Op]:
    sim, gw, pg, sib, gws = (out / d for d in ("sim", "gwas", "pgi", "sib", "gwas_sib"))
    gwas_cfg = write_json(out / "gwas.json", {
        "genotypes": str(sim / "genotypes.tsv"), "panel": str(sim / "panel.tsv"),
        "phenotype": str(sim / "phenotype.tsv"), "n_pcs": N_PCS})
    pgi_cfg = write_json(out / "pgi.json", {
        "sumstats": str(gw / "sumstats.tsv"), "genotypes": str(sim / "genotypes.tsv"),
        "panel": str(sim / "panel.tsv"), **PGI})
    sib_cfg = write_json(out / "gwas_sib.json", {
        "genotypes": str(sib / "children.tsv"), "panel": str(sib / "panel.tsv"),
        "phenotype": str(sib / "phenotype.tsv"), "design": "sibling", "pedigree": str(sib / "pedigree.tsv")})
    return [
        Op("simulate_founders", command("simulate", inputs / "simulate_founders.json", sim, seed, threads),
           functools.partial(checks.founders, sim, FOUNDERS)),
        Op("gwas_population", command("gwas", gwas_cfg, gw, None, threads),
           functools.partial(checks.gwas_population, gw, sim, N_PCS)),
        Op("pgi", command("pgi", pgi_cfg, pg, None, threads),
           functools.partial(checks.pgi, pg, sim, gw, PGI)),
        Op("simulate_siblings", command("simulate", inputs / "simulate_siblings.json", sib, seed + 1, threads),
           functools.partial(checks.siblings, sib, SIBLINGS)),
        Op("gwas_sibling", command("gwas", sib_cfg, gws, None, threads),
           functools.partial(checks.gwas_sibling, gws, sib)),
    ]


# ---------------------------------------------------------------------------
# Inference ops: power + MDE, permutation test, gxe (HC1), rdd (CR1)
# ---------------------------------------------------------------------------

# n puts the analytic MDE, (z_.975 + z_.8) / sqrt(n/4) = 0.1680, on the
# bisection point 43/256: only the last two midpoints before it lie close
# enough to the target to stop the search early. 1000 replicates let the
# power check tell a false-positive rate of 0.10 from the nominal 0.05.
POWER = {"beta_e": 0.9, "n": 1113, "reps": 1000, "beta_x_grid": [0.0, 0.1], "mde": True, "target_power": 0.8}
GXE_N = 2000
GXE_TRUTH = {"G": 0.25, "E": 0.5, "GxE": 0.15, "ctrl:c1": 0.3, "ctrl:c2": -0.2,
             "ctrlxG:c1": 0.0, "ctrlxG:c2": 0.0, "ctrlxE:c1": 0.0, "ctrlxE:c2": 0.0}
GXE = {"controls": ["c1", "c2"], "control_interactions": True}
PERMUTE = {"n_perm": 1000, "controls": ["c1", "c2"], "control_interactions": True}
RDD_BANDWIDTH = 24
RDD_N = 4800
RDD_TRUTH = {"G": 0.3, "E": 0.4, "MoB": 0.02, "MoBxE": -0.01, "GxE": 0.2, "MoBxG": 0.0, "MoBxGxE": 0.0}


def gxe_data(rng: np.random.Generator) -> dict[str, np.ndarray]:
    G = rng.standard_normal(GXE_N)
    E = (rng.random(GXE_N) < 0.5).astype(float)
    c1 = 0.3 * G + np.sqrt(0.91) * rng.standard_normal(GXE_N)
    c2 = rng.standard_normal(GXE_N)
    t = GXE_TRUTH
    Y = 0.2 + t["G"] * G + t["E"] * E + t["GxE"] * G * E + t["ctrl:c1"] * c1 + t["ctrl:c2"] * c2 + rng.standard_normal(GXE_N)
    return {"Y": Y, "G": G, "E": E, "c1": c1, "c2": c2}


def rdd_data(rng: np.random.Generator) -> dict[str, np.ndarray]:
    mob = rng.integers(-RDD_BANDWIDTH, RDD_BANDWIDTH, RDD_N).astype(float)
    E = (mob >= 0).astype(float)
    G = rng.standard_normal(RDD_N)
    t = RDD_TRUTH
    Y = (0.1 + t["G"] * G + t["E"] * E + t["GxE"] * G * E + t["MoB"] * mob + t["MoBxE"] * mob * E
         + rng.standard_normal(RDD_N))
    return {"Y": Y, "G": G, "E": E, "MoB": mob}


def power_setup(inputs: Path, seed: int) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    gxe_path = write_data(inputs / "gxe_data.tsv", gxe_data(rng))
    rdd_path = write_data(inputs / "rdd_data.tsv", rdd_data(rng))
    write_json(inputs / "power.json", POWER)
    write_json(inputs / "permute.json", {"data": str(gxe_path), **PERMUTE})
    write_json(inputs / "gxe.json", {"data": str(gxe_path), **GXE})
    write_json(inputs / "rdd.json", {"data": str(rdd_path), "bandwidth": RDD_BANDWIDTH, "model": "with_interaction"})


def power_ops(inputs: Path, out: Path, seed: int, threads: int) -> list[Op]:
    pw, pm, gx, rd = (out / d for d in ("power", "permute", "gxe", "rdd"))
    return [
        Op("power", command("power", inputs / "power.json", pw, seed, threads),
           functools.partial(checks.power, pw, POWER)),
        Op("permute", command("permute", inputs / "permute.json", pm, seed + 1, threads),
           functools.partial(checks.permute, pm, inputs / "gxe_data.tsv", PERMUTE)),
        Op("gxe", command("gxe", inputs / "gxe.json", gx, None, threads),
           functools.partial(checks.gxe, gx, GXE_TRUTH, GXE_N)),
        Op("rdd", command("rdd", inputs / "rdd.json", rd, None, threads),
           functools.partial(checks.rdd, rd, RDD_TRUTH, 2 * RDD_BANDWIDTH)),
    ]


# ---------------------------------------------------------------------------
# Bias-table ops: the nine-cell table with plim discovery, then finite discovery
# ---------------------------------------------------------------------------

# Nurture loadings and weight misalignment are raised above the CLI defaults
# so that the smallest bias criterion 7 asserts (G "down" with population
# weights and parental controls) stands at about 8 MC SE at 40 replicates.
BIAS_SPEC = {"eta_m": 0.5, "eta_f": 0.5, "nurture_alignment": 0.3, "n_analysis": 1000, "n_snps": 120}
BIAS_PLIM = {**BIAS_SPEC, "reps": 40, "discovery": "plim"}
BIAS_FINITE = {**BIAS_SPEC, "reps": 16, "discovery": "finite"}


def bias_setup(inputs: Path, seed: int) -> None:
    write_json(inputs / "bias_plim.json", BIAS_PLIM)
    write_json(inputs / "bias_finite.json", BIAS_FINITE)


def bias_ops(inputs: Path, out: Path, seed: int, threads: int) -> list[Op]:
    pl, fi = out / "plim", out / "finite"
    return [
        Op("bias_table", command("bias-table", inputs / "bias_plim.json", pl, seed, threads),
           functools.partial(checks.bias_table_plim, pl, BIAS_PLIM["reps"])),
        Op("bias_table_finite", command("bias-table", inputs / "bias_finite.json", fi, seed + 1, threads),
           functools.partial(checks.bias_table_finite, fi, BIAS_FINITE["reps"])),
    ]


# ---------------------------------------------------------------------------
# inference_and_bias: the two in-memory Monte Carlo groups above in one pass
# ---------------------------------------------------------------------------

def inference_and_bias_setup(inputs: Path, seed: int) -> None:
    power_setup(inputs, seed)
    bias_setup(inputs, seed)


def inference_and_bias_ops(inputs: Path, out: Path, seed: int, threads: int) -> list[Op]:
    return power_ops(inputs, out, seed, threads) + bias_ops(inputs, out, seed + 2, threads)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int], None]
    ops: Callable[[Path, Path, int, int], list[Op]]


WORKLOADS = {
    "genomics_pipeline": Workload(genomics_setup, genomics_ops),
    "inference_and_bias": Workload(inference_and_bias_setup, inference_and_bias_ops),
}
