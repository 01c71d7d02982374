"""The benchmark's checks accept the program's outputs and reject perturbed ones.

One pass of each workload runs at the benchmark's sizes (about 40 s in all).
Each test then perturbs one output, such as one beta scaled by 1.001, a PGI
sign flip or a power shifted by 6 SE, and asserts that the check aimed at it
raises CheckFailed with its own message. Every check in checks.py that
compares an output with an independent value or a property has such a test.
Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from gxelab import cli  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def runs():
    """workload -> (inputs dir, pass dir, {op name: Op}) after one pass."""
    root = HERE / ".work" / f"test-{os.getpid()}"
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs, pass_dir = root / name / "inputs", root / name / "pass"
        wl.setup(inputs, SEED)
        ops = wl.ops(inputs, pass_dir, 1000 * SEED, 1)
        for op in ops:
            assert cli.main(op.argv) == 0, op.name
        out[name] = (inputs, pass_dir, {op.name: op for op in ops})
    yield out
    shutil.rmtree(root, ignore_errors=True)


@contextmanager
def edited(path: Path, edit):
    """Replace a file's text with edit(text) for the duration of the block."""
    original = path.read_text()
    path.write_text(edit(original))
    try:
        yield
    finally:
        path.write_text(original)


@contextmanager
def edited_json(path: Path, edit):
    def apply(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    with edited(path, apply):
        yield


@contextmanager
def edited_column(path: Path, column: str, edit):
    """Apply edit(values) to one numeric column of a TSV."""
    def apply(text):
        lines = text.rstrip("\n").split("\n")
        j = lines[0].split("\t").index(column)
        rows = [ln.split("\t") for ln in lines[1:]]
        values = edit(np.array([float(r[j]) for r in rows]))
        for r, v in zip(rows, values):
            r[j] = repr(float(v))
        return "\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n"
    with edited(path, apply):
        yield


@contextmanager
def edited_dosages(path: Path, edit):
    """Apply edit(dosage matrix) to a genotype TSV."""
    def apply(text):
        lines = text.rstrip("\n").split("\n")
        rows = [ln.split("\t") for ln in lines[1:]]
        d = edit(np.array([r[1:] for r in rows], dtype=int))
        return "\n".join([lines[0]] + [r[0] + "\t" + "\t".join(map(str, x)) for r, x in zip(rows, d)]) + "\n"
    with edited(path, apply):
        yield


def rejects(op, message: str):
    with pytest.raises(checks.CheckFailed, match=message):
        op.check()


def test_every_check_accepts_the_program_outputs(runs):
    for _, _, ops in runs.values():
        for op in ops.values():
            op.check()


# -- genomics_pipeline --------------------------------------------------------

def genomics(runs):
    _, pass_dir, ops = runs["genomics_pipeline"]
    return pass_dir, ops


def test_founders_reject_dosage_out_of_range(runs):
    pass_dir, ops = genomics(runs)

    def three(d):
        d[0, 0] = 3
        return d
    with edited_dosages(pass_dir / "sim" / "genotypes.tsv", three):
        rejects(ops["simulate_founders"], "dosages outside")


def test_founders_reject_allele_frequency_off_maf(runs):
    pass_dir, ops = genomics(runs)

    def fixed(d):
        d[:, 5] = 2
        return d
    with edited_dosages(pass_dir / "sim" / "genotypes.tsv", fixed):
        rejects(ops["simulate_founders"], "allele frequency")


def test_founders_reject_missing_block_ld(runs):
    pass_dir, ops = genomics(runs)
    rng = np.random.default_rng(0)
    with edited_dosages(pass_dir / "sim" / "genotypes.tsv", lambda d: rng.permuted(d, axis=0)):
        rejects(ops["simulate_founders"], "within-block adjacent correlation")


def test_block_ld_rejects_correlation_across_blocks():
    rng = np.random.default_rng(0)
    block = np.repeat(np.arange(50), 4)
    d = rng.integers(0, 3, (500, 200))
    for b in range(1, 50):
        d[:, 4 * b - 1] = d[:, 4 * b - 2]  # within-block neighbours agree
        d[:, 4 * b] = d[:, 4 * b - 1]      # and so do neighbours across the boundary
    with pytest.raises(checks.CheckFailed, match="across-block adjacent correlation"):
        checks.block_ld(d, block)


def test_founders_reject_unstandardized_phenotype(runs):
    pass_dir, ops = genomics(runs)
    with edited_column(pass_dir / "sim" / "phenotype.tsv", "Y", lambda y: y + 0.01):
        rejects(ops["simulate_founders"], "founder phenotype")


def largest_sampled(ss_path: Path) -> int:
    ss = checks.read_columns(ss_path)
    cols = checks.snp_sample(len(ss["SNP"]))
    return int(cols[np.argmax(np.abs(ss["BETA"][cols] / ss["SE"][cols]))])


def scale_one(j: int, factor: float):
    def edit(v):
        v[j] *= factor
        return v
    return edit


@pytest.mark.parametrize("column, message", [("BETA", "population GWAS beta"), ("SE", "population GWAS SE")])
def test_population_gwas_rejects_scaled_estimate(runs, column, message):
    pass_dir, ops = genomics(runs)
    path = pass_dir / "gwas" / "sumstats.tsv"
    with edited_column(path, column, scale_one(largest_sampled(path), 1.001)):
        rejects(ops["gwas_population"], message)


def test_population_gwas_rejects_inconsistent_p(runs):
    pass_dir, ops = genomics(runs)
    with edited_column(pass_dir / "gwas" / "sumstats.tsv", "P", scale_one(3, 1.01)):
        rejects(ops["gwas_population"], "p-value")


def test_population_gwas_rejects_manhattan_mismatch(runs):
    pass_dir, ops = genomics(runs)
    with edited_column(pass_dir / "gwas" / "manhattan.tsv", "NEGLOG10P", scale_one(3, 1.001)):
        rejects(ops["gwas_population"], "Manhattan")


def test_pgi_rejects_sign_flip(runs):
    pass_dir, ops = genomics(runs)
    with edited_column(pass_dir / "pgi" / "pgi.tsv", "pgi", lambda v: -v):
        rejects(ops["pgi"], "PGI value")


def test_siblings_reject_parent_allele_frequency_off_maf(runs):
    pass_dir, ops = genomics(runs)

    def fixed(d):
        d[:, 5] = 2
        return d
    with edited_dosages(pass_dir / "sib" / "parents.tsv", fixed):
        rejects(ops["simulate_siblings"], "allele frequency")


def test_siblings_reject_parents_without_block_ld(runs):
    pass_dir, ops = genomics(runs)
    rng = np.random.default_rng(0)
    with edited_dosages(pass_dir / "sib" / "parents.tsv", lambda d: rng.permuted(d, axis=0)):
        rejects(ops["simulate_siblings"], "within-block adjacent correlation")


def test_siblings_reject_non_mendelian_child(runs):
    pass_dir, ops = genomics(runs)
    sib = pass_dir / "sib"
    ped = checks.read_columns(sib / "pedigree.tsv")
    pids, parents = checks.read_dosages(sib / "parents.tsv", checks.read_panel(sib / "panel.tsv")["id"])
    row = {iid: i for i, iid in enumerate(pids)}
    m, f = parents[row[ped["mother"][0]]], parents[row[ped["father"][0]]]
    j = int(np.nonzero((m == 0) & (f == 0))[0][0])

    def impossible(d):
        d[0, j] = 2
        return d
    with edited_dosages(sib / "children.tsv", impossible):
        rejects(ops["simulate_siblings"], "impossible given the parents")


@pytest.mark.parametrize("column, message", [("BETA", "sibling GWAS beta"), ("SE", "sibling GWAS SE")])
def test_sibling_gwas_rejects_scaled_estimate(runs, column, message):
    pass_dir, ops = genomics(runs)
    path = pass_dir / "gwas_sib" / "sumstats.tsv"
    with edited_column(path, column, scale_one(largest_sampled(path), 1.001)):
        rejects(ops["gwas_sibling"], message)


def test_manifest_rejects_changed_file(runs):
    pass_dir, ops = genomics(runs)
    with edited(pass_dir / "pgi" / "pgi.tsv", lambda t: t + "\n"):
        rejects(ops["pgi"], "manifest sha256")


# -- inference_and_bias: power and permutation --------------------------------

def power_runs(runs):
    inputs, pass_dir, ops = runs["inference_and_bias"]
    return pass_dir, ops


def test_power_rejects_point_shifted_by_6_se(runs):
    pass_dir, ops = power_runs(runs)
    cfg = workloads.POWER
    beta = np.array(cfg["beta_x_grid"])
    a = checks.analytic_power(beta, cfg["n"], 0.5, 0.05)
    se = np.sqrt(a * (1 - a) / cfg["reps"])

    def shift(p):
        return p + 6 * se * np.where(p >= a, 1, -1)
    with edited_column(pass_dir / "power" / "power.tsv", "power", shift):
        rejects(ops["power"], "SE from the analytic")


def test_power_rejects_doubled_false_positive_rate(runs):
    pass_dir, ops = power_runs(runs)
    assert workloads.POWER["beta_x_grid"][0] == 0.0

    def doubled(p):
        p[0] = 2 * 0.05
        return p
    with edited_column(pass_dir / "power" / "power.tsv", "power", doubled):
        rejects(ops["power"], "SE from the analytic 0.0500")


@pytest.mark.parametrize("column, message", [("ci_lo", "power CI lower bound"), ("ci_hi", "power CI upper bound")])
def test_power_rejects_wrong_confidence_interval(runs, column, message):
    pass_dir, ops = power_runs(runs)
    with edited_column(pass_dir / "power" / "power.tsv", column, lambda v: v + 0.001):
        rejects(ops["power"], message)


def test_power_rejects_mde_outside_band(runs):
    pass_dir, ops = power_runs(runs)

    def outside(obj):
        obj["mde"] += 0.02
    with edited_json(pass_dir / "power" / "mde.json", outside):
        rejects(ops["power"], "stopping-rule band")


def test_permute_rejects_scaled_observed_coefficient(runs):
    pass_dir, ops = power_runs(runs)

    def scaled(obj):
        obj["observed_coef"] *= 1.001
    with edited_json(pass_dir / "permute" / "permutation.json", scaled):
        rejects(ops["permute"], "observed interaction")


def test_permute_rejects_wrong_envelope(runs):
    pass_dir, ops = power_runs(runs)

    def moved(obj):
        obj["envelopes_t"]["95"][1] += 0.01
    with edited_json(pass_dir / "permute" / "permutation.json", moved):
        rejects(ops["permute"], "95% t envelope")


@pytest.mark.parametrize("key, message", [("coef_percentile", "coefficient percentile"), ("t_percentile", "t percentile")])
def test_permute_rejects_wrong_percentile(runs, key, message):
    pass_dir, ops = power_runs(runs)

    def moved(obj):
        obj[key] = min(obj[key] + 0.001, 1.0) if obj[key] < 1.0 else 0.999
    with edited_json(pass_dir / "permute" / "permutation.json", moved):
        rejects(ops["permute"], message)


def test_permute_rejects_flipped_outside_flag(runs):
    pass_dir, ops = power_runs(runs)

    def flipped(obj):
        obj["outside_95_t"] = not obj["outside_95_t"]
    with edited_json(pass_dir / "permute" / "permutation.json", flipped):
        rejects(ops["permute"], "outside_95_t flag")


def test_permute_rejects_missing_null_draw(runs):
    pass_dir, ops = power_runs(runs)
    with edited(pass_dir / "permute" / "permutation_null.tsv", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"):
        rejects(ops["permute"], "wrong number of draws")


def test_centred_rejects_shifted_null():
    t = np.random.default_rng(0).standard_normal(1000)
    checks.centred(t)
    with pytest.raises(checks.CheckFailed, match="centred"):
        checks.centred(t + 0.3)


@pytest.mark.parametrize("op, file, term", [("gxe", "gxe_fit.json", "GxE"), ("rdd", "rdd_fit.json", "GxE")])
def test_fits_reject_coefficient_off_truth(runs, op, file, term):
    pass_dir, ops = power_runs(runs)

    def off(obj):
        obj["coefficients"][term] += 10 * obj["se"][term]
    with edited_json(pass_dir / op / file, off):
        rejects(ops[op], f"{op} {term} is")


def test_rdd_rejects_wrong_cluster_count(runs):
    pass_dir, ops = power_runs(runs)

    def fewer(obj):
        obj["n_clusters"] -= 1
    with edited_json(pass_dir / "rdd" / "rdd_fit.json", fewer):
        rejects(ops["rdd"], "cluster count")


def test_rdd_rejects_non_finite_slope_plot(runs):
    pass_dir, ops = power_runs(runs)
    with edited_column(pass_dir / "rdd" / "slope_plot.tsv", "mean_Y", scale_one(0, float("nan"))):
        rejects(ops["rdd"], "slope plot")


# -- inference_and_bias: bias tables ---------------------------------------------

def set_bias(table: dict, key: str, term: str, bias: float) -> None:
    """Move one coefficient, keeping its verdict and the sign matrix consistent."""
    cell = table["cells"][key]
    c = cell[term]
    c["mean"] = c["true"] + bias
    c["bias"] = c["mean"] - c["true"]
    c["verdict"] = checks.verdict(c["bias"], c["mc_se"])
    row, col = key.split("|")
    table["sign_matrix"][row][col] = f"G:{cell['G']['verdict']} E:{cell['E']['verdict']}"


def bias_json(runs, mode: str) -> tuple[Path, object]:
    _, pass_dir, ops = runs["inference_and_bias"]
    return pass_dir / mode / "bias_table.json", ops["bias_table" if mode == "plim" else "bias_table_finite"]


def test_plim_rejects_lost_overcontrol_bias(runs):
    path, op = bias_json(runs, "plim")
    with edited_json(path, lambda t: set_bias(t, "regular_pgi_family_controls|exogenous", "G", 0.0)):
        rejects(op, "expected down")


def test_plim_rejects_biased_exogenous_environment(runs):
    path, op = bias_json(runs, "plim")

    def biased(t):
        key = "trio_pgi_family_controls|exogenous"
        set_bias(t, key, "E", 10 * t["cells"][key]["E"]["mc_se"])
    with edited_json(path, biased):
        rejects(op, "MC SE")


def test_plim_rejects_inconsistent_verdict(runs):
    path, op = bias_json(runs, "plim")

    def flipped(t):
        t["cells"]["regular_pgi_no_family|exogenous"]["G"]["verdict"] = "down"
    with edited_json(path, flipped):
        rejects(op, "verdict disagrees")


def test_plim_rejects_bias_that_is_not_mean_minus_true(runs):
    path, op = bias_json(runs, "plim")

    def shifted(t):
        t["cells"]["regular_pgi_no_family|predetermined"]["GxE"]["bias"] += 1e-6
    with edited_json(path, shifted):
        rejects(op, "bias is not mean - true")


def test_plim_rejects_sign_matrix_disagreeing_with_cell(runs):
    path, op = bias_json(runs, "plim")

    def flipped(t):
        row = t["sign_matrix"]["regular_pgi_no_family"]
        row["predetermined"] = row["predetermined"].replace("G:up", "G:down")
    with edited_json(path, flipped):
        rejects(op, "sign matrix disagrees")


def test_bias_tables_reject_failed_replicates(runs):
    for mode in ("plim", "finite"):
        path, op = bias_json(runs, mode)

        def failed(t):
            t["cells"]["regular_pgi_no_family|predetermined"]["failed"] = 1
        with edited_json(path, failed):
            rejects(op, "failed replicates")


def test_finite_rejects_non_finite_estimate(runs):
    path, op = bias_json(runs, "finite")

    def nan(t):
        t["cells"]["regular_pgi_no_family|predetermined"]["GxE"]["mean"] = float("nan")
    with edited_json(path, nan):
        rejects(op, "non-finite")


def test_finite_rejects_biased_exogenous_environment(runs):
    path, op = bias_json(runs, "finite")

    def biased(t):
        key = "regular_pgi_no_family|exogenous"
        set_bias(t, key, "E", 10 * t["cells"][key]["E"]["mc_se"])
    with edited_json(path, biased):
        rejects(op, "MC SE")
