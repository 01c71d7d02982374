"""Config-driven command line front door.

Every subcommand reads a JSON config (validated against a closed schema;
unknown keys are rejected with their path), optionally overridden by the
global flags --seed/--threads/--out, writes its artifacts atomically into
the output directory, and finishes with a manifest.json recording the
effective config, its hash, package versions and a sha256 per artifact.
Reruns of the same config produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 estimation error, 4 simulation error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import types

import numpy as np
import scipy

from . import __version__, biaslab, genome, gwas as gwas_mod, gxe as gxe_mod, inference, pgi as pgi_mod, phenosim
from .structural import ModelDomainError, ModelError, SolverError
from .util import (CalibrationError, ConfigError, DataError, EstimationError, PedigreeError,
                   SimulationError, atomic_write_text, fmt_float, parse_column, read_tsv, write_json, write_tsv)

EXIT_CONFIG, EXIT_ESTIMATION, EXIT_SIMULATION = 2, 3, 4

REQUIRED = object()

SCHEMAS: dict[str, dict[str, tuple]] = {
    "simulate": {
        "n": (int, REQUIRED), "design": (str, "founders"),
        "n_snps": (int, 200), "block_size": (int, 1), "rho": (float, 0.0),
        "maf_lo": (float, 0.1), "maf_hi": (float, 0.5),
        "h2": (float, None), "n_causal": (int, None),
        "delta": (float, 0.3), "eta_m": (float, 0.0), "eta_f": (float, 0.0),
        "w": (float, 0.0), "gamma": (float, 0.0),
    },
    "gwas": {
        "genotypes": (str, REQUIRED), "panel": (str, REQUIRED), "phenotype": (str, REQUIRED),
        "design": (str, "population"), "n_pcs": (int, 0),
        "mothers": (str, None), "fathers": (str, None), "pedigree": (str, None),
        "sibling_variant": (str, "family_fixed_effects"),
    },
    "pgi": {
        "sumstats": (str, REQUIRED), "genotypes": (str, REQUIRED), "panel": (str, REQUIRED),
        "selection": (str, "all_snps"), "p_thresh": (float, 5e-8), "r2_thresh": (float, 0.1),
    },
    "gxe": {
        "data": (str, REQUIRED), "terms": (list[str], ["G", "E", "GxE"]),
        "controls": (list[str], []), "control_interactions": (bool, False),
        "se": (str, "hc1"), "cluster_on": (str, None),
    },
    "rdd": {
        "data": (str, REQUIRED), "bandwidth": (int, 3), "model": (str, "with_interaction"),
        "covariates": (list[str], []), "pcs": (list[str], []), "slope_bins": (int, 10),
    },
    "power": {
        "beta_g": (float, 0.259), "beta_e": (float, REQUIRED), "n": (int, REQUIRED),
        "beta_x_grid": (list[float], REQUIRED), "treated_share": (float, 0.5),
        "alpha": (float, 0.05), "reps": (int, 1000),
        "mde": (bool, False), "target_power": (float, 0.8),
    },
    "permute": {
        "data": (str, REQUIRED), "n_perm": (int, 1000), "joint": (bool, True),
        "terms": (list[str], ["G", "E", "GxE"]), "controls": (list[str], []),
        "control_interactions": (bool, False),
    },
    "bias-table": {
        "beta_g": (float, 0.259), "beta_e": (float, 0.6), "beta_x": (float, 0.15),
        "eta_m": (float, 0.2), "eta_f": (float, 0.2), "w": (float, 0.0),
        "nurture_alignment": (float, 0.6), "corr_e_estar": (float, 0.5),
        "beta_estar": (float, 0.3), "a_parent": (float, 0.3),
        "reps": (int, 200), "n_analysis": (int, 2000), "n_snps": (int, 120),
        "discovery": (str, "plim"),
    },
}

SEED_REQUIRED = {"simulate", "power", "permute", "bias-table"}


def _check_type(name: str, value, typ):
    """value as a typ, an int being a valid float; floats must be finite and
    the items of a list[T] must be T."""
    item = typ.__args__[0] if isinstance(typ, types.GenericAlias) else None
    if typ is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
    if typ is int and isinstance(value, int) and not -2**63 <= value < 2**63:
        raise ConfigError(f"{name} is outside the 64-bit integer range")
    if not isinstance(value, list if item else typ):
        raise ConfigError(f"{name} must be {typ.__name__}, got {type(value).__name__}")
    if typ is float and not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    for v in value if item else ():
        _check_type(f"{name} item", v, item)
    return value


def validate_config(command: str, payload: dict) -> dict:
    schema = SCHEMAS[command]
    unknown = set(payload) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: {sorted(f'{command}.{k}' for k in unknown)}")
    effective = {}
    for key, (typ, default) in schema.items():
        if key in payload:
            value = payload[key]
            if value is not None or default is not None:  # null only where the default is null
                value = _check_type(f"config key {command}.{key}", value, typ)
            effective[key] = value
        elif default is REQUIRED:
            raise ConfigError(f"config key {command}.{key} is required")
        else:
            effective[key] = default
    return effective


def _read_columns(path: str) -> dict[str, np.ndarray]:
    header, rows = read_tsv(path)
    out: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        col = [r[j] for r in rows]
        out[name] = np.array(col) if name in ("iid", "family") else parse_column(path, name, col)
    return out


@contextlib.contextmanager
def _data_table(path: str):
    """The columns of the table at `path`, naming the path in a DataError raised on them."""
    try:
        yield _read_columns(path)
    except DataError as e:
        raise ConfigError(f"{path}: {e}") from None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, config: dict, seed, threads: int, files: list[str]) -> None:
    canonical = json.dumps({"command": command, "config": config, "seed": seed}, sort_keys=True)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "threads": threads,
        "versions": {
            "gxelab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(files)},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns the list of files written
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, seed: int, threads: int, out: str) -> list[str]:
    for key in ("n_snps", "block_size"):
        if cfg[key] < 1:
            raise ConfigError(f"config key simulate.{key} must be >= 1, got {cfg[key]}")
    panel = genome.random_panel(cfg["n_snps"], cfg["block_size"], seed, (cfg["maf_lo"], cfg["maf_hi"]))
    design = cfg["design"]
    if design not in ("founders", "trios", "sibling-pairs"):
        raise ConfigError(f"unknown design {design!r}")
    # drawn before the first file is written, so a bad rho or n leaves the output directory empty
    n_founders = cfg["n"] if design == "founders" else 2 * cfg["n"]
    founders = genome.simulate_founders(panel, cfg["rho"], n_founders, seed, threads)
    files = [os.path.join(out, "panel.tsv")]
    genome.write_panel_tsv(files[0], panel)

    if design == "founders":
        path = os.path.join(out, "genotypes.tsv")
        genome.write_genotypes_tsv(path, founders)
        files.append(path)
        if cfg["h2"] is not None:
            arch = phenosim.TraitArchitecture.random(panel, cfg["n_causal"] or cfg["n_snps"], cfg["h2"], seed)
            y = phenosim.simulate_trait(founders, arch, seed)
            p = os.path.join(out, "phenotype.tsv")
            write_tsv(p, ["iid", "Y"], zip(founders.ids, map(float, y)))
            files.append(p)
    else:
        n_fam = cfg["n"]
        mothers, fathers = founders.ids[:n_fam], founders.ids[n_fam:]
        kids = [""] if design == "trios" else ["_0", "_1"]  # child id suffixes within a family
        fam = [i for i in range(n_fam) for _ in kids]
        ped = genome.Pedigree([f"c{i}{k}" for i in range(n_fam) for k in kids], [mothers[i] for i in fam],
                              [fathers[i] for i in fam], [f"fam{i}" for i in fam], design=design)
        children = genome.transmit(founders, ped, seed)
        for name, g in (("children.tsv", children), ("parents.tsv", founders)):
            path = os.path.join(out, name)
            genome.write_genotypes_tsv(path, g)
            files.append(path)
        ped_path = os.path.join(out, "pedigree.tsv")
        genome.write_pedigree_tsv(ped_path, ped)
        files.append(ped_path)
        if cfg["h2"] is not None:
            arch = phenosim.TraitArchitecture.random(panel, cfg["n_causal"] or cfg["n_snps"], cfg["h2"], seed)
            nurture = phenosim.NurtureParams(cfg["delta"], cfg["eta_m"], cfg["eta_f"], cfg["w"], cfg["gamma"])
            y = phenosim.simulate_family_outcome(children, founders, ped, arch, nurture, seed)
            p = os.path.join(out, "phenotype.tsv")
            write_tsv(p, ["iid", "Y"], zip(children.ids, map(float, y)))
            files.append(p)
    return files


def _load_phenotype(path: str, ids: list[str]) -> np.ndarray:
    cols = _read_columns(path)
    if "iid" not in cols or "Y" not in cols:
        raise ConfigError(f"{path}: phenotype file needs iid and Y columns")
    index = {iid: i for i, iid in enumerate(cols["iid"])}
    try:
        return np.array([float(cols["Y"][index[i]]) for i in ids])
    except KeyError as e:
        raise ConfigError(f"{path}: phenotype file is missing individual {e.args[0]!r}") from None


def _cmd_gwas(cfg: dict, seed, threads: int, out: str) -> list[str]:
    panel = genome.read_panel_tsv(cfg["panel"])
    g = genome.read_genotypes_tsv(cfg["genotypes"], panel)
    y = _load_phenotype(cfg["phenotype"], g.ids)
    design = cfg["design"]
    if design == "population":
        controls = None
        names = None
        if cfg["n_pcs"] > 0:
            controls = genome.principal_components(g, cfg["n_pcs"])
            names = [f"pc{k}" for k in range(1, cfg["n_pcs"] + 1)]
        res = gwas_mod.run_gwas(g, y, controls=controls, control_names=names, threads=threads)
    elif design == "trio":
        for key in ("mothers", "fathers", "pedigree"):
            if not cfg[key]:
                raise ConfigError(f"trio design requires config key gwas.{key}")
        gm = genome.read_genotypes_tsv(cfg["mothers"], panel)
        gf = genome.read_genotypes_tsv(cfg["fathers"], panel)
        shared = sorted(set(gm.ids) & set(gf.ids))
        if shared:
            raise ConfigError(f"individual id {shared[0]!r} is in both {cfg['mothers']} and {cfg['fathers']}")
        parents = genome.GenotypeMatrix(gm.ids + gf.ids, panel,
                                        np.concatenate([gm.planes, gf.planes], axis=1))
        ped = genome.read_pedigree_tsv(cfg["pedigree"])
        res = gwas_mod.run_trio_gwas(g, parents, ped, y)
    elif design == "sibling":
        if not cfg["pedigree"]:
            raise ConfigError("sibling design requires config key gwas.pedigree")
        ped = genome.read_pedigree_tsv(cfg["pedigree"], design="sibling-pairs")
        res = gwas_mod.run_sibling_gwas(g, ped, y, cfg["sibling_variant"])
    else:
        raise ConfigError(f"unknown GWAS design {design!r}")
    sumstats = os.path.join(out, "sumstats.tsv")
    gwas_mod.write_sumstats_tsv(sumstats, res)
    manhattan = os.path.join(out, "manhattan.tsv")
    write_tsv(manhattan, ["CHR", "POS", "NEGLOG10P"],
              ((c, p, fmt_float(v)) for c, p, v in gwas_mod.manhattan_export(res)))
    return [sumstats, manhattan]


def _cmd_pgi(cfg: dict, seed, threads: int, out: str) -> list[str]:
    panel = genome.read_panel_tsv(cfg["panel"])
    g = genome.read_genotypes_tsv(cfg["genotypes"], panel)
    res = gwas_mod.read_sumstats_tsv(cfg["sumstats"])
    if cfg["selection"] == "all_snps":
        selection: str | gwas_mod.LeadSnpSet = "all_snps"
    elif cfg["selection"] == "clump":
        selection = gwas_mod.clump(res, g, p_thresh=cfg["p_thresh"], r2_thresh=cfg["r2_thresh"])
    else:
        raise ConfigError(f"unknown selection rule {cfg['selection']!r}")
    index = pgi_mod.build_pgi(res, g, selection=selection)
    path = os.path.join(out, "pgi.tsv")
    write_tsv(path, ["iid", "pgi"], zip(g.ids, map(float, index.values)))
    return [path]


def _cmd_gxe(cfg: dict, seed, threads: int, out: str) -> list[str]:
    with _data_table(cfg["data"]) as data:
        spec = gxe_mod.GxeModelSpec(
            terms=tuple(cfg["terms"]), controls=tuple(cfg["controls"]),
            control_interactions=cfg["control_interactions"],
            se=cfg["se"], cluster_on=cfg["cluster_on"],
        )
        fit = gxe_mod.fit_gxe(data, spec)
    path = os.path.join(out, "gxe_fit.json")
    atomic_write_text(path, fit.to_json() + "\n")
    return [path]


def _cmd_rdd(cfg: dict, seed, threads: int, out: str) -> list[str]:
    with _data_table(cfg["data"]) as data:
        spec = gxe_mod.RddSpec(bandwidth=cfg["bandwidth"], covariates=tuple(cfg["covariates"]),
                               pcs=tuple(cfg["pcs"]))
        fit = gxe_mod.fit_rdd_gxe(data, spec, model=cfg["model"])
        sample = gxe_mod.rdd_sample(data, spec)
    fit_path = os.path.join(out, "rdd_fit.json")
    atomic_write_text(fit_path, fit.to_json() + "\n")
    rows = gxe_mod.slope_plot_data(sample, bins=cfg["slope_bins"])
    slope_path = os.path.join(out, "slope_plot.tsv")
    write_tsv(slope_path, ["arm", "bin_center", "mean_Y", "count"], rows)
    return [fit_path, slope_path]


def _cmd_power(cfg: dict, seed: int, threads: int, out: str) -> list[str]:
    spec = inference.PowerSpec(beta_g=cfg["beta_g"], beta_e=cfg["beta_e"], beta_x=0.0,
                               n=cfg["n"], treated_share=cfg["treated_share"],
                               alpha=cfg["alpha"], reps=cfg["reps"])
    grid = np.array([float(b) for b in cfg["beta_x_grid"]])
    curve = inference.power_curve(spec, grid, seed, threads)
    path = os.path.join(out, "power.tsv")
    write_tsv(path, ["beta_x", "n", "power", "ci_lo", "ci_hi"],
              ((fmt_float(b), cfg["n"], fmt_float(p), fmt_float(lo), fmt_float(hi))
               for b, p, lo, hi in zip(curve.beta_x, curve.power, curve.ci_lo, curve.ci_hi)))
    files = [path]
    if cfg["mde"]:
        value = curve.mde(target_power=cfg["target_power"])
        mde_path = os.path.join(out, "mde.json")
        write_json(mde_path, {"mde": value, "target_power": cfg["target_power"], "n": cfg["n"]})
        files.append(mde_path)
    return files


def _cmd_permute(cfg: dict, seed: int, threads: int, out: str) -> list[str]:
    with _data_table(cfg["data"]) as data:
        spec = gxe_mod.GxeModelSpec(terms=tuple(cfg["terms"]), controls=tuple(cfg["controls"]),
                                    control_interactions=cfg["control_interactions"])
        res = inference.permutation_test(data, spec, n_perm=cfg["n_perm"], seed=seed,
                                         joint=cfg["joint"], threads=threads)
    null_path = os.path.join(out, "permutation_null.tsv")
    write_tsv(null_path, ["draw", "coef", "t"],
              ((i, fmt_float(c), fmt_float(t)) for i, (c, t) in enumerate(zip(res.null_coefs, res.null_ts))))
    summary_path = os.path.join(out, "permutation.json")
    write_json(summary_path, {
        "observed_coef": res.observed_coef,
        "observed_t": res.observed_t,
        "coef_percentile": res.coef_percentile,
        "t_percentile": res.t_percentile,
        "envelopes_coef": {str(k): list(v) for k, v in res.envelopes.items()},
        "envelopes_t": {str(k): list(v) for k, v in res.t_envelopes.items()},
        "outside_95_t": res.outside_envelope(95, "t"),
        "n_perm": cfg["n_perm"],
    })
    return [null_path, summary_path]


def _cmd_bias_table(cfg: dict, seed: int, threads: int, out: str) -> list[str]:
    base = phenosim.ScenarioSpec(
        g_regime="trio_pgi_family_controls", e_regime="exogenous",
        beta_g=cfg["beta_g"], beta_e=cfg["beta_e"], beta_x=cfg["beta_x"],
        eta_m=cfg["eta_m"], eta_f=cfg["eta_f"], w=cfg["w"],
        nurture_alignment=cfg["nurture_alignment"], corr_e_estar=cfg["corr_e_estar"],
        beta_estar=cfg["beta_estar"], a_parent=cfg["a_parent"],
    )
    sizes = phenosim.CohortSizes(n_discovery=64, n_analysis=cfg["n_analysis"], n_snps=cfg["n_snps"])
    table = biaslab.run_table(base, reps=cfg["reps"], seed=seed, sizes=sizes,
                              discovery=cfg["discovery"], threads=threads)
    json_path = os.path.join(out, "bias_table.json")
    write_json(json_path, {"cells": table.as_dict(), "sign_matrix": table.sign_matrix()})
    tsv_path = os.path.join(out, "bias_table.tsv")
    rows = table.to_tsv_rows()
    write_tsv(tsv_path, rows[0], rows[1:])
    return [json_path, tsv_path]


COMMANDS = {
    "simulate": _cmd_simulate,
    "gwas": _cmd_gwas,
    "pgi": _cmd_pgi,
    "gxe": _cmd_gxe,
    "rdd": _cmd_rdd,
    "power": _cmd_power,
    "permute": _cmd_permute,
    "bias-table": _cmd_bias_table,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gxelab", description="Gene-environment interplay toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config for the subcommand")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, help="worker threads (overrides config; default 1)")
    parser.add_argument("--out", help="output directory (overrides config; default .)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw: dict = {}
        if args.config:
            with open(args.config) as f:
                try:
                    raw = json.load(f)
                except ValueError as e:  # not JSON, or an integer literal past Python's digit limit
                    raise ConfigError(f"{args.config}: {e}") from None
            if not isinstance(raw, dict):
                raise ConfigError("config must be a JSON object")
        payload = {k: v for k, v in raw.items() if k not in ("seed", "threads", "out")}
        # a flag wins over the config, which wins over the built-in default
        seed = args.seed if args.seed is not None else raw.get("seed")
        threads = args.threads if args.threads is not None else raw.get("threads", 1)
        try:
            seed, threads = None if seed is None else int(seed), int(threads)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"seed and threads must be integers, got {seed!r} and {threads!r}") from None
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        out = str(args.out if args.out is not None else raw.get("out", "."))
        cfg = validate_config(args.command, payload)
        if args.command in SEED_REQUIRED and seed is None:
            raise ConfigError(f"{args.command} is stochastic: a seed is required (--seed or config)")
        os.makedirs(out, exist_ok=True)
        files = COMMANDS[args.command](cfg, seed, threads, out)
        _write_manifest(out, args.command, cfg, seed, threads, files)
        return 0
    except (ConfigError, PedigreeError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimationError as e:
        print(f"estimation error: {e}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (SimulationError, CalibrationError, ModelError, ModelDomainError, SolverError) as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
