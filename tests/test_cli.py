import contextlib
import errno
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxelab import cli
from gxelab.util import write_tsv


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as f:
        return json.load(f)


def make_gxe_data(path, n=2000, beta_x=0.2, seed=0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(n)
    E = (rng.random(n) < 0.5).astype(float)
    Y = 0.25 * G + 0.4 * E + beta_x * G * E + rng.standard_normal(n)
    write_tsv(str(path), ["iid", "Y", "G", "E"],
              ((f"i{i}", float(Y[i]), float(G[i]), float(E[i])) for i in range(n)))


# Small valid input files, and the files each data-reading command takes
VALID_FILES = {
    "panel": "id\tchrom\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\nrs1\t1\t2000\t0.3\t1\n",
    "genotypes": "iid\trs0\trs1\ni0\t0\t1\ni1\t2\t1\ni2\t1\t0\n",
    "phenotype": "iid\tY\ni0\t0.5\ni1\t-1.0\ni2\t0.2\n",
    "mothers": "iid\trs0\trs1\nm0\t0\t1\nm1\t1\t1\nm2\t2\t0\n",
    "fathers": "iid\trs0\trs1\nf0\t1\t0\nf1\t0\t2\nf2\t1\t1\n",
    "pedigree": "child\tmother\tfather\tfamily\ni0\tm0\tf0\tfam0\ni1\tm1\tf1\tfam1\ni2\tm2\tf2\tfam2\n",
    "sumstats": "SNP\tCHR\tPOS\tEA\tBETA\tSE\tP\tN\n"
                "rs0\t1\t1000\tminor\t0.1\t0.1\t0.3173105079\t3\nrs1\t1\t2000\tminor\t0.2\t0.1\t0.0455\t3\n",
    "data": "iid\tY\tG\tE\tMoB\n" + "".join(
        f"i{i}\t{(i * 7) % 5 - 2.1}\t{(i * 3) % 4 - 1.5}\t{int(i % 6 >= 3)}\t{i % 6 - 3}\n" for i in range(12)),
}
COMMAND_INPUTS = {"gxe": ["data"], "rdd": ["data"], "permute": ["data"], "gwas": ["genotypes", "panel", "phenotype"],
                  "gwas-trio": ["genotypes", "panel", "phenotype", "mothers", "fathers", "pedigree"],
                  "pgi": ["sumstats", "genotypes", "panel"]}
# Config values of command variants "command-variant", which read the files of
# "command" unless COMMAND_INPUTS lists their own
VARIANT_CONFIG = {"gwas-trio": {"design": "trio"}, "gxe-iid-control": {"controls": ["iid"]},
                  "permute-iid-control": {"controls": ["iid"]}, "rdd-iid-covariate": {"covariates": ["iid"]}}


def run_on_files(tmp_path, command, files, **config):
    """Exit code of `command` run at seed 1 on the given file texts and config
    values; a variant such as "gwas-trio" adds its VARIANT_CONFIG values."""
    base = command.partition("-")[0]
    payload = dict(VARIANT_CONFIG.get(command, {}))
    for name in COMMAND_INPUTS.get(command, COMMAND_INPUTS[base]):
        path = tmp_path / f"{name}.tsv"
        path.write_text(files[name])
        payload[name] = str(path)
    cfg = write_config(tmp_path, f"{command}.json", {**payload, **config})
    return run([base, "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")])


# Manifest checksums of three small seeded simulate runs. A change that moves
# a random stream or the genotype layout's output shows up here; update these
# constants only in a change that sets out to alter a stream and says so.
PINNED_SIMULATE = {
    "founders": ({"n": 120, "n_snps": 24, "block_size": 6, "rho": 0.5, "h2": 0.4, "n_causal": 10}, 5, {
        "genotypes.tsv": "3f609afbf4ac0d9ec8298dfcbb19bd94eb696e5c663e7cf291b0e3132f7033d3",
        "panel.tsv": "7a89e490b42ce201302e3b8c58bedee990426a431732680eb238c4b17f863fcd",
        "phenotype.tsv": "4c62cabdef0b2acca461d19b397269b9031dfe527dc7bc3136ec259f024fff56",
    }),
    "trios": ({"n": 60, "n_snps": 20, "design": "trios", "block_size": 5, "rho": 0.3, "h2": 0.3,
               "delta": 0.3, "eta_m": 0.2, "eta_f": 0.1}, 6, {
        "children.tsv": "abbe7e3919c0c75a0549ec06e5cf54d2e4b258ed3f87c9529816b717e009d2e0",
        "panel.tsv": "21d1c9651816372fe317ca61a451da1d505de03143176cfbe283d8d980020429",
        "parents.tsv": "a6b014c92fe1b7b2a4d087eccce4fd218849fdb7ac2aa1ee01a03704b08f82ab",
        "pedigree.tsv": "fe05d590369a4d31ff38cd69416feef00c0c466110836dba31146eacbf6b248b",
        "phenotype.tsv": "ab84568266822a5bd52350ea7f2f61cf46e0b0bc6975ef4b6dd6ee3b2e2fd434",
    }),
    "sibling-pairs": ({"n": 40, "n_snps": 20, "design": "sibling-pairs", "block_size": 4, "rho": 0.4, "h2": 0.3,
                       "delta": 0.3, "gamma": 0.25}, 7, {
        "children.tsv": "ea450523d89228d978627c92b8d4768ba92ea83f24b9c258765e1c1331a0f141",
        "panel.tsv": "5931321934538b44064dc8ed533aa316988d40a22792673893a0cacfec70929d",
        "parents.tsv": "a28e61074a1e3669df5980cbe14f88734d3378482e3c1217a8087cf4baff8a9a",
        "pedigree.tsv": "2bc59d8366ce654ef6a567d58b38f16ed253fb490be587915a1b1c0532752cf0",
        "phenotype.tsv": "b823ecb5578b79de9c3850708d9565d09451c821d0e60a66372ac8e77b6228a7",
    }),
}


def make_pinned_estimation_data(path, n=400, seed=53):
    """Rows for the pinned gxe, rdd and permute runs: month of birth on
    -6..5 with E = MoB >= 0, a G-correlated control c1 and a plain control c2."""
    rng = np.random.default_rng(seed)
    mob = rng.integers(-6, 6, n).astype(float)
    E = (mob >= 0).astype(float)
    G = rng.standard_normal(n)
    c1 = 0.3 * G + rng.standard_normal(n)
    c2 = rng.standard_normal(n)
    Y = 0.25 * G + 0.4 * E + 0.2 * G * E + 0.03 * mob + 0.3 * c1 - 0.2 * c2 + rng.standard_normal(n)
    write_tsv(str(path), ["iid", "Y", "G", "E", "MoB", "c1", "c2"],
              ((f"i{i}", *map(float, (Y[i], G[i], E[i], mob[i], c1[i], c2[i]))) for i in range(n)))


# Manifest checksums of small runs of the estimation commands on the rows
# above: (command, config, seed, outputs). Like PINNED_SIMULATE, a change that
# moves a fit, a window or a permutation stream shows up here.
PINNED_ESTIMATION = {
    "gxe": ("gxe", {"terms": ["G", "E", "GxE", "G2"], "controls": ["c1", "c2"],
                    "control_interactions": True}, None, {
        "gxe_fit.json": "1a2f8e687e6816355472690e8dc6f2337f9153857c95f9108870d9686e4b4bd7",
    }),
    "gxe-cluster": ("gxe", {"controls": ["c1"], "se": "cluster", "cluster_on": "MoB"}, None, {
        "gxe_fit.json": "fab2990f7f7e4b9b2d9af6159159f71344128f2067fd0dcd8ec8b0a8e40c2385",
    }),
    "rdd": ("rdd", {"bandwidth": 5, "covariates": ["c1"], "pcs": ["c2"], "slope_bins": 6}, None, {
        "rdd_fit.json": "5d44e76347ba265bfcd3f372d659b3d05f0a578342faed809374fc584ec17926",
        "slope_plot.tsv": "1d5a9ea7058192c53a5318090b66da914acd8c7fc5401d61546dee737d30c645",
    }),
    "rdd-main": ("rdd", {"bandwidth": 6, "model": "main_effects"}, None, {
        "rdd_fit.json": "6c36bf32245fbdea1565f68b42a62aade3645eaf7b854f11a2dfb30236b19726",
        "slope_plot.tsv": "61ea082ac3f81bb22e124ea8f6f2dc86afbbf6546b98d5b871c80a210ca0198e",
    }),
    "permute": ("permute", {"n_perm": 100, "controls": ["c1", "c2"], "control_interactions": True}, 59, {
        "permutation.json": "686c7e61081a32b3ce326c479fe50d61e1461db522762dc36a6e28ec4eb896b5",
        "permutation_null.tsv": "3e940792ebcc0e0e89ec4bb139913fbdf997895650361768f26f4eeb9c8bb2d8",
    }),
}


class TestSimulatePipeline:
    def test_simulate_founders_with_trait(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {"n": 300, "n_snps": 40, "h2": 0.4, "n_causal": 30})
        out = str(tmp_path / "out")
        assert run(["simulate", "--config", cfg, "--seed", 9, "--out", out]) == 0
        for name in ("panel.tsv", "genotypes.tsv", "phenotype.tsv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_rerun_reproduces_checksums(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {"n": 200, "n_snps": 30, "h2": 0.3})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["simulate", "--config", cfg, "--seed", 11, "--out", out_a]) == 0
        assert run(["simulate", "--config", cfg, "--seed", 11, "--out", out_b]) == 0
        assert manifest(out_a)["outputs"] == manifest(out_b)["outputs"]
        assert manifest(out_a)["config_hash"] == manifest(out_b)["config_hash"]

    def test_full_gwas_pgi_chain(self, tmp_path):
        sim_out = str(tmp_path / "sim")
        cfg = write_config(tmp_path, "sim.json", {"n": 500, "n_snps": 50, "h2": 0.5})
        assert run(["simulate", "--config", cfg, "--seed", 13, "--out", sim_out]) == 0

        gwas_cfg = write_config(tmp_path, "gwas.json", {
            "genotypes": os.path.join(sim_out, "genotypes.tsv"),
            "panel": os.path.join(sim_out, "panel.tsv"),
            "phenotype": os.path.join(sim_out, "phenotype.tsv"),
            "n_pcs": 2,
        })
        gwas_out = str(tmp_path / "gwas")
        assert run(["gwas", "--config", gwas_cfg, "--out", gwas_out]) == 0
        assert os.path.exists(os.path.join(gwas_out, "sumstats.tsv"))
        with open(os.path.join(gwas_out, "manhattan.tsv")) as f:
            assert f.readline().split() == ["CHR", "POS", "NEGLOG10P"]

        pgi_cfg = write_config(tmp_path, "pgi.json", {
            "sumstats": os.path.join(gwas_out, "sumstats.tsv"),
            "genotypes": os.path.join(sim_out, "genotypes.tsv"),
            "panel": os.path.join(sim_out, "panel.tsv"),
        })
        pgi_out = str(tmp_path / "pgi")
        assert run(["pgi", "--config", pgi_cfg, "--out", pgi_out]) == 0
        with open(os.path.join(pgi_out, "pgi.tsv")) as f:
            assert f.readline().split() == ["iid", "pgi"]

    def test_simulate_trios_design(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "n": 150, "n_snps": 30, "design": "trios", "h2": 0.3,
            "delta": 0.3, "eta_m": 0.2, "eta_f": 0.2,
        })
        out = str(tmp_path / "trio")
        assert run(["simulate", "--config", cfg, "--seed", 17, "--out", out]) == 0
        for name in ("children.tsv", "parents.tsv", "pedigree.tsv", "phenotype.tsv"):
            assert os.path.exists(os.path.join(out, name))

    @pytest.mark.parametrize("design", list(PINNED_SIMULATE))
    def test_seeded_outputs_pinned(self, tmp_path, design):
        config, seed, expected = PINNED_SIMULATE[design]
        cfg = write_config(tmp_path, "sim.json", config)
        out = str(tmp_path / "out")
        assert run(["simulate", "--config", cfg, "--seed", seed, "--out", out]) == 0
        assert manifest(out)["outputs"] == expected


class TestEstimationCommands:
    @pytest.mark.parametrize("name", list(PINNED_ESTIMATION))
    def test_seeded_outputs_pinned(self, tmp_path, name):
        command, config, seed, expected = PINNED_ESTIMATION[name]
        make_pinned_estimation_data(tmp_path / "data.tsv")
        cfg = write_config(tmp_path, f"{command}.json", {"data": str(tmp_path / "data.tsv"), **config})
        out = str(tmp_path / "out")
        flags = [] if seed is None else ["--seed", seed]
        assert run([command, "--config", cfg, *flags, "--out", out]) == 0
        assert manifest(out)["outputs"] == expected

    def test_gxe_fit_report(self, tmp_path):
        data = tmp_path / "data.tsv"
        make_gxe_data(data, seed=21)
        cfg = write_config(tmp_path, "gxe.json", {"data": str(data)})
        out = str(tmp_path / "fit")
        assert run(["gxe", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "gxe_fit.json")) as f:
            report = json.load(f)
        assert set(report["coefficients"]) == {"intercept", "G", "E", "GxE"}
        assert report["coefficients"]["GxE"] == pytest.approx(0.2, abs=0.1)

    def test_rdd_fit_and_slope_plot(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 3000
        mob = rng.integers(-3, 3, n).astype(float)
        E = (mob >= 0).astype(float)
        G = rng.standard_normal(n)
        Y = 1.1 * E + 0.1 * G * E - 0.15 * mob + rng.standard_normal(n)
        data = tmp_path / "rdd.tsv"
        write_tsv(str(data), ["iid", "Y", "G", "MoB"],
                  ((f"i{i}", float(Y[i]), float(G[i]), float(mob[i])) for i in range(n)))
        cfg = write_config(tmp_path, "rdd.json", {"data": str(data), "bandwidth": 3})
        out = str(tmp_path / "rddout")
        with pytest.warns(UserWarning):
            assert run(["rdd", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "rdd_fit.json")) as f:
            report = json.load(f)
        assert "MoBxGxE" in report["coefficients"]
        with open(os.path.join(out, "slope_plot.tsv")) as f:
            assert f.readline().split() == ["arm", "bin_center", "mean_Y", "count"]

    def test_power_curve_output(self, tmp_path):
        cfg = write_config(tmp_path, "power.json", {
            "beta_e": 0.9, "n": 1000, "beta_x_grid": [0.0, 0.225], "reps": 500,
        })
        out = str(tmp_path / "power")
        assert run(["power", "--config", cfg, "--seed", 29, "--out", out]) == 0
        with open(os.path.join(out, "power.tsv")) as f:
            header = f.readline().split()
            rows = [line.split() for line in f]
        assert header == ["beta_x", "n", "power", "ci_lo", "ci_hi"]
        by_beta = {float(r[0]): float(r[2]) for r in rows}
        assert by_beta[0.225] > 0.90
        assert by_beta[0.0] < 0.10

    def test_power_thread_invariance(self, tmp_path):
        cfg = write_config(tmp_path, "power.json", {
            "beta_e": 0.6, "n": 400, "beta_x_grid": [0.1], "reps": 400,
        })
        outs = []
        for threads, tag in ((1, "t1"), (4, "t4")):
            out = str(tmp_path / tag)
            assert run(["power", "--config", cfg, "--seed", 31, "--threads", threads, "--out", out]) == 0
            outs.append(manifest(out)["outputs"])
        assert outs[0] == outs[1]

    def test_permute_outputs(self, tmp_path):
        data = tmp_path / "data.tsv"
        make_gxe_data(data, n=500, beta_x=0.3, seed=37)
        cfg = write_config(tmp_path, "perm.json", {"data": str(data), "n_perm": 150})
        out = str(tmp_path / "perm")
        assert run(["permute", "--config", cfg, "--seed", 41, "--out", out]) == 0
        with open(os.path.join(out, "permutation.json")) as f:
            summary = json.load(f)
        assert summary["outside_95_t"] is True
        with open(os.path.join(out, "permutation_null.tsv")) as f:
            assert f.readline().split() == ["draw", "coef", "t"]
            assert sum(1 for _ in f) == 150

    def test_bias_table_smoke(self, tmp_path):
        cfg = write_config(tmp_path, "bias.json", {"reps": 20, "n_analysis": 500, "n_snps": 40})
        out = str(tmp_path / "bias")
        assert run(["bias-table", "--config", cfg, "--seed", 43, "--out", out]) == 0
        with open(os.path.join(out, "bias_table.json")) as f:
            table = json.load(f)
        assert len(table["cells"]) == 9
        assert "trio_pgi_family_controls" in table["sign_matrix"]


class TestErrorPaths:
    def test_impossible_scenario_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.biaslab, "run_cell", lambda *args, **kw: calls.append(args))
        cfg = write_config(tmp_path, "bias.json", {"corr_e_estar": 2, "reps": 2, "n_analysis": 30, "n_snps": 10})
        assert run(["bias-table", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2
        assert "a_parent^2 + corr_e_estar^2 must be <= 1" in capsys.readouterr().err
        assert calls == []  # rejected before any cell runs

    def test_failed_replicates_name_the_first_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bias.json", {"reps": 2, "n_analysis": 3, "n_snps": 2})
        assert run(["bias-table", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "2/2 replicates failed; the first with EstimationError: design has 3 rows for 6 columns" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"n": 100, "wat": 1})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2
        assert "simulate.wat" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"n_snps": 10})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2
        assert "simulate.n" in capsys.readouterr().err

    def test_missing_seed_for_stochastic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {"n": 50})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"n": "many"})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["seed", "threads"])
    def test_non_integer_meta_key_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, "sim.json", {"n": 50, "seed": 1, key: "two"})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'two'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(tmp_path, "gxe.json", {"data": str(tmp_path / "nope.tsv")})
        assert run(["gxe", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("beta_e, n, message", [
        ("1" + "0" * 400, "100", "power.beta_e"),
        ("0.5", "1" + "0" * 400, "power.n"),
        ("1" * 5000, "100", "digits"),
    ], ids=["float_beyond_double", "int_beyond_int64", "int_beyond_python_digit_limit"])
    def test_number_beyond_machine_range_rejected(self, tmp_path, capsys, beta_e, n, message):
        cfg = tmp_path / "power.json"
        cfg.write_text(f'{{"beta_e": {beta_e}, "n": {n}, "beta_x_grid": [0.1]}}')
        assert run(["power", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_input_path_that_is_a_directory_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "gxe.json", {"data": str(tmp_path)})
        assert run(["gxe", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert run(["gxe", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    def test_output_io_failure_is_not_a_config_error(self, tmp_path, monkeypatch):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_write_manifest", disk_full)
        cfg = write_config(tmp_path, "sim.json", {"n": 20, "n_snps": 4})
        with pytest.raises(OSError, match="No space left"):
            run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")])

    def test_estimation_error_exit_code(self, tmp_path):
        rng = np.random.default_rng(47)
        n = 100
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        data = tmp_path / "collinear.tsv"
        write_tsv(str(data), ["iid", "Y", "G", "E", "Gcopy"],
                  ((f"i{i}", float(G[i]), float(G[i]), float(E[i]), float(G[i])) for i in range(n)))
        cfg = write_config(tmp_path, "gxe.json", {"data": str(data), "controls": ["Gcopy"]})
        assert run(["gxe", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command, key, text, code, message", [
        ("gxe", "data", "", 2, "is empty"),
        ("gxe", "data", "iid\tY\tG\tE\ni0\t1.0\tlow\t0\n", 2, "column 'G'"),
        ("gxe", "data", "iid\tY\tG\tE\ni0\t1.0\t0.5\n", 2, "data row 1 has 3 fields"),
        ("gxe", "data", "iid\tY\tG\tE\n", 3, "0 rows for 4 columns"),
        ("gxe", "data", "iid\tY\tG\tE\ni0\t1.0\tinf\t0\n", 2, "column 'G'"),
        ("gxe", "data", "iid\tY\tG\tE\ni0\tnan\t0.5\t0\n", 2, "column 'Y'"),
        ("gwas", "genotypes", "iid\trs0\trs1\ni0\t0\t1\ni1\tx\t2\n", 2, "column 'rs0'"),
        ("gwas", "genotypes", "iid\trs0\trs1\ni0\t0\t300\ni1\t1\t2\n", 2, "column 'rs1'"),
        ("gwas", "panel", "id\tchrom\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\nrs1\t1\tfar\t0.3\t1\n",
         2, "column 'pos'"),
        ("pgi", "sumstats", "SNP\tCHR\tPOS\tEA\tBETA\tSE\tP\tN\n"
         "rs0\t1\t1000\tminor\t0.1\t0.1\t0.3173105079\t2\nrs1\t1\t2000\tminor\tbig\t0.1\t1\t2\n",
         2, "column 'BETA'"),
        ("gwas-trio", "fathers", "iid\trs0\trs1\nf0\t1\t0\nf1\t0\t2\nf2\t1\t1\nf0\t2\t2\n", 2, "'f0' is repeated"),
        ("gwas-trio", "pedigree", "child\tmother\tfather\tfamily\ni0\tm0\tf0\tfam0\ni0\tm1\tf1\tfam1\n"
         "i2\tm2\tf2\tfam2\n", 2, "child id 'i0' is repeated"),
        ("gwas", "genotypes", "iid\trs0\trs1\n", 2, "has a header but no individuals"),
        ("gwas-trio", "fathers", "iid\trs0\trs1\nf0\t1\t0\nm0\t2\t2\nf2\t1\t1\n", 2, "'m0' is in both"),
        ("gwas", "genotypes", "iid\trs0\trs1\ni0\t0\t01\ni1\t2\t1\ni2\t1\t0\n", 2, "column 'rs1'"),
        ("gwas", "genotypes", "iid\trs0\trs1\ni0\t0\t1\ni1\t\t1\ni2\t1\t0\n", 2, "holds '', not a dosage"),
        ("gwas", "genotypes", "iid\trs0\trsX\ni0\t0\t1\ni1\t2\t1\ni2\t1\t0\n", 2, "does not match the panel"),
        ("gwas", "genotypes", "iid\trs0\trs1\ni0\t0\t1\ni1\t2\t1\n", 3, "2 observations for 2 regressors"),
        ("gwas", "panel", "id\tchrom\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\nrs0\t1\t2000\t0.3\t1\n",
         2, "SNP id 'rs0' is repeated"),
        ("gwas", "panel", "id\tchrom\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\nrs1\t1\t1000\t0.3\t1\n",
         2, "duplicate (chromosome, position) (1, 1000)"),
        ("gwas", "panel", "id\tchrom\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\nrs1\t1\t2000\t0.3\t1\n"
         "rs2\t1\t3000\t0.3\t0\n", 2, "block 0 is not contiguous in panel order"),
        ("gwas", "panel", "id\tchr\tpos\tmaf\tblock\nrs0\t1\t1000\t0.3\t0\n", 2, "panel file header must be"),
        ("pgi", "sumstats", "SNP\tCHR\tPOS\tEA\tBETA\tSE\tP\tN\n"
         "rs0\t1\t1000\tminor\t0.5\t0.1\t5.733031438e-07\t3\nrs0\t1\t1000\tminor\t-0.5\t0.1\t5.733031438e-07\t3\n",
         2, "SNP 'rs0' is repeated"),
        ("pgi", "sumstats", "SNP\tCHR\tBP\tEA\tBETA\tSE\tP\tN\n"
         "rs0\t1\t1000\tminor\t0.1\t0.1\t0.3173105079\t3\n", 2, "summary statistics header must be"),
        ("gwas-trio", "pedigree", "child\tmum\tfather\tfamily\ni0\tm0\tf0\tfam0\n", 2, "pedigree file header must be"),
        ("gwas", "phenotype", "iid\tZ\ni0\t0.5\ni1\t-1.0\ni2\t0.2\n", 2, "needs iid and Y columns"),
        ("gwas", "phenotype", "iid\tY\ni0\t0.5\ni1\t-1.0\n", 2, "missing individual 'i2'"),
        ("gxe", "data", "iid\tY\tG\ni0\t1.0\t0.5\ni1\t2.0\t-0.5\n", 2, "missing column 'E'"),
        ("permute", "data", "iid\tY\tG\ni0\t1.0\t0.5\ni1\t2.0\t-0.5\n", 2, "missing column 'E'"),
        ("rdd", "data", "iid\tY\tG\tE\ni0\t1.0\t0.5\t0\n", 2, "missing column 'MoB'"),
        ("rdd", "data", "iid\tY\tG\tMoB\ni0\t1.0\t0.5\t0.5\n", 2, "integer month offsets"),
        ("rdd", "data", "iid\tY\tG\tE\tMoB\ni0\t1.0\t0.5\t1\t-1\n", 2, "inconsistent with the running variable"),
        ("gxe-iid-control", "data", VALID_FILES["data"], 2, "column 'iid' is not numeric"),
        ("permute-iid-control", "data", VALID_FILES["data"], 2, "column 'iid' is not numeric"),
        ("rdd-iid-covariate", "data", VALID_FILES["data"], 2, "column 'iid' is not numeric"),
    ], ids=["empty", "non_numeric", "ragged", "header_only", "inf", "nan",
            "genotype_non_numeric", "genotype_300", "panel_pos", "sumstats_beta", "repeated_iid", "repeated_child",
            "genotype_header_only", "parent_in_both_files", "genotype_two_digit", "genotype_empty_cell",
            "genotype_header_mismatch", "gwas_two_individuals", "panel_repeated_id", "panel_duplicate_site",
            "panel_block_not_contiguous", "panel_header", "sumstats_repeated_snp", "sumstats_header",
            "pedigree_header", "phenotype_columns", "phenotype_missing_individual", "gxe_missing_column",
            "permute_missing_column", "rdd_missing_column", "rdd_fractional_month", "rdd_inconsistent_treatment",
            "gxe_non_numeric_control", "permute_non_numeric_control", "rdd_non_numeric_covariate"])
    def test_malformed_data_file_exits_cleanly(self, tmp_path, capsys, command, key, text, code, message):
        assert run_on_files(tmp_path, command, {**VALID_FILES, key: text}) == code
        err = capsys.readouterr().err
        assert message in err
        assert code == 3 or f"{key}.tsv" in err  # a config error names its file
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, message", [
        ("permute", {"n_perm": 10}, "n_perm must be >= 100"),
        ("rdd", {"model": "cubic"}, "unknown RDD model 'cubic'"),
        ("gxe", {"terms": ["GxE"]}, "GxE requires both G and E main effects"),
    ], ids=["n_perm", "rdd_model", "gxe_terms"])
    def test_config_value_error_names_no_data_file(self, tmp_path, capsys, command, config, message):
        assert run_on_files(tmp_path, command, VALID_FILES, **config) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "data.tsv" not in err

    @pytest.mark.parametrize("digit", ["\uff12", "\u0662"], ids=["fullwidth", "arabic_indic"])
    def test_unicode_digit_genotype_cell_exits_2(self, tmp_path, capsys, digit):
        text = VALID_FILES["genotypes"].replace("i1\t2\t1", f"i1\t{digit}\t1")
        assert run_on_files(tmp_path, "gwas", {**VALID_FILES, "genotypes": text}) == 2
        err = capsys.readouterr().err
        assert f"column 'rs0' of {tmp_path / 'genotypes.tsv'} holds '{digit}', not a dosage" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("n_snps", -3), ("n_snps", 0), ("block_size", 0), ("block_size", -2)])
    def test_simulate_rejects_non_positive_sizes(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "sim.json", {"n": 20, "n_snps": 10, key: value})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"simulate.{key}" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ({"n": 20, "n_snps": 10, "seed": -1}, "seed must be >= 0"),
        ({"n": 20, "n_snps": 10, "h2": 0.3, "n_causal": 11, "seed": 1}, "n_causal 11 outside 1..10"),
        ({"n": 20, "n_snps": 10, "h2": 0.3, "n_causal": -2, "seed": 1}, "n_causal -2 outside 1..10"),
    ], ids=["negative_seed", "n_causal_above_n_snps", "negative_n_causal"])
    def test_simulate_rejects_invalid_seed_and_n_causal(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, "sim.json", config)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ({"n": 20, "rho": 1.0}, "rho 1.0 outside [0, 1)"),
        ({"n": 20, "rho": -0.1}, "rho -0.1 outside [0, 1)"),
        ({"n": 0}, "n must be >= 1"),
    ], ids=["rho_one", "rho_negative", "n_zero"])
    def test_simulate_rejects_founder_settings_before_writing(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, "sim.json", {"n_snps": 10, **config})
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert os.listdir(out) == []

    def test_gxe_reads_only_the_columns_its_design_uses(self, tmp_path, capsys):
        rng = np.random.default_rng(49)
        E = (rng.random(200) < 0.5).astype(float)
        C = rng.standard_normal(200)
        Y = 0.4 * E + rng.standard_normal(200)
        data = tmp_path / "no_g.tsv"
        write_tsv(str(data), ["iid", "Y", "E", "C"], ((f"i{i}", float(Y[i]), float(E[i]), float(C[i])) for i in range(200)))
        cfg = write_config(tmp_path, "e_only.json", {"data": str(data), "terms": ["E"], "controls": ["C"]})
        assert run(["gxe", "--config", cfg, "--out", str(tmp_path / "e_only")]) == 0
        with open(tmp_path / "e_only" / "gxe_fit.json") as f:
            assert set(json.load(f)["coefficients"]) == {"intercept", "E", "ctrl:C"}
        cfg = write_config(tmp_path, "ctrlx.json", {"data": str(data), "terms": ["E"], "controls": ["C"],
                                                    "control_interactions": True})
        assert run(["gxe", "--config", cfg, "--out", str(tmp_path / "ctrlx")]) == 2
        err = capsys.readouterr().err
        assert "column 'G'" in err and "Traceback" not in err

    def test_flags_override_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "data.tsv"
        make_gxe_data(data, n=200, seed=47)
        cfg = write_config(tmp_path, "gxe.json", {"data": str(data), "threads": 2, "out": "cfgout"})
        assert run(["gxe", "--config", cfg, "--threads", 1, "--out", "X"]) == 0
        assert manifest("X")["threads"] == 1
        assert os.path.exists(os.path.join("X", "gxe_fit.json"))
        assert not os.path.exists("cfgout")


# ---------------------------------------------------------------------------
# Fuzzed inputs: any config or data file ends in exit 0, 2, 3 or 4
# ---------------------------------------------------------------------------

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([-3, -1, 0, 1, 2, 3, 12]),
    st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf"), 0.5, 1.0]),
    st.text(alphabet="ab./-0", max_size=4), st.lists(st.sampled_from([-1, 0, 0.1, "G", "x"]), max_size=3),
)
FUZZ_TEXT = st.text(alphabet="\t\n012-.eainrsx", max_size=40)


def exit_code_and_stderr(fn, *args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(cli.SCHEMAS)))
    keys = st.sampled_from([*cli.SCHEMAS[command], "seed", "threads", "wat"])
    payload = data.draw(st.dictionaries(keys, FUZZ_VALUES, max_size=6))
    if command == "bias-table":  # keep the defaults' minutes-long table out of reach
        payload = {"reps": 2, "n_analysis": 30, "n_snps": 10, **payload}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, err = exit_code_and_stderr(run, [command, "--config", cfg, "--out", Path(tmp) / "o"]
                                         + data.draw(st.sampled_from([[], ["--seed", 1]])))
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzzed_data_files_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(COMMAND_INPUTS)))
    name = data.draw(st.sampled_from(COMMAND_INPUTS[command]))
    valid = VALID_FILES[name]
    cut, drop = data.draw(st.integers(0, len(valid))), data.draw(st.integers(0, 4))
    mutated = valid[:cut] + data.draw(FUZZ_TEXT)[:6] + valid[cut + drop:]  # a near-valid file
    text = data.draw(st.one_of(st.just(mutated), FUZZ_TEXT))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = exit_code_and_stderr(run_on_files, Path(tmp), command, {**VALID_FILES, name: text})
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
