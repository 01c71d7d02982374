import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
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
# Valid inputs of the family GWAS designs, which VALID_FILES is too small for:
# trio HC1 needs more trios than its 4 regressors, and sibling GWAS complete pairs
FAMILY_FILES = {
    "gwas-trio": {
        "genotypes": "iid\trs0\trs1\n" + "".join(f"i{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(
            [(0, 1), (2, 1), (1, 0), (1, 2), (0, 2), (2, 0)])),
        "mothers": "iid\trs0\trs1\n" + "".join(f"m{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(
            [(0, 1), (1, 1), (2, 0), (1, 2), (0, 1), (1, 0)])),
        "fathers": "iid\trs0\trs1\n" + "".join(f"f{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(
            [(1, 0), (2, 2), (0, 1), (1, 1), (0, 2), (2, 1)])),
        "phenotype": "iid\tY\ni0\t0.5\ni1\t-1.0\ni2\t0.2\ni3\t1.3\ni4\t-0.4\ni5\t0.9\n",
        "pedigree": "child\tmother\tfather\tfamily\n" + "".join(f"i{i}\tm{i}\tf{i}\tfam{i}\n" for i in range(6)),
    },
    "gwas-sibling": {
        "genotypes": "iid\trs0\trs1\ni0\t0\t1\ni1\t1\t2\ni2\t2\t0\ni3\t1\t0\ni4\t1\t2\ni5\t0\t1\n",
        "phenotype": "iid\tY\ni0\t0.5\ni1\t-1.0\ni2\t0.2\ni3\t1.3\ni4\t-0.4\ni5\t0.9\n",
        "pedigree": "child\tmother\tfather\tfamily\n" + "".join(
            f"i{i}\tm{i // 2}\tf{i // 2}\tfam{i // 2}\n" for i in range(6)),
    },
}


def valid_files(command):
    """VALID_FILES with the command's own FAMILY_FILES in place."""
    return {**VALID_FILES, **FAMILY_FILES.get(command, {})}


COMMAND_INPUTS = {"gxe": ["data"], "rdd": ["data"], "permute": ["data"], "gwas": ["genotypes", "panel", "phenotype"],
                  "gwas-trio": ["genotypes", "panel", "phenotype", "mothers", "fathers", "pedigree"],
                  "gwas-sibling": ["genotypes", "panel", "phenotype", "pedigree"],
                  "pgi": ["sumstats", "genotypes", "panel"]}
# Config values of command variants "command-variant", which read the files of
# "command" unless COMMAND_INPUTS lists their own
VARIANT_CONFIG = {"gwas-trio": {"design": "trio"}, "gwas-sibling": {"design": "sibling"}, "gxe-iid-control": {"controls": ["iid"]},
                  "permute-iid-control": {"controls": ["iid"]}, "rdd-iid-covariate": {"covariates": ["iid"]}}


def run_on_files(tmp_path, command, files, out=None, **config):
    """Exit code of `command` run at seed 1 on the given file texts and config
    values, into `out` (default tmp_path / "o"); a variant such as "gwas-trio"
    adds its VARIANT_CONFIG values."""
    base = command.partition("-")[0]
    payload = dict(VARIANT_CONFIG.get(command, {}))
    for name in COMMAND_INPUTS.get(command, COMMAND_INPUTS[base]):
        path = tmp_path / f"{name}.tsv"
        path.write_text(files[name])
        payload[name] = str(path)
    cfg = write_config(tmp_path, f"{command}.json", {**payload, **config})
    return run([base, "--config", cfg, "--seed", 1, "--out", out or tmp_path / "o"])


# Small valid configs of the commands that read no data file (seed 1)
VALID_CONFIGS = {"simulate": {"n": 12, "n_snps": 6, "h2": 0.5},
                 "power": {"beta_e": 0.5, "n": 60, "beta_x_grid": [0.2], "reps": 100},
                 "bias-table": {"reps": 2, "n_analysis": 30, "n_snps": 10}}


def strict_json(path):
    """The JSON file at path, parsed with NaN and Infinity rejected, as a strict parser would."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def snapshot(out):
    """{name: bytes} of the files in `out`; a directory there (a .staging-*) maps to None."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in Path(out).iterdir()}


def prefill(tmp_path, command):
    """Runs a small valid `command` into tmp_path / "o", with its inputs in
    tmp_path / "valid", and returns the snapshot of tmp_path / "o"; a variant
    such as "gwas-trio" runs its base command on VALID_FILES."""
    inputs = tmp_path / "valid"
    inputs.mkdir()
    with warnings.catch_warnings():  # rdd on VALID_FILES warns of its 6 running-variable clusters
        warnings.simplefilter("ignore", UserWarning)
        if command in VALID_CONFIGS:
            cfg = write_config(inputs, "valid.json", VALID_CONFIGS[command])
            assert run([command, "--config", cfg, "--seed", 1, "--out", tmp_path / "o"]) == 0
        else:
            assert run_on_files(inputs, command.partition("-")[0], VALID_FILES, out=tmp_path / "o") == 0
    before = snapshot(tmp_path / "o")
    assert "manifest.json" in before
    return before


@contextlib.contextmanager
def fails_cleanly(tmp_path, command):
    """Yields tmp_path / "o", which holds a valid run of `command`; the failing
    run inside must change no name or byte there."""
    before = prefill(tmp_path, command)
    yield tmp_path / "o"
    assert snapshot(tmp_path / "o") == before


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
        "children.tsv": "6ede3b02e516d551511ffd0cf12ac8c1fecaa76be59225bbdfdfb8787884ca9b",
        "panel.tsv": "21d1c9651816372fe317ca61a451da1d505de03143176cfbe283d8d980020429",
        "parents.tsv": "a6b014c92fe1b7b2a4d087eccce4fd218849fdb7ac2aa1ee01a03704b08f82ab",
        "pedigree.tsv": "fe05d590369a4d31ff38cd69416feef00c0c466110836dba31146eacbf6b248b",
        "phenotype.tsv": "ea73889ea87b42754632235953a794b9f38bd5867089044907ebc2b674814359",
    }),
    "sibling-pairs": ({"n": 40, "n_snps": 20, "design": "sibling-pairs", "block_size": 4, "rho": 0.4, "h2": 0.3,
                       "delta": 0.3, "gamma": 0.25}, 7, {
        "children.tsv": "a49b998addb6e8435d0c4f46dffb74c5fc5ecc9aea048b40e5bde2ea4f45cc19",
        "panel.tsv": "5931321934538b44064dc8ed533aa316988d40a22792673893a0cacfec70929d",
        "parents.tsv": "a28e61074a1e3669df5980cbe14f88734d3378482e3c1217a8087cf4baff8a9a",
        "pedigree.tsv": "2bc59d8366ce654ef6a567d58b38f16ed253fb490be587915a1b1c0532752cf0",
        "phenotype.tsv": "f2be64803f286d3b75d65ba2f32df585d9cc2e3bc3468ae10d0ddae444ec2b8b",
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
        "permutation.json": "02ffb02dcc0453c71793844f9b21c7fc84e2a1bcd5c8eb3d41882e0040185320",
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
        cfg = write_config(tmp_path, "bias.json", {"corr_e_estar": 2, "reps": 2, "n_analysis": 30, "n_snps": 10})
        with fails_cleanly(tmp_path, "bias-table") as out:
            monkeypatch.setattr(cli.biaslab, "run_cells", lambda *args, **kw: calls.append(args))
            assert run(["bias-table", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "a_parent^2 + corr_e_estar^2 must be <= 1" in capsys.readouterr().err
        assert calls == []  # rejected before any cell runs

    def test_failed_replicates_name_the_first_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bias.json", {"reps": 2, "n_analysis": 3, "n_snps": 2})
        with fails_cleanly(tmp_path, "bias-table") as out:
            assert run(["bias-table", "--config", cfg, "--seed", 1, "--out", out]) == 4
        err = capsys.readouterr().err
        assert "2/2 replicates failed; the first with EstimationError: design has 3 rows for 6 columns" in err

    def test_singular_power_replicates_exit_4(self, tmp_path, capsys):
        # ten rows, 5% treated: most replicates have at most one treated row, so their design is singular
        cfg = write_config(tmp_path, "power.json", {"beta_e": 0.5, "n": 10, "treated_share": 0.05,
                                                    "beta_x_grid": [3.0], "reps": 1000})
        with fails_cleanly(tmp_path, "power") as out:
            assert run(["power", "--config", cfg, "--seed", 1, "--out", out]) == 4
        assert "912/1000 replicates failed; the first with a singular design (replicate 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("ones, code, message", [
        ((range(3), range(2, 5)), 4, "81/200 replicates failed; the first with a singular design (draw 5)"),
        ((range(1, 12, 2), (2, 3, 5, 6, 8, 11)), 0, ""),
    ], ids=["over_the_cap", "one_failure"])
    def test_singular_permutation_draws(self, tmp_path, capsys, ones, code, message):
        """Binary G and E permuted apart: a draw whose G*E column is all zero or
        equals G or E is a failed replicate. Over the cap the run exits 4; under
        it, the null, percentiles and envelopes hold the fitted draws, and no
        artifact holds a NaN."""
        G, E = np.zeros(12), np.zeros(12)
        G[list(ones[0])], E[list(ones[1])] = 1.0, 1.0
        data = "iid\tY\tG\tE\n" + "".join(f"i{i}\t{(i * 7) % 5 - 2.1}\t{G[i]:g}\t{E[i]:g}\n" for i in range(12))
        with fails_cleanly(tmp_path, "permute") if code else contextlib.nullcontext(tmp_path / "o") as out:
            assert run_on_files(tmp_path, "permute", {"data": data}, out=out, n_perm=200, joint=False) == code
        assert message in capsys.readouterr().err
        if code == 0:
            null = (out / "permutation_null.tsv").read_text().splitlines()
            assert len(null) == 1 + 199 and "nan" not in "".join(null)
            strict_json(out / "permutation.json")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"n": 100, "wat": 1})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "simulate.wat" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"n_snps": 10})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert "simulate.n" in capsys.readouterr().err

    def test_missing_seed_for_stochastic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {"n": 50})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--out", out]) == 2
        assert "seed" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"n": "many"})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2

    @pytest.mark.parametrize("key", ["seed", "threads"])
    def test_non_integer_meta_key_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, "sim.json", {"n": 50, "seed": 1, key: "two"})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--out", out]) == 2
        assert "'two'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(tmp_path, "gxe.json", {"data": str(tmp_path / "nope.tsv")})
        with fails_cleanly(tmp_path, "gxe") as out:
            assert run(["gxe", "--config", cfg, "--out", out]) == 2

    @pytest.mark.parametrize("beta_e, n, message", [
        ("1" + "0" * 400, "100", "power.beta_e"),
        ("0.5", "1" + "0" * 400, "power.n"),
        ("1" * 5000, "100", "digits"),
    ], ids=["float_beyond_double", "int_beyond_int64", "int_beyond_python_digit_limit"])
    def test_number_beyond_machine_range_rejected(self, tmp_path, capsys, beta_e, n, message):
        cfg = tmp_path / "power.json"
        cfg.write_text(f'{{"beta_e": {beta_e}, "n": {n}, "beta_x_grid": [0.1]}}')
        with fails_cleanly(tmp_path, "power") as out:
            assert run(["power", "--config", cfg, "--seed", 1, "--out", out]) == 2
        assert message in capsys.readouterr().err

    def test_input_path_that_is_a_directory_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "gxe.json", {"data": str(tmp_path)})
        with fails_cleanly(tmp_path, "gxe") as out:
            assert run(["gxe", "--config", cfg, "--out", out]) == 2
            assert run(["gxe", "--config", str(tmp_path), "--out", out]) == 2

    def test_output_io_failure_is_not_a_config_error(self, tmp_path, monkeypatch):
        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        prefill(tmp_path, "simulate")
        monkeypatch.setattr(cli, "_write_manifest", disk_full)
        cfg = write_config(tmp_path, "sim.json", {"n": 20, "n_snps": 4})
        with pytest.raises(OSError, match="No space left"):
            run(["simulate", "--config", cfg, "--seed", 1, "--out", str(tmp_path / "o")])
        left = os.listdir(tmp_path / "o")  # the new artifacts, with no manifest vouching for them
        assert "manifest.json" not in left and not [n for n in left if n.startswith(".staging-")]

    def test_estimation_error_exit_code(self, tmp_path):
        rng = np.random.default_rng(47)
        n = 100
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        data = tmp_path / "collinear.tsv"
        write_tsv(str(data), ["iid", "Y", "G", "E", "Gcopy"],
                  ((f"i{i}", float(G[i]), float(G[i]), float(E[i]), float(G[i])) for i in range(n)))
        cfg = write_config(tmp_path, "gxe.json", {"data": str(data), "controls": ["Gcopy"]})
        with fails_cleanly(tmp_path, "gxe") as out:
            assert run(["gxe", "--config", cfg, "--out", out]) == 3

    def test_four_trios_exit_3(self, tmp_path, capsys):
        """Four complete trios leave HC1's n/(n - k) no degrees of freedom for
        the trio design's four coefficients: an estimation error, not a
        division by zero."""
        sim = tmp_path / "sim"
        cfg = write_config(tmp_path, "sim.json", {"n": 4, "design": "trios", "h2": 0.3})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", sim]) == 0
        header, *rows = (sim / "parents.tsv").read_text().splitlines(keepends=True)
        (tmp_path / "mothers.tsv").write_text(header + "".join(rows[:4]))  # the pedigree's f0-f3
        (tmp_path / "fathers.tsv").write_text(header + "".join(rows[4:]))  # and f4-f7
        cfg = write_config(tmp_path, "gwas.json", {
            "genotypes": str(sim / "children.tsv"), "panel": str(sim / "panel.tsv"),
            "phenotype": str(sim / "phenotype.tsv"), "pedigree": str(sim / "pedigree.tsv"), "design": "trio",
            "mothers": str(tmp_path / "mothers.tsv"), "fathers": str(tmp_path / "fathers.tsv")})
        with fails_cleanly(tmp_path, "gwas") as out:
            capsys.readouterr()
            assert run(["gwas", "--config", cfg, "--out", out]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "estimation error: 4 observations for 4 regressors: the HC1 correction needs more observations"]

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
        ("gwas-trio", "pedigree", VALID_FILES["pedigree"] + "i3\tm0\tf1\tfam3\n", 2, "unknown individual id 'i3'"),
        ("gwas-sibling", "pedigree", "child\tmother\tfather\tfamily\ni0\tm0\tf0\tfam0\ni1\tm0\tf0\tfam0\n"
         "i3\tm1\tf1\tfam1\ni4\tm1\tf1\tfam1\n", 2, "unknown individual id 'i3'"),
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
        ("gwas", "phenotype", VALID_FILES["phenotype"] + "i0\t123\n", 2, "individual id 'i0' is repeated"),
        ("gxe", "data", VALID_FILES["data"].replace("\tMoB\n", "\tY\n", 1), 2, "column 'Y' is repeated"),
        ("pgi", "sumstats", VALID_FILES["sumstats"].replace("minor", "A", 1), 2, "holds 'A', not minor or major"),
    ], ids=["empty", "non_numeric", "ragged", "header_only", "inf", "nan",
            "genotype_non_numeric", "genotype_300", "panel_pos", "sumstats_beta", "repeated_iid", "repeated_child",
            "genotype_header_only", "parent_in_both_files", "genotype_two_digit", "genotype_empty_cell",
            "genotype_header_mismatch", "gwas_two_individuals", "panel_repeated_id", "panel_duplicate_site",
            "panel_block_not_contiguous", "panel_header", "sumstats_repeated_snp", "sumstats_header",
            "pedigree_header", "trio_child_not_genotyped", "sibling_family_not_genotyped", "phenotype_columns",
            "phenotype_missing_individual", "gxe_missing_column", "permute_missing_column", "rdd_missing_column", "rdd_fractional_month", "rdd_inconsistent_treatment",
            "gxe_non_numeric_control", "permute_non_numeric_control", "rdd_non_numeric_covariate",
            "phenotype_repeated_id", "data_repeated_column", "sumstats_effect_allele"])
    def test_malformed_data_file_exits_cleanly(self, tmp_path, capsys, command, key, text, code, message):
        with fails_cleanly(tmp_path, command):
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
        with fails_cleanly(tmp_path, command):
            assert run_on_files(tmp_path, command, VALID_FILES, **config) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "data.tsv" not in err

    @pytest.mark.parametrize("digit", ["\uff12", "\u0662"], ids=["fullwidth", "arabic_indic"])
    def test_unicode_digit_genotype_cell_exits_2(self, tmp_path, capsys, digit):
        text = VALID_FILES["genotypes"].replace("i1\t2\t1", f"i1\t{digit}\t1")
        with fails_cleanly(tmp_path, "gwas"):
            assert run_on_files(tmp_path, "gwas", {**VALID_FILES, "genotypes": text}) == 2
        err = capsys.readouterr().err
        assert f"column 'rs0' of {tmp_path / 'genotypes.tsv'} holds '{digit}', not a dosage" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("n_snps", -3), ("n_snps", 0), ("block_size", 0), ("block_size", -2)])
    def test_simulate_rejects_non_positive_sizes(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "sim.json", {"n": 20, "n_snps": 10, key: value})
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"simulate.{key}" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, message", [
        ({"n": 20, "n_snps": 10, "seed": -1}, "seed must be >= 0"),
        ({"n": 20, "n_snps": 10, "h2": 0.3, "n_causal": 11, "seed": 1}, "n_causal 11 outside 1..10"),
        ({"n": 20, "n_snps": 10, "h2": 0.3, "n_causal": -2, "seed": 1}, "n_causal -2 outside 1..10"),
    ], ids=["negative_seed", "n_causal_above_n_snps", "negative_n_causal"])
    def test_simulate_rejects_invalid_seed_and_n_causal(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, "sim.json", config)
        with fails_cleanly(tmp_path, "simulate") as out:
            assert run(["simulate", "--config", cfg, "--out", out]) == 2
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

    @pytest.mark.parametrize("command, config, files, code, message", [
        ("power", {"beta_e": 0.5, "n": 20, "beta_x_grid": [0.1], "reps": 100, "mde": True}, {}, 4,
         "target power 0.8 unreachable"),
        *[("power", {"beta_e": 0.5, "n": 200, "beta_x_grid": [0.2], "reps": 100, "mde": True, "target_power": t},
           {}, 2, f"config error: target power must be in (alpha = 0.05, 1), got {t}") for t in (0.0, -1.0, 0.04, 2.0)],
        ("simulate", {"n": 20, "n_snps": 10, "design": "trios", "h2": 1.0}, {}, 2, "target_h2 1.0 outside [0, 1)"),
        ("rdd", {}, {"data": "iid\tY\tG\tE\tMoB\n" + "".join(  # every treated index beyond +3
            f"i{i}\t{(i * 11) % 7 - 3}\t{(i * 7) % 5 - 2 + 6 * (i % 6 >= 3)}\t{int(i % 6 >= 3)}\t{i % 6 - 3}\n"
            for i in range(24))}, 2, "slope plot needs two arms"),
    ], ids=["power_mde_unreachable", "power_target_zero", "power_target_negative", "power_target_below_alpha",
            "power_target_above_one", "simulate_trio_h2_one", "rdd_arm_trimmed_away"])
    def test_failure_after_a_first_artifact_commits_nothing(self, tmp_path, capsys, command, config, files, code,
                                                           message):
        with fails_cleanly(tmp_path, command) as out:
            if files:
                assert run_on_files(tmp_path, command, {**VALID_FILES, **files}, **config) == code
            else:
                cfg = write_config(tmp_path, "late.json", config)
                assert run([command, "--config", cfg, "--seed", 1, "--out", out]) == code
        assert message in capsys.readouterr().err

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
        with fails_cleanly(tmp_path, "gxe") as out:
            assert run(["gxe", "--config", cfg, "--out", out]) == 2
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


class TestStaleOutputs:
    """A run removes the files that the old manifest lists and it does not write."""

    def test_simulate_without_trait_drops_the_old_phenotype(self, tmp_path):
        out = str(tmp_path / "out")
        for seed, payload in ((1, {"n": 12, "n_snps": 6, "h2": 0.5}), (2, {"n": 12, "n_snps": 6})):
            cfg = write_config(tmp_path, f"sim{seed}.json", payload)
            assert run(["simulate", "--config", cfg, "--seed", seed, "--out", out]) == 0
        assert sorted(manifest(out)["outputs"]) == ["genotypes.tsv", "panel.tsv"]
        assert sorted(os.listdir(out)) == ["genotypes.tsv", "manifest.json", "panel.tsv"]

    def test_power_without_mde_drops_the_old_mde(self, tmp_path):
        out = str(tmp_path / "out")
        for mde in (True, False):
            cfg = write_config(tmp_path, "power.json", {"beta_e": 0.9, "n": 400, "beta_x_grid": [0.0, 0.3],
                                                        "reps": 100, "mde": mde})
            assert run(["power", "--config", cfg, "--seed", 3, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "power.tsv"]

    def test_only_plain_names_inside_out_are_removed(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        listed = ["../x", "sub/y", "..", "stale.tsv"]
        for path in (tmp_path / "x", out / "sub" / "y", out / "stale.tsv"):
            path.write_text("old\n")
        (out / "manifest.json").write_text(json.dumps({"outputs": {name: "0" * 64 for name in listed}}))
        data = tmp_path / "data.tsv"
        make_gxe_data(data, n=200, seed=5)
        cfg = write_config(tmp_path, "gxe.json", {"data": str(data)})
        assert run(["gxe", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "x").read_text() == (out / "sub" / "y").read_text() == "old\n"
        assert sorted(os.listdir(out)) == ["gxe_fit.json", "manifest.json", "sub"]


# The JSON artifact of each command beyond its manifest, and configs of the
# commands that read no data file (power with its MDE)
JSON_ARTIFACTS = {"gxe": ["gxe_fit.json"], "rdd": ["rdd_fit.json"], "power": ["mde.json"],
                  "permute": ["permutation.json"], "bias-table": ["bias_table.json"]}
JSON_CONFIGS = {**VALID_CONFIGS, "power": {"beta_e": 0.5, "n": 400, "beta_x_grid": [0.0, 0.2], "reps": 100,
                                           "mde": True}}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_json_artifacts_are_strict_json(tmp_path, command):
    """Every JSON file a valid run writes, manifest included, parses with NaN
    and Infinity rejected."""
    with warnings.catch_warnings():  # rdd on VALID_FILES warns of its 6 running-variable clusters
        warnings.simplefilter("ignore", UserWarning)
        if command in JSON_CONFIGS:
            cfg = write_config(tmp_path, "cfg.json", JSON_CONFIGS[command])
            assert run([command, "--config", cfg, "--seed", 1, "--out", tmp_path / "o"]) == 0
        else:
            assert run_on_files(tmp_path, command, VALID_FILES) == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("*.json"))
    assert names == sorted(["manifest.json", *JSON_ARTIFACTS.get(command, [])])
    for name in names:
        assert strict_json(tmp_path / "o" / name)


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
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's warnings do not reach the user
        before = prefill(Path(tmp), command)
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, err = exit_code_and_stderr(run, [command, "--config", cfg, "--out", Path(tmp) / "o"]
                                         + data.draw(st.sampled_from([[], ["--seed", 1]])))
        assert code == 0 or snapshot(Path(tmp) / "o") == before
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzzed_data_files_end_in_a_documented_exit_code(data):
    """A data file of a command cut and spliced with fuzz text, with one cell
    set to another row's value of its column (a file that keeps its structure,
    so family designs reach their fits), or fuzz text alone."""
    command = data.draw(st.sampled_from(sorted(COMMAND_INPUTS)))
    name = data.draw(st.sampled_from(COMMAND_INPUTS[command]))
    files = valid_files(command)
    valid = files[name]
    cut, drop = data.draw(st.integers(0, len(valid))), data.draw(st.integers(0, 4))
    mutated = valid[:cut] + data.draw(FUZZ_TEXT)[:6] + valid[cut + drop:]  # a near-valid file
    rows = [line.split("\t") for line in valid.splitlines()]
    i, k = data.draw(st.integers(1, len(rows) - 1)), data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][k] = data.draw(st.sampled_from([row[k] for row in rows[1:]]))
    swapped = "".join("\t".join(row) + "\n" for row in rows)  # one cell holds another row's value of its column
    text = data.draw(st.one_of(st.just(mutated), st.just(swapped), FUZZ_TEXT))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's warnings do not reach the user
        before = prefill(Path(tmp), command)
        code, err = exit_code_and_stderr(run_on_files, Path(tmp), command, {**files, name: text})
        assert code == 0 or snapshot(Path(tmp) / "o") == before
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(FAMILY_FILES))
def test_family_designs_run_on_their_valid_files(tmp_path, command):
    """The family GWAS designs fit their valid inputs, so the fuzzed test above
    mutates files that reach a successful fit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_on_files(tmp_path, command, valid_files(command)) == 0
    header, *rows = (tmp_path / "o" / "sumstats.tsv").read_text().splitlines()
    assert header.split("\t")[4:6] == ["BETA", "SE"] and len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows for v in row.split("\t")[4:6])


def test_overflowing_outcome_exits_3(tmp_path, capsys):
    """A data file the fuzzed test above found: one Y of 0.8999999999e199 overflows
    the residual sum of squares, so the covariance is not finite. That is an
    estimation error (exit 3), not an eigensolver traceback."""
    text = VALID_FILES["data"].replace("i0\t-2.1\t", "i0\t0.8999999999e199\t")
    assert text != VALID_FILES["data"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warnings do not reach the user
        with fails_cleanly(tmp_path, "gxe"):
            assert run_on_files(tmp_path, "gxe", {**VALID_FILES, "data": text}) == 3
    err = capsys.readouterr().err
    assert "covariance is not finite" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_oversized_simulate_exits_2(tmp_path, capsys, monkeypatch):
    """A simulate whose founder planes do not fit in memory is a config error
    naming the requested sizes. The allocation failure is stubbed, so the test
    allocates nothing."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    with fails_cleanly(tmp_path, "simulate") as out:
        capsys.readouterr()
        monkeypatch.setattr(cli.genome, "founder_planes", out_of_memory)
        cfg = write_config(tmp_path, "huge.json", {"n": 10**9, "n_snps": 5000})
        assert run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: not enough memory for simulate, n=1000000000, n_snps=5000"]


def test_one_cluster_exits_3(tmp_path, capsys):
    """Cluster SEs on a column with one value leave CR1's G/(G-1) factor
    undefined: an estimation error (exit 3) that names the cluster count."""
    header, *rows = VALID_FILES["data"].splitlines()  # MoB, the last column, set to 0 in every row
    text = header + "\n" + "".join(row.rpartition("\t")[0] + "\t0\n" for row in rows)
    with fails_cleanly(tmp_path, "gxe"):
        assert run_on_files(tmp_path, "gxe", {**VALID_FILES, "data": text}, se="cluster", cluster_on="MoB") == 3
    err = capsys.readouterr().err
    assert "cluster SEs need at least two clusters, got 1" in err and "Traceback" not in err


def test_cli_import_leaves_out_scipy_stats():
    """Importing scipy.stats costs a process over half a second and about 40 MiB;
    gxelab's distribution functions come from scipy.special."""
    code = "import sys, gxelab.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
