"""Random streams: every generator is keyed by (seed, tag, index) and no key
is drawn twice."""

import json

import numpy as np
import pytest

from gxelab import biaslab, cli, genome, phenosim


@pytest.fixture
def drawn_keys(monkeypatch):
    """Every seed handed to np.random.default_rng while the test runs."""
    seen = []
    make = np.random.default_rng

    def recording(seed=None):
        seen.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seen


def key(ss):
    return ss.entropy, tuple(ss.spawn_key)


def test_no_stream_is_drawn_twice(tmp_path, drawn_keys):
    # 13 LD blocks with rho > 0, a trait and a 2-replicate bias table under one master seed
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 30, "n_snps": 65, "design": "trios", "block_size": 5, "rho": 0.5, "h2": 0.3}))
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "sim")]) == 0
    n_simulate = len(drawn_keys)
    base = phenosim.ScenarioSpec(g_regime="trio_pgi_family_controls", e_regime="exogenous", eta_m=0.2, eta_f=0.2)
    biaslab.run_table(base, reps=2, seed=5, sizes=phenosim.CohortSizes(n_discovery=20, n_analysis=200, n_snps=20))
    keys = [key(ss) for ss in drawn_keys]
    repeated = {k for k in keys if keys.count(k) > 1}
    assert not repeated
    # each replicate of each cell draws exactly its scenario, scenario panel, analysis-cohort founders and
    # transmission (plim mode draws no discovery cohort)
    assert len(keys) - n_simulate == 9 * 2 * 4


def test_every_spawn_key_is_a_chain_of_stream_groups(tmp_path, drawn_keys):
    from gxelab.util import Stream

    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 20, "n_snps": 12, "design": "sibling-pairs", "block_size": 4, "rho": 0.3,
                               "h2": 0.4, "gamma": 0.2}))
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
    spec = phenosim.ScenarioSpec(g_regime="regular_pgi_no_family", e_regime="endogenous_gwas_selection")
    biaslab.gwas_selection_experiment(spec, reps=2, seed=3, sizes=phenosim.CohortSizes(40, 200, 20))
    biaslab.noisy_environment_experiment(0.5, 0.2, 0.8, n=100, reps=2, seed=3)
    assert drawn_keys
    for ss in drawn_keys:
        assert isinstance(ss, np.random.SeedSequence) and ss.entropy == 3
        rest = list(ss.spawn_key)
        while rest:
            tag = Stream(rest[0])  # a ValueError here is a key that does not start with a registered tag
            assert len(rest) > tag.arity
            rest = rest[1 + tag.arity:]


def test_trait_effects_are_not_founder_latent_draws(drawn_keys):
    # seed 5, 50 blocks of 10, 200 causal SNPs: the trait architecture once
    # replayed LD block 11's latent Gaussians
    panel = genome.random_panel(500, 10, seed=5)
    n = 100
    drawn_keys.clear()
    genome.simulate_founders(panel, 0.8, n, seed=5)
    block_streams = list(drawn_keys)
    assert len(block_streams) == 50
    effects = phenosim.TraitArchitecture.random(panel, 200, 0.4, seed=5).effects
    ratios = np.round(effects[1:] / effects[:-1], 9)  # scale-free: effects are normalized draws
    for ss in block_streams:
        z = np.random.Generator(np.random.PCG64(ss)).standard_normal((2 * n, 10)).ravel()
        assert not np.isin(ratios, np.round(z[1:] / z[:-1], 9)).any()


def test_substream_appends_a_group_and_checks_its_arity():
    from gxelab.util import Stream, child_rng, substream

    cell = substream(7, Stream.BIAS_CELL, 1, 2)
    rep = substream(cell, Stream.CELL_REPLICATE, 3)
    assert (rep.entropy, rep.spawn_key) == (7, (Stream.BIAS_CELL, 1, 2, Stream.CELL_REPLICATE, 3))
    assert np.array_equal(child_rng(cell, Stream.CELL_REPLICATE, 3).random(4),
                          np.random.default_rng(np.random.SeedSequence(7, spawn_key=(13, 1, 2, 14, 3))).random(4))
    for bad in [(11,), (Stream.POWER,), (Stream.PANEL, 0), (Stream.BIAS_CELL, 1)]:
        with pytest.raises(TypeError):
            substream(7, *bad)
