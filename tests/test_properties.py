"""Algebraic invariants checked over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxelab import genome
from gxelab import structural as sm
from gxelab.gwas import result_from_stats, meta_analyze

coef = st.floats(-0.5, 0.5, allow_nan=False)
pos = st.floats(0.6, 2.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(f_x=pos, f_e=coef, f_g=coef, f_xe=coef, f_xg=coef, f_ge=coef,
       k_0=pos, k_e=st.floats(-0.2, 0.2), k_g=st.floats(-0.2, 0.2),
       G=st.floats(-2, 2), E=st.floats(-2, 2))
def test_reduced_form_equals_direct_outcome(f_x, f_e, f_g, f_xe, f_xg, f_ge, k_0, k_e, k_g, G, E):
    p = sm.StructuralParams(f_x, f_e, f_g, f_xe, f_xg, f_ge, k_0, k_e, k_g)
    if p.inverse_cost(G, E) <= 0:
        return
    _, y, _ = sm.produce(p, sm.AgentState(G, E))
    basis = sm.monomial_basis(np.array([G]), np.array([E]))[0]
    assert abs(basis @ sm.reduced_form(p).coefficients() - y) < 1e-9 * max(1.0, abs(y))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_fam=st.integers(2, 12), maf=st.floats(0.05, 0.5))
def test_transmitted_alleles_always_come_from_parents(seed, n_fam, maf):
    panel = genome.build_panel([3, 2], np.full(5, maf))
    ld = genome.LdBlockModel([3, 2], 0.5)
    parents = genome.simulate_founders(panel, ld, 2 * n_fam, seed)
    ped = genome.Pedigree(
        [f"c{i}" for i in range(n_fam)],
        parents.ids[:n_fam], parents.ids[n_fam:],
        [f"fam{i}" for i in range(n_fam)],
    )
    children = genome.transmit(parents, ped, seed + 1)
    assert np.array_equal(children.dosages, children.planes.sum(axis=0))
    dm = parents.dosages[parents.index_of(ped.mother_ids)]
    df = parents.dosages[parents.index_of(ped.father_ids)]
    assert not np.any((dm == 0) & (children.planes[0] == 1))
    assert not np.any((dm == 2) & (children.planes[0] == 0))
    assert not np.any((df == 0) & (children.planes[1] == 1))
    assert not np.any((df == 2) & (children.planes[1] == 0))


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(-2, 2), se=st.floats(0.05, 3.0), copies=st.integers(2, 6))
def test_meta_of_identical_cohorts_scales_se(beta, se, copies):
    panel = genome.build_panel([1], np.array([0.3]))
    r = result_from_stats(panel, np.array([beta]), np.array([se]), 50, "population")
    meta = meta_analyze([r] * copies)
    assert meta.beta[0] == pytest.approx(beta, rel=1e-12, abs=1e-12)
    assert meta.se[0] == pytest.approx(se / np.sqrt(copies), rel=1e-12)
    assert meta.n[0] == 50 * copies
