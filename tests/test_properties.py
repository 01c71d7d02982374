"""Algebraic invariants checked over generated inputs."""

import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gxelab import genome
from gxelab import structural as sm
from gxelab.gwas import result_from_stats, meta_analyze
from gxelab.util import ConfigError, fmt_float

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
    parents = genome.simulate_founders(panel, 0.5, 2 * n_fam, seed)
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


dosage_matrices = arrays(np.int8, st.tuples(st.integers(1, 6), st.integers(0, 6)), elements=st.integers(0, 2))


def reference_genotype_tsv(ids, panel, rows) -> str:
    """The genotype TSV formatted cell by cell."""
    lines = ["\t".join(["iid", *panel.ids])]
    lines += ["\t".join([iid, *map(str, row)]) for iid, row in zip(ids, rows)]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@example(d=np.zeros((2, 0), dtype=np.int8))
@given(d=dosage_matrices)
def test_genotype_tsv_matches_per_cell_reference_and_round_trips(d):
    n, j = d.shape
    panel = genome.build_panel([1] * j, np.full(j, 0.3))
    g = genome.GenotypeMatrix([f"i{i}" for i in range(n)], panel, np.stack([d >= 1, d == 2]))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.tsv")
        genome.write_genotypes_tsv(path, g)
        assert Path(path).read_bytes() == reference_genotype_tsv(g.ids, panel, d).encode()
        back = genome.read_genotypes_tsv(path, panel)
    assert back.ids == g.ids
    assert np.array_equal(back.dosages, d)


@dataclass(frozen=True)
class ReferenceSnp:
    """One panel row, checked alone as the per-SNP panel objects were."""
    id: str
    chromosome: int
    position: int
    maf: float
    block_id: int

    def __post_init__(self):
        if not (1 <= self.chromosome <= 22):
            raise ConfigError(f"SNP {self.id}: chromosome {self.chromosome} outside 1-22")
        if not (0.0 < self.maf <= 0.5):
            raise ConfigError(f"SNP {self.id}: maf {self.maf} outside (0, 0.5]")


def reference_validate_panel(panel: list[ReferenceSnp]) -> None:
    """The panel rules checked row by row, as the per-SNP panel loop did."""
    seen_pos = set()
    last_pos_by_chrom: dict[int, int] = {}
    block_chrom: dict[int, int] = {}
    block_order: list[int] = []
    for s in panel:
        key = (s.chromosome, s.position)
        if key in seen_pos:
            raise ConfigError(f"duplicate (chromosome, position) {key}")
        seen_pos.add(key)
        if s.chromosome in last_pos_by_chrom and s.position <= last_pos_by_chrom[s.chromosome]:
            raise ConfigError(f"positions not strictly increasing on chromosome {s.chromosome} at {s.id}")
        last_pos_by_chrom[s.chromosome] = s.position
        if s.block_id in block_chrom:
            if block_chrom[s.block_id] != s.chromosome:
                raise ConfigError(f"block {s.block_id} spans chromosomes")
            if block_order[-1] != s.block_id:
                raise ConfigError(f"block {s.block_id} is not contiguous in panel order")
        else:
            block_chrom[s.block_id] = s.chromosome
            block_order.append(s.block_id)


def error_of(check) -> str | None:
    try:
        check()
    except ConfigError as e:
        return str(e)
    return None


@st.composite
def small_panels(draw):
    """Rows [id, chrom, pos, maf, block] of a valid panel of up to 8 SNPs on
    chromosomes 1-3, then up to four edits: a bad chromosome or MAF, a
    repeated position, a block id changed (a split or a non-contiguous
    block) and two rows swapped."""
    n = draw(st.integers(0, 8))
    chrom = sorted(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    new_block = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows, block = [], -1
    for i in range(n):
        first_on_chrom = i == 0 or chrom[i] != chrom[i - 1]
        pos = gaps[i] if first_on_chrom else rows[-1][2] + gaps[i]
        block += first_on_chrom or new_block[i]
        rows.append([f"s{i}", chrom[i], pos, 0.3, block])
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["chrom", "maf", "pos", "block", "swap"]))
        if edit == "chrom":
            rows[i][1] = draw(st.sampled_from([0, 23, -1, 1, 2, 4]))
        elif edit == "maf":
            rows[i][3] = draw(st.sampled_from([0.0, -0.1, 0.6, 1e-9, 0.5, float("nan")]))
        elif edit == "pos":
            rows[i][2] = rows[k][2]
        elif edit == "block":
            rows[i][4] = draw(st.integers(0, 4))
        else:
            rows[i], rows[k] = rows[k], rows[i]
    return rows


@settings(max_examples=400, deadline=None)
@example(rows=[])
@example(rows=[["a", 1, 100, 0.3, 0], ["b", 1, 200, 0.3, 1], ["c", 1, 300, 0.3, 0]])
@example(rows=[["a", 1, 100, 0.3, 0], ["b", 2, 100, 0.3, 0]])
@example(rows=[["a", 1, 200, 0.3, 0], ["b", 1, 100, 0.3, 0], ["c", 1, 100, 0.3, 1]])
@given(rows=small_panels())
def test_panel_checks_match_the_per_row_reference(rows):
    expected = error_of(lambda: reference_validate_panel([ReferenceSnp(*r) for r in rows]))
    columns = [list(col) for col in zip(*rows)] if rows else [[]] * 5
    assert error_of(lambda: genome.Panel(*columns)) == expected


not_a_dosage = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n\r")).filter(
    lambda v: v not in ("0", "1", "2"))


@settings(max_examples=60, deadline=None)
@example(d=np.ones((2, 3), dtype=np.int8), cell=(1, 2), bad="01")
@example(d=np.ones((2, 3), dtype=np.int8), cell=(0, 1), bad=" 1")
@example(d=np.ones((2, 3), dtype=np.int8), cell=(1, 0), bad="+1")
@given(d=dosage_matrices.filter(lambda d: d.shape[1] > 0), cell=st.tuples(st.integers(0), st.integers(0)),
       bad=not_a_dosage)
def test_genotype_tsv_rejects_any_other_cell_naming_its_column(d, cell, bad):
    n, j = d.shape
    r, c = cell[0] % n, cell[1] % j
    panel = genome.build_panel([1] * j, np.full(j, 0.3))
    rows = d.astype(str).astype(object)
    rows[r, c] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        path.write_text(reference_genotype_tsv([f"i{i}" for i in range(n)], panel, rows))
        with pytest.raises(ConfigError, match=re.escape(f"column {panel.ids[c]!r} of {path}")):
            genome.read_genotypes_tsv(str(path), panel)


def fmt_float_with_nan_branch(x) -> str:
    """fmt_float's former rule: an explicit np.isnan test, then 10 significant digits."""
    if np.isnan(x):
        return "nan"
    return f"{x:.10g}"


_rng = np.random.default_rng(11)
RANDOM_FLOATS = (_rng.uniform(-1, 1, 16) * 10.0 ** _rng.uniform(-300, 300, 16)).tolist()


@pytest.mark.parametrize("x", [
    float("nan"), np.copysign(np.nan, -1.0), np.float64("nan"), -np.float64("nan"), np.float32("nan"),
    -np.float32("nan"), float("inf"), -float("inf"), np.float32("-inf"), -0.0, np.float64(-0.0), 0.0, 5e-324,
    1.8e308, -1.8e308, np.float32(0.1), np.float32(3.4e38), *RANDOM_FLOATS, *map(np.float64, RANDOM_FLOATS),
])
def test_fmt_float_equals_the_rule_with_a_nan_branch(x):
    assert fmt_float(x) == fmt_float_with_nan_branch(x)
