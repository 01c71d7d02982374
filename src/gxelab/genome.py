"""Genome simulation: founder haplotypes with block LD, Mendelian transmission,
mating, allele frequencies and principal components.

Panel: the SNP metadata as columns (ids, chrom, pos, maf, block), checked once
when built; consumers read its arrays (block starts/stops and sizes, the
MAF-implied dosage SD, an id -> column lookup) and never re-check it.

Layout: a GenotypeMatrix holds two strand planes, one contiguous (2, n, J) uint8
array of 0/1 alleles (msprime/tskit's haplotype-matrix convention); the dosage
is the sum of the planes. founder_planes and transmit_planes draw and transmit
planes without ids; simulate_founders and transmit wrap them with ids.

LD model: the blocks are the panel's (Panel.block) and one float rho in [0, 1)
sets the LD within them. Within each block the two haplotypes of an individual
are independent thresholded latent Gaussian AR(1) processes; the latent
correlation between SNPs at distance d within a block is rho**d, and blocks are
independent (free recombination between blocks, none within).

Genotype TSV: a header `iid` + SNP ids, then one row per individual whose
dosage cells are each exactly one character, 0, 1 or 2. Phase is not stored:
reading rebuilds strand planes (d >= 1, d == 2) from the dosages. The reader
never splits a valid row into cells: it cuts each row at its first tab and
decodes the remainders of all rows as one byte block of (tab, digit) pairs,
checked by one vectorized test. Only when the test fails is a row split into
cells: the first failing one, to name its first bad cell.
"""

from __future__ import annotations

import copy
import graphlib
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy.linalg import eigh
from scipy.special import ndtri

from .regress import RANK_RTOL
from .util import (CalibrationError, ConfigError, PedigreeError, Seed, Stream, check_widths, child_rng, fmt_float,
                   indexed_map, parse_column, raw_bytes, read_lines, read_tsv, write_tsv)

DOSAGE_CELLS = frozenset("012")
TAB_ZERO = ord("\t") << 8 | ord("0")


def _raise_first(bad: np.ndarray, messages) -> None:
    """ConfigError for the first column of bad (rules x rows) that fails a rule,
    with messages(row)[its first failing rule]."""
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        raise ConfigError(messages(i)[bad[:, i].argmax()])


class Panel:
    """SNP metadata as columns, as in a PLINK .bim: ids (list of str) and
    read-only arrays chrom, pos, block (int64) and maf (float64). The
    constructor checks them once and names the first failing row (_check),
    then rejects a repeated id. It derives the LD blocks' start/stop arrays
    and sizes, the MAF-implied dosage SD and an id -> column lookup.
    """

    def __init__(self, ids, chrom, pos, maf, block):
        self.ids = list(ids)
        self.chrom, self.pos, self.block = (np.array(a, dtype=np.int64) for a in (chrom, pos, block))
        self.maf = np.array(maf, dtype=np.float64)
        if not len(self.ids) == len(self.chrom) == len(self.pos) == len(self.maf) == len(self.block):
            raise ConfigError("panel columns differ in length")
        self._check()
        self._column = dict(zip(self.ids, range(len(self.ids))))  # a repeated id maps to its last row
        _raise_first(self.columns(self.ids)[None] != np.arange(len(self)), lambda i: [f"SNP id {self.ids[i]!r} is repeated"])
        self.starts = np.flatnonzero(np.diff(self.block, prepend=self.block[:1] - 1))
        self.block_sizes = np.diff(np.append(self.starts, len(self)))
        self.stops = self.starts + self.block_sizes
        self.sd = np.sqrt(2 * self.maf * (1 - self.maf))  # MAF-implied dosage SD, not the sample SD
        for a in (self.chrom, self.pos, self.maf, self.block, self.starts, self.stops, self.block_sizes, self.sd):
            a.setflags(write=False)

    def _check(self) -> None:
        """Chromosome in 1-22, then MAF in (0, 0.5], over all rows; then in one
        pass, row by row: a duplicate (chromosome, position), a position not
        above the last one on its chromosome, a block that spans chromosomes,
        a block that is not contiguous. Each rule is a mask of failing rows,
        exact for every row up to the first failure."""
        c, p, b, ids = self.chrom, self.pos, self.block, self.ids
        _raise_first(np.stack([(c < 1) | (c > 22), ~((self.maf > 0.0) & (self.maf <= 0.5))]), lambda i: [
            f"SNP {ids[i]}: chromosome {c[i]} outside 1-22", f"SNP {ids[i]}: maf {self.maf[i].item()} outside (0, 0.5]"])
        row = np.arange(len(self))
        _, first, inverse = np.unique(np.stack([c, p], axis=1), axis=0, return_index=True, return_inverse=True)
        duplicate = first[inverse] < row  # an earlier row holds the same site
        by_chrom = np.argsort(c, kind="stable")  # each row right after the last earlier row of its chromosome
        not_increasing = np.zeros(len(self), dtype=bool)
        not_increasing[by_chrom[1:]] = (c[by_chrom[1:]] == c[by_chrom[:-1]]) & (p[by_chrom[1:]] <= p[by_chrom[:-1]])
        _, first, inverse = np.unique(b, return_index=True, return_inverse=True)
        first_row = first[inverse]  # the first row of each row's block
        # while every earlier row passes, the latest new block is the previous row's
        _raise_first(np.stack([duplicate, not_increasing, c[first_row] != c, (first_row < row) & (b != np.roll(b, 1))]),
                     lambda i: [f"duplicate (chromosome, position) {(int(c[i]), int(p[i]))}",
                                f"positions not strictly increasing on chromosome {c[i]} at {ids[i]}",
                                f"block {b[i]} spans chromosomes", f"block {b[i]} is not contiguous in panel order"])

    def __len__(self) -> int:
        return len(self.ids)

    def with_maf(self, maf) -> "Panel":
        """The same SNPs with other MAFs. Only the MAF rule is checked: the rest
        of the panel was checked when it was built."""
        panel = copy.copy(self)
        panel.maf = np.array(np.broadcast_to(maf, self.maf.shape), dtype=np.float64)
        _raise_first(~((panel.maf > 0.0) & (panel.maf <= 0.5))[None],
                     lambda i: [f"SNP {self.ids[i]}: maf {panel.maf[i].item()} outside (0, 0.5]"])
        panel.sd = np.sqrt(2 * panel.maf * (1 - panel.maf))
        panel.maf.setflags(write=False)
        panel.sd.setflags(write=False)
        return panel

    def __eq__(self, other) -> bool:
        return isinstance(other, Panel) and self.ids == other.ids and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("chrom", "pos", "maf", "block"))

    def columns(self, ids, what: str = "SNPs") -> np.ndarray:
        """The panel columns of the given SNP ids; ConfigError naming those absent from the panel."""
        try:
            return np.fromiter(map(self._column.__getitem__, ids), dtype=np.intp, count=len(ids))
        except KeyError:
            missing = [i for i in ids if i not in self._column]
            raise ConfigError(f"{what} absent from the panel: {missing[:5]}") from None


class GenotypeMatrix:
    """Individuals x SNPs genotypes held as two strand planes.

    planes: contiguous (2, n, n_snps) uint8 array of 0/1 alleles, one plane
    per strand (maternal, paternal for transmitted genotypes); the dosage is
    planes[0] + planes[1]. The panel is held by reference, not copied. The id
    index is built on the first index_of.
    """

    def __init__(self, ids: list[str], panel: Panel, planes: np.ndarray):
        planes = np.ascontiguousarray(planes, dtype=np.uint8)
        if planes.ndim != 3 or planes.shape[0] != 2:
            raise ConfigError("planes must have shape (2, n, n_snps)")
        if planes.shape[1] != len(ids) or planes.shape[2] != len(panel):
            raise ConfigError("plane shape inconsistent with ids/panel")
        if planes.max(initial=0) > 1:
            raise ConfigError("strand entries must be 0/1")
        self.ids = list(ids)
        self.panel = panel
        self.planes = planes
        self._dosages: np.ndarray | None = None
        self._index: dict[str, int] | None = None

    @property
    def n_individuals(self) -> int:
        return self.planes.shape[1]

    @property
    def n_snps(self) -> int:
        return self.planes.shape[2]

    @property
    def dosages(self) -> np.ndarray:
        if self._dosages is None:
            self._dosages = np.add(self.planes[0], self.planes[1], dtype=np.int8)
        return self._dosages

    def index_of(self, ids: list[str]) -> np.ndarray:
        if self._index is None:
            self._index = {iid: i for i, iid in enumerate(self.ids)}
        try:
            return np.array([self._index[i] for i in ids], dtype=np.intp)
        except KeyError as e:
            raise PedigreeError(f"unknown individual id {e.args[0]!r}") from None

    def subset(self, ids: list[str]) -> "GenotypeMatrix":
        return GenotypeMatrix(ids, self.panel, self.planes[:, self.index_of(ids)])


@dataclass
class Pedigree:
    child_ids: list[str]
    mother_ids: list[str]
    father_ids: list[str]
    family_ids: list[str]
    design: str = "trios"  # founders | trios | sibling-pairs

    def __post_init__(self):
        n = len(self.child_ids)
        if not (len(self.mother_ids) == len(self.father_ids) == len(self.family_ids) == n):
            raise PedigreeError("pedigree column lengths differ")
        for c, m, f in zip(self.child_ids, self.mother_ids, self.father_ids):
            if m == f:
                raise PedigreeError(f"child {c}: mother equals father ({m})")
        self._check_acyclic()
        if self.design == "sibling-pairs":
            fams: dict[str, list[int]] = {}
            for i, fam in enumerate(self.family_ids):
                fams.setdefault(fam, []).append(i)
            for fam, rows in fams.items():
                if len(rows) != 2:
                    raise PedigreeError(f"family {fam}: sibling-pairs design needs exactly two children")
                a, b = rows
                if (self.mother_ids[a], self.father_ids[a]) != (self.mother_ids[b], self.father_ids[b]):
                    raise PedigreeError(f"family {fam}: siblings have different parents")

    def _check_acyclic(self) -> None:
        if len(set(self.child_ids)) < len(self.child_ids):
            repeated = next(c for c, k in Counter(self.child_ids).items() if k > 1)
            raise PedigreeError(f"child id {repeated!r} is repeated")
        # only a child who is also a parent can lie on a cycle (shared ancestry is not one); the graph
        # keeps pedigree row order, so which individual is named does not depend on hash order
        is_parent = set(self.mother_ids) | set(self.father_ids)
        graph = {c: (m, f) for c, m, f in zip(self.child_ids, self.mother_ids, self.father_ids) if c in is_parent}
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as e:
            raise PedigreeError(f"individual {e.args[1][0]} is its own ancestor") from None


def allele_thresholds(maf: np.ndarray) -> np.ndarray:
    """uint16 thr = max(round(maf * 2**16), 1): a 16-bit uniform is below thr with probability thr / 2**16,
    within 2**-17 of a maf in [2**-17, 0.5]; a smaller maf becomes 2**-16, so no SNP lacks its allele."""
    return np.maximum(np.rint(maf * 2**16), 1).astype(np.uint16)


def founder_planes(panel: Panel, rho: float, n: int, seed: Seed, threads: int = 1) -> np.ndarray:
    """Founder strand planes (2, n, J) uint8: Bernoulli(maf) marginals, AR(1)-threshold LD
    of within-block correlation rho in the panel's blocks.

    Each block draws from its own stream (FOUNDERS, block), so results do not
    depend on scheduling. With rho = 0 an allele is 1 where a 16-bit uniform from
    the raw PCG64 words (util.raw_bytes) is below allele_thresholds(maf).
    """
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho {rho} outside [0, 1)")
    if n < 1:
        raise ConfigError("n must be >= 1")

    if rho == 0.0:
        # SNPs are independent: 16-bit uniforms in plane order; chunks of 4m rows take whole words, as one draw would
        rng, thr = child_rng(seed, Stream.FOUNDERS, 0), allele_thresholds(panel.maf)
        rows = np.empty((2 * n, len(panel)), dtype=np.uint8)
        step = 4 * max(1, 2**20 // len(panel))  # rows per chunk of about 2**22 uniforms (8 MiB)
        for chunk in np.split(rows, range(step, 2 * n, step)):
            np.less(raw_bytes(rng, 2 * chunk.size).view("<u2").reshape(chunk.shape), thr, out=chunk.view(bool))
        return rows.reshape(2, n, len(panel))

    thresholds = ndtri(panel.maf)

    def sim_block(b: int) -> np.ndarray:
        start, stop = panel.starts[b], panel.stops[b]
        length = stop - start
        rng = child_rng(seed, Stream.FOUNDERS, b)
        z = rng.standard_normal((2 * n, length))
        scale = np.sqrt(1.0 - rho * rho)
        for j in range(1, length):
            z[:, j] = rho * z[:, j - 1] + scale * z[:, j]
        return (z < thresholds[start:stop]).reshape(n, 2, length).transpose(1, 0, 2)

    return np.concatenate(indexed_map(sim_block, len(panel.starts), threads), axis=2, dtype=np.uint8)


def simulate_founders(panel: Panel, rho: float, n: int, seed: Seed, threads: int = 1) -> GenotypeMatrix:
    """founder_planes as a GenotypeMatrix with ids f0..f{n-1}; the planes come first, so an
    oversized n fails in their allocation."""
    planes = founder_planes(panel, rho, n, seed, threads)
    return GenotypeMatrix([f"f{i}" for i in range(n)], panel, planes)


def transmit_planes(parents: np.ndarray, panel: Panel, seed: Seed) -> np.ndarray:
    """Mendelian transmission: child planes (2, n, J) from parents (2, 2, n, J), the strand planes of each
    child's mother (parents[:, 0]) and father (parents[:, 1]). One gamete per parent, whole haplotypes per LD
    block: with c = 1 where a block's strand 1 is chosen, each child strand is s0 ^ (c & (s0 ^ s1)). The
    choices c (2, n, n_blocks) are the bits of raw PCG64 words (util.raw_bytes), least significant first."""
    n_blocks = len(panel.block_sizes)
    bits = 2 * parents.shape[2] * n_blocks
    c = np.unpackbits(raw_bytes(child_rng(seed, Stream.TRANSMISSION), -(-bits // 8)), count=bits, bitorder="little")
    c = c.reshape(2, parents.shape[2], n_blocks)
    if n_blocks < len(panel):  # one choice per block, repeated over its SNPs
        c = np.take(c, np.repeat(np.arange(n_blocks), panel.block_sizes), axis=2)
    s0, s1 = parents
    child = s0 ^ s1
    child &= c
    child ^= s0
    return child


def transmit(parents: GenotypeMatrix, pedigree: Pedigree, seed: Seed) -> GenotypeMatrix:
    """transmit_planes by pedigree ids: the child's strand plane 0 comes from the
    mother, plane 1 from the father."""
    idx = np.stack([parents.index_of(pedigree.mother_ids), parents.index_of(pedigree.father_ids)])
    children = transmit_planes(parents.planes[:, idx], parents.panel, seed)
    return GenotypeMatrix(pedigree.child_ids, parents.panel, children)


def assortative_pairs(
    phenotype: np.ndarray,
    target_corr: float,
    seed: Seed,
) -> list[tuple[int, int]]:
    """Pair the first half of candidates with the second half by noisy rank
    matching on phenotype, calibrated to the target cross-partner correlation;
    a target of 0 is random mating.

    Returns (mother_index, father_index) pairs into the input vector.
    """
    phenotype = np.asarray(phenotype, dtype=float)
    n = phenotype.shape[0]
    if n % 2 != 0 or n < 4:
        raise ConfigError("need an even number (>= 4) of candidates")
    if not (0.0 <= target_corr <= 1.0):
        raise ConfigError("target_corr must be in [0, 1]")
    half = n // 2
    a_idx = np.arange(half)
    b_idx = np.arange(half, n)
    pa, pb = phenotype[a_idx], phenotype[b_idx]
    if target_corr == 0.0:
        return list(zip(a_idx, b_idx[child_rng(seed, Stream.MATING).permutation(half)]))
    if pa.std() == 0.0 or pb.std() == 0.0:
        raise CalibrationError("degenerate phenotype variance; target correlation unreachable")
    za = (pa - pa.mean()) / pa.std()
    zb = (pb - pb.mean()) / pb.std()
    rng = child_rng(seed, Stream.MATING)
    ea = rng.standard_normal(half)
    eb = rng.standard_normal(half)

    def realized(s: float) -> tuple[float, np.ndarray, np.ndarray]:
        oa = np.argsort(za + s * ea, kind="stable")
        ob = np.argsort(zb + s * eb, kind="stable")
        r = np.corrcoef(pa[oa], pb[ob])[0, 1]
        return r, oa, ob

    if target_corr >= 1.0:
        s = 0.0
    else:
        lo, hi = 0.0, 1.0
        while realized(hi)[0] > target_corr:
            hi *= 2.0
            if hi > 1e6:
                raise CalibrationError("noisy rank matching cannot reach the target correlation")
        for _ in range(60):
            s = 0.5 * (lo + hi)
            r, _, _ = realized(s)
            if abs(r - target_corr) < 1e-3:
                break
            if r > target_corr:
                lo = s
            else:
                hi = s
    r, oa, ob = realized(s)
    if abs(r - target_corr) > 0.05:
        raise CalibrationError(f"calibrated correlation {r:.3f} misses target {target_corr:.3f}")
    return list(zip(a_idx[oa], b_idx[ob]))


def allele_frequencies(g: GenotypeMatrix) -> np.ndarray:
    """Mean dosage / 2 per SNP, in [0, 1]."""
    return g.dosages.mean(axis=0) / 2.0


def principal_components(g: GenotypeMatrix, k: int) -> np.ndarray:
    """Top-k eigenvectors of the Gram matrix of column-standardized dosages,
    ordered by descending eigenvalue, sign fixed so the largest-magnitude
    entry of each component is positive. Zero-variance SNPs are excluded
    (with a warning). Only the top k eigenpairs of the smaller cross-product
    are computed (LAPACK evr): x x' when n <= J, else x'x with the components
    mapped back as x v, so a tall panel's n x n Gram matrix is never formed.
    A k beyond the rank (k-th eigenvalue <= RANK_RTOL * the largest) raises ConfigError."""
    d = g.dosages
    mu = d.mean(axis=0)
    sd = d.std(axis=0)
    keep = sd > 0.0
    if not keep.all():
        warnings.warn(f"excluding {(~keep).sum()} zero-variance SNPs: {list(compress(g.panel.ids, ~keep))[:10]}")
        d, mu, sd = d[:, keep], mu[keep], sd[keep]
    x = d - mu
    x /= sd
    if not 0 < k <= (m := min(x.shape)):
        raise ConfigError(f"k={k} outside 1..min(n_individuals, n_snps)={m}")
    wide = len(x) == m
    evals, evecs = eigh(x @ x.T if wide else x.T @ x, subset_by_index=[m - k, m - 1], driver="evr",
                        overwrite_a=True, check_finite=False)
    if evals[0] <= RANK_RTOL * evals[-1]:
        raise ConfigError(f"k={k} exceeds the rank of the standardized genotypes")
    u = np.ascontiguousarray(evecs[:, ::-1])
    if not wide:
        u = x @ u
        u /= np.linalg.norm(u, axis=0)
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(k)])
    return u


# ---------------------------------------------------------------------------
# Panel construction and file formats
# ---------------------------------------------------------------------------

def build_panel(block_sizes: list[int], mafs: np.ndarray) -> Panel:
    """A chromosome-1 panel with the given block structure and MAFs: SNP j
    is rs{j} at position (j + 1) * 1000."""
    total = sum(block_sizes)
    return Panel(list(map("rs{}".format, range(total))), np.full(total, 1), np.arange(1, total + 1) * 1000,
                 np.broadcast_to(np.asarray(mafs, dtype=float), (total,)), np.repeat(np.arange(len(block_sizes)), block_sizes))


def random_panel(n_snps: int, block_size: int, seed: Seed, maf_range: tuple[float, float] = (0.05, 0.5)) -> Panel:
    """n_snps SNPs in blocks of block_size (the last block takes the remainder),
    MAFs uniform on maf_range."""
    if n_snps < 1 or block_size < 1:
        raise ConfigError(f"n_snps and block_size must be >= 1, got {n_snps} and {block_size}")
    mafs = child_rng(seed, Stream.PANEL).uniform(maf_range[0], maf_range[1], size=n_snps)
    sizes = [block_size] * (n_snps // block_size)
    if n_snps % block_size:
        sizes.append(n_snps % block_size)
    return build_panel(sizes, mafs)


def write_genotypes_tsv(path: str, g: GenotypeMatrix) -> None:
    cells = np.full((g.n_individuals, 2 * g.n_snps), ord("\t"), dtype=np.uint8)  # a tab before each digit
    cells[:, 1::2] = g.dosages + ord("0")
    write_tsv(path, ["iid", *g.panel.ids], ((i + c.tobytes().decode(),) for i, c in zip(g.ids, cells)))


def read_genotypes_tsv(path: str, panel: Panel) -> GenotypeMatrix:
    """Checks in order: row widths, header, at least one individual, unique ids,
    then every dosage cell is exactly 0, 1 or 2. The cells after each id are
    decoded as one byte block of n x J (tab, digit) pairs."""
    lines = read_lines(path)
    header = lines[0].split("\t")
    rows = lines[1:]
    check_widths(path, (ln.count("\t") + 1 for ln in rows), len(header))
    if header[0] != "iid" or header[1:] != panel.ids:
        raise ConfigError(f"the header of {path} does not match the panel")
    if not rows:
        raise ConfigError(f"{path} has a header but no individuals")
    ids = [ln.partition("\t")[0] for ln in rows]
    repeated = [i for i, k in Counter(ids).items() if k > 1]
    if repeated:
        raise ConfigError(f"individual id {repeated[0]!r} is repeated in {path}")
    cells = [ln[len(i):] for ln, i in zip(rows, ids)]  # "\tc1\tc2..." with J tabs each
    block = "".join(cells).encode()
    if len(block) == len(rows) * 2 * len(panel):
        # each (tab, cell) byte pair as one big-endian uint16 minus that of (tab, "0"): the dosage if valid
        d = np.frombuffer(block, dtype=">u2").reshape(len(rows), len(panel)) - np.uint16(TAB_ZERO)
        if (d <= 2).all():
            return GenotypeMatrix(ids, panel, np.stack([d >= 1, d == 2]))
    # a row with J tabs is valid iff it has 2J characters and each odd-indexed one is 0, 1 or 2
    bad_row = next(c for c in cells if len(c) != 2 * len(panel) or not set(c[1::2]) <= DOSAGE_CELLS)
    k, cell = next((k, v) for k, v in enumerate(bad_row.split("\t")[1:]) if v not in DOSAGE_CELLS)
    raise ConfigError(f"column {header[1 + k]!r} of {path} holds {cell!r}, not a dosage 0, 1 or 2")


def write_panel_tsv(path: str, panel: Panel) -> None:
    write_tsv(path, ["id", "chrom", "pos", "maf", "block"], zip(
        panel.ids, panel.chrom.tolist(), panel.pos.tolist(), map(fmt_float, panel.maf.tolist()), panel.block.tolist()))


def read_panel_tsv(path: str) -> Panel:
    """A panel file; an error from the header or a panel rule is prefixed with the path."""
    header, rows = read_tsv(path)
    if header != ["id", "chrom", "pos", "maf", "block"]:
        raise ConfigError(f"{path}: panel file header must be: id chrom pos maf block")
    cols = [parse_column(path, header[j], [r[j] for r in rows], typ) for j, typ in enumerate((int, int, float, int), 1)]
    try:
        return Panel([r[0] for r in rows], *cols)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def write_pedigree_tsv(path: str, ped: Pedigree) -> None:
    write_tsv(path, ["child", "mother", "father", "family"],
              zip(ped.child_ids, ped.mother_ids, ped.father_ids, ped.family_ids))


def read_pedigree_tsv(path: str, design: str = "trios") -> Pedigree:
    header, rows = read_tsv(path)
    if header != ["child", "mother", "father", "family"]:
        raise ConfigError(f"{path}: pedigree file header must be: child mother father family")
    try:
        return Pedigree(*([r[j] for r in rows] for j in range(4)), design=design)
    except PedigreeError as e:
        raise PedigreeError(f"{path}: {e}") from None
