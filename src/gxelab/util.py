"""Shared plumbing: random streams, deterministic parallel maps (indexed_map, chunk_map), the
failed-replicate rule (check_failures), file IO.

Random streams follow one key rule. Every generator is child_rng(seed, stream,
*index): a numpy SeedSequence whose entropy is the master seed and whose spawn
key is (stream, *index). The tag comes first and is a member of the Stream
registry, and each tag takes a fixed number of index values. A function that
runs more than once under one master seed (a cohort, a bias cell, a
replicate) is handed substream(seed, stream, *index) as its seed, which
appends the group to the spawn key. With fixed arities a key splits back into
its (tag, index...) groups in one way only, so two draw sites share a stream
only if they share a key. Nothing is added to the seed or to the entropy:
numpy zero-pads the entropy, so SeedSequence(5) and SeedSequence([5, 0]) are
one stream, and a seed shifted by one in one call is the seed of another.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from enum import IntEnum, unique
from typing import Callable, Iterable, Sequence, Union

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or inconsistent inputs."""


class DataError(ConfigError):
    """A ConfigError about an input table's rows or columns; the CLI prefixes the table's path."""


class PedigreeError(ConfigError):
    """Unresolvable parent/child relations."""


class EstimationError(RuntimeError):
    """A regression could not be run as requested (rank deficiency etc.)."""


class SimulationError(RuntimeError):
    """A simulation contract was violated (rejection cap etc.)."""


class CalibrationError(SimulationError):
    """A target moment could not be matched (degenerate inputs, unreachable)."""


Seed = Union[int, np.random.SeedSequence]


@unique
class Stream(IntEnum):
    """The registry of draw sites: one tag per site, with its index arity."""

    def __new__(cls, tag: int, arity: int = 0):
        member = int.__new__(cls, tag)
        member._value_ = tag
        member.arity = arity
        return member

    PANEL = 0
    FOUNDERS = 1, 1             # (LD block,); a panel of independent SNPs is block 0
    TRANSMISSION = 2
    STRUCTURAL = 3              # the key (3,) that structural shocks were drawn from before this registry
    TRAIT_ARCHITECTURE = 4
    TRAIT_NOISE = 5
    FAMILY_OUTCOME = 6
    SCENARIO = 7                # a scenario's outcome and environment draws
    SCENARIO_PANEL = 8
    SCENARIO_COHORT = 9, 1      # (cohort,): 0 discovery, 1 analysis
    SPLIT_SAMPLE = 10
    POWER = 11, 1               # (chunk,)
    PERMUTATION = 12, 1         # (chunk,)
    BIAS_CELL = 13, 2           # (row, column) of the bias table
    CELL_REPLICATE = 14, 1      # (replicate,)
    SELECTION_REPLICATE = 15, 1
    NOISE_REPLICATE = 16, 1
    MATING = 17


def substream(seed: Seed, stream: Stream, *index: int) -> np.random.SeedSequence:
    """seed's SeedSequence with (stream, *index) appended to its spawn key."""
    if not isinstance(stream, Stream) or len(index) != stream.arity:
        raise TypeError(f"a spawn key group is a Stream member and as many index values as its arity, got {stream!r}, "
                        f"{index}")
    entropy, key = (seed.entropy, seed.spawn_key) if isinstance(seed, np.random.SeedSequence) else (int(seed), ())
    return np.random.SeedSequence(entropy, spawn_key=(*key, int(stream), *map(int, index)))


def child_rng(seed: Seed, stream: Stream, *index: int) -> np.random.Generator:
    """The generator of key (seed, stream, *index); see the module docstring.

    Streams depend only on the key, not on draw order elsewhere, so work can be
    scheduled on any number of threads without changing results.
    """
    return np.random.default_rng(substream(seed, stream, *index))


def raw_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uint8 bytes from the next ceil(n / 8) raw 64-bit words of rng's bit generator,
    each word read little-endian, so the bytes do not depend on the platform."""
    return rng.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]


def indexed_map(fn: Callable[[int], object], n_units: int, threads: int = 1) -> list:
    """Run fn(i) for i in range(n_units), results in index order.

    fn must derive any randomness from its index (see child_rng); then the
    output is identical for any thread count.
    """
    if threads <= 1 or n_units <= 1:
        return [fn(i) for i in range(n_units)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_units)))


def chunk_map(fit: Callable[[int, int, int], tuple], n: int, chunk: int, threads: int = 1) -> tuple[np.ndarray, ...]:
    """fit(c, lo, hi) on each chunk c = range(lo, hi) of range(n), chunk wide
    (one empty chunk when n is 0), run by indexed_map; the chunks' arrays
    concatenated in order, one per array that fit returns."""
    starts = range(0, max(n, 1), chunk)
    parts = indexed_map(lambda c: fit(c, starts[c], min(starts[c] + chunk, n)), len(starts), threads)
    return tuple(map(np.concatenate, zip(*parts)))


def check_failures(failures: Sequence[str], reps: int) -> None:
    """The failed-replicate rule of every Monte Carlo loop (bias lab, power draw,
    permutation null), whose results read only the fitted replicates: more than
    max(1, 1% of reps) failures, or fewer than two fitted replicates, raise
    SimulationError naming the first failure. failures describes each failed
    replicate, in replicate order."""
    if len(failures) > max(1, int(0.01 * reps)) or reps - len(failures) < 2:
        raise SimulationError(f"{len(failures)}/{reps} replicates failed; the first with {failures[0]}")


def fmt_float(x: float) -> str:
    """Serialize a float with 10 significant digits (stable TSV output); every NaN is `nan`."""
    return f"{x:.10g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tsv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_lines(path: str) -> list[str]:
    """The lines of a text file without their newlines, blank and whitespace-only
    lines skipped. The file is read in text mode, so CRLF and CR end lines too.
    Raises ConfigError when no line is left."""
    with open(path) as f:
        lines = [ln for ln in f.read().split("\n") if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} is empty")
    return lines


def check_widths(path: str, widths: Iterable[int], n_header: int) -> None:
    """ConfigError naming the first data row whose number of fields differs from the header's."""
    for i, k in enumerate(widths):
        if k != n_header:
            raise ConfigError(f"{path}: data row {i + 1} has {k} fields, the header has {n_header}")


def read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a tab-separated file (the lines of read_lines).
    Raises ConfigError on an empty file or a row whose width differs from
    the header's."""
    lines = read_lines(path)
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    check_widths(path, map(len, rows), len(header))
    return header, rows


def parse_column(path: str, name: str, cells: Sequence[str], dtype: type = float) -> np.ndarray:
    """One TSV column as a finite array of dtype (float or int); ConfigError
    naming the file and column on a cell that does not parse or is not finite."""
    try:
        col = np.array([dtype(v) for v in cells], dtype=dtype)
    except (ValueError, OverflowError):
        raise ConfigError(f"column {name!r} of {path} holds a non-numeric value") from None
    if not np.isfinite(col).all():
        raise ConfigError(f"column {name!r} of {path} holds a non-finite value")
    return col


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
