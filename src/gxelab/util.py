"""Shared plumbing: seed derivation, deterministic parallel maps, file IO."""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or inconsistent inputs."""


class PedigreeError(ValueError):
    """Unresolvable parent/child relations."""


class EstimationError(RuntimeError):
    """A regression could not be run as requested (rank deficiency etc.)."""


class SimulationError(RuntimeError):
    """A simulation contract was violated (rejection cap etc.)."""


class CalibrationError(RuntimeError):
    """A target moment could not be matched (degenerate inputs, unreachable)."""


def child_rng(master_seed: int, *unit: int) -> np.random.Generator:
    """RNG stream derived from (master_seed, unit ids).

    Streams depend only on the key, not on draw order elsewhere, so work can be
    scheduled on any number of threads without changing results.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(u) for u in unit))
    return np.random.default_rng(ss)


def indexed_map(fn: Callable[[int], object], n_units: int, threads: int = 1) -> list:
    """Run fn(i) for i in range(n_units), results in index order.

    fn must derive any randomness from its index (see child_rng); then the
    output is identical for any thread count.
    """
    if threads <= 1 or n_units <= 1:
        return [fn(i) for i in range(n_units)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_units)))


def fmt_float(x: float) -> str:
    """Serialize a float with 10 significant digits (stable TSV output)."""
    if np.isnan(x):
        return "nan"
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


def read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a tab-separated file; blank lines are skipped.
    Raises ConfigError on an empty file or a row whose width differs from
    the header's."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigError(f"{path}: data row {i + 1} has {len(row)} fields, the header has {len(header)}")
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
