"""Span recorder for the traced run.

`Tracer.install()` wraps the public functions listed in LAYER_FUNCTIONS in
every gxelab module namespace that holds them (callers bind some of them at
import, e.g. `biaslab` imports `simulate_scenario`), and the constructors of
the validated classes. Each call records one span: name, start, end, parent
span and thread. Parents come from a per-thread stack, so spans opened in the
worker threads of `--threads N` get the right parent on their own thread.
Spans stay in memory; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _path_mib(args, kwargs, result):
    return {"mib": os.path.getsize(args[0]) / 2**20}


def _leads(args, kwargs, result):
    return {"leads": len(result.leads)}


def _rows(args, kwargs, result):
    y = np.asarray(args[0])
    return {"rows": y.shape[0] * y.shape[1]}


def _replicates(args, kwargs, result):
    return {"replicates": result.reps + result.n_failed, "failed": result.n_failed}


# (module, attribute, counter): a counter turns (args, kwargs, result) into
# per-call counts that are summed per pass. Every span also counts `calls`.
LAYER_FUNCTIONS = [
    ("genome", "simulate_founders", None),
    ("genome", "transmit", None),
    ("genome", "Pedigree.__init__", None),
    ("genome", "GenotypeMatrix.__init__", None),
    ("genome", "write_genotypes_tsv", _path_mib),
    ("genome", "read_genotypes_tsv", None),
    ("genome", "principal_components", None),
    ("phenosim", "simulate_trait", None),
    ("phenosim", "simulate_family_outcome", None),
    ("phenosim", "simulate_scenario", None),
    ("phenosim", "theoretical_standardize", None),
    ("gwas", "run_gwas", None),
    ("gwas", "run_sibling_gwas", None),
    ("gwas", "run_trio_gwas", None),
    ("gwas", "clump", _leads),
    ("gwas", "write_sumstats_tsv", None),
    ("gwas", "read_sumstats_tsv", None),
    ("pgi", "build_pgi", None),
    ("gxe", "fit_gxe", None),
    ("gxe", "fit_rdd_gxe", None),
    ("regress", "ols", None),
    ("regress", "batched_ols_hc1", _rows),
    ("inference", "power_curve", None),
    ("inference", "mde", None),
    ("inference", "power_simulate", None),
    ("inference", "permutation_test", None),
    ("biaslab", "run_cell", _replicates),
    ("cli", "main", None),
    ("util", "write_tsv", None),
    ("util", "read_tsv", None),
]


# Metrics reported per span name besides self_s (default: self_s alone).
LAYER_METRICS = {
    "genome.write_genotypes_tsv": {"self_s": "s", "mib": "MiB"},
    "gwas.clump": {"self_s": "s", "leads": "count"},
    "pgi.build_pgi": {"self_s": "s", "calls": "count"},
    "gxe.fit_gxe": {"self_s": "s", "calls": "count"},
    "regress.ols": {"self_s": "s", "calls": "count"},
    "regress.batched_ols_hc1": {"self_s": "s", "rows": "count"},
    "inference.power_simulate": {"self_s": "s", "calls": "count"},
    "biaslab.run_cell": {"self_s": "s", "replicates": "count", "failed": "count"},
}


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.removesuffix('.__init__')}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident())
            with lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("gxelab.")]
        for module, attribute, counter in LAYER_FUNCTIONS:
            owner = sys.modules[f"gxelab.{module}"]
            name = span_name(module, attribute)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.
        Children share their parent's thread and nest inside it."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and summed counts."""
        totals: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += own
            for key, value in s.counts.items():
                t[key] = t.get(key, 0) + value
        return totals

    def tree(self) -> dict[str, dict[str, float]]:
        """Span tree aggregated by call path ("cli.main/gwas.run_gwas/...")."""
        paths: list[str] = []
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            path = s.name if s.parent is None else f"{paths[s.parent]}/{s.name}"
            paths.append(path)
            node = out.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            node["calls"] += 1
            node["total_s"] += s.end - s.start
            node["self_s"] += own
        return out

    def to_json(self) -> dict:
        return {"spans": [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                           "thread": s.thread, **s.counts} for s in self.spans],
                "tree": self.tree()}


def format_tree(tree: dict[str, dict[str, float]], passes: int) -> str:
    """The aggregated span tree, per traced pass, one path per line."""
    lines = [f"span tree per traced pass ({passes} traced): calls, total s, self s"]
    for path in sorted(tree):
        node = tree[path]
        depth = path.count("/")
        lines.append(f"{'  ' * depth}{path.rsplit('/', 1)[-1]:<{44 - 2 * depth}} {node['calls'] / passes:9.1f}"
                     f" {node['total_s'] / passes:9.3f} {node['self_s'] / passes:9.3f}")
    return "\n".join(lines)
