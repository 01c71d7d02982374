"""gxelab benchmark: runs one workload as a closed loop of in-process CLI calls.

    python3 perfbench/run.py --workload genomics_pipeline --seed 1 --seconds 20 --trace 0

Passes of the workload's operations run back to back until --seconds have
elapsed (at least one pass; two with --trace 1). Every operation's outputs are
then checked against independent computations (checks.py). The last line on
stdout is one JSON object: correct, attempted, failed and the metrics. With
--trace 0 the metrics are setup_s, pass_s and peak_rss_mib; with --trace 1
odd passes run under the span recorder (spans.py) and the metrics are the
per-layer ones. README.md describes workloads, metrics and seeds.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACES = HERE / "traces"
# Repeated from workloads.py for argparse: workloads imports numpy, and
# importing it here would move the numpy import out of the timed set-up.
WORKLOADS = ("genomics_pipeline", "inference_and_bias")
SETUP_SAMPLES = 5
GXELAB_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload: str, seed: int, inputs: Path) -> float:
    """Import gxelab and write the workload's configs and inputs. The caller
    must not have imported numpy yet, so the import is counted here."""
    t0 = time.perf_counter()
    import gxelab.cli  # noqa: F401
    import workloads
    workloads.WORKLOADS[workload].setup(inputs, seed)
    return time.perf_counter() - t0


def setup_in_subprocess(workload: str, seed: int, inputs: Path) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--setup-only", str(inputs)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


@dataclass
class OpRun:
    name: str
    wall: float
    cpu: float
    error: str | None
    check: Callable[[], None] | None = None


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    ops: list[OpRun] = field(default_factory=list)


def run_op(cli, op) -> OpRun:
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(op.argv)
        error = None if rc == 0 else f"exit code {rc}"
    except (Exception, SystemExit) as e:  # the loop records the failure and goes on
        traceback.print_exc(file=sys.stderr)
        error = f"{type(e).__name__}: {e}"
    return OpRun(op.name, time.perf_counter() - t0, time.process_time() - c0, error, op.check)


def run_passes(workload: str, work: Path, seed: int, seconds: float, tracer) -> list[Pass]:
    import gxelab.cli as cli
    import workloads

    wl = workloads.WORKLOADS[workload]
    min_passes = 2 if tracer else 1
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        p = len(passes)
        ops = wl.ops(work / "inputs", work / f"pass{p:03d}", 1000 * seed + 10 * p, GXELAB_THREADS)
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        runs = [run_op(cli, op) for op in ops]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
        passes.append(Pass(traced, wall, cpu, runs))
    return passes


def check_outputs(passes: list[Pass]) -> None:
    """Run every check of an operation that completed, and mark the
    operations whose check fails as failed."""
    for i, p in enumerate(passes):
        for op in p.ops:
            if op.error is not None:
                continue
            try:
                op.check()
            except Exception as e:  # a CheckFailed or any error inside a check fails the op
                op.error = f"check failed: {type(e).__name__}: {e}"
            if op.error:
                print(f"pass {i} {op.name}: {op.error}", file=sys.stderr)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, passes: list[Pass]) -> dict[str, tuple[float, str]]:
    import spans
    import workloads

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    totals = tracer.layer_totals()
    out: dict[str, tuple[float, str]] = {}
    for module, attribute, counter in spans.LAYER_FUNCTIONS:
        name = spans.span_name(module, attribute)
        for key, unit in spans.LAYER_METRICS.get(name, {"self_s": "s"}).items():
            out[f"{name}.{key}"] = (totals.get(name, {}).get(key, 0) / len(traced), unit)
    for name in workloads.OP_NAMES:
        out[f"op.{name}_s"] = (median(o.wall for p in plain for o in p.ops if o.name == name), "s")
    out["trace.untraced_pass_s"] = (median(p.wall for p in plain), "s")
    out["trace.traced_pass_s"] = (median(p.wall for p in traced), "s")
    out["trace.untraced_pass_cpu_s"] = (median(p.cpu for p in plain), "s")
    return out


def report(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    """An op that exited non-zero, raised or failed its check makes the run
    incorrect: no op is expected to fail on this program."""
    ops = [o for p in passes for o in p.ops]
    failed = sum(o.error is not None for o in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summarize(workload: str, passes: list[Pass], setup_times: list[float]) -> None:
    """Human-readable per-operation medians on stderr."""
    names = [o.name for o in passes[0].ops]
    print(f"{workload}: {len(passes)} passes, setup samples {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    print(f"  pass walls {[round(p.wall, 3) for p in passes]}", file=sys.stderr)
    for name in names:
        walls = [o.wall for p in passes if not p.traced for o in p.ops if o.name == name]
        cpus = [o.cpu for p in passes if not p.traced for o in p.ops if o.name == name]
        print(f"  {name:20s} wall median {median(walls):.3f} s  cpu median {median(cpus):.3f} s  n={len(walls)}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gxelab" / "cli.py").is_file():
        print(f"perfbench: gxelab sources not found under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, Path(args.setup_only)))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = [timed_setup(args.workload, args.seed, work / "inputs")]
        setup_times += [setup_in_subprocess(args.workload, args.seed, work / f"setup{i}")
                        for i in range(1, SETUP_SAMPLES)]
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        passes = run_passes(args.workload, work, args.seed, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = time.perf_counter()
        check_outputs(passes)
        print(f"checks took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        summarize(args.workload, passes, setup_times)
        if tracer:
            metrics = layer_metrics(tracer, passes)
            TRACES.mkdir(exist_ok=True)
            trace_path = TRACES / f"{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **tracer.to_json()}))
            print(f"spans written to {trace_path}", file=sys.stderr)
            print(spans.format_tree(tracer.tree(), sum(p.traced for p in passes)), file=sys.stderr)
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "pass_s": (median(p.wall for p in passes), "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
        result = report(passes, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
