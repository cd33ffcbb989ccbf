"""teamsched benchmark: certified-solve throughput on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload team_linear --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it runs every op twice, untraced and then with per-layer
wrappers installed, checks that both results are bit-identical, and reports
the per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
per-op record (parameters, check outcome, output digests, machine) and the
spans go to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import SpeedScale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: BENCHMARK.json lists team_linear and paper_pipeline; team_poly and
#: team_linear_weak run the inputs on which the solver is known to stall
WORKLOAD_NAMES = ("team_linear", "paper_pipeline", "team_poly", "team_linear_weak")
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 9
#: the modules a set-up imports afresh: the package and the CLI stack on top
PACKAGE_MODULES = ("teamsched", "teamsched.experiments", "teamsched.cli")


def _import_package() -> float:
    """Imports teamsched from this checkout's ``src``, or exits with 1.
    Returns the wall time of that first import, dependencies included."""
    os.environ.pop("TEAMSCHED_TOL", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import teamsched
    except ImportError as exc:
        sys.exit(f"error: cannot import teamsched from {SRC}: {exc}")
    if SRC not in Path(teamsched.__file__).resolve().parents:
        sys.exit(f"error: teamsched imported from {teamsched.__file__}, not {SRC}")
    return time.perf_counter() - start


def _reimport_package() -> None:
    """Imports the package's modules afresh, then puts the loaded ones back.

    Only ``teamsched`` modules are evicted, so this times the package's own
    import, not that of numpy and the standard library it needs. The modules
    the workloads hold are restored, so the traced run wraps the ones in use.
    """
    def ours(name: str) -> bool:
        return name == "teamsched" or name.startswith("teamsched.")

    loaded = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    try:
        for name in PACKAGE_MODULES:
            importlib.import_module(name)
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(loaded)


def _machine(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def _percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile, ``pct`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _set_up(workload, seed: int, out_dir: Path, scale: SpeedScale):
    """One set-up: the package's own import, input generation, scenario
    writing and a warm-up op, the same op for every seed so that set-up time
    does not depend on it. Returns the inputs and the set-up's span, with
    kernel samples taken right before and after it."""
    scale.sample(force=True)
    start = time.perf_counter()
    _reimport_package()
    inputs = workload.inputs(seed)
    workload.setup(out_dir)
    workload.run(workload.inputs(0)[0], out_dir)
    end = time.perf_counter()
    scale.sample(force=True)
    return inputs, (start, end)


def _measure(workload, seed: int, out_dir: Path, seconds: float, min_ops: int, tracer,
             scale: SpeedScale):
    """Sets up, then runs ops in input order until ``seconds`` of op time have
    passed and at least ``min_ops`` ran. The other :data:`SETUP_REPEATS` - 1
    set-ups are spread evenly over that time, so they meet the same host
    conditions as the ops. Returns the per-op records, the wall times of the
    untraced runs (traced runs only), the count of traced results that differ
    from their untraced run, and the set-up records. Records give their start
    on the ``scale``'s clock, their wall time and their time at reference
    speed (``seconds``).

    The tracer is installed only around the program's own call, so the
    reference checks add nothing to the per-layer figures."""
    inputs, first = _set_up(workload, seed, out_dir, scale)
    setup_spans = [first]
    ops: list[dict] = []
    spans: list[tuple[float, float]] = []
    untraced: list[float] = []
    mismatched = 0
    begin = time.perf_counter()  # moved on by each set-up, to count op time only
    while time.perf_counter() - begin < seconds or len(ops) < min_ops:
        i = len(ops)
        op = inputs[i % len(inputs)]
        scale.sample()
        plain = result = None
        error = ""
        start = time.perf_counter()
        try:
            if tracer:
                plain = workload.digest(workload.run(op, out_dir))
                untraced.append(time.perf_counter() - start)
                tracer.op = i
                tracer.install()
                start = time.perf_counter()
            result = workload.run(op, out_dir)
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc(limit=4)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            if tracer:
                tracer.uninstall()
        verdict, digest, details = _checked(workload, op, result, error)
        if tracer and plain != digest:
            mismatched += 1
        spans.append((start, end))
        ops.append({"op": i, "start_s": start - scale.t0, "wall_s": elapsed,
                    "status": verdict.status, "detail": verdict.detail, "digest": digest,
                    **details})
        due = len(setup_spans) * seconds / SETUP_REPEATS
        if len(setup_spans) < SETUP_REPEATS and time.perf_counter() - begin >= due:
            setup_spans.append(_set_up(workload, seed, out_dir, scale)[1])
            begin += setup_spans[-1][1] - setup_spans[-1][0]
    while len(setup_spans) < SETUP_REPEATS:
        setup_spans.append(_set_up(workload, seed, out_dir, scale)[1])
    scale.sample(force=True)
    for op, (start, end) in zip(ops, spans):
        op["seconds"] = (end - start) * scale.factor(start, end)
    setup = [{"start_s": start - scale.t0, "wall_s": end - start,
              "seconds": (end - start) * scale.factor(start, end)}
             for start, end in setup_spans]
    return ops, untraced, mismatched, setup


def _checked(workload, op, result, error: str):
    """The op's verdict, result digest and record; a raise is a mismatch."""
    import workloads

    if not error:
        try:
            return (workload.check(op, result), workload.digest(result),
                    workload.record(op, result))
        except Exception:
            error = traceback.format_exc(limit=4)
    return workloads.Verdict(workloads.MISMATCH, error), "", {}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; writes and returns the run's record.

    An untraced run measures at least the workload's minimum op count; a
    traced run reports no percentiles and measures at least one op.
    """
    first_import_s = _import_package()
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[workload_name]
    out_dir = OUT / f"{workload_name}-s{seed}-t{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if trace else None
    scale = SpeedScale()
    ops, untraced, mismatched, setup = _measure(
        workload, seed, out_dir, seconds, 1 if trace else workload.min_ops, tracer, scale)
    times = [op["seconds"] for op in ops]
    setup_times = [s["seconds"] for s in setup]

    passed = [op["status"] == workloads.OK for op in ops]
    failed = len(ops) - sum(passed)
    correct = mismatched == 0 and all(op["status"] != workloads.MISMATCH for op in ops)

    if tracer:
        metrics = tracer.layer_metrics()
        traced = sum(op["wall_s"] for op in ops)
        metrics["trace.overhead_pct"] = ((traced / sum(untraced) - 1.0) * 100.0, "%")
        metrics["trace.mismatched_ops"] = (mismatched, "count")
        tracer.write(out_dir / "spans.jsonl")
    else:
        metrics = {
            "ops_per_s": (sum(passed) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (_percentile(times, workload.tail_pct) * 1e3, "ms"),
            "passed_frac": (sum(passed) / len(ops), "frac"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    summary = {"correct": correct, "attempted": len(ops), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "workload": workload_name, "trace": trace, "seconds": seconds,
        "machine": _machine(seed), "tail_percentile": workload.tail_pct,
        "failed_frac": failed / len(ops), "first_import_s": first_import_s,
        "setup": setup, "kernel_samples": scale.timeline(),
        "summary": summary, "ops": ops,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1))
    return record


def _print_report(record: dict) -> None:
    machine, summary = record["machine"], record["summary"]
    print(f"workload {record['workload']} seed {machine['seed']} "
          f"({'traced' if record['trace'] else 'untraced'}, {record['seconds']:g} s)")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']} numpy={machine['numpy']}")
    print(f"ops: attempted={summary['attempted']} failed={summary['failed']} "
          f"failed_frac={record['failed_frac']:.6g} "
          f"correct={str(summary['correct']).lower()} "
          f"tail=p{record['tail_percentile']:g}")
    for op in record["ops"]:
        if op["status"] != "ok":
            print(f"  op {op['op']}: {op['status']}: {op['detail']}")
    for name, metric in summary["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(record)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
