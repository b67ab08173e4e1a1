"""lpgreedy benchmark: one closed-loop client driving the package's entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload relax_small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run. Earlier lines give the run metadata, every metric by name
with its unit, and each op that failed its correctness check. The package
is imported from ``src/`` of the checkout; without it the benchmark exits
with code 2 and prints no result. See NOTES.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layer_trace import Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, geometric_mean

ROOT = Path(__file__).resolve().parent.parent

# Set-up is repeated and the median reported; importing happens once.
SETUP_REPEATS = 3

# Each op is timed this many times and its latency is the least of its
# timings. The ops are run in windows of one op per kind, and each window is
# run REPEATS times over, so an op's repeats are a fraction of a second
# apart but never back to back: a repeat does not find the previous
# execution's data in cache. Other load on the host slows single executions
# by up to 2x at random, on a scale shorter than one op; the least of three
# timings reads the op's cost on an unloaded core. Slower swings of the
# host's speed are taken out by the workload's reference kernel
# (calibrate.py), timed once per round of each window.
REPEATS = 3

# A run measures at least this many ops even when the host is slow, so that
# at least ten ops lie beyond the 90th percentile.
MIN_OPS = 110


@dataclass
class Phase:
    """Per-op latencies and outcomes of one measuring loop.

    ``latencies`` are scaled to the host's reference speed; ``raw`` are the
    same latencies as the clock read them.
    """

    latencies: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    executions: int = 0
    execution_time: float = 0.0


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def host_scale(kernel) -> float:
    """Reference time / measured time of the kernel, the least of REPEATS."""
    return kernel.REFERENCE_S / min(_timed(kernel) for _ in range(REPEATS))


def _execute(workload, op, tracer):
    """Run one op once; return its time and the Outcome of its check."""
    t0 = perf_counter()
    try:
        result, error = workload.run(op), ""
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if result is None:
        return elapsed, Outcome(kind="?", failure=error)
    if tracer is None:
        return elapsed, workload.check(op, result)
    with tracer.paused():
        return elapsed, workload.check(op, result)


def measure(workload, kernel, seed, seconds=None, n_ops=None, tracer=None) -> Phase:
    """Run whole windows of ops for ``seconds`` (or exactly ``n_ops`` ops).

    Only the op itself is timed; the correctness check of every execution
    runs afterwards, with the tracer paused so checker calls are not
    counted as load.
    """
    phase = Phase()
    width = len(workload.KINDS)
    start = perf_counter()
    first = 0
    while (
        (perf_counter() - start < seconds or first < MIN_OPS) if n_ops is None else (first < n_ops)
    ):
        window = range(first, first + width if n_ops is None else min(first + width, n_ops))
        ops = [workload.op(i) for i in window]
        timings = [[] for _ in window]
        outcomes = [[] for _ in window]
        kernel_times = []
        for _ in range(REPEATS):
            for k, i in enumerate(window):
                if tracer is not None:
                    tracer.op = i
                elapsed, outcome = _execute(workload, ops[k], tracer)
                timings[k].append(elapsed)
                outcomes[k].append(outcome)
            if tracer is not None:
                tracer.op = None
            kernel_times.append(_timed(kernel))
        scale = kernel.REFERENCE_S / min(kernel_times)
        phase.scales.append(scale)
        for i, times, results in zip(window, timings, outcomes):
            outcome = next((o for o in results if o.failure), results[0])
            phase.raw.append(min(times))
            phase.latencies.append(min(times) * scale)
            phase.outcomes.append(outcome)
            phase.executions += len(times)
            phase.execution_time += sum(times)
            if outcome.failure:
                phase.failures.append(f"seed={seed} op={i} kind={outcome.kind}: {outcome.failure}")
        first += width
    return phase


def end_to_end(phase: Phase, setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over the ops that passed their check."""
    ok = [(lat, out) for lat, out in zip(phase.latencies, phase.outcomes) if not out.failure]
    op_time = sum(lat for lat, _ in ok)
    ms = [lat * 1e3 for lat, _ in ok]
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "steps_per_s": (sum(out.steps for _, out in ok) / op_time, "steps/s"),
        "cells_per_s": (sum(out.cells for _, out in ok) / op_time, "cells/s"),
        "residual_gmean": (geometric_mean([r for _, out in ok for r in out.residuals]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def build(cls, lg, seed, workdir, kernel):
    """Build a workload and run one untimed warm-up op.

    Returns the workload and the time taken, scaled to the host's
    reference speed read right after it.
    """
    t0 = perf_counter()
    workload = cls(lg, seed, workdir)
    workload.run(workload.op(0))
    elapsed = perf_counter() - t0
    return workload, elapsed * host_scale(kernel)


def plain_run(cls, lg, seed, seconds, workdir, kernel, import_s):
    builds = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload, build_s = build(cls, lg, seed, workdir, kernel)
        builds.append(build_s)
    gc.collect()
    phase = measure(workload, kernel, seed, seconds=seconds)
    return phase, [phase], end_to_end(phase, import_s + statistics.median(builds)), []


def traced_run(cls, lg, seed, seconds, workdir, kernel):
    """Untraced ops for half the time, then the same ops traced."""
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        workload = cls(lg, seed, workdir)
    finally:
        tracer.uninstall()
    setup_spans, tracer.spans = tracer.spans, []
    workload.run(workload.op(0))
    gc.collect()
    plain = measure(workload, kernel, seed, seconds=seconds / 2.0)
    gc.collect()
    tracer.install()
    try:
        traced = measure(workload, kernel, seed, n_ops=len(plain.latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer.spans,
        setup_spans,
        n_ops=traced.executions,
        op_wall_s=traced.execution_time,
        trace_overhead=sum(traced.latencies) / sum(plain.latencies),
    )
    return traced, [plain, traced], metrics, tracer.absent


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(lg) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lpgreedy": getattr(lg, "__version__", None),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
    }


def import_package():
    """Import lpgreedy from src/ of this checkout; return (module, seconds) or None."""
    src = ROOT / "src"
    if not (src / "lpgreedy" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    lg = importlib.import_module("lpgreedy")
    import_s = perf_counter() - t0
    if Path(lg.__file__).resolve().parent != (src / "lpgreedy").resolve():
        return None
    return lg, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    imported = import_package()
    if imported is None:
        print(f"error: no lpgreedy package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lg, import_s = imported
    cls = WORKLOADS[args.workload]
    kernel = cls.reference_kernel()
    import_s *= host_scale(kernel)

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    try:
        if args.trace:
            main_phase, phases, metrics, absent = traced_run(
                cls, lg, args.seed, args.seconds, workdir, kernel
            )
        else:
            main_phase, phases, metrics, absent = plain_run(
                cls, lg, args.seed, args.seconds, workdir, kernel, import_s
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    meta = run_metadata(lg)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        ops_measured=len(main_phase.latencies),
        absent_names=absent,
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    for failure in failures:
        print(f"FAIL {failure}")
    ms = main_phase.latencies
    p90 = statistics.quantiles(ms, n=10)[-1]
    raw_ms = [t * 1e3 for t in main_phase.raw]
    print(
        f"{args.workload}: {len(ms)} ops timed {REPEATS}x each, {sum(1 for x in ms if x > p90)} "
        f"beyond p90; fail_ratio {len(failures) / attempted!r} ratio "
        f"({len(failures)} of {attempted} ops)"
    )
    print(
        f"host speed scale (reference / measured kernel time): median "
        f"{statistics.median(main_phase.scales)!r}; unscaled op ms p50 "
        f"{statistics.median(raw_ms)!r}, p90 {statistics.quantiles(raw_ms, n=10)[-1]!r}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
