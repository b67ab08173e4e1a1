"""Layer micro-benchmark: inner solve, loop step, norm, functional, sweep cell, verify.

    python bench/run_bench.py --out BENCH.json [--baseline OTHER/src]

Times the layers of the lpgreedy in ``src/`` next to this script
("change") and, with ``--baseline``, of a second source tree ("parent",
e.g. a ``git clone`` of the parent commit) on the same seeded inputs at p
in {1.5, 2, 3}:

* the inner solve, ``minimize_over_line`` and ``minimize_free_relax`` at
  dim 16 and 2048, and ``minimize_free_relax`` at dim 16 also at p in
  EDGE_PS: time per call and per Newton iteration, the iteration
  counts, the number of unconverged solves and, where the result carries
  one, the largest relative duality gap;
* one loop step of ``run_wgafr`` and ``run_gawr`` at dim 16 (count 32
  Gaussian dictionaries, A_1 targets of sparsity 8, t = 1, 10 steps per
  run): time per step, steps run, steps whose solve did not converge and
  the Newton iterations of the steps' inner solves (total and per step;
  counted in the untimed warm-up pass, so they do not depend on the host).
  These rows are timed run by run, not in repeats: see below;
* the calls one loop step makes, for all four loops on the loop rows'
  first CALL_COUNT_RUNS inputs (``run_iac`` with ``K1 = 1``, ``run_iacc``
  on convex targets), counted with ``sys.setprofile`` over whole runs
  and divided by the steps run: Python calls and calls of C functions
  and methods (``ufunc.reduce``, ``ndarray.all``). A direct ufunc call
  (``np.abs(x)``) or an operator (``@``, ``+``) is not a call to the
  profiler, so these counts are exact and host-independent but not a
  census of numpy work;
* ``lp_norm`` and ``norming_functional`` at dim 16 and 2048: time per call;
* the bookkeeping of one sweep cell, per call, on cells shaped like the
  ``sweep_grid`` benchmark workload (dim 12, count 24 Gaussian
  dictionaries, targets of sparsity 6, 6 steps): ``with_fields`` (the
  cell's one config edit), ``hash``, ``_build`` (space, dictionary and
  target), ``fit_log_slope`` and each checker of the ``run_experiment``
  suites, called as that suite calls it (``check_barycentric`` and
  ``check_trivial_step`` on iac and iacc traces, ``check_monotone``,
  ``check_ml1_trace`` and ``check_mt2_bound`` on wgafr traces,
  ``check_ml3_trace`` on gawr traces);
* ``run_sweep`` end to end: per p, SWEEP_RUNS sweeps of CELL_REPLICATES
  replicates for each of the four algorithms, each writing its summary
  CSV into a temporary directory; time per cell;
* each criterion of the ``verify`` battery at ``--profile full``, seed 0:
  time per criterion, with its verdict and worst margin;
* end to end, one child Python process per repeat: ``import lpgreedy``
  alone, and one small ``lpgreedy run`` (RUN_CONFIG, through
  ``lpgreedy.cli.main``): wall time per process and the child's peak
  resident set size (``VmHWM``, so Linux only).

Both packages are imported into this one process. Each case runs its
``REPEATS`` repeats on the two trees back to back, alternating which goes
first, so drifts in host speed hit both alike. Each repeat
times one pass over a case's inputs with ``time.perf_counter``; a case
reports the median over repeats of the mean time per call (or per step),
and the first and third quartiles of those repeat times, so a ratio can be
read against the spread of its own repeats. A loop case is finer: each
seeded run is timed LOOP_TIMINGS times on each tree, the trees back to
back and alternating which goes first, and keeps its least time per tree;
the case reports change/parent as the ratio of the summed run times, with
the first and third quartiles of the per-run ratios, and the JSON pools
each loop's ratio over p. With ``--baseline`` set to this ``src/`` these
rows read within about 2 % of 1. The ``verify`` criteria are also summed
per repeat, as the whole ``--profile full`` battery.
The JSON also records the ``src/`` line count and commit of each tree (and
whether its ``src/`` has edits not yet committed), the machine and the
package versions.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
SOLVES = ("minimize_over_line", "minimize_free_relax")
LOOPS = ("run_wgafr", "run_gawr")
NORMS = ("lp_norm", "norming_functional")
# Sweep-cell bookkeeping, each entry with the algorithms whose cells it times.
CELL_PARTS = {
    "with_fields": ("iac",),
    "hash": ("iac",),
    "_build": ("iac",),
    "fit_log_slope": ("iac", "iacc"),
    "check_barycentric": ("iac", "iacc"),
    "check_trivial_step": ("iac", "iacc"),
    "check_monotone": ("wgafr",),
    "check_ml1_trace": ("wgafr",),
    "check_mt2_bound": ("wgafr",),
    "check_ml3_trace": ("gawr",),
}
SWEEPS = ("run_sweep",)
ENTRIES = SOLVES + LOOPS + NORMS + tuple(CELL_PARTS) + SWEEPS
PS = (1.5, 2.0, 3.0)
# The ends of the p range, where Newton takes the most iterations.
EDGE_PS = (1.01, 8.0, 64.0)
# Inputs per case, by dim; a loop case runs LOOP_RUNS runs at LOOP_DIM.
INSTANCES = {16: 40, 2048: 8}
NORM_INSTANCES = {16: 400, 2048: 100}
LOOP_DIM, LOOP_COUNT, LOOP_SPARSITY, LOOP_ITERS, LOOP_RUNS = 16, 32, 8, 10, 60
# Timings per loop run and tree (the least is kept); runs whose calls are counted.
LOOP_TIMINGS, CALL_COUNT_RUNS = 3, 10
COUNTED_LOOPS = LOOPS + ("run_iac", "run_iacc")
CALL_COUNT_NOTE = (
    "sys.setprofile 'call' (Python) and 'c_call' (C functions and methods such as "
    "ufunc.reduce and ndarray.all) events over whole runs, divided by the steps run; "
    "direct ufunc calls (np.abs(x)) and operators (@, +) are not counted"
)
CELL_DIM, CELL_COUNT, CELL_SPARSITY, CELL_ITERS, CELL_RUNS = 12, 24, 6, 6, 40
# A run_sweep case runs SWEEP_RUNS sweeps per algorithm, CELL_REPLICATES cells each.
SWEEP_RUNS, CELL_REPLICATES = 5, 3
# The verify rows: one per criterion, each run once per repeat.
VERIFY_PROFILE, VERIFY_SEED = "full", 0
# The end-to-end rows: the code of one child Python process each.
PROCESSES = {
    "import_lpgreedy": "import lpgreedy",
    "lpgreedy_run": (
        "from lpgreedy.cli import main\n"
        "if main(['run', '--config', {config!r}, '--out', {out!r}]):\n"
        "    raise SystemExit('lpgreedy run failed')"
    ),
}
RUN_CONFIG = (
    "space.p = 1.5\nspace.dim = 16\ndictionary.count = 32\ntarget.sparsity = 8\n"
    "algorithm.id = wgafr\nalgorithm.iters = 20\n"
)
# The last line a child prints: its peak RSS in KiB. VmHWM is the high-water
# mark of the child's own memory map; ru_maxrss would start from this
# process's RSS, which the child's map inherits up to its exec.
PEAK_RSS = "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')))"
REPEATS = 7


def load_package(src: Path):
    """Import lpgreedy from ``src``, leaving any earlier import intact."""
    for name in [m for m in sys.modules if m == "lpgreedy" or m.startswith("lpgreedy.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("lpgreedy")
    finally:
        sys.path.remove(str(src))


def instances(entry: str, p: float, dim: int):
    """The seeded inputs of one case: vectors, or loop-run seeds."""
    rng = np.random.default_rng([ENTRIES.index(entry), int(10 * p), dim])
    if entry in LOOPS or entry in CELL_PARTS or entry in SWEEPS:
        runs = LOOP_RUNS if entry in LOOPS else CELL_RUNS if entry in CELL_PARTS else SWEEP_RUNS
        return [tuple(int(s) for s in rng.integers(2**31, size=2)) for _ in range(runs)]
    count = {"minimize_over_line": 2, "minimize_free_relax": 3}.get(entry, 1)
    n = (NORM_INSTANCES if entry in NORMS else INSTANCES)[dim]
    return [
        [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]
        for _ in range(n)
    ]


def cell_config(pkg, algorithm, p, dict_seed, target_seed):
    """The config of one sweep cell shaped like the ``sweep_grid`` workload's."""
    return pkg.ExperimentConfig.from_dict(
        {
            "space": {"p": p, "dim": CELL_DIM},
            "dictionary": {"kind": "gaussian", "count": CELL_COUNT, "seed": dict_seed},
            "target": {
                "membership": "conv" if algorithm == "iacc" else "a1",
                "sparsity": CELL_SPARSITY,
                "seed": target_seed,
            },
            "algorithm": {"id": algorithm, "iters": CELL_ITERS},
        }
    )


def prepare_cell_part(pkg, entry, p, data):
    """A call that runs one cell-bookkeeping case once, as ``run_experiment`` does."""
    algorithms = CELL_PARTS[entry]
    configs = [
        cell_config(pkg, algorithms[i % len(algorithms)], p, *seeds)
        for i, seeds in enumerate(data)
    ]
    if entry == "with_fields":
        edits = [{"space.p": p, "dictionary.seed": d, "target.seed": t} for d, t in data]
        base = configs[0]
        return lambda: [base.with_fields(edit) for edit in edits]
    if entry == "hash":
        return lambda: [config.hash() for config in configs]
    if entry == "_build":
        return lambda: [pkg.harness._build(config) for config in configs]
    calls = [suite_call(pkg, entry, config) for config in configs]
    return lambda: [call() for call in calls]


def suite_call(pkg, entry, config):
    """A call of one checker, or of the slope fit, on the config's trace as the suite makes it."""
    space, dictionary, target = pkg.harness._build(config)
    trace, _ = pkg.run_experiment(config)
    tau, slack, n = config.weakness(), config.checks.slack, len(trace.records)
    if entry == "fit_log_slope":
        return lambda: pkg.fit_log_slope(trace, (max(2, n // 10), n))
    if entry == "check_barycentric":
        return lambda: pkg.analysis.check_barycentric(trace, dictionary)
    if entry == "check_trivial_step":
        return lambda: pkg.check_trivial_step(trace)
    if entry == "check_monotone":
        return lambda: pkg.check_monotone(trace, slack)
    if entry == "check_ml1_trace":
        return lambda: pkg.check_ml1_trace(
            space, trace, tau, target.A_eps, target.eps, slack=slack,
            grid_points=config.checks.lambda_points,
        )
    if entry == "check_mt2_bound":
        params = pkg.smoothness_params(space)
        return lambda: pkg.check_mt2_bound(trace, params, target.A_eps, target.eps, tau, slack)
    return lambda: pkg.check_ml3_trace(space, trace, target.A_eps, target.eps, tau.t, slack)


def prepare_sweep(pkg, p, data):
    """A call that runs the sweeps of one run_sweep case at ``p`` and returns all rows.

    The sweeps write their summary CSV into a temporary directory that lives
    as long as the call does.
    """
    out_dir = tempfile.TemporaryDirectory(prefix="run_bench_sweep_")
    specs = [
        pkg.SweepSpec(
            base=cell_config(pkg, algorithm, p, dict_seed, target_seed),
            axes=[],
            replicate_seeds=CELL_REPLICATES,
        )
        for dict_seed, target_seed in data
        for algorithm in ("wgafr", "gawr", "iac", "iacc")
    ]
    return lambda: [row for spec in specs for row in pkg.run_sweep(spec, out_dir.name)]


def child_process(code: str, src: Path) -> float:
    """Run one Python child on the lpgreedy in ``src``; return its peak RSS in MiB."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{PEAK_RSS}"], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    ).stdout
    return int(out.split()[-1]) / 1024.0


def prepare_process(pkg, entry):
    """A call that runs the case's child process once on ``pkg``'s source tree.

    The config and the outputs of ``lpgreedy run`` live in a temporary
    directory that lives as long as the call does.
    """
    work = tempfile.TemporaryDirectory(prefix="run_bench_process_")
    config = Path(work.name) / "experiment.txt"
    config.write_text(RUN_CONFIG)
    code = PROCESSES[entry].format(config=str(config), out=work.name)
    src = Path(pkg.__file__).resolve().parents[1]
    return lambda work=work: [child_process(code, src)]


def prepare(pkg, entry, p, dim, data):
    """A call that runs the case once through ``pkg`` and returns its results."""
    if entry in PROCESSES:
        return prepare_process(pkg, entry)
    if entry.startswith("verify_"):
        criterion = {number: fn for number, _, fn in pkg.acceptance.ALL_CRITERIA}[data[0]]
        return lambda: [criterion(seed=VERIFY_SEED, profile=VERIFY_PROFILE)]
    if entry in CELL_PARTS:
        return prepare_cell_part(pkg, entry, p, data)
    if entry in SWEEPS:
        return prepare_sweep(pkg, p, data)
    space = pkg.LpSpace(p, dim)
    fn = getattr(pkg, entry)
    return lambda: [fn(space, *args) for args in data]


def loop_runs(pkg, entry, p, data):
    """One call per seeded run of a loop at LOOP_DIM, each returning its trace."""
    space = pkg.LpSpace(p, LOOP_DIM)
    tau = pkg.WeaknessSequence.constant(1.0)
    args = {
        "run_wgafr": (tau,),
        "run_gawr": (tau, pkg.RelaxationSchedule.harmonic()),
        "run_iac": (1.0,),
        "run_iacc": (1.0,),
    }[entry]
    calls = []
    for dict_seed, target_seed in data:
        dictionary = pkg.generate_dictionary(space, LOOP_COUNT, "gaussian", dict_seed)
        membership = "conv" if entry == "run_iacc" else "a1"
        target = pkg.make_target(dictionary, membership, LOOP_SPARSITY, 0.0, target_seed)
        calls.append(functools.partial(getattr(pkg, entry), space, dictionary, target, *args, LOOP_ITERS))
    return calls


def time_loop_runs(calls: dict) -> dict:
    """The least of LOOP_TIMINGS times of each run, per tree; the trees alternate run by run."""
    labels = list(calls)
    best = {label: [] for label in labels}
    for i in range(len(calls[labels[0]])):
        times = {label: [] for label in labels}
        for rep in range(LOOP_TIMINGS):
            for label in labels if (i + rep) % 2 == 0 else labels[::-1]:
                start = time.perf_counter()
                calls[label][i]()
                times[label].append(time.perf_counter() - start)
        for label in labels:
            best[label].append(min(times[label]))
    return best


def count_calls(calls) -> dict:
    """Python and C calls per loop step over ``calls``, as sys.setprofile sees them."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        traces = [call() for call in calls]
    finally:
        sys.setprofile(None)
    steps = sum(len(trace.records) for trace in traces)
    return {
        "steps": steps,
        "python_calls_per_step": counts["call"] / steps,
        "c_calls_per_step": counts["c_call"] / steps,
    }


def count_newton_iterations(pkg, run):
    """Run ``run`` once; return its results and the Newton iterations of its inner solves.

    Every inner solve goes through ``solvers._descend``; it is wrapped
    wherever an lpgreedy module holds it (the loops of one tree call it
    through the public solvers, of another directly), and restored after.
    """
    original = pkg.solvers._descend
    holders = [m for m in (pkg.solvers, pkg.algorithms) if getattr(m, "_descend", None) is original]
    iterations = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    for module in holders:
        module._descend = counted
    try:
        results = run()
    finally:
        for module in holders:
            module._descend = original
    return results, sum(iterations)


def warm_up(pkg, entry, run) -> dict:
    """The untimed first pass of a case: its deterministic counters."""
    if entry not in LOOPS:
        return outcome(entry, run())
    results, iterations = count_newton_iterations(pkg, run)
    stats = outcome(entry, results)
    stats.update(newton_iters=iterations, newton_iters_per_step=iterations / stats["steps"])
    return stats


def timed_pass(run, units: int):
    """Time per unit of one pass, and the pass's results."""
    start = time.perf_counter()
    results = run()
    return (time.perf_counter() - start) / units, results


def outcome(entry, results) -> dict:
    """Deterministic counters of one pass, and the units its time is divided by."""
    if entry in LOOPS:
        records = [rec for trace in results for rec in trace.records]
        return {
            "units": len(records),
            "steps": len(records),
            "unconverged_steps": sum(not rec.solver_converged for rec in records),
        }
    if entry in NORMS or entry in CELL_PARTS:
        return {"units": len(results)}
    if entry.startswith("verify_"):
        return {"units": 1, "passed": results[0].passed, "worst_margin": results[0].worst_margin}
    if entry in PROCESSES:
        return {"units": 1}
    if entry in SWEEPS:
        return {"units": len(results), "cells": len(results),
                "failed_cells": sum(1 for row in results if row["error"] or row["pass_rate"] != "1.0")}
    iters = [r.iterations for r in results]
    gaps = [r.gap / r.value for r in results if getattr(r, "gap", None) is not None and r.value > 0]
    return {
        "units": len(results),
        "iters_mean": statistics.fmean(iters),
        "iters_max": max(iters),
        "unconverged": sum(not r.converged for r in results),
        "max_rel_gap": max(gaps) if gaps else None,
    }


def tree_info(src: Path) -> dict:
    lines = sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py")))
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        edited = bool(git("status", "--porcelain", "--", "."))
    except (OSError, subprocess.CalledProcessError):
        commit = edited = None
    return {"commit": commit, "uncommitted_src_edits": edited, "src_lines": lines}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)

    trees = {"change": HERE_SRC}
    if args.baseline is not None:
        trees = {"parent": args.baseline.resolve(), "change": HERE_SRC}
    pkgs = {label: load_package(src) for label, src in trees.items()}
    cases = {
        (entry, p, dim): instances(entry, p, dim)
        for entry in ENTRIES for p in PS
        for dim in (
            (LOOP_DIM,) if entry in LOOPS
            else (CELL_DIM,) if entry in CELL_PARTS or entry in SWEEPS
            else INSTANCES
        )
    }
    cases.update(
        (("minimize_free_relax", p, 16), instances("minimize_free_relax", p, 16)) for p in EDGE_PS
    )
    # A verify case's one instance is its criterion number.
    cases.update(
        ((f"verify_{number:02d}_{name}", None, None), [number])
        for number, name, _ in pkgs["change"].acceptance.ALL_CRITERIA
    )
    cases.update(((entry, None, None), [entry]) for entry in PROCESSES)
    # A loop case is a list of per-run calls; every other case is one call.
    loop_calls = {
        (label, key): loop_runs(pkg, *key[:2], data)
        for label, pkg in pkgs.items() for key, data in cases.items() if key[0] in LOOPS
    }
    runs = {
        (label, key): (
            (lambda calls=loop_calls[label, key]: [call() for call in calls])
            if key[0] in LOOPS else prepare(pkg, *key, data)
        )
        for label, pkg in pkgs.items() for key, data in cases.items()
    }
    # Untimed warm-up pass, which also records the deterministic counters.
    outcomes = {(label, key): warm_up(pkgs[label], key[0], run) for (label, key), run in runs.items()}
    call_counts = []
    for entry in COUNTED_LOOPS:
        for p in PS:
            data = instances("run_wgafr", p, LOOP_DIM)[:CALL_COUNT_RUNS]
            row = {"entry": entry, "p": p, "dim": LOOP_DIM, "instances": len(data)}
            for label, pkg in pkgs.items():
                calls = loop_runs(pkg, entry, p, data)
                for call in calls:  # untimed, uncounted warm-up
                    call()
                row[label] = count_calls(calls)
            call_counts.append(row)
            print(json.dumps(row))
    loop_times = {
        key: time_loop_runs({label: loop_calls[label, key] for label in pkgs})
        for key in cases if key[0] in LOOPS
    }
    times = {run_key: [] for run_key in runs}
    child_rss = {run_key: [] for run_key in runs if run_key[1][0] in PROCESSES}
    labels = list(pkgs)
    for rep in range(REPEATS):
        for key in cases:
            if key[0] in LOOPS:
                continue
            for label in labels if rep % 2 == 0 else labels[::-1]:
                units = outcomes[label, key]["units"]
                unit_s, results = timed_pass(runs[label, key], units)
                times[label, key].append(unit_s)
                if (label, key) in child_rss:
                    child_rss[label, key].append(results[0])

    results = []
    for key in cases:
        entry, p, dim = key
        verify = entry.startswith("verify_")
        unit = (
            "criterion" if verify else "step" if entry in LOOPS
            else "cell" if entry in SWEEPS else "process" if entry in PROCESSES else "call"
        )
        row = {"entry": entry, "p": p, "dim": dim, "instances": len(cases[key])}
        if verify:
            row.update(profile=VERIFY_PROFILE, seed=VERIFY_SEED)
        for label in pkgs:
            stats = dict(outcomes[label, key])
            del stats["units"]
            if key in loop_times:
                unit_s = sum(loop_times[key][label]) / stats["steps"]
                q1, _, q3 = statistics.quantiles(loop_times[key][label], n=4)
                row[label] = {f"{unit}_us": 1e6 * unit_s, "run_us_quartiles": [1e6 * q1, 1e6 * q3]}
                row[label].update(stats)
                continue
            unit_s = statistics.median(times[label, key])
            q1, _, q3 = statistics.quantiles(times[label, key], n=4)
            row[label] = {f"{unit}_us": 1e6 * unit_s, f"{unit}_us_quartiles": [1e6 * q1, 1e6 * q3]}
            if (label, key) in child_rss:
                rss = child_rss[label, key]
                rss_q1, _, rss_q3 = statistics.quantiles(rss, n=4)
                row[label].update(peak_rss_mib=statistics.median(rss), peak_rss_mib_quartiles=[rss_q1, rss_q3])
            if entry in SOLVES:
                row[label]["iter_us"] = 1e6 * unit_s / stats["iters_mean"] if stats["iters_mean"] else None
            row[label].update(stats)
        if "parent" in pkgs:
            row[f"{unit}_speedup"] = row["parent"][f"{unit}_us"] / row["change"][f"{unit}_us"]
            if key in loop_times:
                parent, change = loop_times[key]["parent"], loop_times[key]["change"]
                q1, _, q3 = statistics.quantiles([c / b for b, c in zip(parent, change)], n=4)
                row.update(change_over_parent=sum(change) / sum(parent), run_ratio_quartiles=[q1, q3])
        results.append(row)
        print(json.dumps(row))

    summary = {}
    if "parent" in pkgs:
        summary["loops_change_over_parent_pooled_over_p"] = {
            entry: sum(sum(loop_times[key]["change"]) for key in loop_times if key[0] == entry)
            / sum(sum(loop_times[key]["parent"]) for key in loop_times if key[0] == entry)
            for entry in LOOPS
        }
    # The whole battery per repeat: the sum of its criteria's times in that repeat.
    verify_keys = [key for key in cases if key[0].startswith("verify_")]
    battery = {}
    for label in pkgs:
        totals = [sum(times[label, key][rep] for key in verify_keys) for rep in range(REPEATS)]
        q1, _, q3 = statistics.quantiles(totals, n=4)
        battery[label] = {"battery_s": statistics.median(totals), "battery_s_quartiles": [q1, q3]}
    if "parent" in pkgs:
        battery["battery_speedup"] = battery["parent"]["battery_s"] / battery["change"]["battery_s"]
    summary[f"verify_{VERIFY_PROFILE}_battery"] = battery
    print(json.dumps(summary))

    report = {
        "bench": (
            "inner solve, loop step, norm, functional, sweep cell, verify criterion and "
            "end-to-end process (bench/run_bench.py)"
        ),
        "repeats": REPEATS,
        "statistic": (
            "median over repeats of the mean wall time per call, loop step, sweep cell, "
            "verify criterion or child process (and of a child's max RSS), with the first "
            "and third quartiles of the repeats"
        ),
        "loop_statistic": (
            f"least of {LOOP_TIMINGS} wall times per run and tree, trees alternating run by "
            "run; change_over_parent is the ratio of the summed run times, with the quartiles "
            "of the per-run ratios"
        ),
        "machine": machine_info(),
        "trees": {label: tree_info(src) for label, src in trees.items()},
        "summary": summary,
        "results": results,
        "call_counts_note": CALL_COUNT_NOTE,
        "call_counts": call_counts,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
