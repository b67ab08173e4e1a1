"""Layer micro-benchmark: one table of rows, each timed against a second source tree.

    python bench/run_bench.py --out BENCH.json [--baseline OTHER/src]

Times the layers of the lpgreedy in ``src/`` next to this script ("change")
and, with ``--baseline``, of a second source tree ("parent", e.g. a ``git
clone`` of the parent commit) on the same seeded inputs. Each ``Row`` of
``table`` is one layer, named by its JSON ``entry``: the inner solves, norm
and functional, the dictionary scan and selection, one step of each loop
(also as a batch of one), the checkers and the slope fit, the trace CSV's
writer and reader, the suites of a sweep cell, ``run_sweep`` over p, each
``verify --profile full`` criterion (the calls of its row in the battery's
table), child processes, the drawing of a gaussian dictionary and
perfbench's two calibration kernels.
A case ``(p, dim)`` of a row draws its inputs from ``default_rng([row.seed,
int(10 * p), dim])``, and a row's seed never changes, so BENCH files compare
row for row.

Every case takes one path (``run_case``): both trees make the row's calls,
the first to build alternating over the cases of a dim, an untimed warm-up
pass records the counters, and each call is timed TIMINGS times per tree,
the trees alternating, keeping its least time (``time_calls``, ``ratios``). A
``verify`` row of fewer than MIN_RATIOS calls times them in rounds, so that its
median is of at least MIN_RATIOS per-call ratios; its reducer still gets each
call's result once.
Against the same ``src/`` the in-process rows read within about 5 % of 1;
a process row keeps a shared host's noise. The summary pools the ``verify``
rows and each loop row over p, and gives per tree the batch-of-one over
single-run time. ``call_counts`` holds exact, host-independent counts of
one loop step's Python-side work.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
HERE_SRC = ROOT / "src"
PS = (1.5, 2.0, 3.0)
# The ends of the p range, where Newton takes the most iterations.
EDGE_PS = (1.01, 8.0, 64.0)
# Inputs per case, by dim, and the atoms of a selection (or generated) row's dictionary.
INSTANCES, NORM_INSTANCES = {16: 40, 2048: 32}, {16: 400, 2048: 100}
SELECT_INSTANCES, SELECT_COUNTS = {16: 400, 2048: 32}, {16: 32, 2048: 4096}
GENERATE_INSTANCES, MEMORY_SHAPE = {16: 400, 2048: 8}, (SELECT_COUNTS[2048], 2048)
# A loop run's (dim, dictionary count, target sparsity, steps), and runs per case.
LOOP_SHAPE, LOOP_RUNS = (16, 32, 8, 10), 60
CELL_SHAPE, CELL_RUNS = (12, 24, 6, 6), 40
SWEEP_RUNS, CELL_REPLICATES = 20, 4
# Timings per call and tree (the least is kept); loop runs whose calls are counted.
TIMINGS, CALL_COUNT_RUNS = 3, 10
# Per-call ratios a verify row gives at least: a criterion of fewer calls is timed in rounds.
MIN_RATIOS = 20
VERIFY_PROFILE, VERIFY_SEED = "full", 0
PROCESS_RUNS, CALIBRATION_RUNS = 5, 40
RUN_CONFIG = ("space.p = 1.5\nspace.dim = 16\ndictionary.count = 32\ntarget.sparsity = 8\n"
              "algorithm.id = wgafr\nalgorithm.iters = 20\n")
# The last line a child prints: its peak RSS in KiB. VmHWM is the high-water mark of the child's
# own memory map; ru_maxrss would start from this process's, which the child inherits to its exec.
PEAK_RSS = "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')))"
STATISTIC = (f"least of {TIMINGS} wall times per call and tree, the trees back to back and "
             "alternating call by call; a verify row of fewer than "
             f"{MIN_RATIOS} calls times them in rounds, each round a ratio per call; a row's time "
             "per unit is the sum of its calls' least times over its units (and rounds), "
             "change_over_parent the median of the per-call ratios of least times, with their "
             "first and third quartiles, and summed_ratio the ratio of the summed least times")


def load_package(src: Path):
    """Import lpgreedy from ``src``, leaving any earlier import intact."""
    for name in [m for m in sys.modules if m == "lpgreedy" or m.startswith("lpgreedy.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("lpgreedy")
    finally:
        sys.path.remove(str(src))


# Inputs: (rng, p, dim) -> one input per call.
def vectors(count, per_dim, rng, p, dim):
    """``per_dim[dim]`` inputs of ``count`` complex Gaussian vectors each."""
    return [[rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]
            for _ in range(per_dim[dim])]


def seed_pairs(runs, rng, p, dim):
    """``runs`` (dictionary seed, target seed) pairs."""
    return [tuple(int(s) for s in rng.integers(2**31, size=2)) for _ in range(runs)]


def numbered(n, rng, p, dim):
    return list(range(n))


def seeds(per_dim, rng, p, dim):
    """``per_dim[dim]`` dictionary seeds."""
    return rng.integers(2**31, size=per_dim[dim]).tolist()


# Calls: (pkg, p, dim, inputs) -> one zero-argument call per input.
def space_calls(name, pkg, p, dim, data):
    """``name(space, *vectors)`` per input: a solve, a norm or a functional."""
    space = pkg.LpSpace(p, dim)
    return [partial(getattr(pkg, name), space, *args) for args in data]


def select_calls(name, pkg, p, dim, data):
    """Each input's functional through ``weak_select`` at t = 1, or ``eps_select`` at eps_m = 0
    towards an A_1 target, over one Gaussian dictionary of SELECT_COUNTS[dim] atoms."""
    dictionary = pkg.generate_dictionary(pkg.LpSpace(p, dim), SELECT_COUNTS[dim], "gaussian", 0)
    extra = (1.0,) if name == "weak_select" else (pkg.make_target(dictionary, "a1", 8).f, 0.0)
    return [partial(getattr(pkg, name), pkg.DualFunctional(c), dictionary, *extra) for c, in data]


def generate_calls(pkg, p, dim, data):
    """One gaussian dictionary of SELECT_COUNTS[dim] atoms per input seed. A call returns None,
    so that at most one dictionary (128 MiB at dim 2048) per tree is alive."""
    space = pkg.LpSpace(p, dim)

    def call(seed):
        pkg.generate_dictionary(space, SELECT_COUNTS[dim], "gaussian", seed)

    return [partial(call, seed) for seed in data]


def loop_calls(name, shape, batch, pkg, p, dim, data):
    """One call per seeded run of a loop at ``shape``, each returning its trace; ``batch``
    passes the run's space, dictionary and target as lists of one and gets a list back."""
    dim, count, sparsity, iters = shape
    space, tau = pkg.LpSpace(p, dim), pkg.WeaknessSequence.constant(1.0)
    args = {"run_wgafr": (tau,), "run_gawr": (tau, pkg.RelaxationSchedule.harmonic()),
            "run_iac": (1.0,), "run_iacc": (1.0,)}[name]
    calls = []
    for dict_seed, target_seed in data:
        dictionary = pkg.generate_dictionary(space, count, "gaussian", dict_seed)
        target = pkg.make_target(dictionary, "conv" if name == "run_iacc" else "a1", sparsity,
                                 0.0, target_seed)
        run = ([space], [dictionary], [target]) if batch else (space, dictionary, target)
        calls.append(partial(getattr(pkg, name), *run, *args, iters))
    return calls


def cell_config(pkg, algorithm, p, dict_seed, target_seed):
    """The config of one sweep cell shaped like the ``sweep_grid`` workload's."""
    dim, count, sparsity, iters = CELL_SHAPE
    return pkg.ExperimentConfig.from_dict({
        "space": {"p": p, "dim": dim},
        "dictionary": {"kind": "gaussian", "count": count, "seed": dict_seed},
        "target": {"membership": "conv" if algorithm == "iacc" else "a1", "sparsity": sparsity,
                   "seed": target_seed},
        "algorithm": {"id": algorithm, "iters": iters}})


def checker_calls(name, algorithms, pkg, p, dim, data):
    """Per input, one checker (or the slope fit) on a sweep cell's trace, as its suite calls
    it; the cells take ``algorithms`` in turn."""
    def call(config):
        (space,), (dictionary,), (target,) = pkg.harness._build([config])
        trace, _ = pkg.run_experiment(config)
        tau, slack, n = config.weakness(), config.checks.slack, len(trace.records)
        params = pkg.smoothness_params(space)
        return {
            "fit_log_slope": lambda: pkg.fit_log_slope(trace, (max(2, n // 10), n)),
            "check_barycentric": lambda: pkg.analysis.check_barycentric(trace, dictionary),
            "check_trivial_step": lambda: pkg.check_trivial_step(trace),
            "check_monotone": lambda: pkg.check_monotone(trace, slack),
            "check_ml1_trace": lambda: pkg.check_ml1_trace(
                space, trace, tau, target.A_eps, target.eps, slack=slack,
                grid_points=config.checks.lambda_points),
            "check_mt2_bound": lambda: pkg.check_mt2_bound(
                trace, params, target.A_eps, target.eps, tau, slack),
            "check_ml3_trace": lambda: pkg.check_ml3_trace(
                space, trace, target.A_eps, target.eps, tau.t, slack),
        }[name]

    return [call(cell_config(pkg, algorithms[i % len(algorithms)], p, *seeds))
            for i, seeds in enumerate(data)]


def trace_csv_calls(name, pkg, p, dim, data):
    """Per input, a sweep cell's trace written as its CSV text (``trace_csv_write``) or read
    back from a file written once (``trace_csv_read``); the cells take the four algorithms in
    turn, and the files live in a temporary directory that lives as long as the calls."""
    out_dir = tempfile.TemporaryDirectory(prefix="run_bench_trace_")
    calls = []
    for i, seeds in enumerate(data):
        algorithm = ("wgafr", "gawr", "iac", "iacc")[i % 4]
        trace, _ = pkg.run_experiment(cell_config(pkg, algorithm, p, *seeds))
        path = Path(out_dir.name) / f"{i}.csv"
        trace.write_csv(path)
        calls.append(trace.to_csv_string if name == "trace_csv_write"
                     else lambda path=path, out_dir=out_dir: pkg.read_trace_csv(path))
    return calls


def suite_stage_calls(algorithm, pkg, p, dim, data):
    """Per input (the seeds of a cell's first replicate), the checker suites of the cell's
    CELL_REPLICATES runs, built and checked as ``harness._run_batch`` builds and checks them."""
    calls = []
    for d, t in data:
        configs = [cell_config(pkg, algorithm, p, d + r, t + r) for r in range(CELL_REPLICATES)]
        traces = [pkg.run_experiment(config)[0] for config in configs]
        calls.append(partial(pkg.harness._suites, configs, *pkg.harness._build(configs), traces))
    return calls


def sweep_calls(algorithm, replicates, pkg, p, dim, data):
    """One ``run_sweep`` over ``space.p`` in PS per input (seeds), each returning its rows,
    writing its summary CSV into a temporary directory that lives as long as the calls."""
    out_dir = tempfile.TemporaryDirectory(prefix="run_bench_sweep_")
    specs = [pkg.SweepSpec(base=cell_config(pkg, algorithm, PS[0], d, t),
                           axes=[("space.p", list(PS))], replicate_seeds=replicates)
             for d, t in data]
    return [lambda spec=spec: pkg.run_sweep(spec, out_dir.name) for spec in specs]


def verify_calls(number, pkg, p, dim, data):
    """The calls of criterion ``number``'s row in ``pkg``'s battery table, one per input index."""
    calls = pkg.acceptance._TABLE[number][1](VERIFY_SEED, VERIFY_PROFILE)
    return [calls[i] for i in data]


def process_calls(code, pkg, p, dim, data):
    """One child process per input that runs ``code`` on ``pkg``'s source tree and returns its
    peak RSS in MiB; the config and outputs of ``lpgreedy run`` go in a temporary directory."""
    work = tempfile.TemporaryDirectory(prefix="run_bench_process_")
    config = Path(work.name) / "experiment.txt"
    config.write_text(RUN_CONFIG)
    argv = [sys.executable, "-c", f"{code.format(config=str(config), out=work.name)}\n{PEAK_RSS}"]
    env = dict(os.environ, PYTHONPATH=str(Path(pkg.__file__).resolve().parents[1]))

    def child(work=work):
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
        return int(out.split()[-1]) / 1024.0

    return [child] * len(data)


# Counters of the warm-up pass: (tree, results) -> {"units": what the time is divided by, ...}.
def solve_stats(pkg, results) -> dict:
    iters = [r.iterations for r in results]
    gaps = [r.gap / r.value for r in results if getattr(r, "gap", None) is not None and r.value > 0]
    return {"units": len(results), "iters_mean": statistics.fmean(iters), "iters_max": max(iters),
            "unconverged": sum(not r.converged for r in results),
            "max_rel_gap": max(gaps) if gaps else None}


def loop_stats(pkg, results) -> dict:
    traces = [t for result in results for t in (result if type(result) is list else [result])]
    records = [rec for trace in traces for rec in trace.records]
    return {"units": len(records), "steps": len(records),
            "unconverged_steps": sum(not rec.solver_converged for rec in records)}


def sweep_stats(pkg, results) -> dict:
    rows = [row for rows in results for row in rows]
    return {"units": len(rows), "cells": len(rows),
            "failed_cells": sum(1 for row in rows if row["error"] or row["pass_rate"] != "1.0")}


def criterion_stats(number, pkg, results) -> dict:
    """A verify row's calls, and the report its tree's reducer makes of their results."""
    name, _, reduce = pkg.acceptance._TABLE[number]
    report = reduce(name, results)
    return {"units": len(results), "calls": len(results), "passed": report.passed,
            "worst_margin": report.worst_margin}


def process_stats(pkg, results) -> dict:
    return {"units": len(results), "peak_rss_mib": statistics.median(results),
            "peak_rss_mib_quartiles": quartiles(results)}


@dataclass(frozen=True)
class Row:
    """A named call on seeded inputs at each of its cases. ``stats`` (None: units only) gives
    a tree's counters of the warm-up pass, ``counter`` those of one more pass; ``batch_of`` names
    the loop row whose inputs a batch-of-one row runs; ``rounds`` is how often each call is
    timed, each round giving one ratio per call (the warm-up makes each call once); ``extra``
    holds fields of the JSON row."""

    name: str
    seed: int
    cases: tuple
    inputs: Callable
    calls: Callable
    unit: str = "call"
    stats: Callable | None = None
    counter: Callable | None = None
    batch_of: str | None = None
    rounds: int = 1
    extra: dict = field(default_factory=dict)


def table(pkg) -> list:
    """Every row, the ``verify`` rows taken from ``pkg``'s battery. Seeds 0-29 are the rows'
    places in the entry list of BENCH_25.json and earlier, so each keeps its inputs."""
    both, sweep = tuple((p, dim) for p in PS for dim in (16, 2048)), ((None, CELL_SHAPE[0]),)
    cell, none = tuple((p, CELL_SHAPE[0]) for p in PS), ((None, None),)
    edges = tuple((p, 16) for p in EDGE_PS)
    loops = [("run_wgafr", 2, LOOP_SHAPE, newton_iterations),
             ("run_gawr", 3, LOOP_SHAPE, newton_iterations),
             ("run_iac", 21, CELL_SHAPE, None), ("run_iacc", 22, CELL_SHAPE, None)]
    checkers = [("fit_log_slope", 10, ("iac", "iacc")), ("check_barycentric", 11, ("iac", "iacc")),
                ("check_trivial_step", 12, ("iac", "iacc")), ("check_monotone", 13, ("wgafr",)),
                ("check_ml1_trace", 14, ("wgafr",)), ("check_mt2_bound", 15, ("wgafr",)),
                ("check_ml3_trace", 16, ("gawr",))]
    run_code = ("from lpgreedy.cli import main\n"
                "if main(['run', '--config', {config!r}, '--out', {out!r}]):\n"
                "    raise SystemExit('lpgreedy run failed')")
    calibrate = runpy.run_path(str(ROOT / "perfbench" / "calibrate.py"))
    cpu, memory = calibrate["CpuKernel"], calibrate["MemoryKernel"]
    return [
        *(Row(name, seed, cases, partial(vectors, count, INSTANCES), partial(space_calls, name),
              stats=solve_stats, counter=opcodes_per_iteration)
          for name, seed, count, cases in (
              ("minimize_over_line", 0, 2, both + edges),
              ("minimize_free_relax", 1, 3, both + edges))),
        *(Row(f"{name}_batch_of_one" if batch else name, seed, tuple((p, shape[0]) for p in PS),
              partial(seed_pairs, LOOP_RUNS), partial(loop_calls, name, shape, batch), "step",
              loop_stats, None if batch else counter, name if batch else None)
          for batch in (False, True) for name, seed, shape, counter in loops),
        *(Row(name, seed, both, partial(vectors, 1, NORM_INSTANCES), partial(space_calls, name))
          for name, seed in (("lp_norm", 4), ("norming_functional", 5))),
        *(Row(name, seed, both, partial(vectors, 1, SELECT_INSTANCES), partial(select_calls, name))
          for name, seed in (("weak_select", 34), ("eps_select", 35))),
        *(Row(name, seed, cell, partial(seed_pairs, CELL_RUNS), partial(checker_calls, name, algos))
          for name, seed, algos in checkers),
        *(Row(name, seed, cell, partial(seed_pairs, CELL_RUNS), partial(trace_csv_calls, name))
          for name, seed in (("trace_csv_write", 41), ("trace_csv_read", 42))),
        *(Row(f"suite_stage_{algo}", seed, cell, partial(seed_pairs, CELL_RUNS),
              partial(suite_stage_calls, algo), "cell")
          for algo, seed in (("iac", 23), ("iacc", 24))),
        *(Row(f"run_sweep_p_{algo}", seed, sweep, partial(seed_pairs, SWEEP_RUNS),
              partial(sweep_calls, algo, replicates), "cell", sweep_stats)
          for algo, seed, replicates in (("wgafr", 26, 1), ("gawr", 27, 1), ("iac", 28, 4),
                                         ("iacc", 29, 4))),
        *(Row(f"verify_{number:02d}_{name}", 36, none, partial(numbered, n),
              partial(verify_calls, number), stats=partial(criterion_stats, number),
              rounds=-(-MIN_RATIOS // n), extra={"profile": VERIFY_PROFILE, "seed": VERIFY_SEED})
          for number, (name, calls, _) in pkg.acceptance._TABLE.items()
          for n in [len(calls(VERIFY_SEED, VERIFY_PROFILE))]),
        *(Row(name, 37, none, partial(numbered, PROCESS_RUNS), partial(process_calls, code),
              "process", process_stats)
          for name, code in (("import_lpgreedy", "import lpgreedy"), ("lpgreedy_run", run_code))),
        Row("calibrate_cpu_kernel", 38, none, partial(numbered, CALIBRATION_RUNS),
            lambda pkg, p, dim, data: [cpu()] * len(data),
            extra={"reference_us": 1e6 * cpu.REFERENCE_S}),
        # At incremental_large's dictionary shape: the host's memory speed, which scales its setup_s.
        Row("calibrate_memory_kernel", 40, none, partial(numbered, CALIBRATION_RUNS),
            lambda pkg, p, dim, data: [memory(MEMORY_SHAPE)] * len(data),
            extra={"reference_us": 1e6 * memory.REFERENCE_S, "shape": list(MEMORY_SHAPE)}),
        Row("generate_dictionary", 39, tuple((p, dim) for p in (1.5, 3.0) for dim in (16, 2048)),
            partial(seeds, GENERATE_INSTANCES), generate_calls),
    ]


def instances(row: Row, p, dim) -> list:
    """The seeded inputs of one case of ``row``, one per call."""
    return row.inputs(np.random.default_rng([row.seed, int(10 * (p or 0)), dim or 0]), p, dim)


def warm_up(pkg, row: Row, calls) -> dict:
    """The untimed first pass of a case, then its counter pass: its units and counters."""
    results = [call() for call in calls]
    stats = row.stats(pkg, results) if row.stats else {"units": len(results)}
    if row.counter:
        row.counter(pkg, calls, stats)
    return stats


def time_calls(calls: dict) -> dict:
    """The least of TIMINGS times of each call, per tree; the trees alternate call by call."""
    labels = list(calls)
    best = {label: [] for label in labels}
    for i in range(len(calls[labels[0]])):
        times = {label: [] for label in labels}
        for rep in range(TIMINGS):
            for label in labels if (i + rep) % 2 == 0 else labels[::-1]:
                start = time.perf_counter()
                calls[label][i]()
                times[label].append(time.perf_counter() - start)
        for label in labels:
            best[label].append(min(times[label]))
    return best


def quartiles(values) -> list:
    """The first and third quartiles of ``values`` (the value itself when there is one)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return [q1, q3]


def ratios(times: dict) -> dict:
    """change/parent as the median of the per-call ratios of least times, with their
    quartiles, and as the ratio of the summed least times."""
    parent, change = times["parent"], times["change"]
    per_call = [c / b for b, c in zip(parent, change)]
    return {"change_over_parent": statistics.median(per_call),
            "call_ratio_quartiles": quartiles(per_call), "summed_ratio": sum(change) / sum(parent)}


def batch_over_single(singles: list, batches: list) -> float:
    """The median over inputs of a batch-of-one call's least time over its single run's, the
    two timed call by call, as the trees are, so that drifts in host speed cancel."""
    best = time_calls({"single": singles, "batch": batches})
    return statistics.median([b / s for s, b in zip(best["single"], best["batch"])])


def run_case(pkgs: dict, row: Row, p, dim, flip=False) -> tuple[dict, dict]:
    """One case of ``row`` on every tree: its JSON row and the least times of its calls. The
    trees build their calls in turn, the last tree first where ``flip`` is set."""
    data = instances(row, p, dim)
    calls = {label: row.calls(pkgs[label], p, dim, data) for label in [*pkgs][::-1 if flip else 1]}
    if len({len(tree_calls) for tree_calls in calls.values()}) > 1:
        raise SystemExit(f"{row.name}: the trees make different numbers of calls")
    stats = {label: warm_up(pkgs[label], row, calls[label]) for label in pkgs}
    times = time_calls({label: tree_calls * row.rounds for label, tree_calls in calls.items()})
    result = {"entry": row.name, "p": p, "dim": dim, "instances": len(calls["change"]), **row.extra}
    if row.rounds > 1:
        result["rounds"] = row.rounds
    for label, counters in stats.items():
        unit_s = sum(times[label]) / row.rounds / counters.pop("units")
        result[label] = {f"{row.unit}_us": 1e6 * unit_s}
        iters = counters.get("iters_mean")  # a solve row's; 0 at p = 2, where Newton never runs
        if iters is not None:
            result[label]["iter_us"] = 1e6 * unit_s / iters if iters else None
        result[label].update(counters)
    if "parent" in pkgs:
        result.update(ratios(times))
    return result, times


def hooked(set_hook, hook, calls) -> list:
    """Make ``calls`` once with ``hook`` set through ``set_hook`` (e.g. ``sys.settrace``)."""
    set_hook(hook)
    try:
        return [call() for call in calls]
    finally:
        set_hook(None)


def count_calls(calls) -> dict:
    """sys.setprofile 'call' (Python) and 'c_call' (C functions and methods such as
    ufunc.reduce and ndarray.all) events over whole runs, divided by the steps run; direct
    ufunc calls (np.abs(x)) and operators (@, +) are not counted."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    steps = sum(len(trace.records) for trace in hooked(sys.setprofile, profile, calls))
    return {"steps": steps, "python_calls_per_step": counts["call"] / steps,
            "c_calls_per_step": counts["c_call"] / steps}


def count_opcodes(pkg, calls) -> tuple[list, int]:
    """sys.settrace 'opcode' events (f_trace_opcodes) in frames whose code lies in the lpgreedy
    package directory, over the same runs as the call counts (divided by the steps run) and
    over each solve row's calls (divided by their Newton iterations)."""
    package = os.path.dirname(os.path.abspath(pkg.__file__)) + os.sep
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def start(frame, event, arg):  # None: the frame is not traced
        if frame.f_code.co_filename.startswith(package):
            frame.f_trace_opcodes = True
            return local

    return hooked(sys.settrace, start, calls), count


def opcodes_per_iteration(pkg, calls, stats) -> None:
    """The counter of a solve row: the bytecodes of its calls, per Newton iteration."""
    results, opcodes = count_opcodes(pkg, calls)
    iterations = sum(result.iterations for result in results)
    stats.update(opcodes=opcodes, opcodes_per_iter=opcodes / iterations if iterations else None)


def newton_iterations(pkg, calls, stats) -> None:
    """The counter of a relaxed loop row: its inner solves' Newton iterations, in all and per
    step. ``solvers._descend`` is wrapped wherever an lpgreedy module holds it (the loops of
    one tree call it through the public solvers, of another directly)."""
    original = pkg.solvers._descend
    holders = [m for m in (pkg.solvers, pkg.algorithms) if getattr(m, "_descend", None) is original]
    iterations = []

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    def set_descend(fn):
        for module in holders:
            module._descend = fn or original

    hooked(set_descend, wrapped, calls)
    stats.update(newton_iters=sum(iterations), newton_iters_per_step=sum(iterations) / stats["steps"])


def call_counts(pkgs: dict, rows: dict) -> list:
    """Per loop and p, the calls and bytecodes of one step at LOOP_SHAPE, over the first
    CALL_COUNT_RUNS inputs of the ``run_wgafr`` row."""
    counts = []
    for name in ("run_wgafr", "run_gawr", "run_iac", "run_iacc"):
        for p in PS:
            data = instances(rows["run_wgafr"], p, LOOP_SHAPE[0])[:CALL_COUNT_RUNS]
            entry = {"entry": name, "p": p, "dim": LOOP_SHAPE[0], "instances": len(data)}
            for label, pkg in pkgs.items():
                calls = loop_calls(name, LOOP_SHAPE, False, pkg, p, None, data)
                [call() for call in calls]  # untimed, uncounted warm-up
                entry[label] = count_calls(calls)
                opcodes = count_opcodes(pkg, calls)[1]
                entry[label].update(opcodes=opcodes, opcodes_per_step=opcodes / entry[label]["steps"])
            counts.append(entry)
            print(json.dumps(entry))
    return counts


def tree_info(src: Path) -> dict:
    lines = sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py")))
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        commit, edited = git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))
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
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)

    trees = {**({"parent": args.baseline.resolve()} if args.baseline else {}), "change": HERE_SRC}
    # Bytecode for both trees up front, so no child process compiles a tree
    # that has no cache (a fresh clone under PYTHONDONTWRITEBYTECODE).
    for src in trees.values():
        compileall.compile_dir(src, quiet=1)
    pkgs = {label: load_package(src) for label, src in trees.items()}
    rows = {row.name: row for row in table(pkgs["change"])}
    counts = call_counts(pkgs, rows)
    # One case at a time, so that at most one case's inputs (up to two 128 MiB
    # dictionaries) are alive; the tree built first alternates over the cases of each dim.
    results, times, flips = [], {}, {}
    for row in rows.values():
        for p, dim in row.cases:
            flips[dim] = flip = not flips.get(dim, True)  # False at a dim's first case
            result, times[row.name, p, dim] = run_case(pkgs, row, p, dim, flip)
            results.append(result)
            print(json.dumps(result))

    def pooled(names):  # a row's least times over its rounds, so that the sums are of one pass
        return {label: [t / rows[name].rounds for (name, *_), per_tree in times.items()
                        if name in names for t in per_tree[label]] for label in pkgs}

    verify = [name for name in rows if name.startswith("verify_")]
    battery = {label: {"battery_s": sum(s)} for label, s in pooled(verify).items()}
    summary = {f"verify_{VERIFY_PROFILE}_battery": battery, "batch_of_one_over_single": {}}
    for row in rows.values():
        if row.batch_of:  # its loop row's inputs, p by p in the same order, timed again
            summary["batch_of_one_over_single"][row.batch_of] = {label: batch_over_single(*(
                [call for p, dim in r.cases for call in r.calls(pkg, p, dim, instances(r, p, dim))]
                for r in (rows[row.batch_of], row))) for label, pkg in pkgs.items()}
    if "parent" in pkgs:
        battery.update(ratios(pooled(verify)))
        summary["loops_pooled_over_p"] = {
            name: ratios(pooled([name])) for name, row in rows.items() if row.unit == "step"}
    print(json.dumps(summary))

    report = {
        "bench": "the row table of bench/run_bench.py",
        "timings": TIMINGS,
        "statistic": STATISTIC,
        "machine": machine_info(),
        "trees": {label: tree_info(src) for label, src in trees.items()},
        "summary": summary,
        "results": results,
        "call_counts_note": " ".join(count_calls.__doc__.split()),
        "opcode_counts_note": " ".join(count_opcodes.__doc__.split()),
        "call_counts": counts,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
