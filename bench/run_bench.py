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
  counted in the untimed warm-up pass, so they do not depend on the host);
* one loop step of ``run_iac`` and ``run_iacc`` (``K1 = 1``, convex
  targets for ``run_iacc``) at the sweep-cell shape below: time per step
  and steps run;
* each of those four loop rows again as a batch of one, on the same
  inputs passed as lists of one space, dictionary and target: time per
  step and steps run; the summary gives, per tree and loop, the median
  over the inputs (pooled over p) of batch-of-one time over single-run
  time, the two timed again call by call for it: what folding a single
  run's own loop path into the batch path would cost it;
* the calls one loop step makes, for all four loops on the loop rows'
  first CALL_COUNT_RUNS inputs (``run_iac`` with ``K1 = 1``, ``run_iacc``
  on convex targets), counted with ``sys.setprofile`` over whole runs
  and divided by the steps run: Python calls and calls of C functions
  and methods (``ufunc.reduce``, ``ndarray.all``). A direct ufunc call
  (``np.abs(x)``) or an operator (``@``, ``+``) is not a call to the
  profiler, so these counts are exact and host-independent but not a
  census of numpy work;
* in the same untimed pass, the bytecodes those runs execute in
  lpgreedy's own frames (``sys.settrace`` with ``f_trace_opcodes``, frames
  of files in the package directory only), per loop step, and the same
  count per Newton iteration for every solve row (None at p = 2, where no
  iteration runs): Python-side work that does not depend on the host;
* ``lp_norm`` and ``norming_functional`` at dim 16 and 2048: time per call;
* the bookkeeping of one sweep cell, per call, on cells shaped like the
  ``sweep_grid`` benchmark workload (dim 12, count 24 Gaussian
  dictionaries, targets of sparsity 6, 6 steps): ``with_fields`` (the
  cell's one config edit), ``hash``, the two draws of ``_build``
  (``generate_dictionary``, and ``make_target`` for iac and iacc
  targets), ``fit_log_slope`` and each checker of the ``run_experiment``
  suites, called as that suite calls it (``check_barycentric`` and
  ``check_trivial_step`` on iac and iacc traces, ``check_monotone``,
  ``check_ml1_trace`` and ``check_mt2_bound`` on wgafr traces,
  ``check_ml3_trace`` on gawr traces);
* the checker suites of one sweep cell of CELL_REPLICATES ``iac`` or
  ``iacc`` replicates, as ``harness._run_batch`` runs them after the loop
  (time per cell): ``harness._suites``, stacked passes over the batch;
  and the draws of one ``iac`` cell's dictionaries and targets before
  the loop, ``harness._build`` of the batch;
* ``run_sweep`` end to end, one row per algorithm and p: SWEEP_RUNS
  sweeps of one cell of CELL_REPLICATES replicates (the shape of the
  ``sweep_grid`` workload's iac/iacc sweeps, whose replicates run as one
  batch), each writing its summary CSV into a temporary directory; time
  per cell;
* ``run_sweep`` over ``space.p`` in {1.5, 2, 3}, one row per algorithm:
  SWEEP_RUNS sweeps shaped like a ``sweep_grid`` op (P_SWEEPS replicates
  per cell, 4 for iac/iacc and 1 for wgafr/gawr), whose cells run as one
  batch where the package batches across p; time per cell;
* the ``verify`` battery at ``--profile full``, seed 0: criteria 1-4, 13
  and 14 as one call each (time per criterion, with its verdict and worst
  margin); criteria 5-12, which make greedy runs, as the
  ``run_experiment`` calls each makes (16 to 50 per criterion), whose
  configs are recorded in one untimed pass of the criterion on each tree
  in turn (time per run, with the runs, their steps and their failed
  checker reports);
* end to end, PROCESS_RUNS child Python processes per row: ``import
  lpgreedy`` alone, and one small ``lpgreedy run`` (RUN_CONFIG, through
  ``lpgreedy.cli.main``): wall time per process and the median and
  quartiles of the children's peak resident set size (``VmHWM``, so Linux
  only);
* perfbench's calibration kernel (``CpuKernel`` of
  ``perfbench/calibrate.py``) with its ``REFERENCE_S``, so that files
  from different hosts can be scaled. It runs the same numpy code under
  both labels, so its change/parent also shows the noise of the run.

Both packages are imported into this one process. Every case is a list of
zero-argument calls, one per input: a solve, a norm or functional call, a
sweep cell's config edit, hash, build or checker, one ``run_sweep``, one
loop run, one ``verify`` criterion or run, or one child process. After an untimed
warm-up pass, which also records the deterministic counters, each call is
timed TIMINGS times per tree with ``time.perf_counter``, the trees back
to back and alternating which goes first, and keeps its least time per
tree, so drifts in host speed hit both trees alike. A row reports time
per unit from the summed least times and, with ``--baseline``,
change_over_parent, the median of the per-call ratios of least times,
with their first and third quartiles, so that one call slowed by the
host cannot move a whole row; summed_ratio, the ratio of the summed
least times, is given next to it. With ``--baseline`` set to this
``src/`` the in-process rows (20 to 400 calls each) read within about
5 % of 1, and so do the run rows of criteria 5-12. A one-call ``verify``
criterion and a process row (PROCESS_RUNS calls) are too few calls to
average the host's noise away: on a shared host those rows move by tens
of per cent. The JSON pools each loop's calls over p, and the ``verify
--profile full`` battery's over its rows (criteria 5-12 as their runs);
the battery's total time makes its summed_ratio.
It also records the ``src/`` line count and commit of each tree (and whether its ``src/`` has
edits not yet committed), the machine and the package versions.
"""

from __future__ import annotations

import argparse
import compileall
import functools
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
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
HERE_SRC = ROOT / "src"
SOLVES = ("minimize_over_line", "minimize_free_relax")
LOOPS = ("run_wgafr", "run_gawr")
NORMS = ("lp_norm", "norming_functional")
# Sweep-cell bookkeeping, each entry with the algorithms whose cells it times.
CELL_PARTS = {
    "with_fields": ("iac",),
    "hash": ("iac",),
    "generate_dictionary": ("iac",),
    "make_target": ("iac", "iacc"),
    "fit_log_slope": ("iac", "iacc"),
    "check_barycentric": ("iac", "iacc"),
    "check_trivial_step": ("iac", "iacc"),
    "check_monotone": ("wgafr",),
    "check_ml1_trace": ("wgafr",),
    "check_mt2_bound": ("wgafr",),
    "check_ml3_trace": ("gawr",),
}
# One run_sweep case per algorithm.
SWEEPS = ("run_sweep_wgafr", "run_sweep_gawr", "run_sweep_iac", "run_sweep_iacc")
# One run_sweep case per algorithm over space.p in PS, with a sweep_grid op's replicates per cell.
P_SWEEPS = {"run_sweep_p_wgafr": 1, "run_sweep_p_gawr": 1, "run_sweep_p_iac": 4,
            "run_sweep_p_iacc": 4}
# The incremental loops, timed at the sweep-cell shape (CELL_SHAPE).
CELL_LOOPS = ("run_iac", "run_iacc")
# Each loop row again, its runs passed as batches of one: entry -> the loop row.
BATCHES_OF_ONE = {f"{loop}_batch_of_one": loop for loop in LOOPS + CELL_LOOPS}
# The stages around the loop of one iac/iacc sweep cell of CELL_REPLICATES replicates.
CELL_STAGES = ("suite_stage_iac", "suite_stage_iacc", "build_stage_iac")
ENTRIES = (SOLVES + LOOPS + NORMS + tuple(CELL_PARTS) + SWEEPS + CELL_LOOPS + CELL_STAGES
           + tuple(P_SWEEPS) + tuple(BATCHES_OF_ONE))
PS = (1.5, 2.0, 3.0)
# The ends of the p range, where Newton takes the most iterations.
EDGE_PS = (1.01, 8.0, 64.0)
# Inputs per case, by dim; a loop case runs LOOP_RUNS runs at LOOP_DIM.
INSTANCES = {16: 40, 2048: 32}
NORM_INSTANCES = {16: 400, 2048: 100}
LOOP_DIM, LOOP_COUNT, LOOP_SPARSITY, LOOP_ITERS, LOOP_RUNS = 16, 32, 8, 10, 60
LOOP_SHAPE = (LOOP_DIM, LOOP_COUNT, LOOP_SPARSITY, LOOP_ITERS)
# Timings per call and tree (the least is kept); loop runs whose calls are counted.
TIMINGS, CALL_COUNT_RUNS = 3, 10
COUNTED_LOOPS = LOOPS + ("run_iac", "run_iacc")
CALL_COUNT_NOTE = (
    "sys.setprofile 'call' (Python) and 'c_call' (C functions and methods such as "
    "ufunc.reduce and ndarray.all) events over whole runs, divided by the steps run; "
    "direct ufunc calls (np.abs(x)) and operators (@, +) are not counted"
)
OPCODE_COUNT_NOTE = (
    "sys.settrace 'opcode' events (f_trace_opcodes) in frames whose code lies in the lpgreedy "
    "package directory, over the same runs as the call counts (divided by the steps run) and "
    "over each solve row's calls (divided by their Newton iterations)"
)
CELL_DIM, CELL_COUNT, CELL_SPARSITY, CELL_ITERS, CELL_RUNS = 12, 24, 6, 6, 40
CELL_SHAPE = (CELL_DIM, CELL_COUNT, CELL_SPARSITY, CELL_ITERS)
# A run_sweep case runs SWEEP_RUNS sweeps of its algorithm, CELL_REPLICATES cells each.
SWEEP_RUNS, CELL_REPLICATES = 20, 4
# The verify rows: one per criterion, one call each, except that the criteria
# in RUN_CRITERIA are timed as the run_experiment calls they make.
VERIFY_PROFILE, VERIFY_SEED = "full", 0
RUN_CRITERIA = range(5, 13)
# The end-to-end rows: PROCESS_RUNS child Python processes each, running this code.
PROCESSES = {
    "import_lpgreedy": "import lpgreedy",
    "lpgreedy_run": (
        "from lpgreedy.cli import main\n"
        "if main(['run', '--config', {config!r}, '--out', {out!r}]):\n"
        "    raise SystemExit('lpgreedy run failed')"
    ),
}
PROCESS_RUNS = 5
RUN_CONFIG = (
    "space.p = 1.5\nspace.dim = 16\ndictionary.count = 32\ntarget.sparsity = 8\n"
    "algorithm.id = wgafr\nalgorithm.iters = 20\n"
)
# The last line a child prints: its peak RSS in KiB. VmHWM is the high-water
# mark of the child's own memory map; ru_maxrss would start from this
# process's RSS, which the child's map inherits up to its exec.
PEAK_RSS = "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')))"
# The calibration row: CALIBRATION_RUNS calls of perfbench's CPU kernel.
CALIBRATION, CALIBRATION_RUNS = "calibrate_cpu_kernel", 40
CALIBRATE = ROOT / "perfbench" / "calibrate.py"


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
    """The seeded inputs of one case: vectors, or loop-run seeds (a batch-of-one row its loop's)."""
    entry = BATCHES_OF_ONE.get(entry, entry)
    rng = np.random.default_rng([ENTRIES.index(entry), int(10 * (p or 0)), dim])
    if (entry in LOOPS + CELL_LOOPS + CELL_STAGES or entry in CELL_PARTS or entry in SWEEPS
            or entry in P_SWEEPS):
        runs = (
            LOOP_RUNS if entry in LOOPS + CELL_LOOPS
            else CELL_RUNS if entry in CELL_PARTS or entry in CELL_STAGES else SWEEP_RUNS
        )
        seeds = [tuple(int(s) for s in rng.integers(2**31, size=2)) for _ in range(runs)]
        return seeds
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


def build(pkg, config):
    """The config's space, dictionary and target, drawn as ``run_experiment`` draws them."""
    space = pkg.LpSpace(config.space.p, config.space.dim)
    d, t = config.dictionary, config.target
    dictionary = pkg.generate_dictionary(space, d.count, d.kind, d.seed)
    return space, dictionary, pkg.make_target(dictionary, t.membership, t.sparsity, t.eps, t.seed)


def prepare_cell_part(pkg, entry, p, data):
    """One call per input of a cell-bookkeeping case, made as ``run_experiment`` makes it."""
    algorithms = CELL_PARTS[entry]
    configs = [
        cell_config(pkg, algorithms[i % len(algorithms)], p, *seeds)
        for i, seeds in enumerate(data)
    ]
    if entry == "with_fields":
        edits = [{"space.p": p, "dictionary.seed": d, "target.seed": t} for d, t in data]
        return [functools.partial(configs[0].with_fields, edit) for edit in edits]
    if entry == "hash":
        return [config.hash for config in configs]
    if entry == "generate_dictionary":
        return [
            functools.partial(
                pkg.generate_dictionary, pkg.LpSpace(c.space.p, c.space.dim), c.dictionary.count,
                c.dictionary.kind, c.dictionary.seed,
            )
            for c in configs
        ]
    if entry == "make_target":
        return [
            functools.partial(
                pkg.make_target, build(pkg, c)[1], c.target.membership, c.target.sparsity,
                c.target.eps, c.target.seed,
            )
            for c in configs
        ]
    return [suite_call(pkg, entry, config) for config in configs]


def suite_call(pkg, entry, config):
    """A call of one checker, or of the slope fit, on the config's trace as the suite makes it."""
    space, dictionary, target = build(pkg, config)
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


def prepare_cell_stage(pkg, entry, p, data):
    """One call per input (the seeds of a cell's first replicate): the cell's build or checks."""
    stage, _, algorithm = entry.split("_")
    calls = []
    for d, t in data:
        configs = [cell_config(pkg, algorithm, p, d + r, t + r) for r in range(CELL_REPLICATES)]
        if stage == "build":  # the draws of the cell's replicates: one ``harness._build``
            calls.append(functools.partial(pkg.harness._build, configs))
            continue
        spaces, dictionaries, targets = zip(*[build(pkg, config) for config in configs])
        traces = [pkg.run_experiment(config)[0] for config in configs]
        # The checker suites, as ``_run_batch`` runs them; the config hash that
        # each trace is stamped with (one ``hash`` per replicate) is not part of it.
        calls.append(functools.partial(pkg.harness._suites, configs, list(spaces), dictionaries,
                                       targets, traces))
    return calls


def prepare_sweep(pkg, entry, p, data):
    """One ``run_sweep`` call of the entry's algorithm per input (seeds), each returning its rows.

    A SWEEPS entry sweeps one cell at ``p``, a P_SWEEPS entry every p in PS.
    The sweeps write their summary CSV into a temporary directory that lives
    as long as the calls do.
    """
    out_dir = tempfile.TemporaryDirectory(prefix="run_bench_sweep_")
    algorithm, over_p = entry.rsplit("_", 1)[1], entry in P_SWEEPS
    specs = [
        pkg.SweepSpec(
            base=cell_config(pkg, algorithm, PS[0] if over_p else p, d, t),
            axes=[("space.p", list(PS))] if over_p else [],
            replicate_seeds=P_SWEEPS[entry] if over_p else CELL_REPLICATES,
        )
        for d, t in data
    ]
    return [lambda spec=spec: pkg.run_sweep(spec, out_dir.name) for spec in specs]


def child_process(code: str, src: Path) -> float:
    """Run one Python child on the lpgreedy in ``src``; return its peak RSS in MiB."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{PEAK_RSS}"], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    ).stdout
    return int(out.split()[-1]) / 1024.0


def prepare_process(pkg, entry, data):
    """One call per input that runs the case's child process on ``pkg``'s source tree.

    The config and the outputs of ``lpgreedy run`` live in a temporary
    directory that lives as long as the calls do.
    """
    work = tempfile.TemporaryDirectory(prefix="run_bench_process_")
    config = Path(work.name) / "experiment.txt"
    config.write_text(RUN_CONFIG)
    code = PROCESSES[entry].format(config=str(config), out=work.name)
    src = Path(pkg.__file__).resolve().parents[1]
    return [lambda work=work: child_process(code, src) for _ in data]


def is_run_criterion(entry: str) -> bool:
    """Whether ``entry`` is the row of a criterion timed run by run."""
    return entry.startswith("verify_") and int(entry.split("_")[1]) in RUN_CRITERIA


def criterion_runs(pkg, criterion):
    """One ``run_experiment`` call per config that one untimed call of ``criterion`` runs."""
    configs = []
    original = pkg.acceptance.run_experiment

    def recorded(config, *args, **kwargs):
        configs.append(config)
        return original(config, *args, **kwargs)

    pkg.acceptance.run_experiment = recorded
    try:
        criterion()
    finally:
        pkg.acceptance.run_experiment = original
    return [functools.partial(pkg.run_experiment, config) for config in configs]


def loop_runs(pkg, entry, p, data, shape=LOOP_SHAPE, batch=False):
    """One call per seeded run of a loop, each returning its trace (``batch``: a list of it).

    ``shape`` is (dim, dictionary count, target sparsity, steps per run);
    ``batch`` passes each run's space, dictionary and target as lists of one.
    """
    dim, count, sparsity, iters = shape
    space = pkg.LpSpace(p, dim)
    tau = pkg.WeaknessSequence.constant(1.0)
    args = {
        "run_wgafr": (tau,),
        "run_gawr": (tau, pkg.RelaxationSchedule.harmonic()),
        "run_iac": (1.0,),
        "run_iacc": (1.0,),
    }[entry]
    calls = []
    for dict_seed, target_seed in data:
        dictionary = pkg.generate_dictionary(space, count, "gaussian", dict_seed)
        membership = "conv" if entry == "run_iacc" else "a1"
        target = pkg.make_target(dictionary, membership, sparsity, 0.0, target_seed)
        run = ([space], [dictionary], [target]) if batch else (space, dictionary, target)
        calls.append(functools.partial(getattr(pkg, entry), *run, *args, iters))
    return calls


def prepare(pkg, entry, p, dim, data):
    """The case's calls through ``pkg``: one zero-argument call per input, each returning its result."""
    if entry == CALIBRATION:
        return [runpy.run_path(str(CALIBRATE))["CpuKernel"]()] * len(data)
    if entry in PROCESSES:
        return prepare_process(pkg, entry, data)
    if entry.startswith("verify_"):
        criteria = {number: fn for number, _, fn in pkg.acceptance.ALL_CRITERIA}
        calls = [functools.partial(criteria[n], seed=VERIFY_SEED, profile=VERIFY_PROFILE) for n in data]
        return criterion_runs(pkg, calls[0]) if is_run_criterion(entry) else calls
    if entry in LOOPS:
        return loop_runs(pkg, entry, p, data)
    if entry in CELL_LOOPS:
        return loop_runs(pkg, entry, p, data, CELL_SHAPE)
    if entry in BATCHES_OF_ONE:
        loop = BATCHES_OF_ONE[entry]
        shape = LOOP_SHAPE if loop in LOOPS else CELL_SHAPE
        return loop_runs(pkg, loop, p, data, shape, batch=True)
    if entry in CELL_PARTS:
        return prepare_cell_part(pkg, entry, p, data)
    if entry in SWEEPS or entry in P_SWEEPS:
        return prepare_sweep(pkg, entry, p, data)
    if entry in CELL_STAGES:
        return prepare_cell_stage(pkg, entry, p, data)
    space = pkg.LpSpace(p, dim)
    fn = getattr(pkg, entry)
    return [functools.partial(fn, space, *args) for args in data]


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
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def ratios(times: dict) -> dict:
    """change/parent as the median of the per-call ratios of least times, with their
    quartiles, and as the ratio of the summed least times."""
    parent, change = times["parent"], times["change"]
    per_call = [c / b for b, c in zip(parent, change)]
    return {
        "change_over_parent": statistics.median(per_call),
        "call_ratio_quartiles": quartiles(per_call),
        "summed_ratio": sum(change) / sum(parent),
    }


def batch_over_single(singles: list, batches: list) -> float:
    """The median over inputs of a batch-of-one call's least time over its single run's.

    The two are timed again call by call, as the trees are, so that drifts
    in host speed between the rows' own timings cancel.
    """
    best = time_calls({"single": singles, "batch": batches})
    return statistics.median([b / s for s, b in zip(best["single"], best["batch"])])


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


def count_opcodes(pkg, calls) -> tuple[list, int]:
    """Make ``calls`` once; return their results and the bytecodes run in ``pkg``'s own frames.

    A frame counts when its code lies in the package directory of ``pkg``
    (so neither numpy's Python code nor this script's), and every opcode
    it executes is one event of ``sys.settrace`` with ``f_trace_opcodes``.
    """
    package = os.path.dirname(os.path.abspath(pkg.__file__)) + os.sep
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        results = [call() for call in calls]
    finally:
        sys.settrace(None)
    return results, count


def count_newton_iterations(pkg, calls):
    """Make ``calls`` once; return their results and the Newton iterations of their inner solves.

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
        results = [call() for call in calls]
    finally:
        for module in holders:
            module._descend = original
    return results, sum(iterations)


def warm_up(pkg, entry, calls) -> dict:
    """The untimed first pass of a case: its deterministic counters."""
    if entry not in LOOPS:
        return outcome(entry, [call() for call in calls])
    results, iterations = count_newton_iterations(pkg, calls)
    stats = outcome(entry, results)
    stats.update(newton_iters=iterations, newton_iters_per_step=iterations / stats["steps"])
    return stats


def outcome(entry, results) -> dict:
    """Deterministic counters of one pass, and the units its time is divided by."""
    if entry in LOOPS + CELL_LOOPS or entry in BATCHES_OF_ONE:
        traces = [t for result in results for t in (result if type(result) is list else [result])]
        records = [rec for trace in traces for rec in trace.records]
        return {
            "units": len(records),
            "steps": len(records),
            "unconverged_steps": sum(not rec.solver_converged for rec in records),
        }
    if is_run_criterion(entry):
        return {
            "units": len(results),
            "runs": len(results),
            "steps": sum(len(trace.records) for trace, _ in results),
            "failed_reports": sum(not r.passed for _, reports in results for r in reports),
        }
    if entry.startswith("verify_"):
        return {"units": 1, "passed": results[0].passed, "worst_margin": results[0].worst_margin}
    if entry in PROCESSES:
        return {
            "units": len(results),
            "peak_rss_mib": statistics.median(results),
            "peak_rss_mib_quartiles": quartiles(results),
        }
    if entry in SWEEPS or entry in P_SWEEPS:
        rows = [row for rows in results for row in rows]
        return {"units": len(rows), "cells": len(rows),
                "failed_cells": sum(1 for row in rows if row["error"] or row["pass_rate"] != "1.0")}
    if entry not in SOLVES:
        return {"units": len(results)}
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
    # Bytecode for both trees up front, so no child process compiles a tree
    # that has no cache (a fresh clone under PYTHONDONTWRITEBYTECODE).
    for src in trees.values():
        compileall.compile_dir(src, quiet=1)
    pkgs = {label: load_package(src) for label, src in trees.items()}
    cases = {
        (entry, p, dim): instances(entry, p, dim)
        for entry in ENTRIES if entry not in P_SWEEPS for p in PS
        for dim in (
            (LOOP_DIM,) if BATCHES_OF_ONE.get(entry, entry) in LOOPS
            else (CELL_DIM,)
            if entry in CELL_PARTS or entry in BATCHES_OF_ONE
            or entry in SWEEPS + CELL_LOOPS + CELL_STAGES
            else INSTANCES
        )
    }
    cases.update(
        (("minimize_free_relax", p, 16), instances("minimize_free_relax", p, 16)) for p in EDGE_PS
    )
    cases.update(((entry, None, CELL_DIM), instances(entry, None, CELL_DIM)) for entry in P_SWEEPS)
    # A verify case's one input is its criterion number.
    cases.update(
        ((f"verify_{number:02d}_{name}", None, None), [number])
        for number, name, _ in pkgs["change"].acceptance.ALL_CRITERIA
    )
    cases.update(((entry, None, None), list(range(PROCESS_RUNS))) for entry in PROCESSES)
    cases[CALIBRATION, None, None] = list(range(CALIBRATION_RUNS))
    calls = {
        key: {label: prepare(pkg, *key, data) for label, pkg in pkgs.items()}
        for key, data in cases.items()
    }
    for key, case in calls.items():
        if len({len(tree_calls) for tree_calls in case.values()}) > 1:
            raise SystemExit(f"{key[0]}: the trees make different numbers of calls")
    # Untimed warm-up pass, which also records the deterministic counters.
    outcomes = {
        key: {label: warm_up(pkgs[label], key[0], tree_calls) for label, tree_calls in case.items()}
        for key, case in calls.items()
    }
    call_counts = []
    for entry in COUNTED_LOOPS:
        for p in PS:
            data = instances("run_wgafr", p, LOOP_DIM)[:CALL_COUNT_RUNS]
            row = {"entry": entry, "p": p, "dim": LOOP_DIM, "instances": len(data)}
            for label, pkg in pkgs.items():
                counted = loop_runs(pkg, entry, p, data)
                for call in counted:  # untimed, uncounted warm-up
                    call()
                row[label] = count_calls(counted)
                opcodes = count_opcodes(pkg, counted)[1]
                row[label].update(opcodes=opcodes, opcodes_per_step=opcodes / row[label]["steps"])
            call_counts.append(row)
            print(json.dumps(row))
    opcode_counts = {}
    for key, case in calls.items():
        if key[0] in SOLVES:
            for label, tree_calls in case.items():
                results, opcodes = count_opcodes(pkgs[label], tree_calls)
                iterations = sum(result.iterations for result in results)
                opcode_counts[key, label] = {
                    "opcodes": opcodes,
                    "opcodes_per_iter": opcodes / iterations if iterations else None,
                }
    times = {key: time_calls(case) for key, case in calls.items()}

    results = []
    for key in cases:
        entry, p, dim = key
        verify = entry.startswith("verify_")
        unit = (
            "run" if is_run_criterion(entry) else "criterion" if verify
            else "step" if entry in LOOPS + CELL_LOOPS or entry in BATCHES_OF_ONE
            else "cell" if entry in SWEEPS + CELL_STAGES or entry in P_SWEEPS
            else "process" if entry in PROCESSES else "call"
        )
        row = {"entry": entry, "p": p, "dim": dim, "instances": len(calls[key]["change"])}
        if verify:
            row.update(profile=VERIFY_PROFILE, seed=VERIFY_SEED)
        if entry == CALIBRATION:
            row["reference_us"] = 1e6 * calls[key]["change"][0].REFERENCE_S
        for label in pkgs:
            stats = outcomes[key][label]
            unit_s = sum(times[key][label]) / stats.pop("units")
            row[label] = {f"{unit}_us": 1e6 * unit_s}
            if entry in SOLVES:
                row[label]["iter_us"] = 1e6 * unit_s / stats["iters_mean"] if stats["iters_mean"] else None
                stats.update(opcode_counts[key, label])
            row[label].update(stats)
        if "parent" in pkgs:
            row.update(ratios(times[key]))
        results.append(row)
        print(json.dumps(row))

    def pooled(keys):
        return {label: [t for key in keys for t in times[key][label]] for label in pkgs}

    verify_keys = [key for key in cases if key[0].startswith("verify_")]
    battery = {label: {"battery_s": sum(s)} for label, s in pooled(verify_keys).items()}
    summary = {f"verify_{VERIFY_PROFILE}_battery": battery}
    # A batch-of-one row's calls take its loop row's inputs, p by p in the same order.
    summary["batch_of_one_over_single"] = {
        loop: {label: batch_over_single(*([call for key in cases if key[0] == e
                                           for call in calls[key][label]] for e in (loop, entry)))
               for label in pkgs}
        for entry, loop in BATCHES_OF_ONE.items()
    }
    if "parent" in pkgs:
        battery.update(ratios(pooled(verify_keys)))
        summary["loops_pooled_over_p"] = {
            entry: ratios(pooled([key for key in cases if key[0] == entry]))
            for entry in LOOPS + CELL_LOOPS + tuple(BATCHES_OF_ONE)
        }
    print(json.dumps(summary))

    report = {
        "bench": (
            "inner solve, loop step, norm, functional, sweep cell, verify criterion, "
            "end-to-end process and calibration kernel (bench/run_bench.py)"
        ),
        "timings": TIMINGS,
        "statistic": (
            f"least of {TIMINGS} wall times per call and tree, the trees back to back and "
            "alternating call by call; a row's time per unit is the sum of its calls' least "
            "times over its units, change_over_parent the median of the per-call ratios of "
            "least times, with their first and third quartiles, and summed_ratio the ratio of "
            "the summed least times"
        ),
        "machine": machine_info(),
        "trees": {label: tree_info(src) for label, src in trees.items()},
        "summary": summary,
        "results": results,
        "call_counts_note": CALL_COUNT_NOTE,
        "opcode_counts_note": OPCODE_COUNT_NOTE,
        "call_counts": call_counts,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
