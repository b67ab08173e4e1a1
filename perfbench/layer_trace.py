"""Span tracer for the benchmark's traced run, kept outside the package.

``Tracer.install`` wraps every public function and public method named in
each layer module's ``__all__`` and rebinds the wrapper wherever a loaded
``lpgreedy`` module (or a public class) holds the original object, so a
call is traced whichever module it is made from. ``uninstall`` restores the
originals. A span records its name, layer, start, end, parent span and the
benchmark op it belongs to. The call stack is kept per thread; a span opened
on a thread with an empty stack (a sweep pool worker) takes the span that is
open on the load thread as its parent.

``layer_metrics`` turns the spans into the per-layer metrics. Self time is a
span's duration minus the union of its children's intervals, so children
that overlap in pool threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("spaces", "dictionaries", "solvers", "algorithms", "analysis", "config", "harness")

SOLVE_PS = (1.5, 2.0, 3.0)
SCAN_NAMES = ("dict_dual_norm", "weak_select", "eps_select")
RUN_NAMES = ("run_wgafr", "run_gawr", "run_iac", "run_iacc")

# Public names the metrics below are computed from. Each one that does not
# resolve is reported as absent; its metrics read 0 instead of failing.
REQUIRED = (
    "spaces.lp_norm",
    "spaces.norming_functional",
    "dictionaries.generate_dictionary",
    *(f"dictionaries.{name}" for name in SCAN_NAMES),
    "solvers.minimize_over_line",
    "solvers.minimize_free_relax",
    *(f"algorithms.{name}" for name in RUN_NAMES),
    "harness.run_experiment",
    "harness.run_sweep",
)


@dataclass
class Span:
    sid: int
    parent: int | None
    op: object
    layer: str
    name: str
    start: float
    end: float
    info: tuple | None = None


def _solve_info(args, result):
    """(p, iterations, converged) of one inner solve."""
    p = getattr(args[0], "p", None) if args else None
    return (p, getattr(result, "iterations", None), getattr(result, "converged", None))


def _scan_info(args, result):
    """Bytes of the dictionary array one scan reads (computed, not measured)."""
    atoms = next((a.atoms for a in args if hasattr(a, "atoms")), None)
    return (0 if atoms is None else atoms.nbytes,)


def _run_info(args, result):
    return (len(getattr(result, "records", ())),)


def _info_hook(layer, name):
    if layer == "solvers":
        return _solve_info
    if layer == "dictionaries" and name in SCAN_NAMES:
        return _scan_info
    if layer == "algorithms" and name in RUN_NAMES:
        return _run_info
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._load_thread = threading.get_ident()
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = _info_hook(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            on_load_thread = threading.get_ident() == tracer._load_thread
            parent = stack[-1] if stack else (None if on_load_thread else tracer._root)
            sid = next(tracer._ids)
            is_root = on_load_thread and not stack
            if is_root:
                tracer._root = sid
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                info = hook(args, result) if hook is not None and result is not None else None
                tracer.spans.append(Span(sid, parent, tracer.op, layer, name, start, end, info))

        return traced

    def install(self, package_name: str = "lpgreedy") -> None:
        """Wrap the public surface of every layer and rebind the wrappers."""
        self._load_thread = threading.get_ident()
        replacements: dict[int, object] = {}
        self.absent = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package_name}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if obj is None:
                    self.absent.append(f"{layer}.{name}")
                elif inspect.isfunction(obj):
                    home = obj.__module__.rpartition(".")[2]
                    if id(obj) not in replacements:
                        replacements[id(obj)] = self._wrap(
                            home if home in LAYERS else layer, obj.__name__, obj
                        )
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        for required in REQUIRED:
            layer, _, name = required.partition(".")
            module = sys.modules.get(f"{package_name}.{layer}")
            if layer not in self.absent and not inspect.isfunction(getattr(module, name, None)):
                self.absent.append(required)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package_name or module_name.startswith(package_name + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, f"{cls.__name__}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, f"{cls.__name__}.{attr}", raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside pass straight through and record no span."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        kids = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.sid, ())
            if e > span.start and s < span.end
        ]
        out[span.sid] = (span.end - span.start) - _union_length(kids)
    return out


def _p_suffix(p: float) -> str:
    return "p" + f"{p:g}".replace(".", "_")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    setup_spans: list[Span],
    n_ops: int,
    op_wall_s: float,
    trace_overhead: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), normalised per benchmark op.

    A ratio whose base is empty (a layer the workload never calls) reads 0.
    """
    selfs = self_times(spans)
    per_op = 1.0 / n_ops
    m: dict[str, tuple[float, str]] = {}

    def of(layer, names=None):
        return [s for s in spans if s.layer == layer and (names is None or s.name in names)]

    def self_ms(chosen):
        return sum(selfs[s.sid] for s in chosen) * 1e3

    solves = of("solvers")
    groups = [("", solves)] + [
        ("." + _p_suffix(p), [s for s in solves if s.info and s.info[0] == p]) for p in SOLVE_PS
    ]
    for suffix, group in groups:
        iters = [s.info[1] for s in group if s.info and s.info[1] is not None]
        unconverged = sum(1 for s in group if s.info and s.info[2] is False)
        group_self_ms = self_ms(group)
        m[f"solvers.calls{suffix}"] = (len(group) * per_op, "calls/op")
        m[f"solvers.self_ms{suffix}"] = (group_self_ms * per_op, "ms/op")
        m[f"solvers.share{suffix}"] = (_ratio(group_self_ms / 1e3, op_wall_s), "ratio")
        m[f"solvers.iters_per_call{suffix}"] = (_ratio(sum(iters), len(iters)), "iters/call")
        m[f"solvers.iters_max{suffix}"] = (float(max(iters, default=0)), "iters")
        m[f"solvers.unconverged_ratio{suffix}"] = (_ratio(unconverged, len(group)), "ratio")

    runs = of("algorithms", RUN_NAMES)
    steps = sum(s.info[0] for s in runs if s.info is not None)
    scans = of("dictionaries", SCAN_NAMES)
    scan_bytes = sum(s.info[0] for s in scans if s.info is not None)
    m["dictionaries.self_ms"] = (self_ms(of("dictionaries")) * per_op, "ms/op")
    m["dictionaries.scan.calls"] = (len(scans) * per_op, "calls/op")
    m["dictionaries.scan.self_ms"] = (self_ms(scans) * per_op, "ms/op")
    m["dictionaries.scans_per_step"] = (_ratio(len(scans), steps), "scans/step")
    m["dictionaries.scan_bytes_per_step"] = (_ratio(scan_bytes, steps), "B/step")
    setup_selfs = self_times(setup_spans)
    generated = [s for s in setup_spans if s.name == "generate_dictionary"]
    m["dictionaries.generate.self_ms"] = (
        sum(setup_selfs[s.sid] for s in generated) * 1e3,
        "ms/setup",
    )

    m["spaces.self_ms"] = (self_ms(of("spaces")) * per_op, "ms/op")
    for name in ("norming_functional", "lp_norm"):
        chosen = of("spaces", (name,))
        m[f"spaces.{name}.calls"] = (len(chosen) * per_op, "calls/op")
        m[f"spaces.{name}.self_ms"] = (self_ms(chosen) * per_op, "ms/op")

    algo_self_ms = self_ms(of("algorithms"))
    m["algorithms.steps"] = (steps * per_op, "steps/op")
    m["algorithms.self_ms"] = (algo_self_ms * per_op, "ms/op")
    m["algorithms.self_us_per_step"] = (_ratio(algo_self_ms * 1e3, steps), "us/step")

    for layer in ("analysis", "config"):
        chosen = of(layer)
        m[f"{layer}.calls"] = (len(chosen) * per_op, "calls/op")
        m[f"{layer}.self_ms"] = (self_ms(chosen) * per_op, "ms/op")

    sweeps = of("harness", ("run_sweep",))
    experiments = of("harness", ("run_experiment",))
    m["harness.run_sweep.self_ms"] = (self_ms(sweeps) * per_op, "ms/op")
    m["harness.run_experiment.self_ms"] = (self_ms(experiments) * per_op, "ms/op")
    m["harness.busy_over_wall"] = (
        _ratio(sum(s.end - s.start for s in experiments), sum(s.end - s.start for s in sweeps)),
        "ratio",
    )
    m["trace_overhead"] = (trace_overhead, "ratio")
    return m

