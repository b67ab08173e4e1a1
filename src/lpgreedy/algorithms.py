"""The four greedy loops, their schedules, and per-iteration traces.

All four algorithms run one shared loop: select an atom against the
norming functional of the current residual, update the running
approximant G_m, record one trace row. They differ only in the selector
and the update rule. A run stops early, and records the stop reason,
once the residual norm falls below 1e-12 (``residual_below_threshold``:
the norming functional is undefined at zero) or when every atom
annihilates the functional (``stagnated_zero_dual_norm``: no atom can
reduce the residual). Each ``run_*`` function takes one run or
equal-length lists of spaces, dictionaries and targets, the runs of a
batch, and steps them in lockstep (see ``_greedy_loop``): a single run is
a batch of one, wrapped into lists of one on entry and unwrapped on exit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dictionaries import Dictionary, Selection, TargetSpec, _check_policy, _selections
from .solvers import SolverConfig, _descend, _free_relax
from .spaces import (
    LpSpace,
    SmoothnessParams,
    _count,
    _norm_mags,
    _norm_rows,
    _norming_coeffs,
    smoothness_params,
)

__all__ = [
    "WeaknessSequence",
    "RelaxationSchedule",
    "epsilon_schedule",
    "TraceRecord",
    "GreedyTrace",
    "run_wgafr",
    "run_gawr",
    "run_iac",
    "run_iacc",
    "read_trace_csv",
    "RESIDUAL_STOP",
]

RESIDUAL_STOP = 1e-12

# Rebuilding G_m from the recorded selections must agree with the stored
# value to this tolerance at every step.
BARYCENTRIC_TOL = 1e-10


def _parse_bool(cells: list, i: int) -> bool:
    if cells[i] not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cells[i]!r}")
    return cells[i] == "true"


# The kinds of trace value: its columns' name suffixes and cell writers (of the value), and its
# parser from a row's cells and its first column. A complex value is <stem>_re and <stem>_im.
_INT = (("",), (str,), lambda cells, i: int(cells[i]))
_FLOAT = (("",), (repr,), lambda cells, i: float(cells[i]))
_OPTIONAL_FLOAT = (("",), (lambda x: "" if x is None else repr(x),),
                   lambda cells, i: None if cells[i] == "" else float(cells[i]))
_COMPLEX = (("_re", "_im"), (lambda z: repr(z.real), lambda z: repr(z.imag)),
            lambda cells, i: complex(float(cells[i]), float(cells[i + 1])))
_BOOL = (("",), (lambda b: "true" if b else "false",), _parse_bool)
_TEXT = (("",), (str,), lambda cells, i: cells[i])
# The trace CSV, in column order: (column stem, the value it holds, kind). The values are
# TraceRecord's fields, in its order, and ``algorithm``, the trace's: every row repeats it, and
# the reader checks it against the header's.
_TRACE_CSV = (
    ("m", "m", _INT),
    ("algo", "algorithm", _TEXT),
    ("selected_index", "selected_index", _INT),
    ("phase", "phase", _COMPLEX),
    ("lambda", "lam", _COMPLEX),
    ("w_or_r", "w_or_r", _COMPLEX),
    ("residual_norm", "residual_norm", _FLOAT),
    ("dual_norm", "dual_norm", _FLOAT),
    ("eps_m", "eps_m", _OPTIONAL_FLOAT),
    ("solver_converged", "solver_converged", _BOOL),
)
CSV_COLUMNS = tuple(stem + suffix for stem, _, (suffixes, _, _) in _TRACE_CSV
                    for suffix in suffixes)
# Per column, its value and cell writer; per value, its first column and parser; and where
# ``algorithm`` is among the values.
_WRITERS = [(name, write) for _, name, (_, writers, _) in _TRACE_CSV for write in writers]
_PARSERS = [(CSV_COLUMNS.index(stem + suffixes[0]), parse)
            for stem, _, (suffixes, _, parse) in _TRACE_CSV]
_ALGO = [name for _, name, _ in _TRACE_CSV].index("algorithm")
# csv's default dialect, looked up once rather than by each row's reader.
_EXCEL = csv.get_dialect("excel")


@dataclass(frozen=True)
class WeaknessSequence:
    """Per-step selection factors t_m in [0, 1].

    ``constant`` carries one t in (0, 1]; ``general`` carries an explicit
    list, which must cover every iteration it is asked for.
    """

    kind: str
    t: float = 1.0
    values: tuple[float, ...] = ()

    @classmethod
    def constant(cls, t: float) -> "WeaknessSequence":
        t = float(t)
        if not 0.0 < t <= 1.0:
            raise ValueError(f"constant weakness requires t in (0, 1]; got {t}")
        return cls(kind="constant", t=t)

    @classmethod
    def general(cls, values) -> "WeaknessSequence":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("general weakness sequence must be nonempty")
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError("weakness values must lie in [0, 1]")
        return cls(kind="general", values=vals)

    def value(self, m: int) -> float:
        if self.kind == "constant":
            return self.t
        if m > len(self.values):
            raise ValueError(
                f"weakness sequence has {len(self.values)} entries, step {m} requested"
            )
        return self.values[m - 1]


@dataclass(frozen=True)
class RelaxationSchedule:
    """Shrinkage factors r_m in [0, 1) applied to G_{m-1} before each update."""

    kind: str
    r: float = 0.0
    values: tuple[float, ...] = ()

    @classmethod
    def harmonic(cls) -> "RelaxationSchedule":
        """r_k = 2/(k+2), the classic conditional-gradient step schedule."""
        return cls(kind="harmonic")

    @classmethod
    def constant(cls, r: float) -> "RelaxationSchedule":
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise ValueError(f"constant relaxation requires r in [0, 1); got {r}")
        return cls(kind="constant", r=r)

    @classmethod
    def custom(cls, values) -> "RelaxationSchedule":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("custom relaxation schedule must be nonempty")
        if any(not 0.0 <= v < 1.0 for v in vals):
            raise ValueError("relaxation values must lie in [0, 1)")
        return cls(kind="custom", values=vals)

    def value(self, m: int) -> float:
        if self.kind == "harmonic":
            return 2.0 / (m + 2.0)
        if self.kind == "constant":
            return self.r
        if m > len(self.values):
            raise ValueError(
                f"relaxation schedule has {len(self.values)} entries, step {m} requested"
            )
        return self.values[m - 1]


def epsilon_schedule(K1: float, params: SmoothnessParams, n: int) -> float:
    """K1 * gamma^(1/q) * n^(-1/p_dual), the incremental selection tolerance."""
    K1 = float(K1)
    if not 0.0 < K1 < np.inf:
        raise ValueError(f"K1 must be finite and > 0; got {K1}")
    n = _count("n", n)
    return K1 * params.gamma ** (1.0 / params.q) * float(n) ** (-1.0 / params.p_dual)


@dataclass
class TraceRecord:
    """One iteration: selection, coefficients, and both norms.

    ``w_or_r`` holds w_m for the free-relaxation loop, r_m for the
    relaxed loop, and 1/m for the incremental loops. ``eps_m`` is None
    outside the incremental loops.
    """

    m: int
    selected_index: int
    phase: complex
    lam: complex
    w_or_r: complex
    residual_norm: float
    dual_norm: float
    eps_m: float | None
    solver_converged: bool


@dataclass
class GreedyTrace:
    """Full record of one run: per-step rows plus the stored approximants."""

    algorithm: str
    initial_residual_norm: float
    records: list[TraceRecord] = field(default_factory=list)
    approximants: list[np.ndarray] = field(default_factory=list)
    stop_reason: str = "completed"
    config_hash: str | None = None

    def __len__(self) -> int:
        return len(self.records)

    def residual_norms(self) -> np.ndarray:
        """[||f_0||, ||f_1||, ...]; entry m is the residual after step m."""
        return np.array(
            [self.initial_residual_norm] + [r.residual_norm for r in self.records]
        )

    def to_csv_string(self) -> str:
        """The trace CSV. No cell holds a comma, a quote or a line break, so a row is its cells
        joined by commas."""
        lines = [f"# lpgreedy-trace algorithm={self.algorithm} "
                 f"config_hash={self.config_hash or '-'} "
                 f"initial_residual_norm={self.initial_residual_norm!r} "
                 f"stop_reason={self.stop_reason}", ",".join(CSV_COLUMNS)]
        for r in self.records:
            values = {**vars(r), "algorithm": self.algorithm}
            lines.append(",".join([write(values[name]) for name, write in _WRITERS]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())


def read_trace_csv(path) -> tuple[dict, list[TraceRecord]]:
    """Parse a trace CSV; malformed content raises with the 1-based line number."""
    meta: dict = {}
    records: list[TraceRecord] = []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# lpgreedy-trace"):
        raise ValueError(f"{path}: line 1: missing trace header comment")
    for token in lines[0][1:].split()[1:]:
        key, _, val = token.partition("=")
        meta[key] = val
    if len(lines) < 2 or tuple(lines[1].split(",")) != CSV_COLUMNS:
        raise ValueError(f"{path}: line 2: expected column header {','.join(CSV_COLUMNS)}")
    algorithm, width = meta.get("algorithm"), len(CSV_COLUMNS)
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = next(csv.reader([line], _EXCEL))
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            values = [parse(parts, i) for i, parse in _PARSERS]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if (algo := values.pop(_ALGO)) != algorithm:
            raise ValueError(f"{path}: line {lineno}: algo {algo!r} is not the header's "
                             f"algorithm={algorithm}")
        records.append(TraceRecord(*values))
    return meta, records


def _greedy_loop(space, dictionary, target, iters, algorithm, select, update):
    """The iteration all four algorithms share, stepping the runs of a batch in lockstep.

    ``space``, ``dictionary`` and ``target`` are equal-length lists, and each run's entry of the
    returned list is its trace or the exception that ended it; one run each is a batch of one,
    whose trace is returned or exception raised. Row k of ``f``, ``G`` and the residuals is the
    k-th live run's, ``live`` the rows' places in the batch. ``select(m, live, coeffs, atoms,
    f)`` gives one Selection per row (``dictionaries._selections``); ``update(m, live, f, G,
    sels, phis)`` gives G_m, a new array whose rows the traces keep, and per row ``(lam, w_or_r,
    eps_m, solver_converged)``. A selection or a step may instead be an exception, as is a
    non-finite residual (ValueError): it ends its run. Norms and functionals are formed once per
    run of rows of equal p (``_p_runs``), a run of one row by the 1-D kernels.
    """
    spaces, dictionaries, targets = _batch(space, dictionary, target)
    iters = _count("iters", iters)
    results, live, traces, norms = [], [], [], []
    for k, (s, d, t) in enumerate(zip(spaces, dictionaries, targets)):
        try:
            if d.space is not s and d.space != s:
                raise ValueError("dictionary was built for a different space")
            if (shape := np.shape(t.f)) != (s.dim,):  # lp_norm's texts, without its copy
                raise ValueError(f"v has shape {shape}, expected ({s.dim},) for this space")
            if not np.maximum.reduce(mags := np.abs(t.f)) < np.inf:  # a NaN or an inf entry
                raise ValueError("v contains non-finite entries")
            norm0 = _norm_mags(s.p, mags)
            if norm0 == 0.0:
                raise ValueError("target.f must be nonzero")
        except ValueError as exc:
            results.append(exc)
            continue
        results.append(trace := GreedyTrace(algorithm=algorithm, initial_residual_norm=norm0))
        if norm0 <= RESIDUAL_STOP:  # step 1 stops it
            trace.stop_reason = "residual_below_threshold"
        else:
            live.append(k)
            traces.append(trace)
            norms.append(norm0)
    atoms, f = [dictionaries[k].atoms for k in live], np.array([targets[k].f for k in live])
    runs, G, ended = _p_runs(spaces, live), np.zeros(f.shape, dtype=np.complex128), {}
    residual, mags = f, np.abs(f)
    for m in range(1, iters + 1):
        if not live:
            break
        coeffs = []
        for p, a, b in runs:  # a run of one row as one vector and a float norm
            if b is None:
                coeffs.append(_norming_coeffs(p, residual[a], norms[a], mags[a]))
            else:
                coeffs.extend(_norming_coeffs(p, residual[a:b], np.array(norms[a:b])[:, None],
                                              mags[a:b]))
        sels, phis = select(m, live, coeffs, atoms, f), []
        for k, (sel, rows) in enumerate(zip(sels, atoms)):
            if type(sel) is Selection and sel.dual_norm:
                phis.append(rows[sel.index])
            else:
                ended[k] = "stagnated_zero_dual_norm" if type(sel) is Selection else sel
        if ended:
            runs, live, traces, atoms, sels, f, G, residual, mags = _settle(
                ended, results, spaces, live, traces, atoms, sels, f, G, residual, mags)
            if not live:
                break
        G, steps = update(m, live, f, G, sels, phis)
        residual = f - G
        mags = np.abs(residual)
        norms = []
        for p, a, b in runs:  # a run of one row through the 1-D norm, on the loop's magnitudes
            norms += ([_norm_mags(p, mags[a])] if b is None
                      else _norm_rows(p, residual[a:b]).tolist())
        for k, (trace, sel, step, norm, row) in enumerate(zip(traces, sels, steps, norms, G)):
            if type(step) is not tuple or norm != norm:  # lp_norm's text for a NaN norm
                ended[k] = ValueError("v contains non-finite entries") if norm != norm else step
                continue
            lam, w_or_r, eps_m, converged = step
            trace.records.append(TraceRecord(m, sel.index, sel.phase, complex(lam), complex(w_or_r),
                                             norm, sel.dual_norm, eps_m, converged))
            trace.approximants.append(row)
            if norm <= RESIDUAL_STOP and m < iters:  # step m + 1 stops it
                ended[k] = "residual_below_threshold"
        if ended:
            runs, live, traces, atoms, norms, f, G, residual, mags = _settle(
                ended, results, spaces, live, traces, atoms, norms, f, G, residual, mags)
    if type(target) is not list and isinstance(results[0], Exception):
        raise results[0]
    return results if type(target) is list else results[0]


def _batch(space, dictionary, target) -> tuple[list, list, list]:
    """The runs as lists of spaces, dictionaries and targets, one run's as lists of one; refused
    unless they are one run each or lists of one length whose dictionaries share one shape."""
    if list not in (type(space), type(dictionary), type(target)):
        return [space], [dictionary], [target]
    given = (space, dictionary, target)
    if len({len(x) if type(x) is list else -1 for x in given}) > 1:
        raise ValueError("space, dictionary and target must be one run each or lists of equal "
                         "length; got " + ", ".join(f"a list of {len(x)}" if type(x) is list
                                                     else "one run" for x in given))
    if len(shapes := {d.atoms.shape for d in dictionary}) > 1:
        raise ValueError("the runs of a batch must share one dictionary shape (count, dim); got "
                         + ", ".join(map(str, sorted(shapes))))
    return given


def _p_runs(spaces: list, live: list) -> list:
    """``[p, start, stop]`` per run of consecutive live rows of equal p, ``stop`` None for one row.
    A run's kernels take a scalar p: an array p would miss its fast paths (``sqrt``, ``square``)."""
    runs = []
    for i, k in enumerate(live):
        if runs and runs[-1][0] == spaces[k].p:
            runs[-1][2] = i + 1
        else:
            runs.append([spaces[k].p, i, None])
    return runs


def _settle(ended: dict, results: list, spaces: list, live: list, traces: list, *rows) -> list:
    """End the rows of ``ended`` (row -> stop reason or exception) and empty it; the p-runs of
    the rows left, and ``live``, ``traces`` and each list or array of ``rows``, of those rows."""
    for k, outcome in ended.items():
        if type(outcome) is str:
            traces[k].stop_reason = outcome
        else:
            results[live[k]] = outcome
    keep = [k for k in range(len(traces)) if k not in ended]
    ended.clear()
    return [_p_runs(spaces, [live[k] for k in keep]), *(
        a[keep] if type(a) is np.ndarray else [a[k] for k in keep] for a in (live, traces, *rows))]


def _check_covers(name: str, schedule, iters) -> None:
    """Refuse an explicit weakness or relaxation list shorter than ``iters`` before any step."""
    if schedule.values and len(schedule.values) < _count("iters", iters):
        raise ValueError(f"{name} has {len(schedule.values)} entries, fewer than iters = {iters!r}")


def _relaxed(space, dictionary, target, tau, iters, policy, algorithm, solve):
    """The loop of ``run_wgafr``/``run_gawr``: weak selection at t_m, then a solve per row.

    ``solve(m, space, f, G, phi, out)`` writes a row's G_m, solved in its own space, into ``out``
    and returns ``(lam, w_or_r, None, converged)``; an exception it raises is the row's step.
    """
    _check_policy(policy)
    spaces = _batch(space, dictionary, target)[0]

    def update(m, live, f, G, sels, phis):
        new, steps = np.empty(G.shape, dtype=np.complex128), []
        for k, f_k, G_k, phi, out in zip(live, f, G, phis, new):
            try:
                steps.append(solve(m, spaces[k], f_k, G_k, phi, out))
            except Exception as exc:  # the row's step failed; the batch steps on
                out[...] = G_k
                steps.append(exc)
        return new, steps

    return _greedy_loop(
        space, dictionary, target, iters, algorithm,
        lambda m, _, coeffs, atoms, f: _selections(coeffs, atoms, policy, t=tau.value(m)), update,
    )


def run_wgafr(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    tau: WeaknessSequence,
    iters: int,
    policy: str = "argmax",
    cfg: SolverConfig | None = None,
) -> GreedyTrace:
    """Greedy loop with free relaxation.

    Step m: pick phi_m with |F(phi_m)| >= t_m * max over the dictionary,
    then jointly reoptimize the shrinkage of G_{m-1} and the new
    coefficient, G_m = (1 - w_m) G_{m-1} + lam_m phi_m. The residual norm
    never increases because (w, lam) = (0, 0) is always available.
    """
    cfg = cfg or SolverConfig()
    _check_covers("weakness sequence", tau, iters)

    def solve(m, space, f, G, phi, out):
        result = _free_relax(space, f, G, phi, cfg)
        w, lam = result.minimizer.tolist()
        np.add(np.multiply(1.0 - w, G, out=out), lam * phi, out=out)
        return lam, w, None, result.converged

    return _relaxed(space, dictionary, target, tau, iters, policy, "wgafr", solve)


def run_gawr(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    tau: WeaknessSequence,
    r: RelaxationSchedule,
    iters: int,
    policy: str = "argmax",
    cfg: SolverConfig | None = None,
) -> GreedyTrace:
    """Greedy loop with a prescribed relaxation schedule.

    Step m: select phi_m as in the free-relaxation loop, shrink the
    approximant by (1 - r_m), and optimize only the new coefficient:
    G_m = (1 - r_m) G_{m-1} + lam_m phi_m.
    """
    cfg = cfg or SolverConfig()
    _check_covers("weakness sequence", tau, iters)
    _check_covers("relaxation schedule", r, iters)

    def solve(m, space, f, G, phi, out):
        r_m = r.value(m)
        shrunk = np.multiply(1.0 - r_m, G, out=out)
        result = _descend(space, f - shrunk, phi[:, None], cfg)
        lam = result.minimizer.item(0)
        np.add(shrunk, lam * phi, out=out)
        return lam, r_m, None, result.converged

    return _relaxed(space, dictionary, target, tau, iters, policy, "gawr", solve)


def _averaging(space, dictionary, target, K1, iters, policy, mode, membership):
    """The two incremental loops, once every target is an exact one of ``membership``.

    Step m picks phi_m by ``eps_select``'s rule at eps_m and averages:
    G_m = (1 - 1/m) G_{m-1} + nu_m phi_m / m, nu_m the selection's phase (1
    in plain mode); a running sum per run asserts G_m = (1/m) sum_j nu_j phi_j.
    """
    algorithm = "iac" if mode == "circle" else "iacc"
    spaces, _, targets = _batch(space, dictionary, target)
    for t in targets:
        if t.membership != membership:
            raise ValueError(f"run_{algorithm} requires {'an' if membership == 'a1' else 'a'} "
                             f"{membership} target; got membership={t.membership!r}")
        if t.eps != 0.0:
            raise ValueError(f"run_{algorithm} requires an exact target (eps = 0)")
    # epsilon_schedule at n = 1 is K1 gamma^(1/q), checked once per p; times
    # float(m) ** (-1/p_dual) it is epsilon_schedule at m, bit for bit.
    schedules = {s.p: (epsilon_schedule(K1, params := smoothness_params(s), 1),
                       -1.0 / params.p_dual) for s in {s.p: s for s in spaces}.values()}
    _check_policy(policy)
    running_sum = np.zeros((len(targets), spaces[0].dim if spaces else 0), dtype=np.complex128)
    eps_m = {}  # each row's eps_m at the current step, by its place in the batch

    def select(m, live, coeffs, atoms, f):
        rows = []
        for k in live:
            eps_1, power = schedules[spaces[k].p]
            rows.append(eps := eps_1 * float(m) ** power)
            eps_m[k] = eps
        return _selections(coeffs, atoms, policy, f=f, eps_m=rows, mode=mode)

    def update(m, live, f, G, sels, phis):
        step = np.empty(G.shape, dtype=np.complex128)
        for sel, phi, row in zip(sels, phis, step):
            np.multiply(sel.phase, phi, out=row)
        # The m = 1 step needs no special-casing: (1 - 1/1) = 0 literally. Both scalars are
        # complex: numpy casts a real one to complex against a complex array anyway, only slower.
        shrink, count = complex(1.0 - 1.0 / m), complex(m)
        G = shrink * G + step / count
        if len(live) < len(running_sum):  # rows of the batch have ended
            running_sum[live] = total = running_sum[live] + step
        else:
            total = np.add(running_sum, step, out=running_sum)
        drifts = np.maximum.reduce(np.abs(total / count - G), axis=-1).tolist()
        steps = []
        for sel, drift, k in zip(sels, drifts, live):
            nu = sel.phase
            if drift > BARYCENTRIC_TOL:
                steps.append(AssertionError(
                    f"barycentric representation drifted by {drift:.3e} at step {m}"))
            elif mode == "plain" and abs(nu - 1.0) > 1e-15:  # G_m must stay a convex combination
                steps.append(AssertionError(f"plain-mode selection carried a phase at step {m}"))
            else:
                steps.append((nu / m, 1.0 / m, eps_m[k], True))
        return G, steps

    return _greedy_loop(space, dictionary, target, iters, algorithm, select, update)


def run_iac(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    K1: float,
    iters: int,
    policy: str = "argmax",
) -> GreedyTrace:
    """Incremental loop with phase-aligned atoms, for targets in A_1(D).

    Step m: pick phi_m with Re F(phi_m) - Re F(f) >= -eps_m over the
    phase-symmetrized dictionary, then average:
    G_m = (1 - 1/m) G_{m-1} + nu_m phi_m / m with |nu_m| = 1. G_m always
    equals (1/m) sum_j nu_j phi_j, asserted at every step.
    """
    return _averaging(space, dictionary, target, K1, iters, policy, "circle", "a1")


def run_iacc(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    K1: float,
    iters: int,
    policy: str = "argmax",
) -> GreedyTrace:
    """Incremental loop without phases, for targets in conv(D).

    The update G_m = (1 - 1/m) G_{m-1} + phi_m / m keeps G_m a true convex
    combination of atoms (weights count_j / m): every step asserts that its
    selection carries phase 1 and that G_m is the mean of the atoms taken.
    """
    return _averaging(space, dictionary, target, K1, iters, policy, "plain", "conv")
