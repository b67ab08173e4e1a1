"""The four greedy loops, their schedules, and per-iteration traces.

All four algorithms run one shared loop: select an atom against the
norming functional of the current residual, update the running
approximant G_m, record one trace row. They differ only in the selector
and the update rule. A run stops early, and records the stop reason,
once the residual norm falls below 1e-12 (``residual_below_threshold``:
the norming functional is undefined at zero) or when every atom
annihilates the functional (``stagnated_zero_dual_norm``: no atom can
reduce the residual).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionaries import Dictionary, TargetSpec, eps_select, weak_select
from .solvers import SolverConfig, _descend, _free_relax
from .spaces import (
    DualFunctional,
    LpSpace,
    SmoothnessParams,
    _count,
    _norm_mags,
    _norming_coeffs,
    lp_norm,
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

CSV_COLUMNS = (
    "m",
    "algo",
    "selected_index",
    "phase_re",
    "phase_im",
    "lambda_re",
    "lambda_im",
    "w_or_r_re",
    "w_or_r_im",
    "residual_norm",
    "dual_norm",
    "eps_m",
    "solver_converged",
)


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
        buf = io.StringIO()
        meta = (
            f"# lpgreedy-trace algorithm={self.algorithm} "
            f"config_hash={self.config_hash or '-'} "
            f"initial_residual_norm={self.initial_residual_norm!r} "
            f"stop_reason={self.stop_reason}"
        )
        buf.write(meta + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            writer.writerow(
                [
                    r.m,
                    self.algorithm,
                    r.selected_index,
                    repr(r.phase.real),
                    repr(r.phase.imag),
                    repr(r.lam.real),
                    repr(r.lam.imag),
                    repr(r.w_or_r.real),
                    repr(r.w_or_r.imag),
                    repr(r.residual_norm),
                    repr(r.dual_norm),
                    "" if r.eps_m is None else repr(r.eps_m),
                    "true" if r.solver_converged else "false",
                ]
            )
        return buf.getvalue()

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
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = next(csv.reader([line]))
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            records.append(
                TraceRecord(
                    m=int(parts[0]),
                    selected_index=int(parts[2]),
                    phase=complex(float(parts[3]), float(parts[4])),
                    lam=complex(float(parts[5]), float(parts[6])),
                    w_or_r=complex(float(parts[7]), float(parts[8])),
                    residual_norm=float(parts[9]),
                    dual_norm=float(parts[10]),
                    eps_m=None if parts[11] == "" else float(parts[11]),
                    solver_converged=parts[12] == "true",
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return meta, records


def _greedy_loop(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    iters: int,
    algorithm: str,
    select,
    update,
) -> GreedyTrace:
    """The iteration all four algorithms share.

    Step m builds the norming functional F of the residual f - G_{m-1} and
    calls ``select(m, F)`` for a Selection. ``update(m, G_{m-1}, sel, phi)``
    returns ``(G_m, lam, w_or_r, eps_m, solver_converged)`` with G_m a new
    array, which the trace keeps without a copy. A selection with zero dual
    norm ends the run: every atom annihilates F, so no update can reduce
    the residual. The target is checked once; the residuals the loop makes
    are not checked again, except that a non-finite one raises ValueError
    at the step that made it.
    """
    if dictionary.space is not space and dictionary.space != space:
        raise ValueError("dictionary was built for a different space")
    iters = _count("iters", iters)
    f = np.asarray(target.f, dtype=np.complex128)
    norm0 = lp_norm(space, f)
    if norm0 == 0.0:
        raise ValueError("target.f must be nonzero")
    trace = GreedyTrace(algorithm=algorithm, initial_residual_norm=norm0)
    p = space.p
    G = np.zeros(space.dim, dtype=np.complex128)
    residual, current, mags = f, norm0, None  # mags: |residual| from its norm, once a step ran
    for m in range(1, iters + 1):
        if current <= RESIDUAL_STOP:
            trace.stop_reason = "residual_below_threshold"
            break
        sel = select(m, DualFunctional._wrap(_norming_coeffs(p, residual, current, mags)))
        if sel.dual_norm == 0.0:
            trace.stop_reason = "stagnated_zero_dual_norm"
            break
        G, lam, w_or_r, eps_m, converged = update(m, G, sel, dictionary.atoms[sel.index])
        residual = f - G
        mags = np.abs(residual)
        current = _norm_mags(p, mags)
        if math.isnan(current):
            raise ValueError("v contains non-finite entries")  # lp_norm's text
        trace.records.append(
            TraceRecord(
                m=m,
                selected_index=sel.index,
                phase=sel.phase,
                lam=complex(lam),
                w_or_r=complex(w_or_r),
                residual_norm=current,
                dual_norm=sel.dual_norm,
                eps_m=eps_m,
                solver_converged=converged,
            )
        )
        trace.approximants.append(G)
    return trace


def _check_covers(name: str, schedule, iters) -> None:
    """Refuse an explicit weakness or relaxation list shorter than ``iters`` before any step."""
    if schedule.values and len(schedule.values) < _count("iters", iters):
        raise ValueError(f"{name} has {len(schedule.values)} entries, fewer than iters = {iters!r}")


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

    def update(m, G, sel, phi):
        result = _free_relax(space, target.f, G, phi, cfg)
        w, lam = result.minimizer
        return (1.0 - w) * G + lam * phi, lam, w, None, result.converged

    return _greedy_loop(
        space, dictionary, target, iters, "wgafr",
        lambda m, F: weak_select(F, dictionary, tau.value(m), policy), update,
    )


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

    def update(m, G, sel, phi):
        r_m = r.value(m)
        shrunk = (1.0 - r_m) * G
        result = _descend(space, target.f - shrunk, phi[:, None], cfg)
        lam = result.minimizer[0]
        return shrunk + lam * phi, lam, r_m, None, result.converged

    return _greedy_loop(
        space, dictionary, target, iters, "gawr",
        lambda m, F: weak_select(F, dictionary, tau.value(m), policy), update,
    )


def _averaging(
    space: LpSpace,
    dictionary: Dictionary,
    target: TargetSpec,
    K1: float,
    policy: str,
    mode: str,
):
    """Selector and update rule of the two incremental loops.

    Step m picks phi_m with ``eps_select`` at tolerance eps_m, then averages:
    G_m = (1 - 1/m) G_{m-1} + nu_m phi_m / m, where nu_m is the selection's
    phase (1 in plain mode). G_m must equal (1/m) sum_j nu_j phi_j; a
    running sum asserts this at every step.
    """
    params = smoothness_params(space)
    # epsilon_schedule at n = 1 is K1 gamma^(1/q), checked once; times
    # float(m) ** (-1/p_dual) it is epsilon_schedule at m, bit for bit.
    eps_1, power = epsilon_schedule(K1, params, 1), -1.0 / params.p_dual
    running_sum = np.zeros(space.dim, dtype=np.complex128)
    eps_m = None

    def select(m, F):
        nonlocal eps_m
        eps_m = eps_1 * float(m) ** power
        return eps_select(F, dictionary, target.f, eps_m, mode=mode, policy=policy)

    def update(m, G, sel, phi):
        nonlocal running_sum
        nu = sel.phase
        step = nu * phi
        # The m = 1 step needs no special-casing: (1 - 1/1) = 0 literally.
        G = (1.0 - 1.0 / m) * G + step / m
        running_sum += step
        drift = np.maximum.reduce(np.abs(running_sum / m - G))
        if drift > BARYCENTRIC_TOL:
            raise AssertionError(
                f"barycentric representation drifted by {drift:.3e} at step {m}"
            )
        return G, nu / m, 1.0 / m, eps_m, True

    return select, update


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
    if target.membership != "a1":
        raise ValueError(
            f"run_iac requires an a1 target; got membership={target.membership!r}"
        )
    if target.eps != 0.0:
        raise ValueError("run_iac requires an exact target (eps = 0)")
    select, update = _averaging(space, dictionary, target, K1, policy, "circle")
    return _greedy_loop(space, dictionary, target, iters, "iac", select, update)


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
    combination of atoms (weights count_j / m), asserted at every step.
    """
    if target.membership != "conv":
        raise ValueError(
            f"run_iacc requires a conv target; got membership={target.membership!r}"
        )
    if target.eps != 0.0:
        raise ValueError("run_iacc requires an exact target (eps = 0)")
    select, update = _averaging(space, dictionary, target, K1, policy, "plain")
    trace = _greedy_loop(space, dictionary, target, iters, "iacc", select, update)
    # Convexity of the stored representation: weights are count/m by
    # construction; verify the invariant on the recorded selections.
    for step, record in enumerate(trace.records, start=1):
        if abs(record.phase - 1.0) > 1e-15:
            raise AssertionError(f"plain-mode selection carried a phase at step {step}")
    return trace
