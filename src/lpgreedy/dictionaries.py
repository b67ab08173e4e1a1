"""Finite dictionaries, selection oracles, and synthetic targets.

A dictionary is an ordered finite list of unit-norm atoms. The sup over
the (infinite) phase symmetrization {e^{i theta} g} is never materialized:
for each atom the optimal phase is analytic, Re F(e^{i theta} g) maxes out
at |F(g)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import (
    DualFunctional,
    LpSpace,
    _as_vector,
    _count,
    _norm_rows,
    _row_blocks,
    complex_sign,
    lp_norm,
)

__all__ = [
    "Dictionary",
    "Selection",
    "TargetSpec",
    "InfeasibleSelectionError",
    "generate_dictionary",
    "dict_dual_norm",
    "weak_select",
    "eps_select",
    "make_target",
    "DICTIONARY_KINDS",
    "POLICIES",
    "MEMBERSHIPS",
    "SELECTION_MODES",
]

DICTIONARY_KINDS = ("gaussian", "fourier_frame", "canonical")
POLICIES = ("argmax", "first_qualifying")
MEMBERSHIPS = ("a1", "conv")
SELECTION_MODES = ("circle", "plain")

ATOM_NORM_TOL = 1e-12


class InfeasibleSelectionError(RuntimeError):
    """No dictionary element meets the near-optimality threshold.

    Raised by :func:`eps_select`; certifies that the target violates its
    membership contract (f not in A_1(D) resp. conv(D)) rather than
    silently falling back.
    """


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Ordered finite list of atoms with norm at most one.

    ``atoms`` is a (count, dim) complex array, one atom per row, frozen
    after construction. An array that is already read-only and owns its
    memory is kept as it is; any other input is copied.
    """

    space: LpSpace
    atoms: np.ndarray
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.complex128)
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] != self.space.dim:
            raise ValueError(
                f"atoms must form a nonempty (count, {self.space.dim}) array; "
                f"got shape {atoms.shape}"
            )
        blocks = _row_blocks(atoms)
        if not all(np.isfinite(atoms[i : i + blocks.step]).all() for i in blocks):
            raise ValueError("atoms contain non-finite entries")
        norms = _norm_rows(self.space.p, atoms)
        if norms.max() > 1.0 + ATOM_NORM_TOL:
            raise ValueError(
                f"every atom must have norm <= 1 + {ATOM_NORM_TOL:g}; "
                f"worst is {norms.max()!r}"
            )
        if atoms.flags.writeable or not atoms.flags.owndata:
            atoms = atoms.copy()
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def _wrap(cls, space: LpSpace, atoms: np.ndarray, kind: str, seed: int | None) -> "Dictionary":
        """The Dictionary of atoms this package has just drawn and normalized, unchecked.

        ``atoms`` must be a finite (count, dim) complex128 array; it is
        frozen in place, not copied.
        """
        d = object.__new__(cls)
        atoms.setflags(write=False)
        d.__dict__.update(space=space, atoms=atoms, kind=kind, seed=seed)
        return d

    def __len__(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class Selection:
    """One selection: atom index, aligning phase, and the raw value F(g).

    ``phase`` is the complex conjugate of sign F(g), so phase * value is
    |value| whenever value is nonzero. ``dual_norm`` is max_i |F(g_i)|,
    taken from the same scan of the dictionary that made the selection.
    """

    index: int
    phase: complex
    value: complex
    dual_norm: float


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """A target f, its representable part f_eps, and membership metadata.

    ``f_eps``/A_eps lies in A_1(D) (coefficients with sum of moduli <= A_eps)
    or f_eps lies in conv(D) (nonnegative real weights summing to one), and
    ||f - f_eps|| <= eps.
    """

    f: np.ndarray
    f_eps: np.ndarray
    eps: float
    A_eps: float
    membership: str
    true_coeffs: tuple[tuple[int, complex], ...] | None = None

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.complex128).copy()
        f_eps = np.asarray(self.f_eps, dtype=np.complex128).copy()
        if f.shape != f_eps.shape or f.ndim != 1:
            raise ValueError("f and f_eps must be 1-D vectors of equal length")
        if self.membership not in MEMBERSHIPS:
            raise ValueError(f"membership must be one of {MEMBERSHIPS}; got {self.membership!r}")
        if self.eps < 0.0 or self.A_eps <= 0.0:
            raise ValueError("eps must be >= 0 and A_eps > 0")
        f.setflags(write=False)
        f_eps.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f_eps", f_eps)


def generate_dictionary(space: LpSpace, count: int, kind: str, seed: int = 0) -> Dictionary:
    """Build a seeded dictionary of unit-norm atoms.

    gaussian       i.i.d. complex-Gaussian entries, rows normalized.
    fourier_frame  rows of an oversampled DFT matrix, normalized
                   (requires count >= dim).
    canonical      the dim standard basis vectors (count must equal dim).
    """
    count = _count("count", count)
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"kind must be one of {DICTIONARY_KINDS}; got {kind!r}")
    if kind == "canonical":
        if count != space.dim:
            raise ValueError(
                f"canonical dictionary requires count == dim; got count={count}, dim={space.dim}"
            )
        atoms = np.eye(space.dim, dtype=np.complex128)
    elif kind == "gaussian":
        # All real parts, then all imaginary parts, drawn a block of rows at
        # a time into one buffer: the draws of one standard_normal call.
        rng = np.random.default_rng(seed)
        atoms = np.empty((count, space.dim), dtype=np.complex128)
        blocks = _row_blocks(atoms)
        buf = np.empty((min(blocks.step, count), space.dim))
        for part in (atoms.real, atoms.imag):
            for start in blocks:
                block = part[start : start + blocks.step]
                rng.standard_normal(out=buf[: len(block)])
                block[...] = buf[: len(block)]
        atoms /= _norm_rows(space.p, atoms)[:, None]
    else:  # fourier_frame
        if count < space.dim:
            raise ValueError(
                f"fourier_frame requires count >= dim; got count={count}, dim={space.dim}"
            )
        k = np.arange(count)[:, None]
        j = np.arange(space.dim)[None, :]
        atoms = np.exp(2j * np.pi * k * j / count)
        atoms /= _norm_rows(space.p, atoms)[:, None]
    return Dictionary._wrap(space, atoms, kind, seed)


def _scan(F: DualFunctional, dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """F(g_i) and |F(g_i)| for every atom: the one pass over the dictionary."""
    if F.coeffs.size != dictionary.space.dim:
        raise ValueError(
            f"functional dimension {F.dim} does not match space dimension {dictionary.space.dim}"
        )
    values = dictionary.atoms @ F.coeffs
    return values, np.abs(values)


def _pick(
    values, scores, threshold: float, dual_norm: float, policy: str, phased: bool
) -> Selection | None:
    """The atom whose score reaches ``threshold``, or None if none does.

    ``argmax`` takes the best score, ``first_qualifying`` the smallest
    qualifying index; ties go to the smallest index. A ``phased`` selection
    aligns the atom by conj(sign F(g)), an unphased one keeps phase 1.
    ``dual_norm`` (max |F(g)| of the same scan) is stored in the Selection.
    """
    if policy == "argmax":
        idx = int(scores.argmax())
        if scores[idx] < threshold:
            return None
    else:
        qualifying = scores >= threshold
        idx = int(qualifying.argmax())
        if not qualifying[idx]:
            return None
    value = complex(values[idx])
    phase = complex_sign(value).conjugate() if phased else 1.0 + 0.0j
    return Selection(index=idx, phase=phase, value=value, dual_norm=dual_norm)


def dict_dual_norm(F: DualFunctional, dictionary: Dictionary) -> tuple[float, int]:
    """max_i |F(g_i)| together with the smallest attaining index."""
    _, mags = _scan(F, dictionary)
    idx = int(np.argmax(mags))  # first occurrence wins ties
    return float(mags[idx]), idx


def weak_select(
    F: DualFunctional,
    dictionary: Dictionary,
    t: float,
    policy: str = "argmax",
) -> Selection:
    """Pick an atom with |F(g)| >= t * max_i |F(g_i)|.

    ``argmax`` returns the maximizer itself; ``first_qualifying`` returns
    the smallest index over the threshold, which exercises weakness t < 1
    nontrivially. Both policies are deterministic. At t = 0, which every
    atom meets, the threshold is the least positive float, so an atom with
    F(g) = 0 (a zero atom among them) is not taken while another is left.
    When every value is zero every atom qualifies, so the selection is
    index 0 with phase 1; callers detect the stagnation through the zero
    dual norm.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1]; got {t}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}; got {policy!r}")
    values, mags = _scan(F, dictionary)
    dual_norm = float(np.maximum.reduce(mags))
    threshold = t * dual_norm if t > 0.0 else min(dual_norm, 5e-324)
    return _pick(values, mags, threshold, dual_norm, policy, phased=True)


def eps_select(
    F: DualFunctional,
    dictionary: Dictionary,
    f,
    eps_m: float,
    mode: str = "circle",
    policy: str = "argmax",
) -> Selection:
    """Pick an atom phi with Re F(phi) - Re F(f) >= -eps_m.

    In ``circle`` mode each atom is taken with its optimal phase, so its
    score is |F(g)|; feasibility is guaranteed for f in A_1(D). In
    ``plain`` mode the phase is fixed to one and the score is Re F(g);
    feasibility is guaranteed for f in conv(D). ``argmax`` returns the
    best-scoring atom, ``first_qualifying`` the smallest index over the
    threshold, ties always to the smallest index.
    """
    eps_m = float(eps_m)
    if not 0.0 <= eps_m < np.inf:
        raise ValueError(f"eps_m must be finite and >= 0; got {eps_m}")
    if mode not in SELECTION_MODES:
        raise ValueError(f"mode must be one of {SELECTION_MODES}; got {mode!r}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}; got {policy!r}")
    values, mags = _scan(F, dictionary)
    f = _as_vector(dictionary.space, f, "f")
    scores = mags if mode == "circle" else values.real
    threshold = float(np.dot(F.coeffs, f).real) - eps_m
    dual_norm = float(np.maximum.reduce(mags))
    sel = _pick(values, scores, threshold, dual_norm, policy, phased=mode == "circle")
    if sel is None:
        raise InfeasibleSelectionError(
            f"no atom within eps_m={eps_m:g} of the target functional value; "
            f"best score {scores.max()!r} < required {threshold!r} "
            f"(target violates its {mode} membership contract)"
        )
    return sel


def make_target(
    dictionary: Dictionary,
    membership: str,
    sparsity: int,
    eps: float = 0.0,
    seed: int = 0,
) -> TargetSpec:
    """Draw a seeded target supported on ``sparsity`` atoms.

    a1    complex coefficients with sum of moduli exactly one (A_eps = 1).
    conv  nonnegative real weights summing to one.

    Coefficient moduli are drawn from [0.5, 1.5] before normalization so
    no support atom is degenerately small. When eps > 0 the returned f is
    f_eps plus a random perturbation of norm exactly eps.
    """
    space = dictionary.space
    sparsity = _count("sparsity", sparsity)
    if membership not in MEMBERSHIPS:
        raise ValueError(f"membership must be one of {MEMBERSHIPS}; got {membership!r}")
    if not 1 <= sparsity <= len(dictionary):
        raise ValueError(
            f"sparsity must lie in [1, {len(dictionary)}]; got {sparsity}"
        )
    eps = float(eps)
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0; got {eps}")
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(len(dictionary), size=sparsity, replace=False))
    moduli = rng.uniform(0.5, 1.5, size=sparsity)
    if membership == "a1":
        phases = np.exp(2j * np.pi * rng.uniform(size=sparsity))
        coeffs = moduli * phases / moduli.sum()
    else:
        coeffs = (moduli / moduli.sum()).astype(np.complex128)
    f_eps = coeffs @ dictionary.atoms[indices]
    f = f_eps
    if eps > 0.0:
        noise = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        f = f_eps + noise * (eps / lp_norm(space, noise))
    return TargetSpec(
        f=f,
        f_eps=f_eps,
        eps=eps,
        A_eps=1.0,
        membership=membership,
        true_coeffs=tuple((int(i), complex(c)) for i, c in zip(indices, coeffs)),
    )
