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
    _norm_block,
    _norm_mags,
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

    Raised by :func:`eps_select` rather than silently falling back. In exact
    arithmetic no target in its set (A_1(D) resp. conv(D)) raises it; in
    floats one can, when F(f) and the best atom's score tie to round-off.
    """


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Ordered finite list of atoms with norm at most one.

    ``atoms`` is a (count, dim) complex array, one atom per row: a frozen
    copy of the input.
    """

    space: LpSpace
    atoms: np.ndarray
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=np.complex128)
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

    @classmethod
    def _wrap(cls, f: np.ndarray, f_eps: np.ndarray, eps: float, membership: str, true_coeffs):
        """The TargetSpec (A_eps = 1) of a target this package has just drawn, unchecked.

        ``f`` and ``f_eps`` (possibly one array) must be fresh 1-D complex128
        vectors of equal length; they are frozen in place, not copied.
        """
        spec = object.__new__(cls)
        f.setflags(write=False)
        f_eps.setflags(write=False)
        spec.__dict__.update(f=f, f_eps=f_eps, eps=eps, A_eps=1.0, membership=membership,
                             true_coeffs=true_coeffs)
        return spec


def generate_dictionary(space: LpSpace, count: int, kind: str, seed: int = 0) -> Dictionary:
    """Build a seeded dictionary of unit-norm atoms.

    gaussian       i.i.d. complex-Gaussian entries, rows normalized (tall
                   shapes drawn here, placed and normalized on one worker).
    fourier_frame  rows of an oversampled DFT matrix, normalized
                   (requires count >= dim).
    canonical      the dim standard basis vectors (count must equal dim).
    """
    return _dictionaries(space, count, kind, [seed])[0]


def _dictionaries(space: LpSpace, count: int, kind: str, seeds: list) -> list:
    """``generate_dictionary`` for each seed: gaussian atoms drawn seed by seed into one array
    (the other kinds draw nothing and share theirs), normalized in one pass of row norms, or,
    when they span several row blocks, drawn here and placed and normalized on one worker."""
    count = _count("count", count)
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"kind must be one of {DICTIONARY_KINDS}; got {kind!r}")
    if kind == "canonical":  # a canonical atom's norm is exactly 1
        if count != space.dim:
            raise ValueError(
                f"canonical dictionary requires count == dim; got count={count}, dim={space.dim}"
            )
        atoms = np.eye(space.dim, dtype=np.complex128)
    elif kind == "gaussian":
        # All real parts, then all imaginary parts: the draws of one
        # standard_normal call, taken a block of rows at a time when the
        # atoms span more than one block.
        # Generators first, the order one dictionary always allocated in (layout moves timings).
        rngs = [np.random.default_rng(seed) for seed in seeds]
        atoms = np.empty((len(seeds) * count, space.dim), dtype=np.complex128)
        blocks = _row_blocks(atoms[:count])
        if len(blocks) > 1:
            _draw_blocks(space.p, atoms, blocks, rngs)
        else:
            for i, rng in enumerate(rngs):
                one = atoms[i * count : (i + 1) * count]
                one.real, one.imag = rng.standard_normal((2, count, space.dim))
            atoms /= _norm_rows(space.p, atoms)[:, None]
    else:  # fourier_frame
        if count < space.dim:
            raise ValueError(
                f"fourier_frame requires count >= dim; got count={count}, dim={space.dim}"
            )
        # k j reduced mod count in integers, so that no phase carries the rounding of a large one
        kj = np.arange(count)[:, None] * np.arange(space.dim)[None, :] % count
        atoms = np.exp(2j * np.pi * kj / count)
        atoms /= _norm_rows(space.p, atoms)[:, None]
    # One dictionary keeps the array itself; a batch's are row slices of it.
    return [Dictionary._wrap(space, atoms if len(atoms) == count
                             else atoms[i * count : (i + 1) * count], kind, seed)
            for i, seed in enumerate(seeds)]


def _draw_blocks(p: float, atoms: np.ndarray, blocks: range, rngs: list) -> None:
    """Each generator's equal share of the rows of ``atoms``, normalized: drawn here into two
    buffers in turn, each block copied in and, once whole, normalized on one worker thread."""
    from concurrent.futures import ThreadPoolExecutor  # here, so importing lpgreedy skips it

    def place(block, buf, rows):
        block[...] = buf
        if rows is not None:  # the block's imaginary part: its atoms are whole
            rows /= _norm_block(p, rows)[:, None]

    step, bufs, placed = blocks.step, np.empty((2, blocks.step, atoms.shape[1])), [None, None]
    tasks = [(rng, part[s : s + step], one[s : s + step] if imag else None)
             for one, rng in zip(np.split(atoms, len(rngs)), rngs)
             for imag, part in enumerate((one.real, one.imag)) for s in blocks]
    with ThreadPoolExecutor(1) as worker:  # joined on leaving, by return or by exception
        for n, (rng, block, rows) in enumerate(tasks):
            if placed[n % 2]:  # wait until the buffer is free; raises the worker's exception
                placed[n % 2].result()
            buf = bufs[n % 2, : len(block)]
            rng.standard_normal(out=buf)
            placed[n % 2] = worker.submit(place, block, buf, rows)
        for future in placed:
            future.result()


def _check_dim(F: DualFunctional, dictionary: Dictionary) -> None:
    if F.coeffs.size != dictionary.space.dim:
        raise ValueError(f"functional dimension {F.dim} does not match "
                         f"space dimension {dictionary.space.dim}")


def _scan(F: DualFunctional, dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """F(g_i) and |F(g_i)| for every atom: the one pass over the dictionary."""
    _check_dim(F, dictionary)
    values = dictionary.atoms @ F.coeffs
    return values, np.abs(values)


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}; got {policy!r}")


def _selections(coeffs, atoms, policy, t=1.0, f=None, eps_m=None, mode="circle") -> list:
    """The selections of ``weak_select`` (``f`` None, weakness ``t``) or of ``eps_select``.

    One per functional: row i of ``coeffs`` (a 2-D array or a list of rows)
    over the atoms ``atoms[i]`` (and row i of the targets ``f``, at
    tolerance ``eps_m[i]``). Each Selection is built unchecked; a functional
    no atom meets gets an InfeasibleSelectionError in its place.
    """
    values = np.empty((len(coeffs), atoms[0].shape[0]), dtype=np.complex128)
    for rows, c, out in zip(atoms, coeffs, values):
        np.matmul(rows, c, out=out)  # one gemv per row, as a single scan makes it
    mags = np.abs(values)
    phased, argmax = mode == "circle", policy == "argmax"
    scores = mags if phased else values.real
    picks = scores.argmax(axis=-1).tolist() if argmax else None
    # A row's first greatest modulus (NaN once it has one) is its dual norm.
    duals = (list(map(mags.item, range(len(picks)), picks)) if argmax and phased
             else np.maximum.reduce(mags, axis=-1).tolist())
    sels = [None] * len(duals)
    for i, dual in enumerate(duals):
        if f is None:
            threshold = t * dual if t > 0.0 else min(dual, 5e-324)
        else:
            threshold = float(np.dot(coeffs[i], f[i]).real) - eps_m[i]
        qualifying = None if argmax else scores[i] >= threshold
        idx = picks[i] if argmax else int(qualifying.argmax())
        missed = scores.item(i, idx) < threshold if argmax else not qualifying[idx]
        if missed:
            eps = 0.0 if f is None else eps_m[i]
            sels[i] = InfeasibleSelectionError(
                f"no atom within eps_m={eps:g} of the target functional value; "
                f"best score {scores[i].max()!r} < required {threshold!r} "
                f"(target violates its {mode} membership contract)"
            )
            continue
        value = values.item(i, idx)
        phase = complex_sign(value).conjugate() if phased else 1.0 + 0.0j
        sels[i] = sel = object.__new__(Selection)
        sel.__dict__.update(index=idx, phase=phase, value=value, dual_norm=dual)
    return sels


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
    _check_policy(policy)
    _check_dim(F, dictionary)
    return _selections([F.coeffs], [dictionary.atoms], policy, t=t)[0]


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
    score is |F(g)|; in exact arithmetic some atom qualifies for f in
    A_1(D). In ``plain`` mode the phase is fixed to one and the score is
    Re F(g); some atom qualifies for f in conv(D). ``argmax`` returns the
    best-scoring atom, ``first_qualifying`` the smallest index over the
    threshold, ties to the smallest index. No qualifying atom raises
    InfeasibleSelectionError, also for an f in its set at a round-off tie.
    """
    eps_m = float(eps_m)
    if not 0.0 <= eps_m < np.inf:
        raise ValueError(f"eps_m must be finite and >= 0; got {eps_m}")
    if mode not in SELECTION_MODES:
        raise ValueError(f"mode must be one of {SELECTION_MODES}; got {mode!r}")
    _check_policy(policy)
    _check_dim(F, dictionary)
    f = _as_vector(dictionary.space, f, "f")
    sel = _selections([F.coeffs], [dictionary.atoms], policy, f=[f], eps_m=[eps_m], mode=mode)[0]
    if isinstance(sel, InfeasibleSelectionError):
        raise sel
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
    f_eps plus a random perturbation of norm eps; where the norm of f would
    pass the largest float (eps near it), the perturbation's scale starts at
    most at the largest float and shrinks by a factor 1 - 2**-52 at a time
    until the norm is finite, so its norm stays <= eps.
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
        with np.errstate(over="ignore", invalid="ignore"):  # the scale, an entry or the norm may overflow
            scale = min(eps / lp_norm(space, noise), np.finfo(float).max)
            f = f_eps + noise * scale
            while not np.isfinite(_norm_mags(space.p, np.abs(f))):
                scale *= 1.0 - 2.0**-52
                f = f_eps + noise * scale
    true_coeffs = tuple(zip(indices.tolist(), coeffs.tolist()))  # (int, complex) pairs
    return TargetSpec._wrap(f, f_eps, eps, membership, true_coeffs)
