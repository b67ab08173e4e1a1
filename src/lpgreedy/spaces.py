"""Complex l_p^n spaces: norms, norming functionals, smoothness bounds.

Vectors are 1-D numpy arrays of complex128, scalars are python complex.
Every operation here is a pure function of its inputs; nothing is cached
or mutated, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpSpace",
    "DualFunctional",
    "SmoothnessParams",
    "lp_norm",
    "complex_sign",
    "norming_functional",
    "apply_functional",
    "rho_bound",
    "smoothness_params",
]

# |h_i|^(p-1) and the dual exponent p/(p-1) leave float64 range quickly for
# extreme p; 64 keeps every intermediate quantity representable.
P_MAX = 64.0


def _whole(value) -> int | None:
    """int(value) for a whole number such as 16 or 16.0; None for 16.5, NaN, inf, "16" or True."""
    try:
        number = int(value)
    except (OverflowError, TypeError, ValueError):
        return None
    return number if number == value and not isinstance(value, bool) else None


def _count(name: str, value) -> int:
    """The whole number ``value`` >= 1 (16 or 16.0); a ValueError naming ``name`` otherwise."""
    number = _whole(value)
    if number is None or number < 1:
        raise ValueError(f"{name} must be an integer >= 1; got {value!r}")
    return number


@dataclass(frozen=True)
class LpSpace:
    """Complex l_p^n, exponent ``p`` in (1, 64], dimension ``dim`` >= 1.

    p = 1 and p = infinity are rejected: those spaces are not uniformly
    smooth and the duality map below is not single-valued there.
    """

    p: float
    dim: int

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or not (1.0 < p <= P_MAX):
            raise ValueError(
                f"space.p must satisfy 1 < p <= {P_MAX:g}; got {self.p!r}"
            )
        dim = _whole(self.dim)
        if dim is None or dim < 1:
            raise ValueError(f"space.dim must be a positive integer; got {self.dim!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)

    @property
    def p_conjugate(self) -> float:
        """Hoelder conjugate p/(p-1), the exponent of the dual space."""
        return self.p / (self.p - 1.0)


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """Linear functional F(x) = sum_i coeffs[i] * x[i] (no conjugation).

    Produced by :func:`norming_functional`, in which case the coefficient
    vector has unit dual norm and F(h) equals ||h||.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("functional coefficients must form a nonempty vector")
        if not np.isfinite(coeffs).all():
            raise ValueError("functional coefficients contain non-finite entries")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class SmoothnessParams:
    """Power-type smoothness data (q, gamma) with rho(u) <= gamma * u^q.

    ``p_dual`` = q/(q-1) is the exponent appearing in the convergence
    rates m^(-1/p_dual).
    """

    q: float
    gamma: float
    p_dual: float


# A Python float: it compares with a numpy scalar faster than a numpy scalar does.
_TINY = float(np.finfo(float).tiny)

# Tall arrays are taken about this many entries at a time, so that the
# float temporaries of a block stay near 512 KiB instead of growing with
# the array.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(a: np.ndarray) -> range:
    """Start rows of the blocks of ``a`` (about _BLOCK_ENTRIES entries each) and their height.

    Iterate as ``for start in blocks: a[start : start + blocks.step]``.
    """
    return range(0, a.shape[0], max(1, _BLOCK_ENTRIES // max(1, a.shape[-1])))


def _as_vector(space: LpSpace, v, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=np.complex128)
    if arr.shape != (space.dim,):
        raise ValueError(
            f"{name} has shape {arr.shape}, expected ({space.dim},) for this space"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _norm_rows(p: float, a: np.ndarray) -> np.ndarray:
    """Row-wise l_p norms of a 2-D complex array, scaled for stability; NaN for a non-finite row.

    A tall array is taken a block of rows at a time; each row's norm is
    the same bit for bit, since every reduction runs along a row.
    """
    blocks = _row_blocks(a)
    if len(blocks) <= 1:
        return _norm_block(p, a)
    return np.concatenate([_norm_block(p, a[start : start + blocks.step]) for start in blocks])


def _norm_block(p: float, a: np.ndarray) -> np.ndarray:
    mags = np.abs(a)
    scale = np.maximum.reduce(mags, axis=-1)
    # Only a zero row needs the np.where (0/0); a NaN or inf row comes out NaN either way.
    zero = not np.minimum.reduce(scale) > 0.0
    safe = np.where(scale != 0.0, scale, 1.0) if zero else scale
    mags /= safe[:, None]
    mags **= p  # in place, and bit for bit ``mags ** p``
    norms = safe * np.add.reduce(mags, axis=-1) ** (1.0 / p)
    return np.where(scale != 0.0, norms, 0.0) if zero else norms


def _norm_mags(p: float, mags: np.ndarray) -> float:
    """The l_p norm of one vector given its magnitudes ``|a_i|``; NaN if one is not finite.

    It is ``_norm_rows(p, a[None])[0]`` bit for bit, so a run stepped
    alone and the same run as a row of a batch get the same norms. The
    root stays a ufunc on a one-element array for that: a Python-float
    power differs from numpy's in the last bit for about one vector in
    twenty. The reductions are called as ufunc methods, which is what
    ``.max()`` and ``.sum()`` do after their argument handling.
    """
    scale = np.maximum.reduce(mags)
    if scale == 0.0:
        return 0.0
    sums = np.add.reduce((mags / scale) ** p, keepdims=True)
    return float(scale * (sums ** (1.0 / p))[0])


def _norming_coeffs(p: float, h: np.ndarray, norm, mags=None) -> np.ndarray:
    """Norming-functional coefficients of a nonzero vector or of nonzero rows.

    ``norm`` is the norm of ``h`` (a float) or, for rows, a column of row
    norms (shape ``(rows, 1)``); ``mags``, if given, is ``np.abs(h)``. The
    conjugate sign is conj(h_i) / |h_i|, exact to rounding while |h_i| is
    normal. A subnormal |h_i| (one minimum over ``mags`` tests for any) has
    lost bits, so there it is e^{-i arg(h_i)}; at zero the coefficient is 0.
    """
    if mags is None:
        mags = np.abs(h)
    tiny = np.minimum.reduce(mags, axis=None) < _TINY  # else the floor would change nothing
    conj_signs = np.conj(h) / (np.maximum(mags, _TINY) if tiny else mags)
    if tiny:
        small = mags < _TINY
        conj_signs[small] = np.exp(-1j * np.angle(h[small]))
    return conj_signs * (mags / norm if p == 2.0 else (mags / norm) ** (p - 1.0))  # x ** 1.0 is x


def lp_norm(space: LpSpace, v) -> float:
    """(sum_i |v_i|^p)^(1/p); nonnegative and zero only for the zero vector."""
    return _norm_mags(space.p, np.abs(_as_vector(space, v)))


def complex_sign(z) -> complex:
    """z/|z| for z != 0, and 1 for z = 0, so the result always has modulus 1."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"complex_sign requires a finite scalar; got {z!r}")
    return z / abs(z) if z else 1.0 + 0.0j


def norming_functional(space: LpSpace, h) -> DualFunctional:
    """The functional F_h with unit dual norm and F_h(h) = ||h||.

    In l_p the duality map is explicit: the coefficient at i is
    conj(sign h_i) * (|h_i| / ||h||)^(p-1). This closed form satisfies the
    two defining identities to round-off and is never obtained by
    optimization.
    """
    arr = _as_vector(space, h, "h")
    mags = np.abs(arr)
    norm = _norm_mags(space.p, mags)
    if norm == 0.0:
        raise ValueError("norming functional is undefined for the zero vector")
    return DualFunctional(_norming_coeffs(space.p, arr, norm, mags))


def apply_functional(F: DualFunctional, x) -> complex:
    """Evaluate F(x) = sum_i coeffs[i] * x[i]; linear in x."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.shape != (F.dim,):
        raise ValueError(
            f"x has shape {arr.shape}, expected ({F.dim},) to match the functional"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("x contains non-finite entries")
    return complex(np.dot(F.coeffs, arr))


def _rho_values(p: float, u):
    """rho_bound's formula for a float or an array of u >= 0, unvalidated."""
    if p <= 2.0:
        return u**p / p
    return (p - 1.0) * u * u / 2.0


def rho_bound(space: LpSpace, u: float) -> float:
    """Upper bound for the modulus of smoothness of l_p at u >= 0.

    u^p/p for p <= 2 and (p-1)u^2/2 for p >= 2; the two branches agree
    at p = 2.
    """
    u = float(u)
    if not np.isfinite(u) or u < 0.0:
        raise ValueError(f"u must be finite and nonnegative; got {u!r}")
    return _rho_values(space.p, u)


def smoothness_params(space: LpSpace) -> SmoothnessParams:
    """(q, gamma, p_dual) with rho_bound(u) = gamma * u^q and p_dual = q/(q-1)."""
    if space.p <= 2.0:
        q = space.p
        gamma = 1.0 / space.p
    else:
        q = 2.0
        gamma = (space.p - 1.0) / 2.0
    return SmoothnessParams(q=q, gamma=gamma, p_dual=q / (q - 1.0))
