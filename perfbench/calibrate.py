"""Fixed reference kernels that read how fast the host runs at the moment.

Other load on the host changes how fast the same code runs by up to 60 %
over minutes. Each workload times one of these kernels alongside its ops
and reports every time multiplied by ``REFERENCE_S / kernel time``: the
time the op would have taken with the host at its reference speed. The
kernels use numpy only, never lpgreedy, so no change to the package can
move them. ``REFERENCE_S`` is each kernel's time on an unloaded core of
the reference host (2-vCPU KVM guest, Intel Xeon, 105 MiB L3, numpy 2.4
with OpenBLAS 0.3.31); it sets the scale, and the reported times are
seconds on that host.
"""

from __future__ import annotations

import numpy as np


class CpuKernel:
    """Many small numpy calls on a 16-element complex vector.

    The interpreter overhead and tiny array operations resemble the greedy
    loops at small dimensions.
    """

    REFERENCE_S = 1.4e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.v = rng.standard_normal(16) + 1j * rng.standard_normal(16)

    def __call__(self) -> float:
        x, acc = self.v, 0.0
        for _ in range(150):
            mags = np.abs(x)
            norm = float((mags**1.5).sum()) ** (1.0 / 1.5)
            coeffs = np.exp(-1j * np.angle(x)) * (mags / norm) ** 0.5
            acc += float(np.abs(coeffs @ x))
            x = x + 1e-3 * coeffs
        return acc


class MemoryKernel:
    """One matrix-vector product over a complex array of the given shape.

    Sized like a dictionary of the workload, it streams the same number of
    bytes the way a dictionary scan does.
    """

    REFERENCE_S = 4.0e-3

    def __init__(self, shape):
        self.a = np.full(shape, 0.5 + 0.5j, dtype=np.complex128)
        self.x = np.full(shape[1], 1.0 + 0.0j, dtype=np.complex128)

    def __call__(self) -> float:
        return float(np.abs(self.a @ self.x).max())
