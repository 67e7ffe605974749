"""Hot numerical kernels, in plain numpy.

FFT work is deliberately not here; the pocketfft calls of spectral dominate
those paths.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# coupled power nonlinearity: given physical u, v return (u^p v^(p+1),
# u^(p+1) v^p).  This is the inner loop of every RK stage.  out, a pair of
# arrays, takes the two products; out=(v, u) overwrites the factors, since
# each is read last by the product written into it.  The common factor is
# raised in place, and not at all for p = 1, where (u v)^1 would only copy
# it: the values are those of (u * v) ** p.


def coupled_powers(
    u: np.ndarray, v: np.ndarray, p: int, out: tuple = (None, None)
) -> tuple[np.ndarray, np.ndarray]:
    base = u * v
    if p > 1:
        base **= p
    return np.multiply(base, v, out=out[0]), np.multiply(base, u, out=out[1])


# ---------------------------------------------------------------------------
# Norm weights: Gevrey factor e^{rho (1+|z_k|)} (1+|z_k|)^s, dispersive
# factor 1+|eta_l - z_k^3|, and the Bourgain table w[l, k], the first times
# the second to the b.  The norm that applies a weight reports its overflow.


def gevrey_weight(zeta: np.ndarray, rho: float, s: float) -> np.ndarray:
    az = 1.0 + np.abs(zeta)
    with np.errstate(over="ignore"):
        return np.exp(rho * az) * az**s


def dispersive_factor(zeta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return 1.0 + np.abs(eta[:, None] - zeta[None, :] ** 3)


def bourgain_weight(
    zeta: np.ndarray, eta: np.ndarray, rho: float, s: float, b: float
) -> np.ndarray:
    with np.errstate(over="ignore"):
        return gevrey_weight(zeta, rho, s)[None, :] * dispersive_factor(zeta, eta) ** b

