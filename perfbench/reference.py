"""Fixed reference computation that gauges the host's speed.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over seconds to minutes with the code unchanged.  ``run.py``
therefore runs this reference between passes and reports each pass's wall
time as a multiple of the reference's, which cancels the drift that both
share.

The reference is a plain-numpy IF-RK4 stepper for KdV, u_t + u_xxx +
(u^2/2)_x = 0, written here and not taken from ``gkdvlab``, so a change to
the package never changes it.  Like the package it uses complex FFTs with
``fftshift``-ordered coefficients, so host slowdowns hit both alike.  Each
workload steps it on its own grid size, for a fixed number of steps that
take about as long as one of its passes.
"""

from __future__ import annotations

import numpy as np

HALF_LENGTH = 10.0 * np.pi

# (grid points, steps) per workload
SIZES = {
    "soliton": (1024, 2400),
    "picard": (256, 4000),
    "lab": (64, 3000),
}


def kdv_steps(num: int, steps: int, dt: float = 1e-3) -> np.ndarray:
    """Step a c = 1 KdV soliton and return the final coefficients."""
    x = np.linspace(-HALF_LENGTH, HALF_LENGTH, num, endpoint=False)
    k = np.fft.fftshift(np.fft.fftfreq(num, d=2.0 * HALF_LENGTH / num)) * 2.0 * np.pi
    half = np.exp(1j * k**3 * dt / 2.0)
    full = half * half
    flux = -0.5j * k

    def nonlinear(coeffs):
        u = np.fft.ifft(np.fft.ifftshift(coeffs)).real
        return flux * np.fft.fftshift(np.fft.fft(u * u))

    coeffs = np.fft.fftshift(np.fft.fft(3.0 / np.cosh(0.5 * x) ** 2))
    for _ in range(steps):
        a = dt * nonlinear(coeffs)
        b = dt * nonlinear(half * (coeffs + a / 2.0))
        c = dt * nonlinear(half * coeffs + b / 2.0)
        d = dt * nonlinear(full * coeffs + half * c)
        coeffs = full * coeffs + (full * a + 2.0 * half * (b + c) + d) / 6.0
    return coeffs


def run(workload: str) -> None:
    """One reference run for ``workload``; raises if it went non-finite."""
    coeffs = kdv_steps(*SIZES[workload])
    if not np.all(np.isfinite(coeffs)):
        raise FloatingPointError("reference stepper went non-finite")
