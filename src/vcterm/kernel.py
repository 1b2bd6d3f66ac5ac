"""Truncated radial smoothing kernels and their moment diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Radius of the disk that holds 95% of the standard bivariate normal mass:
# P(X^2 + Y^2 <= r^2) = 1 - exp(-r^2/2) = 0.95.
DEFAULT_CONTAINED_MASS = 0.95
DEFAULT_RADIUS = math.sqrt(-2.0 * math.log(1.0 - DEFAULT_CONTAINED_MASS))

_TWO_PI = 2.0 * math.pi


def _gaussian_mass_inside(radius: float) -> float:
    return -math.expm1(-0.5 * radius * radius)


@dataclass(frozen=True)
class Kernel:
    """Radially symmetric bivariate density with compact disk support.

    The default is the standard bivariate normal truncated to the disk
    containing 95% of its mass and renormalized so the kernel integrates
    to one. ``normalizer`` can be overridden to use an unnormalized
    truncation in the moment diagnostics; every fit uses DEFAULT_KERNEL.
    """

    truncation_radius: float = DEFAULT_RADIUS
    normalizer: float | None = None

    def __post_init__(self):
        if not 0.0 < self.truncation_radius < math.inf:
            raise ValueError("truncation_radius must be positive and finite")
        if self.normalizer is None:
            mass = _gaussian_mass_inside(self.truncation_radius)
            object.__setattr__(self, "normalizer", 1.0 / mass)
        elif not 0.0 < self.normalizer < math.inf:
            raise ValueError("normalizer must be positive and finite")


DEFAULT_KERNEL = Kernel()


def _weigh(kernel: Kernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The kernel at standardized offsets (u, v) of one shape, written over u and
    returned; v is overwritten too. Zero outside the disk, NaN at a NaN offset."""
    u *= u
    v *= v
    u += v  # squared radius
    np.less_equal(u, kernel.truncation_radius**2, out=v)  # 1.0 inside the disk, 0.0 outside
    u *= -0.5
    np.exp(u, out=u)
    u *= kernel.normalizer
    u /= _TWO_PI
    u *= v
    return u


def kernel_eval(kernel: Kernel, u, v):
    """Evaluate the kernel at standardized offsets; zero outside the disk, NaN at a NaN offset."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    out = _weigh(kernel, u.copy(), v.copy())
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
    if quadrature_n < 64:
        raise ValueError("quadrature_n must be at least 64 per axis")
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
