"""Closed-form solution of the linear fractional oscillator.

The oscillator D^{alpha-1} q + omega^2 q = Q(t), with 1 < alpha-1 < 2,
arises from the one-dimensional linear constraint after integrating the
equation of motion twice.  Its solution is

    q(t) = q0 E_{b,1}(-w2 t^b) + qp0 t E_{b,2}(-w2 t^b)
           + int_0^t s^{b-1} E_{b,b}(-w2 s^b) Q(t-s) ds,    b = alpha - 1.

The convolution kernel is the impulse response of the operator
(D^b + w2): its Laplace transform is 1/(s^b + w2).  The kernel equals
-qdot0(s)/w2 where qdot0 is the derivative of the homogeneous relaxation
E_{b,1}(-w2 s^b); the two coincide when w2 = 1, the case all closed-form
checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AccuracyLossError, FracDomainError
from .mittag_leffler import ml_decomp_f, ml_decomp_g, ml_grid
from .series import Grid, SampleSeries

__all__ = ["OscillatorSpec", "forcing", "exact_solution", "decomposed_solution"]


@dataclass(frozen=True)
class OscillatorSpec:
    """Linear fractional oscillator data.

    ``alpha`` is the order of the originating constraint chain; the
    oscillator equation itself has order alpha-1.  The forcing is
    Q(t) = amp t^expo/Gamma(expo + 1) + C1 t + C2.  With ``power_amp``
    unset, amp = q0 and expo = m-alpha+1 (the literature form); with it
    set, amp = power_amp and expo = m-alpha.  Both exponents are positive.
    ``from_initial_data`` instead derives (amp, C1, C2) from the first
    integrals of the constrained equation of motion, which is the
    combination that the simulated constrained trajectory actually
    satisfies.
    """

    alpha: float
    omega2: float
    q0: float
    qp0: float
    C1: float = 0.0
    C2: float = 0.0
    power_amp: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.omega2 > 0.0:
            raise FracDomainError(f"omega2 must be positive, got {self.omega2}")
        if not self.alpha > 1.0:
            raise FracDomainError(f"alpha must exceed 1, got {self.alpha}")

    @property
    def m(self) -> int:
        return int(np.floor(self.alpha)) + 1

    @classmethod
    def from_initial_data(
        cls, alpha: float, omega2: float, q0: float, qp0: float
    ) -> "OscillatorSpec":
        """Constants fixed by integrating the constrained motion twice.

        Integrating qddot = -(b1/a1) D^1 D^{alpha-1} q from rest data gives
        D^{alpha-1} q + w2 q = qpp0 t^{m-alpha}/Gamma(m-alpha+1)
                               + w2 qp0 t + w2 q0,
        so C1 = w2 qp0, C2 = w2 q0, and the power term's amplitude is the
        initial second derivative qpp0, which is zero for
        constraint-consistent data: ``power_amp`` is 0.
        """
        return cls(
            alpha=alpha,
            omega2=omega2,
            q0=q0,
            qp0=qp0,
            C1=omega2 * qp0,
            C2=omega2 * q0,
            power_amp=0.0,
        )


def forcing(spec: OscillatorSpec, t):
    """Forcing Q(t); accepts scalars or arrays, t >= 0.  Its power's
    exponent, m-alpha+1 or m-alpha, is positive, so the power is 0 at
    t = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise FracDomainError("t must be >= 0")
    if spec.power_amp is None:
        amp = spec.q0
        expo = spec.m - spec.alpha + 1.0
    else:
        amp = spec.power_amp
        expo = spec.m - spec.alpha
    out = spec.C1 * t + spec.C2
    if amp != 0.0:
        out = out + amp / math.gamma(expo + 1.0) * t**expo
    return out if out.shape else float(out)


def _check_exact_domain(spec: OscillatorSpec, grid: Grid) -> None:
    if not 2.0 < spec.alpha < 3.0:
        raise FracDomainError(
            f"exact solution needs 2 < alpha < 3, got {spec.alpha}"
        )
    if grid.t_start != 0.0:
        raise FracDomainError("grid must start at t = 0")


def _power_moments(nodes: np.ndarray, beta: float, h: float):
    """Exact moments of tau^(beta-1) over each panel, for product
    integration with the non-power factor interpolated linearly."""
    tb = nodes**beta
    tb1 = nodes ** (beta + 1.0)
    m0 = (tb[1:] - tb[:-1]) / beta
    m1 = ((tb1[1:] - tb1[:-1]) / (beta + 1.0) - nodes[:-1] * (tb[1:] - tb[:-1]) / beta) / h
    return m0, m1


def _convolve_kernel(e_grid: np.ndarray, q_grid: np.ndarray, m0, m1) -> np.ndarray:
    """sum over panels of int tau^(b-1) lin[E(tau) Q(t_n - tau)] dtau.

    The panel weights of both interpolation ends are convolved with Q at
    once, by FFT at a power-of-two length of at least 2N + 1, which keeps
    the circular convolution from wrapping."""
    from numpy.fft import irfft, rfft  # loaded on first use: runs need no FFT

    n = len(e_grid) - 1
    a = np.zeros(n + 1)
    a[:n] = e_grid[:n] * (m0 - m1)
    ab = a.copy()
    ab[1:] += e_grid[1:] * m1
    size = 1 << (2 * n).bit_length()
    conv = irfft(rfft(ab, size) * rfft(q_grid, size), size)[: n + 1]
    return conv - a * q_grid[0]


def exact_solution(spec: OscillatorSpec, grid: Grid) -> SampleSeries:
    """Solution trajectory on the grid, by Mittag-Leffler evaluation plus
    product-integration of the forcing convolution.  One ``ml_grid`` call
    gives the three kernels E_{b,1}, E_{b,2} and E_{b,b} at every node,
    on contours shared by each band of nodes.  A value that overflows, as
    for a very large omega2, raises ``AccuracyLossError``."""
    _check_exact_domain(spec, grid)
    beta = spec.alpha - 1.0
    t = grid.nodes()
    e1, e2, ebb = ml_grid(beta, (1.0, 2.0, beta), spec.omega2, t)
    q = spec.q0 * e1 + spec.qp0 * t * e2

    q_grid = np.asarray(forcing(spec, t), dtype=float)
    if np.any(q_grid != 0.0):
        m0, m1 = _power_moments(t, beta, grid.h)
        # an overflow shows as a non-finite q, which is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            q = q + _convolve_kernel(ebb, q_grid, m0, m1)
    if not np.isfinite(q).all():
        raise AccuracyLossError("the closed-form solution overflowed", achieved=math.inf)
    return SampleSeries(grid, q)


def decomposed_solution(spec: OscillatorSpec, grid: Grid) -> SampleSeries:
    """Same trajectory assembled from the monotone/oscillatory split
    instead of direct Mittag-Leffler evaluation; requires omega2 = 1,
    the frequency at which the split is stated."""
    _check_exact_domain(spec, grid)
    if spec.omega2 != 1.0:
        raise FracDomainError("decomposition path requires omega2 = 1")
    beta = spec.alpha - 1.0
    t = grid.nodes()

    def split(k: int, tv: float) -> float:
        return ml_decomp_f(beta, k, tv) + ml_decomp_g(beta, k, tv)

    e1 = np.array([split(0, ti) if ti > 0.0 else 1.0 for ti in t])
    te2 = np.array([split(1, ti) if ti > 0.0 else 0.0 for ti in t])
    q = spec.q0 * e1 + spec.qp0 * te2

    q_grid = np.asarray(forcing(spec, t), dtype=float)
    if np.any(q_grid != 0.0):
        # kernel tau^(b-1) E_{b,b}(-tau^b) = -(f_{b,-1} + g_{b,-1});
        # divide the power factor back out for the product-integration form
        ebb = np.empty_like(t)
        ebb[0] = 1.0 / math.gamma(beta)
        ebb[1:] = np.array(
            [-split(-1, ti) / ti ** (beta - 1.0) for ti in t[1:]]
        )
        m0, m1 = _power_moments(t, beta, grid.h)
        q = q + _convolve_kernel(ebb, q_grid, m0, m1)
    return SampleSeries(grid, q)
