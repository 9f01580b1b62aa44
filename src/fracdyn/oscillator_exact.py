"""Closed-form solution of the linear fractional oscillator.

The oscillator D^b q + w2 q = Q(t), b = alpha - 1 with 1 < b < 2, arises
from the one-dimensional linear constraint after integrating the equation
of motion twice.  Its forcing is Q(t) = amp t^e / Gamma(e + 1) + C1 t + C2.
D^b sends C1 t + C2 to zero, so (C2 + C1 t) / w2 is a particular solution,
and the Laplace pair L[t^(beta-1) E_{b,beta}(-w2 t^b)] = s^(b-beta) /
(s^b + w2) (I. Podlubny, Fractional Differential Equations, 1999, 1.2)
gives every other term:

    q(t) = (C2 + C1 t) / w2 + (q0 - C2 / w2) E_{b,1}(-w2 t^b)
           + (qp0 - C1 / w2) t E_{b,2}(-w2 t^b)
           + amp t^(b+e) E_{b,b+e+1}(-w2 t^b).

No step is taken, so the solution is exact up to the Mittag-Leffler
evaluation and rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        constraint-consistent data: ``power_amp`` is 0.  The solution is
        then q0 + qp0 t.
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


def _power(spec: OscillatorSpec) -> tuple[float, float]:
    """(amp, expo) of the forcing's power term amp t^expo / Gamma(expo + 1)."""
    if spec.power_amp is None:
        return spec.q0, spec.m - spec.alpha + 1.0
    return spec.power_amp, spec.m - spec.alpha


def forcing(spec: OscillatorSpec, t):
    """Forcing Q(t); accepts scalars or arrays, t >= 0.  Its power's
    exponent, m-alpha+1 or m-alpha, is positive, so the power is 0 at
    t = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise FracDomainError("t must be >= 0")
    amp, expo = _power(spec)
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


def exact_solution(spec: OscillatorSpec, grid: Grid) -> SampleSeries:
    """Solution trajectory on the grid, in the closed form of the module
    docstring.  One ``ml_grid`` call gives the kernels E_{b,1}, E_{b,2}
    and, for a nonzero power term, E_{b,b+e+1} at every node, on contours
    shared by each band of nodes.  A value that overflows, as when
    omega2 q0 or omega2 qp0 passes the float range, raises
    ``AccuracyLossError``."""
    _check_exact_domain(spec, grid)
    beta, w2 = spec.alpha - 1.0, spec.omega2
    amp, expo = _power(spec)
    t = grid.nodes()
    betas = (1.0, 2.0) if amp == 0.0 else (1.0, 2.0, beta + expo + 1.0)
    kern = ml_grid(beta, betas, w2, t)
    # an overflow shows as a non-finite q, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        q = (spec.C2 + spec.C1 * t) / w2 + (spec.q0 - spec.C2 / w2) * kern[0]
        q += (spec.qp0 - spec.C1 / w2) * t * kern[1]
        if amp != 0.0:
            q += amp * t ** (beta + expo) * kern[2]
    if not np.isfinite(q).all():
        raise AccuracyLossError("the closed-form solution overflowed", achieved=math.inf)
    return SampleSeries(grid, q)


def decomposed_solution(spec: OscillatorSpec, grid: Grid) -> SampleSeries:
    """Same trajectory assembled from the monotone/oscillatory split
    instead of direct Mittag-Leffler evaluation; requires omega2 = 1, the
    frequency at which the split is stated, and no power term, for which
    the split has no kernel."""
    _check_exact_domain(spec, grid)
    if spec.omega2 != 1.0:
        raise FracDomainError("decomposition path requires omega2 = 1")
    if _power(spec)[0] != 0.0:
        raise FracDomainError("decomposition path requires power_amp = 0")
    beta = spec.alpha - 1.0
    t = grid.nodes()

    def split(k: int, tv: float) -> float:
        return ml_decomp_f(beta, k, tv) + ml_decomp_g(beta, k, tv)

    e1 = np.array([split(0, ti) if ti > 0.0 else 1.0 for ti in t])
    te2 = np.array([split(1, ti) if ti > 0.0 else 0.0 for ti in t])
    q = spec.C2 + spec.C1 * t + (spec.q0 - spec.C2) * e1 + (spec.qp0 - spec.C1) * te2
    return SampleSeries(grid, q)
