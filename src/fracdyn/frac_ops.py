"""Discrete fractional-calculus operators on uniformly sampled data.

Two discretizations are used throughout:

* a product-trapezoidal rule for the fractional integral
  (J^eps f)(t) = 1/Gamma(eps) * int_a^t (t-tau)^(eps-1) f(tau) dtau,
  exact for piecewise-linear f and second-order accurate otherwise;
* the causal L1 scheme (piecewise-linear history interpolation) for left
  Caputo derivatives, of order 2-alpha: ``l1_caputo_last`` at one node is
  the reference for ``fode_solver.History``, the library's L1 engine.

Left/right Caputo derivatives of order alpha, with m-1 < alpha < m, are
computed as J^(m-alpha) applied to samples of the m-th integer derivative;
Riemann-Liouville derivatives apply the integer derivative after the
fractional integral instead.  Where the continuous result is singular at an
interval endpoint, the corresponding slot carries NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    FracDomainError,
    SingularPointError,
    UnsupportedOrderError,
)
from .series import FracOrder, SampleSeries

__all__ = [
    "fractional_integral",
    "fractional_integral_values",
    "fractional_integral_last",
    "caputo_left",
    "caputo_right",
    "riemann_liouville_left",
    "riemann_liouville_right",
    "prop1_shift",
    "l1_caputo_last",
]


# ---------------------------------------------------------------------------
# fractional integral (product trapezoidal)

def fractional_integral_values(values: np.ndarray, eps: float, h: float) -> np.ndarray:
    """Product-trapezoidal J^eps on raw samples; returns one value per node."""
    if not 0.0 < eps <= 1.0:
        raise FracDomainError(f"eps must be in (0, 1], got {eps}")
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    out = np.zeros(n + 1)
    if n == 0:
        return out
    # convolution weights c_k = (k+1)^(eps+1) - 2k^(eps+1) + (k-1)^(eps+1)
    c = np.zeros(n + 1)
    c[1:n] = _trapezoid_weights(n, eps)
    # an array power, as in the table: numpy's vector pow and the scalar one
    # may round differently
    kp = np.array([n - 1.0, n]) ** (eps + 1.0)
    c[n] = (n + 1.0) ** (eps + 1.0) - 2.0 * kp[1] + kp[0]
    conv = np.convolve(f, c)[: n + 1]
    a0 = _trapezoid_start(np.arange(1, n + 1, dtype=float), eps)
    coef = h**eps / math.gamma(eps + 2.0)
    out[1:] = coef * (a0 * f[0] + (conv[1:] - c[1 : n + 1] * f[0]) + f[1:])
    return out


def fractional_integral_last(values: np.ndarray, eps: float, h: float) -> float:
    """Product-trapezoidal J^eps at the final node only (O(n) cost)."""
    if not 0.0 < eps <= 1.0:
        raise FracDomainError(f"eps must be in (0, 1], got {eps}")
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n == 0:
        return 0.0
    total = _trapezoid_start(n, eps) * f[0] + f[n]
    if n >= 2:
        total += np.dot(_trapezoid_weights(n, eps), f[n - 1 : 0 : -1])
    return float(h**eps / math.gamma(eps + 2.0) * total)


def _trapezoid_start(m, eps: float):
    """Weight of f(a) in J^eps at node m, an int (scalar pow) or an array."""
    return (m - 1.0) ** (eps + 1.0) - (m - 1.0 - eps) * m**eps


def _trapezoid_weights(n: int, eps: float) -> np.ndarray:
    """Interior product-trapezoid weights c_1 ... c_(n-1) of J^eps."""
    k = np.arange(0, n + 1, dtype=float)
    kp = k ** (eps + 1.0)
    return kp[2 : n + 1] - 2.0 * kp[1:n] + kp[0 : n - 1]


def fractional_integral(f: SampleSeries, eps: float) -> SampleSeries:
    """Fractional integral J^eps of a sampled function; zero at the left end."""
    return SampleSeries(f.grid, fractional_integral_values(f.values, eps, f.grid.h))


# ---------------------------------------------------------------------------
# Caputo derivatives from samples of the m-th integer derivative

def caputo_left(f_m: SampleSeries, order: FracOrder) -> SampleSeries:
    """Left Caputo derivative from samples of f^(m): J^(m-alpha) f^(m)."""
    order.require_fractional()
    return fractional_integral(f_m, order.epsilon)


def caputo_right(f_m: SampleSeries, order: FracOrder) -> SampleSeries:
    """Right Caputo derivative from samples of f^(m), by reflection.

    Uses (-1)^m * (J^eps [f^(m) o reflect]) evaluated at the reflected node,
    which mirrors the left-sided quadrature onto [t, b].
    """
    order.require_fractional()
    rev = f_m.values[::-1]
    j = fractional_integral_values(rev, order.epsilon, f_m.grid.h)
    sign = -1.0 if order.m % 2 else 1.0
    return SampleSeries(f_m.grid, sign * j[::-1])


# ---------------------------------------------------------------------------
# causal L1 evaluation on history prefixes

def _l1_weights(n: int, p: float) -> np.ndarray:
    """L1 panel weights (k+1)^p - k^p for k = 0 ... n-1; p = m - alpha."""
    k = np.arange(0, n + 1, dtype=float)
    return k[1:] ** p - k[:-1] ** p


def _second_differences(q: np.ndarray, h: float) -> np.ndarray:
    """Per-panel second differences; panel 0 reuses panel 1 (one-sided)."""
    n = len(q) - 1
    d2 = np.zeros(n)
    if n >= 2:
        d2[1:] = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h**2
        d2[0] = d2[1]
    return d2


def _l1_scheme(alpha: float, h: float):
    """(difference order, weight exponent p, h power, Gamma value) of L1 at
    ``alpha``; a sum of weights times differences is scaled by power/Gamma."""
    if 0.0 < alpha < 1.0:
        return 1, 1.0 - alpha, h ** (-alpha), math.gamma(2.0 - alpha)
    if 1.0 < alpha < 2.0:
        return 2, 2.0 - alpha, h ** (2.0 - alpha), math.gamma(3.0 - alpha)
    raise UnsupportedOrderError(
        f"history scheme supports orders in (0,1) or (1,2), got {alpha}"
    )


def l1_caputo_last(q: np.ndarray, h: float, alpha: float) -> float:
    """L1-scheme left Caputo derivative at the final node of the prefix ``q``
    (first differences below order 1, second ones above); strictly causal."""
    n = len(q) - 1
    if n < 1:
        return 0.0
    order, p, hp, g = _l1_scheme(alpha, h)
    q = np.asarray(q, dtype=float)
    d = np.diff(q) if order == 1 else _second_differences(q, h)
    return float(np.dot(_l1_weights(n, p)[::-1], d) * hp / g)


# ---------------------------------------------------------------------------
# Riemann-Liouville derivatives

def riemann_liouville_left(f: SampleSeries, order: FracOrder) -> SampleSeries:
    """Left Riemann-Liouville derivative D^m J^(m-alpha) f.

    The outer integer derivative is taken by central finite differences,
    one-sided of second order at the ends (of first order on a 2-node
    grid, too short for second order).  The left endpoint slot is NaN: the
    continuous value behaves like (t-a)^(-alpha) f(a) there.
    """
    order.require_fractional()
    vals = fractional_integral_values(f.values, order.epsilon, f.grid.h)
    edge = 2 if len(vals) >= 3 else 1
    for _ in range(order.m):
        vals = np.gradient(vals, f.grid.h, edge_order=edge)
    vals = vals.copy()
    vals[0] = np.nan
    return SampleSeries(f.grid, vals)


def riemann_liouville_right(f: SampleSeries, order: FracOrder) -> SampleSeries:
    """Right Riemann-Liouville derivative, by reflection of the left one."""
    rev = SampleSeries(f.grid, f.values[::-1])
    left = riemann_liouville_left(rev, order)
    return SampleSeries(f.grid, left.values[::-1])


# ---------------------------------------------------------------------------
# the derivative-shift identity

def prop1_shift(order: FracOrder, f_m_at_a: float, t: float) -> float:
    """Correction term t^(m-alpha-1)/Gamma(m-alpha) * f^(m)(a).

    Satisfies d/dt D^alpha f = D^(alpha+1) f + shift, with t measured from
    the lower terminal a.
    """
    order.require_fractional()
    expo = order.m - order.alpha - 1.0
    if f_m_at_a == 0.0:
        return 0.0
    if t == 0.0:
        if expo < 0.0:
            raise SingularPointError("shift term diverges at t = a")
        return 0.0
    if t < 0.0:
        raise FracDomainError("t must be >= a")
    return t**expo / math.gamma(order.m - order.alpha) * f_m_at_a
