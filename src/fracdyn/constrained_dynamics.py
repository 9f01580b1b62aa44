"""Right-hand-side builders for dynamics under a fractional constraint.

A nonholonomic constraint f(q, qdot, D^a q) = 0 is enforced through the
d'Alembert-Lagrange multiplier

    lambda = [ sum_l f_qdot_l u_q_l - sum_l f_D_l D1Da_l
               - sum_l f_q_l qdot_l ] / sum_m f_qdot_m^2

giving qddot_k = -u_q_k + f_qdot_k lambda.  For the linear constraint
f = a.qdot + b.D^alpha q this collapses to a projector form

    qddot = -(I - a a^T/a^2) grad u - (a/a^2) sum_l b_l D^1 D^alpha q_l.

The D^1 D^alpha terms are taken, by default, through the derivative-shift
identity: D^1 D^alpha q = D^(alpha+1) q + t^(m-alpha-1)/Gamma(m-alpha)
q^(m)(0), with D^(alpha+1) q evaluated as the causal L1 derivative of the
velocity history.  The power-law correction is singular at t = 0; its
exact per-step integral is handed to the solver separately instead of
being sampled.  A direct path (backward difference of the D^alpha q
history) is kept for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConstraintViolationError,
    FracDomainError,
    GridMismatchError,
    SingularConstraintError,
)
from .fode_solver import RHS
from .frac_ops import l1_caputo_series
from .series import FracOrder, SampleSeries

__all__ = [
    "ConstraintSpec",
    "SystemSpec",
    "lambda_general",
    "rhs_general",
    "rhs_linear",
    "rhs_nonlinear_frac_oscillator",
    "hamilton_rhs",
    "variational_residual",
]

_INIT_TOL = 1e-10
_CHETAEV_TOL = 1e-12


# ---------------------------------------------------------------------------
# specification types

@dataclass(frozen=True)
class ConstraintSpec:
    """One scalar constraint f(q, qdot, D^alpha q) = 0 and its gradients.

    ``f`` returns a scalar; ``df_dq``, ``df_dqdot`` and ``df_ddq`` return
    length-n vectors.  Each is a callable of (q, qdot, dq) with
    dq = D^alpha q.  Only ``linear`` sets ``a`` and ``b``, the constant
    vectors of f = a.qdot + b.dq, which the projector form needs.
    """

    order: FracOrder
    f: Callable
    df_dq: Callable
    df_dqdot: Callable
    df_ddq: Callable
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    @classmethod
    def linear(cls, a: Sequence[float], b: Sequence[float], order: FracOrder) -> "ConstraintSpec":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise FracDomainError("a and b must be 1-d vectors of equal length")
        # |a|^2 that underflows to 0 or overflows to inf leaves a/|a|^2 = 0,
        # which would drop the constraint
        with np.errstate(over="ignore"):
            a2 = np.dot(a, a)
        if not 0.0 < a2 < math.inf:
            raise SingularConstraintError("linear constraint needs a finite nonzero |a|^2")
        zeros = np.zeros_like(a)
        return cls(
            order=order,
            f=lambda q, qdot, dq: float(np.dot(a, qdot) + np.dot(b, dq)),
            df_dq=lambda q, qdot, dq: zeros,
            df_dqdot=lambda q, qdot, dq: a,
            df_ddq=lambda q, qdot, dq: b,
            a=a,
            b=b,
        )

    def value(self, q, qdot, dq) -> float:
        return float(self.f(q, qdot, dq))


@dataclass(frozen=True)
class SystemSpec:
    """Potential gradient, constraint and initial state.  In the Hamilton
    form ``qdot_init`` holds the initial momentum p(0)."""

    grad_potential: Callable[[np.ndarray], np.ndarray]
    constraint: Optional[ConstraintSpec]
    q_init: np.ndarray
    qdot_init: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q_init, dtype=float)
        v = np.asarray(self.qdot_init, dtype=float)
        if q.ndim != 1 or v.shape != q.shape:
            raise FracDomainError("q_init and qdot_init must be 1-d vectors of equal length")
        object.__setattr__(self, "q_init", q)
        object.__setattr__(self, "qdot_init", v)

    @property
    def n(self) -> int:
        return len(self.q_init)


# ---------------------------------------------------------------------------
# multiplier

def lambda_general(
    sys: SystemSpec,
    q: np.ndarray,
    qdot: np.ndarray,
    dq: Optional[np.ndarray] = None,
    d1d: Optional[np.ndarray] = None,
) -> float:
    """Constraint multiplier from the Chetaev-projected force balance.

    ``dq`` is D^alpha q and ``d1d`` is D^1 D^alpha q; both default to zero.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    zeros = np.zeros_like(q)
    dq = zeros if dq is None else dq
    d1d = zeros if d1d is None else d1d
    grad = np.asarray(sys.grad_potential(q), dtype=float)
    return _multiplier(sys.constraint, q, qdot, dq, d1d, grad)[0]


def _multiplier(c: ConstraintSpec, q, qdot, dq, d1d, grad):
    """(lambda, df/dqdot) at one state, for the potential gradient ``grad``."""
    g = np.asarray(c.df_dqdot(q, qdot, dq), dtype=float)
    fq = np.asarray(c.df_dq(q, qdot, dq), dtype=float)
    fd = np.asarray(c.df_ddq(q, qdot, dq), dtype=float)
    g2 = float(np.dot(g, g))
    if not _CHETAEV_TOL < g2 < math.inf:
        raise SingularConstraintError("Chetaev gradient vanished or is not finite")
    num = np.dot(g, grad) - np.dot(fd, d1d) - np.dot(fq, qdot)
    return float(num / g2), g


# ---------------------------------------------------------------------------
# shared plumbing for rhs builders

def _check_initial_residual(sys: SystemSpec) -> None:
    """Raise unless (q0, qdot0) lies on the constraint, where D^alpha q = 0."""
    f0 = sys.constraint.value(sys.q_init, sys.qdot_init, np.zeros(sys.n))
    if not abs(f0) <= _INIT_TOL:  # NaN fails it too
        raise ConstraintViolationError(
            f"initial data violates the constraint: f(0) = {f0:.3e}"
        )


def _derive_qm0(sys: SystemSpec) -> np.ndarray:
    """q^(m)(0) for the shift term, a one-sided estimate.

    m = 1 needs the initial velocity (known).  m = 2 uses the equation of
    motion at t = 0 with the fractional terms dropped (they vanish at 0+
    for smooth motion), i.e. the constrained Newtonian acceleration.
    """
    m = sys.constraint.order.m
    if m == 1:
        return sys.qdot_init.copy()
    a = sys.constraint.a
    grad = np.asarray(sys.grad_potential(sys.q_init), dtype=float)
    a2 = float(np.dot(a, a))
    return -(grad - a * np.dot(a, grad) / a2)


class _LinearRHS(RHS):
    """The projector form from two scalars, ag = a.grad u and
    bd = b.D^1 D^alpha q: qddot = (a/a^2)(ag - bd) - grad u and
    lambda = (ag - bd - avg b.q^(m)(0))/a^2, avg being the startup power's
    average over the step in prop1 mode (zero in direct mode)."""

    def __init__(self, sys: SystemSpec, mode: str) -> None:
        if mode not in ("prop1", "direct"):
            raise FracDomainError(f"mode must be 'prop1' or 'direct', got {mode}")
        c = sys.constraint
        if c is None or c.a is None:
            raise FracDomainError("rhs_linear needs a linear constraint")
        c.order.require_fractional()
        self.sys = sys
        self.mode = mode
        self.a = c.a
        self.b = c.b
        self.alpha = c.order.alpha
        self.a2 = float(np.dot(self.a, self.a))
        self._a_unit = self.a / self.a2  # a/|a|^2
        _check_initial_residual(sys)
        self.qm0 = _derive_qm0(sys)
        # exponent of the shift power t^(m-alpha-1)
        self._shift_pow = c.order.m - self.alpha
        self._shift_gamma = math.gamma(self._shift_pow + 1.0)
        bqm0 = float(np.dot(self.b, self.qm0))
        self._shift_amp = -bqm0 / self._shift_gamma * self._a_unit
        # b.q^(m)(0) of the multiplier's averaged startup term
        self._bqm0 = bqm0 if mode == "prop1" else 0.0
        self._has_shift = bool(np.any(self._shift_amp))

    def __call__(self, t, q, qdot, hist) -> np.ndarray:
        if self.mode == "prop1":
            d1d = hist.caputo_qdot(self.alpha)
        else:
            # backward difference against D^alpha q stored at the node before
            dq_now = hist.caputo_q(self.alpha)
            hist.store(dq_now)
            if hist.count < 2:
                d1d = np.zeros_like(dq_now)
            else:
                d1d = (dq_now - hist.aux_view[-2]) / hist.h
        grad = np.asarray(self.sys.grad_potential(q), dtype=float)
        # ndarray.dot skips the dispatch of np.dot and of the @ ufunc
        num = float(self.a.dot(grad)) - float(self.b.dot(d1d))
        lam = num
        if self._bqm0:
            # report the step-effective multiplier: the singular startup term
            # is averaged over [t, t+h], matching the exact velocity increment
            p = self._shift_pow
            avg = ((t + hist.h) ** p - t**p) / (hist.h * self._shift_gamma)
            lam -= avg * self._bqm0
        self.last_multiplier = lam / self.a2
        return self._a_unit * num - grad

    def singular_velocity_increment(self, t0: float, t1: float) -> Optional[np.ndarray]:
        if self.mode != "prop1" or not self._has_shift:
            return None
        p = self._shift_pow
        return self._shift_amp * (t1**p - t0**p)

    def residual_last(self, hist) -> float:
        dq = hist.caputo_q(self.alpha)
        return float(self.a.dot(hist.last_qdot) + self.b.dot(dq))


class _GeneralRHS(RHS):
    def __init__(self, sys: SystemSpec) -> None:
        c = sys.constraint
        if c is None:
            raise FracDomainError("rhs_general needs a constraint")
        c.order.require_fractional()
        self.sys = sys
        self.alpha = c.order.alpha
        _check_initial_residual(sys)
        # q^(m)(0) of the startup term; for m = 2 it is taken as zero
        self.qm0 = sys.qdot_init.copy() if c.order.m == 1 else np.zeros(sys.n)
        self._avg_pow = c.order.m - self.alpha
        self._avg_gamma = math.gamma(self._avg_pow + 1.0)
        self._has_qm0 = bool(np.any(self.qm0))

    def __call__(self, t, q, qdot, hist) -> np.ndarray:
        dq = hist.caputo_q(self.alpha)
        d1d = hist.caputo_qdot(self.alpha)
        if self._has_qm0:
            # the startup power t^(m-alpha-1) is not summable pointwise near
            # t = 0; use its exact average over the step [t, t+h] instead
            p = self._avg_pow
            avg = ((t + hist.h) ** p - t**p) / (hist.h * self._avg_gamma)
            d1d = d1d + avg * self.qm0
        grad = np.asarray(self.sys.grad_potential(q), dtype=float)
        lam, g = _multiplier(self.sys.constraint, q, qdot, dq, d1d, grad)
        self.last_multiplier = lam
        return -grad + g * lam

    def residual_last(self, hist) -> float:
        dq = hist.caputo_q(self.alpha)
        return self.sys.constraint.value(hist.last_q, hist.last_qdot, dq)


def rhs_linear(sys: SystemSpec, mode: str = "prop1"):
    """Closed-form right-hand side for the linear constraint.

    ``mode='prop1'`` (default) uses the derivative-shift identity;
    ``mode='direct'`` backward-differences the D^alpha q history and exists
    for cross-validation.  Initial data off the constraint raise
    ``ConstraintViolationError``.
    """
    return _LinearRHS(sys, mode)


def rhs_general(sys: SystemSpec):
    """Multiplier-eliminated right-hand side for a general constraint."""
    return _GeneralRHS(sys)


# ---------------------------------------------------------------------------
# nonlinear fractional oscillator (case-2 reduction)

class _NonlinearPreRHS(RHS):
    """Pre-reduction form xddot = -g D^1[D^alpha x + D^(alpha-2) K(x)].

    Integrating the outer D^1 once gives the first integral
    xdot = xdot(0) - g F with F = D^alpha x + J^(2-alpha) K(x), F(0) = 0,
    which this rhs steps directly.  The newest L1 panel of D^alpha x carries
    an h^(-alpha) weight, so any fully explicit realization feeds grid noise
    back with gain ~ h^(1-alpha) > 1; that panel is therefore solved for
    implicitly, and the acceleration handed back is the one a
    semi-implicit-euler step turns into exactly that update (the intended
    scheme for this form).  K(x_j) is evaluated once per node and kept in
    the history.
    """

    def __init__(self, g: float, K: Callable[[float], float], alpha: float) -> None:
        self.g = g
        self.K = K
        self.alpha = alpha

    def __call__(self, t, q, qdot, hist) -> np.ndarray:
        h = hist.h
        x = hist.q_view[:, 0]
        hist.store(self.K(x[-1]))
        if len(x) < 3:
            # fractional terms vanish at 0+ along smooth motion
            return np.array([-self.K(float(q[0]))])
        v0 = hist.qdot_view[0, 0]
        # F at the next node with x_{i+1} split out (taken as 0 in the L1
        # sum); K is lagged one sample
        coef = h ** (-self.alpha) / math.gamma(3.0 - self.alpha)
        f_known = (
            hist.caputo_q(self.alpha, ahead=0.0)[0]
            + hist.integral_aux(2.0 - self.alpha, ahead=hist.aux_view[-1])[0]
        )
        x_next = (x[-1] + h * (v0 - self.g * f_known)) / (
            1.0 + h * self.g * coef
        )
        return np.array([((x_next - x[-1]) / h - float(qdot[0])) / h])


class _NonlinearReducedRHS(RHS):
    """Reduced form xddot = -(1/g) D^(3-alpha) x - K(x).

    Obtained by applying D^(2-alpha) to the first integral
    xdot + g D^alpha x + g D^(alpha-2) K(x) = xdot(0); the operator turns
    xdot into D^(3-alpha) x exactly and annihilates the constant.
    """

    def __init__(self, g: float, K: Callable[[float], float], alpha: float) -> None:
        self.g = g
        self.K = K
        self.alpha = alpha

    def __call__(self, t, q, qdot, hist) -> np.ndarray:
        d = hist.caputo_q(3.0 - self.alpha)
        return np.array([-d[0] / self.g - self.K(float(q[0]))])


def rhs_nonlinear_frac_oscillator(
    g: float, K: Callable[[float], float], order: FracOrder, form: str = "reduced"
):
    """One-dimensional oscillator with power-law damping, 1 < alpha < 2.

    ``form='reduced'`` integrates xddot = -(1/g) D^(3-alpha) x - K(x);
    ``form='pre'`` integrates the pre-reduction double-derivative form for
    cross-validation.  In the alpha -> 2 limit the reduced form becomes the
    classically damped oscillator xddot = -(1/g) xdot - K(x).
    """
    if not 1.0 < order.alpha < 2.0:
        raise FracDomainError(
            f"nonlinear oscillator needs order in (1,2), got {order.alpha}"
        )
    if g == 0.0:
        raise FracDomainError("g must be nonzero")
    if form == "reduced":
        return _NonlinearReducedRHS(g, K, order.alpha)
    if form == "pre":
        return _NonlinearPreRHS(g, K, order.alpha)
    raise FracDomainError(f"form must be 'reduced' or 'pre', got {form}")


# ---------------------------------------------------------------------------
# Hamilton form

class _HamiltonRHS(RHS):
    """Callable (t, q, p, history) -> (qdot, pdot).  df_dqdot = A does not
    depend on qdot, so it is called with p; the fractional integrand
    mu * df_ddq is kept in the history."""

    def __init__(self, sys: SystemSpec) -> None:
        c = sys.constraint
        if c is None:
            raise FracDomainError("hamilton_rhs needs a constraint")
        c.order.require_fractional()
        self.sys = sys
        self.alpha = c.order.alpha
        self.last_residual = float("nan")
        q0, p0 = sys.q_init, sys.qdot_init
        zeros = np.zeros(sys.n)
        a0 = np.asarray(c.df_dqdot(q0, p0, zeros), dtype=float)
        if not np.dot(a0, a0) > 0.0:
            raise SingularConstraintError("A vanishes at the initial state")
        # spot checks of the form at q0: no term free of qdot, and f = A.p
        # (equal values pass also when A.p overflows)
        free = max(abs(c.value(q0, zeros, e)) for e in np.eye(sys.n))
        f0, ap0 = c.value(q0, p0, zeros), float(np.dot(a0, p0))
        if not free <= _INIT_TOL or not (f0 == ap0 or abs(f0 - ap0) <= _INIT_TOL):
            raise FracDomainError("hamilton_rhs needs a constraint f = A(q, D^alpha q).qdot")

    def __call__(self, t, q, p, hist):
        c = self.sys.constraint
        dq = hist.caputo_q(self.alpha)
        a = np.asarray(c.df_dqdot(q, p, dq), dtype=float)
        a2 = float(np.dot(a, a))
        if not _CHETAEV_TOL < a2 < math.inf:
            raise SingularConstraintError("A^2 vanished or is not finite along the trajectory")
        mu = float(np.dot(a, p) / a2)
        qdot = p - mu * a
        self.last_multiplier = mu
        self.last_residual = float(np.dot(a, qdot))

        fq = np.asarray(c.df_dq(q, qdot, dq), dtype=float)
        pdot = -np.asarray(self.sys.grad_potential(q), dtype=float) + mu * fq

        hist.store(mu * np.asarray(c.df_ddq(q, qdot, dq), dtype=float))
        if hist.count >= 2 and hist.aux_nonzero:
            pdot += hist.caputo_aux(self.alpha)
        return qdot, pdot

    def residual_last(self, hist) -> float:
        return self.last_residual


def hamilton_rhs(sys: SystemSpec):
    """Hamilton-form equations with multiplier mu = A.p / A^2.

    The constraint must be f = A(q, D^alpha q).qdot: its ``df_dqdot`` is A,
    and ``df_dq`` and ``df_ddq`` are (dA/dq)^T qdot and (dA/dD^alpha q)^T
    qdot.  ``sys.qdot_init`` holds p(0).  Raises ``FracDomainError`` for a
    constraint not of that form and ``SingularConstraintError`` when A
    vanishes at the initial state."""
    return _HamiltonRHS(sys)


# ---------------------------------------------------------------------------
# variational diagnostic (post-hoc)

def variational_residual(traj, mu: SampleSeries, sys: SystemSpec):
    """Residual of the variational (conditional-extremum) equations along a
    completed trajectory, one series per coordinate.

    The d'Alembert trajectory generally does not satisfy these equations;
    the residual quantifies by how much.  Endpoints carry one-sided
    differences and are reported as-is.
    """
    grid = traj.grid
    if mu.grid != grid:
        raise GridMismatchError("multiplier series must share the trajectory grid")
    q = np.asarray(traj.q, dtype=float)
    qdot = np.asarray(traj.qdot, dtype=float)
    if q.shape[0] != grid.n_nodes:
        raise GridMismatchError("trajectory length does not match its grid")
    c = sys.constraint
    h = grid.h
    n = sys.n
    nn = grid.n_nodes
    alpha = c.order.alpha if c is not None else None

    grad = np.array([sys.grad_potential(q[i]) for i in range(nn)])
    qddot = np.gradient(qdot, h, axis=0)
    res = -grad - qddot

    if c is None:
        series = []
        for k in range(n):
            series.append(SampleSeries(grid, res[:, k]))
        return series

    dql = np.column_stack(
        [l1_caputo_series(q[:, k], h, alpha) for k in range(n)]
    )
    mu_v = mu.values
    fq = np.array([c.df_dq(q[i], qdot[i], dql[i]) for i in range(nn)])
    fqd = np.array([c.df_dqdot(q[i], qdot[i], dql[i]) for i in range(nn)])
    fd = np.array([c.df_ddq(q[i], qdot[i], dql[i]) for i in range(nn)])

    res += mu_v[:, None] * fq
    res -= np.gradient(mu_v[:, None] * fqd, h, axis=0)
    for k in range(n):
        arg = mu_v * fd[:, k]
        if np.any(arg):
            res[:, k] += l1_caputo_series(arg, h, alpha)
    return [SampleSeries(grid, res[:, k]) for k in range(n)]

