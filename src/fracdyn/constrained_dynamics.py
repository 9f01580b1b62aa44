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
exact integral over each step is handed to the solver, once per run,
instead of being sampled.  A direct path (backward difference of the D^alpha q
history) is kept for cross-checks.

The variational residual's fractional term is the right derivative
D^alpha_(T-) (mu df/dD^alpha q) (Agrawal, J. Math. Anal. Appl. 272, 2002).
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
from .fode_solver import RHS, _quiet, _sampled
from .frac_ops import riemann_liouville_right
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
    """q^(m)(0) for the shift term of either form, a one-sided estimate.

    m = 1 needs the initial velocity (known).  m = 2 uses the equation of
    motion at t = 0 with the fractional terms dropped (they vanish at 0+
    for smooth motion): the constrained Newtonian acceleration
    -grad u + g (g.grad u - df/dq.qdot0)/|g|^2, g = df/dqdot at (q0, qdot0, 0).
    """
    c, q0, v0 = sys.constraint, sys.q_init, sys.qdot_init
    if c.order.m == 1:
        return v0.copy()
    zeros = np.zeros(sys.n)
    g = np.asarray(c.df_dqdot(q0, v0, zeros), dtype=float)
    fq = np.asarray(c.df_dq(q0, v0, zeros), dtype=float)
    grad = np.asarray(sys.grad_potential(q0), dtype=float)
    num = np.dot(g, grad) - np.dot(fq, v0)
    return -(grad - g * num / float(np.dot(g, g)))


class _LagrangeRHS(RHS):
    """What both Lagrange forms build once from the system: the checked
    order and initial residual, q^(m)(0), and the startup power's
    exponent p = m - alpha with Gamma(p + 1).  D^1 D^alpha q carries the
    startup term t^(p-1)/Gamma(p) q^(m)(0), which is not summable
    pointwise near t = 0; ``_startup_avg`` is its power's exact average
    over a step."""

    def __init__(self, sys: SystemSpec) -> None:
        order = sys.constraint.order
        order.require_fractional()
        _check_initial_residual(sys)
        self.sys = sys
        self.alpha = order.alpha
        self.qm0 = _derive_qm0(sys)
        self._pow = order.m - self.alpha
        self._gamma = math.gamma(self._pow + 1.0)

    def _startup_avg(self, t: float, h: float) -> float:
        """((t + h)^p - t^p)/(h Gamma(p + 1)), the average of
        t^(p-1)/Gamma(p) over [t, t + h]."""
        p = self._pow
        return ((t + h) ** p - t**p) / (h * self._gamma)


class _LinearRHS(_LagrangeRHS):
    """The projector form from two scalars, ag = a.grad u and
    bd = b.D^1 D^alpha q: qddot = (a/a^2)(ag - bd) - grad u and
    lambda = (ag - bd - avg b.q^(m)(0))/a^2, avg being the startup power's
    average over the step in prop1 mode (zero in direct mode).  In prop1
    mode bd is b.D^alpha qdot, which the history sums from one projected
    series, b times the velocity differences, not n columns; direct mode
    and the residual keep the n columns of D^alpha q."""

    def __init__(self, sys: SystemSpec, mode: str) -> None:
        if mode not in ("prop1", "direct"):
            raise FracDomainError(f"mode must be 'prop1' or 'direct', got {mode}")
        c = sys.constraint
        if c is None or c.a is None:
            raise FracDomainError("rhs_linear needs a linear constraint")
        super().__init__(sys)
        self.mode = mode
        self.a = c.a
        self.b = c.b
        # b as a tuple of floats, which keys the history's lane of b . qdot
        self._b = tuple(self.b.tolist())
        self.a2 = float(np.dot(self.a, self.a))
        self._a_unit = self.a / self.a2  # a/|a|^2
        bqm0 = float(np.dot(self.b, self.qm0))
        self._shift_amp = -bqm0 / self._gamma * self._a_unit
        # b.q^(m)(0) of the multiplier's averaged startup term
        self._bqm0 = bqm0 if mode == "prop1" else 0.0
        self._has_shift = bool(np.any(self._shift_amp))

    def __call__(self, t, q, qdot, hist):
        if self.mode == "prop1":
            # b . D^alpha qdot, the one scalar of the memory that reaches
            # the dynamics, from one projected series
            bd = hist.caputo_qdot_along(self.alpha, self._b)
        else:
            # backward difference against D^alpha q stored at the node before
            dq_now = hist.caputo_q(self.alpha)
            hist.store(dq_now)
            if hist.count < 2:
                d1d = np.zeros_like(dq_now)
            else:
                d1d = (dq_now - hist.aux_view[-2]) / hist.h
            bd = float(self.b.dot(d1d))
        grad = np.asarray(self.sys.grad_potential(q), dtype=float)
        # ndarray.dot skips the dispatch of np.dot and of the @ ufunc
        num = float(self.a.dot(grad)) - bd
        lam = num
        if self._bqm0:
            # report the step-effective multiplier: the singular startup term
            # is averaged over [t, t+h], matching the exact velocity increment
            lam -= self._startup_avg(t, hist.h) * self._bqm0
        return self._a_unit * num - grad, lam / self.a2

    def singular_increments(self, t: np.ndarray) -> Optional[np.ndarray]:
        if self.mode != "prop1" or not self._has_shift:
            return None
        p = self._pow
        # Python's scalar pow, node by node: numpy's vector pow may round
        # differently
        tp = np.array([x**p for x in t.tolist()])
        return np.diff(tp)[:, None] * self._shift_amp

    def residual(self, hist, multiplier) -> np.ndarray:
        if self.mode == "direct":
            # the steps stored D^alpha q at every node but, under velocity
            # Verlet, the last
            hist.store(hist.caputo_q(self.alpha))
            dq = hist.aux_view
        else:
            dq = hist.caputo_q_series(self.alpha)
        return hist.qdot_view @ self.a + dq @ self.b


class _GeneralRHS(_LagrangeRHS):
    """The multiplier-eliminated form: D^1 D^alpha q is D^alpha qdot plus
    the startup term's average over the step [t, t + h], added to the
    acceleration at node t.  Velocity Verlet spends each node's
    acceleration on two half-steps, which would put the startup impulse
    off by h^p/(2 Gamma(p + 1)) q^(m)(0), so only semi-implicit Euler
    steps this form."""

    schemes = ("semi-implicit-euler",)

    def __init__(self, sys: SystemSpec) -> None:
        if sys.constraint is None:
            raise FracDomainError("rhs_general needs a constraint")
        super().__init__(sys)
        self._has_qm0 = bool(np.any(self.qm0))

    def __call__(self, t, q, qdot, hist):
        dq = hist.caputo_q(self.alpha)
        hist.store(dq)
        d1d = hist.caputo_qdot(self.alpha)
        if self._has_qm0:
            d1d = d1d + self._startup_avg(t, hist.h) * self.qm0
        grad = np.asarray(self.sys.grad_potential(q), dtype=float)
        lam, g = _multiplier(self.sys.constraint, q, qdot, dq, d1d, grad)
        return -grad + g * lam, lam

    def residual(self, hist, multiplier) -> np.ndarray:
        # the steps stored D^alpha q at every counted node
        value = self.sys.constraint.value
        return np.array([value(*row) for row in zip(hist.q_view, hist.qdot_view, hist.aux_view)])


def rhs_linear(sys: SystemSpec, mode: str = "prop1"):
    """Closed-form right-hand side for the linear constraint.

    ``mode='prop1'`` (default) uses the derivative-shift identity;
    ``mode='direct'`` backward-differences the D^alpha q history and exists
    for cross-validation.  Initial data off the constraint raise
    ``ConstraintViolationError``.
    """
    with _quiet():
        return _LinearRHS(sys, mode)


def rhs_general(sys: SystemSpec):
    """Multiplier-eliminated right-hand side for a general constraint.

    It steps by semi-implicit Euler only: its startup term is a step
    average, which velocity Verlet would count twice over half-steps.
    Initial data off the constraint raise ``ConstraintViolationError``.
    """
    with _quiet():
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
    semi-implicit-euler step turns into exactly that update.  So only that
    scheme steps this form: under velocity Verlet the implicit panel is
    lost and the run diverges.  K(x_j) is evaluated once per node and kept
    in the history.  A step asks the history two next-node queries, each
    one Python float: D^alpha x on the prefix extended by 0, and
    J^(2-alpha) K extended by the K value just stored; the rest of the
    step is arithmetic on Python floats, the newest panel's weight
    h^(-alpha)/Gamma(3 - alpha) included.
    """

    schemes = ("semi-implicit-euler",)

    def __init__(self, g: float, K: Callable[[float], float], alpha: float) -> None:
        self.g = g
        self.K = K
        self.alpha = alpha
        self._gamma = math.gamma(3.0 - alpha)

    def __call__(self, t, q, qdot, hist):
        # Python floats: one-element numpy arithmetic costs ten times more
        x = float(q[0])
        k = self.K(x)
        hist.store(k)
        if hist.count < 3:
            # fractional terms vanish at 0+ along smooth motion
            return np.array([-k]), math.nan
        h = hist.h
        # F at the next node with x_{i+1} split out (taken as 0 in the L1
        # sum); K is lagged one sample
        dx = hist.caputo_q_along(self.alpha, (1.0,), (0.0,))
        f_known = dx + hist.integral_aux_along(2.0 - self.alpha, (1.0,), (k,))
        v0 = float(hist._qd[0, 0])
        x_next = (x + h * (v0 - self.g * f_known)) / (
            1.0 + h * self.g * (h ** (-self.alpha) / self._gamma)
        )
        return np.array([((x_next - x) / h - float(qdot[0])) / h]), math.nan


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

    def __call__(self, t, q, qdot, hist):
        d = hist.caputo_q(3.0 - self.alpha)
        return np.array([-d[0] / self.g - self.K(float(q[0]))]), math.nan


def rhs_nonlinear_frac_oscillator(
    g: float, K: Callable[[float], float], order: FracOrder, form: str = "reduced"
):
    """One-dimensional oscillator with power-law damping, 1 < alpha < 2.

    ``form='reduced'`` integrates xddot = -(1/g) D^(3-alpha) x - K(x);
    ``form='pre'`` integrates the pre-reduction double-derivative form for
    cross-validation; it steps by semi-implicit Euler only.  In the
    alpha -> 2 limit the reduced form becomes the classically damped
    oscillator xddot = -(1/g) xdot - K(x).
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
    """Callable (t, q, p, history) -> ((qdot, pdot), mu).  df_dqdot = A
    does not depend on qdot, so it is called with p; A does not depend on
    D^alpha q either, so every callable gets dq = 0.  The form carries no
    fractional memory, and a step asks the history nothing.  The
    constraint's kind picks the step once, here.  A linear constraint
    steps with its constant A = a and |a|^2, bound here.  Any other
    constraint evaluates A(q) and stores it for the residual.  The
    constraint's order is never read.  The steps are explicit Euler,
    which a config names as semi-implicit-euler."""

    schemes = ("semi-implicit-euler",)

    def __init__(self, sys: SystemSpec) -> None:
        c = sys.constraint
        if c is None:
            raise FracDomainError("hamilton_rhs needs a constraint")
        self.sys = sys
        q0, p0 = sys.q_init, sys.qdot_init
        zeros = np.zeros(sys.n)
        a0 = np.asarray(c.df_dqdot(q0, p0, zeros), dtype=float)
        a2 = float(np.dot(a0, a0))
        # the step's own test, at the initial state
        if not _CHETAEV_TOL < a2 < math.inf:
            raise SingularConstraintError("A^2 vanishes or is not finite at the initial state")
        # spot checks of the form at q0: no term free of qdot, f = A.p
        # (equal values pass also when A.p overflows), and df_ddq exactly
        # zero at each unit qdot (so a linear constraint's b is exactly 0)
        free = max(abs(c.value(q0, zeros, e)) for e in np.eye(sys.n))
        f0, ap0 = c.value(q0, p0, zeros), float(np.dot(a0, p0))
        if (
            not free <= _INIT_TOL
            or not (f0 == ap0 or abs(f0 - ap0) <= _INIT_TOL)
            or any(np.any(c.df_ddq(q0, e, zeros)) for e in np.eye(sys.n))
        ):
            raise FracDomainError("hamilton_rhs needs a constraint f = A(q).qdot")
        self._zeros = zeros
        self._a, self._a2 = (None, None) if c.a is None else (c.a, a2)

    def __call__(self, t, q, p, hist):
        if self._a is not None:
            a = self._a
            mu = float(np.dot(a, p) / self._a2)
            grad = np.asarray(self.sys.grad_potential(q), dtype=float)
            # the general step's -grad + mu * df_dq with df_dq = 0: mu * 0.0
            # - grad has the same signed zeros
            return (p - mu * a, mu * 0.0 - grad), mu
        c, zeros = self.sys.constraint, self._zeros
        a = np.asarray(c.df_dqdot(q, p, zeros), dtype=float)
        a2 = float(np.dot(a, a))
        if not _CHETAEV_TOL < a2 < math.inf:
            raise SingularConstraintError("A^2 vanished or is not finite along the trajectory")
        mu = float(np.dot(a, p) / a2)
        qdot = p - mu * a
        hist.store(a)
        fq = np.asarray(c.df_dq(q, qdot, zeros), dtype=float)
        return (qdot, -np.asarray(self.sys.grad_potential(q), dtype=float) + mu * fq), mu

    def residual(self, hist, multiplier) -> np.ndarray:
        """A.qdot with qdot = p - mu A at every node, A being the constant
        a or the one each step stored."""
        p = hist.qdot_view
        if self._a is not None:
            # the constant A = a: one product over every node
            return (p - multiplier[:, None] * self._a) @ self._a
        A = hist.aux_view
        return np.einsum("ij,ij->i", A, p - multiplier[:, None] * A)


def hamilton_rhs(sys: SystemSpec):
    """Hamilton-form equations with multiplier mu = A.p / A^2.

    The constraint must be f = A(q).qdot: ``df_dqdot`` is A, ``df_dq`` is
    (dA/dq)^T qdot and ``df_ddq`` is zero.  The form carries no fractional
    memory; the variational one is right-sided (``variational_residual``),
    which a causal step cannot evaluate.  So it reads no order: an integer
    ``order`` is accepted too.  ``sys.qdot_init`` holds p(0), and
    ``integrate_hamilton`` steps it with a semi-implicit-euler config only.
    Raises ``FracDomainError`` for a constraint not of that form, by spot
    checks at q0 (a linear one needs b exactly zero), and
    ``SingularConstraintError`` unless 1e-12 < |A(q0)|^2 < inf, the test
    every step applies, checked here."""
    with _quiet():
        return _HamiltonRHS(sys)


# ---------------------------------------------------------------------------
# variational diagnostic (post-hoc)

def variational_residual(traj, mu: SampleSeries, sys: SystemSpec):
    """Residual of the variational (conditional-extremum) equations along a
    completed trajectory, one series per coordinate:
    -grad u - qddot + mu df/dq - d/dt(mu df/dqdot) + D^alpha_(T-)(mu df/dD).

    The d'Alembert trajectory generally does not satisfy these equations;
    the residual quantifies by how much.  Endpoints carry one-sided
    differences and are reported as-is, but the last node is NaN where the
    right Riemann-Liouville term is live: it is singular there.
    """
    grid = traj.grid
    if mu.grid != grid:
        raise GridMismatchError("multiplier series must share the trajectory grid")
    q = np.asarray(traj.q, dtype=float)
    qdot = np.asarray(traj.qdot, dtype=float)
    if q.shape[0] != grid.n_nodes:
        raise GridMismatchError("trajectory length does not match its grid")
    c = sys.constraint
    grad = np.array([sys.grad_potential(x) for x in q])
    res = -grad - np.gradient(qdot, grid.h, axis=0)

    if c is None:
        return [SampleSeries(grid, col) for col in res.T]

    rows = list(zip(q, qdot, _sampled(grid, q).caputo_q_series(c.order.alpha)))
    fq, fqd, fd = (np.array([df(*row) for row in rows]) for df in (c.df_dq, c.df_dqdot, c.df_ddq))
    mu_v = mu.values
    res += mu_v[:, None] * fq
    res -= np.gradient(mu_v[:, None] * fqd, grid.h, axis=0)
    for k, col in enumerate(fd.T):
        arg = mu_v * col
        if np.any(arg):
            res[:, k] += riemann_liouville_right(SampleSeries(grid, arg), c.order).values
    return [SampleSeries(grid, col) for col in res.T]
