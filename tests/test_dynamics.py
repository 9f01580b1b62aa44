"""Constraint mechanics: multiplier algebra, projector, Hamilton form."""

import dataclasses
import math
import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from fracdyn.constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    lambda_general,
    rhs_general,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
    variational_residual,
)
from fracdyn.errors import (
    ConstraintViolationError,
    DivergenceError,
    FracDomainError,
    IntegerOrderError,
    SingularConstraintError,
)
from fracdyn.fode_solver import IntegratorConfig, integrate_hamilton, integrate_second_order
from fracdyn.frac_ops import _l1_scheme, _l1_weights, _second_differences, l1_caputo_last
from fracdyn.series import FracOrder, Grid, SampleSeries


def quad_sys(a, b, q0, qd0, alpha=0.5):
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec.linear(a, b, FracOrder(alpha)),
        q_init=q0,
        qdot_init=qd0,
    )


class TestConstraintSpec:
    def test_zero_a_rejected(self):
        with pytest.raises(SingularConstraintError):
            ConstraintSpec.linear([0.0, 0.0], [1.0, 0.0], FracOrder(0.5))

    @pytest.mark.parametrize("a", [[1e160, 0.5], [1e308, 2.0], [np.inf, 0.0]])
    def test_non_finite_a_squared_rejected(self, a):
        # a/|a|^2 would be 0 or NaN, and the run would ignore the constraint
        with pytest.raises(SingularConstraintError):
            ConstraintSpec.linear(a, [1.0, 0.0], FracOrder(0.5))

    def test_shape_mismatch(self):
        with pytest.raises(FracDomainError):
            ConstraintSpec.linear([1.0], [1.0, 2.0], FracOrder(0.5))

    def test_linear_value(self):
        c = ConstraintSpec.linear([1.0, 2.0], [0.5, -0.5], FracOrder(0.5))
        v = c.value(np.zeros(2), np.array([1.0, 1.0]), np.array([2.0, 0.0]))
        assert v == pytest.approx(1.0 + 2.0 + 1.0)


class TestSpecs:
    def test_n_is_the_state_length(self):
        assert quad_sys([1.0, 2.0, 0.0], [0.0] * 3, [0.0] * 3, [0.0] * 3).n == 3

    @pytest.mark.parametrize(
        "q0,qd0",
        [
            ([1, 0], [1.0]),
            ([[1.0, 0.0]], [[0.0, 1.0]]),
        ],
    )
    def test_system_shapes_checked(self, q0, qd0):
        with pytest.raises(FracDomainError):
            SystemSpec(
                grad_potential=lambda q: q,
                constraint=None,
                q_init=q0,
                qdot_init=qd0,
            )

    def test_rhs_linear_needs_constant_vectors(self):
        c = ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(qd[0]),
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: np.array([1.0, 0.0]),
            df_ddq=lambda q, qd, dl: np.zeros(2),
        )
        sys = SystemSpec(
            grad_potential=lambda q: q, constraint=c, q_init=[0.0, 0.0], qdot_init=[0.0, 1.0]
        )
        with pytest.raises(FracDomainError):
            rhs_linear(sys)
        # q^(m)(0) of the startup term is the initial velocity when m = 1
        assert rhs_general(sys).qm0[1] == 1.0


@pytest.mark.parametrize("alpha", [1.0, 1.0 + 1e-13, 1e-300])
@pytest.mark.parametrize("build", [rhs_linear, rhs_general])
def test_integer_order_rejected_when_built(build, alpha):
    """An order within 1e-12 of an integer has m - alpha <= 0, which the
    startup power t^(m-alpha) cannot take: refuse it before any step."""
    sys = quad_sys([1.0, 2.0], [0.0, 0.0], [1.0, 0.5], [2.0, -1.0], alpha=alpha)
    with pytest.raises(IntegerOrderError):
        build(sys)


class TestLinearRHS:
    @pytest.mark.parametrize("mode", ["prop1", "direct"])
    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    def test_gradient_once_per_call(self, mode, scheme, monkeypatch):
        """The potential gradient is taken once per right-hand-side call and
        never by the per-run methods."""
        events = []
        sys = SystemSpec(
            grad_potential=lambda q: events.append("grad") or q,
            constraint=ConstraintSpec.linear([1.0, 2.0], [0.5, -0.3], FracOrder(0.5)),
            q_init=[1.0, 0.5],
            qdot_init=[2.0, -1.0],
        )
        rr = rhs_linear(sys, mode=mode)
        cls = type(rr)

        def logged(name):
            fn = getattr(cls, name)

            def wrapped(self, *args):
                events.append(name)
                return fn(self, *args)
            return wrapped

        for name in ("__call__", "singular_increments", "residual"):
            monkeypatch.setattr(cls, name, logged(name))
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        res = integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)
        assert res.grid.n_nodes == 201
        assert events == ["singular_increments"] + ["__call__", "grad"] * 201 + ["residual"]


EPS = np.finfo(float).eps


def l1_reference(q, h, alpha):
    """D^alpha q at every node, one column per coordinate, by
    ``l1_caputo_last`` on each prefix, and the sums of the magnitudes of
    its terms."""
    order, p, hp, g = _l1_scheme(alpha, h)
    dq, mag = np.zeros_like(q), np.zeros_like(q)
    w = np.abs(_l1_weights(len(q) - 1, p) * hp / g)
    for k in range(q.shape[1]):
        dq[:, k] = [l1_caputo_last(q[: i + 1, k], h, alpha) for i in range(len(q))]
        d = np.diff(q[:, k]) if order == 1 else _second_differences(q[:, k], h)
        mag[1:, k] = np.convolve(np.abs(d), w)[: len(q) - 1]
    return dq, mag


def assert_linear_residual(res, a, b, alpha):
    """The residual column against a.qdot + b.D^alpha q recomputed by
    ``l1_reference``, within the worst-case rounding bound of a sum of
    i + n terms in any order, (i + 2n + 8) eps times the sum of the
    terms' magnitudes."""
    a, b = np.asarray(a), np.asarray(b)
    h, n = res.grid.h, len(a)
    dq, mag = l1_reference(res.q, h, alpha)
    want = res.qdot @ a + dq @ b
    size = np.abs(res.qdot) @ np.abs(a) + mag @ np.abs(b)
    tol = (np.arange(len(want)) + 2 * n + 8) * EPS * size
    assert res.residual.shape == want.shape
    assert np.all(np.abs(res.residual - want) <= tol)


class TestResidualColumn:
    """The residual each run reports after its last step, against an
    independent recomputation from the trajectory."""

    A, B = [1.0, 2.0], [0.5, -0.3]

    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    @pytest.mark.parametrize("mode", ["prop1", "direct"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_linear(self, scheme, mode, alpha):
        sys = quad_sys(self.A, self.B, [1.0, 0.5], [2.0, -1.0], alpha=alpha)
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        res = integrate_second_order(rhs_linear(sys, mode=mode), (sys.q_init, sys.qdot_init), cfg)
        assert_linear_residual(res, self.A, self.B, alpha)

    def test_general(self):
        a, b = np.array(self.A), np.array(self.B)
        c = ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(np.dot(a, qd) + np.dot(b, dl)),
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: a,
            df_ddq=lambda q, qd, dl: b,
        )
        sys = SystemSpec(lambda q: q, c, q_init=[1.0, 0.5], qdot_init=[2.0, -1.0])
        cfg = IntegratorConfig(h=0.005, t_end=1.0)
        res = integrate_second_order(rhs_general(sys), (sys.q_init, sys.qdot_init), cfg)
        assert_linear_residual(res, a, b, 0.5)

    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    def test_partial_result_of_a_diverging_run(self, scheme):
        # a repulsive potential: |q| grows like exp(100 t) and passes 1e12
        sys = SystemSpec(
            grad_potential=lambda q: -1e4 * q,
            constraint=ConstraintSpec.linear(self.A, self.B, FracOrder(0.5)),
            q_init=[1.0, 0.5],
            qdot_init=[2.0, -1.0],
        )
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        with pytest.raises(DivergenceError) as exc:
            integrate_second_order(rhs_linear(sys), (sys.q_init, sys.qdot_init), cfg)
        partial = exc.value.partial
        assert partial.diagnostics["truncated_at"] == len(partial.residual) > 2
        assert_linear_residual(partial, self.A, self.B, 0.5)


class TestLambda:
    def test_hand_evaluation_velocity_constraint(self):
        # f = qdot_1, u = q_1: lambda = 1 and the reaction cancels the force
        sys = SystemSpec(
            grad_potential=lambda q: np.array([1.0, 0.0]),
            constraint=ConstraintSpec.linear([1.0, 0.0], [0.0, 0.0], FracOrder(0.5)),
            q_init=[0.0, 0.0],
            qdot_init=[0.0, 1.0],
        )
        lam = lambda_general(sys, sys.q_init, sys.qdot_init)
        assert lam == pytest.approx(1.0)
        res = integrate_second_order(
            rhs_linear(sys),
            (sys.q_init, sys.qdot_init),
            IntegratorConfig(h=0.01, t_end=1.0),
        )
        assert np.max(np.abs(res.qdot[:, 0])) < 1e-13  # qddot_1 = -1 + lambda = 0
        assert np.max(np.abs(res.multiplier - 1.0)) < 1e-13

    def test_vanishing_gradient(self):
        c = ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: 0.0,
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: np.zeros(2),
            df_ddq=lambda q, qd, dl: np.zeros(2),
        )
        sys = SystemSpec(
            grad_potential=lambda q: np.zeros(2),
            constraint=c,
            q_init=[0.0, 0.0],
            qdot_init=[0.0, 0.0],
        )
        with pytest.raises(SingularConstraintError):
            lambda_general(sys, sys.q_init, sys.qdot_init)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_overflowing_gradient(self):
        # |df/dqdot|^2 = inf would give lambda = 0 without a word
        c = ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: 0.0,
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: np.array([1e160, 0.0]),
            df_ddq=lambda q, qd, dl: np.zeros(2),
        )
        sys = SystemSpec(lambda q: q, c, q_init=[1.0, 0.0], qdot_init=[0.0, 0.0])
        with pytest.raises(SingularConstraintError):
            lambda_general(sys, sys.q_init, sys.qdot_init)


class TestInitialData:
    def test_violation_raises(self):
        sys = quad_sys([1.0, 0.0], [0.0, 0.0], [0, 0], [1.0, 0.0])
        with pytest.raises(ConstraintViolationError):
            rhs_linear(sys)


class TestGeneralVsLinear:
    @pytest.mark.parametrize("alpha", [0.5, 1.3, 1.5])
    def test_same_trajectory_and_multiplier(self, alpha):
        """On a linear constraint the general form gives the projector
        form's run, for 1 < alpha < 2 too, where both take the startup
        term's q^(2)(0) from the constrained Newtonian acceleration."""
        a, b = [1.0, 2.0], [0.5, -0.3]
        lin = quad_sys(a, b, [1.0, 0.5], [2.0, -1.0], alpha=alpha)
        gen_c = ConstraintSpec(
            FracOrder(alpha),
            f=lambda q, qd, dl: float(np.dot(a, qd) + np.dot(b, dl)),
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: np.array(a),
            df_ddq=lambda q, qd, dl: np.array(b),
        )
        gen = SystemSpec(
            grad_potential=lin.grad_potential,
            constraint=gen_c,
            q_init=lin.q_init,
            qdot_init=lin.qdot_init,
        )
        cfg = IntegratorConfig(h=1 / 200, t_end=1.0)
        rl = integrate_second_order(rhs_linear(lin), (lin.q_init, lin.qdot_init), cfg)
        rg = integrate_second_order(rhs_general(gen), (gen.q_init, gen.qdot_init), cfg)
        assert np.max(np.abs(rl.q - rg.q)) < 1e-12
        assert np.nanmax(np.abs(rl.multiplier - rg.multiplier)) < 1e-12

    def test_constraint_gradients_once_per_call(self):
        # 201 nodes: 200 steps and the closing call, one RHS call each
        calls = {"df_dqdot": 0, "grad_potential": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        a, b = np.array([1.0, 2.0]), np.array([0.5, -0.3])
        c = ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(np.dot(a, qd) + np.dot(b, dl)),
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=counted("df_dqdot", lambda q, qd, dl: a),
            df_ddq=lambda q, qd, dl: b,
        )
        sys = SystemSpec(
            grad_potential=counted("grad_potential", lambda q: q),
            constraint=c,
            q_init=[1.0, 0.5],
            qdot_init=[2.0, -1.0],
        )
        res = integrate_second_order(
            rhs_general(sys), (sys.q_init, sys.qdot_init), IntegratorConfig(h=0.005, t_end=1.0)
        )
        assert res.grid.n_nodes == 201
        assert calls == {"df_dqdot": 201, "grad_potential": 201}


class TestShiftModes:
    def test_prop1_and_direct_converge_together(self):
        sys = quad_sys([1.0, 2.0], [0.5, -0.3], [1.0, 0.5], [2.0, -1.0])
        diffs = []
        for h in (1 / 200, 1 / 400, 1 / 800):
            cfg = IntegratorConfig(h=h, t_end=1.0)
            rp = integrate_second_order(
                rhs_linear(sys, mode="prop1"), (sys.q_init, sys.qdot_init), cfg
            )
            rd = integrate_second_order(
                rhs_linear(sys, mode="direct"), (sys.q_init, sys.qdot_init), cfg
            )
            diffs.append(np.max(np.abs(rp.q - rd.q)))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_bad_mode(self):
        sys = quad_sys([1.0], [1.0], [1.0], [-1.0])
        with pytest.raises(FracDomainError):
            rhs_linear(sys, mode="implicit")


class TestNonlinearOscillator:
    def test_order_domain(self):
        with pytest.raises(FracDomainError):
            rhs_nonlinear_frac_oscillator(1.0, lambda x: x, FracOrder(0.5))
        with pytest.raises(FracDomainError):
            rhs_nonlinear_frac_oscillator(0.0, lambda x: x, FracOrder(1.5))
        with pytest.raises(FracDomainError):
            rhs_nonlinear_frac_oscillator(1.0, lambda x: x, FracOrder(1.5), form="weak")

    def test_classical_limit(self):
        # alpha -> 2: xddot = -(1/g) xdot - K(x), a damped oscillator
        rr = rhs_nonlinear_frac_oscillator(2.0, lambda x: x, FracOrder(1.995), form="reduced")
        cfg = IntegratorConfig(h=1 / 800, t_end=5.0)
        res = integrate_second_order(rr, ([1.0], [0.0]), cfg)

        from scipy.integrate import solve_ivp

        ref = solve_ivp(
            lambda t, y: [y[1], -0.5 * y[1] - y[0]],
            (0, 5),
            [1.0, 0.0],
            t_eval=res.grid.nodes(),
            rtol=1e-10,
            atol=1e-12,
        )
        assert np.max(np.abs(res.q[:, 0] - ref.y[0])) < 0.02


def hamilton_sys(A, q0, p0, df_dq=None):
    """A system whose constraint is f = A(q, D^alpha q).qdot with
    ``df_ddq`` zero; ``df_dq`` defaults to zero and p0 is the initial
    momentum."""
    n = len(q0)
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(np.dot(A(q, dl), qd)),
            df_dq=df_dq or (lambda q, qd, dl: np.zeros(n)),
            df_dqdot=lambda q, qd, dl: A(q, dl),
            df_ddq=lambda q, qd, dl: np.zeros(n),
        ),
        q_init=q0,
        qdot_init=p0,
    )


DA_DQ = np.array([[0.0, 0.1], [0.0, 0.0]])


def aq_sys(A=None):
    """The A(q) system, A = (1 + 0.1 q_2, 0.5) with df_dq = (dA/dq)^T qdot,
    grad u = q, q0 = (1, 0) and p0 = (0, 1); ``A`` replaces the callable
    that gives A."""

    def A_of_q(q, d):
        return np.array([1.0 + 0.1 * q[1], 0.5])

    return hamilton_sys(A or A_of_q, [1.0, 0.0], [0.0, 1.0], df_dq=lambda q, qd, d: DA_DQ.T @ qd)


class TestHamilton:
    def test_multiplier_and_velocity(self):
        sys = SystemSpec(
            grad_potential=lambda q: np.zeros(2),
            constraint=ConstraintSpec.linear([1.0, 2.0], [0.0, 0.0], FracOrder(0.5)),
            q_init=[0.0, 0.0],
            qdot_init=[1.0, 1.0],
        )
        res = integrate_hamilton(
            hamilton_rhs(sys), (sys.q_init, sys.qdot_init), IntegratorConfig(h=0.01, t_end=0.5)
        )
        # mu = A.p/A^2 = 3/5; A.qdot = 0 along the whole run
        assert res.multiplier[0] == pytest.approx(0.6)
        assert np.max(np.abs(res.residual)) < 1e-12

    def test_constant_A_reads_no_history(self):
        """With a linear constraint A is the constant a and b = 0, so no
        step asks the history anything and the order changes nothing."""
        runs = []
        for alpha in (0.3, 0.7):
            sys = quad_sys([1.0, 0.5], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], alpha=alpha)
            cfg = IntegratorConfig(h=0.001, t_end=2.0)
            res = integrate_hamilton(hamilton_rhs(sys), (sys.q_init, sys.qdot_init), cfg)
            assert res.diagnostics["history_terms"] == 0
            runs.append([res.q, res.qdot, res.multiplier, res.residual])
        for x, y in zip(*runs):
            assert x.tobytes() == y.tobytes()

    def test_constant_A_bound_at_build(self):
        """A linear constraint's A and |A|^2 are bound when the right-hand
        side is built, so its steps call none of the constraint's
        callables; they give the bytes of the same constraint without
        ``a`` and ``b``, which takes the general path.  With grad u = 0
        and p = -0.0 in one entry at t = 0, the general path's
        -grad + mu * 0 makes that momentum +0.0 at the next node."""
        linear = ConstraintSpec.linear([1.0, 0.5], [0.0, 0.0], FracOrder(0.5))
        calls = []

        def counted(name):
            fn = getattr(linear, name)
            return lambda *args: calls.append(name) or fn(*args)

        names = ("f", "df_dq", "df_dqdot", "df_ddq")
        runs = []
        for c in (
            dataclasses.replace(linear, **{k: counted(k) for k in names}),
            dataclasses.replace(linear, a=None, b=None),
        ):
            sys = SystemSpec(lambda q: q, c, [0.0, 1.0], [-0.0, 1.0])
            rr = hamilton_rhs(sys)
            built = len(calls)
            cfg = IntegratorConfig(h=0.01, t_end=1.0)
            res = integrate_hamilton(rr, (sys.q_init, sys.qdot_init), cfg)
            assert len(calls) == built
            runs.append([res.q, res.qdot, res.multiplier, res.residual])
        assert math.copysign(1.0, runs[0][1][1, 0]) == 1.0
        for x, y in zip(*runs):
            assert x.tobytes() == y.tobytes()

    def test_residual_from_p_and_mu(self):
        """The residual column is A.(p - mu A) with A from the run's q,
        recomputed here.  Both are rounding noise of size
        eps |A| (|p| + |mu| |A|), and a change of A by a few ulps moves
        them by that much."""
        sys = aq_sys()
        A = sys.constraint.df_dqdot
        cfg = IntegratorConfig(h=0.005, t_end=1.0)
        res = integrate_hamilton(hamilton_rhs(sys), (sys.q_init, sys.qdot_init), cfg)
        assert res.diagnostics["history_terms"] == 0
        for i in range(res.grid.n_nodes):
            a = A(res.q[i], None, None)
            mu = res.multiplier[i]
            want = a @ (res.qdot[i] - mu * a)
            size = np.linalg.norm(a) * (np.linalg.norm(res.qdot[i]) + abs(mu) * np.linalg.norm(a))
            assert abs(res.residual[i] - want) <= 16 * EPS * size

    def test_A_once_per_node(self):
        """A non-constant A is taken once per node of the run, by the step
        there; the residual reads the A each step stored."""
        calls = []

        def A(q, d):
            calls.append(1)
            return np.array([1.0 + 0.1 * q[1], 0.5])

        sys = aq_sys(A)
        rr = hamilton_rhs(sys)
        built = len(calls)
        res = integrate_hamilton(rr, (sys.q_init, sys.qdot_init), IntegratorConfig(h=0.005, t_end=1.0))
        assert res.grid.n_nodes == 201
        assert len(calls) - built == 201

    def test_vanishing_A_rejected(self):
        """|A(q0)|^2 must pass the test each step applies, 1e-12 < |A|^2 <
        inf, when the right-hand side is built."""
        linear_tiny = ConstraintSpec.linear([1e-7, 0.0], [0.0, 0.0], FracOrder(0.5))
        for sys in (
            hamilton_sys(lambda q, d: np.zeros(1), [0.0], [1.0]),
            # finite and nonzero, but |A|^2 = 1e-14 fails every step's test
            SystemSpec(lambda q: q, linear_tiny, [1.0, 0.0], [0.0, 1.0]),
            # a general constraint with |A(q0)|^2 = 1e-13
            hamilton_sys(lambda q, d: np.array([math.sqrt(1e-13), 0.0]), [1.0, 0.0], [1.0, 0.0]),
        ):
            with pytest.raises(SingularConstraintError):
                hamilton_rhs(sys)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_A_squared_overflow_along_the_trajectory(self):
        # A = (1, 1e160 q_2): finite A^2 = 1 at q_2 = 0, inf once q_2 moves,
        # where mu = A.p/A^2 would be 0 without a word
        sys = hamilton_sys(lambda q, d: np.array([1.0, 1e160 * q[1]]), [1.0, 0.0], [0.0, 1.0])
        rr = hamilton_rhs(sys)
        with pytest.raises(SingularConstraintError):
            integrate_hamilton(rr, (sys.q_init, sys.qdot_init), IntegratorConfig(h=0.1, t_end=1.0))

    @pytest.mark.parametrize(
        "constraint",
        [
            # a D^alpha q term free of qdot
            ConstraintSpec.linear([1.0, 2.0], [0.5, 0.0], FracOrder(0.5)),
            # a b below the spot checks' tolerance is still not zero
            ConstraintSpec.linear([1.0, 2.0], [1e-11, 0.0], FracOrder(0.5)),
            # f = A.qdot + 1: df_dqdot is A, but f(q0, p0, 0) is not A.p0
            ConstraintSpec(
                FracOrder(0.5),
                f=lambda q, qd, dl: float(qd[0] + 2.0 * qd[1] + 1.0),
                df_dq=lambda q, qd, dl: np.zeros(2),
                df_dqdot=lambda q, qd, dl: np.array([1.0, 2.0]),
                df_ddq=lambda q, qd, dl: np.zeros(2),
            ),
            # A = (1 + 0.3 D^alpha q_1, 0.5): a fractional memory term,
            # which the Hamilton form does not carry
            ConstraintSpec(
                FracOrder(0.5),
                f=lambda q, qd, dl: float(qd[0] + 0.3 * dl[0] * qd[0] + 0.5 * qd[1]),
                df_dq=lambda q, qd, dl: np.zeros(2),
                df_dqdot=lambda q, qd, dl: np.array([1.0 + 0.3 * dl[0], 0.5]),
                df_ddq=lambda q, qd, dl: np.array([0.3 * qd[0], 0.0]),
            ),
        ],
        ids=["b-nonzero", "b-tiny", "offset", "dA_dD"],
    )
    def test_constraint_not_A_qdot_rejected(self, constraint):
        sys = SystemSpec(lambda q: q, constraint, q_init=[1.0, 0.0], qdot_init=[0.0, 1.0])
        with pytest.raises(FracDomainError):
            hamilton_rhs(sys)


class TestVariationalResidual:
    def test_classical_oracle(self):
        # known trajectory, constant constraint gradient, mu = t^2:
        # residual_1 = -d/dt(mu) = -2t, residual_2 = -qddot_2 = sin t
        g = Grid(0.0, 2.0, 400)
        t = g.nodes()
        sys = SystemSpec(
            grad_potential=lambda q: np.zeros(2),
            constraint=ConstraintSpec.linear([1.0, 0.0], [0.0, 0.0], FracOrder(0.5)),
            q_init=[0.0, 0.0],
            qdot_init=[0.0, 1.0],
        )

        class Traj:
            grid = g
            q = np.column_stack([np.zeros_like(t), np.sin(t)])
            qdot = np.column_stack([np.zeros_like(t), np.cos(t)])

        res = variational_residual(Traj(), SampleSeries(g, t**2), sys)
        assert np.max(np.abs(res[0].values[1:-1] + 2 * t[1:-1])) < 1e-10
        assert np.max(np.abs(res[1].values[1:-1] - np.sin(t[1:-1]))) < 1e-4

    def test_right_sided_closed_form(self):
        """b != 0: with U = 0, a = (1, 0), b = (0, 1), alpha = 0.5 and
        mu = (T - t)^2, q_1 = (T - t)^3/3 and q_2 = 2 (T - t)^(4-alpha) /
        Gamma(5 - alpha) solve the equations exactly, since
        D^alpha_(T-) (T - t)^2 = Gamma(3)/Gamma(3 - alpha) (T - t)^(2-alpha)
        = q_2''.  The interior residual in q_2 converges at order >= 1 (a
        left derivative of mu leaves it near 5.6); the last node, where the
        right derivative is singular, is NaN."""
        T, alpha = 2.0, 0.5
        sys = SystemSpec(
            grad_potential=lambda q: np.zeros(2),
            constraint=ConstraintSpec.linear([1.0, 0.0], [0.0, 1.0], FracOrder(alpha)),
            q_init=[0.0, 0.0],
            qdot_init=[0.0, 0.0],
        )
        c = 2.0 / math.gamma(5.0 - alpha)
        errs = []
        for steps in (400, 1600):
            g = Grid(0.0, T, steps)
            s = T - g.nodes()

            class Traj:
                grid = g
                q = np.column_stack([s**3 / 3.0, c * s ** (4.0 - alpha)])
                qdot = np.column_stack([-(s**2), -c * (4.0 - alpha) * s ** (3.0 - alpha)])

            res = variational_residual(Traj(), SampleSeries(g, s**2), sys)
            assert np.isnan(res[1].values[-1]) and not np.isnan(res[1].values[:-1]).any()
            assert np.max(np.abs(res[0].values)) < 1e-12
            errs.append(np.max(np.abs(res[1].values[1:-1])))
        assert errs[0] < 1e-4
        assert math.log(errs[0] / errs[1]) / math.log(4.0) >= 1.0

    def test_grid_mismatch(self):
        from fracdyn.errors import GridMismatchError

        g = Grid(0.0, 1.0, 10)
        sys = quad_sys([1.0], [0.0], [0.0], [0.0])

        class Traj:
            grid = g
            q = np.zeros((11, 1))
            qdot = np.zeros((11, 1))

        with pytest.raises(GridMismatchError):
            variational_residual(Traj(), SampleSeries(Grid(0.0, 1.0, 20), np.zeros(21)), sys)


class TestReuse:
    """Per-run memory lives in the stepper's History and no run writes to
    the right-hand side, so one object run twice gives the same arrays
    both times."""

    @staticmethod
    def _build(case):
        """(right-hand side, stepper, initial state) of ``case``."""
        lin = quad_sys([1.0, 2.0], [0.5, -0.3], [1.0, 0.5], [2.0, -1.0])
        if case in ("prop1", "direct"):
            return rhs_linear(lin, mode=case), integrate_second_order, (lin.q_init, lin.qdot_init)
        if case == "general":
            a, b = lin.constraint.a, lin.constraint.b
            c = ConstraintSpec(
                FracOrder(0.5),
                f=lambda q, qd, dl: float(np.dot(a, qd) + np.dot(b, dl)),
                df_dq=lambda q, qd, dl: np.zeros(2),
                df_dqdot=lambda q, qd, dl: a,
                df_ddq=lambda q, qd, dl: b,
            )
            sys = dataclasses.replace(lin, constraint=c)
            return rhs_general(sys), integrate_second_order, (sys.q_init, sys.qdot_init)
        if case in ("reduced", "pre"):
            rr = rhs_nonlinear_frac_oscillator(1.0, lambda x: x**3, FracOrder(1.5), form=case)
            return rr, integrate_second_order, ([1.0], [0.0])
        if case == "hamilton":
            sys = aq_sys()
        else:  # "hamilton-constant": a linear constraint, A = a
            sys = quad_sys([1.0, 0.5], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        return hamilton_rhs(sys), integrate_hamilton, (sys.q_init, sys.qdot_init)

    def _runner(self, case):
        rr, step, init = self._build(case)
        return lambda cfg: step(rr, init, cfg)

    @staticmethod
    def _same(first, second):
        for name in ("q", "qdot", "multiplier", "residual"):
            a, b = getattr(first, name), getattr(second, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.array_equal(a, b, equal_nan=True), name

    @pytest.mark.parametrize(
        "case", ["direct", "hamilton", "pre", "general", "hamilton-constant"]
    )
    def test_second_run_matches_first(self, case):
        run = self._runner(case)
        cfg = IntegratorConfig(h=0.01, t_end=1.0)
        self._same(run(cfg), run(cfg))

    @pytest.mark.parametrize(
        "case",
        ["direct", "hamilton", "pre", "reduced", "prop1", "general", "hamilton-constant"],
    )
    def test_run_at_another_step_matches_fresh_object(self, case):
        """What an object computes from the step size (the pre form's
        h^(-alpha)/Gamma(3 - alpha), say) follows h from run to run."""
        run = self._runner(case)
        run(IntegratorConfig(h=0.01, t_end=1.0))
        cfg = IntegratorConfig(h=0.005, t_end=1.0)
        self._same(run(cfg), self._runner(case)(cfg))

    @pytest.mark.parametrize(
        "case,scheme",
        [
            ("prop1", "semi-implicit-euler"),
            ("prop1", "velocity-verlet"),
            ("direct", "semi-implicit-euler"),
            ("direct", "velocity-verlet"),
            ("general", "semi-implicit-euler"),
            ("hamilton", "semi-implicit-euler"),
            ("hamilton-constant", "semi-implicit-euler"),
            ("reduced", "semi-implicit-euler"),
            ("pre", "semi-implicit-euler"),
        ],
    )
    def test_runs_write_nothing_to_the_object(self, case, scheme):
        """A run's whole state is its History: after two runs the object
        binds the same names to the same objects as when it was built,
        and its arrays hold the same values."""
        rr, step, init = self._build(case)
        built = dict(vars(rr))
        arrays = {k: v.copy() for k, v in built.items() if isinstance(v, np.ndarray)}
        cfg = IntegratorConfig(h=0.01, t_end=1.0, scheme=scheme)
        for _ in range(2):
            step(rr, init, cfg)
        assert vars(rr).keys() == built.keys()
        for name, value in built.items():
            assert vars(rr)[name] is value, name
        for name, value in arrays.items():
            assert np.array_equal(vars(rr)[name], value), name


    def test_concurrent_runs_share_one_object(self):
        """Two threads step one object at once, with a short switch
        interval: each run records its own multipliers, those of a run
        alone."""
        rr, step, init = self._build("prop1")
        cfg = IntegratorConfig(h=0.0005, t_end=1.0)
        alone = step(rr, init, cfg)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(step(rr, init, cfg)))
            for _ in range(2)
        ]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and len(results) == 2
        for res in results:
            self._same(res, alone)


class Forwarding:
    """Forwards every attribute to a right-hand side, as a tracing proxy
    does: the steppers must read ``schemes`` through it."""

    def __init__(self, target):
        self._target = target

    def __call__(self, *args):
        return self._target(*args)

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestSchemes:
    """A right-hand side names the schemes that may step it, and a stepper
    refuses any other before it calls the right-hand side once."""

    VV = IntegratorConfig(h=0.01, t_end=1.0, scheme="velocity-verlet")

    @staticmethod
    def counted(fn, calls):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    @pytest.mark.parametrize("proxy", [False, True])
    def test_pre_form_refuses_velocity_verlet(self, proxy):
        # velocity Verlet loses the implicit newest panel: with K(x) = x the
        # run diverged after 54 steps at h = 1/200
        calls = []
        rr = rhs_nonlinear_frac_oscillator(
            1.0, self.counted(lambda x: x, calls), FracOrder(1.5), form="pre"
        )
        assert rr.schemes == ("semi-implicit-euler",)
        with pytest.raises(FracDomainError, match="semi-implicit-euler"):
            integrate_second_order(Forwarding(rr) if proxy else rr, ([1.0], [0.0]), self.VV)
        assert calls == []

    def test_general_refuses_velocity_verlet(self):
        # the startup term is a step average: velocity Verlet would spend it
        # on two half-steps (max |q - q_linear| 1.8e-2 at h = 1/200)
        calls = []
        a, b = np.array([1.0, 2.0]), np.array([0.5, -0.3])
        c = ConstraintSpec(
            FracOrder(1.5),
            f=lambda q, qd, dl: float(np.dot(a, qd) + np.dot(b, dl)),
            df_dq=lambda q, qd, dl: np.zeros(2),
            df_dqdot=lambda q, qd, dl: a,
            df_ddq=lambda q, qd, dl: b,
        )
        sys = SystemSpec(self.counted(lambda q: q, calls), c, [1.0, 0.5], [2.0, -1.0])
        rr = rhs_general(sys)
        assert rr.schemes == ("semi-implicit-euler",)
        calls.clear()  # q^(2)(0) takes one gradient when the form is built
        with pytest.raises(FracDomainError):
            integrate_second_order(Forwarding(rr), (sys.q_init, sys.qdot_init), self.VV)
        assert calls == []

    def test_hamilton_refuses_velocity_verlet(self, monkeypatch):
        sys = aq_sys()
        rr = hamilton_rhs(sys)
        monkeypatch.setattr(type(rr), "__call__", lambda *args: pytest.fail("stepped"))
        with pytest.raises(FracDomainError):
            integrate_hamilton(rr, (sys.q_init, sys.qdot_init), self.VV)

    @pytest.mark.parametrize("form", ["prop1", "direct", "reduced"])
    def test_other_forms_run_under_velocity_verlet(self, form):
        if form == "reduced":
            rr = rhs_nonlinear_frac_oscillator(1.0, lambda x: x, FracOrder(1.5))
            init = ([1.0], [0.0])
        else:
            sys = quad_sys([1.0, 2.0], [0.5, -0.3], [1.0, 0.5], [2.0, -1.0])
            rr, init = rhs_linear(sys, mode=form), (sys.q_init, sys.qdot_init)
        res = integrate_second_order(rr, init, self.VV)
        assert res.diagnostics["scheme"] == "velocity-verlet"
        assert res.grid.n_nodes == 101 and np.isfinite(res.q).all()

    def test_hamilton_reads_no_order(self):
        """The Hamilton form carries no memory, so an integer order, which
        the Lagrange forms refuse, gives the same run as alpha = 0.5."""
        cfg = IntegratorConfig(h=0.01, t_end=1.0)
        runs = []
        for alpha in (0.5, 1.0):
            sys = quad_sys([1.0, 0.5], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], alpha=alpha)
            runs.append(integrate_hamilton(hamilton_rhs(sys), (sys.q_init, sys.qdot_init), cfg))
        TestReuse._same(*runs)
