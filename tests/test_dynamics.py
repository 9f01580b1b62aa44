"""Constraint mechanics: multiplier algebra, projector, Hamilton form."""

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
    FracDomainError,
    IntegerOrderError,
    SingularConstraintError,
)
from fracdyn.fode_solver import IntegratorConfig, integrate_hamilton, integrate_second_order
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
@pytest.mark.parametrize("build", [rhs_linear, rhs_general, hamilton_rhs])
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
        never by the residual."""
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

        monkeypatch.setattr(cls, "__call__", logged("__call__"))
        monkeypatch.setattr(cls, "residual_last", logged("residual_last"))
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        res = integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)
        assert res.grid.n_nodes == 201
        assert events == ["__call__", "grad", "residual_last"] * 201


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
    def test_same_trajectory_and_multiplier(self):
        a, b = [1.0, 2.0], [0.5, -0.3]
        lin = quad_sys(a, b, [1.0, 0.5], [2.0, -1.0])
        gen_c = ConstraintSpec(
            FracOrder(0.5),
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


def hamilton_sys(A, q0, p0, df_ddq=None):
    """A system whose constraint is f = A(q, D^alpha q).qdot; ``df_ddq``
    defaults to zero and p0 is the initial momentum."""
    n = len(q0)
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(np.dot(A(q, dl), qd)),
            df_dq=lambda q, qd, dl: np.zeros(n),
            df_dqdot=lambda q, qd, dl: A(q, dl),
            df_ddq=df_ddq or (lambda q, qd, dl: np.zeros(n)),
        ),
        q_init=q0,
        qdot_init=p0,
    )


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

    def test_vanishing_A_rejected(self):
        with pytest.raises(SingularConstraintError):
            hamilton_rhs(hamilton_sys(lambda q, d: np.zeros(1), [0.0], [1.0]))

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
            # f = A.qdot + 1: df_dqdot is A, but f(q0, p0, 0) is not A.p0
            ConstraintSpec(
                FracOrder(0.5),
                f=lambda q, qd, dl: float(qd[0] + 2.0 * qd[1] + 1.0),
                df_dq=lambda q, qd, dl: np.zeros(2),
                df_dqdot=lambda q, qd, dl: np.array([1.0, 2.0]),
                df_ddq=lambda q, qd, dl: np.zeros(2),
            ),
        ],
        ids=["b-nonzero", "offset"],
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
    """Per-run memory lives in the stepper's History, so one right-hand-side
    object run twice gives the same arrays both times."""

    def _hamilton(self):
        dA_dD = np.array([[0.3, 0.0], [0.0, -0.2]])
        sys = hamilton_sys(
            lambda q, d: np.array([1.0 + 0.3 * d[0], 0.5 - 0.2 * d[1]]),
            [1.0, 0.0],
            [0.0, 1.0],
            df_ddq=lambda q, qd, d: dA_dD.T @ qd,
        )
        rr = hamilton_rhs(sys)
        return lambda cfg: integrate_hamilton(rr, (sys.q_init, sys.qdot_init), cfg)

    def _direct(self):
        sys = quad_sys([1.0, 2.0], [0.5, -0.3], [1.0, 0.5], [2.0, -1.0])
        rr = rhs_linear(sys, mode="direct")
        return lambda cfg: integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)

    def _pre(self):
        rr = rhs_nonlinear_frac_oscillator(1.0, lambda x: x**3, FracOrder(1.5), form="pre")
        return lambda cfg: integrate_second_order(rr, ([1.0], [0.0]), cfg)

    @pytest.mark.parametrize("case", ["direct", "hamilton", "pre"])
    def test_second_run_matches_first(self, case):
        run = getattr(self, "_" + case)()
        cfg = IntegratorConfig(h=0.01, t_end=1.0)
        first, second = run(cfg), run(cfg)
        for name in ("q", "qdot", "multiplier", "residual"):
            a, b = getattr(first, name), getattr(second, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.array_equal(a, b, equal_nan=True), name
