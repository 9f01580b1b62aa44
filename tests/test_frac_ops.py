"""Operator-level checks: quadrature power rules, reflection, shift identity,
and exactness on polynomials over random grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from fracdyn.errors import (
    FracDomainError,
    IntegerOrderError,
    SingularPointError,
    UnsupportedOrderError,
)
from fracdyn.fode_solver import History
from fracdyn.frac_ops import (
    caputo_left,
    caputo_right,
    fractional_integral,
    fractional_integral_last,
    fractional_integral_values,
    l1_caputo_last,
    l1_caputo_series,
    prop1_shift,
    riemann_liouville_left,
    riemann_liouville_right,
)
from fracdyn.series import FracOrder, Grid, SampleSeries


def power_rule(p, alpha, t):
    return gamma(p + 1.0) / gamma(p + 1.0 - alpha) * t ** (p - alpha)


class TestFractionalIntegral:
    def test_power_rule_value(self):
        g = Grid(0.0, 1.0, 1024)
        t = g.nodes()
        out = fractional_integral(SampleSeries(g, t**2), 0.5)
        ref = gamma(3.0) / gamma(3.5) * t**2.5
        assert np.max(np.abs(out.values - ref)) < 5e-7

    def test_second_order_convergence(self):
        errs = []
        for n in (256, 512, 1024):
            g = Grid(0.0, 1.0, n)
            t = g.nodes()
            out = fractional_integral_values(t**2, 0.5, g.h)
            errs.append(np.max(np.abs(out - gamma(3.0) / gamma(3.5) * t**2.5)))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 < order < 2.2
        assert 1.8 < math.log2(errs[1] / errs[2]) < 2.2

    def test_last_node_matches_full(self):
        g = Grid(0.0, 2.0, 333)
        vals = np.cos(g.nodes())
        full = fractional_integral_values(vals, 0.7, g.h)
        assert fractional_integral_last(vals, 0.7, g.h) == pytest.approx(
            full[-1], abs=1e-14
        )

    def test_eps_domain(self):
        with pytest.raises(FracDomainError):
            fractional_integral_values(np.ones(5), 1.5, 0.1)


class TestCaputoLeft:
    def test_power_rule(self):
        g = Grid(0.0, 1.0, 1024)
        t = g.nodes()
        fm = SampleSeries(g, 3.0 * t**2)  # samples of (t^3)'
        out = caputo_left(fm, FracOrder(0.5))
        assert np.max(np.abs(out.values - power_rule(3.0, 0.5, t))) < 2e-6

    def test_integer_order_rejected(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(IntegerOrderError):
            caputo_left(SampleSeries(g, g.nodes()), FracOrder(1.0))


class TestCaputoRight:
    def test_against_direct_quadrature(self):
        # D_b^0.5 t^3 = -J_b^0.5 (3 s^2) evaluated by adaptive quadrature
        g = Grid(0.0, 1.0, 2048)
        t = g.nodes()
        out = caputo_right(SampleSeries(g, 3.0 * t**2), FracOrder(0.5)).values
        for tv in (0.25, 0.5, 0.75):
            ref = -quad(
                lambda s: (s - tv) ** (-0.5) * 3.0 * s**2 / gamma(0.5), tv, 1.0
            )[0]
            k = round(tv / g.h)
            assert out[k] == pytest.approx(ref, abs=5e-5)


class TestL1Scheme:
    def test_power_rule_low_order(self):
        g = Grid(0.0, 1.0, 2048)
        t = g.nodes()
        num = l1_caputo_series(t**2, g.h, 0.5)
        assert np.max(np.abs(num - power_rule(2.0, 0.5, t))) < 1e-4

    def test_exact_for_quadratic_high_order(self):
        # piecewise-linear interpolation of the second difference is exact
        g = Grid(0.0, 1.0, 64)
        t = g.nodes()
        num = l1_caputo_series(t**2, g.h, 1.5)
        assert np.max(np.abs(num - power_rule(2.0, 1.5, t))) < 1e-12

    def test_last_matches_series(self):
        g = Grid(0.0, 1.0, 100)
        q = np.sin(g.nodes())
        for alpha in (0.3, 1.5):
            series = l1_caputo_series(q, g.h, alpha)
            assert l1_caputo_last(q, g.h, alpha) == pytest.approx(
                series[-1], rel=1e-12
            )

    def test_order_two_and_above_rejected(self):
        g = Grid(0.0, 1.0, 50)
        with pytest.raises(UnsupportedOrderError):
            l1_caputo_last(g.nodes() ** 2, g.h, 2.5)


class TestRiemannLiouville:
    def test_initial_value_offset_from_caputo(self):
        # RL - Caputo = sum f^(k)(0) t^(k-alpha)/Gamma(k+1-alpha)
        g = Grid(0.0, 1.0, 2048)
        t = g.nodes()
        f = SampleSeries(g, 1.0 + t)
        rl = riemann_liouville_left(f, FracOrder(0.5)).values
        expected = t[1:] ** (-0.5) / gamma(0.5) + t[1:] ** 0.5 / gamma(1.5)
        interior = slice(20, -2)
        assert np.max(np.abs(rl[1:][interior] - expected[interior])) < 2e-3
        assert np.isnan(rl[0])

    @pytest.mark.parametrize("alpha, p", [(0.5, 2.0), (1.5, 3.0)])
    def test_right_power_rule(self, alpha, p):
        # D_right^alpha (b - t)^p = Gamma(p+1)/Gamma(p+1-alpha) (b - t)^(p-alpha)
        b = 1.0
        errs = []
        for n in (256, 512, 1024):
            g = Grid(0.0, b, n)
            t = g.nodes()
            out = riemann_liouville_right(SampleSeries(g, (b - t) ** p), FracOrder(alpha)).values
            # the right endpoint is the singular slot
            assert np.isnan(out[-1]) and not np.isnan(out[:-1]).any()
            ref = gamma(p + 1.0) / gamma(p + 1.0 - alpha) * (b - t) ** (p - alpha)
            interior = (t > 0.05) & (t < 0.95)
            errs.append(np.max(np.abs(out[interior] - ref[interior])))
        assert errs[-1] < 1e-5
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9


class TestProp1Shift:
    def test_value(self):
        # order 0.5, m = 1: shift = f'(0) t^(-0.5)/Gamma(0.5)
        v = prop1_shift(FracOrder(0.5), 2.0, 1.0)
        assert v == pytest.approx(2.0 / math.sqrt(math.pi))

    def test_singular_at_origin(self):
        with pytest.raises(SingularPointError):
            prop1_shift(FracOrder(0.5), 1.0, 0.0)

    def test_zero_data_short_circuits(self):
        assert prop1_shift(FracOrder(0.5), 0.0, 0.0) == 0.0

    def test_identity_numerically(self):
        # d/dt D^0.5 f == D^1.5 f + shift for f = t + t^3 (f'(0) = 1)
        g = Grid(0.0, 1.5, 4096)
        t = g.nodes()
        f = t + t**3
        lhs = np.gradient(l1_caputo_series(f, g.h, 0.5), g.h)
        rhs = l1_caputo_series(f, g.h, 1.5) + np.array(
            [prop1_shift(FracOrder(0.5), 1.0, tv) if tv > 0 else 0.0 for tv in t]
        )
        k = round(1.0 / g.h)
        assert abs(lhs[k] - rhs[k]) < 1e-2


EPS = np.finfo(float).eps


def rounding_bound(c, p, panels, size, data):
    """|c| sum_k (k+1)^p (4 (panels + 4) eps size + data), c being the
    scheme's constant.  The L1 and trapezoid weights are differences of
    powers up to (k+1)^p, so their rounding scales with those powers rather
    than with the weights; ``size`` bounds the differences (or samples) the
    weights multiply, and ``data`` how far rounding of the samples moves
    each of them."""
    pows = np.arange(1.0, panels + 2.0) ** p
    return abs(c) * np.sum(pows) * (4.0 * (panels + 4) * EPS * size + data)


def random_case(nodes, seed):
    """A uniform grid on [0, T] with random T, three random coefficients,
    and the bound sum_j |c_j| T^j on each term's magnitude."""
    rng = np.random.default_rng(seed)
    g = Grid(0.0, float(rng.uniform(0.1, 10.0)), nodes - 1)
    c = rng.uniform(-10.0, 10.0, size=3)
    return g, g.nodes(), c, float(np.sum(np.abs(c) * g.t_end ** np.arange(3)))


def l1_exact_case(alpha, t, c, s):
    """Samples L1 reproduces at ``alpha`` (affine q below order 1, quadratic
    above), the exact D^alpha at every node, and the L1 constant, weight
    power, difference size and sample rounding of ``rounding_bound``."""
    h = t[1] - t[0]
    if alpha < 1.0:
        q = c[0] + c[1] * t
        exact = c[1] * t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        k = h ** (-alpha) / math.gamma(2.0 - alpha)
        return q, exact, (k, 1.0 - alpha, abs(c[1]) * h, 4.0 * EPS * s)
    q = c[0] + c[1] * t + c[2] * t**2
    exact = 2.0 * c[2] * t ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    k = h ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    return q, exact, (k, 2.0 - alpha, 2.0 * abs(c[2]), 16.0 * EPS * s / h**2)


ORDERS = st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99))
SEEDS = st.integers(0, 2**32 - 1)


class TestPolynomialExactness:
    """The piecewise-linear interpolants of L1 and of the product trapezoid
    reproduce these polynomials, so only rounding separates the schemes
    from the closed forms."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(nodes=st.integers(3, 48), alpha=ORDERS, seed=SEEDS)
    def test_l1_series(self, nodes, alpha, seed):
        g, t, c, s = random_case(nodes, seed)
        q, exact, (k, p, size, data) = l1_exact_case(alpha, t, c, s)
        got = l1_caputo_series(q, g.h, alpha)
        for i in range(1, nodes):
            assert abs(got[i] - exact[i]) <= rounding_bound(k, p, i, size, data)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(nodes=st.integers(3, 48), alpha=ORDERS, seed=SEEDS)
    def test_history_caputo_q(self, nodes, alpha, seed):
        # from three nodes on: the first panel's second difference needs them
        g, t, c, s = random_case(nodes, seed)
        q, exact, (k, p, size, data) = l1_exact_case(alpha, t, c, s)
        hist = History(g, 1)
        for i in range(nodes):
            hist.append(q[i : i + 1], np.zeros(1))
            if i >= 2:
                got = hist.caputo_q(alpha)[0]
                assert abs(got - exact[i]) <= rounding_bound(k, p, i, size, data)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(nodes=st.integers(2, 48), eps=st.floats(0.01, 1.0), seed=SEEDS)
    def test_fractional_integral_affine(self, nodes, eps, seed):
        g, t, c, s = random_case(nodes, seed)
        f = c[0] + c[1] * t
        exact = (
            c[0] * t**eps / math.gamma(eps + 1.0)
            + c[1] * t ** (eps + 1.0) / math.gamma(eps + 2.0)
        )
        got = fractional_integral_values(f, eps, g.h)
        k = g.h**eps / math.gamma(eps + 2.0)
        for i in range(1, nodes):
            bound = rounding_bound(k, eps + 1.0, i, s, 4.0 * EPS * s)
            assert abs(got[i] - exact[i]) <= bound
