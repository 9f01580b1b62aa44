"""Operator-level checks: quadrature power rules, reflection, shift identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracdyn.errors import (
    FracDomainError,
    IntegerOrderError,
    SingularPointError,
    UnsupportedOrderError,
)
from fracdyn.frac_ops import (
    caputo_left,
    caputo_left_history,
    caputo_right,
    commutation_defect,
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

    def test_history_wrapper(self):
        g = Grid(0.0, 1.0, 50)
        s = SampleSeries(g, g.nodes() ** 2)
        v = caputo_left_history(s, FracOrder(0.5))
        assert v == pytest.approx(l1_caputo_series(s.values, g.h, 0.5)[-1])

    def test_order_two_and_above_rejected(self):
        g = Grid(0.0, 1.0, 50)
        s = SampleSeries(g, g.nodes() ** 2)
        with pytest.raises(UnsupportedOrderError):
            caputo_left_history(s, FracOrder(2.5))


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


class TestCommutationDefect:
    def test_analytic_value_and_numerical_verify(self):
        g = Grid(0.0, 2.0, 1024)
        t = g.nodes()
        f = SampleSeries(g, 1.0 + t**2)
        out = commutation_defect(f, 0.5, f_at_a=1.0, verify=True)
        ref = t[1:] ** (-0.5) / gamma(0.5)
        assert np.allclose(out.values[1:], ref)

    def test_zero_at_zero_initial_value(self):
        g = Grid(0.0, 1.0, 256)
        f = SampleSeries(g, g.nodes() ** 2)
        out = commutation_defect(f, 0.3, f_at_a=0.0, verify=True)
        assert np.all(out.values[1:] == 0.0)


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
