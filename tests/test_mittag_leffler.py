"""Mittag-Leffler evaluation against high-precision oracles."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx
from scipy.special import gamma as sgamma
from scipy.special import rgamma

from fracdyn import mittag_leffler
from fracdyn.errors import FracDomainError
from fracdyn.mittag_leffler import MLParams, ml, ml_decomp_f, ml_decomp_g, ml_grid


def ml_oracle(alpha, beta, z, dps=220):
    """Direct series summation in arbitrary precision (independent path).

    Working precision grows with |z|^(1/alpha): near-cancelling terms reach
    roughly exp(|z|^(1/alpha)) before the tail takes over.
    """
    x_peak = abs(z) ** (1.0 / alpha)
    dps = max(dps, 60 + int(0.5 * x_peak))
    with mpmath.workdps(dps):
        am, bm, zm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        k = 0
        while True:
            term = zk / mpmath.gamma(am * k + bm)
            total += term
            k += 1
            zk *= zm
            if alpha * k > x_peak and abs(term) < mpmath.mpf(10) ** (-30) * max(
                1, abs(total)
            ):
                return float(total)


def ml_talbot(alpha, beta, z, dps=40):
    """Talbot inversion of the Laplace transform s^(alpha-beta) / (s^alpha - z)
    at t = 1 in 40-digit arithmetic, independent of ``ml``'s contour and
    float arithmetic.  Cheap where the series needs ~1 000 digits."""
    with mpmath.workdps(dps):
        am, bm, zm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return float(
            mpmath.invertlaplace(lambda s: s ** (am - bm) / (s**am - zm), 1, method="talbot")
        )


def series_overflows(alpha, beta, z):
    """True when one term z^k / Gamma(alpha k + beta) of the series for
    z > 0 already exceeds the float range.  Every term is then positive,
    so the sum overflows too.  The term tested sits near the peak, where
    alpha k + beta ~ z^(1/alpha)."""
    if z <= 0.0:
        return False
    k = max(0, round((z ** (1.0 / alpha) - beta) / alpha))
    log_term = k * mpmath.log(z) - mpmath.loggamma(mpmath.mpf(alpha) * k + beta)
    return log_term > math.log(sys.float_info.max)


def contour_sums_per_node(tb, s, kern):
    """Reference for ``mittag_leffler._contour_sums``: the loop it replaced,
    one row of exp(s t) per node, in products of _BLOCK rows."""
    block = mittag_leffler._BLOCK
    rows = [np.exp(np.outer(tb[i : i + block], s)) @ kern for i in range(0, len(tb), block)]
    return np.concatenate(rows).imag


def ml_grid_per_node(alpha, betas, lam, t):
    """``ml_grid`` with every band summed by ``contour_sums_per_node``."""
    shared = mittag_leffler._contour_sums
    mittag_leffler._contour_sums = contour_sums_per_node
    try:
        return ml_grid(alpha, betas, lam, t)
    finally:
        mittag_leffler._contour_sums = shared


class TestIdentities:
    def test_exponential(self):
        for z in np.linspace(-5, 5, 21):
            assert abs(ml(MLParams(1.0, 1.0), z) - math.exp(z)) < 1e-10

    def test_cosine(self):
        for t in np.linspace(0, 10, 21):
            assert abs(ml(MLParams(2.0, 1.0), -t * t) - math.cos(t)) < 1e-10

    def test_expm1_over_z(self):
        for z in np.linspace(-5, 5, 21):
            if z == 0.0:
                continue
            assert abs(ml(MLParams(1.0, 2.0), z) - math.expm1(z) / z) < 1e-10

    def test_value_at_zero(self):
        assert ml(MLParams(0.7, 1.3), 0.0) == pytest.approx(1.0 / sgamma(1.3))


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "alpha,beta", [(0.3, 1.0), (0.8, 0.8), (1.5, 1.0), (1.5, 1.5), (2.7, 1.2)]
    )
    def test_200_digit_series(self, alpha, beta):
        # absolute tolerance where it is attainable; relative once the value
        # itself exceeds float absolute resolution (E can reach exp(z^(1/a)))
        for z in (-10.0, -5.0, -1.0, -0.1, 0.5, 3.0, 10.0):
            val = ml(MLParams(alpha, beta), z)
            if series_overflows(alpha, beta, z):
                assert math.isinf(val) and val > 0
                continue
            if z < 0.0 and abs(z) ** (1.0 / alpha) > 1000.0:
                # the series would cancel terms near exp(|z|^(1/alpha)) in
                # ~1 100 digits for minutes; the two oracles were checked
                # against each other at every point of this test
                ref = ml_talbot(alpha, beta, z)
            else:
                ref = ml_oracle(alpha, beta, z)
            if math.isinf(ref):
                # value overflows float range; both sides must agree on that
                assert math.isinf(val) and val > 0
            else:
                assert abs(val - ref) < 1e-10 + 1e-12 * abs(ref)

    def test_spec_point(self):
        assert abs(ml(MLParams(1.5, 1.0), -5.0) - ml_oracle(1.5, 1.0, -5.0)) < 1e-10

    def test_deep_negative_tail(self):
        # large |z| exercises the asymptotic branch
        for alpha in (1.25, 1.5, 1.75):
            for z in (-50.0, -200.0, -1000.0):
                ref = ml_oracle(alpha, 1.0, z, dps=400)
                assert abs(ml(MLParams(alpha, 1.0), z) - ref) < 1e-10 + 1e-8 * abs(ref)


class TestClosedForms:
    def test_erfcx(self):
        # E_{1/2}(z) = erfcx(-z); past z ~ 8.8 the value exceeds 1e33
        for z in np.arange(-500, 261) / 10.0:
            ref = erfcx(-z)
            assert abs(ml(MLParams(0.5, 1.0), z) - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("alpha,z", [(0.3, 4.0), (0.8, 40.0)])
    def test_large_finite_values(self, alpha, z):
        # ~4.41e44 and ~6.09e43: finite, though exp(z^(1/alpha)) is far out
        # of the range a plain float series can sum
        ref = ml_oracle(alpha, 1.0, z)
        assert abs(ml(MLParams(alpha, 1.0), z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("size", [1e160, 1e300])
    def test_root_past_the_float_range(self, alpha, size):
        """|z|^(1/alpha) overflows.  E_alpha(z) is +inf for z > 0; for
        z < 0 it is the asymptote 1/(|z| Gamma(beta - alpha)), the one
        term of -sum_k z^(-k)/Gamma(beta - alpha k) a float holds.  No
        numpy warning either way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ml(MLParams(alpha, 1.0), size) == math.inf
            neg = ml(MLParams(alpha, 1.0), -size)
            grid = ml_grid(alpha, (1.0, 2.0), size, [0.0, 1.0])
        assert neg == pytest.approx(1.0 / (size * math.gamma(1.0 - alpha)), rel=1e-14)
        assert grid[:, 0].tolist() == [1.0, 1.0]
        for k, beta in enumerate((1.0, 2.0)):
            ref = 1.0 / (size * math.gamma(beta - alpha))
            assert grid[k, 1] == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("alpha,beta,z", [(1.5, 6.0, -1e100), (1.5, 3.0, -1e240),
                                              (1.01, 3.0, -1e156)])
    def test_pole_residue_past_the_float_range(self, alpha, beta, z):
        """A pole right of the contour at |s| ~ |z|^(1/alpha): its residue
        e^s s^(1 - beta) underflows to 0, with no nan and no warning from
        s^(1 - beta); the value is the asymptote 1/(|z| Gamma(beta - alpha))."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = ml(MLParams(alpha, beta), z)
            grid = ml_grid(alpha, (beta,), -z, [1.0])[0, 0]
        assert val == pytest.approx(1.0 / (abs(z) * math.gamma(beta - alpha)), rel=1e-3)
        assert val == grid

    @pytest.mark.parametrize("beta,z", [(0.5, 18800.0), (3.0, 18950.0), (6.0, 18918.6),
                                        (6.0, 19500.0)])
    def test_pole_residue_at_the_float_range(self, beta, z):
        """alpha = 1.5, z > 0: the value is the residue e^s s^(1 - beta) / alpha
        of the pole s = z^(1/alpha) ~ 710, up to O(1/z).  It is +inf only
        where its exponent, moved by s^(1 - beta), passes the float range,
        and it is reached with no overflow warning."""
        log_res = z ** (1 / 1.5) + (1.0 - beta) / 1.5 * math.log(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = ml(MLParams(1.5, beta), z)
        if log_res > math.log(sys.float_info.max):
            assert val == math.inf
        else:
            assert val == pytest.approx(math.exp(log_res) / 1.5, rel=1e-12)

    def test_pole_residue_past_the_float_range_grid(self):
        t = np.linspace(0.0, 10.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ml_grid(1.5, (3.0,), 1e300, t)[0]
        ref = 1.0 / (1e300 * t[1:] ** 1.5 * math.gamma(1.5))
        assert out[0] == 0.5
        assert np.all(np.abs(out[1:] - ref) <= 1e-3 * ref)

    def test_pole_pair_overflow_sign(self):
        """alpha = 2.5, beta = 1: the pole pair right of the contour sums to
        2 e^(Re arg) cos(Im arg) / alpha, arg = s + (1 - beta) log s.  Past
        the float range the value is the infinity of that sign, which
        30-digit mpmath gives as -3.7e311, -2.1e329 and +6.1e340 at the last
        three z; the first is finite."""
        zs = (-2.4e8, -2.6e8, -3e8, -3.3e8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [ml(MLParams(2.5, 1.0), z) for z in zs]
            grid = [ml_grid(2.5, (1.0,), -z, [1.0])[0, 0] for z in zs]
        assert vals == [-6.231451250558387e301, -math.inf, -math.inf, math.inf]
        assert vals == grid

    def test_oscillator_grid_bound(self):
        # every 16th node of the golden oscillator-1d grid (h = 2^-9, t <= 3)
        for t in np.arange(0, 1537, 16) * 2.0**-9:
            for beta in (1.0, 1.5, 2.0):
                z = -(t**1.5)
                assert abs(ml(MLParams(1.5, beta), z) - ml_oracle(1.5, beta, z)) <= 1e-14


class TestCallContract:
    def test_array_matches_scalar_calls(self):
        z = np.linspace(-30.0, 12.0, 24).reshape(4, 6)
        out = ml(MLParams(0.7, 1.2), z)
        assert isinstance(out, np.ndarray) and out.shape == z.shape
        scalar = [ml(MLParams(0.7, 1.2), zi) for zi in z.ravel()]
        assert out.ravel().tobytes() == np.array(scalar).tobytes()

    def test_scalar_returns_float(self):
        for z in (-3.0, 0.0, 2.5, np.float64(-1.5), 4):
            assert type(ml(MLParams(1.5, 1.0), z)) is float

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(FracDomainError, match="finite"):
            ml(MLParams(0.5, 1.0), z)
        with pytest.raises(FracDomainError, match="finite"):
            ml(MLParams(0.5, 1.0), np.array([0.0, z]))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.3, 3.0),
        beta=st.floats(0.5, 2.0),
        z=st.floats(-50.0, 50.0),
    )
    def test_recurrence(self, alpha, beta, z):
        # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
        lhs = ml(MLParams(alpha, beta), z)
        rhs_ml = ml(MLParams(alpha, alpha + beta), z)
        assert not math.isnan(lhs) and not math.isnan(rhs_ml)
        if math.isfinite(lhs) and math.isfinite(rhs_ml):
            rhs = rgamma(beta) + z * rhs_ml
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestGrid:
    def test_oscillator_grid_bound(self):
        # every 17th node of the oracle-osc benchmark grid (h = 2^-9, t <= 10),
        # within the bound test_oscillator_grid_bound sets for point-wise ml;
        # 17 is coprime to the block size, so every row offset in a block
        # of shared exponentials is met
        t = np.arange(5121) * 2.0**-9
        betas = (1.0, 2.0, 1.5)
        out = ml_grid(1.5, betas, 1.0, t)
        for i in range(0, len(t), 17):
            for k, beta in enumerate(betas):
                assert abs(out[k, i] - ml_oracle(1.5, beta, -(t[i] ** 1.5))) <= 1e-14

    @pytest.mark.parametrize("t_end", [10.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.5, 1.9])
    def test_matches_pointwise(self, alpha, t_end):
        # 2e-13: at alpha = 0.9, beta = 2 both paths sit ~3e-13 from the
        # series near t = 0.02 and differ by up to 1e-13 (7.3e-14 on these
        # nodes); for the other alphas by at most 1.2e-14
        t = np.linspace(0.0, t_end, 401)
        betas = (1.0, 2.0, alpha)
        for lam in (0.5, 1.0, 2.25):
            out = ml_grid(alpha, betas, lam, t)
            for k, beta in enumerate(betas):
                ref = ml(MLParams(alpha, beta), -lam * t**alpha)
                assert np.max(np.abs(out[k] - ref)) <= 2e-13

    @pytest.mark.parametrize(
        "alpha,beta", [(0.3, 1.0), (0.5, 0.7), (0.9, 2.0), (1.5, 1.5), (1.9, 1.0), (2.5, 3.0)]
    )
    def test_one_evaluator(self, alpha, beta):
        # ml is the one-node band t = 1 with lam = -z: the same loop, the
        # same rounding
        for z in (-1e-6, -0.3, -1.0, -7.5, -50.0, -1e3):
            grid = ml_grid(alpha, (beta,), -z, [1.0])[0, 0]
            assert ml(MLParams(alpha, beta), z) == grid

    def test_zero_nodes_exact(self):
        betas = (1.0, 2.0, 1.5, 0.7)
        out = ml_grid(1.5, betas, 2.0, [0.0, 0.0, 0.5])
        for k, beta in enumerate(betas):
            assert out[k, 0] == out[k, 1] == 1.0 / math.gamma(beta)

    def test_overflow_is_inf(self):
        # alpha > 2: the pole pair right of the contour grows like e^(0.31 t)
        t = np.array([0.0, 100.0, 3000.0])
        out = ml_grid(2.5, (1.0,), 1.0, t)
        ref = ml(MLParams(2.5, 1.0), -(t**2.5))
        assert math.isinf(out[0, 2]) and math.isinf(ref[2])
        assert abs(out[0, 1] - ref[1]) <= 1e-13 * abs(ref[1])

    @pytest.mark.parametrize(
        "t,lam",
        [([0.0, 2.0, 1.0], 1.0), ([-1.0, 0.0, 1.0], 1.0), ([0.0, 1.0], 0.0),
         ([0.0, 1.0], -1.0), ([0.0, math.nan], 1.0), ([0.0, math.inf], 1.0)],
    )
    def test_domain(self, t, lam):
        with pytest.raises(FracDomainError):
            ml_grid(1.5, (1.0,), lam, t)

    @pytest.mark.parametrize("t", [[0.0, 0.5, 1.0], []])
    def test_no_betas(self, t):
        with pytest.raises(FracDomainError, match="betas"):
            ml_grid(1.5, (), 1.0, t)


class TestSharedExponentials:
    """Bands of equally spaced nodes share their exponentials: a sum of
    other rounding than the per-node loop, within 2e-14 max(1, |v|) of it.
    Other bands take that loop, with the same rounding."""

    @staticmethod
    def assert_within_bound(alpha, betas, lam, t):
        out, ref = ml_grid(alpha, betas, lam, t), ml_grid_per_node(alpha, betas, lam, t)
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(out))
        assert np.array_equal(out[~finite], ref[~finite])
        err = np.abs(out[finite] - ref[finite])
        assert np.all(err <= 2e-14 * np.maximum(1.0, np.abs(ref[finite])))

    @pytest.mark.parametrize(
        "t",
        [np.arange(5121) * 2.0**-9, np.arange(20481) * (10.0 / 20480), np.arange(10001) * 0.001],
        ids=["bench", "readme", "h0.001"],
    )
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.5, 1.9, 2.5])
    def test_long_grids(self, alpha, t):
        lams = (0.5, 1.0, 2.25) if alpha == 2.5 else (1.0,)
        for lam in lams:
            self.assert_within_bound(alpha, (1.0, 2.0, alpha), lam, t)

    @pytest.mark.parametrize("t_end", [10.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.5, 1.9])
    def test_matches_pointwise_grids(self, alpha, t_end):
        t = np.linspace(0.0, t_end, 401)
        for lam in (0.5, 1.0, 2.25):
            self.assert_within_bound(alpha, (1.0, 2.0, alpha), lam, t)

    def test_unequal_spacing_takes_the_per_node_loop(self):
        jitter = np.random.default_rng(5).uniform(-1e-7, 1e-7, 2001)
        for alpha, t in ((2.5, np.array([0.0, 100.0, 3000.0])),
                         (1.5, np.sort(np.linspace(0.0, 10.0, 2001) + jitter).clip(0.0))):
            out = ml_grid(alpha, (1.0, 2.0, alpha), 1.0, t)
            assert out.tobytes() == ml_grid_per_node(alpha, (1.0, 2.0, alpha), 1.0, t).tobytes()


class TestLargeBeta:
    @pytest.mark.parametrize("beta", [20.0, 50.0, 150.0, 172.0])
    def test_rejected_by_both_paths(self, beta):
        # at the parent E_{0.5,20}(0.1) came out 3.69e-8 against 8.4e-18,
        # beta = 150 raised OverflowError and beta = 172 ZeroDivisionError
        for z in (0.1, -0.1, 0.0):
            with pytest.raises(FracDomainError, match="beta"):
                ml(MLParams(0.5, beta), z)
        with pytest.raises(FracDomainError, match="beta"):
            ml_grid(0.5, (1.0, beta), 1.0, [0.0, 1.0])

    @pytest.mark.parametrize(
        "alpha,z", [(2.0001, 0.1), (2.05, 0.2), (0.45, 0.01), (1.0001, -0.01), (0.3, -5.0)]
    )
    def test_largest_beta_meets_tolerance(self, alpha, z):
        # the worst points of the beta sweep; beta = 8 misses 1e-10 at the first
        val = ml(MLParams(alpha, 6.0), z)
        assert abs(val - ml_oracle(alpha, 6.0, z)) <= 1e-10


class TestSwitchContinuity:
    def test_values_straddling_switch(self):
        for alpha, beta in ((0.6, 1.0), (1.5, 1.0)):
            for sign in (-1.0, 1.0):
                z0 = sign * (5.0 - 1e-11)
                z1 = sign * (5.0 + 1e-11)
                a = ml(MLParams(alpha, beta), z0)
                b = ml(MLParams(alpha, beta), z1)
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestGammaPlatform:
    def test_reference_table(self):
        # the library's Gamma (math.gamma) at 20 points on [0.1, 10] against
        # arbitrary-precision Gamma
        xs = np.linspace(0.1, 10.0, 20)
        with mpmath.workdps(60):
            refs = [float(mpmath.gamma(mpmath.mpf(float(x)))) for x in xs]
        for x, ref in zip(xs, refs):
            assert abs(math.gamma(x) - ref) <= 1e-14 * abs(ref)


class TestDecomposition:
    def test_sum_reproduces_ml(self):
        for alpha in (1.25, 1.5, 1.75):
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                lhs = ml(MLParams(alpha, 1.0), -(t**alpha))
                rhs = ml_decomp_f(alpha, 0, t) + ml_decomp_g(alpha, 0, t)
                assert abs(lhs - rhs) < 1e-6

    def test_f_asymptotic_amplitude(self):
        # f_{1.5,0}(t) ~ t^{-1.5}/Gamma(-0.5) for large t; |.| = t^{-1.5}/(2 sqrt(pi))
        ref = 100.0**-1.5 / (2.0 * math.sqrt(math.pi))
        val = ml_decomp_f(1.5, 0, 100.0)
        assert abs(abs(val) - ref) < 0.02 * ref
        assert val < 0.0  # 1/Gamma(-0.5) is negative

    def test_prefactor_vanishes_near_two(self):
        assert abs(ml_decomp_f(1.999, 0, 1.0)) < 1e-3

    def test_g_closed_form(self):
        alpha, t, k = 1.5, 2.0, 1
        r = t * math.cos(math.pi / alpha)
        expected = (
            (2.0 / alpha)
            * math.exp(r)
            * math.cos(t * math.sin(math.pi / alpha) - math.pi * k / alpha)
        )
        assert ml_decomp_g(alpha, k, t) == pytest.approx(expected)

    def test_oscillatory_part_bounded(self):
        for t in (0.5, 1.0, 5.0, 50.0):
            bound = (2.0 / 1.5) * math.exp(t * math.cos(math.pi / 1.5))
            assert abs(ml_decomp_g(1.5, 0, t)) <= bound * (1.0 + 1e-12)

    def test_domain(self):
        with pytest.raises(FracDomainError):
            ml_decomp_f(2.5, 0, 1.0)
        with pytest.raises(FracDomainError):
            ml_decomp_f(1.5, 0, -1.0)


class TestParams:
    def test_invalid(self):
        with pytest.raises(FracDomainError):
            MLParams(-1.0, 1.0)
        with pytest.raises(FracDomainError):
            MLParams(1.0, 0.0)
        with pytest.raises(FracDomainError):
            MLParams(1.0, 6.01)
