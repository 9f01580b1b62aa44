"""Closed-form fractional oscillator solutions vs independent integrators."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

import fracdyn.mittag_leffler
from fracdyn.errors import FracDomainError
from fracdyn.fode_solver import IntegratorConfig, integrate_fractional_abm
from fracdyn.mittag_leffler import MLParams, ml
from fracdyn.oscillator_exact import (
    OscillatorSpec,
    decomposed_solution,
    exact_solution,
    forcing,
)
from fracdyn.series import Grid


def laplace_series(spec, ts):
    """q at each t of ``ts`` from the transform of D^b q + w2 q = Q,
    (s^(b-1) q0 + s^(b-2) qp0 + C2/s + C1/s^2 + amp/s^(e+1)) / (s^b + w2),
    expanded in powers of w2 s^-b and inverted term by term, s^-g to
    t^(g-1)/Gamma(g), in 50-digit arithmetic.  It shares no step with the
    closed form's particular solution or with ``ml_grid``."""
    with mpmath.workdps(50):
        b, w2 = mpmath.mpf(spec.alpha) - 1, mpmath.mpf(spec.omega2)
        if spec.power_amp is None:
            amp, e = spec.q0, spec.m - mpmath.mpf(spec.alpha) + 1
        else:
            amp, e = spec.power_amp, spec.m - mpmath.mpf(spec.alpha)
        # (coefficient, power of t beyond t^(b k)) of each term
        terms = [(mpmath.mpf(c), p) for c, p in
                 ((spec.q0, 0), (spec.qp0, 1), (spec.C2, b), (spec.C1, b + 1), (amp, b + e)) if c]
        rg = []  # rg[k][j] = 1 / Gamma(b k + p_j + 1)
        out = []
        for tv in ts:
            t = mpmath.mpf(tv)
            z = -w2 * t**b
            scaled = [c * t**p for c, p in terms]
            total, k = mpmath.mpf(0), 0
            while True:
                if k == len(rg):
                    rg.append([mpmath.rgamma(b * k + p + 1) for _, p in terms])
                term = z**k * mpmath.fsum(x * r for x, r in zip(scaled, rg[k]))
                total += term
                if k > 10 and abs(term) < mpmath.mpf(10) ** -40:
                    break
                k += 1
            out.append(float(total))
    return np.array(out)


class TestForcing:
    def test_default_literature_form(self):
        spec = OscillatorSpec(alpha=2.5, omega2=1.0, q0=2.0, qp0=0.0)
        # amp = q0, exponent m - alpha + 1 = 1.5, normalized by Gamma(2.5)
        t = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(forcing(spec, t), 2.0 * t**1.5 / gamma(2.5))

    def test_from_initial_data_constants(self):
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=4.0, q0=0.5, qp0=0.3)
        assert spec.C1 == pytest.approx(4.0 * 0.3)
        assert spec.C2 == pytest.approx(4.0 * 0.5)
        assert spec.power_amp == 0.0
        t = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(forcing(spec, t), 4.0 * (0.3 * t + 0.5))

    def test_negative_time_rejected(self):
        spec = OscillatorSpec(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
        with pytest.raises(FracDomainError):
            forcing(spec, -1.0)


class TestExactSolution:
    def test_rest_data_is_stationary(self):
        # constraint-consistent rest data: the forcing exactly balances the
        # restoring term and q stays at q0
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
        g = Grid(0.0, 10.0, 2048)
        q = exact_solution(spec, g)
        assert np.max(np.abs(q.values - 1.0)) < 1e-14

    @pytest.mark.parametrize("alpha", [2.05, 2.5, 2.95])
    @pytest.mark.parametrize("omega2", [1.0, 4.0, 1e4, 1e8, 1e150, 1e300])
    def test_initial_data_give_a_straight_line(self, alpha, omega2):
        # C1 = w2 qp0 and C2 = w2 q0 make (C2 + C1 t) / w2 the whole
        # solution, however stiff w2 is
        g = Grid(0.0, 10.0, 2048)
        t = g.nodes()
        for q0, qp0 in ((1.0, 0.0), (-0.7, 0.3), (2.5, -1.25)):
            spec = OscillatorSpec.from_initial_data(alpha=alpha, omega2=omega2, q0=q0, qp0=qp0)
            q = exact_solution(spec, g).values
            line = q0 + qp0 * t
            assert np.all(np.abs(q - line) <= 1e-14 * np.maximum(1.0, np.abs(line)))

    @pytest.mark.parametrize(
        "spec",
        [
            OscillatorSpec(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0),
            OscillatorSpec(alpha=2.3, omega2=2.0, q0=0.5, qp0=-0.4, C1=0.7, C2=-0.2),
            OscillatorSpec(alpha=2.8, omega2=0.5, q0=-1.0, qp0=0.6, C1=0.1, C2=0.3, power_amp=1.5),
            OscillatorSpec(alpha=2.5, omega2=4.0, q0=0.8, qp0=0.2, C1=-0.5, C2=1.0, power_amp=0.0),
            OscillatorSpec(alpha=2.05, omega2=3.0, q0=1.0, qp0=1.0, power_amp=-2.0),
        ],
    )
    def test_matches_laplace_series(self, spec):
        # every 61st node of t <= 5 against the power series in 1/s of the
        # transform, summed in 50-digit arithmetic
        g = Grid(0.0, 5.0, 2560)
        idx = np.arange(0, g.n_nodes, 61)
        ref = laplace_series(spec, g.nodes()[idx])
        q = exact_solution(spec, g).values[idx]
        assert np.all(np.abs(q - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_homogeneous_matches_ml_kernel(self):
        spec = OscillatorSpec(alpha=2.5, omega2=2.0, q0=1.0, qp0=0.5, power_amp=0.0)
        g = Grid(0.0, 5.0, 400)
        t = g.nodes()
        beta = spec.alpha - 1.0
        ref = np.array(
            [
                ml(MLParams(beta, 1.0), -2.0 * tv**beta)
                + 0.5 * tv * ml(MLParams(beta, 2.0), -2.0 * tv**beta)
                for tv in t
            ]
        )
        np.testing.assert_allclose(exact_solution(spec, g).values, ref, atol=1e-12)

    def test_against_abm_integrator(self):
        # independent path: D^beta q = Q - w2 q stepped by the fractional Adams
        spec = OscillatorSpec.from_initial_data(alpha=2.6, omega2=1.5, q0=0.5, qp0=0.3)
        beta = spec.alpha - 1.0
        cfg = IntegratorConfig(h=1 / 512, t_end=4.0)
        res = integrate_fractional_abm(
            beta,
            lambda t, x: float(forcing(spec, t)) - spec.omega2 * x,
            [spec.q0, spec.qp0],
            cfg,
        )
        ref = exact_solution(spec, res.grid)
        assert np.max(np.abs(res.q[:, 0] - ref.values)) < 5e-4

    def test_readme_grid_shares_contours(self, monkeypatch):
        # the README oscillator-1d grid: one band loop over every node, no
        # per-node evaluations, and the exp(s t) work stays in blocks of a
        # few rows
        calls = []
        bands = fracdyn.mittag_leffler._bands

        def counted(*args):
            calls.append(len(args[3]))
            return bands(*args)

        monkeypatch.setattr(fracdyn.mittag_leffler, "_bands", counted)
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
        g = Grid(0.0, 10.0, 20480)
        tracemalloc.start()
        try:
            exact_solution(spec, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [20481]
        assert peak < 4 * 2**20

    def test_domain_checks(self):
        good = OscillatorSpec(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
        with pytest.raises(FracDomainError):
            exact_solution(good, Grid(1.0, 2.0, 16))  # grid must start at 0
        with pytest.raises(FracDomainError):
            OscillatorSpec(alpha=2.5, omega2=-1.0, q0=1.0, qp0=0.0)
        bad = OscillatorSpec(alpha=3.5, omega2=1.0, q0=1.0, qp0=0.0)
        with pytest.raises(FracDomainError):
            exact_solution(bad, Grid(0.0, 1.0, 16))


class TestDecomposedSolution:
    def test_matches_exact_solution(self):
        g = Grid(0.0, 3.0, 300)
        for spec in (
            OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=0.8, qp0=0.2),
            # q0 - C2 and qp0 - C1 nonzero: both kernels of the split enter
            OscillatorSpec(alpha=2.5, omega2=1.0, q0=0.8, qp0=0.2, C1=0.3, C2=-0.4, power_amp=0.0),
        ):
            a = exact_solution(spec, g).values
            b = decomposed_solution(spec, g).values
            assert np.max(np.abs(a - b)) < 1e-6

    @pytest.mark.parametrize("power_amp", [None, 0.5])
    def test_rejects_a_power_term(self, power_amp):
        # the literature form (power_amp unset) has amp = q0 = 1
        spec = OscillatorSpec(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0, power_amp=power_amp)
        with pytest.raises(FracDomainError):
            decomposed_solution(spec, Grid(0.0, 1.0, 32))

    def test_requires_unit_frequency(self):
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=2.0, q0=1.0, qp0=0.0)
        with pytest.raises(FracDomainError):
            decomposed_solution(spec, Grid(0.0, 1.0, 32))
