"""Closed-form fractional oscillator solutions vs independent integrators."""

import tracemalloc

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
        assert np.max(np.abs(q.values - 1.0)) < 1e-4

    def test_stationary_error_is_second_order(self):
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
        errs = []
        for n in (512, 1024, 2048):
            q = exact_solution(spec, Grid(0.0, 4.0, n))
            errs.append(np.max(np.abs(q.values - 1.0)))
        assert errs[0] / errs[1] > 3.3
        assert errs[1] / errs[2] > 3.3

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
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=0.8, qp0=0.2)
        g = Grid(0.0, 3.0, 300)
        a = exact_solution(spec, g).values
        b = decomposed_solution(spec, g).values
        assert np.max(np.abs(a - b)) < 1e-6

    def test_requires_unit_frequency(self):
        spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=2.0, q0=1.0, qp0=0.0)
        with pytest.raises(FracDomainError):
            decomposed_solution(spec, Grid(0.0, 1.0, 32))
