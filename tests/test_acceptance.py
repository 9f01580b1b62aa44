"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Criteria 1-9 reuse the verification suites (the same code path as the CLI
``verify`` verb) so the numbers printed here match the CLI report.
"""

import json
import time

import pytest

from fracdyn.verification import SUITES


@pytest.fixture(scope="module")
def suites():
    out = {}
    start = time.perf_counter()
    for name, fn in SUITES.items():
        out[name] = fn()
    out["_elapsed"] = time.perf_counter() - start
    return out


def _pick(rows, *prefixes):
    sel = [r for r in rows if any(r.name.startswith(p) for p in prefixes)]
    assert sel, f"no rows match {prefixes}"
    return sel


def _report(num, desc, rows):
    ok = all(r.passed for r in rows)
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    detail = "\n".join(
        f"  {r.name}: measured={r.measured:.6e} tol={r.tolerance:.3e} "
        f"{'ok' if r.passed else 'FAILED'}"
        for r in rows
    )
    assert ok, f"criterion {num} failed:\n{detail}"


def test_criterion_01_special_function_identities(suites):
    _report(1, "E_{1,1}=exp, E_{2,1}=cos, E_{1,2}=(e^z-1)/z at 1e-10",
            _pick(suites["mittag-leffler"], "E_{"))


def test_criterion_02_decomposition_identity(suites):
    _report(2, "E = f + g decomposition at 1e-6",
            _pick(suites["mittag-leffler"], "decomposition"))


def test_criterion_03_tail_split(suites):
    _report(3, "power-law tail slope -alpha and oscillatory envelope",
            _pick(suites["mittag-leffler"], "tail slope", "|g| within envelope"))


def test_criterion_04_operator_power_rule(suites):
    _report(4, "discrete power-rule convergence orders, left and right-sided",
            _pick(suites["operators"], "power rule order"))


def test_criterion_05_derivative_shift_identity(suites):
    _report(5, "shift identity with Proposition 1's startup term at alpha 0.5 and 1.5",
            _pick(suites["operators"], "shift identity"))


def test_criterion_06_oscillator_chain(suites):
    _report(6, "1d constrained trajectory and fractional Adams vs exact oscillator solution",
            suites["oscillator"])


def test_criterion_07_constraint_preservation(suites):
    _report(7, "max |f| ratio >= 2^0.75 for linear-nd n=2,3 and case2-2d",
            _pick(suites["constraints"], "preservation ratio"))


def test_criterion_08_classical_limits(suites):
    _report(8, "b=0 cos-t limit, energy drift, Hamilton vs Lagrange",
            _pick(suites["constraints"], "classical limit", "unconstrained energy",
                  "hamilton vs lagrange"))


def test_criterion_09_nonlinear_reduction(suites):
    _report(9, "pre-reduction vs reduced nonlinear oscillator within 5x",
            _pick(suites["constraints"], "nonlinear pre vs reduced"))


def test_criterion_10_determinism_and_budget(suites, tmp_path):
    from fracdyn.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "linear-nd",
        "grid": {"h": 0.005, "t_end": 1.0},
        "parameters": {"alpha": 0.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                       "potential": {"kind": "quadratic", "k": 1.0}},
        "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
        "output": {"prefix": "det"},
    }))
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["run", "--config", str(cfg), "--out", str(d), "--quiet"]) == 0
        outs.append((d / "det_trajectory.csv").read_bytes())
    identical = outs[0] == outs[1]
    elapsed = suites["_elapsed"]
    ok = identical and elapsed < 600.0
    print(f"criterion 10 [{'PASS' if ok else 'FAIL'}] byte-identical reruns, "
          f"verify-all equivalent in {elapsed:.0f}s (600s target)")
    assert identical, "reruns were not byte-identical"
    # the runtime budget is a target, not a hard gate; flag only gross misses
    assert elapsed < 1200.0, f"verification took {elapsed:.0f}s"
