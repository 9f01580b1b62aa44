"""Golden SHA-256 hashes: refactors must leave every output byte-identical,
or, where a change reorders floating-point sums, move it only within a
rounding bound stated when the hashes are recorded again.

Each case hashes either the CSVs that ``fracdyn run`` writes for a README
scenario (shortened to about 2k steps or fewer) or the result arrays of a
library run that no CLI config reaches.  The hashes were recorded on
x86-64 Linux (glibc 2.36) with Python 3.11.7 and numpy 2.4.6: every Gamma
value comes from Python's ``math.gamma``, the history sums and the
oracle's contour sums from the BLAS that numpy ships (the same bytes with
one or two BLAS threads), and no other library enters the runs.
Another stack may round differently, and then the values must be
recorded again on that stack from a commit whose output is trusted.
``golden_delta.py`` measures how far each case moved from that commit.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdyn.cli import main
from fracdyn.constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    rhs_general,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
)
from fracdyn.fode_solver import IntegratorConfig, integrate_hamilton, integrate_second_order
from fracdyn.oscillator_exact import OscillatorSpec, exact_solution
from fracdyn.series import FracOrder, Grid

# README scenarios; the 2-d cases carry initial velocities that satisfy
# a . qdot(0) = 0, which the constraint demands at t = 0
SCENARIOS = {
    "oscillator-1d": {
        "scenario": "oscillator-1d",
        "grid": {"h": 0.001953125, "t_end": 3.0},
        "parameters": {"alpha": 2.5, "omega2": 1.0},
        "initial": {"q": [1.0], "qdot": [0.0]},
    },
    "linear-nd": {
        "scenario": "linear-nd",
        "grid": {"h": 0.0025, "t_end": 2.0},
        "parameters": {"alpha": 0.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                       "potential": {"kind": "quadratic", "k": 1.0}},
        "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
    },
    "linear-nd-verlet": {
        "scenario": "linear-nd",
        "grid": {"h": 0.0025, "t_end": 2.0},
        "scheme": "velocity-verlet",
        "parameters": {"alpha": 0.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                       "potential": {"kind": "quadratic", "k": 1.0}},
        "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
    },
    "case1-2d": {
        "scenario": "case1-2d",
        "grid": {"h": 0.001, "t_end": 2.0},
        "parameters": {"alpha": 0.5, "a2": 1.0, "b1": 1.0, "b2": 0.25},
        "initial": {"q": [1.0, 0.0], "qdot": [1.0, 0.0]},
    },
    "case1-2d-b2zero": {
        "scenario": "case1-2d-b2zero",
        "grid": {"h": 0.001, "t_end": 2.0},
        "parameters": {"alpha": 0.5, "potential": {"kind": "quadratic-q1", "k": 1.0}},
        "initial": {"q": [1.0, 0.0], "qdot": [1.0, 0.0]},
    },
    "case2-2d": {
        "scenario": "case2-2d",
        "grid": {"h": 0.001, "t_end": 2.0},
        "parameters": {"alpha": 0.5, "c": 1.0, "b2": 1.0},
        "initial": {"q": [1.0, -1.0], "qdot": [0.5, -0.5]},
    },
    "nonlinear-fracosc": {
        "scenario": "nonlinear-fracosc",
        "grid": {"h": 0.0005, "t_end": 1.0},
        "parameters": {"alpha": 1.5, "g": 1.0, "form": "reduced",
                       "K": {"kind": "linear", "k": 1.0}},
        "initial": {"q": [1.0], "qdot": [0.0]},
    },
    "nonlinear-fracosc-pre": {
        "scenario": "nonlinear-fracosc",
        "grid": {"h": 0.0005, "t_end": 1.0},
        "parameters": {"alpha": 1.5, "g": 1.0, "form": "pre",
                       "K": {"kind": "cubic", "k": 1.0}},
        "initial": {"q": [1.0], "qdot": [0.0]},
    },
    "linear-nd-a15-verlet": {
        "scenario": "linear-nd",
        "grid": {"h": 0.0025, "t_end": 2.0},
        "scheme": "velocity-verlet",
        "parameters": {"alpha": 1.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                       "potential": {"kind": "quadratic", "k": 1.0}},
        "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
    },
    "hamilton-linear": {
        "scenario": "hamilton-linear",
        "grid": {"h": 0.001, "t_end": 2.0},
        "parameters": {"alpha": 0.5, "A": [1.0, 0.5],
                       "potential": {"kind": "quadratic", "k": 1.0}},
        "initial": {"q": [1.0, 0.0], "p": [0.0, 1.0]},
    },
}

GOLDEN = {
    "oscillator-1d": "f3898aa822e04ff41f61bb5f402139f739cf4479562052fcc39a97ac4ef8bbc2",
    "linear-nd": "b489558680c7cc78d0cdfcdc95574ea503e9957ed556d0f95895183bb7dcde2d",
    "linear-nd-verlet": "6aeef3ea3e8b78534f205cf13a4b50a48b871b33bbb1a9062462a2db92097d32",
    "case1-2d": "d9062b562dcc31a8ec093fbc2eb088c738ab7bfaaafb6784af9e2784461068f6",
    "case1-2d-b2zero": "83a42e0f5bbe28fcdcfc6b5a10ed5502eed08cfb71b3fa97df844257f501a4eb",
    "case2-2d": "2a9ef94fe016d7dedead36af8128c51d3132fda548041f52f135b8d7d6759aee",
    "nonlinear-fracosc": "babfff5ecec65054f96ba1085d68e299f9490d9e50dabfa2dec845bbfa4eeed1",
    "nonlinear-fracosc-pre": "78a3efb434330bd2dfb475afda76b0a3d0367fe00c8686721322d8ab4e6e7a97",
    "hamilton-linear": "6e6b2d9e7f72b5d1b7f36a9a6d79916fb21cd347043ec7949f96d8270e381d0a",
    "direct-semi-implicit-euler": "b20f0999bd6186e7b65e762300f3d3716b64bf394cb96a704173fb87b4389ad1",
    "direct-velocity-verlet": "9f9faf048fc9493f7d9d5a76c081c769cb06647a993f95871c51761681133eb6",
    "hamilton-Aq": "e4926c205cef67e55e00fb2c9626a4dcc64de6acfc33515dec5a4223cb1be97a",
    "oscillator-1d-trajectory": "2cc4b9cb23c55d696314b14a112e448dd0a7779965442334c7c854e9a432310a",
    "linear-nd-a15-verlet": "f47d1e94546ac82b06cd6b587abdf15ff3ca2dfb22805925f7027955d482850e",
    "general": "7e9302649aec377a99c979942ac33517d721ac05274171a23cb6e6c1e05ab00a",
    "oscillator-exact": "46966f541d8715e580274a92bdb06984f80b4fa836c359337f31c04037068927",
}


def _run_cli(name, tmp_path, comparison=True) -> bytes:
    cfg = dict(SCENARIOS[name], output={"prefix": "g"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    blob = (out / "g_trajectory.csv").read_bytes()
    comp = out / "g_comparison.csv"
    if comparison and comp.exists():
        blob += comp.read_bytes()
    return blob


def _arrays(res) -> bytes:
    parts = [res.q, res.qdot, res.multiplier]
    if res.residual is not None:
        parts.append(res.residual)
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def direct_system() -> SystemSpec:
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec.linear([1.0, 2.0], [0.5, -0.3], FracOrder(0.5)),
        q_init=[1.0, 0.5],
        qdot_init=[2.0, -1.0],
    )


def hamilton_system() -> SystemSpec:
    """A constraint f = A(q).qdot whose A depends on q, so the general
    Hamilton step runs; qdot_init is p(0)."""
    dA_dq = np.array([[0.0, 0.1], [0.0, 0.0]])
    zeros = np.zeros(2)

    def A(q):
        return np.array([1.0 + 0.1 * q[1], 0.5])

    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec(
            FracOrder(0.5),
            f=lambda q, qd, dl: float(A(q) @ qd),
            df_dq=lambda q, qd, dl: dA_dq.T @ qd,
            df_dqdot=lambda q, qd, dl: A(q),
            df_ddq=lambda q, qd, dl: zeros,
        ),
        q_init=[1.0, 0.0],
        qdot_init=[0.0, 1.0],
    )


def general_system() -> SystemSpec:
    """A constraint nonlinear in (q, qdot, D^alpha q), so ``rhs_general``
    needs both history queries and every partial derivative."""

    def f(q, qd, dl):
        return (qd[0] + 2.0 * qd[1] + 0.5 * dl[0] - 0.3 * dl[1]
                + 0.2 * q[0] * dl[1] + 0.1 * dl[0] * qd[1])

    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec(
            FracOrder(0.5),
            f=f,
            df_dq=lambda q, qd, dl: np.array([0.2 * dl[1], 0.0]),
            df_dqdot=lambda q, qd, dl: np.array([1.0, 2.0 + 0.1 * dl[0]]),
            df_ddq=lambda q, qd, dl: np.array([0.5 + 0.1 * qd[1], -0.3 + 0.2 * q[0]]),
        ),
        q_init=[1.0, 0.5],
        qdot_init=[2.0, -1.0],
    )


def _general_result():
    sys = general_system()
    rr = rhs_general(sys)
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)


def _direct_result(scheme):
    sys = direct_system()
    rr = rhs_linear(sys, mode="direct")
    cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
    return integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)


def _hamilton_result():
    sys = hamilton_system()
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return integrate_hamilton(hamilton_rhs(sys), (sys.q_init, sys.qdot_init), cfg)


def _run_hamilton(_tmp) -> bytes:
    return _arrays(_hamilton_result())


def _oscillator_exact(_tmp) -> bytes:
    """The closed form with every kernel in use: oscillator-1d's rest data
    make the homogeneous terms vanish, so its comparison CSV reads no
    Mittag-Leffler value."""
    spec = OscillatorSpec(alpha=2.5, omega2=2.0, q0=1.0, qp0=0.5, C1=0.3, C2=-0.2)
    return exact_solution(spec, Grid(0.0, 4.0, 2048)).values.tobytes()


CASES = {
    **{name: (lambda tmp, name=name: _run_cli(name, tmp)) for name in SCENARIOS},
    # the integrator's output alone, apart from the oracle's comparison CSV
    "oscillator-1d-trajectory": lambda tmp: _run_cli("oscillator-1d", tmp, comparison=False),
    "direct-semi-implicit-euler": lambda _tmp: _arrays(_direct_result("semi-implicit-euler")),
    "direct-velocity-verlet": lambda _tmp: _arrays(_direct_result("velocity-verlet")),
    "hamilton-Aq": _run_hamilton,
    "general": lambda _tmp: _arrays(_general_result()),
    "oscillator-exact": _oscillator_exact,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, tmp_path):
    assert hashlib.sha256(CASES[name](tmp_path)).hexdigest() == GOLDEN[name]


def _prop1_result(scheme):
    sys = direct_system()
    rr = rhs_linear(sys)
    cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
    return integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)


def _reduced_result(form="reduced"):
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    rr = rhs_nonlinear_frac_oscillator(1.0, lambda x: x, FracOrder(1.5), form=form)
    return integrate_second_order(rr, ([1.0], [0.0]), cfg)


def _pre_result():
    return _reduced_result("pre")


@pytest.mark.parametrize(
    "result,terms",
    [
        # 201 nodes, n = 2: D^alpha q and D^alpha qdot at each count; the
        # residual reads the D^alpha q the steps stored and sums nothing
        (_general_result, 2 * 2 * (200 * 201 // 2)),
        # direct mode sums D^alpha q at every count, the last one twice:
        # in the step and again in the residual
        (lambda: _direct_result("semi-implicit-euler"), 2 * (200 * 201 // 2) + 2 * 200),
        # prop1: the one projected series b . D^alpha qdot for the
        # right-hand side at each count, and D^alpha q at every count for
        # the residual, in one blocked product after the last step
        (lambda: _prop1_result("semi-implicit-euler"), (1 + 2) * (200 * 201 // 2)),
        # velocity Verlet asks no b . D^alpha qdot at the last count
        (lambda: _prop1_result("velocity-verlet"), (1 + 2) * (200 * 201 // 2) - 200),
        # n = 1, D^(3-alpha) x alone: no sum over the velocity.  At count 2
        # there is one panel and no second difference, so no dot is taken
        (_reduced_result, 200 * 201 // 2 - 1),
        # n = 1, from count 3 on: D^alpha x at the next node sums c
        # products, and J^(2-alpha) K there c - 1
        (_pre_result, sum(2 * c - 1 for c in range(3, 202))),
        # A(q) reads no history, and the residual reads the A each step
        # stored
        (_hamilton_result, 0),
    ],
    ids=[
        "general",
        "direct-semi-implicit-euler",
        "prop1-semi-implicit-euler",
        "prop1-velocity-verlet",
        "nonlinear-fracosc-reduced",
        "nonlinear-fracosc-pre",
        "hamilton-Aq",
    ],
)
def test_history_terms(result, terms):
    """``history_terms`` is the number of products a run's history sums
    computed: each dot a query takes counts its panels x width, however
    often the query is asked at one count, and no series is counted that
    nobody asked for."""
    assert result().diagnostics["history_terms"] == terms


def test_golden_delta_compare_names_failing_cases(tmp_path, capsys):
    """``golden_delta.py --compare A B --bound REL`` exits 1 and names each
    case that moves by more than REL, changes shape or is in one file
    only; a case within the bound, NaN against NaN included, passes.  A
    verify value or convergence table entry is not held to REL: each one
    that moved is listed with both values and its difference."""
    import golden_delta

    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    verify_a = {"verify:order, h=1/2": [1.5], "verify:error": [0.25], "verify:nan": [np.nan]}
    verify_b = {"verify:order, h=1/2": [1.5], "verify:error": [0.5], "verify:nan": [np.nan]}
    table = np.array([[0.01, 4e-3, np.nan], [0.005, 2e-3, 1.0]])
    moved = table.copy()
    moved[1, 2] = 1.25
    verify_a["convergence:linear-nd"] = table
    verify_b["convergence:linear-nd"] = moved
    np.savez(a, same=[1.0, np.nan], near=[2.0, 3.0], far=[1e3, 1.0], shape=[1.0], gone=[0.0],
             **verify_a)
    np.savez(b, same=[1.0, np.nan], near=[2.0, 3.0 + 1e-12], far=[1e3 + 1e-6, 1.0],
             shape=[1.0, 2.0], new=[0.0], **verify_b)
    assert golden_delta.main(["--compare", str(a), str(b), "--bound", "1e-11"]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line for line in out if line.startswith("FAILED")]
    assert [line.split()[1] for line in failed] == ["far:", "gone:", "new:", "shape:"]
    assert [line for line in out if line.startswith("MOVED")] == [
        "MOVED convergence:linear-nd[1, 2]: 1.0 -> 1.25, delta +2.500e-01",
        "MOVED verify:error: 0.25 -> 0.5, delta +2.500e-01",
    ]
    assert golden_delta.main(["--compare", str(a), str(a), "--bound", "0"]) == 0


def test_golden_delta_dump_saves_verify_rows(tmp_path, monkeypatch):
    """``--dump`` saves, besides each golden case, the measured value of
    each ``verify all`` row as the case ``verify:<row name>``, the
    oracle-osc kernels of ``ml_grid`` as the case ``ml_grid:oracle-osc``,
    the README linear-nd convergence table as the case
    ``convergence:linear-nd``, and q of the fractional Adams runs behind
    the verify rows as the cases ``abm:b=1.3``, ``abm:b=1.5`` and
    ``abm:b=1.8``."""
    import golden_delta
    import test_golden
    from fracdyn import verification
    from fracdyn.fode_solver import integrate_fractional_abm
    from fracdyn.mittag_leffler import ml_grid
    from fracdyn.verification import CheckRow

    rows = [CheckRow("order, h=1/2", 1.5, 1.0, True), CheckRow("error", 0.25, 1.0, True)]
    monkeypatch.setattr(verification, "run_suite", lambda name: rows if name == "all" else [])
    monkeypatch.setattr(test_golden, "CASES", {"case": lambda tmp: np.array([1.0, 2.0]).tobytes()})
    # ``dump`` puts the checkout's paths first
    monkeypatch.setattr(sys, "path", list(sys.path))
    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "d.npz"
    golden_delta.dump(repo, out)
    got = np.load(out)
    assert sorted(got.files) == [
        "abm:b=1.3", "abm:b=1.5", "abm:b=1.8", "case", "convergence:linear-nd",
        "ml_grid:oracle-osc", "verify:error", "verify:order, h=1/2",
    ]
    assert got["case"].tolist() == [1.0, 2.0] and got["verify:error"].tolist() == [0.25]
    kernels = ml_grid(1.5, (1.0, 2.0, 1.5), 1.0, np.arange(5121) * 2.0**-9)
    assert got["ml_grid:oracle-osc"].tobytes() == kernels.tobytes()
    # rows (h, error, order) of the ladder 1/100 ... 1/800: the finest rung
    # has no row, and the order-1 scheme reads 1
    table = got["convergence:linear-nd"]
    assert table[:, 0].tolist() == [0.01, 0.005, 0.0025]
    assert np.isnan(table[0, 2]) and np.all(np.abs(table[1:, 2] - 1.0) < 0.05)
    # D^b q + q = 0 from q(0) = 1, qdot(0) = 0.5 on 4000 steps to t = 5
    cfg = IntegratorConfig(h=1.0 / 800, t_end=5.0)
    res = integrate_fractional_abm(1.5, lambda t, x: -x, [1.0, 0.5], cfg)
    assert got["abm:b=1.5"].tobytes() == res.q.ravel().tobytes()
    assert [got[f"abm:b={b}"].shape for b in (1.3, 1.8)] == [(4001,)] * 2
