"""Golden SHA-256 hashes: refactors must leave every output byte-identical.

Each case hashes either the CSVs that ``fracdyn run`` writes for a README
scenario (shortened to about 2k steps or fewer) or the result arrays of a
library run that no CLI config reaches.  The hashes were recorded on
x86-64 Linux with Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and mpmath 1.3.0;
another stack may round differently, and then the values must be recorded
again on that stack from a commit whose output is trusted.
"""

import hashlib
import json

import numpy as np
import pytest

from fracdyn.cli import main
from fracdyn.constrained_dynamics import (
    ConstraintSpec,
    HamiltonSpec,
    SystemSpec,
    hamilton_rhs,
    rhs_general,
    rhs_linear,
)
from fracdyn.fode_solver import IntegratorConfig, integrate_hamilton, integrate_second_order
from fracdyn.series import FracOrder

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
    "oscillator-1d": "b2179e1261cf21e843dbcbf10bf41209d3d25c3a640b1b9ac73f9fcee9aec9d9",
    "linear-nd": "e6088b6835a6d459bef11832a5fcffbfb187abe5b66e212b22daa467817da516",
    "linear-nd-verlet": "ea9ddbd913c538e234984d01627bd52ed42370540a1c5ce2edfd935b6ecb6848",
    "case1-2d": "09170f90dbd8e3dc0e6f4828693e31fb4ad5a82e9f06f75a63a4ac1c51e1e0cd",
    "case1-2d-b2zero": "1045e6e99ef1e129508b68782a6b31a4ef13b358b1f184c276fcdfdef6a0d5d3",
    "case2-2d": "108ddb5ea30b6fdc3723f36259b1aef29494440bf7092dfe806682e3b4131cf2",
    "nonlinear-fracosc": "5447423781fb87d30907bdca21a5f88d5bb3c2490132e09c97f2ce78e6ebc455",
    "nonlinear-fracosc-pre": "86c5ae7ddd692a78745c0873eb467808a3e073fef9aa52f623f325b7fd853bc8",
    "hamilton-linear": "6e6b2d9e7f72b5d1b7f36a9a6d79916fb21cd347043ec7949f96d8270e381d0a",
    "direct-semi-implicit-euler": "1d682818154bc6379b88d5390b13fb9f5ef7099da5df7652e9b31ba9b5a79a04",
    "direct-velocity-verlet": "c782e1cc49cbaaa607f2c221260c61a400a6aeed05407838b8a889b7dc6703a3",
    "hamilton-dA_dD": "8112e8f77f297bce7f8aa14543cc5eea0986e1946d339b7c7dfd8fc324c6a56d",
    "oscillator-1d-trajectory": "2cc4b9cb23c55d696314b14a112e448dd0a7779965442334c7c854e9a432310a",
    "linear-nd-a15-verlet": "8cfb43ad413b8a42ec632fadca1e1e880839a422f2e19283e4f8e75e4500ffc0",
    "general": "e16c73f5a2c5a7935275a57751343e446d4b0359b01a4f603bdda42bbbdf80b4",
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


def hamilton_spec() -> HamiltonSpec:
    """A depends on q and on D^alpha q, so the fractional integrand is live."""
    return HamiltonSpec(
        grad_potential=lambda q: q,
        A=lambda q, d: np.array([1.0 + 0.3 * d[0] + 0.1 * q[1], 0.5 - 0.2 * d[1]]),
        dA_dq=lambda q, d: np.array([[0.0, 0.1], [0.0, 0.0]]),
        dA_dD=lambda q, d: np.array([[0.3, 0.0], [0.0, -0.2]]),
        order=FracOrder(0.5),
        q_init=[1.0, 0.0],
        p_init=[0.0, 1.0],
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


def _run_general(_tmp) -> bytes:
    sys = general_system()
    rr = rhs_general(sys)
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return _arrays(integrate_second_order(rr, (sys.q_init, rr.qdot_start), cfg))


def _run_direct(scheme, _tmp) -> bytes:
    sys = direct_system()
    rr = rhs_linear(sys, mode="direct")
    cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
    return _arrays(integrate_second_order(rr, (sys.q_init, rr.qdot_start), cfg))


def _run_hamilton(_tmp) -> bytes:
    spec = hamilton_spec()
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return _arrays(integrate_hamilton(hamilton_rhs(spec), (spec.q_init, spec.p_init), cfg))


CASES = {
    **{name: (lambda tmp, name=name: _run_cli(name, tmp)) for name in SCENARIOS},
    # the integrator's output alone, apart from the oracle's comparison CSV
    "oscillator-1d-trajectory": lambda tmp: _run_cli("oscillator-1d", tmp, comparison=False),
    "direct-semi-implicit-euler": lambda tmp: _run_direct("semi-implicit-euler", tmp),
    "direct-velocity-verlet": lambda tmp: _run_direct("velocity-verlet", tmp),
    "hamilton-dA_dD": _run_hamilton,
    "general": _run_general,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, tmp_path):
    assert hashlib.sha256(CASES[name](tmp_path)).hexdigest() == GOLDEN[name]
