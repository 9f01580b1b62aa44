"""Golden SHA-256 hashes: refactors must leave every output byte-identical.

Each case hashes either the CSVs that ``fracdyn run`` writes for a README
scenario (shortened to about 2k steps or fewer) or the result arrays of a
library run that no CLI config reaches.  The hashes were recorded on
x86-64 Linux (glibc 2.36) with Python 3.11.7 and numpy 2.4.6: every Gamma
value comes from Python's ``math.gamma``, and no other library enters the
runs.  Another stack may round differently, and then the values must be
recorded again on that stack from a commit whose output is trusted.
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
    "oscillator-1d": "b437a3cb6bc51638a1e729bca9bd4a29a9377c6476bc5fe50279650a6f905118",
    "linear-nd": "df37525f4f3e7702b4698216d632d0dc1f18936628b6b68b30e76ebe3292738c",
    "linear-nd-verlet": "acb358adc8a03084eb42783f10614540846970a975251d1e45e585f3ffb02a2e",
    "case1-2d": "5f0386403a4775e2992bc8994cef6165909d485a6d1472c61550c94bc388d9f2",
    "case1-2d-b2zero": "58b15f87533c0c06ece3853f05c7ed4257b29e4226c1cfdbd2681e114fcc2ef7",
    "case2-2d": "c7b67dc105d5b8ec675a182c4d38141462a712d4b53c5fd4e33ef4f15ec38bfb",
    "nonlinear-fracosc": "84aadfeb72965b51390f427df1a4b495f0c97e7d1cc7e4f01b10d922afc4bc24",
    "nonlinear-fracosc-pre": "98bc6fb7a96a5d8691e9126f66dabb106b863843cecd880120eb37b37db90999",
    "hamilton-linear": "6e6b2d9e7f72b5d1b7f36a9a6d79916fb21cd347043ec7949f96d8270e381d0a",
    "direct-semi-implicit-euler": "974f80029c9c2cac3c74a415b793f29dfff5dccba7dca1b5af92890c55e9c86e",
    "direct-velocity-verlet": "fc8aaadcb0ade3064570c97f123718179cb156b2e3f19af6e59de2f343527247",
    "hamilton-dA_dD": "938f2df569fc7bc176fd4ced556748c1093ef319d18a762ab274a0f8c2f91947",
    "oscillator-1d-trajectory": "2cc4b9cb23c55d696314b14a112e448dd0a7779965442334c7c854e9a432310a",
    "linear-nd-a15-verlet": "3c1ddc1c4d5dfcb37cb1690fe759878fa6d8a0166bae9baf937ffd0d83f99764",
    "general": "8d69b3c8fcc836f4049a069034cf878a4674fb3bb5f24e7e46f187965d9057b9",
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


def _general_result():
    sys = general_system()
    rr = rhs_general(sys)
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return integrate_second_order(rr, (sys.q_init, rr.qdot_start), cfg)


def _direct_result(scheme):
    sys = direct_system()
    rr = rhs_linear(sys, mode="direct")
    cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
    return integrate_second_order(rr, (sys.q_init, rr.qdot_start), cfg)


def _run_hamilton(_tmp) -> bytes:
    spec = hamilton_spec()
    cfg = IntegratorConfig(h=0.005, t_end=1.0)
    return _arrays(integrate_hamilton(hamilton_rhs(spec), (spec.q_init, spec.p_init), cfg))


CASES = {
    **{name: (lambda tmp, name=name: _run_cli(name, tmp)) for name in SCENARIOS},
    # the integrator's output alone, apart from the oracle's comparison CSV
    "oscillator-1d-trajectory": lambda tmp: _run_cli("oscillator-1d", tmp, comparison=False),
    "direct-semi-implicit-euler": lambda _tmp: _arrays(_direct_result("semi-implicit-euler")),
    "direct-velocity-verlet": lambda _tmp: _arrays(_direct_result("velocity-verlet")),
    "hamilton-dA_dD": _run_hamilton,
    "general": lambda _tmp: _arrays(_general_result()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, tmp_path):
    assert hashlib.sha256(CASES[name](tmp_path)).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize(
    "result,terms",
    [
        # 201 nodes, n = 2: D^alpha q and D^alpha qdot at each count, once
        (_general_result, 2 * 2 * (200 * 201 // 2)),
        # direct mode sums D^alpha q only; the residual reuses that sum
        (lambda: _direct_result("semi-implicit-euler"), 2 * (200 * 201 // 2)),
    ],
    ids=["general", "direct-semi-implicit-euler"],
)
def test_history_terms(result, terms):
    """The residual reuses the sum its right-hand side just paid for."""
    assert result().diagnostics["history_terms"] == terms
