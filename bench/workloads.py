"""The benchmark's workloads: ``fracdyn run`` configs drawn from a seed, and
the checks of their outputs.

Every workload is a fixed list of processes.  The seed moves initial data
and coefficients inside ranges where each run stays bounded; it never
moves step counts, so the work per pass is the same for every seed.
Checks compare the CSVs with the independent references in ``refs.py`` or
with properties of the method, never with stored output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import refs

EPS = refs.EPS

# log2 of 1/h for the full and the tiny (self-test) size of each process
STEPS = {
    "osc": (9, 5),
    "lin": (11, 7),
    "red": (10, 6),
    "ham": (9, 5),
    "pre": (10, 6),
}


@dataclass
class Proc:
    prefix: str
    config: dict


@dataclass
class Workload:
    name: str
    procs: list[Proc]
    # check(workload, output dir, ml values) -> list of failures
    check: Callable[["Workload", Path, list], list[str]]
    # [alpha, beta, z] for fracdyn's ml, compared with refs.ml_series
    ml_points: list = field(default_factory=list)


def _h(prefix: str, tiny: bool) -> float:
    return 2.0 ** -STEPS[prefix][1 if tiny else 0]


def _cfg(scenario, prefix, h, t_end, parameters, initial) -> dict:
    return {
        "scenario": scenario,
        "grid": {"h": h, "t_end": t_end},
        "parameters": parameters,
        "initial": initial,
        "output": {"prefix": prefix},
    }


def load_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _traj_header(n: int) -> str:
    cols = ["t"] + [f"q_{k + 1}" for k in range(n)] + [f"qdot_{k + 1}" for k in range(n)]
    return ",".join(cols + ["lambda", "constraint_residual"])


def _grid_ok(name: str, t: np.ndarray, h: float, t_end: float) -> list[str]:
    n = round(t_end / h)
    if len(t) != n + 1 or not np.array_equal(t, h * np.arange(n + 1)):
        return [f"{name}: time column is not the grid 0, h, ..., {t_end}"]
    return []


# ---------------------------------------------------------------------------
# oracle-osc


def oracle_osc(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"oracle-osc:{seed}")
    h = _h("osc", tiny)
    t_end = 10.0
    q0 = rng.uniform(0.5, 2.0)
    cfg = _cfg(
        "oscillator-1d", "osc", h, t_end,
        {"alpha": 2.5, "omega2": 1.0}, {"q": [q0], "qdot": [0.0]},
    )
    # two nodes from each of three bands of t; the last band (t > 8) is
    # where ml falls back to its mpmath series
    nodes = []
    for lo, hi in ((0.0, 5.0), (5.0, 8.0), (8.0, t_end)):
        nodes += rng.sample(range(int(lo / h) + 1, int(hi / h) + 1), 2)
    points = [[1.5, beta, -((j * h) ** 1.5)] for j in sorted(nodes) for beta in (1.0, 1.5, 2.0)]
    return Workload("oracle-osc", [Proc("osc", cfg)], check_oracle_osc, points)


def check_oracle_osc(wl: Workload, out: Path, ml_values: list) -> list[str]:
    cfg = wl.procs[0].config
    h, t_end = cfg["grid"]["h"], cfg["grid"]["t_end"]
    q0 = cfg["initial"]["q"][0]
    errs = []
    traj = load_csv(out / "osc_trajectory.csv", _traj_header(1))
    comp = load_csv(out / "osc_comparison.csv", "t,numerical,exact,abs_error")
    errs += _grid_ok("osc trajectory", traj[:, 0], h, t_end)
    errs += _grid_ok("osc comparison", comp[:, 0], h, t_end)
    # q' = -w2 D^(alpha-1) q from rest data: q stays at q0 exactly
    if not (np.all(traj[:, 1] == q0) and np.all(comp[:, 1] == q0)):
        errs.append("osc: numerical trajectory leaves q0")
    if not np.all(traj[:, 2] == 0.0):
        errs.append("osc: velocity is not zero")
    # product integration with linearly interpolated factors is O(h^2)
    qerr = float(np.max(np.abs(comp[:, 2] - q0)))
    if not qerr <= abs(q0) * h * h:
        errs.append(f"osc: |exact - q0| = {qerr:.3e} exceeds |q0| h^2 = {abs(q0) * h * h:.3e}")
    if not np.array_equal(comp[:, 3], np.abs(comp[:, 1] - comp[:, 2])):
        errs.append("osc: abs_error column is not |numerical - exact|")
    for (a, b, z), got in zip(wl.ml_points, ml_values):
        want = refs.ml_series(a, b, z)
        if not abs(got - want) <= 1e-10:
            errs.append(f"ml({a}, {b}, {z:.6g}) = {got!r}, mpmath series gives {want!r}")
    if len(ml_values) != len(wl.ml_points):
        errs.append("ml probe returned the wrong number of values")
    return errs


# ---------------------------------------------------------------------------
# history-linear


def history_linear(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"history-linear:{seed}")
    n = 3
    a = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(n)]
    b = [rng.uniform(-0.6, 0.6) for _ in range(n)]
    q0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    v = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
    av = np.asarray(a)
    qd0 = v - (av @ v) / (av @ av) * av  # a.qdot(0) = 0: D^alpha q(0) vanishes
    lin = _cfg(
        "linear-nd", "lin", _h("lin", tiny), 4.0,
        {"alpha": 0.5, "a": a, "b": b,
         "potential": {"kind": "quadratic", "k": rng.uniform(0.5, 2.0)}},
        {"q": q0, "qdot": [float(x) for x in qd0]},
    )
    red = _cfg(
        "nonlinear-fracosc", "red", _h("red", tiny), 4.0,
        {"alpha": 1.5, "g": rng.uniform(0.5, 2.0), "form": "reduced",
         "K": {"kind": "linear", "k": rng.uniform(0.5, 2.0)}},
        {"q": [rng.uniform(0.5, 1.5)], "qdot": [rng.uniform(-0.5, 0.5)]},
    )
    return Workload("history-linear", [Proc("lin", lin), Proc("red", red)], check_history_linear)


def check_history_linear(wl: Workload, out: Path, _ml) -> list[str]:
    errs = []
    lin, red = (p.config for p in wl.procs)

    # constraint_residual = a.qdot + b.D^alpha q with the L1 sum over q[0..i]
    p = lin["parameters"]
    a, b, alpha = np.array(p["a"]), np.array(p["b"]), p["alpha"]
    n = len(a)
    h = lin["grid"]["h"]
    traj = load_csv(out / "lin_trajectory.csv", _traj_header(n))
    errs += _grid_ok("lin", traj[:, 0], h, lin["grid"]["t_end"])
    q, qd, resid = traj[:, 1 : 1 + n], traj[:, 1 + n : 1 + 2 * n], traj[:, -1]
    want = qd @ a
    mag = np.abs(qd) @ np.abs(a)
    for k in range(n):
        val, m = refs.l1_first_order(q[:, k], h, alpha)
        want += b[k] * val
        mag += abs(b[k]) * m
    # worst-case rounding bound for a sum of i + n terms in any order
    tol = (np.arange(len(q)) + 2 * n + 8) * EPS * mag
    bad = np.nonzero(~(np.abs(resid - want) <= tol))[0]
    if len(bad):
        i = bad[0]
        errs.append(f"lin: constraint_residual[{i}] = {resid[i]!r}, L1 recomputation gives {want[i]!r}")

    # reduced form: xdd = -(1/g) D^(3-alpha) x - k x along the trajectory
    p = red["parameters"]
    g, kk, order = p["g"], p["K"]["k"], 3.0 - p["alpha"]
    h = red["grid"]["h"]
    traj = load_csv(out / "red_trajectory.csv", _traj_header(1))
    errs += _grid_ok("red", traj[:, 0], h, red["grid"]["t_end"])
    x, v = traj[:, 1], traj[:, 2]
    acc = np.diff(v) / h
    d = refs.caputo_from_acceleration(acc, h, order)[:-1]
    r = np.abs(acc + d / g + kk * x[:-1])
    scale = max(1.0, float(np.max(np.abs(acc))), float(np.max(np.abs(kk * x))))
    # node 1 has one panel and no second difference: the scheme takes its
    # history term as zero, so the residual there is that panel's term
    nu = 2.0 - order
    first = h**nu * abs(acc[0]) / (math.gamma(nu + 1.0) * abs(g))
    if not r[1] <= first + h * scale:
        errs.append(f"red: residual at node 1 {r[1]:.3e} exceeds {first + h * scale:.3e}")
    if not float(np.max(r[2:])) <= h * scale:
        errs.append(f"red: reduced-equation residual {np.max(r[2:]):.3e} exceeds h * {scale:.3g}")
    return errs


# ---------------------------------------------------------------------------
# glue-hamilton-pre


def glue_hamilton_pre(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"glue-hamilton-pre:{seed}")
    n = 2
    ham = _cfg(
        "hamilton-linear", "ham", _h("ham", tiny), 2.0,
        {"alpha": 0.5,
         "A": [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(n)],
         "potential": {"kind": "quadratic", "k": rng.uniform(0.5, 2.0)}},
        {"q": [rng.uniform(-1.0, 1.0) for _ in range(n)],
         "p": [rng.uniform(-1.0, 1.0) for _ in range(n)]},
    )
    pre = _cfg(
        "nonlinear-fracosc", "pre", _h("pre", tiny), 2.0,
        {"alpha": 1.5, "g": rng.uniform(0.5, 2.0), "form": "pre",
         "K": {"kind": "cubic", "k": rng.uniform(0.5, 2.0)}},
        {"q": [rng.uniform(0.5, 1.2)], "qdot": [rng.uniform(-0.5, 0.5)]},
    )
    return Workload("glue-hamilton-pre", [Proc("ham", ham), Proc("pre", pre)], check_glue)


def check_glue(wl: Workload, out: Path, _ml) -> list[str]:
    errs = []
    ham, pre = (p.config for p in wl.procs)

    p = ham["parameters"]
    A, k = np.array(p["A"]), p["potential"]["k"]
    n = len(A)
    h, t_end = ham["grid"]["h"], ham["grid"]["t_end"]
    traj = load_csv(out / "ham_trajectory.csv", _traj_header(n))
    errs += _grid_ok("ham", traj[:, 0], h, t_end)
    t, q, pm, resid = traj[:, 0], traj[:, 1 : 1 + n], traj[:, 1 + n : 1 + 2 * n], traj[:, -1]
    q_ex, p_ex = refs.projected_harmonic(A, k, ham["initial"]["q"], ham["initial"]["p"], t)
    z_ex = np.hstack([q_ex, p_ex])
    err = np.linalg.norm(np.hstack([q, pm]) - z_ex, axis=1)
    # the steps are z' = M z with M = [[0, P], [-k I, 0]], P = I - A A^T/|A|^2
    proj = np.eye(n) - np.outer(A, A) / (A @ A)
    M = np.block([[np.zeros((n, n)), proj], [-k * np.eye(n), np.zeros((n, n))]])
    bound = refs.euler_error_bounds(M, h, z_ex)
    # plus rounding: a few ulps of the state per step
    bound += 8.0 * EPS * np.arange(1, len(t) + 1) * float(np.max(np.abs(z_ex)))
    if not np.all(err <= bound):
        i = int(np.argmax(err - bound))
        errs.append(f"ham: distance to the closed form {err[i]:.3e} at node {i} "
                    f"exceeds the Euler bound {bound[i]:.3e}")
    # A.qdot: the program's own column and the step increments of q
    anorm = float(np.linalg.norm(A))
    tol = 8.0 * (n + 2) * EPS * anorm * np.linalg.norm(pm, axis=1)
    if not np.all(np.abs(resid) <= tol):
        errs.append(f"ham: |A.qdot| column reaches {np.max(np.abs(resid)):.3e}, above rounding")
    step = (q[1:] - q[:-1]) @ A / h
    tol_step = tol[:-1] + 2.0 * EPS * (np.abs(q[1:]) + np.abs(q[:-1])) @ np.abs(A) / h
    if not np.all(np.abs(step) <= tol_step):
        errs.append(f"ham: A.(q[i+1]-q[i])/h reaches {np.max(np.abs(step)):.3e}, above rounding")

    # pre form: first integral xdot = xdot(0) - g (D^alpha x + J^(2-alpha) K(x))
    p = pre["parameters"]
    g, kk, alpha = p["g"], p["K"]["k"], p["alpha"]
    h = pre["grid"]["h"]
    traj = load_csv(out / "pre_trajectory.csv", _traj_header(1))
    errs += _grid_ok("pre", traj[:, 0], h, pre["grid"]["t_end"])
    x, v = traj[:, 1], traj[:, 2]
    acc = np.diff(v) / h
    f = refs.caputo_from_acceleration(acc, h, alpha)
    f += refs.fractional_integral_trapezoid(kk * x**3, h, 2.0 - alpha)
    r = np.abs(v - v[0] + g * f)
    scale = max(1.0, float(np.max(np.abs(acc))), float(np.max(np.abs(kk * x**3))))
    # the first two steps are plain Newton steps xdd = -K(x) (the scheme's
    # start-up), which leave up to 2 h max|K| in the first integral
    if not float(np.max(r[1:3])) <= 3.0 * h * scale:
        errs.append(f"pre: start-up residual {np.max(r[1:3]):.3e} exceeds 3 h * {scale:.3g}")
    if not float(np.max(r[3:])) <= h * scale:
        errs.append(f"pre: first-integral residual {np.max(r[3:]):.3e} exceeds h * {scale:.3g}")
    return errs


WORKLOADS = {
    "oracle-osc": oracle_osc,
    "history-linear": history_linear,
    "glue-hamilton-pre": glue_hamilton_pre,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
