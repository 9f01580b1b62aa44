"""Self-check suites: measured errors against documented tolerances.

Each suite returns rows of (name, measured, tolerance, passed, elapsed_s);
the CLI ``verify`` verb prints them as a table and the acceptance tests
assert on them, so both always see the same numbers.  ``elapsed_s`` is the
time a check took: the seconds since the suite's previous row, or since
the suite started.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Iterator, List

import numpy as np

from .constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
    variational_residual,
)
from .errors import FracDomainError
from .fode_solver import (
    IntegratorConfig,
    _sampled,
    integrate_fractional_abm,
    integrate_hamilton,
    integrate_second_order,
)
from .frac_ops import (
    caputo_left,
    caputo_right,
    prop1_shift,
    riemann_liouville_right,
)
from .mittag_leffler import MLParams, ml, ml_decomp_f, ml_decomp_g
from .oscillator_exact import OscillatorSpec, exact_solution
from .series import FracOrder, Grid, SampleSeries

__all__ = ["CheckRow", "SUITES", "run_suite", "format_report"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    measured: float
    tolerance: float
    passed: bool
    # wall time, so left out of comparisons
    elapsed_s: float = field(default=0.0, compare=False)


def _row(name: str, measured: float, tol: float, larger_ok: bool = False) -> CheckRow:
    ok = measured >= tol if larger_ok else measured <= tol
    return CheckRow(name, float(measured), float(tol), bool(ok))


def _timed(suite: Callable[[], Iterator[CheckRow]]) -> Callable[[], List[CheckRow]]:
    """The suite's rows as a list, each with the seconds it took to yield."""

    @functools.wraps(suite)
    def run() -> List[CheckRow]:
        rows = []
        last = time.perf_counter()
        for row in suite():
            now = time.perf_counter()
            rows.append(replace(row, elapsed_s=now - last))
            last = now
        return rows

    return run


# ---------------------------------------------------------------------------
# special functions

@_timed
def suite_mittag_leffler() -> Iterator[CheckRow]:
    zs = np.linspace(-5.0, 5.0, 41)
    e11 = max(abs(ml(MLParams(1.0, 1.0), z) - math.exp(z)) for z in zs)
    yield _row("E_{1,1}(z) = exp(z) on [-5,5]", e11, 1e-10)
    ts = np.linspace(0.0, 10.0, 41)
    e21 = max(abs(ml(MLParams(2.0, 1.0), -t * t) - math.cos(t)) for t in ts)
    yield _row("E_{2,1}(-t^2) = cos(t) on [0,10]", e21, 1e-10)
    e12 = max(
        abs(ml(MLParams(1.0, 2.0), z) - (math.exp(z) - 1.0) / z)
        for z in zs
        if z != 0.0
    )
    yield _row("E_{1,2}(z) = (exp(z)-1)/z on [-5,5]", e12, 1e-10)

    worst = 0.0
    for alpha in (1.25, 1.5, 1.75):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            lhs = ml(MLParams(alpha, 1.0), -(t**alpha))
            rhs = ml_decomp_f(alpha, 0, t) + ml_decomp_g(alpha, 0, t)
            worst = max(worst, abs(lhs - rhs))
    yield _row("decomposition E = f + g, alpha in {1.25,1.5,1.75}", worst, 1e-6)

    for alpha in (1.25, 1.5, 1.75):
        tt = np.geomspace(50.0, 500.0, 9)
        vals = np.array([abs(ml(MLParams(alpha, 1.0), -(t**alpha))) for t in tt])
        slope = np.polyfit(np.log(tt), np.log(vals), 1)[0]
        yield _row(f"tail slope alpha={alpha}", abs(slope + alpha), 0.05)
        ratio = max(
            abs(ml_decomp_g(alpha, 0, t))
            / ((2.0 / alpha) * math.exp(t * math.cos(math.pi / alpha)))
            for t in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
        )
        yield _row(f"|g| within envelope alpha={alpha}", ratio, 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# operators

def _ladder_order(errs: List[float]) -> float:
    orders = [
        math.log2(errs[i] / errs[i + 1])
        for i in range(len(errs) - 1)
        if errs[i] > 0 and errs[i + 1] > 0
    ]
    return min(orders) if orders else float("nan")


@_timed
def suite_operators() -> Iterator[CheckRow]:
    hs = [1 / 256, 1 / 512, 1 / 1024, 1 / 2048, 1 / 4096]

    # product-trapezoidal path: D^0.5 t^3 from exact derivative samples
    errs = []
    for h in hs:
        g = Grid.from_step(0.0, 1.0, h)
        t = g.nodes()
        fm = SampleSeries(g, 3.0 * t**2)
        num = caputo_left(fm, FracOrder(0.5)).values
        ref = math.gamma(4.0) / math.gamma(3.5) * t**2.5
        errs.append(float(np.max(np.abs(num - ref))))
    yield (
        _row("power rule order, product-trapezoidal alpha=0.5", _ladder_order(errs), 1.8, larger_ok=True)
    )

    # L1 history path, both order ranges
    for alpha, p in ((0.5, 2.0), (1.5, 3.0)):
        errs = []
        for h in hs:
            g = Grid.from_step(0.0, 1.0, h)
            t = g.nodes()
            num = _sampled(g, t**p).caputo_q_series(alpha)[:, 0]
            ref = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha) * t ** (p - alpha)
            errs.append(float(np.max(np.abs(num[1:] - ref[1:]))))
        yield (
            _row(
                f"power rule order, L1 alpha={alpha}",
                _ladder_order(errs),
                2.0 - alpha - 0.1 if alpha < 1.0 else 0.4,
                larger_ok=True,
        )
        )

    # right-sided operators on (1 - t)^p, the power rule mirrored:
    # D_right^alpha (1 - t)^p = Gamma(p+1)/Gamma(p+1-alpha) (1 - t)^(p-alpha)
    for name, alpha, p in (("Caputo", 0.5, 3.0), ("Riemann-Liouville", 0.5, 2.0),
                           ("Riemann-Liouville", 1.5, 3.0)):
        order = FracOrder(alpha)
        errs = []
        for h in hs:
            g = Grid.from_step(0.0, 1.0, h)
            s = 1.0 - g.nodes()
            if name == "Caputo":
                # samples of f^(m), m = 1
                num = caputo_right(SampleSeries(g, -p * s ** (p - 1.0)), order).values
            else:
                num = riemann_liouville_right(SampleSeries(g, s**p), order).values
            ref = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha) * s ** (p - alpha)
            # the outer differences of Riemann-Liouville are one-sided at the ends
            inner = (s > 0.05) & (s < 0.95)
            errs.append(float(np.max(np.abs(num[inner] - ref[inner]))))
        yield _row(
            f"power rule order, right {name} alpha={alpha}", _ladder_order(errs), 1.8, larger_ok=True
        )

    # derivative-shift identity d/dt D^a f = D^(a+1) f + prop1_shift at both
    # orders; t^3 has f^(m)(0) = 0, the other two carry the startup term
    for label, alpha, f, fm0 in (
        ("t^3", 0.5, lambda t: t**3, 0.0),
        ("t^3", 1.5, lambda t: t**3, 0.0),
        ("t+t^3", 0.5, lambda t: t + t**3, 1.0),
        ("t^2+t^3", 1.5, lambda t: t**2 + t**3, 2.0),
    ):
        resids = []
        for h in (1 / 512, 1 / 1024, 1 / 2048, 1 / 4096):
            g = Grid.from_step(0.0, 1.5, h)
            t = g.nodes()
            hist = _sampled(g, f(t))
            lhs = np.gradient(hist.caputo_q_series(alpha)[:, 0], h)
            if alpha < 1.0:
                rhs_v = hist.caputo_q_series(alpha + 1.0)[:, 0]
            else:
                # alpha + 1 >= 2: use the exact power rule for the comparison
                # (D^(alpha+1) of t and t^2 is zero)
                rhs_v = math.gamma(4.0) / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
            k = round(1.0 / h)
            shift = prop1_shift(FracOrder(alpha), fm0, t[k])
            resids.append(abs(float(lhs[k] - (rhs_v[k] + shift))))
        mono = all(resids[i + 1] < resids[i] for i in range(len(resids) - 1))
        yield _row(f"shift identity {label} alpha={alpha}, residual at t=1", resids[-1], 1e-2)
        # the t^3 rows keep their established names
        tag = "" if label == "t^3" else f"{label} "
        yield _row(f"shift identity {tag}alpha={alpha} refinement monotone", 0.0 if mono else 1.0, 0.5)


# ---------------------------------------------------------------------------
# oscillator chain

def _chain_run(h: float):
    s = SystemSpec(
        grad_potential=lambda q: np.zeros(1),
        constraint=ConstraintSpec.linear([1.0], [1.0], FracOrder(1.5)),
        q_init=[1.0],
        qdot_init=[0.0],
    )
    cfg = IntegratorConfig(h=h, t_end=10.0)
    res = integrate_second_order(rhs_linear(s), (s.q_init, s.qdot_init), cfg)
    spec = OscillatorSpec.from_initial_data(alpha=2.5, omega2=1.0, q0=1.0, qp0=0.0)
    ex = exact_solution(spec, res.grid)
    return float(np.max(np.abs(res.q[:, 0] - ex.values)))


def _abm_error(beta: float, h: float) -> float:
    """max |q - exact| of the fractional Adams run of D^beta q + q = 0 from
    q(0) = 1, qdot(0) = 0.5 up to t = 5."""
    cfg = IntegratorConfig(h=h, t_end=5.0)
    res = integrate_fractional_abm(beta, lambda t, x: -x, [1.0, 0.5], cfg)
    spec = OscillatorSpec(alpha=beta + 1.0, omega2=1.0, q0=1.0, qp0=0.5, power_amp=0.0)
    return float(np.max(np.abs(res.q[:, 0] - exact_solution(spec, res.grid).values)))


@_timed
def suite_oscillator() -> Iterator[CheckRow]:
    # rest data: the constrained run and the oracle both stay at q0
    yield _row("1d chain vs exact solution, h=1/2048", _chain_run(1.0 / 2048), 1e-12)
    errs = [[_abm_error(beta, 1.0 / k) for k in (100, 200, 400, 800)] for beta in (1.3, 1.5, 1.8)]
    yield _row("fractional Adams vs exact solution, h=1/800", max(e[-1] for e in errs), 1e-6)
    order = min(_ladder_order(e) for e in errs)
    yield _row("fractional Adams order vs exact solution", order, 1.8, larger_ok=True)


# ---------------------------------------------------------------------------
# constrained dynamics

def _preservation_ratio(sys: SystemSpec, t_end: float, h: float) -> float:
    out = []
    for step in (h, h / 2.0):
        rr = rhs_linear(sys)
        cfg = IntegratorConfig(h=step, t_end=t_end)
        res = integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)
        out.append(float(np.nanmax(np.abs(res.residual))))
    return out[0] / out[1]


def _quad_sys(a, b, q0, qd0, alpha: float = 0.5) -> SystemSpec:
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec.linear(a, b, FracOrder(alpha)),
        q_init=q0,
        qdot_init=qd0,
    )


@_timed
def suite_constraints() -> Iterator[CheckRow]:
    target = 2.0**0.75 - 0.05
    for name, a, b, q0, qd0 in (
        ("linear-nd n=2", [1.0, 2.0], [0.5, -0.3], [1.0, 0.5], [2.0, -1.0]),
        ("linear-nd n=3", [1.0, 2.0, -1.0], [0.5, -0.3, 0.2], [1.0, 0.5, -0.5], [2.0, -1.5, -1.0]),
        ("case2-2d", [1.0, 1.0], [0.0, 0.5], [1.0, 0.5], [1.0, -1.0]),
    ):
        ratio = _preservation_ratio(_quad_sys(a, b, q0, qd0), 2.0, 1 / 400)
        yield _row(f"preservation ratio {name}", ratio, target, larger_ok=True)

    # classical limit b = 0: free direction is a plain oscillator
    sysb0 = _quad_sys([1.0, 0.0], [0.0, 0.0], [0.3, 1.0], [0.0, 0.0])
    cfg = IntegratorConfig(h=1e-3, t_end=10.0, scheme="velocity-verlet")
    res = integrate_second_order(rhs_linear(sysb0), (sysb0.q_init, sysb0.qdot_init), cfg)
    t = res.grid.nodes()
    yield (
        _row("classical limit b=0: cos-t trajectory", float(np.max(np.abs(res.q[:, 1] - np.cos(t)))), 1e-4)
    )
    energy = 0.5 * np.sum(res.qdot**2, axis=1) + 0.5 * np.sum(res.q**2, axis=1)
    yield (
        _row("unconstrained energy drift, T=10, h=1e-3", float(np.max(np.abs(energy - energy[0]))), 1e-6)
    )

    # Hamilton form vs Lagrange form with constant A, from one system: its
    # qdot_init is p(0) in the Hamilton form
    sysA = _quad_sys([1.0, 2.0], [0.0, 0.0], [1.0, 0.5], [2.0, -1.0])

    def run_h(h):
        return integrate_hamilton(
            hamilton_rhs(sysA), (sysA.q_init, sysA.qdot_init), IntegratorConfig(h=h, t_end=5.0)
        )

    def run_l(h):
        return integrate_second_order(
            rhs_linear(sysA), (sysA.q_init, sysA.qdot_init), IntegratorConfig(h=h, t_end=5.0)
        )

    h1, h2 = run_h(1e-3), run_h(5e-4)
    l1, l2 = run_l(1e-3), run_l(5e-4)
    self_tol = max(
        float(np.max(np.abs(h2.q[::2] - h1.q))), float(np.max(np.abs(l2.q[::2] - l1.q)))
    )
    cross = float(np.max(np.abs(h1.q - l1.q)))
    yield _row("hamilton vs lagrange / solver tolerance", cross / self_tol, 5.0)

    # the Hamilton output of f = A(q).qdot, A = (1 + 0.1 q_2, 0.5), with
    # qdot = p - mu A, solves the variational equations: their residual
    # over the middle 80% of nodes converges
    def A(q, *_):
        return np.array([1.0 + 0.1 * q[1], 0.5])

    cq = ConstraintSpec(FracOrder(0.5), lambda q, qd, dl: float(A(q) @ qd),
                        lambda q, qd, dl: np.array([0.0, 0.1 * qd[0]]), A, lambda *_: np.zeros(2))
    sysq, errs = SystemSpec(lambda q: q, cq, [1.0, 0.0], [0.0, 1.0]), []
    for k in (200, 400, 800, 1600):
        cfg = IntegratorConfig(h=1.0 / k, t_end=2.0)
        res = integrate_hamilton(hamilton_rhs(sysq), (sysq.q_init, sysq.qdot_init), cfg)
        traj = replace(res, qdot=res.qdot - res.multiplier[:, None] * [A(q) for q in res.q])
        resid = variational_residual(traj, SampleSeries(res.grid, res.multiplier), sysq)
        mid = slice(res.grid.n_nodes // 10, -(res.grid.n_nodes // 10))
        errs.append(max(float(np.max(np.abs(r.values[mid]))) for r in resid))
    yield _row("hamilton vs variational residual", _ladder_order(errs), 0.9, larger_ok=True)

    # closed-form pairs of the variational equations with b != 0 (U = 0,
    # a = (1, 0), b = (0, 1), mu = (T - t)^k, T = 2): q_1 = (T - t)^(k+1)/(k+1)
    # and q_2 = Gamma(k+1) (T - t)^(k+2-alpha)/Gamma(k+3-alpha), whose q_2''
    # is D^alpha_(T-) mu, singular at the last node; k = 3 keeps it bounded
    # for alpha = 1.5
    for alpha, k, floor in ((0.5, 2, 1.0), (1.5, 3, 0.9)):
        cv = ConstraintSpec.linear([1.0, 0.0], [0.0, 1.0], FracOrder(alpha))
        sysv = SystemSpec(lambda q: np.zeros(2), cv, [0.0, 0.0], [0.0, 0.0])
        c, errs = math.gamma(k + 1) / math.gamma(k + 3 - alpha), []
        for steps in (200, 400, 800):
            g = Grid(0.0, 2.0, steps)
            s = 2.0 - g.nodes()
            traj = SimpleNamespace(
                grid=g, q=np.column_stack([s ** (k + 1) / (k + 1), c * s ** (k + 2 - alpha)]),
                qdot=np.column_stack([-(s**k), -(k + 2 - alpha) * c * s ** (k + 1 - alpha)]))
            resid = variational_residual(traj, SampleSeries(g, s**k), sysv)
            errs.append(float(np.max(np.abs(resid[1].values[1:-1]))))
        name = f"variational residual, closed form, alpha={alpha}"
        yield _row(name, _ladder_order(errs), floor, larger_ok=True)

    # nonlinear oscillator: pre-reduction vs reduced form
    def run_n(h, form):
        rr = rhs_nonlinear_frac_oscillator(1.0, lambda x: x, FracOrder(1.5), form=form)
        return integrate_second_order(rr, ([1.0], [0.0]), IntegratorConfig(h=h, t_end=5.0))

    red, pre = run_n(1 / 400, "reduced"), run_n(1 / 400, "pre")
    red2 = run_n(1 / 800, "reduced")
    self_tol = float(np.max(np.abs(red2.q[::2, 0] - red.q[:, 0])))
    agree = float(np.max(np.abs(red.q[:, 0] - pre.q[:, 0])))
    yield _row("nonlinear pre vs reduced / solver tolerance", agree / self_tol, 5.0)


SUITES: dict[str, Callable[[], List[CheckRow]]] = {
    "operators": suite_operators,
    "mittag-leffler": suite_mittag_leffler,
    "oscillator": suite_oscillator,
    "constraints": suite_constraints,
}


def run_suite(name: str) -> List[CheckRow]:
    if name == "all":
        rows = []
        for fn in SUITES.values():
            rows.extend(fn())
        return rows
    if name not in SUITES:
        raise FracDomainError(f"unknown suite {name!r}; choose from "
                              f"{sorted(SUITES)} or 'all'")
    return SUITES[name]()


def format_report(rows: List[CheckRow]) -> str:
    width = max(len(r.name) for r in rows) + 2
    lines = []
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        line = (
            f"{r.name:<{width}} measured={r.measured:.6e}  tol={r.tolerance:.3e}  "
            f"{r.elapsed_s:7.3f}s  {mark}"
        )
        if not r.passed:
            line = ">>> " + line
        lines.append(line)
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"{len(rows)} checks, {n_fail} failed")
    slow = max(rows, key=lambda r: r.elapsed_s)
    lines.append(f"slowest check: {slow.name} ({slow.elapsed_s:.3f}s)")
    return "\n".join(lines)
