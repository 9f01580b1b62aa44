"""Command-line front end: run named scenarios, verify, convergence tables.

Configs are JSON.  Example (linear constraint in n dimensions):

    {
      "scenario": "linear-nd",
      "grid": {"h": 0.0025, "t_end": 2.0},
      "scheme": "semi-implicit-euler",
      "parameters": {"alpha": 0.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                     "potential": {"kind": "quadratic", "k": 1.0}},
      "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
      "output": {"prefix": "lin2"}
    }

Data CSVs are deterministic (no timestamps); the JSON summary keeps wall
time and the per-phase ``timings`` in their own fields so everything else
can be hashed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
)
from .errors import (
    AccuracyLossError,
    ConfigError,
    ConstraintViolationError,
    DivergenceError,
    SingularConstraintError,
)
from .fode_solver import (
    _SCHEMES,
    IntegratorConfig,
    SimulationResult,
    convergence_study,
    integrate_hamilton,
    integrate_second_order,
)
from .oscillator_exact import OscillatorSpec, exact_solution
from .series import FracOrder, Grid, SampleSeries

SCENARIOS = (
    "oscillator-1d",
    "linear-nd",
    "case1-2d",
    "case1-2d-b2zero",
    "case2-2d",
    "nonlinear-fracosc",
    "hamilton-linear",
)

# most steps a grid may have: a run allocates its state rows up front
_MAX_STEPS = 2**31
# the order of hamilton-linear's constraint: ConstraintSpec needs one, but
# the Hamilton form carries no fractional memory and never reads it, so
# the scenario takes no parameters.alpha (a config that gives one runs alike)
_HAMILTON_ORDER = FracOrder(0.5)

# ---------------------------------------------------------------------------
# configuration

def _number(v, name: str) -> float:
    """A finite float from a JSON value (JSON admits NaN and Infinity)."""
    x = math.nan
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            pass
    if not math.isfinite(x):
        raise ConfigError(name, "must be a finite number")
    return x


def _require(d: dict, key: str, kind, path: str, default=None):
    """``d[key]`` checked against ``kind``; ``default``, when given, stands
    in for a missing key."""
    name = f"{path}.{key}" if path else key
    if key not in d:
        if default is not None:
            return default
        raise ConfigError(name, "missing")
    v = d[key]
    if kind is float:
        return _number(v, name)
    if kind is list:
        if not isinstance(v, list):
            raise ConfigError(name, "must be a number list")
        return [_number(x, name) for x in v]
    if not isinstance(v, kind):
        raise ConfigError(name, f"must be {kind.__name__}")
    return v


def _velocity_key(scenario: str) -> str:
    """The ``initial`` key of the velocity vector: p in the Hamilton form."""
    return "p" if scenario == "hamilton-linear" else "qdot"


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    h: float
    t_end: float
    scheme: str = "semi-implicit-euler"
    parameters: dict = field(default_factory=dict)
    q: tuple = ()
    qdot: tuple = ()
    prefix: str = "run"

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", "config root must be an object")
        scenario = _require(raw, "scenario", str, "")
        if scenario not in SCENARIOS:
            raise ConfigError("scenario", f"unknown id {scenario!r}")
        grid = _require(raw, "grid", dict, "")
        h = _require(grid, "h", float, "grid")
        t_end = _require(grid, "t_end", float, "grid")
        if h <= 0.0:
            raise ConfigError("grid.h", "must be positive")
        if t_end <= 0.0:
            raise ConfigError("grid.t_end", "must be positive")
        if h > t_end:
            raise ConfigError("grid.h", "must not exceed grid.t_end")
        if not t_end / h <= _MAX_STEPS:
            raise ConfigError("grid.h", f"gives more than {_MAX_STEPS} steps")
        scheme = raw.get("scheme", "semi-implicit-euler")
        if scheme not in _SCHEMES:
            raise ConfigError("scheme", f"unknown scheme {scheme!r}")
        params = raw.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError("parameters", "must be an object")
        init = raw.get("initial", {})
        if not isinstance(init, dict):
            raise ConfigError("initial", "must be an object")
        q = tuple(_require(init, "q", list, "initial")) if "q" in init else ()
        qd_key = _velocity_key(scenario)
        qdot = (
            tuple(_require(init, qd_key, list, "initial")) if qd_key in init else ()
        )
        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("output", "must be an object")
        prefix = out.get("prefix", "run")
        # artifacts are <out>/<prefix>_*.csv: a separator would leave --out
        if (
            not isinstance(prefix, str) or not prefix
            or Path(prefix).name != prefix or "\0" in prefix
        ):
            raise ConfigError("output.prefix", "must be a single path component")
        return cls(scenario, h, t_end, scheme, dict(params), q, qdot, prefix)


def _param(cfg: ScenarioConfig, key: str, kind=float, default=None):
    return _require(cfg.parameters, key, kind, "parameters", default)


def _grad_potential(cfg: ScenarioConfig, n: int):
    sel = cfg.parameters.get("potential", {"kind": "zero"})
    if not isinstance(sel, dict) or "kind" not in sel:
        raise ConfigError("parameters.potential", "needs a 'kind' field")
    kind = sel["kind"]
    if kind == "zero":
        return lambda q: np.zeros(n)
    k = _require(sel, "k", float, "parameters.potential", 1.0)
    if kind == "quadratic":
        kv = np.full(n, k)  # a vector: numpy then converts no Python float per call
        return lambda q: kv * np.asarray(q)
    if kind == "quadratic-q1":
        def grad(q):
            g = np.zeros(n)
            g[0] = k * q[0]
            return g

        return grad
    raise ConfigError("parameters.potential.kind", f"unknown kind {kind!r}")


def _kfun(cfg: ScenarioConfig):
    sel = cfg.parameters.get("K", {"kind": "linear", "k": 1.0})
    if not isinstance(sel, dict) or "kind" not in sel:
        raise ConfigError("parameters.K", "needs a 'kind' field")
    k = _require(sel, "k", float, "parameters.K", 1.0)
    if sel["kind"] == "linear":
        return lambda x: k * x
    if sel["kind"] == "cubic":

        def cubic(x):
            x = float(x)  # a Python float raises on overflow, numpy's warns
            try:
                return k * x**3
            except OverflowError:
                # past the float range: inf, which the stepper reports
                return k * math.copysign(math.inf, x)

        return cubic
    raise ConfigError("parameters.K.kind", f"unknown kind {sel['kind']!r}")


def _init_vectors(cfg: ScenarioConfig, n: int):
    q = cfg.q if cfg.q else (0.0,) * n
    qd = cfg.qdot if cfg.qdot else (0.0,) * n
    if len(q) != n:
        raise ConfigError("initial.q", f"needs length {n}")
    if len(qd) != n:
        raise ConfigError(f"initial.{_velocity_key(cfg.scenario)}", f"needs length {n}")
    return np.array(q), np.array(qd)


# ---------------------------------------------------------------------------
# scenario construction

@dataclass
class RunPlan:
    execute: Callable[[IntegratorConfig], SimulationResult]
    oracle: Optional[Callable[[np.ndarray], np.ndarray]] = None  # q_1 reference


def _stepped(cfg: ScenarioConfig, rr, integrate, init) -> RunPlan:
    """The plan that runs ``integrate(rr, init, icfg)``.  A scheme that
    ``rr.schemes`` does not name is refused here, before any file is
    written."""
    if cfg.scheme not in rr.schemes:
        allowed = " or ".join(map(repr, rr.schemes))
        raise ConfigError("scheme", f"this configuration steps only by {allowed}")
    return RunPlan(lambda icfg: integrate(rr, init, icfg))


def _frac_order(cfg: ScenarioConfig, key: str = "alpha", lo=0.0, hi=2.0) -> FracOrder:
    alpha = _param(cfg, key)
    if not lo < alpha < hi or FracOrder(alpha).is_integer:
        raise ConfigError(
            f"parameters.{key}", f"must be non-integer in ({lo}, {hi}), got {alpha}"
        )
    return FracOrder(alpha)


def _constraint(a, b, order: FracOrder, key: str) -> ConstraintSpec:
    """The linear constraint a.qdot + b.D^alpha q; ``key`` names a."""
    try:
        return ConstraintSpec.linear(a, b, order)
    except SingularConstraintError as exc:
        raise ConfigError(key, "must give a |a|^2 that neither underflows nor overflows") from exc


def _system(cfg: ScenarioConfig, constraint: ConstraintSpec) -> SystemSpec:
    n = len(constraint.a)
    grad = _grad_potential(cfg, n)
    return SystemSpec(grad, constraint, *_init_vectors(cfg, n))


def _linear_plan(cfg: ScenarioConfig, constraint: ConstraintSpec) -> RunPlan:
    sys = _system(cfg, constraint)
    try:
        rr = rhs_linear(sys)
    except ConstraintViolationError as exc:
        raise ConfigError("initial.qdot", str(exc)) from exc
    return _stepped(cfg, rr, integrate_second_order, (sys.q_init, sys.qdot_init))


def _oscillator(q0: float, v0: float, k: float, t: np.ndarray) -> np.ndarray:
    """q(t) of q'' = -k q from (q0, v0), for every sign of k."""
    w = math.sqrt(abs(k))
    if k > 0.0:
        return q0 * np.cos(w * t) + v0 / w * np.sin(w * t)
    if k < 0.0:
        return q0 * np.cosh(w * t) + v0 / w * np.sinh(w * t)
    return q0 + v0 * t


def build_plan(cfg: ScenarioConfig) -> RunPlan:
    sc = cfg.scenario
    if sc == "oscillator-1d":
        alpha = _param(cfg, "alpha")
        # the constraint's order is alpha - 1
        if not 2.0 < alpha < 3.0 or FracOrder(alpha - 1.0).is_integer:
            raise ConfigError("parameters.alpha", "oscillator-1d needs non-integer 2 < alpha < 3")
        omega2 = _param(cfg, "omega2", default=1.0)
        if omega2 <= 0.0:
            raise ConfigError("parameters.omega2", "must be positive")
        plan = _linear_plan(cfg, ConstraintSpec.linear([1.0], [omega2], FracOrder(alpha - 1.0)))
        q0, qd0 = _init_vectors(cfg, 1)
        spec = OscillatorSpec.from_initial_data(
            alpha=alpha, omega2=omega2, q0=q0[0], qp0=qd0[0]
        )

        def oracle(grid):
            return exact_solution(spec, grid).values

        plan.oracle = oracle
        return plan
    if sc == "linear-nd":
        a = _param(cfg, "a", list)
        b = _param(cfg, "b", list)
        if len(a) != len(b) or not a:
            raise ConfigError("parameters.b", "a and b need equal nonzero length")
        return _linear_plan(cfg, _constraint(a, b, _frac_order(cfg), "parameters.a"))
    if sc in ("case1-2d", "case1-2d-b2zero"):
        a2 = _param(cfg, "a2", default=1.0)
        b1 = _param(cfg, "b1", default=1.0)
        b2 = 0.0 if sc == "case1-2d-b2zero" else _param(cfg, "b2", default=0.0)
        order = _frac_order(cfg)
        plan = _linear_plan(cfg, _constraint([0.0, a2], [b1, b2], order, "parameters.a2"))
        sel = cfg.parameters.get("potential", {})
        if sc == "case1-2d-b2zero" and sel.get("kind") == "quadratic-q1":
            # the q1 motion decouples and is classical
            k = _require(sel, "k", float, "parameters.potential", 1.0)
            q0, qd0 = _init_vectors(cfg, 2)
            plan.oracle = lambda grid: _oscillator(q0[0], qd0[0], k, grid.nodes())
        return plan
    if sc == "case2-2d":
        c = _param(cfg, "c", default=1.0)
        b2 = _param(cfg, "b2", default=1.0)
        return _linear_plan(cfg, _constraint([c, c], [0.0, b2], _frac_order(cfg), "parameters.c"))
    if sc == "nonlinear-fracosc":
        g = _param(cfg, "g")
        if g == 0.0:
            raise ConfigError("parameters.g", "must be nonzero")
        order = _frac_order(cfg, lo=1.0, hi=2.0)
        form = cfg.parameters.get("form", "reduced")
        if form not in ("reduced", "pre"):
            raise ConfigError("parameters.form", f"unknown form {form!r}")
        kf = _kfun(cfg)
        q0, qd0 = _init_vectors(cfg, 1)
        rr = rhs_nonlinear_frac_oscillator(g, kf, order, form=form)
        return _stepped(cfg, rr, integrate_second_order, (q0, qd0))
    if sc == "hamilton-linear":
        avec = _param(cfg, "A", list)
        # f = A.qdot: A is constant, and the system's qdot_init is p(0)
        sys = _system(cfg, _constraint(avec, np.zeros(len(avec)), _HAMILTON_ORDER, "parameters.A"))
        try:
            rr = hamilton_rhs(sys)
        except SingularConstraintError as exc:
            raise ConfigError("parameters.A", str(exc)) from exc
        return _stepped(cfg, rr, integrate_hamilton, (sys.q_init, sys.qdot_init))
    raise ConfigError("scenario", f"unknown id {sc!r}")


# ---------------------------------------------------------------------------
# artifacts

def _write_csv(path: Path, header: list, columns: list) -> None:
    """Write the header and one row per node; ``columns`` are vectors or
    (nodes, k) arrays, every value formatted as '%.17g'.  Rows become
    Python floats 512 at a time, so that copy of the data stays small."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), 512):
            rows = np.column_stack([c[i : i + 512] for c in columns]).tolist()
            template = ",".join(["%.17g"] * len(rows[0])) + "\n"
            fh.writelines(template % tuple(r) for r in rows)


def write_trajectory_csv(path: Path, res: SimulationResult, n: int) -> None:
    """Write t, q_1..q_n, qdot_1..qdot_n, lambda and the residual; ``n`` is
    the width of ``res.q``."""
    header = (
        ["t"]
        + [f"q_{k + 1}" for k in range(n)]
        + [f"qdot_{k + 1}" for k in range(n)]
        + ["lambda", "constraint_residual"]
    )
    t = res.grid.nodes()
    resid = res.residual if res.residual is not None else np.full(len(t), np.nan)
    _write_csv(path, header, [t, res.q, res.qdot, res.multiplier, resid])


def write_comparison_csv(path: Path, res: SimulationResult, oracle) -> float:
    exact = oracle(res.grid)
    err = np.abs(res.q[:, 0] - exact)
    _write_csv(
        path,
        ["t", "numerical", "exact", "abs_error"],
        [res.grid.nodes(), res.q[:, 0], exact, err],
    )
    return float(np.max(err))


def _summary(cfg: ScenarioConfig, res: SimulationResult, extra: dict, timings: dict) -> dict:
    resid = res.residual
    return {
        "scenario": cfg.scenario,
        "scheme": res.diagnostics["scheme"],  # the scheme that ran
        "h": res.grid.h,
        "t_end": cfg.t_end,
        "max_residual": None
        if resid is None or np.all(np.isnan(resid))
        else float(np.nanmax(np.abs(resid))),
        "final_state": {
            "q": [float(v) for v in res.q[-1]],
            "qdot": [float(v) for v in res.qdot[-1]],
        },
        "diagnostics": res.diagnostics,
        **extra,
        # isolated: excluded when hashing summaries
        "wall_time_s": timings["integrate"],
        "timings": timings,  # seconds spent in plan, integrate, oracle, write
    }


# ---------------------------------------------------------------------------
# verbs

def _load_config(args) -> ScenarioConfig:
    if not args.config:
        raise ConfigError("config", "--config PATH is required")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    # overrides replace config values before validation, which checks both alike
    if isinstance(raw, dict):
        grid = raw.get("grid")
        for key, v in (("h", args.h), ("t_end", args.t_end)):
            if v is not None and isinstance(grid, dict):
                grid[key] = v
        if args.scheme is not None:
            raw["scheme"] = args.scheme
    return ScenarioConfig.from_dict(raw)


def cmd_run(args) -> int:
    clock = time.perf_counter
    start = clock()
    cfg = _load_config(args)
    plan = build_plan(cfg)  # full validation before any file is written
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    icfg = IntegratorConfig(h=cfg.h, t_end=cfg.t_end, scheme=cfg.scheme)
    timings = {"plan": clock() - start, "integrate": 0.0, "oracle": 0.0, "write": 0.0}
    start = clock()
    res = plan.execute(icfg)
    timings["integrate"] = clock() - start
    start = clock()
    traj = out_dir / f"{cfg.prefix}_trajectory.csv"
    write_trajectory_csv(traj, res, res.q.shape[1])
    extra = {}
    if plan.oracle is not None:

        def oracle(grid):
            t0 = clock()
            exact = plan.oracle(grid)
            timings["oracle"] += clock() - t0
            return exact

        comp = out_dir / f"{cfg.prefix}_comparison.csv"
        extra["max_abs_error_vs_exact"] = write_comparison_csv(comp, res, oracle)
        extra["comparison_csv"] = comp.name
    timings["write"] = clock() - start - timings["oracle"]
    summary = _summary(cfg, res, extra, timings)
    (out_dir / f"{cfg.prefix}_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    if not args.quiet:
        print(f"wrote {traj}")
        if "max_abs_error_vs_exact" in extra:
            print(f"max |numerical - exact| = {extra['max_abs_error_vs_exact']:.6e}")
    return 0


def cmd_verify(args) -> int:
    from .verification import format_report, run_suite

    rows = run_suite(args.suite)
    if not args.quiet:
        print(format_report(rows))
    return 0 if all(r.passed for r in rows) else 4


def _parse_ladder(text: str, t_end: float, nest: bool):
    """The ladder's steps.  Their grids must differ, and with ``nest`` each
    must be a subgrid of the self-convergence reference grid, which has
    half the finest step."""
    out = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        num, _, den = part.partition("/")
        try:
            h = float(num) / float(den or 1)
        except (ValueError, ZeroDivisionError):
            h = math.nan
        if not (0.0 < h <= t_end and t_end / h <= _MAX_STEPS):
            msg = f"is not a step in (0, grid.t_end] of at most {_MAX_STEPS} steps"
            raise ConfigError("ladder", f"rung {part!r} {msg}")
        out.append(h)
    if len(out) < 3:
        raise ConfigError("ladder", "ladder must have at least 3 rungs")
    steps = [IntegratorConfig(h=h, t_end=t_end).grid().n_steps for h in out]
    if len(set(steps)) < len(steps):
        raise ConfigError("ladder", "two rungs give the same grid")
    if nest:
        ref_steps = IntegratorConfig(h=min(out) / 2.0, t_end=t_end).grid().n_steps
        if any(ref_steps % n for n in steps):
            raise ConfigError("ladder", "rung grids do not nest in the reference grid")
    return out


def cmd_convergence(args) -> int:
    cfg = _load_config(args)
    plan = build_plan(cfg)
    ladder = _parse_ladder(args.ladder, cfg.t_end, nest=plan.oracle is None)

    def run(h: float) -> SampleSeries:
        res = plan.execute(IntegratorConfig(h=h, t_end=cfg.t_end, scheme=cfg.scheme))
        return res.q_series(0)

    reference = None
    if plan.oracle is not None:
        # convergence_study hands over node times, the oracle wants a grid
        def reference(ts):
            return plan.oracle(Grid(0.0, float(ts[-1]), len(ts) - 1))

    rows = convergence_study(run, ladder, reference)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.prefix}_convergence.csv"
    keys = ["h", "error", "order"]
    _write_csv(path, keys, [[r[k] for r in rows] for k in keys])
    if not args.quiet:
        for r in rows:
            print(f"h={r['h']:.6g}  error={r['error']:.6e}  order={r['order']:.3f}")
        print(f"wrote {path}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``main`` may run many times in one
    process, and building it costs more than rejecting a config."""
    parser = argparse.ArgumentParser(
        prog="fracdyn", description="fractional constrained-dynamics scenarios"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config (JSON)")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument("--h", type=float, help="override grid.h")
        p.add_argument("--t-end", dest="t_end", type=float, help="override grid.t_end")
        p.add_argument("--scheme", help="override integration scheme")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run a scenario, write CSV + JSON artifacts")
    common(p_run)
    p_ver = sub.add_parser("verify", help="run a self-check suite")
    p_ver.add_argument(
        "suite",
        choices=["operators", "mittag-leffler", "oscillator", "constraints", "all"],
    )
    p_ver.add_argument("--quiet", action="store_true")
    p_conv = sub.add_parser("convergence", help="emit an (h, error, order) table")
    common(p_conv)
    p_conv.add_argument(
        "--ladder",
        default="1/256,1/512,1/1024",
        help="comma list of step sizes (fractions like 1/256 allowed)",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "run":
            return cmd_run(args)
        if args.verb == "verify":
            return cmd_verify(args)
        return cmd_convergence(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
