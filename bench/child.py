"""Run one ``fracdyn run`` in this process with its layers timed from outside.

Usage: python3 bench/child.py RECORD.json TRACE run --config ... --out ...

The script imports ``fracdyn.cli``, wraps public entry points and then calls
``fracdyn.cli.main`` with the remaining arguments.  It always times the
import, ``build_plan``, ``RunPlan.execute`` and the two CSV writers.  With
TRACE = 1 it also wraps the layers below: the RHS objects behind a
forwarding proxy, the L1 history sums in ``frac_ops``, ``exact_solution``
and ``ml``.  The timings go to RECORD.json when ``main`` returns.

Cross-process stamps use ``time.monotonic``, which on Linux reads
CLOCK_MONOTONIC, the same clock the parent reads before it spawns us.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

pc = time.perf_counter


class Tracer:
    """Self times and counts of the layers below ``RunPlan.execute``."""

    def __init__(self) -> None:
        self.s = defaultdict(float)
        self.n = defaultdict(int)
        self.in_rhs = False
        self.in_exact = False
        self.stamps: list[float] = []

    def frac_ops(self, fn, count_terms: bool):
        def wrapped(q, *args):
            t0 = pc()
            out = fn(q, *args)
            dt = pc() - t0
            self.s["frac_ops_in_rhs" if self.in_rhs else "frac_ops_out_rhs"] += dt
            if count_terms:
                self.n["l1_calls"] += 1
                self.n["l1_terms"] += max(len(q) - 1, 0)
            return out

        return wrapped

    def ml(self, fn):
        def wrapped(params, z):
            t0 = pc()
            out = fn(params, z)
            dt = pc() - t0
            self.s["ml"] += dt
            if self.in_exact:
                self.s["ml_in_exact"] += dt
            self.n["ml_calls"] += 1
            return out

        return wrapped

    def exact(self, fn):
        def wrapped(spec, grid):
            t0 = pc()
            self.in_exact = True
            try:
                return fn(spec, grid)
            finally:
                self.in_exact = False
                self.s["exact"] += pc() - t0

        return wrapped

    def rhs_factory(self, fn):
        def wrapped(*args, **kw):
            t0 = pc()
            self.in_rhs = True
            try:
                return RHSProxy(fn(*args, **kw), self)
            finally:
                self.in_rhs = False
                self.s["rhs_other"] += pc() - t0

        return wrapped


class RHSProxy:
    """Forwards every attribute to the wrapped RHS object and times the
    calls the steppers make: ``__call__`` and, where the object has them,
    ``residual_last`` and ``singular_velocity_increment``."""

    _TIMED = {"residual_last": "residual", "singular_velocity_increment": "rhs_other"}

    def __init__(self, target, tracer: Tracer) -> None:
        self._target = target
        self._tr = tracer

    def __call__(self, *args):
        tr = self._tr
        t0 = pc()
        tr.stamps.append(t0)
        tr.in_rhs = True
        try:
            return self._target(*args)
        finally:
            tr.in_rhs = False
            tr.s["rhs_call"] += pc() - t0
            tr.n["rhs_calls"] += 1

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        key = self._TIMED.get(name)
        if key is None:
            return attr
        tr = self._tr

        def timed(*args):
            t0 = pc()
            tr.in_rhs = True
            try:
                return attr(*args)
            finally:
                tr.in_rhs = False
                tr.s[key] += pc() - t0
                if key == "residual":
                    tr.n["residual_calls"] += 1

        return timed


def step_costs(stamps: list[float]) -> dict:
    """Median time between consecutive RHS calls in windows ending at
    N/8, N/4, N/2 and N steps: the cost of one step at that history length."""
    n = len(stamps) - 1
    out = {}
    if n < 64:
        return out
    diffs = [b - a for a, b in zip(stamps, stamps[1:])]
    for k in (n // 8, n // 4, n // 2, n):
        w = max(8, min(128, k // 2))
        win = sorted(diffs[k - w : k])
        out[str(k)] = win[len(win) // 2] * 1e6
    return out


def main() -> int:
    rec_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    rec: dict = {}

    t0 = pc()
    import fracdyn
    import fracdyn.cli as cli

    rec["import_s"] = pc() - t0
    rec["fracdyn_file"] = fracdyn.__file__
    timings = defaultdict(float)
    counts = defaultdict(int)

    def timed_execute(execute):
        def wrapped(icfg):
            t0 = pc()
            res = execute(icfg)
            timings["execute"] += pc() - t0
            counts["steps"] += len(res.q) - 1
            return res

        return wrapped

    orig_build_plan = cli.build_plan

    def build_plan(cfg):
        t0 = pc()
        plan = orig_build_plan(cfg)
        timings["build_plan"] += pc() - t0
        rec["t_plan"] = time.monotonic()
        plan.execute = timed_execute(plan.execute)
        return plan

    orig_traj = cli.write_trajectory_csv
    orig_comp = cli.write_comparison_csv

    def write_trajectory_csv(path, res, n):
        t0 = pc()
        orig_traj(path, res, n)
        timings["write_trajectory"] += pc() - t0
        counts["rows"] += len(res.q)

    def write_comparison_csv(path, res, oracle):
        t0 = pc()
        out = orig_comp(path, res, oracle)
        timings["write_comparison"] += pc() - t0
        return out

    cli.build_plan = build_plan
    cli.write_trajectory_csv = write_trajectory_csv
    cli.write_comparison_csv = write_comparison_csv

    tracer = None
    if trace:
        from fracdyn import constrained_dynamics, fode_solver, frac_ops, mittag_leffler
        from fracdyn import oscillator_exact

        tracer = Tracer()
        l1 = tracer.frac_ops(frac_ops.l1_caputo_last, count_terms=True)
        frac_ops.l1_caputo_last = l1
        fode_solver.l1_caputo_last = l1
        fil = tracer.frac_ops(frac_ops.fractional_integral_last, count_terms=False)
        frac_ops.fractional_integral_last = fil
        constrained_dynamics.fractional_integral_last = fil
        ml = tracer.ml(mittag_leffler.ml)
        mittag_leffler.ml = ml
        oscillator_exact.ml = ml
        cli.exact_solution = tracer.exact(cli.exact_solution)
        for name in ("rhs_linear", "hamilton_rhs", "rhs_nonlinear_frac_oscillator"):
            setattr(cli, name, tracer.rhs_factory(getattr(cli, name)))

    t0 = pc()
    try:
        rc = cli.main(argv)
    finally:
        timings["main"] = pc() - t0
        rec["timings"] = dict(timings)
        rec["counts"] = dict(counts)
        if tracer is not None:
            rec["trace_s"] = dict(tracer.s)
            rec["trace_n"] = dict(tracer.n)
            rec["step_cost_us"] = step_costs(tracer.stamps)
        with open(rec_path, "w") as fh:
            json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
