"""Benchmark of the fracdyn CLI: each workload timed end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole passes of the workload for S seconds.  A pass runs
each of the workload's ``fracdyn run`` processes once, one after another,
each through ``bench/child.py``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
the passes).  With ``--trace 1`` passes alternate between untraced and
traced, and the object holds the per-layer metrics, the single-call
microbenchmarks and the tracing overhead.  After the passes the outputs are
checked: exit codes, byte-identical data CSVs across passes, and the
workload's checks in ``workloads.py``.

The program is run from ``src/`` of the checkout this script sits in; if
that is missing the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, pinned here before numpy loads and copied into every
# child's environment before it starts.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402  (after the pinning above)

PROC_LIMIT_S = 150.0

# metric names and units, in the order BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# repeats of each microbenchmark, at full and at self-test size
MICRO_REPS = {
    False: {"l1": 200, "small_z": 200, "large_negz_a05": 200,
            "oracle_band_a15": 60, "low_alpha_a03": 5},
    True: {"l1": 5, "small_z": 5, "large_negz_a05": 5,
           "oracle_band_a15": 3, "low_alpha_a03": 1},
}


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing or broken)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one process to its end; wall clock from spawn to exit, max RSS."""
    t0 = time.monotonic()
    with open(log, "wb") as err:
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(PROC_LIMIT_S, p.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        killer.cancel()
    t1 = time.monotonic()
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return {"t0": t0, "t1": t1, "rc": p.returncode, "rss_mib": usage.ru_maxrss / 1024.0}


def check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fracdyn was imported from {path}, not from {SRC}")


def run_proc(work: Path, proc, trace: bool) -> dict:
    rec = work / f"{proc.prefix}.rec.json"
    rec.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(rec), "1" if trace else "0", "run", "--config", f"{proc.prefix}.json", "--out", "out", "--quiet"]
    r = spawn(argv, work, work / f"{proc.prefix}.err")
    if r["rc"] == 0:
        r["rec"] = json.loads(rec.read_text())
        check_origin(r["rec"]["fracdyn_file"])
    else:
        tail = (work / f"{proc.prefix}.err").read_text(errors="replace")[-2000:]
        print(f"{proc.prefix}: exit {r['rc']}\n{tail}", file=sys.stderr)
    return r


def data_csvs(out: Path) -> list[Path]:
    return sorted(out.glob("*_trajectory.csv")) + sorted(out.glob("*_comparison.csv"))


def run_pass(wl, work: Path, trace: bool) -> dict:
    out = work / "out"
    for f in data_csvs(out):
        f.unlink()
    t0 = time.monotonic()
    procs = [run_proc(work, p, trace) for p in wl.procs]
    wall = time.monotonic() - t0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in data_csvs(out)}
    return {"trace": trace, "wall": wall, "procs": procs, "digests": digests}


def probe(work: Path, request: dict) -> dict:
    req, res = work / "probe.req.json", work / "probe.res.json"
    req.write_text(json.dumps(request))
    argv = [sys.executable, str(HERE / "probe.py"), str(req), str(res)]
    r = spawn(argv, work, work / "probe.err")
    if r["rc"] != 0:
        tail = (work / "probe.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"probe exited {r['rc']}\n{tail}")
    out = json.loads(res.read_text())
    check_origin(out["fracdyn_file"])
    return out


# ---------------------------------------------------------------------------
# metrics


def median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(passes: list[dict]) -> dict:
    setups, walls, rates, rss = [], [], [], []
    for p in passes:
        recs = [pr for pr in p["procs"] if "rec" in pr]
        setups += [pr["rec"]["t_plan"] - pr["t0"] for pr in recs]
        walls.append(p["wall"])
        steps = sum(pr["rec"]["counts"]["steps"] for pr in recs)
        busy = sum(pr["rec"]["timings"]["execute"] for pr in recs)
        rates.append(steps / busy)
        rss.append(max(pr["rss_mib"] for pr in p["procs"]))
    return {"wall_s": median(walls), "setup_s": median(setups),
            "steps_per_s": median(rates), "peak_rss_mib": median(rss)}


def step_exponent(costs: dict) -> float:
    """Least-squares slope of log(per-step cost) against log(history length)."""
    if len(costs) < 2:
        return 0.0
    xs = [math.log(int(k)) for k in costs]
    ys = [math.log(v) for v in costs.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass.

    Self times: frac_ops is the L1 and fractional-integral calls;
    constrained_dynamics is the RHS objects minus the frac_ops calls inside
    them; fode_solver is RunPlan.execute minus the RHS; mittag_leffler is
    the ml calls; oscillator_exact is exact_solution minus its ml calls; cli
    is the import of fracdyn.cli plus main() minus execute and the oracle.
    The rest of the pass's wall time (interpreter start and exit, and the
    spans' own cost outside them) is reported as unattributed.
    """
    recs = [pr["rec"] for pr in p["procs"]]

    def s(key):
        return sum(r["trace_s"].get(key, 0.0) for r in recs)

    def n(key):
        return sum(r["trace_n"].get(key, 0) for r in recs)

    def t(key):
        return sum(r["timings"].get(key, 0.0) for r in recs)

    def c(key):
        return sum(r["counts"].get(key, 0) for r in recs)

    def per(total, count, unit=1e6):
        return total / count * unit if count else 0.0

    frac = s("frac_ops_in_rhs") + s("frac_ops_out_rhs")
    rhs = s("rhs_call") + s("residual") + s("rhs_other")
    ml_outside = s("ml") - s("ml_in_exact")
    self_times = {
        "cli.self_s": sum(r["import_s"] for r in recs) + t("main") - t("execute")
        - s("exact") - ml_outside,
        "fode_solver.self_s": t("execute") - rhs - s("frac_ops_out_rhs"),
        "constrained_dynamics.self_s": rhs - s("frac_ops_in_rhs"),
        "frac_ops.self_s": frac,
        "oscillator_exact.self_s": s("exact") - s("ml_in_exact"),
        "mittag_leffler.ml_s": s("ml"),
    }
    longest = max(recs, key=lambda r: r["timings"]["execute"])
    return {
        **self_times,
        "frac_ops.l1_calls": n("l1_calls"),
        "frac_ops.l1_terms": n("l1_terms"),
        "fode_solver.us_per_step": per(t("execute"), c("steps")),
        "fode_solver.step_exponent": step_exponent(longest["step_cost_us"]),
        "constrained_dynamics.rhs_us": per(s("rhs_call"), n("rhs_calls")),
        "constrained_dynamics.residual_us": per(s("residual"), n("residual_calls")),
        "mittag_leffler.ml_calls": n("ml_calls"),
        "oscillator_exact.exact_solution_s": s("exact"),
        "cli.import_s": per(sum(r["import_s"] for r in recs), len(recs), 1.0),
        "cli.build_plan_s": per(t("build_plan"), len(recs), 1.0),
        "cli.write_trajectory_us_per_row": per(t("write_trajectory"), c("rows")),
        "cli.write_comparison_s": t("write_comparison") - s("exact"),
        "trace.wall_s": p["wall"],
        "trace.unattributed_s": p["wall"] - sum(self_times.values()),
    }


def per_layer(passes: list[dict], micro: dict) -> dict:
    traced = [layers(p) for p in passes if p["trace"]]
    out = {k: median([m[k] for m in traced]) for k in traced[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - median(
        [p["wall"] for p in passes if not p["trace"]])
    out.update(micro)
    return out


# ---------------------------------------------------------------------------
# a run


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "fracdyn" / "cli.py").is_file():
        raise BenchError(f"no fracdyn sources under {SRC}")
    wl = workloads.build(name, seed, tiny)
    work = ROOT / ".bench_out" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        for p in wl.procs:
            (work / f"{p.prefix}.json").write_text(json.dumps(p.config, indent=1))
        # untimed warm-up: byte-compiles the package and fills the file cache
        spawn([sys.executable, "-c", "import fracdyn.cli"], work, work / "warmup.err")

        # whole rounds while the next one, as long as the last, would end
        # within the time asked for; the first round always runs
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            for mode in ((False, True) if trace else (False,)):
                passes.append(run_pass(wl, work, mode))
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
        return finish(wl, work, passes, seed, trace, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def finish(wl, work: Path, passes: list[dict], seed: int, trace: bool, tiny: bool) -> dict:
    attempted = sum(len(p["procs"]) for p in passes)
    failed = sum(pr["rc"] != 0 for p in passes for pr in p["procs"])
    complete = [p for p in passes if all(pr["rc"] == 0 for pr in p["procs"])]
    if not complete or (trace and not any(p["trace"] for p in complete)):
        raise BenchError("no pass completed")
    errors = []
    digests = {json.dumps(p["digests"], sort_keys=True) for p in complete}
    if len(digests) != 1:
        errors.append("data CSVs differ between passes")
    expected = {f"{p.prefix}_trajectory.csv" for p in wl.procs}
    if not expected <= set(complete[-1]["digests"]):
        errors.append(f"missing data CSVs: {sorted(expected - set(complete[-1]['digests']))}")

    request = {"ml_points": wl.ml_points}
    if trace:
        request["micro"] = {"seed": seed, "reps": MICRO_REPS[tiny]}
    probed = probe(work, request) if (wl.ml_points or trace) else {"ml_values": []}
    # the files on disk are the last pass's; a failed pass may have left them partial
    if complete[-1] is not passes[-1]:
        errors.append("the last pass failed; its outputs were not checked")
    else:
        try:
            errors += wl.check(wl, work / "out", probed["ml_values"])
        except (OSError, ValueError) as exc:  # missing or malformed CSV
            errors.append(f"outputs unreadable: {exc}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if trace:
        values, units = per_layer(complete, probed["micro"]), PER_LAYER
    else:
        values, units = end_to_end(complete), END_TO_END
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
