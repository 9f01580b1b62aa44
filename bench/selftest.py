"""Quick self-test of the benchmark (about 20 s).

Usage, from the root of a checkout:  python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, through all of its
checks and through the trace bookkeeping, and compares the metric names and
units with BENCHMARK.json.  It then corrupts each kind of output once and
requires the workload's checks to reject it.  Exits 0 when all of that
holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run
import workloads

SEED = 7


def metric_problems(name: str, trace: bool, res: dict, units: dict) -> list[str]:
    out = []
    if not res["correct"] or res["failed"]:
        out.append(f"{name}: correct={res['correct']} failed={res['failed']}")
    passes = 2 if trace else 1
    procs = len(workloads.build(name, SEED, tiny=True).procs)
    if res["attempted"] != passes * procs:
        out.append(f"{name}: attempted {res['attempted']}, expected {passes * procs}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != units:
        out.append(f"{name}: metrics {sorted(got)} differ from BENCHMARK.json")
    for k, v in res["metrics"].items():
        if not math.isfinite(v["value"]):
            out.append(f"{name}: {k} = {v['value']}")
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        selfs = [v for k, v in m.items() if k.endswith(".self_s")] + [m["mittag_leffler.ml_s"]]
        # one traced pass: its layers and the remainder add up to its wall time
        if abs(sum(selfs) + m["trace.unattributed_s"] - m["trace.wall_s"]) > 1e-9:
            out.append(f"{name}: self times and remainder do not add up to the wall time")
        if min(selfs) < 0.0 or m["trace.unattributed_s"] < 0.0:
            out.append(f"{name}: a layer's self time or the remainder is negative")
    return out


def corrupt(path, col: int, rel: float) -> None:
    """Move one value in the middle data row of a CSV."""
    lines = path.read_text().split("\n")
    row = len(lines) // 2
    cells = lines[row].split(",")
    v = float(cells[col])
    cells[col] = format(v + rel * max(1.0, abs(v)), ".17g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def mutation_problems(name: str) -> list[str]:
    """Each corruption below must make the workload's checks fail."""
    wl = workloads.build(name, SEED, tiny=True)
    work = run.ROOT / ".bench_out" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    try:
        for p in wl.procs:
            (work / f"{p.prefix}.json").write_text(json.dumps(p.config))
        run.run_pass(wl, work, trace=False)
        mlv = run.probe(work, {"ml_points": wl.ml_points})["ml_values"]
        problems = [f"{name}: clean output rejected: {e}" for e in wl.check(wl, out, mlv)]
        pristine = {f: f.read_bytes() for f in run.data_csvs(out)}
        cases = []
        for p in wl.procs:
            n = len(p.config["initial"]["q"])
            traj = out / f"{p.prefix}_trajectory.csv"
            cases += [(traj, 1, 0.5), (traj, 1 + n, 0.5)]  # q_1 and qdot_1
        if (out / "osc_comparison.csv").exists():
            cases.append((out / "osc_comparison.csv", 2, 1e-2))  # exact
        for path, col, rel in cases:
            corrupt(path, col, rel)
            if not wl.check(wl, out, mlv):
                problems.append(f"{name}: column {col} of {path.name} moved, checks passed")
            path.write_bytes(pristine[path])
        if mlv:
            bad = list(mlv)
            bad[-1] += 1e-9
            if not wl.check(wl, out, bad):
                problems.append(f"{name}: ml value moved by 1e-9, checks passed")
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    problems = []
    e2e, layer = run.END_TO_END, run.PER_LAYER
    if sorted(w["name"] for w in run.SPEC["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json and workloads.py name different workloads")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.measure(name, SEED, 0.0, trace, tiny=True)
            problems += metric_problems(name, trace, res, layer if trace else e2e)
        problems += mutation_problems(name)
        print(f"{name}: done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
