"""Where the time of a ``fracdyn run`` process goes, start-up and exit included:

    python tests/proc_phases.py CONFIG [--reps N]

Each repetition spawns a fresh interpreter that does what the ``fracdyn``
console script does, ``sys.exit(fracdyn.cli.main(argv))``, with argv
``run --config CONFIG --out DIR --quiet`` and DIR a temporary directory.
The child reads ``time.monotonic`` (CLOCK_MONOTONIC on Linux, which the
parent reads too) at its first statement, after ``import fracdyn.cli`` and
when ``main`` returns; the parent reads it before the spawn and after the
exit.  The phases are

    start   spawn to the child's first statement: the bare interpreter
    import  ``import fracdyn.cli``, numpy included
    main    the call of ``main``: load, plan, run, write
    exit    return from ``main`` to the end of the process: finalisation
    total   spawn to the end of the process

and the script prints the median and quartiles of each in ms over N
repetitions (default 7).  The ``timings`` of ``summary.json`` cover only
part of ``main``.  This checkout's ``src/`` comes first on the child's
PYTHONPATH, and numpy's BLAS runs one thread, as in ``bench/``.  Standard
library only; pytest does not collect it, as its name does not start
with ``test_``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PHASES = ("start", "import", "main", "exit", "total")

_CHILD = """\
import time
t0 = time.monotonic()
import sys
import fracdyn.cli
t1 = time.monotonic()
rc = fracdyn.cli.main(sys.argv[1:])
print(repr(t0), repr(t1), repr(time.monotonic()), flush=True)
sys.exit(rc)
"""


def _env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not path else str(SRC) + os.pathsep + path
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(config: str, out: str) -> dict:
    """{phase: seconds} of one ``fracdyn run`` process."""
    argv = [sys.executable, "-c", _CHILD, "run", "--config", config, "--out", out, "--quiet"]
    spawn = time.monotonic()
    proc = subprocess.run(argv, env=_env(), stdin=subprocess.DEVNULL, capture_output=True, text=True)
    end = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"fracdyn run exited {proc.returncode}: {proc.stderr.strip()}")
    first, imported, returned = map(float, proc.stdout.split())
    return {
        "start": first - spawn,
        "import": imported - first,
        "main": returned - imported,
        "exit": end - returned,
        "total": end - spawn,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="scenario config (JSON)")
    ap.add_argument("--reps", type=int, default=7, help="processes to time (default 7)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    config = str(Path(args.config).resolve())
    with tempfile.TemporaryDirectory() as out:
        runs = [measure(config, out) for _ in range(args.reps)]
    print(f"{'phase':<8}{'median_ms':>10}{'q1_ms':>10}{'q3_ms':>10}")
    for phase in PHASES:
        ms = [r[phase] * 1e3 for r in runs]
        q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        print(f"{phase:<8}{statistics.median(ms):>10.2f}{q1:>10.2f}{q3:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
