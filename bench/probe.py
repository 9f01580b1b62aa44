"""Single-call timings of layer functions, and ``ml`` values for the checks.

Usage: python3 bench/probe.py REQUEST.json RESULT.json

REQUEST holds ``ml_points``, a list of [alpha, beta, z] to evaluate with
``fracdyn.mittag_leffler.ml``, and optionally ``micro``, the seed and repeat
counts of the microbenchmarks below.  The probe runs in a fresh process, so
``ml``'s ``lru_cache`` starts empty and every z it is handed is new to it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from statistics import median

import numpy as np

pc = time.perf_counter

# (metric suffix, alpha, history length) of the single l1_caputo_last calls
L1_CASES = (("a05.n2k", 0.5, 2048), ("a05.n16k", 0.5, 16384), ("a15.n16k", 1.5, 16384))


def ml_bands(rng: random.Random, reps: dict) -> dict:
    """Fresh (alpha, beta, z) arguments for each regime of ``ml``.

    small_z: |z| <= 5, float series.  large_negz_a05: z in [-50, -20] at
    alpha 0.5, asymptotic tail.  oracle_band_a15: the oscillator oracle's
    arguments past t = 8, mpmath series.  low_alpha_a03: z near -5 at
    alpha 0.3, mpmath series with ~130 digits.
    """
    def fresh(n, draw):
        seen = {}
        while len(seen) < n:
            a, b, z = draw()
            seen[z] = (a, b, z)
        return list(seen.values())

    return {
        "small_z": fresh(reps["small_z"], lambda: (0.8, 1.0, rng.uniform(-4.5, 4.5))),
        "large_negz_a05": fresh(
            reps["large_negz_a05"], lambda: (0.5, 1.0, rng.uniform(-50.0, -20.0))
        ),
        "oracle_band_a15": fresh(
            reps["oracle_band_a15"],
            lambda: (1.5, rng.choice((1.0, 1.5, 2.0)), -rng.uniform(8.0, 10.0) ** 1.5),
        ),
        "low_alpha_a03": fresh(
            reps["low_alpha_a03"], lambda: (0.3, 1.0, rng.uniform(-5.0, -4.6))
        ),
    }


def micro(seed: int, reps: dict) -> dict:
    from fracdyn.frac_ops import l1_caputo_last
    from fracdyn.mittag_leffler import MLParams, ml

    rng = random.Random(f"micro:{seed}")
    out = {}
    nprng = np.random.default_rng(rng.getrandbits(32))
    for name, alpha, n in L1_CASES:
        q = np.cumsum(nprng.standard_normal(n + 1)) * 1e-3
        times = []
        for _ in range(reps["l1"]):
            t0 = pc()
            l1_caputo_last(q, 1e-3, alpha)
            times.append(pc() - t0)
        out[f"frac_ops.l1_last_us.{name}"] = median(times) * 1e6
    for band, args in ml_bands(rng, reps).items():
        times = []
        for a, b, z in args:
            t0 = pc()
            ml(MLParams(a, b), z)
            times.append(pc() - t0)
        out[f"mittag_leffler.ml_us.{band}"] = median(times) * 1e6
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    import fracdyn
    from fracdyn.mittag_leffler import MLParams, ml

    res = {
        "fracdyn_file": fracdyn.__file__,
        "ml_values": [ml(MLParams(a, b), z) for a, b, z in req.get("ml_points", [])],
    }
    if "micro" in req:
        res["micro"] = micro(req["micro"]["seed"], req["micro"]["reps"])
    with open(sys.argv[2], "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
