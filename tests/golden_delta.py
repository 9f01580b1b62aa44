"""Per-value differences between the golden cases of two checkouts.

When a change reorders floating-point sums, the golden hashes in
``test_golden.py`` move, and each moved case is recorded again with the
largest difference from the values of a trusted commit.  This script
measures those differences:

    python tests/golden_delta.py --dump SRC OUT.npz
    python tests/golden_delta.py --compare A.npz B.npz [--bound REL]

``--dump`` imports ``test_golden`` and ``fracdyn`` from the checkout at
SRC (its ``tests/`` and ``src/``), runs every case of ``CASES`` and saves
the values each one hashes, one array per case.  CSV output (a blob that
starts with a ``t,`` header) is read as numbers, one row per data line;
the result arrays of library runs are read as float64.  It also saves
the measured value of each ``fracdyn verify all`` row, as the case
``verify:<row name>``.  ``--compare`` prints, for each case, the number
of values, max |d| and max |d|/max(1, |v|), v being the values of A; NaN
against NaN counts as equal, NaN against a number as an infinite
difference.  Then it lists each verify value that moved, in A and in B,
with its difference B - A.  It exits 1, and names each failing case,
when a case has values of another shape in A and B, appears in only one
of them, or, unless it is a verify case, moves by more than REL in
max |d|/max(1, |v|) (``--bound``; no limit by default).  A verify value
is a measured error or order, which moves with the method it measures;
its row's tolerance, not REL, is its gate.

It needs numpy and, for ``--dump``, what ``test_golden`` imports (pytest).
pytest does not collect it, as its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


_VERIFY = "verify:"


def _values(blob: bytes) -> np.ndarray:
    if not blob.startswith(b"t,"):
        return np.frombuffer(blob, dtype=float)
    rows = []
    for line in blob.decode("ascii").splitlines():
        fields = line.split(",")
        try:
            rows.append([float(x) for x in fields])
        except ValueError:  # a header line
            continue
    return np.array([x for row in rows for x in row])


def dump(src: Path, out: Path) -> None:
    src = src.resolve()
    sys.path[:0] = [str(src / "src"), str(src / "tests")]
    import fracdyn
    import test_golden
    from fracdyn.verification import run_suite

    if not Path(fracdyn.__file__).resolve().is_relative_to(src / "src"):
        raise SystemExit(f"fracdyn was imported from {fracdyn.__file__}, not {src}")
    arrays = {}
    for name in sorted(test_golden.CASES):
        with tempfile.TemporaryDirectory() as tmp:
            arrays[name] = _values(test_golden.CASES[name](Path(tmp)))
    for row in run_suite("all"):
        arrays[_VERIFY + row.name] = np.array([row.measured])
    np.savez(out, **arrays)
    print(f"{len(arrays)} cases from {src} to {out}")


def compare(path_a: Path, path_b: Path, bound: float = np.inf) -> list:
    """Print the differences of each case; return the failing cases, each
    with the reason it fails."""
    a_all, b_all = np.load(path_a), np.load(path_b)
    failed, moved = [], []
    names = sorted(set(a_all.files) | set(b_all.files))
    w = max([28] + [len(name) for name in names])
    print(f"{'case':{w}s} {'values':>8s} {'max|d|':>10s} {'max|d|/max(1,|v|)':>18s}")
    for name in names:
        if name not in a_all.files or name not in b_all.files:
            where = f"only in {path_a if name in a_all.files else path_b}"
            print(f"{name:{w}s} {where}")
            failed.append((name, where))
            continue
        a, b = a_all[name], b_all[name]
        if a.shape != b.shape:
            print(f"{name:{w}s} {a.size} against {b.size} values")
            failed.append((name, f"shape {a.shape} against {b.shape}"))
            continue
        both_nan = np.isnan(a) & np.isnan(b)
        with np.errstate(invalid="ignore"):
            d = np.where(both_nan, 0.0, np.abs(a - b))
        d[np.isnan(d)] = np.inf
        rel = d / np.maximum(1.0, np.nan_to_num(np.abs(a), nan=1.0))
        dmax = float(d.max()) if d.size else 0.0
        rmax = float(rel.max()) if rel.size else 0.0
        print(f"{name:{w}s} {a.size:8d} {dmax:10.2e} {rmax:18.2e}")
        if name.startswith(_VERIFY):
            if dmax:
                moved.append((name, float(a[0]), float(b[0])))
        elif not rmax <= bound:
            failed.append((name, f"max|d|/max(1,|v|) = {rmax:.2e} exceeds {bound:.2e}"))
    for name, x, y in moved:
        print(f"MOVED {name}: {x!r} -> {y!r}, delta {y - x:+.3e}")
    for name, why in failed:
        print(f"FAILED {name}: {why}")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", nargs=2, metavar=("SRC", "OUT"), type=Path)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    ap.add_argument("--bound", type=float, default=np.inf, metavar="REL",
                    help="largest max|d|/max(1,|v|) a case may move (--compare)")
    args = ap.parse_args(argv)
    if args.dump:
        dump(*args.dump)
        return 0
    return 1 if compare(*args.compare, bound=args.bound) else 0


if __name__ == "__main__":
    sys.exit(main())
