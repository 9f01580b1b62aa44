"""Per-value differences between the golden cases of two checkouts.

When a change reorders floating-point sums, the golden hashes in
``test_golden.py`` move, and each moved case is recorded again with the
largest difference from the values of a trusted commit.  This script
measures those differences:

    python tests/golden_delta.py --dump SRC OUT.npz
    python tests/golden_delta.py --compare A.npz B.npz

``--dump`` imports ``test_golden`` and ``fracdyn`` from the checkout at
SRC (its ``tests/`` and ``src/``), runs every case of ``CASES`` and saves
the values each one hashes, one array per case.  CSV output (a blob that
starts with a ``t,`` header) is read as numbers, one row per data line;
the result arrays of library runs are read as float64.  ``--compare``
prints, for each case, the number of values, max |d| and
max |d|/max(1, |v|), v being the values of A; NaN against NaN counts as
equal, NaN against a number as an infinite difference.

It needs numpy and, for ``--dump``, what ``test_golden`` imports (pytest).
pytest does not collect it, as its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


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

    if not Path(fracdyn.__file__).resolve().is_relative_to(src / "src"):
        raise SystemExit(f"fracdyn was imported from {fracdyn.__file__}, not {src}")
    arrays = {}
    for name in sorted(test_golden.CASES):
        with tempfile.TemporaryDirectory() as tmp:
            arrays[name] = _values(test_golden.CASES[name](Path(tmp)))
    np.savez(out, **arrays)
    print(f"{len(arrays)} cases from {src} to {out}")


def compare(path_a: Path, path_b: Path) -> None:
    a_all, b_all = np.load(path_a), np.load(path_b)
    print(f"{'case':28s} {'values':>8s} {'max|d|':>10s} {'max|d|/max(1,|v|)':>18s}")
    for name in sorted(set(a_all.files) | set(b_all.files)):
        if name not in a_all.files or name not in b_all.files:
            print(f"{name:28s} only in {path_a if name in a_all.files else path_b}")
            continue
        a, b = a_all[name], b_all[name]
        if a.shape != b.shape:
            print(f"{name:28s} {a.size} against {b.size} values")
            continue
        both_nan = np.isnan(a) & np.isnan(b)
        with np.errstate(invalid="ignore"):
            d = np.where(both_nan, 0.0, np.abs(a - b))
        d[np.isnan(d)] = np.inf
        rel = d / np.maximum(1.0, np.nan_to_num(np.abs(a), nan=1.0))
        dmax = float(d.max()) if d.size else 0.0
        rmax = float(rel.max()) if rel.size else 0.0
        print(f"{name:28s} {a.size:8d} {dmax:10.2e} {rmax:18.2e}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", nargs=2, metavar=("SRC", "OUT"), type=Path)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    args = ap.parse_args(argv)
    if args.dump:
        dump(*args.dump)
    else:
        compare(*args.compare)


if __name__ == "__main__":
    main()
