"""Every one-key mutation of the README configs: each run ends in a known
exit code without a numpy RuntimeWarning, a rejected config leaves no
file, and a finished run writes a summary that is strict JSON."""

import copy
import json
import tempfile
import warnings
from pathlib import Path

from fracdyn.cli import main
from test_golden import SCENARIOS

# the README scenarios of the golden cases, on a 20-step grid
CONFIGS = {
    name: dict(copy.deepcopy(cfg), grid={"h": 0.05, "t_end": 1.0}, output={"prefix": "fz"})
    for name, cfg in SCENARIOS.items()
}

MISSING = object()
# missing, wrong type, zero, negative, tiny and huge.  Each of them is
# rejected as grid.h or grid.t_end, so no run has more than 20 steps.
ODD = [MISSING, "abc", True, None, {}, [], 0, 0.0, -1.0, 1e-300, -1e-300, 1e308, -1e308]
# orders within 1e-13 of an integer
NEAR_INTEGER = [k + d for k in range(4) for d in (-1e-13, 1e-13)]


def _paths(node, prefix=()):
    """Every key of the config at every depth, and every list entry."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _values(key, old):
    """ODD, the negated value, for a list one entry more and one less, for
    a list of numbers the whole list times 1e-7 (a one-entry change leaves
    the other entries at their scale), and for an order the near-integers."""
    out = ODD + (NEAR_INTEGER if key == "alpha" else [])
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        out.append(-old)
    if isinstance(old, list):
        out += [old + [1.0], old[:-1]]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in old):
            out.append([x * 1e-7 for x in old])
    return out


def _at(node, keys):
    for key in keys:
        node = node[key]
    return node


def _mutations():
    """(label, config) for every value of every key of every config."""
    for name in sorted(CONFIGS):
        for *head, key in _paths(CONFIGS[name]):
            for value in _values(key, _at(CONFIGS[name], head)[key]):
                cfg = copy.deepcopy(CONFIGS[name])
                parent = _at(cfg, head)
                if value is MISSING:
                    parent.pop(key)
                else:
                    parent[key] = value
                shown = "missing" if value is MISSING else repr(value)
                yield f"{name} {'/'.join(map(str, head + [key]))} = {shown}", cfg


def _strict(const):
    raise ValueError(f"summary holds {const}, which is not JSON")


def _check(cfg, cfg_path: Path, out: Path):
    """Run ``cfg`` from ``cfg_path`` into ``out``, which does not exist."""
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert rc in (0, 1, 2, 3), f"exit {rc}"
    if rc == 1:
        assert not out.exists() or not any(out.iterdir()), "files on exit 1"
    if rc == 0:
        # the prefix may be the mutated key, and then it is "run"
        (summary,) = out.glob("*_summary.json")
        json.loads(summary.read_text(), parse_constant=_strict)


def test_one_key_mutation():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(_mutations()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    _check(cfg, Path(tmp) / "cfg.json", Path(tmp) / f"out{i}")
                except Exception as exc:  # a traceback from main is a failure too
                    failures.append(f"{label}: {exc!r}")
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    failures.append(f"{label}: {w.filename}:{w.lineno}: {w.message}")
    assert not failures, "\n".join(failures)
