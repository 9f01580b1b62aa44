"""One-key mutations of the README configs: every run ends in a known exit
code, a rejected config leaves no file, and a finished run writes a summary
that is strict JSON."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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
    """ODD, the negated value, for a list one entry more and one less, and
    for an order the near-integers."""
    out = ODD + (NEAR_INTEGER if key == "alpha" else [])
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        out.append(-old)
    if isinstance(old, list):
        out += [old + [1.0], old[:-1]]
    return out


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    cfg = copy.deepcopy(CONFIGS[name])
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    value = draw(st.sampled_from(_values(path[-1], parent[path[-1]])))
    if value is MISSING:
        parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return cfg


def _strict(const):
    raise ValueError(f"summary holds {const}, which is not JSON")


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(cfg=mutated())
def test_one_key_mutation(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
        assert rc in (0, 1, 2, 3)
        if rc == 1:
            assert not out.exists() or not any(out.iterdir())
        if rc == 0:
            # the prefix may be the mutated key, and then it is "run"
            (summary,) = out.glob("*_summary.json")
            json.loads(summary.read_text(), parse_constant=_strict)
