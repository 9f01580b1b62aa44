"""CLI contract: exit codes, artifact schema, determinism, config round-trip."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fracdyn
from fracdyn.cli import ScenarioConfig, main
from fracdyn.errors import ConfigError

OSC = {
    "scenario": "oscillator-1d",
    "grid": {"h": 0.02, "t_end": 1.0},
    "parameters": {"alpha": 2.5, "omega2": 1.0},
    "initial": {"q": [1.0], "qdot": [0.0]},
    "output": {"prefix": "osc"},
}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestConfig:
    def test_error_names_offending_key(self):
        bad = dict(OSC, grid={"h": -0.02, "t_end": 1.0})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(bad)
        assert "grid.h" in str(exc.value)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(dict(OSC, scenario="wobble"))
        assert "scenario" in str(exc.value)


class TestRunVerb:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        traj = tmp_path / "osc_trajectory.csv"
        comp = tmp_path / "osc_comparison.csv"
        summ = tmp_path / "osc_summary.json"
        assert traj.exists() and comp.exists() and summ.exists()
        header = traj.read_text().splitlines()[0]
        assert header == "t,q_1,qdot_1,lambda,constraint_residual"
        assert comp.read_text().splitlines()[0] == "t,numerical,exact,abs_error"
        s = json.loads(summ.read_text())
        assert "wall_time_s" in s and "max_abs_error_vs_exact" in s
        assert s["max_abs_error_vs_exact"] < 1e-4
        assert sorted(s["timings"]) == ["integrate", "oracle", "plan", "write"]
        assert all(v >= 0.0 for v in s["timings"].values())
        assert s["timings"]["integrate"] == s["wall_time_s"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["run", "--config", cfg, "--out", str(b), "--quiet"]) == 0
        for name in ("osc_trajectory.csv", "osc_comparison.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_malformed_config_no_artifacts(self, tmp_path):
        bad = dict(OSC, grid={"h": -0.02, "t_end": 1.0})
        cfg = write_cfg(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert not out.exists()

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p), "--quiet"]) == 1

    def test_missing_config_flag(self):
        assert main(["run", "--quiet"]) == 1

    def test_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        assert (
            main(["run", "--config", cfg, "--out", str(tmp_path), "--h", "0.05", "--quiet"])
            == 0
        )
        rows = (tmp_path / "osc_trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 21  # header + nodes of [0,1] at h=0.05

    def test_lf_line_endings(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        raw = (tmp_path / "osc_trajectory.csv").read_bytes()
        assert b"\r" not in raw

    def test_hamilton_linear_reads_no_alpha(self, tmp_path):
        """The Hamilton form carries no memory: runs at alpha = 0.3, 0.5 and
        0.7, and a run with no alpha, write the same trajectory, byte for
        byte."""
        no_alpha = dict(HAMILTON, parameters={
            k: v for k, v in HAMILTON["parameters"].items() if k != "alpha"})
        cases = {str(a): with_param(HAMILTON, "alpha", a) for a in (0.3, 0.5, 0.7)}
        cases["none"] = no_alpha
        for name, data in cases.items():
            cfg = write_cfg(tmp_path, data, f"a{name}.json")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name), "--quiet"]) == 0
        ref = (tmp_path / "0.5" / "run_trajectory.csv").read_bytes()
        for name in cases:
            assert (tmp_path / name / "run_trajectory.csv").read_bytes() == ref

    def test_nonlinear_scenario(self, tmp_path):
        data = {
            "scenario": "nonlinear-fracosc",
            "grid": {"h": 0.01, "t_end": 1.0},
            "parameters": {"alpha": 1.5, "g": 1.0, "K": {"kind": "linear", "k": 1.0}},
            "initial": {"q": [1.0], "qdot": [0.0]},
            "output": {"prefix": "nl"},
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "nl_trajectory.csv").exists()


class TestConvergenceVerb:
    def test_table(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        code = main(
            [
                "convergence",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--ladder",
                "1/32,1/64,1/128",
                "--quiet",
            ]
        )
        assert code == 0
        rows = (tmp_path / "osc_convergence.csv").read_text().splitlines()
        assert rows[0] == "h,error,order"
        assert len(rows) == 4

    def test_short_ladder(self, tmp_path):
        cfg = write_cfg(tmp_path, OSC)
        assert (
            main(["convergence", "--config", cfg, "--ladder", "0.1", "--quiet"]) == 1
        )


CASE1 = {
    "scenario": "case1-2d",
    "grid": {"h": 0.05, "t_end": 1.0},
    "parameters": {"alpha": 0.5, "a2": 1.0, "b1": 1.0, "b2": 0.25},
    "initial": {"q": [1.0, 0.0], "qdot": [1.0, 0.0]},
    "output": {"prefix": "c1"},
}
CASE2 = {
    "scenario": "case2-2d",
    "grid": {"h": 0.05, "t_end": 1.0},
    "parameters": {"alpha": 0.5, "c": 1.0, "b2": 1.0},
    "initial": {"q": [1.0, -1.0], "qdot": [0.5, -0.5]},
}
LINEAR = {
    "scenario": "linear-nd",
    "grid": {"h": 0.05, "t_end": 1.0},
    "parameters": {"alpha": 0.5, "a": [1.0, 2.0], "b": [0.5, -0.3],
                   "potential": {"kind": "quadratic", "k": 1.0}},
    "initial": {"q": [1.0, 0.5], "qdot": [2.0, -1.0]},
}
NONLINEAR = {
    "scenario": "nonlinear-fracosc",
    "grid": {"h": 0.05, "t_end": 1.0},
    "parameters": {"alpha": 1.5, "g": 1.0, "K": {"kind": "cubic", "k": 1.0}},
    "initial": {"q": [1.0], "qdot": [0.0]},
}
HAMILTON = {
    "scenario": "hamilton-linear",
    "grid": {"h": 0.05, "t_end": 1.0},
    "parameters": {"alpha": 0.5, "A": [1.0, 0.5],
                   "potential": {"kind": "quadratic", "k": 1.0}},
    "initial": {"q": [1.0, 0.0], "p": [0.0, 1.0]},
}


def with_param(base, key, value):
    params = dict(base["parameters"])
    if "." in key:
        outer, inner = key.split(".")
        params[outer] = dict(params[outer], **{inner: value})
    else:
        params[key] = value
    return dict(base, parameters=params)


class TestInputFaults:
    """Each fault ends with exit 1, names its key, writes no --out."""

    def rejected(self, tmp_path, capsys, data, key, *extra):
        cfg = write_cfg(tmp_path, data)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet", *extra]) == 1
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, key",
        [
            (LINEAR, "potential.k"),
            (NONLINEAR, "K.k"),
            (OSC, "omega2"),
            (CASE1, "a2"),
            (CASE1, "b1"),
            (CASE1, "b2"),
            (CASE2, "c"),
            (CASE2, "b2"),
        ],
    )
    def test_non_numeric_parameter(self, tmp_path, capsys, base, key):
        data = with_param(base, key, "abc")
        self.rejected(tmp_path, capsys, data, "parameters." + key)

    @pytest.mark.parametrize(
        "data, key, extra",
        [
            (dict(OSC, grid={"h": float("nan"), "t_end": 1.0}), "grid.h", ()),
            (dict(OSC, grid={"h": 0.02, "t_end": float("inf")}), "grid.t_end", ()),
            (dict(OSC, initial={"q": [float("nan")], "qdot": [0.0]}), "initial.q", ()),
            (with_param(LINEAR, "potential.k", float("inf")), "parameters.potential.k", ()),
            (OSC, "grid.h", ("--h", "nan")),
        ],
    )
    def test_non_finite_number(self, tmp_path, capsys, data, key, extra):
        self.rejected(tmp_path, capsys, data, key, *extra)

    @pytest.mark.parametrize(
        "data, extra",
        [
            (dict(OSC, grid={"h": 2.0, "t_end": 1.0}), ()),
            (OSC, ("--h", "2.0")),
            (OSC, ("--t-end", "0.01")),
        ],
    )
    def test_step_longer_than_horizon(self, tmp_path, capsys, data, extra):
        self.rejected(tmp_path, capsys, data, "grid.h", *extra)

    @pytest.mark.parametrize(
        "grid",
        [
            {"h": 0.02, "t_end": 1e308},  # the step count overflows
            {"h": 1e-13, "t_end": 1.0},  # too large to allocate
            {"h": 1e-300, "t_end": 1.0},  # beyond numpy's largest dimension
        ],
    )
    def test_too_many_steps(self, tmp_path, capsys, grid):
        self.rejected(tmp_path, capsys, dict(OSC, grid=grid), "grid.h")

    @pytest.mark.parametrize(
        "data",
        [
            with_param(LINEAR, "alpha", 1.0000000000001),
            with_param(LINEAR, "alpha", 1e-300),
            with_param(CASE1, "alpha", 1.0000000000001),
            with_param(CASE2, "alpha", 1.0000000000001),
            # the constraint of oscillator-1d has order alpha - 1
            with_param(OSC, "alpha", 2.0000000000001),
        ],
    )
    def test_near_integer_order(self, tmp_path, capsys, data):
        self.rejected(tmp_path, capsys, data, "parameters.alpha")

    @pytest.mark.parametrize("prefix", ["../x", "sub/x", "absolute", "a\0b", ""])
    def test_prefix_not_one_component(self, tmp_path, capsys, prefix):
        work = tmp_path / "work"
        work.mkdir()
        if prefix == "absolute":
            prefix = str(tmp_path / "x")
        self.rejected(work, capsys, dict(OSC, output={"prefix": prefix}), "output.prefix")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]

    @pytest.mark.parametrize(
        "data",
        [
            dict(OSC, initial={"q": [1.0], "qdot": [0.5]}),
            dict(CASE1, initial={"q": [1.0, 0.0], "qdot": [0.0, 1.0]}),
        ],
    )
    def test_initial_data_violates_constraint(self, tmp_path, capsys, data):
        self.rejected(tmp_path, capsys, data, "initial.qdot")

    def test_momentum_length_names_p(self, tmp_path, capsys):
        data = dict(HAMILTON, initial={"q": [1.0, 0.0], "p": [0.0, 1.0, 2.0]})
        self.rejected(tmp_path, capsys, data, "config key 'initial.p'")

    @pytest.mark.parametrize(
        "data, extra",
        [
            # the pre form's acceleration is meant for semi-implicit Euler only
            (dict(with_param(NONLINEAR, "form", "pre"), scheme="velocity-verlet"), ()),
            (with_param(NONLINEAR, "form", "pre"), ("--scheme", "velocity-verlet")),
            # the Hamilton form steps by explicit Euler whatever the scheme
            (dict(HAMILTON, scheme="velocity-verlet"), ()),
        ],
    )
    def test_scheme_the_scenario_cannot_run(self, tmp_path, capsys, data, extra):
        self.rejected(tmp_path, capsys, data, "config key 'scheme'", *extra)

    @pytest.mark.parametrize(
        "data, key",
        [
            (with_param(LINEAR, "a", [0.0, 0.0]), "parameters.a"),
            (with_param(CASE1, "a2", 0.0), "parameters.a2"),
            (with_param(HAMILTON, "A", [0.0, 0.0]), "parameters.A"),
            # nonzero, but |a|^2 underflows
            (with_param(LINEAR, "a", [1e-300, 0.0]), "parameters.a"),
            (with_param(CASE1, "a2", 1e-300), "parameters.a2"),
            (with_param(CASE2, "c", 1e-300), "parameters.c"),
            (with_param(HAMILTON, "A", [1e-300, 0.0]), "parameters.A"),
            # |a|^2 overflows, and a/|a|^2 vanishes
            (with_param(LINEAR, "a", [1e308, 2.0]), "parameters.a"),
            (with_param(CASE1, "a2", 1e160), "parameters.a2"),
            (with_param(CASE2, "c", 1e160), "parameters.c"),
            (with_param(HAMILTON, "A", [1e160, 0.5]), "parameters.A"),
            # |A|^2 = 1.25e-14 is finite and nonzero, but every Hamilton
            # step rejects |A|^2 <= 1e-12: the plan is rejected when built
            (with_param(HAMILTON, "A", [1e-7, 5e-8]), "parameters.A"),
        ],
    )
    def test_vanishing_constraint_vector(self, tmp_path, capsys, data, key):
        self.rejected(tmp_path, capsys, data, key)

    @pytest.mark.parametrize(
        "ladder",
        [
            "abc,1,2",
            "1/0,1/2,1/4",
            "0.1,0.05,-0.01",
            "1/16,1/32,0",
            "nan,0.1,0.05",
            "0.1,0.03,0.07",  # no rung grid nests in the h = 0.015 reference
            "2,1,0.5",  # every rung exceeds t_end
            "0.1,0.1,0.05",  # a repeated rung: log(h_prev/h) = 0
            "0.1,0.1000001,0.05",  # two rungs on one 5-step grid
            # a rung that nests, with more steps than a run can allocate
            "0.125,0.0625," + repr(2.0**-990),
        ],
    )
    def test_bad_ladder(self, tmp_path, capsys, ladder):
        cfg = write_cfg(tmp_path, dict(LINEAR, grid={"h": 0.0025, "t_end": 0.5}))
        out = tmp_path / "out"
        argv = ["convergence", "--config", cfg, "--out", str(out), "--quiet", "--ladder", ladder]
        assert main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: config key 'ladder': ")


class TestImport:
    def test_no_scipy_at_runtime(self):
        # a fresh interpreter: scipy is a test dependency only
        code = (
            "import sys, fracdyn, fracdyn.cli, fracdyn.verification; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(fracdyn.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestVerifyReport:
    def test_elapsed_per_check_and_slowest(self):
        from fracdyn.verification import CheckRow, format_report

        rows = [
            CheckRow("fast", 1e-3, 1e-2, True, elapsed_s=0.25),
            CheckRow("slow", 2.0, 1.0, False, elapsed_s=1.5),
        ]
        lines = format_report(rows).splitlines()
        assert "0.250s" in lines[0] and "1.500s" in lines[1]
        assert lines[-1] == "slowest check: slow (1.500s)"
        # a timing never makes two results differ
        assert CheckRow("x", 1.0, 1.0, True, elapsed_s=3.0) == CheckRow("x", 1.0, 1.0, True)

    def test_suite_rows_are_timed(self):
        from fracdyn.verification import SUITES

        start = time.perf_counter()
        rows = SUITES["operators"]()
        total = time.perf_counter() - start
        assert all(r.elapsed_s >= 0.0 for r in rows)
        assert 0.0 < sum(r.elapsed_s for r in rows) <= total


class TestVerifyVerb:
    def test_suite_passes(self, capsys):
        assert main(["verify", "oscillator", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_report_counts_the_checks(self, capsys):
        assert main(["verify", "oscillator"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the count line, then the slowest check
        assert lines[-2] == "3 checks, 0 failed"
        assert lines[-1].startswith("slowest check: ")

    def test_failing_row_exits_4(self, monkeypatch, capsys):
        from fracdyn import verification

        row = verification.CheckRow("broken", 1.0, 0.5, False)
        monkeypatch.setitem(verification.SUITES, "oscillator", lambda: [row])
        assert main(["verify", "oscillator"]) == 4
        assert capsys.readouterr().out.splitlines()[-2] == "1 checks, 1 failed"


class TestSummaryScheme:
    @pytest.mark.parametrize(
        "data, ran",
        [
            (HAMILTON, "hamilton-euler"),
            (dict(LINEAR, scheme="velocity-verlet"), "velocity-verlet"),
            (NONLINEAR, "semi-implicit-euler"),
        ],
    )
    def test_summary_names_the_scheme_that_ran(self, tmp_path, data, ran):
        cfg = write_cfg(tmp_path, dict(data, output={"prefix": "s"}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        summary = json.loads((tmp_path / "s_summary.json").read_text())
        assert summary["scheme"] == summary["diagnostics"]["scheme"] == ran


class TestSummaryStep:
    def test_summary_h_is_the_step_that_ran(self, tmp_path):
        """grid.h is rounded to the nearest step that divides t_end."""
        data = dict(LINEAR, grid={"h": 0.3, "t_end": 1.0}, output={"prefix": "g"})
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert json.loads((tmp_path / "g_summary.json").read_text())["h"] == 1.0 / 3.0
        # the header and the nodes 0, 1/3, 2/3 and 1
        assert len((tmp_path / "g_trajectory.csv").read_text().splitlines()) == 5


class TestOracles:
    @pytest.mark.parametrize("k", [1.0, 0.0, -1.0])
    def test_b2zero_oracle_for_every_sign_of_k(self, tmp_path, k):
        """q1 decouples as q1'' = -k q1 from q1(0) = 1, q1'(0) = 1."""
        data = {
            "scenario": "case1-2d-b2zero",
            "grid": {"h": 0.05, "t_end": 1.0},
            "parameters": {"alpha": 0.5, "potential": {"kind": "quadratic-q1", "k": k}},
            "initial": {"q": [1.0, 0.0], "qdot": [1.0, 0.0]},
            "output": {"prefix": "z"},
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        comp = np.loadtxt(tmp_path / "z_comparison.csv", delimiter=",", skiprows=1)
        t, exact = comp[:, 0], comp[:, 2]
        closed = {1.0: np.cos(t) + np.sin(t), 0.0: 1.0 + t, -1.0: np.cosh(t) + np.sinh(t)}[k]
        assert np.max(np.abs(exact - closed)) < 1e-14
        summary = json.loads((tmp_path / "z_summary.json").read_text())
        assert math.isfinite(summary["max_abs_error_vs_exact"])

    # a numpy warning is an error here, so none may come before the error line
    @pytest.mark.filterwarnings("error")
    def test_oscillator_oracle_overflow_exits_3(self, tmp_path, capsys):
        # omega2 q0 = 1e309 is past the float range
        data = dict(with_param(OSC, "omega2", 1e308), initial={"q": [10.0], "qdot": [0.0]})
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
        assert capsys.readouterr().err == "error: the closed-form solution overflowed\n"

    @pytest.mark.filterwarnings("error")
    def test_oscillator_oracle_at_huge_omega2(self, tmp_path):
        # omega2 q0 = 1e308 is finite, and the closed form is q0 at every node
        cfg = write_cfg(tmp_path, with_param(OSC, "omega2", 1e308))
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        comp = np.loadtxt(tmp_path / "osc_comparison.csv", delimiter=",", skiprows=1)
        assert np.all(comp[:, 2] == 1.0)


class TestDivergence:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", ["reduced", "pre"])
    @pytest.mark.parametrize("q0", [1e308, -1e308])
    def test_cubic_K_overflow_exits_2(self, tmp_path, capsys, form, q0):
        # K(q0) = q0^3 is past the float range
        data = dict(with_param(NONLINEAR, "form", form), initial={"q": [q0], "qdot": [0.0]})
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: state became non-finite\n"
