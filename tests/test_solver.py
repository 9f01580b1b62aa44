"""Integrator properties: causality, exactness, divergence handling, ladders."""

import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn.constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
)
from fracdyn.errors import DivergenceError, FracDomainError
from fracdyn.fode_solver import (
    RHS,
    History,
    IntegratorConfig,
    convergence_study,
    integrate_fractional_abm,
    integrate_hamilton,
    integrate_second_order,
)
from fracdyn.frac_ops import (
    _l1_weights,
    _second_differences,
    _trapezoid_start,
    _trapezoid_weights,
    fractional_integral_last,
    l1_caputo_last,
)
from fracdyn.mittag_leffler import MLParams, ml
from fracdyn.series import FracOrder, Grid, SampleSeries


class OscRHS(RHS):
    """Classical qddot = -q, no constraint bookkeeping."""

    n = 1

    def __call__(self, t, q, qdot, hist):
        return -q, math.nan


def l1_bound(col, h, alpha):
    """(panels + 4) eps sum|c w_k d_k|: a bound on how far two orders of the
    L1 sum at the last node of ``col`` may round apart, c being the scheme's
    constant and w_k, d_k the panel weights and differences."""
    panels = len(col) - 1
    if alpha < 1.0:
        d, p, c = np.diff(col), 1.0 - alpha, h ** (-alpha) / math.gamma(2.0 - alpha)
    else:
        d, p = _second_differences(col, h), 2.0 - alpha
        c = h ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    terms = c * _l1_weights(panels, p)[::-1] * d
    return (panels + 4) * np.finfo(float).eps * np.sum(np.abs(terms))


def along_bound(qdot, b, h, alpha):
    """(panels + n + 4) eps sum_k |c w_k| |b|.|d_k|: a bound on how far b .
    D^alpha qdot from the projected series b . d_k may round from b times
    the n sums, d_k being the differences of the (nodes, n) rows ``qdot``."""
    panels, n = len(qdot) - 1, len(b)
    if alpha < 1.0:
        d, p, c = np.diff(qdot, axis=0), 1.0 - alpha, h ** (-alpha) / math.gamma(2.0 - alpha)
    else:
        d = np.array([_second_differences(col, h) for col in qdot.T]).T
        p, c = 2.0 - alpha, h ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    w = np.abs(c * _l1_weights(panels, p)[::-1])
    return (panels + n + 4) * np.finfo(float).eps * float(w @ (np.abs(d) @ np.abs(b)))


def trapezoid_bound(f, b, h, eps_order):
    """(m + n + 4) eps sum_j |s c_j| |b|.|f_j|: a bound on how far b . J^eps
    at the last node of the (m + 1, n) rows ``f``, summed column by column
    with the scale s = h^eps/Gamma(eps + 2) folded into the weights, may
    round from b times the ``fractional_integral_last`` values, c_j being
    the weight of row j (the start weight, the interior ones, then 1)."""
    m, n = len(f) - 1, len(b)
    c = np.ones(m + 1)
    c[0] = _trapezoid_start(m, eps_order)
    c[1:m] = _trapezoid_weights(m, eps_order)[::-1]
    s = h**eps_order / math.gamma(eps_order + 2.0)
    return (m + n + 4) * np.finfo(float).eps * float(np.abs(s * c) @ (np.abs(f) @ np.abs(b)))


class TestConfig:
    def test_validation(self):
        with pytest.raises(FracDomainError):
            IntegratorConfig(h=-0.1, t_end=1.0)
        with pytest.raises(FracDomainError):
            IntegratorConfig(h=0.1, t_end=0.0)
        with pytest.raises(FracDomainError):
            IntegratorConfig(h=0.1, t_end=1.0, scheme="rk4")

    def test_grid_rounds_the_step(self):
        """The grid takes round(t_end / h) steps, so the step that runs may
        be larger than h."""
        grid = IntegratorConfig(h=0.3, t_end=1.0).grid()
        assert grid.n_steps == 3 and grid.h == 1.0 / 3.0
        res = integrate_second_order(OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=0.3, t_end=1.0))
        assert res.diagnostics["h"] == 1.0 / 3.0 and res.grid.n_nodes == 4


class TestHistory:
    def test_views_and_caputo(self):
        g = Grid(0.0, 1.0, 10)
        hist = History(g, 2)
        t = g.nodes()
        for i in range(6):
            hist.append(np.array([t[i] ** 2, 0.0]), np.array([2 * t[i], 0.0]))
        assert hist.q_view.shape == (6, 2)
        assert hist.q_view[-1, 0] == pytest.approx(t[5] ** 2)
        ref = l1_caputo_last(t[:6] ** 2, g.h, 0.5)
        assert hist.caputo_q(0.5)[0] == pytest.approx(ref)
        assert hist.caputo_q(0.5)[1] == 0.0

    def test_stored_vectors(self):
        """``store`` sets the vector at the newest node, and sets it again
        until the next node is counted; ``aux_view`` has one row per
        counted node, zero where nothing was stored."""
        hist = History(Grid(0.0, 1.0, 10), 2)
        for i in range(6):
            hist.append(np.zeros(2), np.zeros(2))
            if i >= 3:
                hist.store(np.array([7.0, 7.0]))
                hist.store(np.array([0.0, float(i)]))
        assert hist.aux_view.tolist() == [[0.0, 0.0]] * 3 + [[0.0, 3.0], [0.0, 4.0], [0.0, 5.0]]

    def test_store_needs_a_counted_node(self):
        """Before the first node there is no row to write: ``store``
        raises, and does not write the grid's last row (row -1)."""
        hist = History(Grid(0.0, 1.0, 4), 1)
        with pytest.raises(FracDomainError):
            hist.store(7.0)
        for _ in range(5):
            hist.append(np.zeros(1), np.zeros(1))
        assert hist.aux_view[-1, 0] == 0.0
        assert hist.integral_aux_along(0.5, (1.0,), (0.0,)) == 0.0

    def test_repeated_query_counts_its_products_again(self):
        """``terms`` counts the products computed: a query asked twice at
        one count takes its dot, and adds its panels x width, twice."""
        hist = History(Grid(0.0, 1.0, 10), 2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            hist.append(rng.normal(size=2), rng.normal(size=2))
        queries = [
            (lambda: hist.caputo_q(0.5), 3 * 2),
            (lambda: hist.caputo_qdot(1.5), 3 * 2),
            (lambda: hist.caputo_qdot_along(0.5, (1.0, -1.0)), 3),
        ]
        for query, products in queries:
            before = hist.terms
            first = query()
            assert hist.terms == before + products
            assert np.array_equal(query(), first)
            assert hist.terms == before + 2 * products

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        nodes=st.integers(2, 48),
        n=st.integers(1, 3),
        alpha=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
        eps=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_queries_within_rounding_bound_of_frac_ops(self, nodes, n, alpha, eps, seed):
        """Every L1 query is within (panels + 4) eps sum|c w_k d_k| of the
        frac_ops sum on the same prefix (``l1_bound``), at every count and
        at two orders, with queries skipped at some counts, repeated at
        others, and the newest stored row overwritten between queries (as
        velocity Verlet and direct mode do).  The next-node queries, for a
        random b and a random value ``ahead``, are within ``along_bound``
        of b times ``l1_caputo_last`` and within ``trapezoid_bound`` of b
        times ``fractional_integral_last`` on the extended prefix.  After
        the last node, ``caputo_q_series`` meets the same bound at every
        node."""
        rng = np.random.default_rng(seed)
        g = Grid(0.0, float(rng.uniform(0.1, 10.0)), nodes - 1)
        hist = History(g, n)
        h = hist.h
        scale = 10.0 ** rng.integers(-3, 4, size=3)

        def cols(view, k, extra=None):
            col = view[:, k]
            return col if extra is None else np.append(col, extra)

        def close(got, col, a):
            assert abs(got - l1_caputo_last(col, h, a)) <= l1_bound(col, h, a)

        def check():
            for a in (alpha, 2.0 - alpha):
                for k, got in enumerate(hist.caputo_q(a)):
                    close(got, cols(hist.q_view, k), a)
                for k, got in enumerate(hist.caputo_qdot(a)):
                    close(got, cols(hist.qdot_view, k), a)
            b = tuple((rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)).tolist())
            ahead = tuple((rng.normal(size=n) * scale[0]).tolist())
            x = np.vstack([hist.q_view, ahead])
            want = sum(bk * l1_caputo_last(col, h, alpha) for bk, col in zip(b, x.T))
            got = hist.caputo_q_along(alpha, b, ahead)
            assert abs(got - want) <= along_bound(x, b, h, alpha)
            ahead = tuple((rng.normal(size=n) * scale[2]).tolist())
            f = np.vstack([hist.aux_view, ahead])
            want = sum(bk * fractional_integral_last(col, eps, h) for bk, col in zip(b, f.T))
            got = hist.integral_aux_along(eps, b, ahead)
            assert abs(got - want) <= trapezoid_bound(f, b, h, eps)

        for i in range(nodes):
            hist.append(rng.normal(size=n) * scale[0], rng.normal(size=n) * scale[1])
            hist.store(rng.normal(size=n) * scale[2])
            if i < 2 or rng.random() < 0.6:
                check()
            if rng.random() < 0.5:
                hist.store(rng.normal(size=n) * scale[2])
                if rng.random() < 0.5:
                    check()
        check()
        for a in (alpha, 2.0 - alpha):
            series = hist.caputo_q_series(a)
            assert series.shape == (nodes, n)
            for i in range(nodes):
                for k in range(n):
                    close(series[i, k], hist.q_view[: i + 1, k], a)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        nodes=st.integers(2, 48),
        n=st.integers(1, 3),
        alpha=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_along_within_rounding_bound_of_caputo_qdot(self, nodes, n, alpha, seed):
        """b . D^alpha qdot from the projected series is within
        ``along_bound`` of b times ``caputo_qdot``, at every count from the
        one that makes its lane, at both orders."""
        rng = np.random.default_rng(seed)
        g = Grid(0.0, float(rng.uniform(0.1, 10.0)), nodes - 1)
        hist = History(g, n)
        b = tuple((rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)).tolist())
        first = int(rng.integers(1, nodes + 1))
        for count in range(1, nodes + 1):
            hist.append(rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.integers(-3, 4))
            if count < first:
                continue
            for a in (alpha, 2.0 - alpha):
                got = hist.caputo_qdot_along(a, b)
                want = float(np.dot(b, hist.caputo_qdot(a)))
                assert abs(got - want) <= along_bound(hist.qdot_view, b, hist.h, a)

    def test_along_lane_per_vector(self):
        """Each vector b gets its own lane, and its answers are those of a
        history that was asked for it alone; b must have n entries."""
        g = Grid(0.0, 1.0, 10)
        both, one = History(g, 2), History(g, 2)
        rng = np.random.default_rng(3)
        for count in range(1, 9):
            q, qdot = rng.normal(size=2), rng.normal(size=2)
            both.append(q, qdot)
            one.append(q, qdot)
            x, y = both.caputo_qdot_along(0.5, (1.0, 0.0)), both.caputo_qdot_along(0.5, (0.0, 2.0))
            assert y == one.caputo_qdot_along(0.5, (0.0, 2.0))
            assert (x != y) == (count > 1)
        assert sum(len(key) == 3 for key in both._lanes) == 2
        assert both.terms == 2 * one.terms == 2 * sum(range(1, 8))
        with pytest.raises(FracDomainError):
            both.caputo_qdot_along(0.5, (1.0, 2.0, 3.0))

    def test_next_node_queries_need_n_values(self):
        """The next-node queries take b and ``ahead`` of n floats each."""
        hist = History(Grid(0.0, 1.0, 10), 2)
        for _ in range(4):
            hist.append(np.ones(2), np.ones(2))
        for query, order in ((hist.caputo_q_along, 1.5), (hist.integral_aux_along, 0.5)):
            assert query(order, (1.0, 0.0), (1.0, 1.0)) == query(order, (1.0, 0.0), (1.0, 7.0))
            for b, ahead in (((1.0,), (1.0, 1.0)), ((1.0, 0.0), (1.0,))):
                with pytest.raises(FracDomainError):
                    query(order, b, ahead)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        nodes=st.integers(2, 40),
        n=st.integers(1, 3),
        alpha=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_count_equals_any_schedule(self, nodes, n, alpha, seed):
        """Three histories get the same rows.  One answers every query at
        every count; one answers a random schedule, with skipped counts,
        repeats, next-node queries in either order, both difference orders
        and a rewritten stored row; one is first asked after its last row, so
        that each of its difference buffers is written by the backfill.
        The projected queries (b . D^alpha qdot for two vectors b, and the
        next-node b . D^alpha q and b . J^eps of the stored vectors) take
        random vectors b and are made at random counts too (late ones by
        the backfill).  Every answer they share is equal,
        ``caputo_q_series`` at both orders too."""
        rng = np.random.default_rng(seed)
        g = Grid(0.0, float(rng.uniform(0.1, 10.0)), nodes - 1)
        every, sched, late = History(g, n), History(g, n), History(g, n)
        kinds = ("q", "qdot", "ahead", "integral", "along", "along2")
        queries = [(kind, a) for a in (alpha, 2.0 - alpha) for kind in kinds]
        bs = {
            kind: tuple(rng.normal(size=n).tolist())
            for kind in ("along", "along2", "ahead", "integral")
        }

        def ask(hist, kind, a, ahead):
            if kind == "q":
                return hist.caputo_q(a)
            if kind == "qdot":
                return hist.caputo_qdot(a)
            if kind == "ahead":
                return hist.caputo_q_along(a, bs[kind], ahead)
            if kind == "integral":
                # an order in (0, 1) from either alpha
                return hist.integral_aux_along(a % 1.0, bs[kind], ahead)
            return hist.caputo_qdot_along(a, bs[kind])

        for i in range(nodes):
            q, qdot, v = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for _ in range(3))
            ahead = tuple(rng.normal(size=n).tolist())
            every.append(q, qdot)
            sched.append(q, qdot)
            late.append(q, qdot)
            every.store(v)
            late.store(v)
            if rng.random() < 0.3:
                sched.store(rng.normal(size=n))
                if rng.random() < 0.5:
                    sched.integral_aux_along(alpha % 1.0, bs["integral"], ahead)
            sched.store(v)
            want = {query: ask(every, *query, ahead) for query in queries}
            if rng.random() < 0.5:
                continue
            for j in rng.choice(len(queries), size=int(rng.integers(1, 12))):
                got = ask(sched, *queries[j], ahead)
                assert np.array_equal(got, want[queries[j]])
        for query in queries:
            assert np.array_equal(ask(late, *query, ahead), want[query])
        for a in (alpha, 2.0 - alpha):
            series = every.caputo_q_series(a)
            assert np.array_equal(sched.caputo_q_series(a), series)
            assert np.array_equal(late.caputo_q_series(a), series)


def linear_system():
    """The README linear-nd system at alpha = 0.5."""
    return SystemSpec(
        grad_potential=lambda q: q,
        constraint=ConstraintSpec.linear([1.0, 2.0], [0.5, -0.3], FracOrder(0.5)),
        q_init=[1.0, 0.5],
        qdot_init=[2.0, -1.0],
    )


class TestStateSums:
    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    def test_linear_step_sums_state_once(self, scheme, monkeypatch):
        """A prop1 linear-nd step asks for b . D^alpha qdot alone: one sum
        of the projected series per count, and no next-node sum.  The
        residual's D^alpha q at every node is one blocked product after the
        last step."""
        sums = Counter()
        other = []
        series = []
        state_sum, caputo_series = History._sum, History.caputo_q_series

        def counted(hist, lane):
            if hist.count >= 2:  # count 1 has no panel to sum
                assert lane is hist._lanes[("qdot", 0.5, (0.5, -0.3))]
                sums[hist.count] += 1
            return state_sum(hist, lane)

        def counted_series(hist, alpha):
            series.append(hist.count)
            return caputo_series(hist, alpha)

        monkeypatch.setattr(History, "_sum", counted)
        monkeypatch.setattr(History, "caputo_q_along", lambda *a: other.append("ahead"))
        monkeypatch.setattr(History, "integral_aux_along", lambda *a: other.append("integral"))
        monkeypatch.setattr(History, "caputo_q_series", counted_series)
        sys = linear_system()
        rr = rhs_linear(sys)
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        res = integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)
        assert res.grid.n_nodes == 201
        # velocity Verlet's last call sees the history before node 200
        last = 201 if scheme == "semi-implicit-euler" else 200
        assert sums == {c: 1 for c in range(2, last + 1)}
        assert other == [] and series == [201]


def reduced_run(form, K=None):
    """201 nodes of the nonlinear oscillator at alpha = 1.5: D^1.5 x at
    every count (reduced), or D^1.5 x and J^0.5 K at the next node (pre)."""
    rr = rhs_nonlinear_frac_oscillator(1.0, K or (lambda x: x + x**3), FracOrder(1.5), form=form)
    return integrate_second_order(rr, ([1.0], [0.0]), IntegratorConfig(h=0.005, t_end=1.0))


@pytest.mark.parametrize("form", ["pre", "reduced"])
def test_nonlinear_forms_call_K_once_per_node(form):
    """Each step calls K once, at its own node: 201 calls for 201 nodes."""
    calls = []

    def K(x):
        calls.append(x)
        return x + x**3

    res = reduced_run(form, K)
    assert len(calls) == 201
    assert calls == res.q[:, 0].tolist()


def prop1_run(scheme):
    sys = linear_system()
    cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
    return integrate_second_order(rhs_linear(sys), (sys.q_init, sys.qdot_init), cfg)


class TestDifferenceWrites:
    """A difference entry is written once, when its rows are final: each
    state entry in panel order, by the backfill when the first query of
    its order makes the buffer and by ``advance`` from then on, and so is
    each entry of a projected buffer, right after the state entry it
    reads.  No query writes any state entry: the next-node queries
    compute the entry past the final ones and do not write it."""

    @pytest.mark.parametrize(
        "run,first,backfilled,projected_entries",
        [
            # order 1: from the first panel on, the buffer made at count 1;
            # prop1 projects the qdot differences onto one b
            (lambda: prop1_run("semi-implicit-euler"), 0, 0, 200),
            (lambda: prop1_run("velocity-verlet"), 0, 0, 200),
            # order 2: panel 0 repeats panel 1, written with it
            (lambda: reduced_run("reduced"), 1, 0, 0),
            # the first next-node query comes at count 3
            (lambda: reduced_run("pre"), 1, 1, 0),
        ],
        ids=["prop1-semi-implicit-euler", "prop1-velocity-verlet", "reduced", "pre"],
    )
    def test_state_entries_written_once_in_panel_order(
        self, run, first, backfilled, projected_entries, monkeypatch
    ):
        writes, projected, callers, hists = [], [], [], set()
        panel = History._panel

        def logged_panel(hist, T, order, k, x, b=None):
            hists.add(hist)
            who = callers[-1] if callers else "other"
            if x is hist._state or x is hist._q:
                writes.append((who, k, hist.count))
            elif b is not None:
                projected.append((who, k, hist.count, len(writes)))
            return panel(hist, T, order, k, x, b)

        def within(name, method):
            def wrapped(hist, *args):
                callers.append(name)
                try:
                    return method(hist, *args)
                finally:
                    callers.pop()

            return wrapped

        monkeypatch.setattr(History, "_panel", logged_panel)
        queries = [
            "caputo_q", "caputo_q_along", "caputo_qdot", "caputo_qdot_along",
            "integral_aux_along", "caputo_q_series",
        ]
        for name, method in [("advance", "advance"), ("backfill", "_buffer")] + [
            ("query", query) for query in queries
        ]:
            monkeypatch.setattr(History, method, within(name, getattr(History, method)))
        assert run().grid.n_nodes == 201
        assert [k for _, k, _ in writes] == list(range(first, 200))
        assert [who for who, _, _ in writes] == ["backfill"] * backfilled + ["advance"] * (
            200 - first - backfilled
        )
        # once its last row is counted: by advance at that count, by the
        # backfill at that count or later
        assert all(c == k + 2 if who == "advance" else c >= k + 2 for who, k, c in writes)
        # each projected entry k is written by advance or the backfill,
        # once, after state entry k
        assert [k for _, k, _, _ in projected] == list(range(projected_entries))
        assert {who for who, _, _, _ in projected} <= {"advance", "backfill"}
        assert all(done == k + 1 for _, k, _, done in projected)
        # the final entries are the frac_ops differences of the whole run
        (hist,) = hists
        state = hist._state
        for T, x, order, b in hist._buffers:
            if x is state:
                if order == 1:
                    want = np.diff(state, axis=0)
                else:
                    want = np.array([_second_differences(col, hist.h) for col in state.T]).T
                assert np.array_equal(T[:200], want)
            elif b is not None:
                want = [b.dot(d) for d in np.diff(hist._qd, axis=0)]
                assert np.array_equal(T[:200], want)


class Logged:
    """Forwards every attribute of a right-hand side by name, as the
    benchmark's tracing proxy does, and logs the name of each method the
    stepper calls."""

    def __init__(self, target, log):
        self._target = target
        self._log = log

    def __call__(self, *args):
        self._log.append("__call__")
        return self._target(*args)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def logged(*args):
            self._log.append(name)
            return attr(*args)

        return logged


class TestProtocolCalls:
    """A step calls the right-hand side and nothing else on it; the
    singular increments and the residual are asked once per run."""

    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    @pytest.mark.parametrize("mode", ["prop1", "direct"])
    def test_second_order(self, scheme, mode):
        log = []
        sys = linear_system()
        rr = Logged(rhs_linear(sys, mode=mode), log)
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        res = integrate_second_order(rr, (sys.q_init, sys.qdot_init), cfg)
        assert res.grid.n_nodes == 201 and res.residual.shape == (201,)
        assert log == ["singular_increments"] + ["__call__"] * 201 + ["residual"]

    def test_hamilton(self):
        log = []
        sys = SystemSpec(
            grad_potential=lambda q: q,
            constraint=ConstraintSpec.linear([1.0, 0.5], [0.0, 0.0], FracOrder(0.5)),
            q_init=[1.0, 0.0],
            qdot_init=[0.0, 1.0],
        )
        cfg = IntegratorConfig(h=0.005, t_end=1.0)
        integrate_hamilton(Logged(hamilton_rhs(sys), log), (sys.q_init, sys.qdot_init), cfg)
        assert log == ["__call__"] * 201 + ["residual"]

    @pytest.mark.parametrize("scheme", ["semi-implicit-euler", "velocity-verlet"])
    def test_divergence_asks_the_residual_once(self, scheme):
        # a repulsive potential: |q| grows like exp(100 t) and passes 1e12
        log = []
        sys = SystemSpec(
            grad_potential=lambda q: -1e4 * q,
            constraint=ConstraintSpec.linear([1.0, 2.0], [0.5, -0.3], FracOrder(0.5)),
            q_init=[1.0, 0.5],
            qdot_init=[2.0, -1.0],
        )
        cfg = IntegratorConfig(h=0.005, t_end=1.0, scheme=scheme)
        with pytest.raises(DivergenceError) as exc:
            integrate_second_order(Logged(rhs_linear(sys), log), (sys.q_init, sys.qdot_init), cfg)
        upto = exc.value.partial.diagnostics["truncated_at"]
        assert 2 < upto < 201
        assert exc.value.partial.residual.shape == (upto,)
        steps = log.count("__call__")
        assert log == ["singular_increments"] + ["__call__"] * steps + ["residual"]


class TestSecondOrder:
    def test_zero_dynamics_exact(self):
        class Zero(RHS):
            n = 2

            def __call__(self, t, q, qd, hist):
                return np.zeros(2), math.nan

        for scheme in ("semi-implicit-euler", "velocity-verlet"):
            res = integrate_second_order(
                Zero(),
                ([1.5, -2.0], [0.0, 0.0]),
                IntegratorConfig(h=0.01, t_end=1.0, scheme=scheme),
            )
            assert np.all(res.q[:, 0] == 1.5)
            assert np.all(res.q[:, 1] == -2.0)
            assert np.all(res.qdot == 0.0)

    def test_causality_prefix_bit_identical(self):
        short = integrate_second_order(
            OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=0.01, t_end=1.0)
        )
        long = integrate_second_order(
            OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=0.01, t_end=2.0)
        )
        n = short.grid.n_nodes
        assert np.array_equal(short.q, long.q[:n])
        assert np.array_equal(short.qdot, long.qdot[:n])

    def test_scheme_orders(self):
        def err(h, scheme):
            res = integrate_second_order(
                OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=h, t_end=2.0, scheme=scheme)
            )
            return np.max(np.abs(res.q[:, 0] - np.cos(res.grid.nodes())))

        e1 = [err(h, "semi-implicit-euler") for h in (1 / 128, 1 / 256)]
        assert 0.8 < math.log2(e1[0] / e1[1]) < 1.3
        e2 = [err(h, "velocity-verlet") for h in (1 / 128, 1 / 256)]
        assert 1.8 < math.log2(e2[0] / e2[1]) < 2.2

    def test_divergence_carries_partial(self):
        class Bad(RHS):
            n = 1

            def __call__(self, t, q, qd, hist):
                return np.array([1e15]), math.nan

        with pytest.raises(DivergenceError) as exc:
            integrate_second_order(Bad(), ([0.0], [0.0]), IntegratorConfig(h=0.1, t_end=1.0))
        # qdot_1 = 1e14 breaks the bound, so only node 0 is kept
        partial = exc.value.partial
        assert partial.diagnostics == {"truncated_at": 1}
        assert partial.q.tolist() == [[0.0]] and partial.qdot.tolist() == [[0.0]]
        assert "exceeded" in str(exc.value)

    def test_nan_detected(self):
        class NaN(RHS):
            n = 1

            def __call__(self, t, q, qd, hist):
                return np.array([np.nan]), math.nan

        with pytest.raises(DivergenceError):
            integrate_second_order(NaN(), ([0.0], [0.0]), IntegratorConfig(h=0.1, t_end=1.0))

    def test_singular_hook_decided_once(self):
        """``singular_increments`` is asked once per run, with the grid
        nodes.  None adds nothing; an array adds its row i to the velocity
        update of step i."""
        calls = []

        class Shift(RHS):
            def __init__(self, incs):
                self.incs = incs

            def __call__(self, t, q, qd, hist):
                return np.zeros(1), math.nan

            def singular_increments(self, t):
                calls.append(t.tolist())
                return self.incs

        incs = np.array([[1.0], [-2.0], [0.5], [0.25]])
        for scheme in ("semi-implicit-euler", "velocity-verlet"):
            cfg = IntegratorConfig(h=0.5, t_end=2.0, scheme=scheme)
            calls.clear()
            res = integrate_second_order(Shift(None), ([1.0], [0.0]), cfg)
            assert calls == [[0.0, 0.5, 1.0, 1.5, 2.0]]
            assert np.all(res.qdot == 0.0)
            assert res.diagnostics["max_singular_increment"] == 0.0
            res = integrate_second_order(Shift(incs), ([1.0], [0.0]), cfg)
            assert res.qdot[:, 0].tolist() == [0.0, 1.0, -1.0, -0.5, -0.25]
            assert res.diagnostics["max_singular_increment"] == 2.0

    def test_diagnostics_cost_model(self):
        """``history_terms`` counts the products the history computes, here
        tallied by the right-hand side at every call from the prefix length
        it sees.  A query repeated at one count adds its products again, and
        so does a node of the post-run ``caputo_q_series`` that a step
        already summed; a query with fewer panels than its difference order
        takes no dot and adds nothing."""
        tally = []

        def products(panels, order):
            return 2 * panels if panels >= order else 0

        class Memory(RHS):
            def __call__(self, t, q, qd, hist):
                for _ in range(2):
                    tally.append(products(hist.count - 1, 1))
                    hist.caputo_q(0.5)
                tally.append(products(hist.count - 1, 2))
                hist.caputo_qdot(1.5)
                return -q, math.nan

            def residual(self, hist, multiplier):
                # 0.5 was summed at every count a step saw, 0.3 at none
                for alpha in (0.5, 0.3):
                    panels = hist.count - 1
                    tally.append(2 * panels * (panels + 1) // 2)
                    hist.caputo_q_series(alpha)
                return None

        for scheme in ("semi-implicit-euler", "velocity-verlet"):
            tally.clear()
            res = integrate_second_order(
                Memory(), ([1.0, 0.5], [0.0, 1.0]),
                IntegratorConfig(h=0.1, t_end=1.0, scheme=scheme),
            )
            assert res.diagnostics["history_terms"] == sum(tally) > 0


class Coast(RHS):
    """A constant acceleration ``force`` (0: motion at constant velocity)."""

    def __init__(self, force=0.0):
        self.force = force

    def __call__(self, t, q, qd, hist):
        return np.full(len(q), self.force), math.nan


class HamiltonCoast(Coast):
    """qdot = p and pdot = ``force``: explicit Euler in the Hamilton form
    moves as semi-implicit Euler does at zero force."""

    def __call__(self, t, q, p, hist):
        return (p, np.full(len(q), self.force)), math.nan


DIVERGENCE_SCHEMES = ["semi-implicit-euler", "velocity-verlet", "hamilton"]


def coast(scheme, q0, v0, t_end, force=0.0):
    """A run at h = 1/2 from (q0, v0).  At zero force every scheme gives
    q_k = q0 + k v0 / 2 and qdot_k = v0, exactly for the values below."""
    if scheme == "hamilton":
        cfg = IntegratorConfig(h=0.5, t_end=t_end)
        return integrate_hamilton(HamiltonCoast(force), (q0, v0), cfg)
    cfg = IntegratorConfig(h=0.5, t_end=t_end, scheme=scheme)
    return integrate_second_order(Coast(force), (q0, v0), cfg)


class TestDivergence:
    """A run stops at the first node with a state entry past 1e12 in
    magnitude, or non-finite, and carries the nodes before it.  The bound
    is on each entry: all of them at 0.9e12 is within it."""

    @pytest.mark.parametrize("scheme", DIVERGENCE_SCHEMES)
    def test_all_entries_at_0_9e12_pass(self, scheme):
        res = coast(scheme, [4.5e11, 4.5e11], [9e11, 9e11], t_end=0.5)
        assert res.q[-1].tolist() == [9e11, 9e11]
        assert res.qdot[-1].tolist() == [9e11, 9e11]

    @pytest.mark.parametrize("scheme", DIVERGENCE_SCHEMES)
    def test_partial_ends_at_first_node_past_bound(self, scheme):
        # node 1 has all four entries at 0.9e12, node 2 has q = 1.35e12
        with pytest.raises(DivergenceError, match="exceeded") as exc:
            coast(scheme, [4.5e11, 4.5e11], [9e11, 9e11], t_end=2.0)
        partial = exc.value.partial
        assert partial.diagnostics["truncated_at"] == 2
        prefix = coast(scheme, [4.5e11, 4.5e11], [9e11, 9e11], t_end=0.5)
        assert np.array_equal(partial.q, prefix.q)
        assert np.array_equal(partial.qdot, prefix.qdot)
        assert np.array_equal(partial.multiplier, prefix.multiplier, equal_nan=True)

    @pytest.mark.parametrize("scheme", DIVERGENCE_SCHEMES)
    def test_one_entry_past_bound_raises(self, scheme):
        # q_1 goes 0.999999e12, 1e12 (on the bound: kept), 1.000001e12
        with pytest.raises(DivergenceError, match="exceeded") as exc:
            coast(scheme, [0.999999e12, 1.0], [2e6, 0.0], t_end=2.0)
        partial = exc.value.partial
        assert partial.diagnostics["truncated_at"] == 2
        assert partial.q[:, 0].tolist() == [0.999999e12, 1e12]

    @pytest.mark.parametrize("scheme", DIVERGENCE_SCHEMES)
    def test_entry_whose_square_overflows(self, scheme):
        # every scheme puts a finite 1e200 into the state at node 1: its
        # square overflows, and the run still ends on "exceeded"
        with pytest.raises(DivergenceError, match="exceeded") as exc:
            coast(scheme, [1.0, 2.0], [0.0, 0.0], t_end=2.0, force=2e200)
        partial = exc.value.partial
        assert partial.diagnostics["truncated_at"] == 1
        assert partial.q.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("scheme", DIVERGENCE_SCHEMES)
    @pytest.mark.parametrize("force", [np.nan, np.inf])
    def test_non_finite_state(self, scheme, force):
        with pytest.raises(DivergenceError, match="non-finite") as exc:
            coast(scheme, [1.0, 2.0], [0.0, 0.0], t_end=2.0, force=force)
        partial = exc.value.partial
        assert partial.diagnostics["truncated_at"] == 1
        assert partial.q.tolist() == [[1.0, 2.0]]


class TestLogging:
    def test_one_debug_record_per_run(self, caplog):
        assert any(
            isinstance(hd, logging.NullHandler) for hd in logging.getLogger("fracdyn").handlers
        )
        with caplog.at_level(logging.DEBUG, logger="fracdyn"):
            res = integrate_second_order(
                OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=0.01, t_end=1.0)
            )
        (rec,) = caplog.records
        assert rec.name.startswith("fracdyn") and rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        assert msg.startswith("semi-implicit-euler: 100 steps, ")
        assert f"{res.diagnostics['history_terms']} history terms" in msg


class TestFractionalABM:
    def test_polynomial_free_motion_exact(self):
        # D^1.5 x = 0 with x(0)=a, x'(0)=b keeps the Taylor part a + b t
        cfg = IntegratorConfig(h=0.05, t_end=2.0)
        res = integrate_fractional_abm(1.5, lambda t, x: 0.0, [0.7, -0.4], cfg)
        t = res.grid.nodes()
        assert np.max(np.abs(res.q[:, 0] - (0.7 - 0.4 * t))) < 1e-14

    def test_relaxation_ml_oracle(self):
        cfg = IntegratorConfig(h=1 / 512, t_end=2.0)
        res = integrate_fractional_abm(0.5, lambda t, x: -x, [1.0], cfg)
        ref = np.array(
            [ml(MLParams(0.5, 1.0), -math.sqrt(tv)) for tv in res.grid.nodes()]
        )
        assert np.max(np.abs(res.q[:, 0] - ref)) < 1e-3

    def test_two_term_oscillator(self):
        cfg = IntegratorConfig(h=1 / 256, t_end=2.0)
        res = integrate_fractional_abm(1.5, lambda t, x: -x, [1.0, 0.0], cfg)
        ref = np.array(
            [ml(MLParams(1.5, 1.0), -(tv**1.5)) for tv in res.grid.nodes()]
        )
        assert np.max(np.abs(res.q[:, 0] - ref)) < 1e-5

    def test_init_count_checked(self):
        cfg = IntegratorConfig(h=0.1, t_end=1.0)
        with pytest.raises(FracDomainError):
            integrate_fractional_abm(1.5, lambda t, x: 0.0, [1.0], cfg)
        with pytest.raises(FracDomainError):
            integrate_fractional_abm(3.5, lambda t, x: 0.0, [1.0], cfg)


class TestConvergenceStudy:
    def run_factory(self):
        def run(h):
            res = integrate_second_order(
                OscRHS(), ([1.0], [0.0]), IntegratorConfig(h=h, t_end=2.0, scheme="velocity-verlet")
            )
            return SampleSeries(res.grid, res.q[:, 0])

        return run

    def test_orders_against_reference(self):
        rows = convergence_study(
            self.run_factory(),
            [1 / 256, 1 / 512, 1 / 1024, 1 / 2048],
            reference=np.cos,
        )
        for r in rows[1:]:
            assert abs(r["order"] - 2.0) < 0.1
        assert all(r["monotone"] for r in rows)

    def test_self_convergence_reference(self):
        rows = convergence_study(self.run_factory(), [1 / 64, 1 / 128, 1 / 256])
        assert rows[-1]["error"] < rows[0]["error"]

    def test_short_ladder_rejected(self):
        with pytest.raises(FracDomainError):
            convergence_study(self.run_factory(), [0.1], reference=np.cos)

    def test_repeated_step_rejected(self):
        with pytest.raises(FracDomainError):
            convergence_study(self.run_factory(), [0.1, 0.05, 0.1], reference=np.cos)

    def test_non_monotone_flagged(self):
        calls = iter([1e-3, 1e-4, 1e-4])

        def fake_run(h):
            g = Grid.from_step(0.0, 1.0, h)
            return SampleSeries(g, np.full(g.n_nodes, next(calls)))

        rows = convergence_study(fake_run, [0.1, 0.05, 0.025], reference=lambda t: 0.0 * t)
        assert not rows[-1]["monotone"]

    def test_order_uses_step_ratio(self):
        # error exactly 3 h^2 on a ladder that divides the step by three
        def run(h):
            g = Grid.from_step(0.0, 1.0, h)
            return SampleSeries(g, np.full(g.n_nodes, 3.0 * h**2))

        rows = convergence_study(run, [0.1, 1 / 30, 1 / 90], reference=lambda t: 0.0 * t)
        for r in rows[1:]:
            assert abs(r["order"] - 2.0) < 1e-12
