"""Fixed-step causal integrators for dynamics with fractional history terms.

The Lagrange-form right-hand sides of ``constrained_dynamics`` need the
Caputo derivative of the trajectory-so-far at every step.  ``History``
keeps the run's samples and answers those queries with the L1 scheme (and
the product-trapezoidal fractional integral); filled from samples
(``_sampled``), it is the package's one L1 engine for whole series too.
The fractional Adams integrator keeps its memory there as well: its
predictor and corrector are the product rectangle and product trapezoid
of the rhs values it stores, so no integrator sums a history of its
own.
A query reads one lane of one table: the rows of a difference buffer and
a weight table built once per run.  Every buffer, the projected ones
too, is written by one loop, each entry once its rows are final, so an
answer does not depend on the schedule of queries before it.  A run's
``history_terms`` is the number of products its queries computed.
All schemes are explicit with the history term lagged at most one step,
so the per-step cost grows linearly with the step index (O(N^2) per run).

Every right-hand side meets the ``RHS`` protocol.  A step does only the
work the next state depends on: one right-hand-side call, which returns
the rate and the constraint multiplier.  What the run reports but never
steps on is computed once per run: the singular velocity increments
before the first step, and the constraint residual at every node after
the last one, from the rows the steps stored (their D^alpha q, or the
Hamilton form's A) or from D^alpha q at every node in one blocked
product.  A run's memory lives only in the ``History`` the stepper
creates for that run, and no run writes to the RHS object, so one object
can serve any number of runs, at once too.

Singular power-law correction terms (the derivative-shift startup term)
are not sampled; right-hand sides hand over their exact per-step integrals
and the steppers add them to the velocity updates directly.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError, FracDomainError
from .frac_ops import _l1_scheme, _l1_weights, _trapezoid_start, _trapezoid_weights
from .series import Grid, SampleSeries

__all__ = [
    "RHS",
    "IntegratorConfig",
    "SimulationResult",
    "History",
    "integrate_second_order",
    "integrate_hamilton",
    "integrate_fractional_abm",
    "convergence_study",
]

_log = logging.getLogger(__name__)

_SCHEMES = ("semi-implicit-euler", "velocity-verlet")
# a state entry past this magnitude ends a run with DivergenceError
_DIVERGENCE_THRESHOLD = 1e12
# tile size of the post-run L1 product.  Of 64, 128 and 256 on one BLAS
# thread (x86-64), it is within 16% of the fastest from 1k to 64k panels
# and n = 1 to 3: at most 2 ms up to 5k panels, 0.45 s at 64k
_TILE = 128


@dataclass(frozen=True)
class IntegratorConfig:
    h: float
    t_end: float
    scheme: str = "semi-implicit-euler"

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise FracDomainError(f"step size must be positive and finite, got {self.h}")
        if not 0.0 < self.t_end < math.inf:
            raise FracDomainError(f"horizon must be positive and finite, got {self.t_end}")
        if self.scheme not in _SCHEMES:
            raise FracDomainError(f"unknown scheme {self.scheme!r}")

    def grid(self) -> Grid:
        return Grid.from_step(0.0, self.t_end, self.h)


@dataclass(frozen=True)
class SimulationResult:
    grid: Grid
    q: np.ndarray
    qdot: np.ndarray
    multiplier: np.ndarray
    residual: Optional[np.ndarray]
    diagnostics: dict = field(default_factory=dict)

    def q_series(self, k: int = 0) -> SampleSeries:
        return SampleSeries(self.grid, self.q[:, k])


class _Lane:
    """One series of a ``History`` at one order alpha, bound once for the
    per-step query: the L1 scheme's difference order, the series' rows of
    that order's difference buffer (one 1-d row for a projected series),
    the products per panel, the pre-scaled weight table and the dot to
    take."""

    __slots__ = ("order", "rows", "width", "w", "dot")

    def __init__(self, rows: np.ndarray, order: int, w: np.ndarray) -> None:
        self.order = order
        self.rows = rows
        self.width = 1 if rows.ndim == 1 else len(rows)
        self.w = w
        # on a single row the dot product is cheaper than a gemv
        self.dot = np.dot if self.width == 1 else np.matmul


class History:
    """All the memory of one run, with causal fractional queries on it.

    The q and qdot samples sit side by side in one (nodes, 2n) state array,
    which the steppers write in place (``append`` copies a state in).  Per
    node the history also holds the n-vector the right-hand side ``store``s:
    D^alpha q for the post-run residual, the Hamilton form's A, or the
    pre form's K(x).

    An L1 query reads one lane, keyed (series, alpha) for the series "q"
    or "qdot", or ("qdot", alpha, b) for the projected series b . qdot:
    the rows of a difference buffer and the weight table of alpha, built
    once per run, reversed and multiplied by the scheme's constant.  Every
    difference buffer is one record of ``_buffers``: the first or second
    differences of the state, or b . (entry k of the qdot differences).
    Each entry is written once, when its rows are final: by the backfill of
    a new buffer, then by ``advance``, at panel count - 2; for second
    differences panel 0 repeats panel 1.  A query only reads.
    ``caputo_q_along`` and ``integral_aux_along`` answer at the node past
    the newest, whose value is ``ahead``.  So does ``rectangle_aux``, the
    product rectangle of the stored vectors, which needs no ``ahead``.  The
    two product rules of the stored vectors read one table each, keyed
    (rule, eps) for any finite eps > 0 and built once per run.

    L1 results are those of ``l1_caputo_last`` on the same prefix within
    (panels + 4) eps sum|c w_k d_k|, a projected one within
    (panels + n + 4) eps sum|c w_k| |b|.|d_k| of b times the n sums, and
    ``integral_aux_along`` within (m + n + 4) eps sum|s c_j| |b|.|f_j| of
    b times the n ``fractional_integral_last`` values at count m
    (s = h^eps/Gamma(eps + 2), c_j the weight of row j).  Each column of
    ``rectangle_aux`` at count m is within (m + 4) eps sum_j |s w_j f_j|
    of s times the exact sum of the products w_j f_j (s = h^eps/Gamma(eps
    + 1), w_j = (m-j)^eps - (m-1-j)^eps as ``_l1_weights`` gives it).

    ``terms`` is the number of products the queries computed: panels x
    width for each dot a lane's query takes, however often it is asked at
    one count; panels(panels + 1)/2 x n for ``caputo_q_series``; n per
    panel or stored row for the next-node queries, so m x n for
    ``rectangle_aux`` and (m - 1) x n for ``integral_aux_along``.
    """

    def __init__(self, grid: Grid, n: int) -> None:
        self.h = grid.h
        self.n = n
        self._h2 = grid.h**2
        self._size = grid.n_nodes
        self._state = np.empty((grid.n_nodes, 2 * n))
        self._q = self._state[:, :n]
        self._qd = self._state[:, n:]
        self._aux = np.zeros((grid.n_nodes, n))
        self.count = 0
        self.terms = 0
        self._weights: dict = {}
        self._lanes: dict = {}
        # one (transposed buffer, source rows, difference order, b or None)
        # per difference buffer: ``advance`` writes its panel count - 2
        self._buffers: list = []

    def append(self, q: np.ndarray, qdot: np.ndarray) -> None:
        """Add the state at the next node."""
        # slices: past the grid's last node they are empty, and ``advance``
        # raises
        self._q[self.count : self.count + 1] = q
        self._qd[self.count : self.count + 1] = qdot
        self.advance()

    def advance(self) -> None:
        """Count the state row at the next node, written there in place
        (the steppers write into ``_q`` and ``_qd``), and write the
        difference entries the count makes final.  A counted row must not
        change again.  Past the grid's last node it raises, and the count
        stays."""
        if self.count == self._size:
            raise FracDomainError(f"all {self._size} nodes of the grid are counted")
        c = self.count = self.count + 1
        for T, x, order, b in self._buffers:
            if c - 2 >= order - 1:
                self._panel(T, order, c - 2, x, b)

    def store(self, v) -> None:
        """Set the right-hand side's vector at the newest node."""
        if not self.count:
            raise FracDomainError("store needs a counted node")
        self._aux[self.count - 1] = v

    @property
    def q_view(self) -> np.ndarray:
        return self._q[: self.count]

    @property
    def qdot_view(self) -> np.ndarray:
        return self._qd[: self.count]

    @property
    def aux_view(self) -> np.ndarray:
        return self._aux[: self.count]

    def caputo_q(self, alpha: float) -> np.ndarray:
        """L1 Caputo derivative of q at the newest node."""
        return self._sum(self._lanes.get(("q", alpha)) or self._lane(("q", alpha)))

    def caputo_q_along(self, alpha: float, b: tuple, ahead: tuple) -> float:
        """b . D^alpha q at the node past the newest, on the prefix extended
        by the value ``ahead``; b and ``ahead`` hold n floats each.  Per
        column, one dot of the final differences with the table's tail
        shifted by one panel, plus the newest weight times the newest
        entry, which is computed from ``ahead`` and not written."""
        n = self.n
        if len(b) != n or len(ahead) != n:
            raise FracDomainError(f"b and ahead must hold {n} values each")
        lane = self._lanes.get(("q", alpha)) or self._lane(("q", alpha))
        c, order = self.count, lane.order
        if c < order:
            return 0.0
        self.terms += c * n
        rows = self._q[c - order : c].tolist()
        rows.append(ahead)
        newest = self._entry(order, rows)
        # the entries before the newest are final, but at count 2 of
        # second differences, where panel 0 repeats the newest panel
        w, size = lane.w, self._size
        final, last = c - 1, float(w[-1])
        if final == 1 and order == 2:
            final, last = 0, last + float(w[-2])
        tail = w[size - 1 - final : size - 1]
        total = 0.0
        for bk, d, e in zip(b, lane.rows, newest):
            total += bk * (float(d[:final].dot(tail)) + last * e)
        return total

    def caputo_qdot(self, alpha: float) -> np.ndarray:
        return self._sum(self._lanes.get(("qdot", alpha)) or self._lane(("qdot", alpha)))

    def caputo_qdot_along(self, alpha: float, b: tuple) -> float:
        """b . D^alpha qdot at the newest node, for a tuple b of n floats
        (it keys the lane): one dot of the projected differences with the
        weight table, in place of the n sums of ``caputo_qdot``."""
        key = ("qdot", alpha, b)
        return float(self._sum(self._lanes.get(key) or self._lane(key)))

    def caputo_q_series(self, alpha: float) -> np.ndarray:
        """(count, n) L1 Caputo derivatives of q at every counted node,
        each the one ``caputo_q`` gives at that count (within the rounding
        bound), from one blocked product over the final differences."""
        out = np.zeros((self.count, self.n))
        panels = self.count - 1
        if panels < 1:
            return out
        lane = self._lanes.get(("q", alpha)) or self._lane(("q", alpha))
        out[1:] = _causal_products(lane.w[::-1], lane.rows[:, :panels])
        if lane.order == 2:
            # one panel has no second difference yet: the sum is zero there
            out[1] = 0.0
        self.terms += panels * (panels + 1) // 2 * self.n
        return out

    def integral_aux_along(self, eps: float, b: tuple, ahead: tuple) -> float:
        """b . J^eps, by the product trapezoid, of the stored vectors
        extended by the value ``ahead``, at the node past the newest; b and
        ``ahead`` hold n floats each.  Per column, one dot of the stored
        column with the reversed table, which has h^eps/Gamma(eps + 2)
        folded in, plus the two end terms."""
        n = self.n
        if len(b) != n or len(ahead) != n:
            raise FracDomainError(f"b and ahead must hold {n} values each")
        scale, c = self._weights.get(("trapezoid", eps)) or self._table("trapezoid", eps)
        m = self.count
        if m == 0:
            return 0.0
        self.terms += (m - 1) * n
        start = _trapezoid_start(m, eps)
        tail = c[self._size - m :]
        total = 0.0
        for bk, f0, x, col in zip(b, self._aux[0].tolist(), ahead, self._aux.T):
            total += bk * (scale * (start * f0 + x) + float(col[1:m].dot(tail)))
        return total

    def rectangle_aux(self, eps: float) -> np.ndarray:
        """J^eps, by the product rectangle, of each column of the stored
        vectors at the node past the newest, each vector held over the
        panel it starts: one product of the stored rows with the reversed
        table's tail, which has h^eps/Gamma(eps + 1) folded in."""
        _, w = self._weights.get(("rectangle", eps)) or self._table("rectangle", eps)
        m = self.count
        self.terms += m * self.n
        return w[self._size - m :].dot(self._aux[:m])

    def _table(self, rule: str, eps: float) -> tuple:
        """The (scale, weights) of the product rule ``rule`` at any finite
        eps > 0, built once per run.  The weights are reversed, with the
        scale folded in, so the last ones are those of count m: for
        "trapezoid" h^eps/Gamma(eps + 2) and c_(size-1) ... c_1, for
        "rectangle" h^eps/Gamma(eps + 1) and (k+1)^eps - k^eps for
        k = size-1 ... 0."""
        if not 0.0 < eps < math.inf:
            raise FracDomainError(f"eps must be positive and finite, got {eps}")
        if rule == "trapezoid":
            scale, w = self.h**eps / math.gamma(eps + 2.0), _trapezoid_weights(self._size, eps)
        else:
            scale, w = self.h**eps / math.gamma(eps + 1.0), _l1_weights(self._size, eps)
        return self._weights.setdefault((rule, eps), (scale, w[::-1] * scale))

    def _lane(self, key: tuple) -> _Lane:
        """Make the lane of ``key``, (series, alpha) or ("qdot", alpha, b).
        Its weight table holds the panel weights reversed, so the last k
        are those of k panels in the order the differences are summed."""
        series, alpha = key[:2]
        order, p, hp, g = _l1_scheme(alpha, self.h)
        w = self._weights.get(("l1", alpha))
        if w is None:
            w = self._weights[("l1", alpha)] = _l1_weights(self._size, p)[::-1] * (hp / g)
        T = self._buffer(self._state, order)
        cols = slice(self.n, None) if series == "qdot" else slice(0, self.n)
        if len(key) == 2:
            rows = T.T[cols]
        else:
            b = np.array(key[2], dtype=float)
            if b.shape != (self.n,):
                raise FracDomainError(f"b must hold {self.n} values, got {len(b)}")
            rows = self._buffer(T[:, cols], order, b)
        lane = self._lanes[key] = _Lane(rows, order, w)
        return lane

    def _buffer(self, x: np.ndarray, order: int, b: Optional[np.ndarray] = None) -> np.ndarray:
        """The transposed (nodes, columns) buffer of the differences of
        order ``order`` of the state rows x, or, given b, the 1-d buffer of
        b . x[k] for the rows x of a difference buffer.  A new buffer gets
        every entry the counted rows make final, as ``advance`` writes
        them."""
        for T, y, o, _ in self._buffers:
            # a projected buffer's rows are a view made for it alone: no
            # lookup finds it
            if y is x and o == order:
                return T
        T = np.zeros((x.shape[1], self._size)).T if b is None else np.zeros(self._size)
        for k in range(order - 1, self.count - 1):
            self._panel(T, order, k, x, b)
        self._buffers.append((T, x, order, b))
        return T

    def _panel(
        self, T: np.ndarray, order: int, k: int, x: np.ndarray, b: Optional[np.ndarray] = None
    ) -> None:
        """Write panel k of the buffer ``T``: the entry ``_entry`` gives of
        the rows x, or, given b, b . x[k].  For second differences panel 0
        repeats panel 1 (and is zero until there is one)."""
        if b is not None:
            T[k] = b.dot(x[k])
        elif order == 1:
            # ``_entry``'s subtraction as one ufunc: the same IEEE results,
            # cheaper on the state's 2n columns
            np.subtract(x[k + 1], x[k], out=T[k])
            return
        else:
            T[k] = self._entry(2, x[k - 1 : k + 2].tolist())
        if k == 1 and order == 2:
            T[0] = T[1]

    def _entry(self, order: int, rows: list) -> list:
        """The difference entry, as Python floats, of the order + 1 rows
        ``rows`` (sequences of floats, oldest first): x1 - x0, or
        (x2 - 2 x1 + x0) / h^2, as in ``frac_ops``.  Python floats: the
        same IEEE operations as the ufuncs, cheaper on a few columns."""
        if order == 1:
            r0, r1 = rows
            return [x1 - x0 for x1, x0 in zip(r1, r0)]
        r0, r1, r2 = rows
        h2 = self._h2
        return [(x2 - 2.0 * x1 + x0) / h2 for x2, x1, x0 in zip(r2, r1, r0)]

    def _sum(self, lane: _Lane):
        """The L1 sums of a lane's series at the newest node (one float for
        a projected series): one dot of panels x width products, which
        ``terms`` counts."""
        panels = self.count - 1
        if panels < lane.order:
            return 0.0 if lane.rows.ndim == 1 else np.zeros(self.n)
        self.terms += panels * lane.width
        return lane.dot(lane.rows[..., :panels], lane.w[self._size - panels :])


def _sampled(grid: Grid, q: np.ndarray) -> History:
    """A ``History`` of the samples q (one series, or one column per
    coordinate) with zero velocities: its ``caputo_q_series`` gives their
    L1 derivatives at every node."""
    q = np.asarray(q, dtype=float).reshape(grid.n_nodes, -1)
    hist = History(grid, q.shape[1])
    for row in q:
        hist.append(row, 0.0)
    return hist


def _causal_products(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(panels, columns) causal sums e[m] = sum_(j <= m) w[m - j] d[:, j]
    of the (columns, panels) array ``d``: a lower-triangular Toeplitz
    product, taken in _TILE x _TILE tiles.  The tiles on one diagonal are
    all the same matrix, so each diagonal is one matrix product over every
    block of d it meets.  A sum in this order is within the same rounding
    bound as the per-count gemv."""
    n, panels = d.shape
    b = _TILE
    nb = -(-panels // b)
    # blocks[J, c] is column c of d over panels J*b ... J*b + b - 1
    padded = np.zeros((n, nb * b))
    padded[:, :panels] = d
    blocks = padded.reshape(n, nb, b).transpose(1, 0, 2).reshape(nb * n, b)
    # the tile of diagonal k, transposed, is T[s, r] = w[k*b + r - s] (0 for
    # a negative index): rows of the sliding windows of the padded weights
    v = np.zeros(b - 1 + nb * b)
    v[b - 1 : b - 1 + panels] = w[:panels]
    windows = sliding_window_view(v, b)
    out = np.empty((nb, n, b))
    for k in range(nb):
        tile = windows[k * b : k * b + b][::-1]
        prod = (blocks[: (nb - k) * n] @ tile).reshape(nb - k, n, b)
        if k:
            out[k:] += prod
        else:
            out[:] = prod
    return out.transpose(0, 2, 1).reshape(nb * b, n)[:panels]


class RHS:
    """The protocol the steppers consume.

    ``rhs(t, q, qdot, hist)`` returns the pair (rate, multiplier) at node
    t: the rate is the acceleration (for the Hamilton form, the pair
    (qdot, pdot)) and the multiplier the constraint's, NaN for a form
    without one.  That call is all a step asks of the right-hand side, and
    the pair is all the stepper reads.  The rest is asked once per run.
    Before the first step, ``singular_increments(t)`` gives, for the grid
    nodes t, the (steps, n) increments the stepper adds to the velocity
    update of each step, or None.  After the last step, or when the run
    diverges, ``residual(hist, multiplier)`` gives the constraint residual
    at every node the history counts, from the history and the multipliers
    recorded there, or None.  Whatever a run must remember goes into
    ``hist``: no method writes to the object once it is built.  The q and
    qdot passed in may be rows of the history itself, and must not be
    changed.  ``schemes`` names the configured schemes that may step the
    object; a stepper refuses any other before the first call.
    """

    schemes: tuple = _SCHEMES

    def __call__(self, t: float, q: np.ndarray, qdot: np.ndarray, hist: History):
        raise NotImplementedError

    def singular_increments(self, t: np.ndarray) -> Optional[np.ndarray]:
        return None

    def residual(self, hist: History, multiplier: np.ndarray) -> Optional[np.ndarray]:
        return None


def _diverged(row: np.ndarray, partial: SimulationResult) -> DivergenceError:
    """The error for a state row that failed |row| <= threshold, which NaN
    fails too."""
    if np.isfinite(row).all():
        return DivergenceError("state exceeded the divergence threshold", partial=partial)
    return DivergenceError("state became non-finite", partial=partial)


def _partial(grid, q, qd, lam, res, upto) -> SimulationResult:
    # copies, as in a full result: the result owns contiguous arrays
    return SimulationResult(
        grid, q[:upto].copy(), qd[:upto].copy(), lam[:upto],
        None if res is None else res[:upto], {"truncated_at": upto},
    )


def integrate_second_order(rhs: RHS, init, cfg: IntegratorConfig) -> SimulationResult:
    """Advance qddot with the configured scheme, where
    rhs(t, q, qdot, history) returns (qddot, multiplier).

    ``init`` is the pair (q0, qdot0).  Raises ``FracDomainError``, before
    the first step, for a scheme that ``rhs.schemes`` does not name.
    """
    return _integrate(rhs, init, cfg, cfg.scheme)


def integrate_hamilton(rhs: RHS, init, cfg: IntegratorConfig) -> SimulationResult:
    """Advance the Hamilton-form pair (q, p) by explicit Euler steps.

    The result stores p in the ``qdot`` slot; ``multiplier`` carries mu(t)
    and ``residual`` the constraint value A . qdot.  ``cfg.scheme`` must be
    one that ``rhs.schemes`` names (``hamilton_rhs`` names
    semi-implicit-euler), else ``FracDomainError`` is raised before the
    first step.
    """
    return _integrate(rhs, init, cfg, "hamilton-euler")


def _quiet():
    """numpy's error state for a run and for building a right-hand side:
    overflow and NaN there end the run at the divergence check or fail a
    check of the right-hand side, so numpy does not warn of them."""
    return np.errstate(over="ignore", invalid="ignore")


def _integrate(rhs: RHS, init, cfg: IntegratorConfig, scheme: str) -> SimulationResult:
    """The stepper loop shared by all explicit schemes; ``qd`` holds p for
    the Hamilton form."""
    # an attribute, not the type: a forwarding proxy of the object passes
    if cfg.scheme not in rhs.schemes:
        raise FracDomainError(
            f"this right-hand side steps only by {' or '.join(rhs.schemes)}, not {cfg.scheme}"
        )
    with _quiet():
        return _steps(rhs, init, cfg, scheme)


def _steps(rhs: RHS, init, cfg: IntegratorConfig, scheme: str) -> SimulationResult:
    start = time.perf_counter()
    grid = cfg.grid()
    h = grid.h
    nn = grid.n_nodes
    q0 = np.asarray(init[0], dtype=float)
    n = len(q0)
    hist = History(grid, n)
    # the run's state is the history's: a step writes row i + 1 in place,
    # checks it, then counts it
    state, q, qd = hist._state, hist._q, hist._qd
    q[0] = q0
    qd[0] = np.asarray(init[1], dtype=float)
    hist.advance()
    lam = np.full(nn, np.nan)
    t = grid.nodes()
    incs = None if scheme == "hamilton-euler" else rhs.singular_increments(t)
    t = t.tolist()  # Python floats: cheaper in scalar arithmetic
    thr = _DIVERGENCE_THRESHOLD
    # a row whose squares sum to at most (thr/2)^2 has every entry within thr
    screen = (0.5 * thr) ** 2

    def accept(i: int) -> None:
        row = state[i + 1]
        # one dot screens q and qdot.  NaN, inf, a square that overflows
        # and entries in (thr/2, thr] fail it and take the exact test of
        # each entry, one reduction that NaN fails too (the ufunc's own
        # reduce skips the Python wrapper of ndarray.max)
        if not row.dot(row) <= screen and not np.maximum.reduce(np.abs(row)) <= thr:
            res = rhs.residual(hist, lam[: i + 1])
            raise _diverged(row, _partial(grid, q, qd, lam, res, i + 1))
        hist.advance()

    # the step products take a vector of h, which numpy multiplies without
    # converting a Python float each time
    hv = np.full(n, h)
    # the rows of nodes i and i + 1, carried from step to step
    q_i, qd_i = q[0], qd[0]
    if scheme == "velocity-verlet":
        half_h, half_h2 = np.full(n, 0.5 * h), np.full(n, 0.5 * h * h)
        acc, lam[0] = rhs(t[0], q_i, qd_i, hist)
        for i in range(nn - 1):
            q_n, qd_n = q[i + 1], qd[i + 1]
            np.add(q_i + hv * qd_i, half_h2 * acc, out=q_n)
            # history still ends at node i: one-step-lagged fractional terms
            acc_new, lam[i + 1] = rhs(t[i + 1], q_n, qd_i + hv * acc, hist)
            np.add(qd_i, half_h * (acc + acc_new), out=qd_n)
            if incs is not None:
                qd_n += incs[i]
            accept(i)
            acc, q_i, qd_i = acc_new, q_n, qd_n
    else:
        for i in range(nn - 1):
            q_n, qd_n = q[i + 1], qd[i + 1]
            out, lam[i] = rhs(t[i], q_i, qd_i, hist)
            if scheme == "hamilton-euler":
                np.add(q_i, hv * out[0], out=q_n)
                np.add(qd_i, hv * out[1], out=qd_n)
            else:
                np.add(qd_i, hv * out, out=qd_n)
                if incs is not None:
                    qd_n += incs[i]
                np.add(q_i, hv * qd_n, out=q_n)
            accept(i)
            q_i, qd_i = q_n, qd_n
        lam[-1] = rhs(t[-1], q_i, qd_i, hist)[1]

    residual = rhs.residual(hist, lam)
    diags = {"scheme": scheme, "h": h}
    diags["history_terms"] = hist.terms
    if scheme != "hamilton-euler":
        diags["max_singular_increment"] = 0.0 if incs is None else float(np.abs(incs).max())
    _log.debug(
        "%s: %d steps, %d history terms, %.3f s",
        scheme, nn - 1, hist.terms, time.perf_counter() - start,
    )
    # copies, so that the result does not keep the history's buffers alive
    return SimulationResult(grid, q.copy(), qd.copy(), lam, residual, diags)


def integrate_fractional_abm(
    order, rhs: Callable, init: Sequence[float], cfg: IntegratorConfig
) -> SimulationResult:
    """Predictor-corrector (fractional Adams) for D^beta x = rhs(t, x).

    ``init`` supplies x(0), ..., x^(m-1)(0), m = ceil(beta).  Supported
    orders: 0 < beta < 3.  The run's memory is a one-column ``History``
    holding x and, as the stored vector, rhs(t, x) at each node.  A step
    adds to the Taylor part two of its queries at the node past the newest:
    the predictor's product rectangle (``rectangle_aux``), then the
    corrector's product trapezoid (``integral_aux_along``), extended by rhs
    at the predicted value.  So ``history_terms`` is N^2 for N steps.  qdot
    is ``np.gradient`` of x, in a divergence's partial result too, where a
    single node has NaN.
    """
    start = time.perf_counter()
    beta = float(getattr(order, "alpha", order))
    if not 0.0 < beta < 3.0:
        raise FracDomainError(f"supported orders are (0, 3), got {beta}")
    if len(init) != math.ceil(beta):
        raise FracDomainError(f"need {math.ceil(beta)} initial values, got {len(init)}")
    grid = cfg.grid()
    t = grid.nodes()
    taylor = sum(v * t**j / math.factorial(j) for j, v in enumerate(init))
    hist = History(grid, 1)
    for i in range(grid.n_nodes):
        x = taylor[i]
        if i:
            pred = x + hist.rectangle_aux(beta)[0]
            x += hist.integral_aux_along(beta, (1.0,), (rhs(t[i], pred),))
            if not abs(x) <= _DIVERGENCE_THRESHOLD:
                raise _diverged(np.array([x]), _abm_result(grid, hist, {"truncated_at": i}))
        hist.append(x, 0.0)
        hist.store(rhs(t[i], x))
    _log.debug(
        "fractional-abm: %d steps, %d history terms, %.3f s",
        grid.n_steps, hist.terms, time.perf_counter() - start,
    )
    return _abm_result(
        grid, hist, {"scheme": "fractional-abm", "h": grid.h, "history_terms": hist.terms}
    )


def _abm_result(grid: Grid, hist: History, diags: dict) -> SimulationResult:
    """The fractional Adams result over the nodes ``hist`` counts, with
    qdot = ``np.gradient`` of x (NaN on a single node)."""
    x = hist.q_view.copy()
    qdot = np.gradient(x, grid.h, axis=0) if len(x) > 1 else np.full_like(x, np.nan)
    return SimulationResult(grid, x, qdot, np.full(len(x), np.nan), None, diags)


def convergence_study(
    run: Callable[[float], SampleSeries],
    steps: Sequence[float],
    reference: Optional[Callable[[Grid], np.ndarray]] = None,
):
    """Error ladder: rows of (h, sup error, empirical order, monotone flag).

    ``run(h)`` produces the trajectory at step h; each rung runs once, and
    its row reports the step its grid took, which ``Grid.from_step`` may
    have rounded.  With ``reference``, which maps a rung's grid to the exact
    values on its nodes, every rung gets a row.  Without it, a rung's error
    is max |x_h - x_h'| over its own nodes, h' being the next finer rung, so
    each rung's grid must nest in that rung's grid and the finest rung gets
    no row.  The order of a row is log(e_prev/e) / log(h_prev/h) against
    the previous, coarser row.
    """
    steps = sorted(steps, reverse=True)
    if len(steps) < 3:
        raise FracDomainError("ladder must have at least 3 rungs")
    series = [run(hstep) for hstep in steps]
    if any(a.grid == b.grid for a, b in zip(series, series[1:])):
        raise FracDomainError("two rungs ran on one grid")
    if reference is None:
        errors = []
        for coarse, fine in zip(series, series[1:]):
            if fine.grid.n_steps % coarse.grid.n_steps:
                raise FracDomainError("a rung's grid does not nest in the next finer rung's grid")
            ratio = fine.grid.n_steps // coarse.grid.n_steps
            errors.append(np.max(np.abs(coarse.values - fine.values[::ratio])))
    else:
        errors = [np.max(np.abs(s.values - reference(s.grid))) for s in series]
    rows = []
    prev_err = prev_h = None
    monotone = True
    for s, err in zip(series, map(float, errors)):
        hstep = s.grid.h
        order = float("nan")
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = math.log(prev_err / err) / math.log(prev_h / hstep)
            if err >= prev_err:
                monotone = False
        rows.append({"h": hstep, "error": err, "order": order, "monotone": monotone})
        prev_err, prev_h = err, hstep
    return rows
