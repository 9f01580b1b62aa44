"""Uniform time grids, sampled series, and fractional orders.

These are the carriers for every discrete operator in the package: a
:class:`Grid` is a closed interval split into equal steps, a
:class:`SampleSeries` is one real value per node, and :class:`FracOrder`
bundles a fractional order alpha with its integer ceiling m = floor(alpha)+1
and the complementary exponent epsilon = m - alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FracDomainError, GridMismatchError, IntegerOrderError

_INTEGER_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_j = t_start + j*h, j = 0..n_steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not isinstance(self.n_steps, (int, np.integer)):
            raise FracDomainError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise FracDomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise FracDomainError(
                f"grid ends must be finite, got [{self.t_start}, {self.t_end}]"
            )
        if not self.t_end > self.t_start:
            raise FracDomainError(
                f"need t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def nodes(self) -> np.ndarray:
        return self.t_start + self.h * np.arange(self.n_nodes)

    @classmethod
    def from_step(cls, t_start: float, t_end: float, h: float) -> "Grid":
        """Grid whose step divides the interval evenly and is nearest h:
        round(length / h) steps, at least one.  The step may exceed h
        (h = 0.3 over [0, 1] gives 1/3)."""
        if not 0.0 < h < math.inf:
            raise FracDomainError(f"step must be positive and finite, got {h}")
        n = (t_end - t_start) / h
        if not math.isfinite(n):
            raise FracDomainError(f"[{t_start}, {t_end}] has no finite number of steps {h}")
        return cls(t_start, t_end, max(1, int(round(n))))


@dataclass(frozen=True)
class SampleSeries:
    """Real samples of a scalar function on a :class:`Grid`.

    Values are immutable after construction.  NaN is tolerated only in the
    two endpoint slots (used as a not-a-value sentinel by operators whose
    continuous result is singular there); infinities are always rejected.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.shape != (self.grid.n_nodes,):
            raise GridMismatchError(
                f"expected {self.grid.n_nodes} values, got shape {arr.shape}"
            )
        if np.isinf(arr).any():
            raise FracDomainError("series values must be finite")
        if np.isnan(arr[1:-1]).any():
            raise FracDomainError("NaN only allowed in endpoint slots")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FracOrder:
    """A positive fractional order alpha with m = floor(alpha)+1, eps = m-alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise FracDomainError(f"order must be positive and finite, got {self.alpha}")

    @property
    def is_integer(self) -> bool:
        return abs(self.alpha - round(self.alpha)) < _INTEGER_TOL

    @property
    def m(self) -> int:
        if self.is_integer:
            return int(round(self.alpha))
        return math.floor(self.alpha) + 1

    @property
    def epsilon(self) -> float:
        return self.m - self.alpha

    def require_fractional(self) -> "FracOrder":
        if self.is_integer:
            raise IntegerOrderError(
                f"order {self.alpha} is an integer; use a classical derivative"
            )
        return self
