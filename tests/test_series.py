"""Input checks of the carriers: Grid and FracOrder."""

import math

import numpy as np
import pytest

from fracdyn.errors import FracDomainError
from fracdyn.series import FracOrder, Grid


class TestGrid:
    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_from_step_needs_a_positive_finite_step(self, h):
        # h = 0 divided by zero, and h = nan failed in round()
        with pytest.raises(FracDomainError, match="step"):
            Grid.from_step(0.0, 1.0, h)

    @pytest.mark.parametrize("args", [(0.0, math.inf, 0.1), (0.0, 1.0, 1e-320), (math.nan, 1.0, 0.1)])
    def test_from_step_needs_a_finite_step_count(self, args):
        # an infinite or NaN step count: round() raised OverflowError or ValueError
        with pytest.raises(FracDomainError, match="finite number of steps"):
            Grid.from_step(*args)

    @pytest.mark.parametrize(
        "ends", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_ends_must_be_finite(self, ends):
        # Grid(0, inf, 10) had NaN and inf nodes
        with pytest.raises(FracDomainError, match="finite"):
            Grid(*ends, 10)

    @pytest.mark.parametrize("n", [2.5, 2.0, "3", None])
    def test_n_steps_must_be_an_integer(self, n):
        # Grid(0, 1, 2.5) had 3.5 nodes, the last one past t_end
        with pytest.raises(FracDomainError, match="integer"):
            Grid(0.0, 1.0, n)

    def test_numpy_integer_steps(self):
        g = Grid(0.0, 1.0, np.int64(4))
        assert g.n_nodes == 5
        assert g == Grid(0.0, 1.0, 4)
        assert np.array_equal(g.nodes(), Grid(0.0, 1.0, 4).nodes())


class TestFracOrder:
    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_rejected(self, alpha):
        # FracOrder(inf) was accepted, and its .m raised OverflowError
        with pytest.raises(FracDomainError):
            FracOrder(alpha)

    def test_accepted(self):
        assert FracOrder(1.5).m == 2 and FracOrder(2.0).is_integer
