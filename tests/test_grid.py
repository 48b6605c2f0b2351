import numpy as np
import pytest

from hyporom.errors import ConfigError
from hyporom.grid import Grid1D


def test_centers_and_spacing():
    grid = Grid1D(0.0, 2.0, 200)
    assert grid.dx == pytest.approx(0.01)
    assert grid.centers[0] == pytest.approx(0.0 + grid.dx / 2, abs=1e-15)
    assert grid.centers[-1] == pytest.approx(2.0 - grid.dx / 2, abs=1e-15)
    gaps = np.diff(grid.centers)
    assert np.all(np.abs(gaps - grid.dx) <= 1e-14 * 2.0)
    assert len(grid.interfaces) == 201
    assert grid.interfaces[0] == 0.0 and grid.interfaces[-1] == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 3, 17, 256])
def test_uniformity_across_sizes(n):
    grid = Grid1D(-5.0, 5.0, n)
    assert grid.dx > 0
    assert np.all(np.diff(grid.centers) > 0)
    assert np.allclose(np.diff(grid.centers), grid.dx, atol=1e-14 * 10.0)


def test_invalid_grids_rejected():
    with pytest.raises(ConfigError, match="n_cells"):
        Grid1D(0.0, 1.0, 0)
    with pytest.raises(ConfigError, match="x_max"):
        Grid1D(1.0, 1.0, 10)
