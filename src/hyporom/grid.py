"""Uniform cell-centered 1D mesh."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh of ``n_cells`` cells on [x_min, x_max].

    Cell centers sit at x_min + (i + 1/2)*dx; interfaces at x_min + i*dx,
    so there are ``n_cells + 1`` interfaces including both domain ends.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @cached_property
    def interfaces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx
