"""The uniform horizon grid shared by the renewal-equation solver and the CLI.

Pure Python, so the CLI checks its report grid without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from restock.distributions import _check_real

__all__ = ["GridSpec", "DEFAULT_STEP"]

DEFAULT_STEP = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Uniform solution grid: horizon ``t_max`` tiled by n_steps >= 0 steps ``h``.

    A positive ``t_max`` needs at least one step: a step that rounds it to
    0 steps does not tile it.
    """

    t_max: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_max", _check_real("t_max", self.t_max, "nonnegative"))
        object.__setattr__(self, "h", _check_real("h", self.h, "positive"))
        n = self.n_steps
        if (n == 0 and self.t_max > 0) or abs(n * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"step h={self.h} does not tile t_max={self.t_max}")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.h)
