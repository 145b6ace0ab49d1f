"""Per-column Pareto maps of standardized Gaussian values.

The catalog is closed: each part maps a standardized Gaussian column through
its Pareto or folded-Pareto probability integral transform, whose marginal
law is exact Pareto(alpha), so thresholds and tail oracles downstream stay
exact. A subordinated Gaussian Y_k = G(X_k) is not drawn here: it is the M4
of lags [0, 0] and a diagonal `a` over a `subgauss` innovation
(`m4.SubGauss`, which lifts its Gaussian rows through these parts), and a
window maximum over lags [0, m] is the M4 of unit coefficients over those
lags, as E2 is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from subgauss.gausslin import SeriesMatrix, SpecError, _number


@dataclass(frozen=True)
class Part:
    """The map of one standardized Gaussian column.

    kinds (any other is an error):
      pareto(alpha)        = (1 - Phi(x))^(-1/alpha),
      folded_pareto(alpha) = (1 - F_|N|(|x|))^(-1/alpha).
    """

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in ("pareto", "folded_pareto"):
            raise SpecError(f"unknown transform kind {self.kind!r} (field: kind)")
        if not _number("alpha", self.alpha) > 0:
            raise SpecError(f"{self.kind} requires alpha > 0 (field: alpha)")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """The part's values at the 1-D column x."""
        if self.kind == "pareto":
            return ndtr(-x) ** (-1.0 / self.alpha)
        return (2.0 * ndtr(-np.abs(x))) ** (-1.0 / self.alpha)


def apply(X: SeriesMatrix, parts) -> SeriesMatrix:
    """Column i of X mapped through parts[i]; the output has X's n rows."""
    return SeriesMatrix(values=np.column_stack(
        [part.evaluate(X.values[:, i]) for i, part in enumerate(parts)]))
