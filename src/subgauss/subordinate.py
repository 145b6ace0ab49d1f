"""Per-column Pareto maps of Gaussian paths, and the subordinated Gaussian
source that draws them.

The transform catalog is closed: each part maps one standardized column
through its Pareto or folded-Pareto probability integral transform, whose
marginal law is exact Pareto(alpha), so thresholds and tail oracles
downstream stay exact. A window maximum over lags [0, m] is not a transform
here: it is the M4 of unit coefficients over those lags with a `subgauss`
innovation (`m4.M4Spec`), as E2 is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from subgauss import gausslin
from subgauss.gausslin import (SeriesMatrix, SpecError, _integer, _keys, _list,
                               _number)


@dataclass(frozen=True)
class Part:
    """One output column: a map of the standardized Gaussian column `coord`.

    kinds (any other is an error):
      pareto(alpha, coord)        = (1 - Phi(x))^(-1/alpha),
      folded_pareto(alpha, coord) = (1 - F_|N|(|x|))^(-1/alpha).
    """

    kind: str
    alpha: float
    coord: int = 0

    def __post_init__(self):
        if self.kind not in ("pareto", "folded_pareto"):
            raise SpecError(f"unknown transform kind {self.kind!r} (field: kind)")
        if self.coord < 0:
            raise SpecError(f"coord={self.coord} must be >= 0 (field: coord)")
        if not _number("alpha", self.alpha) > 0:
            raise SpecError(f"{self.kind} requires alpha > 0 (field: alpha)")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """The part's values at the 1-D column x."""
        if self.kind == "pareto":
            return ndtr(-x) ** (-1.0 / self.alpha)
        return (2.0 * ndtr(-np.abs(x))) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class Transform:
    """Y_{k,i} = G_i(X_{k,coord_i}) with G_i the map of part i."""

    parts: tuple  # tuple of Part

    def __post_init__(self):
        if not self.parts:
            raise SpecError("a transform needs at least one part (field: parts)")

    @property
    def d(self) -> int:
        return len(self.parts)

    def max_coord(self) -> int:
        return max(p.coord for p in self.parts)

    @staticmethod
    def from_json(text: str) -> "Transform":
        obj = _keys("transform", json.loads(text), {"parts"})
        parts = []
        for p in _list("parts", obj["parts"]):
            _keys("a transform part", p, {"kind", "coord", "alpha"})
            parts.append(Part(kind=p["kind"], alpha=p.get("alpha"),
                              coord=_integer("coord", p.get("coord", 0))))
        return Transform(parts=tuple(parts))


def apply(X: SeriesMatrix, t: Transform) -> SeriesMatrix:
    """Map each part's column of X; the output has X's n rows."""
    if X.d <= t.max_coord():
        raise SpecError(
            f"transform references coordinate {t.max_coord()} but the path "
            f"has {X.d} columns"
        )
    out = np.empty((X.n, t.d))
    for i, part in enumerate(t.parts):
        out[:, i] = part.evaluate(X.values[:, part.coord])
    return SeriesMatrix(values=out)


@dataclass(frozen=True)
class GaussianSource:
    """A subordinated Gaussian: the linear process of `table`, each column
    standardized by its exact (truncated-model) marginal sd, then pushed
    through `transform` when there is one.

    The sd comes from Gamma(0) once, at construction; every path reuses it.
    """

    table: gausslin.CoeffTable
    transform: Transform | None = None
    sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.transform and self.transform.max_coord() >= self.table.d0:
            raise SpecError(f"a transform part reads a coord >= d0="
                            f"{self.table.d0} (field: coord)")
        gamma0, _ = gausslin.autocov(self.table, 0)
        object.__setattr__(self, "sd", np.sqrt(np.diag(gamma0)))

    @property
    def d(self) -> int:
        """Columns of each path."""
        return self.transform.d if self.transform else self.table.d0

    def path(self, n: int, seed: int) -> SeriesMatrix:
        """A path of n rows."""
        X = gausslin.simulate(self.table, n, seed)
        Z = SeriesMatrix(values=X.values / self.sd)
        return apply(Z, self.transform) if self.transform else Z
