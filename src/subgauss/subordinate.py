"""Moving-window transforms of Gaussian paths, and the subordinated Gaussian
source that draws them.

The transform catalog is closed: every entry has an analytically known
marginal law under standard normal input, so thresholds and tail oracles
downstream stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from subgauss import gausslin
from subgauss.gausslin import (SeriesMatrix, SpecError, _integer, _integers, _keys,
                               _list, _number)


@dataclass(frozen=True)
class Part:
    """One output coordinate of a window transform.

    kinds (lag 0 unless stated):
      identity(coord), abs(coord), square(coord),
      pareto(alpha, coord)        = (1 - Phi(x))^(-1/alpha),
      folded_pareto(alpha, coord) = (1 - F_|N|(|x|))^(-1/alpha),
      window_max(coord, lags)     = max over the given lags of the coordinate.
    """

    kind: str
    coord: int = 0
    alpha: float | None = None
    lags: tuple = (0,)

    def __post_init__(self):
        if self.kind not in (
            "identity", "abs", "square", "pareto", "folded_pareto",
            "window_max",
        ):
            raise SpecError(f"unknown transform kind {self.kind!r} (field: kind)")
        if self.coord < 0:
            raise SpecError(f"coord={self.coord} must be >= 0 (field: coord)")
        if self.kind in ("pareto", "folded_pareto"):
            if self.alpha is None or self.alpha <= 0:
                raise SpecError(f"{self.kind} requires alpha > 0 (field: alpha)")

    def evaluate(self, window: np.ndarray) -> np.ndarray:
        """window has shape (nlags, nobs): row l is the coordinate at lag l."""
        x = window[0]
        if self.kind == "identity":
            return x
        if self.kind == "abs":
            return np.abs(x)
        if self.kind == "square":
            return x * x
        if self.kind == "pareto":
            return ndtr(-x) ** (-1.0 / self.alpha)
        if self.kind == "folded_pareto":
            return (2.0 * ndtr(-np.abs(x))) ** (-1.0 / self.alpha)
        # window_max
        return np.max(window[list(self.lags)], axis=0)


@dataclass(frozen=True)
class WindowTransform:
    """Y_{k,i} = G_i(X_k, ..., X_{k-m}) with G_i from the catalog."""

    m: int
    parts: tuple  # tuple of Part

    def __post_init__(self):
        if self.m < 0:
            raise SpecError("window size m must be >= 0 (field: m)")
        if not self.parts:
            raise SpecError("a transform needs at least one part (field: parts)")
        for part in self.parts:
            if any(l < 0 or l > self.m for l in part.lags):
                raise SpecError("part references a lag outside [0, m] "
                                "(field: lags)")

    @property
    def d(self) -> int:
        return len(self.parts)

    def max_coord(self) -> int:
        return max(p.coord for p in self.parts)

    @staticmethod
    def from_json(text: str) -> "WindowTransform":
        obj = _keys("transform", json.loads(text), {"m", "parts"})
        parts = []
        for p in _list("parts", obj["parts"]):
            _keys("a transform part", p, {"kind", "coord", "alpha", "lags"})
            alpha = p.get("alpha")
            parts.append(Part(
                kind=p["kind"],
                coord=_integer("coord", p.get("coord", 0)),
                alpha=None if alpha is None else _number("alpha", alpha),
                lags=tuple(_integers("lags", p.get("lags", [0]))),
            ))
        return WindowTransform(m=_integer("m", obj["m"]), parts=tuple(parts))


def apply(X: SeriesMatrix, t: WindowTransform) -> SeriesMatrix:
    """Apply the moving-window transform; output length n - m.

    Output row k corresponds to input time k + m, i.e. lag l of part i reads
    X_{k+m-l}.
    """
    if X.d <= t.max_coord():
        raise SpecError(
            f"transform references coordinate {t.max_coord()} but the path "
            f"has {X.d} columns"
        )
    if X.n <= t.m:
        raise SpecError("path shorter than the transform window")
    n_out = X.n - t.m
    out = np.empty((n_out, t.d))
    for i, part in enumerate(t.parts):
        # rows of `window`: lag 0 is the current time index
        window = np.stack(
            [X.values[t.m - l : t.m - l + n_out, part.coord] for l in range(t.m + 1)]
        )
        out[:, i] = part.evaluate(window)
    return SeriesMatrix(values=out)


@dataclass(frozen=True)
class GaussianSource:
    """A subordinated Gaussian: the linear process of `table`, each column
    standardized by its exact (truncated-model) marginal sd, then pushed
    through `transform` when there is one.

    The sd comes from Gamma(0) once, at construction; every path reuses it.
    """

    table: gausslin.CoeffTable
    transform: WindowTransform | None = None
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
        """A path of n rows; the transform's window m costs n + m Gaussian
        rows."""
        m = self.transform.m if self.transform else 0
        X = gausslin.simulate(self.table, n + m, seed)
        Z = SeriesMatrix(values=X.values / self.sd)
        return apply(Z, self.transform) if self.transform else Z
