"""Exceedance times, extremal-index estimators, the D'(u_n) anti-clustering
statistic, and the joint exceedance counts of a column pair.

Every function here reads one path (a SeriesMatrix or a bare array), an M4
draw, or the exceedance times taken from either; the replication engine in
`harness` owns seeding and the loop over paths.

The runs and blocks estimators (Smith & Weissman 1994), the gapped-block
point process and D' read a path only through its sorted exceedance times,
the rows k with Y_k not <= u: `exceedances` finds them with one strict
comparison per column of a dense path, `m4_exceedances` off an M4 draw's
base draw, in one pass over it, lifting only its candidate rows and
building no path. Each estimator then reads them in O(number of
exceedances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from subgauss import gausslin
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.m4 import Draw, ThresholdVector

MIN_EXCEEDANCES = 20
# m4_exceedances' relative margin: rounding moves u_i / a by a few ulps
MARGIN = 1e-12


class InsufficientExceedances(ValueError):
    def __init__(self, count):
        super().__init__(f"insufficient exceedances: observed {count}, "
                         f"need >= {MIN_EXCEEDANCES}")
        self.count = count


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    stderr: float
    count_exceed: int
    method: str  # "runs(m)" or "blocks(b)"

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise SpecError("extremal-index estimate must lie in [0, 1]")
        if self.stderr < 0:
            raise SpecError("stderr must be nonnegative")

    CSV_HEADER = "method,m_or_b,estimate,stderr,exceed_count"

    def to_csv_row(self) -> str:
        name, arg = self.method.rstrip(")").split("(")
        return f"{name},{arg},{self.estimate!r},{self.stderr!r},{self.count_exceed}"


def _values(Y) -> np.ndarray:
    return Y.values if isinstance(Y, SeriesMatrix) else np.asarray(Y)


def cmax(Y) -> np.ndarray:
    """Vector of columnwise maxima."""
    v = _values(Y)
    if v.ndim == 1:
        v = v[:, None]
    return np.max(v, axis=0)


def _exceed_indicator(Y, u) -> np.ndarray:
    """Boolean per time: Y_k not <= u (some component strictly above).

    One comparison per column, OR-ed together; u is a ThresholdVector, a
    vector of d levels or one level for every column.
    """
    v = _values(Y)
    if v.ndim == 1:
        v = v[:, None]
    uu = np.broadcast_to(
        np.asarray(u.u if isinstance(u, ThresholdVector) else u, dtype=float),
        v.shape[1:])
    e = v[:, 0] > uu[0]
    for j in range(1, v.shape[1]):
        e |= v[:, j] > uu[j]
    return e


class Exceedances(NamedTuple):
    """The rows of a path of n rows at which some column exceeds its level."""

    times: np.ndarray  # ascending row indices
    n: int


def exceedances(Y, u) -> Exceedances:
    """The sorted exceedance times of Y over u: one `_exceed_indicator` pass."""
    e = _exceed_indicator(Y, u)
    return Exceedances(np.flatnonzero(e), len(e))


def m4_exceedances(draw: Draw, u: ThresholdVector) -> Exceedances:
    """`exceedances(m4.build(m4.lift(draw.spec, draw.V), draw.spec,
    draw.m_trunc), u)`, bit for bit, read off the base draw without lifting
    it whole or building the path.

    Y_{k,i} > u_i when a kept lag r and a column j have a_{ij,r} W_{k-r,j} >
    u_i, so only the rows t with W_{t,j} > c_j = min over i, r of u_i /
    a_{ij,r} (less MARGIN) make build's products and strict comparisons.
    W rises with the base value (a Philox word, or a Gaussian value), so
    those rows lie at or above the innovation's floor at c_j. One
    contiguous pass over the flat base draw (|V| when folded) finds the
    values at or above the lowest column floor; each column keeps those at
    or above its own floor and lifts only them, with the operations of the
    dense lift. A lifted value or a product in the path that is not finite
    raises as the dense innovations or the built path would.
    """
    spec, V, n = draw.spec, draw.V, draw.n
    inn, alpha = spec.innovation, spec.alpha
    lags = spec.lag_values()
    kept = np.abs(lags) <= (np.inf if draw.m_trunc is None else draw.m_trunc)
    a = spec.a[kept]                        # [r][i][j]
    off = (spec.r_hi - lags[kept])[:, None]  # W row t is output row t - off
    uu = np.asarray(u.u, dtype=float)[None, :, None]
    with np.errstate(divide="ignore"):
        c = np.min(uu / a, axis=(0, 1), initial=np.inf) * (1.0 - MARGIN)
    floors = [inn.floor(c[j], j, alpha) for j in range(spec.d)]
    flat = V.reshape(-1)                    # row-major, whatever V's order
    rows, cols = np.divmod(np.flatnonzero(
        (np.abs(flat) if inn.folded else flat) >= min(floors)), spec.d)
    hits = [np.empty(0, dtype=np.intp)]
    for j in range(spec.d):
        t = rows[cols == j]
        v = V[t, j]
        keep = (np.abs(v) if inn.folded else v) >= floors[j]
        t, w = t[keep], inn.lift(v[keep], j, alpha)
        if not np.all(np.isfinite(w)):
            raise SpecError("values must be finite")
        above = w > c[j]
        t, w = t[above], w[above]
        prod = a[:, :, j, None] * w         # [r][i][candidate]
        k = t - off                         # [r][candidate]
        inside = (k >= 0) & (k < n)
        if not np.all(np.isfinite(prod) | ~inside[:, None, :]):
            raise SpecError("values must be finite")
        hits.append(k[inside & np.any(prod > uu, axis=1)])
    return Exceedances(np.unique(np.concatenate(hits)), n)


def runs_theta(ex: Exceedances, m: int) -> EstimatorReport:
    """Runs estimator: fraction of exceedances followed by m clear steps.

    The base times are the exceedance times t < n - m; one is clear when the
    next exceedance comes more than m steps later, or never. Ties at u break
    strictly: ">" is an exceedance, "<=" a non-exceedance. theta_0 := 1 by
    the vacuous-conditioning convention.
    """
    t, n = ex
    if m < 0:
        raise SpecError("m must be >= 0")
    if n <= m:
        raise SpecError("path shorter than the run length m")
    total = len(t)
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    if m == 0:
        return EstimatorReport(1.0, 0.0, total, "runs(0)")
    denom = int(np.searchsorted(t, n - m))
    if denom < MIN_EXCEEDANCES:
        raise InsufficientExceedances(denom)
    # the gap from each base time to the next exceedance; the last
    # exceedance, when it is a base time, has none and is clear
    num = int(np.count_nonzero(np.diff(t[: denom + 1]) > m)) + (denom == total)
    est = num / denom
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / denom))
    return EstimatorReport(est, stderr, denom, f"runs({m})")


def blocks_theta(ex: Exceedances, b: int) -> EstimatorReport:
    """Blocks estimator: blocks containing an exceedance over total
    exceedances, clamped to [0, 1]; cross-validation for runs_theta. The
    n // b whole blocks of length b count, and a trailing partial block
    does not."""
    t, n = ex
    if b < 1 or n // b < 50:
        raise SpecError("need n/b >= 50 blocks")
    t = t[: np.searchsorted(t, n // b * b)]
    total = len(t)
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    occupied = len(np.unique(t // b))
    est = min(occupied / total, 1.0)
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / total))
    return EstimatorReport(est, stderr, total, f"blocks({b})")


def dprime_ks(k_list) -> list:
    """The distinct k of an anti-clustering k_list, ascending."""
    ks = sorted(set(int(k) for k in k_list))
    if not ks or ks[0] < 2:
        # k = 1 would reach lag n, which has no pairs in a path of length n
        raise SpecError("k_list must hold at least one k, each >= 2 "
                        "(field: k_list)")
    return ks


def dprime_path(ex: Exceedances, k_list) -> tuple:
    """Anti-clustering statistic of a univariate path's exceedances: for each
    k in dprime_ks(k_list), n * sum_{j<=n/k} Phat(Y_0 > u, Y_j > u), with the
    pair exceedance probabilities estimated by time averages. Returns those
    values and the number of joint exceedance pairs at lags 1..n/min(k)."""
    t, n = ex
    ks = dprime_ks(k_list)
    jmax = n // ks[0]
    e = np.zeros(n)
    e[t] = 1.0
    # counts_j = sum_k e_k e_{k+j} for lags j = 0..jmax
    counts = np.round(gausslin.lag_products(e[:, None, None], jmax)[:, 0, 0])
    counts = counts.astype(int)
    lags = np.arange(1, jmax + 1)
    p_hat = counts[1:] / (n - lags)
    csum = np.concatenate([[0.0], np.cumsum(p_hat)])
    return [n * csum[n // k] for k in ks], int(np.sum(counts[1:]))


def pair_exceedances(Y, u) -> tuple:
    """The number of rows at which columns 0 and 1 both exceed their levels
    u[0] and u[1], and the number at which column 1 does."""
    v = _values(Y)
    e1 = v[:, 1] > u[1]
    joint = np.count_nonzero((v[:, 0] > u[0]) & e1)
    return int(joint), int(np.count_nonzero(e1))
