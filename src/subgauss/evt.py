"""Componentwise maxima, extremal-index estimators, the D'(u_n)
anti-clustering statistic, and extremal-independence scans.

Every function here reads one path (a SeriesMatrix or a bare array); the
replication engine in `harness` owns seeding and the loop over paths.

The runs and blocks estimators and the gapped-block point process all read
the per-time exceedance indicator 1{Y_k not <= u}, one strict comparison per
column OR-ed together; an M4 path is a column-major (n, d) view, so each
comparison reads one contiguous column. The runs estimator (Smith & Weissman
1994) tests "some exceedance in the next m steps" by prefix counts, in O(n)
for any m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subgauss import chaos, gausslin
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.m4 import ThresholdVector

MIN_EXCEEDANCES = 20


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


def runs_theta(Y, u, m: int) -> EstimatorReport:
    """Runs estimator: fraction of exceedances followed by m clear steps.

    Ties at u break strictly: ">" is an exceedance, "<=" a non-exceedance.
    theta_0 := 1 by the vacuous-conditioning convention.
    """
    e = _exceed_indicator(Y, u)
    n = len(e)
    if m < 0:
        raise SpecError("m must be >= 0")
    if n <= m:
        raise SpecError("path shorter than the run length m")
    total = int(np.count_nonzero(e))
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    if m == 0:
        return EstimatorReport(1.0, 0.0, total, "runs(0)")
    base = e[: n - m]
    # following[k]: some exceedance among e[k+1..k+m], from the prefix
    # counts c[t] = e[1] + ... + e[t] (exact in int32 below 2**31 steps)
    c = np.zeros(n, dtype=np.int32 if n < 2**31 else np.int64)
    np.cumsum(e[1:], dtype=c.dtype, out=c[1:])
    following = c[m:n] > c[: n - m]
    denom = int(np.count_nonzero(base))
    if denom < MIN_EXCEEDANCES:
        raise InsufficientExceedances(denom)
    num = int(np.count_nonzero(base & ~following))
    est = num / denom
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / denom))
    return EstimatorReport(est, stderr, denom, f"runs({m})")


def blocks_theta(Y, u, b: int) -> EstimatorReport:
    """Blocks estimator: blocks containing an exceedance over total
    exceedances, clamped to [0, 1]; cross-validation for runs_theta."""
    e = _exceed_indicator(Y, u)
    n = len(e)
    if b < 1 or n // b < 50:
        raise SpecError("need n/b >= 50 blocks")
    nb = n // b
    ee = e[: nb * b].reshape(nb, b)
    total = int(np.count_nonzero(ee))
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    occupied = int(np.count_nonzero(np.any(ee, axis=1)))
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


def dprime_path(Y, u_level: float, k_list) -> tuple:
    """Anti-clustering statistic of one univariate path of length n: for each
    k in dprime_ks(k_list), n * sum_{j<=n/k} Phat(Y_0 > u, Y_j > u), with the
    pair exceedance probabilities estimated by time averages. Returns those
    values and the number of joint exceedance pairs at lags 1..n/min(k)."""
    v = _values(Y).ravel()
    n = len(v)
    ks = dprime_ks(k_list)
    jmax = n // ks[0]
    e = (v > u_level).astype(float)
    # counts_j = sum_k e_k e_{k+j} for lags j = 0..jmax
    counts = np.round(gausslin.lag_products(e[:, None, None], jmax)[:, 0, 0])
    counts = counts.astype(int)
    lags = np.arange(1, jmax + 1)
    p_hat = counts[1:] / (n - lags)
    csum = np.concatenate([[0.0], np.cumsum(p_hat)])
    return [n * csum[n // k] for k in ks], int(np.sum(counts[1:]))


@dataclass(frozen=True)
class ScanRow:
    x: float
    Fbar: float
    cond_exceed: float       # empirical P(Y1 > x | Y2 > x)
    joint_exceed: float      # empirical P(Y1 > x, Y2 > x)
    joint_stderr: float
    bound: float             # hypercontractive joint bound Fbar^(2/(1+rho))

    CSV_HEADER = "x,Fbar,cond_exceed,joint_exceed,joint_stderr,bound"

    def to_csv_row(self) -> str:
        return (f"{self.x!r},{self.Fbar!r},{self.cond_exceed!r},"
                f"{self.joint_exceed!r},{self.joint_stderr!r},{self.bound!r}")


def extremal_independence_scan(y1: np.ndarray, y2: np.ndarray, levels,
                               rho: float) -> list:
    """Empirical conditional/joint exceedance over levels, against the
    hypercontractive bound at canonical correlation rho.

    Both samples must share the marginal by construction (catalog
    transforms); F-bar at a level is the pooled empirical tail.
    """
    y1 = np.asarray(y1).ravel()
    y2 = np.asarray(y2).ravel()
    if y1.shape != y2.shape:
        raise SpecError("paired samples must have equal length")
    nsamp = len(y1)
    rows = []
    for x in levels:
        fbar = float((np.sum(y1 > x) + np.sum(y2 > x)) / (2 * nsamp))
        exceed2 = y2 > x
        n2 = int(np.sum(exceed2))
        joint = int(np.sum((y1 > x) & exceed2))
        p_joint = joint / nsamp
        cond = joint / n2 if n2 > 0 else 0.0
        stderr = float(np.sqrt(max(p_joint * (1 - p_joint), 0.0) / nsamp))
        rows.append(
            ScanRow(
                x=float(x), Fbar=fbar, cond_exceed=float(cond),
                joint_exceed=float(p_joint), joint_stderr=stderr,
                bound=chaos.joint_tail_bound(fbar, rho),
            )
        )
    return rows
