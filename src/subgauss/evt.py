"""Componentwise maxima, extremal-index estimators, non-exceedance Monte
Carlo, the D'(u_n) anti-clustering statistic, and extremal-independence scans.

Path generators are callables seed -> SeriesMatrix (or a bare array); the
replication layer owns seeding and parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from subgauss import chaos
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
    """Boolean per time: Y_k not <= u (some component strictly above)."""
    v = _values(Y)
    if v.ndim == 1:
        v = v[:, None]
    uu = np.asarray(u.u if isinstance(u, ThresholdVector) else u, dtype=float)
    return np.any(v > uu[None, :], axis=1)


def empirical_nonexceed(generator, u: ThresholdVector, reps: int,
                        base_seed: int = 0):
    """Fraction of replications whose componentwise maxima stay below u,
    with a 95% binomial confidence half-width.

    Replication i uses seed base_seed XOR i.
    """
    if reps < 100:
        raise SpecError("reps must be >= 100")
    hits = 0
    for i in range(reps):
        try:
            Y = generator(base_seed ^ i)
        except Exception as exc:
            raise RuntimeError(f"generator failed at replication {i}") from exc
        M = cmax(Y)
        if np.all(M <= u.u):
            hits += 1
    p_hat = hits / reps
    ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / reps)
    return p_hat, ci


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
    total = int(np.sum(e))
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    if m == 0:
        return EstimatorReport(1.0, 0.0, total, "runs(0)")
    base = e[: n - m]
    following = np.any(sliding_window_view(e[1:], m), axis=1)
    denom = int(np.sum(base))
    if denom < MIN_EXCEEDANCES:
        raise InsufficientExceedances(denom)
    num = int(np.sum(base & ~following))
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
    total = int(np.sum(ee))
    if total < MIN_EXCEEDANCES:
        raise InsufficientExceedances(total)
    occupied = int(np.sum(np.any(ee, axis=1)))
    est = min(occupied / total, 1.0)
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / total))
    return EstimatorReport(est, stderr, total, f"blocks({b})")


@dataclass(frozen=True)
class DPrimeReport:
    """n * sum_{j<=n/k} Phat(Y_0 > u, Y_j > u) per k, replication-averaged."""

    stats: dict            # k -> mean statistic
    stderr: dict           # k -> standard error over replications
    joint_events: int      # pooled pair-count across lags and replications
    wide_ci: bool          # fewer than 10 joint events anywhere


def dprime_stat(generator, n: int, u_level: float, k_list, reps: int = 50,
                base_seed: int = 0) -> DPrimeReport:
    """Anti-clustering statistic for a univariate series: pair exceedance
    probabilities estimated by ergodic time averages on each replication
    path, then averaged over replications."""
    k_list = sorted(set(int(k) for k in k_list))
    if any(k < 1 for k in k_list):
        raise SpecError("k values must be >= 1")
    per_rep = {k: [] for k in k_list}
    joint_events = 0
    jmax = n // min(k_list)
    for i in range(reps):
        Y = generator(base_seed ^ i)
        v = _values(Y).ravel()
        if len(v) != n:
            raise SpecError("generator path length differs from n")
        e = (v > u_level).astype(float)
        # counts_j = sum_k e_k e_{k+j} for all lags at once
        c = fftconvolve(e, e[::-1])
        counts = c[n - 1 : n - 1 + jmax + 1]  # lag 0..jmax
        counts = np.round(counts).astype(int)
        joint_events += int(np.sum(counts[1:]))
        lags = np.arange(1, jmax + 1)
        p_hat = counts[1:] / (n - lags)
        csum = np.concatenate([[0.0], np.cumsum(p_hat)])
        for k in k_list:
            per_rep[k].append(n * csum[n // k])
    stats, stderr = {}, {}
    for k in k_list:
        arr = np.asarray(per_rep[k])
        stats[k] = float(np.mean(arr))
        stderr[k] = float(np.std(arr, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return DPrimeReport(
        stats=stats, stderr=stderr, joint_events=joint_events,
        wide_ci=joint_events < 10,
    )


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
                               rho: float, marginal_tail=None) -> list:
    """Empirical conditional/joint exceedance over levels, against the
    hypercontractive bound at canonical correlation rho.

    Both samples must share the marginal by construction (catalog
    transforms); marginal_tail maps a level to the exact F-bar, defaulting
    to the pooled empirical tail.
    """
    y1 = np.asarray(y1).ravel()
    y2 = np.asarray(y2).ravel()
    if y1.shape != y2.shape:
        raise SpecError("paired samples must have equal length")
    nsamp = len(y1)
    rows = []
    for x in levels:
        if marginal_tail is not None:
            fbar = float(marginal_tail(x))
        else:
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
