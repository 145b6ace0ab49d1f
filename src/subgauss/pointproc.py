"""Gapped-block exceedance point process and Poisson-limit diagnostics.

Length-r blocks separated by length-p gaps; a block emits a point (mark 1)
at its normalized right endpoint when any sample inside it exceeds the
threshold vector. Gap samples never influence the pattern. The pattern is
read from a path's sorted exceedance times (`evt.m4_exceedances`), in
O(number of exceedances).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

# pointproc draws no indicator of its own; the benchmark's trace points
# still name this binding
from subgauss.evt import Exceedances, _exceed_indicator  # noqa: F401
from subgauss.gausslin import SpecError

BINS = 10  # equal-width bins of [0, 1] in the chi-square count diagnostic


@dataclass(frozen=True)
class GapConfig:
    r: int          # block length
    p: int          # gap length
    m: int = 0      # the extremal dependence window (an M4's lag span)

    def __post_init__(self):
        if self.m < 0:
            raise SpecError(f"window m={self.m} must be >= 0 (field: m)")
        if self.r <= self.m:
            raise SpecError("block length r must exceed the window m "
                            "(field: r)")
        if self.p < self.m:
            raise SpecError("gap length p must be at least the window m "
                            "(field: p)")


@dataclass(frozen=True)
class PointPattern:
    """Sorted exceedance-block points (normalized time, mark 1) on [0, 1]."""

    times: np.ndarray
    blocks: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] > 1.0):
            raise SpecError("times must be strictly increasing within [0, 1]")
        if self.blocks is None:
            object.__setattr__(self, "blocks", np.arange(1, len(t) + 1))

    @property
    def count(self) -> int:
        return len(self.times)


def gapped_blocks(ex: Exceedances, cfg: GapConfig) -> PointPattern:
    """Extract the exceedance-block pattern from one path's exceedances.

    Block j (1-based) covers samples (j-1)(r+p)+1 .. jr+(j-1)p in paper
    time, i.e. 0-based rows (j-1)(r+p) .. (j-1)(r+p)+r-1; a point lands at
    j(r+p)/n when the block contains an exceedance time. The trailing
    partial block is dropped.
    """
    t, n = ex
    r, p = cfg.r, cfg.p
    if n < r + p:
        raise SpecError("path shorter than one block-gap segment")
    seg = r + p
    t = t[: np.searchsorted(t, n // seg * seg)]
    t = t[t % seg < r]
    j = np.unique(t // seg) + 1
    times = j * seg / n
    return PointPattern(times=times, blocks=j)


def lambda_rp(theta_list, theta_m: float, log_G: float,
              cfg: GapConfig) -> float:
    """Poisson intensity of the gapped-block process:
    [(r-m)/(r+p) * theta_m + R/(r+p)] * (-log G), R = sum of theta_0..theta_{m-1}.

    theta_list carries theta_0..theta_m; only the first m entries enter R.
    The value is normalized to be nonnegative (the source formula carries a
    leading minus against log G < 0). It reads log G, not G, which
    underflows to 0 at a large tau.
    """
    if not -np.inf < log_G < 0.0:
        raise SpecError(f"log G={log_G} must be negative and finite: the "
                        "tail weights sum to -log G > 0 (field: tau)")
    theta_list = list(theta_list)
    if len(theta_list) != cfg.m + 1:
        raise SpecError(f"need theta_0..theta_{cfg.m} ({cfg.m + 1} values)")
    if not all(0.0 <= t <= 1.0 for t in theta_list) or not 0.0 <= theta_m <= 1.0:
        raise SpecError("theta values must lie in [0, 1]")
    R = float(np.sum(theta_list[: cfg.m]))
    r, p, m = cfg.r, cfg.p, cfg.m
    return ((r - m) / (r + p) * theta_m + R / (r + p)) * -log_G


@dataclass(frozen=True)
class PoissonReport:
    mean_count: float        # points per unit normalized time
    dispersion_index: float  # Var/Mean of counts on [0, 1]
    ks_interarrival: float   # KS distance, pooled gaps vs Exp(lambda_target)
    chi2_counts: float       # chi-square stat, binned counts vs Poisson
    chi2_pvalue: float
    degenerate: bool = False


def poisson_diagnostics(patterns, lambda_target: float) -> PoissonReport:
    """Poisson goodness diagnostics over replicated patterns on [0, 1]."""
    patterns = list(patterns)
    if len(patterns) < 200:
        raise SpecError("need at least 200 replications")
    counts = np.array([p.count for p in patterns], dtype=float)
    mean = float(np.mean(counts))
    if mean == 0.0:
        return PoissonReport(0.0, 0.0, 0.0, 0.0, 1.0, degenerate=True)
    dispersion = float(np.var(counts, ddof=1) / mean)

    # Concatenate the replications onto one long timeline: independent
    # Poisson paths glued end to end form a single Poisson process, so the
    # pooled gaps are exactly exponential under the null. Per-path gaps
    # would be right-censored at 1 and biased small.
    pooled = np.concatenate(
        [i + p.times for i, p in enumerate(patterns) if p.count]
    )
    inter = np.sort(np.diff(np.concatenate([[0.0], pooled])))
    # Kolmogorov-Smirnov distance D = max(D+, D-) to Exp(lambda_target);
    # the gaps are divided by the scale 1/lambda_target, as scipy.stats does
    cdf = -special.expm1(-(inter / (1.0 / lambda_target)))
    n = len(inter)
    ks = float(max(np.max(np.arange(1.0, n + 1) / n - cdf),
                   np.max(cdf - np.arange(0.0, n) / n)))

    # per-bin occupancy counts pooled over replications vs Poisson(lam*binwidth)
    binwidth = 1.0 / BINS
    per_bin = np.concatenate(
        [np.bincount(np.minimum((p.times / binwidth).astype(int), BINS - 1),
                     minlength=BINS) for p in patterns]
    )
    lam_bin = lambda_target * binwidth
    # kmax - 1 is the Poisson(lam_bin) quantile at q: the least k with cdf >= q
    q = 1.0 - 1e-6
    k = np.ceil(special.pdtrik(q, lam_bin))
    if special.pdtr(max(k - 1, 0), lam_bin) >= q:
        k = max(k - 1, 0)
    kmax = int(k) + 1
    obs = np.bincount(np.minimum(per_bin, kmax), minlength=kmax + 1).astype(float)
    j = np.arange(kmax)
    pmf = np.exp(special.xlogy(j, lam_bin) - special.gammaln(j + 1) - lam_bin)
    expected = np.concatenate([pmf, [1.0 - pmf.sum()]]) * len(per_bin)
    # collapse sparse cells so the chi-square approximation is honest
    keep = expected > 5.0
    obs_c = np.append(obs[keep], obs[~keep].sum())
    exp_c = np.append(expected[keep], expected[~keep].sum())
    if exp_c[-1] == 0.0:
        obs_c, exp_c = obs_c[:-1], exp_c[:-1]
    obs_c = obs_c * (exp_c.sum() / obs_c.sum())
    # Pearson's statistic on len(exp_c) - 1 degrees of freedom
    chi2 = np.sum((obs_c - exp_c) ** 2 / exp_c)
    pval = special.chdtrc(len(exp_c) - 1, chi2)
    return PoissonReport(
        mean_count=mean,
        dispersion_index=dispersion,
        ks_interarrival=ks,
        chi2_counts=float(chi2),
        chi2_pvalue=float(pval),
    )


def patterns_to_csv(patterns: dict) -> str:
    """One row per point; patterns maps replication index -> PointPattern."""
    lines = ["replication,block_index,time"]
    for rep, p in patterns.items():
        for b, t in zip(p.blocks, p.times):
            lines.append(f"{rep},{b},{float(t)!r}")
    return "\n".join(lines) + "\n"
