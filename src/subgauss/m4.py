"""M4 moving-maxima processes over heavy-tailed innovations.

An `M4Spec` holds its coefficients and its innovation: i.i.d. Pareto
(`IidPareto`, the oracle mode) or a Pareto-transformed Gaussian linear
process (`SubGauss`). The module draws maxima-of-moving-maxima replications
(Smith & Weissman 1996) and evaluates the closed-form limit objects: the
tail constants A_i, the i.i.d. limit G(tau), the multivariate extremal index
theta(tau), its lag-truncated version, the runs limit theta(m), and analytic
thresholds. A run draws a `Draw`, the base draw V that the innovations W
lift from, column by column, through a monotone transform (the raw Philox
words of an i.i.d. draw, or the Gaussian rows of a subordinated one), and
`evt.m4_exceedances` lifts only the rows of V at or above the innovation's
floor. `innovations` and `build` are the dense definition of that path: no
run calls them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from subgauss import gausslin
from subgauss.gausslin import (SeriesMatrix, SpecError, _integer, _integers,
                               _keys, _nested, _number, _object, _string)
from subgauss.subordinate import Part

# A floor reads the tail P(W > c) = c^(-alpha) widened by FLOOR_SLACK, which
# bounds the rounding of the lift, and never below FLOOR_TINY: a Gaussian
# floor stays under 37 sd, below every value whose tail ndtr underflows to 0
# and whose lift overflows.
FLOOR_SLACK = 1e-6
FLOOR_TINY = 1e-300


def _floor_tail(c, alpha) -> float:
    """The widened tail at level c. A level past the largest float reads as
    that float, so that a base value lifting to inf lies above every floor."""
    with np.errstate(divide="ignore", over="ignore"):
        p = np.minimum(c, np.finfo(float).max) ** -alpha * (1.0 + FLOOR_SLACK)
    return max(float(p), FLOOR_TINY)


@dataclass(frozen=True)
class IidPareto:
    """Oracle innovation mode: i.i.d. Pareto(alpha), P(W > u) = u^(-alpha)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise SpecError(f"iid_pareto alpha={self.alpha} must be > 0 "
                            "(field: alpha)")

    # A base draw is a column of raw Philox words w, whose uniforms
    # U = (w >> 11) 2^-53 in [0, 1) are the doubles numpy's Generator.random
    # makes of them, and W = h(U) rises with w; `folded` says whether
    # `floor` bounds |value| instead.
    folded = False

    def lift(self, w, j, alpha) -> np.ndarray:
        """W = (1 - U)^(-1/alpha) of column j's words w, U = (w >> 11) 2^-53."""
        u = (w >> 11) * 2.0**-53
        np.subtract(1.0, u, out=u)
        u **= -1.0 / alpha
        return u

    def floor(self, c, j, alpha) -> np.uint64:
        """The least word whose uniform exceeds 1 - P(W > c), less the
        rounding of 1 - U: a word below it lifts to at most c."""
        f = (1.0 - _floor_tail(c, alpha) - 2.0**-52) * 2.0**53
        return np.uint64((math.floor(f) + 1) << 11 if f >= 0 else 0)


@dataclass(frozen=True)
class SubGauss:
    """Innovations W_{k,j} = h(X_{k,j} / sd_j) with X the Gaussian linear
    process of `table`, sd_j its exact (truncated-model) marginal sd and h
    the (folded) Pareto probability integral transform: the marginal is
    exact Pareto(alpha) while temporal/cross dependence is inherited from X.
    Over lags [0, 0] and a diagonal `a`, the M4 is the subordinated Gaussian
    Y_k = G(X_k) itself, in Pareto scale.

    The sd comes from Gamma(0) once, at construction; every draw reuses it.
    """

    table: gausslin.CoeffTable
    transform: str = "pareto"  # or "folded_pareto"
    sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.transform not in ("pareto", "folded_pareto"):
            raise SpecError("SubGauss transform must be pareto or "
                            "folded_pareto (field: transform)")
        with np.errstate(over="ignore", invalid="ignore"):
            gamma0, _ = gausslin.autocov(self.table, 0)
        sd = np.sqrt(np.diag(gamma0))
        if not np.all(np.isfinite(sd) & (sd > 0)):
            raise SpecError(f"Gaussian column sds {sd.tolist()} must be "
                            "finite and positive (field: lin)")
        object.__setattr__(self, "sd", sd)

    # A base draw is a column of the raw Gaussian rows X, and W = h(X / sd)
    # rises with X, or with |X| when folded.
    @property
    def folded(self) -> bool:
        return self.transform == "folded_pareto"

    def lift(self, x, j, alpha) -> np.ndarray:
        """W = h(x / sd_j) of column j's Gaussian values x, through the
        transform's own `Part`."""
        return Part(self.transform, alpha).evaluate(x / self.sd[j])

    def floor(self, c, j, alpha) -> float:
        """A value (|value| when folded) below this lifts to at most c:
        sd_j times the Gaussian quantile of P(W > c), or of half of it."""
        p = _floor_tail(c, alpha)
        if p >= 1.0:
            return -np.inf
        return self.sd[j] * -ndtri(p / 2 if self.folded else p)


@dataclass(frozen=True)
class M4Spec:
    """Y_{k,i} = max over lags r and components j of a_{ij,r} W_{k-r,j}."""

    d: int
    alpha: float
    lags: tuple  # (r_lo, r_hi), r_lo <= 0 <= r_hi
    a: np.ndarray = field(repr=False)  # shape (r_hi - r_lo + 1, d, d), [r][i][j]
    innovation: IidPareto | SubGauss

    def __post_init__(self):
        r_lo, r_hi = self.lags
        if not (r_lo <= 0 <= r_hi):
            raise SpecError("lag window must contain 0 (field: lags)")
        if self.alpha <= 0:
            raise SpecError("alpha must be > 0 (field: alpha)")
        a = np.asarray(self.a, dtype=float)
        if a.shape != (r_hi - r_lo + 1, self.d, self.d):
            raise SpecError(
                f"coefficient array must have shape "
                f"({r_hi - r_lo + 1}, {self.d}, {self.d}) (field: a)"
            )
        if not np.all(np.isfinite(a)):
            raise SpecError("coefficients must be finite (field: a)")
        if np.any(a < 0):
            raise SpecError("coefficients must be nonnegative (field: a)")
        if np.any(np.all(a == 0, axis=(0, 2))):
            raise SpecError(
                "every output component needs a positive coefficient "
                "(degenerate marginal otherwise) (field: a)"
            )
        inn = self.innovation
        if isinstance(inn, SubGauss) and inn.table.d0 != self.d:
            raise SpecError(
                f"SubGauss innovation has lin.d0={inn.table.d0}, "
                f"spec needs d0 = d = {self.d} (field: d0)"
            )
        # thresholds and theta read the spec's alpha, the draws inn.alpha
        if isinstance(inn, IidPareto) and inn.alpha != self.alpha:
            raise SpecError(
                f"iid_pareto innovation has alpha={inn.alpha}, spec has "
                f"alpha={self.alpha} (field: alpha)"
            )
        object.__setattr__(self, "a", a)

    @property
    def r_lo(self) -> int:
        return self.lags[0]

    @property
    def r_hi(self) -> int:
        return self.lags[1]

    def lag_values(self) -> np.ndarray:
        return np.arange(self.r_lo, self.r_hi + 1)

    @staticmethod
    def from_json(text: str) -> "M4Spec":
        obj = _keys("spec", json.loads(text),
                    {"d", "alpha", "lags", "a", "innovation"})
        if "innovation" not in obj:
            raise SpecError("an M4 spec draws its innovation, so it needs "
                            "one (field: innovation)")
        inn = _object("innovation", obj["innovation"])
        kind = _string("kind", inn["kind"])
        if kind not in INNOVATION_KEYS:
            raise SpecError(f"unknown innovation kind {kind!r} (field: kind)")
        _keys(f"the {kind} innovation", inn, INNOVATION_KEYS[kind])
        if kind == "iid_pareto":
            innovation = IidPareto(alpha=_number("alpha", inn["alpha"]))
        else:
            innovation = SubGauss(
                gausslin.CoeffTable.from_json(json.dumps(inn["lin"])),
                transform=inn.get("transform", "pareto"),
            )
        lags = tuple(_integers("lags", obj["lags"]))
        if len(lags) != 2:
            raise SpecError(f"lags must be [r_lo, r_hi], not {list(lags)} "
                            "(field: lags)")
        return M4Spec(
            d=_integer("d", obj["d"]),
            alpha=_number("alpha", obj["alpha"]),
            lags=lags,
            a=np.asarray(_nested("a", obj["a"]), dtype=float),
            innovation=innovation,
        )


# The keys each innovation kind reads.
INNOVATION_KEYS = {"iid_pareto": {"kind", "alpha"},
                   "subgauss": {"kind", "lin", "transform"}}


@dataclass(frozen=True)
class ThresholdVector:
    """Levels u_i with n * P(Y_{0,i} > u_i) -> tau_i."""

    n: int
    tau: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        if not np.all(np.isfinite(u) & (u > 0)):
            raise SpecError(f"thresholds u={u.tolist()} must be finite and "
                            "positive (field: tau)")


# ---------------------------------------------------------------------------
# Closed-form limit objects
# ---------------------------------------------------------------------------

def A_vec(spec: M4Spec) -> np.ndarray:
    """A_i = sum over lags r and components j of a_{ij,r}^alpha."""
    return np.sum(spec.a**spec.alpha, axis=(0, 2))


def check_tau(d: int, tau) -> np.ndarray:
    """tau as an array of d positive entries, one per path column."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (d,):
        raise SpecError(f"tau must have length d={d} (field: tau)")
    if np.any(tau <= 0):
        raise SpecError("tau must be positive componentwise (field: tau)")
    return tau


def _weight_table(spec: M4Spec, tau: np.ndarray) -> np.ndarray:
    """max_i a_{ij,r}^alpha tau_i / A_i, indexed [r][j]."""
    A = A_vec(spec)
    return np.max(spec.a**spec.alpha * (tau / A)[None, :, None], axis=1)


def log_G(spec: M4Spec, tau) -> float:
    """log G(tau) = -sum_r sum_j max_i a_{ij,r}^alpha tau_i / A_i, finite
    where G itself underflows to 0."""
    tau = check_tau(spec.d, tau)
    return float(-np.sum(_weight_table(spec, tau)))


def G_limit(spec: M4Spec, tau) -> float:
    """G(tau) = exp(log G(tau)), the i.i.d. limit."""
    return float(np.exp(log_G(spec, tau)))


def theta(spec: M4Spec, tau) -> float:
    """Multivariate extremal index of the M4 limit:
    [sum_j max_r w_{r,j}] / [sum_j sum_r w_{r,j}] with
    w_{r,j} = max_i a_{ij,r}^alpha tau_i / A_i."""
    tau = check_tau(spec.d, tau)
    w = _weight_table(spec, tau)
    num = np.sum(np.max(w, axis=0))
    den = np.sum(w)
    return float(num / den)


def theta_2m(spec: M4Spec, tau, m_trunc: int) -> float:
    """Extremal index of the lag-truncated process Y^(m) under the *full*
    process thresholds: the same ratio as theta but with lag sums restricted
    to |r| <= m_trunc while the normalizers A_i stay those of the full spec.

    Converges to theta(spec, tau) as m_trunc grows, and equals it once the
    truncation covers the whole lag window.
    """
    if m_trunc < 0:
        raise SpecError("m_trunc must be >= 0 (field: m_trunc)")
    tau = check_tau(spec.d, tau)
    w = _weight_table(spec, tau)
    keep = np.abs(spec.lag_values()) <= m_trunc
    w = w[keep]
    if w.size == 0 or np.sum(w) == 0:
        raise SpecError("truncation removed every active lag (field: m_trunc)")
    return float(np.sum(np.max(w, axis=0)) / np.sum(w))


def runs_limit(spec: M4Spec, tau, m: int) -> float:
    """Limit of the runs estimator of run length m (Weissman & Novak 1998):
    sum_{r,j} (w_{r,j} - max_{1<=i<=m} w_{r+i,j})_+ / sum_{r,j} w_{r,j}, with
    w `theta`'s weight table and w = 0 past r_hi. It is 1 at m = 0 and
    telescopes to theta once m covers the lag window."""
    tau = check_tau(spec.d, tau)
    w = _weight_table(spec, tau)
    later = np.zeros_like(w)
    for i in range(1, min(m, len(w) - 1) + 1):
        np.maximum(later[:-i], w[i:], out=later[:-i])
    return float(np.sum(np.maximum(w - later, 0.0)) / np.sum(w))


def pareto_levels(A, n: int, tau, alpha):
    """The Pareto threshold rule u = (A n / tau)^(1/alpha), componentwise:
    n P(W > u) = tau for a tail P(W > u) = A u^(-alpha). A level past the
    largest float is inf, which `ThresholdVector` rejects."""
    with np.errstate(over="ignore"):
        return (A * n / tau) ** (1.0 / alpha)


def thresholds(spec: M4Spec, n: int, tau) -> ThresholdVector:
    """`pareto_levels` at the spec's A_i and alpha: P(Y_i > u) ~ A_i
    u^(-alpha), as both innovation modes are exact Pareto(alpha). Each
    tau_i lies in (0, n), since n P(Y_i > u_i) = tau_i is a probability
    times n."""
    tau = check_tau(spec.d, tau)
    if n < 1:
        raise SpecError("n must be >= 1 (field: n)")
    if np.any(tau >= n):
        raise SpecError(f"tau={tau.tolist()} must lie below n={n} "
                        "(field: tau)")
    u = pareto_levels(A_vec(spec), n, tau, spec.alpha)
    return ThresholdVector(n=n, tau=tau, u=u)


# ---------------------------------------------------------------------------
# Path construction
# ---------------------------------------------------------------------------

def _path_rows(spec: M4Spec, shape: tuple) -> int:
    """The n path rows that an innovation array of this shape gives."""
    if len(shape) != 2 or shape[1] != spec.d:
        raise SpecError(f"innovation path has shape {shape}, spec needs "
                        f"d={spec.d} columns")
    span = spec.r_hi - spec.r_lo
    if shape[0] <= span:
        raise SpecError("innovation path shorter than the lag window")
    return shape[0] - span


@dataclass(frozen=True, eq=False)
class Draw:
    """One M4 replication: the path build(lift(spec, V), spec, m_trunc) of n
    rows, held as its base draw V, the (n + span, d) array that the
    innovations lift from (`base`): uint64 Philox words for `iid_pareto`,
    float Gaussian rows for `subgauss`."""

    V: np.ndarray
    spec: M4Spec
    m_trunc: int | None = None
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _path_rows(self.spec, self.V.shape))


def build(W: SeriesMatrix, spec: M4Spec, m_trunc: int | None = None) -> SeriesMatrix:
    """Y_{k,i} = max over r in lags (optionally |r| <= m_trunc) and j of
    a_{ij,r} W_{k-r,j}.

    The output time range is trimmed by the full lag window at both ends
    regardless of truncation, so truncated and full builds align elementwise.
    The result is an (n, d) view of a (d, n) array: each output component is
    one contiguous column.
    """
    n_out = _path_rows(spec, W.values.shape)
    out = np.zeros((spec.d, n_out))
    buf = np.empty(n_out)
    for ri, r in enumerate(spec.lag_values()):
        if m_trunc is not None and abs(r) > m_trunc:
            continue
        # output time k corresponds to absolute time k + r_hi;
        # W_{k + r_hi - r} sits at row (r_hi - r) + k
        off = spec.r_hi - r
        for j in range(spec.d):
            w = W.values[off : off + n_out, j]  # strided view, no copy
            for i in range(spec.d):
                np.multiply(w, spec.a[ri, i, j], out=buf)
                np.maximum(out[i], buf, out=out[i])
    return SeriesMatrix(values=out.T)


def base(spec: M4Spec, n: int, seed: int) -> np.ndarray:
    """The base draw of n innovation rows: in oracle mode the raw Philox
    words, row-major, that `Generator(Philox(seed)).random((n, d))` turns
    into uniforms; the raw rows of `gausslin.simulate` in SubGauss mode."""
    inn = spec.innovation
    if isinstance(inn, IidPareto):
        words = np.random.Philox(key=seed).random_raw(n * spec.d)
        return words.reshape(n, spec.d)
    return gausslin.simulate(inn.table, n, seed).values


def lift(spec: M4Spec, V: np.ndarray) -> np.ndarray:
    """The innovations W of base draw V, each column lifted by the spec's
    innovation: an (n, d) view of a (d, n) array, so that each column is
    contiguous for its readers."""
    W = np.empty((spec.d, len(V)))
    for j in range(spec.d):
        W[j] = spec.innovation.lift(V[:, j], j, spec.alpha)
    return W.T


def innovations(spec: M4Spec, n: int, seed: int) -> SeriesMatrix:
    """The innovation path W of n rows, the dense lift of the base draw;
    marginal exact Pareto(alpha) in both modes."""
    return SeriesMatrix(values=lift(spec, base(spec, n, seed)))


def path(spec: M4Spec, n: int, seed: int, m_trunc: int | None = None) -> Draw:
    """An M4 replication of n rows over the base draw of the n + span
    innovation rows of seed.

    Full and truncated draws of one seed share their base draw (common
    random numbers).
    """
    return Draw(base(spec, n + spec.r_hi - spec.r_lo, seed), spec, m_trunc)
