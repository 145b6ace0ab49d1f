"""M4 moving-maxima processes over heavy-tailed innovations.

Builds maxima-of-moving-maxima paths from either i.i.d. Pareto innovations
(the oracle mode) or Pareto-transformed Gaussian linear processes, and
evaluates the closed-form limit objects: the tail constants A_i, the i.i.d.
limit G(tau), the multivariate extremal index theta(tau), its lag-truncated
version, and analytic thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from subgauss import gausslin, subordinate
from subgauss.gausslin import LinearProcessSpec, SeriesMatrix, SpecError
from subgauss.subordinate import Part, WindowTransform


@dataclass(frozen=True)
class IidPareto:
    """Oracle innovation mode: i.i.d. Pareto(alpha), P(W > u) = u^(-alpha)."""

    alpha: float

    kind = "iid_pareto"


@dataclass(frozen=True)
class SubGauss:
    """Innovations W_{k,j} = h(X_{k,j}) with X a Gaussian linear process and
    h the (folded) Pareto probability integral transform; the marginal is
    exact Pareto(alpha) while temporal/cross dependence is inherited from X.

    The coefficient table of `lin` and the marginal sd of X (from Gamma(0))
    are resolved once, at construction, as `coeffs` and `sd`; every path
    drawn through `innovations` reuses them.
    """

    lin: LinearProcessSpec
    transform: str = "pareto"  # or "folded_pareto"
    coeffs: gausslin.CoeffTable = field(init=False, repr=False, compare=False)
    sd: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "subgauss"

    def __post_init__(self):
        if self.transform not in ("pareto", "folded_pareto"):
            raise SpecError("SubGauss transform must be pareto or folded_pareto")
        coeffs = gausslin.make_coeffs(self.lin)
        gamma0, _ = gausslin.autocov(coeffs, 0)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sd", np.sqrt(np.diag(gamma0)))


@dataclass(frozen=True)
class M4Spec:
    """Y_{k,i} = max over lags r and components j of a_{ij,r} W_{k-r,j}."""

    d: int
    alpha: float
    lags: tuple  # (r_lo, r_hi), r_lo <= 0 <= r_hi
    a: np.ndarray = field(repr=False)  # shape (r_hi - r_lo + 1, d, d), [r][i][j]
    innovation: IidPareto | SubGauss = None

    def __post_init__(self):
        r_lo, r_hi = self.lags
        if not (r_lo <= 0 <= r_hi):
            raise SpecError("lag window must contain 0")
        if self.alpha <= 0:
            raise SpecError("alpha must be > 0")
        a = np.asarray(self.a, dtype=float)
        if a.shape != (r_hi - r_lo + 1, self.d, self.d):
            raise SpecError(
                f"coefficient array must have shape "
                f"({r_hi - r_lo + 1}, {self.d}, {self.d})"
            )
        if np.any(a < 0):
            raise SpecError("coefficients must be nonnegative")
        if np.any(np.all(a == 0, axis=(0, 2))):
            raise SpecError(
                "every output component needs a positive coefficient "
                "(degenerate marginal otherwise)"
            )
        inn = self.innovation
        if isinstance(inn, SubGauss) and inn.lin.d0 != self.d:
            raise SpecError(
                f"SubGauss innovation has lin.d0={inn.lin.d0}, "
                f"spec needs d0 = d = {self.d} (field: d0)"
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

    def restricted(self, m_trunc: int) -> "M4Spec":
        """Spec with lags clipped to |r| <= m_trunc (used by build)."""
        lo = max(self.r_lo, -m_trunc)
        hi = min(self.r_hi, m_trunc)
        sel = (self.lag_values() >= lo) & (self.lag_values() <= hi)
        return M4Spec(
            d=self.d, alpha=self.alpha, lags=(lo, hi), a=self.a[sel],
            innovation=self.innovation,
        )

    def to_json(self) -> str:
        if isinstance(self.innovation, IidPareto):
            inn = {"kind": "iid_pareto", "alpha": self.innovation.alpha}
        elif isinstance(self.innovation, SubGauss):
            inn = {
                "kind": "subgauss",
                "lin": json.loads(self.innovation.coeffs.to_json()),
                "transform": self.innovation.transform,
            }
        else:
            inn = None
        return json.dumps(
            {
                "d": self.d,
                "alpha": self.alpha,
                "lags": list(self.lags),
                "a": self.a.tolist(),
                "innovation": inn,
            }
        )

    @staticmethod
    def from_json(text: str) -> "M4Spec":
        obj = json.loads(text)
        inn = obj.get("innovation")
        innovation = None
        if inn is not None:
            if inn["kind"] == "iid_pareto":
                innovation = IidPareto(alpha=inn["alpha"])
            elif inn["kind"] == "subgauss":
                table = gausslin.CoeffTable.from_json(json.dumps(inn["lin"]))
                innovation = SubGauss(
                    lin=table.spec, transform=inn.get("transform", "pareto")
                )
            else:
                raise SpecError(f"unknown innovation kind {inn['kind']!r}")
        return M4Spec(
            d=obj["d"],
            alpha=obj["alpha"],
            lags=tuple(obj["lags"]),
            a=np.asarray(obj["a"], dtype=float),
            innovation=innovation,
        )


@dataclass(frozen=True)
class ThresholdVector:
    """Levels u_i with n * P(Y_{0,i} > u_i) -> tau_i."""

    n: int
    tau: np.ndarray
    u: np.ndarray
    mode: str = "analytic_pareto"

    def __post_init__(self):
        if np.any(np.asarray(self.u) <= 0):
            raise SpecError("thresholds must be positive")


# ---------------------------------------------------------------------------
# Closed-form limit objects
# ---------------------------------------------------------------------------

def A_vec(spec: M4Spec) -> np.ndarray:
    """A_i = sum over lags r and components j of a_{ij,r}^alpha."""
    return np.sum(spec.a**spec.alpha, axis=(0, 2))


def _check_tau(spec: M4Spec, tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (spec.d,):
        raise SpecError(f"tau must have length d={spec.d}")
    if np.any(tau <= 0):
        raise SpecError("tau must be positive componentwise")
    return tau


def _weight_table(spec: M4Spec, tau: np.ndarray) -> np.ndarray:
    """max_i a_{ij,r}^alpha tau_i / A_i, indexed [r][j]."""
    A = A_vec(spec)
    return np.max(spec.a**spec.alpha * (tau / A)[None, :, None], axis=1)


def G_limit(spec: M4Spec, tau) -> float:
    """G(tau) = exp(-sum_r sum_j max_i a_{ij,r}^alpha tau_i / A_i)."""
    tau = _check_tau(spec, tau)
    return float(np.exp(-np.sum(_weight_table(spec, tau))))


def tail_limit(spec: M4Spec, tau) -> float:
    """Limit of n * P(Y_0 not <= u_n(tau)); equals -log G(tau).

    Deliberately written with explicit loops, independent of the vectorized
    G_limit code path, so the identity can be cross-checked.
    """
    tau = _check_tau(spec, tau)
    A = [0.0] * spec.d
    nlags = spec.r_hi - spec.r_lo + 1
    for ri in range(nlags):
        for i in range(spec.d):
            for j in range(spec.d):
                A[i] += float(spec.a[ri, i, j]) ** spec.alpha
    total = 0.0
    for ri in range(nlags):
        for j in range(spec.d):
            best = 0.0
            for i in range(spec.d):
                term = float(spec.a[ri, i, j]) ** spec.alpha * tau[i] / A[i]
                best = max(best, term)
            total += best
    return total


def theta(spec: M4Spec, tau) -> float:
    """Multivariate extremal index of the M4 limit:
    [sum_j max_r w_{r,j}] / [sum_j sum_r w_{r,j}] with
    w_{r,j} = max_i a_{ij,r}^alpha tau_i / A_i."""
    tau = _check_tau(spec, tau)
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
        raise SpecError("m_trunc must be >= 0")
    tau = _check_tau(spec, tau)
    w = _weight_table(spec, tau)
    keep = np.abs(spec.lag_values()) <= m_trunc
    w = w[keep]
    if w.size == 0 or np.sum(w) == 0:
        raise SpecError("truncation removed every active lag")
    return float(np.sum(np.max(w, axis=0)) / np.sum(w))


def thresholds(spec: M4Spec, n: int, tau) -> ThresholdVector:
    """Analytic Pareto thresholds u_i = (A_i n / tau_i)^(1/alpha).

    Requires the innovation marginal to be exact Pareto(alpha); both
    innovation modes guarantee this by construction.
    """
    tau = _check_tau(spec, tau)
    if n < 1:
        raise SpecError("n must be >= 1")
    if spec.innovation is None:
        raise SpecError("spec has no innovation mode")
    u = (A_vec(spec) * n / tau) ** (1.0 / spec.alpha)
    return ThresholdVector(n=n, tau=tau, u=u, mode="analytic_pareto")


# ---------------------------------------------------------------------------
# Path construction
# ---------------------------------------------------------------------------

def build(W: SeriesMatrix, spec: M4Spec, m_trunc: int | None = None) -> SeriesMatrix:
    """Y_{k,i} = max over r in lags (optionally |r| <= m_trunc) and j of
    a_{ij,r} W_{k-r,j}.

    The output time range is trimmed by the full lag window at both ends
    regardless of truncation, so truncated and full builds align elementwise.
    """
    if W.d != spec.d:
        raise SpecError(f"innovation path has d={W.d}, spec needs {spec.d}")
    span = spec.r_hi - spec.r_lo
    if W.n <= span:
        raise SpecError("innovation path shorter than the lag window")
    n_out = W.n - span
    out = np.zeros((n_out, spec.d))
    lagvals = spec.lag_values()
    for ri, r in enumerate(lagvals):
        if m_trunc is not None and abs(r) > m_trunc:
            continue
        # output time k corresponds to absolute time k + r_hi;
        # W_{k + r_hi - r} sits at row (r_hi - r) + k
        off = spec.r_hi - r
        Wseg = W.values[off : off + n_out]  # (n_out, d) over j
        for i in range(spec.d):
            for j in range(spec.d):
                np.maximum(out[:, i], Wseg[:, j] * spec.a[ri, i, j], out=out[:, i])
    meta = dict(W.meta)
    meta["m4"] = {"lags": list(spec.lags), "m_trunc": m_trunc}
    return SeriesMatrix(values=out, meta=meta)


def innovations(spec: M4Spec, n: int, seed: int) -> SeriesMatrix:
    """Draw the innovation path W; marginal exact Pareto(alpha) in both modes.

    SubGauss mode simulates the Gaussian linear process, standardizes each
    column by its exact (truncated-model) marginal sd, and applies the
    (folded) Pareto transform columnwise. The coefficient table and the sd
    come from the SubGauss state resolved at construction, so a replication
    does only its own simulation and transform.
    """
    inn = spec.innovation
    if inn is None:
        raise SpecError("spec has no innovation mode")
    if isinstance(inn, IidPareto):
        rng = np.random.Generator(np.random.Philox(key=seed))
        U = rng.random((n, spec.d))
        W = (1.0 - U) ** (-1.0 / inn.alpha)
        return SeriesMatrix(
            values=W,
            meta={"seed": seed, "generator": gausslin.GENERATOR_ID,
                  "innovation": "iid_pareto"},
        )
    X = gausslin.simulate(inn.coeffs, n, seed)
    Z = SeriesMatrix(values=X.values / inn.sd, meta=X.meta)
    t = WindowTransform(
        m=0,
        parts=tuple(
            Part(kind=inn.transform, coord=j, alpha=spec.alpha)
            for j in range(spec.d)
        ),
    )
    return subordinate.apply(Z, t)
