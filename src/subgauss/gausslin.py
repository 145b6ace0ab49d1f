"""Multivariate causal Gaussian linear processes.

Construction of moving-average coefficient families whose entries decay fast
enough for the Berman-type condition, exact (truncated) autocovariances with
analytic tail bounds, nonsingularity checks of the block-Toeplitz path
covariance, and seeded simulation. A sample path is a `SeriesMatrix`: its
values alone, a pure function of the table, the length and the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

# Relative eigenvalue floor below which a covariance is treated as singular.
RANK_TOL = 1e-10
DECAY_TOL = 1e-12  # rounding noise allowed in a nonincreasing decay tail
DENSE_ROWS = 2000  # largest dense block covariance, in rows


class SpecError(ValueError):
    """Invalid process specification."""


# Spec and config fields are checked for their JSON type, so a wrong type is
# a config error naming the field. Every parser of JSON input uses these.

def _integer(name: str, value) -> int:
    """A JSON number with no fractional part, as an int."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise SpecError(f"{name} must be an integer, not {value!r} "
                        f"(field: {name})")
    return int(value)


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{name} must be a string, not {value!r} "
                        f"(field: {name})")
    return value


def _number(name: str, value):
    """A finite JSON number: `json.loads` reads NaN and Infinity too."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not np.isfinite(value)):
        raise SpecError(f"{name} must be a finite number, not {value!r} "
                        f"(field: {name})")
    return value


def _list(name: str, value) -> list:
    if not isinstance(value, list):
        raise SpecError(f"{name} must be a list, not {value!r} "
                        f"(field: {name})")
    return value


def _numbers(name: str, value) -> list:
    return [_number(name, x) for x in _list(name, value)]


def _integers(name: str, value) -> list:
    return [_integer(name, x) for x in _list(name, value)]


def _object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{name} must be an object, not {value!r} "
                        f"(field: {name})")
    return value


def _keys(name: str, value, allowed) -> dict:
    """A JSON object whose every key is in `allowed`: a key that nothing
    reads is a config error, never silently ignored."""
    unknown = sorted(set(_object(name, value)) - set(allowed))
    if unknown:
        raise SpecError(f"{name} takes only {', '.join(sorted(allowed))} "
                        f"(field: {', '.join(unknown)})")
    return value


def _nested(name: str, value):
    """A number or a rectangular nested list of numbers, as nested tuples."""
    def nest(x):
        return tuple(map(nest, x)) if isinstance(x, list) else _number(name, x)

    value = nest(value)
    try:
        np.asarray(value, dtype=float)
    except ValueError:
        raise SpecError(f"{name} must be a rectangular nested list "
                        f"(field: {name})") from None
    return value


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """psi_{ij,l} = B_ij * (l+1)^(-beta), requires beta > 1/2."""

    beta: float
    B: tuple  # nested tuple, d0 x d0, nonnegative


@dataclass(frozen=True)
class LogBoundary:
    """psi_{ij,l} = B_ij * l^(-1/2) * log(l)^(-q) for l >= 4, B_ij at l = 0,
    zero for l in {1,2,3}. Requires q > 1: sits just inside the decay regime
    psi_l * l^(1/2) * log(l) -> 0."""

    q: float
    B: tuple


@dataclass(frozen=True)
class Iid:
    """Psi_0 = identity, Psi_l = 0 for l >= 1."""


@dataclass(frozen=True)
class Custom:
    """Explicit table of coefficients, shape (L+1, d0, d0); treated as exact."""

    table: tuple


@dataclass(frozen=True)
class LinearProcessSpec:
    d0: int
    family: Polynomial | LogBoundary | Iid | Custom
    L: int = 10_000

    def __post_init__(self):
        if self.d0 < 1:
            raise SpecError("d0 must be a positive integer (field: d0)")
        if self.L < 0:
            raise SpecError("L must be nonnegative (field: L)")


def _family_scale(family) -> np.ndarray:
    B = np.asarray(family.B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise SpecError("B must be a square matrix (field: B)")
    if np.any(B < 0):
        raise SpecError("B must be entrywise nonnegative (field: B)")
    if not np.any(B > 0):
        raise SpecError("B must not be identically zero (field: B)")
    return B


@dataclass(frozen=True)
class CoeffTable:
    """Truncated moving-average coefficients Psi_0..Psi_L.

    psi has shape (L+1, d0, d0); spec is retained for the analytic tail
    bounds of the originating family. The real FFT of psi is cached per
    transform length for `simulate`.
    """

    spec: LinearProcessSpec
    psi: np.ndarray = field(repr=False)
    _psi_hat: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def d0(self) -> int:
        return self.spec.d0

    @property
    def L(self) -> int:
        return self.spec.L

    @staticmethod
    def from_json(text: str) -> "CoeffTable":
        obj = _keys("lin", json.loads(text), {"d0", "family", "params", "L"})
        name = _string("family", obj["family"])
        if name not in FAMILY_PARAMS:
            raise SpecError(f"unknown family {name!r} (field: family)")
        params = _keys(f"{name} params", obj["params"], FAMILY_PARAMS[name])
        if name == "polynomial":
            fam = Polynomial(_number("beta", params["beta"]),
                             _nested("B", params["B"]))
        elif name == "log_boundary":
            fam = LogBoundary(_number("q", params["q"]), _nested("B", params["B"]))
        elif name == "iid":
            fam = Iid()
        else:
            fam = Custom(_nested("table", params["table"]))
        return make_coeffs(LinearProcessSpec(
            _integer("d0", obj["d0"]), fam, _integer("L", obj["L"])))


# The params each family reads.
FAMILY_PARAMS = {"polynomial": {"beta", "B"}, "log_boundary": {"q", "B"},
                 "iid": set(), "custom": {"table"}}


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesMatrix:
    """A finite stationary sample path, time-major, d columns."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] < 1:
            raise SpecError("values must be an n x d array with n >= 1")
        if not np.all(np.isfinite(v)):
            raise SpecError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def make_coeffs(spec: LinearProcessSpec) -> CoeffTable:
    """Evaluate the family formulas for Psi_0..Psi_L."""
    L, d0 = spec.L, spec.d0
    fam = spec.family
    if isinstance(fam, Iid):
        psi = np.zeros((L + 1, d0, d0))
        psi[0] = np.eye(d0)
    elif isinstance(fam, Polynomial):
        if fam.beta <= 0.5:
            raise SpecError("polynomial family requires beta > 1/2 (field: beta)")
        B = _family_scale(fam)
        if B.shape[0] != d0:
            raise SpecError("B dimension must match d0 (field: B)")
        l = np.arange(L + 1, dtype=float)
        psi = (l + 1.0) ** (-fam.beta)
        psi = psi[:, None, None] * B[None, :, :]
    elif isinstance(fam, LogBoundary):
        if fam.q <= 1.0:
            raise SpecError("log-boundary family requires q > 1 (field: q)")
        B = _family_scale(fam)
        if B.shape[0] != d0:
            raise SpecError("B dimension must match d0 (field: B)")
        prof = np.zeros(L + 1)
        prof[0] = 1.0
        if L >= 4:
            l = np.arange(4, L + 1, dtype=float)
            prof[4:] = l ** (-0.5) * np.log(l) ** (-fam.q)
        psi = prof[:, None, None] * B[None, :, :]
    elif isinstance(fam, Custom):
        psi = np.asarray(fam.table, dtype=float)
        if psi.ndim != 3 or psi.shape != (L + 1, d0, d0):
            raise SpecError("custom table must have shape (L+1, d0, d0) "
                            "(field: table)")
    else:
        raise SpecError(f"unknown family {fam!r}")
    return CoeffTable(spec=spec, psi=psi)


@dataclass(frozen=True)
class DecayReport:
    """Profile s_l = max_ij |psi_{ij,l}| l^(1/2) log(l), l >= 2.

    Diagnostic only: a finite table cannot certify the asymptotic little-o
    decay condition, it can only display the profile.
    """

    lags: np.ndarray
    s: np.ndarray
    tail_decreasing: bool


def check_decay(coeffs: CoeffTable) -> DecayReport:
    L = coeffs.L
    if L < 8:
        raise SpecError("check_decay requires L >= 8")
    lags = np.arange(2, L + 1)
    amp = np.max(np.abs(coeffs.psi[2:]), axis=(1, 2))
    s = amp * np.sqrt(lags) * np.log(lags)
    tail = s[len(s) // 2:]
    flag = bool(np.all(np.diff(tail) <= DECAY_TOL))
    return DecayReport(lags=lags, s=s, tail_decreasing=flag)


def tail_bound(coeffs: CoeffTable, h: int) -> float:
    """Entrywise bound on sum_{j > L-h} Psi_j Psi_{j+h}' for analytic families."""
    fam = coeffs.spec.family
    J = coeffs.L - h
    if isinstance(fam, (Iid, Custom)):
        return 0.0
    top = float(np.max(fam.B))
    scale = coeffs.d0 * top * top  # inf past the largest float, no raise
    if isinstance(fam, Polynomial):
        # integral comparison: sum_{j>J} (j+1)^(-2 beta) <= (J+1)^(1-2b)/(2b-1)
        b = fam.beta
        return scale * (J + 1.0) ** (1.0 - 2.0 * b) / (2.0 * b - 1.0)
    # LogBoundary: sum_{j>J} j^(-1) log(j)^(-2q) <= log(J)^(1-2q)/(2q-1), J>=4
    J = max(J, 4)
    q = fam.q
    return scale * np.log(J) ** (1.0 - 2.0 * q) / (2.0 * q - 1.0)


def autocov(coeffs: CoeffTable, h: int) -> tuple[np.ndarray, float]:
    """Gamma(h) = sum_{j=0}^{L-h} Psi_j Psi_{j+h}' plus an entrywise
    truncation-error bound from the family's analytic tail."""
    if h < 0 or h > coeffs.L:
        raise SpecError(f"lag h={h} outside [0, L={coeffs.L}]")
    psi = coeffs.psi
    gamma = np.einsum("lij,lkj->ik", psi[: coeffs.L - h + 1], psi[h:])
    return gamma, tail_bound(coeffs, h)


def lag_products(x: np.ndarray, hmax: int) -> np.ndarray:
    """sum_l x_l x_{l+h}' for h = 0..hmax over a (T, p, q) array; shape
    (hmax+1, p, p).

    One real FFT of length N >= T + min(hmax, T-1) along time, one
    frequency-domain product and one inverse FFT: the circular products
    wrap only onto lags above that minimum, which are not kept. Lags past
    T-1 have no pairs and are exactly zero.
    """
    T = x.shape[0]
    have = min(hmax, T - 1)
    N = fft.next_fast_len(T + have, real=True)
    X = fft.rfft(x, n=N, axis=0)
    prod = fft.irfft(np.einsum("fij,fkj->fik", X.conj(), X), n=N, axis=0)
    out = np.zeros((hmax + 1,) + prod.shape[1:])
    out[: have + 1] = prod[: have + 1]
    return out


def autocov_all(coeffs: CoeffTable, hmax: int) -> np.ndarray:
    """All of Gamma(0..hmax) at once; shape (hmax+1, d0, d0)."""
    if hmax < 0 or hmax > coeffs.L:
        raise SpecError(f"hmax={hmax} outside [0, L={coeffs.L}]")
    return lag_products(coeffs.psi, hmax)


def berman_profile(coeffs: CoeffTable, hmax: int) -> np.ndarray:
    """max_ij |Gamma_ij(h)| * log(h) for h = 2..hmax."""
    if not 2 <= hmax <= coeffs.L:
        raise SpecError(f"hmax={hmax} outside [2, L={coeffs.L}]")
    gam = autocov_all(coeffs, hmax)
    h = np.arange(2, hmax + 1)
    amp = np.max(np.abs(gam[2:]), axis=(1, 2))
    return amp * np.log(h)


def block_cov(coeffs: CoeffTable, blocklen: int, shift: int = 0) -> np.ndarray:
    """Cov(X_a, X_{b+shift}) for a, b in [0, blocklen) as one
    (blocklen*d0)^2 matrix: block (a, b) is Gamma(b + shift - a), with
    Gamma(h) = Cov(X_t, X_{t+h}) and Gamma(-h) = Gamma(h)'.

    Gamma(h) = 0 past L, exactly, in the truncated model, so any shift is
    legal. The dense matrix is limited to DENSE_ROWS rows.
    """
    return block_covs(coeffs, blocklen, (shift,))[0]


def block_covs(coeffs: CoeffTable, blocklen: int, shifts) -> list:
    """block_cov at each shift, all from one lag_products call over the
    lags of the largest."""
    d0 = coeffs.d0
    if blocklen < 1 or min(shifts) < 0:
        raise SpecError(f"blocklen={blocklen} must be >= 1 and shift="
                        f"{min(shifts)} >= 0")
    if blocklen * d0 > DENSE_ROWS:
        raise SpecError(f"blocklen * d0 = {blocklen * d0} exceeds the dense "
                        f"budget ({DENSE_ROWS})")
    hmax = max(shifts) + blocklen - 1
    gam = lag_products(coeffs.psi, hmax)
    # lag k - hmax at index k, for lags -hmax..hmax
    both = np.concatenate([gam[:0:-1].transpose(0, 2, 1), gam])
    a = np.arange(blocklen)
    return [both[hmax + shift + a[None, :] - a[:, None]]  # [a, b, i, k]
            .transpose(0, 2, 1, 3).reshape(blocklen * d0, blocklen * d0)
            for shift in shifts]


def block_toeplitz_min_eig(coeffs: CoeffTable, nblock: int) -> float:
    """Smallest eigenvalue of the (nblock*d0)^2 covariance of (X_1..X_nblock).

    Returned even if <= 0; the caller decides what nonpositivity means.
    """
    return float(np.linalg.eigvalsh(block_cov(coeffs, nblock))[0])


def full_rank_check(coeffs: CoeffTable) -> bool:
    """True when Gamma(0) is numerically full rank."""
    gamma0, _ = autocov(coeffs, 0)
    ev = np.linalg.eigvalsh(gamma0)
    return bool(ev[0] > RANK_TOL * max(ev[-1], 1.0))


def simulate(coeffs: CoeffTable, n: int, seed: int) -> SeriesMatrix:
    """Simulate X_k = sum_{l=0}^L Psi_l eps_{k-l} with i.i.d. standard
    d0-variate Gaussian innovations from a counter-based generator.

    A burn-in of L innovations is consumed so the emitted path is stationary;
    the output is a pure function of (coeffs, n, seed).

    The convolution is circular, over a real FFT of length N >= n + L: the
    wrap-around reaches only rows before L, which are discarded. The
    transform of psi is computed once per N and cached on `coeffs`.
    """
    if n < 1:
        raise SpecError("n must be >= 1 (field: n)")
    d0, L = coeffs.d0, coeffs.L
    rng = np.random.Generator(np.random.Philox(key=seed))
    eps = rng.standard_normal((n + L, d0))
    N = fft.next_fast_len(n + L, real=True)
    psi_hat = coeffs._psi_hat.get(N)
    if psi_hat is None:
        psi_hat = coeffs._psi_hat[N] = fft.rfft(coeffs.psi, n=N, axis=0)
    eps_hat = fft.rfft(eps, n=N, axis=0)
    X = fft.irfft(np.einsum("fij,fj->fi", psi_hat, eps_hat), n=N, axis=0)
    return SeriesMatrix(values=X[L : L + n])
