"""Gaussian Hilbert space computations.

Canonical/maximal correlation of jointly Gaussian blocks, orthonormal Hermite
expansions of catalog functions, the Mehler coefficient scaling, the
hypercontractive norm inequality, and a bivariate-normal joint-tail oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from subgauss import gausslin
from subgauss.gausslin import CoeffTable, SpecError

EIG_FLOOR = 1e-12  # relative eigenvalue floor for matrix inverse square roots


class ConditioningError(ValueError):
    """Covariance block is not numerically positive definite."""


# ---------------------------------------------------------------------------
# Canonical correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBlockPair:
    """Covariance structure of two jointly Gaussian blocks (X1, X2)."""

    cov11: np.ndarray
    cov22: np.ndarray
    cov12: np.ndarray

    def __post_init__(self):
        p, q = self.cov11.shape[0], self.cov22.shape[0]
        if self.cov12.shape != (p, q):
            raise SpecError("cov12 shape must be (p, q)")


def _inv_sqrt(cov: np.ndarray, label: str) -> np.ndarray:
    ev, U = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = EIG_FLOOR * max(ev[-1], 0.0)
    if ev[0] <= floor:
        raise ConditioningError(
            f"{label} not positive definite: lambda_min={ev[0]:.3e}, "
            f"lambda_max={ev[-1]:.3e}"
        )
    return U @ np.diag(ev ** -0.5) @ U.T


def canonical_correlation(pair: GaussianBlockPair) -> float:
    """Largest singular value of cov11^(-1/2) cov12 cov22^(-1/2), in [0, 1].

    By the identity of canonical and maximal correlation for Gaussian
    spaces, this also equals the maximal correlation over all
    square-integrable transforms of the two blocks.
    """
    w1 = _inv_sqrt(pair.cov11, "cov11")
    w2 = _inv_sqrt(pair.cov22, "cov22")
    s = np.linalg.svd(w1 @ pair.cov12 @ w2, compute_uv=False)
    return float(np.clip(s[0], 0.0, 1.0))


def block_canonical_corr(
    coeffs: CoeffTable, r: int, p_gap: int, m: int, h: int
) -> float:
    """Canonical correlation gamma_X(h) between the gapped sample blocks at
    block separation h.

    Block 0 spans times {1-m, ..., r}; block h spans the same window shifted
    by h*(r+p_gap), so each block stacks r+m consecutive d0-vectors.
    """
    if h < 1:
        raise SpecError("block separation h must be >= 1")
    blocklen = r + m
    c11 = gausslin.block_cov(coeffs, blocklen)
    c12 = gausslin.block_cov(coeffs, blocklen, h * (r + p_gap))
    return canonical_correlation(GaussianBlockPair(c11, c11, c12))


# ---------------------------------------------------------------------------
# Catalog scalar functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogFn:
    """A scalar function with a quadrature-certifiable Hermite expansion.

    kinds: "exp" f(x)=exp(t x); "indicator" f(x)=1{x>c};
    "poly" f(x)=sum coeffs[k] x^k; "abs" f(x)=|x|.
    """

    kind: str
    param: tuple = ()

    def __post_init__(self):
        if np.isscalar(self.param):
            object.__setattr__(self, "param", (float(self.param),))
        else:
            object.__setattr__(self, "param", tuple(float(p) for p in self.param))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exp":
            return np.exp(self.param[0] * x)
        if self.kind == "indicator":
            return (x > self.param[0]).astype(float)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.param))
        if self.kind == "abs":
            return np.abs(x)
        raise SpecError(f"unknown catalog kind {self.kind!r}")

    def breakpoints(self) -> tuple:
        if self.kind == "indicator":
            return (self.param[0],)
        if self.kind == "abs":
            return (0.0,)
        return ()


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients against orthonormal probabilists' Hermite polynomials."""

    coeffs: np.ndarray

    @property
    def K(self) -> int:
        return len(self.coeffs) - 1

    def mean(self) -> float:
        return float(self.coeffs[0])

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))


_PDF = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gaussian_expectation(fn, breakpoints=(), refine=False):
    """E[fn(Z)] for standard normal Z by adaptive quadrature, splitting the
    axis at the supplied breakpoints so kinks and jumps are respected.

    fn may return a scalar or a vector; the result is a float or an array of
    the same shape. Each panel is one adaptive pass (`quad_vec`) that
    subdivides for all components at once, its error measured in the max
    norm. With refine=True, extra panel boundaries force a different
    subdivision; agreement between the two rules certifies convergence.
    """
    # The density underflows to zero beyond |x| ~ 39; finite limits keep
    # adaptive quadrature from probing points where fn itself overflows.
    cut = 40.0
    pts = {-cut, cut} | {float(b) for b in breakpoints if abs(b) < cut}
    if refine:
        pts |= {-3.0, -1.0, 1.0, 3.0}
    pts = sorted(pts)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad_vec(
            lambda x: fn(x) * _PDF(x), a, b, epsabs=1e-13, epsrel=1e-12,
            limit=200, norm="max",
        )
        total += val
    return total


def hermite_expand(f: CatalogFn, K: int) -> HermiteExpansion:
    """c_k = E[f(Z) He_k(Z)] / sqrt(k!) for k = 0..K, all from one adaptive
    pass per rule, split at the catalog function's breakpoints. The plain
    and the refined rule must agree to 1e-10 on every coefficient."""
    if not isinstance(f, CatalogFn):
        raise SpecError("hermite_expand accepts catalog functions only")
    if not 0 <= K <= 60:
        raise SpecError("truncation order K must lie in [0, 60]")
    root = [math.sqrt(k) for k in range(K + 1)]

    def integrand(x):
        # orthonormal h_k = He_k(x) / sqrt(k!) by the three-term recurrence
        # h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1)
        h = [1.0, x][: K + 1]
        for k in range(1, K):
            h.append((x * h[k] - root[k] * h[k - 1]) / root[k + 1])
        return float(f(x)) * np.array(h)

    bp = f.breakpoints()
    coeffs = gaussian_expectation(integrand, bp)
    delta = np.abs(coeffs - gaussian_expectation(integrand, bp, refine=True))
    worst = int(np.argmax(delta))
    if not delta[worst] <= 1e-10:
        raise SpecError(
            f"quadrature for coefficient {worst} did not converge "
            f"(delta={delta[worst]:.2e})"
        )
    return HermiteExpansion(coeffs=coeffs)


def mehler_apply(exp: HermiteExpansion, a: float) -> HermiteExpansion:
    """Scale the k-th chaos coefficient by a^k."""
    if abs(a) > 1.0:
        raise SpecError("|a| must be <= 1")
    k = np.arange(exp.K + 1)
    return HermiteExpansion(coeffs=exp.coeffs * a**k)


def mehler_variance(exp: HermiteExpansion, a: float) -> float:
    """Var of the Mehler-scaled expansion: sum_{k>=1} a^(2k) c_k^2."""
    if abs(a) > 1.0:
        raise SpecError("|a| must be <= 1")
    k = np.arange(1, exp.K + 1)
    return float(np.sum(a ** (2 * k) * exp.coeffs[1:] ** 2))


def hypercontractivity_check(f: CatalogFn, a: float, K: int = 40):
    """Return (lhs, rhs) = (||M_a f||_2, ||f||_{1+a^2}) under the standard
    Gaussian law; the inequality lhs <= rhs is asserted by callers."""
    exp = hermite_expand(f, K)
    scaled = mehler_apply(exp, a)
    lhs = scaled.l2_norm()
    p = 1.0 + a * a
    bp = f.breakpoints()
    moment = gaussian_expectation(lambda x: abs(float(f(x))) ** p, bp)
    moment_check = gaussian_expectation(
        lambda x: abs(float(f(x))) ** p, bp, refine=True
    )
    if abs(moment - moment_check) > 1e-8:
        raise SpecError("norm quadrature did not converge")
    rhs = moment ** (1.0 / p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Tail bounds and oracles
# ---------------------------------------------------------------------------

def joint_tail_bound(Fbar: float, rho: float) -> float:
    """Hypercontractive joint-exceedance bound Fbar^(2/(1+rho))."""
    if not 0.0 < Fbar < 1.0:
        raise SpecError("Fbar must lie in (0, 1)")
    if not 0.0 <= rho <= 1.0:
        raise SpecError("rho must lie in [0, 1]")
    return Fbar ** (2.0 / (1.0 + rho))


def bvn_joint_tail(rho: float, x: float) -> float:
    """P(X1 > x, X2 > x) for a standard bivariate normal with correlation rho.

    One-dimensional integral of the conditional Gaussian tail; accurate to
    ~1e-12 relative for x <= 6, not certified beyond |x| = 8.
    """
    if not -1.0 < rho < 1.0:
        raise SpecError("rho must lie in (-1, 1)")
    if abs(x) > 8.0:
        raise SpecError("|x| must be <= 8")
    s = math.sqrt(1.0 - rho * rho)

    def integrand(t):
        return _PDF(t) * ndtr(-(x - rho * t) / s)

    val, _ = integrate.quad(
        integrand, x, max(x + 40.0, 40.0), epsabs=1e-300, epsrel=1e-13,
        limit=400,
    )
    return float(val)
