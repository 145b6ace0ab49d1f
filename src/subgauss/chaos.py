"""Gaussian Hilbert space computations.

Canonical/maximal correlation of jointly Gaussian blocks, orthonormal Hermite
expansions of catalog functions, the Mehler coefficient scaling, the
hypercontractive norm inequality, and a bivariate-normal joint-tail oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from subgauss import gausslin
from subgauss.gausslin import CoeffTable, SpecError

EIG_FLOOR = 1e-12  # relative eigenvalue floor for matrix inverse square roots
EXPANSIONS_KEPT = 64  # certified Hermite expansions kept, keyed by (f, K)


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
    return _top_singular_value(w1 @ pair.cov12 @ w2)


def _top_singular_value(m: np.ndarray) -> float:
    s = np.linalg.svd(m, compute_uv=False)
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
    # both blocks have covariance c11, so one inverse square root whitens
    # either side
    c11, c12 = gausslin.block_covs(coeffs, r + m, (0, h * (r + p_gap)))
    w = _inv_sqrt(c11, "cov11")
    return _top_singular_value(w @ c12 @ w)


# ---------------------------------------------------------------------------
# Catalog scalar functions
# ---------------------------------------------------------------------------

# the number of parameters each catalog kind takes: (fewest, most)
_CATALOG_PARAMS = {"exp": (1, 1), "indicator": (1, 1), "abs": (0, 0),
                   "poly": (1, None)}


@dataclass(frozen=True)
class CatalogFn:
    """A scalar function with a quadrature-certifiable Hermite expansion.

    kinds: "exp" f(x)=exp(t x); "indicator" f(x)=1{x>c};
    "poly" f(x)=sum coeffs[k] x^k; "abs" f(x)=|x|. exp and indicator take
    one parameter, abs none and poly at least one; anything else raises
    SpecError when the function is built.
    """

    kind: str
    param: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _CATALOG_PARAMS:
            raise SpecError(f"kind: unknown catalog kind {self.kind!r}, "
                            f"expected one of {sorted(_CATALOG_PARAMS)}")
        if np.isscalar(self.param):
            param = (float(self.param),)
        else:
            param = tuple(float(p) for p in self.param)
        fewest, most = _CATALOG_PARAMS[self.kind]
        if len(param) < fewest or (most is not None and len(param) > most):
            takes = (f"at least {fewest}" if most is None else str(fewest))
            raise SpecError(f"param: catalog kind {self.kind!r} takes {takes} "
                            f"parameter(s), got {len(param)}")
        object.__setattr__(self, "param", param)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exp":
            return np.exp(self.param[0] * x)
        if self.kind == "indicator":
            return (x > self.param[0]).astype(float)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.param))
        return np.abs(x)

    def breakpoints(self) -> tuple:
        if self.kind == "indicator":
            return (self.param[0],)
        if self.kind == "abs":
            return (0.0,)
        if self.kind == "poly":
            # |f|^p has kinks at the real roots
            roots = np.polynomial.polynomial.polyroots(np.asarray(self.param))
            return tuple(float(r) for r in np.unique(roots.real[roots.imag == 0]))
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

# Gauss-Kronrod G10/K21 rule on [-1, 1] (QUADPACK qk21): the 21 Kronrod
# nodes, their weights, and the weights of the 10 Gauss nodes, which are the
# odd-indexed Kronrod nodes. Each table lists one half, mirrored below.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK21_X = np.concatenate([_GK21_X, -_GK21_X[-2::-1]])
_K21_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_K21_W = np.concatenate([_K21_W, _K21_W[-2::-1]])
_G10_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_G10_W = np.concatenate([_G10_W, _G10_W[::-1]])


def _gk21(fn, lo, hi):
    """The G10/K21 rule on every panel [lo_i, hi_i] of fn(x) phi(x), from one
    call of fn on all their nodes. Returns the Kronrod integrals (panels, m),
    and per panel the error estimate and the rounding-error bound in the max
    norm, scaled as QUADPACK does."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _GK21_X
    y = np.asarray(fn(x.ravel()), dtype=float)
    fx = y.reshape(x.shape + (-1,)) * _PDF(x)[..., None]
    kron = np.einsum("j,pjm->pm", _K21_W, fx)
    gauss = np.einsum("j,pjm->pm", _G10_W, fx[:, 1::2])
    k_abs = np.einsum("j,pjm->pm", _K21_W, np.abs(fx))
    k_dev = np.einsum("j,pjm->pm", _K21_W, np.abs(fx - 0.5 * kron[:, None]))
    h = half[:, None]
    err = np.max(np.abs((kron - gauss) * h), axis=1)
    dev = np.max(k_dev * h, axis=1)
    scale = (err != 0) & (dev != 0)
    err[scale] = dev[scale] * np.minimum(
        1.0, (200.0 * err[scale] / dev[scale]) ** 1.5)
    rnd = np.max(50.0 * np.finfo(float).eps * h * k_abs, axis=1)
    err = np.where(rnd > np.finfo(float).tiny, np.maximum(err, rnd), err)
    return (kron * h).reshape(lo.shape + y.shape[1:]), err, rnd


def _panel_sums(x, owner, rank, start, width):
    """x[owner == p].sum(axis=0) for every panel p, bit for bit, where x is
    sorted by panel, each panel in its own order, and rank is the position
    within the panel. numpy sums a vector (or a single column) pairwise from
    0.0, and the rows of a wider array one after another."""
    panels = len(start)
    if x.ndim == 1 or x.shape[1] == 1:
        # reduceat adds the rest of a slice pairwise to its first entry, so
        # a zero ahead of each panel repeats the panel's own sum
        z = np.zeros((len(x) + panels,) + x.shape[1:])
        z[start[owner] + owner + rank + 1] = x
        return np.add.reduceat(z, start + np.arange(panels))
    # rows after a panel's last are zeros, which leave a row sum unchanged
    pad = np.zeros((panels, width, x.shape[1]))
    pad[owner, rank] = x
    return np.add.reduce(pad, axis=1)


def gaussian_expectation(fn, breakpoints=()):
    """E[fn(Z)] for standard normal Z by two batched adaptive Gauss-Kronrod
    (G10/K21) rules on [-40, 40]; returns (plain, refined).

    The plain rule splits [-40, 40] into panels at the supplied breakpoints,
    so kinks and jumps are respected; the refined rule adds panel
    boundaries at -3, -1, 1, 3, which force a different subdivision, and
    agreement between the two values certifies convergence. fn takes a 1-D
    array of nodes and returns one value per node, shape (nodes,), or one
    vector per node, shape (nodes, m); each value is a float or an array of
    shape (m,).

    Each panel is refined as `scipy.integrate.quad_vec(norm="max")` refines
    it: every round halves, in each unconverged panel, its subintervals of
    largest error until the rest is below tol/8, where tol = max(1e-13,
    1e-12 max|panel integral|), and the panel stops when its error sum is
    below tol/8 (or below the accumulated rounding error). Both rules run
    in one loop: all halves of a round, over every panel of both rules, go
    to fn in one call. A panel that reaches 200 subintervals unconverged,
    or a non-finite error, raises SpecError.
    """
    # The density underflows to zero beyond |x| ~ 39; finite limits keep
    # adaptive quadrature from probing points where fn itself overflows.
    cut, epsabs, epsrel, limit = 40.0, 1e-13, 1e-12, 200
    pts = {-cut, cut} | {float(b) for b in breakpoints if abs(b) < cut}
    rules = [np.array(sorted(pts)), np.array(sorted(pts | {-3.0, -1.0, 1.0, 3.0}))]
    edges = np.concatenate([np.stack([r[:-1], r[1:]], 1) for r in rules])
    panels, plain = len(edges), len(rules[0]) - 1
    # subintervals stay sorted by panel; each panel keeps the order in
    # which it made them, which its sums depend on
    lo, hi, owner = edges[:, 0], edges[:, 1], np.arange(panels)
    val, err, rnd = _gk21(fn, lo, hi)
    rounding = rnd.copy()  # per panel, summed over every rule applied
    count = np.ones(panels, dtype=int)
    while True:
        start = np.add.accumulate(count) - count
        rank = np.arange(len(owner)) - start[owner]
        width = count.max()
        total = _panel_sums(err, owner, rank, start, width)
        sums = _panel_sums(val, owner, rank, start, width)
        tol = np.maximum(epsabs, epsrel * np.maximum.reduce(
            np.abs(sums).reshape(panels, -1), axis=1))
        done = (count >= 2) & ((total < tol / 8) | (total < rounding))
        bad = ~(np.isfinite(total) & np.isfinite(rounding))
        stuck = bad | ((count >= limit) & ~done)
        if stuck.any():
            p = stuck.argmax()
            why = ("met a non-finite value" if bad[p] else
                   f"did not converge within {limit} subintervals")
            raise SpecError(f"quadrature on [{edges[p, 0]:g}, {edges[p, 1]:g}] {why}")
        if done.all():
            break
        # in each unconverged panel, halve the subinterval of largest error
        # (the leftmost on a tie), and the next ones while the error left
        # behind exceeds tol/8 (at most 128 per round). Sorting keeps each
        # panel where it was, so rank is also the position in worst; the
        # running error sums never decrease, so the ones that fit are a
        # prefix.
        worst = np.lexsort((lo, -err, owner))
        spent = np.zeros((panels, width))
        spent[owner, rank] = err[worst]
        fits = np.add.reduce(np.add.accumulate(spent, axis=1)
                             <= (total - tol / 8)[:, None], axis=1)
        halve = np.where(done, 0, 1 + np.minimum(np.minimum(fits, count - 1), 127))
        split = worst[rank < halve[owner]]
        count += halve
        mid = 0.5 * (lo[split] + hi[split])
        new_val, new_err, new_rnd = _gk21(fn, np.concatenate([lo[split], mid]),
                                          np.concatenate([mid, hi[split]]))
        n = len(split)
        np.add.at(rounding, owner[split], new_rnd[:n] + new_rnd[n:])
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        # stable, so a panel's kept subintervals come first, then its left
        # halves, then its right halves
        owner = np.concatenate([owner[keep], owner[split], owner[split]])
        order = owner.argsort(kind="stable")
        owner = owner[order]
        lo = np.concatenate([lo[keep], lo[split], mid])[order]
        hi = np.concatenate([hi[keep], mid, hi[split]])[order]
        val = np.concatenate([val[keep], new_val])[order]
        err = np.concatenate([err[keep], new_err])[order]
    # each rule adds its panel sums in panel order
    both = (np.cumsum(sums[:plain], axis=0)[-1], np.cumsum(sums[plain:], axis=0)[-1])
    return tuple(v if np.ndim(v) else float(v) for v in both)


def hermite_expand(f: CatalogFn, K: int) -> HermiteExpansion:
    """c_k = E[f(Z) He_k(Z)] / sqrt(k!) for k = 0..K, all from one adaptive
    pass of both rules, split at the catalog function's breakpoints. The
    plain and the refined rule must agree to 1e-10 on every coefficient.

    An expansion is certified once per (f, K): the EXPANSIONS_KEPT most
    recently used are kept and returned to every later caller, so their
    coeffs are read-only. f and K are checked on every call, before the
    lookup."""
    if not isinstance(f, CatalogFn):
        raise SpecError("hermite_expand accepts catalog functions only")
    if isinstance(K, bool) or not isinstance(K, int) or not 0 <= K <= 60:
        raise SpecError(f"truncation order K must be an int in [0, 60], got {K!r}")
    return _certified_expansion(f, K)


@functools.lru_cache(maxsize=EXPANSIONS_KEPT)
def _certified_expansion(f: CatalogFn, K: int) -> HermiteExpansion:
    root = [math.sqrt(k) for k in range(K + 1)]

    def integrand(x):
        # orthonormal h_k = He_k(x) / sqrt(k!) by the three-term recurrence
        # h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1), one row per k,
        # each formed in place in the same order of operations
        h = np.empty((K + 1, x.size))
        h[0] = 1.0
        if K:
            h[1] = x
        for k in range(1, K):
            np.multiply(x, h[k], out=h[k + 1])
            h[k + 1] -= root[k] * h[k - 1]
            h[k + 1] /= root[k + 1]
        return (f(x) * h).T

    coeffs, check = gaussian_expectation(integrand, f.breakpoints())
    delta = np.abs(coeffs - check)
    worst = int(np.argmax(delta))
    if not delta[worst] <= 1e-10:
        raise SpecError(
            f"quadrature for coefficient {worst} did not converge "
            f"(delta={delta[worst]:.2e})"
        )
    coeffs.setflags(write=False)
    return HermiteExpansion(coeffs=coeffs)


def mehler_apply(exp: HermiteExpansion, a: float) -> HermiteExpansion:
    """Scale the k-th chaos coefficient by a^k."""
    if not abs(a) <= 1.0:
        raise SpecError(f"|a| must be <= 1, got {a!r}")
    k = np.arange(exp.K + 1)
    return HermiteExpansion(coeffs=exp.coeffs * a**k)


def mehler_variance(exp: HermiteExpansion, a: float) -> float:
    """Var of the Mehler-scaled expansion: sum_{k>=1} a^(2k) c_k^2."""
    if not abs(a) <= 1.0:
        raise SpecError(f"|a| must be <= 1, got {a!r}")
    k = np.arange(1, exp.K + 1)
    return float(np.sum(a ** (2 * k) * exp.coeffs[1:] ** 2))


def hypercontractivity_check(f: CatalogFn, a: float, K: int = 40):
    """Return (lhs, rhs) = (||M_a f||_2, ||f||_{1+a^2}) under the standard
    Gaussian law; the inequality lhs <= rhs is asserted by callers. The
    expansion of f is shared by every a; the norm moment depends on a and
    is integrated and certified on each call."""
    exp = hermite_expand(f, K)
    scaled = mehler_apply(exp, a)
    lhs = scaled.l2_norm()
    p = 1.0 + a * a
    moment, check = gaussian_expectation(lambda x: np.abs(f(x)) ** p,
                                         f.breakpoints())
    delta = abs(moment - check)
    if not delta <= 1e-8:
        raise SpecError(f"norm quadrature did not converge (delta={delta:.2e})")
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
    # imported here, its only reader, so no other command loads scipy.integrate
    from scipy import integrate

    s = math.sqrt(1.0 - rho * rho)

    def integrand(t):
        return _PDF(t) * ndtr(-(x - rho * t) / s)

    val, _ = integrate.quad(
        integrand, x, max(x + 40.0, 40.0), epsabs=1e-300, epsrel=1e-13,
        limit=400,
    )
    return float(val)


def folded_joint_tail(rho: float, fbar: float) -> float:
    """P(|X1| > x, |X2| > x) with P(|X1| > x) = fbar for a standard bivariate
    normal with correlation rho: the joint tail of its folded transforms."""
    x = float(ndtri(1.0 - fbar / 2.0))
    return 2.0 * (bvn_joint_tail(rho, x) + bvn_joint_tail(-rho, x))
