"""Hermite expansions, Mehler scaling, hypercontractive and joint-tail
bounds, and canonical correlations of Gaussian blocks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy import integrate
from scipy.special import ndtr, ndtri

from subgauss import chaos, gausslin
from subgauss.chaos import CatalogFn, GaussianBlockPair
from subgauss.gausslin import SpecError

GOLDEN = Path(__file__).resolve().parent / "golden" / "e7_quadrature.json"

E7_CATALOG = [
    CatalogFn("exp", 0.7),
    CatalogFn("exp", -0.4),
    CatalogFn("indicator", 1.0),
    CatalogFn("indicator", -0.5),
    CatalogFn("poly", (0.0, 1.0, 0.5)),
    CatalogFn("abs"),
]


@pytest.fixture(autouse=True)
def fresh_expansions():
    """Every test starts with no certified expansion kept, so a test that
    replaces gaussian_expectation sees the integrations it asks for, in any
    order of tests."""
    chaos._certified_expansion.cache_clear()
    yield
    chaos._certified_expansion.cache_clear()


def scalar_reference(f, K):
    """c_k one at a time: scalar adaptive quad of f He_k / sqrt(k!) against
    the normal density, on the panels of gaussian_expectation's plain rule."""
    pts = sorted({-40.0, 40.0} | set(f.breakpoints()))
    coeffs = []
    for k in range(K + 1):
        he = np.zeros(k + 1)
        he[k] = 1.0

        def integrand(x):
            return (float(f(x)) * hermite_e.hermeval(x, he)
                    / math.sqrt(math.factorial(k))
                    * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))

        coeffs.append(sum(
            integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12,
                           limit=200)[0]
            for a, b in zip(pts[:-1], pts[1:])))
    return np.array(coeffs)


class TestHermiteExpand:
    def test_exp_coefficients(self):
        # E[e^{tZ} He_k(Z)]/sqrt(k!) = e^{t^2/2} t^k / sqrt(k!)
        t = 0.8
        e = chaos.hermite_expand(CatalogFn("exp", t), 8)
        want = [
            math.exp(t**2 / 2) * t**k / math.sqrt(math.factorial(k))
            for k in range(9)
        ]
        np.testing.assert_allclose(e.coeffs, want, atol=1e-10)

    def test_indicator_coefficients(self):
        # c_0 = P(Z > c); c_1 = phi(c); c_2 = c phi(c)/sqrt(2)
        c = 1.3
        e = chaos.hermite_expand(CatalogFn("indicator", c), 4)
        phi = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(
            e.coeffs[:3], [1 - ndtr(c), phi, c * phi / math.sqrt(2)], atol=1e-10
        )

    def test_abs_coefficients(self):
        e = chaos.hermite_expand(CatalogFn("abs"), 6)
        np.testing.assert_allclose(e.coeffs[0], math.sqrt(2 / math.pi), atol=1e-10)
        np.testing.assert_allclose(e.coeffs[1::2], 0.0, atol=1e-10)
        # c_2 = E[|Z|(Z^2-1)]/sqrt(2) = sqrt(2/pi)/sqrt(2)
        np.testing.assert_allclose(
            e.coeffs[2], math.sqrt(2 / math.pi) / math.sqrt(2), atol=1e-10
        )

    def test_poly_is_exact_and_finite(self):
        # x^2 = He_2 + 1: coefficients (1, 0, sqrt(2), 0, ...)
        e = chaos.hermite_expand(CatalogFn("poly", (0.0, 0.0, 1.0)), 6)
        np.testing.assert_allclose(
            e.coeffs, [1, 0, math.sqrt(2), 0, 0, 0, 0], atol=1e-10
        )

    def test_parseval(self):
        f = CatalogFn("exp", 0.6)
        e = chaos.hermite_expand(f, 40)
        second_moment, _ = chaos.gaussian_expectation(lambda x: f(x) ** 2)
        np.testing.assert_allclose(e.l2_norm() ** 2, second_moment, atol=1e-9)

    @pytest.mark.parametrize("f", E7_CATALOG[:4],
                             ids=lambda f: f"{f.kind}{f.param}")
    def test_closed_forms_at_k40(self, f):
        # exp: c_k = e^{t^2/2} t^k / sqrt(k!); indicator 1{x > c}:
        # c_0 = P(Z > c), c_k = phi(c) h_{k-1}(c) / sqrt(k)
        K, t = 40, f.param[0]
        k = np.arange(K + 1)
        fact = np.array([math.factorial(j) for j in k], dtype=float)
        if f.kind == "exp":
            want = math.exp(t * t / 2) * t**k / np.sqrt(fact)
        else:
            h = hermite_e.hermevander(np.array([t]), K - 1)[0] / np.sqrt(fact[:K])
            phi = math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
            want = np.concatenate([[ndtr(-t)], phi * h / np.sqrt(k[1:])])
        got = chaos.hermite_expand(f, K).coeffs
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_integrand_runs_once_per_panel_set(self, monkeypatch):
        # one expansion is one adaptive loop over both rules: a handful of
        # batched calls over all active panels, not one call per node, and
        # the first call holds the 21 nodes of every panel of both rules
        loops, sizes = [], []
        joint = chaos.gaussian_expectation

        def counting(fn, breakpoints=()):
            loops.append(breakpoints)

            def wrapped(x):
                sizes.append(np.size(x))
                return fn(x)
            return joint(wrapped, breakpoints)

        monkeypatch.setattr(chaos, "gaussian_expectation", counting)
        chaos.hermite_expand(CatalogFn("abs"), 40)
        # plain panels split at 0; refined ones also at -3, -1, 1, 3
        assert loops == [(0.0,)]
        assert sizes[0] == 21 * (2 + 6)
        # each rule takes 6 rounds, which took 12 calls when each rule ran
        # its own loop; one loop takes as many rounds as the slower rule
        assert len(sizes) == 6
        assert all(n % 21 == 0 for n in sizes) and sum(sizes) > 1000

    def test_scalar_and_vector_integrands(self):
        # one value per rule: (plain, refined)
        got = chaos.gaussian_expectation(lambda x: x * x)
        assert len(got) == 2 and all(isinstance(v, float) for v in got)
        np.testing.assert_allclose(got, [1.0, 1.0], rtol=0, atol=1e-14)
        vec = chaos.gaussian_expectation(lambda x: np.stack([x, x * x, x**4], 1))
        assert len(vec) == 2 and all(v.shape == (3,) for v in vec)
        np.testing.assert_allclose(vec, [[0.0, 1.0, 3.0]] * 2, rtol=0,
                                   atol=1e-13)

    @pytest.mark.parametrize("c", [0.123, 1 / 3])
    def test_kink_inside_a_panel(self, c):
        # E|Z - c| = 2 phi(c) + c (2 Phi(c) - 1); no breakpoint at c, so
        # only adaptive subdivision to the full tolerance gets it
        phi = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        got = chaos.gaussian_expectation(lambda x: np.abs(x - c))
        np.testing.assert_allclose(got, [2 * phi + c * (2 * ndtr(c) - 1)] * 2,
                                   rtol=0, atol=1e-14)

    def test_panel_budget_exhausted_raises(self):
        with pytest.raises(SpecError, match="200 subintervals"):
            chaos.gaussian_expectation(lambda x: np.sin(1e4 * x))

    def test_non_finite_integrand_raises(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SpecError, match="non-finite"):
            chaos.gaussian_expectation(lambda x: np.exp(30.0 * x))

    def test_poly_breakpoints_are_real_roots(self):
        assert CatalogFn("poly", (0.0, 1.0, 0.5)).breakpoints() == (-2.0, 0.0)
        assert CatalogFn("poly", (2.0, -3.0, 1.0)).breakpoints() == (1.0, 2.0)
        assert CatalogFn("poly", (1.0, 0.0, 1.0)).breakpoints() == ()
        assert CatalogFn("poly", (1.0,)).breakpoints() == ()

    @pytest.mark.parametrize("f", E7_CATALOG,
                             ids=lambda f: f"{f.kind}{f.param}")
    def test_matches_scalar_reference(self, f):
        # one vector-valued pass gives every coefficient the scalar
        # per-coefficient quadrature gives
        got = chaos.hermite_expand(f, 12).coeffs
        np.testing.assert_allclose(got, scalar_reference(f, 12), rtol=0,
                                   atol=1e-14)

    def test_rule_disagreement_names_coefficient(self, monkeypatch):
        # the refined half of the pair is off on coefficient 3 only
        joint = chaos.gaussian_expectation

        def skewed(fn, breakpoints=()):
            plain, refined = joint(fn, breakpoints)
            refined = refined.copy()
            refined[3] += 1e-8
            return plain, refined

        monkeypatch.setattr(chaos, "gaussian_expectation", skewed)
        with pytest.raises(SpecError, match=r"coefficient 3 .*delta=1\.00e-08"):
            chaos.hermite_expand(CatalogFn("exp", 0.7), 6)

    @pytest.mark.parametrize("m", [0, 1, 3, 41], ids=lambda m: f"m={m}")
    def test_panel_sums_repeat_numpy_sums(self, m):
        # every per-panel reduction of the adaptive loop must equal the sum
        # numpy forms over that panel alone, bit for bit, or the loop would
        # stop or split panels differently from one rule at a time
        rng = np.random.default_rng(m)
        for _ in range(200):
            count = rng.integers(1, 201, rng.integers(1, 9))  # limit 200
            owner = np.repeat(np.arange(len(count)), count)
            start = np.cumsum(count) - count
            rank = np.arange(len(owner)) - start[owner]
            shape = (len(owner),) + ((m,) if m else ())
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-16, 3, shape)
            got = chaos._panel_sums(x, owner, rank, start, count.max())
            for p in range(len(count)):
                want = x[owner == p].sum(axis=0)
                assert np.array_equal(got[p], want), (m, count[p])

    def test_matches_golden(self):
        # the K=40 coefficients of E7's catalog, as recorded when each rule
        # ran its own adaptive loop; every value must be equal, not close
        golden = json.loads(GOLDEN.read_text())
        for entry in golden["coeffs"]:
            f = CatalogFn(entry["kind"], tuple(entry["param"]))
            got = chaos.hermite_expand(f, golden["K"]).coeffs.tolist()
            assert got == entry["coeffs"], f

    def test_rejects_plain_callables(self):
        with pytest.raises(SpecError):
            chaos.hermite_expand(lambda x: x, 4)

    def test_rejects_large_order(self):
        with pytest.raises(SpecError):
            chaos.hermite_expand(CatalogFn("abs"), 61)

    @pytest.mark.parametrize("K", [40.0, True], ids=repr)
    def test_rejects_an_order_that_is_not_an_int(self, K):
        # checked before the lookup: K=40 and K=1 are kept (40.0 == 40,
        # True == 1), and an equal key of another type must not return them
        chaos.hermite_expand(CatalogFn("exp", 0.7), 40)
        chaos.hermite_expand(CatalogFn("exp", 0.7), 1)
        with pytest.raises(SpecError, match="K must be an int"):
            chaos.hermite_expand(CatalogFn("exp", 0.7), K)

    def test_repeat_call_integrates_nothing(self, monkeypatch):
        # the second call for an equal (f, K) returns the kept expansion:
        # no integration, bit-equal coefficients that nobody can overwrite
        first = chaos.hermite_expand(CatalogFn("poly", (0.0, 1.0, 0.5)), 12)
        calls = []
        joint = chaos.gaussian_expectation

        def counting(fn, breakpoints=()):
            calls.append(breakpoints)
            return joint(fn, breakpoints)

        monkeypatch.setattr(chaos, "gaussian_expectation", counting)
        again = chaos.hermite_expand(CatalogFn("poly", [0, 1, 0.5]), 12)
        assert calls == []
        assert np.array_equal(again.coeffs, first.coeffs)
        assert not again.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            again.coeffs[0] = 0.0
        # another order is another expansion
        chaos.hermite_expand(CatalogFn("poly", (0.0, 1.0, 0.5)), 11)
        assert calls == [(-2.0, 0.0)]


class TestCatalogFn:
    @pytest.mark.parametrize("kind, param, field", [
        ("sin", (1.0,), "kind"),
        (["exp"], (1.0,), "kind"),
        ("exp", (), "param"),
        ("exp", (0.5, 1.0), "param"),
        ("indicator", (), "param"),
        ("abs", (1.0,), "param"),
        ("poly", (), "param"),
    ])
    def test_rejected_when_built(self, kind, param, field):
        with pytest.raises(SpecError, match=f"^{field}: "):
            CatalogFn(kind, param)

    def test_accepted_arities(self):
        assert CatalogFn("exp", 0.7).param == (0.7,)
        assert CatalogFn("indicator", [1]).param == (1.0,)
        assert CatalogFn("abs").param == ()
        assert CatalogFn("poly", (1, 2, 3)).param == (1.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def exp07():
    """The K=20 expansion of exp(0.7 x), computed once: the property tests
    that use it exercise the Mehler scaling, not the quadrature."""
    return chaos.hermite_expand(CatalogFn("exp", 0.7), 20)


class TestMehler:
    def test_identity_at_one(self):
        e = chaos.hermite_expand(CatalogFn("exp", 0.5), 10)
        np.testing.assert_array_equal(chaos.mehler_apply(e, 1.0).coeffs, e.coeffs)

    def test_exp_closed_form_variance(self):
        # Var(M_a e^{tZ}) = e^{t^2}(e^{a^2 t^2} - 1)
        t, a = 1.0, 0.5
        e = chaos.hermite_expand(CatalogFn("exp", t), 45)
        want = math.exp(t**2) * (math.exp(a**2 * t**2) - 1)
        np.testing.assert_allclose(chaos.mehler_variance(e, a), want, rtol=1e-10)

    def test_rejects_a_above_one(self):
        e = chaos.hermite_expand(CatalogFn("abs"), 4)
        with pytest.raises(SpecError):
            chaos.mehler_apply(e, 1.2)

    @pytest.mark.parametrize("op", [chaos.mehler_apply, chaos.mehler_variance],
                             ids=lambda op: op.__name__)
    def test_rejects_nan_a(self, op):
        e = chaos.hermite_expand(CatalogFn("abs"), 4)
        with pytest.raises(SpecError, match="nan"):
            op(e, float("nan"))

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_and_monotone_variance(self, exp07, a, b):
        e = exp07
        once = chaos.mehler_apply(chaos.mehler_apply(e, a), b)
        joint = chaos.mehler_apply(e, a * b)
        np.testing.assert_allclose(once.coeffs, joint.coeffs, atol=1e-12)
        if a <= b:
            assert chaos.mehler_variance(e, a) <= chaos.mehler_variance(e, b) + 1e-12


class TestHypercontractivity:
    @pytest.mark.parametrize(
        "f",
        [
            CatalogFn("exp", 0.7),
            CatalogFn("exp", -0.4),
            CatalogFn("indicator", 0.5),
            CatalogFn("poly", (0.0, 1.0, 0.3)),
            CatalogFn("abs"),
        ],
    )
    @pytest.mark.parametrize("a", [0.2, 0.6, 0.9])
    def test_bound_holds(self, f, a):
        lhs, rhs = chaos.hypercontractivity_check(f, a)
        assert lhs <= rhs + 1e-9

    def test_matches_golden(self):
        # (lhs, rhs) for the benchmark's 12 (f, a) pairs at seed 1, as
        # recorded when each rule ran its own adaptive loop
        golden = json.loads(GOLDEN.read_text())
        for entry in golden["hyper"]:
            f = CatalogFn(entry["kind"], tuple(entry["param"]))
            got = chaos.hypercontractivity_check(f, entry["a"], golden["K"])
            assert list(got) == entry["lhs_rhs"], (f, entry["a"])

    def test_one_expansion_serves_every_mehler_value(self, monkeypatch):
        # over E7's a grid, one expansion and one norm moment per a: 6
        # integrations, where expanding again for every a made 10
        calls = []
        joint = chaos.gaussian_expectation

        def counting(fn, breakpoints=()):
            calls.append(breakpoints)
            return joint(fn, breakpoints)

        monkeypatch.setattr(chaos, "gaussian_expectation", counting)
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            chaos.hypercontractivity_check(CatalogFn("indicator", 1.0), a, 8)
        assert calls == [(1.0,)] * 6

    def test_moment_disagreement_raises_with_delta(self, monkeypatch):
        # the refined rule is off on the norm moment only
        joint = chaos.gaussian_expectation

        def skewed(fn, breakpoints=()):
            plain, refined = joint(fn, breakpoints)
            return plain, refined + (1e-7 if np.ndim(refined) == 0 else 0.0)

        monkeypatch.setattr(chaos, "gaussian_expectation", skewed)
        with pytest.raises(SpecError,
                           match=r"norm quadrature .*delta=1\.00e-07"):
            chaos.hypercontractivity_check(CatalogFn("exp", 0.7), 0.5, 8)

    def test_exp_is_extremal(self):
        # exponential functions achieve equality
        lhs, rhs = chaos.hypercontractivity_check(CatalogFn("exp", 1.0), 0.5)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-7)


class TestJointTailBound:
    def test_hand_value(self):
        np.testing.assert_allclose(
            chaos.joint_tail_bound(0.01, 0.5), 0.01 ** (4.0 / 3.0)
        )

    def test_independence_squares(self):
        np.testing.assert_allclose(chaos.joint_tail_bound(0.2, 0.0), 0.04)

    def test_full_dependence_is_marginal(self):
        np.testing.assert_allclose(chaos.joint_tail_bound(0.2, 1.0), 0.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SpecError):
            chaos.joint_tail_bound(1.5, 0.5)
        with pytest.raises(SpecError):
            chaos.joint_tail_bound(0.1, -0.2)

    @given(
        fbar=st.floats(1e-8, 0.5),
        r1=st.floats(0.0, 0.99),
        r2=st.floats(0.0, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_rho(self, fbar, r1, r2):
        lo, hi = sorted([r1, r2])
        assert chaos.joint_tail_bound(fbar, lo) <= chaos.joint_tail_bound(
            fbar, hi
        ) * (1 + 1e-12)


class TestBvnJointTail:
    def test_independent_case(self):
        np.testing.assert_allclose(
            chaos.bvn_joint_tail(0.0, 2.0), (1 - ndtr(2.0)) ** 2, rtol=1e-10
        )

    def test_dominated_by_hyper_bound(self):
        for rho in (0.1, 0.5, 0.9):
            for x in (1.0, 2.0, 3.5):
                fbar = 1 - ndtr(x)
                assert chaos.bvn_joint_tail(rho, x) <= chaos.joint_tail_bound(
                    fbar, rho
                ) * (1 + 1e-9)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        rho, x, n = 0.6, 1.5, 2_000_000
        z1 = rng.normal(size=n)
        z2 = rho * z1 + math.sqrt(1 - rho**2) * rng.normal(size=n)
        emp = np.mean((z1 > x) & (z2 > x))
        assert abs(chaos.bvn_joint_tail(rho, x) - emp) < 4 * math.sqrt(emp / n)

    def test_rejects_unit_rho(self):
        with pytest.raises(SpecError):
            chaos.bvn_joint_tail(1.0, 2.0)

    @pytest.mark.parametrize("fbar", [1e-3, 0.05])
    def test_folded_joint_tail_independent_case(self, fbar):
        # independent columns: P(|X1| > x, |X2| > x) = fbar^2
        np.testing.assert_allclose(chaos.folded_joint_tail(0.0, fbar),
                                   fbar**2, rtol=1e-9)

    def test_folded_joint_tail_monte_carlo_agreement(self):
        rng = np.random.default_rng(12)
        rho, fbar, n = 0.5, 0.05, 2_000_000
        z1 = rng.normal(size=n)
        z2 = rho * z1 + math.sqrt(1 - rho**2) * rng.normal(size=n)
        x = -ndtri(fbar / 2)
        emp = np.mean((np.abs(z1) > x) & (np.abs(z2) > x))
        exact = chaos.folded_joint_tail(rho, fbar)
        assert exact > fbar**2  # positive dependence raises the joint tail
        assert abs(exact - emp) < 4 * math.sqrt(emp / n)


def _random_pair(rng, d1, d2):
    M = rng.normal(size=(d1 + d2, d1 + d2 + 2))
    C = M @ M.T / (d1 + d2 + 2)
    return GaussianBlockPair(C[:d1, :d1], C[d1:, d1:], C[:d1, d1:])


class TestCanonicalCorrelation:
    def test_scalar_case(self):
        pair = GaussianBlockPair(
            np.array([[4.0]]), np.array([[9.0]]), np.array([[3.0]])
        )
        np.testing.assert_allclose(chaos.canonical_correlation(pair), 0.5)

    def test_alternating_ascent_oracle(self):
        # closed-form coordinate ascent from random starts; SVD-free
        rng = np.random.default_rng(7)
        for _ in range(20):
            d1, d2 = rng.integers(1, 4, 2)
            pair = _random_pair(rng, d1, d2)
            c11, c22, c12 = pair.cov11, pair.cov22, pair.cov12
            best = 0.0
            for _ in range(4):
                v = rng.normal(size=d2)
                for _ in range(400):
                    u = np.linalg.solve(c11, c12 @ v)
                    u /= math.sqrt(u @ c11 @ u)
                    v = np.linalg.solve(c22, c12.T @ u)
                    v /= math.sqrt(v @ c22 @ v)
                best = max(best, abs(u @ c12 @ v))
            np.testing.assert_allclose(
                chaos.canonical_correlation(pair), best, atol=1e-10
            )

    def test_congruence_invariance(self):
        # invertible linear maps of either block leave the value unchanged
        rng = np.random.default_rng(3)
        pair = _random_pair(rng, 3, 2)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        mapped = GaussianBlockPair(
            A @ pair.cov11 @ A.T, pair.cov22, A @ pair.cov12
        )
        np.testing.assert_allclose(
            chaos.canonical_correlation(mapped),
            chaos.canonical_correlation(pair),
            atol=1e-9,
        )

    def test_singular_block_raises(self):
        pair = GaussianBlockPair(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(chaos.ConditioningError):
            chaos.canonical_correlation(pair)


class TestBlockCanonicalCorr:
    def test_iid_blocks_are_independent(self):
        t = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(d0=1, family=gausslin.Iid(), L=0)
        )
        g = chaos.block_canonical_corr(t, r=4, p_gap=4, m=0, h=1)
        assert g < 1e-10

    def test_decreasing_in_gap(self):
        spec = gausslin.LinearProcessSpec(
            d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)), L=500
        )
        t = gausslin.make_coeffs(spec)
        vals = [chaos.block_canonical_corr(t, r=5, p_gap=5, m=2, h=h) for h in (1, 3, 6)]
        assert vals[0] > vals[1] > vals[2]

    def test_zero_beyond_horizon_is_exact(self):
        # the truncated model has Gamma(h) = 0 past L, so separations past
        # the table are legal and give zero dependence
        t = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)), L=5
            )
        )
        assert chaos.block_canonical_corr(t, r=10, p_gap=10, m=0, h=2) < 1e-10

    def test_over_budget_raises(self):
        t = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)), L=50
            )
        )
        with pytest.raises(SpecError):
            chaos.block_canonical_corr(t, r=2500, p_gap=5, m=2, h=1)
