"""Coefficient families, autocovariances, decay checks, and simulation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import gausslin
from subgauss.gausslin import (
    CoeffTable,
    Custom,
    Iid,
    LinearProcessSpec,
    LogBoundary,
    Polynomial,
    SpecError,
    make_coeffs,
)


def poly_spec(beta=1.0, L=3, d0=1, b=1.0):
    return LinearProcessSpec(
        d0=d0, family=Polynomial(beta=beta, B=b * np.eye(d0)), L=L
    )


def random_custom(d0, L, seed):
    """A table with asymmetric Gamma(h): psi drawn i.i.d. normal."""
    psi = np.random.default_rng(seed).normal(size=(L + 1, d0, d0))
    return make_coeffs(LinearProcessSpec(d0=d0, family=Custom(psi), L=L))


def dense_cov(table, times):
    """Covariance of (X_t for t in times), stacked, from the moving-average
    form X_t = sum_l Psi_l eps_{t-l}: one row block per t over the
    innovations eps_s, s = min(times)-L..max(times)."""
    L, d0 = table.L, table.d0
    first = min(times) - L
    A = np.zeros((len(times) * d0, (max(times) - first + 1) * d0))
    for row, t in enumerate(times):
        for l in range(L + 1):
            col = (t - l - first) * d0
            A[row * d0 : (row + 1) * d0, col : col + d0] = table.psi[l]
    return A @ A.T


class TestMakeCoeffs:
    def test_polynomial_values(self):
        # psi_l = B (l+1)^(-beta)
        t = make_coeffs(poly_spec(beta=1.0, L=3))
        np.testing.assert_allclose(t.psi.ravel(), [1, 1 / 2, 1 / 3, 1 / 4])

    def test_log_boundary_values(self):
        t = make_coeffs(
            LinearProcessSpec(d0=1, family=LogBoundary(q=2.0, B=np.eye(1)), L=6)
        )
        psi = t.psi.ravel()
        assert psi[0] == 1.0
        np.testing.assert_allclose(psi[1:4], 0.0)
        # l^(-1/2) (log l)^(-q) at l=4
        np.testing.assert_allclose(psi[4], 4**-0.5 * np.log(4.0) ** -2.0)
        np.testing.assert_allclose(psi[5], 5**-0.5 * np.log(5.0) ** -2.0)
        assert abs(psi[4] - 0.2601706) < 1e-6

    def test_iid_is_identity_only(self):
        t = make_coeffs(LinearProcessSpec(d0=2, family=Iid(), L=0))
        np.testing.assert_allclose(t.psi, np.eye(2)[None])

    def test_custom_passthrough(self):
        table = (((1.0,),), ((0.5,),))
        t = make_coeffs(LinearProcessSpec(d0=1, family=Custom(table), L=1))
        np.testing.assert_allclose(t.psi.ravel(), [1.0, 0.5])

    @pytest.mark.parametrize("beta", [0.5, 0.2, -1.0])
    def test_rejects_beta_at_or_below_half(self, beta):
        with pytest.raises(SpecError):
            make_coeffs(poly_spec(beta=beta))

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_rejects_q_at_or_below_one(self, q):
        with pytest.raises(SpecError):
            make_coeffs(
                LinearProcessSpec(d0=1, family=LogBoundary(q=q, B=np.eye(1)), L=8)
            )

    def test_rejects_zero_scale(self):
        with pytest.raises(SpecError):
            make_coeffs(
                LinearProcessSpec(
                    d0=1, family=Polynomial(beta=1.0, B=np.zeros((1, 1))), L=3
                )
            )

    def test_from_json_parses_a_literal_object(self):
        t = make_coeffs(poly_spec(beta=0.8, L=16, d0=2, b=0.7))
        t2 = CoeffTable.from_json(json.dumps({
            "d0": 2, "family": "polynomial",
            "params": {"beta": 0.8, "B": [[0.7, 0.0], [0.0, 0.7]]}, "L": 16}))
        assert (t2.d0, t2.L, t2.spec.family.beta) == (2, 16, 0.8)
        np.testing.assert_array_equal(t2.psi, t.psi)


class TestAutocov:
    def test_hand_value_polynomial(self):
        # psi = (1, 1/2, 1/3): Gamma(1) = 1*(1/2) + (1/2)*(1/3) = 2/3
        t = make_coeffs(poly_spec(beta=1.0, L=2))
        g, tail = gausslin.autocov(t, 1)
        np.testing.assert_allclose(g, [[2.0 / 3.0]])
        assert tail >= 0.0

    def test_gamma_zero_is_sum_of_squares(self):
        t = make_coeffs(poly_spec(beta=1.0, L=50))
        g, _ = gausslin.autocov(t, 0)
        np.testing.assert_allclose(g[0, 0], np.sum(t.psi.ravel() ** 2))

    def test_tail_bound_dominates_truncation_error(self):
        # the analytic bound must dominate the actual tail left out
        short = make_coeffs(poly_spec(beta=1.0, L=100))
        long = make_coeffs(poly_spec(beta=1.0, L=20_000))
        g_s, bound = gausslin.autocov(short, 2)
        g_l, _ = gausslin.autocov(long, 2)
        err = abs(g_l[0, 0] - g_s[0, 0])
        assert err <= bound

    def test_all_lags_matches_single_lag(self):
        poly = make_coeffs(poly_spec(beta=0.8, L=64, d0=2, b=0.9))
        asym = random_custom(d0=3, L=20, seed=5)
        for t, hmax in ((poly, 9), (asym, 13), (poly, poly.L)):
            gam = gausslin.autocov_all(t, hmax)
            assert gam.shape == (hmax + 1, t.d0, t.d0)
            for h in range(hmax + 1):
                g, _ = gausslin.autocov(t, h)
                np.testing.assert_allclose(gam[h], g, rtol=0, atol=1e-12)

    def test_asymmetric_matrix_orientation(self):
        # Gamma(h)_{ik} = sum_l psi_{i., l} . psi_{k., l+h} -- the transpose
        # of it is not equal to itself for an asymmetric coefficient table
        psi0 = np.array([[1.0, 0.0], [0.4, 1.0]])
        psi1 = np.array([[0.3, 0.2], [0.0, 0.5]])
        t = make_coeffs(
            LinearProcessSpec(
                d0=2,
                family=Custom((tuple(map(tuple, psi0)), tuple(map(tuple, psi1)))),
                L=1,
            )
        )
        want = psi0 @ psi1.T
        g, _ = gausslin.autocov(t, 1)
        np.testing.assert_allclose(g, want, atol=1e-14)
        np.testing.assert_allclose(gausslin.autocov_all(t, 1)[1], want, atol=1e-14)


class TestLagProducts:
    # (have+1) * p <= DIRECT_PER_LOG2 * log2(N) sums directly: each pair of
    # cases at one (T, p) sits on either side of that boundary
    @pytest.mark.parametrize("T, p, q, hmax, method", [
        pytest.param(1, 2, 3, 0, "fft", id="1-0"),
        pytest.param(1, 2, 3, 3, "fft", id="1-3"),
        pytest.param(7, 2, 3, 4, "direct", id="7-4"),
        pytest.param(7, 2, 3, 6, "direct", id="7-6"),
        pytest.param(7, 2, 3, 20, "direct", id="7-20"),
        pytest.param(200, 2, 3, 22, "direct", id="200-p2-22-direct"),
        pytest.param(200, 2, 3, 23, "fft", id="200-p2-23-fft"),
        pytest.param(300, 1, 2, 49, "direct", id="300-p1-49-direct"),
        pytest.param(300, 1, 2, 50, "fft", id="300-p1-50-fft"),
        pytest.param(1000, 3, 2, 19, "direct", id="1000-p3-19-direct"),
        pytest.param(1000, 3, 2, 20, "fft", id="1000-p3-20-fft"),
        pytest.param(40, 3, 2, 60, "fft", id="40-p3-60-fft"),
    ])
    def test_matches_direct_sum(self, monkeypatch, T, p, q, hmax, method):
        # sum_l x_l x_{l+h}' over a (T, p, q) array; no pairs past T-1
        ffts = []
        rfft = gausslin.fft.rfft
        monkeypatch.setattr(gausslin.fft, "rfft", lambda *a, **k: (
            ffts.append(1) or rfft(*a, **k)))
        x = np.random.default_rng(T + hmax).normal(size=(T, p, q))
        got = gausslin.lag_products(x, hmax)
        assert ("fft" if ffts else "direct") == method
        assert got.shape == (hmax + 1, p, p)
        for h in range(min(hmax, T - 1) + 1):
            want = sum((x[l] @ x[l + h].T for l in range(T - h)),
                       np.zeros((p, p)))
            # rounding grows with the T*q terms of each sum
            np.testing.assert_allclose(got[h], want, rtol=0,
                                       atol=1e-14 * T * q)
        assert np.all(got[T:] == 0.0)


class TestBlockCov:
    @pytest.mark.parametrize("shift", [0, 1, 3, 12])
    def test_matches_moving_average_reference(self, shift):
        # blocks of 7 > L+1 = 5 times, so Gamma(h) past L enters; shift 12
        # puts the two blocks farther apart than L
        t = random_custom(d0=2, L=4, seed=3)
        blocklen = 7
        times = list(range(blocklen)) + list(range(shift, shift + blocklen))
        ref = dense_cov(t, times)
        k = blocklen * t.d0
        np.testing.assert_allclose(gausslin.block_cov(t, blocklen), ref[:k, :k],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(gausslin.block_cov(t, blocklen, shift),
                                   ref[:k, k:], rtol=0, atol=1e-12)

    def test_min_eig_past_the_table(self):
        t = random_custom(d0=2, L=4, seed=3)
        want = np.linalg.eigvalsh(dense_cov(t, list(range(9))))[0]
        np.testing.assert_allclose(gausslin.block_toeplitz_min_eig(t, 9), want,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("blocklen, shift", [(0, 0), (-3, 0), (2, -1)])
    def test_rejects_bad_geometry(self, blocklen, shift):
        t = random_custom(d0=2, L=4, seed=3)
        with pytest.raises(SpecError):
            gausslin.block_cov(t, blocklen, shift)


class TestDecayAndRank:
    def test_polynomial_tail_decreasing(self):
        rep = gausslin.check_decay(make_coeffs(poly_spec(beta=1.0, L=500)))
        assert rep.tail_decreasing

    def test_boundary_family_not_decreasing(self):
        # at the exact l^(-1/2) log^(-1) boundary the profile stalls
        bad = make_coeffs(
            LinearProcessSpec(d0=1, family=LogBoundary(q=1.01, B=np.eye(1)), L=500)
        )
        good = make_coeffs(
            LinearProcessSpec(d0=1, family=LogBoundary(q=3.0, B=np.eye(1)), L=500)
        )
        bad_rep = gausslin.check_decay(bad)
        good_rep = gausslin.check_decay(good)
        assert good_rep.s[-1] < bad_rep.s[-1]

    @staticmethod
    def bumped(L, lag):
        """A beta = 1 polynomial table, whose profile falls from lag 8 on,
        with Psi_lag doubled: the profile rises into lag `lag`."""
        psi = make_coeffs(poly_spec(beta=1.0, L=L)).psi.copy()
        psi[lag] *= 2.0
        return make_coeffs(LinearProcessSpec(d0=1, family=Custom(psi), L=L))

    @pytest.mark.parametrize("L", [100, 101])
    def test_profile_covers_the_judged_half(self, L):
        # lags 2 + (L-1)//2 .. L: a rise into the first of them lies outside
        # the judged diffs, a rise into the next flips the flag
        first = 2 + (L - 1) // 2
        assert gausslin.check_decay(make_coeffs(poly_spec(L=L))).tail_decreasing
        for lag, flag in ((20, True), (first - 1, True), (first, True),
                          (first + 1, False), (L - 10, False), (L, False)):
            rep = gausslin.check_decay(self.bumped(L, lag))
            assert rep.tail_decreasing is flag, lag
            np.testing.assert_array_equal(rep.lags, np.arange(first, L + 1))
            assert rep.s.shape == rep.lags.shape

    @pytest.mark.parametrize("L", [8, 9, 100, 101])
    def test_flag_matches_the_full_profile(self, L):
        # the flag of the profile over all lags 2..L, judged on its second
        # half, for a rise into every lag
        for lag in range(1, L + 1):
            table = self.bumped(L, lag)
            lags = np.arange(2, L + 1)
            full = (np.max(np.abs(table.psi[2:]), axis=(1, 2))
                    * np.sqrt(lags) * np.log(lags))
            tail = full[len(full) // 2:]
            rep = gausslin.check_decay(table)
            np.testing.assert_array_equal(rep.s, tail)
            assert rep.tail_decreasing == bool(
                np.all(np.diff(tail) <= gausslin.DECAY_TOL))

    def test_berman_profile_shape(self):
        t = make_coeffs(poly_spec(beta=1.0, L=2000))
        prof = gausslin.berman_profile(t, 100)
        assert len(prof) == 99  # h = 2..100
        g2, _ = gausslin.autocov(t, 2)
        np.testing.assert_allclose(prof[0], abs(g2[0, 0]) * np.log(2.0))

    @pytest.mark.parametrize("hmax", [-1, 0, 1, 2001])
    def test_berman_profile_rejects_hmax(self, hmax):
        t = make_coeffs(poly_spec(beta=1.0, L=2000))
        with pytest.raises(SpecError, match="hmax"):
            gausslin.berman_profile(t, hmax)

    def test_block_toeplitz_two_blocks(self):
        # 2x2 Toeplitz [[g0, g1], [g1, g0]]: min eig = g0 - |g1|
        t = make_coeffs(poly_spec(beta=1.0, L=2))
        g0 = gausslin.autocov(t, 0)[0][0, 0]
        g1 = gausslin.autocov(t, 1)[0][0, 0]
        lam = gausslin.block_toeplitz_min_eig(t, 2)
        np.testing.assert_allclose(lam, g0 - abs(g1), atol=1e-12)

    def test_full_rank_check_iid(self):
        t = make_coeffs(LinearProcessSpec(d0=2, family=Iid(), L=0))
        assert gausslin.full_rank_check(t)

    def test_budget_guard(self):
        t = make_coeffs(poly_spec(beta=1.0, L=4))
        with pytest.raises(SpecError):
            gausslin.block_toeplitz_min_eig(t, 5000)


class TestSimulate:
    def test_reproducible(self):
        t = make_coeffs(poly_spec(beta=1.0, L=30))
        a = gausslin.simulate(t, 200, 17)
        b = gausslin.simulate(t, 200, 17)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_path(self):
        t = make_coeffs(poly_spec(beta=1.0, L=30))
        a = gausslin.simulate(t, 200, 17)
        b = gausslin.simulate(t, 200, 18)
        assert not np.array_equal(a.values, b.values)

    def test_marginal_variance(self):
        t = make_coeffs(poly_spec(beta=1.0, L=200))
        g0 = gausslin.autocov(t, 0)[0][0, 0]
        X = gausslin.simulate(t, 200_000, 3)
        assert abs(np.var(X.values) - g0) < 0.05 * g0

    def test_empirical_autocovariance(self):
        t = make_coeffs(poly_spec(beta=1.0, L=100))
        g1 = gausslin.autocov(t, 1)[0][0, 0]
        x = gausslin.simulate(t, 400_000, 5).values[:, 0]
        emp = np.mean(x[1:] * x[:-1])
        assert abs(emp - g1) < 0.03

    def test_cross_dependence_from_mixing_matrix(self):
        psi0 = np.array([[1.0, 0.0], [0.8, 0.6]])
        t = make_coeffs(
            LinearProcessSpec(d0=2, family=Custom((tuple(map(tuple, psi0)),)), L=0)
        )
        X = gausslin.simulate(t, 300_000, 9).values
        emp = np.mean(X[:, 0] * X[:, 1])
        np.testing.assert_allclose(emp, 0.8, atol=0.02)

    @pytest.mark.parametrize("d0", [1, 2])
    @pytest.mark.parametrize("L", [0, 1, 37])
    @pytest.mark.parametrize("n_vs_L", ["short", "long"])
    def test_matches_time_domain_reference(self, d0, L, n_vs_L):
        # X_k = sum_l Psi_l eps_{k+L-l} over the same innovation draws,
        # by direct convolution
        n = max(1, L // 3) if n_vs_L == "short" else 2 * L + 5
        seed = 11
        psi = np.random.default_rng(L + 10 * d0).normal(size=(L + 1, d0, d0))
        t = make_coeffs(LinearProcessSpec(d0=d0, family=Custom(psi), L=L))
        rng = np.random.Generator(np.random.Philox(key=seed))
        eps = rng.standard_normal((n + L, d0))
        want = np.zeros((n, d0))
        for i in range(d0):
            for j in range(d0):
                want[:, i] += np.convolve(eps[:, j], psi[:, i, j])[L : L + n]
        got = gausslin.simulate(t, n, seed).values
        assert got.shape == (n, d0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_transform_cache_keyed_by_length(self):
        # paths of two lengths on one table equal those on fresh tables
        spec = poly_spec(beta=0.8, L=37, d0=2, b=0.7)
        shared = make_coeffs(spec)
        first = [gausslin.simulate(shared, n, 4).values for n in (20, 500, 20)]
        for n, got in zip((20, 500, 20), first):
            fresh = gausslin.simulate(make_coeffs(spec), n, 4).values
            np.testing.assert_array_equal(got, fresh)


@given(
    beta=st.floats(0.6, 3.0),
    L=st.integers(8, 128),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gamma_zero_psd_and_symmetric(beta, L, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(2, 2))
    if np.allclose(B, 0):
        B = np.eye(2)
    t = make_coeffs(
        LinearProcessSpec(d0=2, family=Polynomial(beta=beta, B=np.abs(B)), L=L)
    )
    g0, _ = gausslin.autocov(t, 0)
    np.testing.assert_allclose(g0, g0.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(g0)) >= -1e-10


@given(h=st.integers(0, 20), L=st.integers(20, 200))
@settings(max_examples=25, deadline=None)
def test_cauchy_schwarz_across_lags(h, L):
    t = make_coeffs(poly_spec(beta=0.75, L=L))
    g0 = gausslin.autocov(t, 0)[0][0, 0]
    gh = gausslin.autocov(t, h)[0][0, 0]
    assert abs(gh) <= g0 + 1e-12
