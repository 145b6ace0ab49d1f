"""Moving-maxima specs: closed-form limits, thresholds, and path builders."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from subgauss import gausslin, m4
from subgauss.gausslin import SpecError
from subgauss.m4 import IidPareto, M4Spec, SubGauss


def equal_spec(nlags=4, alpha=1.0):
    return M4Spec(
        d=1,
        alpha=alpha,
        lags=(0, nlags - 1),
        a=np.ones((nlags, 1, 1)),
        innovation=IidPareto(alpha=alpha),
    )


def bivariate_spec(extra_lag5=None):
    a = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])]
    lags = (0, 1)
    if extra_lag5 is not None:
        a += [np.zeros((2, 2))] * 3
        a.append(np.array([[extra_lag5, 0.0], [0.0, 0.0]]))
        lags = (0, 5)
    return M4Spec(
        d=2,
        alpha=1.0,
        lags=lags,
        a=np.array(a),
        innovation=IidPareto(alpha=1.0),
    )


def build_reference(W, spec, m_trunc=None):
    """The lag-by-lag formula build replaced: a reduction over j per (r, i)."""
    span = spec.r_hi - spec.r_lo
    n_out = W.n - span
    out = np.zeros((n_out, spec.d))
    for ri, r in enumerate(spec.lag_values()):
        if m_trunc is not None and abs(r) > m_trunc:
            continue
        off = spec.r_hi - r
        Wseg = W.values[off : off + n_out]
        for i in range(spec.d):
            np.maximum(out[:, i], np.max(Wseg * spec.a[ri, i][None, :], axis=1),
                       out=out[:, i])
    return out


def custom_subgauss_spec(d=2):
    rng = np.random.default_rng(8)
    table = np.abs(rng.normal(size=(4, d, d)))
    lin = gausslin.LinearProcessSpec(d0=d, family=gausslin.Custom(table), L=3)
    return M4Spec(
        d=d,
        alpha=1.5,
        lags=(0, 1),
        a=np.ones((2, d, d)),
        innovation=SubGauss(lin=lin, transform="pareto"),
    )


class TestSpecValidation:
    def test_zero_row_rejected(self):
        a = np.zeros((1, 2, 2))
        a[0, 0, 0] = 1.0  # second output row all zero
        with pytest.raises(SpecError):
            M4Spec(d=2, alpha=1.0, lags=(0, 0), a=a, innovation=IidPareto(1.0))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(SpecError):
            M4Spec(
                d=1,
                alpha=1.0,
                lags=(0, 0),
                a=-np.ones((1, 1, 1)),
                innovation=IidPareto(1.0),
            )

    def test_window_must_contain_zero(self):
        with pytest.raises(SpecError):
            M4Spec(
                d=1,
                alpha=1.0,
                lags=(2, 3),
                a=np.ones((2, 1, 1)),
                innovation=IidPareto(1.0),
            )

    def test_json_round_trip(self):
        spec = bivariate_spec(extra_lag5=0.05)
        back = M4Spec.from_json(spec.to_json())
        np.testing.assert_array_equal(back.a, spec.a)
        assert back.lags == spec.lags

    def test_json_round_trip_subgauss(self):
        lin = gausslin.LinearProcessSpec(
            d0=1, family=gausslin.LogBoundary(q=2.0, B=np.eye(1)), L=64
        )
        spec = M4Spec(
            d=1,
            alpha=1.0,
            lags=(0, 1),
            a=np.ones((2, 1, 1)),
            innovation=SubGauss(lin=lin, transform="pareto"),
        )
        back = M4Spec.from_json(spec.to_json())
        assert isinstance(back.innovation, SubGauss)
        assert back.innovation.transform == "pareto"

    def test_subgauss_dimension_mismatch_names_d0(self):
        lin = gausslin.LinearProcessSpec(d0=1, family=gausslin.Iid(), L=0)
        with pytest.raises(SpecError, match="d0"):
            M4Spec(
                d=2,
                alpha=1.0,
                lags=(0, 0),
                a=np.ones((1, 2, 2)),
                innovation=SubGauss(lin=lin),
            )


class TestClosedForms:
    def test_A_vec_equal(self):
        np.testing.assert_allclose(m4.A_vec(equal_spec()), [4.0])

    def test_A_vec_bivariate(self):
        np.testing.assert_allclose(m4.A_vec(bivariate_spec()), [2.0, 1.0])

    def test_G_limit_hand_values(self):
        # bivariate, tau=(1,1): per-lag max_i weights are (1/2 + 1) + 1/2
        np.testing.assert_allclose(
            m4.G_limit(bivariate_spec(), (1.0, 1.0)), np.exp(-2.0)
        )
        np.testing.assert_allclose(
            m4.G_limit(bivariate_spec(), (1.0, 0.5)), np.exp(-1.5)
        )
        np.testing.assert_allclose(m4.G_limit(equal_spec(), (1.0,)), np.exp(-1.0))

    def test_theta_hand_values(self):
        np.testing.assert_allclose(m4.theta(equal_spec(), (1.0,)), 0.25)
        np.testing.assert_allclose(m4.theta(bivariate_spec(), (1.0, 1.0)), 0.75)
        np.testing.assert_allclose(
            m4.theta(bivariate_spec(), (1.0, 0.5)), 2.0 / 3.0
        )

    def test_theta_2m_keeps_full_normalizer(self):
        # truncating the lag window must not change A_i
        spec = bivariate_spec(extra_lag5=0.05)
        want_m1 = (1 / 2.05 + 1.0) / (2 / 2.05 + 1.0)
        np.testing.assert_allclose(m4.theta_2m(spec, (1.0, 1.0), 1), want_m1)
        want_full = (1 / 2.05 + 1.0) / 2.0
        np.testing.assert_allclose(m4.theta_2m(spec, (1.0, 1.0), 5), want_full)
        np.testing.assert_allclose(m4.theta(spec, (1.0, 1.0)), want_full)

    def test_theta_2m_profile_monotone(self):
        spec = bivariate_spec(extra_lag5=0.05)
        prof = [m4.theta_2m(spec, (1.0, 1.0), mt) for mt in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))

    def test_tail_limit_is_minus_log_G(self):
        # two independent code paths must agree to 1e-12
        for spec, tau in [
            (equal_spec(), (0.7,)),
            (bivariate_spec(), (1.0, 0.5)),
            (bivariate_spec(extra_lag5=0.05), (0.3, 2.0)),
        ]:
            g = m4.G_limit(spec, tau)
            assert abs(-np.log(g) - m4.tail_limit(spec, tau)) <= 1e-12

    def test_G_bounds(self):
        # e^{-sum tau} <= G <= e^{-max tau}
        spec = bivariate_spec()
        for tau in [(1.0, 1.0), (0.2, 3.0)]:
            g = m4.G_limit(spec, tau)
            assert np.exp(-sum(tau)) - 1e-12 <= g <= np.exp(-max(tau)) + 1e-12

    def test_thresholds_hand_value(self):
        tv = m4.thresholds(equal_spec(), 1000, (1.0,))
        np.testing.assert_allclose(tv.u, [4000.0])
        tv2 = m4.thresholds(bivariate_spec(), 1000, (1.0, 0.5))
        np.testing.assert_allclose(tv2.u, [2000.0, 2000.0])


class TestBuildAndInnovations:
    def test_build_hand_check(self):
        # Y_k = max(W_k, W_{k-1}) for the 2-lag equal spec
        spec = equal_spec(nlags=2)
        W = gausslin.SeriesMatrix(
            values=np.array([[5.0], [1.0], [7.0], [2.0]]), meta={}
        )
        Y = m4.build(W, spec)
        np.testing.assert_allclose(Y.values[:, 0], [5.0, 7.0, 7.0])

    def test_build_monotone_in_truncation(self):
        # dropping lags can only lower a pointwise maximum
        spec = bivariate_spec(extra_lag5=0.05)
        W = m4.innovations(spec, 500, 3)
        full = m4.build(W, spec)
        trunc = m4.build(W, spec, m_trunc=1)
        assert full.n == trunc.n
        assert np.all(full.values >= trunc.values - 1e-12)

    @pytest.mark.parametrize("m_trunc", [None, 0, 2])
    def test_build_equals_reference(self, m_trunc):
        rng = np.random.default_rng(4)
        spec = M4Spec(
            d=3,
            alpha=1.0,
            lags=(-2, 3),
            a=rng.uniform(0.0, 1.0, size=(6, 3, 3)) * (rng.random((6, 3, 3)) > 0.3),
            innovation=IidPareto(alpha=1.0),
        )
        W = m4.innovations(spec, 2000, 6)
        got = m4.build(W, spec, m_trunc=m_trunc).values
        np.testing.assert_array_equal(got, build_reference(W, spec, m_trunc))

    def test_subgauss_custom_family(self):
        # a Custom table holds an ndarray: the spec is unhashable, and its
        # state is resolved on the instance
        spec = custom_subgauss_spec()
        inn = spec.innovation
        W = m4.innovations(spec, 300, 2).values
        X = gausslin.simulate(gausslin.make_coeffs(inn.lin), 300, 2).values
        sd = np.sqrt(np.diag(gausslin.autocov(inn.coeffs, 0)[0]))
        np.testing.assert_allclose(W, ndtr(-X / sd) ** (-1.0 / spec.alpha),
                                   rtol=1e-12)
        Y = m4.build(m4.innovations(spec, 301, 2), spec)
        assert Y.values.shape == (300, 2) and np.all(Y.values >= 1.0)
        back = M4Spec.from_json(spec.to_json())
        np.testing.assert_array_equal(back.innovation.coeffs.psi, inn.coeffs.psi)

    def test_iid_pareto_marginal(self):
        W = m4.innovations(equal_spec(), 200_000, 5)
        w = W.values[:, 0]
        assert w.min() >= 1.0
        np.testing.assert_allclose(np.mean(w > 10.0), 0.1, atol=0.004)

    def test_subgauss_marginal_is_pareto(self):
        lin = gausslin.LinearProcessSpec(
            d0=1, family=gausslin.LogBoundary(q=2.0, B=np.eye(1)), L=256
        )
        spec = M4Spec(
            d=1,
            alpha=1.0,
            lags=(0, 0),
            a=np.ones((1, 1, 1)),
            innovation=SubGauss(lin=lin, transform="pareto"),
        )
        w = m4.innovations(spec, 300_000, 9).values[:, 0]
        # exact Pareto(1) marginal after standardization
        for u in (2.0, 10.0, 50.0):
            np.testing.assert_allclose(
                np.mean(w > u), 1 / u, atol=4 * np.sqrt((1 / u) / len(w))
            )

    def test_innovations_reproducible(self):
        a = m4.innovations(equal_spec(), 100, 3).values
        b = m4.innovations(equal_spec(), 100, 3).values
        np.testing.assert_array_equal(a, b)

    def test_nonexceed_matches_limit(self):
        # P(M_n <= u_n(tau)) -> G(tau)^theta(tau)
        spec = equal_spec()
        n, tau, reps = 4000, (1.0,), 1500
        u = m4.thresholds(spec, n, tau)
        hits = 0
        for i in range(reps):
            W = m4.innovations(spec, n + 3, 1000 ^ i)
            Y = m4.build(W, spec)
            hits += np.all(Y.values <= u.u)
        want = m4.G_limit(spec, tau) ** m4.theta(spec, tau)
        assert abs(hits / reps - want) < 0.04


@given(
    scale=st.floats(0.1, 10.0),
    tau1=st.floats(0.1, 5.0),
    tau2=st.floats(0.1, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_theta_invariant_under_coefficient_scaling(scale, tau1, tau2):
    # rescaling every coefficient rescales A and cancels in theta and G
    base = bivariate_spec()
    scaled = M4Spec(
        d=2,
        alpha=1.0,
        lags=base.lags,
        a=scale * base.a,
        innovation=base.innovation,
    )
    tau = (tau1, tau2)
    np.testing.assert_allclose(
        m4.theta(scaled, tau), m4.theta(base, tau), rtol=1e-10
    )
    np.testing.assert_allclose(
        m4.G_limit(scaled, tau), m4.G_limit(base, tau), rtol=1e-10
    )
