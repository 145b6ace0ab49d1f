"""Moving-maxima specs: closed-form limits, thresholds, and path builders."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from subgauss import evt, gausslin, harness, m4
from subgauss.gausslin import SpecError
from subgauss.m4 import IidPareto, M4Spec, SubGauss

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        innovation=SubGauss(gausslin.make_coeffs(lin), transform="pareto"),
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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(SpecError, match="finite.*field: a"):
            M4Spec(d=1, alpha=1.0, lags=(0, 1), a=np.array([[[1.0]], [[bad]]]),
                   innovation=IidPareto(1.0))

    def test_window_must_contain_zero(self):
        with pytest.raises(SpecError):
            M4Spec(
                d=1,
                alpha=1.0,
                lags=(2, 3),
                a=np.ones((2, 1, 1)),
                innovation=IidPareto(1.0),
            )

    def test_from_json_parses_a_literal_object(self):
        spec = bivariate_spec(extra_lag5=0.05)
        back = M4Spec.from_json(json.dumps({
            "d": 2, "alpha": 1.0, "lags": [0, 5], "a": spec.a.tolist(),
            "innovation": {"kind": "iid_pareto", "alpha": 1.0}}))
        np.testing.assert_array_equal(back.a, spec.a)
        assert (back.d, back.alpha, back.lags) == (2, 1.0, (0, 5))
        assert back.innovation == IidPareto(alpha=1.0)

    def test_from_json_parses_a_subgauss_innovation(self):
        back = M4Spec.from_json(json.dumps({
            "d": 1, "alpha": 1.0, "lags": [0, 1], "a": [[[1.0]], [[1.0]]],
            "innovation": {"kind": "subgauss", "transform": "folded_pareto",
                           "lin": {"d0": 1, "family": "log_boundary",
                                   "params": {"q": 2.0, "B": [[1.0]]},
                                   "L": 64}}}))
        assert isinstance(back.innovation, SubGauss)
        assert back.innovation.transform == "folded_pareto"
        assert back.innovation.table.spec == gausslin.LinearProcessSpec(
            d0=1, family=gausslin.LogBoundary(q=2.0, B=((1.0,),)), L=64)

    def test_subgauss_dimension_mismatch_names_d0(self):
        lin = gausslin.LinearProcessSpec(d0=1, family=gausslin.Iid(), L=0)
        with pytest.raises(SpecError, match="d0"):
            M4Spec(
                d=2,
                alpha=1.0,
                lags=(0, 0),
                a=np.ones((1, 2, 2)),
                innovation=SubGauss(gausslin.make_coeffs(lin)),
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

    def test_theta_2m_m_trunc_negative_names_field(self):
        with pytest.raises(SpecError, match="field: m_trunc"):
            m4.theta_2m(bivariate_spec(), (1.0, 1.0), -1)

    def test_tail_limit_is_minus_log_G(self):
        # the limit of n * P(Y_0 not <= u_n(tau)), written with explicit
        # loops, apart from G_limit's vectorized code; the two must agree to
        # 1e-12
        def tail_limit(spec, tau):
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
                        term = (float(spec.a[ri, i, j]) ** spec.alpha
                                * tau[i] / A[i])
                        best = max(best, term)
                    total += best
            return total

        for spec, tau in [
            (equal_spec(), (0.7,)),
            (bivariate_spec(), (1.0, 0.5)),
            (bivariate_spec(extra_lag5=0.05), (0.3, 2.0)),
        ]:
            g = m4.G_limit(spec, tau)
            assert abs(-np.log(g) - tail_limit(spec, tau)) <= 1e-12

    @pytest.mark.parametrize("spec, tau, want", [
        pytest.param(equal_spec(), (1.0,), [1.0, 0.25, 0.25, 0.25], id="e2"),
        pytest.param(bivariate_spec(extra_lag5=0.05), (1.0, 1.0),
                     [1.0] + [(1.05 / 2.05 + 1.0) / 2.0] * 3
                     + [(1 / 2.05 + 1.0) / 2.0] * 3, id="e4"),
    ])
    def test_runs_limit_hand_values(self, spec, tau, want):
        # E2's spec: four equal lags, so any m >= 1 sees the whole cluster;
        # E4's: a lag-5 coefficient 0.05 that only a run of m >= 4 joins to
        # the cluster of lags 0 and 1
        got = [m4.runs_limit(spec, tau, m) for m in range(len(want))]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert got[-1] == pytest.approx(m4.theta(spec, tau), abs=1e-15)

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
        W = gausslin.SeriesMatrix(values=np.array([[5.0], [1.0], [7.0], [2.0]]))
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
        # one contiguous column per output component
        assert got.flags.f_contiguous

    def test_subgauss_custom_family(self):
        # a Custom table holds an ndarray: the spec is unhashable, and its
        # state is resolved on the instance
        spec = custom_subgauss_spec()
        inn = spec.innovation
        W = m4.innovations(spec, 300, 2).values
        X = gausslin.simulate(inn.table, 300, 2).values
        sd = np.sqrt(np.diag(gausslin.autocov(inn.table, 0)[0]))
        np.testing.assert_allclose(W, ndtr(-X / sd) ** (-1.0 / spec.alpha),
                                   rtol=1e-12)
        Y = m4.build(m4.innovations(spec, 301, 2), spec)
        assert Y.values.shape == (300, 2) and np.all(Y.values >= 1.0)
        back = M4Spec.from_json(json.dumps({
            "d": 2, "alpha": 1.5, "lags": [0, 1], "a": spec.a.tolist(),
            "innovation": {"kind": "subgauss", "lin": {
                "d0": 2, "family": "custom",
                "params": {"table": inn.table.psi.tolist()}, "L": 3}}}))
        np.testing.assert_array_equal(back.innovation.table.psi, inn.table.psi)

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
            innovation=SubGauss(gausslin.make_coeffs(lin), transform="pareto"),
        )
        w = m4.innovations(spec, 300_000, 9).values[:, 0]
        # exact Pareto(1) marginal after standardization
        for u in (2.0, 10.0, 50.0):
            np.testing.assert_allclose(
                np.mean(w > u), 1 / u, atol=4 * np.sqrt((1 / u) / len(w))
            )

    def test_path_is_a_draw_of_the_innovations(self):
        # full and truncated draws of a seed share its base draw, which
        # lifts to the seed's innovations, and the draw's rows are those of
        # the path they build
        spec = bivariate_spec(extra_lag5=0.05)
        full, trunc = m4.path(spec, 400, 3), m4.path(spec, 400, 3, m_trunc=1)
        W = m4.innovations(spec, 405, 3)
        np.testing.assert_array_equal(m4.lift(spec, full.V), W.values)
        np.testing.assert_array_equal(trunc.V, full.V)
        assert (full.n, full.m_trunc, trunc.m_trunc) == (400, None, 1)
        assert m4.build(W, spec).n == 400

    def test_innovations_reproducible(self):
        a = m4.innovations(equal_spec(), 100, 3).values
        b = m4.innovations(equal_spec(), 100, 3).values
        np.testing.assert_array_equal(a, b)

    def test_nonexceed_matches_limit(self):
        # P(M_n <= u_n(tau)) -> G(tau)^theta(tau)
        spec = equal_spec()
        tau = (1.0,)
        cfg = harness.ExperimentConfig(
            name="equal", generator={"kind": "m4", "spec": {
                "d": 1, "alpha": 1.0, "lags": [0, 3], "a": spec.a.tolist(),
                "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
            n=4000, tau=tau, reps=1500, base_seed=1000,
            analyses=({"type": "nonexceed"},),
        )
        p_hat = harness.run(cfg)["analyses"]["0:nonexceed"]["p_hat"]
        want = m4.G_limit(spec, tau) ** m4.theta(spec, tau)
        assert abs(p_hat - want) < 0.04


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


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_runs_limit_falls_from_one_to_theta(data):
    # theta(0) = 1, theta(m) is nonincreasing in m, and a run that covers
    # the lag window counts one exceedance per cluster: theta(span) = theta
    d = data.draw(st.integers(1, 3), label="d")
    r_lo = data.draw(st.integers(-2, 0), label="r_lo")
    r_hi = data.draw(st.integers(0, 3), label="r_hi")
    coef = st.sampled_from([0.0, 0.05, 0.5]) | st.floats(0.0, 3.0)
    a = np.array(data.draw(st.lists(coef, min_size=(r_hi - r_lo + 1) * d * d,
                                    max_size=(r_hi - r_lo + 1) * d * d),
                           label="a")).reshape(r_hi - r_lo + 1, d, d)
    a[0, :, 0] += 0.1  # every output component needs a positive coefficient
    alpha = data.draw(st.floats(0.5, 3.0), label="alpha")
    spec = M4Spec(d=d, alpha=alpha, lags=(r_lo, r_hi), a=a,
                  innovation=IidPareto(alpha))
    tau = data.draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d),
                    label="tau")
    span = r_hi - r_lo
    prof = [m4.runs_limit(spec, tau, m) for m in range(span + 3)]
    assert prof[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(prof, prof[1:]))
    for value in prof[span:]:
        assert abs(value - m4.theta(spec, tau)) <= 1e-12


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return str(exc)


def _dense_exceedances(spec, V, m_trunc, u):
    """The oracle of `evt.m4_exceedances`: the exceedances of the path built
    over the dense lift of base draw V, or the text of the error it raises."""
    with np.errstate(over="ignore", divide="ignore"):
        return _result_or_error(lambda: evt.exceedances(m4.build(
            gausslin.SeriesMatrix(values=m4.lift(spec, V)), spec, m_trunc), u))


def _assert_same_exceedances(got, want, n):
    if isinstance(want, str):
        assert got == want
    else:
        assert got.n == want.n == n
        assert got.times.dtype == want.times.dtype
        np.testing.assert_array_equal(got.times, want.times)


def _words(rng, shape):
    """Uniformly random 64-bit words, as an i.i.d. base draw holds."""
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


# The words (2^53 - k) << 11 at the top of the range, whose uniforms
# 1 - k 2^-53 lift highest, and the words either side of each: the word
# below has the next lower uniform, the word above the same one.
TOP_WORDS = st.builds(lambda k, step: ((2**53 - k) << 11) + step,
                      st.integers(1, 2**20), st.sampled_from([-1, 0, 1]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_m4_exceedances_equal_the_built_path(data):
    # the exceedances read off the base draw are those of the path built
    # over its innovations, bit for bit: truncated lags, zero coefficients,
    # a column that no kept lag reads, Philox words planted at the top of
    # the range, levels u_i planted at a product a W that build compares
    # and at its float neighbours (ties at u, and quotients u_i / a that
    # round up to W), and an overflowing product, which raises as build does
    d = data.draw(st.integers(1, 3), label="d")
    r_lo = data.draw(st.integers(-2, 0), label="r_lo")
    r_hi = data.draw(st.integers(0, 2), label="r_hi")
    span = r_hi - r_lo
    alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="alpha")
    coef = st.sampled_from([0.0, 0.0, 0.1, 0.3, 1.0, 0.7071067811865476, 2.5])
    a = np.array(data.draw(st.lists(coef, min_size=(span + 1) * d * d,
                                    max_size=(span + 1) * d * d),
                           label="a")).reshape(span + 1, d, d)
    # lag 0 is always kept; its column 0 gives every output row a positive
    # coefficient
    a[-r_lo, :, 0] = data.draw(st.sampled_from([0.5, 1.0, 1.7]), label="a0")
    m_trunc = data.draw(st.none() | st.integers(0, span), label="m_trunc")
    if d > 1 and data.draw(st.booleans(), label="dark column"):
        # column d-1 has positive coefficients only at dropped lags, if any
        a[:, :, d - 1] *= (np.abs(np.arange(r_lo, r_hi + 1)) >
                           (span if m_trunc is None else m_trunc))[:, None]
    overflow = data.draw(st.booleans(), label="overflow")
    if overflow:
        a[-r_lo, 0, 0] = 1e308
    spec = M4Spec(d=d, alpha=alpha, lags=(r_lo, r_hi), a=a,
                  innovation=IidPareto(alpha))
    n = data.draw(st.integers(1, 60), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    V = _words(rng, (n + span, d))
    for _ in range(data.draw(st.integers(0, 4), label="top words")):
        V[data.draw(st.integers(0, n + span - 1)),
          data.draw(st.integers(0, d - 1))] = data.draw(TOP_WORDS)
    if overflow:
        # the word of U = 0.75: W >= 4^(1/alpha) >= 2 at a lag-0 row, a
        # product past the largest float
        V[data.draw(st.integers(r_hi, r_hi + n - 1)), 0] = 3 << 62
    W = m4.lift(spec, V)
    uu = np.array(data.draw(st.lists(st.floats(1.0, 1e4), min_size=d,
                                     max_size=d), label="u"))
    lags = np.arange(r_lo, r_hi + 1)
    kept = np.abs(lags) <= (span if m_trunc is None else m_trunc)
    for _ in range(data.draw(st.integers(0, 6), label="plants")):
        t = data.draw(st.integers(0, n + span - 1))
        j = data.draw(st.integers(0, d - 1))
        with np.errstate(divide="ignore", over="ignore"):
            levels = np.where(kept[:, None], uu[None, :] / a[:, :, j], np.inf)
        if not np.isfinite(levels).any():
            continue
        # the column's lowest level decides its candidate rows
        ri, i = (np.unravel_index(np.argmin(levels), levels.shape)
                 if data.draw(st.booleans()) else
                 data.draw(st.sampled_from(np.argwhere(np.isfinite(levels))
                                           .tolist())))
        c, w = a[ri, i, j], W[t, j]
        with np.errstate(over="ignore"):
            y = c * w  # the product that build compares with u_i
        if not np.isfinite(y):
            continue
        if data.draw(st.booleans(), label="rounds up"):
            # a level below y whose quotient u_i / a rounds to W or above:
            # W exceeds only by the margin of the candidate level
            for _ in range(8):
                y = np.nextafter(y, 0.0)
                if y / c >= w:
                    break
            uu[i] = y
        else:
            step = data.draw(st.sampled_from([-1, 0, 1]))
            uu[i] = np.nextafter(y, np.inf * step) if step else y
    u = m4.ThresholdVector(n=n, tau=np.ones(d), u=uu)

    want = _dense_exceedances(spec, V, m_trunc, u)
    with np.errstate(over="ignore"):
        got = _result_or_error(evt.m4_exceedances, m4.Draw(V, spec, m_trunc),
                               u)
    if overflow:
        assert want == "values must be finite"
    _assert_same_exceedances(got, want, n)


def _subgauss(d, transform):
    """A SubGauss innovation of d columns whose marginal sds differ from 1."""
    return SubGauss(custom_subgauss_spec(d).innovation.table,
                    transform=transform)


SUBGAUSS = {(d, kind): _subgauss(d, kind) for d in (1, 2, 3)
            for kind in ("pareto", "folded_pareto")}


def _exact_floor(inn, c, j, alpha):
    """The base value whose exact lift is c, by the closed forms, beside the
    widened `floor`: for Philox words, the first word k << 11 of the uniform
    k 2^-53 nearest 1 - c^(-alpha)."""
    p = float(c) ** -alpha
    if isinstance(inn, IidPareto):
        return round((1.0 - p) * 2**53) << 11
    if p >= 1.0:
        return -np.inf
    return inn.sd[j] * -ndtri(p / 2 if inn.folded else p)


def _beside(value, step):
    """The base value step places above value: the next word, or the next
    float."""
    if isinstance(value, (int, np.integer)):
        return int(value) + step
    return np.nextafter(value, np.inf * step) if step else value


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_only_candidate_rows_lift_above_the_level(data):
    # for each innovation kind, every base value that lifts above its
    # column's level lies at or above the innovation's floor, so the
    # exceedances read off the candidate rows are those of the path built
    # over the dense lift: the same times, dtype and error text. Columns
    # with unequal floors share the one pass over the base draw. Base
    # values are planted at the floor, at the values whose exact lifts are
    # the level and u_i / a (for words, the top-of-range word k << 11 of
    # the nearest uniform), and a word or float either side of each; one
    # draw has a candidate that lifts to inf, which raises as the dense
    # innovations do
    kind = data.draw(st.sampled_from(["iid_pareto", "pareto",
                                      "folded_pareto"]), label="kind")
    d = data.draw(st.integers(1, 3), label="d")
    r_lo = data.draw(st.integers(-1, 0), label="r_lo")
    r_hi = data.draw(st.integers(0, 2), label="r_hi")
    span = r_hi - r_lo
    overflow = data.draw(st.booleans(), label="overflow")
    # below alpha = 53 / 1024 a uniform of 1 - 2^-53 lifts to inf
    alpha = (0.05 if overflow and kind == "iid_pareto" else
             data.draw(st.sampled_from([0.05, 0.5, 1.0, 2.0, 7.0]),
                       label="alpha"))
    coef = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5])
    a = np.array(data.draw(st.lists(coef, min_size=(span + 1) * d * d,
                                    max_size=(span + 1) * d * d),
                           label="a")).reshape(span + 1, d, d)
    a[-r_lo, :, 0] = 1.0
    m_trunc = data.draw(st.none() | st.integers(0, span), label="m_trunc")
    inn = (IidPareto(alpha) if kind == "iid_pareto" else
           SUBGAUSS[d, kind])
    spec = M4Spec(d=d, alpha=alpha, lags=(r_lo, r_hi), a=a, innovation=inn)
    n = data.draw(st.integers(1, 60), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "iid_pareto":
        V = _words(rng, (n + span, d))
    else:
        V = rng.standard_normal((n + span, d)) * inn.sd * 2.0
    uu = np.array(data.draw(st.lists(st.floats(0.5, 1e4), min_size=d,
                                     max_size=d), label="u"))
    # the column levels of m4_exceedances
    kept = np.abs(spec.lag_values()) <= (span if m_trunc is None else m_trunc)
    with np.errstate(divide="ignore"):
        c = (np.min(uu[None, :, None] / a[kept], axis=(0, 1),
                    initial=np.inf) * (1.0 - evt.MARGIN))
    for _ in range(data.draw(st.integers(0, 6), label="plants")):
        t = data.draw(st.integers(0, n + span - 1))
        j = data.draw(st.integers(0, d - 1))
        # the floor, or the value whose exact lift is the column's level or
        # its lowest u_i / a, without the margin
        at = data.draw(st.sampled_from(["floor", "level", "u / a"]))
        level = (inn.floor(c[j], j, alpha) if at == "floor" else
                 _exact_floor(inn, c[j] / (1.0 - evt.MARGIN)
                              if at == "u / a" else c[j], j, alpha))
        value = _beside(level, data.draw(st.sampled_from([-1, 0, 1])))
        if kind == "folded_pareto" and data.draw(st.booleans()):
            value = -value
        if (0 <= value < 2**64 if kind == "iid_pareto" else
                np.isfinite(value)):
            V[t, j] = value
    if overflow:
        # the top word's uniform is 1 - 2^-53; ndtr(-60) is 0, whose power
        # is inf
        j = data.draw(st.integers(0, d - 1))
        V[data.draw(st.integers(0, n + span - 1)), j] = (
            2**64 - 1 if kind == "iid_pareto" else 60.0 * inn.sd[j])
    u = m4.ThresholdVector(n=n, tau=np.ones(d), u=uu)

    want = _dense_exceedances(spec, V, m_trunc, u)
    with np.errstate(divide="ignore", over="ignore"):
        got = _result_or_error(evt.m4_exceedances, m4.Draw(V, spec, m_trunc),
                               u)
    if overflow:
        assert want == "values must be finite"
    _assert_same_exceedances(got, want, n)


@pytest.mark.parametrize("kind", ["iid_pareto", "pareto", "folded_pareto"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 7.0])
def test_floor_admits_every_value_lifting_above_the_level(kind, alpha):
    # at the top of the base range: the words (2^53 - k) << 11 of the
    # uniforms 1 - k 2^-53, whose spacing is as wide as the tail 1 - U
    # itself, and the words either side of each, and Gaussian values out to
    # where ndtr underflows. At each lifted value as the level, and a float
    # either side, every value that lifts above it lies at or above the
    # floor.
    inn = IidPareto(alpha) if kind == "iid_pareto" else SUBGAUSS[1, kind]
    if kind == "iid_pareto":
        top = (2**53 - np.arange(1, 200, dtype=np.uint64)) << 11
        base = np.concatenate([top - 1, top, top + 1])
    else:
        base = inn.sd[0] * np.linspace(-3.0, 39.0, 2000)
    with np.errstate(divide="ignore", over="ignore"):
        w = inn.lift(base, 0, alpha)
    levels = w[np.isfinite(w)]
    folded = np.abs(base) if inn.folded else base
    for c in np.concatenate([levels, np.nextafter(levels, 0.0),
                             np.nextafter(levels, np.inf)]):
        assert np.all(folded[w > c] >= inn.floor(c, 0, alpha)), c
    # a value that lifts to inf is a candidate even in a column that no
    # level reads
    assert np.all(folded[np.isinf(w)] >= inn.floor(np.inf, 0, alpha))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 1001])
@pytest.mark.parametrize("key", [0, 5, 2**64 + 3, 2**128 - 1])
def test_words_map_to_numpys_uniforms(key, n, d):
    # an i.i.d. base draw keeps the Philox words and lifts them through
    # U = (w >> 11) 2^-53, which must be numpy's own map from a word to a
    # double, word for word and in row-major order
    words = np.random.Philox(key=key).random_raw(n * d).reshape(n, d)
    want = np.random.Generator(np.random.Philox(key=key)).random((n, d))
    got = (words >> 11) * 2.0**-53
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(m4.base(equal_spec(), n * d, key)[:, 0],
                                  words.reshape(-1))
    for j in range(d):
        np.testing.assert_array_equal(IidPareto(1.5).lift(words[:, j], j, 1.5),
                                      (1.0 - want[:, j]) ** (-1.0 / 1.5))


def test_a_level_below_one_makes_every_word_a_candidate():
    # every word lifts to W >= 1, so below level 1 the floor is the least
    # word, 0, and the words of uniform 0 (0 to 2047) are candidates too
    spec = equal_spec(nlags=1)
    V = np.array([[0], [1], [2047], [2048], [3 << 62], [2**64 - 1]],
                 dtype=np.uint64)
    u = m4.ThresholdVector(n=len(V), tau=np.ones(1), u=np.array([0.5]))
    assert spec.innovation.floor(0.5, 0, 1.0) == 0
    got = evt.m4_exceedances(m4.Draw(V, spec), u)
    _assert_same_exceedances(got, _dense_exceedances(spec, V, None, u), len(V))
    np.testing.assert_array_equal(got.times, np.arange(len(V)))


@pytest.mark.parametrize("overflow", [False, True])
@pytest.mark.parametrize("kind", ["iid_pareto", "pareto", "folded_pareto"])
def test_m4_exceedances_read_either_memory_order(kind, overflow):
    # the one pass reads the base draw flat in row-major order whatever its
    # memory order, so a Fortran-ordered V gives the C-ordered one's times,
    # dtype and error text, and both equal the built path's
    inn = IidPareto(1.5) if kind == "iid_pareto" else SUBGAUSS[3, kind]
    a = np.full((2, 3, 3), 0.4)
    a[0, :, 0] = 1.0
    if overflow:
        a[0, 0, 0] = 1e308  # every product at a lag-0 row with W > 2
    spec = M4Spec(d=3, alpha=1.5, lags=(0, 1), a=a, innovation=inn)
    n = 3000
    u = (m4.ThresholdVector(n=n, tau=np.ones(3), u=np.full(3, 1e3))
         if overflow else m4.thresholds(spec, n, [20.0, 40.0, 80.0]))
    V = m4.base(spec, n + 1, 11)
    want = _dense_exceedances(spec, V, None, u)
    if overflow:
        assert want == "values must be finite"
    else:
        assert len(want.times) >= 20
    for order in ("C", "F"):
        draw = m4.Draw(np.asarray(V, order=order), spec)
        assert draw.V.flags[f"{order}_CONTIGUOUS"]
        with np.errstate(over="ignore"):
            got = _result_or_error(evt.m4_exceedances, draw, u)
        _assert_same_exceedances(got, want, n)


@pytest.mark.parametrize("windows", [
    pytest.param([[0, 1]], id="d1-lags-0-1"),
    pytest.param([[0, 1, 2, 3]], id="d1-lags-0-3"),
    pytest.param([[0, 2]], id="d1-lags-0-2"),
    pytest.param([[0, 1], [0, 2, 3]], id="d2-a-window-per-column"),
])
def test_window_maximum_is_a_unit_m4(windows):
    # the window maximum of a subordinated Gaussian in Pareto scale,
    # Y_{k,i} = max over column i's lags l of W_{k+m-l,i}, is the M4 of
    # a[r][i][j] = 1 iff j == i and r is one of column i's lags, over a
    # subgauss innovation: E2 is the one over lags 0..3. Its exceedance
    # times are those of the window maximum written here in numpy, and
    # for d = 1 its extremal index is 1 / (number of lags)
    d, m = len(windows), max(map(max, windows))
    a = [[[1.0 if j == i and r in windows[i] else 0.0 for j in range(d)]
          for i in range(d)] for r in range(m + 1)]
    B = np.where(np.eye(d) == 1, 1.0, 0.3).tolist()
    lin = {"d0": d, "family": "log_boundary", "params": {"q": 2.0, "B": B},
           "L": 64}
    n, alpha = 2000, 1.5
    cfg = harness.ExperimentConfig.from_json(json.dumps({
        "name": "window", "n": n, "tau": [20.0] * d, "reps": 1,
        "analyses": [{"type": "nonexceed"}],
        "generator": {"kind": "m4", "spec": {
            "d": d, "alpha": alpha, "lags": [0, m], "a": a,
            "innovation": {"kind": "subgauss", "lin": lin,
                           "transform": "pareto"}}}}))
    path_fn, spec, u = harness._build_generator(cfg)
    np.testing.assert_array_equal(u.u, m4.thresholds(spec, n, cfg.tau).u)
    table = gausslin.CoeffTable.from_json(json.dumps(lin))
    sd = np.sqrt(np.diag(gausslin.autocov(table, 0)[0]))
    for seed in range(3):
        X = gausslin.simulate(table, n + m, seed).values
        W = ndtr(-X / sd) ** (-1.0 / alpha)
        Y = np.column_stack([
            np.max([W[m - l : m - l + n, i] for l in window], axis=0)
            for i, window in enumerate(windows)])
        want = np.flatnonzero(np.any(Y > u.u, axis=1))
        got = evt.m4_exceedances(path_fn(seed), u)
        assert got.n == n and want.size > 0
        np.testing.assert_array_equal(got.times, want)
    if d == 1:
        theta = harness.targets(cfg)["0:nonexceed"]["theta"]
        assert theta == pytest.approx(1.0 / len(windows[0]), rel=1e-12)


@pytest.mark.parametrize("transform", ["pareto", "folded_pareto"])
@pytest.mark.parametrize("d", [1, 2])
def test_subordinated_gaussian_is_a_one_lag_m4(d, transform):
    # a subordinated Gaussian in Pareto scale, Y_{k,i} = h(X_{k,i} / sd_i),
    # is the M4 of lags [0, 0] and a = identity over a subgauss innovation,
    # as E6, E7 and E8 are. Its exceedance times are those of the
    # standardized Gaussian path Z over the Gaussian-scale level
    # ndtri(1 - tau / n) (|Z| over ndtri(1 - tau / (2 n)) when folded),
    # written here in numpy, and so are those of the dense lift; and for
    # d = 2, with E7's cross-correlated table, scan's counts are those of
    # the dense lift
    lin = (json.loads((CONFIGS / "e7.json").read_text())["generator"]
           ["spec"]["innovation"]["lin"] if d == 2 else
           {"d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0]]}, "L": 64})
    table = gausslin.CoeffTable.from_json(json.dumps(lin))
    spec = M4Spec(d=d, alpha=1.5, lags=(0, 0), a=np.eye(d)[None],
                  innovation=SubGauss(table, transform=transform))
    n, tau = 20_000, np.array([40.0, 60.0])[:d]
    u = m4.thresholds(spec, n, tau)
    sd = np.sqrt(np.diag(gausslin.autocov(table, 0)[0]))
    folded = transform == "folded_pareto"
    level = ndtri(1.0 - tau / (2 * n if folded else n))
    for seed in range(3):
        Z = gausslin.simulate(table, n, seed).values / sd
        want = np.flatnonzero(np.any((np.abs(Z) if folded else Z) > level,
                                     axis=1))
        draw = m4.path(spec, n, seed)
        got = evt.m4_exceedances(draw, u)
        assert got.n == n and want.size > 0
        np.testing.assert_array_equal(got.times, want)
        W = m4.lift(spec, draw.V)
        np.testing.assert_array_equal(
            np.flatnonzero(np.any(W > u.u, axis=1)), want)
        if d == 2:
            counts = harness.REGISTRY["scan"].per_path(
                {"type": "scan"}, harness.Replication(draw, u, got))
            assert counts == evt.pair_exceedances(W, u.u)
            assert counts[1] > 0
