"""Window transforms of Gaussian paths and their heavy-tail marginals."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from subgauss import gausslin, subordinate
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.subordinate import Part, WindowTransform


def _iid_path(n, seed, d0=1):
    t = gausslin.make_coeffs(
        gausslin.LinearProcessSpec(d0=d0, family=gausslin.Iid(), L=0)
    )
    return gausslin.simulate(t, n, seed)


class TestParts:
    def test_identity_abs_square(self):
        x = np.array([[-2.0], [3.0]])
        w = x.T  # (nlags=1, nobs=2)
        assert np.allclose(Part(kind="identity").evaluate(w), [-2.0, 3.0])
        assert np.allclose(Part(kind="abs").evaluate(w), [2.0, 3.0])
        assert np.allclose(Part(kind="square").evaluate(w), [4.0, 9.0])

    def test_pareto_is_probability_integral(self):
        # (1 - Phi(x))^(-1/alpha) applied to x = Phi^{-1}(1 - 1/u^alpha)
        part = Part(kind="pareto", alpha=2.0)
        from scipy.special import ndtri

        u = 7.0
        x = ndtri(1 - u**-2.0)
        val = part.evaluate(np.array([[x]]))
        np.testing.assert_allclose(val, [u], rtol=1e-10)

    def test_folded_pareto_symmetric(self):
        part = Part(kind="folded_pareto", alpha=1.0)
        a = part.evaluate(np.array([[1.7]]))
        b = part.evaluate(np.array([[-1.7]]))
        np.testing.assert_allclose(a, b)

    def test_pareto_needs_alpha(self):
        with pytest.raises(SpecError):
            Part(kind="pareto")

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            Part(kind="cubic")


class TestApply:
    def test_window_max_hand_check(self):
        vals = np.arange(10.0)[:, None]
        X = SeriesMatrix(values=vals, meta={})
        t = WindowTransform(
            m=2, parts=(Part(kind="window_max", lags=(0, 1, 2)),)
        )
        out = subordinate.apply(X, t)
        assert out.n == 8
        # output row k corresponds to input time k+2, window {k, k+1, k+2}
        np.testing.assert_allclose(out.values[:, 0], np.arange(2.0, 10.0))

    def test_time_shift_commutes(self):
        X = _iid_path(300, 21)
        t = WindowTransform(
            m=3,
            parts=(
                Part(kind="window_max", lags=(0, 2, 3)),
                Part(kind="square"),
            ),
        )
        full = subordinate.apply(X, t)
        shifted = subordinate.apply(
            SeriesMatrix(values=X.values[5:], meta=X.meta), t
        )
        np.testing.assert_allclose(full.values[5:], shifted.values)

    def test_lag_exceeding_window_rejected(self):
        with pytest.raises(SpecError):
            WindowTransform(m=1, parts=(Part(kind="window_max", lags=(0, 2)),))

    def test_coord_out_of_range(self):
        X = _iid_path(50, 2)
        t = WindowTransform(m=0, parts=(Part(kind="identity", coord=3),))
        with pytest.raises(SpecError):
            subordinate.apply(X, t)

    def test_path_shorter_than_window(self):
        X = _iid_path(3, 2)
        t = WindowTransform(m=5, parts=(Part(kind="window_max", lags=(0, 5)),))
        with pytest.raises(SpecError):
            subordinate.apply(X, t)

    def test_json_round_trip(self):
        t = WindowTransform(
            m=2,
            parts=(
                Part(kind="pareto", coord=1, alpha=1.5),
                Part(kind="window_max", coord=0, lags=(0, 2)),
            ),
        )
        # the parser reads the transform's own fields back
        assert WindowTransform.from_json(json.dumps(asdict(t))) == t


class TestGaussianSource:
    @pytest.fixture
    def table(self):
        return gausslin.make_coeffs(gausslin.LinearProcessSpec(
            d0=2, family=gausslin.Polynomial(beta=1.0, B=np.eye(2)), L=16))

    @pytest.mark.parametrize("transform", [
        None,
        WindowTransform(m=2, parts=(
            Part(kind="window_max", coord=0, lags=(0, 2)),
            Part(kind="pareto", coord=1, alpha=1.5),
            Part(kind="abs", coord=0),
        )),
    ], ids=["no-transform", "window-m2"])
    def test_path_equals_reference(self, table, transform):
        # simulate n + m rows, divide by the Gamma(0) sd, apply the window
        n, seed = 300, 5
        m = transform.m if transform else 0
        X = gausslin.simulate(table, n + m, seed)
        sd = np.sqrt(np.diag(gausslin.autocov(table, 0)[0]))
        want = SeriesMatrix(values=X.values / sd, meta=X.meta)
        if transform:
            want = subordinate.apply(want, transform)
        source = subordinate.GaussianSource(table, transform)
        got = source.path(n, seed)
        assert got.values.shape == (n, source.d)
        assert source.d == (3 if transform else 2)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.meta == want.meta


def marginal_tail(part, u):
    """The closed-form tail of a pareto or folded_pareto part, the oracle of
    these tests: P(W > u) = u^(-alpha) for u >= 1."""
    if part.kind not in ("pareto", "folded_pareto"):
        raise SpecError(f"no closed-form tail for kind {part.kind!r}")
    if u < 1.0:
        raise SpecError("tail is exact only for u >= 1")
    return u ** (-part.alpha)


class TestMarginalTail:
    def test_exact_pareto_tail(self):
        part = Part(kind="pareto", alpha=2.0)
        np.testing.assert_allclose(marginal_tail(part, 10.0), 0.01)

    def test_empirical_tail_matches(self):
        X = _iid_path(400_000, 8)
        part = Part(kind="folded_pareto", alpha=1.0)
        t = WindowTransform(m=0, parts=(part,))
        y = subordinate.apply(X, t).values[:, 0]
        for u in (5.0, 20.0, 100.0):
            want = marginal_tail(part, u)
            emp = np.mean(y > u)
            assert abs(emp - want) < 4 * np.sqrt(want / len(y))

    def test_light_tailed_kinds_rejected(self):
        with pytest.raises(SpecError):
            marginal_tail(Part(kind="abs"), 3.0)

    def test_below_support_rejected(self):
        with pytest.raises(SpecError):
            marginal_tail(Part(kind="pareto", alpha=1.0), 0.5)


@given(seed=st.integers(0, 2**16), m=st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_output_length_and_monotone_window(seed, m):
    X = _iid_path(64, seed)
    lags = tuple(range(m + 1))
    t = WindowTransform(m=m, parts=(Part(kind="window_max", lags=lags),))
    out = subordinate.apply(X, t)
    assert out.n == 64 - m
    # widening the window can only raise the running maximum
    if m >= 1:
        t_narrow = WindowTransform(
            m=m, parts=(Part(kind="window_max", lags=lags[:-1]),)
        )
        narrow = subordinate.apply(X, t_narrow)
        assert np.all(out.values >= narrow.values - 1e-12)
