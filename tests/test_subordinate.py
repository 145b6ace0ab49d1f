"""Per-column Pareto maps of Gaussian paths and their heavy-tail marginals."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import ndtr

from subgauss import gausslin, subordinate
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.subordinate import Part, Transform


def _iid_path(n, seed, d0=1):
    t = gausslin.make_coeffs(
        gausslin.LinearProcessSpec(d0=d0, family=gausslin.Iid(), L=0)
    )
    return gausslin.simulate(t, n, seed)


class TestParts:
    def test_pareto_is_probability_integral(self):
        # (1 - Phi(x))^(-1/alpha) applied to x = Phi^{-1}(1 - 1/u^alpha)
        part = Part(kind="pareto", alpha=2.0)
        from scipy.special import ndtri

        u = 7.0
        x = ndtri(1 - u**-2.0)
        val = part.evaluate(np.array([x]))
        np.testing.assert_allclose(val, [u], rtol=1e-10)

    def test_folded_pareto_symmetric(self):
        part = Part(kind="folded_pareto", alpha=1.0)
        a = part.evaluate(np.array([1.7]))
        b = part.evaluate(np.array([-1.7]))
        np.testing.assert_allclose(a, b)

    def test_pareto_needs_alpha(self):
        for alpha in (None, 0.0, np.inf):
            with pytest.raises(SpecError, match="field: alpha"):
                Part(kind="pareto", alpha=alpha)

    def test_unknown_kind(self):
        # a kind without an exact Pareto marginal has no level, so none is
        # in the catalog
        for kind in ("cubic", "identity", "abs", "square", "window_max"):
            with pytest.raises(SpecError, match="field: kind"):
                Part(kind=kind, alpha=1.0)


class TestApply:
    def test_time_shift_commutes(self):
        X = _iid_path(300, 21)
        t = Transform(parts=(
            Part(kind="pareto", alpha=1.5),
            Part(kind="folded_pareto", alpha=0.5),
        ))
        full = subordinate.apply(X, t)
        shifted = subordinate.apply(SeriesMatrix(values=X.values[5:]), t)
        np.testing.assert_allclose(full.values[5:], shifted.values)

    def test_lag_exceeding_window_rejected(self):
        # a window maximum is an M4 over subgauss innovations, so a part
        # reads lag 0 of its column only and takes no lags
        with pytest.raises(SpecError, match="field: lags"):
            Transform.from_json(json.dumps({"parts": [
                {"kind": "pareto", "alpha": 1.0, "lags": [0, 2]}]}))

    def test_coord_out_of_range(self):
        X = _iid_path(50, 2)
        t = Transform(parts=(Part(kind="pareto", alpha=1.0, coord=3),))
        with pytest.raises(SpecError):
            subordinate.apply(X, t)

    def test_path_shorter_than_window(self):
        # a transform has no window, so it takes no window size m
        with pytest.raises(SpecError, match="field: m"):
            Transform.from_json(json.dumps({"m": 5, "parts": [
                {"kind": "pareto", "alpha": 1.0}]}))

    def test_json_round_trip(self):
        t = Transform(parts=(
            Part(kind="pareto", coord=1, alpha=1.5),
            Part(kind="folded_pareto", coord=0, alpha=2.0),
        ))
        # the parser reads the transform's own fields back
        assert Transform.from_json(json.dumps(asdict(t))) == t


class TestGaussianSource:
    @pytest.fixture
    def table(self):
        return gausslin.make_coeffs(gausslin.LinearProcessSpec(
            d0=2, family=gausslin.Polynomial(beta=1.0, B=np.eye(2)), L=16))

    @pytest.mark.parametrize("transform", [
        None,
        Transform(parts=(
            Part(kind="folded_pareto", coord=0, alpha=0.5),
            Part(kind="pareto", coord=1, alpha=1.5),
            Part(kind="pareto", coord=0, alpha=1.0),
        )),
    ], ids=["no-transform", "pareto-parts"])
    def test_path_equals_reference(self, table, transform):
        # simulate n rows, divide by the Gamma(0) sd, map each part's column
        n, seed = 300, 5
        X = gausslin.simulate(table, n, seed)
        sd = np.sqrt(np.diag(gausslin.autocov(table, 0)[0]))
        want = SeriesMatrix(values=X.values / sd)
        if transform:
            want = SeriesMatrix(values=np.column_stack([
                part.evaluate(want.values[:, part.coord])
                for part in transform.parts]))
        source = subordinate.GaussianSource(table, transform)
        got = source.path(n, seed)
        assert got.values.shape == (n, source.d)
        assert source.d == (3 if transform else 2)
        np.testing.assert_array_equal(got.values, want.values)


def marginal_tail(part, u):
    """The closed-form tail of a part, the oracle of these tests:
    P(W > u) = u^(-alpha) for u >= 1."""
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
        t = Transform(parts=(part,))
        y = subordinate.apply(X, t).values[:, 0]
        for u in (5.0, 20.0, 100.0):
            want = marginal_tail(part, u)
            emp = np.mean(y > u)
            assert abs(emp - want) < 4 * np.sqrt(want / len(y))

    def test_light_tailed_kinds_rejected(self):
        # every part has the exact Pareto tail: a light-tailed kind is not
        # one
        with pytest.raises(SpecError, match="field: kind"):
            Part(kind="abs", alpha=1.0)

    def test_below_support_rejected(self):
        with pytest.raises(SpecError):
            marginal_tail(Part(kind="pareto", alpha=1.0), 0.5)
