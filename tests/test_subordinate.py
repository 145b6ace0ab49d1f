"""Per-column Pareto maps of Gaussian paths and their heavy-tail marginals."""

import numpy as np
import pytest

from subgauss import gausslin, subordinate
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.subordinate import Part


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
    PARTS = (Part(kind="pareto", alpha=1.5),
             Part(kind="folded_pareto", alpha=0.5))

    def test_time_shift_commutes(self):
        X = _iid_path(300, 21, d0=2)
        full = subordinate.apply(X, self.PARTS)
        shifted = subordinate.apply(SeriesMatrix(values=X.values[5:]),
                                    self.PARTS)
        np.testing.assert_allclose(full.values[5:], shifted.values)

    def test_coord_out_of_range(self):
        # part i maps column i, so a path needs a column for every part
        with pytest.raises(IndexError):
            subordinate.apply(_iid_path(50, 2), self.PARTS)


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
        y = subordinate.apply(X, (part,)).values[:, 0]
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
