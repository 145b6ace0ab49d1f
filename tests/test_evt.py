"""Empirical extreme-value estimators: maxima rates, cluster indexes, the
anti-clustering statistic, and the joint exceedance counts of a scan."""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import chaos, evt, gausslin, harness, m4
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.m4 import IidPareto, M4Spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
E7 = CONFIGS / "e7.json"


def iid_fn(n, d=1):
    def fn(seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        return SeriesMatrix(values=rng.pareto(1.0, size=(n, d)) + 1.0)

    return fn


def equal_spec(nlags=4):
    return M4Spec(
        d=1,
        alpha=1.0,
        lags=(0, nlags - 1),
        a=np.ones((nlags, 1, 1)),
        innovation=IidPareto(alpha=1.0),
    )


def replicate(path_fn, u, analysis, reps, base_seed):
    """Summary entry and failures of one analysis over reps paths."""
    entries, _, failures = harness.replicate(
        harness.Generator(path_fn, u=u), [analysis], reps, base_seed)
    return entries[f"0:{analysis['type']}"], failures


def univariate_u(n, level):
    return m4.ThresholdVector(n=n, tau=(1.0,), u=np.array([level]))


class TestEmpiricalNonexceed:
    def test_iid_closed_form(self):
        n, tau = 2000, 1.0
        u = m4.thresholds(
            M4Spec(
                d=1,
                alpha=1.0,
                lags=(0, 0),
                a=np.ones((1, 1, 1)),
                innovation=IidPareto(1.0),
            ),
            n,
            (tau,),
        )
        got, _ = replicate(iid_fn(n), u, {"type": "nonexceed"}, 2000, 7)
        want = (1 - 1 / n) ** n
        assert abs(got["p_hat"] - want) < 2 * got["ci_halfwidth"]

    def test_generator_failure_reports_replication(self):
        def failing_at(*reps):
            def fn(seed):
                if seed ^ 5 in reps:
                    raise ValueError("boom")
                return iid_fn(100)(seed)
            return fn

        u = m4.thresholds(equal_spec(), 100, (1.0,))
        _, failures = replicate(failing_at(3), u, {"type": "nonexceed"}, 100, 5)
        assert failures == [{"replication": 3, "error": "boom"}]
        # more than 1% of replications failing aborts the run
        with pytest.raises(RuntimeError, match="2/100 replications failed"):
            replicate(failing_at(3, 4), u, {"type": "nonexceed"}, 100, 5)


class TestRunsAndBlocks:
    def test_theta0_is_one_by_convention(self):
        u = m4.thresholds(equal_spec(), 50_000, (200.0,))
        ex = evt.m4_exceedances(m4.path(equal_spec(), 50_000, 1), u)
        rep = evt.runs_theta(ex, 0)
        assert rep.estimate == 1.0

    def test_iid_theta_close_to_one(self):
        n = 100_000
        Y = iid_fn(n)(3)
        u = m4.thresholds(
            M4Spec(
                d=1,
                alpha=1.0,
                lags=(0, 0),
                a=np.ones((1, 1, 1)),
                innovation=IidPareto(1.0),
            ),
            n,
            (100.0,),
        )
        assert evt.runs_theta(evt.exceedances(Y, u), 5).estimate > 0.9
        # blocks estimator biases low as per-block occupancy saturates,
        # so keep the expected count per block well under one
        assert evt.blocks_theta(evt.exceedances(Y, u), 100).estimate > 0.85

    def test_moving_maxima_quarter(self):
        spec = equal_spec()
        n = 200_000
        u = m4.thresholds(spec, n, (800.0,))
        ex = evt.m4_exceedances(m4.path(spec, n, 11), u)
        rep = evt.runs_theta(ex, 3)
        assert abs(rep.estimate - 0.25) < 0.03
        brep = evt.blocks_theta(ex, 200)
        assert abs(brep.estimate - 0.25) < 0.06

    def test_insufficient_exceedances(self):
        spec = equal_spec()
        u = m4.thresholds(spec, 1000, (1.0,))
        with pytest.raises(evt.InsufficientExceedances):
            evt.runs_theta(evt.m4_exceedances(m4.path(spec, 1000, 1), u), 3)

    def test_blocks_needs_enough_blocks(self):
        spec = equal_spec()
        u = m4.thresholds(spec, 1000, (100.0,))
        with pytest.raises(SpecError):
            evt.blocks_theta(evt.m4_exceedances(m4.path(spec, 1000, 1), u),
                             500)

    def test_csv_row_contract(self):
        Y = iid_fn(50_000)(3)
        spec = M4Spec(
            d=1,
            alpha=1.0,
            lags=(0, 0),
            a=np.ones((1, 1, 1)),
            innovation=IidPareto(1.0),
        )
        u = m4.thresholds(spec, 50_000, (300.0,))
        rep = evt.runs_theta(evt.exceedances(Y, u), 2)
        assert evt.EstimatorReport.CSV_HEADER == (
            "method,m_or_b,estimate,stderr,exceed_count"
        )
        row = rep.to_csv_row()
        assert row.startswith("runs,2,")
        assert len(row.split(",")) == 5


def runs_reference(e, m):
    """(clear, base): exceedances at k < n - m, and those of them with no
    exceedance at k+1..k+m, counted one time step at a time."""
    n = len(e)
    base = [k for k in range(n - m) if e[k]]
    clear = [k for k in base if not any(e[k + 1 : k + m + 1])]
    return len(clear), len(base)


# The dense estimators over the full exceedance indicator e, as the package
# computed them before it read sorted exceedance times: oracles for
# runs_theta and blocks_theta, check for check and count for count.

def runs_dense(e, m):
    n = len(e)
    if m < 0:
        raise SpecError("m must be >= 0")
    if n <= m:
        raise SpecError("path shorter than the run length m")
    total = int(np.count_nonzero(e))
    if total < evt.MIN_EXCEEDANCES:
        raise evt.InsufficientExceedances(total)
    if m == 0:
        return evt.EstimatorReport(1.0, 0.0, total, "runs(0)")
    base = e[: n - m]
    # following[k]: some exceedance among e[k+1..k+m], from prefix counts
    c = np.zeros(n, dtype=np.int32)
    np.cumsum(e[1:], dtype=c.dtype, out=c[1:])
    following = c[m:n] > c[: n - m]
    denom = int(np.count_nonzero(base))
    if denom < evt.MIN_EXCEEDANCES:
        raise evt.InsufficientExceedances(denom)
    num = int(np.count_nonzero(base & ~following))
    est = num / denom
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / denom))
    return evt.EstimatorReport(est, stderr, denom, f"runs({m})")


def blocks_dense(e, b):
    n = len(e)
    if b < 1 or n // b < 50:
        raise SpecError("need n/b >= 50 blocks")
    nb = n // b
    ee = e[: nb * b].reshape(nb, b)
    total = int(np.count_nonzero(ee))
    if total < evt.MIN_EXCEEDANCES:
        raise evt.InsufficientExceedances(total)
    occupied = int(np.count_nonzero(np.any(ee, axis=1)))
    est = min(occupied / total, 1.0)
    stderr = float(np.sqrt(max(est * (1.0 - est), 0.0) / total))
    return evt.EstimatorReport(est, stderr, total, f"blocks({b})")


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not dropped
        return type(exc), str(exc)


def assert_estimators_match_dense(v, u, m, b):
    """runs(m) and blocks(b) from the sorted exceedance times equal the
    dense oracles: report, or exception and message."""
    ex = evt.exceedances(v, u)
    e = np.any(np.reshape(v, (len(v), -1)) > u, axis=1)
    np.testing.assert_array_equal(ex.times, np.flatnonzero(e))
    assert ex.n == len(v)
    assert outcome(evt.runs_theta, ex, m) == outcome(runs_dense, e, m)
    assert outcome(evt.blocks_theta, ex, b) == outcome(blocks_dense, e, b)


class TestKernels:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exceed_indicator_equals_reference(self, d, order):
        # small integer values put many samples exactly at a level
        rng = np.random.default_rng(d)
        v = np.asarray(rng.integers(0, 5, size=(500, d)), dtype=float,
                       order=order)
        u = np.arange(1.0, d + 1.0)
        want = np.any(v > u[None, :], axis=1)
        uvec = m4.ThresholdVector(n=500, tau=np.ones(d), u=u)
        for Y in (v, SeriesMatrix(values=v)):
            np.testing.assert_array_equal(evt._exceed_indicator(Y, uvec), want)
            np.testing.assert_array_equal(evt._exceed_indicator(Y, u), want)
        # a scalar level holds for every column
        np.testing.assert_array_equal(evt._exceed_indicator(v, 2.0),
                                      np.any(v > 2.0, axis=1))

    def test_exceed_indicator_one_dimensional_path(self):
        v = np.array([0.5, 2.0, 2.5, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            evt._exceed_indicator(v, 2.0),
            [False, False, True, False, False, True])
        np.testing.assert_array_equal(evt._exceed_indicator(v, [2.0]),
                                      v > 2.0)

    def test_ties_do_not_exceed(self):
        u = np.array([3.0, 4.0])
        v = np.asfortranarray(np.tile(u, (10, 1)))
        assert not np.any(evt._exceed_indicator(v, u))
        v[4, 1] = np.nextafter(4.0, 5.0)
        np.testing.assert_array_equal(np.flatnonzero(
            evt._exceed_indicator(v, u)), [4])

    @pytest.mark.parametrize("m", range(7))
    def test_runs_equals_loop_reference(self, m):
        # about one step in five exceeds, in runs of varied length
        rng = np.random.default_rng(20 + m)
        v = np.asfortranarray(rng.random((600, 2)) ** 4)
        u = np.array([0.6, 0.7])
        rep = evt.runs_theta(evt.exceedances(v, u), m)
        clear, base = runs_reference(np.any(v > u, axis=1), m)
        if m == 0:
            assert (rep.estimate, rep.count_exceed) == (1.0, base)
        else:
            assert 0 < clear < base
            assert (rep.estimate, rep.count_exceed) == (clear / base, base)
        assert rep.method == f"runs({m})"

    @pytest.mark.parametrize("later", [False, True])
    def test_runs_run_length_n_minus_one(self, monkeypatch, later):
        # m = n - 1 leaves one base time; with the minimum count lowered its
        # one exceedance is clear unless any later step exceeds
        monkeypatch.setattr(evt, "MIN_EXCEEDANCES", 1)
        n = 50
        v = np.zeros(n)
        v[0] = 2.0
        v[n - 1] = 2.0 if later else 0.0
        clear, base = runs_reference(v > 1.0, n - 1)
        assert (clear, base) == (0 if later else 1, 1)
        rep = evt.runs_theta(evt.exceedances(v, 1.0), n - 1)
        assert rep.estimate == clear / base


class TestDPrime:
    def test_pareto_part_counts_as_its_raw_column(self):
        # a pareto part is an increasing map of its Gaussian column, and its
        # level is the image of the column's level, so both exceed at the
        # same rows and give the same entry: E8 needs no pareto config
        cfg = dataclasses.replace(harness.ExperimentConfig.from_json(
            (CONFIGS / "e8_gauss.json").read_text()), n=2000, reps=20)
        pareto = {"parts": [{"kind": "pareto", "alpha": 1.0}]}
        raw, part = (
            harness.run(dataclasses.replace(cfg, generator={
                **cfg.generator, "transform": transform}))["analyses"]
            ["0:dprime"] for transform in (None, pareto))
        assert raw == part
        assert raw["joint_events"] > 0

    def test_iid_matches_tau_sq_over_k(self):
        n, tau = 20_000, 5.0
        rep, _ = replicate(iid_fn(n), univariate_u(n, n / tau),
                           {"type": "dprime", "k_list": [2, 4, 8, 16]}, 200, 12)
        for k in (2, 4, 8, 16):
            want = tau**2 / k
            assert abs(rep["stats"][str(k)] - want) <= 3 * rep["stderr"][str(k)] + 1e-12

    def test_nonincreasing_in_k(self):
        n = 20_000
        rep, _ = replicate(iid_fn(n), univariate_u(n, n / 5.0),
                           {"type": "dprime", "k_list": [16, 2, 8, 4, 2]}, 100, 4)
        assert list(rep["stats"]) == ["2", "4", "8", "16"]
        vals = list(rep["stats"].values())
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_wide_ci_flag(self):
        n = 2000
        rep, _ = replicate(iid_fn(n), univariate_u(n, n * 50.0),
                           {"type": "dprime", "k_list": [2]}, 50, 4)
        assert rep["joint_events"] < 10
        assert rep["wide_ci"]

    def test_path_statistic_matches_pair_counts(self):
        # direct O(n^2) pair count on a short path
        v = iid_fn(300)(9).values[:, 0]
        u = 20.0
        (stats,), joint = evt.dprime_path(evt.exceedances(v, u), [3])
        e = v > u
        pairs = [int(np.sum(e[:-j] & e[j:])) for j in range(1, 101)]
        assert joint == sum(pairs)
        want = 300 * sum(c / (300 - j) for j, c in enumerate(pairs, 1))
        np.testing.assert_allclose(stats, want, rtol=1e-12)


class TestScan:
    def test_pair_exceedances_counts_rows(self):
        v = np.array([[3.0, 3.0], [3.0, 0.0], [0.0, 3.0], [2.0, 2.0],
                      [3.0, 2.5]])
        # strict: a value at its level is no exceedance
        assert evt.pair_exceedances(v, [2.0, 2.0]) == (2, 3)
        assert evt.pair_exceedances(SeriesMatrix(values=v),
                                    [1.0, 2.5]) == (1, 2)

    def test_bound_column_uses_hyper_bound(self):
        # E7(c)'s folded-pareto pair of correlation 0.5, at a milder level
        n, fbar = 400_000, 0.05
        cfg = dataclasses.replace(
            harness.ExperimentConfig.from_json(E7.read_text()), n=n,
            tau=(n * fbar, n * fbar), base_seed=6)
        entry = harness.run(cfg)["analyses"]["0:scan"]
        assert entry["Fbar"] == [fbar, fbar]
        np.testing.assert_allclose(entry["rho"], 0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            entry["bound"], chaos.joint_tail_bound(fbar, entry["rho"]),
            rtol=1e-12)
        assert entry["joint_exceed"] == entry["joint_events"] / n
        # at this mild level the bound holds with room to spare
        se = entry["joint_stderr"]
        assert entry["joint_exceed"] <= entry["bound"] + 4 * se


@given(
    u_shift=st.floats(0.0, 2.0),
    m=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    d=st.sampled_from([1, 2]),
)
@settings(max_examples=20, deadline=None)
def test_runs_estimate_in_unit_interval(u_shift, m, seed, d):
    # a d = 2 path is column-major, as m4.build makes it
    Y = iid_fn(5000, d)(seed)
    Y = SeriesMatrix(values=np.asfortranarray(Y.values))
    u = m4.ThresholdVector(n=5000, tau=(1.0,) * d,
                           u=np.full(d, 5.0 + u_shift))
    try:
        rep = evt.runs_theta(evt.exceedances(Y, u), m)
    except evt.InsufficientExceedances:
        return
    assert 0.0 <= rep.estimate <= 1.0
    if m:
        clear, base = runs_reference(np.any(Y.values > u.u, axis=1), m)
        assert (rep.estimate, rep.count_exceed) == (clear / base, base)


def _with_min(count):
    return mock.patch.object(evt, "MIN_EXCEEDANCES", count)


@st.composite
def integer_paths(draw, max_n=400):
    """A column-major (n, d) path of small integers and d integer levels, so
    many samples sit exactly at their level."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, max_n))
    vals = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
    v = np.asfortranarray(np.reshape(np.array(vals, dtype=float), (n, d)))
    u = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                               min_size=d, max_size=d)))
    return v, u


@given(path=integer_paths(), m=st.integers(-1, 12), b=st.integers(1, 9),
       min_count=st.sampled_from([1, 2, evt.MIN_EXCEEDANCES]),
       near_end=st.booleans())
@settings(max_examples=200, deadline=None)
def test_estimators_equal_dense_oracles(path, m, b, min_count, near_end):
    v, u = path
    if near_end:
        m = len(v) - 1 - m % 3  # m = n - 1, n - 2, n - 3 (or out of range)
    with _with_min(min_count):
        assert_estimators_match_dense(v, u, m, b)


class TestEstimatorEdgeCases:
    """Hand cases of the oracle comparison, with the minimum count lowered
    to 1 so each reaches its estimate."""

    @staticmethod
    def path(n, rows, level=1.0):
        v = np.zeros(n)
        v[list(rows)] = 2.0
        return v, level

    def test_exceedance_at_last_row(self):
        v, u = self.path(120, [3, 60, 119])
        with _with_min(1):
            for m in (1, 2, 59):
                assert_estimators_match_dense(v, u, m, 2)
            # the exceedance at row n - 1 is no base time for m >= 1
            assert evt.runs_theta(evt.exceedances(v, u), 1).count_exceed == 2

    def test_no_exceedance_after_last_base_time(self):
        v, u = self.path(100, [10, 11, 40, 80])
        with _with_min(1):
            for m in (1, 5, 19):
                assert_estimators_match_dense(v, u, m, 2)
            # the last exceedance, row 80, is a base time and clear
            rep = evt.runs_theta(evt.exceedances(v, u), 5)
            assert (rep.estimate, rep.count_exceed) == (3 / 4, 4)

    @pytest.mark.parametrize("rows", [[0], [0, 99], [50, 99], [98, 99]])
    def test_run_length_n_minus_one(self, rows):
        v, u = self.path(100, rows)
        with _with_min(1):
            assert_estimators_match_dense(v, u, 99, 1)

    @pytest.mark.parametrize("n, b, counted", [(503, 10, 3), (157, 3, 4),
                                                (101, 2, 4)])
    def test_block_length_not_dividing_n(self, n, b, counted):
        # exceedances in the trailing partial block do not count
        v, u = self.path(n, [0, 1, b, n - 2, n - 1])
        with _with_min(1):
            assert_estimators_match_dense(v, u, 1, b)
            rep = evt.blocks_theta(evt.exceedances(v, u), b)
            assert rep.count_exceed == counted

    def test_ties_at_the_level(self):
        v = np.asfortranarray(np.tile([2.0, 3.0], (200, 1)))
        u = np.array([2.0, 3.0])
        with _with_min(1):
            assert_estimators_match_dense(v, u, 1, 2)
            assert evt.exceedances(v, u).times.size == 0
            v[[7, 8, 150], 1] = np.nextafter(3.0, 4.0)
            assert_estimators_match_dense(v, u, 1, 2)
            np.testing.assert_array_equal(evt.exceedances(v, u).times,
                                          [7, 8, 150])
