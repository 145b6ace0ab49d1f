"""Empirical extreme-value estimators: maxima rates, cluster indexes, the
anti-clustering statistic, and the extremal-independence scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import chaos, evt, gausslin, harness, m4
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.m4 import IidPareto, M4Spec


def iid_fn(n, d=1):
    def fn(seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        return SeriesMatrix(values=rng.pareto(1.0, size=(n, d)) + 1.0, meta={})

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
        Y = m4.path(equal_spec(), 50_000, 1)
        u = m4.thresholds(equal_spec(), 50_000, (200.0,))
        rep = evt.runs_theta(Y, u, 0)
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
        assert evt.runs_theta(Y, u, 5).estimate > 0.9
        # blocks estimator biases low as per-block occupancy saturates,
        # so keep the expected count per block well under one
        assert evt.blocks_theta(Y, u, 100).estimate > 0.85

    def test_moving_maxima_quarter(self):
        spec = equal_spec()
        n = 200_000
        Y = m4.path(spec, n, 11)
        u = m4.thresholds(spec, n, (800.0,))
        rep = evt.runs_theta(Y, u, 3)
        assert abs(rep.estimate - 0.25) < 0.03
        brep = evt.blocks_theta(Y, u, 200)
        assert abs(brep.estimate - 0.25) < 0.06

    def test_insufficient_exceedances(self):
        spec = equal_spec()
        Y = m4.path(spec, 1000, 1)
        u = m4.thresholds(spec, 1000, (1.0,))
        with pytest.raises(evt.InsufficientExceedances):
            evt.runs_theta(Y, u, 3)

    def test_blocks_needs_enough_blocks(self):
        spec = equal_spec()
        Y = m4.path(spec, 1000, 1)
        u = m4.thresholds(spec, 1000, (100.0,))
        with pytest.raises(SpecError):
            evt.blocks_theta(Y, u, 500)

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
        rep = evt.runs_theta(Y, u, 2)
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
        rep = evt.runs_theta(v, u, m)
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
        assert evt.runs_theta(v, 1.0, n - 1).estimate == clear / base


class TestDPrime:
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
        (stats,), joint = evt.dprime_path(v, u, [3])
        e = v > u
        pairs = [int(np.sum(e[:-j] & e[j:])) for j in range(1, 101)]
        assert joint == sum(pairs)
        want = 300 * sum(c / (300 - j) for j, c in enumerate(pairs, 1))
        np.testing.assert_allclose(stats, want, rtol=1e-12)


class TestScan:
    def test_bound_column_uses_hyper_bound(self):
        rng = np.random.default_rng(6)
        rho = 0.5
        z1 = rng.normal(size=400_000)
        z2 = rho * z1 + np.sqrt(1 - rho**2) * rng.normal(size=400_000)
        rows = evt.extremal_independence_scan(z1, z2, [1.0, 2.0], rho)
        for r in rows:
            np.testing.assert_allclose(
                r.bound, chaos.joint_tail_bound(r.Fbar, rho)
            )
            # at these mild levels the bound holds with room to spare
            assert r.joint_exceed <= r.bound + 4 * r.joint_stderr

    def test_length_mismatch(self):
        with pytest.raises(SpecError):
            evt.extremal_independence_scan(
                np.zeros(3), np.zeros(4), [1.0], 0.0
            )


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
        rep = evt.runs_theta(Y, u, m)
    except evt.InsufficientExceedances:
        return
    assert 0.0 <= rep.estimate <= 1.0
    if m:
        clear, base = runs_reference(np.any(Y.values > u.u, axis=1), m)
        assert (rep.estimate, rep.count_exceed) == (clear / base, base)
