"""Gapped-block exceedance point processes and Poisson diagnostics."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import evt, m4, pointproc
from subgauss.gausslin import SeriesMatrix, SpecError
from subgauss.m4 import IidPareto, M4Spec
from subgauss.pointproc import GapConfig, PointPattern


def equal_spec(nlags=4):
    return M4Spec(
        d=1,
        alpha=1.0,
        lags=(0, nlags - 1),
        a=np.ones((nlags, 1, 1)),
        innovation=IidPareto(alpha=1.0),
    )


def _poisson_patterns(rng, reps, lam):
    pats = []
    for _ in range(reps):
        k = rng.poisson(lam)
        pats.append(PointPattern(times=np.sort(rng.uniform(size=k))))
    return pats


def gapped_dense(e, cfg):
    """The gapped-block pattern from the full exceedance indicator e, as the
    package computed it before it read sorted exceedance times: the oracle
    of gapped_blocks."""
    n = len(e)
    r, p = cfg.r, cfg.p
    if n < r + p:
        raise SpecError("path shorter than one block-gap segment")
    nblocks = n // (r + p)
    trimmed = e[: nblocks * (r + p)].reshape(nblocks, r + p)
    hit = np.any(trimmed[:, :r], axis=1)
    j = np.nonzero(hit)[0] + 1
    times = j * (r + p) / n
    return PointPattern(times=times, blocks=j)


def assert_pattern_matches_dense(v, u, cfg):
    """gapped_blocks over the sorted exceedance times equals the dense
    oracle: times and block indices bit for bit, or the same exception."""
    e = np.any(np.reshape(v, (len(v), -1)) > u, axis=1)
    ex = evt.exceedances(v, u)
    try:
        want = gapped_dense(e, cfg)
    except SpecError as exc:
        with pytest.raises(SpecError, match=str(exc)):
            pointproc.gapped_blocks(ex, cfg)
        return
    got = pointproc.gapped_blocks(ex, cfg)
    for name in ("times", "blocks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestGapConfig:
    def test_rejects_small_blocks(self):
        with pytest.raises(SpecError):
            GapConfig(r=3, p=5, m=3)
        with pytest.raises(SpecError):
            GapConfig(r=10, p=1, m=3)


class TestGappedBlocks:
    def test_hand_placement(self):
        # n=12, r=2, p=2: blocks of 4; exceedance must land in the first 2
        vals = np.zeros((12, 1))
        vals[0, 0] = 9.0   # block 0, scanned part -> point
        vals[6, 0] = 9.0   # block 1, gap part -> no point
        vals[9, 0] = 9.0   # block 2, scanned part -> point
        Y = SeriesMatrix(values=vals)
        u = m4.ThresholdVector(n=12, tau=(1.0,), u=np.array([5.0]))
        pat = pointproc.gapped_blocks(evt.exceedances(Y, u),
                                      GapConfig(r=2, p=2, m=0))
        # points are stamped at the end of the hit block; indices are 1-based
        np.testing.assert_allclose(pat.times, [4.0 / 12.0, 1.0])
        np.testing.assert_array_equal(pat.blocks, [1, 3])

    def test_partial_trailing_block_dropped(self):
        vals = np.zeros((10, 1))
        vals[9, 0] = 9.0  # inside the incomplete final block
        Y = SeriesMatrix(values=vals)
        u = m4.ThresholdVector(n=10, tau=(1.0,), u=np.array([5.0]))
        pat = pointproc.gapped_blocks(evt.exceedances(Y, u),
                                      GapConfig(r=2, p=2, m=0))
        assert pat.count == 0

    def test_gap_values_ignored(self):
        rng = np.random.default_rng(0)
        vals = rng.pareto(1.0, size=(800, 1)) + 1.0
        Y = SeriesMatrix(values=vals)
        u = m4.ThresholdVector(n=800, tau=(1.0,), u=np.array([30.0]))
        cfg = GapConfig(r=6, p=2, m=0)
        base = pointproc.gapped_blocks(evt.exceedances(Y, u), cfg)
        jammed = vals.copy().reshape(100, 8, 1)
        jammed[:, 6:, :] = 1e9  # saturate every gap position
        pat = pointproc.gapped_blocks(evt.exceedances(
            SeriesMatrix(values=jammed.reshape(800, 1)), u), cfg)
        np.testing.assert_array_equal(pat.times, base.times)


    def test_exceedances_only_inside_gaps(self):
        # n=103, r=6, p=4: every gap row exceeds, no block row does; the
        # trailing partial segment (rows 100..102) exceeds too
        n, cfg = 103, GapConfig(r=6, p=4, m=0)
        v = np.zeros(n)
        v[(np.arange(n) % 10 >= 6) | (np.arange(n) >= 100)] = 9.0
        u = 5.0
        assert_pattern_matches_dense(v, u, cfg)
        assert pointproc.gapped_blocks(evt.exceedances(v, u), cfg).count == 0
        v[[0, 55]] = 9.0  # first rows of blocks 1 and 6
        assert_pattern_matches_dense(v, u, cfg)
        np.testing.assert_array_equal(
            pointproc.gapped_blocks(evt.exceedances(v, u), cfg).blocks, [1, 6])

    @pytest.mark.parametrize("rows", [[], [0], [11], [5, 11], [9, 10, 11]])
    def test_ties_and_the_last_row(self, rows):
        # samples exactly at u never count; n=12 with r=2, p=2 has no
        # trailing partial block, so an exceedance at row 11 sits in a gap
        v = np.full((12, 2), [5.0, 6.0])
        v[rows, 1] = np.nextafter(6.0, 7.0)
        assert_pattern_matches_dense(v, np.array([5.0, 6.0]),
                                     GapConfig(r=2, p=2, m=0))


class TestLambdaRp:
    def test_hand_values(self):
        # m=0: theta_0-run-free case collapses to r/(r+p) * (-log G)
        cfg = GapConfig(r=10, p=1, m=0)
        np.testing.assert_allclose(
            pointproc.lambda_rp([1.0], 1.0, -1.0, cfg), 10.0 / 11.0,
            rtol=1e-12,
        )
        cfg = GapConfig(r=50, p=5, m=3)
        lam = pointproc.lambda_rp([1.0, 0.25, 0.25, 0.25], 0.25,
                                  -1.0, cfg)
        np.testing.assert_allclose(lam, (47 / 55) * 0.25 + 1.5 / 55, rtol=1e-12)

    def test_large_r_tends_to_theta_logG(self):
        lam = pointproc.lambda_rp(
            [1.0, 0.25, 0.25, 0.25], 0.25, -1.0,
            GapConfig(r=100_000, p=5, m=3),
        )
        np.testing.assert_allclose(lam, 0.25, atol=1e-3)

    def test_rejects_bad_inputs(self):
        cfg = GapConfig(r=10, p=2, m=0)
        with pytest.raises(SpecError):
            pointproc.lambda_rp([1.0], 1.5, -1.0, cfg)
        with pytest.raises(SpecError):
            pointproc.lambda_rp([1.0], 0.5, 1.5, cfg)
        for log_G in (0.0, -0.0):  # G = 1: no tail weight
            with pytest.raises(SpecError, match="log G"):
                pointproc.lambda_rp([1.0], 1.0, log_G, cfg)


class TestPoissonDiagnostics:
    def test_accepts_true_poisson(self):
        rng = np.random.default_rng(5)
        pats = _poisson_patterns(rng, 800, 2.0)
        rep = pointproc.poisson_diagnostics(pats, 2.0)
        assert 0.9 < rep.dispersion_index < 1.1
        assert rep.ks_interarrival < 0.05
        assert rep.chi2_pvalue > 0.01
        assert not rep.degenerate

    def test_flags_clustered_counts(self):
        # doubled points: same count mean can't hide dispersion 2
        rng = np.random.default_rng(9)
        pats = []
        for _ in range(600):
            k = 2 * rng.poisson(1.0)
            pats.append(PointPattern(times=np.sort(rng.uniform(size=k))))
        rep = pointproc.poisson_diagnostics(pats, 2.0)
        assert rep.dispersion_index > 1.5

    def test_degenerate_zero_counts(self):
        pats = [PointPattern(times=np.empty(0)) for _ in range(300)]
        rep = pointproc.poisson_diagnostics(pats, 0.5)
        assert rep.degenerate

    def test_needs_200_reps(self):
        with pytest.raises(SpecError):
            pointproc.poisson_diagnostics(
                [PointPattern(times=np.empty(0))] * 100, 1.0
            )

    @staticmethod
    def _stats_report(patterns, lambda_target):
        """The report as scipy.stats computes it: kstest, poisson.ppf and
        poisson.pmf, and chisquare over the same gaps and binned counts."""
        from scipy import stats

        counts = np.array([p.count for p in patterns], dtype=float)
        mean = float(np.mean(counts))
        pooled = np.concatenate(
            [i + p.times for i, p in enumerate(patterns) if p.count])
        inter = np.diff(np.concatenate([[0.0], pooled]))
        ks = float(stats.kstest(inter, "expon",
                                args=(0.0, 1.0 / lambda_target)).statistic)
        binwidth = 1.0 / pointproc.BINS
        per_bin = np.concatenate(
            [np.bincount(np.minimum((p.times / binwidth).astype(int),
                                    pointproc.BINS - 1),
                         minlength=pointproc.BINS) for p in patterns])
        lam_bin = lambda_target * binwidth
        kmax = int(stats.poisson.ppf(1.0 - 1e-6, lam_bin)) + 1
        obs = np.bincount(np.minimum(per_bin, kmax),
                          minlength=kmax + 1).astype(float)
        pmf = stats.poisson.pmf(np.arange(kmax), lam_bin)
        expected = np.concatenate([pmf, [1.0 - pmf.sum()]]) * len(per_bin)
        keep = expected > 5.0
        obs_c = np.append(obs[keep], obs[~keep].sum())
        exp_c = np.append(expected[keep], expected[~keep].sum())
        if exp_c[-1] == 0.0:
            obs_c, exp_c = obs_c[:-1], exp_c[:-1]
        obs_c = obs_c * (exp_c.sum() / obs_c.sum())
        chi2, pval = stats.chisquare(obs_c, exp_c)
        return pointproc.PoissonReport(
            mean, float(np.var(counts, ddof=1) / mean), ks, float(chi2),
            float(pval))

    @pytest.mark.parametrize("seed, reps, lam, doubled, lambda_targets", [
        pytest.param(1, 200, 0.02, False, (0.02, 0.5), id="sparse"),
        pytest.param(2, 300, 0.3, False, (0.3, 0.1, 1.0), id="thin"),
        pytest.param(3, 400, 2.0, False, (2.0, 1.7, 2.6), id="poisson"),
        pytest.param(4, 250, 12.0, False, (12.0, 30.0), id="dense"),
        pytest.param(5, 600, 1.0, True, (2.0,), id="clustered"),
    ])
    def test_closed_forms_equal_scipy_stats(self, seed, reps, lam, doubled,
                                            lambda_targets):
        rng = np.random.default_rng(seed)
        pats = [PointPattern(times=np.sort(rng.uniform(
            size=(2 if doubled else 1) * rng.poisson(lam))))
            for _ in range(reps)]
        assert any(p.count for p in pats)
        for target in lambda_targets:
            assert (pointproc.poisson_diagnostics(pats, target)
                    == self._stats_report(pats, target))

    def test_json_report_keys(self):
        rng = np.random.default_rng(2)
        rep = pointproc.poisson_diagnostics(
            _poisson_patterns(rng, 300, 1.0), 1.0
        )
        assert set(asdict(rep)) == {
            "mean_count",
            "dispersion_index",
            "ks_interarrival",
            "chi2_counts",
            "chi2_pvalue",
            "degenerate",
        }


class TestCsvExport:
    def test_header_and_rows(self):
        pats = [
            PointPattern(times=np.array([0.25, 0.5]), blocks=np.array([3, 6])),
            PointPattern(times=np.empty(0)),
            PointPattern(times=np.array([0.125])),
        ]
        out = pointproc.patterns_to_csv(dict(enumerate(pats)))
        lines = out.strip().splitlines()
        assert lines[0] == "replication,block_index,time"
        assert lines[1] == "0,3,0.25"
        assert lines[2] == "0,6,0.5"
        assert lines[3] == "2,1,0.125"


@given(
    seed=st.integers(0, 2**16),
    r=st.integers(2, 20),
    p=st.integers(1, 10),
)
@settings(max_examples=25, deadline=None)
def test_pattern_times_valid(seed, r, p):
    rng = np.random.default_rng(seed)
    n = 40 * (r + p)
    vals = rng.pareto(1.0, size=(n, 1)) + 1.0
    Y = SeriesMatrix(values=vals)
    u = m4.ThresholdVector(n=n, tau=(1.0,), u=np.array([15.0]))
    pat = pointproc.gapped_blocks(evt.exceedances(Y, u),
                                  GapConfig(r=r, p=p, m=0))
    assert np.all(np.diff(pat.times) > 0)
    assert np.all((pat.times >= 0) & (pat.times <= 1.0))
    assert pat.count <= n // (r + p)


@given(
    n=st.integers(1, 300),
    r=st.integers(1, 12),
    p=st.integers(0, 8),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_pattern_equals_dense_oracle(n, r, p, data):
    # small integers against integer levels put many samples exactly at u
    d = data.draw(st.sampled_from([1, 2]))
    vals = data.draw(st.lists(st.integers(0, 4), min_size=n * d,
                              max_size=n * d))
    v = np.asfortranarray(np.reshape(np.array(vals, dtype=float), (n, d)))
    u = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                    min_size=d, max_size=d)))
    assert_pattern_matches_dense(v, u, GapConfig(r=r, p=p, m=0))
