"""Acceptance experiments E1-E8.

Each test runs one experiment end to end at its stated scale and tolerance
and emits exactly one PASS/FAIL line on the terminal (bypassing capture).
E1-E5 run the shipped configs in configs/ through the replication engine.
"""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from subgauss import chaos, gausslin, harness, m4, pointproc, subordinate
from subgauss.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _cfg(stem):
    return ExperimentConfig.from_json((CONFIGS / f"{stem}.json").read_text())


def _emit(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{name}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def e2_theta_hats():
    """runs_theta(m=0..3) averaged over the e2_runs replications; reused by
    E2 (m=3 entry) and E5 (plug-in intensities).

    e2_runs estimates at tau=500: the extremal index does not depend on tau
    in one dimension, and tau=1 would leave ~1 exceedance per path.
    """
    summary = harness.run(_cfg("e2_runs"))
    return [summary["analyses"][f"{m}:runs"]["estimate"] for m in range(4)]


def test_e1_iid_baseline(capsys):
    cfg = _cfg("e1")
    p = harness.run(cfg)["analyses"]["0:nonexceed"]["p_hat"]
    want = (1 - 1 / cfg.n) ** cfg.n
    err = abs(p - want)
    _emit(capsys, "E1", err <= 0.016,
          f"iid nonexceed p_hat={p:.4f} target={want:.4f} |err|={err:.4f} "
          f"tol=0.016")


def test_e2_extremal_index_quarter(capsys, e2_theta_hats):
    theta3 = e2_theta_hats[3]
    p = harness.run(_cfg("e2"))["analyses"]["0:nonexceed"]["p_hat"]
    want = math.exp(-0.25)
    ok = abs(theta3 - 0.25) <= 0.05 and abs(p - want) <= 0.03
    _emit(capsys, "E2", ok,
          f"runs theta_hat={theta3:.4f} (target 0.25±0.05); "
          f"nonexceed p_hat={p:.4f} (target {want:.4f}±0.03)")


def test_e3_bivariate_limit(capsys):
    details = []
    ok = True
    for stem in ("e3", "e3b"):
        cfg = _cfg(stem)
        spec = harness._build_generator(cfg).spec
        p = harness.run(cfg)["analyses"]["0:nonexceed"]["p_hat"]
        want = m4.G_limit(spec, cfg.tau) ** m4.theta(spec, cfg.tau)
        ok = ok and abs(p - want) <= 0.03
        details.append(f"tau={tuple(cfg.tau)}: p_hat={p:.4f} "
                       f"target={want:.4f}")
    _emit(capsys, "E3", ok, "; ".join(details) + " (tol 0.03)")


def test_e4_truncation(capsys):
    cfg = _cfg("e4")
    gen = harness._build_generator(cfg)
    spec = gen.spec

    def nonexceed(m_trunc):
        # common random numbers: both builds share the base seed
        path_fn = functools.partial(m4.path, spec, cfg.n, m_trunc=m_trunc)
        entries, _, _ = harness.replicate(gen._replace(path_fn=path_fn),
                                          cfg.analyses, cfg.reps, cfg.base_seed)
        return entries["0:nonexceed"]["p_hat"], entries["0:nonexceed"]["ci_halfwidth"]

    p_f, ci_f = nonexceed(None)
    p_t, ci_t = nonexceed(1)
    gap = abs(p_f - p_t)
    tol = 0.02 + 2 * math.sqrt(ci_f**2 + ci_t**2)
    # hand values for the truncated extremal index (full normalizer kept)
    prof = [m4.theta_2m(spec, cfg.tau, mt) for mt in range(1, 6)]
    want_m1 = (1 / 2.05 + 1.0) / (2 / 2.05 + 1.0)
    want_full = (1 / 2.05 + 1.0) / 2.0
    exact = (
        abs(prof[0] - want_m1) < 1e-12
        and abs(prof[-1] - want_full) < 1e-12
        and abs(m4.theta(spec, cfg.tau) - want_full) < 1e-12
        and all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))
    )
    ok = gap <= tol and exact
    _emit(capsys, "E4", ok,
          f"|p_full-p_trunc|={gap:.4f} tol={tol:.4f}; theta_2m profile "
          f"{prof[0]:.6f}->{prof[-1]:.6f} matches hand values={exact}")


def test_e5_point_process(capsys, e2_theta_hats):
    cfg = _cfg("e5")
    (a,) = cfg.analyses
    gc = pointproc.GapConfig(a["r"], a["p"], a["m"])
    lam = pointproc.lambda_rp(e2_theta_hats, e2_theta_hats[3],
                              math.exp(-1.0), gc)
    cfg = dataclasses.replace(cfg, analyses=({**a, "lambda_target": lam},))
    rep = harness.run(cfg)["analyses"]["0:pointproc"]
    rel = abs(rep["mean_count"] - lam) / lam
    ok = (
        0.85 <= rep["dispersion_index"] <= 1.15
        and rel <= 0.10
        and rep["ks_interarrival"] < 0.08
    )
    _emit(capsys, "E5", ok,
          f"dispersion={rep['dispersion_index']:.3f} (0.85..1.15); "
          f"mean={rep['mean_count']:.4f} vs lambda={lam:.4f} "
          f"(rel err {rel:.3f} ≤ 0.10); KS={rep['ks_interarrival']:.4f} < 0.08")


def test_e6_decay_profile(capsys):
    spec = gausslin.LinearProcessSpec(
        d0=1, family=gausslin.LogBoundary(q=2.0, B=np.eye(1)), L=200_000
    )
    t = gausslin.make_coeffs(spec)
    prof = gausslin.berman_profile(t, 100_000)
    h = np.arange(2, 2 + len(prof))
    window = prof[(h >= 1000) & (h <= 100_000)]
    nonincreasing = bool(np.all(np.diff(window) <= 1e-12))
    ratio = window[-1] / window[0]
    ok = nonincreasing and ratio < 0.5
    _emit(capsys, "E6", ok,
          f"profile nonincreasing on [1e3,1e5]={nonincreasing}; "
          f"final/initial={ratio:.4f} < 0.5")


# E7(c): correlation, marginal tail P(Y > level) and Monte Carlo sample size
E7_RHO, E7_FBAR, E7_NSAMP = 0.5, 1e-3, 10_000_000


def _e7_exact_joint(rho, fbar):
    """P(|X1| > x, |X2| > x) at x = ndtri(1 - fbar/2): the joint tail of the
    folded-Pareto transformed bivariate normal with correlation rho."""
    x = float(ndtri(1.0 - fbar / 2.0))
    return 2.0 * (chaos.bvn_joint_tail(rho, x) + chaos.bvn_joint_tail(-rho, x))


def _e7_joint_gate(joint, exact, nsamp):
    """Two-sided: the estimate lies within 4 se of the exact joint tail."""
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    z = (joint - exact) / se
    return abs(z) <= 4.0, z


def test_e7_inequalities(capsys):
    # (a) hypercontractivity over the catalog x a-grid
    catalog = [
        chaos.CatalogFn("exp", 0.7),
        chaos.CatalogFn("exp", -0.4),
        chaos.CatalogFn("indicator", 1.0),
        chaos.CatalogFn("indicator", -0.5),
        chaos.CatalogFn("poly", (0.0, 1.0, 0.5)),
        chaos.CatalogFn("abs"),
    ]
    hyper_ok = True
    for f in catalog:
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            lhs, rhs = chaos.hypercontractivity_check(f, a)
            hyper_ok = hyper_ok and lhs <= rhs + 1e-9

    # (b) canonical correlation vs alternating-ascent direction search
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        d1, d2 = rng.integers(1, 4, 2)
        M = rng.normal(size=(d1 + d2, d1 + d2 + 2))
        C = M @ M.T / (d1 + d2 + 2)
        c11, c22, c12 = C[:d1, :d1], C[d1:, d1:], C[:d1, d1:]
        val = chaos.canonical_correlation(
            chaos.GaussianBlockPair(c11, c22, c12)
        )
        best = 0.0
        for _ in range(4):
            v = rng.normal(size=d2)
            for _ in range(400):
                uvec = np.linalg.solve(c11, c12 @ v)
                uvec /= math.sqrt(uvec @ c11 @ uvec)
                v = np.linalg.solve(c22, c12.T @ uvec)
                v /= math.sqrt(v @ c22 @ v)
            best = max(best, abs(uvec @ c12 @ v))
        worst = max(worst, abs(val - best))
    cca_ok = worst <= 1e-4

    # (c) joint exceedance of the folded-pareto transformed bivariate normal
    rho, fbar, nsamp = E7_RHO, E7_FBAR, E7_NSAMP
    psi0 = ((1.0, 0.0), (rho, math.sqrt(1 - rho**2)))
    table = gausslin.make_coeffs(
        gausslin.LinearProcessSpec(d0=2, family=gausslin.Custom((psi0,)), L=0)
    )
    X = gausslin.simulate(table, nsamp, 1007)
    part = subordinate.Part(kind="folded_pareto", alpha=1.0)
    tr = subordinate.WindowTransform(
        m=0,
        parts=(
            subordinate.Part(kind="folded_pareto", coord=0, alpha=1.0),
            subordinate.Part(kind="folded_pareto", coord=1, alpha=1.0),
        ),
    )
    Y = subordinate.apply(X, tr).values
    level = fbar ** (-1.0)  # marginal_tail(u) = 1/u for alpha=1
    joint = float(np.mean((Y[:, 0] > level) & (Y[:, 1] > level)))
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    bound = chaos.joint_tail_bound(fbar, rho)
    tail_ok = joint <= bound + 4 * se
    exact_ok, z = _e7_joint_gate(joint, _e7_exact_joint(rho, fbar), nsamp)

    ok = hyper_ok and cca_ok and tail_ok and exact_ok
    _emit(capsys, "E7", ok,
          f"hypercontractivity holds={hyper_ok}; cca max gap={worst:.2e} "
          f"≤ 1e-4; joint={joint:.2e} ≤ bound={bound:.2e}+4se; "
          f"exact joint z={z:+.2f} (|z| ≤ 4)")


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_e7_exact_gate_rejects_weaker_dependence(rho):
    # negative control, no paths drawn: the exact joint tail at a smaller
    # correlation (rho = 0: independent columns) taken as the estimate
    exact = _e7_exact_joint(E7_RHO, E7_FBAR)
    weaker = _e7_exact_joint(rho, E7_FBAR)
    assert weaker <= chaos.joint_tail_bound(E7_FBAR, E7_RHO)  # one-sided passes
    assert not _e7_joint_gate(weaker, exact, E7_NSAMP)[0]
    assert _e7_joint_gate(exact, exact, E7_NSAMP)[0]


def test_e8_anticlustering(capsys):
    n, tau, reps = 20_000, 5.0, 200
    k_list = [2, 4, 8, 16]
    spec = gausslin.LinearProcessSpec(
        d0=1, family=gausslin.LogBoundary(q=2.0, B=np.eye(1)), L=5000
    )
    table = gausslin.make_coeffs(spec)
    tr = subordinate.WindowTransform(
        m=0, parts=(subordinate.Part(kind="pareto", coord=0, alpha=1.0),)
    )
    gauss = subordinate.GaussianSource(table)
    pareto = subordinate.GaussianSource(table, tr)

    def iid_fn(seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        return gausslin.SeriesMatrix(values=rng.normal(size=(n, 1)), meta={})

    def dprime(fn, level):
        u = m4.ThresholdVector(n=n, tau=(tau,), u=np.array([level]))
        entries, _, _ = harness.replicate(
            harness.Generator(fn, u=u), [{"type": "dprime", "k_list": k_list}],
            reps, 88)
        rep = entries["0:dprime"]
        return ([rep["stats"][str(k)] for k in k_list],
                [rep["stderr"][str(k)] for k in k_list])

    u_g = float(ndtri(1 - tau / n))
    u_p = n / tau
    mono_ok = True
    for source, u in ((gauss, u_g), (pareto, u_p)):
        vals, ses = dprime(functools.partial(source.path, n), u)
        for (a, sa), (b, sb) in zip(zip(vals, ses), zip(vals[1:], ses[1:])):
            mono_ok = mono_ok and a >= b - 2 * math.hypot(sa, sb)
    vals, ses = dprime(iid_fn, u_g)
    ctrl_ok = all(
        abs(v - tau**2 / k) <= 3 * se for v, se, k in zip(vals, ses, k_list)
    )
    ok = mono_ok and ctrl_ok
    _emit(capsys, "E8", ok,
          f"nonincreasing within 2 se={mono_ok}; iid control matches "
          f"tau^2/k within 3 se={ctrl_ok}")
