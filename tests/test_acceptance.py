"""Acceptance experiments E1-E8.

Each test runs one experiment end to end at its stated scale and tolerance
and emits exactly one PASS/FAIL line on the terminal (bypassing capture).
The experiments are the shipped configs in configs/: every path, threshold,
table and sample size comes from a config, through `harness.run` or the
generator builder it uses (E4 hands its truncated build to the engine
directly). E7's hypercontractivity and canonical-correlation checks draw no
path. Every `harness.run` writes its files to a temporary directory, and
their sha256 must match tests/golden/shipped_sha256.json, so the suite pins
the bytes of each config it runs at no extra draw.
"""

import dataclasses
import functools
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from subgauss import chaos, gausslin, harness, m4, pointproc, subordinate
from subgauss.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHA256 = Path(__file__).resolve().parent / "golden" / "shipped_sha256.json"


def _cfg(stem):
    return ExperimentConfig.from_json((CONFIGS / f"{stem}.json").read_text())


def _run(stem, out_dir, cfg=None):
    """harness.run on configs/<stem>.json, or on cfg, a variant of it, with
    its files written to out_dir/<stem>; each file's sha256 must match the
    golden's entry for stem."""
    out = Path(out_dir) / stem
    summary = harness.run(cfg or _cfg(stem), str(out))
    golden = json.loads(SHA256.read_text())
    want = golden["outputs"][stem]
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir())}
    versions = {"python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__}
    assert sorted(got) == sorted(want), \
        f"config {stem}: wrote {sorted(got)}, the golden lists {sorted(want)}"
    for name, digest in want.items():
        assert got[name] == digest, (
            f"config {stem}: {name} has sha256 {got[name]}, not the golden "
            f"{digest} (golden recorded with {golden['versions']}, this run "
            f"has {versions})")
    return summary


def _emit(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{name}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def e2_theta_hats(tmp_path_factory):
    """runs_theta(m=0..3) averaged over the e2_runs replications; reused by
    E2 (m=3 entry) and E5 (plug-in intensities).

    e2_runs estimates at tau=500: the extremal index does not depend on tau
    in one dimension, and tau=1 would leave ~1 exceedance per path.
    """
    summary = _run("e2_runs", tmp_path_factory.mktemp("e2_runs"))
    return [summary["analyses"][f"{m}:runs"]["estimate"] for m in range(4)]


def test_e1_iid_baseline(capsys, tmp_path):
    cfg = _cfg("e1")
    p = _run("e1", tmp_path)["analyses"]["0:nonexceed"]["p_hat"]
    want = (1 - 1 / cfg.n) ** cfg.n
    err = abs(p - want)
    _emit(capsys, "E1", err <= 0.016,
          f"iid nonexceed p_hat={p:.4f} target={want:.4f} |err|={err:.4f} "
          f"tol=0.016")


def test_e2_extremal_index_quarter(capsys, tmp_path, e2_theta_hats):
    theta3 = e2_theta_hats[3]
    p = _run("e2", tmp_path)["analyses"]["0:nonexceed"]["p_hat"]
    want = math.exp(-0.25)
    ok = abs(theta3 - 0.25) <= 0.05 and abs(p - want) <= 0.03
    _emit(capsys, "E2", ok,
          f"runs theta_hat={theta3:.4f} (target 0.25±0.05); "
          f"nonexceed p_hat={p:.4f} (target {want:.4f}±0.03)")


def test_e3_bivariate_limit(capsys, tmp_path):
    details = []
    ok = True
    for stem in ("e3", "e3b"):
        cfg = _cfg(stem)
        spec = harness._build_generator(cfg).spec
        p = _run(stem, tmp_path)["analyses"]["0:nonexceed"]["p_hat"]
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


def test_e5_point_process(capsys, tmp_path, e2_theta_hats):
    cfg = _cfg("e5")
    (a,) = cfg.analyses
    gc = pointproc.GapConfig(a["r"], a["p"], a["m"])
    lam = pointproc.lambda_rp(e2_theta_hats, e2_theta_hats[3],
                              math.exp(-1.0), gc)
    cfg = dataclasses.replace(cfg, analyses=({**a, "lambda_target": lam},))
    rep = _run("e5", tmp_path, cfg)["analyses"]["0:pointproc"]
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
    table = harness._build_generator(_cfg("e6")).spec.table
    prof = gausslin.berman_profile(table, 100_000)
    h = np.arange(2, 2 + len(prof))
    window = prof[(h >= 1000) & (h <= 100_000)]
    nonincreasing = bool(np.all(np.diff(window) <= 1e-12))
    ratio = window[-1] / window[0]
    ok = nonincreasing and ratio < 0.5
    _emit(capsys, "E6", ok,
          f"profile nonincreasing on [1e3,1e5]={nonincreasing}; "
          f"final/initial={ratio:.4f} < 0.5")


def _e7():
    """E7(c)'s config, its correlation rho and the marginal tail
    P(Y > level) of its scan level; draws no path."""
    cfg = _cfg("e7")
    (a,) = cfg.analyses
    (level,) = a["levels"]
    part = harness._build_generator(cfg).spec.transform.parts[0]
    return cfg, a["rho"], subordinate.marginal_tail(part, level)


def _e7_joint_gate(joint, exact, nsamp):
    """Two-sided: the estimate lies within 4 se of the exact joint tail."""
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    z = (joint - exact) / se
    return abs(z) <= 4.0, z


def test_e7_inequalities(capsys, tmp_path):
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
    cfg, rho, fbar = _e7()
    (row,) = _run("e7", tmp_path)["analyses"]["0:scan"]
    joint, nsamp = row["joint_exceed"], cfg.n
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    bound = chaos.joint_tail_bound(fbar, rho)
    tail_ok = joint <= bound + 4 * se
    exact_ok, z = _e7_joint_gate(joint, chaos.folded_joint_tail(rho, fbar),
                                 nsamp)

    ok = hyper_ok and cca_ok and tail_ok and exact_ok
    _emit(capsys, "E7", ok,
          f"hypercontractivity holds={hyper_ok}; cca max gap={worst:.2e} "
          f"≤ 1e-4; joint={joint:.2e} ≤ bound={bound:.2e}+4se; "
          f"exact joint z={z:+.2f} (|z| ≤ 4)")


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_e7_exact_gate_rejects_weaker_dependence(rho):
    # negative control, no paths drawn: the exact joint tail at a smaller
    # correlation (rho = 0: independent columns) taken as the estimate
    cfg, e7_rho, fbar = _e7()
    exact = chaos.folded_joint_tail(e7_rho, fbar)
    weaker = chaos.folded_joint_tail(rho, fbar)
    assert weaker <= chaos.joint_tail_bound(fbar, e7_rho)  # one-sided passes
    assert not _e7_joint_gate(weaker, exact, cfg.n)[0]
    assert _e7_joint_gate(exact, exact, cfg.n)[0]


def _dprime(stem, out_dir):
    """tau, k_list and the dprime means and standard errors of a config."""
    cfg = _cfg(stem)
    (a,) = cfg.analyses
    rep = _run(stem, out_dir)["analyses"]["0:dprime"]
    ks = a["k_list"]
    return (cfg.tau[0], ks, [rep["stats"][str(k)] for k in ks],
            [rep["stderr"][str(k)] for k in ks])


def test_e8_anticlustering(capsys, tmp_path):
    mono_ok = True
    for stem in ("e8_gauss", "e8_pareto"):
        _, _, vals, ses = _dprime(stem, tmp_path)
        for (a, sa), (b, sb) in zip(zip(vals, ses), zip(vals[1:], ses[1:])):
            mono_ok = mono_ok and a >= b - 2 * math.hypot(sa, sb)
    tau, k_list, vals, ses = _dprime("e8_iid", tmp_path)
    ctrl_ok = all(
        abs(v - tau**2 / k) <= 3 * se for v, se, k in zip(vals, ses, k_list)
    )
    ok = mono_ok and ctrl_ok
    _emit(capsys, "E8", ok,
          f"nonincreasing within 2 se={mono_ok}; iid control matches "
          f"tau^2/k within 3 se={ctrl_ok}")
