"""Acceptance experiments E1-E8.

Each test runs one experiment end to end at its stated scale and tolerance
and emits exactly one PASS/FAIL line on the terminal (bypassing capture).
The experiments are the shipped configs in configs/: every path, threshold,
table and sample size comes from a config, through `harness.run` or the
generator builder it uses (E4 hands its truncated build to the engine
directly). E7's hypercontractivity and canonical-correlation checks draw no
path. Every config draws an M4: E6, E7 and E8's subordinated Gaussians are
M4s of lags [0, 0] and a diagonal `a` over a `subgauss` innovation. Every
`harness.run` writes its files to a temporary directory, and their sha256
must match tests/golden/shipped_sha256.json, so the suite pins the bytes of
each config it runs at no extra draw; replication 0's draw (its dense
innovations) and exceedance times are pinned in
tests/golden/draw_sha256.json (e7's from the draw its run makes, so that
its 1e7-row path is drawn once). Each gate's target comes
from `harness.targets` on its config, except E1's exact finite-n law, E4's
hand values and E7(c)'s exact tail, which say why where they are used.
"""

import dataclasses
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from subgauss import chaos, evt, gausslin, harness, m4, pointproc
from subgauss.gausslin import SeriesMatrix
from subgauss.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHA256 = Path(__file__).resolve().parent / "golden" / "shipped_sha256.json"
DRAW_SHA256 = Path(__file__).resolve().parent / "golden" / "draw_sha256.json"
DRAWN_STEMS = ("e1", "e2", "e2_runs", "e3", "e3b", "e4", "e5", "e7",
               "e8_gauss", "e8_iid")


def _cfg(stem):
    return ExperimentConfig.from_json((CONFIGS / f"{stem}.json").read_text())


def _targets(stem):
    """The closed-form limits of configs/<stem>.json's analyses, keyed as
    its summary's; draws no path."""
    return harness.targets(_cfg(stem))


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


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _draw_digests(stem, draw=None):
    """The sha256 of replication 0's draw, its dense innovations (float64,
    row-major), and of its exceedance times (int64) as the run reads them,
    for configs/<stem>.json; the times must equal those of the path built
    over the innovations. draw is replication 0's m4.Draw when a run has
    drawn it already, else it is drawn here; either way the innovations are
    the lift of its base draw, so no path is drawn twice."""
    cfg = _cfg(stem)
    gen = harness._build_generator(cfg)
    if draw is None:
        draw = gen.path_fn(cfg.base_seed ^ 0)
    times = evt.m4_exceedances(draw, gen.u).times
    W = SeriesMatrix(values=m4.lift(gen.spec, draw.V))
    built = evt.exceedances(m4.build(W, gen.spec), gen.u).times
    np.testing.assert_array_equal(times, built)
    return {"innovations": _sha256(W.values),
            "times": _sha256(times.astype(np.int64)),
            "count": int(times.size)}


@pytest.fixture(scope="module")
def e7_run(tmp_path_factory):
    """harness.run's summary for e7, and the draw digests of the replication
    0 that the run itself draws: E7(c) and e7's draw pin share one draw of
    the 1e7-row path."""
    build, drawn = harness._build_generator, {}

    def recording(cfg):
        gen = build(cfg)

        def path_fn(seed):
            drawn[seed] = gen.path_fn(seed)
            return drawn[seed]
        return gen._replace(path_fn=path_fn)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_build_generator", recording)
        summary = _run("e7", tmp_path_factory.mktemp("e7"))
    return summary, _draw_digests("e7", drawn.pop(_cfg("e7").base_seed ^ 0))


@pytest.mark.parametrize("stem", DRAWN_STEMS)
def test_replication_zero_draw_bytes(stem, request):
    # pins the draw itself, not only what the run writes: a drift in the
    # draw or the exceedance times that flips no summary byte shows here.
    # e7's digests come from the draw of its run
    golden = json.loads(DRAW_SHA256.read_text())
    got = (request.getfixturevalue("e7_run")[1] if stem == "e7" else
           _draw_digests(stem))
    assert got == golden["draws"][stem], (
        f"config {stem}: replication 0's draw differs from the golden "
        f"(recorded with {golden['versions']})")


# The sha256 of replication 0's standardized Gaussian rows X / sd (float64,
# row-major) under e8_gauss's and e8_iid's Pareto innovations: D' reads
# the Gaussian column through an increasing map, so these rows and the
# Gaussian-scale level ndtri(1 - tau / n) give the same exceedance times.
E8_GAUSSIAN_ROWS = {
    "e8_gauss":
        "de21c074649dad944c7138627ad3dbe6a7f97bf96b910a874c657bc13c0b9b0c",
    "e8_iid":
        "91aac006d32c0f6266e1a4a528665c65d702fff0385473b181dfe5e58877ad4f",
}


@pytest.mark.parametrize("stem", sorted(E8_GAUSSIAN_ROWS))
def test_e8_standardized_gaussian_rows(stem):
    cfg = _cfg(stem)
    spec = harness._build_generator(cfg).spec
    X = m4.base(spec, cfg.n, cfg.base_seed ^ 0) / spec.innovation.sd
    assert _sha256(X) == E8_GAUSSIAN_ROWS[stem]


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


@pytest.fixture(scope="module")
def e2_p_hat(tmp_path_factory):
    """E2's non-exceedance rate; shared by E2 and its negative control."""
    summary = _run("e2", tmp_path_factory.mktemp("e2"))
    return summary["analyses"]["0:nonexceed"]["p_hat"]


@pytest.fixture(scope="module")
def e3_p_hats(tmp_path_factory):
    """The non-exceedance rates of e3 and e3b; shared by E3 and its negative
    control."""
    out = tmp_path_factory.mktemp("e3")
    return {stem: _run(stem, out)["analyses"]["0:nonexceed"]["p_hat"]
            for stem in ("e3", "e3b")}


def _e1_gate(p, n):
    """E1: the non-exceedance rate within 0.016 of (1 - 1/n)^n, the exact
    law of an i.i.d. path of n steps, not a limit: no target. Returns (ok,
    that law, |err|)."""
    want = (1 - 1 / n) ** n
    err = abs(p - want)
    return err <= 0.016, want, err


def test_e1_iid_baseline(capsys, tmp_path):
    cfg = _cfg("e1")
    p = _run("e1", tmp_path)["analyses"]["0:nonexceed"]["p_hat"]
    ok, want, err = _e1_gate(p, cfg.n)
    _emit(capsys, "E1", ok,
          f"iid nonexceed p_hat={p:.4f} target={want:.4f} |err|={err:.4f} "
          f"tol=0.016")


def test_e1_gate_rejects_paired_innovations(monkeypatch):
    # negative control at E1's seed and scale: with each odd row of the
    # base draw's Philox words a copy of the even one before it, a path of
    # n steps holds n/2 independent values, so p_hat is near
    # (1 - 1/n)^(n/2) = 0.607 against the i.i.d. 0.368, and E1's gate must
    # fail
    base = m4.base

    def paired(spec, n, seed):
        V = base(spec, n, seed)
        V[1::2] = V[:-1:2]
        return V

    monkeypatch.setattr(m4, "base", paired)
    cfg = _cfg("e1")
    p = harness.run(cfg)["analyses"]["0:nonexceed"]["p_hat"]
    assert not _e1_gate(p, cfg.n)[0]
    assert abs(p - (1 - 1 / cfg.n) ** (cfg.n / 2)) <= 0.016


def _e2_gate(theta3, p):
    """E2: the runs estimate at m = 3 within 0.05 of its runs limit, and the
    non-exceedance rate within 0.03 of G^theta. Returns (ok, both targets)."""
    theta = _targets("e2_runs")["3:runs"]["theta"]
    want = _targets("e2")["0:nonexceed"]["limit"]
    return abs(theta3 - theta) <= 0.05 and abs(p - want) <= 0.03, theta, want


def test_e2_extremal_index_quarter(capsys, e2_theta_hats, e2_p_hat):
    theta3, p = e2_theta_hats[3], e2_p_hat
    ok, theta, want = _e2_gate(theta3, p)
    _emit(capsys, "E2", ok,
          f"runs theta_hat={theta3:.4f} (target {theta:g}±0.05); "
          f"nonexceed p_hat={p:.4f} (target {want:.4f}±0.03)")


def _e3_gate(stem, p):
    """E3: the non-exceedance rate within 0.03 of G^theta. Returns (ok,
    target)."""
    want = _targets(stem)["0:nonexceed"]["limit"]
    return abs(p - want) <= 0.03, want


def test_e3_bivariate_limit(capsys, e3_p_hats):
    details = []
    ok = True
    for stem in ("e3", "e3b"):
        cfg = _cfg(stem)
        p = e3_p_hats[stem]
        stem_ok, want = _e3_gate(stem, p)
        ok = ok and stem_ok
        details.append(f"tau={tuple(cfg.tau)}: p_hat={p:.4f} "
                       f"target={want:.4f}")
    _emit(capsys, "E3", ok, "; ".join(details) + " (tol 0.03)")


@pytest.mark.parametrize("unclustered", [False, True],
                         ids=["real-targets", "theta-forced-to-1"])
def test_e2_e3_gates_reject_an_unclustered_limit(monkeypatch, e2_theta_hats,
                                                 e2_p_hat, e3_p_hats,
                                                 unclustered):
    # negative control on the same p_hats, no path drawn: with theta forced
    # to 1 in the targets, the limit G^theta is the i.i.d. one, G, so E2's
    # target reads 0.368 against p_hat 0.770 (0.779 with the real theta),
    # e3's 0.135 against 0.229 (0.223) and e3b's 0.223 against 0.371
    # (0.368), and each gate must fail; with the real targets each passes
    if unclustered:
        monkeypatch.setattr(m4, "theta", lambda spec, tau: 1.0)
    ok, _, want = _e2_gate(e2_theta_hats[3], e2_p_hat)
    assert ok is not unclustered
    assert (want == _targets("e2")["0:nonexceed"]["G"]) is unclustered
    for stem in ("e3", "e3b"):
        assert _e3_gate(stem, e3_p_hats[stem])[0] is not unclustered, stem


def test_e4_truncation(capsys):
    cfg = _cfg("e4")
    gen = harness._build_generator(cfg)
    spec = gen.spec

    def nonexceed(m_trunc):
        # common random numbers: the full and the truncated draw of a seed
        # share its innovations
        def path_fn(seed):
            return dataclasses.replace(gen.path_fn(seed), m_trunc=m_trunc)

        entries, _, _ = harness.replicate(gen._replace(path_fn=path_fn),
                                          cfg.analyses, cfg.reps, cfg.base_seed)
        return entries["0:nonexceed"]["p_hat"], entries["0:nonexceed"]["ci_halfwidth"]

    p_f, ci_f = nonexceed(None)
    p_t, ci_t = nonexceed(1)
    gap = abs(p_f - p_t)
    tol = 0.02 + 2 * math.sqrt(ci_f**2 + ci_t**2)
    # hand values for the truncated extremal index (full normalizer kept),
    # not targets: they are the oracle for theta_2m, and for theta's target
    prof = [m4.theta_2m(spec, cfg.tau, mt) for mt in range(1, 6)]
    want_m1 = (1 / 2.05 + 1.0) / (2 / 2.05 + 1.0)
    want_full = (1 / 2.05 + 1.0) / 2.0
    exact = (
        abs(prof[0] - want_m1) < 1e-12
        and abs(prof[-1] - want_full) < 1e-12
        and abs(_targets("e4")["0:nonexceed"]["theta"] - want_full) < 1e-12
        and all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))
    )
    ok = gap <= tol and exact
    _emit(capsys, "E4", ok,
          f"|p_full-p_trunc|={gap:.4f} tol={tol:.4f}; theta_2m profile "
          f"{prof[0]:.6f}->{prof[-1]:.6f} matches hand values={exact}")


@pytest.fixture(scope="module")
def e5_report(tmp_path_factory, e2_theta_hats):
    """E5's pointproc entry and its plug-in intensity lambda: e2_runs'
    estimates theta_hat(0..3) at the G of the same spec and tau=1 (E2's),
    which the run takes as its lambda_target; shared by E5 and its negative
    control."""
    cfg = _cfg("e5")
    (a,) = cfg.analyses
    gc = pointproc.GapConfig(a["r"], a["p"], a["m"])
    lam = pointproc.lambda_rp(e2_theta_hats, e2_theta_hats[3],
                              math.log(_targets("e2")["0:nonexceed"]["G"]),
                              gc)
    cfg = dataclasses.replace(cfg, analyses=({**a, "lambda_target": lam},))
    out = tmp_path_factory.mktemp("e5")
    return _run("e5", out, cfg)["analyses"]["0:pointproc"], lam


def _e5_closed_form_gate(mean):
    """E5: the mean count within 10% of the closed form lambda_rp at
    theta(0..3). Returns (ok, lambda_rp, rel err)."""
    lam_rp = _targets("e5")["0:pointproc"]["lambda_rp"]
    rel = abs(mean - lam_rp) / lam_rp
    return rel <= 0.10, lam_rp, rel


def test_e5_point_process(capsys, e5_report):
    rep, lam = e5_report
    rel = abs(rep["mean_count"] - lam) / lam
    rp_ok, lam_rp, rel_rp = _e5_closed_form_gate(rep["mean_count"])
    ok = (
        0.85 <= rep["dispersion_index"] <= 1.15
        and rel <= 0.10
        and rep["ks_interarrival"] < 0.08
        and rp_ok
    )
    _emit(capsys, "E5", ok,
          f"dispersion={rep['dispersion_index']:.3f} (0.85..1.15); "
          f"mean={rep['mean_count']:.4f} vs lambda={lam:.4f} "
          f"(rel err {rel:.3f} ≤ 0.10); KS={rep['ks_interarrival']:.4f} < 0.08"
          f"; closed-form lambda_rp={lam_rp:.4f} "
          f"(rel err {rel_rp:.3f} ≤ 0.10)")


def test_e5_gate_rejects_an_unclustered_intensity(monkeypatch, e5_report):
    # negative control on E5's run, no path drawn: with theta(0..3) forced
    # to 1 in the target, the closed form lambda_rp is 50/55 = 0.909
    # against the mean count 0.234 (0.2409 with the real runs limits), and
    # the closed-form gate must fail; with the real target it passes
    mean = e5_report[0]["mean_count"]
    assert _e5_closed_form_gate(mean)[0]
    monkeypatch.setattr(m4, "runs_limit", lambda spec, tau, m: 1.0)
    ok, lam_rp, _ = _e5_closed_form_gate(mean)
    assert not ok and lam_rp == pytest.approx(50 / 55)


def test_e6_decay_profile(capsys):
    table = harness._build_generator(_cfg("e6")).spec.innovation.table
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
    """E7(c)'s config, and the correlation rho and the marginal tail Fbar of
    its scan target; draws no path."""
    cfg = _cfg("e7")
    target = harness.targets(cfg)["0:scan"]
    return cfg, target["rho"], target["Fbar"][0]


def _e7_joint_gate(joint, exact, nsamp):
    """Two-sided: the estimate lies within 4 se of the exact joint tail."""
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    z = (joint - exact) / se
    return abs(z) <= 4.0, z


E7_CATALOG = (
    chaos.CatalogFn("exp", 0.7),
    chaos.CatalogFn("exp", -0.4),
    chaos.CatalogFn("indicator", 1.0),
    chaos.CatalogFn("indicator", -0.5),
    chaos.CatalogFn("poly", (0.0, 1.0, 0.5)),
    chaos.CatalogFn("abs"),
)


def _e7_hyper_gate(lhs, rhs):
    """||M_a f||_2 <= ||f||_{1+a^2}, up to the quadrature's 1e-9."""
    return lhs <= rhs + 1e-9


def test_e7_inequalities(capsys, e7_run):
    # (a) hypercontractivity over the catalog x a-grid
    hyper_ok = True
    for f in E7_CATALOG:
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            lhs, rhs = chaos.hypercontractivity_check(f, a)
            hyper_ok = hyper_ok and _e7_hyper_gate(lhs, rhs)

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
    entry = e7_run[0]["analyses"]["0:scan"]
    joint, bound, nsamp = entry["joint_exceed"], entry["bound"], cfg.n
    se = math.sqrt(max(joint, 1e-12) * (1 - joint) / nsamp)
    tail_ok = joint <= bound + 4 * se
    # the exact tail is this gate's oracle, not a target: a scan pair with
    # Pareto parts or unequal tau has no one-call exact tail
    exact_ok, z = _e7_joint_gate(joint, chaos.folded_joint_tail(rho, fbar),
                                 nsamp)

    ok = hyper_ok and cca_ok and tail_ok and exact_ok
    _emit(capsys, "E7", ok,
          f"hypercontractivity holds={hyper_ok}; cca max gap={worst:.2e} "
          f"≤ 1e-4; joint={joint:.2e} ≤ bound={bound:.2e}+4se; "
          f"exact joint z={z:+.2f} (|z| ≤ 4)")


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_e7_hyper_gate_rejects_the_unscaled_expansion(monkeypatch, a):
    # negative control, no paths drawn: with the Mehler scaling dropped,
    # lhs is ||f||_2, which exceeds ||f||_{1+a^2} for every catalog function
    # (by 0.005 to 0.50 here), so E7(a)'s gate must fail for each
    monkeypatch.setattr(chaos, "mehler_apply", lambda exp, a: exp)
    for f in E7_CATALOG:
        assert not _e7_hyper_gate(*chaos.hypercontractivity_check(f, a)), f


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


def _e8_gate(cfg, entry):
    """Whether D'(k) lies within 3 se of its target tau^2/k, its value for a
    process without clusters, at every k of a dprime entry; and the largest
    |z|."""
    ok, zmax = True, 0.0
    for k, want in harness.targets(cfg)["0:dprime"]["stats"].items():
        v, se = entry["stats"][k], entry["stderr"][k]
        ok = ok and abs(v - want) <= 3 * se
        zmax = max(zmax, abs(v - want) / se)
    return ok, zmax


def test_e8_anticlustering(capsys, tmp_path):
    gauss, iid = _cfg("e8_gauss"), _cfg("e8_iid")
    entry = _run("e8_gauss", tmp_path)["analyses"]["0:dprime"]
    # nonincreasing by construction: D'(k) sums the lags 1..n/k, fewer as k
    # grows, so this check holds for every path
    vals, ses = ([entry[key][str(k)] for k in gauss.analyses[0]["k_list"]]
                 for key in ("stats", "stderr"))
    mono_ok = all(a >= b - 2 * math.hypot(sa, sb) for a, b, sa, sb
                  in zip(vals, vals[1:], ses, ses[1:]))
    gauss_ok, gauss_z = _e8_gate(gauss, entry)
    ctrl_ok, _ = _e8_gate(iid,
                          _run("e8_iid", tmp_path)["analyses"]["0:dprime"])
    ok = mono_ok and gauss_ok and ctrl_ok
    _emit(capsys, "E8", ok,
          f"nonincreasing within 2 se={mono_ok}; gauss matches tau^2/k "
          f"within 3 se={gauss_ok} (max |z|={gauss_z:.2f}); iid control "
          f"matches tau^2/k within 3 se={ctrl_ok}")


def test_e8_gate_rejects_clustering():
    # negative control: E2's M4 (theta = 0.25) at E8's n, tau, reps, seed
    # and analysis clusters its exceedances, so D'(k) stays far above
    # tau^2/k (z of about 9.6 at k = 16) and E8's gate must fail
    e8 = _cfg("e8_gauss")
    cfg = dataclasses.replace(_cfg("e2"), n=e8.n, tau=e8.tau, reps=e8.reps,
                              base_seed=e8.base_seed, analyses=e8.analyses)
    ok, zmax = _e8_gate(cfg, harness.run(cfg)["analyses"]["0:dprime"])
    assert not ok and zmax > 3
