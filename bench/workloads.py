"""The three benchmark workloads: inputs, one session, correctness gate.

Each workload has four parts:

- `inputs(seed, size)` runs in the parent and makes the workload's inputs
  from the seed with `random.Random`, so it needs neither numpy nor the
  package. The same seed always gives the same inputs.
- `session(inputs, sdir, clock)` runs in a fresh child process. It imports
  the package, does the set-up, marks the start of every unit on `clock`,
  calls `clock.finish()` when the work is done and leaves its outputs under
  `sdir`.
- `check(inputs, sdir, result)` runs in the parent on those outputs. It
  returns `(label, ok, detail)` rows and the number of failed units. Its
  reference values come from closed forms written here, not from the
  package.
- `kernel()` runs in the child and returns the calibration kernel (see
  `tracer.UnitClock`): a few milliseconds of the workload's kind of work,
  written against numpy and scipy so no change to the package moves it.
  `kernel_ref_s` is its duration when the machine runs fast.

Why these workloads:

- `subgauss_mc` is the paper's main pipeline (experiment E3). It stresses
  per-replication path simulation: the FFT convolutions, the coefficient
  table rebuilt in `m4.innovations`, Gamma(0) and the Pareto transform.
- `pareto_estimators` is an M4 over i.i.d. Pareto innovations (E1's oracle
  mode). It bypasses `gausslin` and `subordinate` entirely and stresses the
  M4 build, the estimators, the point process and the CSV emitters, so
  a simulation-side change should leave it unchanged.
- `quadrature_oracle` has no Monte Carlo. It stresses the certified Hermite
  quadrature, the bivariate-normal tail and deterministic autocovariances,
  so a change to the Monte Carlo path should leave it unchanged.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

SIZES = ("full", "tiny")

# subgauss_mc: p_hat must lie within this many binomial standard errors of
# the closed-form limit G(tau)^theta(tau).
MC_Z_MAX = 4.0
# pareto_estimators: |mean runs(m=3) estimate - theta| bound. The estimator
# sat within 0.006 of theta at tau=200, n=1e5 over 40 replications for each
# of four coefficient draws; E2 allows 0.05.
RUNS_THETA_TOL = 0.03
# quadrature_oracle tolerances.
HYPER_SLACK = 1e-9        # lhs <= rhs + slack, as in E7
BVN_REL_TOL = 1e-10       # bvn_joint_tail(0, x) against ndtr(-x)^2

E7_CATALOG = (
    ("exp", [0.7]),
    ("exp", [-0.4]),
    ("indicator", [1.0]),
    ("indicator", [-0.5]),
    ("poly", [0.0, 1.0, 0.5]),
    ("abs", []),
)


def _log_boundary(d0: int, L: int) -> dict:
    eye = [[1.0 if i == j else 0.0 for j in range(d0)] for i in range(d0)]
    return {"d0": d0, "family": "log_boundary",
            "params": {"q": 2.0, "B": eye}, "L": L}


def m4_limits(a, alpha: float, tau) -> tuple[float, float]:
    """(G(tau), theta(tau)) of an M4 with coefficients a[r][i][j]."""
    R, d = len(a), len(a[0])
    A = [sum(a[r][i][j] ** alpha for r in range(R) for j in range(d))
         for i in range(d)]
    w = [[max(a[r][i][j] ** alpha * tau[i] / A[i] for i in range(d))
          for j in range(d)] for r in range(R)]
    total = sum(map(sum, w))
    peak = sum(max(w[r][j] for r in range(R)) for j in range(d))
    return math.exp(-total), peak / total


def _ndtr_neg(x: float) -> float:
    """P(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def config_session(inputs: dict, sdir: Path, clock) -> dict:
    """`subgauss run` in process, with a unit mark at every path call."""
    from subgauss import cli, harness

    build = harness._build_generator

    def build_generator(cfg):
        path_fn, spec, u = build(cfg)

        def unit(seed):
            clock.mark()
            return path_fn(seed)

        return unit, spec, u

    harness._build_generator = build_generator
    code = cli.main(["run", "--config", str(sdir.parent / "config.json"),
                     "--out", str(sdir / "out")])
    clock.finish()
    return {"exit_code": code}


def _summary(sdir: Path, config: dict):
    path = sdir / "out" / f"{config['name']}_summary.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _failed_reps(summary, config: dict) -> int:
    return config["reps"] if summary is None else len(summary["failures"])


# ---------------------------------------------------------------------------
# subgauss_mc
# ---------------------------------------------------------------------------

def mc_inputs(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    L, n, reps = (10_000, 10_000, 250) if size == "full" else (1_000, 2_000, 40)
    tau = [round(rng.uniform(0.5, 1.5), 4) for _ in range(2)]
    spec = {
        "d": 2, "alpha": 1.0, "lags": [0, 1],
        "a": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "innovation": {"kind": "subgauss", "lin": _log_boundary(2, L),
                       "transform": "pareto"},
    }
    return {"config": {
        "name": "bench_subgauss_mc", "generator": {"kind": "m4", "spec": spec},
        "n": n, "tau": tau, "reps": reps,
        "base_seed": rng.randrange(2**31), "analyses": [{"type": "nonexceed"}],
    }}


def mc_check(inputs: dict, sdir: Path, result: dict):
    config = inputs["config"]
    summary = _summary(sdir, config)
    failed = _failed_reps(summary, config)
    if result["exit_code"] != 0 or summary is None:
        return [("subgauss run", False, f"exit code {result['exit_code']}")], failed
    spec = config["generator"]["spec"]
    G, theta = m4_limits(spec["a"], spec["alpha"], config["tau"])
    target = G**theta
    ok = config["reps"] - failed
    p_hat = summary["analyses"]["0:nonexceed"]["p_hat"]
    z = (p_hat - target) / math.sqrt(target * (1.0 - target) / ok)
    return [
        ("replications", failed == 0, f"{failed}/{config['reps']} failed"),
        ("nonexceed", abs(z) <= MC_Z_MAX,
         f"p_hat={p_hat:.4f} vs G^theta={target:.4f}, z={z:+.2f} "
         f"(|z| <= {MC_Z_MAX:g} se, {ok} replications)"),
    ], failed


# ---------------------------------------------------------------------------
# pareto_estimators
# ---------------------------------------------------------------------------

def pareto_inputs(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    n, tau = (100_000, 200.0) if size == "full" else (20_000, 100.0)
    a = [[[round(rng.uniform(0.3, 1.0), 6) for _ in range(2)] for _ in range(2)]
         for _ in range(4)]
    spec = {"d": 2, "alpha": 1.0, "lags": [0, 3], "a": a,
            "innovation": {"kind": "iid_pareto", "alpha": 1.0}}
    analyses = [{"type": "runs", "m": m} for m in range(4)]
    analyses += [{"type": "blocks", "b": 100},
                 {"type": "pointproc", "r": 50, "p": 5, "m": 3}]
    # 200 replications is the least at which poisson_diagnostics runs.
    return {"config": {
        "name": "bench_pareto", "generator": {"kind": "m4", "spec": spec},
        "n": n, "tau": [tau, tau], "reps": 200,
        "base_seed": rng.randrange(2**31), "analyses": analyses,
    }}


def _csv_estimates(path: Path) -> list[float]:
    rows = path.read_text().splitlines()[1:]
    return [float(row.split(",")[2]) for row in rows]


def pareto_check(inputs: dict, sdir: Path, result: dict):
    config = inputs["config"]
    summary = _summary(sdir, config)
    failed = _failed_reps(summary, config)
    if result["exit_code"] != 0 or summary is None:
        return [("subgauss run", False, f"exit code {result['exit_code']}")], failed
    rows = [("replications", failed == 0, f"{failed}/{config['reps']} failed")]
    bad_reps: set[int] = set()
    n_est = n_bad = 0
    for idx, an in enumerate(config["analyses"]):
        if an["type"] not in ("runs", "blocks"):
            continue
        csv = sdir / "out" / f"{config['name']}_{idx}_{an['type']}.csv"
        ests = _csv_estimates(csv) + [summary["analyses"][f"{idx}:{an['type']}"]["estimate"]]
        bad = [rep for rep, e in enumerate(ests) if not 0.0 <= e <= 1.0]
        bad_reps |= {rep for rep in bad if rep < len(ests) - 1}
        n_est += len(ests)
        n_bad += len(bad)
    rows.append(("estimates in [0,1]", n_bad == 0,
                 f"{n_est - n_bad}/{n_est} per-replication and mean estimates"))
    spec = config["generator"]["spec"]
    _, theta = m4_limits(spec["a"], spec["alpha"], config["tau"])
    runs3 = summary["analyses"]["3:runs"]["estimate"]
    rows.append(("runs(m=3) vs theta", abs(runs3 - theta) <= RUNS_THETA_TOL,
                 f"runs(3)={runs3:.4f} theta={theta:.4f} "
                 f"|diff|={abs(runs3 - theta):.4f} <= {RUNS_THETA_TOL}"))
    pois = summary["analyses"]["5:pointproc"]
    sane = (not pois.get("degenerate", True) and pois["mean_count"] > 0
            and math.isfinite(pois["dispersion_index"])
            and pois["dispersion_index"] > 0
            and 0.0 < pois["ks_interarrival"] < 1.0)
    rows.append(("poisson report", sane,
                 f"mean={pois.get('mean_count')} "
                 f"dispersion={pois.get('dispersion_index')} "
                 f"ks={pois.get('ks_interarrival')} "
                 f"degenerate={pois.get('degenerate')}"))
    return rows, failed + len(bad_reps)


# ---------------------------------------------------------------------------
# quadrature_oracle
# ---------------------------------------------------------------------------

def quad_inputs(seed: int, size: str) -> dict:
    """Twelve certified expansions and six cheap oracle calls per session.

    With six cheap calls, the median of the pooled unit times of two
    sessions falls in the middle of the indicator(-0.5) checks rather than
    between two groups of different cost, which would make it jump.
    """
    rng = random.Random(seed)
    full = size == "full"
    hyper = [[kind, param, round(rng.uniform(0.1, 0.9), 6)]
             for kind, param in E7_CATALOG for _ in range(2)]
    rho = round(rng.uniform(0.2, 0.8), 6)
    bvn = [[r, round(rng.uniform(1.0, 3.0), 6)] for r in (0.0, rho)
           for _ in range(2)]
    return {
        "K": 40 if full else 8,
        "hyper": hyper,
        "bvn": bvn,
        # E5 block geometry (r=50, p=5, m=3) on E3's d0=2 table
        "bcc": {"lin": _log_boundary(2, 10_000 if full else 1_000),
                "r": 50, "p_gap": 5, "m": 3, "h": [rng.choice([1, 2, 3])]},
        # E6's table through `subgauss gauss-tools`
        "gauss_tools": {"lin": _log_boundary(1, 200_000 if full else 2_000),
                        "nblock": 50 if full else 10,
                        "berman_hmax": 100_000 if full else 1_000},
    }


def quad_session(inputs: dict, sdir: Path, clock) -> dict:
    from subgauss import chaos, cli, gausslin

    table = gausslin.CoeffTable.from_json(json.dumps(inputs["bcc"]["lin"]))
    gt = inputs["gauss_tools"]
    gt_argv = ["gauss-tools", "--spec", str(sdir.parent / "gauss_tools_spec.json"),
               "--nblock", str(gt["nblock"]), "--berman-hmax", str(gt["berman_hmax"]),
               "--out", str(sdir / "out" / "gauss_tools.json")]
    (sdir / "out").mkdir()
    bcc = inputs["bcc"]
    units = [("hyper", (kind, param, a)) for kind, param, a in inputs["hyper"]]
    units += [("bvn", tuple(rx)) for rx in inputs["bvn"]]
    units += [("bcc", (h,)) for h in bcc["h"]]
    units.append(("gauss_tools", ()))

    results = []
    for kind, args in units:
        clock.mark()
        row = {"kind": kind, "args": list(args)}
        try:
            if kind == "hyper":
                f = chaos.CatalogFn(args[0], tuple(args[1]))
                row["lhs"], row["rhs"] = chaos.hypercontractivity_check(
                    f, args[2], inputs["K"])
            elif kind == "bvn":
                row["value"] = chaos.bvn_joint_tail(*args)
            elif kind == "bcc":
                row["value"] = chaos.block_canonical_corr(
                    table, bcc["r"], bcc["p_gap"], bcc["m"], args[0])
            else:
                row["exit_code"] = cli.main(gt_argv)
        except Exception as exc:  # noqa: BLE001 - a raising oracle is a failed unit
            row["error"] = f"{type(exc).__name__}: {exc}"
        results.append(row)
    clock.finish()
    (sdir / "oracle.json").write_text(json.dumps(results, sort_keys=True) + "\n")
    return {}


def _unit_ok(row: dict, out: Path) -> bool:
    if "error" in row:
        return False
    kind, args = row["kind"], row["args"]
    if kind == "hyper":
        return row["lhs"] <= row["rhs"] + HYPER_SLACK
    if kind == "bvn":
        rho, x = args
        marginal = _ndtr_neg(x)
        if rho == 0.0:
            return abs(row["value"] - marginal**2) <= BVN_REL_TOL * marginal**2
        # Slepian: positive correlation lies between independence and
        # the marginal tail
        return marginal**2 <= row["value"] <= marginal
    if kind == "bcc":
        return 0.0 <= row["value"] <= 1.0
    path = out / "gauss_tools.json"
    if row["exit_code"] != 0 or not path.is_file():
        return False
    rep = json.loads(path.read_text())
    return (rep["tail_decreasing"] and rep["full_rank"]
            and rep["block_toeplitz_min_eig"] > 0.0
            and math.isfinite(rep["berman_last"]) and rep["berman_last"] > 0.0)


def quad_check(inputs: dict, sdir: Path, result: dict):
    path = sdir / "oracle.json"
    if not path.is_file():
        return [("oracle results", False, "missing")], 1
    rows = json.loads(path.read_text())
    out = []
    failed = 0
    for kind, label in (("hyper", "hypercontractivity lhs <= rhs + 1e-9"),
                        ("bvn", "bvn_joint_tail(0,x) = ndtr(-x)^2, rho>0 bracketed"),
                        ("bcc", "canonical correlation in [0,1]"),
                        ("gauss_tools", "gauss-tools report")):
        mine = [r for r in rows if r["kind"] == kind]
        bad = [r for r in mine if not _unit_ok(r, sdir / "out")]
        failed += len(bad)
        errors = "; ".join(r["error"] for r in bad if "error" in r)
        out.append((label, not bad and bool(mine),
                    f"{len(mine) - len(bad)}/{len(mine)} pass"
                    + (f" ({errors})" if errors else "")))
    return out, failed


def mc_kernel():
    """FFT convolution and the Gaussian tail, as in simulate and apply."""
    import numpy as np
    from scipy.signal import fftconvolve
    from scipy.special import ndtr

    x = np.sin(np.arange(20_000.0))
    psi = 1.0 / np.arange(1.0, 10_002.0)

    def run():
        for _ in range(3):
            ndtr(-fftconvolve(x, psi)[:20_000])

    return run


def pareto_kernel():
    """One weighted lag-maximum pass over an n=1e5, d=2 path, as in build."""
    import numpy as np

    w = 1.0 + np.abs(np.sin(np.arange(200_000.0))).reshape(100_000, 2)
    a = np.array([0.6, 0.9])

    def run():
        out = np.zeros(100_000)
        np.maximum(out, np.max(w * a[None, :], axis=1), out=out)
        return int(np.count_nonzero(out > 1.5))

    return run


def quad_kernel():
    """One adaptive quadrature of a Hermite integrand with a Python
    callback, as in gaussian_expectation."""
    import numpy as np
    from numpy.polynomial import hermite_e
    from scipy import integrate

    he7 = np.zeros(8)
    he7[7] = 1.0

    def integrand(t):
        return float(np.exp(0.7 * t)) * hermite_e.hermeval(np.asarray(t), he7) \
            * np.exp(-0.5 * t * t)

    def run():
        return integrate.quad(integrand, -8.0, 8.0, epsabs=1e-13, epsrel=1e-12,
                              limit=200)[0]

    return run


class Workload(NamedTuple):
    inputs: Callable
    session: Callable
    check: Callable
    kernel: Callable
    kernel_ref_s: float


WORKLOADS = {
    "subgauss_mc": Workload(mc_inputs, config_session, mc_check, mc_kernel, 0.003),
    "pareto_estimators": Workload(pareto_inputs, config_session, pareto_check,
                                  pareto_kernel, 0.005),
    "quadrature_oracle": Workload(quad_inputs, quad_session, quad_check,
                                  quad_kernel, 0.0055),
}


def prepare(inputs: dict, run_dir: Path) -> None:
    """Write the files the sessions of one run share."""
    if "config" in inputs:
        (run_dir / "config.json").write_text(json.dumps(inputs["config"], indent=2))
    else:
        (run_dir / "gauss_tools_spec.json").write_text(
            json.dumps(inputs["gauss_tools"]["lin"]))


def units_attempted(inputs: dict) -> int:
    if "config" in inputs:
        return inputs["config"]["reps"]
    return len(inputs["hyper"]) + len(inputs["bvn"]) + len(inputs["bcc"]["h"]) + 1
