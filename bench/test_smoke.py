"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

Runs every workload traced and untraced, checks that the result line holds
exactly the metrics BENCHMARK.json declares, that the exact counts have
their known values, and that the correctness gate rejects wrong outputs:
tampered output files checked in process, and a broken copy of the package
run end to end.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in run.PER_LAYER]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = result_line(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0
    assert "PASS determinism" in proc.stdout


EXACT = {
    "subgauss_mc": {"gausslin.simulate.calls": 40,
                    "gausslin.make_coeffs.calls_per_unit": 1.0,
                    "gausslin.autocov.calls_per_unit": 1.0,
                    "evt.exceed_indicator.calls_per_unit": 0.0},
    "pareto_estimators": {"gausslin.simulate.calls": 0,
                          "evt.exceed_indicator.calls_per_unit": 6.0,
                          "evt.insufficient_frac": 0.0},
    # 12 checks over 6 functions; each expansion at K=8 makes 2 * 9
    # quadratures and each check 2 more for the norm
    "quadrature_oracle": {"chaos.hermite_expand.calls": 12,
                          "chaos.hermite_expand.redundant_frac": 0.5,
                          "chaos.gaussian_expectation.calls": 12 * 20},
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = bench(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    res = result_line(proc)
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    for name, want in EXACT[workload].items():
        assert values[name] == want, name
    assert values["harness.artifact_bytes"] > 0
    assert "PASS exact counts repeat" in proc.stdout
    assert "# tracing" in proc.stdout and "unwrapped" in proc.stdout
    # a second traced run of the same seed repeats every exact count
    again = {k: v["value"] for k, v in result_line(bench(ROOT, workload, 1))["metrics"].items()}
    for name, *_, exact, _ in run.PER_LAYER:
        if exact:
            assert again[name] == values[name], name


def _labels_failing(rows):
    return {label for label, ok, _ in rows if not ok}


def _write_config_outputs(sdir: Path, config: dict, analyses: dict, csvs: dict):
    out = sdir / "out"
    out.mkdir(parents=True)
    summary = {"analyses": analyses, "failures": []}
    (out / f"{config['name']}_summary.json").write_text(json.dumps(summary))
    for fname, text in csvs.items():
        (out / fname).write_text(text)


def test_gate_rejects_wrong_nonexceed(tmp_path):
    inputs = workloads.mc_inputs(3, "tiny")
    config = inputs["config"]
    spec = config["generator"]["spec"]
    G, theta = workloads.m4_limits(spec["a"], spec["alpha"], config["tau"])
    for p_hat, bad in ((G**theta, False), (0.99, True)):
        sdir = tmp_path / str(p_hat)
        _write_config_outputs(sdir, config, {"0:nonexceed": {"p_hat": p_hat}}, {})
        rows, _ = workloads.mc_check(inputs, sdir, {"exit_code": 0})
        assert ("nonexceed" in _labels_failing(rows)) is bad


def _pareto_outputs(sdir, config, theta, estimate=0.5, runs3=None, degenerate=False):
    header = "method,m_or_b,estimate,stderr,exceed_count\n"
    analyses, csvs = {}, {}
    for idx, an in enumerate(config["analyses"][:5]):
        est = runs3 if (idx == 3 and runs3 is not None) else estimate
        analyses[f"{idx}:{an['type']}"] = {"estimate": est, "stderr": 0.0}
        csvs[f"{config['name']}_{idx}_{an['type']}.csv"] = (
            header + f"runs,1,{est!r},0.0,30\n" * config["reps"])
    analyses["5:pointproc"] = {"mean_count": 3.0, "dispersion_index": 1.0,
                               "ks_interarrival": 0.05, "degenerate": degenerate}
    _write_config_outputs(sdir, config, analyses, csvs)


def test_gate_rejects_wrong_estimates(tmp_path):
    inputs = workloads.pareto_inputs(3, "tiny")
    config = inputs["config"]
    spec = config["generator"]["spec"]
    _, theta = workloads.m4_limits(spec["a"], spec["alpha"], config["tau"])
    cases = {
        "good": ({"estimate": theta}, set()),
        "range": ({"estimate": 1.5, "runs3": theta}, {"estimates in [0,1]"}),
        "theta": ({"estimate": 0.5, "runs3": theta + 0.1}, {"runs(m=3) vs theta"}),
        "degenerate": ({"estimate": theta, "degenerate": True}, {"poisson report"}),
    }
    for case, (kw, want) in cases.items():
        sdir = tmp_path / case
        _pareto_outputs(sdir, config, theta, **kw)
        rows, failed = workloads.pareto_check(inputs, sdir, {"exit_code": 0})
        assert _labels_failing(rows) == want, case
        assert (failed > 0) == (case == "range"), case


def test_gate_rejects_wrong_oracle_values(tmp_path):
    inputs = workloads.quad_inputs(3, "tiny")
    x = inputs["bvn"][0][1]
    tail = workloads._ndtr_neg(x)
    good = [
        {"kind": "hyper", "args": ["exp", [0.7], 0.5], "lhs": 1.0, "rhs": 1.1},
        {"kind": "bvn", "args": [0.0, x], "value": tail**2},
        {"kind": "bcc", "args": [1], "value": 0.4},
        {"kind": "gauss_tools", "args": [], "exit_code": 0},
    ]
    report = {"tail_decreasing": True, "full_rank": True,
              "block_toeplitz_min_eig": 0.1, "berman_last": 0.2}
    broken = {
        "hyper": {"lhs": 1.2},
        "bvn": {"value": tail**2 * (1 + 1e-6)},
        "bcc": {"value": 1.2},
        "gauss_tools": {"error": "SpecError: certificate"},
    }
    for kind, change in [(None, {})] + list(broken.items()):
        sdir = tmp_path / str(kind)
        (sdir / "out").mkdir(parents=True)
        (sdir / "out" / "gauss_tools.json").write_text(json.dumps(report))
        rows = [dict(r, **change) if r["kind"] == kind else r for r in good]
        (sdir / "oracle.json").write_text(json.dumps(rows))
        checked, failed = workloads.quad_check(inputs, sdir, {})
        assert failed == (kind is not None), kind
        assert len(_labels_failing(checked)) == (kind is not None), kind


def _checkout_copy(tmp_path: Path, with_src: bool) -> Path:
    dst = tmp_path / "checkout"
    dst.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_broken_package_fails_the_run(tmp_path):
    dst = _checkout_copy(tmp_path, with_src=True)
    path = dst / "src" / "subgauss" / "subordinate.py"
    text = path.read_text()
    pareto = "return ndtr(-x) ** (-1.0 / self.alpha)"
    assert pareto in text
    # A Pareto(2 alpha) marginal: the thresholds are almost never crossed.
    path.write_text(text.replace(pareto, "return ndtr(-x) ** (-0.5 / self.alpha)"))
    proc = bench(dst, "subgauss_mc", 0)
    assert proc.returncode == 1
    res = result_line(proc)
    assert res["correct"] is False
    assert "FAIL nonexceed" in proc.stdout


def test_missing_package_exits_without_result(tmp_path):
    dst = _checkout_copy(tmp_path, with_src=False)
    proc = bench(dst, "subgauss_mc", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
