"""Experiment configs, replication engine determinism, and the CLI contract."""

import argparse
import ast
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from subgauss import evt, gausslin, harness, pointproc
from subgauss.cli import build_parser
from subgauss.cli import main as cli_main
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
# Outputs of `run` on one-analysis configs over the tiny spec below, as
# reproduced in TestCliGolden.
GOLDEN = REPO / "tests" / "golden"


# an i.i.d. Gaussian table, for `gauss` generator cases
IID8 = {"d0": 1, "family": "iid", "params": {}, "L": 8}


def tiny_config(**overrides):
    obj = {
        "name": "tiny",
        "generator": {
            "kind": "m4",
            "spec": {
                "d": 1,
                "alpha": 1.0,
                "lags": [0, 1],
                "a": [[[1.0]], [[1.0]]],
                "innovation": {"kind": "iid_pareto", "alpha": 1.0},
            },
        },
        "n": 2000,
        "tau": [80.0],
        "reps": 12,
        "base_seed": 7,
        "analyses": [{"type": "nonexceed"}, {"type": "runs", "m": 1}],
    }
    obj.update(overrides)
    return obj


class TestExperimentConfig:
    def test_missing_field_names_it(self):
        obj = tiny_config()
        del obj["reps"]
        with pytest.raises(SpecError, match="reps"):
            ExperimentConfig.from_json(json.dumps(obj))

    def test_zero_reps_rejected(self):
        with pytest.raises(SpecError):
            ExperimentConfig.from_json(json.dumps(tiny_config(reps=0)))

    def test_unknown_generator_kind(self):
        cfg = ExperimentConfig.from_json(
            json.dumps(tiny_config(generator={"kind": "mystery"}))
        )
        with pytest.raises(SpecError):
            harness.run(cfg)


class TestRun:
    def test_summary_shape(self, tmp_path):
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config()))
        summary = harness.run(cfg, str(tmp_path))
        assert summary["failure_rate"] == 0.0
        assert "0:nonexceed" in summary["analyses"]
        assert "1:runs" in summary["analyses"]
        assert (tmp_path / "tiny_summary.json").exists()
        runs_csv = (tmp_path / "tiny_1_runs.csv").read_text()
        assert runs_csv.splitlines()[0] == (
            "method,m_or_b,estimate,stderr,exceed_count"
        )

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config()))
        a, b = tmp_path / "a", tmp_path / "b"
        harness.run(cfg, str(a))
        harness.run(cfg, str(b))
        for f in sorted(a.iterdir()):
            assert (b / f.name).read_bytes() == f.read_bytes()

    def test_seed_sensitivity(self, tmp_path):
        s1 = harness.run(
            ExperimentConfig.from_json(json.dumps(tiny_config(base_seed=1)))
        )
        s2 = harness.run(
            ExperimentConfig.from_json(json.dumps(tiny_config(base_seed=2)))
        )
        assert s1["analyses"] != s2["analyses"]

    def test_replication_counts_in_all_analyses_or_none(self, tmp_path,
                                                        monkeypatch):
        # blocks fails on two replications after nonexceed and runs have
        # succeeded on them; none of the three may count those two. blocks
        # runs once per replication, in replication order.
        bad_reps = {5, 17}
        blocks_reps = []

        def report(method):
            def estimator(ex, arg):
                if method == "blocks":
                    blocks_reps.append(len(blocks_reps))
                    if blocks_reps[-1] in bad_reps:
                        raise evt.InsufficientExceedances(0)
                return evt.EstimatorReport(1.0, 0.0, 20, f"{method}({arg})")
            return estimator

        monkeypatch.setattr(evt, "runs_theta", report("runs"))
        monkeypatch.setattr(evt, "blocks_theta", report("blocks"))
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            tau=[1e-4], reps=200,
            analyses=[{"type": "nonexceed"}, {"type": "runs", "m": 1},
                      {"type": "blocks", "b": 10}],
        )))
        summary = harness.run(cfg, str(tmp_path))
        failed = sorted(f["replication"] for f in summary["failures"])
        assert failed == [5, 17]
        assert summary["analyses"]["0:nonexceed"]["p_hat"] <= 1.0
        for key in ("1_runs", "2_blocks"):
            rows = (tmp_path / f"tiny_{key}.csv").read_text().splitlines()[1:]
            assert len(rows) == cfg.reps - len(failed)

    def test_pointproc_csv_numbers_replications(self, tmp_path, monkeypatch):
        # replication 1 fails; the rows of every later replication keep
        # their own index
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            tau=[5.0], reps=100,
            analyses=[{"type": "pointproc", "r": 50, "p": 5}],
        )))
        harness.run(cfg, str(tmp_path / "all"))
        gapped_blocks = pointproc.gapped_blocks
        reps = []

        def failing(ex, gc):
            # one call per replication, in replication order
            reps.append(len(reps))
            if reps[-1] == 1:
                raise evt.InsufficientExceedances(0)
            return gapped_blocks(ex, gc)

        monkeypatch.setattr(pointproc, "gapped_blocks", failing)
        summary = harness.run(cfg, str(tmp_path / "one_failed"))
        assert [f["replication"] for f in summary["failures"]] == [1]
        rows = {d: (tmp_path / d / "tiny_0_pointproc.csv").read_text()
                .splitlines() for d in ("all", "one_failed")}
        assert any(r.startswith("1,") for r in rows["all"])
        assert rows["one_failed"] == [r for r in rows["all"]
                                      if not r.startswith("1,")]

    def test_paths_freed_without_the_cycle_collector(self):
        # a reference cycle through a path (say, a cache that points back at
        # it) would keep every finished path alive until the cyclic
        # collector runs, and peak memory would grow with the replications
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            reps=25,
            analyses=[{"type": "nonexceed"}, {"type": "runs", "m": 1},
                      {"type": "blocks", "b": 10},
                      {"type": "pointproc", "r": 10, "p": 2}],
        )))
        gen = harness._build_generator(cfg)
        refs, alive = [], []

        def path_fn(seed):
            alive.append(sum(ref() is not None for ref in refs))
            Y = gen.path_fn(seed)
            refs.append(weakref.ref(Y))
            return Y

        enabled = gc.isenabled()
        gc.disable()
        try:
            _, _, failures = harness.replicate(gen._replace(path_fn=path_fn),
                                               cfg.analyses, cfg.reps,
                                               cfg.base_seed)
            after = [ref() is not None for ref in refs]
        finally:
            if enabled:
                gc.enable()
        assert failures == []
        # while replication i draws, only replication i - 1's path, still
        # bound in the engine's loop, may be alive
        assert alive == [0] + [1] * (cfg.reps - 1)
        assert len(after) == cfg.reps and not any(after)

    def test_gauss_generator_with_scan(self):
        psi0 = ((1.0, 0.0), (0.5, 0.8660254037844386))
        lin = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=2, family=gausslin.Custom((psi0,)), L=0
            )
        )
        cfg = ExperimentConfig.from_json(
            json.dumps(
                tiny_config(
                    generator={"kind": "gauss", "lin": json.loads(lin.to_json())},
                    n=50_000,
                    tau=[],
                    reps=1,
                    analyses=[{"type": "scan", "levels": [1.5], "rho": 0.5}],
                )
            )
        )
        summary = harness.run(cfg)
        row = summary["analyses"]["0:scan"][0]
        assert row["joint_exceed"] <= row["bound"] + 4 * row["joint_stderr"]

    def test_gauss_thresholds_follow_the_marginal_law(self):
        # n P(Y_i > u_i) = tau_i: a raw column by the normal tail, a pareto
        # or folded_pareto part by u = (n / tau)^(1/alpha)
        lin = {"d0": 2, "family": "iid", "params": {}, "L": 0}
        parts = [{"kind": "pareto", "alpha": 1.0, "coord": 0},
                 {"kind": "folded_pareto", "alpha": 2.0, "coord": 1}]
        thresholds = {}
        for name, gen in (("raw", {"kind": "gauss", "lin": lin}),
                          ("pareto", {"kind": "gauss", "lin": lin,
                                      "transform": {"m": 0, "parts": parts}})):
            cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
                generator=gen, tau=[5.0, 10.0])))
            thresholds[name] = harness._build_generator(cfg).u.u
        np.testing.assert_allclose(2000 * ndtr(-thresholds["raw"]),
                                   [5.0, 10.0], rtol=1e-12)
        assert list(thresholds["pareto"]) == [400.0, math.sqrt(200.0)]

    def test_single_replication_draws_its_path_once(self, monkeypatch):
        # scan maps over the engine's path like every other analysis
        drawn = []
        build = harness._build_generator

        def recording(cfg):
            gen = build(cfg)
            return gen._replace(
                path_fn=lambda seed: drawn.append(seed) or gen.path_fn(seed))

        monkeypatch.setattr(harness, "_build_generator", recording)
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            generator={"kind": "m4", "spec": {
                "d": 2, "alpha": 1.0, "lags": [0, 0],
                "a": [[[1.0, 0.0], [0.0, 1.0]]],
                "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
            tau=[80.0, 80.0], reps=1, base_seed=3,
            analyses=[{"type": "nonexceed"},
                      {"type": "scan", "levels": [5.0], "rho": 0.0}],
        )))
        summary = harness.run(cfg)
        assert drawn == [3]
        assert set(summary["analyses"]) == {"0:nonexceed", "1:scan"}


class TestSeedPrecedence:
    def test_env_beats_all(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_SEED, "99")
        assert harness.effective_base_seed(5, 1) == 99

    def test_cli_beats_config(self, monkeypatch):
        monkeypatch.delenv(harness.ENV_SEED, raising=False)
        assert harness.effective_base_seed(5, 1) == 5
        assert harness.effective_base_seed(None, 1) == 1


class TestCli:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["theta", "--help"])
        assert exc.value.code == 0

    def test_malformed_json_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_missing_spec_file_exit_2(self):
        assert cli_main(["theta", "--spec", "/nonexistent.json", "--tau", "1"]) == 2

    def test_theta_json_output(self, tmp_path, capsys):
        spec = tiny_config()["generator"]["spec"]
        f = tmp_path / "m4.json"
        f.write_text(json.dumps(spec))
        assert cli_main(["theta", "--spec", str(f), "--tau", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["theta"], 0.5)

    @pytest.mark.parametrize("command, path, value, field", [
        pytest.param(["theta", "--tau", "1.0"], ["alpha"], "one",
                     "field: alpha", id="theta-alpha-string"),
        pytest.param(["m4-verify", "--tau", "1.0"], ["extra"], 1,
                     "field: extra", id="m4-verify-unknown-key"),
        pytest.param(["theta", "--tau", "1.0"], ["innovation", "alpha"], "one",
                     "field: alpha", id="theta-innovation-alpha-string"),
        pytest.param(["theta", "--tau", "1.0"], ["innovation", "alpha"], 2.0,
                     "field: alpha", id="theta-innovation-alpha-differs"),
        pytest.param(["acf", "--hmax", "3"], ["params", "q"], "two",
                     "field: q", id="acf-q-string"),
        pytest.param(["simulate", "--n", "10"], ["family"], "fractal",
                     "field: family", id="simulate-unknown-family"),
        pytest.param(["gauss-tools"], ["params", "B0"], 1, "field: B0",
                     id="gauss-tools-params-unknown-key"),
        # a value out of range, in the spec or a flag, names its field
        pytest.param(["theta", "--tau", "1.0,1.0"], [], {}, "field: tau",
                     id="theta-tau-length"),
        pytest.param(["m4-verify", "--tau=-1.0"], [], {}, "field: tau",
                     id="m4-verify-tau-negative"),
        pytest.param(["theta", "--tau", "1.0", "--m-trunc", "-1"], [], {},
                     "field: m-trunc", id="theta-m-trunc-negative"),
        pytest.param(["theta", "--tau", "1.0"], ["lags"], [1, 2],
                     "field: lags", id="theta-lags-without-zero"),
        pytest.param(["theta", "--tau", "1.0"], ["a"], [[[1.0]]], "field: a",
                     id="theta-a-shape"),
        pytest.param(["m4-verify", "--tau", "1.0"], ["a"], [[[-1.0]], [[1.0]]],
                     "field: a", id="m4-verify-a-negative"),
        pytest.param(["theta", "--tau", "1.0"], ["a"], [[[0.0]], [[0.0]]],
                     "field: a", id="theta-a-zero-row"),
        pytest.param(["theta", "--tau", "1.0"], ["alpha"], 0.0,
                     "field: alpha", id="theta-alpha-zero"),
        pytest.param(["simulate", "--n", "0"], [], {}, "field: n",
                     id="simulate-n-zero"),
        pytest.param(["acf", "--hmax", "3"], ["L"], -1, "field: L",
                     id="acf-L-negative"),
        pytest.param(["simulate", "--n", "10"], ["d0"], 0, "field: d0",
                     id="simulate-d0-zero"),
        pytest.param(["acf", "--hmax", "3"], ["params", "q"], 1.0, "field: q",
                     id="acf-q-one"),
        pytest.param(["acf", "--hmax", "3"], ["params", "B"], [[-1.0]],
                     "field: B", id="acf-B-negative"),
        pytest.param(["gauss-tools"], ["params", "B"], [[1.0, 0.0]],
                     "field: B", id="gauss-tools-B-not-square"),
        pytest.param(["acf", "--hmax", "3"], [], {
            "family": "polynomial", "params": {"beta": 0.5, "B": [[1.0]]}},
            "field: beta", id="acf-beta-half"),
        pytest.param(["simulate", "--n", "10"], [], {
            "family": "custom", "params": {"table": [[[1.0]]]}},
            "field: table", id="simulate-custom-table-shape"),
    ])
    def test_spec_error_exit_2_names_field(self, tmp_path, capsys, command,
                                           path, value, field):
        # the --spec commands parse their file with the checks that
        # `subgauss run` applies to a config's spec and lin
        if command[0] in ("theta", "m4-verify"):
            spec = tiny_config()["generator"]["spec"]
        else:
            spec = json.loads(gausslin.make_coeffs(gausslin.LinearProcessSpec(
                d0=1, family=gausslin.LogBoundary(q=2.0, B=((1.0,),)),
                L=16)).to_json())
        # the value at path, or with an empty path, keys merged into spec
        node = spec
        for key in path[:-1]:
            node = node[key]
        if path:
            node[path[-1]] = value
        else:
            spec.update(value)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        assert cli_main(command + ["--spec", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    def test_m4_verify(self, tmp_path, capsys):
        spec = tiny_config()["generator"]["spec"]
        f = tmp_path / "m4.json"
        f.write_text(json.dumps(spec))
        assert cli_main(["m4-verify", "--spec", str(f), "--tau", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"]
        assert out["identity_gap"] <= 1e-12

    def test_simulate_csv_header(self, tmp_path):
        lin = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=2,
                family=gausslin.Polynomial(beta=1.0, B=np.eye(2)),
                L=4,
            )
        )
        f = tmp_path / "lin.json"
        f.write_text(lin.to_json())
        out = tmp_path / "path.csv"
        assert (
            cli_main(
                ["simulate", "--spec", str(f), "--n", "10", "--seed", "3",
                 "--out", str(out)]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 11

    def test_env_seed_changes_output(self, tmp_path, monkeypatch):
        lin = gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)), L=4
            )
        )
        f = tmp_path / "lin.json"
        f.write_text(lin.to_json())
        o1, o2, o3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("SUBGAUSS_SEED", "123")
        cli_main(["simulate", "--spec", str(f), "--n", "20", "--seed", "7",
                  "--out", str(o1)])
        monkeypatch.delenv("SUBGAUSS_SEED")
        cli_main(["simulate", "--spec", str(f), "--n", "20", "--seed", "123",
                  "--out", str(o2)])
        cli_main(["simulate", "--spec", str(f), "--n", "20", "--seed", "7",
                  "--out", str(o3)])
        assert o1.read_text() == o2.read_text()  # env overrode --seed 7
        assert o1.read_text() != o3.read_text()

    def test_run_shipped_config(self, tmp_path):
        # reduced-reps pass over the shipped i.i.d. baseline config
        assert (
            cli_main(
                ["run", "--config", str(CONFIGS / "e1.json"),
                 "--reps", "200", "--out", str(tmp_path)]
            )
            == 0
        )
        summary = json.loads(
            (tmp_path / "e1_iid_baseline_summary.json").read_text()
        )
        assert abs(summary["analyses"]["0:nonexceed"]["p_hat"] - 0.368) < 0.12

    @pytest.mark.parametrize("change, flags, field", [
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 1, "alpha": 1.0, "lags": [0, 0], "a": [[[1.0]]],
            "innovation": {"kind": "subgauss", "transform": "pareto", "lin": {
                "d0": 2, "family": "iid", "params": {}, "L": 0}}}}}, [], "d0",
            id="subgauss-d0-mismatch"),
        pytest.param({"analyses": [{"type": "nonexceed"}, {"type": "mystery"}]},
                     [], "type", id="unknown-type"),
        pytest.param({"analyses": [{"type": "runs"}]}, [], "'m'", id="runs-m"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50}]}, [], "'p'",
                     id="pointproc-p"),
        pytest.param({"analyses": [{"type": "scan", "rho": 0.5}]}, [],
                     "'levels'", id="scan-levels"),
        pytest.param({"analyses": [{"type": "dprime"}]}, [], "'k_list'",
                     id="dprime-k_list"),
        pytest.param({"tau": []}, [], "tau", id="no-thresholds"),
        pytest.param({}, ["--reps", "0"], "reps", id="reps-flag-zero"),
        pytest.param({"analyses": [{"type": "scan", "levels": [1.5],
                                    "rho": 0.5}]}, [], "field: d",
                     id="scan-univariate"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": []}]}, [],
                     "field: k_list", id="dprime-k_list-empty"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": [1, 2]}]}, [],
                     "field: k_list", id="dprime-k-one"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 2, "alpha": 1.0, "lags": [0, 0],
            "a": [[[1.0, 0.0], [0.0, 1.0]]],
            "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
            "tau": [80.0, 80.0], "analyses": [{"type": "dprime", "k_list": [2]}]},
            [], "field: d", id="dprime-bivariate"),
        pytest.param({"analyses": [{"type": "gauss-tools"}]}, [], "field: kind",
                     id="gauss-tools-m4"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}}, "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": 0}]},
            [], "field: nblock", id="gauss-tools-nblock"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}}, "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": 2001}]},
            [], "field: nblock", id="gauss-tools-dense-budget"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 4}}, "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: L", id="gauss-tools-short-table"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 5, "p": 5,
                                    "m": 5}]}, [], "field: r",
                     id="pointproc-r-le-m"),
        pytest.param({"analyses": [{"type": "runs", "m": 2000}]}, [],
                     "field: m", id="runs-m-ge-n"),
        pytest.param({"analyses": [{"type": "blocks", "b": 100}]}, [],
                     "field: b", id="blocks-too-few"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 1990,
                                    "p": 20}]}, [], "field: r, p",
                     id="pointproc-segment-exceeds-n"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "m": -1}]}, [], "field: m",
                     id="pointproc-m-negative"),
        pytest.param({"analyses": [{"type": "pointproc", "r": -1, "p": -2,
                                    "m": -5}]}, [], "field: m",
                     id="pointproc-all-negative"),
        pytest.param({"reps": 200, "analyses": [{
            "type": "pointproc", "r": 50, "p": 5, "lambda_target": 0.0}]},
            [], "field: lambda_target", id="pointproc-lambda-zero"),
        pytest.param({"reps": 200, "analyses": [{
            "type": "pointproc", "r": 50, "p": 5, "lambda_target": -1.0}]},
            [], "field: lambda_target", id="pointproc-lambda-negative"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 2, "alpha": 1.0, "lags": [0, 0],
            "a": [[[1.0, 0.0], [0.0, 1.0]]],
            "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
            "tau": [80.0, 80.0],
            "analyses": [{"type": "scan", "levels": [1.5], "rho": 0.5}]},
            [], "field: reps", id="scan-reps"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8},
            "standardize": False}, "tau": [], "reps": 1,
            "analyses": [{"type": "gauss-tools"}]},
            [], "field: standardize", id="gauss-unknown-key"),
        pytest.param({"generator": {**tiny_config()["generator"], "m_trunc": 1}},
                     [], "field: m_trunc", id="m4-unknown-key"),
        # a field of the wrong JSON type
        pytest.param({"generator": "m4"}, [], "field: generator",
                     id="generator-not-object"),
        pytest.param({"n": "many"}, [], "field: n", id="n-string"),
        pytest.param({"tau": 1.0}, [], "field: tau", id="tau-number"),
        pytest.param({"tau": ["80"]}, [], "field: tau", id="tau-string-entry"),
        pytest.param({"reps": 2.5}, [], "field: reps", id="reps-fraction"),
        pytest.param({"base_seed": True}, [], "field: base_seed",
                     id="base-seed-bool"),
        pytest.param({"analyses": {"type": "nonexceed"}}, [],
                     "field: analyses", id="analyses-object"),
        # a key that nothing reads
        pytest.param({"base_sed": 1001}, [], "field: base_sed",
                     id="base-seed-typo"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "bins": 10}]}, [], "field: bins",
                     id="pointproc-bins"),
        pytest.param({"analyses": [{"type": "runs", "m": 1, "mm": 2}]}, [],
                     "field: mm", id="runs-unknown-key"),
        # a gauss generator's thresholds: a tau of the path's length, on
        # raw or pareto-type columns, with every level positive
        pytest.param({**json.loads((CONFIGS / "e7.json").read_text()),
                      "tau": [1.0]}, [], "field: tau", id="e7-gauss-tau-length"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 1, "parts": [{"kind": "window_max", "lags": [0, 1]}]}},
            "tau": [5.0], "reps": 1}, [], "field: tau",
            id="gauss-window-max-tau"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8},
                      "tau": [1500.0]}, [], "field: tau",
                     id="gauss-threshold-negative"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8},
                      "tau": [5000.0]}, [], "field: tau",
                     id="gauss-threshold-nan"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8},
                      "tau": [0.0]}, [], "field: tau", id="gauss-tau-zero"),
        # a transform part must read a column of the table
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 0, "parts": [{"kind": "pareto", "alpha": 1.0, "coord": 3}]}},
            "tau": []}, [], "field: coord", id="parts-coord-past-d0"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 0, "parts": [{"kind": "pareto", "alpha": 1.0, "coord": -1}]}},
            "tau": []}, [], "field: coord", id="parts-coord-negative"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 0, "parts": []}}, "tau": []}, [], "field: parts",
            id="transform-no-parts"),
        # a value out of range names its field
        pytest.param({"tau": [80.0, 80.0]}, [], "field: tau", id="tau-length"),
        pytest.param({"tau": [-1.0]}, [], "field: tau", id="tau-negative"),
        pytest.param({"reps": 0}, [], "field: reps", id="reps-zero"),
        pytest.param({"n": 0}, [], "field: n", id="n-zero"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [1, 2]}}}, [],
            "field: lags", id="spec-lags-without-zero"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[1.0]]]}}}, [],
            "field: a", id="spec-a-shape"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[-1.0]], [[1.0]]]}}},
            [], "field: a", id="spec-a-negative"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[0.0]], [[0.0]]]}}},
            [], "field: a", id="spec-a-zero-row"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "alpha": 0.0}}}, [],
            "field: alpha", id="spec-alpha-zero"),
        pytest.param({"generator": {"kind": "gauss", "lin": {**IID8, "L": -1}},
                      "tau": []}, [], "field: L", id="lin-L-negative"),
        pytest.param({"generator": {"kind": "gauss", "lin": {**IID8, "d0": 0}},
                      "tau": []}, [], "field: d0", id="lin-d0-zero"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "log_boundary",
            "params": {"q": 1.0, "B": [[1.0]]}, "L": 8}}, "tau": []}, [],
            "field: q", id="params-q-one"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "polynomial",
            "params": {"beta": 0.5, "B": [[1.0]]}, "L": 8}}, "tau": []}, [],
            "field: beta", id="params-beta-half"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[-1.0]]}, "L": 8}}, "tau": []}, [],
            "field: B", id="params-B-negative"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 2, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0]]}, "L": 8}}, "tau": []}, [],
            "field: B", id="params-B-d0-mismatch"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 2, "family": "custom", "params": {"table": [[[1.0]]]},
            "L": 0}}, "tau": []}, [], "field: table", id="custom-table-shape"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 0, "parts": [{"kind": "pareto", "alpha": 0.0}]}},
            "tau": []}, [], "field: alpha", id="parts-pareto-alpha-zero"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": 0, "parts": [{"kind": "window_max", "lags": [0, 1]}]}},
            "tau": []}, [], "field: lags", id="parts-lag-outside-window"),
        pytest.param({"generator": {"kind": "gauss", "lin": IID8, "transform": {
            "m": -1, "parts": [{"kind": "identity"}]}}, "tau": []}, [],
            "field: m", id="transform-m-negative"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 2,
                                    "m": 3}]}, [], "field: p",
                     id="pointproc-p-lt-m"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 2, "alpha": 1.0, "lags": [0, 0],
            "a": [[[1.0, 0.0], [0.0, 1.0]]]}}, "tau": [], "reps": 1,
            "analyses": [{"type": "scan", "levels": [2.0], "rho": 0.0}]},
            [], "field: innovation", id="spec-without-innovation"),
        # a nested field of the wrong JSON type, or missing
        pytest.param({"generator": {"kind": "m4", "spec": "x"}}, [],
                     "field: spec", id="spec-string"),
        pytest.param({"generator": {"kind": "gauss", "lin": "x"}, "tau": []},
                     [], "field: lin", id="lin-string"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}, "transform": "x"},
            "tau": []}, [], "field: transform", id="transform-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "alpha": "one"}}}, [],
            "field: alpha", id="spec-alpha-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "d": 1.5}}}, [],
            "field: d", id="spec-d-fraction"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto"}}}}, [], "field: alpha",
            id="innovation-missing-alpha"),
        pytest.param({"analyses": [{"type": "runs", "m": "3"}]}, [],
                     "field: m", id="runs-m-string"),
        pytest.param({"analyses": [{"type": "blocks", "b": 1.5}]}, [],
                     "field: b", id="blocks-b-fraction"),
        pytest.param({"analyses": [{"type": "pointproc", "r": "50", "p": 5}]},
                     [], "field: r", id="pointproc-r-string"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": None}]},
                     [], "field: p", id="pointproc-p-null"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "lambda_target": "2"}]}, [],
                     "field: lambda_target", id="pointproc-lambda-string"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}}, "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": "50"}]},
            [], "field: nblock", id="gauss-tools-nblock-string"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": "2"}]}, [],
                     "field: k_list", id="dprime-k_list-string"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": [2, 2.5]}]},
                     [], "field: k_list", id="dprime-k_list-fraction"),
        pytest.param({"analyses": [{"type": "scan", "levels": "2",
                                    "rho": 0.5}]}, [], "field: levels",
                     id="scan-levels-string"),
        pytest.param({"analyses": [{"type": "scan", "levels": [2.0],
                                    "rho": "0.5"}]}, [], "field: rho",
                     id="scan-rho-string"),
        # a key that nothing reads, or a field of the wrong JSON type, inside
        # a spec, an innovation, a table (lin), its params or a transform part
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "extra": 1}}}, [],
            "field: extra", id="spec-unknown-key"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": 1.0, "beta": 2}}}},
            [], "field: beta", id="innovation-unknown-key"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": "one"}}}},
            [], "field: alpha", id="innovation-alpha-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": -1.0}}}},
            [], "field: alpha", id="innovation-alpha-negative"),
        # draws from one alpha against thresholds from another
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": 2.0}}}},
            [], "field: alpha", id="innovation-alpha-differs"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [0, "1"]}}}, [],
            "field: lags", id="spec-lags-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [0, 1, 2]}}}, [],
            "field: lags", id="spec-lags-three"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8, "Lmax": 9}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: Lmax", id="lin-unknown-key"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8.5}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: L", id="lin-L-fraction"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0]], "beta": 1.0}, "L": 8}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: beta", id="params-unknown-key"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "log_boundary",
            "params": {"q": "two", "B": [[1.0]]}, "L": 8}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: q", id="params-q-string"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [["1"]]}, "L": 8}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: B", id="params-B-string"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}, "transform": {
            "m": 0, "parts": [{"kind": "pareto", "alpha": 1.0, "scale": 2}]}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: scale", id="parts-unknown-key"),
        pytest.param({"generator": {"kind": "gauss", "lin": {
            "d0": 1, "family": "iid", "params": {}, "L": 8}, "transform": {
            "m": 0, "parts": [{"kind": "pareto", "alpha": 1.0, "coord": "0"}]}},
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            [], "field: coord", id="parts-coord-string"),
    ])
    def test_run_config_error_exit_2_names_field(self, tmp_path, capsys,
                                                 monkeypatch, change, flags,
                                                 field):
        drawn = []
        build = harness._build_generator

        monkeypatch.setattr(harness, "_build_generator",
                            lambda cfg: build(cfg)._replace(path_fn=drawn.append))
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(tiny_config(**change)))
        assert cli_main(["run", "--config", str(f)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert drawn == []

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["theta", "--tau", "one"], "--tau", id="theta-tau"),
    ])
    def test_malformed_flag_value_exit_2_names_flag(self, tmp_path, capsys,
                                                    argv, flag):
        spec = tmp_path / "m4.json"
        spec.write_text(json.dumps(tiny_config()["generator"]["spec"]))
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--spec", str(spec)])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["theta", "--tau", "1.0"], id="theta"),
        pytest.param(["m4-verify", "--tau", "1.0"], id="m4-verify"),
        pytest.param(["gauss-tools"], id="gauss-tools"),
    ])
    def test_format_on_json_only_command_exit_2(self, tmp_path, capsys,
                                                argv):
        # these commands always write JSON, so they take no --format
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(tiny_config()["generator"]["spec"]))
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--spec", str(spec), "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--n", "10"], id="simulate"),
        pytest.param(["acf", "--hmax", "4"], id="acf"),
    ])
    def test_format_changes_output(self, tmp_path, argv):
        # every command that takes --format reads it
        (tmp_path / "spec.json").write_text(gausslin.make_coeffs(
            gausslin.LinearProcessSpec(
                d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)),
                L=4)).to_json())
        written = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert cli_main(argv + ["--spec", str(tmp_path / "spec.json"),
                                    "--format", fmt, "--out", str(out)]) == 0
            written[fmt] = out.read_bytes()
        assert written["csv"] != written["json"]

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subgauss.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_readme_cli_block_lists_every_command(self):
        # the `subgauss <command>` lines of README's CLI block are exactly
        # the parser's subcommands
        readme = (REPO / "README.md").read_text()
        block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
        listed = [line.split()[1] for line in block.split("```", 1)[0]
                  .splitlines() if line.startswith("subgauss ")]
        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert sorted(listed) == sorted(sub.choices)


class TestCovarianceCli:
    """`acf` and `gauss-tools` against per-lag `autocov` and a dense
    eigensolve built from it; values, not bytes, since the FFT kernel may
    move the last bit."""

    @pytest.fixture
    def spec(self, tmp_path):
        psi = np.random.default_rng(2).normal(size=(9, 2, 2))
        table = gausslin.make_coeffs(gausslin.LinearProcessSpec(
            d0=2, family=gausslin.Custom(psi), L=8))
        f = tmp_path / "lin.json"
        f.write_text(table.to_json())
        return f, table

    @staticmethod
    def dense_min_eig(table, nblock):
        def gamma(h):  # Cov(X_a, X_{a+h}); zero past L
            if abs(h) > table.L:
                return np.zeros((table.d0, table.d0))
            g = gausslin.autocov(table, abs(h))[0]
            return g if h >= 0 else g.T
        big = np.block([[gamma(b - a) for b in range(nblock)]
                        for a in range(nblock)])
        return np.linalg.eigvalsh(big)[0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_acf_matches_autocov(self, tmp_path, spec, fmt):
        f, table = spec
        out = tmp_path / f"acf.{fmt}"
        argv = ["acf", "--spec", str(f), "--hmax", "8", "--format", fmt,
                "--out", str(out)]
        assert cli_main(argv) == 0
        if fmt == "csv":
            lines = out.read_text().splitlines()
            assert lines[0] == "h,g00,g01,g10,g11"
            got = np.array([[float(v) for v in line.split(",")[1:]]
                            for line in lines[1:]]).reshape(9, 2, 2)
        else:
            obj = json.loads(out.read_text())
            got = np.array(obj["gamma"])
            assert obj["tail_bound"] == gausslin.autocov(table, 8)[1]
        want = np.array([gausslin.autocov(table, h)[0] for h in range(9)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_gauss_tools_matches_dense_reference(self, tmp_path, spec):
        f, table = spec
        out = tmp_path / "tools.json"
        argv = ["gauss-tools", "--spec", str(f), "--nblock", "12",
                "--berman-hmax", "8", "--out", str(out)]
        assert cli_main(argv) == 0
        rep = json.loads(out.read_text())
        np.testing.assert_allclose(rep["block_toeplitz_min_eig"],
                                   self.dense_min_eig(table, 12),
                                   rtol=0, atol=1e-14)
        g8 = gausslin.autocov(table, 8)[0]
        np.testing.assert_allclose(rep["berman_last"],
                                   np.max(np.abs(g8)) * np.log(8.0),
                                   rtol=0, atol=1e-14)
        assert rep["full_rank"] == gausslin.full_rank_check(table)
        assert rep["tail_decreasing"] == gausslin.check_decay(table).tail_decreasing

    def test_berman_last_forms_no_lag_products(self, spec, capsys,
                                              monkeypatch):
        # berman_last reads Gamma(berman_hmax) alone; the one lag_products
        # call is the block covariance's, over lags 0..nblock-1
        f, _ = spec
        lags = []
        lag_products = gausslin.lag_products
        monkeypatch.setattr(gausslin, "lag_products", lambda x, hmax: (
            lags.append(hmax) or lag_products(x, hmax)))
        assert cli_main(["gauss-tools", "--spec", str(f), "--nblock", "3",
                         "--berman-hmax", "8"]) == 0
        assert lags == [2]
        assert "berman_last" in json.loads(capsys.readouterr().out)

    def test_default_nblock_past_the_table(self, tmp_path, spec, capsys):
        # --nblock 10 needs Gamma(9) on an L=8 table: exactly zero
        f, table = spec
        assert cli_main(["gauss-tools", "--spec", str(f)]) == 0
        rep = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(rep["block_toeplitz_min_eig"],
                                   self.dense_min_eig(table, 10),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("flags, field", [
        pytest.param(["--nblock", "0"], "field: nblock", id="nblock-zero"),
        pytest.param(["--nblock", "-3"], "field: nblock", id="nblock-negative"),
        pytest.param(["--nblock", "1001"], "field: nblock",
                     id="nblock-over-dense-budget"),
        pytest.param(["--berman-hmax", "1"], "field: berman-hmax",
                     id="berman-hmax-one"),
        pytest.param(["--berman-hmax", "-4"], "field: berman-hmax",
                     id="berman-hmax-negative"),
        pytest.param(["--berman-hmax", "9"], "field: berman-hmax",
                     id="berman-hmax-past-L"),
    ])
    def test_bad_input_exit_2_names_field(self, spec, capsys, monkeypatch,
                                          flags, field):
        f, _ = spec
        computed = []
        monkeypatch.setattr(gausslin, "lag_products", computed.append)
        assert cli_main(["gauss-tools", "--spec", str(f)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert computed == []

    def test_short_table_exit_2_names_L(self, tmp_path, capsys, monkeypatch):
        # check_decay needs L >= 8
        table = gausslin.make_coeffs(gausslin.LinearProcessSpec(
            d0=1, family=gausslin.Polynomial(beta=1.0, B=np.eye(1)), L=4))
        f = tmp_path / "short.json"
        f.write_text(table.to_json())
        computed = []
        monkeypatch.setattr(gausslin, "lag_products", computed.append)
        assert cli_main(["gauss-tools", "--spec", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "field: L" in err
        assert computed == []


POINTPROC = {"type": "pointproc", "r": 50, "p": 5, "m": 1}


class TestCliGolden:
    """`run` on one-analysis configs over tiny_config's spec, with n 2000 and
    base_seed 3, reproduces the goldens: the CSV artifact byte for byte, the
    JSON files as summary entries. maxima.json's limits come from `theta`
    and `m4-verify` on the same spec and tau."""

    @pytest.mark.parametrize("golden, tau, reps, analysis", [
        pytest.param("maxima.json", 1.0, 100, {"type": "nonexceed"},
                     id="maxima-json"),
        pytest.param("pointproc.csv", 5.0, 20, POINTPROC, id="pointproc-csv"),
        pytest.param("pointproc.json", 5.0, 200, POINTPROC,
                     id="pointproc-json"),
        pytest.param("dprime.json", 5.0, 50,
                     {"type": "dprime", "k_list": [2, 4, 8]}, id="dprime"),
    ])
    def test_output_bytes(self, tmp_path, monkeypatch, capsys, golden, tau,
                          reps, analysis):
        monkeypatch.delenv(harness.ENV_SEED, raising=False)
        obj = tiny_config(tau=[tau], reps=reps, base_seed=3,
                          analyses=[analysis])
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(obj))
        assert cli_main(["run", "--config", str(f), "--out", str(tmp_path)]) == 0
        want = (GOLDEN / golden).read_bytes()
        if golden.endswith(".csv"):
            got = (tmp_path / "tiny_0_pointproc.csv").read_bytes()
            assert got == want
            return
        summary = json.loads((tmp_path / "tiny_summary.json").read_text())
        (entry,) = summary["analyses"].values()
        if golden == "maxima.json":
            spec = obj["generator"]["spec"]
            spec_file = tmp_path / "m4.json"
            spec_file.write_text(json.dumps(spec))
            limits = {}
            for command in ("theta", "m4-verify"):
                assert cli_main([command, "--spec", str(spec_file),
                                 "--tau", str(tau)]) == 0
                limits.update(json.loads(capsys.readouterr().out))
            g, th = limits["G_limit"], limits["theta"]
            entry.update(G=g, theta=th, limit=g**th,
                         u=[(a * obj["n"] / tau) ** (1 / spec["alpha"])
                            for a in limits["A"]])
        assert entry == json.loads(want)


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_config_validates_and_builds(self, path):
        # configs are edited by hand; each keeps the one canonical layout
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        cfg = ExperimentConfig.from_json(text)
        drawn = []
        gen = harness._build_generator(cfg)
        harness.check(gen._replace(path_fn=drawn.append), cfg.analyses,
                      cfg.reps)
        assert drawn == []

    def test_acceptance_suite_reads_every_config(self):
        # each config is an experiment the acceptance suite gates: its stem
        # is a string in tests/test_acceptance.py, as in _cfg("e1")
        tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)}
        stems = [path.stem for path in sorted(CONFIGS.glob("*.json"))]
        assert [stem for stem in stems if stem not in strings] == []

    def test_sha256_golden_names_every_config(self):
        # each config's output bytes are pinned by the acceptance suite, or
        # the golden says why they are not
        golden = json.loads((GOLDEN / "shipped_sha256.json").read_text())
        listed, unlisted = set(golden["outputs"]), golden["not_run"]
        stems = {path.stem for path in CONFIGS.glob("*.json")}
        assert listed.isdisjoint(unlisted)
        assert stems == listed | set(unlisted)
        assert all(reason for reason in unlisted.values())
        assert set(golden["versions"]) == {"python", "numpy", "scipy"}

    def test_config_names_are_unique(self):
        # output files are prefixed by the config name
        names = [json.loads(path.read_text())["name"]
                 for path in sorted(CONFIGS.glob("*.json"))]
        assert len(names) == len(set(names))
