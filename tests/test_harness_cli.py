"""Experiment configs, replication engine determinism, and the CLI contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subgauss import evt, gausslin, harness
from subgauss.cli import main as cli_main
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


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
        # succeeded on them; none of the three may count those two
        bad_seeds = {7 ^ 5, 7 ^ 17}

        def report(method):
            def estimator(Y, u, arg):
                if method == "blocks" and Y.meta["seed"] in bad_seeds:
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

    @pytest.mark.parametrize("change, field", [
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 1, "alpha": 1.0, "lags": [0, 0], "a": [[[1.0]]],
            "innovation": {"kind": "subgauss", "transform": "pareto", "lin": {
                "d0": 2, "family": "iid", "params": {}, "L": 0}}}}}, "d0",
            id="subgauss-d0-mismatch"),
        pytest.param({"analyses": [{"type": "nonexceed"}, {"type": "mystery"}]},
                     "type", id="unknown-type"),
        pytest.param({"analyses": [{"type": "runs"}]}, "'m'", id="runs-m"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50}]}, "'p'",
                     id="pointproc-p"),
        pytest.param({"analyses": [{"type": "scan", "rho": 0.5}]}, "'levels'",
                     id="scan-levels"),
        pytest.param({"analyses": [{"type": "dprime"}]}, "'k_list'",
                     id="dprime-k_list"),
        pytest.param({"tau": []}, "tau", id="no-thresholds"),
    ])
    def test_run_config_error_exit_2_names_field(self, tmp_path, capsys,
                                                 change, field):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(tiny_config(**change)))
        assert cli_main(["run", "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subgauss.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "stem", ["e1", "e2", "e2_runs", "e3", "e3b", "e4", "e5", "e6", "e7"]
    )
    def test_config_validates_and_builds(self, stem):
        cfg = ExperimentConfig.from_json((CONFIGS / f"{stem}.json").read_text())
        path_fn, _, _ = harness._build_generator(cfg)
        assert cfg.reps >= 1
