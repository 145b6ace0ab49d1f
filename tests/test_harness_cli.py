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
from scipy.special import ndtri

from subgauss import evt, gausslin, harness, m4, pointproc
from subgauss.cli import build_parser
from subgauss.cli import main as cli_main
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
# Outputs of `run` on one-analysis configs over the tiny spec below, as
# reproduced in TestCliGolden.
GOLDEN = REPO / "tests" / "golden"


# an i.i.d. Gaussian table, for subgauss innovation cases
IID8 = {"d0": 1, "family": "iid", "params": {}, "L": 8}
# two columns of correlation 0.5: the table of configs/e7.json
RHO_HALF = json.loads((CONFIGS / "e7.json").read_text())[
    "generator"]["spec"]["innovation"]["lin"]


def subgauss_generator(lin=IID8, d=1, **innovation):
    """The m4 generator of lags [0, 0] and a = identity over a pareto
    subgauss innovation of the table lin, with the innovation's keys
    updated from `innovation`: the subordinated Gaussian of lin, in Pareto
    scale, as configs/e6.json to e8_iid.json are."""
    return {"kind": "m4", "spec": {
        "d": d, "alpha": 1.0, "lags": [0, 0], "a": np.eye(d)[None].tolist(),
        "innovation": {"kind": "subgauss", "lin": lin, "transform": "pareto",
                       **innovation}}}


# A lin holding a non-finite number, keyed by the field that holds it; each
# is a subgauss innovation's lin and a gauss-tools spec.
NONFINITE_LIN = {
    "table": {"d0": 1, "family": "custom",
              "params": {"table": [[[math.nan]]]}, "L": 0},
    "B": {"d0": 1, "family": "log_boundary",
          "params": {"q": 2.0, "B": [[math.inf]]}, "L": 8},
    "beta": {"d0": 1, "family": "polynomial",
             "params": {"beta": math.inf, "B": [[1.0]]}, "L": 8},
    "q": {"d0": 1, "family": "log_boundary",
          "params": {"q": -math.inf, "B": [[1.0]]}, "L": 8},
}


def tiny_subgauss_config(lin=IID8):
    """tiny_config over the subordinated Gaussian of the table lin."""
    return tiny_config(generator=subgauss_generator(lin), tau=[5.0],
                       analyses=[{"type": "nonexceed"}])


def subcommands() -> dict:
    """The CLI's subcommands: name -> its argument parser."""
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


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
        # while replication i draws, no earlier path is alive: the engine
        # drops replication i - 1's before the next draw
        assert alive == [0] * cfg.reps
        assert len(after) == cfg.reps and not any(after)

    def test_gauss_generator_with_scan(self, tmp_path):
        # a scan is a threshold analysis: its levels come from tau, its rho
        # from the table, and it writes a summary entry and no CSV
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            generator=subgauss_generator(RHO_HALF, d=2), n=50_000,
            tau=[3000.0, 3000.0], reps=2, analyses=[{"type": "scan"}])))
        summary = harness.run(cfg, str(tmp_path))
        entry = summary["analyses"]["0:scan"]
        assert sorted(entry) == ["Fbar", "bound", "cond_exceed",
                                 "joint_events", "joint_exceed",
                                 "joint_stderr", "rho"]
        assert entry["Fbar"] == [0.06, 0.06]
        assert entry["joint_exceed"] == entry["joint_events"] / 100_000
        se = entry["joint_stderr"]
        assert entry["joint_exceed"] <= entry["bound"] + 4 * se
        assert [f.name for f in tmp_path.iterdir()] == ["tiny_summary.json"]

    @pytest.mark.parametrize("lin, rho", [
        pytest.param(RHO_HALF, 0.5, id="e7"),
        pytest.param({"d0": 2, "family": "iid", "params": {}, "L": 0}, 0.0,
                     id="iid"),
    ])
    def test_scan_rho_comes_from_the_table(self, lin, rho):
        # the target also holds the tails tau_i / n and their ceiling
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            generator=subgauss_generator(lin, d=2), tau=[5.0, 5.0],
            analyses=[{"type": "scan"}])))
        got = harness.targets(cfg)["0:scan"]
        assert abs(got["rho"] - rho) <= 1e-12
        assert got["Fbar"] == [0.0025, 0.0025]
        assert got["bound"] == pytest.approx(0.0025 ** (2 / (1 + rho)),
                                             rel=1e-12)

    def test_scan_counts_fold_over_replications(self):
        # two replications count what the one-replication runs at seeds
        # base ^ 0 and base ^ 1 count, summed, and each count is that of
        # the replication's dense lift
        def run(reps, base_seed):
            cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
                generator=subgauss_generator(RHO_HALF, d=2), n=20_000,
                tau=[400.0, 400.0], reps=reps, base_seed=base_seed,
                analyses=[{"type": "scan"}])))
            gen = harness._build_generator(cfg)
            counts = [evt.pair_exceedances(
                m4.lift(gen.spec, gen.path_fn(base_seed ^ i).V), gen.u.u)
                for i in range(reps)]
            return harness.run(cfg)["analyses"]["0:scan"], counts

        both, counts = run(2, 5)
        singles = [run(1, seed)[0] for seed in (5 ^ 0, 5 ^ 1)]
        joint, exceed1 = (sum(c[i] for c in counts) for i in (0, 1))
        assert [s["joint_events"] for s in singles] == [c[0] for c in counts]
        assert both["joint_events"] == joint > 0
        assert both["cond_exceed"] == joint / exceed1

    def test_gauss_thresholds_follow_the_marginal_law(self):
        # n P(Y_i > u_i) = tau_i: either transform's marginal is exact
        # Pareto(alpha), so u = (n / tau)^(1/alpha), the lift of the
        # Gaussian-scale level ndtri(1 - tau / n), or of ndtri(1 - tau /
        # (2 n)) when folded
        tail = np.array([5.0, 10.0]) / 2000
        for transform, p in (("pareto", tail), ("folded_pareto", tail / 2)):
            gen = subgauss_generator({"d0": 2, "family": "iid", "params": {},
                                      "L": 0}, d=2, transform=transform)
            gen["spec"]["alpha"] = 2.0
            cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
                generator=gen, tau=[5.0, 10.0])))
            _, spec, u = harness._build_generator(cfg)
            assert list(u.u) == [20.0, math.sqrt(200.0)]
            x = ndtri(1.0 - p)
            lifted = [spec.innovation.lift(x[j:j + 1], j, 2.0)[0]
                      for j in range(2)]
            np.testing.assert_allclose(lifted, u.u, rtol=1e-10)

    def test_single_replication_draws_its_path_once(self, monkeypatch):
        # every per-path analysis maps over the engine's one path
        drawn = []
        build = harness._build_generator

        def recording(cfg):
            gen = build(cfg)
            return gen._replace(
                path_fn=lambda seed: drawn.append(seed) or gen.path_fn(seed))

        monkeypatch.setattr(harness, "_build_generator", recording)
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            reps=1, base_seed=3,
            analyses=[{"type": "nonexceed"}, {"type": "runs", "m": 1},
                      {"type": "dprime", "k_list": [2]}],
        )))
        summary = harness.run(cfg)
        assert drawn == [3]
        assert set(summary["analyses"]) == {"0:nonexceed", "1:runs",
                                            "2:dprime"}


class TestTargets:
    def test_keyed_as_the_summary_and_drawing_no_path(self, monkeypatch):
        # an m4 generator has a target for nonexceed, runs, pointproc and
        # dprime, and blocks has none; targets draws no path
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            tau=[40.0], reps=1, analyses=[
                {"type": "nonexceed"}, {"type": "runs", "m": 1},
                {"type": "blocks", "b": 20},
                {"type": "pointproc", "r": 50, "p": 5, "m": 1},
                {"type": "dprime", "k_list": [2, 4]}])))
        summary = harness.run(cfg)
        monkeypatch.setattr(m4, "path", lambda *args: pytest.fail("drew"))
        got = harness.targets(cfg)
        assert set(got) == set(summary["analyses"]) - {"2:blocks"}
        assert got["0:nonexceed"] == {"G": math.exp(-40.0), "theta": 0.5,
                                      "limit": math.exp(-40.0) ** 0.5,
                                      "u": [100.0]}
        assert got["1:runs"] == {"theta": 0.5}
        # lambda_rp = [(r - m) theta(1) + theta(0)] / (r + p) * tau
        assert got["3:pointproc"]["lambda_rp"] == pytest.approx(
            (49 * 0.5 + 1.0) / 55 * 40.0, rel=1e-14)
        assert got["4:dprime"] == {"stats": {"2": 800.0, "4": 400.0}}

    def test_scan_entry_repeats_its_target(self):
        cfg = ExperimentConfig.from_json(json.dumps(tiny_config(
            generator=subgauss_generator(RHO_HALF, d=2), n=20_000,
            tau=[400.0, 400.0], reps=1, analyses=[{"type": "scan"}])))
        entry = harness.run(cfg)["analyses"]["0:scan"]
        target = harness.targets(cfg)["0:scan"]
        assert {key: entry[key] for key in target} == target


class TestCli:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["limits", "--help"])
        assert exc.value.code == 0

    def test_malformed_json_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_missing_spec_file_exit_2(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert cli_main(["gauss-tools", "--spec", missing]) == 2
        assert cli_main(["limits", "--config", missing]) == 2

    def test_theta_json_output(self, tmp_path, capsys):
        # `limits` prints each analysis's closed-form limit as sorted,
        # indented JSON: theta = 1/2 for two equal lags, and a run of
        # length 1 covers the window
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(tiny_config(tau=[1.0])))
        assert cli_main(["limits", "--config", str(f)]) == 0
        text = capsys.readouterr().out
        out = json.loads(text)
        assert text == json.dumps(out, indent=2, sort_keys=True) + "\n"
        assert out["0:nonexceed"]["theta"] == out["1:runs"]["theta"] == 0.5

    # A case puts its value at a path into tiny_config (`limits`), into
    # tiny_subgauss_config (`run`) or into a coefficient spec (`gauss-tools`).
    # Its id names the retired command, `theta`, `m4-verify`, `simulate` or
    # `acf`, whose case it is, so the case keeps its name across the change.
    @pytest.mark.parametrize("command, path, value, field", [
        pytest.param(["limits"], ["generator", "spec", "alpha"], "one",
                     "field: alpha", id="theta-alpha-string"),
        pytest.param(["limits"], ["generator", "spec", "extra"], 1,
                     "field: extra", id="m4-verify-unknown-key"),
        pytest.param(["limits"], ["generator", "spec", "innovation", "alpha"],
                     "one", "field: alpha",
                     id="theta-innovation-alpha-string"),
        pytest.param(["limits"], ["generator", "spec", "innovation", "alpha"],
                     2.0, "field: alpha", id="theta-innovation-alpha-differs"),
        pytest.param(["gauss-tools"], ["params", "q"], "two", "field: q",
                     id="acf-q-string"),
        pytest.param(["gauss-tools"], ["family"], "fractal", "field: family",
                     id="simulate-unknown-family"),
        pytest.param(["gauss-tools"], ["family"], ["log_boundary"],
                     "field: family", id="gauss-tools-family-list"),
        pytest.param(["gauss-tools"], ["params", "B0"], 1, "field: B0",
                     id="gauss-tools-params-unknown-key"),
        # a value out of range, in the spec or a flag, names its field
        pytest.param(["limits"], ["tau"], [1.0, 1.0], "field: tau",
                     id="theta-tau-length"),
        pytest.param(["limits"], ["tau"], [-1.0], "field: tau",
                     id="m4-verify-tau-negative"),
        pytest.param(["limits"], ["generator", "spec", "lags"], [1, 2],
                     "field: lags", id="theta-lags-without-zero"),
        pytest.param(["limits"], ["generator", "spec", "a"], [[[1.0]]],
                     "field: a", id="theta-a-shape"),
        pytest.param(["limits"], ["generator", "spec", "a"],
                     [[[-1.0]], [[1.0]]], "field: a", id="m4-verify-a-negative"),
        pytest.param(["limits"], ["generator", "spec", "a"], [[[0.0]], [[0.0]]],
                     "field: a", id="theta-a-zero-row"),
        pytest.param(["limits"], ["generator", "spec", "alpha"], 0.0,
                     "field: alpha", id="theta-alpha-zero"),
        pytest.param(["run"], ["n"], 0, "field: n", id="simulate-n-zero"),
        pytest.param(["gauss-tools"], ["L"], -1, "field: L",
                     id="acf-L-negative"),
        pytest.param(["gauss-tools"], ["d0"], 0, "field: d0",
                     id="simulate-d0-zero"),
        pytest.param(["gauss-tools"], ["params", "q"], 1.0, "field: q",
                     id="acf-q-one"),
        pytest.param(["gauss-tools"], ["params", "B"], [[-1.0]], "field: B",
                     id="acf-B-negative"),
        pytest.param(["gauss-tools"], ["params", "B"], [[1.0, 0.0]],
                     "field: B", id="gauss-tools-B-not-square"),
        pytest.param(["gauss-tools"], [], {
            "family": "polynomial", "params": {"beta": 0.5, "B": [[1.0]]}},
            "field: beta", id="acf-beta-half"),
        pytest.param(["gauss-tools"], [], {
            "family": "custom", "params": {"table": [[[1.0]]]}},
            "field: table", id="simulate-custom-table-shape"),
    ])
    def test_spec_error_exit_2_names_field(self, tmp_path, capsys, command,
                                           path, value, field):
        # `gauss-tools` parses its spec with the checks that `subgauss run`
        # applies to a config's lin, and `limits` reads a config as `run`
        # does
        if command[0] == "gauss-tools":
            spec, flag = {"d0": 1, "family": "log_boundary",
                          "params": {"q": 2.0, "B": [[1.0]]}, "L": 16}, "--spec"
        else:
            spec = (tiny_config() if command == ["limits"]
                    else tiny_subgauss_config())
            flag = "--config"
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
        assert cli_main(command + [flag, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    @pytest.mark.parametrize("tau, code", [([800.0], 0), ([5e-324], 2)],
                             ids=["G-underflows", "weight-vanishes"])
    def test_limits_reads_log_G(self, tmp_path, capsys, tau, code):
        # over E5's spec at n = 5000, tau = 800 makes G = exp(-800), which
        # underflows to 0; lambda_rp reads log G = -800 and is finite and
        # positive. At tau = 5e-324 the threshold is inf and the error
        # names tau
        obj = {**json.loads((CONFIGS / "e5.json").read_text()), "n": 5000,
               "tau": tau}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(obj))
        assert cli_main(["limits", "--config", str(f)]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("config error") and "field: tau" in err
            return
        thetas = [m4.runs_limit(m4.M4Spec.from_json(json.dumps(
            obj["generator"]["spec"])), tau, m) for m in range(4)]
        want = (47 * thetas[3] + sum(thetas[:3])) / 55 * 800.0
        lam = json.loads(out)["0:pointproc"]["lambda_rp"]
        assert math.isfinite(lam) and lam > 0
        assert lam == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("command, field", [
        (command, field) for field in NONFINITE_LIN
        for command in ("limits", "run", "gauss-tools")] + [
        (command, field) for field in ("alpha", "tau", "lambda_target")
        for command in ("limits", "run")])
    def test_nonfinite_number_exit_2_names_field(self, tmp_path, capsys,
                                                 monkeypatch, command, field):
        # json.loads reads NaN and Infinity; either is a config error that
        # names its field, before any path is drawn
        nonfinite = {
            "alpha": tiny_config(),
            "tau": tiny_config(tau=[math.inf]),
            "lambda_target": tiny_config(analyses=[{
                "type": "pointproc", "r": 50, "p": 5,
                "lambda_target": math.inf}]),
        }
        nonfinite["alpha"]["generator"]["spec"]["alpha"] = math.nan
        if field in NONFINITE_LIN:
            obj = (NONFINITE_LIN[field] if command == "gauss-tools"
                   else tiny_subgauss_config(NONFINITE_LIN[field]))
        else:
            obj = nonfinite[field]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        drawn = []
        monkeypatch.setattr(np.random, "Philox", lambda **kw: drawn.append(kw))
        flag = "--spec" if command == "gauss-tools" else "--config"
        assert cli_main([command, flag, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "must be a finite" in err
        assert f"(field: {field})" in err
        assert drawn == []

    @pytest.mark.parametrize("command", ["limits", "run"])
    @pytest.mark.parametrize("stem", ["e1", "e8_iid"], ids=["m4", "gauss"])
    def test_infinite_threshold_exit_2_names_tau(self, tmp_path, capsys,
                                                 monkeypatch, stem, command):
        # at tau = 5e-324 the Pareto rule's A n / tau overflows, over i.i.d.
        # Pareto innovations (e1) and a subordinated Gaussian (e8_iid)
        obj = {**json.loads((CONFIGS / f"{stem}.json").read_text()),
               "tau": [5e-324]}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(obj))
        drawn = []
        monkeypatch.setattr(np.random, "Philox", lambda **kw: drawn.append(kw))
        assert cli_main([command, "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "finite" in err
        assert "field: tau" in err
        assert drawn == []

    def test_run_shipped_config(self, tmp_path):
        # reduced-reps pass over the shipped i.i.d. baseline config
        f = tmp_path / "e1.json"
        f.write_text(json.dumps({**json.loads((CONFIGS / "e1.json")
                                              .read_text()), "reps": 200}))
        assert cli_main(["run", "--config", str(f), "--out",
                         str(tmp_path)]) == 0
        summary = json.loads(
            (tmp_path / "e1_iid_baseline_summary.json").read_text()
        )
        assert abs(summary["analyses"]["0:nonexceed"]["p_hat"] - 0.368) < 0.12

    @pytest.mark.parametrize("kind", ["pareto", "folded_pareto"])
    def test_run_gauss_part_with_tau(self, tmp_path, capsys, kind):
        # either subgauss transform has a level, so a subordinated Gaussian
        # with a tau draws its paths through it
        cfg = tiny_config(generator=subgauss_generator(transform=kind),
                          tau=[5.0], analyses=[{"type": "nonexceed"}])
        cfg["generator"]["spec"]["alpha"] = 2.0
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(f)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == []
        assert 0.0 <= summary["analyses"]["0:nonexceed"]["p_hat"] <= 1.0

    def test_settable_surface(self):
        # every value a user can set: each command's flags, the config and
        # generator keys, and no environment variable
        flags = {name: sorted(opt for action in parser._actions
                              for opt in action.option_strings
                              if opt not in ("-h", "--help"))
                 for name, parser in subcommands().items()}
        assert flags == {
            "gauss-tools": ["--berman-hmax", "--nblock", "--out", "--spec"],
            "limits": ["--config", "--out"],
            "run": ["--config", "--out"],
        }
        assert harness.CONFIG_KEYS == {"name", "generator", "n", "tau",
                                       "reps", "base_seed", "analyses"}
        assert harness.GENERATOR_KEYS == {"m4": {"kind", "spec"}}
        assert not [path.name for path in (REPO / "src" / "subgauss").glob(
            "*.py") if "environ" in path.read_text()]

    def test_run_is_its_config(self, tmp_path, monkeypatch, capsys):
        # the seed and the replication count come from the config alone:
        # SUBGAUSS_SEED changes no output byte, and run takes neither
        # --seed nor --reps
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(tiny_config()))

        def summary():
            assert cli_main(["run", "--config", str(f)]) == 0
            return capsys.readouterr().out

        monkeypatch.delenv("SUBGAUSS_SEED", raising=False)
        want = summary()
        for value in ("123", "abc"):
            monkeypatch.setenv("SUBGAUSS_SEED", value)
            assert summary() == want
        for flag in ("--seed", "--reps"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["run", "--config", str(f), flag, "1"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("change, command, field", [
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 1, "alpha": 1.0, "lags": [0, 0], "a": [[[1.0]]],
            "innovation": {"kind": "subgauss", "transform": "pareto", "lin": {
                "d0": 2, "family": "iid", "params": {}, "L": 0}}}}}, "run",
            "d0", id="subgauss-d0-mismatch"),
        pytest.param({"analyses": [{"type": "nonexceed"}, {"type": "mystery"}]},
                     "run", "type", id="unknown-type"),
        pytest.param({"analyses": [{"type": "runs"}]}, "run", "'m'",
                     id="runs-m"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50}]}, "run",
                     "'p'", id="pointproc-p"),
        pytest.param({"analyses": [{"type": "scan", "levels": [1.5]}]}, "run",
                     "field: levels", id="scan-levels"),
        pytest.param({"analyses": [{"type": "scan", "rho": 0.5}]}, "run",
                     "field: rho", id="scan-rho"),
        pytest.param({"analyses": [{"type": "dprime"}]}, "run", "'k_list'",
                     id="dprime-k_list"),
        pytest.param({"tau": []}, "run", "tau", id="no-thresholds"),
        # scan pairs two columns of a subordinated Gaussian: the M4 of lags
        # [0, 0] and a diagonal a over a subgauss innovation
        pytest.param({"generator": subgauss_generator(), "tau": [5.0],
                      "analyses": [{"type": "scan"}]}, "run",
                     "field: d", id="scan-univariate"),
        pytest.param({"tau": [5.0, 5.0], "analyses": [{"type": "scan"}],
                      "generator": {"kind": "m4", "spec": {
                          "d": 2, "alpha": 1.0, "lags": [0, 0],
                          "a": [[[1.0, 0.0], [0.0, 1.0]]],
                          "innovation": {"kind": "iid_pareto",
                                         "alpha": 1.0}}}}, "run",
                     "field: innovation", id="scan-m4"),
        pytest.param({"generator": subgauss_generator(RHO_HALF, d=2),
                      "tau": [], "analyses": [{"type": "scan"}]}, "run",
                     "field: tau", id="scan-without-tau"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **subgauss_generator(RHO_HALF, d=2)["spec"], "lags": [0, 1],
            "a": [np.eye(2).tolist(), np.zeros((2, 2)).tolist()]}},
            "tau": [5.0, 5.0], "analyses": [{"type": "scan"}]}, "run",
            "field: lags", id="scan-lags"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **subgauss_generator(RHO_HALF, d=2)["spec"],
            "a": [[[1.0, 0.5], [0.0, 1.0]]]}},
            "tau": [5.0, 5.0], "analyses": [{"type": "scan"}]}, "run",
            "field: a", id="scan-a-off-diagonal"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": []}]}, "run",
                     "field: k_list", id="dprime-k_list-empty"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": [1, 2]}]},
                     "run", "field: k_list", id="dprime-k-one"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 2, "alpha": 1.0, "lags": [0, 0],
            "a": [[[1.0, 0.0], [0.0, 1.0]]],
            "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
            "tau": [80.0, 80.0], "analyses": [{"type": "dprime", "k_list": [2]}]},
            "run", "field: d", id="dprime-bivariate"),
        # gauss-tools reads a subgauss innovation's table
        pytest.param({"analyses": [{"type": "gauss-tools"}]}, "run",
                     "field: innovation", id="gauss-tools-m4"),
        pytest.param({"generator": subgauss_generator(IID8), "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": 0}]},
            "run", "field: nblock", id="gauss-tools-nblock"),
        pytest.param({"generator": subgauss_generator(IID8), "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": 2001}]},
            "run", "field: nblock", id="gauss-tools-dense-budget"),
        pytest.param({"generator": subgauss_generator({**IID8, "L": 4}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: L", id="gauss-tools-short-table"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 5, "p": 5,
                                    "m": 5}]}, "run", "field: r",
                     id="pointproc-r-le-m"),
        pytest.param({"analyses": [{"type": "runs", "m": 2000}]}, "run",
                     "field: m", id="runs-m-ge-n"),
        pytest.param({"analyses": [{"type": "blocks", "b": 100}]}, "run",
                     "field: b", id="blocks-too-few"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 1990,
                                    "p": 20}]}, "run", "field: r, p",
                     id="pointproc-segment-exceeds-n"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "m": -1}]}, "run", "field: m",
                     id="pointproc-m-negative"),
        pytest.param({"analyses": [{"type": "pointproc", "r": -1, "p": -2,
                                    "m": -5}]}, "run", "field: m",
                     id="pointproc-all-negative"),
        pytest.param({"reps": 200, "analyses": [{
            "type": "pointproc", "r": 50, "p": 5, "lambda_target": 0.0}]},
            "run", "field: lambda_target", id="pointproc-lambda-zero"),
        pytest.param({"reps": 200, "analyses": [{
            "type": "pointproc", "r": 50, "p": 5, "lambda_target": -1.0}]},
            "run", "field: lambda_target", id="pointproc-lambda-negative"),
        # m4 is the one generator kind: a subordinated Gaussian is the M4
        # of lags [0, 0] and a diagonal a over a subgauss innovation
        pytest.param({"generator": {"kind": "gauss", "lin": IID8,
            "standardize": False}, "tau": [], "reps": 1,
            "analyses": [{"type": "gauss-tools"}]},
            "run", "field: kind", id="gauss-unknown-key"),
        pytest.param({"generator": {**tiny_config()["generator"], "m_trunc": 1}},
                     "run", "field: m_trunc", id="m4-unknown-key"),
        # a field of the wrong JSON type
        pytest.param({"generator": "m4"}, "run", "field: generator",
                     id="generator-not-object"),
        pytest.param({"n": "many"}, "run", "field: n", id="n-string"),
        pytest.param({"tau": 1.0}, "run", "field: tau", id="tau-number"),
        pytest.param({"tau": ["80"]}, "run", "field: tau",
                     id="tau-string-entry"),
        pytest.param({"reps": 2.5}, "run", "field: reps", id="reps-fraction"),
        pytest.param({"base_seed": True}, "run", "field: base_seed",
                     id="base-seed-bool"),
        pytest.param({"base_seed": -1}, "run", "field: base_seed",
                     id="base-seed-negative"),
        pytest.param({"base_seed": 2**128}, "run", "field: base_seed",
                     id="base-seed-past-philox-key"),
        pytest.param({"analyses": {"type": "nonexceed"}}, "run",
                     "field: analyses", id="analyses-object"),
        # the name prefixes every output file, so it is a plain file-name
        # stem
        pytest.param({"name": "../escaped"}, "run", "field: name",
                     id="name-parent-directory"),
        pytest.param({"name": "a/b"}, "run", "field: name", id="name-slash"),
        pytest.param({"name": ["x"]}, "run", "field: name", id="name-list"),
        pytest.param({"name": ""}, "run", "field: name", id="name-empty"),
        pytest.param({"name": ".hidden"}, "run", "field: name",
                     id="name-leading-dot"),
        # a key that nothing reads; the output directory is run's --out
        pytest.param({"out": 3}, "run", "field: out", id="out-number"),
        pytest.param({"out": "results"}, "run", "field: out", id="out-string"),
        pytest.param({"base_sed": 1001}, "run", "field: base_sed",
                     id="base-seed-typo"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "bins": 10}]}, "run", "field: bins",
                     id="pointproc-bins"),
        pytest.param({"analyses": [{"type": "runs", "m": 1, "mm": 2}]}, "run",
                     "field: mm", id="runs-unknown-key"),
        # a subordinated Gaussian's thresholds: a tau of the path's length,
        # each entry in (0, n)
        pytest.param({**json.loads((CONFIGS / "e7.json").read_text()),
                      "tau": [1.0]}, "run", "field: tau",
                     id="e7-gauss-tau-length"),
        pytest.param({"generator": subgauss_generator(), "tau": [5000.0]},
                     "run", "field: tau", id="gauss-threshold-nan"),
        pytest.param({"generator": subgauss_generator(), "tau": [0.0]},
                     "run", "field: tau", id="gauss-tau-zero"),
        pytest.param({**json.loads((CONFIGS / "e1.json").read_text()),
                      "tau": [5000.0]}, "run", "field: tau", id="tau-at-n"),
        # the transform is one of the two kinds with an exact Pareto
        # marginal: a window maximum is an M4 over several lags
        pytest.param({"generator": subgauss_generator(transform="window_max"),
                      "tau": [5.0], "reps": 1}, "run", "field: transform",
                     id="gauss-window-max-tau"),
        pytest.param({"generator": subgauss_generator(transform="identity"),
                      "tau": [5.0]}, "run", "field: transform",
                     id="parts-identity"),
        pytest.param({"generator": subgauss_generator(transform="square"),
                      "tau": []}, "run", "field: transform",
                     id="parts-square"),
        # a subgauss innovation takes a kind, a lin and a transform: it has
        # no window (m), lags, list of parts, or coord (column j of the
        # innovation reads column j of the table)
        pytest.param({"generator": subgauss_generator(m=0), "tau": [5.0]},
                     "run", "field: m", id="transform-m-zero"),
        pytest.param({"generator": subgauss_generator(coord=3), "tau": []},
                     "run", "field: coord", id="parts-coord-past-d0"),
        pytest.param({"generator": subgauss_generator(coord=-1), "tau": []},
                     "run", "field: coord", id="parts-coord-negative"),
        pytest.param({"generator": subgauss_generator(parts=[]), "tau": []},
                     "run", "field: parts", id="transform-no-parts"),
        # a value out of range names its field
        pytest.param({"tau": [80.0, 80.0]}, "run", "field: tau",
                     id="tau-length"),
        pytest.param({"tau": [-1.0]}, "run", "field: tau", id="tau-negative"),
        pytest.param({"reps": 0}, "run", "field: reps", id="reps-zero"),
        pytest.param({"n": 0}, "run", "field: n", id="n-zero"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [1, 2]}}}, "run",
            "field: lags", id="spec-lags-without-zero"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[1.0]]]}}}, "run",
            "field: a", id="spec-a-shape"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[-1.0]], [[1.0]]]}}},
            "run", "field: a", id="spec-a-negative"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [[[0.0]], [[0.0]]]}}},
            "run", "field: a", id="spec-a-zero-row"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "alpha": 0.0}}}, "run",
            "field: alpha", id="spec-alpha-zero"),
        pytest.param({"generator": subgauss_generator({**IID8, "L": -1}),
                      "tau": []}, "run", "field: L", id="lin-L-negative"),
        pytest.param({"generator": subgauss_generator({**IID8, "d0": 0}),
                      "tau": []}, "run", "field: d0", id="lin-d0-zero"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": 1.0, "B": [[1.0]]}, "L": 8}), "tau": []}, "run",
            "field: q", id="params-q-one"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "polynomial",
            "params": {"beta": 0.5, "B": [[1.0]]}, "L": 8}), "tau": []}, "run",
            "field: beta", id="params-beta-half"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[-1.0]]}, "L": 8}), "tau": []}, "run",
            "field: B", id="params-B-negative"),
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0]]}, "L": 8}), "tau": []}, "run",
            "field: B", id="params-B-d0-mismatch"),
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "custom", "params": {"table": [[[1.0]]]},
            "L": 0}), "tau": []}, "run", "field: table",
            id="custom-table-shape"),
        # a subgauss innovation's alpha and lags are the spec's
        pytest.param({"generator": subgauss_generator(alpha=0.0), "tau": []},
                     "run", "field: alpha", id="parts-pareto-alpha-zero"),
        pytest.param({"generator": subgauss_generator(lags=[0, 1]),
                      "tau": []}, "run", "field: lags",
                     id="parts-lag-outside-window"),
        pytest.param({"generator": subgauss_generator(m=-1), "tau": []},
                     "run", "field: m", id="transform-m-negative"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 2,
                                    "m": 3}]}, "run", "field: p",
                     id="pointproc-p-lt-m"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            "d": 2, "alpha": 1.0, "lags": [0, 0],
            "a": [[[1.0, 0.0], [0.0, 1.0]]]}}, "tau": [], "reps": 1,
            "analyses": [{"type": "nonexceed"}]},
            "run", "field: innovation", id="spec-without-innovation"),
        # a nested field of the wrong JSON type, or missing
        pytest.param({"generator": {"kind": "m4", "spec": "x"}}, "run",
                     "field: spec", id="spec-string"),
        pytest.param({"generator": subgauss_generator("x"), "tau": []},
                     "run", "field: lin", id="lin-string"),
        pytest.param({"generator": subgauss_generator(transform="x"),
                      "tau": []}, "run", "field: transform",
                     id="transform-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "alpha": "one"}}}, "run",
            "field: alpha", id="spec-alpha-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "d": 1.5}}}, "run",
            "field: d", id="spec-d-fraction"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto"}}}}, "run", "field: alpha",
            id="innovation-missing-alpha"),
        pytest.param({"analyses": [{"type": "runs", "m": "3"}]}, "run",
                     "field: m", id="runs-m-string"),
        pytest.param({"analyses": [{"type": "blocks", "b": 1.5}]}, "run",
                     "field: b", id="blocks-b-fraction"),
        pytest.param({"analyses": [{"type": "pointproc", "r": "50", "p": 5}]},
                     "run", "field: r", id="pointproc-r-string"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": None}]},
                     "run", "field: p", id="pointproc-p-null"),
        pytest.param({"analyses": [{"type": "pointproc", "r": 50, "p": 5,
                                    "lambda_target": "2"}]}, "run",
                     "field: lambda_target", id="pointproc-lambda-string"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "iid", "params": {}, "L": 8}), "tau": [],
            "reps": 1, "analyses": [{"type": "gauss-tools", "nblock": "50"}]},
            "run", "field: nblock", id="gauss-tools-nblock-string"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": "2"}]}, "run",
                     "field: k_list", id="dprime-k_list-string"),
        pytest.param({"analyses": [{"type": "dprime", "k_list": [2, 2.5]}]},
                     "run", "field: k_list", id="dprime-k_list-fraction"),
        # a key that nothing reads, or a field of the wrong JSON type, inside
        # a spec, an innovation, a table (lin) or its params
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "extra": 1}}}, "run",
            "field: extra", id="spec-unknown-key"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": 1.0, "beta": 2}}}},
            "run", "field: beta", id="innovation-unknown-key"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": "one"}}}},
            "run", "field: alpha", id="innovation-alpha-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": -1.0}}}},
            "run", "field: alpha", id="innovation-alpha-negative"),
        # draws from one alpha against thresholds from another
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": "iid_pareto", "alpha": 2.0}}}},
            "run", "field: alpha", id="innovation-alpha-differs"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [0, "1"]}}}, "run",
            "field: lags", id="spec-lags-string"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "lags": [0, 1, 2]}}}, "run",
            "field: lags", id="spec-lags-three"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "iid", "params": {}, "L": 8, "Lmax": 9}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: Lmax", id="lin-unknown-key"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "iid", "params": {}, "L": 8.5}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: L", id="lin-L-fraction"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0]], "beta": 1.0}, "L": 8}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: beta", id="params-unknown-key"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": "two", "B": [[1.0]]}, "L": 8}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: q", id="params-q-string"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [["1"]]}, "L": 8}),
            "tau": [], "reps": 1, "analyses": [{"type": "gauss-tools"}]},
            "run", "field: B", id="params-B-string"),
        pytest.param({"generator": subgauss_generator(scale=2), "tau": [],
                      "reps": 1, "analyses": [{"type": "gauss-tools"}]},
                     "run", "field: scale", id="parts-unknown-key"),
        pytest.param({"generator": subgauss_generator(coord="0"), "tau": [],
                      "reps": 1, "analyses": [{"type": "gauss-tools"}]},
                     "run", "field: coord", id="parts-coord-string"),
        # an innovation reads lag 0 of its column only, and a transform
        # outside the catalog names transform whatever else it holds
        pytest.param({"generator": subgauss_generator(lags=[2]),
                      "tau": [5.0]}, "run", "field: lags",
                     id="parts-pareto-lags"),
        pytest.param({"generator": subgauss_generator(transform="abs"),
                      "tau": [], "reps": 1,
                      "analyses": [{"type": "gauss-tools"}]}, "run",
                     "field: transform", id="parts-abs-alpha"),
        pytest.param({"generator": subgauss_generator(
            transform="folded_pareto", lags=[0, 1]), "tau": [5.0]}, "limits",
            "field: lags", id="limits-parts-folded-pareto-lags"),
        pytest.param({"generator": subgauss_generator(transform="window_max"),
                      "tau": [], "analyses": [{"type": "gauss-tools"}]},
                     "limits", "field: transform",
                     id="limits-parts-window-max-alpha"),
        # a list or an object where a string is read
        pytest.param({"analyses": [{"type": ["nonexceed"]}]}, "limits",
                     "field: type", id="type-list"),
        pytest.param({"generator": {**tiny_config()["generator"],
                                    "kind": ["m4"]}}, "limits",
                     "field: kind", id="generator-kind-list"),
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"],
            "innovation": {"kind": {"a": 1}, "alpha": 1.0}}}}, "limits",
            "field: kind", id="innovation-kind-object"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": ["log_boundary"],
            "params": {"q": 2.0, "B": [[1.0]]}, "L": 8}), "tau": [5.0]},
            "limits", "field: family", id="lin-family-list"),
        # a nested list that is not rectangular
        pytest.param({"generator": {"kind": "m4", "spec": {
            **tiny_config()["generator"]["spec"], "a": [-1, [[1.0]]]}}},
            "limits", "field: a", id="a-ragged"),
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0, 0.0], [0.0]]}, "L": 8}, d=2),
            "tau": [5.0, 5.0]}, "limits", "field: B", id="B-ragged"),
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "custom", "params": {"table": [
                [[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0]]]}, "L": 1},
            d=2), "tau": [5.0, 5.0]}, "limits", "field: table",
            id="custom-table-ragged"),
        # a Gaussian column whose variance is zero or not finite
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1.0, 0.0], [0.0, 0.0]]}, "L": 8},
            d=2), "tau": [5.0, 5.0]}, "run", "field: lin",
            id="lin-zero-variance-column"),
        pytest.param({"generator": subgauss_generator({
            "d0": 2, "family": "custom",
            "params": {"table": [[[1.0, 0.0], [0.0, 0.0]]]}, "L": 0}, d=2),
            "tau": [5.0, 5.0], "analyses": [{"type": "scan"}]}, "limits",
            "field: lin", id="custom-table-zero-row"),
        pytest.param({"generator": subgauss_generator({
            "d0": 1, "family": "log_boundary",
            "params": {"q": 2.0, "B": [[1e308]]}, "L": 8}), "tau": [5.0]},
            "limits", "field: lin", id="lin-variance-overflows"),
    ])
    def test_run_config_error_exit_2_names_field(self, tmp_path, capsys,
                                                 monkeypatch, change,
                                                 command, field):
        drawn = []
        build = harness._build_generator

        monkeypatch.setattr(harness, "_build_generator",
                            lambda cfg: build(cfg)._replace(path_fn=drawn.append))
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(tiny_config(**change)))
        assert cli_main([command, "--config", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert drawn == []

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["gauss-tools", "--nblock", "ten", "--spec"], "--nblock",
                     id="gauss-tools-nblock"),
    ])
    def test_malformed_flag_value_exit_2_names_flag(self, tmp_path, capsys,
                                                    argv, flag):
        # argparse rejects the value before the file is read
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + [str(tmp_path / "in.json")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["limits", "--config"], id="limits"),
        pytest.param(["gauss-tools", "--spec"], id="gauss-tools"),
        pytest.param(["run", "--config"], id="run"),
    ])
    def test_format_on_json_only_command_exit_2(self, tmp_path, capsys,
                                                argv):
        # every command writes JSON, so none takes --format
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + [str(tmp_path / "in.json"), "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subgauss.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "{gauss-tools,limits,run}" in proc.stdout

    def test_readme_cli_block_lists_every_command(self):
        # the `subgauss <command>` lines of README's CLI block are exactly
        # the parser's subcommands
        readme = (REPO / "README.md").read_text()
        block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
        listed = [line.split()[1] for line in block.split("```", 1)[0]
                  .splitlines() if line.startswith("subgauss ")]
        assert sorted(listed) == sorted(subcommands())


class TestCovarianceCli:
    """`gauss-tools` against per-lag `autocov` and a dense eigensolve built
    from it; values, not bytes, since the FFT kernel may move the last
    bit."""

    @pytest.fixture
    def spec(self, tmp_path):
        psi = np.random.default_rng(2).normal(size=(9, 2, 2))
        f = tmp_path / "lin.json"
        f.write_text(json.dumps({"d0": 2, "family": "custom",
                                 "params": {"table": psi.tolist()}, "L": 8}))
        return f, gausslin.CoeffTable.from_json(f.read_text())

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
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"d0": 1, "family": "polynomial",
                                 "params": {"beta": 1.0, "B": [[1.0]]},
                                 "L": 4}))
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
    JSON files as summary entries. maxima.json adds the entry's closed-form
    limits, as `limits` prints them for the same config."""

    @pytest.mark.parametrize("golden, tau, reps, analysis", [
        pytest.param("maxima.json", 1.0, 100, {"type": "nonexceed"},
                     id="maxima-json"),
        pytest.param("pointproc.csv", 5.0, 20, POINTPROC, id="pointproc-csv"),
        pytest.param("pointproc.json", 5.0, 200, POINTPROC,
                     id="pointproc-json"),
        pytest.param("dprime.json", 5.0, 50,
                     {"type": "dprime", "k_list": [2, 4, 8]}, id="dprime"),
    ])
    def test_output_bytes(self, tmp_path, capsys, golden, tau, reps,
                          analysis):
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
            assert cli_main(["limits", "--config", str(f)]) == 0
            entry.update(json.loads(capsys.readouterr().out)["0:nonexceed"])
        assert entry == json.loads(want)


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_config_validates_and_builds(self, path, tmp_path, monkeypatch):
        # configs are edited by hand; each keeps the one canonical layout.
        # `limits` builds its generator, checks its analyses and prints
        # their targets, keyed as the summary's, without drawing a path
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        cfg = ExperimentConfig.from_json(text)
        drawn = []
        build = harness._build_generator
        monkeypatch.setattr(harness, "_build_generator",
                            lambda cfg: build(cfg)._replace(path_fn=drawn.append))
        out = tmp_path / "limits.json"
        assert cli_main(["limits", "--config", str(path), "--out",
                         str(out)]) == 0
        keys = {f"{idx}:{a['type']}" for idx, a in enumerate(cfg.analyses)}
        assert set(json.loads(out.read_text())) <= keys
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
