"""A command loads only the scipy modules its work reads.

`pointproc` computes its diagnostics over `scipy.special`, and only
`chaos.bvn_joint_tail` reads `scipy.integrate`, which it imports on its first
call. A fresh interpreter shows which modules `run` and then `limits` on the
same config have loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a run that reaches poisson_diagnostics: pointproc needs >= 200 replications
CONFIG = {
    "name": "imports",
    "generator": {"kind": "m4", "spec": {
        "d": 1, "alpha": 1.0, "lags": [0, 1], "a": [[[1.0]], [[1.0]]],
        "innovation": {"kind": "iid_pareto", "alpha": 1.0}}},
    "n": 1000,
    "tau": [50.0],
    "reps": 200,
    "base_seed": 7,
    "analyses": [{"type": "runs", "m": 1},
                 {"type": "pointproc", "r": 20, "p": 5}],
}

SCRIPT = """
import json, sys
import subgauss, subgauss.cli
from subgauss import chaos

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg")
config, out = sys.argv[1], sys.argv[2]
code = subgauss.cli.main(["run", "--config", config, "--out", out])
after_run = [m for m in HEAVY if m in sys.modules]
limits = subgauss.cli.main(["limits", "--config", config,
                            "--out", out + "/limits.json"])
after_limits = [m for m in HEAVY if m in sys.modules]
chaos.bvn_joint_tail(0.5, 2.0)
print(json.dumps({"code": code, "after_run": after_run, "limits": limits,
                  "after_limits": after_limits,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_run_loads_no_stats_integrate_optimize_or_linalg(tmp_path):
    config = tmp_path / "imports.json"
    config.write_text(json.dumps(CONFIG))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    summary = json.loads((tmp_path / "imports_summary.json").read_text())
    assert got["code"] == 0
    assert "chi2_pvalue" in summary["analyses"]["1:pointproc"]
    assert got["after_run"] == []
    assert got["limits"] == 0
    assert set(json.loads((tmp_path / "limits.json").read_text())) == {
        "0:runs", "1:pointproc"}
    assert got["after_limits"] == []
    assert got["integrate"]
