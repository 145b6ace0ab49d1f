"""One benchmark session: a fresh process that sets up and runs a workload.

Usage (started by run.py, not by hand):

    python3 bench/session.py <session-dir> <spawn-time>

`<session-dir>/request.json` names the workload, its inputs, whether this
is a set-up probe (stop at the first unit) and whether to trace. The
session writes `<session-dir>/result.json`: the unit marks and
calibration samples (see `tracer.UnitClock`), the set-up time measured
from `<spawn-time>` (the parent's `time.monotonic()` just before the
spawn, so interpreter start-up and imports count), the end of the workload
call, peak RSS, library versions and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from tracer import SetupDone, Tracer, UnitClock
import workloads


def _simulate_info(args, kwargs):
    coeffs = args[0] if args else kwargs["coeffs"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"samples": int(n) * coeffs.d0}


def _expand_info(args, kwargs):
    f = args[0] if args else kwargs["f"]
    K = args[1] if len(args) > 1 else kwargs["K"]
    return {"key": repr((f, K))}


# (module, attribute, span name, info). Every cross-layer call the
# workloads make goes through one of these attributes.
TRACE_POINTS = (
    ("gausslin", "make_coeffs", "gausslin.make_coeffs", None),
    ("gausslin", "autocov", "gausslin.autocov", None),
    ("gausslin", "autocov_all", "gausslin.autocov_all", None),
    ("gausslin", "simulate", "gausslin.simulate", _simulate_info),
    ("gausslin", "check_decay", "gausslin.check_decay", None),
    ("gausslin", "full_rank_check", "gausslin.full_rank_check", None),
    ("gausslin", "block_toeplitz_min_eig", "gausslin.block_toeplitz_min_eig", None),
    ("gausslin", "berman_profile", "gausslin.berman_profile", None),
    ("subordinate", "apply", "subordinate.apply", None),
    ("m4", "innovations", "m4.innovations", None),
    ("m4", "build", "m4.build", None),
    ("m4", "thresholds", "m4.thresholds", None),
    ("evt", "cmax", "evt.cmax", None),
    ("evt", "_exceed_indicator", "evt.exceed_indicator", None),
    ("evt", "runs_theta", "evt.runs_theta", None),
    ("evt", "blocks_theta", "evt.blocks_theta", None),
    # bound by `from subgauss.evt import _exceed_indicator`
    ("pointproc", "_exceed_indicator", "evt.exceed_indicator", None),
    ("pointproc", "gapped_blocks", "pointproc.gapped_blocks", None),
    ("pointproc", "poisson_diagnostics", "pointproc.poisson_diagnostics", None),
    ("pointproc", "patterns_to_csv", "pointproc.patterns_to_csv", None),
    ("chaos", "gaussian_expectation", "chaos.gaussian_expectation", None),
    ("chaos", "hermite_expand", "chaos.hermite_expand", _expand_info),
    ("chaos", "mehler_apply", "chaos.mehler_apply", None),
    ("chaos", "hypercontractivity_check", "chaos.hypercontractivity_check", None),
    ("chaos", "bvn_joint_tail", "chaos.bvn_joint_tail", None),
    ("chaos", "block_canonical_corr", "chaos.block_canonical_corr", None),
    ("chaos", "canonical_correlation", "chaos.canonical_correlation", None),
    ("harness", "run", "harness.run", None),
    ("harness", "_build_generator", "harness.build_generator", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_run", "cli.cmd_run", None),
    ("cli", "_cmd_gauss_tools", "cli.cmd_gauss_tools", None),
)


def install(tracer: Tracer) -> None:
    import importlib

    for module, attr, name, info in TRACE_POINTS:
        tracer.wrap(importlib.import_module(f"subgauss.{module}"), attr, name, info)


def main() -> int:
    sdir = Path(sys.argv[1])
    spawn_t = float(sys.argv[2])
    req = json.loads((sdir / "request.json").read_text())
    workload = workloads.WORKLOADS[req["workload"]]

    import numpy
    import scipy
    import subgauss

    tracer = Tracer() if req["trace"] else None
    clock = UnitClock(req["probe"], workload.kernel())
    if tracer is not None:
        install(tracer)
        clock.calibrate = tracer.wrap_fn(clock.calibrate, "bench.calibrate")
    out = {"probe": req["probe"], "trace": req["trace"]}
    try:
        out.update(workload.session(req["inputs"], sdir, clock))
    except SetupDone:
        pass
    out.update(spawn=spawn_t, marks=clock.marks, cals=clock.cals, end=clock.end)
    out["setup_s"] = clock.marks[0] - spawn_t if clock.marks else None
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "subgauss": subgauss.__version__}
    if tracer is not None:
        out["spans"] = tracer.spans
    (sdir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
