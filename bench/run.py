#!/usr/bin/env python3
"""subgauss benchmark: three workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload subgauss_mc --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each was chosen): `subgauss_mc`,
`pareto_estimators`, `quadrature_oracle`.

Every session is a fresh child process (session.py) with BLAS/OpenMP pinned
to one thread. A run with `--trace 0` makes two set-up probes (each stops
at its first unit), then full sessions until `--seconds` of timed work is
done, at least two. A run with `--trace 1` makes one untraced and two
traced sessions. All sessions of a run use the same inputs, so their output
bytes must match (the determinism check), and the two traced sessions must
give the same exact counts. Every session also runs a calibration kernel
between and inside units; end-to-end times are reported in reference
seconds (README.md explains why and how).

The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. The lines before it are a
readable report: environment, sessions, correctness gate, metrics, and for
a traced run the self time per layer and the tracing overhead. The spans of
the first traced session go to `.bench_out/`. Exit code: 0 when every check
passes, 1 when a check fails or a session dies, 2 when the package is
missing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PROBES = 2
MIN_SESSIONS = 2
# No optional session starts once the run could pass this many seconds.
SOFT_DEADLINE_S = 140.0
# A session still running at this many seconds into the run is killed.
HARD_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("gausslin", "chaos", "subordinate", "m4", "evt", "pointproc",
           "harness", "cli")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Layers:
    """Per-name call statistics of one traced session."""

    def __init__(self, spans, first_mark: float, units: int, wall: float,
                 artifact_bytes: int):
        self.units, self.wall, self.artifact_bytes = units, wall, artifact_bytes
        self.stats: dict[str, dict] = {}
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, info = span
            st = self.stats.setdefault(name, {
                "calls": 0, "in_units": 0, "self_s": 0.0, "busy_s": 0.0,
                "raised": Counter(), "samples": 0, "keys": set()})
            st["calls"] += 1
            st["in_units"] += start >= first_mark
            st["self_s"] += own
            st["busy_s"] += end - start
            info = info or {}
            if "raised" in info:
                st["raised"][info["raised"]] += 1
            st["samples"] += info.get("samples", 0)
            if "key" in info:
                st["keys"].add(info["key"])
        self.module_self = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            module = name.split(".")[0]
            self.module_self[module] = self.module_self.get(module, 0.0) + st["self_s"]

    def get(self, name: str, field: str):
        st = self.stats.get(name)
        return st[field] if st else 0

    def self_s(self, name):
        return self.get(name, "self_s")

    def calls(self, name):
        return self.get(name, "calls")

    def per_unit(self, name):
        return self.get(name, "in_units") / self.units

    def samples_per_s(self, name):
        busy = self.get(name, "busy_s")
        return self.get(name, "samples") / busy if busy else 0.0

    def insufficient_frac(self):
        names = ("evt.runs_theta", "evt.blocks_theta")
        calls = sum(self.calls(n) for n in names)
        raised = sum(self.stats[n]["raised"]["InsufficientExceedances"]
                     for n in names if n in self.stats)
        return raised / calls if calls else 0.0

    def redundant_frac(self, name):
        calls = self.calls(name)
        return 1.0 - len(self.stats[name]["keys"]) / calls if calls else 0.0

    def share(self, module):
        return self.module_self[module] / self.wall


def _self(name):
    return lambda L: L.self_s(name)


# (name, unit, better, exact, value). "exact" marks counts that must repeat
# exactly between runs of one seed; they are reported as counts, never as
# speed-ups. self_s, calls and artifact_bytes are per traced session (one
# whole workload); calls_per_unit divides the calls made after the first
# unit started by the units attempted.
PER_LAYER = (
    ("gausslin.simulate.self_s", "s", "lower", False, _self("gausslin.simulate")),
    ("gausslin.simulate.calls", "count", "lower", True,
     lambda L: L.calls("gausslin.simulate")),
    ("gausslin.simulate.samples_per_s", "1/s", "higher", False,
     lambda L: L.samples_per_s("gausslin.simulate")),
    ("gausslin.make_coeffs.calls_per_unit", "count/unit", "lower", True,
     lambda L: L.per_unit("gausslin.make_coeffs")),
    ("gausslin.autocov.calls_per_unit", "count/unit", "lower", True,
     lambda L: L.per_unit("gausslin.autocov")),
    ("gausslin.autocov_all.self_s", "s", "lower", False, _self("gausslin.autocov_all")),
    ("subordinate.apply.self_s", "s", "lower", False, _self("subordinate.apply")),
    ("m4.innovations.self_s", "s", "lower", False, _self("m4.innovations")),
    ("m4.build.self_s", "s", "lower", False, _self("m4.build")),
    ("evt.exceed_indicator.calls_per_unit", "count/unit", "lower", True,
     lambda L: L.per_unit("evt.exceed_indicator")),
    ("evt.runs_theta.self_s", "s", "lower", False, _self("evt.runs_theta")),
    ("evt.blocks_theta.self_s", "s", "lower", False, _self("evt.blocks_theta")),
    ("evt.cmax.self_s", "s", "lower", False, _self("evt.cmax")),
    ("evt.insufficient_frac", "ratio", "lower", True,
     lambda L: L.insufficient_frac()),
    ("pointproc.gapped_blocks.self_s", "s", "lower", False,
     _self("pointproc.gapped_blocks")),
    ("pointproc.poisson_diagnostics.self_s", "s", "lower", False,
     _self("pointproc.poisson_diagnostics")),
    ("pointproc.patterns_to_csv.self_s", "s", "lower", False,
     _self("pointproc.patterns_to_csv")),
    ("harness.run.self_s", "s", "lower", False, _self("harness.run")),
    ("harness.artifact_bytes", "bytes", "lower", True, lambda L: L.artifact_bytes),
    ("chaos.hermite_expand.calls", "count", "lower", True,
     lambda L: L.calls("chaos.hermite_expand")),
    ("chaos.hermite_expand.self_s", "s", "lower", False, _self("chaos.hermite_expand")),
    ("chaos.hermite_expand.busy_s", "s", "lower", False,
     lambda L: L.get("chaos.hermite_expand", "busy_s")),
    ("chaos.hermite_expand.redundant_frac", "ratio", "lower", True,
     lambda L: L.redundant_frac("chaos.hermite_expand")),
    ("chaos.gaussian_expectation.calls", "count", "lower", True,
     lambda L: L.calls("chaos.gaussian_expectation")),
    ("chaos.gaussian_expectation.self_s", "s", "lower", False,
     _self("chaos.gaussian_expectation")),
    ("chaos.bvn_joint_tail.self_s", "s", "lower", False, _self("chaos.bvn_joint_tail")),
    ("chaos.block_canonical_corr.self_s", "s", "lower", False,
     _self("chaos.block_canonical_corr")),
    ("cli.main.self_s", "s", "lower", False, _self("cli.main")),
) + tuple(
    (f"{m}.share", "ratio", "lower", False, lambda L, m=m: L.share(m))
    for m in MODULES
)


def tail_percentile(times):
    """(q, value, beyond): the highest integer percentile q with at least
    ten units beyond it (nearest rank; at least the median)."""
    n = len(times)
    q = max(50, 100 * (n - 10) // n)
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(times)[rank - 1], n - rank


def work_intervals(res: dict, ref_s: float) -> list[tuple[float, float]]:
    """(raw, reference) seconds of work between successive marks.

    Interval i runs from mark i to mark i+1 (the last one to the end), less
    the calibration runs inside it. Its reference time scales the raw time
    by the kernel's reference time `ref_s` over the mean kernel time of the
    runs inside it and of the nearest run on each side.
    """
    cals = res["cals"]
    starts = [c[0] for c in cals]
    bounds = res["marks"] + [res["end"]]
    out = []
    for begin, stop in zip(bounds, bounds[1:]):
        lo = bisect.bisect_left(starts, begin)
        hi = bisect.bisect_left(starts, stop)
        around = cals[max(lo - 1, 0):min(hi + 1, len(cals))]
        raw = stop - begin - sum(d for _, d in cals[lo:hi])
        out.append((raw, raw * ref_s / statistics.mean(d for _, d in around)))
    return out


def reference_setup(res: dict, ref_s: float) -> float:
    """Set-up time rescaled by the kernel run that ends it."""
    return res["setup_s"] * ref_s / res["cals"][0][1]


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    # The package lets this variable override every seed; the benchmark's
    # inputs come from --seed alone.
    env.pop("SUBGAUSS_SEED", None)
    threads = str(min(1, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def output_digest(sdir: Path) -> tuple[str, int]:
    """sha256 over every output file (name and bytes) and the bytes the
    program wrote under out/."""
    h = hashlib.sha256()
    artifact_bytes = 0
    for path in sorted(sdir.rglob("*")):
        if not path.is_file() or path.name in ("request.json", "result.json"):
            continue
        data = path.read_bytes()
        h.update(str(path.relative_to(sdir)).encode() + b"\0" + data)
        if path.parent.name == "out":
            artifact_bytes += len(data)
    return h.hexdigest(), artifact_bytes


def run_session(run_dir: Path, idx: int, workload: str, inputs: dict, env: dict,
                t_start: float, probe: bool, trace: bool) -> dict:
    sdir = run_dir / f"s{idx}"
    sdir.mkdir()
    (sdir / "request.json").write_text(json.dumps(
        {"workload": workload, "inputs": inputs, "probe": probe, "trace": trace}))
    spawn = time.monotonic()
    timeout = max(1.0, HARD_DEADLINE_S - (spawn - t_start))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "session.py"), str(sdir), repr(spawn)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"session {idx} killed after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"session {idx} exited with code {proc.returncode}")
    res = json.loads((sdir / "result.json").read_text())
    res["wall_s"] = (res["marks"][0] if probe else res["end"]) - spawn
    if not probe:
        res["checks"], res["failed"] = workloads.WORKLOADS[workload].check(
            inputs, sdir, res)
        res["digest"], res["artifact_bytes"] = output_digest(sdir)
    shutil.rmtree(sdir)
    return res


def run_sessions(workload, inputs, seconds, trace, run_dir, t_start):
    env = child_env()
    done: list[dict] = []

    def go(probe, traced):
        res = run_session(run_dir, len(done), workload, inputs, env, t_start,
                          probe, traced)
        done.append(res)
        return res

    if trace:
        for traced in (False, True, True):
            go(False, traced)
        return done
    for _ in range(PROBES):
        go(True, False)
    timed = 0.0
    while True:
        res = go(False, False)
        timed += res["end"] - res["marks"][0]
        full = [r for r in done if not r["probe"]]
        elapsed = time.monotonic() - t_start
        if len(full) >= MIN_SESSIONS and (
                timed >= seconds or elapsed + res["wall_s"] > SOFT_DEADLINE_S):
            return done


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def environment(workload: str, seed: int, inputs: dict, versions: dict) -> list[str]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    src = hashlib.sha256()
    for path in sorted((SRC / "subgauss").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env = child_env()
    base = inputs.get("config", {}).get("base_seed")
    return [
        "# environment",
        f"python {versions['python']}  numpy {versions['numpy']}  "
        f"scipy {versions['scipy']}  subgauss {versions['subgauss']}",
        f"nproc {os.cpu_count()}  cpu {cpu}",
        "threads " + "  ".join(f"{v}={env[v]}" for v in THREAD_VARS),
        f"workload {workload}  seed {seed}"
        + (f"  base_seed {base}" if base is not None else ""),
        f"git commit {commit}  source sha256 {src.hexdigest()[:16]}",
    ]


def session_lines(sessions) -> list[str]:
    out = ["# sessions"]
    for i, r in enumerate(sessions):
        setup = f"setup {r['setup_s']:.3f} s" if r["setup_s"] is not None else "setup -"
        if r["probe"]:
            out.append(f"probe   {i}: {setup}")
            continue
        out.append(
            f"session {i}{' traced' if r['trace'] else ''}: {setup}, "
            f"wall {r['wall_s']:.3f} s, timed {r['end'] - r['marks'][0]:.3f} s, "
            f"rss {r['rss_kb'] / 1024:.1f} MB, failed {r['failed']}, "
            f"sha256 {r['digest'][:16]}")
    return out


def end_to_end(sessions, attempted_per_session: int, drop_last: bool,
               ref_s: float, lines: list[str]) -> dict:
    """Metrics over the full sessions, in reference seconds (see
    tracer.UnitClock); the raw wall-clock figures are printed beside them."""
    full = [r for r in sessions if not r["probe"]]
    work = [work_intervals(r, ref_s) for r in full]
    units = sum(attempted_per_session - r["failed"] for r in full)
    # On config workloads the last stretch also holds the folds and the
    # output writing: it counts in the timed section, not as a unit.
    unit_iv = [iv for w in work for iv in (w[:-1] if drop_last else w)]
    attempted = attempted_per_session * len(full)
    failed = sum(r["failed"] for r in full)
    values, raw = {}, {}
    for k, pick in ((0, raw), (1, values)):
        timed = sum(iv[k] for w in work for iv in w)
        times = [iv[k] for iv in unit_iv]
        q, tail, beyond = tail_percentile(times)
        pick["units_per_s"] = units / timed
        pick["unit_p50_ms"] = statistics.median(times) * 1e3
        pick["unit_tail_ms"] = tail * 1e3
    values["setup_s"] = statistics.median(reference_setup(r, ref_s) for r in sessions)
    raw["setup_s"] = statistics.median(r["setup_s"] for r in sessions)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = max(r["rss_kb"] for r in full) / 1024
    cals = [c[1] for r in full for c in r["cals"]]
    notes = {
        "units_per_s": f"{units} units",
        "unit_p50_ms": f"median of {len(unit_iv)} unit times",
        "unit_tail_ms": f"p{q} of {len(unit_iv)} unit times, {beyond} beyond",
        "setup_s": f"median of {len(sessions)} set-ups",
        "peak_rss_mb": f"max ru_maxrss of {len(full)} sessions",
    }
    lines.append("# end-to-end (tracing off; reference time, raw wall clock in brackets)")
    for name, unit in END_TO_END:
        lines.append(f"{name:<14} {values[name]:>12.4f} {unit:<4} "
                     f"[{raw[name]:>12.4f}] {notes[name]}")
    lines.append(f"{'failed_frac':<14} {failed / attempted:>12.4f} {'':<4} "
                 f"{'':14} {failed}/{attempted} units")
    lines.append(f"calibration kernel: {len(cals)} runs, median "
                 f"{statistics.median(cals) * 1e3:.3f} ms, range "
                 f"{min(cals) * 1e3:.3f}..{max(cals) * 1e3:.3f} ms, reference "
                 f"{ref_s * 1e3:g} ms")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(sessions, attempted_per_session: int, workload: str, seed: int,
              ref_s: float, lines: list[str], checks: list) -> dict:
    untraced = [r for r in sessions if not r["trace"]]
    traced = [r for r in sessions if r["trace"]]
    layers = [Layers(r["spans"], r["marks"][0], attempted_per_session,
                     r["wall_s"], r["artifact_bytes"]) for r in traced]
    values = {}
    mismatched = []
    for name, unit, _, exact, fn in PER_LAYER:
        vals = [fn(L) for L in layers]
        if exact and len(set(vals)) > 1:
            mismatched.append(f"{name} {vals}")
        values[name] = statistics.median(vals)
    checks.append(("exact counts repeat", not mismatched,
                   "; ".join(mismatched) or
                   f"{sum(e for *_, e, _ in PER_LAYER)} counts equal in "
                   f"{len(layers)} traced sessions"))

    def timed(r, k):
        return sum(iv[k] for iv in work_intervals(r, ref_s))

    lines.append("# tracing overhead (timed section: traced - untraced)")
    for k, label in ((1, "reference"), (0, "raw wall clock")):
        t_u = statistics.median(timed(r, k) for r in untraced)
        t_t = statistics.median(timed(r, k) for r in traced)
        lines.append(f"{label:<15} untraced {t_u:.3f} s, traced {t_t:.3f} s, "
                     f"overhead {t_t - t_u:+.3f} s ({(t_t / t_u - 1) * 100:+.1f}%)")
    L = layers[0]
    spans = sum(len(r["spans"]) for r in traced) // len(traced)
    lines.append(f"# self time by layer (traced session {sessions.index(traced[0])}, "
                 f"{spans} spans, raw wall clock)")
    for m, own in L.module_self.items():
        label = "calibration" if m == "bench" else m
        lines.append(f"{label:<12} {own:>9.3f} s {own / L.wall * 100:6.1f}%")
    rest = L.wall - sum(L.module_self.values())
    lines.append(f"{'unwrapped':<12} {rest:>9.3f} s {rest / L.wall * 100:6.1f}%"
                 "  (interpreter start, imports, benchmark code)")
    lines.append(f"{'= wall':<12} {L.wall:>9.3f} s")
    lines.append("# per-layer metrics (per traced session; exact = count that must repeat)")
    for name, unit, _, exact, _ in PER_LAYER:
        v = values[name]
        shown = f"{v:.0f}" if unit in ("count", "bytes") else f"{v:.6g}"
        base = {"count": "per session", "count/unit":
                f"over {attempted_per_session} units", "bytes": "per session"}.get(unit, "")
        lines.append(f"{name:<40} {shown:>14} {unit:<10} "
                     f"{'exact ' + base if exact else ''}".rstrip())

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "info"],
         "spans": traced[0]["spans"]}))
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "subgauss" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.size)
    per_session = workloads.units_attempted(inputs)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workloads.prepare(inputs, run_dir)
        sessions = run_sessions(args.workload, inputs, args.seconds, args.trace,
                                run_dir, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    full = [r for r in sessions if not r["probe"]]
    lines = environment(args.workload, args.seed, inputs, full[0]["versions"])
    lines += session_lines(sessions)
    # A gate row passes when it passes in every session.
    gate: dict[str, tuple] = {}
    for r in full:
        for label, ok, detail in r["checks"]:
            if label not in gate or (gate[label][1] and not ok):
                gate[label] = (label, ok, detail)
    checks = list(gate.values())
    digests = sorted({r["digest"] for r in full})
    checks.append(("determinism", len(digests) == 1,
                   f"{len(full)} sessions ({sum(r['trace'] for r in full)} traced), "
                   f"sha256 {', '.join(d[:16] for d in digests)}"))
    if args.trace:
        metrics = per_layer(sessions, per_session, args.workload, args.seed,
                            workload.kernel_ref_s, lines, checks)
    else:
        metrics = end_to_end(sessions, per_session, "config" in inputs,
                             workload.kernel_ref_s, lines)
    lines.append("# correctness")
    lines += [f"{'PASS' if ok else 'FAIL'} {label}: {detail}" for label, ok, detail in checks]
    correct = all(ok for _, ok, _ in checks)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": per_session * len(full),
        "failed": sum(r["failed"] for r in full),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
