"""Seeded Monte Carlo replication engine, analysis registry and configs.

A config names a path generator (an M4 spec or a transformed Gaussian linear
process), a sample size, a tau vector, a replication count and a base seed,
plus a list of analyses. `replicate` is the one replication loop: replication
i draws the path with seed base_seed XOR i once, every per-path analysis maps
over that path, and results are folded in index order, so output bytes
depend only on (config, base_seed), never on execution order. The threshold
analyses (runs, blocks, pointproc) share one exceedance pass per replication:
the sorted exceedance times of `evt.exceedances`, found on first use.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from subgauss import evt, gausslin, m4, pointproc, subordinate
from subgauss.gausslin import (SpecError, _integer, _integers, _keys, _list,
                               _number, _numbers, _object)

ENV_SEED = "SUBGAUSS_SEED"


class Generator(NamedTuple):
    """A path generator and what the analyses may use of it."""

    path_fn: Callable    # seed -> SeriesMatrix
    spec: object = None  # M4Spec, GaussianSource, or None for a bare path_fn
    u: object = None     # ThresholdVector, or None without thresholds


# Registry checks raise SpecError naming the config field at fault; they see
# the generator and the replication count but draw no path. A path has gen.u.n
# rows.

def _needs_thresholds(a, gen, reps):
    if gen.u is None:
        raise SpecError("needs thresholds: a nonempty tau (field: tau)")


def _check_runs(a, gen, reps):
    _needs_thresholds(a, gen, reps)
    if not 0 <= a["m"] < gen.u.n:
        raise SpecError(f"run length m={a['m']} must lie in [0, n={gen.u.n}) "
                        "(field: m)")


def _check_blocks(a, gen, reps):
    _needs_thresholds(a, gen, reps)
    if a["b"] < 1 or gen.u.n // a["b"] < 50:
        raise SpecError(f"needs n/b >= 50 blocks, but n={gen.u.n}, b={a['b']} "
                        "(field: b)")


def _gap_config(a) -> pointproc.GapConfig:
    return pointproc.GapConfig(a["r"], a["p"], a.get("m", 0))


def _check_pointproc(a, gen, reps):
    _needs_thresholds(a, gen, reps)
    gap = _gap_config(a)
    if not a.get("lambda_target", 1.0) > 0:
        raise SpecError(f"lambda_target={a['lambda_target']} must be positive "
                        "(field: lambda_target)")
    if gap.r + gap.p > gen.u.n:
        raise SpecError(f"one block-gap segment r+p={gap.r + gap.p} exceeds "
                        f"n={gen.u.n} (field: r, p)")


def _check_dprime(a, gen, reps):
    _needs_thresholds(a, gen, reps)
    if len(gen.u.u) != 1:
        raise SpecError("needs a univariate generator (field: d)")
    evt.dprime_ks(a["k_list"])


def _check_scan(a, gen, reps):
    if gen.spec is not None and gen.spec.d < 2:
        raise SpecError(f"pairs columns 0 and 1, but the generator has "
                        f"d={gen.spec.d} (field: d)")
    if reps != 1:
        raise SpecError(f"scans the single path of base_seed, so reps must be "
                        f"1, not {reps} (field: reps)")


def check_gauss_tools(table: gausslin.CoeffTable, nblock: int,
                      berman_hmax: int = 0) -> None:
    """The inputs of a gauss-tools report (`subgauss gauss-tools` and the
    config analysis), checked before any lag product is computed."""
    if table.L < 8:
        raise SpecError(f"check_decay needs a table with L >= 8, not "
                        f"L={table.L} (field: L)")
    most = gausslin.DENSE_ROWS // table.d0
    if not 1 <= nblock <= most:
        raise SpecError(f"nblock={nblock} must lie in [1, {most}], the dense "
                        f"budget nblock * d0 <= {gausslin.DENSE_ROWS} "
                        "(field: nblock)")
    if berman_hmax and not 2 <= berman_hmax <= table.L:
        raise SpecError(f"berman-hmax={berman_hmax} must be 0 (off) or lie in "
                        f"[2, L={table.L}] (field: berman-hmax)")


def _check_gauss_tools(a, gen, reps):
    if not isinstance(gen.spec, subordinate.GaussianSource):
        raise SpecError("needs a gauss generator (field: kind)")
    check_gauss_tools(gen.spec.table, a.get("nblock", 10))


def gauss_tools(table: gausslin.CoeffTable, nblock: int,
                berman_hmax: int = 0) -> dict:
    """The gauss-tools report (`subgauss gauss-tools` and the config
    analysis): tail decay, full rank and the smallest eigenvalue of the
    nblock-block covariance, plus, when berman_hmax is nonzero, the Berman
    profile's last value max_ij |Gamma_ij(h)| * log(h) at h = berman_hmax."""
    check_gauss_tools(table, nblock, berman_hmax)
    report = {
        "tail_decreasing": gausslin.check_decay(table).tail_decreasing,
        "full_rank": gausslin.full_rank_check(table),
        "block_toeplitz_min_eig": gausslin.block_toeplitz_min_eig(table,
                                                                  nblock),
    }
    if berman_hmax:
        gamma, _ = gausslin.autocov(table, berman_hmax)
        report["berman_last"] = float(np.max(np.abs(gamma))
                                      * np.log(berman_hmax))
    return report


# Summarize steps: (analysis, {replication: per-path result} or None for an
# analysis without a per-path map, generator) -> (summary entry, CSV artifact
# or None).

def _nonexceed(a, results, *_):
    ok = len(results)
    p_hat = sum(results.values()) / ok
    ci = 1.96 * float(np.sqrt(p_hat * (1 - p_hat) / ok))
    return {"p_hat": p_hat, "ci_halfwidth": ci}, None


def _estimates(a, results, *_):
    reports = list(results.values())
    ests = [r.estimate for r in reports]
    est = float(np.mean(ests))
    se = float(np.std(ests, ddof=1) / np.sqrt(len(ests))) if len(ests) > 1 else 0.0
    csv = [evt.EstimatorReport.CSV_HEADER] + [r.to_csv_row() for r in reports]
    return {"estimate": est, "stderr": se}, "\n".join(csv) + "\n"


def _poisson(a, results, *_):
    pats = list(results.values())
    mean = float(np.mean([p.count for p in pats]))
    lam = a.get("lambda_target", mean)
    if len(pats) >= 200:
        entry = asdict(pointproc.poisson_diagnostics(pats, lam))
    else:
        entry = {"mean_count": mean,
                 "note": "distributional diagnostics need >= 200 replications"}
    return entry, pointproc.patterns_to_csv(results)


def _dprime(a, results, *_):
    stats, stderr = {}, {}
    for j, k in enumerate(evt.dprime_ks(a["k_list"])):
        arr = np.asarray([values[j] for values, _ in results.values()])
        stats[str(k)] = float(np.mean(arr))
        stderr[str(k)] = (float(np.std(arr, ddof=1) / np.sqrt(len(arr)))
                          if len(arr) > 1 else 0.0)
    joint = sum(events for _, events in results.values())
    return {"stats": stats, "stderr": stderr, "joint_events": joint,
            "wide_ci": joint < 10}, None


def _scan(a, results, *_):
    (rows,) = results.values()  # reps == 1
    csv = [evt.ScanRow.CSV_HEADER] + [r.to_csv_row() for r in rows]
    return [asdict(r) for r in rows], "\n".join(csv) + "\n"


def _gauss_tools(a, results, gen):
    return gauss_tools(gen.spec.table, a.get("nblock", 10)), None


class Replication:
    """One replication's path Y and thresholds u, as its per-path maps see
    them. `exceedances` is `evt.exceedances(Y, u)`, computed on first use and
    then shared by every analysis that reads it. The view refers to the
    path, never the reverse, so each path is freed once its replication is
    done, without the cyclic garbage collector."""

    __slots__ = ("Y", "u", "_exceedances")

    def __init__(self, Y, u):
        self.Y, self.u, self._exceedances = Y, u, None

    @property
    def exceedances(self) -> evt.Exceedances:
        if self._exceedances is None:
            self._exceedances = evt.exceedances(self.Y, self.u)
        return self._exceedances


class Analysis(NamedTuple):
    fields: dict                 # required config field -> its JSON type
    optional: dict               # optional config field -> its JSON type
    check: Callable              # (a, gen, reps): what it needs of the run
    per_path: Callable | None    # (a, Replication) -> result for one path
    summarize: Callable          # see the summarize steps above


# Per-path maps look their functions up at call time, so a patched or traced
# module attribute is the one that runs. runs, blocks and pointproc read the
# replication's exceedance times; nonexceed, dprime and scan read the path.
REGISTRY = {
    "nonexceed": Analysis(
        {}, {}, _needs_thresholds,
        lambda a, view: bool(np.all(evt.cmax(view.Y) <= view.u.u)),
        _nonexceed),
    "runs": Analysis(
        {"m": _integer}, {}, _check_runs,
        lambda a, view: evt.runs_theta(view.exceedances, a["m"]), _estimates),
    "blocks": Analysis(
        {"b": _integer}, {}, _check_blocks,
        lambda a, view: evt.blocks_theta(view.exceedances, a["b"]),
        _estimates),
    "pointproc": Analysis(
        {"r": _integer, "p": _integer},
        {"m": _integer, "lambda_target": _number}, _check_pointproc,
        lambda a, view: pointproc.gapped_blocks(view.exceedances,
                                                _gap_config(a)),
        _poisson),
    "dprime": Analysis(
        {"k_list": _integers}, {}, _check_dprime,
        lambda a, view: evt.dprime_path(view.Y, float(view.u.u[0]),
                                        a["k_list"]),
        _dprime),
    "scan": Analysis(
        {"levels": _numbers, "rho": _number}, {}, _check_scan,
        lambda a, view: evt.extremal_independence_scan(
            view.Y.values[:, 0], view.Y.values[:, 1], a["levels"], a["rho"]),
        _scan),
    "gauss-tools": Analysis({}, {"nblock": _integer}, _check_gauss_tools, None,
                            _gauss_tools),
}


def _analysis(a) -> dict:
    """An analyses entry of a registered type, with its required fields and
    no key its type does not read, each field of its JSON type."""
    kind = a.get("type") if isinstance(a, dict) else None
    if kind not in REGISTRY:
        raise SpecError(f"unknown analysis type {kind!r} (field: type)")
    entry = REGISTRY[kind]
    for name in entry.fields:
        if name not in a:
            raise SpecError(f"{kind} needs field {name!r} (field: {name})")
    types = {**entry.fields, **entry.optional}
    _keys(f"a {kind} analysis", a, {"type", *types})
    return {key: value if key == "type" else types[key](key, value)
            for key, value in a.items()}


# The keys a config and each generator kind allow; any other key is a config
# error.
CONFIG_KEYS = {"name", "generator", "n", "tau", "reps", "base_seed",
               "analyses", "out"}
GENERATOR_KEYS = {"m4": {"kind", "spec"}, "gauss": {"kind", "lin", "transform"}}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    generator: dict
    n: int
    tau: tuple
    reps: int
    base_seed: int
    analyses: tuple
    out: str | None = None

    def __post_init__(self):
        if self.reps < 1:
            raise SpecError("reps must be >= 1 (field: reps)")
        if self.n < 1:
            raise SpecError("n must be >= 1 (field: n)")
        analyses = []
        for idx, a in enumerate(self.analyses):
            try:
                analyses.append(_analysis(a))
            except SpecError as exc:
                raise SpecError(f"analyses[{idx}]: {exc}") from None
        object.__setattr__(self, "analyses", tuple(analyses))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        obj = _keys("config", json.loads(text), CONFIG_KEYS)
        try:
            return ExperimentConfig(
                name=obj["name"],
                generator=obj["generator"],
                n=_integer("n", obj["n"]),
                tau=tuple(_numbers("tau", obj.get("tau", []))),
                reps=_integer("reps", obj["reps"]),
                base_seed=_integer("base_seed", obj.get("base_seed", 0)),
                analyses=tuple(_list("analyses", obj["analyses"])),
                out=obj.get("out"),
            )
        except KeyError as exc:
            name = exc.args[0]
            raise SpecError(f"config missing field {name!r} "
                            f"(field: {name})") from exc


def _gauss_thresholds(source: subordinate.GaussianSource, n: int,
                      tau) -> m4.ThresholdVector:
    """Levels u_i with n P(Y_i > u_i) = tau_i: ndtri(1 - tau_i / n) on a raw
    column, the Pareto rule `m4.pareto_levels` with A = 1 on a pareto or
    folded_pareto part; any other part has no closed-form level."""
    tau = m4.check_tau(source.d, tau)
    parts = source.transform.parts if source.transform else ()
    kinds = {part.kind for part in parts} - {"pareto", "folded_pareto"}
    if kinds:
        raise SpecError(f"a {min(kinds)} part has no closed-form threshold, "
                        "so tau must be empty (field: tau)")
    u = (m4.pareto_levels(1.0, n, tau, np.array([p.alpha for p in parts]))
         if parts else ndtri(1.0 - tau / n))
    return m4.ThresholdVector(n=n, tau=tau, u=u)


def _build_generator(cfg: ExperimentConfig) -> Generator:
    """The config's generator; its path_fn(seed) -> SeriesMatrix of length
    cfg.n, and its thresholds when tau is nonempty."""
    gen = _object("generator", cfg.generator)
    kind = gen.get("kind")
    if kind not in GENERATOR_KEYS:
        raise SpecError(f"unknown generator kind {kind!r} (field: kind)")
    _keys(f"a {kind} generator", gen, GENERATOR_KEYS[kind])
    if kind == "m4":
        spec = m4.M4Spec.from_json(json.dumps(gen["spec"]))
        if spec.innovation is None:
            raise SpecError("an m4 generator draws its spec's innovations, "
                            "so the spec needs one (field: innovation)")
        u = m4.thresholds(spec, cfg.n, cfg.tau) if cfg.tau else None
        return Generator(lambda seed: m4.path(spec, cfg.n, seed), spec, u)
    table = gausslin.CoeffTable.from_json(json.dumps(gen["lin"]))
    transform = (
        subordinate.WindowTransform.from_json(json.dumps(gen["transform"]))
        if gen.get("transform") is not None
        else None
    )
    source = subordinate.GaussianSource(table, transform)
    u = _gauss_thresholds(source, cfg.n, cfg.tau) if cfg.tau else None
    return Generator(lambda seed: source.path(cfg.n, seed), source, u)


def check(gen: Generator, analyses, reps: int) -> None:
    """Check every analysis against the generator and the replication
    count; draws no path."""
    for idx, a in enumerate(analyses):
        try:
            REGISTRY[a["type"]].check(a, gen, reps)
        except SpecError as exc:
            raise SpecError(f"analyses[{idx}] ({a['type']}): {exc}") from None


def replicate(gen: Generator, analyses, reps: int, base_seed: int):
    """The replication engine. Returns (entries, artifacts, failures).

    After `check`, replication i draws gen.path_fn(base_seed ^ i) once and
    maps every per-path analysis over one `Replication` of it, so its
    exceedances are found at most once. Failures are recorded, never
    silently dropped: a replication counts in every analysis or, if any of
    them raises, in none, and the run aborts if more than 1% of replications
    fail. Each analysis then summarizes its results in replication order;
    its summary entry and CSV artifact are keyed "<index>:<type>".
    """
    check(gen, analyses, reps)
    kinds = [REGISTRY[a["type"]] for a in analyses]
    mapped = [idx for idx, kind in enumerate(kinds) if kind.per_path]
    results = {idx: {} for idx in mapped}
    failures = []
    for rep in range(reps if mapped else 0):
        try:
            view = Replication(gen.path_fn(base_seed ^ rep), gen.u)
            got = [kinds[idx].per_path(analyses[idx], view) for idx in mapped]
        except Exception as exc:  # noqa: BLE001 - recorded, not dropped
            failures.append({"replication": rep, "error": str(exc)})
            continue
        for idx, result in zip(mapped, got):
            results[idx][rep] = result
    if len(failures) > 0.01 * reps:
        raise RuntimeError(f"{len(failures)}/{reps} replications failed; aborting")
    entries, artifacts = {}, {}
    for idx, (a, kind) in enumerate(zip(analyses, kinds)):
        key = f"{idx}:{a['type']}"
        entries[key], csv = kind.summarize(a, results.get(idx), gen)
        if csv is not None:
            artifacts[key] = csv
    return entries, artifacts, failures


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run the config through the replication engine; write its artifact
    files when an output directory is given and return the summary dict."""
    # any (path_fn, spec, u) triple will do, such as a wrapped builder's
    gen = Generator(*_build_generator(cfg))
    entries, artifacts, failures = replicate(gen, cfg.analyses, cfg.reps,
                                             cfg.base_seed)
    summary = {
        "name": cfg.name,
        "n": cfg.n,
        "tau": list(cfg.tau),
        "reps": cfg.reps,
        "base_seed": cfg.base_seed,
        "analyses": entries,
        "failures": failures,
        "failure_rate": len(failures) / cfg.reps,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for key, text in artifacts.items():
            (out / f"{cfg.name}_{key.replace(':', '_')}.csv").write_text(text)
        (out / f"{cfg.name}_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return summary


def effective_base_seed(cli_seed: int | None, cfg_seed: int) -> int:
    """CLI --seed beats the config; the SUBGAUSS_SEED env var beats both."""
    env = os.environ.get(ENV_SEED)
    if env is not None:
        return int(env)
    if cli_seed is not None:
        return cli_seed
    return cfg_seed
