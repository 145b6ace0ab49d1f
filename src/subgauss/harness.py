"""Seeded Monte Carlo replication engine, analysis registry and configs.

A config names a path generator (an M4 spec or a transformed Gaussian linear
process), a sample size, a tau vector, a replication count and a base seed,
plus a list of analyses. `replicate` is the one replication loop: replication
i draws the path with seed base_seed XOR i once, every per-path analysis maps
over that path, and results are folded in index order, so output bytes
depend only on the config, never on execution order. Every per-path
analysis but `scan` reads the replication's sorted exceedance times over the
generator's tau thresholds, found once, on first use: off the base draw of
an M4 draw (`evt.m4_exceedances`, which lifts only the rows that can exceed
and builds no path) or in one pass over a dense path (`evt.exceedances`).
`scan` reads the dense Gaussian path.

A registry entry's target is the closed-form limit of its summary entry;
`targets(cfg)` collects them, keyed as the summary's, and draws no path.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from subgauss import evt, gausslin, m4, pointproc, subordinate
from subgauss.gausslin import (SpecError, _integer, _integers, _keys, _list,
                               _number, _numbers, _object)


class Generator(NamedTuple):
    """A path generator and what the analyses may use of it."""

    path_fn: Callable    # seed -> SeriesMatrix, or an m4.Draw
    spec: object = None  # M4Spec, GaussianSource, or None for a bare path_fn
    u: object = None     # ThresholdVector, or None without thresholds


# Registry checks raise SpecError naming the config field at fault; they see
# the generator but draw no path. A path has gen.u.n rows.

def _needs_thresholds(a, gen):
    if gen.u is None:
        raise SpecError("needs thresholds: a nonempty tau (field: tau)")


def _check_runs(a, gen):
    _needs_thresholds(a, gen)
    if not 0 <= a["m"] < gen.u.n:
        raise SpecError(f"run length m={a['m']} must lie in [0, n={gen.u.n}) "
                        "(field: m)")


def _check_blocks(a, gen):
    _needs_thresholds(a, gen)
    if a["b"] < 1 or gen.u.n // a["b"] < 50:
        raise SpecError(f"needs n/b >= 50 blocks, but n={gen.u.n}, b={a['b']} "
                        "(field: b)")


def _gap_config(a) -> pointproc.GapConfig:
    return pointproc.GapConfig(a["r"], a["p"], a.get("m", 0))


def _check_pointproc(a, gen):
    _needs_thresholds(a, gen)
    gap = _gap_config(a)
    if not a.get("lambda_target", 1.0) > 0:
        raise SpecError(f"lambda_target={a['lambda_target']} must be positive "
                        "(field: lambda_target)")
    if gap.r + gap.p > gen.u.n:
        raise SpecError(f"one block-gap segment r+p={gap.r + gap.p} exceeds "
                        f"n={gen.u.n} (field: r, p)")


def _check_dprime(a, gen):
    _needs_thresholds(a, gen)
    if len(gen.u.u) != 1:
        raise SpecError("needs a univariate generator (field: d)")
    evt.dprime_ks(a["k_list"])


def _check_scan(a, gen):
    if not isinstance(gen.spec, subordinate.GaussianSource):
        raise SpecError("needs a gauss generator (field: kind)")
    _needs_thresholds(a, gen)
    if gen.spec.d < 2:
        raise SpecError(f"pairs columns 0 and 1, but the generator has "
                        f"d={gen.spec.d} (field: d)")


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


def _check_gauss_tools(a, gen):
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


def _scan(a, results, gen):
    """Columns 0 and 1 pooled over the replications, beside `_scan_target`."""
    joint, exceed1 = map(sum, zip(*results.values()))
    nsamp = gen.u.n * len(results)
    p = joint / nsamp
    return {**_scan_target(a, gen), "joint_events": joint, "joint_exceed": p,
            "joint_stderr": float(np.sqrt(p * (1 - p) / nsamp)),
            "cond_exceed": joint / exceed1 if exceed1 else 0.0}, None


def _gauss_tools(a, results, gen):
    return gauss_tools(gen.spec.table, a.get("nblock", 10)), None


# Targets: (analysis, generator) -> the closed-form limit of the analysis's
# summary entry, or None where the generator has none; run after `check`.

def _on_m4(target):
    """A target that only an m4 generator has: target(a, spec, thresholds)."""
    return lambda a, gen: (target(a, gen.spec, gen.u)
                           if isinstance(gen.spec, m4.M4Spec) else None)


def _nonexceed_target(a, spec, u):
    """P(no exceedance) -> G(tau)^theta (Smith & Weissman 1996)."""
    G, th = m4.G_limit(spec, u.tau), m4.theta(spec, u.tau)
    return {"G": G, "theta": th, "limit": G**th, "u": u.u.tolist()}


def _pointproc_target(a, spec, u):
    """The gapped-block intensity at the runs limits theta(0..m)."""
    gap = _gap_config(a)
    thetas = [m4.runs_limit(spec, u.tau, m) for m in range(gap.m + 1)]
    return {"lambda_rp": float(pointproc.lambda_rp(
        thetas, thetas[-1], m4.log_G(spec, u.tau), gap))}


def _dprime_target(a, gen):
    """D'(k) -> tau^2 / k for a process without clusters."""
    tau = float(gen.u.tau[0])
    return {"stats": {str(k): tau**2 / k for k in evt.dprime_ks(a["k_list"])}}


def _scan_target(a, gen):
    """The canonical correlation rho of path columns 0 and 1 (from Gamma(0)),
    their exact tails Fbar_i = tau_i / n and the hypercontractive ceiling
    (Fbar_0 Fbar_1)^(1/(1+rho)) on their joint exceedance rate."""
    source = gen.spec
    c0, c1 = ([part.coord for part in source.transform.parts[:2]]
              if source.transform else [0, 1])
    gamma0, _ = gausslin.autocov(source.table, 0)
    rho = float(min(abs(gamma0[c0, c1]) / (source.sd[c0] * source.sd[c1]),
                    1.0))
    fbar = [float(t) / gen.u.n for t in gen.u.tau[:2]]
    return {"rho": rho, "Fbar": fbar,
            "bound": (fbar[0] * fbar[1]) ** (1 / (1 + rho))}


class Replication:
    """One replication's path Y (a dense SeriesMatrix or an m4.Draw) and
    thresholds u, as its per-path maps see them. `exceedances` is computed
    on first use and then shared by every analysis that reads it. The view
    refers to the path, never the reverse, so each path is freed once its
    replication is done, without the cyclic garbage collector."""

    __slots__ = ("Y", "u", "_exceedances")

    def __init__(self, Y, u):
        self.Y, self.u, self._exceedances = Y, u, None

    @property
    def exceedances(self) -> evt.Exceedances:
        if self._exceedances is None:
            find = (evt.m4_exceedances if isinstance(self.Y, m4.Draw)
                    else evt.exceedances)
            self._exceedances = find(self.Y, self.u)
        return self._exceedances


class Analysis(NamedTuple):
    fields: dict                 # required config field -> its JSON type
    optional: dict               # optional config field -> its JSON type
    check: Callable              # (a, gen): what it needs of the generator
    per_path: Callable | None    # (a, Replication) -> result for one path
    summarize: Callable          # see the summarize steps above
    target: Callable = lambda a, gen: None  # see the targets above


# Per-path maps look their functions up at call time, so a patched or traced
# module attribute is the one that runs. Every map but scan's reads the
# replication's exceedance times; scan reads the path.
REGISTRY = {
    "nonexceed": Analysis(
        {}, {}, _needs_thresholds,
        lambda a, view: view.exceedances.times.size == 0, _nonexceed,
        _on_m4(_nonexceed_target)),
    "runs": Analysis(
        {"m": _integer}, {}, _check_runs,
        lambda a, view: evt.runs_theta(view.exceedances, a["m"]), _estimates,
        _on_m4(lambda a, spec, u: {"theta": m4.runs_limit(spec, u.tau,
                                                          a["m"])})),
    "blocks": Analysis(
        {"b": _integer}, {}, _check_blocks,
        lambda a, view: evt.blocks_theta(view.exceedances, a["b"]),
        _estimates),
    "pointproc": Analysis(
        {"r": _integer, "p": _integer},
        {"m": _integer, "lambda_target": _number}, _check_pointproc,
        lambda a, view: pointproc.gapped_blocks(view.exceedances,
                                                _gap_config(a)),
        _poisson, _on_m4(_pointproc_target)),
    "dprime": Analysis(
        {"k_list": _integers}, {}, _check_dprime,
        lambda a, view: evt.dprime_path(view.exceedances, a["k_list"]),
        _dprime, _dprime_target),
    "scan": Analysis(
        {}, {}, _check_scan,
        lambda a, view: evt.pair_exceedances(view.Y, view.u.u), _scan,
        _scan_target),
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
               "analyses"}
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

    def __post_init__(self):
        # the name prefixes every output file, so it names no other directory
        if not (isinstance(self.name, str)
                and re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*", self.name)):
            raise SpecError(f"name={self.name!r} must be letters, digits, _, "
                            "- and ., not starting with . (field: name)")
        if self.reps < 1:
            raise SpecError("reps must be >= 1 (field: reps)")
        if self.n < 1:
            raise SpecError("n must be >= 1 (field: n)")
        check_seed(self.base_seed)
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
            )
        except KeyError as exc:
            name = exc.args[0]
            raise SpecError(f"config missing field {name!r} "
                            f"(field: {name})") from exc


def _gauss_thresholds(source: subordinate.GaussianSource, n: int,
                      tau) -> m4.ThresholdVector:
    """Levels u_i with n P(Y_i > u_i) = tau_i: ndtri(1 - tau_i / n) on a raw
    column, and on a transform part, whose marginal is exact Pareto(alpha),
    the Pareto rule `m4.pareto_levels` with A = 1."""
    tau = m4.check_tau(source.d, tau)
    u = (m4.pareto_levels(1.0, n, tau,
                          np.array([p.alpha for p in source.transform.parts]))
         if source.transform else ndtri(1.0 - tau / n))
    return m4.ThresholdVector(n=n, tau=tau, u=u)


def _build_generator(cfg: ExperimentConfig) -> Generator:
    """The config's generator: path_fn(seed) -> an m4.Draw or a SeriesMatrix
    of cfg.n rows, and the thresholds when tau is nonempty."""
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
        subordinate.Transform.from_json(json.dumps(gen["transform"]))
        if gen.get("transform") is not None
        else None
    )
    source = subordinate.GaussianSource(table, transform)
    u = _gauss_thresholds(source, cfg.n, cfg.tau) if cfg.tau else None
    return Generator(lambda seed: source.path(cfg.n, seed), source, u)


def check(gen: Generator, analyses) -> None:
    """Check every analysis against the generator; draws no path."""
    for idx, a in enumerate(analyses):
        try:
            REGISTRY[a["type"]].check(a, gen)
        except SpecError as exc:
            raise SpecError(f"analyses[{idx}] ({a['type']}): {exc}") from None


def targets(cfg: ExperimentConfig) -> dict:
    """The closed-form limit of each analysis's summary entry, keyed
    "<index>:<type>" as the summary's analyses; an analysis without one is
    absent. Builds the generator and runs `check`, but draws no path."""
    gen = Generator(*_build_generator(cfg))
    check(gen, cfg.analyses)
    found = {f"{idx}:{a['type']}": REGISTRY[a["type"]].target(a, gen)
             for idx, a in enumerate(cfg.analyses)}
    return {key: value for key, value in found.items() if value is not None}


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
    check(gen, analyses)
    kinds = [REGISTRY[a["type"]] for a in analyses]
    mapped = [idx for idx, kind in enumerate(kinds) if kind.per_path]
    results = {idx: {} for idx in mapped}
    failures = []
    for rep in range(reps if mapped else 0):
        view = None  # the last replication's path is freed before the next
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
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for key, text in artifacts.items():
            (out / f"{cfg.name}_{key.replace(':', '_')}.csv").write_text(text)
        (out / f"{cfg.name}_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return summary


def check_seed(seed: int) -> None:
    """A base seed: an integer key of Philox, in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise SpecError(f"base_seed={seed} must lie in [0, 2**128) "
                        "(field: base_seed)")
