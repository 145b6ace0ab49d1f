"""Seeded Monte Carlo replication engine and experiment configs.

A config names a path generator (an M4 spec or a transformed Gaussian linear
process), a sample size, a tau vector, a replication count and a base seed,
plus a list of analyses. Replication i always uses seed base_seed XOR i and
aggregation folds replications in index order, so output bytes depend only on
(config, base_seed), never on execution order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subgauss import chaos, evt, gausslin, m4, pointproc, subordinate
from subgauss.gausslin import SeriesMatrix, SpecError

ENV_SEED = "SUBGAUSS_SEED"

# Required fields of each analysis type. A config naming another type, or
# leaving out one of these fields, is rejected before any replication runs.
ANALYSIS_FIELDS = {
    "nonexceed": (),
    "runs": ("m",),
    "blocks": ("b",),
    "pointproc": ("r", "p"),
    "dprime": ("k_list",),
    "scan": ("levels", "rho"),
    "gauss-tools": (),
}
# Analyses evaluated on every replication path.
PER_PATH = ("runs", "blocks", "pointproc", "nonexceed")
# Analyses that compare paths against the thresholds u_n(tau).
NEEDS_THRESHOLDS = PER_PATH + ("dprime",)


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
            raise SpecError("reps must be >= 1")
        if self.n < 1:
            raise SpecError("n must be >= 1")
        for idx, a in enumerate(self.analyses):
            kind = a.get("type") if isinstance(a, dict) else None
            if kind not in ANALYSIS_FIELDS:
                raise SpecError(
                    f"analyses[{idx}]: unknown analysis type {kind!r} (field: type)"
                )
            for name in ANALYSIS_FIELDS[kind]:
                if name not in a:
                    raise SpecError(
                        f"analyses[{idx}] ({kind}) missing field {name!r}"
                    )

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        try:
            return ExperimentConfig(
                name=obj["name"],
                generator=obj["generator"],
                n=int(obj["n"]),
                tau=tuple(obj.get("tau", [])),
                reps=int(obj["reps"]),
                base_seed=int(obj.get("base_seed", 0)),
                analyses=tuple(obj["analyses"]),
                out=obj.get("out"),
            )
        except KeyError as exc:
            raise SpecError(f"config missing field {exc.args[0]!r}") from exc


def _build_generator(cfg: ExperimentConfig):
    """Return (path_fn, spec_or_None, thresholds_or_None).

    path_fn(seed) -> SeriesMatrix of length cfg.n.
    """
    gen = cfg.generator
    kind = gen.get("kind")
    if kind == "m4":
        spec = m4.M4Spec.from_json(json.dumps(gen["spec"]))
        span = spec.r_hi - spec.r_lo
        u = m4.thresholds(spec, cfg.n, cfg.tau) if cfg.tau else None

        def path_fn(seed, spec=spec, span=span):
            W = m4.innovations(spec, cfg.n + span, seed)
            return m4.build(W, spec)

        return path_fn, spec, u
    if kind == "gauss":
        table = gausslin.CoeffTable.from_json(json.dumps(gen["lin"]))
        transform = (
            subordinate.WindowTransform.from_json(json.dumps(gen["transform"]))
            if gen.get("transform")
            else None
        )
        standardize = bool(gen.get("standardize", True))
        gamma0, _ = gausslin.autocov(table, 0)
        sd = np.sqrt(np.diag(gamma0))

        def path_fn(seed, table=table, transform=transform):
            extra = transform.m if transform else 0
            X = gausslin.simulate(table, cfg.n + extra, seed)
            if standardize:
                X = SeriesMatrix(values=X.values / sd, meta=X.meta)
            return subordinate.apply(X, transform) if transform else X

        return path_fn, table, None
    raise SpecError(f"unknown generator kind {kind!r}")


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute every analysis in the config; write artifact files when an
    output directory is given and return the summary dict.

    Per-replication failures are recorded, never silently dropped; the run
    aborts only if more than 1% of replications fail. A replication counts
    in every per-path analysis or, if any of them raises, in none.
    """
    path_fn, spec, u = _build_generator(cfg)
    if u is None:
        for a in cfg.analyses:
            if a["type"] in NEEDS_THRESHOLDS:
                raise SpecError(
                    f"{a['type']} analysis needs thresholds: an m4 generator "
                    f"and a nonempty tau (field: tau)"
                )
    summary = {
        "name": cfg.name,
        "n": cfg.n,
        "tau": list(cfg.tau),
        "reps": cfg.reps,
        "base_seed": cfg.base_seed,
        "analyses": {},
        "failures": [],
    }
    artifacts = {}

    if any(a["type"] in PER_PATH for a in cfg.analyses):
        maxima = []
        results = {i: [] for i, a in enumerate(cfg.analyses)
                   if a["type"] in ("runs", "blocks", "pointproc")}
        for rep in range(cfg.reps):
            seed = cfg.base_seed ^ rep
            try:
                Y = path_fn(seed)
                M = evt.cmax(Y)
                got = {}
                for idx, a in enumerate(cfg.analyses):
                    if a["type"] == "runs":
                        got[idx] = evt.runs_theta(Y, u, a["m"])
                    elif a["type"] == "blocks":
                        got[idx] = evt.blocks_theta(Y, u, a["b"])
                    elif a["type"] == "pointproc":
                        gc = pointproc.GapConfig(a["r"], a["p"], a.get("m", 0))
                        got[idx] = pointproc.gapped_blocks(Y, u, gc)
            except Exception as exc:  # noqa: BLE001 - recorded, not dropped
                summary["failures"].append({"replication": rep, "error": str(exc)})
                continue
            maxima.append(M)
            for idx, result in got.items():
                results[idx].append(result)
        nfail = len(summary["failures"])
        if nfail > 0.01 * cfg.reps:
            raise RuntimeError(
                f"{nfail}/{cfg.reps} replications failed; aborting"
            )
        ok = cfg.reps - nfail
        for idx, a in enumerate(cfg.analyses):
            key = f"{idx}:{a['type']}"
            if a["type"] == "nonexceed":
                hits = sum(bool(np.all(M <= u.u)) for M in maxima)
                p_hat = hits / ok
                ci = 1.96 * float(np.sqrt(p_hat * (1 - p_hat) / ok))
                summary["analyses"][key] = {"p_hat": p_hat, "ci_halfwidth": ci}
            elif a["type"] in ("runs", "blocks"):
                reports = results[idx]
                est = float(np.mean([r.estimate for r in reports]))
                se = float(np.std([r.estimate for r in reports], ddof=1)
                           / np.sqrt(len(reports))) if len(reports) > 1 else 0.0
                summary["analyses"][key] = {"estimate": est, "stderr": se}
                csv = [evt.EstimatorReport.CSV_HEADER]
                csv += [r.to_csv_row() for r in reports]
                artifacts[f"{cfg.name}_{key.replace(':', '_')}.csv"] = "\n".join(csv) + "\n"
            elif a["type"] == "pointproc":
                pats = results[idx]
                lam = a.get("lambda_target")
                if lam is None:
                    lam = float(np.mean([p.count for p in pats]))
                if len(pats) >= 200:
                    rep_diag = pointproc.poisson_diagnostics(pats, lam,
                                                             a.get("bins", 10))
                    summary["analyses"][key] = json.loads(rep_diag.to_json())
                else:
                    summary["analyses"][key] = {
                        "mean_count": float(np.mean([p.count for p in pats])),
                        "note": "distributional diagnostics need >= 200 replications",
                    }
                artifacts[f"{cfg.name}_{key.replace(':', '_')}.csv"] = (
                    pointproc.patterns_to_csv(pats)
                )

    for idx, a in enumerate(cfg.analyses):
        key = f"{idx}:{a['type']}"
        if a["type"] == "dprime":
            if len(u.u) != 1:
                raise SpecError("dprime analysis needs a univariate generator")
            rep_d = evt.dprime_stat(
                path_fn, cfg.n, float(u.u[0]), a["k_list"],
                reps=cfg.reps, base_seed=cfg.base_seed,
            )
            summary["analyses"][key] = {
                "stats": {str(k): v for k, v in rep_d.stats.items()},
                "stderr": {str(k): v for k, v in rep_d.stderr.items()},
                "wide_ci": rep_d.wide_ci,
            }
        elif a["type"] == "scan":
            y = path_fn(cfg.base_seed)
            rows = evt.extremal_independence_scan(
                y.values[:, 0], y.values[:, 1], a["levels"], a["rho"],
            )
            summary["analyses"][key] = [json.loads(json.dumps(r.__dict__))
                                        for r in rows]
            csv = [evt.ScanRow.CSV_HEADER] + [r.to_csv_row() for r in rows]
            artifacts[f"{cfg.name}_{key.replace(':', '_')}.csv"] = "\n".join(csv) + "\n"
        elif a["type"] == "gauss-tools":
            if not isinstance(spec, gausslin.CoeffTable):
                raise SpecError("gauss-tools analysis needs a gauss generator")
            report = gausslin.check_decay(spec)
            nb = a.get("nblock", 10)
            summary["analyses"][key] = {
                "tail_decreasing": report.tail_decreasing,
                "full_rank": gausslin.full_rank_check(spec),
                "block_toeplitz_min_eig": gausslin.block_toeplitz_min_eig(spec, nb),
            }

    summary["failure_rate"] = len(summary["failures"]) / cfg.reps
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for fname, text in sorted(artifacts.items()):
            (out / fname).write_text(text)
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
