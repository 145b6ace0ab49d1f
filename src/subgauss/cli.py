"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (a computation raised), 2 config
validation failure (bad spec file / bad flag combination / malformed flag
value), with a message naming the offending field or flag. The SUBGAUSS_SEED environment variable, when
set, overrides any base seed from flags or config files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from subgauss import gausslin, harness, m4
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig, effective_base_seed


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _list_of(convert):
    """argparse type for a comma-separated list; a bad item exits 2 with
    the flag named."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(item) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, "
                f"got {text!r}") from None
    return parse


def _load_coeffs(path: str) -> gausslin.CoeffTable:
    return gausslin.CoeffTable.from_json(Path(path).read_text())


def _load_m4(path: str) -> m4.M4Spec:
    return m4.M4Spec.from_json(Path(path).read_text())


def _cmd_simulate(args) -> int:
    table = _load_coeffs(args.spec)
    seed = effective_base_seed(args.seed, 0)
    X = gausslin.simulate(table, args.n, seed)
    if args.format == "csv":
        _write(X.to_csv(), args.out)
    else:
        payload = {"meta": X.meta, "values": X.values.tolist()}
        _write(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_acf(args) -> int:
    table = _load_coeffs(args.spec)
    gammas = gausslin.autocov_all(table, args.hmax)
    tail = gausslin.tail_bound(table, args.hmax)
    if args.format == "csv":
        lines = ["h," + ",".join(f"g{i}{k}" for i in range(table.spec.d0)
                                 for k in range(table.spec.d0))]
        for h in range(args.hmax + 1):
            lines.append(f"{h}," + ",".join(repr(float(v)) for v in gammas[h].ravel()))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(json.dumps({"gamma": gammas.tolist(), "tail_bound": tail}) + "\n",
               args.out)
    return 0


def _replicate(args, analysis: dict):
    """Run one analysis over the M4 spec and flags through the replication
    engine; return the generator, the summary entry and the CSV artifact."""
    cfg = ExperimentConfig(
        name=args.command,
        generator={"kind": "m4", "spec": json.loads(Path(args.spec).read_text())},
        n=args.n,
        tau=args.tau,
        reps=args.reps,
        base_seed=effective_base_seed(args.seed, 0),
        analyses=(analysis,),
    )
    gen = harness._build_generator(cfg)
    entries, artifacts, _ = harness.replicate(gen, cfg.analyses, cfg.reps,
                                              cfg.base_seed)
    key = f"0:{analysis['type']}"
    return gen, entries[key], artifacts.get(key)


def _cmd_maxima(args) -> int:
    if args.reps < 100:
        raise SpecError("maxima needs --reps >= 100 (field: reps)")
    gen, entry, _ = _replicate(args, {"type": "nonexceed"})
    g = m4.G_limit(gen.spec, gen.u.tau)
    th = m4.theta(gen.spec, gen.u.tau)
    p_hat, ci = entry["p_hat"], entry["ci_halfwidth"]
    payload = {
        "p_hat": p_hat,
        "ci_halfwidth": ci,
        "G": g,
        "theta": th,
        "limit": g**th,
        "u": gen.u.u.tolist(),
    }
    if args.format == "csv":
        _write("p_hat,ci_halfwidth,limit\n"
               f"{p_hat!r},{ci!r},{payload['limit']!r}\n", args.out)
    else:
        _write(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_theta(args) -> int:
    spec = _load_m4(args.spec)
    payload = {"theta": m4.theta(spec, args.tau)}
    if args.m_trunc is not None:
        payload["theta_2m"] = m4.theta_2m(spec, args.tau, args.m_trunc)
    _write(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_m4_verify(args) -> int:
    spec = _load_m4(args.spec)
    g = m4.G_limit(spec, args.tau)
    t = m4.tail_limit(spec, args.tau)
    gap = abs(-np.log(g) - t)
    payload = {
        "A": m4.A_vec(spec).tolist(),
        "G_limit": g,
        "tail_limit": t,
        "identity_gap": gap,
        "ok": bool(gap <= 1e-12),
    }
    _write(json.dumps(payload) + "\n", args.out)
    return 0 if payload["ok"] else 1


def _cmd_pointproc(args) -> int:
    if args.format == "json" and args.reps < 200:
        raise SpecError("pointproc --format json needs --reps >= 200 "
                        "(field: reps)")
    _, entry, csv = _replicate(
        args, {"type": "pointproc", "r": args.r, "p": args.p, "m": args.m})
    _write(csv if args.format == "csv" else json.dumps(entry) + "\n", args.out)
    return 0


def _cmd_dprime(args) -> int:
    _, entry, _ = _replicate(args, {"type": "dprime",
                                    "k_list": list(args.k_list)})
    _write(json.dumps(entry) + "\n", args.out)
    return 0


def _cmd_gauss_tools(args) -> int:
    report = harness.gauss_tools(_load_coeffs(args.spec), args.nblock,
                                 args.berman_hmax)
    _write(json.dumps(report) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    changes = {"base_seed": effective_base_seed(args.seed, cfg.base_seed)}
    if args.reps is not None:
        changes["reps"] = args.reps
    cfg = dataclasses.replace(cfg, **changes)
    out_dir = args.out or cfg.out
    summary = harness.run(cfg, out_dir)
    if out_dir is None:
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Simulation and verification tools for extremes of "
                    "transformed Gaussian linear processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --format only on the commands that can write CSV as well as JSON
    def common(p, seed=True, fmt=True):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="sample a Gaussian linear process path")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("acf", help="autocovariances with truncation bound")
    p.add_argument("--spec", required=True)
    p.add_argument("--hmax", type=int, required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("maxima", help="non-exceedance rate vs. the limit")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=_list_of(float), required=True)
    common(p)
    p.add_argument("--reps", type=int, default=200)
    p.set_defaults(func=_cmd_maxima)

    p = sub.add_parser("theta", help="extremal index from the coefficient array")
    p.add_argument("--spec", required=True)
    p.add_argument("--tau", type=_list_of(float), required=True)
    p.add_argument("--m-trunc", type=int, default=None)
    common(p, seed=False, fmt=False)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("m4-verify", help="cross-check the limit identities")
    p.add_argument("--spec", required=True)
    p.add_argument("--tau", type=_list_of(float), required=True)
    common(p, seed=False, fmt=False)
    p.set_defaults(func=_cmd_m4_verify)

    p = sub.add_parser("pointproc", help="gapped-block exceedance point process")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=_list_of(float), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    common(p)
    p.add_argument("--reps", type=int, default=200)
    p.set_defaults(func=_cmd_pointproc)

    p = sub.add_parser("dprime", help="anti-clustering statistic")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=_list_of(float), required=True)
    p.add_argument("--k-list", type=_list_of(int), required=True)
    common(p, fmt=False)
    p.add_argument("--reps", type=int, default=50)
    p.set_defaults(func=_cmd_dprime)

    p = sub.add_parser("gauss-tools", help="decay / rank / mixing diagnostics")
    p.add_argument("--spec", required=True)
    p.add_argument("--nblock", type=int, default=10)
    p.add_argument("--berman-hmax", type=int, default=0)
    common(p, seed=False, fmt=False)
    p.set_defaults(func=_cmd_gauss_tools)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # a key missing from a spec or config object
        print(f"config error: missing key {exc} (field: {exc.args[0]})",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
