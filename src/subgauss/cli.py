"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (a computation raised), 2 config
validation failure (bad spec or config file, malformed flag value), with a
message naming the offending field or flag. The SUBGAUSS_SEED environment
variable, when set, overrides any base seed from flags or config files; a
seed that is not a Philox key exits 2 naming where it came from.
`run` is the only command that draws replications: it runs a config through
the engine, `harness.run`. `limits` prints the closed-form limits of a
config's analyses, `harness.targets`, and draws no path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from subgauss import gausslin, harness
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig, effective_base_seed


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_coeffs(path: str) -> gausslin.CoeffTable:
    return gausslin.CoeffTable.from_json(Path(path).read_text())


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


def _cmd_gauss_tools(args) -> int:
    report = harness.gauss_tools(_load_coeffs(args.spec), args.nblock,
                                 args.berman_hmax)
    _write(json.dumps(report) + "\n", args.out)
    return 0


def _cmd_limits(args) -> int:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    _write(json.dumps(harness.targets(cfg), indent=2, sort_keys=True) + "\n",
           args.out)
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
    p = sub.add_parser("simulate", help="sample a Gaussian linear process path")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("acf", help="autocovariances with truncation bound")
    p.add_argument("--spec", required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("gauss-tools", help="decay / rank / mixing diagnostics")
    p.add_argument("--spec", required=True)
    p.add_argument("--nblock", type=int, default=10)
    p.add_argument("--berman-hmax", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gauss_tools)

    p = sub.add_parser("limits", help="closed-form limits of a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_limits)

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
