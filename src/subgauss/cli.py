"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (a computation raised), 2 config
validation failure (bad spec or config file, malformed flag value), with a
message naming the offending field or flag.
`run` is the only command that draws paths: it runs a config through the
engine, `harness.run`, so its output is set by the config file alone (the
seed is the config's `base_seed`). `limits` prints the closed-form limits
of a config's analyses, `harness.targets`, and draws no path. `gauss-tools`
prints the covariance diagnostics of a coefficient table,
`harness.gauss_tools`, from a spec file checked as a config's `lin` is.
Every command writes JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from subgauss import gausslin, harness
from subgauss.gausslin import SpecError
from subgauss.harness import ExperimentConfig


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gauss_tools(args) -> int:
    table = gausslin.CoeffTable.from_json(Path(args.spec).read_text())
    report = harness.gauss_tools(table, args.nblock, args.berman_hmax)
    _write(json.dumps(report) + "\n", args.out)
    return 0


def _cmd_limits(args) -> int:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    _write(json.dumps(harness.targets(cfg), indent=2, sort_keys=True) + "\n",
           args.out)
    return 0


def _cmd_run(args) -> int:
    summary = harness.run(
        ExperimentConfig.from_json(Path(args.config).read_text()), args.out)
    if not args.out:
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Simulation and verification tools for extremes of "
                    "transformed Gaussian linear processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
