"""Regenerate the shipped acceptance configs in configs/.

Each config is an ExperimentConfig JSON consumable by `subgauss run
--config <file>`; the pytest acceptance suite runs E1-E5 from these files
through the same engine. Deterministic: fixed seeds, sorted keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from subgauss import gausslin, m4

OUT = Path(__file__).resolve().parent.parent / "configs"


def _logboundary_lin(d0: int = 1, L: int = 10_000) -> dict:
    spec = gausslin.LinearProcessSpec(
        d0=d0,
        family=gausslin.LogBoundary(q=2.0, B=np.eye(d0)),
        L=L,
    )
    return json.loads(gausslin.make_coeffs(spec).to_json())


def _correlated_pair(rho: float) -> dict:
    psi0 = np.array([[1.0, 0.0], [rho, np.sqrt(1.0 - rho**2)]])
    spec = gausslin.LinearProcessSpec(
        d0=2, family=gausslin.Custom(table=(tuple(map(tuple, psi0)),)), L=0
    )
    return json.loads(gausslin.make_coeffs(spec).to_json())


def _subgauss_innovation() -> dict:
    return {"kind": "subgauss", "lin": _logboundary_lin(), "transform": "pareto"}


def _m4_e1() -> dict:
    return {
        "d": 1,
        "alpha": 1.0,
        "lags": [0, 0],
        "a": [[[1.0]]],
        "innovation": {"kind": "iid_pareto", "alpha": 1.0},
    }


def _m4_e2() -> dict:
    return {
        "d": 1,
        "alpha": 1.0,
        "lags": [0, 3],
        "a": [[[1.0]], [[1.0]], [[1.0]], [[1.0]]],
        "innovation": _subgauss_innovation(),
    }


def _m4_e3(extra_lag5: float | None = None) -> dict:
    a = [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ]
    lags = [0, 1]
    if extra_lag5 is not None:
        for _ in range(3):
            a.append([[0.0, 0.0], [0.0, 0.0]])
        a.append([[extra_lag5, 0.0], [0.0, 0.0]])
        lags = [0, 5]
    lin = _logboundary_lin(d0=2)
    return {
        "d": 2,
        "alpha": 1.0,
        "lags": lags,
        "a": a,
        "innovation": {"kind": "subgauss", "lin": lin, "transform": "pareto"},
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    configs = {
        "e1": {
            "name": "e1_iid_baseline",
            "generator": {"kind": "m4", "spec": _m4_e1()},
            "n": 5000,
            "tau": [1.0],
            "reps": 4000,
            "base_seed": 1001,
            "analyses": [{"type": "nonexceed"}],
        },
        "e2": {
            "name": "e2_nonexceed",
            "generator": {"kind": "m4", "spec": _m4_e2()},
            "n": 10_000,
            "tau": [1.0],
            "reps": 2000,
            "base_seed": 1002,
            "analyses": [{"type": "nonexceed"}],
        },
        "e2_runs": {
            "name": "e2_runs",
            "generator": {"kind": "m4", "spec": _m4_e2()},
            "n": 100_000,
            # estimation level: the extremal index does not depend on tau in
            # one dimension, and tau=1 would leave ~1 exceedance per path
            "tau": [500.0],
            "reps": 20,
            "base_seed": 1002,
            "analyses": [{"type": "runs", "m": m} for m in range(4)],
        },
        "e3": {
            "name": "e3_bivariate",
            "generator": {"kind": "m4", "spec": _m4_e3()},
            "n": 10_000,
            "tau": [1.0, 1.0],
            "reps": 2000,
            "base_seed": 1003,
            "analyses": [{"type": "nonexceed"}],
        },
        "e3b": {
            "name": "e3_bivariate_asym",
            "generator": {"kind": "m4", "spec": _m4_e3()},
            "n": 10_000,
            "tau": [1.0, 0.5],
            "reps": 2000,
            "base_seed": 1003,
            "analyses": [{"type": "nonexceed"}],
        },
        "e4": {
            "name": "e4_widened",
            "generator": {"kind": "m4", "spec": _m4_e3(extra_lag5=0.05)},
            "n": 10_000,
            "tau": [1.0, 1.0],
            "reps": 2000,
            "base_seed": 1004,
            "analyses": [{"type": "nonexceed"}],
        },
        "e5": {
            "name": "e5_pointproc",
            "generator": {"kind": "m4", "spec": _m4_e2()},
            "n": 50_000,
            "tau": [1.0],
            "reps": 500,
            "base_seed": 1005,
            "analyses": [{"type": "pointproc", "r": 50, "p": 5, "m": 3}],
        },
        "e6": {
            "name": "e6_decay",
            "generator": {"kind": "gauss", "lin": _logboundary_lin(L=200_000)},
            "n": 1,
            "tau": [],
            "reps": 1,
            "base_seed": 1006,
            "analyses": [{"type": "gauss-tools", "nblock": 50}],
        },
        "e7": {
            "name": "e7_scan",
            "generator": {"kind": "gauss", "lin": _correlated_pair(rho=0.75)},
            "n": 100_000,
            "tau": [],
            "reps": 1,
            "base_seed": 1007,
            "analyses": [
                {"type": "scan", "levels": [2.0, 2.5, 3.0], "rho": 0.75}
            ],
        },
    }
    for stem, cfg in configs.items():
        path = OUT / f"{stem}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
