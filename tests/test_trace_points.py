"""The benchmark's trace points resolve in the package.

`bench/run.py --trace 1` wraps every (module, attribute) pair of
`bench/session.py`'s TRACE_POINTS with getattr, so deleting or renaming one
of those attributes breaks the traced benchmark run, which this suite does
not start. This test reads the list without changing `bench/`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_point_resolves(monkeypatch):
    # session.py imports its siblings `tracer` and `workloads` by name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_session",
                                                  BENCH / "session.py")
    session = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(session)
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    points = [(module, attr) for module, attr, *_ in session.TRACE_POINTS]
    missing = [(module, attr) for module, attr in points
               if not hasattr(importlib.import_module(f"subgauss.{module}"),
                              attr)]
    assert points and missing == []
