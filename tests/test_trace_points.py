"""The benchmark's trace points and calls resolve in the package.

`bench/run.py --trace 1` wraps every (module, attribute) pair of
`bench/session.py`'s TRACE_POINTS with getattr, so deleting or renaming one
of those attributes breaks the traced benchmark run, which this suite does
not start. `bench/workloads.py` calls the chaos oracles with positional
arguments, and `session._expand_info` keys every `hermite_expand` span by
its (f, K). These tests read `bench/` without changing it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from subgauss import chaos, evt, gausslin, harness, m4, pointproc, subordinate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_session(monkeypatch):
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
    return session


def load_workloads():
    """bench/workloads.py as a module, read from the file; it imports no
    sibling, so nothing is left on sys.path."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_trace_point_resolves(monkeypatch):
    session = load_session(monkeypatch)
    points = [(module, attr) for module, attr, *_ in session.TRACE_POINTS]
    missing = [(module, attr) for module, attr in points
               if not hasattr(importlib.import_module(f"subgauss.{module}"),
                              attr)]
    assert points and missing == []


def test_benchmark_chaos_calls_bind(monkeypatch):
    # every chaos.<name>(...) call in workloads.py without *args binds to
    # the signature
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "chaos"
             and not any(isinstance(arg, ast.Starred) for arg in node.args)]
    names = {call.func.attr for call in calls}
    assert "hypercontractivity_check" in names
    for call in calls:
        inspect.signature(getattr(chaos, call.func.attr)).bind(
            *range(len(call.args)), **{kw.arg: None for kw in call.keywords})
    hyper = [c for c in calls if c.func.attr == "hypercontractivity_check"]
    assert [len(c.args) for c in hyper] == [3]
    params = list(inspect.signature(chaos.hypercontractivity_check).parameters)
    assert params[:3] == ["f", "a", "K"]

    # _expand_info reads (f, K) from positions 0, 1 or the names f, K, and
    # sees the K that hypercontractivity_check was given
    session = load_session(monkeypatch)
    assert list(inspect.signature(chaos.hermite_expand).parameters)[:2] == \
        ["f", "K"]
    f = chaos.CatalogFn("exp", 0.7)
    keys = []
    expand = chaos.hermite_expand

    def recording(*args, **kwargs):
        keys.append(session._expand_info(args, kwargs)["key"])
        return expand(*args, **kwargs)

    monkeypatch.setattr(chaos, "hermite_expand", recording)
    chaos.hypercontractivity_check(f, 0.5, 8)
    assert keys == [repr((f, 8))]


def test_traced_expansions_see_every_check(monkeypatch, tmp_path):
    # the tracer wraps chaos.hermite_expand and gaussian_expectation by
    # setattr on the module. hypercontractivity_check still resolves
    # hermite_expand through the module on every call, and an expansion is
    # certified once per (f, K) below that name, so the quadrature_oracle
    # session traces 12 hermite_expand spans over 6 (f, K) keys (redundant
    # fraction 0.5) and 6 expansion passes plus 12 norm moments
    session = load_session(monkeypatch)
    workloads = load_workloads()
    tracer = session.Tracer()
    for attr, info in (("gaussian_expectation", None),
                       ("hermite_expand", session._expand_info)):
        monkeypatch.setattr(chaos, attr, tracer.wrap_fn(
            getattr(chaos, attr), f"chaos.{attr}", info))
    chaos._certified_expansion.cache_clear()
    inputs = workloads.quad_inputs(1, "tiny")
    sdir = tmp_path / "session"
    sdir.mkdir()
    workloads.prepare(inputs, tmp_path)
    workloads.quad_session(inputs, sdir, _Clock())
    chaos._certified_expansion.cache_clear()

    names = [span[0] for span in tracer.spans]
    keys = [span[4]["key"] for span in tracer.spans
            if span[0] == "chaos.hermite_expand"]
    assert len(keys) == len(inputs["hyper"]) == 12
    assert len(set(keys)) == 6
    assert names.count("chaos.gaussian_expectation") == 6 + 12
    assert all(span[4] is None or "raised" not in span[4]
               for span in tracer.spans)


def test_one_exceedance_indicator_per_replication(monkeypatch):
    # an M4 replication's exceedance times are read off its base draw: on
    # pareto_estimators (runs m=0..3, blocks and pointproc) and on
    # subgauss_mc (nonexceed), each replication makes one sparse
    # m4_exceedances call, builds no path and makes no dense indicator
    # pass, through evt or through pointproc's binding, which both stay
    # trace points. Nor does it lift its innovations whole, through
    # m4.innovations or subordinate.apply: a subgauss replication's one
    # call below m4 is gausslin.simulate, and an iid one makes none
    workloads = load_workloads()
    calls = []

    def counted(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{attr}")
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    for module, attr in ((evt, "_exceed_indicator"),
                         (pointproc, "_exceed_indicator"),
                         (evt, "m4_exceedances"), (m4, "build"),
                         (m4, "innovations"), (subordinate, "apply"),
                         (gausslin, "simulate")):
        counted(module, attr)
    for inputs, types, reps, per_rep in (
            (workloads.pareto_inputs,
             ["runs"] * 4 + ["blocks", "pointproc"], 3,
             ["subgauss.evt.m4_exceedances"]),
            (workloads.mc_inputs, ["nonexceed"], 2,
             ["subgauss.gausslin.simulate", "subgauss.evt.m4_exceedances"])):
        config = inputs(1, "tiny")["config"]
        assert [a["type"] for a in config["analyses"]] == types
        calls.clear()
        summary = harness.run(harness.ExperimentConfig.from_json(
            json.dumps({**config, "reps": reps})))
        assert summary["failures"] == []
        assert calls == per_rep * reps


def test_trace_points_name_package_functions():
    # TRACE_POINTS read from bench/session.py's source, with neither the
    # session nor its siblings imported: every (module, attribute) must be
    # a function of the package, the run path's callers or not. The M4 run
    # path builds no path and makes no dense indicator pass, so m4.build,
    # evt._exceed_indicator, pointproc's binding and evt.cmax are kept for
    # the traced benchmark (and build as the dense definition of a path)
    tree = ast.parse((BENCH / "session.py").read_text())
    (points,) = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACE_POINTS"]]
    pairs = [(entry.elts[0].value, entry.elts[1].value)
             for entry in points.elts]
    assert len(pairs) > 20
    for module, attr in pairs:
        fn = getattr(importlib.import_module(f"subgauss.{module}"), attr, None)
        assert callable(fn), (module, attr)
    assert {("m4", "build"), ("m4", "innovations"), ("evt", "cmax"),
            ("evt", "_exceed_indicator"),
            ("pointproc", "_exceed_indicator")} <= set(pairs)


class _Clock:
    def mark(self):
        pass

    def finish(self):
        pass


def test_benchmark_inputs_pass_the_config_checks(monkeypatch, tmp_path):
    # every benchmark run starts from these configs and this gauss-tools
    # argv; a check that rejected one would fail each run of its workload
    from subgauss import chaos, cli

    workloads = load_workloads()
    # quad_session's units, with the oracles stubbed and its argv captured
    argvs = []
    monkeypatch.setattr(cli, "main", argvs.append)
    for name in ("hypercontractivity_check", "bvn_joint_tail",
                 "block_canonical_corr"):
        monkeypatch.setattr(chaos, name, lambda *args: (0.0, 0.0))
    for size in workloads.SIZES:
        for inputs in (workloads.mc_inputs, workloads.pareto_inputs):
            cfg = harness.ExperimentConfig.from_json(
                json.dumps(inputs(1, size)["config"]))
            drawn = []
            gen = harness._build_generator(cfg)._replace(path_fn=drawn.append)
            harness.check(gen, cfg.analyses, cfg.reps)
            assert drawn == []

        inputs = workloads.quad_inputs(1, size)
        sdir = tmp_path / size / "session"
        sdir.mkdir(parents=True)
        workloads.prepare(inputs, sdir.parent)
        argvs.clear()
        workloads.quad_session(inputs, sdir, _Clock())
        (argv,) = argvs
        args = cli.build_parser().parse_args(argv)
        assert args.func is cli._cmd_gauss_tools
        # the spec file goes through the checks of `gauss-tools --spec`
        table = gausslin.CoeffTable.from_json(Path(args.spec).read_text())
        harness.check_gauss_tools(table, args.nblock, args.berman_hmax)


def test_quadrature_benchmark_gate_passes(tmp_path):
    # the quadrature_oracle workload at size tiny, with the real oracles,
    # through the benchmark's own correctness gate
    workloads = load_workloads()
    inputs = workloads.quad_inputs(1, "tiny")
    sdir = tmp_path / "session"
    sdir.mkdir()
    workloads.prepare(inputs, tmp_path)
    result = workloads.quad_session(inputs, sdir, _Clock())
    rows, failed = workloads.quad_check(inputs, sdir, result)
    assert failed == 0, rows
    assert all(ok for _, ok, _ in rows), rows
