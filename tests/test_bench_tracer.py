"""The benchmark, ``bench/run.py`` and its tracer ``bench/spans.py``, against this checkout.

The tracer wraps csverify functions by name, so renaming one in src/
breaks ``bench/run.py --trace 1`` without failing any other unit test.
Here the tracer, loaded from its file unchanged, is installed around one
``generate | verify --thm 1`` op and one ``fixture curve | verify --thm 3``
op through ``cli.main``: every target must resolve, every counting hook
must run, no op may fail, and restoring must put every original back.
The untraced benchmark reads names straight off the package too (such as
``linalg.Q`` in ``backend()``), so one op of each of its workloads runs
here, loaded from its file unchanged, as the benchmark itself runs it.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import csverify
from csverify import cli
from csverify.serialize import dumps
from corpus import cycle_graph, graph_to_json

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def _targets(spans):
    """(span, owner, attribute name, current value) of every target, methods read off their class."""
    for span, modname, attr in spans.TARGETS:
        owner = importlib.import_module("csverify." + modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            yield span, owner, attr, owner.__dict__[attr]
        else:
            yield span, owner, attr, getattr(owner, attr)


def _run(args, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8"))
    code = cli.main(args)  # read off the module, where the tracer installs its wrapper
    return code, capsys.readouterr().out


def _pipe(first, stdin_text, second, monkeypatch, capsys):
    """Exit codes of `csverify <first>` and of `csverify <second>` fed its output."""
    code, out = _run(first, stdin_text, monkeypatch, capsys)
    return code, _run(second, out, monkeypatch, capsys)[0]


def test_tracer_resolves_every_target_and_runs_every_hook(monkeypatch, capsys):
    spans = _load_spans()
    originals = {(span, owner, attr): value for span, owner, attr, value in _targets(spans)}
    tracer = spans.Tracer()
    with tracer:
        wrapped = [span for (span, owner, attr), value in originals.items()
                   if getattr(owner, attr) is not value]
        tracer.begin_op(0)
        generate_codes = _pipe(["generate", "--seed", "2", "--max-dim", "4"], "",
                               ["verify", "-", "--thm", "1", "--format", "json"], monkeypatch, capsys)
        tracer.begin_op(1)
        curve_codes = _pipe(["fixture", "curve", "--graph", "-"], dumps(graph_to_json(cycle_graph(2))),
                            ["verify", "-", "--thm", "3", "--format", "json"], monkeypatch, capsys)
    assert sorted(wrapped) == sorted(span for span, _, _ in spans.TARGETS)
    assert all(getattr(owner, attr) is value for (_, owner, attr), value in originals.items())
    assert (generate_codes, curve_codes) == ((0, 0), (0, 0))

    assert None not in tracer.spans
    called = {tracer.names[span[0]] for span in tracer.spans}
    assert set(spans.HOOKS) | {"cli.main", "generators.gen_cs_instance", "degenerations.curve_cs_instance",
                               "verifier.conclusions", "serialize.instance_from_json"} <= called
    assert all(tracer.counts[key] > 0 for key in ("cells", "mults", "degrees_visited", "report_bytes"))
    assert tracer.max_entry_bits > 0
    metrics = tracer.layer_metrics(2)
    assert set(metrics) == set(spans.per_layer_units()) - {"trace.overhead_frac"}
    assert metrics["linalg.kernel.distinct_frac"] > 0 and metrics["linalg.image.distinct_frac"] > 0


def test_every_workload_runs_one_op_through_the_benchmark(monkeypatch):
    """backend(), then one op of each workload through the benchmark's own set-up, execute,
    check and generated, on this package as imported (run.py's load_package would re-import it)."""
    monkeypatch.syspath_prepend(str(_BENCH))  # run.py imports spans from beside itself
    had_spans = "spans" in sys.modules
    try:
        run = _load("run")
    finally:
        if not had_spans:
            sys.modules.pop("spans", None)
    run.cs = csverify
    assert run.backend() == "fractions.Fraction"
    for name, workload in run.WORKLOADS.items():
        prepared = run.Prepared(workload(), 1, ops=1)
        spec, raw = prepared.specs[0], prepared.raws[0]
        outputs = prepared.workload.execute(spec, raw)
        assert prepared.workload.check(spec, outputs) is None, name
        assert isinstance(prepared.workload.generated(spec, raw, outputs), bytes), name
