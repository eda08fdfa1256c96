"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of each
csverify module that the per-layer metrics name.  A wrapped function is
replaced in every ``csverify.*`` namespace that imported it, so calls
between modules are seen too; methods (``Matrix.__matmul__``,
``Subspace.intersect``) and constructors (``NilpotentOp``,
``FilteredMap``) are wrapped on their class.  ``restore`` puts every
original back.

Each call records a span (name, start, end, parent span, op id) in
memory.  Counters are computed at the same boundaries after the wrapped
call returns; their cost is excluded from the parent span's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute); a dotted attribute names a method.
# The four conclusion engines share one span name: together they are the
# conclusion layer of the verifier.
TARGETS = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.kernel", "linalg", "kernel"),
    ("linalg.image", "linalg", "image"),
    ("linalg.intersect", "linalg", "Subspace.intersect"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("filtration.exactness_at", "filtration", "exactness_at"),
    ("filtration.strictness", "filtration", "strictness"),
    ("filtration.FilteredMap", "filtration", "FilteredMap.__init__"),
    ("monodromy.nilpotency_index", "monodromy", "nilpotency_index"),
    ("monodromy.centered_filtration", "monodromy", "centered_filtration"),
    ("monodromy.centered_filtration_recursive", "monodromy", "centered_filtration_recursive"),
    ("monodromy.verify_centered_axioms", "monodromy", "verify_centered_axioms"),
    ("monodromy.ker_coker_weight_bounds", "monodromy", "ker_coker_weight_bounds"),
    ("monodromy.NilpotentOp", "monodromy", "NilpotentOp.__init__"),
    ("verifier.check_instance_hypotheses", "verifier", "check_instance_hypotheses"),
    ("verifier.conclusions", "verifier", "verify_proposition"),
    ("verifier.conclusions", "verifier", "assemble_and_verify_les"),
    ("verifier.conclusions", "verifier", "verify_invariant_cycles"),
    ("verifier.conclusions", "verifier", "verify_unipotent_cs"),
    ("generators.gen_cs_instance", "generators", "gen_cs_instance"),
    ("generators.gen_adversarial", "generators", "gen_adversarial"),
    ("generators.gen_centered_mhs", "generators", "gen_centered_mhs"),
    ("degenerations.curve_cs_instance", "degenerations", "curve_cs_instance"),
    ("serialize.instance_from_json", "serialize", "instance_from_json"),
    ("serialize.hypothesis_report_to_json", "serialize", "hypothesis_report_to_json"),
    ("serialize.dumps", "serialize", "dumps"),
    ("cli.main", "cli", "main"),
)

# Spans reported with both a per-op call count and self time; the rest
# report self time only.
COUNTED = (
    "linalg.rref", "linalg.matmul", "linalg.intersect", "linalg.kernel", "linalg.image",
    "monodromy.nilpotency_index", "monodromy.centered_filtration",
    "monodromy.centered_filtration_recursive", "monodromy.verify_centered_axioms",
    "monodromy.ker_coker_weight_bounds", "monodromy.NilpotentOp",
    "filtration.exactness_at", "filtration.strictness", "filtration.FilteredMap",
)
SELF_ONLY = (
    "verifier.check_instance_hypotheses", "verifier.conclusions",
    "serialize.hypothesis_report_to_json", "serialize.dumps",
    "generators.gen_cs_instance", "generators.gen_adversarial", "generators.gen_centered_mhs",
    "degenerations.curve_cs_instance", "serialize.instance_from_json", "cli.main",
)
DISTINCT = ("linalg.kernel", "linalg.image")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in COUNTED:
        units[name + ".calls"] = "calls/op"
        units[name + ".self_s"] = "s/op"
    for name in SELF_ONLY:
        units[name + ".self_s"] = "s/op"
    units["linalg.rref.cells"] = "cells/op"
    units["linalg.matmul.mults"] = "mults/op"
    units["linalg.max_entry_bits"] = "bits"
    for name in DISTINCT:
        units[name + ".distinct_frac"] = "frac"
    units["filtration.exactness_at.trivial_frac"] = "frac"
    units["verifier.stored_degree_frac"] = "frac"
    units["serialize.report_bytes"] = "bytes/op"
    units["trace.overhead_frac"] = "frac"
    return units


def _max_bits(m) -> int:
    best = 0
    for row in m.rows:
        for x in row:
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            if bits > best:
                best = bits
    return best


def _count_rref(tracer, args, kwargs, result):
    m = args[0]
    tracer.counts["cells"] += m.nrows * m.ncols
    tracer.max_entry_bits = max(tracer.max_entry_bits, _max_bits(m))


def _count_matmul(tracer, args, kwargs, result):
    a, b = args
    tracer.counts["mults"] += a.nrows * a.ncols * b.ncols
    tracer.max_entry_bits = max(tracer.max_entry_bits, _max_bits(a), _max_bits(b))


def _count_kernel(tracer, args, kwargs, result):
    tracer.op_distinct["linalg.kernel"].add(args[0])


def _count_image(tracer, args, kwargs, result):
    subspace = args[1] if len(args) > 1 else kwargs.get("s")
    tracer.op_distinct["linalg.image"].add((args[0], subspace))


def _count_exactness(tracer, args, kwargs, result):
    f, g = args
    if f.nrows * f.ncols == 0 and g.nrows * g.ncols == 0:
        tracer.counts["trivial_exactness"] += 1


def _count_hypotheses(tracer, args, kwargs, result):
    inst = args[0]
    visited = set(inst.degrees())
    stored = set().union(inst.A, inst.B, inst.C, inst.P) & visited
    tracer.counts["degrees_visited"] += len(visited)
    tracer.counts["degrees_stored"] += len(stored)


def _count_dumps(tracer, args, kwargs, result):
    payload = args[0]
    if isinstance(payload, dict) and "hypotheses" in payload:
        tracer.counts["report_bytes"] += len(result.encode())


HOOKS = {
    "linalg.rref": _count_rref,
    "linalg.matmul": _count_matmul,
    "linalg.kernel": _count_kernel,
    "linalg.image": _count_image,
    "filtration.exactness_at": _count_exactness,
    "verifier.check_instance_hypotheses": _count_hypotheses,
    "serialize.dumps": _count_dumps,
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = -1
        self.excluded = defaultdict(int)   # parent span -> counter time in ns
        self.counts = defaultdict(int)
        self.max_entry_bits = 0
        self.op_distinct = defaultdict(set)
        self.distinct = defaultdict(int)

    # -- patching --

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "csverify" or name.startswith("csverify."))]
        for span, modname, attr in TARGETS:
            mod = importlib.import_module("csverify." + modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, kwargs, result)
                tracer.excluded[parent] += perf_counter_ns() - end
            return result

        return traced

    # -- per-op bookkeeping --

    def begin_op(self, op_id: int):
        self._close_op()
        self.op = op_id

    def _close_op(self):
        for name, keys in self.op_distinct.items():
            self.distinct[name] += len(keys)
        self.op_distinct.clear()

    # -- results --

    def layer_metrics(self, ops: int) -> dict:
        """Per-op means of every per-layer metric except trace.overhead_frac."""
        self._close_op()
        child_ns = defaultdict(int)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index] - self.excluded[index]
        out = {}
        for name in COUNTED:
            out[name + ".calls"] = calls[name] / ops
            out[name + ".self_s"] = self_ns[name] / 1e9 / ops
        for name in SELF_ONLY:
            out[name + ".self_s"] = self_ns[name] / 1e9 / ops
        out["linalg.rref.cells"] = self.counts["cells"] / ops
        out["linalg.matmul.mults"] = self.counts["mults"] / ops
        out["linalg.max_entry_bits"] = self.max_entry_bits
        for name in DISTINCT:
            out[name + ".distinct_frac"] = _ratio(self.distinct[name], calls[name])
        out["filtration.exactness_at.trivial_frac"] = _ratio(
            self.counts["trivial_exactness"], calls["filtration.exactness_at"])
        out["verifier.stored_degree_frac"] = _ratio(
            self.counts["degrees_stored"], self.counts["degrees_visited"])
        out["serialize.report_bytes"] = self.counts["report_bytes"] / ops
        return out

    def write(self, path):
        """Write names and spans as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "spans": self.spans}, handle)


def _ratio(num, den) -> float:
    """num / den, and 0 when nothing was counted."""
    return num / den if den else 0.0
