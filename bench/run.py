"""Closed-loop benchmark of csverify: four seeded pipeline workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: each op starts when the previous one has ended.
The seed fixes a list of ops, a pass, that takes about one run.  An
untraced run (``--trace 0``) repeats whole passes, as many as bring it
closest to ``--seconds`` (at least one, and at least MIN_OPS ops), so
every run executes the same multiset of ops; it checks every op's output
and prints the end-to-end metrics.  An op's latency covers the program's
work only, not the check of its outputs; throughput is ops per second of
that time.  Times are reported at a reference machine speed, measured
by a calibration loop run beside the ops (see REFERENCE_CAL_S).  A traced
run (``--trace 1``) runs one pass untraced and then one traced, prints
the per-layer metrics with the tracing overhead, and writes its spans
under ``.bench_out/``.

The program is driven through its public entry points: ``csverify.cli.main``
in-process, with standard input and output replaced by memory buffers
for the pipes, and the ``generators``/``monodromy`` functions.

The second-to-last line of standard output records the input
provenance: the seed, the SHA-256 of the inputs the pass generated (the
op specs, the generated instance, fixture or nilpotent bytes), the
arithmetic backend, the mean calibration time and the unscaled metrics.
The last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import spans  # the benchmark's own tracer, beside this file

ROOT = Path(__file__).resolve().parent.parent

MIN_OPS = 100          # latency_p90_ms needs at least ten samples beyond it
SETUP_REPEATS = 7      # setup_s is the median of this many set-ups

# A shared machine's speed can drift by tens of percent within minutes,
# as other work contends for its cores, so every reported time is scaled
# to a reference speed.  After each op, and around each set-up, the benchmark times
# calibrate(), a fixed Fraction sum that does not touch csverify, and
# multiplies a measured time by REFERENCE_CAL_S over the calibration time
# measured around it: the mean over the ops within CAL_WINDOW of an op.
# The provenance line keeps the unscaled values.
REFERENCE_CAL_S = 0.005
CAL_WINDOW = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

cs = None  # the csverify package, bound by load_package()


def load_package():
    """Import csverify afresh from this checkout's src/."""
    global cs
    src = ROOT / "src"
    if not (src / "csverify" / "__init__.py").is_file():
        raise ImportError(f"no csverify sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "csverify" or n.startswith("csverify.")]:
        del sys.modules[name]
    import csverify
    import csverify.cli  # noqa: F401
    if Path(csverify.__file__).resolve().parent != (src / "csverify").resolve():
        raise ImportError(f"csverify imported from {csverify.__file__}, not from {src}")
    cs = csverify


def calibrate(units: int = 1) -> float:
    """Mean seconds per run of a fixed Fraction sum, over ``units`` runs."""
    started = time.perf_counter()
    for _ in range(units):
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(i % 97, i % 89 + 1)
    return (time.perf_counter() - started) / units


def backend() -> str:
    value = cs.linalg.Q(1)
    return f"{type(value).__module__}.{type(value).__qualname__}"


def call_cli(argv, stdin: bytes = b""):
    """Run ``csverify.cli.main`` with in-memory stdin/stdout; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cs.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# -- per-op gates ---------------------------------------------------------

def failing_categories(hypotheses: dict) -> set:
    """Hypothesis categories with at least one failing entry in a JSON report."""
    cats = set()
    for section, category in (("column", "column_exact"), ("row", "row_exact")):
        if any(not v["exact"] for nodes in hypotheses[section].values() for v in nodes.values()):
            cats.add(category)
    for key, category in (("A", "A_bound"), ("B", "B_bound"), ("P_centering", "P_centering")):
        if not all(hypotheses["bounds"][key].values()):
            cats.add(category)
    if any(not v["strict"] for per_k in hypotheses["strictness"].values() for v in per_k.values()):
        cats.add("strictness")
    return cats


def check_clean_report(code: int, report_text: str, prefix: str = "") -> str | None:
    """None when the verify run exited 0 with every verdict exact."""
    if code != 0:
        return f"verify exit {code}, expected 0"
    verdicts = json.loads(report_text)["verdicts"]
    if not verdicts:
        return "no verdicts"
    bad = [v["proposition"] for v in verdicts
           if not v["exact"] or not v["proposition"].startswith(prefix)]
    return f"verdicts not exact: {bad[:3]}" if bad else None


# -- workloads ------------------------------------------------------------
#
# Each workload has plan(seed) -> the pass, a list of JSON-able op specs;
# build(specs) -> per-op input bytes, made during set-up (None when the
# op makes its own input); a warm-up spec that is the same for every
# seed; execute(spec, raw) -> the op's outputs, the timed part;
# check(spec, outputs) -> None or a failure reason; and
# generated(spec, raw, outputs) -> the bytes of the op's inputs, which go
# into the input digest.  Op sizes are stratified, so that every seed's
# pass has the same mix of sizes and only the data differ.

def _jordan_type(gen_seed: int, dim: int) -> list:
    """Jordan block sizes of gen_centered_mhs(gen_seed, dim, k), ascending.

    Mirrors its draw of the Jordan type: parts drawn uniformly from
    1..remaining until dim is used up.  The gate checks every op's
    nilpotency index against the largest part, so a change to that draw
    shows.
    """
    rng = random.Random(gen_seed)
    parts, remaining = [], dim
    while remaining:
        parts.append(rng.randint(1, remaining))
        remaining -= parts[-1]
    return sorted(parts)


class MonodromySweep:
    """Criterion 1+2 unit: generate a centered nilpotent, build both
    monodromy filtrations, compare them, check the axioms and bounds.

    An op's cost is set by its dimension and its Jordan type.  A pass is
    BLOCKS blocks that each hold every dimension 0..10 once; the Jordan
    types are those the generator draws for a fixed reference seed, the
    same for every workload seed, and each op takes the first generator
    seed derived from the workload seed that draws its type.
    """

    BLOCKS = 13
    REFERENCE_SEED = 0

    def plan(self, seed):
        rng = random.Random(seed)
        specs = []
        for block in range(self.BLOCKS):
            dims = list(range(11))
            rng.shuffle(dims)
            for dim in dims:
                i = len(specs)
                jordan = _jordan_type(cs.split_seed(self.REFERENCE_SEED, 11 * block + dim), dim)
                gen_seed = next(s for s in (cs.split_seed(cs.split_seed(seed, 2 * i), t)
                                            for t in itertools.count())
                                if _jordan_type(s, dim) == jordan)
                specs.append({"seed": gen_seed, "dim": dim, "largest": max(jordan, default=0),
                              "center": rng.randint(-3, 3),
                              "section_seed": cs.split_seed(seed, 2 * i + 1)})
        return specs

    def build(self, specs):
        return [None] * len(specs)

    def warmup(self):
        return {"seed": 1, "dim": 5, "largest": max(_jordan_type(1, 5)), "center": 0,
                "section_seed": 2}

    def execute(self, spec, raw):
        center = spec["center"]
        _, op = cs.gen_centered_mhs(spec["seed"], spec["dim"], center)
        chain = cs.monodromy_filtration(op, center)
        recursive = cs.monodromy_filtration_recursive(
            op, center, section_rng=random.Random(spec["section_seed"]))
        return (op, chain == recursive, cs.verify_centered_axioms(chain, op),
                cs.ker_coker_weight_bounds(op, center))

    def check(self, spec, outputs):
        op, agree, axioms, bounds = outputs
        if op.index != spec["largest"]:
            return f"largest Jordan block {op.index}, planned {spec['largest']}"
        if not agree:
            return "chain and recursive filtrations differ"
        if not axioms.ok:
            return f"centered axiom {axioms.failed_axiom} fails at {axioms.failed_index}"
        if not bounds.ok:
            return f"weight bounds: {bounds.status}"
        return None

    def generated(self, spec, raw, outputs):
        return "\n".join(" ".join(map(cs.linalg.qstr, row))
                         for row in outputs[0].matrix.rows).encode()


class GenerateVerify:
    """``generate --seed s --max-dim D`` piped into ``verify - --thm 1``;
    every fourth op breaks one hypothesis.  Every 48 ops break each
    hypothesis once at each size."""

    OPS = 240

    def plan(self, seed):
        hyps = cs.verifier.BREAKABLE_HYPOTHESES
        specs = []
        for i in range(self.OPS):
            # the (i // 24) term pairs every broken hypothesis with both sizes
            max_dim = (6, 10)[(i + i // 24) % 2]
            broken = hyps[(i // 4) % len(hyps)] if i % 4 == 3 else None
            specs.append({"seed": cs.split_seed(seed, i), "max_dim": max_dim, "break": broken})
        return specs

    def build(self, specs):
        return [None] * len(specs)

    def warmup(self):
        return {"seed": 1, "max_dim": 6, "break": None}

    def execute(self, spec, raw):
        argv = ["generate", "--seed", str(spec["seed"]), "--max-dim", str(spec["max_dim"]),
                "--range", "0:4"]
        if spec["break"]:
            argv += ["--break", spec["break"]]
        gen_code, instance = call_cli(argv)
        if gen_code != 0:
            return gen_code, None, None, None
        return (gen_code, instance) + call_cli(["verify", "-", "--thm", "1", "--format", "json"],
                                               instance.encode())

    def check(self, spec, outputs):
        gen_code, _, code, report = outputs
        if gen_code != 0:
            return f"generate exit {gen_code}"
        if spec["break"] is None:
            return check_clean_report(code, report)
        if code != 2:
            return f"verify exit {code} on broken {spec['break']}, expected 2"
        payload = json.loads(report)
        cats = failing_categories(payload["hypotheses"])
        if cats != {spec["break"]}:
            return f"failing categories {sorted(cats)}, expected {spec['break']}"
        if payload["verdicts"]:
            return "verdicts reported on a dirty instance"
        return None

    def generated(self, spec, raw, outputs):
        return (outputs[1] or "").encode()


class CurveVerify:
    """``fixture curve --graph -`` on a seeded connected multigraph piped
    into ``verify - --thm 3``.  A pass is BLOCKS blocks of 14 graphs: 12
    random ones that take each vertex count 1..12 once, with b1 from
    0..6, plus a cycle I_n and the theta graph.  The sizes (vertex count,
    b1, n) come from a fixed reference seed, the same for every workload
    seed; the workload seed draws the edges."""

    BLOCKS = 10
    REFERENCE_SEED = 0

    def plan(self, seed):
        reference, rng = random.Random(self.REFERENCE_SEED), random.Random(seed)
        specs = []
        for _ in range(self.BLOCKS):
            sizes = list(range(1, 13))
            b1s = list(range(7)) + list(range(1, 6))
            reference.shuffle(sizes)
            reference.shuffle(b1s)
            for v, b1 in zip(sizes, b1s):
                specs.append(self._graph(rng, v, b1))
            specs.append(self._cycle(reference.randint(1, 12)))
            specs.append({"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "b1": 2})
        return specs

    @staticmethod
    def _graph(rng, v, b1):
        labels = list(range(v))
        rng.shuffle(labels)
        edges = [[labels[j], labels[rng.randrange(j)]] for j in range(1, v)]
        edges += [[rng.randrange(v), rng.randrange(v)] for _ in range(b1)]
        return {"vertices": v, "edges": edges, "b1": b1}

    @staticmethod
    def _cycle(n):
        if n == 1:
            edges = [[0, 0]]
        elif n == 2:
            edges = [[0, 1], [0, 1]]
        else:
            edges = [[i, (i + 1) % n] for i in range(n)]
        return {"vertices": n, "edges": edges, "b1": 1}

    def build(self, specs):
        return [json.dumps({"vertices": s["vertices"], "edges": s["edges"]}).encode()
                for s in specs]

    def warmup(self):
        return {"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "b1": 2}

    def execute(self, spec, raw):
        fix_code, fixture = call_cli(["fixture", "curve", "--graph", "-"], raw)
        if fix_code != 0:
            return fix_code, None, None, None
        return (fix_code, fixture) + call_cli(["verify", "-", "--thm", "3", "--format", "json"],
                                              fixture.encode())

    def check(self, spec, outputs):
        fix_code, fixture, code, report = outputs
        if fix_code != 0:
            return f"fixture exit {fix_code}"
        failure = check_clean_report(code, report, prefix="THM3:")
        if failure:
            return failure
        data = json.loads(fixture)
        b1 = spec["b1"]
        dim_a1 = data["A"].get("1", {"dim": 0})["dim"]
        dim_p1 = data["P"].get("1", {"dim": 0})["dim"]
        if (dim_a1, dim_p1) != (b1, 2 * b1):
            return f"dim A_1, P_1 = {dim_a1}, {dim_p1}; expected {b1}, {2 * b1}"
        return None

    def generated(self, spec, raw, outputs):
        return raw + b"\0" + (outputs[1] or "").encode()


class SparseRange:
    """``verify - --thm 1`` on a generated range-0:4 instance whose declared
    range is widened to [0, W]; the stored data stay in degrees 0..4.  A
    pass verifies each of INSTANCES instances at every width in WIDTHS, a
    geometric series from 100 to 800, so that a run of MIN_OPS ops fits in
    about 20 seconds."""

    INSTANCES = 5
    WIDTHS = (100, 126, 159, 200, 252, 317, 400, 504, 635, 800)

    def plan(self, seed):
        return [{"seed": cs.split_seed(seed, j), "max_dim": 6, "width": width}
                for width in self.WIDTHS for j in range(self.INSTANCES)]

    def build(self, specs):
        instances = {}
        raws = []
        for spec in specs:
            key = (spec["seed"], spec["max_dim"])
            if key not in instances:
                code, text = call_cli(["generate", "--seed", str(spec["seed"]),
                                       "--max-dim", str(spec["max_dim"]), "--range", "0:4"])
                if code != 0:
                    raise RuntimeError(f"generate exit {code} for {spec}")
                instances[key] = json.loads(text)
            raws.append(json.dumps(dict(instances[key], range=[0, spec["width"]])).encode())
        return raws

    def warmup(self):
        return {"seed": 1, "max_dim": 6, "width": 8}

    def execute(self, spec, raw):
        return call_cli(["verify", "-", "--thm", "1", "--format", "json"], raw)

    def check(self, spec, outputs):
        return check_clean_report(*outputs)

    def generated(self, spec, raw, outputs):
        return raw


WORKLOADS = {
    "monodromy_sweep": MonodromySweep,
    "generate_verify": GenerateVerify,
    "curve_verify": CurveVerify,
    "sparse_range": SparseRange,
}


# -- measurement ----------------------------------------------------------

class Prepared:
    """The pass of one run: its op specs and their set-up inputs.

    ``ops`` keeps only the first ops of the pass (the benchmark's tests
    use it for tiny runs).
    """

    def __init__(self, workload, seed: int, ops: int | None = None):
        self.workload = workload
        self.specs = workload.plan(seed)[:ops]
        self.raws = workload.build(self.specs)
        warm = workload.warmup()
        failure = workload.check(warm, workload.execute(warm, workload.build([warm])[0]))
        if failure:
            raise RuntimeError(f"warm-up op failed: {failure}")


def set_up(workload_name: str, seed: int, ops: int | None = None):
    """Import the package and prepare the pass SETUP_REPEATS times.

    Returns the last set-up and the median set-up time, scaled and
    measured.
    """
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate(3)
        started = time.perf_counter()
        load_package()
        prepared = Prepared(WORKLOADS[workload_name](), seed, ops)
        elapsed = time.perf_counter() - started
        measured.append(elapsed)
        scaled.append(elapsed * REFERENCE_CAL_S / ((before + calibrate(3)) / 2))
    return prepared, statistics.median(scaled), statistics.median(measured)


class Outcome:
    """Latencies, calibrations, failures and input fingerprints of the ops
    run so far."""

    def __init__(self):
        self.latencies: list = []
        self.calibrations: list = []
        self.failures: list = []
        self.fingerprints: dict = {}   # op index in the pass -> SHA-256 of its inputs

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list:
        """Latencies at the reference speed (see REFERENCE_CAL_S)."""
        cals = self.calibrations
        scaled = []
        for i, latency in enumerate(self.latencies):
            window = cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
            scaled.append(latency * REFERENCE_CAL_S * len(window) / sum(window))
        return scaled

    def digest(self, ops: int) -> str:
        """SHA-256 over the fingerprints of the pass's ``ops`` ops, in order."""
        digest = hashlib.sha256()
        for index in range(ops):
            digest.update(self.fingerprints.get(index, b"not run"))
        return digest.hexdigest()


def run_op(prepared: Prepared, index: int, outcome: Outcome, tracer=None):
    """Run op ``index`` of the pass, time it, then check its outputs and
    fingerprint its inputs."""
    spec, raw = prepared.specs[index], prepared.raws[index]
    workload = prepared.workload
    if tracer is not None:
        tracer.begin_op(index)
    started = time.perf_counter()
    try:
        outputs, failure = workload.execute(spec, raw), None
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        failure = f"{type(exc).__name__}: {exc}"
    outcome.latencies.append(time.perf_counter() - started)
    if failure is None:
        try:
            failure = workload.check(spec, outputs)
            fingerprint = hashlib.sha256(json.dumps(spec, sort_keys=True).encode() + b"\0"
                                         + workload.generated(spec, raw, outputs)).digest()
            if outcome.fingerprints.setdefault(index, fingerprint) != fingerprint:
                failure = failure or "inputs differ from the previous pass"
        except (KeyError, TypeError, ValueError) as exc:
            failure = f"malformed output: {exc!r}"
    if failure:
        outcome.failures.append((index, failure))
        print(f"op {index} failed: {failure}", file=sys.stderr)
    outcome.calibrations.append(calibrate())


def run_pass(prepared: Prepared, outcome: Outcome, tracer=None):
    for index in range(len(prepared.specs)):
        run_op(prepared, index, outcome, tracer)


def measure(prepared: Prepared, seconds: float, min_ops: int = MIN_OPS) -> Outcome:
    """Whole passes, at least one and ``min_ops`` ops; after that, the run
    stops when one more pass would end further from ``seconds`` than now."""
    outcome = Outcome()
    started = time.perf_counter()
    passes = 0
    while True:
        run_pass(prepared, outcome)
        passes += 1
        elapsed = time.perf_counter() - started
        if outcome.attempted >= min_ops and elapsed + elapsed / passes / 2 >= seconds:
            return outcome


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A mean of all the order statistics weighted by the Beta(p(n+1),
    (1-p)(n+1)) density, integrated by the midpoint rule.  Unlike a
    single order statistic it does not jump when the ops around the
    quantile sit at two cost levels, which makes it steadier over seeds.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoint-rule steps per order statistic
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((i + 0.5) / (n * steps) for i in range(n * steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end_metrics(latencies: list, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": quantile(latencies, 0.5) * 1000,
        "latency_p90_ms": quantile(latencies, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(prepared: Prepared, trace_path=None):
    """One pass untraced, then one traced.

    Returns (per-layer metrics, outcome of both passes).
    """
    outcome = Outcome()
    run_pass(prepared, outcome)
    ops = outcome.attempted
    with spans.Tracer() as tracer:
        run_pass(prepared, outcome, tracer)
    scaled = outcome.scaled_latencies()
    metrics = tracer.layer_metrics(ops)
    metrics["trace.overhead_frac"] = sum(scaled[ops:]) / sum(scaled[:ops]) - 1
    if trace_path is not None:
        tracer.write(trace_path)
    return metrics, outcome


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, ops: int | None = None, trace_path=None):
    """One benchmark run; returns (provenance, result) as printed.

    ``ops`` cuts the pass to its first ops (for tiny test runs).
    """
    prepared, setup_s, measured_setup_s = set_up(workload_name, seed, ops)
    gc.collect()
    measured = None
    if trace:
        values, outcome = traced_pass(prepared, trace_path)
        units = spans.per_layer_units()
    else:
        outcome = measure(prepared, seconds, min_ops)
        values = end_to_end_metrics(outcome.scaled_latencies(), setup_s)
        measured = end_to_end_metrics(outcome.latencies, measured_setup_s)
        units = END_TO_END_UNITS
    provenance = {
        "workload": workload_name,
        "seed": seed,
        "input_sha256": outcome.digest(len(prepared.specs)),
        "backend": backend(),
        "python": sys.version.split()[0],
        "ops": outcome.attempted,
        "failed_frac": len(outcome.failures) / outcome.attempted,
        "trace": int(trace),
        "calibration_s": statistics.mean(outcome.calibrations),
        "reference_calibration_s": REFERENCE_CAL_S,
        "measured": measured,
    }
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return provenance, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace_path = None
    if args.trace:
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json.gz"
    try:
        provenance, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 trace_path=trace_path)
    except ImportError as exc:
        print(f"bench: cannot load csverify: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
