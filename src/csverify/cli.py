"""Command-line surface: verify, monodromy, generate, fixture.

Exit codes: 0 all requested verdicts pass; 1 internal inconsistency (the
two monodromy constructions disagree, or a curve fixture fails its own
hypothesis check); 2 instance hypotheses dirty; 3 a conclusion is
non-exact; 4 malformed or unreadable input; 64 bad command line.  `-` names standard input/output for piping.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import List, Optional

from . import __version__
from .degenerations import DisconnectedGraphError, DualGraph, FixtureError
from .filtration import FiltrationError, WeightCompatibilityError
from .generators import GenProfile, gen_adversarial, gen_cs_instance
from .linalg import DimensionMismatchError
from .monodromy import (
    NilpotencyError,
    monodromy_filtration,
    monodromy_filtration_recursive,
)
from .serialize import (
    SerializationError,
    centered_filtration_to_json,
    dumps,
    graph_from_json,
    hypothesis_report_to_json,
    instance_from_json,
    instance_to_json,
    nilpotent_from_json,
    verdict_report_to_json,
)
from .verifier import (
    BREAKABLE_HYPOTHESES,
    DegreeRangeError,
    MalformedInstanceError,
    ProfileError,
    assemble_and_verify_les,
    check_instance_hypotheses,
    verify_invariant_cycles,
    verify_proposition,
    verify_unipotent_cs,
)
from .degenerations import curve_cs_instance

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DIRTY = 2
EXIT_NONEXACT = 3
EXIT_BAD_INPUT = 4
EXIT_USAGE = 64

_INPUT_ERRORS = (SerializationError, MalformedInstanceError, NilpotencyError,
                 FiltrationError, WeightCompatibilityError, DimensionMismatchError,
                 DisconnectedGraphError, DegreeRangeError, ProfileError,
                 json.JSONDecodeError, OSError, UnicodeDecodeError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="csverify",
                     description="Exact verification of weight-filtration exact sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check an instance JSON file ('-' for stdin)")
    p_verify.add_argument("instance")
    p_verify.add_argument("--prop", choices=["P1", "P2", "P3", "P4", "all"])
    p_verify.add_argument("--thm", choices=["1", "2", "3"])
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")

    p_mono = sub.add_parser("monodromy", help="centered filtration of a nilpotent operator")
    p_mono.add_argument("nilpotent")
    p_mono.add_argument("--center", type=int, required=True)
    p_mono.add_argument("--cross-check", action="store_true")

    p_gen = sub.add_parser("generate", help="emit a seeded instance as JSON")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--max-dim", type=int, default=6)
    p_gen.add_argument("--range", default="0:4")
    p_gen.add_argument("--weight-spread", type=int, default=3)
    p_gen.add_argument("--break", dest="broken", choices=list(BREAKABLE_HYPOTHESES))

    p_fix = sub.add_parser("fixture", help="ground-truth instances")
    fix_sub = p_fix.add_subparsers(dest="kind", required=True)
    p_curve = fix_sub.add_parser("curve", help="instance of a degenerate curve from its dual graph")
    p_curve.add_argument("--graph", required=True)

    return parser


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _emit(text: str):
    sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"csverify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "monodromy":
            return _cmd_monodromy(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "fixture":
            return _cmd_fixture(args)
    except _INPUT_ERRORS as exc:
        print(f"csverify: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    raise AssertionError("unreachable")


def entry():  # console-script hook
    sys.exit(main())


def _cmd_verify(args) -> int:
    raw = _read_input(args.instance)
    inst = instance_from_json(json.loads(raw))
    started = time.monotonic()
    report = check_instance_hypotheses(inst)
    verdicts = []
    if report.clean:
        if args.prop:
            which = ["P1", "P2", "P3", "P4"] if args.prop == "all" else [args.prop]
            degrees = [args.k] if args.k is not None else list(inst.degrees(pad=2))
            for prop in which:
                for k in degrees:
                    verdicts.append(verify_proposition(inst, prop, k, report=report))
        if args.thm == "1":
            verdicts.extend(assemble_and_verify_les(inst, report=report))
        elif args.thm == "2":
            degrees = [args.k] if args.k is not None else list(inst.degrees(pad=1))
            for k in degrees:
                verdicts.append(verify_invariant_cycles(inst, k, report=report))
        elif args.thm == "3":
            verdicts.extend(verify_unipotent_cs(inst, report=report))
    elapsed_ms = int((time.monotonic() - started) * 1000)

    if not report.clean:
        status = EXIT_DIRTY
    elif any(not v.exact for v in verdicts):
        status = EXIT_NONEXACT
    else:
        status = EXIT_OK
    payload = {
        "schema": 1,
        "tool": {"name": "csverify", "version": __version__},
        "input_digest": _digest(raw),
        "purity_weight": inst.purity_weight,
        "hypotheses": hypothesis_report_to_json(report),
        "verdicts": [verdict_report_to_json(v) for v in verdicts],
        "timing_ms": elapsed_ms,
        "exit_status": status,
    }
    if args.format == "json":
        _emit(dumps(payload))
    else:
        _emit(_render_text(payload, report, verdicts))
    return status


def _render_text(payload, report, verdicts) -> str:
    lines = [f"csverify {__version__}  ({payload['input_digest'][:19]}...)"]
    lines.append("hypotheses: " + ("clean" if report.clean else "DIRTY"))
    for category, key in report.failures():
        lines.append(f"  FAIL {category} at {key}")
    for v in verdicts:
        mark = "exact" if v.exact else "NOT EXACT"
        lines.append(f"{v.proposition} k={v.degree}: {mark}")
    lines.append(f"exit: {payload['exit_status']}")
    return "\n".join(lines) + "\n"


def _cmd_monodromy(args) -> int:
    raw = _read_input(args.nilpotent)
    op = nilpotent_from_json(json.loads(raw))
    cf = monodromy_filtration(op, args.center)
    payload = {"schema": 1, "input_digest": _digest(raw)}
    payload.update(centered_filtration_to_json(cf))
    if args.cross_check:
        other = monodromy_filtration_recursive(op, args.center)
        if other != cf:
            print("csverify: internal error: the two constructions disagree", file=sys.stderr)
            return EXIT_INTERNAL
        payload["cross_check"] = "agree"
    _emit(dumps(payload))
    return EXIT_OK


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise SerializationError(f"bad range {text!r}, expected 'a:b'") from exc


def _cmd_generate(args) -> int:
    try:
        profile = GenProfile(seed=args.seed, max_dim_per_node=args.max_dim,
                             degree_range=_parse_range(args.range),
                             weight_spread=args.weight_spread,
                             broken_hypothesis=args.broken)
        if profile.broken_hypothesis is None:
            inst = gen_cs_instance(profile)
        else:
            inst = gen_adversarial(profile)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    _emit(dumps(instance_to_json(inst)))
    return EXIT_OK


def _cmd_fixture(args) -> int:
    raw = _read_input(args.graph)
    graph = graph_from_json(json.loads(raw))
    # the fibre meets every component with intersection number 0, which
    # holds exactly when each self-intersection is -degree
    if graph.self_intersections != DualGraph.make(graph.vertices, graph.edges).self_intersections:
        raise SerializationError("fixture curve needs self-intersection -degree at every vertex")
    try:
        inst = curve_cs_instance(graph)
    except FixtureError as exc:
        print(f"csverify: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(dumps(instance_to_json(inst)))
    return EXIT_OK


if __name__ == "__main__":
    entry()
