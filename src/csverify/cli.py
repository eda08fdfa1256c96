"""Command-line surface: verify, monodromy, generate, fixture.

Exit codes: 0 all requested verdicts pass; 1 internal inconsistency (the
two monodromy constructions disagree, or a generated instance or curve
fixture fails its own hypothesis check: an InconsistencyError, mapped in
``main`` alone); 2 instance hypotheses dirty; 3 a conclusion is
non-exact; 4 malformed or unreadable input; 64 bad command line.  Exit 4
comes from four errors only: a SerializationError (a reader's, naming
the fault's place; a bad flag of `generate`; or a rational to print past
the digit limit, from the one output formatter, with nothing on stdout),
a DegreeRangeError (`--k` outside the window), a ProfileError (`--thm 3`
on an abstract instance) and an OSError (an unreadable file).  Any other
exception is a bug and escapes ``main`` with a traceback, exit 1.  `-`
names standard input/output for piping.  `generate` (without `--break`)
and `fixture curve` pass what they emit through ``verifier.checked``, the
one place that self-check runs; `monodromy` prints only a filtration both
constructions agree on.  `fixture curve` derives each C_j^2 from the dual
graph alone.  `generate` refuses, as exit 4, a `--max-dim` above
``generators.MAX_GEN_DIM``, a `--range` a:b with b - a above
``generators.MAX_GEN_WIDTH``, and the two together with max-dim^2 x
(b - a + 1) above ``generators.MAX_GEN_CELLS``.  `fixture curve` refuses,
as exit 4, a dual graph whose fixture would have a node above
``degenerations.MAX_FIXTURE_DIM``: its nodes are Q^v and Q^(2 b1), for v
vertices and b1 = e - v + 1 independent cycles.

`verify` reports (schema 3) hold verdicts only for the degree window,
the declared degrees within 2 of a stored space; `trivial_degrees` lists
the rest of [k_min - 2, k_max + 2] as closed intervals [a, b], degrees
where every middle space is zero, so every verdict there is exact with
no witness.  `--k` picks the one degree of `--prop` or `--thm 2` and is
a usage error without them; any degree in [k_min - 2, k_max + 2] is
verified.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from typing import List, Optional

from . import __version__
from .degenerations import curve_cs_instance
from .generators import GenProfile, gen_adversarial, gen_cs_instance
from .monodromy import centered_filtration, centered_filtration_recursive
from .serialize import (
    SerializationError,
    dumps,
    filtered_space_to_json,
    graph_from_json,
    hypothesis_report_to_json,
    instance_from_json,
    instance_to_json,
    json_int,
    loads,
    nilpotent_from_json,
    verdict_report_to_json,
)
from .verifier import (
    BREAKABLE_HYPOTHESES,
    CONCLUSIONS,
    DegreeRangeError,
    InconsistencyError,
    ProfileError,
    assemble_and_verify_les,
    check_instance_hypotheses,
    checked,
    verify_invariant_cycles,
    verify_proposition,
    verify_unipotent_cs,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DIRTY = 2
EXIT_NONEXACT = 3
EXIT_BAD_INPUT = 4
EXIT_USAGE = 64

_INPUT_ERRORS = (SerializationError, DegreeRangeError, ProfileError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _decimal(text: str) -> int:
    """An integer flag, read as plain decimal like a JSON object key: ``int`` would also take "1_0" and " +10"."""
    try:
        return json_int(text, "value", key=True)
    except SerializationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.lru_cache(maxsize=None)  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="csverify",
                     description="Exact verification of weight-filtration exact sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check an instance JSON file ('-' for stdin)")
    p_verify.add_argument("instance")
    p_verify.add_argument("--prop", choices=[*CONCLUSIONS, "all"])
    p_verify.add_argument("--thm", choices=["1", "2", "3"])
    p_verify.add_argument("--k", type=_decimal)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")

    p_mono = sub.add_parser("monodromy", help="centered filtration of a nilpotent operator")
    p_mono.add_argument("nilpotent")
    p_mono.add_argument("--center", type=_decimal, required=True)

    p_gen = sub.add_parser("generate", help="emit a seeded instance as JSON")
    p_gen.add_argument("--seed", type=_decimal, required=True)
    p_gen.add_argument("--max-dim", type=_decimal, default=6)
    p_gen.add_argument("--range", default="0:4")
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.k is not None and not (args.prop or args.thm == "2"):
            parser.error("--k needs --prop or --thm 2")
    except _UsageError as exc:
        print(f"csverify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"csverify: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InconsistencyError as exc:
        print(f"csverify: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console-script hook
    sys.exit(main())


def _cmd_verify(args) -> int:
    raw = _read_input(args.instance)
    inst = instance_from_json(loads(raw))
    started = time.monotonic()
    report = check_instance_hypotheses(inst)
    verdicts = []
    if report.clean:
        if args.prop:
            which = list(CONCLUSIONS) if args.prop == "all" else [args.prop]
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
        "schema": 3,
        "tool": {"name": "csverify", "version": __version__},
        "input_digest": _digest(raw),
        "hypotheses": hypothesis_report_to_json(report),
        "verdicts": [verdict_report_to_json(v) for v in verdicts],
        "trivial_degrees": [list(interval) for interval in inst.trivial_degrees()],
        "timing_ms": elapsed_ms,
        "exit_status": status,
    }
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(_render_text(payload, report, verdicts))
    return status


def _render_text(payload, report, verdicts) -> str:
    lines = [f"csverify {__version__}  ({payload['input_digest'][:19]}...)"]
    lines.append("hypotheses: " + ("clean" if report.clean else "DIRTY"))
    for category, key in report.failures():
        lines.append(f"  FAIL {category} at {key}")
    lines.append("trivial degrees: " + (", ".join(f"{a}..{b}" for a, b in payload["trivial_degrees"]) or "none"))
    for v in verdicts:
        mark = "exact" if v.exact else "NOT EXACT"
        lines.append(f"{v.proposition} k={v.degree}: {mark}")
    lines.append(f"exit: {payload['exit_status']}")
    return "\n".join(lines) + "\n"


def _cmd_monodromy(args) -> int:
    raw = _read_input(args.nilpotent)
    matrix = nilpotent_from_json(loads(raw)).matrix
    filtration = centered_filtration(matrix, args.center)
    if centered_filtration_recursive(matrix, args.center) != filtration:
        raise InconsistencyError("the two constructions disagree")
    payload = {"schema": 1, "input_digest": _digest(raw), "center": args.center, "cross_check": "agree"}
    payload.update(filtered_space_to_json(filtration))
    sys.stdout.write(dumps(payload))
    return EXIT_OK


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        return json_int(lo, "range bound", key=True), json_int(hi, "range bound", key=True)
    except ValueError as exc:
        raise SerializationError(f"bad range {text!r}, expected 'a:b'") from exc


def _cmd_generate(args) -> int:
    try:
        profile = GenProfile(seed=args.seed, max_dim_per_node=args.max_dim,
                             degree_range=_parse_range(args.range), broken_hypothesis=args.broken)
    except ValueError as exc:  # GenProfile checks every input of generate
        raise SerializationError(str(exc)) from exc
    if profile.broken_hypothesis is None:
        inst = checked(gen_cs_instance(profile))
    else:
        inst = gen_adversarial(profile)
    sys.stdout.write(dumps(instance_to_json(inst)))
    return EXIT_OK


def _cmd_fixture(args) -> int:
    graph = graph_from_json(loads(_read_input(args.graph)))
    sys.stdout.write(dumps(instance_to_json(checked(curve_cs_instance(graph)))))
    return EXIT_OK


# the handler of each command, by the name the parser stores in args.command
_COMMANDS = {"verify": _cmd_verify, "monodromy": _cmd_monodromy, "generate": _cmd_generate, "fixture": _cmd_fixture}


if __name__ == "__main__":
    entry()
