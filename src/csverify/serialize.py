"""JSON schemas for every value the CLI reads or writes.

Rationals serialize as strings "p/q" ("p" when integral) to avoid lossy
numeric JSON.  Matrices are arrays of row arrays of such strings; shape
context always comes from the surrounding object, so empty matrices are
unambiguous.  Serialization is deterministic: keys are sorted and the
formatting is fixed, so equal values produce identical bytes.  Integer
fields (dimensions, degrees, weights, the range, purity, graph data) must
be JSON integers, and integer object keys plain decimal strings; any
other value is a SerializationError, never truncated.  So is an integer
longer than the interpreter's limit on decimal digits
(``sys.get_int_max_str_digits``), wherever it appears, on input and on
output: every rational written goes through ``_ratio_str``.  An integer
field must be a digit shorter (``json_int``), so a degree derived from
one within +-3 still prints.  "purity" must be 0, the one normalization
of weights the verifier implements.  Every object of a document (an
instance, its "col" and "row", a filtered space, a dual graph, a
nilpotent operator) carries only the keys listed below: any other key,
such as a misspelled "n" for "N", is a SerializationError naming it,
never read as an absent key.  The three readers raise SerializationError
and nothing else, and every fault names its place: a field read as absent
reports the type it should have, and an error inside one filtered space or
map of an instance starts with it, such as ``P_0:`` or ``map r_1:``.

``dumps`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=1)`` itself: with an indent, ``json.dumps`` never uses CPython's C
encoder, and its pure-Python one dominated the cost of a report.  Only
the escaping of strings is left to ``json``, whose C routine it is.
``matrix_from_json`` reads a row of decimal integers, the common case, as
one regex match over the joined row and one ``int`` per entry; that
already is the stored form (integers over denominator 1).

Schemas:

  filtered space   {"dim": d, "steps": {"<weight>": [[...rows...]]}}
  nilpotent op     {"space": <filtered space>, "matrix": [[...]]}
  centered filt.   {"center": k, "dim": d, "steps": {...}}
  dual graph       {"vertices": v, "edges": [[i, j], ...], "self": [s_0...]?}
                   ("self" is read, never written: s_j = -(edges from j to other vertices);
                   v and 2*(e - v + 1), the fixture's node sizes, at most MAX_FIXTURE_DIM)
  CS instance      {"range": [kmin, kmax], "A": {"<k>": <fs>, ...}, "B": ...,
                    "C": ..., "P": ..., "N": {"<k>": [[...]]},
                    "col": {"b": ..., "a": ..., "c": ...},
                    "row": {"r": ..., "s": ...}, "purity": 0,
                    "profile": "abstract" | "geometric"?}
                   ("profile" is optional and "abstract" by default; any
                   other value is a SerializationError)
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from math import gcd
from typing import Dict, Tuple

from .degenerations import MAX_FIXTURE_DIM, DualGraph, betti
from .filtration import FilteredSpace, Verdict
from .linalg import Matrix, Subspace, canonicalize, ratio_row
from .monodromy import NilpotentOp
from .verifier import NODES, CSInstance, HypothesisReport, VerdictReport


class SerializationError(ValueError):
    """Input JSON does not match the documented schema."""


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``, for JSON values whose object keys are strings."""
    return _encode(obj, "\n") + "\n"


_STR = json.encoder.encode_basestring_ascii  # the C routine where CPython has one


def _encode(obj, pad: str) -> str:
    """obj in the indent=1 layout; pad is a newline and the indent of obj's own line."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + " "
        sep = "," + inner
        try:  # a list of strings, such as a matrix row, in one join
            body = sep.join(map(_STR, obj))
        except TypeError:  # an entry is not a string
            body = sep.join([_encode(x, inner) for x in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + " "
        return "{" + inner + ("," + inner).join([_STR(k) + ": " + _encode(v, inner)
                                                for k, v in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, str):
        return _STR(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)  # any other leaf: a float, or a TypeError


def loads(raw):
    """json.loads, every failure a SerializationError.

    An integer literal longer than the interpreter's digit limit raises a
    plain ValueError, not a JSONDecodeError, and nesting too deep for the
    decoder a RecursionError."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise SerializationError(str(exc)) from exc


def _int(text: str, what: str) -> int:
    """int(text) for text already checked to be decimal; too many digits is a SerializationError."""
    try:
        return int(text)
    except ValueError as exc:
        raise SerializationError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from exc


_DECIMAL = re.compile(r"-?[0-9]+")


def json_int(value, what: str, key: bool) -> int:
    """An integer field: a JSON integer that is not a boolean, or for an object key a plain decimal string.

    ``int`` alone would read 2.9 as 2, true as 1 and the key "1_0" as 10.
    One with as many digits as the interpreter's limit is refused, so a
    value derived within +-3 of it still prints.
    """
    if key and isinstance(value, str) and _DECIMAL.fullmatch(value):
        value = _int(value, what)
    elif key or type(value) is not int:
        raise SerializationError(f"{what} must be an integer, got {json.dumps(value, default=str)[:40]}")
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    if limit and len(str(abs(value))) >= limit:
        raise SerializationError(f"{what} has {limit} digits or more")
    return value


def _object(data, keys, what: str) -> dict:
    """data, a JSON object whose keys all lie in keys; a misspelled key would otherwise read as
    an absent one, so "n" for "N" would make every N_k zero."""
    if not isinstance(data, dict):
        raise SerializationError(f"{what} must be a JSON object")
    for key in data:
        if key not in keys:
            raise SerializationError(f"{what} has an unknown key {json.dumps(key)[:40]}")
    return data


def _int_items(raw, what: str, key: str):
    """(k, value) over the integer keys k of raw, the JSON object named what; keys that spell one
    integer, such as "0", "00" and "-0", are refused rather than letting the last one win in a dict."""
    if not isinstance(raw, dict):
        raise SerializationError(f"{what} must be a JSON object")
    spelled = {}
    for text, value in raw.items():
        k = json_int(text, key, key=True)
        if spelled.setdefault(k, text) != text:
            raise SerializationError(f'{key} {k} is given twice, as "{spelled[k]}" and "{text}"')
        yield k, value


_RATIO = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def _ratio(s) -> Tuple[int, int]:
    """(p, q), q != 0, of a rational entry: a JSON integer, or text "p/q" or "p"."""
    if type(s) is int:
        return s, 1
    if not isinstance(s, str):
        raise SerializationError(f"rational entries must be strings, got {type(s).__name__}")
    match = _RATIO.fullmatch(s)
    if match is None:
        raise SerializationError(f"cannot parse rational {s!r}")
    num, den = match.groups()
    q = 1 if den is None else _int(den, "rational entry")
    if q == 0:
        raise SerializationError(f"cannot parse rational {s!r}")
    return _int(num, "rational entry"), q


# a row of decimal integers joined by commas; an entry may itself hold a comma, so count them too
_INT_ROW = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _row(row: list) -> tuple:
    """The stored form of one JSON row of rational entries."""
    try:
        text = ",".join(row)
    except TypeError:  # an entry is not a string
        text = ""
    if _INT_ROW.fullmatch(text) and text.count(",") == len(row) - 1:
        try:
            return tuple(map(int, row)), 1
        except ValueError:  # an entry past the digit limit, which the per-entry parse reports
            pass
    return ratio_row([_ratio(x) for x in row])


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms, as str() prints the Fraction: "p/q", or "p" when integral; every
    rational written goes through here, so one past the digit limit is a SerializationError."""
    g = gcd(p, q)
    try:
        return str(p // g) if g == q else f"{p // g}/{q // g}"
    except ValueError as exc:
        raise SerializationError(
            f"an output rational has more than {sys.get_int_max_str_digits()} digits") from exc


def matrix_to_json(m: Matrix) -> list:
    return [[_ratio_str(x, den) for x in row] for row, den in m.irows]


def matrix_from_json(data, nrows: int, ncols: int) -> Matrix:
    if not isinstance(data, list):
        raise SerializationError("matrix must be an array of rows")
    if len(data) != nrows:
        raise SerializationError(f"matrix has {len(data)} rows, expected {nrows}")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != ncols:
            raise SerializationError(f"matrix row must be an array of {ncols} entries")
        rows.append(_row(row))
    return Matrix.of(tuple(rows), ncols)


def _subspace_from_json(data, ambient_dim: int) -> Subspace:
    if not isinstance(data, list):
        raise SerializationError("subspace must be an array of basis rows")
    return canonicalize(matrix_from_json(data, len(data), ambient_dim))


def filtered_space_to_json(v: FilteredSpace) -> dict:
    return {"dim": v.dim,
            "steps": {str(w): matrix_to_json(sub.basis) for w, sub in v.steps}}


def _placed(where: str, read, *args):
    """read(*args), a ValueError or OverflowError from it a SerializationError that starts with
    where, or without a prefix for an empty where: for a constructor whose messages name their place."""
    try:
        return read(*args)
    except (ValueError, OverflowError) as exc:
        raise SerializationError(f"{where}: {exc}" if where else str(exc)) from exc


def _filtered_space(data) -> FilteredSpace:
    _object(data, ("dim", "steps"), "filtered space")
    dim = json_int(data.get("dim"), "dim", key=False)
    steps = {w: _subspace_from_json(rows, dim) for w, rows in _int_items(data.get("steps", {}), "'steps'", "weight")}
    return FilteredSpace(dim, steps)


def filtered_space_from_json(data) -> FilteredSpace:
    return _placed("bad filtered space", _filtered_space, data)


def nilpotent_from_json(data) -> NilpotentOp:
    _object(data, ("space", "matrix"), "nilpotent operator")
    space = filtered_space_from_json(data.get("space"))
    matrix = matrix_from_json(data.get("matrix"), space.dim, space.dim)
    return _placed("", NilpotentOp, space, matrix)


def graph_from_json(data) -> DualGraph:
    _object(data, ("vertices", "edges", "self"), "dual graph")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise SerializationError("'edges' must be an array of vertex pairs")
    edges = [[json_int(x, "edge end", key=False) for x in e] for e in edges]
    selfs = data.get("self")
    if selfs is not None:
        if not isinstance(selfs, list):
            raise SerializationError("'self' must be an array of integers")
        selfs = [json_int(x, "self-intersection", key=False) for x in selfs]
    graph = _placed("bad dual graph", DualGraph.make, json_int(data.get("vertices"), "vertices", key=False), edges)
    _, b1 = betti(graph)
    if max(graph.vertices, 2 * b1) > MAX_FIXTURE_DIM:
        raise SerializationError(f"dual graph too large: the fixture's nodes Q^v and Q^(2*b1) are capped at "
                                 f"dimension {MAX_FIXTURE_DIM}, got v = {graph.vertices}, 2*b1 = {2 * b1}")
    if selfs is not None:
        if len(selfs) != graph.vertices:
            raise SerializationError("bad dual graph: one self-intersection per vertex required")
        ends = Counter(v for i, j in graph.edges if i != j for v in (i, j))  # a loop meets no other curve
        if selfs != [-ends[v] for v in range(graph.vertices)]:
            raise SerializationError("fixture curve needs self-intersection minus the edges to other vertices")
    return graph


# the object that holds each arrow's family in the instance JSON (None: the top level)
_MAP_GROUP = {"b": "col", "a": "col", "c": "col", "r": "row", "s": "row", "N": None}
# the keys each object of the instance JSON may carry: its map families, and at the top level the rest
_INSTANCE_KEYS = {group: tuple(label for label, g in _MAP_GROUP.items() if g == group)
                  for group in (None, "col", "row")}
_INSTANCE_KEYS[None] += ("range", *NODES, "col", "row", "purity", "profile")


def instance_to_json(inst: CSInstance) -> dict:
    out = {"range": [inst.k_min, inst.k_max], "col": {}, "row": {}, "purity": 0}
    for node in NODES:
        out[node] = {str(k): filtered_space_to_json(v) for k, v in inst.spaces[node].items()}
    for label, group in _MAP_GROUP.items():
        (out[group] if group else out)[label] = {str(k): matrix_to_json(m) for k, m in inst.maps[label].items()}
    if inst.profile != "abstract":
        out["profile"] = inst.profile
    return out


def instance_from_json(data) -> CSInstance:
    _object(data, _INSTANCE_KEYS[None], "instance")
    bounds = data.get("range")
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise SerializationError("instance needs an integer pair under 'range'")
    k_min, k_max = (json_int(x, "range bound", key=False) for x in bounds)
    spaces = {node: {k: _placed(f"{node}_{k}", _filtered_space, v)
                     for k, v in _int_items(data.get(node, {}), f"family {node!r}", "degree")}
              for node in NODES}

    groups = {None: data, **{group: _object(data.get(group, {}), _INSTANCE_KEYS[group], repr(group))
                             for group in ("col", "row")}}
    skeleton = _placed("", CSInstance, (k_min, k_max), spaces, {})
    maps = {label: {k: _placed(f"map {label}_{k}", matrix_from_json, m, *skeleton.shape(label, k))
                    for k, m in _int_items(groups[group].get(label, {}), f"map family {label!r}", "degree")}
            for label, group in _MAP_GROUP.items()}

    profile = data.get("profile", "abstract")
    if profile not in ("abstract", "geometric"):
        raise SerializationError('profile must be "abstract" or "geometric"')
    if json_int(data.get("purity", 0), "'purity'", key=False) != 0:
        raise SerializationError("'purity' must be 0")
    return CSInstance((k_min, k_max), spaces, maps, profile=profile)


def _witness_json(witness: tuple) -> list:
    return [_ratio_str(x.numerator, x.denominator) for x in witness]


def exactness_verdict_to_json(v: Verdict) -> dict:
    return {"exact": True} if v.ok else {"exact": False, "reason": v.reason, "witness": _witness_json(v.witness)}


def strictness_verdict_to_json(v: Verdict) -> dict:
    """Schema 3's strictness entry: a failing weight, the witness, is its "failing_weight"."""
    out = {"strict": v.ok}
    if v.witness is not None:
        out["failing_weight"] = v.witness
    if v.reason is not None:
        out["reason"] = v.reason
    return out


# the "bounds" block of a hypothesis report: its key -> the category it reads
_BOUNDS = (("A", "A_bound"), ("B", "B_bound"), ("P_centering", "P_centering"))


def hypothesis_report_to_json(report: HypothesisReport) -> dict:
    def grouped(d, render):
        """{str(outer): {str(inner): render(verdict)}} of a dict keyed by (outer, inner) pairs."""
        out: Dict[str, dict] = {}
        for (outer, inner), verdict in d.items():
            out.setdefault(str(outer), {})[str(inner)] = render(verdict)
        return out

    verdicts = report.verdicts
    return {
        "clean": report.clean,
        "column": grouped(verdicts["column_exact"], exactness_verdict_to_json),
        "row": grouped(verdicts["row_exact"], exactness_verdict_to_json),
        "bounds": {key: {str(k): v.ok for k, v in verdicts[category].items()} for key, category in _BOUNDS},
        "strictness": grouped(verdicts["strictness"], strictness_verdict_to_json),
    }


def verdict_report_to_json(v: VerdictReport) -> dict:
    out = {"proposition": v.proposition, "k": v.degree, "exact": v.exact,
           "weights_used": list(v.weights_used)}
    if v.witness is not None:
        out["witness"] = _witness_json(v.witness)
    return out
