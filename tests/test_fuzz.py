"""Hostile input through the whole CLI.

One leaf or one object key of a valid document is mutated: a leaf (the
document itself is one) is replaced by a value of another type or an
out-of-place number, a key is deleted or renamed.  Or one list changes
length: an element is dropped, duplicated or appended, or the list is
cleared.  Whatever the mutation, `main` returns a documented exit code
(0, 2, 3 or 4), no exception or traceback escapes it, and stderr
names the faulty field rather than a Python internal.  The documents
are a generated instance (run through `verify` with each `--thm` and
`--prop all`), a nilpotent operator (`monodromy`) and a dual graph
(`fixture curve`).
"""

import contextlib
import copy
import io
import json
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from csverify.cli import main
from csverify.degenerations import theta_graph
from csverify.generators import GenProfile, gen_centered_mhs, gen_cs_instance
from csverify.serialize import graph_to_json, instance_to_json, nilpotent_to_json

INSTANCE = instance_to_json(gen_cs_instance(GenProfile(seed=3, max_dim_per_node=4)))
NILPOTENT = nilpotent_to_json(gen_centered_mhs(5, 4, 1)[1])
GRAPH = {**graph_to_json(theta_graph()), "self": [-3, -3]}  # mutations reach the check of "self"

DOCUMENTED_EXITS = (0, 2, 3, 4)
VERIFY_OPTIONS = (["--thm", "1"], ["--thm", "2"], ["--thm", "3"], ["--prop", "all"])

LEAVES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["", "x", "1/0", "0/0", "-1", "1/2", "-7/3", "3.5", "1e3", " 2", "0x1", "NaN"]),
    st.sampled_from([None, True, False, 0.5, float("nan"), float("inf"), [], {}, [[]], [["1"]], {"dim": 1}]),
)
# None deletes the key; a string renames it
KEYS = st.one_of(st.none(), st.integers(-3, 12).map(str),
                 st.sampled_from(["", "x", "1.5", " 0", "01", "-0", "dim", "steps", "b"]))


def mutation_sites(value, path=()):
    """("key", path) for every object key and ("leaf", path) for the document itself and for every
    scalar or empty container."""
    if not path or not (isinstance(value, (dict, list)) and value):
        yield "leaf", path
    if isinstance(value, dict):
        for key, item in value.items():
            yield "key", path + (key,)
            yield from mutation_sites(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from mutation_sites(item, path + (i,))


def mutated(doc, data) -> str:
    kind, path = data.draw(st.sampled_from(list(mutation_sites(doc))))
    if not path:  # the whole document is replaced
        return json.dumps(data.draw(LEAVES))
    doc = copy.deepcopy(doc)
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    if kind == "leaf":
        holder[path[-1]] = data.draw(LEAVES)
    else:
        item = holder.pop(path[-1])
        new_key = data.draw(KEYS)
        if new_key is not None:
            holder[new_key] = item
    return json.dumps(doc)


def list_sites(value, path=()):
    """The path of every list in the document, empty ones included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        yield path
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from list_sites(item, path + (key,))


def list_mutated(doc, data) -> str:
    doc = copy.deepcopy(doc)
    target = doc
    for step in data.draw(st.sampled_from(list(list_sites(doc)))):
        target = target[step]
    edit = data.draw(st.sampled_from(["drop", "duplicate", "append", "clear"] if target else ["append"]))
    if edit == "append":
        target.append(data.draw(LEAVES))
    elif edit == "clear":
        target.clear()
    else:
        i = data.draw(st.integers(0, len(target) - 1))
        if edit == "drop":
            del target[i]
        else:
            target.insert(i, copy.deepcopy(target[i]))
    return json.dumps(doc)


def run(args, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = saved
    text = err.getvalue()
    assert code in DOCUMENTED_EXITS, (args, stdin_text, text)
    assert "Traceback" not in text
    # the readers name the faulty field, never a Python internal such as a KeyError's bare key
    assert not any(internal in text for internal in ("object has no attribute", "is not iterable", "values to unpack"))
    assert not re.search(r": '[^']*'$", text, re.M), text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_instance(data):
    text = mutated(INSTANCE, data)
    for options in VERIFY_OPTIONS:
        run(["verify", "-", *options], text)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_nilpotent(data):
    run(["monodromy", "-", "--center", "1"], mutated(NILPOTENT, data))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_graph(data):
    run(["fixture", "curve", "--graph", "-"], mutated(GRAPH, data))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_list_mutated_documents(data):
    doc, commands = data.draw(st.sampled_from([
        (INSTANCE, [["verify", "-", *options] for options in VERIFY_OPTIONS]),
        (NILPOTENT, [["monodromy", "-", "--center", "1"]]),
        (GRAPH, [["fixture", "curve", "--graph", "-"]]),
    ]))
    text = list_mutated(doc, data)
    for args in commands:
        run(args, text)
