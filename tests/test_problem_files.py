"""Malformed problem files through `compute`, in-process: whatever the
file holds, the exit-code contract holds (0 pass, 2 invalid input, 3
identity failure, 4 internal failure) and nothing escapes as an
exception."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import cli

BASE = {
    "ring": {"grading": "Z2", "variables": ["x", "y"], "degrees": [0, 0]},
    "curved": {"h": "-x*y"},
    "module": {
        "degrees": [0, 1],
        "idempotent": [["1", "0"], ["0", "1"]],
        "delta": [["0", "x"], ["y", "0"]],
    },
    "connection": {"kind": "explicit", "mu": [["x*d(y)", "0"], ["0", "0"]]},
    "options": {"milnor": True, "bound": 2},
}

# strings the parser might half accept: polynomials, one-forms, keywords
_WORDS = st.sampled_from(
    ["0", "1", "x", "y", "-x*y", "x*y", "x^2", "x^1001", "i", "u", "d(x)", "x*d(y)",
     "-d(y)", "x*d(", "d(z)", "(", "x+", "1/0", "1/2", "Z", "Z2", "explicit",
     "levi-civita", "x,y", "", " ", "#", "−x", "x * d(y)", "d(x)*d(y)", "d(x)^2",
     "d( x )", "relation", "x^2-y^3", "x*y-1"]
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**70, -(2**70)]),
    st.floats(allow_nan=True, allow_infinity=True), _WORDS, st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_WORDS, inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, prefix + (k,))


@st.composite
def _malformed(draw):
    """BASE with one to three edits: a value replaced, a key dropped, or an
    unknown key added; or JSON text cut short."""
    doc = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_VALUES)
            continue
        node = doc
        for step in path[:-1]:
            node = node[step]
        last = path[-1]
        action = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if action == "drop" and isinstance(node, dict):
            del node[last]
        elif action == "add" and isinstance(node, dict):
            node[draw(_WORDS)] = draw(_VALUES)
        else:
            node[last] = draw(_VALUES)
        if not isinstance(doc, (dict, list)):
            break
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _compute(text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compute", path])
    return code, err.getvalue()


def test_the_unedited_base_file_passes():
    assert _compute(json.dumps(BASE)) == (0, "")


def test_an_options_seed_is_an_unknown_key():
    # no code reads a seed from the options block
    doc = json.loads(json.dumps(BASE))
    doc["options"]["seed"] = "x"
    assert _compute(json.dumps(doc)) == (2, "invalid input: options block: unknown key 'seed'\n")


@settings(deadline=timedelta(seconds=3), max_examples=200)
@given(_malformed())
def test_malformed_problem_files_keep_the_exit_code_contract(text):
    code, err = _compute(text)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 2:
        assert err.startswith("invalid input: "), err
