"""The command line as a user runs it: exit codes and output of a fresh
interpreter, so an uncaught exception shows up as a traceback on stderr."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from curvedchern.cli import parse_form_entry
from curvedchern.rings import GradedRing

ROOT = Path(__file__).resolve().parent.parent


def _python(*args, cwd=None):
    """A fresh interpreter run with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def _run(*args, cwd=None):
    return _python("-m", "curvedchern.cli", *args, cwd=cwd)


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main() call, so import costs nothing
    proc = _python("-c", """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def spy(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = spy
import curvedchern.cli
print(made)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", ["mf-xy", "s4-nonflat"])
def test_examples_match_their_goldens(name):
    proc = _run("examples", name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("golden: match\n")


CORPUS = ROOT / "src" / "curvedchern" / "corpus"
CORPUS_STEMS = ["mf_xy", "s4_nonflat"]


@pytest.fixture(scope="module")
def compute_json():
    """`compute --json` of each corpus file, run once for the module; the
    file is given by its name, so the `input` field is the name alone."""
    out = {}
    for stem in CORPUS_STEMS:
        proc = _run("compute", "--json", f"{stem}.json", cwd=CORPUS)
        assert proc.returncode == 0, proc.stderr
        out[stem] = json.loads(proc.stdout)
    return out


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_compute_json_matches_its_golden_apart_from_timing(compute_json, stem):
    doc = dict(compute_json[stem])
    assert sorted(doc.pop("timing")) == ["chern_via_chains", "chern_weil", "curvature", "identity_checks"]
    golden = json.loads((ROOT / "tests" / f"{stem}.json.golden").read_text(encoding="utf-8"))
    assert doc == golden


@pytest.mark.parametrize("render", ["report", "json"])
def test_a_route_mismatch_prints_each_route_its_own_terms(render):
    # equal routes share their printed lines; unequal ones must not
    from dataclasses import replace

    from curvedchern import cli

    inst = cli.parse_instance((CORPUS / "mf_xy.json").read_text(encoding="utf-8"), "mf_xy.json")
    res = cli.run_suite(inst.module, inst.connection)
    doubled = res.ch_weil + res.ch_weil
    res = replace(res, ch_chains=doubled, routes_equal=False, first_mismatch=doubled.u_powers()[0])
    want = {f"u^{J}": str(f) for J, f in doubled.coeffs.items()}
    if render == "json":
        doc = json.loads(cli.render_json(inst, res))
        assert doc["chern_chains"] == want != doc["chern_weil"]
    else:
        text = cli.render_report(inst, res, timing=False)
        chains = text.split("chern character (chain route):\n")[1].split("route agreement")[0]
        assert chains == "".join(f"  {J}: {v}\n" for J, v in sorted(want.items()))
        assert "route agreement: MISMATCH" in text


def test_examples_unknown_name_is_invalid_input():
    proc = _run("examples", "a1-ci")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


MF_XY = {
    "ring": {"variables": ["x", "y"]},
    "curved": {"h": "-x*y"},
    "module": {"degrees": [0, 1], "delta": [["0", "x"], ["y", "0"]]},
}


def _with(block: str, **changes) -> dict:
    doc = json.loads(json.dumps(MF_XY))
    doc.setdefault(block, {}).update(changes)
    return doc


SQUARE = "must be a square matrix of polynomial strings over the basis"
BOUND = "options block: bound must be a non-negative integer"


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with("ring", degrees=["a", 0]), "ring block: degrees must be integers"),
        (_with("ring", variables=[3]), "ring block: variable names must be strings"),
        (_with("module", degrees=["a", 1]), "module block: degrees must be a list of integers"),
        (_with("options", bound="z"), BOUND),
        (_with("options", bound=-1), BOUND),
        (_with("options", bound=True), BOUND),
        (_with("options", milnor=1), "options block: milnor must be true or false"),
        (
            _with("connection", kind="explicit", mu=[[3, "0"], ["0", "0"]]),
            "connection block: mu must be a square matrix of one-form strings over the basis",
        ),
        (_with("module", delta=[["0", "x"], True]), f"module block: delta {SQUARE}"),
        (_with("module", delta=["0x", "y0"]), f"module block: delta {SQUARE}"),
        (_with("module", idempotent=[["1", {}], ["0", "1"]]), f"module block: idempotent {SQUARE}"),
        (_with("ring", relation=5), "ring block: relation must be a polynomial string"),
        (_with("curved", h=["x"]), "curved block: h must be a polynomial string"),
    ],
    ids=[
        "ring-degree-not-int",
        "variable-not-string",
        "module-degree-not-int",
        "bound-not-int",
        "bound-negative",
        "bound-bool",
        "milnor-not-bool",
        "mu-entry-not-string",
        "delta-row-not-a-list",
        "delta-rows-are-strings",
        "idempotent-entry-not-string",
        "relation-not-string",
        "h-not-string",
    ],
)
def test_malformed_problem_file_exits_2_without_traceback(doc, message, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"invalid input: {message}\n"


def test_well_formed_options_are_accepted(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_with("options", bound=3, milnor=True)), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "milnor representative" in proc.stdout


SINGULAR = (
    "ring block: relation is singular: 1 is not in (f0, d(f0)/dx, d(f0)/dy), "
    "the Jacobian criterion for smoothness"
)


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("relation", ["x^2-y^3", "x^2-y^2-y^3"], ids=["cusp", "node"])
def test_a_singular_relation_exits_2_naming_the_jacobian_criterion(relation, command, tmp_path):
    # mf-xy's delta and h over a cusp or a node: the paper's smoothness
    # hypothesis fails, so the file is refused before anything is computed
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_with("ring", relation=relation)), encoding="utf-8")
    proc = _run(command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"invalid input: {SINGULAR}\n"


@pytest.mark.parametrize(
    "variables, relation",
    [(["x", "y"], "x*y-1"), (["x", "y", "z"], "x^2-1"), (["x", "y", "z"], "x^3+y^3+z^3-1")],
    ids=["xy-1", "x2-1", "fermat-cubic"],
)
def test_a_smooth_relation_is_accepted(variables, relation, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_with("ring", variables=variables, relation=relation)), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "route agreement: exact" in proc.stdout


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_problem_file_that_is_not_utf8_exits_2(command, tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(json.dumps(MF_XY).encode("utf-8").replace(b'"x"', b'"\xff"', 1))
    proc = _run(command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid input: cannot read problem file: ")
    assert "Traceback" not in proc.stderr


def test_compute_refuses_a_negative_bound_as_the_options_block_does(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(MF_XY), encoding="utf-8")
    flag = _run("compute", "--bound", "-5", str(path))
    assert flag.returncode == 2, flag.stderr
    assert flag.stderr == "invalid input: --bound: bound must be a non-negative integer\n"
    path.write_text(json.dumps(_with("options", bound=-5)), encoding="utf-8")
    block = _run("compute", str(path))
    assert block.returncode == 2, block.stderr
    assert block.stderr == "invalid input: options block: bound must be a non-negative integer\n"
    assert _run("compute", "--bound", "0", str(path)).returncode == 2  # the block still counts
    path.write_text(json.dumps(MF_XY), encoding="utf-8")
    assert _run("compute", "--bound", "0", str(path)).returncode == 0


@pytest.mark.parametrize("count", ["-3", "0"])
def test_verify_random_needs_a_positive_count(count):
    # a run that checks no instance must not report a pass
    proc = _run("verify", "--random", count, "--seed", "0")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("invalid input: ")
    assert "passed" not in proc.stdout
    assert "Traceback" not in proc.stderr


def test_verify_refuses_a_seed_without_random():
    # a file run draws nothing at random, so the seed was silently ignored
    proc = _run("verify", "mf_xy.json", "--seed", "7", cwd=CORPUS)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == "invalid input: --seed needs --random N\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("path", ["missing.json", "mf_xy.json"])
def test_verify_refuses_a_file_together_with_random(path):
    # the file was once ignored, even a missing one, and the run passed
    proc = _run("verify", path, "--random", "1", "--seed", "0", cwd=CORPUS)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == (
        "invalid input: verify takes a problem file or --random N --seed S, not both\n"
    )
    assert proc.stdout == ""


def _assert_refused_fast(proc, seconds):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid input: ")
    assert "Traceback" not in proc.stderr
    assert seconds < 5


@pytest.mark.parametrize(
    "h",
    ["(1+x)^100000", "(1+x1+x2+x3+x4+x5)^60", "(" + "9" * 100 + "*x+1)^1000"],
    ids=["huge-exponent", "many-variable-power", "huge-coefficients"],
)
def test_oversized_polynomial_exits_2_quickly(h, tmp_path):
    doc = {
        "ring": {"variables": ["x", "x1", "x2", "x3", "x4", "x5"]},
        "curved": {"h": h},
        "module": {"degrees": [0, 1], "delta": [["0", "x"], ["-x", "0"]]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.monotonic()
    proc = _run("compute", str(path))
    _assert_refused_fast(proc, time.monotonic() - t0)
    assert "above the cap" in proc.stderr or "too large" in proc.stderr


def test_milnor_with_a_huge_exponent_exits_2_quickly():
    t0 = time.monotonic()
    proc = _run("milnor", "x^100000+y^2+z^2", "--vars", "x,y,z")
    _assert_refused_fast(proc, time.monotonic() - t0)


def test_milnor_of_a_mixed_term_polynomial_runs_quickly():
    t0 = time.monotonic()
    proc = _run("milnor", "x^5+y^6+z^7+x^2*y^2*z^2", "--vars", "x,y,z")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("milnor number: 124\n")
    assert time.monotonic() - t0 < 5


def test_milnor_above_the_enumeration_cap_is_reported_as_a_cap():
    # isolated, with mu = 199^2 = 39 601 standard monomials
    proc = _run("milnor", "x^200+y^200", "--vars", "x,y")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(
        "standard monomials: more than 10000 (not listed)\n"
        "milnor number: more than 10000 (finite: isolated critical point)\n"
    )
    assert "infinite" not in proc.stdout


def test_milnor_of_a_non_isolated_polynomial_is_infinite():
    proc = _run("milnor", "x^2*y^2+z^2", "--vars", "x,y,z")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("milnor number: infinite (non-isolated critical locus)\n")


@pytest.mark.parametrize(
    "args",
    [("-x^2+y^2", "--vars", "x,y"), ("--vars", "x,y", "-x^2+y^2")],
    ids=["poly-first", "vars-first"],
)
def test_milnor_polynomial_starting_with_minus_names_the_double_dash_form(args):
    proc = _run("milnor", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "goes after '--'" in proc.stderr
    assert 'milnor --vars x,y -- "-x^2+y^2"' in proc.stderr
    works = _run("milnor", "--vars", "x,y", "--", "-x^2+y^2")
    assert works.returncode == 0, works.stderr
    assert works.stdout.endswith("milnor number: 1\n")


@pytest.mark.parametrize(
    "poly",
    ["(" * 250 + "x" + ")" * 250 + "^2+y^2", "-" * 1000 + "x^2+y^2"],
    ids=["parentheses", "unary-minus"],
)
def test_milnor_of_a_deeply_nested_polynomial_exits_2(poly):
    proc = _run("milnor", "--vars", "x,y", "--", poly)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid input: polynomial nests")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps(_with("curved", h="(" * 400 + "-x*y" + ")" * 400)),
            "invalid input: curved block: h: polynomial nests",
        ),
        ("[" * 100_000 + "]" * 100_000, "invalid input: problem file is not valid JSON: "),
        (
            '{"ring": {"variables": ["x", "y"]}, "options": {"bound": ' + "9" * 5000 + "}}",
            "invalid input: problem file is not valid JSON: ",
        ),
    ],
    ids=["nested-curvature", "nested-arrays", "huge-integer"],
)
def test_problem_file_that_overflows_a_parser_exits_2(text, message, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


# over Q[x,y]/(xy - 1), the remainder of x^1000*y^1000 takes a thousand
# division steps: in delta^2 of the first file and in h of the second
@pytest.mark.parametrize(
    "h, delta, code, out",
    [
        ("-1", [["0", "x^1000"], ["y^1000", "0"]], 0, "route agreement: exact"),
        ("x^1000*y^1000", [["0", "1"], ["0", "0"]], 2, "invalid input: module block: delta^2 != -h"),
    ],
    ids=["delta", "h"],
)
def test_a_remainder_of_a_thousand_steps_is_computed(h, delta, code, out, tmp_path):
    doc = {
        "ring": {"variables": ["x", "y"], "relation": "x*y-1"},
        "curved": {"h": h},
        "module": {"degrees": [0, 1], "delta": delta},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == code, proc.stderr
    assert out in (proc.stdout if code == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr


def _tensored_factorizations(c: str) -> dict:
    """[[0, c·x1], [c·y1, 0]] tensored with [[0, c·x2], [c·y2, 0]] over
    Z2-graded x1, y1, x2, y2: ch = c^4·dx1 dy1 dx2 dy2."""
    c2 = str(int(c) ** 2)
    return {
        "ring": {"variables": ["x1", "y1", "x2", "y2"]},
        "curved": {"h": f"-{c2}*x1*y1 - {c2}*x2*y2"},
        "module": {
            "degrees": [0, 1, 1, 2],
            "delta": [
                ["0", f"{c}*x2", f"{c}*x1", "0"],
                [f"{c}*y2", "0", "0", f"{c}*x1"],
                [f"{c}*y1", "0", "0", f"-{c}*x2"],
                ["0", f"{c}*y1", f"-{c}*y2", "0"],
            ],
        },
    }


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["report", "json"])
def test_a_coefficient_past_the_digit_limit_is_printed_exactly(json_flag, tmp_path):
    # every input integer has 1 101 or 2 201 digits; ch has 4 401, more
    # than the interpreter converts to text by default
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_tensored_factorizations("1" + "0" * 1100)), encoding="utf-8")
    proc = _run("compute", *json_flag, str(path))
    assert proc.returncode == 0, proc.stderr
    ch = "1" + "0" * 4400 + "*d(x1) d(y1) d(x2) d(y2)"
    if json_flag:
        doc = json.loads(proc.stdout)
        assert doc["chern_weil"] == doc["chern_chains"] == {"u^0": ch}
    else:
        assert proc.stdout.count(f"  u^0: {ch}\n") == 2


@pytest.mark.parametrize(
    "mu, code, out",
    [
        ("x*d(y) + y*d(x)", 0, "u^0: d(x) d(y)\n"),
        ("x*d(y)+y*d(x)", 0, "u^0: d(x) d(y)\n"),
        ("(x-1)*d(y)", 0, "u^0: (x*y - y + 1)*d(x) d(y)\n"),
        ("x-1*d(y)", 2, "invalid input: connection block: mu[0][0]: 'x-1*d(y)' is not a one-form"),
    ],
    ids=["spaced", "unspaced", "parenthesized", "binary-minus"],
)
def test_one_form_terms_split_at_every_binary_sign(mu, code, out, tmp_path):
    path = tmp_path / "problem.json"
    doc = _with("connection", kind="explicit", mu=[[mu, "0"], ["0", "0"]])
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == code, proc.stderr
    assert out in (proc.stdout if code == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr


def _explicit(mu: str) -> dict:
    return _with("connection", kind="explicit", mu=[[mu, "0"], ["0", "0"]])


# spellings the polynomial grammar reads, each beside its canonical spelling
SPELLINGS = [
    ("x * d(y)", "x*d(y)"),
    ("2 * d(x)", "2*d(x)"),
    ("- d(x)", "-d(x)"),
    ("x*d( y )", "x*d(y)"),
    ("d(x)*y", "y*d(x)"),
    ("(x*d(y))", "x*d(y)"),
    ("x*d(y)*2", "2*x*d(y)"),
    ("x*d(y) \u2212 y*d(x)", "x*d(y) - y*d(x)"),
    ("x\u22c5d(y)", "x*d(y)"),
]


@pytest.mark.parametrize(
    "spelling, canonical",
    SPELLINGS,
    ids=[
        "spaced-product", "spaced-scalar", "spaced-sign", "spaced-argument", "d-first",
        "parenthesized", "trailing-factor", "unicode-minus", "dot-operator",
    ],
)
def test_one_form_entries_read_every_spelling_of_the_polynomial_grammar(spelling, canonical, tmp_path):
    ring = GradedRing(("x", "y"), (0, 0), grading="Z2")
    assert parse_form_entry(ring, spelling) == parse_form_entry(ring, canonical)
    ch = []
    for k, mu in enumerate((spelling, canonical)):
        path = tmp_path / f"problem{k}.json"
        path.write_text(json.dumps(_explicit(mu)), encoding="utf-8")
        proc = _run("compute", "--json", str(path))
        assert proc.returncode == 0, proc.stderr
        ch.append(json.loads(proc.stdout)["chern_weil"])
    assert ch[0] == ch[1]


@pytest.mark.parametrize(
    "doc, message",
    [
        (_explicit("x"), "connection block: mu[0][0]: 'x' is not a one-form"),
        (_explicit("d(x)*d(y)"), "connection block: mu[0][0]: a product of two d(...) factors is not a one-form"),
        (_explicit("d(x)^2"), "connection block: mu[0][0]: '^' takes no d(...) base"),
        (_explicit("x/d(y)"), "connection block: mu[0][0]: '/' only divides by nonzero scalars"),
        (_explicit("d(z)"), "connection block: mu[0][0]: unknown variable 'z'"),
        (_explicit(""), "connection block: mu[0][0]: empty polynomial string"),
        (_explicit(" "), "connection block: mu[0][0]: empty polynomial string"),
        (_with("curved", h="x*d(y)"), "curved block: h: 'x*d(y)' is not a polynomial"),
        (_with("ring", relation="d(x)"), "ring block: relation: 'd(x)' is not a polynomial"),
        (_with("module", delta=[["0", "d(x)"], ["y", "0"]]), "module block: delta[0][1]: 'd(x)' is not a polynomial"),
        (_with("module", idempotent=[["1", "0"], ["0", "z"]]), "module block: idempotent[1][1]: unknown variable 'z'"),
        (
            _with("connection", kind="explicit", mu=[["0", "0"], ["d(x", "0"]]),
            "connection block: mu[1][0]: d(...) takes one variable name",
        ),
        (_with("ring", relation="z-1"), "ring block: relation: unknown variable 'z'"),
    ],
    ids=[
        "mu-zero-form", "mu-two-d-factors", "mu-power-of-d", "mu-divided-by-d", "mu-unknown-variable",
        "mu-empty", "mu-blank", "h-one-form", "relation-one-form", "delta-one-form",
        "idempotent-unknown-variable", "mu-unclosed-d", "relation-unknown-variable",
    ],
)
def test_an_entry_the_grammar_refuses_exits_2_without_traceback(doc, message, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _run("compute", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"invalid input: {message}")
    assert "Traceback" not in proc.stderr


def test_milnor_refuses_a_one_form():
    proc = _run("milnor", "d(x)", "--vars", "x,y")
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid input: 'd(x)' is not a polynomial")
    assert "Traceback" not in proc.stderr
