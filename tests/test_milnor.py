"""The `milnor` subcommand in-process: its output against a golden file,
the number of Groebner bases a run builds, and a fuzz over malformed input
with the exit-code contract (0 pass, 2 invalid input)."""

from __future__ import annotations

import contextlib
import io
from datetime import timedelta
from importlib.resources import files
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import cli, forms, groebner

GOLDEN = Path(__file__).with_name("milnor.golden.txt")
HEADER = "$ curvedchern milnor "

# the polynomials of the benchmark's milnor workload (the Brieskorn-Pham
# x^a+y^b+z^c pin the staircase of pure powers), the smooth x*y+z (mu = 0,
# the unit ideal) and a non-isolated singularity
GOLDEN_POLYS = (
    "x^2+y^3+z^5",
    "x^3+y^4+z^5",
    "x^4+y^5+z^6",
    "x^5+y^5+z^5",
    "x^5+y^6+z^7",
    "x^6+y^7+z^8",
    "x^3*y+y^3*z+z^3*x",
    "x^3+y^4+z^5+x*y^2*z",
    "x^4+y^4+z^4+x^2*y*z",
    "x^6+y^6+z^7+x^2*y^2*z^2",
    "x^3+y^4+z^6+x*y*z^2",
    "x^6+y^6+z^6+x^2*y^2*z^2",
    "x^4+y^4+z^4+x^2*y^2*z^2",
    "x^4+y^5+z^7+x^2*y*z^2",
    "x^4+y^5+z^6+x^2*y^2*z^2",
    "x^5+y^5+z^5+x^2*y^2*z^2",
    "x^4+y^6+z^7+x^2*y^2*z^2",
    "x^5+y^6+z^7+x^2*y^2*z^2",
    "x*y+z",
    "x^2*y^2+z^2",
)


def _milnor(poly: str, variables: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `curvedchern milnor poly
    --vars=variables`; an argparse usage error exits 2 as it does from the
    shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["milnor", poly, f"--vars={variables}"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_milnor_output_matches_its_golden():
    blocks = GOLDEN.read_text(encoding="utf-8").split(HEADER)[1:]
    assert [b.split(" --vars ")[0] for b in blocks] == list(GOLDEN_POLYS)
    for block in blocks:
        header, want = block.split("\n", 1)
        poly, variables = header.split(" --vars ")
        code, got, err = _milnor(poly, variables)
        assert code == 0, err
        assert got == want, poly


def _count_bases(monkeypatch) -> list:
    calls = []
    body = groebner.buchberger

    def spy(gens):
        calls.append(gens)
        return body(gens)

    for mod in (groebner, cli, forms):
        monkeypatch.setattr(mod, "buchberger", spy)
    return calls


def test_milnor_run_builds_one_basis(monkeypatch):
    calls = _count_bases(monkeypatch)
    code, out, _ = _milnor("x^3+y^4+z^5+x*y^2*z", "x,y,z")
    assert code == 0
    assert out.endswith("milnor number: 26\n")
    assert len(calls) == 1


def test_run_suite_with_milnor_builds_one_basis(monkeypatch):
    calls = _count_bases(monkeypatch)
    text = files("curvedchern.corpus").joinpath("mf_xy.json").read_text(encoding="utf-8")
    inst = cli.parse_instance(text, "mf_xy.json")
    res = cli.run_suite(inst.module, inst.connection, milnor=True)
    assert res.ok
    assert res.milnor_rep is not None
    assert len(calls) == 1


# short polynomial strings over at most three names, with malformed tokens
_TOKENS = st.sampled_from(
    ["x", "y", "z", "w", "i", "u", "d", "x1", "_", "+", "-", "−", "*", "^", "/",
     "(", ")", " ", "0", "1", "2", "3", "7", "12", "1/2", "1000", "1001", "2.5",
     "**", "^^", "x^", "^-1", "#", ""]
)
_POLYS = st.lists(_TOKENS, min_size=0, max_size=10).map("".join)
_VARS = st.one_of(
    st.sampled_from(["x,y,z", "x,y", "x", "", ",", "x,x", "x,,y", "i", "u,v", "d,x",
                     "x y", "1a", " x , y ", "x,y,z,w"]),
    st.lists(st.sampled_from(["x", "y", "z", "i", "t", ""]), max_size=3).map(",".join),
)


@settings(deadline=timedelta(seconds=2), max_examples=300)
@given(_POLYS, _VARS)
def test_milnor_fuzz_keeps_the_exit_code_contract(poly, variables):
    code, out, err = _milnor(poly, variables)
    assert code in (0, 2), (code, err)
    if code == 0:
        assert out.splitlines()[-1].startswith("milnor number: ")
