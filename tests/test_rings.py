from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import rings
from curvedchern.cli import parse_form_entry
from curvedchern.forms import DiffForm
from curvedchern.errors import Inhomogeneous, InvalidInput
from curvedchern.rings import GradedRing, RingElement, _divides
from curvedchern.scalars import Scalar

from util import NO_EXPLAIN, qi_ring, reference_reduce, sphere_ring


def _random_poly(ring, seed_terms):
    # seed_terms: list of (exponent tuple, small int coeff)
    p = ring.zero()
    for exps, c in seed_terms:
        exps = tuple(e % 3 for e in exps)[: ring.nvars]
        exps = exps + (0,) * (ring.nvars - len(exps))
        p = p + ring.element({exps: Scalar(c)})
    return p


def test_parser_round_trip():
    R = qi_ring("x", "y")
    p = R.from_string("(1-x)^2*(x*y+2) - 3/2*y + i*x")
    assert p == R.from_string(str(p))


def test_parser_unicode_minus_and_unary():
    R = qi_ring("x")
    assert R.from_string("−2*x") == R.from_string("-2*x")
    assert R.from_string("-(x-1)") == R.from_string("1-x")


def test_parser_rejects_garbage():
    R = qi_ring("x")
    for bad in ["x +", "(x", "x^y", "x$", "", "x/y"]:
        with pytest.raises(InvalidInput):
            R.from_string(bad)


def test_reserved_names_rejected():
    with pytest.raises(InvalidInput):
        GradedRing(["i"], [0], grading="Z2")
    with pytest.raises(InvalidInput):
        GradedRing(["u"], [0], grading="Z2")


def test_odd_ring_degree_rejected():
    with pytest.raises(InvalidInput):
        GradedRing(["x"], [1], grading="Z")


def test_gamma_degree_weighted():
    R = GradedRing(["x", "T"], [0, 2], grading="Z")
    assert R.from_string("x^5*T^3").gamma_degree() == 6
    with pytest.raises(Inhomogeneous):
        R.from_string("x^2+T").gamma_degree()


def test_z2_everything_is_even():
    R = sphere_ring(3)
    assert R.from_string("x1*x2+x3+1").gamma_degree() == 0


def test_relation_normal_form_sphere():
    R = sphere_ring(3)
    # x1^2 reduces to 1 - x2^2 - x3^2 (leading monomial of the relation is x1^2)
    assert R.from_string("x1^2") == R.from_string("1-x2^2-x3^2")
    assert R.from_string("x1^2+x2^2+x3^2-1").is_zero()
    # normal form is canonical: equal elements have equal term dicts
    a = R.from_string("x1^3")
    b = R.from_string("x1*(1-x2^2-x3^2)")
    assert a == b and a.terms == b.terms


def test_relation_must_be_degree_zero():
    with pytest.raises(InvalidInput):
        GradedRing(["x", "T"], [0, 2], grading="Z", relation="T-1")


def test_derivative_on_representatives():
    R = qi_ring("x", "y")
    p = R.from_string("x^3*y - 2*x")
    assert p.derivative("x") == R.from_string("3*x^2*y - 2")
    assert p.derivative("y") == R.from_string("x^3")


def test_named_entry_points():
    R = qi_ring("x")
    p = R.from_string("x^2-1")
    assert p * p == R.from_string("(x^2-1)^2")
    assert R.element({(1,): Scalar(2)}) == R.from_string("2*x")


@pytest.mark.parametrize(
    "relation, printed",
    [
        (None, ["x", "y", "z"]),
        ("x^2+y^2+z^2-1", ["x", "y", "z"]),
        # leads x*y and z^2: no lead divides a variable
        ("z-x*y", ["x", "y", "z"]),
        ("z^2-x", ["x", "y", "z"]),
        # the lead x is a variable, which the relation reduces
        ("x+y-1", ["-y + 1", "y", "z"]),
    ],
)
def test_variables_are_their_normal_forms(relation, printed):
    R = GradedRing(["x", "y", "z"], [0, 0, 0], grading="Z2", relation=relation)
    for name, want in zip(R.variables, printed):
        x = R.var(name)
        assert str(x) == want
        # the same canonical value the normal form of the monomial gives
        assert x.key() == R.element({tuple(int(v == name) for v in R.variables): Scalar(1)}).key()


small_ints = st.integers(min_value=-4, max_value=4)
term_lists = st.lists(
    st.tuples(st.tuples(small_ints, small_ints), small_ints), max_size=5
)


@given(term_lists, term_lists)
def test_mul_commutes_with_relation_nf(ta, tb):
    # multiplying then reducing equals reducing then multiplying
    R = GradedRing(["x", "y"], [0, 0], grading="Z2", relation="x^2+y^2-1")
    F = GradedRing(["x", "y"], [0, 0], grading="Z2")
    a, b = _random_poly(F, ta), _random_poly(F, tb)
    image = lambda p: R.element(dict(p.terms))  # noqa: E731
    assert image(a * b) == image(a) * image(b)


# the last three relations have a lead of two variables, so a monomial
# reduces in several steps: x*y-x-y branches and meets again, and the last
# has a Gaussian leading coefficient
_NF_RINGS = (
    sphere_ring(3),
    qi_ring("x", "y", relation="x^2+y^2-1"),
    qi_ring("x", "y", relation="x*y-1"),
    qi_ring("x", "y", relation="x*y-x-y"),
    qi_ring("x", "y", relation="(1+2*i)*x*y-x+3"),
)
_FREE_RINGS = (qi_ring("x1", "x2", "x3"), *[qi_ring("x", "y")] * 4)
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_nf_coeffs = st.one_of(
    st.just(Scalar(0)), st.builds(Scalar, _fractions), st.builds(Scalar, _fractions, _fractions)
)


@given(st.integers(0, len(_NF_RINGS) - 1), st.data())
def test_relation_nf_matches_division_and_forms_nothing_when_reduced(which, data):
    # exponents up to 6 make a reduction produce monomials that reduce again
    R, F = _NF_RINGS[which], _FREE_RINGS[which]
    monos = st.tuples(*[st.integers(0, 6)] * R.nvars)
    terms = data.draw(st.dictionaries(monos, _nf_coeffs, max_size=6))
    nonzero = {m: c for m, c in terms.items() if not c.is_zero()}
    # division over the free ring, by the relation as a free element
    expected = reference_reduce(F.element(nonzero), [F.element(R.relation.terms)])
    calls = []
    real = rings._reduce_full
    rings._reduce_full = lambda *args: calls.append(1) or real(*args)
    try:
        got = R.element(terms)
        free = F.element(terms)
    finally:
        rings._reduce_full = real
    assert got.terms == expected.terms
    assert free.terms == nonzero
    lead = R.relation.leading_term()[0]
    assert len(calls) == any(_divides(lead, m) for m in nonzero)


def test_a_remainder_of_a_thousand_division_steps_is_computed():
    # x^k*y^k is x^(k-1)*y^(k-1) after one step, each a new monomial
    R = qi_ring("x", "y", relation="x*y-1")
    assert R.from_string("x^1000") * R.from_string("y^1000") == R.one()


@given(term_lists, term_lists, term_lists)
def test_ring_laws(ta, tb, tc):
    R = qi_ring("x", "y")
    a, b, c = (_random_poly(R, t) for t in (ta, tb, tc))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(term_lists)
def test_leibniz_relation_free(ta):
    R = qi_ring("x", "y")
    a = _random_poly(R, ta)
    b = R.from_string("x*y+1")
    lhs = (a * b).derivative("x")
    rhs = a.derivative("x") * b + a * b.derivative("x")
    assert lhs == rhs


class _ScalarSpy:
    """Counts the Scalars built, through the constructor, the raw
    constructor or a negation, while the with-block runs."""

    def __enter__(self):
        self.built = []
        self.plain = {name: Scalar.__dict__[name] for name in ("__init__", "_raw", "__neg__")}
        init, raw, neg = (getattr(Scalar, name) for name in self.plain)
        Scalar.__init__ = lambda c, *args: self.built.append("__init__") or init(c, *args)
        Scalar._raw = staticmethod(lambda *args: self.built.append("_raw") or raw(*args))
        Scalar.__neg__ = lambda c: self.built.append("__neg__") or neg(c)
        return self

    def __exit__(self, *exc):
        for name, fn in self.plain.items():
            setattr(Scalar, name, fn)


@given(term_lists, term_lists)
def test_subtraction_builds_no_scalar(ta, tb):
    R = qi_ring("x", "y")
    a, b = _random_poly(R, ta), _random_poly(R, tb)
    with _ScalarSpy() as spy:
        diff = a - b
    assert spy.built == []
    assert diff == a + b * R.from_string("-1")
    assert diff + b == a
    assert (a - a).is_zero() and not (a - a).terms


def test_arithmetic_on_a_quotient_ring_builds_no_scalar():
    from curvedchern.forms import DiffForm, USeries

    # a fresh ring, so the products meet remainders not yet cached
    R = sphere_ring(3)
    p, q = R.from_string("x1^3*x2 - i*x2/3 + 2"), R.from_string("x1*x3^2/2 + x1 - 5*i")
    c = q.scalar_part()
    f = DiffForm(R, {(0,): p, (1, 2): q})
    g = DiffForm(R, {(2,): q, (): p})
    v = USeries(R, {0: f, 2: g})
    with _ScalarSpy() as spy:
        got = [p * q, p + q, p - q, -p, p.scale(c), f.wedge(g), f + g, v.coefficient(2)]
    assert spy.built == []
    # the same values from the Scalar terms
    free = [R.element(x.terms) for x in (p, q)]
    assert got[:5] == [free[0] * free[1], free[0] + free[1], free[0] - free[1], -free[0], free[0].scale(c)]
    assert got[5].parts == {(0,): p * p, (0, 2): p * q, (1, 2): q * p}
    assert got[6].parts == {(): p, (0,): p, (1, 2): q, (2,): q}
    assert got[7] == g


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("-(", ")")])
def test_parser_nesting_is_capped(opening, closing):
    R = qi_ring("x")
    depth = rings.MAX_NESTING // len(opening)
    nested = opening * depth + "x" + closing * depth
    assert R.from_string(nested) == R.from_string("x" if "-" not in opening or depth % 2 == 0 else "-x")
    with pytest.raises(InvalidInput, match="nests"):
        R.from_string(opening + nested + closing)


@pytest.mark.parametrize("text", ["d", "d(1)", "d(x", "d()", "2*d + x", "d(x+y)"])
def test_d_takes_one_variable_name(text):
    with pytest.raises(InvalidInput, match=r"d\(\.\.\.\) takes one variable name"):
        qi_ring("x", "y").from_string(text)


def test_a_normal_form_past_the_term_cap_is_refused_quickly():
    # on the 4-sphere x1^(2k) reduces to (1 - x2^2 - ... - x5^2)^k, with
    # C(k + 4, 4) terms: 1 001 for k = 10, 46 376 for k = 30
    R = sphere_ring(5)
    assert len(R.from_string("x1^20").rows) == 1001
    t0 = time.monotonic()
    with pytest.raises(InvalidInput, match="polynomial too large: a normal form could add more than"):
        R.from_string("x1^60")
    assert time.monotonic() - t0 < 1


def test_the_term_cap_counts_only_what_the_division_adds():
    # x·(1 + y + ... + y^100) times x·(1 + z + ... + z^100) has 10 201
    # terms x^2·y^i·z^j, each of which x^2 - 1 divides into y^i·z^j: the
    # division replaces every term and adds none beyond the sum it divides
    R = qi_ring("x", "y", "z", relation="x^2 - 1")
    p = R.from_string("x*(" + " + ".join(f"y^{i}" for i in range(101)) + ")")
    q = R.from_string("x*(" + " + ".join(f"z^{j}" for j in range(101)) + ")")
    assert (p * q).terms == {(0, i, j): Scalar(1) for i in range(101) for j in range(101)}


# -- the reader against term lists: one value, many spellings ----------------

_ORACLE_RINGS = (qi_ring("x", "y", "z"), sphere_ring(3))
_oracle_coeffs = st.builds(Scalar, _fractions, _fractions).filter(lambda c: not c.is_zero())


def _spell(ring: GradedRing, terms: dict, rnd) -> str:
    """terms {(dx index or None, monomial): Scalar} as one of the spellings
    the grammar reads: factors shuffled, x^2 as x*x or not, binary or unary
    minus, '/' denominators anywhere after the first factor, the printer's
    parenthesised complex coefficients, a coefficient as a product or a
    quotient of two Gaussian numbers, a term added and taken away again,
    spaces, '−' and '⋅'."""
    pieces = []  # (sign, factors, divisor or None)
    for (v, m), c in terms.items():
        variables = []
        for name, e in zip(ring.variables, m):
            if e > 1 and rnd.random() < 0.5:  # x^2 as x*x
                variables += [name] * e
            elif e:
                variables.append(name if e == 1 else f"{name}^{e}")
        dx = [] if v is None else [f"d({ring.variables[v]})"]
        g = Scalar(Fraction(rnd.choice([-3, -1, 1, 2]), rnd.choice([1, 2])), rnd.choice([-1, 0, 1]))
        way = rnd.choice(["parts", "parts", "printed", "product", "quotient"])
        if way == "printed" and c.re and c.im:
            pieces.append((1, [f"({c})", *variables, *dx], None))
        elif way == "product":
            pieces.append((1, [f"({c * g.inv()})", f"({g})", *variables, *dx], None))
        elif way == "quotient":
            pieces.append((1, [f"({c * g})", *variables, *dx], f"({g})"))
        else:  # the real and the imaginary part, each over its denominator
            for part, unit in ((c.re, []), (c.im, ["i"])):
                if part:
                    one = part.numerator in (1, -1) and (unit or variables or dx) and rnd.random() < 0.7
                    numerator = [] if one else [str(abs(part.numerator))]
                    den = str(part.denominator) if part.denominator != 1 else None
                    pieces.append((1 if part > 0 else -1, [*numerator, *unit, *variables, *dx], den))
        if rnd.random() < 0.2:  # a term that cancels, of a monomial no other term has
            seven = f"{ring.variables[-1]}^7"
            pieces += [(1, [seven, "3", *dx], None), (-1, [*dx, "3", seven], None)]
    rnd.shuffle(pieces)
    text = ""
    for sign, factors, divisor in pieces:
        rnd.shuffle(factors)
        sep = rnd.choice(["*", " * ", "⋅"])
        if divisor is not None:
            k = rnd.randint(1, len(factors))
            factors = [sep.join(factors[:k]) + f"/{divisor}", *factors[k:]]
        body = sep.join(factors)
        if not text:
            text = body if sign > 0 else rnd.choice(["-", "- ", "−"]) + body
        elif sign > 0:
            text += rnd.choice([" + ", "+"]) + body
        else:
            text += rnd.choice([" - ", "-", " + -", "+ − ", " − "]) + body
    return text or "0"


# The polynomial, printer and one-form checks are three tests, each drawing
# only what it reads, so a failure of one shrinks in seconds.  A seed, not
# st.randoms(), picks the spelling, for the same reason, and the tests skip
# the explain phase (NO_EXPLAIN).  Both oracle rings have three variables.
_SEEDS = st.integers(0, 2**32 - 1)
_MONOS = st.tuples(*[st.integers(0, 3)] * 3)
_TERMS = st.dictionaries(_MONOS, _oracle_coeffs, max_size=5)
# one-form terms, each carrying one d(var): keyed (variable index, monomial)
_KEYED = st.dictionaries(st.tuples(st.integers(0, 2), _MONOS), _oracle_coeffs, max_size=5)


@settings(deadline=None, max_examples=150, phases=NO_EXPLAIN)
@given(st.sampled_from(_ORACLE_RINGS), _TERMS, _SEEDS)
def test_every_spelling_reads_as_the_term_list(R, terms, seed):
    spelled = _spell(R, {(None, m): c for m, c in terms.items()}, random.Random(seed))
    assert R.from_string(spelled) == R.element(terms)


@settings(deadline=None, max_examples=150, phases=NO_EXPLAIN)
@given(st.sampled_from(_ORACLE_RINGS), _TERMS)
def test_the_printed_polynomial_reads_back(R, terms):
    p = R.element(terms)
    assert R.from_string(str(p)) == p


@settings(deadline=None, max_examples=150, phases=NO_EXPLAIN)
@given(st.sampled_from(_ORACLE_RINGS), _KEYED, _SEEDS)
def test_every_one_form_spelling_reads_as_the_term_list(R, keyed, seed):
    parts = {(v,): R.element({m: c for (w, m), c in keyed.items() if w == v}) for v in range(R.nvars)}
    assert parse_form_entry(R, _spell(R, keyed, random.Random(seed))) == DiffForm(R, parts)
