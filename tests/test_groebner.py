from __future__ import annotations

import signal
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedchern import groebner
from curvedchern.errors import EmptyIdeal, InvalidInput, ZeroJacobianIdeal
from curvedchern.groebner import (
    STANDARD_MONOMIAL_CAP,
    Capped,
    Infinite,
    buchberger,
    ideal_nf,
    jacobian_ideal,
    standard_monomials,
)
from curvedchern.rings import _divides, _Glex, monomial_key
from curvedchern.scalars import ONE, Scalar

from util import (
    NO_EXPLAIN,
    brute_force_in_ideal,
    monomials_up_to,
    qi_ring,
    reference_buchberger,
    reference_reduce,
    reference_spoly,
    reference_standard_monomials,
    sphere_ring,
)


def _gb(ring, *polys):
    return buchberger([ring.from_string(s) for s in polys])


def test_single_generator_is_its_own_basis():
    R = qi_ring("x", "y")
    G = _gb(R, "x^2+y")
    assert [str(g) for g in G.elements] == ["x^2 + y"]


def test_classic_pair():
    # lex-free classic: <x^2-y, x*y-1>; graded lex still finds the triangle
    R = qi_ring("x", "y")
    G = _gb(R, "x^2-y", "x*y-1")
    nf = ideal_nf(R.from_string("x^4"), G)
    # x^4 = y^2 mod the ideal and y^2 = x mod the ideal
    assert nf == ideal_nf(R.from_string("x"), G)


def test_unit_ideal_detected():
    R = qi_ring("x", "y", "z")
    G = _gb(R, "y", "x", "1+z-z")  # contains the unit 1
    assert G.contains_unit()
    assert standard_monomials(G) == []


def test_empty_ideal_raises():
    R = qi_ring("x")
    with pytest.raises(EmptyIdeal):
        buchberger([R.zero()])


def test_relation_ring_rejected():
    R = sphere_ring(2)
    with pytest.raises(InvalidInput):
        buchberger([R.from_string("x1")])


def test_standard_monomials_of_isolated_point():
    R = qi_ring("x", "y")
    G = _gb(R, "3*x^2", "3*y^2")
    sm = standard_monomials(G)
    assert sm == sorted([(0, 0), (1, 0), (0, 1), (1, 1)], key=monomial_key)


def test_non_isolated_reports_witness_variable():
    R = qi_ring("x", "y")
    G = _gb(R, "x^2")
    sm = standard_monomials(G)
    assert isinstance(sm, Infinite)
    assert "y" in sm.reason


# The Milnor number is the count of standard monomials of the Jacobian
# ideal's basis, as the milnor subcommand reads it.


def test_milnor_numbers_pinned():
    R = qi_ring("x", "y")
    for poly, mu in (("x^2+y^2", 1), ("x^3+y^2", 2), ("x^3+y^3", 4)):
        sm = standard_monomials(buchberger(jacobian_ideal(R.from_string(poly))))
        assert len(sm) == mu


def test_milnor_smooth_is_zero():
    R = qi_ring("x", "y", "z")
    assert standard_monomials(buchberger(jacobian_ideal(R.from_string("x*y+z")))) == []


def test_milnor_constant_raises():
    R = qi_ring("x")
    with pytest.raises(ZeroJacobianIdeal):
        jacobian_ideal(R.from_string("7"))


def test_milnor_non_isolated_infinite():
    R = qi_ring("x", "y")
    sm = standard_monomials(buchberger(jacobian_ideal(R.from_string("x^2"))))
    assert isinstance(sm, Infinite)


def test_milnor_above_the_cap_is_capped_not_infinite():
    R = qi_ring("x", "y")
    got = standard_monomials(buchberger(jacobian_ideal(R.from_string("x^200+y^200"))))
    assert got == Capped(STANDARD_MONOMIAL_CAP)


def _brute_force_milnor(f, degree):
    """Independent oracle: count monomials outside the Jacobian ideal by
    exact linear algebra, with a saturation check at the top degree."""
    ring = f.ring
    gens = [f.derivative(v) for v in ring.variables]
    gens = [g for g in gens if not g.is_zero()]
    outside = []
    for m in monomials_up_to(ring, degree):
        p = ring.element({m: ONE})
        if not brute_force_in_ideal(p, gens, degree):
            outside.append(m)
    # saturation: every top-degree monomial must already be inside,
    # otherwise the bound was too small to certify a finite count
    assert all(sum(m) < degree for m in outside)
    return len(outside)


@pytest.mark.parametrize(
    "poly,expected",
    [("x^2+y^2", 1), ("x^3+y^2", 2), ("x^3+y^3", 4)],
)
def test_milnor_vs_brute_force(poly, expected):
    R = qi_ring("x", "y")
    f = R.from_string(poly)
    sm = standard_monomials(buchberger(jacobian_ideal(f)))
    assert len(sm) == expected == _brute_force_milnor(f, 5)


@settings(deadline=None, max_examples=25, phases=NO_EXPLAIN)
@given(
    st.lists(
        st.sampled_from(
            ["x^2", "y^2", "x*y", "x^2+y", "x+y", "x^3-y", "x*y-1", "y^3+x"]
        ),
        min_size=1,
        max_size=3,
    )
)
def test_nf_is_zero_exactly_on_members(gen_strings):
    R = qi_ring("x", "y")
    gens = [R.from_string(s) for s in gen_strings]
    G = buchberger(gens)
    # every generator reduces to zero
    for g in gens:
        assert ideal_nf(g, G).is_zero()
    # normal form is idempotent and linear
    p = R.from_string("x^2*y - 3*x + 1")
    q = R.from_string("y^2 + 2")
    assert ideal_nf(ideal_nf(p, G), G) == ideal_nf(p, G)
    assert ideal_nf(p + q, G) == ideal_nf(p, G) + ideal_nf(q, G)


@settings(deadline=None, max_examples=15, phases=NO_EXPLAIN)
@given(
    st.sampled_from(["x^2+y^2", "x^3+y^2", "x^2+x*y+y^2", "x^4+y^2"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_membership_against_linear_algebra(fs, a, b):
    R = qi_ring("x", "y")
    f = R.from_string(fs)
    gens = [f.derivative("x"), f.derivative("y")]
    G = buchberger(gens)
    m = R.element({(a, b): ONE})
    assert ideal_nf(m, G).is_zero() == brute_force_in_ideal(m, gens, 6)


# -- Buchberger against its definition and against the seed's algorithm ----


def _assert_reduced_basis_of(G, gens):
    """G is the reduced Groebner basis of gens: the generators reduce to
    zero, every S-pair reduces to zero by plain division (Buchberger's
    criterion), and the basis is monic, reduced and sorted."""
    for g in gens:
        assert ideal_nf(g, G).is_zero()
    for f, g in combinations(G.elements, 2):
        assert reference_reduce(reference_spoly(f, g), G.elements).is_zero()
    lms = G.leading_monomials()
    assert lms == sorted(lms, key=monomial_key)
    for k, g in enumerate(G.elements):
        assert g.leading_term()[1] == ONE
        for m in g.terms:
            assert not any(_divides(lm, m) for j, lm in enumerate(lms) if j != k)


_COEFFS = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 2)]),
).filter(lambda c: not c.is_zero())


def _polys(nvars, top):
    mono = st.tuples(*[st.integers(0, top)] * nvars)
    return st.dictionaries(mono, _COEFFS, min_size=1, max_size=4)


@st.composite
def _ideals(draw, nvars=None, top=None):
    nvars = nvars or draw(st.sampled_from([2, 3]))
    top = top or draw(st.integers(1, 3 if nvars == 2 else 2))
    ring = qi_ring(*("x", "y", "z")[:nvars])
    return [ring.element(t) for t in draw(st.lists(_polys(nvars, top), min_size=1, max_size=3))]


@settings(deadline=None, max_examples=60, phases=NO_EXPLAIN)
@given(_ideals())
def test_buchberger_gives_the_reduced_basis(gens):
    _assert_reduced_basis_of(buchberger(gens), gens)


def _within(seconds, fn, *args):
    """fn(*args), or None when it runs longer than seconds (main thread)."""

    def stop(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except TimeoutError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# The reduced basis is unique, so the seed's algorithm must give the same
# elements.  It has heavy tails even on small ideals (one 2-variable ideal
# of three generators with exponents <= 3 took it 184 s), so an example
# counts only when the reference finishes within a quarter second.
@settings(deadline=None, max_examples=40, phases=NO_EXPLAIN)
@given(_ideals(nvars=2, top=3))
def test_buchberger_matches_the_seed_algorithm(gens):
    want = _within(0.25, reference_buchberger, gens)
    assume(want is not None)
    assert buchberger(gens).elements == want.elements


def test_pinned_ideal_the_plain_algorithm_could_not_finish():
    R = qi_ring("x", "y", "z")
    gens = [
        R.from_string(s)
        for s in (
            "(1/2)*z - x^2*z^2 + (1/2)*x + (1/2)*x*y^2*z^2",
            "x*y^2*z^2 + (2+i)*y*z + i*x^2*y^2*z",
            "-3*x^2*y^2*z - 3*x^2*z^2 - y*z^2 - x*y*z^2",
        )
    ]
    t0 = time.monotonic()
    G = buchberger(gens)
    assert time.monotonic() - t0 < 5
    _assert_reduced_basis_of(G, gens)
    assert len(G.elements) == 14


# -- the staircase walk against a box enumeration ---------------------------


def _assert_staircase(G):
    want = reference_standard_monomials(G)
    got = standard_monomials(G)
    if isinstance(want, str):
        assert got == Infinite(f"no pure power of {want} in the leading ideal")
    elif len(want) > STANDARD_MONOMIAL_CAP:
        assert got == Capped(STANDARD_MONOMIAL_CAP)
    else:
        assert got == want


@st.composite
def _staircase_ideals(draw):
    """Ideals in 1-3 variables: a few random generators, for most variables
    a pure power plus a random tail (a variable without one often leaves
    the quotient infinite), and now and then the unit."""
    nvars = draw(st.integers(1, 3))
    ring = qi_ring(*("x", "y", "z")[:nvars])
    gens = [ring.element(t) for t in draw(st.lists(_polys(nvars, 3 if nvars < 3 else 2), max_size=2))]
    for v in range(nvars):
        if draw(st.integers(0, 4)):
            power = ring.element({tuple(draw(st.integers(1, 6)) if w == v else 0 for w in range(nvars)): ONE})
            gens.append(power + ring.element(draw(_polys(nvars, 1))))
    if draw(st.integers(0, 9)) == 0:
        gens.append(ring.one())
    assume(any(not g.is_zero() for g in gens))
    return gens


@settings(deadline=None, max_examples=100, phases=NO_EXPLAIN)
@given(_staircase_ideals())
def test_standard_monomials_match_the_box_enumeration(gens):
    _assert_staircase(buchberger(gens))


@pytest.mark.parametrize("poly", ["x^200+y^200", "x^3+y^4", "x^2", "x*y+1"])
def test_pinned_staircases_match_the_box_enumeration(poly):
    # capped (39 601 monomials), finite, infinite, and the unit ideal
    _assert_staircase(buchberger(jacobian_ideal(qi_ring("x", "y").from_string(poly))))


# -- the width repack: a run whose lcms pass the width of its generators ----


@pytest.mark.parametrize(
    "variables, poly, widths",
    [("x,y", "x^300+y^300", (10, 20)), ("x,y,z", "x^40+y^30+x*y*z^2", (7, 14))],
)
def test_a_run_past_its_initial_width_repacks_wider(monkeypatch, variables, poly, widths):
    # the generators' degrees (at most 299 and 39) fit the rings' base
    # widths, 30 // 3 and 30 // 4 bits a field; an lcm of two leads (x^299·y^299
    # in two variables) passes it, so the basis and the pairs are repacked
    # once at twice the width and the run goes on without starting again
    R = qi_ring(*variables.split(","))
    gens = jacobian_ideal(R.from_string(poly))
    start = _Glex.holding(R.nvars, max(g.total_degree() for g in gens))
    assert start.width == R.base_width == widths[0]
    repacks = []
    plain = groebner._widened
    monkeypatch.setattr(groebner, "_widened", lambda glex, *args: repacks.append(glex.width) or plain(glex, *args))
    G = buchberger(gens)
    assert (repacks, G.glex.width) == ([widths[0]], widths[1])
    assert G.elements == reference_buchberger(gens).elements


def test_a_normal_form_past_the_width_of_the_basis_matches_plain_division():
    R = qi_ring("x", "y")
    G = _gb(R, "x^2-y", "y^3-2")
    p = R.from_string("x^600*y + (1/3+i)*x*y^700 - x^5")
    assert p.total_degree() >> (G.glex.width - 1)  # p's degree does not fit G's width
    assert ideal_nf(p, G) == reference_reduce(p, G.elements)
