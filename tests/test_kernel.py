"""The ring product kernel, rings.sum_of_products, against a plain
reference: Scalar products normal-formed and summed term by term."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern.forms import DiffForm
from curvedchern.rings import sum_of_products
from curvedchern.scalars import Scalar

from util import qi_ring, reference_sum_of_products, reference_wedge, sphere_ring

FREE = qi_ring("x1", "x2", "x3")
SPHERE = sphere_ring(3)

# exponents on both sides of the packing-width boundaries 2^k - 1 | 2^k:
# a field too narrow for a sum of two of them would carry into the next
exponents = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16])
scalars = st.builds(
    lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([1, 2, 3, 4]),
)
term_dicts = st.dictionaries(st.tuples(exponents, exponents, exponents), scalars, max_size=4)
# sphere elements are drawn in normal form (x1 to the power 0 or 1), so
# their products still reduce but stay small
sphere_terms = st.dictionaries(
    st.tuples(st.sampled_from([0, 1]), exponents, exponents), scalars, max_size=3
)


def _contributions(ring):
    element = (term_dicts if ring is FREE else sphere_terms).map(ring.element)
    contribution = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1, 2]), element, element)
    return st.lists(contribution, max_size=4)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kernel_matches_the_reference(data):
    for ring in (FREE, SPHERE):
        batch = data.draw(_contributions(ring))
        got = sum_of_products(ring, batch)
        want = reference_sum_of_products(ring, batch)
        assert got == want


@settings(deadline=None, max_examples=30)
@given(sphere_terms, sphere_terms)
def test_kernel_product_cancels_to_zero(ta, tb):
    p, q = SPHERE.element(ta), SPHERE.element(tb)
    assert sum_of_products(SPHERE, [("k", 1, p, q), ("k", -1, q, p)]) == {}


def test_empty_and_all_zero_batches():
    zero, one = FREE.zero(), FREE.one()
    assert sum_of_products(FREE, []) == {}
    assert sum_of_products(FREE, [("a", 1, zero, one), ("b", -1, one, zero)]) == {}
    assert sum_of_products(SPHERE, [("a", 1, SPHERE.zero(), SPHERE.zero())]) == {}


def test_mul_is_the_one_product_case():
    p = SPHERE.from_string("x1^15 + i*x2^16/3")
    q = SPHERE.from_string("x1^16 - x3^7/2")
    assert p * q == reference_sum_of_products(SPHERE, [(None, 1, p, q)])[None]


forms = st.dictionaries(
    st.sets(st.integers(0, 2), max_size=3).map(lambda s: tuple(sorted(s))),
    term_dicts.map(FREE.element),
    max_size=3,
)


@settings(deadline=None, max_examples=60)
@given(forms, forms)
def test_wedge_signs_match_the_reference(fa, fb):
    f, g = DiffForm(FREE, fa), DiffForm(FREE, fb)
    assert f.wedge(g) == reference_wedge(f, g)
