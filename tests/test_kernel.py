"""The ring product kernel, rings.sum_of_products, against a plain
reference: Scalar products normal-formed and summed term by term."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import rings
from curvedchern.forms import DiffForm, USeries, relation_bound
from curvedchern.matform import Mat
from curvedchern.rings import _KEY, RingElement, _canonical, monomial_key, sum_of_products
from curvedchern.scalars import Scalar

from util import (
    NO_EXPLAIN,
    qi_ring,
    reference_reduce,
    reference_sum_of_products,
    reference_useries_sum_of_products,
    reference_wedge,
    sphere_ring,
)

FREE = qi_ring("x1", "x2", "x3")
SPHERE = sphere_ring(3)
# the monic relation x1^2 + (3 - x2·x3)/(1 + 2i) has denominator 5, so a
# key's division can scale its sum's denominator and not another key's
GAUSS = qi_ring("x1", "x2", "x3", relation="(1+2*i)*x1^2 - x2*x3 + 3")

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
# sphere and GAUSS elements are drawn in normal form (x1 to the power 0 or
# 1), so their products still reduce but stay small
sphere_terms = st.dictionaries(
    st.tuples(st.sampled_from([0, 1]), exponents, exponents), scalars, max_size=3
)


def _kernel(ring, batch) -> dict:
    """sum_of_products on (key, sign, p, q) contributions of RingElements,
    each pair at the wider of its two widths (so a batch can mix widths),
    as {key: RingElement}, each key's rows made canonical on their own;
    the result must be canonical."""
    contributions = []
    for key, sign, p, q in batch:
        if p.rows and q.rows:
            width = max(p.width, q.width)
            P, Q = p._at(width)[_KEY], q._at(width)[_KEY]
            contributions.append((key, sign, p.den * q.den, width, P, Q))
    den, width, got = sum_of_products(ring, contributions)
    assert _canonical(ring, den, width, got) == (den, width, got)
    return {key: RingElement._reduced(ring, den, width, {_KEY: rows}) for key, rows in got.items()}


def _contributions(ring):
    element = (term_dicts if ring is FREE else sphere_terms).map(ring.element)
    contribution = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1, 2]), element, element)
    return st.lists(contribution, max_size=4)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kernel_matches_the_reference(data):
    for ring in (FREE, SPHERE, GAUSS):
        batch = data.draw(_contributions(ring))
        got = _kernel(ring, batch)
        want = reference_sum_of_products(ring, batch)
        assert got == want


@settings(deadline=None, max_examples=30)
@given(sphere_terms, sphere_terms)
def test_kernel_product_cancels_to_zero(ta, tb):
    p, q = SPHERE.element(ta), SPHERE.element(tb)
    assert _kernel(SPHERE, [("k", 1, p, q), ("k", -1, q, p)]) == {}


def test_empty_and_all_zero_batches():
    zero, one = FREE.zero(), FREE.one()
    assert sum_of_products(FREE, []) == (1, FREE.base_width, {})
    assert _kernel(FREE, [("a", 1, zero, one), ("b", -1, one, zero)]) == {}
    assert _kernel(SPHERE, [("a", 1, SPHERE.zero(), SPHERE.zero())]) == {}


def test_keys_divided_apart_share_one_denominator():
    # dividing key a by GAUSS's relation scales its sum's denominator by 5,
    # key b is not divided: its rows are rescaled to the common denominator
    x1, x2 = GAUSS.from_string("x1"), GAUSS.from_string("x2/3")
    batch = [("a", 1, x1, x1), ("b", 1, x2, x2), ("c", -1, x1, x2)]
    got = _kernel(GAUSS, batch)
    assert got == reference_sum_of_products(GAUSS, batch)
    assert str(got["a"]) == "(1/5-2/5*i)*x2*x3 + (-3/5+6/5*i)" and str(got["b"]) == "1/9*x2^2"


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


# -- the packing width -----------------------------------------------------
#
# Fifteen variables give a base width of 2 bits (30 // 16 is 1), so every
# degree from 2 on needs a wider packing: a degree 2^k - 1 fills k bits of
# the degree field and 2^k needs k + 1, each plus the guard bit.  A product
# is checked against the Scalar reference, so a carry into the next field,
# or into the dx mask or the u-power of a series, shows as a wrong monomial
# or a wrong key.

NAMES = [f"y{v}" for v in range(15)]
WIDE = qi_ring(*NAMES)
# the lead y0·y1·y2 rewrites to y3^3, so a remainder can need more bits
# than the product it reduces
WIDE_REL = qi_ring(*NAMES, relation="y0*y1*y2 - y3^3 + y4")
WIDE_FREE = qi_ring(*NAMES)


def _width(ring, p: RingElement) -> int:
    return p.width


@pytest.mark.parametrize("k", range(1, 10))
def test_a_product_across_a_width_boundary_matches_the_reference(k):
    p = WIDE.from_string(f"y1^{2 ** k - 1} - 2*y0*y2 + i/3")
    q = WIDE.from_string("y1 + y2")
    assert WIDE.base_width == 2
    # the degree 2 of y0·y2 takes 2 bits and the guard bit
    assert _width(WIDE, p) == max(3, k + 1)
    got = p * q
    assert got == reference_sum_of_products(WIDE, [(None, 1, p, q)])[None]
    assert _width(WIDE, got) == max(3, 2 ** k).bit_length() + 1
    # the same product as u-series with dx masks on both sides
    f = DiffForm(WIDE, {(0, 14): p})
    g = DiffForm(WIDE, {(3,): q, (): q})
    series = USeries.from_form(f, 2) * USeries.from_form(g, 1)
    assert series.u_powers() == (3,)
    assert series.coefficient(3) == reference_wedge(f, g)


def test_the_parser_cap_times_x_matches_the_reference():
    p, q = WIDE.from_string("y14^1000 + y13"), WIDE.from_string("y14 - y0^1000")
    got = p * q
    assert got == reference_sum_of_products(WIDE, [(None, 1, p, q)])[None]
    assert got.terms[(0,) * 14 + (1001,)] == Scalar(1)


def test_operands_packed_at_different_widths():
    narrow = USeries.from_form(DiffForm(WIDE, {(5,): WIDE.from_string("y0 - y1")}))
    wide = USeries.from_form(DiffForm(WIDE, {(2,): WIDE.from_string("y0^200 + 3*y1^7")}), 1)
    assert (narrow.width, wide.width) == (2, 9)
    want = reference_wedge(narrow.coefficient(0), wide.coefficient(1))
    assert (narrow * wide).coefficient(1) == want
    # one kernel batch holding both widths, and a sum of the two
    mixed = USeries.sum_of_products(WIDE, [(1, 0, narrow, narrow), (1, 0, narrow, wide)])
    assert mixed.coefficient(1) == want and mixed.u_powers() == (1,)
    assert (narrow + wide - wide) == narrow and (narrow + wide - wide).width == 2


@pytest.mark.parametrize("k", range(1, 6))
def test_quotient_products_across_widths_match_division(k):
    p = WIDE_REL.from_string(f"y0^{2 ** k - 1}*y1 + y2*y5")
    q = WIDE_REL.from_string(f"y1^{2 ** k}*y2 - 2*y0*y1*y5")
    got = p * q
    # the product over the free ring, then plain division by the relation
    free = reference_sum_of_products(
        WIDE_FREE, [(None, 1, WIDE_FREE.element(p.terms), WIDE_FREE.element(q.terms))]
    )[None]
    relation = WIDE_FREE.element(WIDE_REL.relation.terms)
    assert got.terms == reference_reduce(free, [relation]).terms


@pytest.mark.parametrize("relation", ["x1^32 - x2", "x5^40 + x1", "x1^20*x2^20 - 1"])
def test_a_relation_wider_than_the_products_reduces_none_of_them(relation):
    # five variables pack 5 bits a field, which hold degrees up to 15; a
    # relation of degree 32 or more cannot be packed at that width, and its
    # lead divides none of the products, which are the free ring's
    names = [f"x{v}" for v in range(1, 6)]
    ring, free = qi_ring(*names, relation=relation), qi_ring(*names)
    for a, b in [("x1^3 + x2", "x3 - 1"), ("x1^7*x2", "x1^7 + x5"), ("x5^7 + x4", "x5^8 - x1")]:
        p, q = free.from_string(a), free.from_string(b)
        got = ring.from_string(a) * ring.from_string(b)
        assert got.width == ring.base_width == 5
        assert got.terms == reference_sum_of_products(free, [(None, 1, p, q)])[None].terms


def test_a_quotient_product_past_the_guard_bit_repacks_its_accumulators(monkeypatch):
    # p and q have degree 4, which fits four bits a field, but their product
    # y0^2·y1^2·y2^2·y6^2 has degree 8, which reaches the guard bit of the
    # degree field: the exact accumulator is repacked at five bits, then the
    # relation's entry (degree 3, three bits) at that width, where one
    # division of the sum by the lead y0·y1·y2 gives (y3^3 - y4)^2·y6^2.  The
    # operands are not repacked, and the batch forms its products once.
    p, q = WIDE_REL.from_string("y0^2*y1^2"), WIDE_REL.from_string("y2^2*y6^2 + y5")
    assert _width(WIDE_REL, p) == _width(WIDE_REL, q) == 4
    repacks, divisions = [], []
    plain_repack, plain_division = rings._repacked, rings._reduce_full
    monkeypatch.setattr(rings, "_repacked", lambda *args: repacks.append(args[2:]) or plain_repack(*args))
    monkeypatch.setattr(rings, "_reduce_full", lambda *args: divisions.append(args[3]) or plain_division(*args))
    got = p * q
    assert (repacks, divisions) == ([(4, 5), (3, 5)], [rings._glex(WIDE_REL.nvars, 5).guard])
    assert _width(WIDE_REL, got) == 5
    assert got.terms[(0, 0, 0, 6, 0, 0, 2) + (0,) * 8] == Scalar(1)
    free = WIDE_FREE.element(p.terms) * WIDE_FREE.element(q.terms)
    relation = WIDE_FREE.element(WIDE_REL.relation.terms)
    assert got.terms == reference_reduce(free, [relation]).terms


# -- readers of packed monomials against the exponent tuples ---------------
#
# total_degree, leading_term, the printed term order and relation_bound read
# the packed ints (the largest leads, its top field is the degree); the
# oracle reads the exponent tuples of `terms` in monomial_key order.  Each
# value is also read repacked at wider, non-canonical widths.


def _elements(ring):
    """Elements of monomials with at most three variables set, exponents
    across the width boundaries (x1 at most cubed on the sphere, whose
    normal form rewrites x1^2)."""
    big = st.sampled_from([1, 2, 3, 7, 8, 15, 16, 100, 300])
    exponent = [st.integers(1, 3) if ring is SPHERE and v == 0 else big for v in range(ring.nvars)]
    mono = st.lists(st.integers(0, ring.nvars - 1), max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*[exponent[v] if v in vs else st.just(0) for v in range(ring.nvars)])
    )
    return st.dictionaries(mono, scalars, max_size=4).map(ring.element)


def _oracle_str(ring, terms: dict) -> str:
    ordered = sorted(terms, key=monomial_key, reverse=True)
    parts = [rings._term_str(terms[m], rings._mono_str(ring, m)) for m in ordered]
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


@settings(deadline=None, max_examples=60, phases=NO_EXPLAIN)
@given(st.data())
def test_packed_readers_match_the_tuple_oracle(data):
    for ring in (FREE, SPHERE, WIDE):
        p, q = data.draw(_elements(ring)), data.draw(_elements(ring))
        series = USeries.from_form(DiffForm(ring, {(0,): p}), 1) + USeries.from_ring(q)
        degrees = [sum(m) for m in list(p.terms) + list(q.terms)]
        for extra in (0, 1, 7):
            width = max(p.width, q.width) + extra
            v = RingElement._make(ring, p.den, width, p._at(width))
            assert v.terms == p.terms
            assert v.total_degree() == max(map(sum, p.terms), default=0)
            if p.terms:
                lead = max(p.terms, key=monomial_key)
                assert v.leading_term() == (lead, p.terms[lead])
                assert str(v) == _oracle_str(ring, p.terms)
            if degrees:
                wide = USeries._make(ring, series.den, width + 1, series._at(width + 1))
                assert relation_bound(wide) == relation_bound(series) == max(degrees) + 2


# -- rows added without a product -------------------------------------------
#
# Mat.sum_of_products files the groups of an identity term's other factor as
# added rows of their entry, which go to the kernel whenever the entry has a
# product, so they are summed before the one normal form; the result must
# equal merging them into the products' sum.  _entry_of puts pairs and plus
# terms (sign, shift, v) into one entry of 1 x 1 matrices.


def _entry_of(ring, pairs, plus) -> USeries:
    """sign·u^shift·a·b over pairs plus sign·u^shift·v over plus, as the
    one entry of Mat.sum_of_products on 1 x 1 matrices, a plus term an
    identity term."""
    one, degrees = Mat.identity(ring, (0,)), (0,)
    def mat(v):
        return Mat.diagonal(ring, degrees, [v])

    terms = [(sign, shift, mat(a), mat(b)) for sign, shift, a, b in pairs]
    terms += [(sign, shift, one, mat(v)) for sign, shift, v in plus]
    return Mat.sum_of_products(ring, degrees, degrees, terms).entry(0, 0)

# the wedge masks a drawn series may carry: none, one index, two, all three
_MASKS = st.sampled_from([(), (0,), (1,), (0, 2), (0, 1, 2)])


def _useries(ring):
    """Series of up to three (u-power, wedge indices, element) parts, the
    elements at mixed widths (see _elements); Gaussian coefficients with
    denominators, -1/2 and i among them."""
    part = st.tuples(st.integers(0, 2), _MASKS, _elements(ring))
    return st.lists(part, max_size=3).map(
        lambda parts: sum((USeries.from_form(DiffForm(ring, {S: p}), J) for J, S, p in parts), USeries.zero(ring))
    )


@settings(deadline=None, max_examples=40, phases=NO_EXPLAIN)
@given(st.data())
def test_added_rows_sum_as_merges_after_the_products(data):
    signs, shifts = st.sampled_from([1, -1]), st.integers(0, 2)
    for ring in (FREE, SPHERE):
        series = _useries(ring)
        pairs = data.draw(st.lists(st.tuples(signs, shifts, series, series), max_size=3))
        plus = data.draw(st.lists(st.tuples(signs, shifts, series), max_size=3))
        got = _entry_of(ring, pairs, plus)
        assert got == reference_useries_sum_of_products(ring, pairs, plus)
        assert (got.den, got.width, got.groups) == _canonical(ring, got.den, got.width, got.groups)
        # a plus-only entry forms nothing, and one that takes each product
        # back as a plus term cancels to zero
        assert _entry_of(ring, [], plus) == reference_useries_sum_of_products(ring, [], plus)
        back = [(-sign, shift, a * b) for sign, shift, a, b in pairs]
        assert _entry_of(ring, pairs, back + plus) == reference_useries_sum_of_products(ring, [], plus)


def test_added_rows_at_a_wider_width_and_a_denominator_cancel():
    # -i/2·x1·x2^99 dx_1 at width 8, added to (i/2·x1 dx_1)·x2^99 from a
    # product of a base-width and a wide factor, over the sphere's relation
    a = USeries.from_form(DiffForm(SPHERE, {(0,): SPHERE.from_string("i/2*x1")}))
    b = USeries.from_ring(SPHERE.from_string("x2^99"))
    plus = USeries.from_form(DiffForm(SPHERE, {(0,): SPHERE.from_string("-i/2*x1*x2^99")}))
    assert a.width < b.width == plus.width
    assert _entry_of(SPHERE, [(1, 0, a, b)], [(1, 0, plus)]).is_zero()
    got = _entry_of(SPHERE, [(1, 0, a, b), (-1, 1, a, b)], [(1, 0, plus)])
    assert got == (a * b).shift_u(1).scale(Scalar(-1))


# -- kernel work: calls and term pairs ---------------------------------------
#
# The engine forms every ring product in rings.sum_of_products, so its calls
# and term pairs (len(P)·len(Q) per contribution) measure the work of a run
# independently of the host's speed.  A change that moves a count restates
# the pin and says why.


def _spy_kernel(monkeypatch) -> list:
    """[calls, term pairs] of sum_of_products from now on, counted as they
    happen, the kernel spied on in every module that holds it."""
    from curvedchern import forms, matform

    work = [0, 0]
    plain = rings.sum_of_products

    def spy(ring, contributions, added=()):
        work[0] += 1
        # rows added without a product are not term pairs
        work[1] += sum(len(c[4]) * len(c[5]) for c in contributions)
        return plain(ring, contributions, added)

    for mod in (rings, forms, matform):
        monkeypatch.setattr(mod, "sum_of_products", spy)
    return work


def _kernel_work(monkeypatch, run) -> tuple[int, int]:
    """(calls, term pairs) of sum_of_products while run() runs."""
    work = _spy_kernel(monkeypatch)
    run()
    return work[0], work[1]


def test_kernel_work_of_one_s4_suite(monkeypatch):
    from curvedchern import cli
    from curvedchern.cli import _corpus_text, parse_instance, run_suite

    # the spy counts this process only: the words with K (20 calls,
    # 186 014 pairs past the even rows of A·A, which A^4 shares) and the
    # commutator check (216 calls, 253 356 pairs) stay here rather than in
    # a forked child
    monkeypatch.setattr(cli, "_forks", lambda *mats: False)
    inst = parse_instance(_corpus_text("s4_nonflat.json"), "s4")
    work = _kernel_work(monkeypatch, lambda: run_suite(inst.module, inst.connection, **inst.options))
    # 1 020 calls and 1 794 924 pairs while the chain route re-checked e·e,
    # e·e·e and e·delta·e, which check_module has proved; 860 and 1 791 372
    # while the mod-relation test formed the relation's gradient
    # self-pairing Σ(∂f0)², 5 one-pair products (forms.relation_differential
    # decides smoothness by a Groebner basis, outside the kernel)
    assert work == (855, 1791367)


def test_kernel_work_of_the_forked_s4_suite(monkeypatch):
    # The spy counts this process only.  It forms the curvature K (64,
    # 720), A = [nabla, delta] (64, 10 800), its half of the even rows of
    # A·A and the A^4 square (10, 1 176 830) and the cycle check's residue
    # (1, 7 530), 5 calls and 5 pairs more while the cycle check's
    # mod-relation test formed the relation's gradient self-pairing.  The
    # curvature's linearity check (472 calls, 15 552 pairs) runs in the
    # forked child, and so does the later half of the even rows of A·A,
    # P_0(A·A): 8 of its 16 calls and 140 565 of its 287 914 pairs left
    # this process, (152, 1 336 450) -> (144, 1 195 885) then.  The
    # child's own work is pinned below.  After
    # holding P_0(A·A) and adopting the child's classes, the A^4 square is
    # all Chern-Weil forms, and the chain route forms nothing.
    from curvedchern import cli
    from curvedchern.cli import _corpus_text, parse_instance, run_suite

    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    inst = parse_instance(_corpus_text("s4_nonflat.json"), "s4")
    route, at_route = cli.chern_via_chains, []
    work = _spy_kernel(monkeypatch)

    def chain_route(*args, **kwargs):
        before = tuple(work)
        got = route(*args, **kwargs)
        at_route.append((work[0] - before[0], work[1] - before[1]))
        return got

    monkeypatch.setattr(cli, "chern_via_chains", chain_route)
    run_suite(inst.module, inst.connection, **inst.options)
    assert at_route == [(0, 0)]
    assert tuple(work) == (139, 1195880)


def test_kernel_work_of_the_forked_s4_child(monkeypatch, tmp_path):
    # The forked child's four stages, counted in the child from the fork
    # on and written to a file after its last: its half of P_0(A·A), the
    # even rows of A·A, the later 2 of the 4 rows (8 calls, 140 565
    # pairs); the curvature's linearity check (472 calls, 15 552 pairs;
    # 477 and 15 557 while it formed the relation's gradient self-pairing,
    # 5 one-pair calls); the words with
    # K, the classes of K, K·K and A·A·K (36, 276 168); and the commutator
    # check (216, 253 356).  The child does not hold P_0(A·A), whose
    # rows it formed only half of (16 calls, 287 914 pairs whole), so it
    # takes str_E(A·A·K) as str(P_0(A)·P_1(A·K)): P_1(A·K) and that
    # supertrace form 42 948 + 93 478 pairs, where P_0(A·A) and
    # str(P_0(A·A)·P_0(K)) form 287 914 + 46 272, so the words with K
    # form 197 760 pairs fewer than the 473 928 of that cut.
    import json
    import os

    from curvedchern import cli
    from curvedchern.cli import _corpus_text, parse_instance, run_suite

    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    inst = parse_instance(_corpus_text("s4_nonflat.json"), "s4")
    work = _spy_kernel(monkeypatch)
    marks, record = [], tmp_path / "child.json"
    plain_fork = os.fork

    def fork():
        pid = plain_fork()
        if pid == 0:  # the counter at the fork, in the child
            marks.append(tuple(work))
        return pid

    def marked(stage, last=False):
        def run(*args, **kwargs):
            got = stage(*args, **kwargs)
            marks.append(tuple(work))
            if last:
                record.write_text(json.dumps(marks))
            return got

        return run

    monkeypatch.setattr(os, "fork", fork)
    # this process forms its own half of the rows too, and marks it in
    # its own copy of `marks`, which the child's record does not see
    monkeypatch.setattr(cli, "_even_rows_half", marked(cli._even_rows_half))
    monkeypatch.setattr(cli, "check_curvature", marked(cli.check_curvature))
    monkeypatch.setattr(cli, "_chern_weil_share", marked(cli._chern_weil_share))
    monkeypatch.setattr(cli, "commutator_check", marked(cli.commutator_check, last=True))
    run_suite(inst.module, inst.connection, **inst.options)
    child = json.loads(record.read_text())
    stages = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(child, child[1:])]
    assert stages == [(8, 140565), (472, 15552), (36, 276168), (216, 253356)]


def test_kernel_work_of_the_suite_on_random_seeds(monkeypatch):
    from curvedchern.cli import run_suite
    from curvedchern.randomgen import random_module_instance

    instances = [random_module_instance(s) for s in range(300)]
    work = _kernel_work(monkeypatch, lambda: [run_suite(M, C) for M, C in instances])
    # 4 986 calls and 30 204 pairs while the linearity check scaled e by
    # each x_v on its own: 1 748 one-pair products e[t][t]·x_v, which the
    # block S = [x_1·I | ... | x_n·I] leaves unformed, as every instance
    # here has e = 1
    assert work == (3238, 28456)


def test_kernel_work_of_reading_the_s4_file(monkeypatch):
    # check_module makes all 128 calls: the reader forms no product, and
    # divides h, whose (1-x1)^2 leaves x1^2, by the relation without one
    # (129 while it normal-formed by a product with one).  Reading each
    # product of two factors by its own kernel call made 977 in all.
    from curvedchern.cli import _corpus_text, parse_instance
    from curvedchern.modules import check_module

    text = _corpus_text("s4_nonflat.json")
    inst = parse_instance(text, "s4")
    reading = _kernel_work(monkeypatch, lambda: parse_instance(text, "s4"))
    checking = _kernel_work(monkeypatch, lambda: check_module(inst.module))
    assert (reading[0], checking[0]) == (128, 128)


def test_the_suite_never_repacks_a_kernel_batch(monkeypatch):
    # Every product of one s4 suite and of random seeds 0-299 stays at its
    # ring's base width: s4 reaches degree 12, which 5 bits a field hold at
    # 5 variables, and the random rings reach degree 7 at 3 variables (7
    # bits a field).  So no batch meets mixed widths, no accumulator reaches
    # a guard bit, and no result or sum changes width: every change of width
    # goes through rings._repacked.  A batch forms its products once; there
    # is no path that forms them again.
    from curvedchern import cli
    from curvedchern.cli import _corpus_text, parse_instance, run_suite
    from curvedchern.randomgen import random_module_instance

    # the spy sees this process only, so the s4 commutator check runs here
    monkeypatch.setattr(cli, "_forks", lambda *mats: False)
    inst = parse_instance(_corpus_text("s4_nonflat.json"), "s4")
    instances = [random_module_instance(s) for s in range(300)]
    repacks = []
    plain = rings._repacked
    monkeypatch.setattr(rings, "_repacked", lambda *args: repacks.append(args[2:]) or plain(*args))
    run_suite(inst.module, inst.connection, **inst.options)
    for M, C in instances:
        run_suite(M, C)
    assert repacks == []
