"""Shared helpers for the test suite: small rings and brute-force oracles."""

from __future__ import annotations

from itertools import combinations_with_replacement

from curvedchern.errors import EmptyIdeal, InvalidInput
from curvedchern.forms import DiffForm
from curvedchern.groebner import GroebnerBasis
from curvedchern.rings import (
    GradedRing,
    RingElement,
    _divides,
    _mono_div,
    _mono_mul,
    monomial_key,
    sum_of_products,
)
from curvedchern.scalars import Scalar


def qi_ring(*variables, degrees=None, grading="Z2", relation=None) -> GradedRing:
    if degrees is None:
        degrees = [0] * len(variables)
    return GradedRing(variables, degrees, grading=grading, relation=relation)


def sphere_ring(n: int) -> GradedRing:
    """Q(i)[x1..xn]/(x1^2+...+xn^2-1), Z/2-graded, all degrees 0."""
    names = [f"x{k}" for k in range(1, n + 1)]
    rel = "+".join(f"{v}^2" for v in names) + "-1"
    return GradedRing(names, [0] * n, grading="Z2", relation=rel)


def monomials_up_to(ring: GradedRing, degree: int) -> list:
    """All monomial exponent tuples of total degree <= degree, sorted."""
    out = [(0,) * ring.nvars]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(ring.nvars), d):
            m = [0] * ring.nvars
            for k in combo:
                m[k] += 1
            out.append(tuple(m))
    return sorted(set(out), key=monomial_key)


def brute_force_in_ideal(p: RingElement, gens: list[RingElement], degree: int) -> bool:
    """Degree-bounded ideal membership by dense linear algebra over Q(i).

    Solves p = sum q_g * g with deg(q_g) <= degree by setting up the linear
    system on monomial coefficients and running row reduction with exact
    scalars.  Independent of the Groebner code on purpose.
    """
    ring = p.ring
    cols = []
    for g in gens:
        for m in monomials_up_to(ring, degree):
            shifted = {}
            for gm, gc in g.terms.items():
                key = tuple(a + b for a, b in zip(gm, m))
                shifted[key] = shifted.get(key, Scalar(0)) + gc
            cols.append(shifted)
    rows = sorted({m for col in cols for m in col} | set(p.terms), key=monomial_key)
    row_index = {m: k for k, m in enumerate(rows)}
    matrix = [[Scalar(0)] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for m, c in col.items():
            matrix[row_index[m]][j] = c
    rhs = [p.terms.get(m, Scalar(0)) for m in rows]
    return _solvable(matrix, rhs)


def _solvable(matrix: list[list[Scalar]], rhs: list[Scalar]) -> bool:
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = matrix[row][col].inv()
        matrix[row] = [v * inv for v in matrix[row]]
        rhs[row] = rhs[row] * inv
        for r in range(nrows):
            if r != row and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[row])]
                rhs[r] = rhs[r] - f * rhs[row]
        row += 1
        if row == nrows:
            break
    for r in range(nrows):
        if not any(matrix[r]) and rhs[r]:
            return False
    return True


def reference_sum_of_products(ring: GradedRing, contributions) -> dict:
    """rings.sum_of_products the slow way, independent of its integer rows
    and packing: every term product is a Scalar product, normal-formed on
    its own by ring._normal_form and added into its key's sum term by
    term."""
    sums: dict = {}
    for key, sign, p, q in contributions:
        acc = sums.setdefault(key, {})
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                for rm, rc in ring._normal_form({m: c1 * c2 * Scalar(sign)}).items():
                    acc[rm] = acc.get(rm, Scalar(0)) + rc
    out = {}
    for key, acc in sums.items():
        terms = {m: c for m, c in acc.items() if not c.is_zero()}
        if terms:
            out[key] = RingElement(ring, terms, _normalize=False)
    return out


def reference_wedge(f, g):
    """DiffForm.wedge the slow way: the Koszul sign of each pair of wedge
    monomials by counting the swaps a bubble sort makes."""
    parts: dict = {}
    for S1, c1 in f.parts.items():
        for S2, c2 in g.parts.items():
            if set(S1) & set(S2):
                continue
            word = list(S1 + S2)
            swaps = 0
            for i in range(len(word)):
                for j in range(len(word) - 1 - i):
                    if word[j] > word[j + 1]:
                        word[j], word[j + 1] = word[j + 1], word[j]
                        swaps += 1
            key = tuple(word)
            got = reference_sum_of_products(f.ring, [(key, (-1) ** swaps, c1, c2)])
            if key in got:
                prev = parts.get(key)
                parts[key] = got[key] if prev is None else prev + got[key]
    return DiffForm(f.ring, parts)


# -- the seed's Buchberger: the oracle for groebner.buchberger -------------
#
# Plain Buchberger as the engine first had it: pairs taken last in, first
# out, only the coprime criterion, every leading term recomputed on each
# reduction step.  reference_reduce is plain full division with no
# criteria.


def reference_reduce(p: RingElement, basis: list[RingElement]) -> RingElement:
    """Full division remainder: no monomial of the result is divisible by
    any basis leading monomial."""
    if not basis:
        return p
    lms = [g.leading_term() for g in basis]
    work = dict(p.terms)
    out: dict = {}
    while work:
        m = max(work, key=monomial_key)
        c = work.pop(m)
        hit = next((k for k, (lm, _) in enumerate(lms) if _divides(lm, m)), None)
        if hit is None:
            out[m] = c
            continue
        g = basis[hit]
        lm, lc = lms[hit]
        q = _mono_div(m, lm)
        f = c / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = _mono_mul(q, gm)
            nc = work.get(t, Scalar(0)) - f * gc
            if nc.is_zero():
                work.pop(t, None)
            else:
                work[t] = nc
    return RingElement(p.ring, out, _normalize=False)


def reference_spoly(f: RingElement, g: RingElement) -> RingElement:
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    ring = f.ring
    tf = RingElement(ring, {_mono_div(lcm, fm): fc.inv()}, _normalize=False)
    tg = RingElement(ring, {_mono_div(lcm, gm): gc.inv()}, _normalize=False)
    got = sum_of_products(ring, ((None, 1, tf, f), (None, -1, tg, g)))
    return got[None] if got else ring.zero()


def reference_buchberger(gens: list[RingElement]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Plain Buchberger with the coprime-leading-term criterion.  Raises
    EmptyIdeal when no nonzero generators are supplied and InvalidInput on
    quotient rings.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise EmptyIdeal("no nonzero generators")
    ring = gens[0].ring
    if ring.relation is not None:
        raise InvalidInput("Groebner bases are computed over relation-free rings")
    basis = list(gens)
    pairs = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    while pairs:
        a, b = pairs.pop()
        fa, fb = basis[a], basis[b]
        ma, _ = fa.leading_term()
        mb, _ = fb.leading_term()
        # coprime leading terms never yield a new element
        if all(x == 0 or y == 0 for x, y in zip(ma, mb)):
            continue
        r = reference_reduce(reference_spoly(fa, fb), basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reference_interreduce(ring, basis)


def _reference_interreduce(ring: GradedRing, basis: list[RingElement]) -> GroebnerBasis:
    # drop elements whose leading monomial another element divides
    kept: list[RingElement] = []
    lms = [g.leading_term()[0] for g in basis]
    for k, g in enumerate(basis):
        if any(
            j != k and _divides(lms[j], lms[k]) and (lms[j] != lms[k] or j < k)
            for j in range(len(basis))
        ):
            continue
        kept.append(g)
    # reduce tails against the others and make monic
    final: list[RingElement] = []
    for k, g in enumerate(kept):
        others = kept[:k] + kept[k + 1 :]
        r = reference_reduce(g, others)
        if r.is_zero():
            continue
        _, lc = r.leading_term()
        final.append(r.scale(lc.inv()))
    final.sort(key=lambda g: monomial_key(g.leading_term()[0]))
    return GroebnerBasis(ring, final)
