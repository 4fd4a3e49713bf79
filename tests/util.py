"""Shared helpers for the test suite: small rings and brute-force oracles."""

from __future__ import annotations

from itertools import combinations_with_replacement

from curvedchern.forms import DiffForm
from curvedchern.rings import GradedRing, RingElement, monomial_key
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
