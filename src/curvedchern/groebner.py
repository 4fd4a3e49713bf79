"""Buchberger's algorithm, ideal normal forms, and standard monomials.

Everything here runs over relation-free rings (the quotient-ring cases the
engine needs are handled upstream by the single-relation normal form).  The
monomial order is the ring's graded lex order throughout.

Buchberger's algorithm is the installation of Gebauer and Möller ("On an
installation of Buchberger's algorithm", J. Symbolic Comput. 6, 1988): as
each element enters the basis, the product (coprime leading terms) and
chain criteria prune its new pairs and the old pairs it makes redundant,
and the pending pair with the smallest lcm is always reduced next (normal
selection).  Reduction runs on integer rows: an element enters the basis
monic, as an entry holding its leading monomial, one denominator and the
integer numerators of its tail, built once; a polynomial being reduced is a
dict of Gaussian-integer numerators over one denominator, taken term by
term in descending graded-lex order from a heap.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import EmptyIdeal, InvalidInput, ZeroJacobianIdeal
from .rings import (
    GradedRing,
    Monomial,
    RingElement,
    _divides,
    _element,
    _mono_div,
    _mono_mul,
    monomial_key,
)

STANDARD_MONOMIAL_CAP = 10000


@dataclass(frozen=True)
class Infinite:
    """Marker for an infinite-dimensional quotient, with the reason."""

    reason: str


@dataclass(frozen=True)
class Capped:
    """Marker for a finite quotient with more than `cap` standard monomials:
    every variable has a pure power among the leading monomials, so the
    dimension is finite, but the monomials were not all listed."""

    cap: int


@dataclass
class GroebnerBasis:
    """A reduced, monic Groebner basis sorted by leading monomial."""

    ring: GradedRing
    elements: list[RingElement] = field(default_factory=list)

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_term()[0] for g in self.elements]

    def contains_unit(self) -> bool:
        return any(g.total_degree() == 0 for g in self.elements)


# An entry (lm, den, tail) is a monic basis element in the form reduction
# uses: lm + (1/den)·Σ (a + b·i)·t over the rows (t, a, b) of tail, every t
# below lm.  It is built once, when the element enters a basis.
_Entry = tuple[Monomial, int, list]


def _desc(m: Monomial) -> tuple:
    """Heap key: the smallest key is the largest monomial in graded lex."""
    return -sum(m), tuple(-e for e in m)


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _rows(p: RingElement) -> tuple[dict, int]:
    """p as reduction's work dict {m: [a, b]} over the denominator den:
    p = (1/den)·Σ (a + b·i)·m."""
    unpack = p.ring._packing(p.width)[1]
    return {unpack[k][0]: [a, b] for k, a, b in p.rows}, p.den


def _remainder(ring: GradedRing, rows: list, lm: Monomial | None = None) -> RingElement:
    """The element of _reduce_full's rows (m, a, b, d), plus lm when given.
    Each row's d divides the last, the reduction's final denominator."""
    den = rows[-1][3] if rows else 1
    items = [(m, a * (den // d), b * (den // d)) for m, a, b, d in rows]
    if lm is not None:
        items.append((lm, den, 0))
    return _element(ring, den, items)


def _entry(lm: Monomial, rows) -> _Entry:
    """The entry of the monic multiple of Σ (a + b·i)·t over rows (t, a, b),
    integer numerators of a nonzero polynomial whose leading monomial is lm.
    The numerators are divided by their common content."""
    la, lb = next((a, b) for t, a, b in rows if t == lm)
    if lb == 0:
        den = la
        tail = [(t, a, b) for t, a, b in rows if t != lm]
    else:
        # (a + b·i)/(la + lb·i) = (a + b·i)(la - lb·i)/(la² + lb²)
        den = la * la + lb * lb
        tail = [(t, a * la + b * lb, b * la - a * lb) for t, a, b in rows if t != lm]
    g = gcd(den, *(a for _, a, _ in tail), *(b for _, _, b in tail))
    if den < 0:
        g = -g
    return lm, den // g, [(t, a // g, b // g) for t, a, b in tail]


def _element_entry(g: RingElement) -> _Entry:
    work, _ = _rows(g)
    return _entry(g.leading_term()[0], [(t, a, b) for t, (a, b) in work.items()])


def _reduce_full(work: dict, den: int, basis: list[_Entry]) -> list:
    """Full division remainder of (1/den)·Σ (a + b·i)·m over the items
    m: [a, b] of work (which it consumes) by the entries of basis: no
    monomial of the result is divisible by a basis leading monomial.

    Returns the remainder's rows (m, a, b, d), each the term (a + b·i)/d·m,
    in descending graded-lex order.  A term is divided by the first entry
    whose leading monomial divides it.  When that entry's denominator does
    not divide the term's numerators, the work and its denominator are
    multiplied by the missing factor, so every numerator stays an integer.
    """
    heap = [(_desc(m), m) for m in work]
    heapify(heap)
    out = []
    while heap:
        m = heappop(heap)[1]
        a, b = work.pop(m)
        if not a and not b:
            continue
        for lm, dg, tail in basis:
            if _divides(lm, m):
                break
        else:
            out.append((m, a, b, den))
            continue
        # subtract (a + b·i)/den · q·g, where q·lm = m
        g = gcd(a, b, dg)
        if g != dg:
            s = dg // g
            den *= s
            for w in work.values():
                w[0] *= s
                w[1] *= s
        a //= g
        b //= g
        q = _mono_div(m, lm)
        for t, ta, tb in tail:
            t = _mono_mul(q, t)
            w = work.get(t)
            if w is None:
                work[t] = [b * tb - a * ta, -a * tb - b * ta]
                heappush(heap, (_desc(t), t))
            else:
                w[0] -= a * ta - b * tb
                w[1] -= a * tb + b * ta
    return out


def _spoly(f: _Entry, g: _Entry) -> tuple[dict, int]:
    """The S-polynomial of two entries as a work dict and its denominator;
    the leading terms cancel and are left out."""
    (fm, fd, ftail), (gm, gd, gtail) = f, g
    m = _lcm(fm, gm)
    den = lcm(fd, gd)
    work: dict = {}
    for tail, d, sign, q in (
        (ftail, fd, 1, _mono_div(m, fm)),
        (gtail, gd, -1, _mono_div(m, gm)),
    ):
        s = sign * (den // d)
        for t, a, b in tail:
            t = _mono_mul(q, t)
            w = work.get(t)
            if w is None:
                work[t] = [s * a, s * b]
            else:
                w[0] += s * a
                w[1] += s * b
    return work, den


def buchberger(gens: list[RingElement]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Buchberger's algorithm as installed by Gebauer and Möller (J. Symbolic
    Comput. 6, 1988).  The generators enter in ascending order of leading
    monomial, each first reduced by the basis so far; every nonzero
    remainder enters monic through _update, which applies the product and
    chain criteria.  Pairs are taken by the normal selection strategy: the
    pending pair with the smallest lcm in graded lex, ties broken by the
    indices of its elements.  Raises EmptyIdeal when no nonzero generators
    are supplied and InvalidInput on quotient rings.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise EmptyIdeal("no nonzero generators")
    ring = gens[0].ring
    if ring.relation is not None:
        raise InvalidInput("Groebner bases are computed over relation-free rings")
    basis: list[_Entry] = []  # every element that entered, by index
    active: list[int] = []  # the current basis, ascending leading monomial
    pairs: list[tuple] = []  # pending (monomial_key(lcm), i, j, lcm), i < j
    for g in sorted(gens, key=lambda g: monomial_key(g.leading_term()[0])):
        work, den = _rows(g)
        _update(basis, active, pairs, _reduce_full(work, den, [basis[k] for k in active]))
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        work, den = _spoly(basis[pair[1]], basis[pair[2]])
        _update(basis, active, pairs, _reduce_full(work, den, [basis[k] for k in active]))
    return _interreduce(ring, [basis[k] for k in active])


def _update(basis: list[_Entry], active: list[int], pairs: list, rows: list) -> None:
    """Gebauer–Möller update for a remainder's rows (m, a, b, d), which
    enter the basis as a monic entry h unless they are empty.

    Of the new pairs (g, h), the chain criterion keeps one pair for each
    lcm that no other new lcm divides, and the product criterion then drops
    those with coprime leading monomials (they prune the others first).  An
    old pending pair goes when lm(h) divides its lcm and neither of its new
    lcms with h equals it.  Elements whose leading monomial lm(h) divides
    leave the active basis.
    """
    if not rows:
        return
    top = rows[-1][3]  # the last and largest denominator
    mh = rows[0][0]  # rows come in descending order
    h = _entry(mh, [(m, a * (top // d), b * (top // d)) for m, a, b, d in rows])
    k = len(basis)
    basis.append(h)
    new = [(_lcm(basis[g][0], mh), g) for g in active]
    kept = []
    for n, (m, g) in enumerate(new):
        if _mono_mul(basis[g][0], mh) == m or not (
            any(_divides(m2, m) for m2, _ in new[n + 1 :])
            or any(_divides(m2, m) for m2, _ in kept)
        ):
            kept.append((m, g))
    pairs[:] = [
        p
        for p in pairs
        if not _divides(mh, p[3])
        or _lcm(basis[p[1]][0], mh) == p[3]
        or _lcm(basis[p[2]][0], mh) == p[3]
    ]
    pairs.extend(
        (monomial_key(m), g, k, m) for m, g in kept if _mono_mul(basis[g][0], mh) != m
    )
    active[:] = [g for g in active if not _divides(mh, basis[g][0])]
    insort(active, k, key=lambda j: monomial_key(basis[j][0]))


def _interreduce(ring: GradedRing, basis: list[_Entry]) -> GroebnerBasis:
    """The reduced basis from a basis in ascending order of leading
    monomial, none of which divides another: each tail reduced by the
    other entries."""
    final: list[RingElement] = []
    for k, (lm, den, tail) in enumerate(basis):
        work = {t: [a, b] for t, a, b in tail}
        final.append(_remainder(ring, _reduce_full(work, den, basis[:k] + basis[k + 1 :]), lm))
    return GroebnerBasis(ring, final)


def ideal_nf(p: RingElement, G: GroebnerBasis) -> RingElement:
    """Canonical normal form of p modulo the ideal of G."""
    if p.is_zero():
        return p
    work, den = _rows(p)
    return _remainder(p.ring, _reduce_full(work, den, [_element_entry(g) for g in G.elements]))


def standard_monomials(G: GroebnerBasis) -> list[Monomial] | Infinite | Capped:
    """Monomials outside the leading-term ideal, sorted; Infinite or Capped.

    The quotient is finite-dimensional iff every variable has a pure power
    among the leading monomials (Infinite names a variable without one);
    enumeration stops past STANDARD_MONOMIAL_CAP monomials and returns
    Capped.
    """
    lms = G.leading_monomials()
    if G.contains_unit():
        return []
    ring = G.ring
    bounds = []
    for v in range(ring.nvars):
        pure = [
            m[v]
            for m in lms
            if m[v] > 0 and all(m[w] == 0 for w in range(ring.nvars) if w != v)
        ]
        if not pure:
            return Infinite(f"no pure power of {ring.variables[v]} in the leading ideal")
        bounds.append(min(pure))
    out: list[Monomial] = []
    stack = [(0,) * ring.nvars]
    seen = {stack[0]}
    while stack:
        m = stack.pop()
        if any(_divides(lm, m) for lm in lms):
            continue
        out.append(m)
        if len(out) > STANDARD_MONOMIAL_CAP:
            return Capped(STANDARD_MONOMIAL_CAP)
        for v in range(ring.nvars):
            if m[v] + 1 < bounds[v]:
                nxt = m[:v] + (m[v] + 1,) + m[v + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return sorted(out, key=monomial_key)


def jacobian_ideal(f: RingElement) -> list[RingElement]:
    """The nonzero partial derivatives of f; ZeroJacobianIdeal if all vanish."""
    partials = [f.derivative(v) for v in f.ring.variables]
    partials = [p for p in partials if not p.is_zero()]
    if not partials:
        raise ZeroJacobianIdeal(f"all partial derivatives of {f} vanish")
    return partials
