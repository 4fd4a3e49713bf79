"""Buchberger's algorithm, ideal normal forms, and standard monomials.

Everything here runs over relation-free rings.  The division these
algorithms reduce by, rings._reduce_full, is the one the quotient ring
uses for its normal form, dividing by its relation's entry alone (one
polynomial is a Groebner basis of the ideal it generates).  The monomial
order is the ring's graded lex order throughout.

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
from math import lcm

from .errors import EmptyIdeal, InvalidInput, ZeroJacobianIdeal
from .rings import (
    GradedRing,
    Monomial,
    RingElement,
    _divides,
    _element,
    _element_entry,
    _entry,
    _Entry,
    _mono_div,
    _mono_mul,
    _reduce_full,
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


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _rows(p: RingElement) -> tuple[dict, int]:
    """p as reduction's work dict {m: [a, b]} over the denominator den:
    p = (1/den)·Σ (a + b·i)·m."""
    unpack = p.ring._packing(p.width)[1]
    return {unpack[k][0]: [a, b] for k, a, b in p.rows}, p.den


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
        _update(basis, active, pairs, _reduce_full(work, den, [basis[k] for k in active])[1])
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        work, den = _spoly(basis[pair[1]], basis[pair[2]])
        _update(basis, active, pairs, _reduce_full(work, den, [basis[k] for k in active])[1])
    return _interreduce(ring, [basis[k] for k in active])


def _update(basis: list[_Entry], active: list[int], pairs: list, rows: list) -> None:
    """Gebauer–Möller update for a remainder's rows (m, a, b), integer
    numerators over one denominator, which enter the basis as a monic
    entry h unless they are empty.

    Of the new pairs (g, h), the chain criterion keeps one pair for each
    lcm that no other new lcm divides, and the product criterion then drops
    those with coprime leading monomials (they prune the others first).  An
    old pending pair goes when lm(h) divides its lcm and neither of its new
    lcms with h equals it.  Elements whose leading monomial lm(h) divides
    leave the active basis.
    """
    if not rows:
        return
    mh = rows[0][0]  # rows come in descending order
    h = _entry(mh, rows)
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
        den, rows = _reduce_full(work, den, basis[:k] + basis[k + 1 :])
        final.append(_element(ring, den, rows + [(lm, den, 0)]))
    return GroebnerBasis(ring, final)


def ideal_nf(p: RingElement, G: GroebnerBasis) -> RingElement:
    """Canonical normal form of p modulo the ideal of G."""
    if p.is_zero():
        return p
    work, den = _rows(p)
    return _element(p.ring, *_reduce_full(work, den, [_element_entry(g) for g in G.elements]))


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
