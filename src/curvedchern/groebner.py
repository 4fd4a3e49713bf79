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
selection).  Reduction runs on the integer rows ring elements are kept
in, packed graded-lex monomials (rings._Glex, whose int order is the
monomial order), so an element's rows are its work as they stand: an
element enters the basis monic, as an entry of its leading monomial, one
denominator and the integer numerators of its tail, built once and kept
on the basis for ideal_nf.  A run starts at the width that holds its
generators' degrees; no division raises a degree, so only an lcm can
pass the width, and then the basis and the pending pairs are repacked at
twice the width and the run goes on.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from math import lcm

from .errors import EmptyIdeal, InvalidInput, ZeroJacobianIdeal
from .rings import (
    _KEY,
    GradedRing,
    Monomial,
    RingElement,
    _entry,
    _Entry,
    _glex,
    _Glex,
    _reduce_full,
    _repack,
    _repacked,
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
    """A reduced, monic Groebner basis sorted by leading monomial, and its
    elements' entries in the layout glex (None when built from elements)."""

    ring: GradedRing
    elements: list[RingElement] = field(default_factory=list)
    glex: _Glex | None = field(default=None, compare=False)
    entries: list[_Entry] = field(default_factory=list, compare=False)

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_term()[0] for g in self.elements]

    def contains_unit(self) -> bool:
        return any(g.total_degree() == 0 for g in self.elements)


def _rows(p: RingElement, glex: _Glex) -> tuple[dict, int]:
    """p = (1/den)·Σ (a + b·i)·m as reduction's work {m: [a, b]} at glex's width, and den."""
    return {k: [a, b] for k, a, b in _repack(p.ring, p.rows, p.width, glex.width)}, p.den


def _spoly(f: _Entry, g: _Entry, m: int) -> tuple[dict, int]:
    """The S-polynomial of two entries whose leading monomials have the lcm m
    as a work dict and its denominator, the leading terms left out."""
    (fm, fd, ftail), (gm, gd, gtail) = f, g
    den = lcm(fd, gd)
    work: dict = {}
    for tail, d, sign, q in ((ftail, fd, 1, m - fm), (gtail, gd, -1, m - gm)):
        s = sign * (den // d)
        for t, a, b in tail:
            t += q
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
    glex = _Glex.holding(ring.nvars, max(g.total_degree() for g in gens))
    # all entered elements; the basis, by ascending lead; pairs (lcm, i, j)
    basis, active, pairs = [], [], []
    for g in sorted(gens, key=lambda g: monomial_key(g.leading_term()[0])):
        glex = _update(glex, basis, active, pairs, *_rows(g, glex))
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        glex = _update(glex, basis, active, pairs, *_spoly(basis[pair[1]], basis[pair[2]], pair[0]))
    return _interreduce(ring, glex, [basis[k] for k in active])


def _update(glex: _Glex, basis: list[_Entry], active: list[int], pairs: list, work: dict, den: int) -> _Glex:
    """Gebauer–Möller update for the remainder of a work dict over den by
    the active basis, which enters the basis as a monic entry h unless it
    is zero.

    Of the new pairs (g, h), the chain criterion keeps one pair for each
    lcm that no other new lcm divides, and the product criterion then drops
    those with coprime leading monomials (they prune the others first).  An
    old pending pair goes when lm(h) divides its lcm and neither of its new
    lcms with h equals it.  Elements whose leading monomial lm(h) divides
    leave the active basis.  Returns the layout of the basis and the
    pairs: glex, or twice its width when a new lcm reaches a guard bit,
    and then the basis and the pairs are repacked at that width first.
    """
    rows = _reduce_full(work, den, [basis[k] for k in active], glex.guard)[1]
    if not rows:
        return glex
    k = len(basis)
    basis.append(_entry(rows))
    new = [(glex.lcm(basis[g][0], rows[0][0]), g) for g in active]  # rows come in descending order
    if any(m & glex.guard for m, _ in new):
        glex = _widened(glex, basis, pairs)
        new = [(glex.lcm(basis[g][0], basis[k][0]), g) for g in active]
    G = glex.guard  # a divides b iff ((b | G) - a) & G == G
    mh = basis[k][0]
    kept = []
    for n, (m, g) in enumerate(new):
        mg = m | G
        if basis[g][0] + mh == m or not any((mg - m2) & G == G for m2, _ in new[n + 1 :] + kept):
            kept.append((m, g))
    pairs[:] = [p for p in pairs if ((p[0] | G) - mh) & G != G or p[0] in {glex.lcm(basis[j][0], mh) for j in p[1:]}]
    pairs.extend((m, g, k) for m, g in kept if basis[g][0] + mh != m)
    active[:] = [g for g in active if ((basis[g][0] | G) - mh) & G != G]
    insort(active, k, key=lambda j: basis[j][0])
    return glex


def _widened(glex: _Glex, basis: list[_Entry], pairs: list) -> _Glex:
    """The layout of twice glex's width, the basis and the pairs (lcm, i,
    j) repacked at it in place; it holds the lcm of any two monomials of
    glex."""
    wide = _glex(glex.nvars, 2 * glex.width)
    for n, (lm, den, tail) in enumerate(basis):
        lm, *keys = _repacked(glex.nvars, [lm] + [t for t, _, _ in tail], glex.width, wide.width)
        basis[n] = (lm, den, [(t, a, b) for t, (_, a, b) in zip(keys, tail)])
    lcms = _repacked(glex.nvars, [p[0] for p in pairs], glex.width, wide.width)
    pairs[:] = [(m, i, j) for m, (_, i, j) in zip(lcms, pairs)]
    return wide


def _interreduce(ring: GradedRing, glex: _Glex, basis: list[_Entry]) -> GroebnerBasis:
    """The reduced basis from a basis in ascending order of leading
    monomial, none of which divides another: each tail reduced by the
    other entries."""
    final, entries = [], []
    for k, (lm, den, tail) in enumerate(basis):
        den, rows = _reduce_full({t: [a, b] for t, a, b in tail}, den, basis[:k] + basis[k + 1 :], glex.guard)
        rows.insert(0, (lm, den, 0))
        final.append(RingElement._reduced(ring, den, glex.width, {_KEY: rows}))
        entries.append(_entry(rows))
    return GroebnerBasis(ring, final, glex, entries)


def ideal_nf(p: RingElement, G: GroebnerBasis) -> RingElement:
    """Canonical normal form of p modulo the ideal of G."""
    if p.is_zero():
        return p
    glex, entries = G.glex, G.entries
    if glex is None or p.total_degree() >> (glex.width - 1):  # repack wider
        glex = _Glex.holding(p.ring.nvars, max(g.total_degree() for g in G.elements + [p]))
        entries = [_entry(_repack(g.ring, g.rows, g.width, glex.width)) for g in G.elements]
    den, rows = _reduce_full(*_rows(p, glex), entries, glex.guard)
    return RingElement._reduced(p.ring, den, glex.width, {_KEY: rows} if rows else {})


def standard_monomials(G: GroebnerBasis) -> list[Monomial] | Infinite | Capped:
    """Monomials outside the leading-term ideal, sorted; Infinite or Capped.

    The quotient is finite-dimensional iff every variable has a pure power
    among the leading monomials (Infinite names a variable without one);
    enumeration stops past STANDARD_MONOMIAL_CAP monomials and returns
    Capped.  The staircase walk keeps, for each prefix (e_1 .. e_v), the
    leading monomials whose prefix divides it, and stops the level at the
    least e_v of one of them with no later variable.
    """
    lms = G.leading_monomials()
    if G.contains_unit():
        return []
    ring = G.ring
    for v in range(ring.nvars):
        if not any(m[v] and not any(m[:v]) and not any(m[v + 1 :]) for m in lms):
            return Infinite(f"no pure power of {ring.variables[v]} in the leading ideal")
    out, stack = [], [((), lms)]
    while stack:
        prefix, kept = stack.pop()
        v = len(prefix)
        stop = min(m[v] for m in kept if not any(m[v + 1 :]))  # x_v's pure power is one
        if v < ring.nvars - 1:
            stack += [(prefix + (e,), [m for m in kept if m[v] <= e]) for e in range(stop)]
            continue
        out += [prefix + (e,) for e in range(stop)]
        if len(out) > STANDARD_MONOMIAL_CAP:
            return Capped(STANDARD_MONOMIAL_CAP)
    return sorted(out, key=monomial_key)


def jacobian_ideal(f: RingElement) -> list[RingElement]:
    """The nonzero partial derivatives of f; ZeroJacobianIdeal if all vanish."""
    partials = [f.derivative(v) for v in f.ring.variables]
    partials = [p for p in partials if not p.is_zero()]
    if not partials:
        raise ZeroJacobianIdeal(f"all partial derivatives of {f} vanish")
    return partials
