"""Buchberger's algorithm, ideal normal forms, and Milnor numbers.

Everything here runs over relation-free rings (the quotient-ring cases the
engine needs are handled upstream by the single-relation normal form).  The
monomial order is the ring's graded lex order throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyIdeal, InvalidInput, ZeroJacobianIdeal
from .rings import (
    GradedRing,
    Monomial,
    RingElement,
    _divides,
    _mono_div,
    _mono_mul,
    monomial_key,
    sum_of_products,
)
from .scalars import Scalar

STANDARD_MONOMIAL_CAP = 10000


@dataclass(frozen=True)
class Infinite:
    """Marker for an infinite-dimensional quotient, with the reason."""

    reason: str


@dataclass
class GroebnerBasis:
    """A reduced, monic Groebner basis sorted by leading monomial."""

    ring: GradedRing
    elements: list[RingElement] = field(default_factory=list)

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_term()[0] for g in self.elements]

    def contains_unit(self) -> bool:
        return any(g.total_degree() == 0 for g in self.elements)


def _reduce_full(p: RingElement, basis: list[RingElement]) -> RingElement:
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


def _spoly(f: RingElement, g: RingElement) -> RingElement:
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    ring = f.ring
    tf = RingElement(ring, {_mono_div(lcm, fm): fc.inv()}, _normalize=False)
    tg = RingElement(ring, {_mono_div(lcm, gm): gc.inv()}, _normalize=False)
    got = sum_of_products(ring, ((None, 1, tf, f), (None, -1, tg, g)))
    return got[None] if got else ring.zero()


def buchberger(gens: list[RingElement]) -> GroebnerBasis:
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
        r = _reduce_full(_spoly(fa, fb), basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _interreduce(ring, basis)


def _interreduce(ring: GradedRing, basis: list[RingElement]) -> GroebnerBasis:
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
        r = _reduce_full(g, others)
        if r.is_zero():
            continue
        _, lc = r.leading_term()
        final.append(r.scale(lc.inv()))
    final.sort(key=lambda g: monomial_key(g.leading_term()[0]))
    return GroebnerBasis(ring, final)


def ideal_nf(p: RingElement, G: GroebnerBasis) -> RingElement:
    """Canonical normal form of p modulo the ideal of G."""
    return _reduce_full(p, G.elements)


def standard_monomials(G: GroebnerBasis) -> list[Monomial] | Infinite:
    """Monomials outside the leading-term ideal, sorted, or Infinite.

    The quotient is finite-dimensional iff every variable has a pure power
    among the leading monomials; enumeration is capped at
    STANDARD_MONOMIAL_CAP and reports the cap if exceeded.
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
            return Infinite(f"more than {STANDARD_MONOMIAL_CAP} standard monomials")
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


def milnor_number(f: RingElement) -> int | Infinite:
    """dim_k A/(df/dx_1, ..., df/dx_n), or Infinite for non-isolated f."""
    G = buchberger(jacobian_ideal(f))
    if G.contains_unit():
        return 0
    sm = standard_monomials(G)
    if isinstance(sm, Infinite):
        return sm
    return len(sm)
