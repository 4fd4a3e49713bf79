"""The reference Hochschild complex that tier-1 compares tr_nabla against.

The chain route of curvedchern.hochschild pushes one class along one
morphism and traces it; these are the maps around it that the paper's
chain-map identities are stated with, on chains of one object (a
trivial-differential module presented by an idempotent e over a curved
algebra (A, h)):

- the Hochschild boundary b = b2 + b0 (composition and curvature
  insertion), Connes' B and the reduced complex, all with the usual
  Koszul signs on parity-homogeneous slots;
- hkr, a_0[a_1|...|a_n] -> a_0 da_1...da_n / n! on the algebra itself;
- the seeded chains the tests draw, and the running-sum pushforward the
  engine's pushforward is pinned against.

tr_nabla intertwines b2 + uB with u·d and b0 with dh∧, and equals hkr on
flat ring chains; tests/test_hochschild.py checks both.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial

from curvedchern import hochschild
from curvedchern.errors import InvalidInput
from curvedchern.forms import DiffForm, USeries, de_rham_d
from curvedchern.hochschild import Chain
from curvedchern.matform import Mat
from curvedchern.modules import CurvedAlgebra, CurvedModule, connection_with_mu, levi_civita
from curvedchern.randomgen import (
    _invert_unipotent,
    _rand_coeff,
    _unipotent,
    random_mu,
    random_poly,
    random_ring,
)
from curvedchern.rings import GradedRing, RingElement
from curvedchern.scalars import ONE, Scalar


class ChainSum(hochschild.ChainSum):
    """A chain sum on the object `obj` (a module whose e presents it and
    whose algebra holds h), with the arithmetic of the complex."""

    __slots__ = ("obj",)

    def __init__(self, obj, terms=()):
        super().__init__(terms)
        self.obj = obj

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "ChainSum") -> "ChainSum":
        return ChainSum(self.obj, self.terms() + other.terms())

    def __sub__(self, other: "ChainSum") -> "ChainSum":
        return self + other.scale(Scalar(-1))

    def __neg__(self) -> "ChainSum":
        return self.scale(Scalar(-1))

    def scale(self, c: Scalar) -> "ChainSum":
        return ChainSum(self.obj, [(coeff * c, ch) for coeff, ch in self.terms()])

    def shift_u(self, k: int) -> "ChainSum":
        return ChainSum(
            self.obj, [(coeff, Chain(ch.u_exp + k, ch.slots, ch.degrees)) for coeff, ch in self.terms()]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, hochschild.ChainSum) and (
            {k: v[0] for k, v in self._terms.items()} == {k: v[0] for k, v in other._terms.items()}
        )


def chain(obj, head, tail=(), *, coeff: Scalar = ONE, u_exp: int = 0) -> ChainSum:
    """coeff·u^u_exp·head[tail...] on obj.  A bare ring entry is a slot of
    a rank-one object.  Each slot is checked for e-support and split into
    its parity components: a chain is multilinear in each slot, so an
    inhomogeneous slot becomes the sum over component choices."""
    e = obj.e
    parts = []
    for i, raw in enumerate([head, *tail]):
        X = raw if isinstance(raw, Mat) else Mat(obj.ring, obj.degrees, obj.degrees, [[raw]])
        if e @ X @ e != X:
            raise InvalidInput(f"slot {i} is not supported on the presented images")
        parts.append(sorted(X.parity_components().items()))
    return ChainSum(obj, [
        (coeff, Chain(u_exp, [m for _, m in combo], [p for p, _ in combo])) for combo in product(*parts)
    ])


def push(beta, c: ChainSum, n_max: int) -> ChainSum:
    """hochschild.pushforward, as a chain sum of the reference complex."""
    return ChainSum(c.obj, hochschild.pushforward(beta, c, n_max).terms())


def reference_pushforward(beta, c: ChainSum, n_max: int) -> ChainSum:
    """hochschild.pushforward as first written: each emitted chain is built
    by chain() and added to the running sum, which re-canonicalizes the
    whole sum every time."""
    out = ChainSum(c.obj)
    for coeff, ch in c.terms():
        n = ch.n
        budget = n_max - n
        if budget < 0:
            continue
        for counts in product(range(budget + 1), repeat=n + 1):
            if sum(counts) > budget:
                continue
            slots: list = []
            for k in range(n + 1):
                if k > 0:
                    slots.append(ch.slots[k])
                slots += [beta] * counts[k]
            out = out + chain(
                c.obj, ch.slots[0], slots, coeff=coeff * _sgn(sum(counts)), u_exp=ch.u_exp
            )
    return out


# -- boundary maps -----------------------------------------------------


def _sgn(exponent: int) -> Scalar:
    return Scalar(1) if exponent % 2 == 0 else Scalar(-1)


def b2(c: ChainSum) -> ChainSum:
    """The composition part of the Hochschild boundary.

    For j = 0..n-1 the slots a_j, a_{j+1} compose with sign
    (-1)^{|a_0|+...+|a_j| - j}; the cyclic term moves a_n to the front
    with sign -(-1)^{(|a_n|-1)(|a_0|+...+|a_{n-1}|-(n-1))}.
    """
    out = []
    for coeff, ch in c.terms():
        n = ch.n
        if n == 0:
            continue
        d = ch.degrees
        for j in range(n):
            sign = _sgn(sum(d[: j + 1]) - j)
            slots = ch.slots[:j] + (ch.slots[j] @ ch.slots[j + 1],) + ch.slots[j + 2 :]
            degs = d[:j] + (d[j] + d[j + 1],) + d[j + 2 :]
            out.append((coeff * sign, Chain(ch.u_exp, slots, degs)))
        exp = (d[n] - 1) * (sum(d[:n]) - (n - 1)) + 1
        slots = (ch.slots[n] @ ch.slots[0],) + ch.slots[1:n]
        degs = (d[n] + d[0],) + d[1:n]
        out.append((coeff * _sgn(exp), Chain(ch.u_exp, slots, degs)))
    return ChainSum(c.obj, out)


def curvature_endo(obj) -> Mat:
    """h·e, the slot that b0 inserts."""
    return obj.e.scale_ring(obj.algebra.h)


def b0(c: ChainSum) -> ChainSum:
    """Curvature insertion: h·e enters after slot j with sign
    (-1)^{|a_0|+...+|a_j| - j}, for j = 0..n."""
    ins = curvature_endo(c.obj)
    out = []
    for coeff, ch in c.terms():
        d = ch.degrees
        for j in range(ch.n + 1):
            sign = _sgn(sum(d[: j + 1]) - j)
            slots = ch.slots[: j + 1] + (ins,) + ch.slots[j + 1 :]
            degs = d[: j + 1] + (0,) + d[j + 1 :]
            out.append((coeff * sign, Chain(ch.u_exp, slots, degs)))
    return ChainSum(c.obj, out)


def reduce_chain(c: ChainSum) -> ChainSum:
    """Canonical surjection onto the reduced complex: drop every term in
    which some tail slot is a Scalar multiple of the identity e."""
    e = c.obj.e
    return ChainSum(c.obj, [
        (coeff, ch) for coeff, ch in c.terms()
        if all(_identity_multiple(e, slot) is None for slot in ch.slots[1:])
    ])


def _identity_multiple(e: Mat, slot: Mat) -> Scalar | None:
    """The scalar lam with slot = lam·e, or None."""
    for t, row in enumerate(e.rows):
        for s, ent in row.items():
            # lam is fixed by one term of one stored entry of e
            J, form = next(iter(ent.coeffs.items()))
            S, poly = next(iter(form.parts.items()))
            mono, cval = next(iter(poly.terms.items()))
            other = slot.entry(t, s).coefficient(J).coefficient(S)
            lam = other.terms.get(mono, Scalar(0)) * cval.inv()
            return lam if slot == e.scale(lam) else None
    return None  # rank-zero object: only the zero slot, already dropped


def connes_B(c: ChainSum) -> ChainSum:
    """Connes' boundary on the reduced complex.

    Every rotation point l contributes 1[a_l|...|a_n|a_0|...|a_{l-1}]
    with the Koszul sign of swapping the two blocks,
    (-1)^{(|a_l|+...+|a_n|-(n-l+1))(|a_0|+...+|a_{l-1}|-l)}; the output
    is reduced.
    """
    e = c.obj.e
    out = []
    for coeff, ch in c.terms():
        n = ch.n
        d = ch.degrees
        for l in range(n + 1):
            exp = (sum(d[l:]) - (n - l + 1)) * (sum(d[:l]) - l)
            slots = (e,) + ch.slots[l:] + ch.slots[:l]
            degs = (0,) + d[l:] + d[:l]
            out.append((coeff * _sgn(exp), Chain(ch.u_exp, slots, degs)))
    return reduce_chain(ChainSum(c.obj, out))


def truncate_length(c: ChainSum, n_max: int) -> ChainSum:
    """Drop all terms of tensor length above n_max (for comparing
    pushforward compositions, which only agree on truncations)."""
    return ChainSum(c.obj, [(coeff, ch) for coeff, ch in c.terms() if ch.n <= n_max])


def expand_multilinear(c: ChainSum) -> ChainSum:
    """Split every slot into single-entry, single-monomial pieces with
    the scalars folded into the coefficients.

    ChainSum canonicalization merges structurally equal chains only;
    tensor slots are multilinear, so sums built along different routes
    (say a pushforward by beta1 + beta2 versus two passes) can differ
    formally while being the same chain.  This expansion is the common
    refinement on which such sums become comparable.
    """
    out = []
    for coeff, ch in c.terms():
        per_slot = []
        for slot in ch.slots:
            pieces = []
            for t, row in enumerate(slot.rows):
                for s, v in sorted(row.items()):
                    terms = [(J, S, p) for J, f in v.coeffs.items() for S, p in f.parts.items()]
                    for J, S, poly in sorted(terms, key=lambda x: x[:2]):
                        for mono, cval in sorted(poly.terms.items()):
                            entries = [[0] * len(slot.source_degrees) for _ in slot.rows]
                            monomial = slot.ring.element({mono: ONE})
                            entries[t][s] = USeries.from_form(DiffForm(slot.ring, {S: monomial}), J)
                            elem = Mat(slot.ring, slot.target_degrees, slot.source_degrees, entries)
                            pieces.append((cval, elem))
            per_slot.append(pieces)
        for combo in product(*per_slot):
            k = coeff
            for cval, _ in combo:
                k = k * cval
            out.append((k, Chain(ch.u_exp, [m for _, m in combo], ch.degrees)))
    return ChainSum(c.obj, out)


# -- hkr ---------------------------------------------------------------


def _ring_entry(v: USeries) -> RingElement:
    if any(key != (0, 0) for key in v.groups):
        raise InvalidInput("chain slot carries form or u content")
    return RingElement._make(v.ring, v.den, v.width, v.groups)


def hkr(c: ChainSum) -> DiffForm:
    """a_0[a_1|...|a_n] -> a_0 da_1∧...∧da_n / n! on a rank-one object
    (1x1 slots: the algebra itself)."""
    acc = DiffForm.zero(c.obj.ring)
    for coeff, ch in c.terms():
        if ch.u_exp:
            raise InvalidInput("hkr is defined on u-free chains")
        if any(len(s.target_degrees) != 1 or len(s.source_degrees) != 1 for s in ch.slots):
            raise InvalidInput("hkr needs 1x1 (ring element) slots")
        form = DiffForm.from_ring(_ring_entry(ch.slots[0].entry(0, 0)))
        for s in ch.slots[1:]:
            form = form.wedge(de_rham_d(DiffForm.from_ring(_ring_entry(s.entry(0, 0)))))
        acc = acc + form.scale(coeff * Scalar(Fraction(1, factorial(ch.n))))
    return acc


# -- seeded chains -----------------------------------------------------


def _constant_idempotent(rng: random.Random, ring: GradedRing, degrees) -> Mat:
    """g·diag(1..1,0..0)·g^{-1} for a constant unipotent g: a genuinely
    non-free presentation with polynomial-free entries."""
    rank = rng.randint(1, len(degrees))
    n = len(degrees)
    e0 = Mat(ring, degrees, degrees, [[int(t == s and s < rank) for s in range(n)] for t in range(n)])
    g = _unipotent(rng, ring, degrees)
    return g @ e0 @ _invert_unipotent(g)


def _random_slot(rng: random.Random, obj, max_terms: int) -> Mat:
    """e·X·e for a matrix X of random entries of up to max_terms terms."""
    ring, degrees = obj.ring, obj.degrees
    raw = Mat(ring, degrees, degrees, [
        [random_poly(rng, ring, max_terms=max_terms, allow_zero=True) for _ in degrees]
        for _ in degrees
    ])
    return obj.e @ raw @ obj.e


def random_chain_setup(seed: int, *, max_size: int = 3, max_n: int = 3, dense: bool = False):
    """A seeded (object, connection, chain sum) triple.

    The object is a trivial-differential module over a relation-free ring
    with a (possibly zero) curvature h, free or presented by a constant
    idempotent; its connection is Levi-Civita or perturbed; slots are
    random e-supported matrices, split into homogeneous components by
    chain().  dense=True draws what both chain-map identities need to see
    something: at least two variables, h != 0, at most nvars - 1 tail
    slots (so a boundary's chains still trace to forms of degree <= nvars)
    and nonzero slots of entries with up to three terms.
    """
    rng = random.Random(f"{'dense-' if dense else ''}chain:{seed}")
    if dense:
        nvars = rng.randint(2, 3)
        ring = GradedRing(("x", "y", "z")[:nvars], [0] * nvars, grading="Z2")
        h = random_poly(rng, ring)
    else:
        ring = random_ring(rng, grading="Z2")
        h = random_poly(rng, ring, allow_zero=True) if rng.random() < 0.8 else ring.zero()
    size = rng.randint(1, max_size)
    degrees = tuple(rng.randint(0, 1) for _ in range(size))
    e = _constant_idempotent(rng, ring, degrees) if rng.random() < 0.35 else Mat.identity(ring, degrees)
    obj = CurvedModule(CurvedAlgebra(ring, h), degrees, Mat.zero(ring, degrees, degrees), e=e)
    C = levi_civita(obj)
    if rng.random() < 0.5:
        mu = e @ random_mu(rng, ring, degrees) @ e
        if not mu.is_zero():
            C = connection_with_mu(obj, mu)
    n = rng.randint(0, min(max_n, ring.nvars - 1) if dense else max_n)
    slots = []
    while len(slots) < n + 1:
        slot = _random_slot(rng, obj, 3 if dense else 1)
        if not slot.is_zero():
            slots.append(slot)
    return obj, C, chain(obj, slots[0], slots[1:], coeff=_rand_coeff(rng))


def random_ring_chain(seed: int, *, max_n: int = 3, max_vars: int = 3, with_h: bool = False):
    """A seeded chain on the rank-one object of the ring itself (1x1
    slots), with the flat de Rham connection."""
    rng = random.Random(f"ring-chain:{seed}")
    ring = random_ring(rng, max_vars=max_vars, grading="Z2")
    h = random_poly(rng, ring) if with_h else ring.zero()
    obj = CurvedModule(CurvedAlgebra(ring, h), (0,), Mat.zero(ring, (0,), (0,)))
    n = rng.randint(0, max_n)
    head = random_poly(rng, ring)
    tail = [random_poly(rng, ring) for _ in range(n)]
    return obj, levi_civita(obj), chain(obj, head, tail, coeff=_rand_coeff(rng))
