"""Hochschild chains of the second kind and the chain-level trace.

This is the second, independent route to the Chern character.  Chains
live over a finite category whose objects are idempotent-presented
modules with trivial differential (curvature enters through the b0 map,
twists through pushforward along (id, beta) morphisms).  The boundary
maps b2/b0 and Connes' B carry the usual Koszul signs, every slot of
a chain being homogeneous with a recorded parity; inhomogeneous input is
split into homogeneous summands at construction.

tr_nabla turns a chain into a u-series of differential forms by
covariantly differentiating the tail slots and inserting curvature
powers in all gaps; its J-sum is finite because a word of tensor length
n with J curvature insertions is a form of degree n + 2J.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as cartesian
from math import factorial

from .errors import IncomposableChain, InvalidInput
from .forms import DiffForm, USeries, de_rham_d
from .matform import Mat, WordEvaluator, content_key
from .modules import (
    Connection,
    CurvedAlgebra,
    CurvedModule,
    covariant_derivative_pair,
    curvature_mat,
)
from .rings import RingElement
from .scalars import ONE, Scalar


class CategoryData:
    """A finite list of trivial-differential modules over one curved algebra.

    Hom(j, i) matrices have the ambient shape of i by the ambient shape of
    j and are supported on the presented images: e_i X e_j = X.  The
    curvature endomorphism of every object is h·e.
    """

    def __init__(self, algebra: CurvedAlgebra, objects):
        self.algebra = algebra
        self.objects = list(objects)
        # (target, source, slot content) -> the slot's parity components,
        # so each distinct slot is checked and split once per category
        self._split: dict = {}
        if not self.objects:
            raise InvalidInput("a chain category needs at least one object")
        for M in self.objects:
            if not M.ring.same_as(algebra.ring):
                raise InvalidInput("category objects must share the algebra's ring")
            if not M.delta.is_zero():
                raise InvalidInput("category objects must have trivial differential")
            if not M.e.has_operator_degree(0) or M.e @ M.e != M.e:
                raise InvalidInput("category object presentation must be an even idempotent")

    @classmethod
    def _of_checked_module(cls, M: CurvedModule) -> "CategoryData":
        """The one-object category of M with its differential stripped,
        built on what check_module proved of M: e is an even idempotent and
        e·delta·e = delta.  So the object is not checked again, and e and
        delta enter as slots already split, whose e-support chain does not
        check again either."""
        cat = object.__new__(cls)
        cat.algebra = M.algebra
        cat.objects = [CurvedModule(M.algebra, M.degrees, Mat.zero(M.ring, M.degrees, M.degrees), e=M.e)]
        cat._split = {(0, 0, content_key(X)): sorted(X.parity_components().items()) for X in (M.e, M.delta)}
        return cat

    @property
    def ring(self):
        return self.algebra.ring

    def identity(self, o: int) -> Mat:
        return self.objects[o].e

    def curvature_endo(self, o: int) -> Mat:
        """h·e, the slot that b0 inserts for this object."""
        return self.objects[o].e.scale_ring(self.algebra.h)


class Chain:
    """coeff-free chain datum a0[a1|...|an] with u-exponent and parities.

    Slot i maps object objects[i+1] (cyclically) to objects[i]; the
    recorded degrees are operator parities, which is all the boundary
    signs consume.
    """

    __slots__ = ("category", "u_exp", "objects", "slots", "degrees", "_keyc")

    def __init__(self, category, u_exp, objects, slots, degrees):
        self.category = category
        self.u_exp = int(u_exp)
        self.objects = tuple(objects)
        self.slots = tuple(slots)
        self.degrees = tuple(d % 2 for d in degrees)
        if not (len(self.objects) == len(self.slots) == len(self.degrees)):
            raise IncomposableChain("chain slot/object/degree lengths differ")
        self._keyc = None

    @property
    def n(self) -> int:
        return len(self.slots) - 1

    def key(self):
        if self._keyc is None:
            self._keyc = (
                self.u_exp,
                self.objects,
                tuple(content_key(slot) for slot in self.slots),
            )
        return self._keyc

    def has_zero_slot(self) -> bool:
        return any(s.is_zero() for s in self.slots)

    def __str__(self) -> str:
        def fmt(slot):
            disp = slot.display()
            if len(disp) == 1 and len(disp[0]) == 1:
                return str(disp[0][0])
            return "[" + "; ".join(", ".join(str(v) for v in r) for r in disp) + "]"

        head = fmt(self.slots[0])
        tail = " | ".join(fmt(s) for s in self.slots[1:])
        u = f"u^{self.u_exp}·" if self.u_exp else ""
        return f"{u}{head}[{tail}]"


class ChainSum:
    """Canonicalized Scalar-linear combination of chains.

    Equal chains (by Chain.key) are merged; terms keep the order in which
    their chains first appeared."""

    __slots__ = ("category", "_terms")

    def __init__(self, category, terms=()):
        self.category = category
        acc: dict = {}
        for coeff, ch in terms:
            if not coeff or ch.has_zero_slot():
                continue
            k = ch.key()
            if k in acc:
                merged = acc[k][0] + coeff
                if merged:
                    acc[k] = (merged, ch)
                else:
                    del acc[k]
            else:
                acc[k] = (coeff, ch)
        self._terms = acc

    @staticmethod
    def zero(category) -> "ChainSum":
        return ChainSum(category)

    def terms(self):
        return list(self._terms.values())

    def is_zero(self) -> bool:
        return not self._terms

    def _same_category(self, other):
        if self.category is not other.category:
            raise InvalidInput("chain sums live over different categories")

    def __add__(self, other: "ChainSum") -> "ChainSum":
        self._same_category(other)
        return ChainSum(self.category, list(self._terms.values()) + list(other._terms.values()))

    def __sub__(self, other: "ChainSum") -> "ChainSum":
        return self + other.scale(Scalar(-1))

    def __neg__(self) -> "ChainSum":
        return self.scale(Scalar(-1))

    def scale(self, c: Scalar) -> "ChainSum":
        return ChainSum(self.category, [(coeff * c, ch) for coeff, ch in self._terms.values()])

    def shift_u(self, k: int) -> "ChainSum":
        return ChainSum(
            self.category,
            [
                (coeff, Chain(ch.category, ch.u_exp + k, ch.objects, ch.slots, ch.degrees))
                for coeff, ch in self._terms.values()
            ],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainSum)
            and self.category is other.category
            and {k: v[0] for k, v in self._terms.items()}
            == {k: v[0] for k, v in other._terms.items()}
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({coeff})·{ch}" for coeff, ch in self.terms())


def _as_hom(category, tgt: int, src: int, value) -> Mat:
    ring = category.ring
    ti = category.objects[tgt].degrees
    si = category.objects[src].degrees
    if isinstance(value, Mat):
        if value.target_degrees != tuple(ti) or value.source_degrees != tuple(si):
            raise IncomposableChain(
                f"hom matrix shape does not match objects {tgt} <- {src}"
            )
        return value
    if len(ti) == 1 == len(si):
        return Mat(ring, ti, si, [[value]])
    raise InvalidInput("bare ring entries only make sense for 1x1 objects")


def chain(category, head, tail=(), *, objects=None, coeff: Scalar = ONE, u_exp: int = 0) -> ChainSum:
    """Build the canonical ChainSum for coeff·u^u_exp·head[tail...].

    The object cycle defaults to the single object 0.  Slots are checked
    for composability and e-support, then split into parity-homogeneous
    components (a chain is multilinear in each slot, so an inhomogeneous
    input becomes the sum over component choices).  Each distinct slot is
    checked and split once per category, however many chains carry it.
    """
    raw_slots = [head, *tail]
    n = len(raw_slots) - 1
    if objects is None:
        objects = (0,) * (n + 1)
    objects = tuple(int(o) for o in objects)
    if len(objects) != n + 1:
        raise IncomposableChain("object cycle length must be one more than the tail")
    if any(not 0 <= o < len(category.objects) for o in objects):
        raise InvalidInput("object index out of range")
    choices = [_slot_parts(category, i, objects[i], objects[(i + 1) % (n + 1)], raw)
               for i, raw in enumerate(raw_slots)]
    return ChainSum(category, _chains(category, coeff, u_exp, objects, choices))


def _slot_parts(category, i: int, tgt: int, src: int, raw) -> list:
    """Slot i, a hom tgt <- src, as its sorted parity components (parity,
    matrix), checked for e-support and split once per category."""
    X = _as_hom(category, tgt, src, raw)
    key = (tgt, src, content_key(X))
    parts = category._split.get(key)
    if parts is None:
        et, es = category.identity(tgt), category.identity(src)
        if et @ X @ es != X:
            raise InvalidInput(f"slot {i} is not supported on the presented images")
        parts = category._split[key] = sorted(X.parity_components().items())
    return parts


def _chains(category, coeff: Scalar, u_exp: int, objects: tuple, choices: list) -> list:
    """The terms (coeff, chain) of every choice of one component per slot."""
    return [
        (coeff, Chain(category, u_exp, objects, tuple(m for _, m in combo), tuple(p for p, _ in combo)))
        for combo in cartesian(*choices)
    ]


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
            merged = ch.slots[j] @ ch.slots[j + 1]
            slots = ch.slots[:j] + (merged,) + ch.slots[j + 2 :]
            objs = ch.objects[: j + 1] + ch.objects[j + 2 :]
            degs = d[:j] + (d[j] + d[j + 1],) + d[j + 2 :]
            out.append(
                (coeff * sign, Chain(ch.category, ch.u_exp, objs, slots, degs))
            )
        exp = (d[n] - 1) * (sum(d[:n]) - (n - 1)) + 1
        merged = ch.slots[n] @ ch.slots[0]
        slots = (merged,) + ch.slots[1:n]
        objs = (ch.objects[n],) + ch.objects[1:n]
        degs = (d[n] + d[0],) + d[1:n]
        out.append((coeff * _sgn(exp), Chain(ch.category, ch.u_exp, objs, slots, degs)))
    return ChainSum(c.category, out)


def b0(c: ChainSum) -> ChainSum:
    """Curvature insertion: h·e of object X_{j+1} enters after slot j
    with sign (-1)^{|a_0|+...+|a_j| - j}, for j = 0..n."""
    out = []
    for coeff, ch in c.terms():
        n = ch.n
        d = ch.degrees
        for j in range(n + 1):
            obj = ch.objects[(j + 1) % (n + 1)]
            ins = ch.category.curvature_endo(obj)
            sign = _sgn(sum(d[: j + 1]) - j)
            slots = ch.slots[: j + 1] + (ins,) + ch.slots[j + 1 :]
            objs = ch.objects[: j + 1] + (obj,) + ch.objects[j + 1 :]
            degs = d[: j + 1] + (0,) + d[j + 1 :]
            out.append(
                (coeff * sign, Chain(ch.category, ch.u_exp, objs, slots, degs))
            )
    return ChainSum(c.category, out)


def reduce_chain(c: ChainSum) -> ChainSum:
    """Canonical surjection onto the reduced complex: drop every term in
    which some tail slot is a Scalar multiple of its object's identity."""
    out = []
    for coeff, ch in c.terms():
        if any(
            _identity_multiple(ch.category, ch.objects[i], ch.slots[i]) is not None
            for i in range(1, ch.n + 1)
            if ch.objects[i] == ch.objects[(i + 1) % (ch.n + 1)]
        ):
            continue
        out.append((coeff, ch))
    return ChainSum(c.category, out)


def _identity_multiple(category, o: int, slot: Mat) -> Scalar | None:
    """The scalar lam with slot = lam·e_o, or None."""
    e = category.identity(o)
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
    out = []
    for coeff, ch in c.terms():
        n = ch.n
        d = ch.degrees
        for l in range(n + 1):
            exp = (sum(d[l:]) - (n - l + 1)) * (sum(d[:l]) - l)
            head = ch.category.identity(ch.objects[l])
            objs = (ch.objects[l],) + ch.objects[l:] + ch.objects[:l]
            slots = (head,) + ch.slots[l:] + ch.slots[:l]
            degs = (0,) + d[l:] + d[:l]
            out.append(
                (coeff * _sgn(exp), Chain(ch.category, ch.u_exp, objs, slots, degs))
            )
    return reduce_chain(ChainSum(c.category, out))


# -- evaluation maps ---------------------------------------------------


def _ring_entry(v: USeries) -> RingElement:
    if any(key != (0, 0) for key in v.groups):
        raise InvalidInput("chain slot carries form or u content")
    return RingElement._make(v.ring, v.den, v.width, v.groups)


def hkr(c: ChainSum) -> DiffForm:
    """a_0[a_1|...|a_n] -> a_0 da_1∧...∧da_n / n! over a one-object
    category of 1x1 matrices (the algebra itself)."""
    ring = c.category.ring
    acc = DiffForm.zero(ring)
    for coeff, ch in c.terms():
        if ch.u_exp:
            raise InvalidInput("hkr is defined on u-free chains")
        if any(len(s.target_degrees) != 1 or len(s.source_degrees) != 1 for s in ch.slots):
            raise InvalidInput("hkr needs 1x1 (ring element) slots")
        form = DiffForm.from_ring(_ring_entry(ch.slots[0].entry(0, 0)))
        for s in ch.slots[1:]:
            form = form.wedge(de_rham_d(DiffForm.from_ring(_ring_entry(s.entry(0, 0)))))
        w = coeff * Scalar(Fraction(1, factorial(ch.n)))
        acc = acc + form.scale(w)
    return acc


def pushforward(beta, c: ChainSum, n_max: int) -> ChainSum:
    """Apply an (id, beta) morphism, inserting beta powers in all gaps.

    beta is an odd endomorphism per object (a single matrix is accepted
    for one-object categories; None means zero).  Each choice of
    insertion counts (i_0, ..., i_n) contributes with sign
    (-1)^{i_0+...+i_n}; output tensor length is capped at n_max, which
    is harmless under tr_nabla once n_max >= dim A.
    """
    cat = c.category
    if beta is None:
        betas = [None] * len(cat.objects)
    elif isinstance(beta, Mat):
        if len(cat.objects) != 1:
            raise InvalidInput("a single beta needs a one-object category")
        betas = [beta]
    else:
        betas = list(beta)
        if len(betas) != len(cat.objects):
            raise InvalidInput("one beta per category object required")
    # every emitted term, in order; one ChainSum merges them at the end,
    # exactly as adding them in one at a time would.  A chain's slots are
    # homogeneous already and enter as they are; each beta is checked and
    # split once, at its first insertion, as chain() would
    out: list = []
    split: dict = {}
    for coeff, ch in c.terms():
        n = ch.n
        budget = n_max - n
        if budget < 0:
            continue
        for counts in _insertion_counts(n + 1, budget, betas, ch.objects):
            choices: list = [[(ch.degrees[0], ch.slots[0])]]
            objs: list = [ch.objects[0]]
            for k in range(n + 1):
                if k > 0:
                    choices.append([(ch.degrees[k], ch.slots[k])])
                    objs.append(ch.objects[k])
                o = ch.objects[(k + 1) % (n + 1)]
                if counts[k] and o not in split:
                    split[o] = _slot_parts(cat, len(objs), o, o, betas[o])
                for _ in range(counts[k]):
                    choices.append(split[o])
                    objs.append(o)
            out += _chains(cat, coeff * _sgn(sum(counts)), ch.u_exp, tuple(objs), choices)
    return ChainSum(cat, out)


def truncate_length(c: ChainSum, n_max: int) -> ChainSum:
    """Drop all terms of tensor length above n_max (for comparing
    pushforward compositions, which only agree on truncations)."""
    return ChainSum(c.category, [(coeff, ch) for coeff, ch in c.terms() if ch.n <= n_max])


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
        for combo in cartesian(*per_slot):
            k = coeff
            mats = []
            for cval, m in combo:
                k = k * cval
                mats.append(m)
            out.append((k, Chain(ch.category, ch.u_exp, ch.objects, tuple(mats), ch.degrees)))
    return ChainSum(c.category, out)


def _insertion_counts(gaps: int, budget: int, betas, objects):
    """All per-gap insertion counts with the given total budget; gaps
    whose object has no beta are pinned to zero."""
    allowed = [
        budget if betas[objects[(k + 1) % gaps]] is not None else 0
        for k in range(gaps)
    ]

    def rec(k, left):
        if k == gaps:
            yield ()
            return
        for i in range(min(allowed[k], left) + 1):
            for rest in rec(k + 1, left - i):
                yield (i, *rest)

    return rec(0, budget)


def tr_nabla(c: ChainSum, connections, words: WordEvaluator | None = None) -> USeries:
    """The chain-level trace: covariantly differentiate the tail,
    insert curvature powers in every gap, supertrace, and weight by
    (-1)^J/(J+n)!·u^J.  Finite because words of form degree beyond
    dim A vanish (n + 2J <= dim A).

    Every insertion is evaluated as its own word through `words` (a fresh
    WordEvaluator by default), which also returns the zero supertrace of a
    word of odd basis-parity shift without forming it.  Every letter is
    graded, as the evaluator requires: chain slots are homogeneous, and
    every category object is presented by an even idempotent.  [nabla,
    slot] and nabla^2 are cached on the connections, so a slot on one
    object is differentiated once however many chains repeat it, and a
    word whose rotation class was already evaluated on the same evaluator
    (by Chern-Weil, say) is not evaluated again: the pushed chains of a
    module ask for A·K·A and K·A·A, and Chern-Weil holds A·A·K.
    """
    cat = c.category
    ring = cat.ring
    conns = list(connections)
    if len(conns) != len(cat.objects):
        raise InvalidInput("one connection per category object required")
    for C, M in zip(conns, cat.objects):
        if C.module.degrees != M.degrees or C.module.e != M.e:
            raise InvalidInput("connection does not match its category object")
    words = WordEvaluator() if words is None else words
    nvars = ring.nvars
    acc = USeries.zero(ring)
    idents = [cat.identity(o) for o in range(len(cat.objects))]
    for coeff, ch in c.terms():
        n = ch.n
        if n > nvars:
            continue
        o0 = ch.objects[0]
        head = ch.slots[0]
        if head.is_zero():
            continue
        head_word = () if head == idents[o0] else (words.letter(head),)
        tail: list[int] = []
        for i in range(1, n + 1):
            oi, oj = ch.objects[i], ch.objects[(i + 1) % (n + 1)]
            P = covariant_derivative_pair(conns[oi], conns[oj], ch.slots[i], ch.degrees[i])
            if P.is_zero():
                break
            tail.append(words.letter(P))
        if len(tail) < n:
            continue
        max_J = (nvars - n) // 2
        for J in range(max_J + 1):
            weight = coeff * Scalar._raw((-1) ** J, 0, factorial(J + n))
            for comp in _compositions(J, n + 1):
                word = list(head_word)
                for g in range(n + 1):
                    if comp[g]:
                        K = curvature_mat(conns[ch.objects[g + 1] if g < n else o0])
                        word.extend([words.letter(K)] * comp[g])
                    if g < n:
                        word.append(tail[g])
                tr = words.supertrace(tuple(word)) if word else idents[o0].supertrace()
                if tr.is_zero():
                    continue
                acc = acc + tr.scale(weight).shift_u(J + ch.u_exp)
    return acc


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def chern_via_chains(M: CurvedModule, C: Connection,
                     words: WordEvaluator | None = None) -> USeries:
    """Chern character through the chain route.

    Pushes the canonical class 1[] forward along (id, delta) into the
    trivial-differential category on the underlying module and applies
    tr_nabla, whose words are evaluated through `words` (a fresh
    WordEvaluator by default; pass the one Chern-Weil used to reuse the
    words the routes share).  Must agree with the Chern-Weil route
    coefficient-wise.

    nabla and nabla^2 depend only on (e, theta), which the stripped object
    shares with M, so C itself serves as the object's connection and its
    curvature is computed once for both routes.  The category trusts the
    module's verdict (see CategoryData._of_checked_module).
    """
    verdict = M.verdict()
    if not verdict.ok:
        raise InvalidInput("chern_via_chains needs a valid module: " + "; ".join(verdict.failures))
    cat = CategoryData._of_checked_module(M)
    gamma = chain(cat, M.e)
    pushed = pushforward(M.delta, gamma, M.ring.nvars)
    return tr_nabla(pushed, [C], words)
