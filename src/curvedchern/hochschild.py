"""Hochschild chains of the second kind and the chain-level trace.

This is the second, independent route to the Chern character.  Chains
live on one object: the module's idempotent-presented underlying module
with its differential stripped (curvature enters through the curvature
of the connection, the twist through pushforward along the (id, delta)
morphism).  Every slot of a chain is homogeneous with a recorded parity.

tr_nabla turns a chain into a u-series of differential forms by
covariantly differentiating the tail slots and inserting curvature
powers in all gaps; its J-sum is finite because a word of tensor length
n with J curvature insertions is a form of degree n + 2J.
"""

from __future__ import annotations

from math import factorial

from .errors import InvalidInput
from .forms import USeries
from .matform import WordEvaluator, content_key
from .modules import Connection, CurvedModule, covariant_derivative, curvature_mat
from .scalars import ONE, Scalar


class Chain:
    """coeff-free chain datum a0[a1|...|an] with u-exponent and parities.

    Every slot is an endomorphism of the one object; the recorded degrees
    are operator parities."""

    __slots__ = ("u_exp", "slots", "degrees", "_keyc")

    def __init__(self, u_exp, slots, degrees):
        self.u_exp = int(u_exp)
        self.slots = tuple(slots)
        self.degrees = tuple(d % 2 for d in degrees)
        self._keyc = None

    @property
    def n(self) -> int:
        return len(self.slots) - 1

    def key(self):
        if self._keyc is None:
            self._keyc = (self.u_exp, tuple(content_key(slot) for slot in self.slots))
        return self._keyc


class ChainSum:
    """Canonicalized Scalar-linear combination of chains.

    Equal chains (by Chain.key) are merged, and chains with a zero slot
    dropped; terms keep the order in which their chains first appeared."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        for coeff, ch in terms:
            if not coeff or any(s.is_zero() for s in ch.slots):
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

    def terms(self):
        return list(self._terms.values())


def pushforward(beta, c: ChainSum, n_max: int) -> ChainSum:
    """Apply the (id, beta) morphism, inserting beta powers in all gaps.

    beta is an odd endomorphism supported on the object's presentation,
    and enters every gap as a slot of parity 1 as it is.  Each choice of
    insertion counts (i_0, ..., i_n) contributes with sign
    (-1)^{i_0+...+i_n}; output tensor length is capped at n_max, which is
    harmless under tr_nabla once n_max >= dim A.
    """
    # every emitted term, in order; one ChainSum merges them at the end,
    # exactly as adding them in one at a time would
    out: list = []
    for coeff, ch in c.terms():
        n = ch.n
        if n > n_max:
            continue
        # counts with total at most n_max - n, the last part taking the rest
        for *counts, _ in _compositions(n_max - n, n + 2):
            slots, degrees = [ch.slots[0]], [ch.degrees[0]]
            for k in range(n + 1):
                if k > 0:
                    slots.append(ch.slots[k])
                    degrees.append(ch.degrees[k])
                slots += [beta] * counts[k]
                degrees += [1] * counts[k]
            sign = Scalar(1) if sum(counts) % 2 == 0 else Scalar(-1)
            out.append((coeff * sign, Chain(ch.u_exp, slots, degrees)))
    return ChainSum(out)


def tr_nabla(c: ChainSum, C: Connection, words: WordEvaluator | None = None) -> USeries:
    """The chain-level trace on the object of C's module: covariantly
    differentiate the tail, insert curvature powers in every gap,
    supertrace, and weight by (-1)^J/(J+n)!·u^J.  Finite because words of
    form degree beyond dim A vanish (n + 2J <= dim A).

    Every insertion is evaluated as its own word through `words` (a fresh
    WordEvaluator by default), which also returns the zero supertrace of a
    word of odd basis-parity shift without forming it.  Every letter is
    graded, as the evaluator requires: chain slots are homogeneous, and the
    object is presented by an even idempotent.  [nabla, slot] and nabla^2
    are cached on C, so a slot is differentiated once however many chains
    repeat it, and a word whose rotation class was already evaluated on the
    same evaluator (by Chern-Weil, say) is not evaluated again: the pushed
    chains of a module ask for A·K·A and K·A·A, and Chern-Weil holds A·A·K.
    """
    e = C.module.e
    ring = e.ring
    words = WordEvaluator() if words is None else words
    nvars = ring.nvars
    k = None  # K's letter, interned where a word first needs it
    acc = USeries.zero(ring)
    for coeff, ch in c.terms():
        n = ch.n
        if n > nvars:
            continue
        head = ch.slots[0]
        head_word = () if head == e else (words.letter(head),)
        tail: list[int] = []
        for i in range(1, n + 1):
            P = covariant_derivative(C, ch.slots[i], ch.degrees[i])
            if P.is_zero():
                break
            tail.append(words.letter(P))
        if len(tail) < n:
            continue
        max_J = (nvars - n) // 2
        if max_J and k is None:
            k = words.letter(curvature_mat(C))
        for J in range(max_J + 1):
            weight = coeff * Scalar._raw((-1) ** J, 0, factorial(J + n))
            for comp in _compositions(J, n + 1):
                word = list(head_word)
                for g in range(n + 1):
                    if comp[g]:
                        word.extend([k] * comp[g])
                    if g < n:
                        word.append(tail[g])
                tr = words.supertrace(tuple(word)) if word else e.supertrace()
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

    Pushes the canonical class 1[] of M's underlying module, its
    differential stripped, forward along (id, delta) and applies tr_nabla,
    whose words are evaluated through `words` (a fresh WordEvaluator by
    default; pass the one Chern-Weil used to reuse the words the routes
    share).  Must agree with the Chern-Weil route coefficient-wise.

    nabla and nabla^2 depend only on (e, theta), which the stripped object
    shares with M, so C itself serves as the object's connection and its
    curvature is computed once for both routes.  The route trusts the
    module's verdict: check_module has proved e even and delta odd, so
    each enters as one slot of its parity without being split.
    """
    verdict = M.verdict()
    if not verdict.ok:
        raise InvalidInput("chern_via_chains needs a valid module: " + "; ".join(verdict.failures))
    gamma = ChainSum([(ONE, Chain(0, (M.e,), (0,)))])
    pushed = pushforward(M.delta, gamma, M.ring.nvars)
    return tr_nabla(pushed, C, words)
