"""Graded commutative polynomial rings over Q(i), with one optional relation.

A GradedRing is k[x_1..x_n] or k[x_1..x_n]/(f0) with k = Q(i), graded by
Gamma = Z or Z/2.  Variable degrees are always even, so every ring element
has even Gamma-degree; odd degrees only ever appear on module basis vectors.

Elements are kept in the division normal form with respect to the single
relation (a one-element generating set is a Groebner basis of its
principal ideal, so the remainder is canonical).  The monomial order
everywhere is graded lex: total degree first, then lexicographic with
earlier variables more significant.

A monomial has one encoding, _Glex: one int with a field of `width` bits
for the total degree on top, then one for each of x_1 .. x_n, x_1 the most
significant.  The top bit of each field (the guard bit) is kept clear, so
int order is graded-lex order, adding two packed monomials multiplies them
without a carry between fields, and the lead of a monic entry divides a
monomial when one subtraction leaves every guard bit set.  A width holds
a monomial when it holds its degree; the one width policy, _Glex.holding, is
30 // (nvars + 1) bits a field (a monomial in one CPython digit), at least
two, or wider when the degree needs it.

Ring elements, forms and u-series share one layout, Packed: groups keyed
by (u-power, dx mask) of packed rows (packed monomial, re, im), Gaussian
integers over one denominator, all at one width.  Canonical rows have no
zero row, a positive denominator sharing no factor with every numerator,
and the width _Glex.holding gives their largest degree.  A RingElement is
the case of at most one group, at (0, 0).  Every product of values is
formed by sum_of_products on these rows, and sums, scalings and
derivatives work on them too, so no arithmetic builds a Scalar; the
exponent tuples and Scalars of `RingElement.terms` are built on read, for
printing and for code that works monomial by monomial.

The one polynomial division, _reduce_full, lives here, and groebner
reduces by it too; it takes terms from a heap in a loop.  The quotient
normal form is that division of a whole sum by the monic relation's
entry, at the sum's own width, which holds every term of the remainder.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from math import comb
from math import gcd as _gcd
from math import lcm, prod
from operator import add as _add
from operator import le as _le
from operator import lshift as _lshift
from operator import or_ as _or

from .errors import Inhomogeneous, InvalidInput
from .scalars import ONE, Scalar

Monomial = tuple[int, ...]

_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED = {"i", "u", "d"}


def monomial_key(m: Monomial) -> tuple:
    """Sort key for graded lex; larger key = larger monomial."""
    return (sum(m), m)


class GradedRing:
    """k[x_1..x_n] (optionally modulo a single degree-0 relation).

    Parameters
    ----------
    variables : sequence of str
        Distinct names; 'i', 'u', 'd' are reserved.
    degrees : sequence of int
        Even Gamma-degrees, one per variable.
    grading : str
        'Z' or 'Z2'.
    relation : str or None
        A single relation of Gamma-degree 0, e.g. "x1^2+x2^2+x3^2-1".
    """

    def __init__(self, variables, degrees, grading="Z", relation=None):
        self.variables = tuple(variables)
        self.degrees = tuple(int(d) for d in degrees)
        if grading not in ("Z", "Z2"):
            raise InvalidInput(f"grading must be 'Z' or 'Z2', got {grading!r}")
        self.grading = grading
        if len(self.variables) != len(self.degrees):
            raise InvalidInput("one degree per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidInput("duplicate variable names")
        for v in self.variables:
            if not _NAME_RE.fullmatch(v) or v in _RESERVED:
                raise InvalidInput(f"bad variable name {v!r}")
        for v, d in zip(self.variables, self.degrees):
            if d % 2 != 0:
                raise InvalidInput(
                    f"variable {v} has odd degree {d}; ring degrees must be even"
                )
        self.nvars = len(self.variables)
        # whether some monomial has nonzero Gamma-degree: variable degrees
        # are even, so over Z/2 every monomial has degree 0
        self.weighted = grading == "Z" and any(self.degrees)
        self._index = {v: k for k, v in enumerate(self.variables)}
        # the width of rows whose degrees fit it (module docstring)
        self.base_width = _Glex.holding(self.nvars, 0).width

        self.relation: RingElement | None = None
        if relation is not None:
            try:
                rel = self.from_string(relation)
            except InvalidInput as exc:
                raise InvalidInput(f"relation: {exc}") from exc
            if rel.is_zero():
                raise InvalidInput("relation must be nonzero")
            if rel.gamma_degree() != self.degree_reduce(0):
                raise InvalidInput("relation must have Gamma-degree 0")
            if rel.total_degree() == 0:
                raise InvalidInput("relation must not be a unit")
            # the normal form is the full division by the monic relation
            self.relation = rel.scale(rel.leading_term()[1].inv())

    # -- gamma bookkeeping --------------------------------------------

    def degree_reduce(self, d: int) -> int:
        return d % 2 if self.grading == "Z2" else d

    def deg_eq(self, a: int, b: int) -> bool:
        return (a - b) % 2 == 0 if self.grading == "Z2" else a == b

    def monomial_gamma(self, m: Monomial) -> int:
        return self.degree_reduce(sum(e * d for e, d in zip(m, self.degrees)))

    # -- element constructors -----------------------------------------

    def element(self, terms: dict) -> "RingElement":
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return RingElement.zero(self)

    def one(self) -> "RingElement":
        return self.scalar(ONE)

    def scalar(self, c: Scalar | int | Fraction) -> "RingElement":
        if not isinstance(c, Scalar):
            c = Scalar(c)
        if c.is_zero():
            return self.zero()
        # the monomial 1 packs to 0 and is in normal form
        return RingElement._make(self, c.d, self.base_width, {_KEY: [(0, c.an, c.bn)]})

    def var(self, name: str) -> "RingElement":
        """The variable `name` as an element.  A variable is its own normal
        form unless the relation's lead is a variable (degree 1), so only
        then is it divided by the relation."""
        if name not in self._index:
            raise InvalidInput(f"unknown variable {name!r}")
        m = tuple(int(v == name) for v in self.variables)
        if self.relation is not None and self.relation.total_degree() == 1:
            return RingElement(self, {m: ONE})
        glex = _glex(self.nvars, self.base_width)
        return RingElement._make(self, 1, glex.width, {_KEY: [(glex.encode(m), 1, 0)]})

    def from_string(self, text: str) -> "RingElement":
        if type(p := _parse_entry(self, text)) is not RingElement:
            raise InvalidInput(f"{text!r} is not a polynomial: only a connection entry may have d(...)")
        return p

    def _normal_forms(self, accs: dict, den: int, width: int) -> tuple:
        """(den, {key: rows}) for the accumulators {key: {packed monomial:
        [re, im]}} over den at width, which it consumes: each key with a
        monomial the relation's lead divides is divided by the monic
        relation's entry (_reduce_full), and the keys are brought to one
        common denominator.  Keys whose sum is zero are left out."""
        rel = self.relation
        # a lead of a degree the width cannot hold divides none of its monomials
        if rel is None or rel.total_degree() >> (width - 1):
            rows = {key: [(k, a, b) for k, (a, b) in acc.items() if a or b] for key, acc in accs.items()}
            return den, {key: r for key, r in rows.items() if r}
        entry = _entry(_repack(self, rel.rows, rel.width, width))
        G, lm = _glex(self.nvars, width).guard, entry[0]
        outs = {}
        for key, acc in accs.items():
            if any(((k | G) - lm) & G == G for k in acc):
                d, rows = _reduce_full(acc, den, [entry], G)
            else:
                d, rows = den, [(k, a, b) for k, (a, b) in acc.items() if a or b]
            if rows:
                outs[key] = d, rows
        den = lcm(den, *(d for d, _ in outs.values()))
        return den, {key: rows if d == den else _scaled_rows(rows, den // d) for key, (d, rows) in outs.items()}

    # -- identity ------------------------------------------------------

    def same_as(self, other: "GradedRing") -> bool:
        rel_a = None if self.relation is None else self.relation.key()
        rel_b = None if other.relation is None else other.relation.key()
        return (
            self.variables == other.variables
            and self.degrees == other.degrees
            and self.grading == other.grading
            and rel_a == rel_b
        )

    def __repr__(self) -> str:
        rel = f"/({self.relation})" if self.relation is not None else ""
        return f"GradedRing({','.join(self.variables)}; {self.grading}){rel}"


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(_le, a, b))


# ---------------------------------------------------------------------------
# the packed monomial, the normal form modulo the relation, and division
# ---------------------------------------------------------------------------


class _Glex:
    """Packed graded-lex monomials at one field width: one int with the
    total degree in the top field, then x_1 .. x_n, x_1 the most
    significant, and the top bit of each field (`guard`) kept clear.  Int
    order is then monomial_key order, a product is `+`, a quotient `-`, and
    a divides b iff ((b | guard) - a) & guard == guard."""

    __slots__ = ("nvars", "width", "field", "top", "shifts", "guard", "ones")

    def __init__(self, nvars: int, width: int):
        self.nvars, self.width, self.field, self.top = nvars, width, (1 << width) - 1, width * nvars
        self.shifts = range(self.top - width, -1, -width)
        self.guard = sum(1 << (s + width - 1) for s in range(0, self.top + 1, width))
        self.ones = sum(1 << s for s in self.shifts)

    @staticmethod
    def holding(nvars: int, degree: int) -> "_Glex":
        """The one width policy: 30 // (nvars + 1) bits a field, so that the
        nvars + 1 fields of a monomial fit one CPython digit, at least two,
        or degree's bit length plus the guard bit when that is wider."""
        return _glex(nvars, max(2, 30 // (nvars + 1), degree.bit_length() + 1))

    def encode(self, m) -> int:
        return sum(m) << self.top | sum(map(_lshift, m, self.shifts))

    def decode(self, k: int) -> Monomial:
        return tuple([k >> s & self.field for s in self.shifts])

    def lcm(self, a: int, b: int) -> int:
        """The lcm; its degree field reaches the guard bit when the width cannot hold its degree."""
        ge = ((a | self.guard) - b) & self.guard  # the guard bits of the fields where a >= b
        mask = ge - (ge >> (self.width - 1))
        v = (a & mask | b & ~mask) & ((1 << self.top) - 1)
        # v·ones gathers the sum of v's fields in the field of x_1
        return (v * self.ones >> (self.top - self.width) & self.field) << self.top | v


# the layout of each (nvars, width), made once
_glex = cache(_Glex)


def _repacked(nvars: int, keys, old: int, new: int) -> list:
    """Packed monomials at width old, each field exact, at width new."""
    field, shifts = (1 << old) - 1, [(s * old, s * new) for s in range(nvars + 1)]
    return [sum([(k >> a & field) << b for a, b in shifts]) for k in keys]


# An entry (lm, den, tail) is a monic polynomial in the form division uses:
# lm + (1/den)·Σ (a + b·i)·t over the rows (t, a, b) of tail, every t below
# lm, monomials packed in one _Glex layout.  It is built for the relation
# once per width, and once as an element enters a basis.
_Entry = tuple[int, int, list]


def _entry(rows: list) -> _Entry:
    """The entry of the monic multiple of Σ (a + b·i)·t over rows (t, a, b),
    integer numerators of a nonzero polynomial in one _Glex layout.  The
    numerators are divided by their common content."""
    lm, la, lb = max(rows)
    if lb == 0:
        den = la
        tail = [(t, a, b) for t, a, b in rows if t != lm]
    else:
        # (a + b·i)/(la + lb·i) = (a + b·i)(la - lb·i)/(la² + lb²)
        den = la * la + lb * lb
        tail = [(t, a * la + b * lb, b * la - a * lb) for t, a, b in rows if t != lm]
    g = _gcd(den, *(a for _, a, _ in tail), *(b for _, _, b in tail))
    if den < 0:
        g = -g
    return lm, den // g, [(t, a // g, b // g) for t, a, b in tail]


def _reduce_full(work: dict, den: int, basis: list[_Entry], guard: int) -> tuple[int, list]:
    """Full division remainder of (1/den)·Σ (a + b·i)·m over the items
    m: [a, b] of work (which it consumes) by the entries of basis: no
    monomial of the result is divisible by a basis leading monomial.
    Monomials are packed in the _Glex layout of `guard`; a layout that
    holds the work holds the division, as no term passes the work's degree.

    Returns (den, rows): the remainder (1/den)·Σ (a + b·i)·m over its rows
    (m, a, b), in descending graded-lex order, den the last denominator of
    the work.  A term is divided by the first entry whose leading monomial
    divides it.  When that entry's denominator does not divide the term's
    numerators, the work and its denominator are multiplied by the missing
    factor, so every numerator stays an integer.  The terms are taken from
    a heap and equal monomials merge in the work, so the division runs in
    a loop.  The term cap counts only what the division adds: it raises
    InvalidInput once work and remainder hold more than MAX_TERMS terms
    beyond the terms of the work it was given.
    """
    heap = [-m for m in work]  # the smallest is the largest monomial
    heapify(heap)
    cap = MAX_TERMS + len(work)
    out = []
    while heap:
        m = -heappop(heap)
        a, b = work.pop(m)
        if not a and not b:
            continue
        mg = m | guard
        for lm, dg, tail in basis:
            if (mg - lm) & guard == guard:
                break
        else:
            out.append((m, a, b, den))
            continue
        # subtract (a + b·i)/den · q·g, where q·lm = m
        g = _gcd(a, b, dg)
        if g != dg:
            s = dg // g
            den *= s
            for w in work.values():
                w[0] *= s
                w[1] *= s
        a //= g
        b //= g
        q = m - lm
        for t, ta, tb in tail:
            t += q
            w = work.get(t)
            if w is None:
                work[t] = [b * tb - a * ta, -a * tb - b * ta]
                heappush(heap, -t)
                if len(work) + len(out) > cap:
                    raise InvalidInput(
                        f"polynomial too large: a normal form could add more than {MAX_TERMS} terms"
                    )
            else:
                w[0] -= a * ta - b * tb
                w[1] -= a * tb + b * ta
    return den, [(m, a * (den // d), b * (den // d)) for m, a, b, d in out]


# the key of a RingElement's one group: u^0, no dx
_KEY = (0, 0)


class Packed:
    """The one layout of ring elements, forms and u-series.

    groups maps a key (J, mask), J the power of the even variable u and
    mask the bitmask of the wedge indices S of dx_S, to the canonical rows
    of a polynomial (see the module docstring), all groups over the one
    positive denominator den at one width.  No group is empty, so equal
    values have equal dens, widths and groups, rows compared as sets.  A
    RingElement has at most the group (0, 0), a forms.DiffForm only groups
    at J = 0 and a forms.USeries any, so one is read as another without
    conversion; a sum or scaling keeps the class of its left operand.  A
    value and its groups and rows are never changed once made.
    """

    __slots__ = ("ring", "den", "width", "groups")

    @classmethod
    def _make(cls, ring: GradedRing, den: int, width: int, groups: dict):
        """An internal result, canonical by construction."""
        v = object.__new__(cls)
        v.ring = ring
        v.den = den
        v.width = width
        v.groups = groups
        return v

    @classmethod
    def _reduced(cls, ring: GradedRing, den: int, width: int, groups: dict):
        """An internal result, nonempty groups without zero rows, made canonical."""
        if den == 1 and width == ring.base_width:
            return cls._make(ring, 1, width, groups)
        return cls._make(ring, *_canonical(ring, den, width, groups))

    @classmethod
    def zero(cls, ring: GradedRing):
        return cls._make(ring, 1, ring.base_width, {})

    def _at(self, width: int) -> dict:
        """The groups at a width that holds them (an operand, not canonical)."""
        if width == self.width:
            return self.groups
        return {g: _repack(self.ring, rows, self.width, width) for g, rows in self.groups.items()}

    def _merge(self, other: "Packed", sign: int, shift: int = 0):
        """self + sign·u^shift·other, sign ±1, over the least common
        denominator; only the groups the two share are summed row by row."""
        if not other.groups:
            return self
        if not self.groups and sign == 1 and shift == 0:
            return other
        width = max(self.width, other.width)
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = self._at(width)
        out = {g: _scaled_rows(rows, fa) for g, rows in out.items()} if fa != 1 else dict(out)
        for (J, mask), rows in other._at(width).items():
            g = (J + shift, mask)
            rows = _scaled_rows(rows, fb) if fb != 1 else rows
            mine = out.get(g)
            if mine is None:
                out[g] = rows
            elif summed := _summed(mine + rows):
                out[g] = summed
            else:
                del out[g]
        return self._reduced(self.ring, den, width, out)

    def __add__(self, other: "Packed"):
        return self._merge(other, 1)

    def __sub__(self, other: "Packed"):
        return self._merge(other, -1)

    def __neg__(self):
        groups = {g: _scaled_rows(rows, -1) for g, rows in self.groups.items()}
        return self._make(self.ring, self.den, self.width, groups)

    def scale(self, c: Scalar):
        if c.is_zero():
            return self.zero(self.ring)
        groups = {g: _scaled_rows(rows, c.an, c.bn) for g, rows in self.groups.items()}
        return self._reduced(self.ring, self.den * c.d, self.width, groups)

    def is_zero(self) -> bool:
        return not self.groups

    def key(self) -> tuple:
        """Hashable, and equal for equal values over one ring."""
        return self.den, self.width, frozenset((g, frozenset(r)) for g, r in self.groups.items())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.ring.same_as(other.ring) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class RingElement(Packed):
    """A polynomial in normal form: a Packed value with at most the group
    (0, 0).  RingElement(ring, terms) checks and normal-forms outside
    input; results of operations are built by _make, unchecked."""

    __slots__ = ()

    def __init__(self, ring: GradedRing, terms: dict):
        """The element sum c·m over the items m: c of terms, exponent
        tuples to Scalars; zero terms are dropped, and the sum is divided
        by the relation (GradedRing._normal_forms)."""
        items = [(m, c) for m, c in terms.items() if not c.is_zero()]
        den = lcm(*(c.d for _, c in items))
        glex = _Glex.holding(ring.nvars, max([sum(m) for m, _ in items], default=0))
        acc = {glex.encode(m): [c.an * (den // c.d), c.bn * (den // c.d)] for m, c in items}
        den, groups = ring._normal_forms({_KEY: acc}, den, glex.width)
        v = RingElement._reduced(ring, den, glex.width, groups)
        self.ring, self.den, self.width, self.groups = ring, v.den, v.width, v.groups

    @property
    def rows(self) -> list:
        return self.groups.get(_KEY, [])

    @property
    def terms(self) -> dict:
        """The element as {monomial: Scalar}: a new dict on each read."""
        decode = _glex(self.ring.nvars, self.width).decode
        return {decode(k): Scalar._raw(a, b, self.den) for k, a, b in self.rows}

    # -- arithmetic ----------------------------------------------------

    # in the class body, where perfbench's tracer looks for them
    __add__, __sub__, __neg__, scale = Packed.__add__, Packed.__sub__, Packed.__neg__, Packed.scale

    def __mul__(self, other: "RingElement") -> "RingElement":
        """The product in normal form: sum_of_products on one product."""
        if not self.groups or not other.groups:
            return self.ring.zero()
        width = max(self.width, other.width)
        product = (_KEY, 1, self.den * other.den, width, self._at(width)[_KEY], other._at(width)[_KEY])
        return RingElement._make(self.ring, *sum_of_products(self.ring, [product]))

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise InvalidInput("negative powers are not ring elements")
        return reduce(RingElement.__mul__, [self] * n, self.ring.one())

    def derivative(self, var: str) -> "RingElement":
        """Formal partial derivative of the normal-form representative (no
        monomial of which the relation's lead divides): on a packed row it
        multiplies the numerators by the exponent in var's field and
        subtracts var's unit key, which covers its field and the degree."""
        glex = _glex(self.ring.nvars, self.width)
        shift = glex.shifts[self.ring._index[var]]
        unit, field = 1 << shift | 1 << glex.top, glex.field
        rows = [(k - unit, e * a, e * b) for k, a, b in self.rows if (e := k >> shift & field)]
        return RingElement._reduced(self.ring, self.den, self.width, {_KEY: rows} if rows else {})

    # -- structure -----------------------------------------------------

    def is_scalar(self) -> bool:
        rows = self.rows
        return not rows or (len(rows) == 1 and rows[0][0] == 0)

    def gamma_degree(self) -> int:
        """Common Gamma-degree of all monomials, or raise Inhomogeneous.

        Zero is homogeneous of every degree; by convention returns 0.
        """
        degs = _gammas(self.ring, self.width, self.rows)
        if not degs:
            return 0
        if len(degs) > 1:
            raise Inhomogeneous(f"inhomogeneous element {self}: degrees {sorted(degs)}")
        return degs.pop()

    def has_gamma_degree(self, d: int) -> bool:
        """True when every monomial has Gamma-degree d (zero passes)."""
        return all(self.ring.deg_eq(g, d) for g in _gammas(self.ring, self.width, self.rows))

    # the largest packed monomial leads, and its top field is the degree

    def total_degree(self) -> int:
        return max(self.rows)[0] >> self.width * self.ring.nvars if self.rows else 0

    def leading_term(self) -> tuple[Monomial, Scalar]:
        if not self.rows:
            raise InvalidInput("leading term of zero")
        k, a, b = max(self.rows)
        return _glex(self.ring.nvars, self.width).decode(k), Scalar._raw(a, b, self.den)

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        ring, decode = self.ring, _glex(self.ring.nvars, self.width).decode
        rows = sorted(self.rows, reverse=True)
        parts = [_term_str(Scalar._raw(a, b, self.den), _mono_str(ring, decode(k))) for k, a, b in rows]
        return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])

    def __repr__(self) -> str:
        return f"<{self}>"


def sum_of_products(ring: GradedRing, contributions: list, added: list = ()) -> tuple:
    """Sum signed products of packed polynomials per key, in normal form.

    `contributions` is a list of (key, sign, d, width, P, Q): the rows P
    and Q of two nonzero elements at `width`, d the product of their
    denominators, sign an int and key any hashable, e.g. (u-power, dx
    mask).  `added` lists rows summed in without a product, each (key,
    sign, d, width, rows): sign·rows/d, the rows in normal form, as a
    value's canonical rows are.  Returns (den, width, {key: canonical
    rows}) for the sums per key, keys whose sum is zero left out.  The
    one place ring products are formed: a pair of rows costs one int
    addition, one dict lookup and one Gaussian multiply-accumulate on a
    common denominator, an added row one accumulate, and the normal form
    runs once per key: it is linear and leaves a normal form as it is, so
    each sum is the products' normal form plus the added rows.  Rows of
    mixed widths are repacked at the widest first.  The products are
    exact at that width; when a product's degree reaches the guard bit of
    the degree field, the accumulators are repacked at a width that holds
    it before the normal form divides them.
    """
    every = (*contributions, *added) if added else contributions
    den = 1
    width = every[0][3] if every else ring.base_width
    mixed = False
    for c in every:
        d = c[2]
        if den % d:
            den = den * d // _gcd(den, d)
        mixed = mixed or c[3] != width
    if mixed:
        width = max(c[3] for c in every)
        contributions = [
            (key, sign, d, width, _repack(ring, P, w, width), _repack(ring, Q, w, width))
            for key, sign, d, w, P, Q in contributions
        ]
        added = [(key, sign, d, width, _repack(ring, rows, w, width)) for key, sign, d, w, rows in added]
    accs: dict = {}
    for key, sign, d, _, P, Q in contributions:
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = {}
        get = acc.get
        f = sign * (den // d)
        for k1, a1, b1 in P:
            a1 *= f
            if b1 == 0:
                for k2, a2, b2 in Q:
                    k = k1 + k2
                    v = get(k)
                    if v is None:
                        acc[k] = [a1 * a2, a1 * b2]
                    else:
                        v[0] += a1 * a2
                        v[1] += a1 * b2
                continue
            b1 *= f
            for k2, a2, b2 in Q:
                k = k1 + k2
                v = get(k)
                if v is None:
                    acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    v[0] += a1 * a2 - b1 * b2
                    v[1] += a1 * b2 + b1 * a2
    for key, sign, d, _, rows in added:
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = {}
        get = acc.get
        f = sign * (den // d)
        for k, a, b in rows:
            v = get(k)
            if v is None:
                acc[k] = [a * f, b * f]
            else:
                v[0] += a * f
                v[1] += b * f
    # the operands' guard bits are clear, so no field of a product carries
    # into the next; the OR of the products shows whether a degree reached
    # the guard bit of the top field
    bits = 0
    for acc in accs.values():
        bits = reduce(_or, acc, bits)
    if ring.relation is None:
        groups = {key: [(k, a, b) for k, (a, b) in acc.items() if a or b] for key, acc in accs.items()}
        return _canonical(ring, den, width, {key: rows for key, rows in groups.items() if rows}, bits)
    top = width * ring.nvars
    if bits >> (top + width - 1):
        new = _Glex.holding(ring.nvars, bits >> top).width
        accs = {key: dict(zip(_repacked(ring.nvars, acc, width, new), acc.values())) for key, acc in accs.items()}
        width = new
    den, groups = ring._normal_forms(accs, den, width)
    return _canonical(ring, den, width, groups, bits)


def _repack(ring: GradedRing, rows: list, old: int, new: int) -> list:
    """Rows at width `old` repacked at a width `new` that holds them."""
    if old == new:
        return rows
    keys = _repacked(ring.nvars, [k for k, _, _ in rows], old, new)
    return [(k, a, b) for k, (_, a, b) in zip(keys, rows)]


def _canonical(ring: GradedRing, den: int, width: int, groups: dict, bits: int = 0) -> tuple:
    """(den, width, {key: rows without zero rows}) made canonical: den's
    common factor with every numerator divided out, and the rows repacked
    at the width _Glex.holding gives their largest degree, unless `width` is
    the base width and `bits`, the OR of the monomials when they come from
    a product, has the degree field's guard bit clear."""
    if den > 1:
        g = den
        for rows in groups.values():
            for _, a, b in rows:
                g = _gcd(g, a, b)
            if g == 1:
                break
        else:
            den //= g
            groups = {key: [(k, a // g, b // g) for k, a, b in rows] for key, rows in groups.items()}
    top = width * ring.nvars
    if width == ring.base_width and not bits >> (top + width - 1):
        return den, width, groups
    # the largest packed monomial has the largest degree, in the top field
    new = _Glex.holding(ring.nvars, max([max(rows)[0] for rows in groups.values()], default=0) >> top).width
    return den, new, {key: _repack(ring, rows, width, new) for key, rows in groups.items()}


def _scaled_rows(rows: list, a: int, b: int = 0) -> list:
    """Rows times the Gaussian integer a + b·i."""
    return [(k, x * a - y * b, x * b + y * a) for k, x, y in rows]


def _summed(rows: list) -> list:
    """Rows with equal packed monomials added up, zero rows dropped."""
    acc: dict = {}
    for k, a, b in rows:
        old = acc.get(k)
        acc[k] = (a, b) if old is None else (old[0] + a, old[1] + b)
    return [(k, a, b) for k, (a, b) in acc.items() if a or b]


def _gammas(ring: GradedRing, width: int, rows: list) -> set:
    """The Gamma-degrees of the packed monomials of rows, decoded only
    when the ring is weighted (else each is 0)."""
    if not ring.weighted:
        return {0} if rows else set()
    decode = _glex(ring.nvars, width).decode
    return {ring.monomial_gamma(decode(k)) for k, _, _ in rows}


def _mono_str(ring: GradedRing, m: Monomial) -> str:
    return "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, m) if e])


def _term_str(c: Scalar, mono: str) -> str:
    if mono and c.bn == 0 and c.d == 1 and c.an in (1, -1):  # a unit coefficient is left out
        return mono if c.an == 1 else f"-{mono}"
    cs = f"({c})" if c.an and c.bn else str(c)
    return f"{cs}*{mono}" if mono else cs


# ---------------------------------------------------------------------------
# parser: +, -, *, ^, integer and rational literals, the literal i,
# parentheses, unary minus and the one-form d(var), Unicode minus and the
# dot operator normalized.  A string is read into _Rows, then normal-formed
# once: as a RingElement, or with a d(var) as a Packed form.
# ---------------------------------------------------------------------------

# Size caps, checked on the rows before each sum, product or power is
# formed: no exponent after '^' or in a result above MAX_EXPONENT, no result
# with possibly more than MAX_TERMS terms (by the operands' row counts and
# the box of exponents it can reach), no coefficient estimated above
# MAX_COEFFICIENT_BITS bits (the operands' largest numerator or denominator
# bit lengths, plus the bits a sum of products carries), and no normal form
# that adds more than MAX_TERMS terms to the sum it divides (_reduce_full).
# Parentheses and unary minus signs nest at most MAX_NESTING deep, so the
# recursive descent (four frames a parenthesis) stays far from the
# interpreter's recursion limit.
MAX_EXPONENT = 1000
MAX_TERMS = 10_000
MAX_COEFFICIENT_BITS = 10_000
MAX_NESTING = 100


def _check_size(op: str, exps, terms: int, bits: int = 0) -> None:
    """Refuse a result whose exponents, term bound or coefficient bit estimate exceed the caps."""
    if max(exps, default=0) > MAX_EXPONENT:
        raise InvalidInput(f"polynomial too large: a {op} would raise an exponent above {MAX_EXPONENT}")
    if terms > MAX_TERMS and prod(e + 1 for e in exps) > MAX_TERMS:
        raise InvalidInput(f"polynomial too large: a {op} could have more than {MAX_TERMS} terms")
    if bits > MAX_COEFFICIENT_BITS:
        raise InvalidInput(
            f"polynomial too large: a {op} could have coefficients of more than {MAX_COEFFICIENT_BITS} bits"
        )


class _Rows:
    """A parsed value: rows {key: (re, im)}, Gaussian numerators over den
    with no zero row, not normal-formed; a key is a monomial packed at the
    parser's width plus its dx mask above the fields (see _Parser).  `form`
    is set from the first d(var) on, even if it cancels."""

    __slots__ = ("den", "rows", "form")

    def __init__(self, den: int, rows: dict, form: bool = False):
        self.den, self.rows, self.form = den, rows, form

    def bits(self) -> int:
        """The largest bit length of a numerator or denominator of a term in lowest terms."""
        d = self.den
        return max(((max(abs(a), abs(b), d) // _gcd(a, b, d)).bit_length() for a, b in self.rows.values()), default=0)

    def add(self, other: "_Rows", sign: int) -> "_Rows":
        """self + sign·other, sign ±1, in self's rows: it costs other's rows, not self's."""
        den = lcm(self.den, other.den)
        rows = self.rows if den == self.den else self.scale(den // self.den).rows
        for k, (a, b) in other.scale(sign * (den // other.den)).rows.items():
            x, y = rows.get(k, (0, 0))
            rows[k] = (x + a, y + b)
            if rows[k] == (0, 0):
                del rows[k]
        return _Rows(den, rows, self.form or other.form)

    def __mul__(self, other: "_Rows") -> "_Rows":
        """The product, at most one factor a form (even ring coefficients: no wedge sign)."""
        if self.form and other.form:
            raise InvalidInput("a product of two d(...) factors is not a one-form")
        out: dict = {}
        for k1, (a1, b1) in self.rows.items():
            for k2, (a2, b2) in other.rows.items():
                x, y = out.get(k1 + k2, (0, 0))
                out[k1 + k2] = (x + a1 * a2 - b1 * b2, y + a1 * b2 + b1 * a2)
        return _Rows(self.den * other.den, {k: v for k, v in out.items() if v != (0, 0)}, self.form or other.form)

    def scale(self, x: int, y: int = 0, d: int = 1) -> "_Rows":
        """self times (x + y·i)/d."""
        return _Rows(self.den * d, {k: (a * x - b * y, a * y + b * x) for k, (a, b) in self.rows.items()}, self.form)


# a character no token starts with begins a `bad` token that takes the rest
_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>\d+)|d\s*\(\s*(?P<d>[A-Za-z_][A-Za-z_0-9]*)\s*\)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))|(?P<bad>[\s\S]+)"
)


class _Parser:
    """Recursive descent over the tiny expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*      -- '/' only by a nonzero scalar
    factor := atom ('^' integer)?  |  '-' factor
    atom   := integer | 'i' | variable | '(' expr ')' | 'd' '(' variable ')'

    Every node is _Rows.  A value is a polynomial until a d(variable)
    enters it, then a form: a product has at most one form factor, and '^'
    no form base.  A product multiplies every pair of rows, so a factor of
    one row (a number, i, a variable, its power, a parenthesised scalar,
    d(var)) costs one step a row of the other.  A power of a monomial
    scales its key, of a base in one variable (n·e + 1 terms) squares it
    repeatedly, and of any other base multiplies it in n times.
    """

    def __init__(self, ring: GradedRing, text: str):
        text = text.replace("−", "-").replace("⋅", "*").rstrip()
        self.toks = [(mt.lastgroup, mt[mt.lastgroup]) for mt in _TOKEN_RE.finditer(text)] + [("end", "")]
        if (bad := dict(self.toks).get("bad")) is not None:
            raise InvalidInput(f"cannot tokenize polynomial at {bad!r}")
        # every parsed exponent is at most MAX_EXPONENT, so degrees are at
        # most nvars·MAX_EXPONENT and keys at this width never carry; a dx
        # mask sits above the degree field, at `top`
        self.ring, self.k, self.depth = ring, 0, 0
        self.glex = _Glex.holding(ring.nvars, ring.nvars * MAX_EXPONENT)
        self.top = self.glex.top + self.glex.width

    def exponents(self, v: _Rows) -> list:
        """The largest exponent of each variable in v."""
        if len(v.rows) == 1:
            return self.glex.decode(next(iter(v.rows)))
        return [max(col) for col in zip(*map(self.glex.decode, v.rows))] or [0] * self.ring.nvars

    def peek(self):
        return self.toks[self.k]

    def take(self):
        self.k += 1
        return self.toks[self.k - 1]

    def nested(self, parse) -> _Rows:
        """parse() one level deeper in parentheses or unary minus signs."""
        if self.depth == MAX_NESTING:
            raise InvalidInput(f"polynomial nests parentheses or unary minus signs more than {MAX_NESTING} deep")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expr(self) -> _Rows:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            terms = len(node.rows) + len(rhs.rows)
            if terms > MAX_TERMS:  # a sum raises no exponent
                _check_size("sum", list(map(max, self.exponents(node), self.exponents(rhs))), terms)
            node = node.add(rhs, 1 if op == "+" else -1)
        return node

    def term(self) -> _Rows:
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            if op == "*":
                m, n = len(node.rows), len(rhs.rows)
                exps = list(map(_add, self.exponents(node), self.exponents(rhs)))
                _check_size("product", exps, m * n, node.bits() + rhs.bits() + min(m, n).bit_length() + 1)
                node = node * rhs
            elif rhs.form or list(rhs.rows) != [0]:
                raise InvalidInput("'/' only divides by nonzero scalars")
            else:  # times 1/((a + b·i)/d) = d·(a - b·i)/(a² + b²)
                ((a, b),) = rhs.rows.values()
                node = node.scale(rhs.den * a, -rhs.den * b, a * a + b * b)
        return node

    def factor(self) -> _Rows:
        if self.peek() == ("op", "-"):
            self.take()
            return self.nested(self.factor).scale(-1)
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            if node.form:
                raise InvalidInput("'^' takes no d(...) base")
            kind, val = self.take()
            if kind != "num":
                raise InvalidInput("'^' needs a nonnegative integer exponent")
            digits = val.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                shown = digits if len(digits) <= 20 else digits[:20] + "..."
                raise InvalidInput(f"exponent {shown} is above the cap {MAX_EXPONENT}")
            n, rows = int(digits), len(node.rows)
            exps = [n * e for e in self.exponents(node)]
            if n:
                _check_size("power", exps, comb(rows + n - 1, n), n * (node.bits() + rows.bit_length() + 1))
            if rows == 1 and node.den == 1 and (1, 0) in node.rows.values():  # a monomial
                return _Rows(1, {next(iter(node.rows)) * n: (1, 0)})
            power = _Rows(1, {0: (1, 0)})
            if sum(e > 0 for e in exps) > 1:  # its squares would form more pairs
                return reduce(_Rows.__mul__, [node] * n, power)
            while n:  # at most one variable: by repeated squaring
                power = power * node if n & 1 else power
                n >>= 1
                node = node * node if n else node
            return power
        return node

    def atom(self) -> _Rows:
        kind, val = self.take()
        if kind == "num":
            try:
                n = int(val)
            except ValueError as exc:  # longer than the interpreter converts
                raise InvalidInput(f"integer literal too long: {exc}") from exc
            return _Rows(1, {0: (n, 0)} if n else {})
        if kind == "name" and val in ("i", "d"):
            if val == "d":  # not followed by '(' variable ')'
                raise InvalidInput("d(...) takes one variable name, as in d(x)")
            return _Rows(1, {0: (0, 1)})
        if kind in ("name", "d"):
            if (v := self.ring._index.get(val)) is None:
                raise InvalidInput(f"unknown variable {val!r}")
            if kind == "d":  # the one-form dx_v: mask 1 << v, coefficient 1
                return _Rows(1, {1 << (self.top + v): (1, 0)}, form=True)
            return _Rows(1, {1 << self.glex.shifts[v] | 1 << self.glex.top: (1, 0)})
        if (kind, val) == ("op", "("):
            node = self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise InvalidInput("unbalanced parentheses")
            return node
        raise InvalidInput(f"unexpected token {val!r} in polynomial")


def _parse_entry(ring: GradedRing, text: str) -> Packed:
    """An entry string as a RingElement, or as a Packed form (see _Parser),
    each group divided by the relation (GradedRing._normal_forms)."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidInput("empty polynomial string")
    parser = _Parser(ring, text)
    node = parser.expr()
    if parser.peek() != ("end", ""):
        raise InvalidInput(f"trailing input in polynomial {text!r}")
    cls, width, top = Packed if node.form else RingElement, parser.glex.width, parser.top
    accs: dict = {}
    for k, (a, b) in node.rows.items():
        accs.setdefault((0, k >> top), {})[k & ((1 << top) - 1)] = [a, b]
    den, groups = ring._normal_forms(accs, node.den, width)
    return cls._reduced(ring, den, width, groups)
