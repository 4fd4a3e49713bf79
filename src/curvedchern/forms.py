"""Differential forms with exact polynomial coefficients, and u-series.

Forms live in the free exterior algebra over the ring's normal-form
coefficients.  Over a quotient ring the relation df0 = 0 is deliberately
NOT imposed; callers that need equality in the honest Kaehler
differentials work modulo the relation submodule df0 ∧ Ω via
vanishes_mod_relation, which on a smooth quotient (the only kind
relation_differential accepts) is the exact test df0 ∧ ω = 0.

A USeries is a finitely supported sum of terms u^J·p·dx_S in the even
formal variable u, and a DiffForm the case J = 0: both are rings.Packed
values, whose groups map (J, mask), mask the bitmask of S, to the rows of
p, over one denominator and width, each monomial packed in the ring's
one graded-lex encoding (rings._Glex: the degree field on top, then one
field a variable).  A RingElement is the group (0, 0), so a product takes
ring elements, forms and series as they stand.  rings.sum_of_products
reads and returns that layout, so no product builds a Scalar.  A product
pairs the groups of its factors in _pair, which files each pair's kernel
contribution into its caller's list (for Mat.sum_of_products, the output
entry's) with a sign read by the two masks from a memoized table: the
overlap test, the wedge sign and a factor by the two form parities, such
as a supertrace weight.  d subtracts a variable's unit key (one in its
field and one in the degree field) from a packed monomial and sets the
variable's bit in the mask.  A coefficient is a subset of the groups,
re-keyed and made canonical, and DiffForm.parts and RingElement.terms
build their views on read.
hn_differential is u·d + dh∧(-).
"""

from __future__ import annotations

from functools import cache
from weakref import WeakKeyDictionary

from .errors import InvalidInput, NotTopForm
from .groebner import buchberger, ideal_nf, jacobian_ideal
from .rings import GradedRing, Packed, RingElement, _KEY, _glex, _summed, sum_of_products

Indices = tuple[int, ...]


def _mask(S: Indices) -> int:
    return sum(1 << v for v in S)


class DiffForm(Packed):
    """A (possibly inhomogeneous) exterior form sum p_S·dx_S: a Packed value
    whose groups all sit at u^0, (0, mask of S).  DiffForm(ring, parts)
    checks outside input; results of operations are built by _make."""

    __slots__ = ()

    def __init__(self, ring: GradedRing, parts: dict | None = None):
        """The form over the items S: p_S of parts, S a strictly increasing
        tuple of variable indices and p_S a RingElement."""
        out = DiffForm.zero(ring)
        for S, coeff in (parts or {}).items():
            S = tuple(S)
            if any(b <= a for a, b in zip(S, S[1:])):
                raise InvalidInput(f"wedge index tuple {S} is not strictly increasing")
            if any(v < 0 or v >= ring.nvars for v in S):
                raise InvalidInput(f"wedge index tuple {S} out of range")
            if coeff.groups:
                out = out + DiffForm._make(ring, coeff.den, coeff.width, {(0, _mask(S)): coeff.rows})
        self.ring, self.den, self.width, self.groups = ring, out.den, out.width, out.groups

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_ring(p: RingElement) -> "DiffForm":
        return DiffForm._make(p.ring, p.den, p.width, p.groups)

    # -- arithmetic ----------------------------------------------------

    # in the class body, where perfbench's tracer looks for it
    __add__ = Packed.__add__

    def scale_ring(self, p: RingElement) -> "DiffForm":
        return self.wedge(DiffForm.from_ring(p))

    def wedge(self, other: "DiffForm") -> "DiffForm":
        v = USeries.sum_of_products(self.ring, ((1, 0, self, other),))
        return DiffForm._make(v.ring, v.den, v.width, v.groups)

    # -- structure -----------------------------------------------------

    @property
    def parts(self) -> dict[Indices, RingElement]:
        """The form as {S: RingElement}: a new dict on each read."""
        return {_indices(g[1]): self._coefficient(g) for g in self.groups}

    def _coefficient(self, g: tuple) -> RingElement:
        rows = self.groups.get(g)
        return RingElement._reduced(self.ring, self.den, self.width, {_KEY: rows} if rows else {})

    def component(self, degree: int) -> "DiffForm":
        groups = {g: rows for g, rows in self.groups.items() if g[1].bit_count() == degree}
        return DiffForm._reduced(self.ring, self.den, self.width, groups)

    def coefficient(self, S: Indices) -> RingElement:
        return self._coefficient((0, _mask(S)))

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        parts = self.parts
        if not parts:
            return "0"
        chunks = []
        for S in sorted(parts, key=lambda s: (len(s), s)):
            wedge = " ".join(f"d({self.ring.variables[v]})" for v in S)
            cs = str(parts[S])
            if not S:
                chunks.append(cs)
            elif cs == "1":
                chunks.append(wedge)
            elif cs == "-1":
                chunks.append(f"-{wedge}")
            else:
                if " " in cs:  # multi-term coefficient
                    cs = f"({cs})"
                chunks.append(f"{cs}*{wedge}")
        out = chunks[0]
        for ch in chunks[1:]:
            out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return out

    def __repr__(self) -> str:
        return f"<form {self}>"


class _SignRow(dict):
    """m2 -> signs[|S_2| % 2] times the sign that sorts dx_{m1} ∧ dx_{m2}
    into dx_{m1 | m2}, or 0 when the masks meet; filled on demand."""

    def __init__(self, m1: int, signs: tuple):
        super().__init__()
        self.m1, self.signs = m1, signs

    def __missing__(self, m2: int) -> int:
        m1 = self.m1
        inversions = sum((m1 >> (b + 1)).bit_count() for b in _indices(m2))
        sign = self[m2] = 0 if m1 & m2 else (-1) ** inversions * self.signs[m2.bit_count() % 2]
        return sign


class _SignTable(dict):
    """m1 -> its _SignRow under signs[|S_1| % 2], signs a product's signs
    by the parities of its two form degrees; filled on demand."""

    def __init__(self, signs: tuple):
        super().__init__()
        self.signs = signs

    def __missing__(self, m1: int) -> _SignRow:
        row = self[m1] = _SignRow(m1, self.signs[m1.bit_count() % 2])
        return row


# the sign tables, memoized, and _UNIFORM[sign], every product at one sign
_wedge_signs = cache(_SignTable)
_UNIFORM = {sign: _wedge_signs(((sign, sign), (sign, sign))) for sign in (1, -1)}


@cache
def _indices(mask: int) -> Indices:
    """The wedge indices of a mask, increasing."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _exterior_d(v: Packed, negate: bool = False) -> Packed:
    """d of a form or u-series, u-power by u-power, negated when `negate`:
    d(p dx_S) = sum_v (dp/dx_v) dx_v ∧ dx_S, where dx_v ∧ dx_S is zero for
    v in S and otherwise (-1)^{#{w in S : w < v}} dx_{S + v} (see _d_groups)."""
    groups = _d_groups(_glex(v.ring.nvars, v.width), v.groups, negate)
    return v._reduced(v.ring, v.den, v.width, groups)


def _d_groups(glex, groups: dict, negate: bool) -> dict:
    """The groups of d(groups) at glex's width, negated when `negate`,
    before the common factor is divided out (see _exterior_d).  On a
    packed row the derivative in x_v multiplies the numerators by the
    exponent in v's field and subtracts v's unit key, which covers its
    field and the degree field, while v's bit enters the mask; only a
    target group reached twice is summed row by row, and no group is
    empty.  No normal form is needed: the relation's lead divides no
    monomial of the series, so it divides none of their derivatives."""
    field, top = glex.field, 1 << glex.top
    out: dict = {}
    shared = set()
    for (J, mask), rows in groups.items():
        below = negate
        for var, shift in enumerate(glex.shifts):
            if mask >> var & 1:
                below += 1
                continue
            sign, unit = -1 if below % 2 else 1, 1 << shift | top
            d = [(k - unit, e * a, e * b) for k, a, b in rows if (e := sign * (k >> shift & field))]
            if d:
                g = (J, mask | 1 << var)
                if g in out:
                    out[g] += d
                    shared.add(g)
                else:
                    out[g] = d
    for g in shared:
        if summed := _summed(out[g]):
            out[g] = summed
        else:
            del out[g]
    return out


def de_rham_d(omega: DiffForm) -> DiffForm:
    """Exterior derivative of a form (see _exterior_d)."""
    return _exterior_d(omega)


# ---------------------------------------------------------------------------
# u-series
# ---------------------------------------------------------------------------


class USeries(Packed):
    """A finitely supported sum of terms u^J·p·dx_S with u even.

    groups maps (J, mask), J >= 0 and mask the bitmask of S, to the rows
    of p (see rings.Packed).  USeries(ring, {J: DiffForm}) checks outside
    input; results of operations are built by USeries._make, unchecked.
    """

    __slots__ = ()

    def __init__(self, ring: GradedRing, coeffs: dict | None = None):
        total = USeries.zero(ring)
        for J, form in (coeffs or {}).items():
            total = total + USeries.from_form(form, int(J))
        self.ring, self.den, self.width, self.groups = ring, total.den, total.width, total.groups

    @staticmethod
    def from_form(form: Packed, power: int = 0) -> "USeries":
        """u^power times a form or a ring element, its groups re-keyed."""
        if power < 0:
            raise InvalidInput("negative u-powers do not occur")
        groups = {(J + power, mask): rows for (J, mask), rows in form.groups.items()} if power else form.groups
        return USeries._make(form.ring, form.den, form.width, groups)

    from_ring = from_form

    @property
    def coeffs(self) -> dict[int, DiffForm]:
        """The series grouped by u-power, {J: DiffForm}: a new dict on each
        read, so writing to it leaves the series unchanged."""
        return {J: self.coefficient(J) for J in self.u_powers()}

    # in the class body, where perfbench's tracer looks for it
    __add__ = Packed.__add__

    def __mul__(self, other: "USeries") -> "USeries":
        return USeries.sum_of_products(self.ring, ((1, 0, self, other),))

    @staticmethod
    def sum_of_products(ring: GradedRing, pairs) -> "USeries":
        """Sum of sign·u^shift·a·b over the (sign, shift, a, b) in pairs, in
        one rings.sum_of_products call (see _pair), or in none when no pair
        of groups forms a product.  Signs are ±1, shifts nonnegative ints;
        a and b may be series, forms or ring elements."""
        terms: list = []
        for sign, shift, a, b in pairs:
            _pair(terms, a, b, _UNIFORM[sign], shift)
        return USeries._make(ring, *sum_of_products(ring, terms)) if terms else USeries.zero(ring)

    def shift_u(self, k: int) -> "USeries":
        if k < 0 and any(J + k < 0 for J, _ in self.groups):
            raise InvalidInput("negative u-powers do not occur")
        groups = {(J + k, mask): rows for (J, mask), rows in self.groups.items()}
        return USeries._make(self.ring, self.den, self.width, groups)

    def coefficient(self, J: int) -> DiffForm:
        """The u^J coefficient: the groups at J, re-keyed to u^0."""
        groups = {(0, mask): rows for (K, mask), rows in self.groups.items() if K == J}
        return DiffForm._reduced(self.ring, self.den, self.width, groups)

    def u_powers(self) -> tuple[int, ...]:
        return tuple(sorted({J for J, _ in self.groups}))

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        return "; ".join(f"u^{J}: {coeffs[J]}" for J in sorted(coeffs))

    def __repr__(self) -> str:
        return f"<useries {self}>"


def _pair(terms: list, a: Packed, b: Packed, signs: _SignTable, shift: int = 0) -> None:
    """Append to terms the rings.sum_of_products contributions of
    u^shift·a·b: for each pair of groups g of a and h of b, at the wider
    width and denominator a.den·b.den, their product under (J_g + J_h +
    shift, mask_g | mask_h) with sign signs[mask_g][mask_h] (_SignTable),
    left out when 0.  The one pairing loop of every product."""
    width = a.width
    if width == b.width:
        left, right = a.groups, b.groups
    else:
        width = max(width, b.width)
        left, right = a._at(width), b._at(width)
    d = a.den * b.den
    for (J1, m1), P in left.items():
        J1 += shift
        wedge = signs[m1]
        for (J2, m2), Q in right.items():
            if s := wedge[m2]:
                terms.append(((J1 + J2, m1 | m2), s, d, width, P, Q))


def hn_differential(p: USeries, h: RingElement) -> USeries:
    """(u·d + dh∧)(p): the negative-cyclic-side mixed differential."""
    return _exterior_d(p).shift_u(1) + _exterior_d(USeries.from_ring(h)) * p


# ring -> df0 as (den, width, groups), or None for a ring without a
# relation: what relation_differential found for the ring.  The layout
# holds no reference to the ring, so a ring no one else holds leaves the
# cache.
_RELATION_DIFFERENTIAL: WeakKeyDictionary = WeakKeyDictionary()


def relation_differential(ring: GradedRing) -> DiffForm | None:
    """df0 for the ring's relation f0, None for a ring without one, and
    InvalidInput when A = k[x]/(f0) is not smooth: the paper's formula
    is proved for smooth A only.

    In characteristic 0, A is smooth iff 1 ∈ (f0, ∂_1 f0, ..., ∂_n f0)
    (the Jacobian criterion), decided by a Groebner basis over the
    relation-free copy of the ring.  Then Σ b_i·∂_i f0 = 1 in A for some
    b_i, and contracting with ξ = Σ b_i ∂_i is an odd derivation ι with
    ι(df0) = 1, so ω = ι(df0 ∧ ω) + df0 ∧ ι(ω) for every form ω: df0 ∧ ω
    = 0 iff ω = df0 ∧ ι(ω) lies in the relation submodule df0 ∧ Ω.  That
    makes the wedge with df0 an exact membership test, with no degree
    bound.  The answer is held per ring.
    """
    if ring not in _RELATION_DIFFERENTIAL:
        layout = None
        if (f0 := ring.relation) is not None:
            free = GradedRing(ring.variables, ring.degrees, ring.grading)
            f = RingElement._make(free, f0.den, f0.width, f0.groups)
            if not buchberger([f, *jacobian_ideal(f)]).contains_unit():
                partials = ", ".join(f"d(f0)/d{v}" for v in ring.variables)
                raise InvalidInput(
                    f"relation is singular: 1 is not in (f0, {partials}), "
                    "the Jacobian criterion for smoothness"
                )
            df0 = de_rham_d(DiffForm.from_ring(f0))
            layout = df0.den, df0.width, df0.groups
        _RELATION_DIFFERENTIAL[ring] = layout
    layout = _RELATION_DIFFERENTIAL[ring]
    return None if layout is None else DiffForm._make(ring, *layout)


def vanishes_mod_relation(form: DiffForm) -> bool:
    """True when the form is 0, or lies in the relation submodule
    df0 ∧ Ω: exactly when df0 ∧ form = 0 (see relation_differential,
    which refuses a singular relation)."""
    df0 = relation_differential(form.ring)
    return form.is_zero() or (df0 is not None and df0.wedge(form).is_zero())


def milnor_representative(omega: DiffForm, f: RingElement) -> RingElement:
    """Class of a top form in the Milnor algebra of f.

    For omega = a·dx_1∧...∧dx_n returns the Groebner normal form of a
    modulo the Jacobian ideal of f; raises NotTopForm when omega has a
    component below top degree.
    """
    ring = omega.ring
    top = tuple(range(ring.nvars))
    for _, mask in omega.groups:
        if mask != _mask(top):
            raise NotTopForm(f"component dx_{_indices(mask)} is not the top form")
    coeff = omega.coefficient(top)
    if coeff.is_zero():
        return ring.zero()
    G = buchberger(jacobian_ideal(f))
    return ideal_nf(coeff, G)
