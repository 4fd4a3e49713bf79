"""Differential forms with exact polynomial coefficients, and u-series.

Forms live in the free exterior algebra over the ring's normal-form
coefficients.  Over a quotient ring the relation df0 = 0 is deliberately
NOT imposed; callers that need equality in the honest Kaehler
differentials work modulo the submodule generated by df0 ∧ dx_S via
module_membership.

A USeries is a finitely supported sum of terms u^J·p·dx_S in the even
formal variable u, and a DiffForm the case J = 0: both are rings.Packed
values, whose groups map (J, mask), mask the bitmask of S, to the rows of
p, over one denominator and width, each monomial packed in the ring's
one graded-lex encoding (rings._Glex: the degree field on top, then one
field a variable).  A RingElement is the group (0, 0), so a product takes
ring elements, forms and series as they stand.  rings.sum_of_products
reads and returns that layout, so no product builds a Scalar.  A product
pairs the groups of its factors, the overlap test and the wedge sign
taken from the two masks once per pair of groups; d subtracts a
variable's unit key (one in its field and one in the degree field) from
a packed monomial and sets the variable's bit in the mask, and
relation_bound reads the degree field of the largest packed monomial.  A
coefficient is a subset of the groups, re-keyed and made canonical, and
DiffForm.parts and RingElement.terms build their views on read.
hn_differential is u·d + dh∧(-).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from weakref import WeakKeyDictionary

from .errors import InternalCheckFailure, InvalidInput, NotTopForm
from .groebner import buchberger, ideal_nf, jacobian_ideal
from .linalg import solve_sparse
from .rings import GradedRing, Packed, RingElement, _KEY, _divides, _glex, _summed
from .rings import monomial_key, sum_of_products
from .scalars import Scalar

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

    def form_degrees(self) -> set[int]:
        return {mask.bit_count() for _, mask in self.groups}

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
    """m2 -> the sign that sorts dx_{m1} ∧ dx_{m2} into dx_{m1 | m2}, or 0
    when the masks share an index; filled on demand."""

    def __init__(self, m1: int):
        super().__init__()
        self.m1 = m1

    def __missing__(self, m2: int) -> int:
        m1 = self.m1
        inversions = sum((m1 >> (b + 1)).bit_count() for b in _indices(m2))
        sign = self[m2] = 0 if m1 & m2 else (-1) ** inversions
        return sign


# the wedge signs of a mask with every other mask, memoized: every pair of
# groups of every product asks
_wedge_row = cache(_SignRow)


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
    def sum_of_products(ring: GradedRing, pairs, plus=()) -> "USeries":
        """Sum of sign·u^shift·a·b over the (sign, shift, a, b) in pairs,
        plus sign·u^shift·v over the (sign, shift, v) in plus, in one
        rings.sum_of_products call (see _pair_groups) that adds the groups
        of each v to its sums as rows without a product; without a pair to
        form, the plus terms are merged and no product is formed.  Signs are
        ±1, shifts nonnegative ints; a and b may be series, forms or ring
        elements."""
        terms: list = []
        for sign, shift, a, b in pairs:
            _pair_series(terms, a, b, ((sign, sign), (sign, sign)), shift)
        if terms:
            added = [
                ((J + shift, mask), sign, v.den, v.width, rows)
                for sign, shift, v in plus
                for (J, mask), rows in v.groups.items()
            ]
            return USeries._make(ring, *sum_of_products(ring, terms, added))
        out = USeries.zero(ring)
        for sign, shift, v in plus:
            out = out._merge(v, sign, shift)
        return out

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


def _pair_groups(terms: list, left, right, signs: tuple, d: int, width: int, shift: int = 0) -> None:
    """Append the rings.sum_of_products contributions of the pairs of
    groups ((J, mask), rows) in left x right, at `width` with denominator
    product d: the product of u^shift·g and h filed under (J_g + J_h +
    shift, mask_g | mask_h) with the wedge sign times signs[|S_g| %
    2][|S_h| % 2]; a pair of sign 0 is left out."""
    right = [(J2, m2, m2.bit_count() % 2, Q) for (J2, m2), Q in right]
    for (J1, m1), P in left:
        J1 += shift
        row = signs[m1.bit_count() % 2]
        wedge = _wedge_row(m1)
        for J2, m2, p2, Q in right:
            if (m := row[p2]) and (s := wedge[m2]):
                terms.append(((J1 + J2, m1 | m2), m * s, d, width, P, Q))


def _pair_series(terms: list, a: Packed, b: Packed, signs: tuple, shift: int = 0) -> None:
    """_pair_groups on every pair of groups of a x b."""
    width = max(a.width, b.width)
    _pair_groups(terms, a._at(width).items(), b._at(width).items(), signs, a.den * b.den, width, shift)


def hn_differential(p: USeries, h: RingElement) -> USeries:
    """(u·d + dh∧)(p): the negative-cyclic-side mixed differential."""
    return _exterior_d(p).shift_u(1) + _exterior_d(USeries.from_ring(h)) * p


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------


@dataclass
class MembershipCertificate:
    """Outcome of a degree-bounded module-membership solve.

    member=False only ever means `not member up to degree_bound`; the
    coefficients of a positive certificate are re-verified by expansion.
    """

    member: bool
    degree_bound: int
    coefficients: list[RingElement] | None = None

    def __bool__(self) -> bool:
        return self.member


def _nf_monomials_up_to(ring: GradedRing, bound: int) -> list:
    """Normal-form ring monomials of total degree <= bound, sorted."""
    out = []
    stack = [(0,) * ring.nvars]
    seen = set(stack)
    lead = None if ring.relation is None else ring.relation.leading_term()[0]
    while stack:
        m = stack.pop()
        out.append(m)
        for v in range(ring.nvars):
            if sum(m) < bound:
                nxt = m[:v] + (m[v] + 1,) + m[v + 1 :]
                if nxt not in seen:
                    # skip monomials the relation would rewrite
                    if lead is not None and _divides(lead, nxt):
                        continue
                    seen.add(nxt)
                    stack.append(nxt)
    return sorted(out, key=monomial_key)


def module_membership(
    target: DiffForm, generators: list[DiffForm], degree_bound: int
) -> MembershipCertificate:
    """Decide target = sum q_g * g with ring coefficients of degree <= bound.

    Exact sparse solve over the monomial basis; positive certificates are
    re-verified by expansion (InternalCheckFailure if that ever fails).
    """
    ring = target.ring
    if target.is_zero():
        return MembershipCertificate(True, degree_bound, [ring.zero()] * len(generators))
    monomials = _nf_monomials_up_to(ring, degree_bound)
    columns = []
    col_meta = []
    for gi, g in enumerate(generators):
        for m in monomials:
            p = ring.element({m: Scalar(1)})
            shifted = g.scale_ring(p)
            col = {}
            for S, c in shifted.parts.items():
                for mono, val in c.terms.items():
                    col[(S, mono)] = val
            if col:
                columns.append(col)
                col_meta.append((gi, m))
    rhs = {}
    for S, c in target.parts.items():
        for mono, val in c.terms.items():
            rhs[(S, mono)] = val
    solution = solve_sparse(columns, rhs)
    if solution is None:
        return MembershipCertificate(False, degree_bound)
    coeffs = [ring.zero() for _ in generators]
    for (gi, m), x in zip(col_meta, solution):
        if not x.is_zero():
            coeffs[gi] = coeffs[gi] + ring.element({m: x})
    # re-verify by expansion
    check = DiffForm.zero(ring)
    for q, g in zip(coeffs, generators):
        check = check + g.scale_ring(q)
    if check != target:
        raise InternalCheckFailure("membership certificate failed re-verification")
    return MembershipCertificate(True, degree_bound, coeffs)


def relation_form_generators(ring: GradedRing, degrees: set[int]) -> list[DiffForm]:
    """Generators df0 ∧ dx_S of the relation submodule in the given form
    degrees (f0·Ω generators are redundant because coefficients are always
    normal-formed)."""
    if ring.relation is None:
        return []
    df0 = de_rham_d(DiffForm.from_ring(ring.relation))
    gens = []
    for c in sorted(degrees):
        if c == 0:
            continue
        for S in combinations(range(ring.nvars), c - 1):
            g = df0.wedge(DiffForm(ring, {S: ring.one()}))
            if not g.is_zero():
                gens.append(g)
    return gens


# ring -> df0 as (den, width, groups), or None: what _relation_gradient_unit
# found for the ring.  The layout holds no reference to the ring, so a
# ring no one else holds leaves the cache.
_GRADIENT_UNIT: WeakKeyDictionary = WeakKeyDictionary()


def _relation_gradient_unit(ring: GradedRing) -> DiffForm | None:
    """df0 when the gradient self-pairing of the relation is a unit scalar.

    Let c_i = NF(∂f0/∂x_i) and p = Σ c_i·c_i.  Contracting with the
    gradient field ξ = Σ c_i ∂_i is an odd derivation ι with ι(df0) = p,
    so p·ω = ι(df0 ∧ ω) + df0 ∧ ι(ω).  When p is an invertible scalar of
    the quotient ring this makes ω ↦ df0 ∧ ω a *complete* membership test
    for the relation submodule: df0 ∧ ω = 0 iff ω = df0 ∧ (p⁻¹ ι(ω)).
    Returns None when the shortcut does not apply.
    """
    if ring not in _GRADIENT_UNIT:
        layout = None
        if ring.relation is not None:
            p = ring.zero()
            for v in ring.variables:
                c = ring.relation.derivative(v)
                p = p + c * c
            if p.is_scalar() and not p.is_zero():
                df0 = de_rham_d(DiffForm.from_ring(ring.relation))
                layout = df0.den, df0.width, df0.groups
        _GRADIENT_UNIT[ring] = layout
    layout = _GRADIENT_UNIT[ring]
    return None if layout is None else DiffForm._make(ring, *layout)


def relation_bound(v: Packed) -> int:
    """The default membership degree bound for a nonzero ring element,
    form or series: two above the largest total degree of its monomials,
    the top field of its largest packed monomial."""
    return (max(max(rows)[0] for rows in v.groups.values()) >> v.width * v.ring.nvars) + 2


def vanishes_mod_relation(form: DiffForm, degree_bound: int | None = None) -> bool:
    """True when the form is 0, or lies in the relation submodule.

    For relations whose gradient self-pairing is a unit scalar (e.g.
    sphere relations) the test is exact and unbounded: wedge with df0 and
    compare with zero.  Otherwise membership is a degree-bounded linear
    solve; with no bound, coefficients are sought up to two degrees above
    the largest coefficient degree appearing in the form itself.
    """
    if form.is_zero():
        return True
    if form.ring.relation is None:
        return False
    df0 = _relation_gradient_unit(form.ring)
    if df0 is not None:
        return df0.wedge(form).is_zero()
    if degree_bound is None:
        degree_bound = relation_bound(form)
    gens = relation_form_generators(form.ring, form.form_degrees())
    if not gens:
        return False
    return bool(module_membership(form, gens, degree_bound))


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
