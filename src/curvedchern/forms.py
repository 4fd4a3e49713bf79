"""Differential forms with exact polynomial coefficients, and u-series.

Forms live in the free exterior algebra over the ring's normal-form
coefficients: a DiffForm maps strictly increasing tuples of variable
indices to RingElements.  Over a quotient ring the relation df0 = 0 is
deliberately NOT imposed; callers that need equality in the honest Kaehler
differentials work modulo the submodule generated by df0 ∧ dx_S via
module_membership.

A USeries is a finitely supported sum of terms u^J·p·dx_S in the even
formal variable u, stored flat as one dict terms {(J, S): p}: J >= 0, S
strictly increasing wedge indices, p a nonzero RingElement.  That is the
layout rings.sum_of_products returns, so a product's result is kept as it
comes, and every reader walks one dict.  USeries(ring, {J: DiffForm})
checks outside input; coeffs is the same series grouped by u-power, for
the reports.  hn_differential is the mixed differential u·d + dh∧(-).

Wedge and u-series products hand all their coefficient products, keyed
by (u-power, wedge indices) with the Koszul sign, to one
rings.sum_of_products call, which normal-forms each coefficient once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

from .errors import InternalCheckFailure, InvalidInput, NotTopForm
from .groebner import buchberger, ideal_nf, jacobian_ideal
from .linalg import solve_sparse
from .rings import GradedRing, RingElement, monomial_key, sum_of_products
from .scalars import Scalar

Indices = tuple[int, ...]


class DiffForm:
    """A (possibly inhomogeneous) exterior form with RingElement coefficients."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: GradedRing, parts: dict | None = None, _check: bool = True):
        self.ring = ring
        if not _check:
            # an internal result: its index tuples are strictly increasing
            # and in range, and its coefficients nonzero, by construction
            self.parts = parts
            return
        clean: dict[Indices, RingElement] = {}
        for S, coeff in (parts or {}).items():
            S = tuple(S)
            if any(b <= a for a, b in zip(S, S[1:])):
                raise InvalidInput(f"wedge index tuple {S} is not strictly increasing")
            if any(v < 0 or v >= ring.nvars for v in S):
                raise InvalidInput(f"wedge index tuple {S} out of range")
            if not coeff.is_zero():
                clean[S] = coeff
        self.parts = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ring: GradedRing) -> "DiffForm":
        return DiffForm(ring, {})

    @staticmethod
    def from_ring(p: RingElement) -> "DiffForm":
        return DiffForm(p.ring, {(): p})

    @staticmethod
    def d_var(ring: GradedRing, name: str) -> "DiffForm":
        return DiffForm(ring, {(ring._index[name],): ring.one()})

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "DiffForm") -> "DiffForm":
        out = dict(self.parts)
        for S, c in other.parts.items():
            got = out.get(S)
            s = c if got is None else got + c
            if s.is_zero():
                out.pop(S, None)
            else:
                out[S] = s
        return DiffForm(self.ring, out, _check=False)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.ring, {S: -c for S, c in self.parts.items()}, _check=False)

    def scale_ring(self, p: RingElement) -> "DiffForm":
        parts = {S: p * c for S, c in self.parts.items()}
        return DiffForm(
            self.ring, {S: c for S, c in parts.items() if not c.is_zero()}, _check=False
        )

    def scale(self, c: Scalar) -> "DiffForm":
        if c.is_zero():
            return DiffForm.zero(self.ring)
        return DiffForm(
            self.ring, {S: coeff.scale(c) for S, coeff in self.parts.items()}, _check=False
        )

    def wedge(self, other: "DiffForm") -> "DiffForm":
        product = USeries.from_form(self) * USeries.from_form(other)
        return DiffForm(self.ring, {S: p for (_, S), p in product.terms.items()}, _check=False)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def form_degrees(self) -> set[int]:
        return {len(S) for S in self.parts}

    def component(self, degree: int) -> "DiffForm":
        return DiffForm(
            self.ring, {S: c for S, c in self.parts.items() if len(S) == degree}, _check=False
        )

    def coefficient(self, S: Indices) -> RingElement:
        return self.parts.get(tuple(S), self.ring.zero())

    def has_gamma_degree(self, d: int) -> bool:
        """Check Gamma-homogeneity with |d(x_v)| = |x_v| - 1 (zero passes)."""
        ring = self.ring
        for S, c in self.parts.items():
            shift = sum(ring.degrees[v] - 1 for v in S)
            if not c.has_gamma_degree(ring.degree_reduce(d - shift)):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffForm)
            and self.ring.same_as(other.ring)
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted((S, tuple(sorted(c.terms.items()))) for S, c in self.parts.items())))

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for S in sorted(self.parts, key=lambda s: (len(s), s)):
            coeff = self.parts[S]
            wedge = " ".join(f"d({self.ring.variables[v]})" for v in S)
            cs = str(coeff)
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


@cache
def _merge_indices(S1: Indices, S2: Indices) -> tuple[Indices, int] | None:
    """Concatenate and sort wedge indices, with the Koszul sign of the sort;
    None if a repeat kills the term.  Memoized by (S1, S2): there are at
    most 4^nvars pairs of index tuples, and every component pair of every
    product asks."""
    if set(S1) & set(S2):
        return None
    merged = S1 + S2
    # inversion count of the concatenation gives the Koszul sign
    inversions = sum(
        1 for a in range(len(merged)) for b in range(a + 1, len(merged)) if merged[a] > merged[b]
    )
    return tuple(sorted(merged)), (-1) ** inversions


def _exterior_d(ring: GradedRing, terms: dict, negate: bool = False) -> dict:
    """d of a flat map {(J, S): p}, u-power by u-power, negated when
    `negate`: d(p dx_S) = sum_v (dp/dx_v) dx_v ∧ dx_S.

    dx_v ∧ dx_S is zero for v in S and otherwise dx_T, T = S with v merged
    in, with sign (-1)^{#{w in S : w < v}}; one `RingElement.partials` pass
    per coefficient forms every signed derivative, and they are summed per
    (J, T), so no ring product is formed.  The result has no zero
    coefficient."""
    sums: dict = {}
    for (J, S), c in terms.items():
        signs, merged = _d_table(S, ring.nvars, negate)
        for dc, T in zip(c.partials(signs), merged):
            if dc is None:
                continue
            key = (J, T)
            got = sums.get(key)
            sums[key] = dc if got is None else got + dc
    return {T: p for T, p in sums.items() if not p.is_zero()}


@cache
def _d_table(S: Indices, nvars: int, negate: bool) -> tuple[tuple, tuple]:
    """For each variable v, the sign of dx_v ∧ dx_S in _exterior_d (0 for
    v in S) and the indices S with v merged in.  Memoized like
    _merge_indices: at most 2^nvars index tuples per ring size."""
    below = [bisect_left(S, v) for v in range(nvars)]
    signs = tuple(0 if v in S else (-1) ** (b + negate) for v, b in enumerate(below))
    return signs, tuple(S[:b] + (v,) + S[b:] for v, b in enumerate(below))


def de_rham_d(omega: DiffForm) -> DiffForm:
    """Exterior derivative of a form (see _exterior_d)."""
    sums = _exterior_d(omega.ring, {(0, S): c for S, c in omega.parts.items()})
    return DiffForm(omega.ring, {S: p for (_, S), p in sums.items()}, _check=False)


# ---------------------------------------------------------------------------
# u-series
# ---------------------------------------------------------------------------


class USeries:
    """A finitely supported sum of terms u^J·p·dx_S with u even.

    terms maps (J, S) to p: J >= 0, S strictly increasing wedge indices in
    range, p a nonzero RingElement.  USeries(ring, {J: DiffForm}) checks
    outside input; results of operations are built by USeries._make,
    unchecked.  A USeries is never changed once made.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, coeffs: dict | None = None):
        self.ring = ring
        terms: dict = {}
        for J, form in (coeffs or {}).items():
            if J < 0:
                raise InvalidInput("negative u-powers do not occur")
            for S, p in form.parts.items():
                terms[(int(J), S)] = p
        self.terms = terms

    @staticmethod
    def _make(ring: GradedRing, terms: dict) -> "USeries":
        """An internal result: a flat map that keeps the invariants of
        terms by construction."""
        v = object.__new__(USeries)
        v.ring = ring
        v.terms = terms
        return v

    @staticmethod
    def zero(ring: GradedRing) -> "USeries":
        return USeries._make(ring, {})

    @staticmethod
    def from_form(form: DiffForm, power: int = 0) -> "USeries":
        return USeries(form.ring, {power: form})

    @staticmethod
    def from_ring(p: RingElement, power: int = 0) -> "USeries":
        return USeries(p.ring, {power: DiffForm.from_ring(p)})

    @property
    def coeffs(self) -> dict[int, DiffForm]:
        """The series grouped by u-power, {J: DiffForm}: a new dict on each
        read, so writing to it leaves the series unchanged."""
        parts: dict[int, dict] = {}
        for (J, S), p in self.terms.items():
            parts.setdefault(J, {})[S] = p
        return {J: DiffForm(self.ring, f, _check=False) for J, f in parts.items()}

    def __add__(self, other: "USeries") -> "USeries":
        return self._merge(other, False)

    def __sub__(self, other: "USeries") -> "USeries":
        return self._merge(other, True)

    def _merge(self, other: "USeries", negate: bool) -> "USeries":
        """self + other, or self - other when `negate`: only the terms of
        other whose key self lacks are negated on their own."""
        out = dict(self.terms)
        for key, q in other.terms.items():
            p = out.get(key)
            if p is None:
                out[key] = -q if negate else q
                continue
            s = p - q if negate else p + q
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
        return USeries._make(self.ring, out)

    def __neg__(self) -> "USeries":
        return USeries._make(self.ring, {k: -p for k, p in self.terms.items()})

    def __mul__(self, other: "USeries") -> "USeries":
        return USeries.sum_of_products(self.ring, ((1, 0, self, other),))

    @staticmethod
    def sum_of_products(ring: GradedRing, pairs, plus=()) -> "USeries":
        """Sum of sign·u^shift·a·b over the (sign, shift, a, b) in pairs,
        in one rings.sum_of_products call (none when pairs is empty), plus
        sign·u^shift·v over the (sign, shift, v) in plus, added term by term
        without forming a product.  Signs are ±1, shifts nonnegative ints."""
        terms: list = []
        for sign, shift, a, b in pairs:
            right = b.terms.items()
            for (J1, S1), p in a.terms.items():
                J1 += shift
                for (J2, S2), q in right:
                    merged = _merge_indices(S1, S2)
                    if merged is not None:
                        terms.append(((J1 + J2, merged[0]), sign * merged[1], p, q))
        out = sum_of_products(ring, terms) if terms else {}
        for sign, shift, v in plus:
            for (J, S), p in v.terms.items():
                key = (J + shift, S)
                q = p if sign == 1 else -p
                got = out.get(key)
                if got is None:
                    out[key] = q
                    continue
                q = got + q
                if q.terms:
                    out[key] = q
                else:
                    del out[key]
        return USeries._make(ring, out)

    @staticmethod
    def from_terms(ring: GradedRing, terms: list) -> "USeries":
        """The sum of rings.sum_of_products contributions keyed (u-power,
        wedge indices), with u-powers nonnegative ints and wedge indices
        strictly increasing: the kernel's result is the flat map."""
        return USeries._make(ring, sum_of_products(ring, terms))

    def scale(self, c: Scalar) -> "USeries":
        if c.is_zero():
            return USeries.zero(self.ring)
        # a nonzero scalar keeps every coefficient nonzero
        return USeries._make(self.ring, {k: p.scale(c) for k, p in self.terms.items()})

    def shift_u(self, k: int) -> "USeries":
        if k < 0 and any(J + k < 0 for J, _ in self.terms):
            raise InvalidInput("negative u-powers do not occur")
        return USeries._make(
            self.ring, {(J + k, S): p for (J, S), p in self.terms.items()}
        )

    def coefficient(self, J: int) -> DiffForm:
        return DiffForm(
            self.ring, {S: p for (K, S), p in self.terms.items() if K == J}, _check=False
        )

    def u_powers(self) -> tuple[int, ...]:
        return tuple(sorted({J for J, _ in self.terms}))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, USeries)
            and self.ring.same_as(other.ring)
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        return "; ".join(f"u^{J}: {coeffs[J]}" for J in sorted(coeffs))

    def __repr__(self) -> str:
        return f"<useries {self}>"


def hn_differential(p: USeries, h: RingElement) -> USeries:
    """(u·d + dh∧)(p): the negative-cyclic-side mixed differential."""
    dh = USeries.from_form(de_rham_d(DiffForm.from_ring(h)))
    return USeries._make(p.ring, _exterior_d(p.ring, p.terms)).shift_u(1) + dh * p


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
    while stack:
        m = stack.pop()
        out.append(m)
        for v in range(ring.nvars):
            if sum(m) < bound:
                nxt = m[:v] + (m[v] + 1,) + m[v + 1 :]
                if nxt not in seen:
                    # skip monomials the relation would rewrite
                    if ring.relation is not None:
                        lm = ring._rel_lm
                        if all(a >= b for a, b in zip(nxt, lm)):
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
        for S in _index_tuples(ring.nvars, c - 1):
            g = df0.wedge(DiffForm(ring, {S: ring.one()}))
            if not g.is_zero():
                gens.append(g)
    return gens


def _index_tuples(n: int, k: int) -> list[Indices]:
    from itertools import combinations

    return [tuple(c) for c in combinations(range(n), k)]


def _relation_gradient_unit(ring: GradedRing) -> DiffForm | None:
    """df0 when the gradient self-pairing of the relation is a unit scalar.

    Let c_i = NF(∂f0/∂x_i) and p = Σ c_i·c_i.  Contracting with the
    gradient field ξ = Σ c_i ∂_i is an odd derivation ι with ι(df0) = p,
    so p·ω = ι(df0 ∧ ω) + df0 ∧ ι(ω).  When p is an invertible scalar of
    the quotient ring this makes ω ↦ df0 ∧ ω a *complete* membership test
    for the relation submodule: df0 ∧ ω = 0 iff ω = df0 ∧ (p⁻¹ ι(ω)).
    Returns None when the shortcut does not apply.
    """
    cached = getattr(ring, "_gradient_unit_df0", False)
    if cached is not False:
        return cached
    result = None
    if ring.relation is not None:
        df0 = de_rham_d(DiffForm.from_ring(ring.relation))
        p = ring.zero()
        for v in ring.variables:
            c = ring.relation.derivative(v)
            p = p + c * c
        terms = p.terms
        if len(terms) == 1 and set(terms) == {(0,) * ring.nvars}:
            result = df0
    ring._gradient_unit_df0 = result
    return result


def relation_bound(coefficients) -> int:
    """The default membership degree bound for nonzero ring coefficients:
    two above the largest total degree among them."""
    return max(c.total_degree() for c in coefficients) + 2


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
        degree_bound = relation_bound(form.parts.values())
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
    for S in omega.parts:
        if S != top:
            raise NotTopForm(f"component dx_{S} is not the top form")
    coeff = omega.coefficient(top)
    if coeff.is_zero():
        return ring.zero()
    G = buchberger(jacobian_ideal(f))
    return ideal_nf(coeff, G)
