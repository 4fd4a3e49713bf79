"""Shared helpers for the test suite: small rings and brute-force oracles."""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement, product

from hypothesis import Phase

from curvedchern.errors import EmptyIdeal, InvalidInput
from curvedchern.forms import DiffForm, USeries
from curvedchern.groebner import GroebnerBasis
from curvedchern.rings import GradedRing, RingElement, _divides, monomial_key
from curvedchern.scalars import Scalar


# Hypothesis phases without the explain phase, which reruns a failing
# example a few hundred times under a line tracer after the shrink, to
# print which lines only failing examples ran: for a property test whose
# examples take tens of milliseconds, that delays the failure report by
# up to a minute.
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


def qi_ring(*variables, degrees=None, grading="Z2", relation=None) -> GradedRing:
    if degrees is None:
        degrees = [0] * len(variables)
    return GradedRing(variables, degrees, grading=grading, relation=relation)


def sphere_ring(n: int) -> GradedRing:
    """Q(i)[x1..xn]/(x1^2+...+xn^2-1), Z/2-graded, all degrees 0."""
    names = [f"x{k}" for k in range(1, n + 1)]
    rel = "+".join(f"{v}^2" for v in names) + "-1"
    return GradedRing(names, [0] * n, grading="Z2", relation=rel)


def monomials_up_to(ring: GradedRing, degree: int) -> list:
    """All monomial exponent tuples of total degree <= degree, sorted."""
    out = [(0,) * ring.nvars]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(ring.nvars), d):
            m = [0] * ring.nvars
            for k in combo:
                m[k] += 1
            out.append(tuple(m))
    return sorted(set(out), key=monomial_key)


def brute_force_in_ideal(p: RingElement, gens: list[RingElement], degree: int) -> bool:
    """Degree-bounded ideal membership by dense linear algebra over Q(i).

    Solves p = sum q_g * g with deg(q_g) <= degree by setting up the linear
    system on monomial coefficients and running row reduction with exact
    scalars.  Independent of the Groebner code on purpose.
    """
    ring = p.ring
    cols = []
    for g in gens:
        for m in monomials_up_to(ring, degree):
            shifted = {}
            for gm, gc in g.terms.items():
                key = tuple(a + b for a, b in zip(gm, m))
                shifted[key] = shifted.get(key, Scalar(0)) + gc
            cols.append(shifted)
    rows = sorted({m for col in cols for m in col} | set(p.terms), key=monomial_key)
    row_index = {m: k for k, m in enumerate(rows)}
    matrix = [[Scalar(0)] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for m, c in col.items():
            matrix[row_index[m]][j] = c
    rhs = [p.terms.get(m, Scalar(0)) for m in rows]
    return _solvable(matrix, rhs)


def _solvable(matrix: list[list[Scalar]], rhs: list[Scalar]) -> bool:
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = matrix[row][col].inv()
        matrix[row] = [v * inv for v in matrix[row]]
        rhs[row] = rhs[row] * inv
        for r in range(nrows):
            if r != row and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[row])]
                rhs[r] = rhs[r] - f * rhs[row]
        row += 1
        if row == nrows:
            break
    for r in range(nrows):
        if not any(matrix[r]) and rhs[r]:
            return False
    return True


def d_var(ring: GradedRing, name: str) -> DiffForm:
    """The one-form d(name)."""
    return DiffForm(ring, {(ring.variables.index(name),): ring.one()})


def reference_sum_of_products(ring: GradedRing, contributions) -> dict:
    """rings.sum_of_products the slow way, independent of its integer rows
    and packing: every term product is a Scalar product, normal-formed on
    its own by ring.element and added into its key's sum term by term."""
    sums: dict = {}
    for key, sign, p, q in contributions:
        acc = sums.setdefault(key, {})
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                for rm, rc in ring.element({m: c1 * c2 * Scalar(sign)}).terms.items():
                    acc[rm] = acc.get(rm, Scalar(0)) + rc
    out = {}
    for key, acc in sums.items():
        terms = {m: c for m, c in acc.items() if not c.is_zero()}
        if terms:
            out[key] = ring.element(terms)
    return out


def reference_useries_sum_of_products(ring: GradedRing, pairs, plus) -> USeries:
    """USeries.sum_of_products with its plus terms merged one at a time:
    the kernel on the products, then one _merge per plus term."""
    out = USeries.sum_of_products(ring, pairs)
    for sign, shift, v in plus:
        out = out._merge(v, sign, shift)
    return out


def reference_wedge(f, g):
    """DiffForm.wedge the slow way: the Koszul sign of each pair of wedge
    monomials by counting the swaps a bubble sort makes."""
    parts: dict = {}
    for S1, c1 in f.parts.items():
        for S2, c2 in g.parts.items():
            if set(S1) & set(S2):
                continue
            word = list(S1 + S2)
            swaps = 0
            for i in range(len(word)):
                for j in range(len(word) - 1 - i):
                    if word[j] > word[j + 1]:
                        word[j], word[j + 1] = word[j + 1], word[j]
                        swaps += 1
            key = tuple(word)
            got = reference_sum_of_products(f.ring, [(key, (-1) ** swaps, c1, c2)])
            if key in got:
                prev = parts.get(key)
                parts[key] = got[key] if prev is None else prev + got[key]
    return DiffForm(f.ring, parts)


def reference_de_rham_d(omega: DiffForm) -> DiffForm:
    """forms.de_rham_d as it was first written: each d(a)/dx_v·dx_v ∧ dx_S
    formed by a wedge product and added in one at a time."""
    ring = omega.ring
    out = DiffForm.zero(ring)
    for S, c in omega.parts.items():
        for v, name in enumerate(ring.variables):
            dc = c.derivative(name)
            if dc.is_zero():
                continue
            term = DiffForm(ring, {(v,): dc}).wedge(DiffForm(ring, {S: ring.one()}))
            out = out + term
    return out


def reference_derivative(p: RingElement, name: str) -> RingElement:
    """RingElement.derivative as first written: each term times Scalar(e),
    then a normal form."""
    k = p.ring._index[name]
    out: dict = {}
    for m, c in p.terms.items():
        e = m[k]
        if e:
            dm = list(m)
            dm[k] = e - 1
            out[tuple(dm)] = c * Scalar(e)
    return RingElement(p.ring, out)


def reference_exterior_d(ring: GradedRing, terms: dict, negate: bool = False) -> dict:
    """forms._exterior_d with one derivative per variable, as before one
    pass formed them all: the derivative negated when the sign calls for
    it and added in per (J, T)."""
    sums: dict = {}
    for (J, S), c in terms.items():
        for v, name in enumerate(ring.variables):
            if v in S:
                continue
            dc = reference_derivative(c, name)
            if dc.is_zero():
                continue
            below = bisect_left(S, v)
            if (below + negate) % 2:
                dc = -dc
            T = (J, S[:below] + (v,) + S[below:])
            got = sums.get(T)
            sums[T] = dc if got is None else got + dc
    return {T: p for T, p in sums.items() if not p.is_zero()}


# -- the dense matrices of earlier versions: the oracle for matform.Mat ----
#
# ReferenceMat keeps every entry, zeros included, in entries[t][s], and each
# operation visits every entry; the formulas are those matform.Mat had before
# it stored nonzero entries only.


def column(X, s: int) -> list:
    """Column s of a matform.Mat: its entries X[t][s] over the target basis."""
    zero = USeries.zero(X.ring)
    return [row.get(s, zero) for row in X.rows]


def _dot(ring, row, col) -> USeries:
    return USeries.sum_of_products(ring, [(1, 0, a, b) for a, b in zip(row, col)])


class ReferenceMat:
    def __init__(self, ring, target_degrees, source_degrees, entries):
        self.ring = ring
        self.target_degrees = tuple(target_degrees)
        self.source_degrees = tuple(source_degrees)
        self.entries = [list(row) for row in entries]

    @staticmethod
    def from_stored(ring, degrees, rows, *, target_degrees=None):
        src = tuple(degrees)
        tgt = tuple(degrees if target_degrees is None else target_degrees)
        return ReferenceMat(
            ring, tgt, src,
            [[_reference_twist(rows[s][t], tgt[t]) for s in range(len(src))] for t in range(len(tgt))],
        )

    def display(self):
        return [
            [_reference_twist(self.entries[t][s], self.target_degrees[t]) for t in range(len(self.target_degrees))]
            for s in range(len(self.source_degrees))
        ]

    def _like(self, entries, source_degrees=None):
        src = self.source_degrees if source_degrees is None else source_degrees
        return ReferenceMat(self.ring, self.target_degrees, src, entries)

    def column(self, s):
        return [self.entries[t][s] for t in range(len(self.target_degrees))]

    def __matmul__(self, other):
        cols = [other.column(s) for s in range(len(other.source_degrees))]
        return self._like(
            [[_dot(self.ring, row, col) for col in cols] for row in self.entries],
            other.source_degrees,
        )

    def apply(self, col):
        return [_dot(self.ring, row, col) for row in self.entries]

    def __add__(self, other):
        return self._like([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, c):
        return self._like([[v.scale(c) for v in row] for row in self.entries])

    def scale_ring(self, p):
        factor = USeries.from_ring(p)
        return self._like([[v * factor for v in row] for row in self.entries])

    def shift_u(self, k):
        return self._like([[v.shift_u(k) for v in row] for row in self.entries])

    def row_sign_d(self):
        rows = []
        for t, row in enumerate(self.entries):
            sign = Scalar((-1) ** (self.target_degrees[t] % 2))
            rows.append(
                [USeries(self.ring, {J: reference_de_rham_d(f) for J, f in v.coeffs.items()}).scale(sign) for v in row]
            )
        return self._like(rows)

    def supertrace(self):
        acc = USeries.zero(self.ring)
        for k, deg in enumerate(self.target_degrees):
            acc = acc + _reference_supertrace_weight(self.ring, deg, self.entries[k][k])
        return acc

    def is_zero(self):
        return all(v.is_zero() for row in self.entries for v in row)

    def has_operator_degree(self, m):
        for t, row in enumerate(self.entries):
            for s, v in enumerate(row):
                want = self.source_degrees[s] - self.target_degrees[t] + m
                for J, form in v.coeffs.items():
                    for S, c in form.parts.items():
                        shift = sum(self.ring.degrees[w] - 1 for w in S)
                        if not c.has_gamma_degree(self.ring.degree_reduce(want - 2 * J - shift)):
                            return False
        return True

    def parity_components(self):
        ring = self.ring
        grids: dict = {}
        nt, ns = len(self.target_degrees), len(self.source_degrees)
        for t in range(nt):
            for s in range(ns):
                base = self.source_degrees[s] - self.target_degrees[t]
                for J, form in self.entries[t][s].coeffs.items():
                    for S, coeff in form.parts.items():
                        shift = sum(ring.degrees[v] - 1 for v in S) + 2 * J - base
                        for mono, c in coeff.terms.items():
                            p = (ring.monomial_gamma(mono) + shift) % 2
                            grid = grids.setdefault(p, [[{} for _ in range(ns)] for _ in range(nt)])
                            grid[t][s].setdefault(J, {}).setdefault(S, {})[mono] = c
        return {
            p: self._like(
                [
                    [
                        USeries(ring, {
                            J: DiffForm(ring, {S: RingElement(ring, ms) for S, ms in parts.items()})
                            for J, parts in grid[t][s].items()
                        })
                        for s in range(ns)
                    ]
                    for t in range(nt)
                ]
            )
            for p, grid in grids.items()
        }


def _reference_supertrace_weight(ring, deg, entry):
    parts: dict = {}
    for J, form in entry.coeffs.items():
        keep = DiffForm.zero(ring)
        for c in form.form_degrees():
            comp = form.component(c)
            keep = keep + (comp if (-1) ** (((1 + c) * deg) % 2) > 0 else -comp)
        parts[J] = keep
    return USeries(ring, parts)


def _reference_twist(v, basis_degree):
    if basis_degree % 2 == 0:
        return v
    out: dict = {}
    for J, form in v.coeffs.items():
        flipped = DiffForm.zero(v.ring)
        for c in form.form_degrees():
            comp = form.component(c)
            flipped = flipped + (comp if c % 2 == 0 else -comp)
        out[J] = flipped
    return USeries(v.ring, out)


def reference_supertrace_of_product(A: ReferenceMat, B: ReferenceMat) -> USeries:
    acc = USeries.zero(A.ring)
    for t, deg in enumerate(A.target_degrees):
        entry = _dot(A.ring, A.entries[t], B.column(t))
        acc = acc + _reference_supertrace_weight(A.ring, deg, entry)
    return acc


# -- the seed's Buchberger: the oracle for groebner.buchberger -------------
#
# Plain Buchberger as the engine first had it: pairs taken last in, first
# out, only the coprime criterion, every leading term recomputed on each
# reduction step.  reference_reduce is plain full division with no
# criteria.


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def reference_reduce(p: RingElement, basis: list[RingElement]) -> RingElement:
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
        q = mono_div(m, lm)
        f = c / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = mono_mul(q, gm)
            nc = work.get(t, Scalar(0)) - f * gc
            if nc.is_zero():
                work.pop(t, None)
            else:
                work[t] = nc
    return p.ring.element(out)


def reference_spoly(f: RingElement, g: RingElement) -> RingElement:
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    ring = f.ring
    tf = ring.element({mono_div(lcm, fm): fc.inv()})
    tg = ring.element({mono_div(lcm, gm): gc.inv()})
    return tf * f - tg * g


def reference_buchberger(gens: list[RingElement]) -> GroebnerBasis:
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
        r = reference_reduce(reference_spoly(fa, fb), basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reference_interreduce(ring, basis)


def _reference_interreduce(ring: GradedRing, basis: list[RingElement]) -> GroebnerBasis:
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
        r = reference_reduce(g, others)
        if r.is_zero():
            continue
        _, lc = r.leading_term()
        final.append(r.scale(lc.inv()))
    final.sort(key=lambda g: monomial_key(g.leading_term()[0]))
    return GroebnerBasis(ring, final)


def reference_standard_monomials(G: GroebnerBasis) -> list | str:
    """The standard monomials of G by box enumeration on exponent tuples:
    [] for the unit ideal; the name of the first variable with no pure
    power among the leading monomials, whose quotient is infinite; else
    every monomial below the pure-power bounds that no leading monomial
    divides, sorted by monomial_key."""
    lms = [g.leading_term()[0] for g in G.elements]
    if any(not any(m) for m in lms):
        return []
    bounds = []
    for v, name in enumerate(G.ring.variables):
        pure = [m[v] for m in lms if m[v] and sum(m) == m[v]]
        if not pure:
            return name
        bounds.append(min(pure))
    box = product(*(range(b) for b in bounds))
    return sorted((m for m in box if not any(all(map(int.__le__, lm, m)) for lm in lms)), key=monomial_key)


# -- formulas the engine has since restructured: oracles ------------------


def reference_merge_indices(S1: tuple, S2: tuple):
    """dx_S1 ∧ dx_S2 as forms first merged wedge index tuples, computed
    afresh on every call: the sorted union and the Koszul sign
    (-1)^(inversions of S1 + S2), or None when S1 and S2 share an index."""
    if set(S1) & set(S2):
        return None
    merged = S1 + S2
    inversions = sum(
        1 for a in range(len(merged)) for b in range(a + 1, len(merged)) if merged[a] > merged[b]
    )
    return tuple(sorted(merged)), (-1) ** inversions


def reference_commutator_residue(M, C):
    """modules.commutator_residue as it was first composed: [nabla, R]
    through the sandwich (e·D(R))·e, then delta·R, R·delta and the dense
    diagonal of (-1)^{|e_t|} dh times e, each a full product of its own,
    combined by matrix addition and subtraction."""
    from curvedchern.forms import de_rham_d
    from curvedchern.matform import Mat
    from curvedchern.modules import curvature_R

    e, theta, delta = M.e, C.theta, M.delta
    R = curvature_R(C)
    bracket = e @ R.row_sign_d() @ e + theta @ R - R @ theta
    dh = USeries.from_form(de_rham_d(DiffForm.from_ring(M.algebra.h)))
    zero = USeries.zero(M.ring)
    n = len(M.degrees)
    diag = Mat(
        M.ring, M.degrees, M.degrees,
        [[dh.scale(Scalar((-1) ** (M.degrees[t] % 2))) if s == t else zero for s in range(n)] for t in range(n)],
    )
    return bracket.shift_u(1) + (delta @ R - R @ delta) - diag @ e


def reference_parity_components(X) -> dict:
    """matform.Mat.parity_components as it was before a matrix of one
    parity was returned as itself: every term is filed by its parity and
    each part rebuilt, one Mat per parity that occurs."""
    from curvedchern.matform import Mat

    ring = X.ring
    grids: dict = {}
    for t, row in enumerate(X.rows):
        for s, v in row.items():
            base = X.source_degrees[s] - X.target_degrees[t]
            for J, form in v.coeffs.items():
                for S, coeff in form.parts.items():
                    shift = sum(ring.degrees[w] - 1 for w in S) + 2 * J - base
                    for mono, c in coeff.terms.items():
                        p = (ring.monomial_gamma(mono) + shift) % 2
                        grid = grids.get(p)
                        if grid is None:
                            grid = grids[p] = [{} for _ in X.rows]
                        grid[t].setdefault(s, {}).setdefault((J, S), {})[mono] = c

    def entry(terms: dict) -> USeries:
        forms: dict = {}
        for (J, S), ms in terms.items():
            forms.setdefault(J, {})[S] = ring.element(ms)
        return USeries(ring, {J: DiffForm(ring, f) for J, f in forms.items()})

    return {
        p: Mat._make(
            ring,
            X.target_degrees,
            X.source_degrees,
            [{s: entry(terms) for s, terms in row.items()} for row in grid],
        )
        for p, grid in grids.items()
    }


def reference_curvature(C):
    """modules.curvature_mat as first written: nabla(col) = e·Jd(col) +
    theta·col, Jd the row-signed d, applied twice to each column of e
    through Mat.column and Mat.apply, the residue
    nabla^2(col·x_v) - nabla^2(col)·x_v checked column by column, then
    variable by variable, with check_curvature's NonLinearCurvature message."""
    from curvedchern import matform
    from curvedchern.errors import NonLinearCurvature
    from curvedchern.forms import vanishes_mod_relation

    M = C.module
    ring = M.ring
    n = len(M.degrees)

    def nabla(col):
        # D of the column as a one-column matrix, so a patched row_sign_d bites here too
        one = matform.Mat(ring, M.degrees, (0,), [[v] for v in col]).row_sign_d()
        d = M.e.apply(column(one, 0))
        return [a + b for a, b in zip(d, C.theta.apply(col))]

    cols = []
    for j in range(n):
        base = column(M.e, j)
        cols.append(nabla(nabla(base)))
        for name in ring.variables:
            xv = USeries.from_ring(ring.var(name))
            lhs = nabla(nabla([v * xv for v in base]))
            for a, b in zip(lhs, cols[-1]):
                resid = a - b * xv
                if resid.is_zero() or ring.relation is not None and all(
                    vanishes_mod_relation(resid.coefficient(J)) for J in resid.u_powers()
                ):
                    continue
                raise NonLinearCurvature(f"curvature fails linearity in {name} on column {j}")
    return matform.Mat(ring, M.degrees, M.degrees, [[cols[s][t] for s in range(n)] for t in range(n)])


def not_a_derivation(variables, power=None, odd_rows=False):
    """A mutant of matform.Mat.row_sign_d that differentiates the x^k terms
    (k >= 2, or k == power when given) of each of the ring's variables
    with these indices a second time, entry by entry, so that D is no
    longer a derivation in them; with odd_rows, only on the rows of odd
    basis degree."""
    from curvedchern.forms import _exterior_d
    from curvedchern.matform import Mat

    def entry(v, degree):
        ring = v.ring
        out = _exterior_d(v, degree % 2 == 1)
        if odd_rows and degree % 2 == 0:
            return out
        for k in variables:
            high = {}
            for J, form in v.coeffs.items():
                for S, p in form.parts.items():
                    q = {m: c for m, c in p.terms.items()
                         if (m[k] >= 2 if power is None else m[k] == power)}
                    if q and k not in S:
                        high.setdefault(J, {})[S] = RingElement(ring, q)
            again = _exterior_d(USeries(ring, {J: DiffForm(ring, f) for J, f in high.items()}), degree % 2 == 1)
            out = out + USeries(ring, {
                J: DiffForm(ring, {T: p for T, p in form.parts.items() if k in T})
                for J, form in again.coeffs.items()
            })
        return out

    def mutant(X):
        rows = [
            {s: d for s, v in row.items() if (d := entry(v, degree)).groups}
            for row, degree in zip(X.rows, X.target_degrees)
        ]
        return Mat._make(X.ring, X.target_degrees, X.source_degrees, rows)

    return mutant
