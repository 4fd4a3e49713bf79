"""Curved algebras, perfect modules, connections, and Chern-Weil traces.

A curved algebra is (A, h) with h of Gamma-degree 2; a curved module is a
projective module presented by an idempotent e on a graded free module,
together with an odd endomorphism delta with delta^2 = -h·e.  A connection
nabla(X) = e·D(X) + theta·X (D the row-signed d, theta one-forms) is only
applied in whole-matrix Mat.sum_of_products passes: the brackets
[nabla, X], and the curvature nabla(nabla(e)) and its linearity residue
check.  The Chern character is the supertrace of exp(-R) for
R = u·curvature + [nabla, delta].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from math import factorial

from .errors import Inhomogeneous, InvalidInput, NonLinearCurvature
from .forms import USeries, _exterior_d, hn_differential, vanishes_mod_relation
from .matform import Mat, WordEvaluator, content_key
from .rings import GradedRing, RingElement
from .scalars import Scalar


@dataclass
class CurvedAlgebra:
    """(A, h): an evenly graded ring with a degree-2 curvature element."""

    ring: GradedRing
    h: RingElement

    def __post_init__(self):
        if not self.h.has_gamma_degree(self.ring.degree_reduce(2)):
            raise Inhomogeneous("curvature h must be homogeneous of Gamma-degree 2")


class CurvedModule:
    """(P, delta): image of an idempotent with an odd twisting endomorphism.

    All matrices are held internally (column convention); use from_stored
    for data in the written convention.  The idempotent e defaults to the
    identity (a free module, as for a graded matrix factorization), and
    then costs nothing: every sandwich by e, such as e·delta·e in the
    checks or e·D(X)·e in a covariant derivative, is a product with an
    identity factor, which Mat returns without forming it.
    """

    def __init__(self, algebra: CurvedAlgebra, degrees, delta: Mat, e: Mat | None = None):
        self.algebra = algebra
        self.degrees = tuple(int(d) for d in degrees)
        self.e = Mat.identity(algebra.ring, self.degrees) if e is None else e
        self.delta = delta
        self._verdict: ModuleVerdict | None = None

    @staticmethod
    def from_stored(algebra: CurvedAlgebra, degrees, delta_rows,
                    idempotent_rows=None) -> "CurvedModule":
        ring = algebra.ring
        delta = Mat.from_stored(ring, degrees, delta_rows)
        e = None
        if idempotent_rows is not None:
            e = Mat.from_stored(ring, degrees, idempotent_rows)
        return CurvedModule(algebra, degrees, delta, e=e)

    @property
    def ring(self) -> GradedRing:
        return self.algebra.ring

    def verdict(self) -> "ModuleVerdict":
        """check_module(self), run once per module and then remembered."""
        if self._verdict is None:
            self._verdict = check_module(self)
        return self._verdict


@dataclass
class ModuleVerdict:
    """Outcome of check_module: which invariants hold, with messages."""

    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_module(M: CurvedModule) -> ModuleVerdict:
    """Validate a curved module: degree rules, idempotency, support, and
    the curvature relation delta^2 = -h·e."""
    failures: list[str] = []
    e, delta = M.e, M.delta
    if not e.has_operator_degree(0):
        failures.append("idempotent entries violate the degree rule |e_ij| = |e_i|-|e_j|")
    if not delta.has_operator_degree(1):
        failures.append("delta entries violate the degree rule |d_ij| = |e_i|-|e_j|+1")
    if e @ e != e:
        failures.append("e^2 != e")
    if e @ delta @ e != delta:
        failures.append("delta is not supported on the image of e")
    # delta·delta + h·e, one kernel call per entry
    terms = [(1, 0, delta, delta)]
    if not M.algebra.h.is_zero():
        h = USeries.from_ring(M.algebra.h)
        terms.append((1, 0, _diagonal(M, h, h), e))
    if not Mat.sum_of_products(M.ring, M.degrees, M.degrees, terms).is_zero():
        failures.append("delta^2 != -h·e (realized curvature differs)")
    return ModuleVerdict(not failures, failures)


@dataclass
class Connection:
    """nabla(X) = e·D(X) + theta·X, theta an e-supported matrix of one-forms
    (theta = 0 is the Levi-Civita connection of the presentation)."""

    module: CurvedModule
    theta: Mat
    # nabla^2 as curvature_mat forms it, not checked, and [nabla, X] by
    # (content of X, parity of X): shared by chern_weil, the chain route
    # and the identity checks
    _curvature: Mat | None = field(default=None, repr=False, compare=False)
    _derivatives: dict = field(default_factory=dict, repr=False, compare=False)


def levi_civita(M: CurvedModule) -> Connection:
    """The connection induced by the idempotent presentation: theta = 0."""
    return Connection(M, Mat.zero(M.ring, M.degrees, M.degrees))


def connection_with_mu(M: CurvedModule, mu: Mat) -> Connection:
    """Levi-Civita plus an explicit perturbation matrix of one-forms."""
    e = M.e
    if e @ mu @ e != mu:
        raise InvalidInput("connection perturbation must be supported on im(e)")
    if not mu.has_operator_degree(-1):
        raise InvalidInput("connection perturbation must have operator degree -1")
    return Connection(M, mu)


def covariant_derivative(C: Connection, X: Mat, degree: int) -> Mat:
    """[nabla, X] for an endomorphism-valued form X of operator degree
    `degree` on the module of C (only its parity |X| is used):
    e·(D(X)·e) + theta·X - (-1)^{|X|} X·theta, the product D(X)·e formed
    first and the three terms summed by one Mat.sum_of_products (one
    kernel call per entry; a free module's sandwich forms no product).

    The result is remembered on C, keyed by the content of X and its
    parity, so each route and check that needs the same bracket (as
    [nabla, delta]) shares one computation."""
    key = (content_key(X), degree % 2)
    got = C._derivatives.get(key)
    if got is None:
        got = C._derivatives[key] = _bracket(C, X, degree)
    return got


def _bracket(C: Connection, X: Mat, m: int) -> Mat:
    return Mat.sum_of_products(X.ring, X.target_degrees, X.source_degrees, _bracket_terms(C, X, m))


def _nabla_terms(C: Connection, X: Mat, DX: Mat) -> list:
    """The terms of e·DX + theta·X: nabla on the columns of X if DX = D(X)."""
    terms = [(1, 0, C.module.e, DX)]
    if not C.theta.is_zero():
        terms.append((1, 0, C.theta, X))
    return terms


def _bracket_terms(C: Connection, X: Mat, m: int) -> list:
    """The Mat.sum_of_products terms of [nabla, X], X of parity m."""
    terms = _nabla_terms(C, X, X.row_sign_d() @ C.module.e)
    if not C.theta.is_zero():
        terms.append((-1 if m % 2 == 0 else 1, 0, X, C.theta))
    return terms


def curvature_mat(C: Connection) -> Mat:
    """nabla^2 as a matrix, K = nabla(nabla(e)), automatically supported
    on im(e): formed on first use and then held on C.  It is not checked
    here: cli.run_suite runs check_curvature as one of its stages, and a
    caller that forms K outside the suite runs it itself."""
    if C._curvature is None:
        C._curvature = _nabla(C, _nabla(C, C.module.e))
    return C._curvature


def _nabla(C: Connection, X: Mat, *extra) -> Mat:
    """nabla on the columns of X plus the Mat.sum_of_products terms extra,
    in one pass."""
    M = C.module
    terms = _nabla_terms(C, X, X.row_sign_d()) + list(extra)
    return Mat.sum_of_products(M.ring, M.degrees, X.source_degrees, terms)


def check_curvature(C: Connection, K: Mat) -> None:
    """The A-linearity of K = nabla^2 (a bug detector; it holds
    mathematically), checked in one block for all variables: column
    v·n + j of S = [x_1·I | ... | x_n·I] is x_v·e_j, and
    nabla(nabla(e·S)) - K·S, with K·S in the second pass, must vanish
    (e·S = S forms nothing when e = 1).  The least failing (j, v) =
    (c mod n, c div n) raises NonLinearCurvature.  Over a quotient ring d
    of a normal form is not a derivation, so the residue need only lie in
    the relation submodule.  cli.run_suite runs this check as one of its
    stages; curvature_mat does not run it.
    """
    M = C.module
    ring = M.ring
    n = len(M.degrees)
    xs = [USeries.from_ring(ring.var(name)) for name in ring.variables]
    S = Mat._make(ring, M.degrees, M.degrees * len(xs),
                  [{v * n + t: x for v, x in enumerate(xs) if x.groups} for t in range(n)])
    Z = _nabla(C, _nabla(C, M.e @ S), (-1, 0, K, S))
    failures = [(c % n, c // n) for row in Z.rows for c, resid in row.items() if not _vanishes([resid])]
    if failures:
        j, v = min(failures)
        raise NonLinearCurvature(f"curvature fails linearity in {ring.variables[v]} on column {j}")


def curvature_R(C: Connection) -> Mat:
    """R = u·nabla^2 + [nabla, delta], a matrix over USeries."""
    return curvature_mat(C).shift_u(1) + covariant_derivative(C, C.module.delta, 1)


def chern_weil_words(M: CurvedModule, C: Connection, words: WordEvaluator) -> tuple[tuple, ...]:
    """The words chern_weil sums, as tuples of letter ids of `words`.

    A = [nabla, delta] and K = nabla^2 are interned in `words`, A first.
    The words are the binary words w in A, K of length 1 <= m <= nvars
    (letter k is K when bit k of the word's number is set), in order of m
    and then of that number, leaving out those of form degree m + #K >
    nvars, which vanish, and those with a zero letter.  They depend only
    on nvars, the two letter ids and which letter is zero, and are listed
    once per such key in a process (_word_list)."""
    K = curvature_mat(C)
    A = covariant_derivative(C, C.module.delta, 1)
    return _word_list(M.ring.nvars, words.letter(A), words.letter(K), A.is_zero(), K.is_zero())


@functools.cache
def _word_list(top: int, a: int, k: int, a_zero: bool, k_zero: bool) -> tuple[tuple, ...]:
    letters = (a, k)
    out = []
    for m in range(1, top + 1):
        # product lists the bits with the last letter's varying fastest,
        # so reversed they come in the order of the word's number
        for w in product((0, 1), repeat=m):
            nk = sum(w)
            if m + nk <= top and not (a_zero and nk < m) and not (k_zero and nk):
                out.append(tuple(letters[b] for b in reversed(w)))
    return tuple(out)


def chern_weil(M: CurvedModule, C: Connection,
               words: WordEvaluator | None = None) -> USeries:
    """str(exp(-R)) = sum_m (-1)^m str(R^m)/m!.

    The m = 0 term is the supertrace of the identity of P, i.e. str(e).
    With R = A + u·K for A = [nabla, delta] (one-forms) and K = nabla^2
    (two-forms), str(R^m) is the sum over the 2^m binary words w in A, K
    of str(w) at u^#K: the words of chern_weil_words, the others vanish.
    A word with an odd number of A links only basis vectors of opposite
    parity and has zero supertrace; the evaluator returns that zero
    without forming anything.
    The supertraces come from `words` (a fresh WordEvaluator by default),
    which evaluates a rotation class once, at its least rotation, shares
    prefix products between words and, when the chain route is given the
    same evaluator, every product and supertrace of a rotation class the
    two routes have in common.  A class the evaluator already holds, as
    one cli.run_suite evaluated or adopted beforehand, forms nothing here.
    When A links only basis vectors of opposite parity, as delta does,
    the evaluator forms only the diagonal rows of even basis degree of a
    word with an A and reads the odd rows off a rotation: A^4 (the
    costliest term on large modules) is then 2·str_E(A^4), the square of
    the even rows of A·A by matform.supertrace_of_square.
    """
    words = WordEvaluator() if words is None else words
    sums = chern_weil_words(M, C, words)
    k = words.letter(curvature_mat(C))
    acc = M.e.supertrace()
    for w in sums:
        tr = words.supertrace(w)
        if not tr.is_zero():
            m = len(w)
            acc = acc + tr.scale(Scalar._raw((-1) ** m, 0, factorial(m))).shift_u(w.count(k))
    return acc


def chern_power_series(M: CurvedModule, C: Connection) -> USeries:
    """str(exp(-R)) as sum_m (-1)^m/m!·str(e·R^m) over m <= nvars, with
    R = curvature_R(C), its powers formed by Mat @ and read by
    Mat.supertrace: the Chern character without the word evaluator, for
    verify to check chern_weil against.  Every term of R has form degree
    at least 1, so R^m = 0 for m > nvars."""
    R = curvature_R(C)
    power, acc = M.e, M.e.supertrace()
    for m in range(1, M.ring.nvars + 1):
        power = power @ R
        acc = acc + power.supertrace().scale(Scalar._raw((-1) ** m, 0, factorial(m)))
    return acc


@dataclass
class IdentityVerdict:
    """Result of an exact identity check, with the mode that established it.

    mode is 'exact' for literal equality, 'mod-relation' when the residue
    lies in the relation submodule (quotient rings only), or 'failed'.
    """

    ok: bool
    mode: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _vanishes(residues) -> IdentityVerdict:
    """Whether every residue vanishes, exactly or modulo the relation (an
    exact test: forms.relation_differential), read in the order given: the
    first nonzero residue that does not fails the verdict, which is exact
    when no residue is nonzero."""
    mode = "exact"
    for p in residues:
        if p.is_zero():
            continue
        if p.ring.relation is None:
            return IdentityVerdict(False, "failed", f"nonzero residue {p}")
        for J in p.u_powers():
            if not vanishes_mod_relation(p.coefficient(J)):
                return IdentityVerdict(False, "failed", f"u^{J} residue outside relation submodule")
        mode = "mod-relation"
    return IdentityVerdict(True, mode)


def cycle_check(M: CurvedModule, ch: USeries) -> IdentityVerdict:
    """(u·d + dh)(ch) = 0: the Chern character ch of M is a cycle."""
    return _vanishes([hn_differential(ch, M.algebra.h)])


def _diagonal(M: CurvedModule, even: USeries, odd: USeries) -> Mat:
    """The diagonal matrix on the ambient basis of M with `even` at (t, t)
    for |e_t| even and `odd` for |e_t| odd."""
    return Mat.diagonal(M.ring, M.degrees, [odd if d % 2 else even for d in M.degrees])


def commutator_residue(M: CurvedModule, C: Connection) -> Mat:
    """[u·nabla + delta, R] - dh·e as one Mat.sum_of_products:
    u·(e·Y + theta·R - R·theta) + delta·R - R·delta - diag((-1)^{|e_t|} dh)·e
    with Y = D(R)·e, the only product formed on its own.  Each entry of
    the residue is one kernel call, so terms that cancel are summed before
    anything is normal-formed, and a free module's sandwiches (e = 1) form
    nothing."""
    R = curvature_R(C)
    terms = [(sign, 1, X, Y) for sign, _, X, Y in _bracket_terms(C, R, 0)]
    terms += [(1, 0, M.delta, R), (-1, 0, R, M.delta)]
    dh = _exterior_d(USeries.from_ring(M.algebra.h))
    if not dh.is_zero():
        terms.append((-1, 0, _diagonal(M, dh, -dh), M.e))
    return Mat.sum_of_products(M.ring, M.degrees, M.degrees, terms)


def commutator_check(M: CurvedModule, C: Connection) -> IdentityVerdict:
    """[u·nabla + delta, R] = dh·e (as sandwiched matrices): the residue
    of commutator_residue vanishes, exactly or modulo the relation, its
    entries read in (row, column) order so that the verdict depends on
    the residue's content alone."""
    X = commutator_residue(M, C)
    return _vanishes(v for row in X.rows for _, v in sorted(row.items()))
