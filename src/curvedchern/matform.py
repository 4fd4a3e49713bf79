"""Matrices of u-series-valued forms: the operator calculus.

A Mat represents a homogeneous operator between graded free (or
idempotent-presented) modules by its action on coordinate columns:
composition is the plain matrix product in written order, with no Koszul
signs on entries.  That is legitimate because ring coefficients are even
and central, and modules are treated as right modules; every sign of the
graded world is concentrated in three places:

* the row-signed entrywise derivative D (basis parities on rows),
* the per-component supertrace weights (-1)^{(1+c)|e_i|} for the
  form-degree-c component of a diagonal entry,
* the display transform, which converts between this internal convention
  and the stored convention used by all input and output (stored entry
  [s][t] = sum_c (-1)^{c|e_t|} N_c[t][s]).

A Mat is stored sparsely: row t is a dict {source index: USeries} holding
the nonzero entries of that row only.  A missing entry reads as zero, and
no stored entry is ever zero, so every operation visits stored entries
only and two equal matrices have equal rows.  An entry is a packed
forms.USeries, (u-power, dx mask) groups of integer rows, so the
supertraces, the parity split and content_key work on ints and keys: a
mask gives the sign of a wedge and the parity of a group.  A ring element
or a form given as an entry has that layout already (rings.Packed) and
is taken as it stands.  The product is formed row by
row (Gustavson, ACM TOMS 4(3), 1978): each stored (t, k) of the left
factor meets each stored (k, s) of row k of the right factor, and that
pair's kernel contributions (forms._pair) are filed at once into the list
of output entry (t, s), which is one rings.sum_of_products call.

The same pass forms a whole sum of products: Mat.sum_of_products takes
terms (sign, u-shift, X, Y) and files the pairs of every term, each with
its term's sign and u-shift, into the entry's one list, so each of its
(u-power, wedge indices) keys is normal-formed once, however many terms
meet there.  A residue such as the commutator check's, whose terms
largely cancel, is then summed before anything is normal-formed.  The
matrix product X @ Y is the one-term case.

A product with an identity factor forms nothing: X @ I and I @ X return
X, I.apply(col) a new list of the same column entries, and a term of
Mat.sum_of_products with an identity factor files the other factor's
groups, shifted and signed, into the entry's list as rows the kernel adds
without a product, before the one normal form (an entry that no product
reaches merges them instead).  Whether a matrix is an identity is read
from its content alone (equal target and source degrees, and row t
storing exactly one entry, at (t, t), equal to the unit series u^0·1
with coefficient exactly 1), so an identity idempotent written in a
problem file takes the same path as Mat.identity.  For a free module
(e = 1) every idempotent sandwich of the engine is such a product.  The
answer is computed once per matrix, which is sound because a Mat is
never changed once it is made.

A supertrace of a product never forms the product: supertrace_of_product
and supertrace_of_square file the component products of the diagonal
summands, each sign already multiplied by its supertrace weight, in one
rings.sum_of_products call.  The square path forms each pair of mirrored
summands of str(P·P) once, with a sign known in advance.

WordEvaluator, which evaluates the supertraces of words in graded matrix
letters for Chern–Weil and the chain route, is the one place that reads a
letter's parities: μ, the total parity its components all share, and σ,
the basis-parity shift its entries all share.  A word of odd σ has no
diagonal, so its supertrace is zero without forming anything.  The
supertrace is cyclic, str(XY) = (-1)^{μ(X)μ(Y)} str(YX) (Quillen,
Topology 24, 1985), so it evaluates one word per rotation class, and it
forms only the diagonal rows of even basis degree: when some letter
shifts the basis parity, the odd rows of a word are the even rows of one
of its rotations.

Stored matrices are what the user writes and what reports print; they obey
the degree rule |M[s][t]| = |e_s| - |e_t| + m with the first index the
source basis vector.
"""

from __future__ import annotations

from .errors import InternalCheckFailure, InvalidInput
from .forms import _UNIFORM, USeries, _d_groups, _indices, _pair, _wedge_signs
from .rings import GradedRing, Packed, RingElement, _gammas, _glex, _scaled_rows, sum_of_products
from .scalars import Scalar

Column = list  # list[USeries], one entry per target basis vector


def _as_useries(ring: GradedRing, value) -> USeries:
    if isinstance(value, Packed):  # a series, form or ring element: one layout
        return USeries.from_form(value)
    if isinstance(value, str):
        return USeries.from_ring(ring.from_string(value))
    if isinstance(value, int):  # packed directly: u^0 times the monomial 1
        return USeries._make(ring, 1, ring.base_width, {(0, 0): [(0, int(value), 0)]} if value else {})
    raise InvalidInput(f"cannot interpret {value!r} as a matrix entry")


def _nonzero(row: dict) -> dict:
    return {s: v for s, v in row.items() if v.groups}


class Mat:
    """A target x source matrix of USeries entries (internal convention).

    rows[t] maps a source index s to the entry [t][s]; only nonzero
    entries are stored.  Mat(...) takes dense rows of entries and checks
    them; results of operations are built by Mat._make, unchecked.  A Mat
    is immutable once made: build the row dicts first, then the Mat, and
    never write into the rows of an existing one (is_identity, content_key
    and supertrace are remembered).
    """

    __slots__ = ("ring", "target_degrees", "source_degrees", "rows", "_identity", "_key", "_supertrace")

    def __init__(self, ring, target_degrees, source_degrees, entries):
        self.ring = ring
        self.target_degrees = tuple(int(d) for d in target_degrees)
        self.source_degrees = tuple(int(d) for d in source_degrees)
        if len(entries) != len(self.target_degrees):
            raise InvalidInput("matrix row count does not match target degrees")
        rows = []
        for row in entries:
            if len(row) != len(self.source_degrees):
                raise InvalidInput("matrix column count does not match source degrees")
            rows.append(_nonzero({s: _as_useries(ring, v) for s, v in enumerate(row)}))
        self.rows = rows
        self._identity = self._key = self._supertrace = None

    @staticmethod
    def _make(ring, target_degrees: tuple, source_degrees: tuple, rows: list) -> "Mat":
        """An internal result: degree tuples of ints, and rows of dicts
        holding nonzero USeries at in-range indices."""
        m = object.__new__(Mat)
        m.ring = ring
        m.target_degrees = target_degrees
        m.source_degrees = source_degrees
        m.rows = rows
        m._identity = m._key = m._supertrace = None
        return m

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ring, target_degrees, source_degrees) -> "Mat":
        tgt = tuple(int(d) for d in target_degrees)
        return Mat._make(ring, tgt, tuple(int(d) for d in source_degrees), [{} for _ in tgt])

    @staticmethod
    def diagonal(ring, degrees, entries) -> "Mat":
        """The square matrix on one object with entries[t] at (t, t)."""
        degrees = tuple(int(d) for d in degrees)
        return Mat._make(ring, degrees, degrees, [_nonzero({t: v}) for t, v in enumerate(entries)])

    @staticmethod
    def identity(ring, degrees) -> "Mat":
        return Mat.diagonal(ring, degrees, [_as_useries(ring, 1)] * len(degrees))

    @staticmethod
    def from_stored(ring, degrees, rows, *, target_degrees=None) -> "Mat":
        """Build the internal matrix from stored-convention rows.

        stored[s][t] is the coefficient of e_t in the image of e_s; the
        internal entry picks up the parity twist (-1)^{c|e_t|} on
        form-degree-c components (for ring entries this is a plain
        transpose).  `degrees` is the source side (stored rows are
        source-major); rectangular homs pass the target side explicitly.
        """
        src = tuple(int(d) for d in degrees)
        tgt = src if target_degrees is None else tuple(int(d) for d in target_degrees)
        # stored rows are source-major: len(rows) == len(src)
        if len(rows) != len(src):
            raise InvalidInput("stored matrix row count does not match degrees")
        out: list[dict] = [{} for _ in tgt]
        for s, row in enumerate(rows):
            if len(row) != len(tgt):
                raise InvalidInput("stored matrix column count does not match degrees")
            for t, value in enumerate(row):
                v = _as_useries(ring, value)
                if v.groups:
                    out[t][s] = _twist(v, tgt[t])
        return Mat._make(ring, tgt, src, out)

    def display(self) -> list[list[USeries]]:
        """Stored-convention rows (inverse of from_stored)."""
        zero = USeries.zero(self.ring)
        out = [[zero] * len(self.target_degrees) for _ in self.source_degrees]
        for t, row in enumerate(self.rows):
            for s, v in row.items():
                out[s][t] = _twist(v, self.target_degrees[t])
        return out

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        """The matrix product, row by row (see Mat.sum_of_products).  When
        either factor is an identity (see is_identity) the other factor
        itself is returned and nothing is formed."""
        if self.source_degrees != other.target_degrees:
            raise InvalidInput("matrix shapes/degrees are not composable")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return Mat.sum_of_products(
            self.ring, self.target_degrees, other.source_degrees, ((1, 0, self, other),)
        )

    @staticmethod
    def sum_of_products(ring, target_degrees: tuple, source_degrees: tuple, terms) -> "Mat":
        """The sum of sign·u^shift·(X @ Y) over the terms (sign, shift, X, Y),
        signs ±1 and shifts nonnegative ints.  As the rows of X are walked,
        each pair of stored X[t][k] and Y[k][s] files its kernel
        contributions into the list of output entry (t, s) (forms._pair),
        and a term with an identity factor files the other factor's groups
        there as added rows, forming no product; each entry is then one
        rings.sum_of_products call (_entry), so its keys are normal-formed
        once.  An entry is stored at its first appearance in the terms."""
        gathered: list[dict] = [{} for _ in target_degrees]
        for sign, shift, X, Y in terms:
            shape = X.target_degrees, X.source_degrees, Y.source_degrees
            if shape != (target_degrees, Y.target_degrees, source_degrees):
                raise InvalidInput("matrix shapes/degrees are not composable")
            if X.is_identity() or Y.is_identity():
                Z = Y if X.is_identity() else X
                for row, got in zip(Z.rows, gathered):
                    for s, v in row.items():
                        entry = got.get(s)
                        if entry is None:
                            entry = got[s] = ([], [])
                        for (J, mask), rows in v.groups.items():
                            entry[1].append(((J + shift, mask), sign, v.den, v.width, rows))
                continue
            signs, right = _UNIFORM[sign], Y.rows
            for row, got in zip(X.rows, gathered):
                for k, a in row.items():
                    for s, b in right[k].items():
                        entry = got.get(s)
                        if entry is None:
                            entry = got[s] = ([], [])
                        _pair(entry[0], a, b, signs, shift)
        rows = [{s: v for s, entry in got.items() if (v := _entry(ring, *entry)).groups} for got in gathered]
        return Mat._make(ring, target_degrees, source_degrees, rows)

    def __add__(self, other: "Mat") -> "Mat":
        return self._merge(other, False)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._merge(other, True)

    def _merge(self, other: "Mat", negate: bool) -> "Mat":
        """self + other, or self - other when `negate`: only the entries
        stored in other alone are negated on their own."""
        self._same_shape(other)
        out = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for s, b in rb.items():
                a = row.get(s)
                if a is None:
                    row[s] = -b if negate else b
                    continue
                v = a - b if negate else a + b
                if v.groups:
                    row[s] = v
                else:
                    del row[s]
            out.append(row)
        return Mat._make(self.ring, self.target_degrees, self.source_degrees, out)

    def __neg__(self) -> "Mat":
        return self.scale(Scalar(-1))

    def scale(self, c: Scalar) -> "Mat":
        if c.is_zero():
            return Mat.zero(self.ring, self.target_degrees, self.source_degrees)
        # a nonzero scalar keeps every entry nonzero
        return self._map(lambda v: v.scale(c))

    def scale_ring(self, p: RingElement) -> "Mat":
        return Mat._make(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [_nonzero({s: v * p for s, v in row.items()}) for row in self.rows],
        )

    def shift_u(self, k: int) -> "Mat":
        return self._map(lambda v: v.shift_u(k))

    def _map(self, f) -> "Mat":
        """f applied to every stored entry; f must keep nonzero entries
        nonzero."""
        return Mat._make(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [{s: f(v) for s, v in row.items()} for row in self.rows],
        )

    def _same_shape(self, other: "Mat"):
        if (
            self.target_degrees != other.target_degrees
            or self.source_degrees != other.source_degrees
        ):
            raise InvalidInput("matrix shapes/degrees differ")

    # -- calculus ------------------------------------------------------

    def row_sign_d(self) -> "Mat":
        """Entrywise de Rham d with the basis parity on rows:
        D(X)[t][s] = (-1)^{|e_t|} d(X[t][s]), the whole matrix in one pass
        (forms._d_groups, one packing a width); an entry whose derivative
        is zero is not stored."""
        nvars, glexes = self.ring.nvars, {}
        out = []
        for deg, row in zip(self.target_degrees, self.rows):
            negate, got = deg % 2 == 1, {}
            for s, v in row.items():
                glex = glexes.get(v.width)
                if glex is None:
                    glex = glexes[v.width] = _glex(nvars, v.width)
                if groups := _d_groups(glex, v.groups, negate):
                    got[s] = USeries._reduced(v.ring, v.den, v.width, groups)
            out.append(got)
        return Mat._make(self.ring, self.target_degrees, self.source_degrees, out)

    def supertrace(self) -> USeries:
        """Per-component supertrace: the form-degree-c part of the i-th
        diagonal entry is weighted by (-1)^{(1+c)|e_i|}.  Computed once per
        matrix: Chern-Weil and the chain route both read str(e)."""
        if self._supertrace is None:
            if self.target_degrees != self.source_degrees:
                raise InvalidInput("supertrace needs a square matrix on one object")
            acc = USeries.zero(self.ring)
            for t, row in enumerate(self.rows):
                v = row.get(t)
                if v is not None:
                    acc = acc + _supertrace_weight(self.target_degrees[t], v)
            self._supertrace = acc
        return self._supertrace

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_identity(self) -> bool:
        """Whether this is the identity on one object: equal target and
        source degrees, and each row t storing exactly one entry, at
        (t, t), equal to the unit series (u^0, form degree 0, the monomial
        1, coefficient exactly 1 + 0i).  Computed once per matrix."""
        got = self._identity
        if got is None:
            got = self._identity = self.target_degrees == self.source_degrees and all(
                len(row) == 1 and _is_unit(row.get(t)) for t, row in enumerate(self.rows)
            )
        return got

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Mat)
            and self.ring.same_as(other.ring)
            and self.target_degrees == other.target_degrees
            and self.source_degrees == other.source_degrees
            and self.rows == other.rows
        )

    def has_operator_degree(self, m: int) -> bool:
        """Degree rule |N[t][s]| = |e_s| - |e_t| + m with |d(x_v)| = |x_v|-1
        and |u| = 2 (zero entries pass)."""
        ring = self.ring
        for t, row in enumerate(self.rows):
            for s, v in row.items():
                want = self.source_degrees[s] - self.target_degrees[t] + m
                for (J, mask), rows in v.groups.items():
                    need = want - 2 * J - sum(ring.degrees[x] - 1 for x in _indices(mask))
                    if not all(ring.deg_eq(g, need) for g in _gammas(ring, v.width, rows)):
                        return False
        return True

    def entry(self, t: int, s: int) -> USeries:
        got = self.rows[t].get(s)
        return USeries.zero(self.ring) if got is None else got

    def parity_components(self) -> dict[int, "Mat"]:
        """Split into operator-parity-homogeneous parts, keyed 0/1.

        A term u^J p dx_S in entry [t][s] contributes to the part of
        operator parity (g - |e_s| + |e_t|) mod 2, g its Gamma-degree;
        ring degrees are even, so g ≡ |S| and whole groups are split.
        Only parities that actually occur appear in the result; a matrix
        of one parity p is returned as {p: self}.
        """
        ring = self.ring
        grids: dict[int, list[dict]] = {}
        for t, row in enumerate(self.rows):
            for s, v in row.items():
                base = self.target_degrees[t] + self.source_degrees[s]
                for g, rows in v.groups.items():
                    p = (base + g[1].bit_count()) % 2
                    grid = grids.get(p)
                    if grid is None:
                        grid = grids[p] = [{} for _ in self.rows]
                    grid[t].setdefault(s, {})[g] = rows
        if len(grids) == 1:
            return {p: self for p in grids}
        return {
            p: Mat._make(ring, self.target_degrees, self.source_degrees, [
                {s: USeries._reduced(ring, old[s].den, old[s].width, g) for s, g in row.items()}
                for old, row in zip(self.rows, grid)
            ])
            for p, grid in grids.items()
        }

    def apply(self, col: Column) -> Column:
        """Matrix times column (entries multiply on the left of the column's
        u-series values).  An identity (see is_identity) returns a new list
        of the same column entries, forming nothing."""
        if self.is_identity():
            return list(col)
        return [USeries.sum_of_products(self.ring, [(1, 0, a, col[k]) for k, a in row.items()]) for row in self.rows]

    def __repr__(self) -> str:
        shape = f"{len(self.target_degrees)}x{len(self.source_degrees)}"
        return f"<Mat {shape} tgt={self.target_degrees} src={self.source_degrees}>"


def _is_unit(v: USeries | None) -> bool:
    """Whether v is the unit series u^0·1, coefficient exactly 1 + 0i."""
    return v is not None and v.den == 1 and v.groups == {(0, 0): [(0, 1, 0)]}


def _entry(ring: GradedRing, products: list, added: list) -> USeries:
    """An entry of Mat.sum_of_products from what was filed for it: the
    products and the added rows in one kernel call, or, when no product
    reaches the entry, the added rows merged without one."""
    if products:
        return USeries._make(ring, *sum_of_products(ring, products, added))
    out = USeries.zero(ring)
    for key, sign, den, width, rows in added:
        out = out._merge(USeries._make(ring, den, width, {key: rows}), sign)
    return out


def _flip(v: USeries, parity: int) -> USeries:
    """Negate the form-degree-c parts of v with c ≡ parity (mod 2)."""
    groups = {
        g: _scaled_rows(rows, -1) if g[1].bit_count() % 2 == parity else rows
        for g, rows in v.groups.items()
    }
    return USeries._make(v.ring, v.den, v.width, groups)


def _supertrace_weight(deg: int, entry: USeries) -> USeries:
    """Weight the form-degree-c parts of a diagonal entry by (-1)^{(1+c)·deg}."""
    return entry if deg % 2 == 0 else _flip(entry, 0)


def _twist(v: USeries, basis_degree: int) -> USeries:
    """Apply (-1)^{c * basis_degree} to form-degree-c components."""
    return v if basis_degree % 2 == 0 else _flip(v, 1)


def _weight(deg: int, c: int) -> int:
    """The supertrace weight (-1)^{(1+c)·deg} of the form-degree-c part of
    a diagonal entry on a basis vector of degree deg."""
    return -1 if deg % 2 and c % 2 == 0 else 1


def _weights(deg: int) -> dict:
    """The sign table (forms._wedge_signs) of a·b on the diagonal of basis
    degree deg, by [|S_a| % 2][|S_b| % 2]: the weight of the form degree
    |S_a| + |S_b|."""
    return _wedge_signs(tuple(tuple(_weight(deg, pa + pb) for pb in (0, 1)) for pa in (0, 1)))


def _mirror_weights(deg_t: int, deg_k: int) -> dict:
    """The sign table of a·b at (t, t) and its mirror b·a at (k, k) taken
    together, by parities as in _weights: b·a = (-1)^{|S_a||S_b|} a·b,
    since ring coefficients and u are even and central and entries carry
    no Koszul signs."""
    return _wedge_signs(tuple(
        tuple(_weight(deg_t, pa + pb) + _weight(deg_k, pa + pb) * (-1) ** (pa * pb) for pb in (0, 1))
        for pa in (0, 1)
    ))


def supertrace_of_product(A: Mat, B: Mat) -> USeries:
    """str(A @ B) from the diagonal dot products only.

    Forming the full product computes rank^2 entries and then discards all
    but the diagonal; this forms only the pairs A[t][k]·B[k][t] of stored
    entries, with each component product's sign already multiplied by the
    supertrace weight of row t, and sums all of them in one
    rings.sum_of_products call, one normal form per (u-power, wedge
    indices) key.  WordEvaluator evaluates every word of two or more
    letters, restricted to the rows of one basis parity, this way, except
    a square word (see supertrace_of_square).
    """
    if A.source_degrees != B.target_degrees or A.target_degrees != B.source_degrees:
        raise InvalidInput("matrix shapes/degrees do not compose to a square")
    right = B.rows
    terms: list = []
    for t, row in enumerate(A.rows):
        signs = _weights(A.target_degrees[t])
        for k, a in row.items():
            b = right[k].get(t)
            if b is not None:
                _pair(terms, a, b, signs)
    return USeries._make(A.ring, *sum_of_products(A.ring, terms))


def supertrace_of_square(P: Mat) -> USeries:
    """str(P @ P), forming each mirrored pair of component products once.

    The (t, k) and (k, t) summands of str(P·P) are P[t][k]·P[k][t] and
    P[k][t]·P[t][k]; for components a = u^{J_a} p dx_{S_a} and
    b = u^{J_b} q dx_{S_b}, b·a = (-1)^{|S_a||S_b|} a·b (str(XY) =
    ±str(YX), Quillen, Topology 24, 1985).  So for t < k each pair (a, b)
    of P[t][k] x P[k][t] is formed once with the sign
    σ(S_a, S_b)·(w_t(c) + w_k(c)·(-1)^{|S_a||S_b|}), σ the Koszul sign of
    the wedge and w_t(c) = (-1)^{(1+c)|e_t|} the supertrace weight of the
    output form degree c; on the diagonal the pairs i < j of components of
    P[t][t] get σ·w_t(c)·(1 + (-1)^{|S_i||S_j|}) and the pair i = j counts
    once.  Contributions whose sign is 0 are not formed.  Everything goes
    to one rings.sum_of_products call, as in supertrace_of_product.
    """
    if P.source_degrees != P.target_degrees:
        raise InvalidInput("supertrace of a square needs a square matrix on one object")
    degrees = P.target_degrees
    rows = P.rows
    terms: list = []
    for t, row in enumerate(rows):
        for k, a in row.items():
            if k == t:
                same, mirror = _weights(degrees[t]), _mirror_weights(degrees[t], degrees[t])
                comps = [USeries._make(P.ring, a.den, a.width, {g: r}) for g, r in a.groups.items()]
                for i, c in enumerate(comps):
                    _pair(terms, c, c, same)
                    for later in comps[i + 1:]:
                        _pair(terms, c, later, mirror)
            elif k > t and t in rows[k]:
                _pair(terms, a, rows[k][t], _mirror_weights(degrees[t], degrees[k]))
    return USeries._make(P.ring, *sum_of_products(P.ring, terms))


def content_key(X: Mat) -> tuple:
    """A hashable key equal for two matrices exactly when their ring (held
    in the key), degrees and canonical entries are equal, rows compared
    as sets.  Built once per matrix, which is sound because a Mat is never
    changed once it is made."""
    got = X._key
    if got is None:
        got = X._key = _content(X)
    return got


def _content(X: Mat) -> tuple:
    return (
        X.ring,
        X.target_degrees,
        X.source_degrees,
        tuple(
            (t, s, v.key())
            for t, row in enumerate(X.rows)
            for s, v in sorted(row.items())
        ),
    )


def _parities(X: Mat) -> tuple | None:
    """(μ, σ) of X, or None when either is undefined.  μ is the total
    parity |e_t| + |e_s| + |S| (mod 2), which must be the same for every
    stored group u^J p dx_S of every entry [t][s]; σ is the block shift
    |e_t| + |e_s| (mod 2), which must be the same for every stored entry.
    The zero matrix reports (0, 0)."""
    seen: set = set()
    for t, row in enumerate(X.rows):
        for s, v in row.items():
            shift = (X.target_degrees[t] + X.source_degrees[s]) % 2
            for _, mask in v.groups:
                seen.add(((shift + mask.bit_count()) % 2, shift))
    if len(seen) > 1:
        return None
    return seen.pop() if seen else (0, 0)


def stored_terms(v: USeries) -> int:
    """The terms v stores, over all its groups: the size the kernel's
    term pairs are counted in."""
    return sum(map(len, v.groups.values()))


def restrict_rows(X: Mat, keep) -> Mat:
    """X with only its rows t in keep kept; X itself when no stored row is
    dropped."""
    if all(t in keep for t, row in enumerate(X.rows) if row):
        return X
    rows = [row if t in keep else {} for t, row in enumerate(X.rows)]
    return Mat._make(X.ring, X.target_degrees, X.source_degrees, rows)


def _restrict(X: Mat, c: int) -> Mat:
    """X with only its rows of basis parity c kept (restrict_rows)."""
    return restrict_rows(X, {t for t, d in enumerate(X.target_degrees) if d % 2 == c})


class WordEvaluator:
    """Supertraces of words in graded matrix letters, memoized by content.

    A letter is interned by content_key, so two routes that build equal
    matrices independently share one letter.  A word is a tuple of letters,
    read as the product of its letters in written order.  Every letter's
    parities (μ, σ) are read once, when it is interned (see _parities); a
    word's μ and σ are the sums of its letters'.  A letter without both is
    refused with InternalCheckFailure: the letters of Chern–Weil and of the chain
    route ([nabla, delta], nabla^2 and [nabla, slot]) are built from a
    module that passes check_module and a connection whose theta has
    operator degree -1, and these degree rules on e, delta and theta give
    every letter μ ≡ its operator degree and σ ≡ μ + its form parity.

    A word of odd σ links only basis vectors of opposite parity, so it has
    no diagonal: its supertrace is zero, and nothing is formed.  The
    supertrace is cyclic (str(XY) = (-1)^{μ(X)μ(Y)} str(YX), Quillen,
    Topology 24, 1985: the (t, k) summand a·b of str(XY) is the (k, t)
    summand b·a of str(YX) up to that sign, component by component), and
    the evaluator uses it twice:

    * a word w is evaluated as (-1)^{μ(w[:r])μ(w[r:])}·str(w*), where
      w* = w[r:] + w[:r] is its least rotation, and str(w*) is kept under
      w*, so one evaluation serves the whole rotation class;
    * str(w*) = str_E + str_O, the sums over the diagonal rows of even and
      of odd basis degree.  When some letter has σ = 1 and r is the
      position just after the first such letter, X = P(w[:r]) has σ = 1,
      so the odd rows of str(XY) are the even rows of str(YX):
      str_O(w) = (-1)^{μ(w[:r])μ(w[r:])}·str_E(rot_r w).  For a power such
      as A^4, rot_r w = w and str(w) = (1 ± 1)·str_E(w).  With no such
      letter, str_O is evaluated as str_E is.

    A row-class supertrace str_c(v) comes from products restricted to the
    rows of basis parity c, P_c(v) = P_c(v[:-1]) @ v[-1], kept by (v, c):
    supertrace_of_square(P_c(h)) for v = h·h with σ(h) even, otherwise
    supertrace_of_product(P_c(v[:cut]), P_c'(v[cut:])) with c' = c +
    σ(v[:cut]), the row class the first factor's columns land in.  The
    cut is ceil(len(v)/2), except for a word of three letters, where each
    cut leaves one product of two letters to form, P_c(v[:2]) or
    P_c'(v[1:]): there the cut is the one whose product forms fewer term
    pairs, estimated from the stored term counts, a product already held
    counting none, and ceil(3/2) on a tie.  So what the evaluator holds
    decides: after A^4, A·A·K reuses P_0(A·A); an evaluator without it
    forms the much smaller P_1(A·K) instead.  Signs and weights of words
    beyond their own supertrace are the caller's business.

    `classes` and `adopt` hand the least-rotation supertraces from one
    evaluator to another over the same letter ids, as cli.run_suite's
    forked child does to its parent; `hold` takes a row-class product
    P_c(v) formed elsewhere, as cli.run_suite does with P_0(A·A), which it
    forms as two halves of rows.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._letters: list[Mat] = []
        self._parities: list[tuple] = []
        # least rotation -> supertrace; (word, row class) -> product,
        # row-class supertrace
        self._classes: dict[tuple, USeries] = {}
        self._products: dict[tuple, Mat] = {}
        self._traces: dict[tuple, USeries] = {}

    def letter(self, X: Mat) -> int:
        key = content_key(X)
        got = self._ids.get(key)
        if got is None:
            parities = _parities(X)
            if parities is None:
                raise InternalCheckFailure(f"word letter {X!r} has no single parity (μ, σ)")
            got = self._ids[key] = len(self._letters)
            self._letters.append(X)
            self._parities.append(parities)
        return got

    def supertrace(self, word: tuple[int, ...]) -> USeries:
        if self._shift(word, 0):
            return USeries.zero(self._letters[word[0]].ring)
        r = min(range(len(word)), key=lambda i: word[i:] + word[:i])
        star = word[r:] + word[:r]
        got = self._classes.get(star)
        if got is None:
            got = self._classes[star] = self._graded(star)
        return -got if self._mu(word[:r]) * self._mu(word[r:]) else got

    def classes(self) -> dict[tuple, USeries]:
        """The supertraces evaluated so far, by least rotation: what
        adopt takes."""
        return dict(self._classes)

    def adopt(self, classes: dict[tuple, USeries]) -> None:
        """Hold supertraces evaluated by another evaluator, by least
        rotation, so that supertrace forms nothing for their words.  The
        other evaluator must hold this one's letters under the same ids,
        as a forked copy does.  A class whose word uses a letter id this
        evaluator does not hold, or one it holds as another object with
        another value, is refused with InternalCheckFailure (values are
        exact, so equal classes compare equal; its own classes() are the
        very objects it holds and are not compared), and then nothing is
        adopted."""
        for star, value in classes.items():
            if not all(0 <= x < len(self._letters) for x in star):
                raise InternalCheckFailure(f"adopted class {star} uses a letter this evaluator does not hold")
            held = self._classes.get(star)
            if held is not None and held is not value and held != value:
                raise InternalCheckFailure(f"adopted class {star} differs from the one held")
        self._classes.update(classes)

    def hold(self, word: tuple[int, ...], c: int, P: Mat) -> None:
        """Hold P as P_c(word), the product of word's letters with only its
        rows of basis parity c, so that nothing forms it here.  P is
        refused with InternalCheckFailure, and not held, when word uses a
        letter id this evaluator does not hold, when P's degrees are not
        those of the product, or when P stores a row of the other parity."""
        if not all(0 <= x < len(self._letters) for x in word):
            raise InternalCheckFailure(f"held product {word} uses a letter this evaluator does not hold")
        first, last = self._letters[word[0]], self._letters[word[-1]]
        if (P.target_degrees, P.source_degrees) != (first.target_degrees, last.source_degrees):
            raise InternalCheckFailure(f"held product {word} has degrees that do not fit its letters")
        if any(row and d % 2 != c for d, row in zip(P.target_degrees, P.rows)):
            raise InternalCheckFailure(f"held product {word} stores a row outside row class {c}")
        self._products[(word, c)] = P

    def _mu(self, word: tuple[int, ...]) -> int:
        return sum(self._parities[x][0] for x in word) % 2

    def _shift(self, word: tuple[int, ...], c: int) -> int:
        """The row class c + σ(word) that the columns of P_c(word) land
        in."""
        return (c + sum(self._parities[x][1] for x in word)) % 2

    def _graded(self, word: tuple[int, ...]) -> USeries:
        """str(word) = str_E + str_O, the odd rows by rotation when a
        letter has σ = 1."""
        first = next((i for i, x in enumerate(word) if self._parities[x][1]), None)
        if first is None:
            return self._trace(word, 0) + self._trace(word, 1)
        r = first + 1
        # for a power such as A^4, rot_r w = w and odd is even: (1 ± 1)·str_E
        even, odd = self._trace(word, 0), self._trace(word[r:] + word[:r], 0)
        return even - odd if self._mu(word[:r]) * self._mu(word[r:]) else even + odd

    def _trace(self, word: tuple[int, ...], c: int) -> USeries:
        """str_c(word): the supertrace summed over the diagonal rows of
        basis parity c."""
        got = self._traces.get((word, c))
        if got is None:
            half = len(word) // 2
            if len(word) == 1:
                got = self._product(word, c).supertrace()
            elif word[:half] == word[half:] and self._shift(word[:half], c) == c:
                got = supertrace_of_square(self._product(word[:half], c))
            else:
                cut = self._cut(word, c)
                got = supertrace_of_product(
                    self._product(word[:cut], c),
                    self._product(word[cut:], self._shift(word[:cut], c)),
                )
            self._traces[(word, c)] = got
        return got

    def _cut(self, word: tuple[int, ...], c: int) -> int:
        """Where str_c(word) cuts word: ceil(len(word)/2), except that a
        three-letter word cuts after its first letter when the one product
        that cut still has to form, P_c'(word[1:]), forms fewer term pairs
        than P_c(word[:2]) would."""
        cut = (len(word) + 1) // 2
        if len(word) == 3 and self._pairs(word[1:], self._shift(word[:1], c)) < self._pairs(word[:2], c):
            cut = 1
        return cut

    def _pairs(self, word: tuple[int, ...], c: int) -> int:
        """The term pairs forming P_c(word) of two letters X·Y takes, by the
        stored term counts: the sum of |X[t][k]|·|Y[k][.]| over the rows t
        of parity c; 0 when the product is held."""
        if (word, c) in self._products:
            return 0
        X, Y = (self._letters[x] for x in word)
        after = [sum(map(stored_terms, row.values())) for row in Y.rows]
        return sum(stored_terms(v) * after[k] for t, row in enumerate(X.rows)
                   if X.target_degrees[t] % 2 == c for k, v in row.items())

    def _product(self, word: tuple[int, ...], c: int) -> Mat:
        """P_c(word): the product with only its rows of basis parity c."""
        got = self._products.get((word, c))
        if got is None:
            if len(word) == 1:
                got = _restrict(self._letters[word[0]], c)
            else:
                got = self._product(word[:-1], c) @ self._letters[word[-1]]
            self._products[(word, c)] = got
        return got

