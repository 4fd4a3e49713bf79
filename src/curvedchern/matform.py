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

Stored matrices are what the user writes and what reports print; they obey
the degree rule |M[s][t]| = |e_s| - |e_t| + m with the first index the
source basis vector.
"""

from __future__ import annotations

from .errors import InvalidInput
from .forms import DiffForm, USeries, de_rham_d
from .rings import GradedRing, RingElement
from .scalars import Scalar

Column = list  # list[USeries], one entry per target basis vector


def _as_useries(ring: GradedRing, value) -> USeries:
    if isinstance(value, USeries):
        return value
    if isinstance(value, DiffForm):
        return USeries.from_form(value)
    if isinstance(value, RingElement):
        return USeries.from_ring(value)
    if isinstance(value, str):
        return USeries.from_ring(ring.from_string(value))
    if isinstance(value, int):
        return USeries.from_ring(ring.scalar(Scalar(value)))
    raise InvalidInput(f"cannot interpret {value!r} as a matrix entry")


class Mat:
    """A target x source matrix of USeries entries (internal convention)."""

    __slots__ = ("ring", "target_degrees", "source_degrees", "entries")

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
            rows.append([_as_useries(ring, v) for v in row])
        self.entries = rows

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ring, target_degrees, source_degrees) -> "Mat":
        z = USeries.zero(ring)
        return Mat(
            ring,
            target_degrees,
            source_degrees,
            [[z for _ in source_degrees] for _ in target_degrees],
        )

    @staticmethod
    def identity(ring, degrees) -> "Mat":
        one = USeries.from_ring(ring.one())
        z = USeries.zero(ring)
        n = len(degrees)
        return Mat(
            ring,
            degrees,
            degrees,
            [[one if r == c else z for c in range(n)] for r in range(n)],
        )

    @staticmethod
    def from_stored(ring, degrees, rows, *, target_degrees=None) -> "Mat":
        """Build the internal matrix from stored-convention rows.

        stored[s][t] is the coefficient of e_t in the image of e_s; the
        internal entry picks up the parity twist (-1)^{c|e_t|} on
        form-degree-c components (for ring entries this is a plain
        transpose).  `degrees` is the source side (stored rows are
        source-major); rectangular homs pass the target side explicitly.
        """
        src = tuple(degrees)
        tgt = tuple(degrees if target_degrees is None else target_degrees)
        # stored rows are source-major: len(rows) == len(src)
        if len(rows) != len(src):
            raise InvalidInput("stored matrix row count does not match degrees")
        stored = [[_as_useries(ring, v) for v in row] for row in rows]
        for row in stored:
            if len(row) != len(tgt):
                raise InvalidInput("stored matrix column count does not match degrees")
        entries = []
        for t in range(len(tgt)):
            out_row = []
            for s in range(len(src)):
                out_row.append(_twist(stored[s][t], tgt[t]))
            entries.append(out_row)
        return Mat(ring, tgt, src, entries)

    def display(self) -> list[list[USeries]]:
        """Stored-convention rows (inverse of from_stored)."""
        out = []
        for s in range(len(self.source_degrees)):
            row = []
            for t in range(len(self.target_degrees)):
                row.append(_twist(self.entries[t][s], self.target_degrees[t]))
            out.append(row)
        return out

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        """The matrix product; each entry sum over k of a[t][k]·b[k][s] is
        one USeries.sum_of_products call, so it is normal-formed once."""
        if self.source_degrees != other.target_degrees:
            raise InvalidInput("matrix shapes/degrees are not composable")
        ring = self.ring
        cols = [other.column(s) for s in range(len(other.source_degrees))]
        rows = [
            [USeries.sum_of_products(ring, zip(row, col)) for col in cols]
            for row in self.entries
        ]
        return Mat(ring, self.target_degrees, other.source_degrees, rows)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return self.scale(Scalar(-1))

    def scale(self, c: Scalar) -> "Mat":
        return Mat(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [[v.scale(c) for v in row] for row in self.entries],
        )

    def scale_ring(self, p: RingElement) -> "Mat":
        factor = USeries.from_ring(p)
        return Mat(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [[v * factor for v in row] for row in self.entries],
        )

    def shift_u(self, k: int) -> "Mat":
        return Mat(
            self.ring,
            self.target_degrees,
            self.source_degrees,
            [[v.shift_u(k) for v in row] for row in self.entries],
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
        D(X)[t][s] = (-1)^{|e_t|} d(X[t][s])."""
        rows = []
        for t, row in enumerate(self.entries):
            sign = Scalar((-1) ** (self.target_degrees[t] % 2))
            out_row = []
            for v in row:
                dv = USeries(
                    self.ring, {J: de_rham_d(f) for J, f in v.coeffs.items()}
                )
                out_row.append(dv.scale(sign))
            rows.append(out_row)
        return Mat(self.ring, self.target_degrees, self.source_degrees, rows)

    def supertrace(self) -> USeries:
        """Per-component supertrace: the form-degree-c part of the i-th
        diagonal entry is weighted by (-1)^{(1+c)|e_i|}."""
        if self.target_degrees != self.source_degrees:
            raise InvalidInput("supertrace needs a square matrix on one object")
        acc = USeries.zero(self.ring)
        for k, deg in enumerate(self.target_degrees):
            acc = acc + _supertrace_weight(self.ring, deg, self.entries[k][k])
        return acc

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.ring.same_as(other.ring)
            and self.target_degrees == other.target_degrees
            and self.source_degrees == other.source_degrees
            and self.entries == other.entries
        )

    def has_operator_degree(self, m: int) -> bool:
        """Degree rule |N[t][s]| = |e_s| - |e_t| + m with |d(x_v)| = |x_v|-1
        and |u| = 2 (zero entries pass)."""
        for t, row in enumerate(self.entries):
            for s, v in enumerate(row):
                want = self.source_degrees[s] - self.target_degrees[t] + m
                for J, form in v.coeffs.items():
                    if not form.has_gamma_degree(want - 2 * J):
                        return False
        return True

    def entry(self, t: int, s: int) -> USeries:
        return self.entries[t][s]

    def parity_components(self) -> dict[int, "Mat"]:
        """Split into operator-parity-homogeneous parts, keyed 0/1.

        A term of Gamma-degree g (form weights |d(x_v)| = |x_v| - 1 and
        |u| = 2 included) in entry [t][s] contributes to the part of
        operator parity (g - |e_s| + |e_t|) mod 2.  Only parities that
        actually occur appear in the result.
        """
        ring = self.ring
        grids: dict[int, list[list[dict]]] = {}
        nt, ns = len(self.target_degrees), len(self.source_degrees)
        for t in range(nt):
            for s in range(ns):
                base = self.source_degrees[s] - self.target_degrees[t]
                for J, form in self.entries[t][s].coeffs.items():
                    for S, coeff in form.parts.items():
                        shift = sum(ring.degrees[v] - 1 for v in S) + 2 * J - base
                        for mono, c in coeff.terms.items():
                            p = (ring.monomial_gamma(mono) + shift) % 2
                            grid = grids.setdefault(
                                p, [[{} for _ in range(ns)] for _ in range(nt)]
                            )
                            slot = grid[t][s].setdefault(J, {})
                            slot.setdefault(S, {})[mono] = c
        out = {}
        for p, grid in grids.items():
            rows = []
            for t in range(nt):
                row = []
                for s in range(ns):
                    row.append(
                        USeries(
                            ring,
                            {
                                J: DiffForm(
                                    ring,
                                    {
                                        S: RingElement(ring, ms, _normalize=False)
                                        for S, ms in parts.items()
                                    },
                                    _check=False,
                                )
                                for J, parts in grid[t][s].items()
                            },
                        )
                    )
                rows.append(row)
            out[p] = Mat(ring, self.target_degrees, self.source_degrees, rows)
        return out

    def column(self, s: int) -> Column:
        return [self.entries[t][s] for t in range(len(self.target_degrees))]

    @staticmethod
    def from_columns(ring, target_degrees, source_degrees, cols) -> "Mat":
        rows = [
            [cols[s][t] for s in range(len(source_degrees))]
            for t in range(len(target_degrees))
        ]
        return Mat(ring, target_degrees, source_degrees, rows)

    def apply(self, col: Column) -> Column:
        """Matrix times column (entries multiply on the left of the column's
        u-series values)."""
        return [USeries.sum_of_products(self.ring, zip(row, col)) for row in self.entries]

    def __repr__(self) -> str:
        shape = f"{len(self.target_degrees)}x{len(self.source_degrees)}"
        return f"<Mat {shape} tgt={self.target_degrees} src={self.source_degrees}>"


def _supertrace_weight(ring, deg: int, entry: USeries) -> USeries:
    """Weight the form-degree-c parts of a diagonal entry by (-1)^{(1+c)·deg}."""
    if entry.is_zero():
        return USeries.zero(ring)
    parts: dict[int, DiffForm] = {}
    for J, form in entry.coeffs.items():
        keep = DiffForm.zero(ring)
        for c in form.form_degrees():
            w = (-1) ** (((1 + c) * deg) % 2)
            comp = form.component(c)
            keep = keep + (comp if w > 0 else -comp)
        if not keep.is_zero():
            parts[J] = keep
    return USeries(ring, parts)


def form_degree_parity(X: Mat) -> int | None:
    """0 or 1 when every form component of every entry has that parity.

    None for mixed parities; the zero matrix reports 0.  Together with the
    operator degree this decides when a supertrace must vanish: a diagonal
    c-form component obeys c ≡ operator degree (mod 2), because ring
    coefficients always have even Gamma-degree and each dx_v is odd.
    """
    seen: int | None = None
    for row in X.entries:
        for v in row:
            for f in v.coeffs.values():
                for S in f.parts:
                    p = len(S) % 2
                    if seen is None:
                        seen = p
                    elif seen != p:
                        return None
    return 0 if seen is None else seen


def supertrace_of_product(A: Mat, B: Mat) -> USeries:
    """str(A @ B) from the diagonal dot products only.

    Forming the full product computes rank^2 entries and then discards all
    but the diagonal; this computes the rank entries that matter, each
    sum over k of A[t][k]·B[k][t] in one USeries.sum_of_products call.
    WordEvaluator evaluates every word of two or more letters this way.
    """
    if A.source_degrees != B.target_degrees or A.target_degrees != B.source_degrees:
        raise InvalidInput("matrix shapes/degrees do not compose to a square")
    acc = USeries.zero(A.ring)
    for t, deg in enumerate(A.target_degrees):
        entry = USeries.sum_of_products(A.ring, zip(A.entries[t], B.column(t)))
        acc = acc + _supertrace_weight(A.ring, deg, entry)
    return acc


def content_key(X: Mat) -> tuple:
    """A hashable key equal for two matrices exactly when their degrees and
    entries are equal.  The ring elements in it compare their rings too, so
    matrices with equal-looking nonzero entries over different rings never
    share a key."""
    return (
        X.target_degrees,
        X.source_degrees,
        tuple(
            tuple(sorted((J, S, p) for J, f in v.coeffs.items() for S, p in f.parts.items()))
            for row in X.entries
            for v in row
        ),
    )


class WordEvaluator:
    """Supertraces of words in matrix letters, memoized by content.

    A letter is interned by content_key, so two routes that build equal
    matrices independently share one letter.  A word is a tuple of letters;
    its product P(w) is built left to right (P(w[:-1]) @ w[-1]) and its
    supertrace as str(P(w[:cut]) @ P(w[cut:])), and both are kept.  The cut
    is the middle, ceil(len(w)/2), unless another cut finds both halves
    already built.  Words are taken exactly as given: rotations, signs and
    weights are the caller's business.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._letters: list[Mat] = []
        self._products: dict[tuple[int, ...], Mat] = {}
        self._traces: dict[tuple[int, ...], USeries] = {}

    def letter(self, X: Mat) -> int:
        key = content_key(X)
        got = self._ids.get(key)
        if got is None:
            got = self._ids[key] = len(self._letters)
            self._letters.append(X)
        return got

    def _product(self, word: tuple[int, ...]) -> Mat:
        if len(word) == 1:
            return self._letters[word[0]]
        got = self._products.get(word)
        if got is None:
            got = self._products[word] = self._product(word[:-1]) @ self._letters[word[-1]]
        return got

    def supertrace(self, word: tuple[int, ...]) -> USeries:
        got = self._traces.get(word)
        if got is None:
            if len(word) == 1:
                got = self._letters[word[0]].supertrace()
            else:
                cut = self._cut(word)
                got = supertrace_of_product(self._product(word[:cut]), self._product(word[cut:]))
            self._traces[word] = got
        return got

    def _cut(self, word: tuple[int, ...]) -> int:
        def built(w):
            return len(w) == 1 or w in self._products

        mid = (len(word) + 1) // 2
        for cut in (mid, *range(1, len(word))):
            if built(word[:cut]) and built(word[cut:]):
                return cut
        return mid


def _twist(v: USeries, basis_degree: int) -> USeries:
    """Apply (-1)^{c * basis_degree} to form-degree-c components."""
    if basis_degree % 2 == 0:
        return v
    out: dict[int, DiffForm] = {}
    for J, form in v.coeffs.items():
        flipped = DiffForm.zero(v.ring)
        for c in form.form_degrees():
            comp = form.component(c)
            flipped = flipped + (comp if c % 2 == 0 else -comp)
        out[J] = flipped
    return USeries(v.ring, out)


def jd_column(degrees, col: Column) -> Column:
    """The row-signed entrywise derivative of a coordinate column:
    (Jd w)[t] = (-1)^{|e_t|} d(w[t])."""
    out = []
    for t, v in enumerate(col):
        ring = v.ring
        dv = USeries(ring, {J: de_rham_d(f) for J, f in v.coeffs.items()})
        if degrees[t] % 2:
            dv = dv.scale(Scalar(-1))
        out.append(dv)
    return out
