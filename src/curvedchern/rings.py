"""Graded commutative polynomial rings over Q(i), with one optional relation.

A GradedRing is k[x_1..x_n] or k[x_1..x_n]/(f0) with k = Q(i), graded by
Gamma = Z or Z/2.  Variable degrees are always even, so every ring element
has even Gamma-degree; odd degrees only ever appear on module basis vectors.

Elements are sparse exponent-tuple -> Scalar dicts, kept in the division
normal form with respect to the single relation (a one-element generating
set is a Groebner basis of its principal ideal, so the remainder is
canonical).  The monomial order everywhere is graded lex: total degree
first, then lexicographic with earlier variables more significant.

Every product of ring elements is formed by sum_of_products, which takes
a batch of signed products p·q, each filed under a key, and returns the
normal form of each key's sum.  It works on integers.  A call packs each
monomial into a single int, one field per variable, at a field width
picked from the call's largest exponent plus one guard bit, so that
multiplying two monomials is one integer addition that never carries from
one field into the next.  An element's terms become integer rows (packed
monomial, re, im) over the element's common denominator, kept on the
element for the last width used; the call scales its products to one
common denominator, each key accumulates plain integers, and the
relation's normal form runs once per key, building one Scalar per
surviving monomial.  The packed layout never leaves this module.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import comb
from math import gcd as _gcd
from operator import add as _add

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
    relation : str or RingElement or None
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
        self._index = {v: k for k, v in enumerate(self.variables)}
        # field width -> (_PackTable, _UnpackTable) of sum_of_products
        self._packings: dict[int, tuple] = {}

        self.relation: RingElement | None = None
        if relation is not None:
            rel = relation if isinstance(relation, RingElement) else self.from_string(relation)
            if rel.is_zero():
                raise InvalidInput("relation must be nonzero")
            if rel.gamma_degree() != self.degree_reduce(0):
                raise InvalidInput("relation must have Gamma-degree 0")
            if rel.total_degree() == 0:
                raise InvalidInput("relation must not be a unit")
            # store monic with respect to the leading coefficient so the
            # division step below is a plain subtract-multiple
            lm, lc = rel.leading_term()
            monic = {m: c / lc for m, c in rel.terms.items()}
            self.relation = RingElement(self, monic, _normalize=False)
            self._rel_lm = lm
            self._nf_cache: dict[Monomial, dict] = {}
            self._nf_cache_ints: dict[Monomial, tuple] = {}
            # parsing the relation filled them before the relation applied
            self._packings.clear()

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
        return RingElement(self, {}, _normalize=False)

    def one(self) -> "RingElement":
        return self.scalar(ONE)

    def scalar(self, c: Scalar | int | Fraction) -> "RingElement":
        if not isinstance(c, Scalar):
            c = Scalar(c)
        if c.is_zero():
            return self.zero()
        return RingElement(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "RingElement":
        if name not in self._index:
            raise InvalidInput(f"unknown variable {name!r}")
        m = [0] * self.nvars
        m[self._index[name]] = 1
        return RingElement(self, {tuple(m): ONE})

    def from_string(self, text: str) -> "RingElement":
        return _parse_polynomial(self, text)

    # -- internal: division by the relation ---------------------------

    def _normal_form(self, terms: dict) -> dict:
        """Remainder of division by the (monic) relation.

        Input with no monomial the relation's lead divides is already
        reduced; any other input is reduced by sum_of_products, as a
        product by one.
        """
        out = {m: c for m, c in terms.items() if not c.is_zero()}
        if self.relation is None or not any(_divides(self._rel_lm, m) for m in out):
            return out
        p = RingElement(self, out, _normalize=False)
        one = RingElement(self, {(0,) * self.nvars: ONE}, _normalize=False)
        got = sum_of_products(self, ((None, 1, p, one),))
        return got[None].terms if got else {}

    def _monomial_nf(self, m: Monomial) -> dict:
        """Cached remainder of a single monomial divisible by the lead."""
        got = self._nf_cache.get(m)
        if got is not None:
            return got
        lm = self._rel_lm
        q = _mono_div(m, lm)
        acc: dict = {}
        for rm, rc in self.relation.terms.items():
            if rm == lm:
                continue
            t = _mono_mul(q, rm)
            if _divides(lm, t):
                for m2, c2 in self._monomial_nf(t).items():
                    v = -rc * c2
                    nc = acc.get(m2)
                    nc = v if nc is None else nc + v
                    if nc.is_zero():
                        acc.pop(m2, None)
                    else:
                        acc[m2] = nc
            else:
                nc = acc.get(t)
                nc = -rc if nc is None else nc - rc
                if nc.is_zero():
                    acc.pop(t, None)
                else:
                    acc[t] = nc
        self._nf_cache[m] = acc
        return acc

    def _monomial_nf_ints(self, m: Monomial) -> tuple:
        """The remainder of a monomial as a common-denominator int table.

        Returns (den, items) where items is a tuple of (monomial, re, im)
        integer rows and the remainder is sum of (re + im*i)/den * monomial.
        Used by _normal_form_packed.
        """
        got = self._nf_cache_ints.get(m)
        if got is not None:
            return got
        nf = self._monomial_nf(m)
        den = 1
        for c in nf.values():
            den = den * c.d // _gcd(den, c.d)
        items = tuple(
            (rm, c.an * (den // c.d), c.bn * (den // c.d)) for rm, c in nf.items()
        )
        self._nf_cache_ints[m] = (den, items)
        return den, items

    def _packing(self, width: int) -> tuple:
        """The (pack, unpack) tables of one field width, filled on demand."""
        got = self._packings.get(width)
        if got is None:
            got = (_PackTable(width, self.nvars), _UnpackTable(self, width))
            self._packings[width] = got
        return got

    def _normal_form_packed(self, acc: dict, real: bool, unpack: dict, den: int) -> dict:
        """Normal form of a sum_of_products accumulator as a monomial ->
        Scalar dict.

        acc maps a packed monomial k to its coefficient times den: an int
        when `real`, else a [re, im] pair; `unpack` is the _UnpackTable of
        the packing width.  Builds one Scalar per surviving monomial.
        """
        if self.relation is None:
            if real:
                return {unpack[k][0]: Scalar._raw(a, 0, den) for k, a in acc.items() if a}
            return {
                unpack[k][0]: Scalar._raw(a, b, den) for k, (a, b) in acc.items() if a or b
            }
        if real:
            rows = [(k, a, 0) for k, a in acc.items() if a]
        else:
            rows = [(k, a, b) for k, (a, b) in acc.items() if a or b]
        direct = []
        reduced = []
        scale = 1
        for k, a, b in rows:
            m, nf = unpack[k]
            if nf is None:
                direct.append((m, a, b))
            else:
                reduced.append((a, b, nf))
                dm = nf[0]
                scale = scale * dm // _gcd(scale, dm)
        if not reduced:
            return {m: Scalar._raw(a, b, den) for m, a, b in direct}
        acc: dict = {}
        get = acc.get
        for m, a, b in direct:
            acc[m] = [a * scale, b * scale]
        for a, b, (dm, items) in reduced:
            s = scale // dm
            aa = a * s
            bb = b * s
            for rm, ra, rb in items:
                v = get(rm)
                if v is None:
                    acc[rm] = [aa * ra - bb * rb, aa * rb + bb * ra]
                else:
                    v[0] += aa * ra - bb * rb
                    v[1] += aa * rb + bb * ra
        dd = den * scale
        return {
            m: Scalar._raw(v[0], v[1], dd) for m, v in acc.items() if v[0] or v[1]
        }

    # -- identity ------------------------------------------------------

    def same_as(self, other: "GradedRing") -> bool:
        rel_a = None if self.relation is None else sorted(self.relation.terms.items())
        rel_b = None if other.relation is None else sorted(other.relation.terms.items())
        return (
            self.variables == other.variables
            and self.degrees == other.degrees
            and self.grading == other.grading
            and rel_a == rel_b
        )

    def __repr__(self) -> str:
        rel = f"/({self.relation})" if self.relation is not None else ""
        return f"GradedRing({','.join(self.variables)}; {self.grading}){rel}"


class _PackTable(dict):
    """monomial -> packed int at one field width: exponent e_v sits at bit
    v·width, so the fields of a sum of two packed monomials hold the sums
    of exponents as long as those fit in width bits."""

    def __init__(self, width: int, nvars: int):
        super().__init__()
        self.shifts = range(0, width * nvars, width)

    def __missing__(self, m: Monomial) -> int:
        k = self[m] = sum(e << s for e, s in zip(m, self.shifts))
        return k


class _UnpackTable(dict):
    """packed int -> (monomial, its _monomial_nf_ints remainder table, or
    None when the monomial is in normal form)."""

    def __init__(self, ring: GradedRing, width: int):
        super().__init__()
        self.ring = ring
        self.mask = (1 << width) - 1
        self.shifts = range(0, width * ring.nvars, width)

    def __missing__(self, k: int) -> tuple:
        ring = self.ring
        m = tuple((k >> s) & self.mask for s in self.shifts)
        nf = None
        if ring.relation is not None and _divides(ring._rel_lm, m):
            nf = ring._monomial_nf_ints(m)
        got = self[k] = (m, nf)
        return got


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_add, a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


class RingElement:
    """A sparse polynomial in normal form; immutable in practice."""

    __slots__ = ("ring", "terms", "_hash", "_info", "_packed")

    def __init__(self, ring: GradedRing, terms: dict, _normalize: bool = True):
        self.ring = ring
        self.terms = ring._normal_form(terms) if _normalize else terms
        self._hash = None
        # sum_of_products' caches: _row_info and the last _packed_rows
        self._info = None
        self._packed = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, False)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, True)

    def _merge(self, other: "RingElement", negate: bool) -> "RingElement":
        """self + other, or self - other when `negate`: only the terms of
        other whose monomial self lacks are negated on their own."""
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m)
            if nc is None:
                out[m] = -c if negate else c
                continue
            nc = nc - c if negate else nc + c
            if nc.is_zero():
                del out[m]
            else:
                out[m] = nc
        return RingElement(self.ring, out, _normalize=False)

    def __neg__(self) -> "RingElement":
        return RingElement(
            self.ring, {m: -c for m, c in self.terms.items()}, _normalize=False
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        """The product in normal form: sum_of_products on one product."""
        got = sum_of_products(self.ring, ((None, 1, self, other),))
        return got[None] if got else self.ring.zero()

    def _row_info(self) -> tuple:
        """(den, top, real): the common denominator of the terms, the
        largest exponent, and whether every coefficient is rational.
        Computed once per element."""
        if self._info is None:
            den = 1
            real = True
            for c in self.terms.values():
                if c.d != 1:
                    den = den * c.d // _gcd(den, c.d)
                if c.bn:
                    real = False
            top = max(map(max, self.terms)) if self.ring.nvars else 0
            self._info = (den, top, real)
        return self._info

    def _packed_rows(self, width: int, pack: dict) -> list:
        """The terms as integer rows (packed monomial, re, im) over the
        common denominator, monomials packed by `pack`, the _PackTable of
        this field width; the rows of the last width are kept."""
        got = self._packed
        if got is None or got[0] != width:
            den = self._row_info()[0]
            if den == 1:
                rows = [(pack[m], c.an, c.bn) for m, c in self.terms.items()]
            else:
                rows = [
                    (pack[m], c.an * (den // c.d), c.bn * (den // c.d))
                    for m, c in self.terms.items()
                ]
            got = self._packed = (width, rows)
        return got[1]

    def scale(self, c: Scalar) -> "RingElement":
        if c.is_zero():
            return self.ring.zero()
        return RingElement(
            self.ring, {m: c * v for m, v in self.terms.items()}, _normalize=False
        )

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise InvalidInput("negative powers are not ring elements")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, var: str) -> "RingElement":
        """Formal partial derivative of the normal-form representative."""
        k = self.ring._index[var]
        got = self.partials([int(v == k) for v in range(self.ring.nvars)])[k]
        return self.ring.zero() if got is None else got

    def partials(self, signs: list) -> list:
        """[signs[v]·∂/∂x_v of the normal-form representative, for each
        variable v], None where signs[v] is 0 or the derivative is zero.

        One pass over the terms builds them all.  No normal form is
        needed: the relation's lead does not divide a monomial m of self,
        so it does not divide m − e_v either."""
        outs = [{} if sign else None for sign in signs]
        raw = Scalar._raw
        for m, c in self.terms.items():
            an, bn, d = c.an, c.bn, c.d
            for v, e in enumerate(m):
                if e and signs[v]:
                    f = signs[v] * e
                    outs[v][m[:v] + (e - 1,) + m[v + 1 :]] = raw(f * an, f * bn, d)
        return [RingElement(self.ring, out, _normalize=False) if out else None for out in outs]

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.nvars}

    def scalar_part(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, Scalar(0))

    def gamma_degree(self) -> int:
        """Common Gamma-degree of all monomials, or raise Inhomogeneous.

        Zero is homogeneous of every degree; by convention returns 0.
        """
        degs = {self.ring.monomial_gamma(m) for m in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise Inhomogeneous(f"inhomogeneous element {self}: degrees {sorted(degs)}")
        return degs.pop()

    def has_gamma_degree(self, d: int) -> bool:
        """True when every monomial has Gamma-degree d (zero passes)."""
        return all(self.ring.deg_eq(self.ring.monomial_gamma(m), d) for m in self.terms)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_term(self) -> tuple[Monomial, Scalar]:
        if not self.terms:
            raise InvalidInput("leading term of zero")
        m = max(self.terms, key=monomial_key)
        return m, self.terms[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring.same_as(other.ring)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=monomial_key, reverse=True):
            c = self.terms[m]
            mono = _mono_str(self.ring, m)
            parts.append(_term_str(c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"<{self}>"


def sum_of_products(ring: GradedRing, contributions) -> dict:
    """Sum signed products of ring elements per key, in normal form.

    `contributions` is an iterable of (key, sign, p, q): p and q are
    elements of `ring`, sign an int (usually ±1) and key any hashable, e.g.
    (u-power, wedge indices) for forms.  Returns {key: sum of sign·p·q over
    the contributions filed under key}, leaving out keys whose sum is zero.

    The one place ring products are formed (see the module docstring):
    integer rows, one common denominator, monomials packed one field per
    variable at a width of the call's largest exponent's bit length plus a
    guard bit, plain integer accumulation per key, and one normal form per
    key.  Normal form is linear and canonical, so the result equals the
    term-by-term sum of normal-formed products.
    """
    batch = []
    top = 0
    den = 1
    real = True
    for key, sign, p, q in contributions:
        if not p.terms or not q.terms:
            continue
        dp, tp, p_real = p._info or p._row_info()
        dq, tq, q_real = q._info or q._row_info()
        d = dp * dq
        den = den * d // _gcd(den, d)
        top = max(top, tp, tq)
        real = real and p_real and q_real
        batch.append((key, sign, d, p, q))
    if not batch:
        return {}
    width = top.bit_length() + 1
    pack, unpack = ring._packing(width)
    accs: dict = {}
    for key, sign, d, p, q in batch:
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = {}
        get = acc.get
        f = sign * (den // d)
        Q = q._packed_rows(width, pack)
        for k1, a1, b1 in p._packed_rows(width, pack):
            a1 *= f
            if real:
                for k2, a2, _ in Q:
                    k = k1 + k2
                    acc[k] = get(k, 0) + a1 * a2
            elif b1 == 0:
                for k2, a2, b2 in Q:
                    k = k1 + k2
                    v = get(k)
                    if v is None:
                        acc[k] = [a1 * a2, a1 * b2]
                    else:
                        v[0] += a1 * a2
                        v[1] += a1 * b2
            else:
                b1 *= f
                for k2, a2, b2 in Q:
                    k = k1 + k2
                    v = get(k)
                    if v is None:
                        acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                    else:
                        v[0] += a1 * a2 - b1 * b2
                        v[1] += a1 * b2 + b1 * a2
    out = {}
    for key, acc in accs.items():
        terms = ring._normal_form_packed(acc, real, unpack, den)
        if terms:
            out[key] = RingElement(ring, terms, _normalize=False)
    return out


def _mono_str(ring: GradedRing, m: Monomial) -> str:
    pieces = []
    for v, e in zip(ring.variables, m):
        if e == 1:
            pieces.append(v)
        elif e > 1:
            pieces.append(f"{v}^{e}")
    return "*".join(pieces)


def _term_str(c: Scalar, mono: str) -> str:
    if not mono:
        cs = str(c)
        return f"({cs})" if (c.re != 0 and c.im != 0) else cs
    if c == Scalar(1):
        return mono
    if c == Scalar(-1):
        return f"-{mono}"
    cs = str(c)
    if c.re != 0 and c.im != 0:
        cs = f"({cs})"
    return f"{cs}*{mono}"


# ---------------------------------------------------------------------------
# parser: +, -, *, ^, integer and rational literals, the literal i,
# parentheses and unary minus.  Unicode minus is normalized.
# ---------------------------------------------------------------------------

# Size caps of the parser, checked before each sum, product or power is
# formed: no exponent after '^' above MAX_EXPONENT, and no result with a
# variable's exponent above MAX_EXPONENT, possibly more than MAX_TERMS
# terms, or coefficients estimated at more than MAX_COEFFICIENT_BITS bits.
# The term count is bounded by the operands' term counts and by the box of
# exponent vectors the result can reach, before any reduction; the
# coefficient estimate adds the operands' largest numerator or denominator
# bit lengths and the bits a sum of the products can carry.
MAX_EXPONENT = 1000
MAX_TERMS = 10_000
MAX_COEFFICIENT_BITS = 10_000


def _exponents(p: RingElement) -> list[int]:
    """The largest exponent of each variable in p."""
    return [max(col, default=0) for col in zip(*p.terms)] or [0] * p.ring.nvars


def _bits(p: RingElement) -> int:
    """The largest bit length of a numerator or denominator in p."""
    return max((max(abs(c.an), abs(c.bn), c.d).bit_length() for c in p.terms.values()), default=0)


def _check_size(op: str, exps: list[int], terms: int, bits: int = 0) -> None:
    """Refuse a result whose exponents `exps`, term bound `terms` or
    coefficient bit estimate `bits` exceed the caps."""
    if max(exps, default=0) > MAX_EXPONENT:
        raise InvalidInput(
            f"polynomial too large: a {op} would raise an exponent above {MAX_EXPONENT}"
        )
    box = 1
    for e in exps:
        box *= e + 1
    if min(terms, box) > MAX_TERMS:
        raise InvalidInput(
            f"polynomial too large: a {op} could have more than {MAX_TERMS} terms"
        )
    if bits > MAX_COEFFICIENT_BITS:
        raise InvalidInput(
            f"polynomial too large: a {op} could have coefficients of more than"
            f" {MAX_COEFFICIENT_BITS} bits"
        )


_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.replace("−", "-").replace("⋅", "*")
    tokens = []
    pos = 0
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
        if mt is None:
            if text[pos:].strip() == "":
                break
            raise InvalidInput(f"cannot tokenize polynomial at {text[pos:]!r}")
        pos = mt.end()
        if mt.group("num") is not None:
            tokens.append(("num", mt.group("num")))
        elif mt.group("name") is not None:
            tokens.append(("name", mt.group("name")))
        else:
            tokens.append(("op", mt.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent over the tiny expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*      -- '/' only scalar/scalar
    factor := atom ('^' integer)?  |  '-' factor
    atom   := integer | 'i' | variable | '(' expr ')'
    """

    def __init__(self, ring: GradedRing, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.toks = tokens
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expr(self) -> RingElement:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            terms = len(node.terms) + len(rhs.terms)
            if terms > MAX_TERMS:  # a sum raises no exponent
                _check_size("sum", list(map(max, _exponents(node), _exponents(rhs))), terms)
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> RingElement:
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            if op == "*":
                fewer = min(len(node.terms), len(rhs.terms))
                _check_size(
                    "product",
                    list(map(_add, _exponents(node), _exponents(rhs))),
                    len(node.terms) * len(rhs.terms),
                    _bits(node) + _bits(rhs) + fewer.bit_length() + 1,
                )
                node = node * rhs
            else:
                if not rhs.is_scalar() or rhs.is_zero():
                    raise InvalidInput("'/' only divides by nonzero scalars")
                node = node.scale(rhs.scalar_part().inv())
        return node

    def factor(self) -> RingElement:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise InvalidInput("'^' needs a nonnegative integer exponent")
            digits = val.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                shown = digits if len(digits) <= 20 else digits[:20] + "..."
                raise InvalidInput(f"exponent {shown} is above the cap {MAX_EXPONENT}")
            n = int(digits)
            if n:
                _check_size(
                    "power",
                    [n * e for e in _exponents(node)],
                    comb(len(node.terms) + n - 1, n),
                    n * (_bits(node) + len(node.terms).bit_length() + 1),
                )
            node = node**n
        return node

    def atom(self) -> RingElement:
        kind, val = self.take()
        if kind == "num":
            try:
                return self.ring.scalar(Scalar(int(val)))
            except ValueError as exc:  # longer than the interpreter converts
                raise InvalidInput(f"integer literal too long: {exc}") from exc
        if kind == "name":
            if val == "i":
                return self.ring.scalar(Scalar(0, 1))
            return self.ring.var(val)
        if (kind, val) == ("op", "("):
            node = self.expr()
            if self.take() != ("op", ")"):
                raise InvalidInput("unbalanced parentheses")
            return node
        raise InvalidInput(f"unexpected token {val!r} in polynomial")


def _parse_polynomial(ring: GradedRing, text: str) -> RingElement:
    if not isinstance(text, str) or not text.strip():
        raise InvalidInput("empty polynomial string")
    parser = _Parser(ring, _tokenize(text))
    node = parser.expr()
    if parser.peek() != ("end", ""):
        raise InvalidInput(f"trailing input in polynomial {text!r}")
    return node
