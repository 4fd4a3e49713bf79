"""Exact scalars: the field Q(i) of Gaussian rationals.

Every number in the engine is a Scalar.  There are no floats anywhere.
Internally a Scalar is the integer triple (an, bn, d) representing
(an + bn·i)/d with d > 0 and gcd(an, bn, d) = 1, so equality is literal
equality and printing is canonical; the `re`/`im` properties expose the
components as `fractions.Fraction` in lowest terms.  The integer core
keeps the ring arithmetic hot paths off Fraction's per-operation
normalization overhead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_FracLike = int | Fraction


class Scalar:
    """An element a + b*i of Q(i), exact.

    Immutable and hashable.  Arithmetic is the usual complex arithmetic;
    division by zero raises ZeroDivisionError.
    """

    __slots__ = ("an", "bn", "d")

    def __init__(self, re: _FracLike = 0, im: _FracLike = 0):
        if type(re) is int and type(im) is int:
            an, bn, d = re, im, 1
        else:
            fre, fim = Fraction(re), Fraction(im)
            q = fre.denominator * fim.denominator // gcd(
                fre.denominator, fim.denominator
            )
            an = fre.numerator * (q // fre.denominator)
            bn = fim.numerator * (q // fim.denominator)
            d = q
            g = gcd(an, bn, d)
            if g > 1:
                an //= g
                bn //= g
                d //= g
        _set_an(self, an)
        _set_bn(self, bn)
        _set_d(self, d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def _raw(an: int, bn: int, d: int) -> "Scalar":
        """Build from an unnormalized integer triple."""
        if d < 0:
            an, bn, d = -an, -bn, -d
        g = gcd(an, bn, d)
        if g > 1:
            an //= g
            bn //= g
            d //= g
        out = object.__new__(Scalar)
        _set_an(out, an)
        _set_bn(out, bn)
        _set_d(out, d)
        return out

    # -- components ----------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.an, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.bn, self.d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.d == other.d:
            return Scalar._raw(self.an + other.an, self.bn + other.bn, self.d)
        return Scalar._raw(
            self.an * other.d + other.an * self.d,
            self.bn * other.d + other.bn * self.d,
            self.d * other.d,
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.d == other.d:
            return Scalar._raw(self.an - other.an, self.bn - other.bn, self.d)
        return Scalar._raw(
            self.an * other.d - other.an * self.d,
            self.bn * other.d - other.bn * self.d,
            self.d * other.d,
        )

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        _set_an(out, -self.an)
        _set_bn(out, -self.bn)
        _set_d(out, self.d)
        return out

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self.an, self.bn, other.an, other.bn
        return Scalar._raw(a * c - b * e, a * e + b * c, self.d * other.d)

    def inv(self) -> "Scalar":
        n = self.an * self.an + self.bn * self.bn
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return Scalar._raw(self.d * self.an, -self.d * self.bn, n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.an == 0 and self.bn == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.an == other.an
            and self.bn == other.bn
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.an, self.bn, self.d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if self.bn == 0:
            return str(self.re)
        if self.an == 0:
            return _imag_str(self.im)
        sign = "+" if self.bn > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


# the slot descriptors' setters: they store past the immutability guard
# in __setattr__, at about 60% of the cost of object.__setattr__
_set_an, _set_bn, _set_d = Scalar.an.__set__, Scalar.bn.__set__, Scalar.d.__set__


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


ONE = Scalar(1)
I = Scalar(0, 1)
