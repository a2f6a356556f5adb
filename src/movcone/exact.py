"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value is a + b*sqrt(d) with rational a, b and a radicand d > 1 that is
not a perfect square, taken as given: the field is chosen once per model,
where cones.eigen_sigma factors tr^2 - 4, and arithmetic inherits its d.
Values over different radicands never mix (RadicandMismatch); rational
values mix with any field.  quad_sign is the one sign routine (compare,
cones._sign, the property suites and the floor checks all call it) and
quad_floor the one floor; both decide on integers, floats never enter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering


class RadicandMismatch(ValueError):
    """Arithmetic mixing two genuinely irrational values of different fields."""


# filler radicand carried by purely rational values (b == 0); such values
# interoperate with any field, so the stored d is never observable
_RATIONAL_D = 2

_Scalar = (int, Fraction)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n > 0 as k**2 * d with d == 1 or d > 1 and not a perfect
    square; return (k, d).  Trial division stops at 2**16 and a perfect
    square left over is folded into k, so d is squarefree whenever the
    cofactor the trial division leaves is below 2**48."""
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    k, d = 1, 1
    m = n
    p = 2
    while p < 1 << 16 and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    return (k * r, d) if r * r == m else (k, d * m)


def quad_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integer or Fraction a, b: -1, 0 or +1."""
    sa = (a > 0) - (a < 0)
    if not b:
        return sa
    sb = 1 if b > 0 else -1
    if sa != -sb:  # a is 0 or has the sign of b
        return sb
    s = a * a - b * b * d  # opposite signs: |a| against |b|*sqrt(d)
    return sa if s > 0 else -sa if s < 0 else 0


def quad_floor(p: int, q: int, d: int, n: int) -> int:
    """Floor of (p + q*sqrt(d)) / n for integers, n > 0 and q**2 * d no square
    unless q == 0: (p + floor(q*sqrt(d))) // n, floor(q*sqrt(d)) being
    isqrt(q**2 * d) for q >= 0 and -isqrt(q**2 * d) - 1 for q < 0."""
    s = math.isqrt(q * q * d)
    return (p + (s if q >= 0 else -s - 1)) // n


@total_ordering
class QuadNum:
    """Element a + b*sqrt(d) of Q(sqrt(d)), immutable and hashable.

    The radicand d must be > 1 and not a perfect square when b != 0; it is
    stored as given, never factored.  When the sqrt coefficient vanishes the
    value is stored in a canonical rational form so that equal values always
    have equal representations; a, b are plain reduced Fractions, kept as given.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a=0, b=0, d: int = _RATIONAL_D):
        self._a = a if a.__class__ is Fraction else Fraction(a)
        self._b = b = b if b.__class__ is Fraction else Fraction(b)
        self._d = d if b else _RATIONAL_D

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._b

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            return other
        if isinstance(other, _Scalar):
            return QuadNum(other)
        return None

    def _join_d(self, other: QuadNum) -> int:
        if self._b and other._b and self._d != other._d:
            raise RadicandMismatch(f"sqrt({self._d}) vs sqrt({other._d})")
        return self._d if self._b else other._d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(self._a + o._a, self._b + o._b, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadNum(
            self._a * o._a + self._b * o._b * d,
            self._a * o._b + self._b * o._a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadNum:
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero quadratic number")
        return QuadNum(self._a / n, -self._b / n, self._d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._join_d(o)
        return self * o.inverse()

    def __pow__(self, n: int) -> QuadNum:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadNum(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QuadNum:
        return QuadNum(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a**2 - b**2 * d (multiplicative)."""
        return self._a * self._a - self._b * self._b * self._d

    # -- comparison ----------------------------------------------------------

    def compare(self, other) -> int:
        """Sign of self - other (-1, 0, +1): one quad_sign call on the part differences."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return quad_sign(self._a - o._a, self._b - o._b, self._join_d(o))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __lt__(self, other):
        return self.compare(other) < 0

    def __hash__(self):
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def numerators(self) -> tuple[int, int, int]:
        """Integers (p, q, n) with self = (p + q*sqrt(d)) / n, n > 0 the least."""
        a, b = self._a, self._b
        n = math.lcm(a.denominator, b.denominator)
        return a.numerator * (n // a.denominator), b.numerator * (n // b.denominator), n

    def floor(self) -> int:
        """Greatest integer <= self, decided exactly by quad_floor."""
        p, q, n = self.numerators()
        return quad_floor(p, q, self._d, n)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._b:
            return str(self._a)
        tail = f"{abs(self._b)}*sqrt({self._d})"
        if not self._a:
            return tail if self._b > 0 else "-" + tail
        op = "+" if self._b > 0 else "-"
        return f"{self._a} {op} {tail}"

    def __repr__(self):
        return f"QuadNum({self._a}, {self._b}, {self._d})"

    def __float__(self):
        return float(self._a) + float(self._b) * math.sqrt(self._d)

