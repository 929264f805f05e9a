"""Exact scalars: arbitrary-precision rationals and one real quadratic extension.

Rationals are plain ``fractions.Fraction`` values (canonical reduced form,
positive denominator, structural equality), so every classification decision
downstream is bit-reproducible.  ``QuadExt`` adjoins a single square root
``sqrt(d)`` for a square-free ``d >= 2``; this is the only irrationality the
library ever needs (irrational translation parts of affine maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from ..errors import MixedFieldError

Scalar = Union[int, Fraction, "QuadExt"]


def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    # its own loop, not prime_support: it stops at the first square factor
    p = 2
    n = d
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


@dataclass(frozen=True)
class QuadExt:
    """Element ``a + b*sqrt(d)`` of the real quadratic field Q(sqrt(d)).

    ``d`` is fixed per computation context; combining elements tagged with
    different fields raises :class:`MixedFieldError` unless one side is
    rational (``b == 0``), in which case it is lifted into the other field.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d < 2 or not is_square_free(self.d):
            raise ValueError(f"d must be a square-free integer >= 2, got {self.d}")

    @classmethod
    def sqrt(cls, d: int) -> "QuadExt":
        return cls(Fraction(0), Fraction(1), d)

    @classmethod
    def rational(cls, x, d: int) -> "QuadExt":
        return cls(Fraction(x), Fraction(0), d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        # a^2 - d*b^2; zero only for the zero element since sqrt(d) is irrational
        return self.a * self.a - self.d * self.b * self.b

    def _join(self, other) -> tuple[Fraction, Fraction, int]:
        """Return (a, b, d) of `other` lifted into a field compatible with self."""
        if isinstance(other, QuadExt):
            if other.d == self.d or other.b == 0:
                return other.a, other.b, self.d if other.b == 0 else other.d
            if self.b == 0:
                return other.a, other.b, other.d
            raise MixedFieldError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0), self.d
        return NotImplemented

    def __add__(self, other):
        j = self._join(other)
        if j is NotImplemented:
            return NotImplemented
        oa, ob, d = j
        return QuadExt(self.a + oa, self.b + ob, d if self.b == 0 else self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        r = self.__add__(-other if isinstance(other, QuadExt) else -Fraction(other))
        return r

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        j = self._join(other)
        if j is NotImplemented:
            return NotImplemented
        oa, ob, d = j
        d = self.d if self.b != 0 else d
        return QuadExt(
            self.a * oa + d * self.b * ob,
            self.a * ob + self.b * oa,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return QuadExt(self.a / other, self.b / other, self.d)
        if isinstance(other, QuadExt):
            n = other.norm()
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return (self * other.conjugate()) / n
        return NotImplemented

    def __rtruediv__(self, other):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return (self.conjugate() * other) / n

    def __pow__(self, k: int):
        if k < 0:
            return 1 / (self ** (-k))
        out = QuadExt.rational(1, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def quad_parts(x: Scalar) -> tuple[Fraction, Fraction]:
    """Split a scalar into (rational part, coefficient of sqrt(d))."""
    if isinstance(x, QuadExt):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def scalar_is_rational(x: Scalar) -> bool:
    return not isinstance(x, QuadExt) or x.b == 0


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, QuadExt):
        return x.as_fraction()
    return Fraction(x)


def is_integral(x: Scalar) -> bool:
    """True iff the scalar is a rational integer."""
    if isinstance(x, QuadExt):
        return x.b == 0 and x.a.denominator == 1
    return Fraction(x).denominator == 1


def parse_integer(x) -> int:
    """An integer given exactly: 2, "2" and 2.0 parse; 2.5 raises ValueError."""
    value = Fraction(str(x))
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(value)


def parse_scalar(text) -> Scalar:
    """Parse "p/q" strings or {"a": "p/q", "b": "p/q", "d": int} objects."""
    if isinstance(text, dict):
        return QuadExt(
            Fraction(str(text["a"])), Fraction(str(text["b"])), parse_integer(text["d"])
        )
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def denominator_lcm(values) -> int:
    """lcm of the denominators of a sequence of rationals."""
    # a list, not a generator: lcm(*generator) builds its argument tuple by
    # resizing, which leaves one block per call in CPython's tuple free list
    return lcm(*[as_fraction(v).denominator for v in values])


def prime_support(n: int) -> frozenset[int]:
    """Set of primes dividing |n| (empty for 0 and +-1)."""
    n = abs(int(n))
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return frozenset(out)
