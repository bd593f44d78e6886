"""Exact commutative-ring arithmetic underlying all automaton weights.

Rings on offer: the integers ``Z``, the rationals ``Q``, modular rings
``Zmod:n`` (n >= 2, composite allowed), and prime fields ``Fp:p``.  All
arithmetic is arbitrary precision and exact; nothing here ever touches a
float.  Values are immutable and remember their ring, so accidentally
mixing rings raises instead of silently coercing.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from math import gcd


def _quote(value) -> str:
    """repr(value) for an error message, cut short (strings to 30
    characters, arrays to 6 entries and 6 levels of nesting) so that
    hostile input cannot blow an error line up."""
    return reprlib.repr(value)


class RingError(ValueError):
    """Bad ring spec, bad element literal, or unsupported ring operation."""


class MixedRingError(RingError):
    """Operation between values of two different rings."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Ring:
    """A commutative ring; subclasses fix payload representation and ops.

    Payloads are plain ints (Z, Zmod, Fp) or Fractions (Q), always kept in
    canonical form: reduced fraction, least nonnegative residue.  The
    underscore methods work on payloads directly; evaluation loops use them
    to avoid wrapper overhead.
    """

    spec = "?"
    is_field = False
    characteristic = 0
    cardinality: int | None = None  # None means infinite

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Ring({self.spec})"

    # payload-level arithmetic, results canonical

    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise RingError(f"inverse needs a field, {self.spec} is not one")

    def _canon(self, x):
        raise NotImplementedError

    # element construction

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def _init_constants(self):
        self._zero = RingValue(self, self._canon(0))
        self._one = RingValue(self, self._canon(1))

    def element(self, x) -> "RingValue":
        """Wrap an int (or Fraction, or same-ring RingValue) as a value."""
        if isinstance(x, RingValue):
            if x.ring != self:
                raise MixedRingError(
                    f"value of {x.ring.spec} used where {self.spec} expected")
            return x
        return RingValue(self, self._canon(x))

    def parse(self, text: str) -> "RingValue":
        """Parse an element literal: signed decimal, `a/b` for rationals."""
        try:
            return self.element(self._parse_payload(text.strip()))
        except (ValueError, ZeroDivisionError):
            raise RingError(f"bad {self.spec} element {_quote(text)}") from None

    def _parse_payload(self, text):
        return int(text)

    def format(self, payload) -> str:
        return str(payload)


class RingValue:
    """An immutable ring element tagged with its ring."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("RingValue is immutable")

    def _same(self, other) -> "RingValue":
        if not isinstance(other, RingValue):
            raise TypeError(f"expected RingValue, got {type(other).__name__}")
        if other.ring != self.ring:
            raise MixedRingError(
                f"cannot combine {self.ring.spec} and {other.ring.spec} values")
        return other

    def __add__(self, other):
        other = self._same(other)
        return RingValue(self.ring, self.ring._add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._same(other)
        return RingValue(self.ring, self.ring._add(
            self.payload, self.ring._neg(other.payload)))

    def __mul__(self, other):
        other = self._same(other)
        return RingValue(self.ring, self.ring._mul(self.payload, other.payload))

    def __neg__(self):
        return RingValue(self.ring, self.ring._neg(self.payload))

    def __truediv__(self, other):
        other = self._same(other)
        return self * other.inverse()

    def inverse(self) -> "RingValue":
        if not self:
            raise ZeroDivisionError(f"inverse of zero in {self.ring.spec}")
        return RingValue(self.ring, self.ring._inv(self.payload))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ring.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, RingValue) and other.ring == self.ring
                and other.payload == self.payload)

    def __hash__(self):
        return hash((self.ring.spec, self.payload))

    def __bool__(self):
        return self.payload != self.ring._zero.payload

    def is_one(self) -> bool:
        return self.payload == self.ring._one.payload

    def __str__(self):
        return self.ring.format(self.payload)

    def __repr__(self):
        return f"<{self.ring.spec}: {self}>"


class IntegerRing(Ring):
    spec = "Z"

    def __init__(self):
        self._init_constants()

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _canon(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise RingError(f"{x} is not an integer")
            return x.numerator
        if not isinstance(x, int):
            raise RingError(f"cannot make a Z element from {_quote(x)}")
        return x


class RationalRing(Ring):
    spec = "Q"
    is_field = True

    def __init__(self):
        self._init_constants()

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def _canon(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingError(f"cannot make a Q element from {_quote(x)}")

    def _parse_payload(self, text):
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    def format(self, payload) -> str:
        if payload.denominator == 1:
            return str(payload.numerator)
        return f"{payload.numerator}/{payload.denominator}"


class ModRing(Ring):
    """Z/nZ with the least nonnegative residue as canonical form."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise RingError(f"modulus must be an integer >= 2, got {_quote(n)}")
        self.n = n
        self.spec = f"Zmod:{n}"
        self.characteristic = n
        self.cardinality = n
        self._init_constants()

    def _add(self, a, b):
        return (a + b) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def _canon(self, x):
        if isinstance(x, Fraction):
            if gcd(x.denominator, self.n) != 1:
                raise RingError(f"denominator of {x} is not a unit mod {self.n}")
            return (x.numerator * pow(x.denominator, -1, self.n)) % self.n
        if not isinstance(x, int):
            raise RingError(f"cannot make a {self.spec} element from {_quote(x)}")
        return x % self.n


class PrimeField(ModRing):
    """F_p; like Z/pZ but with division."""

    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingError(f"Fp modulus must be prime, got {_quote(p)}")
        super().__init__(p)
        self.spec = f"Fp:{p}"
        self._init_constants()

    def _inv(self, a):
        return pow(a, -1, self.n)


INTEGERS = IntegerRing()
RATIONALS = RationalRing()


def parse_ring(spec: str) -> Ring:
    """Ring from its literal: `Z`, `Q`, `Zmod:<n>`, `Fp:<p>`."""
    spec = spec.strip()
    if spec == "Z":
        return INTEGERS
    if spec == "Q":
        return RATIONALS
    if spec.startswith("Zmod:"):
        try:
            return ModRing(int(spec[5:]))
        except ValueError:
            raise RingError(f"bad modulus in {_quote(spec)}") from None
    if spec.startswith("Fp:"):
        try:
            return PrimeField(int(spec[3:]))
        except ValueError:
            raise RingError(f"bad prime in {_quote(spec)}") from None
    raise RingError(f"unknown ring spec {_quote(spec)}")


def ring_inverse(a: RingValue) -> RingValue:
    return a.inverse()
