"""Exact commutative-ring arithmetic underlying all automaton weights.

Rings on offer: the integers ``Z``, the rationals ``Q``, modular rings
``Zmod:n`` (n >= 2, composite allowed), and prime fields ``Fp:p``.  All
arithmetic is arbitrary precision and exact; nothing here ever touches a
float.  Values are immutable and remember their ring, so accidentally
mixing rings raises instead of silently coercing.  There is one
arithmetic rule: native ``+``, ``-``, ``*`` on the payloads, then
``Ring._reduce`` (mod n over Zmod:n and Fp:p, nothing over Z and Q).
SeriesPrefix is the one type of a sequence prefix f_0..f_N, read from an
equation or from an automaton: a ring and a tuple of payloads.
"""

from __future__ import annotations

import re
import reprlib
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm


class _Quoter(reprlib.Repr):
    """repr(value) for an error message, cut short (strings to 30
    characters, arrays to 6 entries and 6 levels of nesting, an int of
    14,000 bits or more named by its size: repr() raises past 4,300
    digits) so that hostile input cannot blow an error line up."""

    def repr_int(self, x, level):
        if x.bit_length() < 14_000:
            return super().repr_int(x, level)
        return f"a {'negative ' if x < 0 else ''}{x.bit_length()}-bit number"


_quote = _Quoter().repr  # the one value quoter of every error line


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """The int of a signed ASCII decimal, surrounding whitespace allowed.
    int() alone also reads "1_0" as 10 and other scripts' digits ("١" as
    1); those raise ValueError here."""
    text = text.strip()
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {_quote(text)}")
    return int(text)


def _integral(xs) -> tuple[int, list]:
    """(d, [d x for x in xs]), d the lcm of the denominators of xs: Q's one
    integer-scaling rule (the walk's image, the oracle, find_relation's prefix)."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


class RingError(ValueError):
    """Bad ring spec, bad element literal, or unsupported ring operation."""


class MixedRingError(RingError):
    """Operation between values of two different rings."""


# Miller-Rabin with the twelve prime bases 2..37 is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n below _PRIME_LIMIT."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """A commutative ring; subclasses fix payload representation.

    Payloads are plain ints (Z, Zmod, Fp) or Fractions (Q), always kept in
    canonical form: reduced fraction, least nonnegative residue.  All
    arithmetic follows one rule: native ``+``, ``-`` and ``*`` on the
    payloads, then ``_reduce`` back to canonical form -- mod n over Zmod:n
    and Fp:p, nothing over Z and Q.  The value operators apply it per
    operation; the oracle and every evaluation loop sum many products
    natively and reduce each finished entry once.  A ring class keeps only
    what differs: ``_canon`` (payload from an int or Fraction),
    ``_reduce``, ``_inv``, parsing, formatting and the flags below.
    """

    spec = "?"
    is_field = False
    characteristic = 0
    cardinality: int | None = None  # None means infinite

    def __init__(self):
        self.zero = RingValue(self, self._canon(0))
        self.one = RingValue(self, self._canon(1))

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.spec == other.spec)

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Ring({self.spec})"

    def __reduce__(self):  # pickle and copy give back the ring parse_ring makes
        return parse_ring, (self.spec,)

    def _inv(self, a):
        raise RingError(f"inverse needs a field, {self.spec} is not one")

    def _reduce(self, x):
        return x

    def element(self, x) -> "RingValue":
        """Wrap an int (or Fraction, or same-ring RingValue) as a value."""
        if isinstance(x, RingValue):
            if x.ring is not self and x.ring != self:
                raise MixedRingError(
                    f"value of {x.ring.spec} used where {self.spec} expected")
            return x
        return RingValue(self, self._canon(x))

    def parse(self, text: str) -> "RingValue":
        """Parse an element literal: signed ASCII decimal, `a/b` for
        rationals; anything else raises RingError."""
        try:
            return self.element(self._parse_payload(text.strip()))
        except (ValueError, ZeroDivisionError):
            raise RingError(f"bad {self.spec} element {_quote(text)}") from None

    def _parse_payload(self, text):
        return _decimal(text)

    def format(self, payload) -> str:
        return str(payload)


class RingValue:
    """An immutable ring element tagged with its ring."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        _set_ring(self, ring)  # the slots' own setters: __setattr__ refuses
        _set_payload(self, payload)

    def __setattr__(self, name, value):
        raise AttributeError("RingValue is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not __setattr__
        return RingValue, (self.ring, self.payload)

    def _same(self, other) -> "RingValue":
        if not isinstance(other, RingValue):
            raise TypeError(f"expected RingValue, got {type(other).__name__}")
        if other.ring != self.ring:
            raise MixedRingError(
                f"cannot combine {self.ring.spec} and {other.ring.spec} values")
        return other

    def __add__(self, other):
        r = self.ring
        return RingValue(r, r._reduce(self.payload + self._same(other).payload))

    def __sub__(self, other):
        r = self.ring
        return RingValue(r, r._reduce(self.payload - self._same(other).payload))

    def __mul__(self, other):
        r = self.ring
        return RingValue(r, r._reduce(self.payload * self._same(other).payload))

    def __neg__(self):
        r = self.ring
        return RingValue(r, r._reduce(-self.payload))

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

    def __bool__(self):  # the canonical zero payloads are 0 and Fraction(0)
        return bool(self.payload)

    def is_one(self) -> bool:
        return self.payload == self.ring.one.payload

    def __str__(self):
        return self.ring.format(self.payload)

    def __repr__(self):
        return f"<{self.ring.spec}: {self}>"


_set_ring, _set_payload = RingValue.ring.__set__, RingValue.payload.__set__


def _memo(make: Callable, zero) -> Callable:
    """key -> make(key), made on first use and kept, and 0 -> zero: an
    equal key gives the same object back for one dict lookup."""
    made = {0: zero}
    get = made.get

    def memo(key):
        out = get(key)
        if out is None:  # inline: a dict's __missing__ would add about 150 ns per miss
            out = made[key] = make(key)
        return out
    return memo


@dataclass(frozen=True, init=False, repr=False)
class SeriesPrefix:
    """Truncated power series: coefficients f_0 .. f_N in one ring.

    It holds its ring and the tuple of reduced payloads; reading makes
    the values: indexing one, iterating one per distinct payload (_memo)
    and ring.zero for a zero.  A caller's coefficients go through
    ring.element; the oracle and the walk hand their payloads over
    unchecked (_series).  Equality compares ring and payloads; the hash
    is that of (ring, coeffs).
    """

    ring: Ring
    payloads: tuple

    def __init__(self, ring: Ring, coeffs):
        payloads = tuple(ring.element(c).payload for c in coeffs)
        if not payloads:
            raise RingError("a series prefix holds at least f_0")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payloads", payloads)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ring values."""
        return tuple(self)

    @property
    def order(self) -> int:
        """The truncation order N."""
        return len(self.payloads) - 1

    def is_zero(self) -> bool:
        return not any(self.payloads)

    def __len__(self):
        return len(self.payloads)

    def __iter__(self):
        return map(_memo(partial(RingValue, self.ring), self.ring.zero), self.payloads)

    def __getitem__(self, n):
        if isinstance(n, slice):
            ring = self.ring
            return tuple(RingValue(ring, p) for p in self.payloads[n])
        return RingValue(self.ring, self.payloads[n])

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        head = ", ".join(map(self.ring.format, self.payloads[:8]))
        tail = ", ..." if len(self.payloads) > 8 else ""
        return f"<SeriesPrefix over {self.ring.spec} to order {self.order}: {head}{tail}>"


def _series(ring: Ring, payloads) -> SeriesPrefix:
    """A SeriesPrefix on payloads already reduced in ring; no check."""
    s = object.__new__(SeriesPrefix)
    object.__setattr__(s, "ring", ring)
    object.__setattr__(s, "payloads", tuple(payloads))
    return s


class IntegerRing(Ring):
    spec = "Z"

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

    def _inv(self, a):
        return 1 / a

    def _canon(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingError(f"cannot make a Q element from {_quote(x)}")

    def _parse_payload(self, text):
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(_decimal(num), _decimal(den))
        return Fraction(_decimal(text))

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
        super().__init__()

    def _reduce(self, x):
        return x % self.n

    def _canon(self, x):
        if isinstance(x, Fraction):
            if gcd(x.denominator, self.n) != 1:
                raise RingError(f"denominator of {x} is not a unit mod {self.n}")
            x = x.numerator * pow(x.denominator, -1, self.n)
        elif not isinstance(x, int):
            raise RingError(f"cannot make a {self.spec} element from {_quote(x)}")
        return self._reduce(x)


class PrimeField(ModRing):
    """F_p; like Z/pZ but with division."""

    is_field = True

    def __init__(self, p: int):
        if p >= _PRIME_LIMIT:
            raise RingError(f"Fp modulus must be below {_PRIME_LIMIT}, got {_quote(p)}")
        if not _is_prime(p):
            raise RingError(f"Fp modulus must be prime, got {_quote(p)}")
        super().__init__(p)
        self.spec = f"Fp:{p}"

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
            return ModRing(_decimal(spec[5:]))
        except ValueError:
            raise RingError(f"bad modulus in {_quote(spec)}") from None
    if spec.startswith("Fp:"):
        try:
            p = _decimal(spec[3:])
        except ValueError:
            raise RingError(f"bad prime in {_quote(spec)}") from None
        return PrimeField(p)
    raise RingError(f"unknown ring spec {_quote(spec)}")

