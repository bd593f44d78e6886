"""Positional numeration systems: base q and Zeckendorf.

Conventions used throughout:

* A digit word is a plain tuple of ints, most significant digit first.
  Which digits are allowed is up to the machine that reads the word;
  ``canonical`` is the one expansion function, and its digits lie in
  ``word_alphabet(kind)``.
* Fibonacci numbers are indexed so that F_0 = 1, F_1 = 2, F_2 = 3, ...
  (with F_{-2} = 0 and F_{-1} = 1); the Zeckendorf value of a word
  b_{k-1} ... b_1 b_0 is sum b_i * F_i.
* The canonical Zeckendorf expansion is the greedy one; it never contains
  two adjacent ones, and canonical(0) is the single digit 0.

The shift map ``phi`` appends a zero digit to the Zeckendorf expansion.
It is defined here by digit manipulation.  Its closed forms with the
golden ratio, floor(phi (n + 1)) - 1 and the double shift's, belong to
the test suite, which checks phi against them; ``floor_phi``, exact by
an integer square root and never a float, stays here for the h~ bound
of the Zeckendorf construction.

Bulk paths do not call ``phi`` per index.  ``preimages(kind, N, depths)``
gives, for each i in depths, one O(N) table answering "which k has
op^i(k) = m?" for every m <= N (op is n -> q n in base q and phi in
Zeckendorf); the oracle, the residual, the relation search and
``_canonical_fold`` (every canonical word to N, in index order) all look
their preimages up there, and carry no value pairs.  The automaton
prefix walk in wfa.py is the one walk down the tree of canonical words.
The digit-level ``phi``, ``phi_iter`` and ``phi_preimage`` stay as the
independent witnesses the table is checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import Iterable, Sequence, Union

from .rings import _decimal, _quote


class NumerationError(ValueError):
    """Bad digits, malformed word text, or an out-of-domain argument."""


@dataclass(frozen=True)
class Base:
    """Base-q positional numeration, q >= 2."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise NumerationError(f"base must be an integer >= 2, got {_quote(self.q)}")


@dataclass(frozen=True)
class Zeckendorf:
    """Fibonacci (Zeckendorf) numeration."""


ZECKENDORF = Zeckendorf()
NumerationKind = Union[Base, Zeckendorf]


_fib_cache = [0, 1]  # _fib_cache[i + 2] == F_i


def fib(i: int) -> int:
    """F_i with F_{-2} = 0, F_{-1} = 1, F_0 = 1, F_1 = 2, F_2 = 3, ..."""
    if i < -2:
        raise NumerationError(f"Fibonacci index out of range: {i}")
    while len(_fib_cache) < i + 3:
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    return _fib_cache[i + 2]


Digits = Union[str, Sequence[int]]


def as_digits(w: Digits) -> tuple[int, ...]:
    """Word text through ``parse_word``, any other sequence as a tuple."""
    return parse_word(w) if isinstance(w, str) else tuple(w)


def format_word(digits: Iterable[int]) -> str:
    """Concatenated digits when they all lie in 0..9, else comma-separated."""
    digits = tuple(digits)
    if all(0 <= d <= 9 for d in digits):
        return "".join(str(d) for d in digits)
    return ",".join(str(d) for d in digits)


def _word_sep(kind: NumerationKind) -> str:
    """What joins the digits of a canonical word in printed text: nothing,
    or a comma in a base above 10, where one digit may print as two."""
    return "," if isinstance(kind, Base) and kind.q > 10 else ""


def parse_word(text: str) -> tuple[int, ...]:
    """Digits of a word text: comma-separated, else one per character, so
    "10" is (1, 0) although format_word writes the word (10,) as "10".
    Every digit is ASCII decimal: int() alone also reads "1_0" as 10 and
    other scripts' digits ("١" as 1)."""
    text = text.strip()
    if text == "":
        return ()
    if "," in text or "-" in text:
        try:
            return tuple(_decimal(part) for part in text.split(","))
        except ValueError:
            raise NumerationError(f"bad digit word {_quote(text)}") from None
    if not (text.isascii() and text.isdecimal()):
        raise NumerationError(f"bad digit word {_quote(text)}")
    return tuple(int(ch) for ch in text)


def word_alphabet(kind: NumerationKind) -> tuple[int, ...]:
    """Digit alphabet of canonical expansions for the given numeration."""
    if isinstance(kind, Base):
        return tuple(range(kind.q))
    return (0, 1)


def canonical(n: int, kind: NumerationKind = ZECKENDORF) -> tuple[int, ...]:
    """Canonical expansion of n >= 0; the single digit 0 for n = 0."""
    if not isinstance(n, int) or n < 0:
        raise NumerationError(f"canonical expansion needs n >= 0, got {_quote(n)}")
    if n == 0:
        return (0,)
    if isinstance(kind, Base):
        digits = []
        while n:
            n, d = divmod(n, kind.q)
            digits.append(d)
        return tuple(reversed(digits))
    cache = _fib_cache
    while cache[-1] <= n:
        cache.append(cache[-1] + cache[-2])
    # cache[top] is the largest Fibonacci number <= n; the greedy digits
    # run from there down to F_0 = cache[2].
    top = bisect_right(cache, n) - 1
    digits = []
    for f in cache[top:1:-1]:
        if f <= n:
            digits.append(1)
            n -= f
        else:
            digits.append(0)
    return tuple(digits)


def _canonical_fold(kind: NumerationKind, N: int, start, extend) -> list:
    """out[n] = extend folded over canonical(n, kind) from start, n = 0..N.

    Index order, so each word costs one extend(shorter word's result,
    digit) instead of an expansion of its own: extend(w, b) with w = (),
    and canonical(n) is read back; with w = "" and str(b) appended, its
    text.  start stands for the empty word.  Both numerations follow one
    rule on the one i = 1 preimage table: canonical(n) is canonical(k)
    followed by the digit n - op(k), for the largest op(k) <= n, with
    the empty word for k = 0.  In base q that is n // q and n % q; in
    Zeckendorf the gaps of phi are 1 or 2, so the digit is 0 or 1.
    """
    out = [None] * (N + 1)
    w, m = start, 0  # out[k] (start for k = 0) for the largest op(k) = m <= n
    for n, k in enumerate(preimages(kind, N, (1,))[1]):
        if k > 0:
            w, m = out[k], n
        out[n] = extend(w, n - m)
    return out


def value(w: Digits, kind: NumerationKind = ZECKENDORF) -> int:
    """Numerical value of a digit word (any digits, not only canonical)."""
    digits = as_digits(w)
    if isinstance(kind, Base):
        out = 0
        for d in digits:
            out = out * kind.q + d
        return out
    k = len(digits)
    return sum(d * fib(k - 1 - pos) for pos, d in enumerate(digits))


def has_adjacent_ones(w: Digits) -> bool:
    digits = as_digits(w)
    return any(a == 1 and b == 1 for a, b in zip(digits, digits[1:]))


def pad(w: Digits, length: int) -> tuple[int, ...]:
    """Left-pad with zeros to the requested length."""
    digits = as_digits(w)
    if len(digits) > length:
        raise NumerationError(f"word of length {len(digits)} does not fit in {length}")
    return (0,) * (length - len(digits)) + digits


# The Zeckendorf shift and its companions.  phi appends a zero digit; it
# is strictly increasing, and value(w + (b,)) == phi(value(w)) + b for
# every 0/1 word w, canonical or not.

def phi(n: int) -> int:
    """Shift: value of the canonical expansion of n with a 0 appended."""
    return value(canonical(n, ZECKENDORF) + (0,), ZECKENDORF)


def phi_iter(n: int, i: int) -> int:
    """i-fold application of phi, i >= 0."""
    if i < 0:
        raise NumerationError(f"phi_iter needs i >= 0, got {i}")
    for _ in range(i):
        n = phi(n)
    return n


def phi_preimage(m: int, i: int = 1) -> int | None:
    """The k with phi^i(k) = m, or None when m is not an i-fold shift."""
    if i < 0:
        raise NumerationError(f"phi_preimage needs i >= 0, got {i}")
    if i == 0:
        return m
    if m == 0:
        return 0
    w = canonical(m, ZECKENDORF)
    if len(w) <= i or any(d != 0 for d in w[-i:]):
        return None
    k = value(w[:-i], ZECKENDORF)
    return k if phi_iter(k, i) == m else None


# The exact golden-ratio floor.  floor(k * phi) for k >= 0 equals
# (k + isqrt(5 k^2)) // 2 because 5 k^2 is never a perfect square for
# k >= 1, so isqrt(5 k^2) = floor(k * sqrt(5)) exactly.

def floor_phi(k: int) -> int:
    """floor(k * (1 + sqrt 5)/2), computed exactly."""
    if k < 0:
        raise NumerationError(f"floor_phi needs k >= 0, got {k}")
    return (k + isqrt(5 * k * k)) // 2


# Preimage tables.  op (n -> q n, or phi) is strictly increasing with
# op(0) = 0, so each m has at most one preimage under op^i, and it is <= m.

def preimages(kind: NumerationKind, N: int, depths: Iterable[int]) -> dict:
    """{i: pre} for every i in depths, where pre[m] is the k with
    op^i(k) = m, or -1 when there is none; m = 0..N.

    op is n -> q n in base q and the shift phi in Zeckendorf.  One O(N)
    table stands in for a phi_preimage / divmod query per index.  The
    i = 1 table is made once: base q strides through the multiples of
    q; Zeckendorf fills it forward while phi(k) <= N, summing the gaps
    phi(k + 1) - phi(k) = floor((k + 2) phi) - floor((k + 1) phi), which
    spell the Fibonacci word 2122121221... (the Beatty sequence of the
    golden ratio), so no square root is taken.  Each deeper table
    composes it with the one above; depth 0 is made only when asked for.
    Once op^i(1) > N only 0 has a preimage, and every deeper table is
    that one, so a huge i costs no more than a small one.
    """
    depths = set(depths)
    if N < 0 or min(depths, default=0) < 0:
        raise NumerationError(
            f"preimages needs N >= 0 and i >= 0, got N = {N}, i = {min(depths, default=0)}")
    one = [-1] * (N + 1)
    if isinstance(kind, Base):
        one[::kind.q] = range(N // kind.q + 1)
    else:
        # phi(k + 1) - phi(k) is letter k of the Fibonacci word over {2, 1}
        gaps, prev = [2, 1], [2]
        while len(gaps) <= N:
            gaps, prev = gaps + prev, gaps
        for k, m in enumerate(accumulate(gaps, initial=0)):
            if m > N:
                break
            one[m] = k
    tables = {0: list(range(N + 1))} if 0 in depths else {}
    pre = one
    for i in range(1, max(depths, default=0) + 1):
        if i > 1:
            pre = [one[m] if m >= 0 else -1 for m in pre]
        if i in depths:
            tables[i] = pre
        if pre.count(-1) == N:  # only 0 has a preimage, at this depth and below
            tables.update((j, pre) for j in depths if j > i)
            break
    return tables
