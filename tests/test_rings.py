import copy
import pickle
import reprlib
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from mahler.rings import (
    INTEGERS,
    RATIONALS,
    MixedRingError,
    ModRing,
    PrimeField,
    RingError,
    _PRIME_LIMIT,
    _is_prime,
    _quote,
    parse_ring,
)


def test_parse_ring_specs():
    assert parse_ring("Z") is INTEGERS
    assert parse_ring("Q") is RATIONALS
    assert parse_ring("Fp:7") == PrimeField(7)
    assert parse_ring("Zmod:6") == ModRing(6)
    assert parse_ring(" Z ") is INTEGERS


def test_ring_repr_names_the_spec():
    assert [repr(parse_ring(spec)) for spec in ("Z", "Q", "Zmod:6", "Fp:7")] == [
        "Ring(Z)", "Ring(Q)", "Ring(Zmod:6)", "Ring(Fp:7)"]


@pytest.mark.parametrize("bad", [
    "", "GF:2", "Fp:4", "Fp:1", "Fp:x", "Zmod:1", "Zmod:0", "Zmod:-3",
    "Zmod:x", "R",
])
def test_parse_ring_rejects(bad):
    with pytest.raises(RingError):
        parse_ring(bad)


def _trial_division_prime(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == \
        [n for n in range(20_000) if _trial_division_prime(n)]


def test_quote_names_an_int_past_the_str_limit_by_its_size():
    # repr() of an int past 4,300 digits raises ValueError; at any depth _quote does not
    big = 10**4999
    assert _quote(big) == "a 16607-bit number"
    assert _quote(-big) == "a negative 16607-bit number"
    assert _quote((1, (-big, "x"))) == "(1, (a negative 16607-bit number, 'x'))"
    assert _quote(2**13_998) == reprlib.repr(2**13_998)  # 13,999 bits: cut short


def test_large_moduli():
    # a Carmichael number, and strong pseudoprimes to the bases 2..7 and
    # to the bases 2..23
    for n in (561, 3_215_031_751, 3_825_123_056_546_413_051):
        assert not _is_prime(n)
        with pytest.raises(RingError, match="must be prime"):
            parse_ring(f"Fp:{n}")
    for p in (2 ** 61 - 1, 1_000_000_000_000_000_003):
        assert parse_ring(f"Fp:{p}").cardinality == p
    with pytest.raises(RingError, match=str(_PRIME_LIMIT)):
        parse_ring(f"Fp:{_PRIME_LIMIT}")


def test_ring_flags():
    assert not INTEGERS.is_field and INTEGERS.characteristic == 0
    assert INTEGERS.cardinality is None
    assert RATIONALS.is_field and RATIONALS.cardinality is None
    f5 = PrimeField(5)
    assert f5.is_field and f5.characteristic == 5 and f5.cardinality == 5
    z6 = ModRing(6)
    assert not z6.is_field and z6.characteristic == 6 and z6.cardinality == 6


def test_equality_is_by_spec():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != ModRing(5)
    assert hash(PrimeField(3)) == hash(PrimeField(3))


def test_element_and_parse():
    assert INTEGERS.element(-7).payload == -7
    assert INTEGERS.parse(" -7 ").payload == -7
    assert RATIONALS.parse("3/4").payload == Fraction(3, 4)
    assert str(RATIONALS.parse("3/4")) == "3/4"
    assert str(RATIONALS.parse("8/4")) == "2"
    assert ModRing(6).element(-1).payload == 5
    assert PrimeField(5).parse("7").payload == 2
    with pytest.raises(RingError):
        INTEGERS.parse("1/2")
    with pytest.raises(RingError):
        RATIONALS.parse("1/0")
    with pytest.raises(RingError):
        PrimeField(5).parse("two")


@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, ModRing(6)], ids=lambda r: r.spec)
def test_element_rejects_text(ring):
    with pytest.raises(RingError, match=f"^cannot make a {ring.spec} element from '3'$"):
        ring.element("3")


def test_value_operators_reject_plain_operands():
    with pytest.raises(TypeError, match="^expected RingValue, got int$"):
        INTEGERS.one + 1
    with pytest.raises(TypeError, match="^exponent must be an int$"):
        INTEGERS.one ** 0.5


def test_fraction_payloads_cross_rings():
    assert INTEGERS.element(Fraction(4, 2)).payload == 2
    with pytest.raises(RingError):
        INTEGERS.element(Fraction(1, 2))
    assert ModRing(5).element(Fraction(1, 2)).payload == 3
    with pytest.raises(RingError):
        ModRing(6).element(Fraction(1, 2))


def test_arithmetic_and_comparison():
    a = INTEGERS.element(6)
    b = INTEGERS.element(-2)
    assert (a + b).payload == 4
    assert (a - b).payload == 8
    assert (a * b).payload == -12
    assert (-a).payload == -6
    assert a ** 3 == INTEGERS.element(216)
    assert a ** 0 == INTEGERS.one
    assert bool(INTEGERS.zero) is False and bool(a) is True
    assert INTEGERS.one.is_one()


def test_division_and_inverse():
    f7 = PrimeField(7)
    x = f7.element(3)
    assert x.inverse() == f7.element(5)
    assert (f7.element(6) / f7.element(2)) == f7.element(3)
    assert f7.element(2) ** -2 == f7.element(4).inverse()
    with pytest.raises(ZeroDivisionError):
        f7.zero.inverse()
    with pytest.raises(RingError):
        INTEGERS.element(2).inverse()
    assert RATIONALS.element(Fraction(2, 3)).inverse().payload == Fraction(3, 2)


def test_mixed_ring_rejected():
    with pytest.raises(MixedRingError):
        INTEGERS.element(1) + PrimeField(5).element(1)
    with pytest.raises(MixedRingError):
        PrimeField(5).element(PrimeField(7).element(1))
    assert INTEGERS.element(2) != PrimeField(5).element(2)


def test_same_ring_fast_paths_and_foreign_ring_text():
    z6 = ModRing(6)
    v = z6.element(5)
    assert z6 == z6 and z6.element(v) is v
    assert ModRing(6).element(v) is v  # another object with the same spec
    with pytest.raises(MixedRingError, match=r"^value of Zmod:7 used where Zmod:6 expected$"):
        z6.element(ModRing(7).element(1))
    assert z6 != "Zmod:6"


def test_one_reduction_rule():
    assert ModRing(6)._reduce(-1) == 5 and PrimeField(7)._reduce(23) == 2
    assert INTEGERS._reduce(-12) == -12
    assert RATIONALS._reduce(Fraction(-3, 4)) == Fraction(-3, 4)


def test_values_immutable_and_hashable():
    v = INTEGERS.element(3)
    with pytest.raises(AttributeError):
        v.payload = 4
    assert len({v, INTEGERS.element(3), INTEGERS.element(4)}) == 2


@pytest.mark.parametrize("spec", ["Z", "Q", "Zmod:6", "Fp:5"])
def test_values_pickle_and_deep_copy(spec):
    ring = parse_ring(spec)
    for v in (ring.zero, ring.one, ring.parse("-7"), ring.parse("3") * ring.parse("4")):
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert back == v and back.ring == ring and type(back.payload) is type(v.payload)
    assert pickle.loads(pickle.dumps(ring.one)).is_one()
    assert not copy.deepcopy(ring.zero)
    # a ring comes back as parse_ring(spec): Z and Q as the shared objects
    for back in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
        assert back == ring and back.spec == spec
    assert (pickle.loads(pickle.dumps(ring.one)).ring is ring) == (spec in ("Z", "Q"))


def test_unpickled_values_share_the_integers_and_rationals():
    assert pickle.loads(pickle.dumps(INTEGERS.one)).ring is INTEGERS
    assert copy.deepcopy(RATIONALS.zero).ring is RATIONALS
    ring = ModRing(6)  # pickled once, so one ring comes back for both values
    values = pickle.loads(pickle.dumps([ring.one, ring.zero]))
    assert values[0].ring is values[1].ring == ring


_RINGS = [INTEGERS, RATIONALS, PrimeField(2), PrimeField(7), ModRing(12)]


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.sampled_from(_RINGS))
def test_ring_laws(x, y, z, ring):
    a, b, c = ring.element(x), ring.element(y), ring.element(z)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero == a
    assert a * ring.one == a
    assert a + (-a) == ring.zero
    assert a - b == a + (-b)


# each ring with the modulus that reduces its plain results by hand
_BY_HAND = [(INTEGERS, None), (RATIONALS, None), (ModRing(6), 6), (ModRing(12), 12),
            (PrimeField(2), 2), (PrimeField(7), 7)]


@given(st.sampled_from(_BY_HAND), st.integers(-10**20, 10**20), st.integers(-10**20, 10**20),
       st.integers(1, 10**6), st.integers(1, 10**6))
def test_value_operators_are_plain_arithmetic_reduced(case, x, y, dx, dy):
    ring, n = case
    if ring is RATIONALS:
        x, y = Fraction(x, dx), Fraction(y, dy)
    a, b = ring.element(x), ring.element(y)
    for got, plain in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)):
        want = plain if n is None else plain % n
        assert got.ring is ring
        assert got.payload == want and type(got.payload) is type(want)


@given(st.integers(-50, 50), st.sampled_from([RATIONALS, PrimeField(7)]))
def test_field_inverse_law(x, ring):
    a = ring.element(x)
    if a:
        assert a * a.inverse() == ring.one


@given(st.integers(-30, 30), st.integers(0, 8), st.sampled_from(_RINGS))
def test_pow_matches_repeated_product(x, e, ring):
    a = ring.element(x)
    out = ring.one
    for _ in range(e):
        out = out * a
    assert a ** e == out


def test_repr_and_str_round_trip():
    for ring in _RINGS:
        for x in (-3, 0, 1, 11):
            v = ring.element(x)
            assert ring.parse(str(v)) == v
    assert repr(PrimeField(5).element(3)) == "<Fp:5: 3>"


# int() alone also reads "1_0" as 10 and other scripts' digits ("١", Arabic-Indic
# one, as 1); a ring literal is ASCII decimal digits with an optional sign
NOT_DECIMAL = ("1_0", "١", "٣", "1_000", "-1_0", "1١", "+ 1", "--1", "1.0", "0x10", "²")


@pytest.mark.parametrize("text", NOT_DECIMAL)
@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, PrimeField(5), ModRing(6)],
                         ids=lambda r: r.spec)
def test_parse_takes_only_ascii_decimal_literals(ring, text):
    with pytest.raises(RingError, match=f"^bad {ring.spec} element "):
        ring.parse(text)


@pytest.mark.parametrize("text", ["1_0/3", "3/1_0", "١/2", "1/٢"])
def test_parse_takes_only_ascii_decimal_fractions(text):
    with pytest.raises(RingError, match="^bad Q element "):
        RATIONALS.parse(text)


@pytest.mark.parametrize("spec", ["Zmod:1_0", "Zmod:١٢", "Fp:1_1", "Fp:٧"])
def test_ring_specs_take_only_ascii_decimal_moduli(spec):
    with pytest.raises(RingError, match=r"^bad (modulus|prime) in "):
        parse_ring(spec)


def test_parse_keeps_signs_and_surrounding_whitespace():
    assert INTEGERS.parse(" \t+12\n").payload == 12
    assert INTEGERS.parse(" -12 ").payload == -12
    assert RATIONALS.parse(" -3/4 ").payload == Fraction(-3, 4)
    assert RATIONALS.parse("3/-4").payload == Fraction(-3, 4)
    assert PrimeField(5).parse("-1").payload == 4
    assert parse_ring(" Zmod: 12 ").spec == "Zmod:12"


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12),
       st.sampled_from([INTEGERS, RATIONALS, PrimeField(7), ModRing(12)]))
def test_every_written_literal_parses_back(a, b, ring):
    # the text of a value is what automaton_to_json and format_equation write
    x = ring.element(Fraction(a, b) if ring == RATIONALS else a)
    assert ring.parse(str(x)) == x


_P61 = PrimeField(2**61 - 1)


@given(st.sampled_from([INTEGERS, RATIONALS, ModRing(6), PrimeField(7), _P61]),
       st.integers(-10**30, 10**30), st.integers(1, 10**6))
def test_truth_is_nonzero(ring, a, b):
    # zeros made every way, negative fractions and residues near 2^61 among them
    values = [ring.parse(t) for t in ("0", "-0", "+0", str(a))]
    for x in (0, Fraction(0, b), a, -a, Fraction(a, b), Fraction(-a, b),
              2**61 - 1 + a, 2**61 - 2, ring.characteristic * a):
        try:
            values.append(ring.element(x))
        except RingError:  # a fraction whose denominator is no unit mod n
            pass
    values += [v - v for v in values] + [v * ring.zero for v in values]
    for v in values:
        assert bool(v) == (v != ring.zero)
    assert not ring.zero and ring.one
