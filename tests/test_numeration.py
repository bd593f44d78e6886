import pytest
from hypothesis import given, strategies as st

import oracles
from mahler import numeration
from mahler.numeration import (
    ZECKENDORF,
    Base,
    NumerationError,
    _canonical_fold,
    _word_sep,
    canonical,
    fib,
    floor_phi,
    format_word,
    has_adjacent_ones,
    pad,
    parse_word,
    phi,
    phi_iter,
    phi_preimage,
    preimages,
    value,
    word_alphabet,
)

BASE2 = Base(2)
BASE3 = Base(3)

# whole-table reproductions; phi appends a zero digit to the canonical
# expansion, so these pin the numeration itself
PHI_TABLE = (0, 2, 3, 5, 7, 8, 10, 11, 13, 15, 16, 18, 20, 21)
PHI2_PLUS_ONE = (1, 4, 6, 9, 12, 14, 17, 19, 22, 25, 27, 30, 33, 35)


def test_fib_table():
    assert [fib(i) for i in range(-2, 9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(NumerationError):
        fib(-3)


def test_kind_validation():
    with pytest.raises(NumerationError):
        Base(1)
    with pytest.raises(NumerationError):
        Base("2")
    assert word_alphabet(BASE3) == (0, 1, 2)
    assert word_alphabet(ZECKENDORF) == (0, 1)


def test_canonical_examples():
    assert canonical(0) == (0,)
    assert format_word(canonical(7)) == "1010"
    assert format_word(canonical(100, BASE2)) == "1100100"
    assert format_word(canonical(100, BASE3)) == "10201"
    with pytest.raises(NumerationError):
        canonical(-1)
    with pytest.raises(NumerationError):
        canonical(1.5)


def test_value_on_arbitrary_digits():
    assert value((1, -1, -1)) == 0  # 3 - 2 - 1
    assert value((1, 1)) == 3  # non-canonical, still defined
    assert value((0, 0, 1, 0, 1), BASE2) == 5
    assert value((), BASE2) == 0 and value(()) == 0


def test_phi_tables():
    assert tuple(phi(n) for n in range(14)) == PHI_TABLE
    assert tuple(phi_iter(n, 2) + 1 for n in range(14)) == PHI2_PLUS_ONE


def test_phi_iter_edges():
    assert phi_iter(5, 0) == 5
    assert phi_iter(1, 3) == phi(phi(phi(1)))
    with pytest.raises(NumerationError):
        phi_iter(1, -1)


def test_floor_formulas_against_decimal():
    for k in range(3000):
        assert floor_phi(k) == oracles.phi_floor(k)
        assert oracles.floor_phi2(k) == k + oracles.phi_floor(k)
    with pytest.raises(NumerationError):
        floor_phi(-1)


def test_phi_closed_forms():
    for n in range(3000):
        assert oracles.phi_via_floor(n) == phi(n)
        assert oracles.phi2_via_floor(n) == phi_iter(n, 2)


def test_phi_preimage():
    for n in range(300):
        assert phi_preimage(phi(n)) == n
        assert phi_preimage(phi_iter(n, 3), 3) == n
        assert phi_preimage(n, 0) == n
    assert phi_preimage(0, 7) == 0
    assert phi_preimage(1) is None  # canonical "1" has no trailing zero
    assert phi_preimage(4) is None  # "101"
    assert phi_preimage(3, 2) == 1  # "100" loses two zeros
    assert phi_preimage(2, 2) is None  # "10" is a single shift only
    with pytest.raises(NumerationError):
        phi_preimage(3, -1)


@given(st.sampled_from([BASE2, BASE3, ZECKENDORF]), st.integers(0, 1500),
       st.integers(0, 4))
def test_preimages_match_pointwise_queries(kind, N, i):
    pre = preimages(kind, N, (i,))[i]
    assert len(pre) == N + 1
    for m in range(N + 1):
        if isinstance(kind, Base):
            k, r = divmod(m, kind.q ** i)
            expected = k if r == 0 else -1
        else:
            k = phi_preimage(m, i)
            expected = -1 if k is None else k
        assert pre[m] == expected


@pytest.mark.parametrize("kind", [BASE2, BASE3, ZECKENDORF])
def test_preimages_past_the_top(kind):
    # once op^i(1) > N only 0 has a preimage; a huge i costs O(N)
    for N in (0, 1, 2, 7, 40):
        for i in range(12):
            pre = preimages(kind, N, (i,))[i]
            for m in range(N + 1):
                if isinstance(kind, Base):
                    k, r = divmod(m, kind.q ** i)
                    assert pre[m] == (k if r == 0 else -1)
                else:
                    k = phi_preimage(m, i)
                    assert pre[m] == (-1 if k is None else k)
        assert preimages(kind, N, (10**8,))[10**8] == [0] + [-1] * N
    assert preimages(kind, 10, (0,))[0] == list(range(11))


@pytest.mark.parametrize("kind", [BASE2, BASE3, ZECKENDORF])
def test_preimage_tables_compose_one_shift_table(kind, monkeypatch):
    N = 3000
    expected = {i: preimages(kind, N, (i,))[i] for i in range(6)}
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    # what a table could fall back on: the shift, a preimage query, an
    # expansion, the floor formula and its square root
    for name in ("phi", "phi_preimage", "canonical", "floor_phi", "isqrt"):
        monkeypatch.setattr(numeration, name, counted(name, getattr(numeration, name)))
    assert preimages(kind, N, [4, 0, 2, 5, 2, 1, 3]) == expected
    # the i = 1 table is filled once, not once per depth, and in
    # Zeckendorf from the Fibonacci word, without the floor formula
    assert calls == []
    assert preimages(kind, N, ()) == {}
    assert preimages(kind, 7, [1, 10**8])[10**8] == [0] + [-1] * 7


@pytest.mark.parametrize("N", [0, 1, 2, 3, 10**5])
def test_zeckendorf_shift_table_is_the_floor_formula(N):
    # the i = 1 table sums the gaps of the Fibonacci word; it must hold
    # every k at phi_via_floor(k) <= N and -1 everywhere else
    expected = [-1] * (N + 1)
    k = 0
    while (m := oracles.phi_via_floor(k)) <= N:
        expected[m] = k
        k += 1
    assert preimages(ZECKENDORF, N, (1,))[1] == expected


def test_preimages_validation():
    assert preimages(ZECKENDORF, 0, (3,))[3] == [0]
    with pytest.raises(NumerationError):
        preimages(ZECKENDORF, -1, (1,))
    with pytest.raises(NumerationError):
        preimages(BASE2, 5, (-1,))


def test_canonical_around_fibonacci_numbers():
    # F_k - 1, F_k and F_k + 1 are where the top digit and the digit
    # count change; compare with plain greedy subtraction
    for k in range(101):
        for n in (fib(k) - 1, fib(k), fib(k) + 1):
            w = canonical(n)
            assert format_word(w) == oracles.zeckendorf_greedy(n)
            assert value(w) == n
            assert set(w) <= {0, 1}


def test_pad():
    w = pad(canonical(4), 6)
    assert w == (0, 0, 0, 1, 0, 1)
    with pytest.raises(NumerationError):
        pad(canonical(4), 2)


def test_parse_and_format_word():
    assert format_word(parse_word("10100")) == "10100"
    assert parse_word("1,0,-1") == (1, 0, -1)
    assert format_word((1, 0, -1)) == "1,0,-1"
    assert parse_word("") == ()
    for bad in ("1x", "1 -1", "a", "-"):
        with pytest.raises(NumerationError):
            parse_word(bad)


def test_parse_word_refuses_digits_int_cannot_read():
    # "²" passes str.isdigit() but not int(); int() reads "1_0" as 10 and
    # other scripts' digits ("١" as 1), and a word takes neither
    for bad in ("²", "1²0", "1,²", "١٢", "١٠", "1١", "1_0,2", "1,٢", "٣,1", "1, 2_0", "١,-1"):
        with pytest.raises(NumerationError, match="bad digit word"):
            parse_word(bad)


def test_digit_word_alphabet_enforced():
    assert has_adjacent_ones((0, 1, 1))
    assert not has_adjacent_ones((1, 0, 1))


@given(st.integers(0, 100000), st.sampled_from([BASE2, BASE3, ZECKENDORF]))
def test_canonical_round_trip(n, kind):
    w = canonical(n, kind)
    assert value(w, kind) == n
    if n > 0:
        assert w[0] != 0


@given(st.integers(0, 100000))
def test_canonical_zeckendorf_is_greedy_and_clean(n):
    w = canonical(n)
    assert not has_adjacent_ones(w)
    assert format_word(w) == oracles.zeckendorf_greedy(n)


@st.composite
def binary_words(draw, max_len=14):
    return tuple(draw(st.lists(st.integers(0, 1), max_size=max_len)))


@given(binary_words(), st.integers(0, 1))
def test_append_digit_law(w, b):
    # for EVERY 0/1 word, canonical or not: [wb] = phi([w]) + b
    assert value(w + (b,)) == phi(value(w)) + b


@given(binary_words())
def test_canonical_of_value_strips_leading_zeros(w):
    cleaned = list(w)
    for i in range(1, len(cleaned)):
        if cleaned[i - 1] == 1 and cleaned[i] == 1:
            cleaned[i] = 0  # make it adjacent-ones-free
    n = value(tuple(cleaned))
    trimmed = tuple(cleaned[next(
        (i for i, d in enumerate(cleaned) if d), len(cleaned)):])
    assert canonical(n) == (trimmed if trimmed else (0,))


@pytest.mark.parametrize("kind", [ZECKENDORF, BASE2, BASE3, Base(10), Base(12)])
def test_canonical_walk_gives_every_word(kind):
    N = 10**5
    words = _canonical_fold(kind, N, (), lambda w, b: w + (b,))
    assert words == [canonical(n, kind) for n in range(N + 1)]
    # the text fold solve prints from: digits joined by commas above base 10
    sep = _word_sep(kind)
    texts = _canonical_fold(kind, N, "", lambda text, b: f"{text}{sep}{b}" if text else str(b))
    assert texts[::7] == [sep.join(map(str, w)) for w in words[::7]]


@pytest.mark.parametrize("kind", [ZECKENDORF, BASE2, Base(12), BASE3, Base(10)])
def test_canonical_walk_small_orders(kind):
    for N in range(14):
        assert _canonical_fold(kind, N, (), lambda w, b: w + (b,)) == [
            canonical(n, kind) for n in range(N + 1)]
    with pytest.raises(NumerationError, match="N >= 0"):
        _canonical_fold(kind, -1, (), lambda w, b: w + (b,))
