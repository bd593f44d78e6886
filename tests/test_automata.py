from itertools import product

import pytest

import oracles
from conftest import ints
from mahler.automata import (
    addition_automaton,
    addition_automaton_base,
    addition_automaton_zeckendorf,
    all_ones_automaton,
    constant_recognizer,
    count_ones_automaton,
    defect_automaton,
    defect_automaton_constructed,
    fibonacci_representation_automaton,
    polynomial_automaton,
    shift_regular,
    zero_recognizer,
)
from mahler.numeration import ZECKENDORF, Base, canonical, pad, value
from mahler.rings import INTEGERS, PrimeField
from mahler.wfa import (
    AutomatonError,
    MissingTransitionError,
    WeightedAutomaton,
    count_accepted_path_pairs,
    count_accepted_paths,
    eval_sequence,
    is_unambiguous,
    same_structure,
    sequence_prefix,
    weight,
)

BASE2 = Base(2)


def all_words(alphabet, max_len):
    for L in range(max_len + 1):
        yield from product(alphabet, repeat=L)


# --- value recognizers ----------------------------------------------------

def test_zero_recognizer_examples():
    D = zero_recognizer((-1, 0, 1))
    assert D.run((1, -1, -1)) is True  # 3 - 2 - 1
    assert D.run((1,)) is False
    assert D.run(()) is True


@pytest.mark.parametrize("alphabet,c", [
    ((-1, 0, 1), 0),
    ((-1, 0, 1, 2), 0),
    ((0, 1), 2),
    ((-1, 0, 1), 1),
])
def test_recognizers_exhaustive(alphabet, c):
    D = constant_recognizer(alphabet, c)
    for w in all_words(alphabet, 8):
        assert D.run(w) is (oracles.fib_word_value(w) == c), w


def test_recognizer_is_total_with_dead_state():
    D = zero_recognizer((-1, 0, 1))
    assert "dead" in D.states
    for s in range(len(D.states)):
        for d in D.alphabet:
            D.step(s, d)  # no missing edges anywhere


def test_recognizer_repeatable_and_validated():
    # the state exploration is cached; the wrapper is rebuilt per call
    # (identity equality) but structurally identical
    a = zero_recognizer((-1, 0, 1))
    b = zero_recognizer([1, 0, -1])
    assert (a.alphabet, a.states, a.initial, a.outputs) == \
        (b.alphabet, b.states, b.initial, b.outputs)
    assert dict(a.transitions) == dict(b.transitions)
    with pytest.raises(AutomatonError):
        constant_recognizer((), 0)


# --- the shift-defect machine ---------------------------------------------

def test_defect_fixed_examples():
    D = defect_automaton()
    assert len(D.states) == 5
    assert D.run((1, -1)) == -1
    assert D.run((1, 0, -1)) == 0
    assert D.run(()) == 0
    with pytest.raises(MissingTransitionError):
        D.run((-1,))  # q0 deliberately lacks this edge


def test_defect_contract_small():
    D = defect_automaton()
    C = defect_automaton_constructed()
    for m in range(120):
        for n in range(m + 1):
            w = oracles.diff_word(m, n)
            want = oracles.delta_ref(m - n, n)
            assert D.run(w) == want, (m, n)
            assert C.run(w) == want, (m, n)


def test_defect_constructed_is_total_and_partitioned():
    C = defect_automaton_constructed()
    for s in range(len(C.states)):
        for d in C.alphabet:
            C.step(s, d)
    assert set(C.outputs) <= {-1, 0, 1, None}


# --- addition automata ----------------------------------------------------

def triple_word(a, b, c, kind, extra=0):
    """Stack the canonical expansions of a, b, c into digit triples,
    left-padded to the length of the longest plus `extra`."""
    wa, wb, wc = (canonical(x, kind).digits for x in (a, b, c))
    L = max(len(wa), len(wb), len(wc)) + extra
    wa, wb, wc = (pad(w, L).digits for w in (wa, wb, wc))
    return tuple(zip(wa, wb, wc))


def test_base2_hardcoded_equals_generic():
    # the two-state base-2 carry machine written out by hand: state "1"
    # means the columns read so far leave u + v - w = -1
    one = INTEGERS.one
    fixed = WeightedAutomaton(
        ring=INTEGERS,
        alphabet=tuple(product((0, 1), repeat=3)),
        states=("0", "1"),
        initial=(one, INTEGERS.zero),
        final=(one, INTEGERS.zero),
        transitions={
            (0, (0, 0, 0), 0): one,
            (0, (1, 0, 1), 0): one,
            (0, (0, 1, 1), 0): one,
            (0, (0, 0, 1), 1): one,
            (1, (1, 0, 0), 1): one,
            (1, (0, 1, 0), 1): one,
            (1, (1, 1, 1), 1): one,
            (1, (1, 1, 0), 0): one,
        },
    )
    assert same_structure(fixed, addition_automaton_base(2).automaton)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_addition_base_q(q):
    add = addition_automaton_base(q).automaton
    kind = Base(q)
    for a in range(18):
        for b in range(18):
            for c in (a + b, a + b + 1, max(a + b - 1, 0)):
                w = triple_word(a, b, c, kind)
                expect = 1 if a + b == c else 0
                assert weight(add, w).payload == expect, (a, b, c)
                if a + b == c:
                    assert weight(add, triple_word(a, b, c, kind, 2)).payload == 1


def test_addition_base_validation():
    with pytest.raises(AutomatonError):
        addition_automaton_base(1)


def test_addition_zeckendorf():
    add = addition_automaton_zeckendorf().automaton
    for a in range(25):
        for b in range(25):
            for c in (a + b, a + b + 1, max(a + b - 1, 0)):
                w = triple_word(a, b, c, ZECKENDORF)
                expect = 1 if a + b == c else 0
                assert weight(add, w).payload == expect, (a, b, c)
    # padding invariance on the diagonal
    assert weight(add, triple_word(4, 3, 7, ZECKENDORF, 3)).payload == 1


def test_addition_zeckendorf_unambiguous_to_14():
    A = addition_automaton_zeckendorf().automaton
    assert is_unambiguous(A, 14)


# The path totals behind each adder's UnambiguousAutomaton check, to
# L = 10: the path counts equal the squared counts, length by length.
@pytest.mark.parametrize("make, counts", [
    (lambda: addition_automaton_base(2),
     [1, 3, 10, 36, 136, 528, 2080, 8256, 32896, 131328, 524800]),
    (lambda: addition_automaton_base(3),
     [1, 6, 45, 378, 3321, 29646, 266085, 2392578, 21526641, 193720086, 1743421725]),
    (addition_automaton_zeckendorf,
     [1, 3, 6, 15, 36, 91, 231, 595, 1540, 4005, 10440]),
], ids=["base2", "base3", "zeckendorf"])
def test_adder_path_counts_pinned(make, counts):
    add = make().automaton
    assert count_accepted_paths(add, 10) == counts
    assert count_accepted_path_pairs(add, 10) == counts


def test_addition_dispatcher():
    assert addition_automaton(BASE2) is addition_automaton_base(2)
    z = addition_automaton(ZECKENDORF)
    assert all(len(lab) == 3 for lab in z.alphabet)


# --- series automata -------------------------------------------------------

@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF])
def test_polynomial_automaton(kind):
    A = polynomial_automaton((1, 0, 2, 5), kind, INTEGERS)
    got = ints(sequence_prefix(A, kind, 12))
    assert got == [1, 0, 2, 5] + [0] * 9
    # leading zeros in the input word change nothing
    w = (0, 0) + canonical(2, kind).digits
    assert weight(A, w).payload == 2


def test_polynomial_automaton_zero():
    A = polynomial_automaton((), ZECKENDORF, INTEGERS)
    assert ints(sequence_prefix(A, ZECKENDORF, 6)) == [0] * 7
    B = polynomial_automaton((0, 0), BASE2, INTEGERS)
    assert ints(sequence_prefix(B, BASE2, 6)) == [0] * 7


def test_shift_regular():
    G = fibonacci_representation_automaton()
    base = ints(sequence_prefix(G, ZECKENDORF, 130))
    for j in range(5):
        S = shift_regular(G, j)
        got = ints(sequence_prefix(S, ZECKENDORF, 120))
        assert got == [0] * j + base[:121 - j], j


def test_count_ones_both_readings():
    A = count_ones_automaton(INTEGERS)
    for n in range(200):
        assert eval_sequence(A, BASE2, n).payload == oracles.digit_ones(n)
        assert eval_sequence(A, ZECKENDORF, n).payload == oracles.zeckendorf_ones(n)
    F = count_ones_automaton(PrimeField(2))
    for n in range(50):
        assert F.weight(canonical(n, BASE2)).payload == oracles.digit_ones(n) % 2


def test_fibonacci_representation_automaton():
    A = fibonacci_representation_automaton()
    counts = oracles.subset_counts(300)
    assert ints(sequence_prefix(A, ZECKENDORF, 300)) == counts
    assert eval_sequence(A, ZECKENDORF, 8).payload == 3


def test_all_ones_automaton():
    A = all_ones_automaton()
    assert ints(sequence_prefix(A, ZECKENDORF, 80)) == [1] * 81
    assert ints(sequence_prefix(A, BASE2, 80)) == [1] * 81
