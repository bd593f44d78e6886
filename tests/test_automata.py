import hashlib
from itertools import product

import pytest

import oracles
from conftest import ints
from mahler import automata
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
)
from mahler.numeration import ZECKENDORF, Base, canonical, pad, value
from mahler.rings import INTEGERS, RATIONALS, PrimeField
from mahler.serialize import automaton_to_json, dfa_to_json
from mahler.wfa import (
    AutomatonError,
    MissingTransitionError,
    WeightedAutomaton,
    eval_sequence,
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
    D = constant_recognizer((-1, 0, 1), 0)
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
    D = constant_recognizer((-1, 0, 1), 0)
    assert "dead" in D.states
    for s in range(len(D.states)):
        for d in D.alphabet:
            D.step(s, d)  # no missing edges anywhere


def test_recognizer_repeatable_and_validated():
    # the state exploration is cached; the wrapper is rebuilt per call
    # (identity equality) but structurally identical
    a = constant_recognizer((-1, 0, 1), 0)
    b = constant_recognizer([1, 0, -1], 0)
    assert (a.alphabet, a.states, a.initial, a.outputs) == \
        (b.alphabet, b.states, b.initial, b.outputs)
    assert dict(a.transitions) == dict(b.transitions)
    with pytest.raises(AutomatonError):
        constant_recognizer((), 0)


def test_recognizer_bound_check(monkeypatch):
    # a core at 4B that differs from the core at B means B was too small
    real = automata._recognizer_core

    def core(digits, c, bound):
        pairs, trans = real(digits, c, bound)
        return (pairs + [(bound, 0)] if bound > 64 else pairs), trans

    monkeypatch.setattr(automata, "_recognizer_core", core)
    with pytest.raises(AutomatonError, match=r"recognizer bound 64 too small"):
        automata._recognizer_cached((0, 1, 2, 3), 7)


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


@pytest.mark.parametrize("make", [lambda: addition_automaton_base(2),
                                  lambda: addition_automaton_base(3),
                                  addition_automaton_zeckendorf],
                         ids=["base2", "base3", "zeckendorf"])
def test_adders_are_deterministic(make):
    A = make().automaton
    assert sum(1 for v in A.initial if v) == 1
    arrows = {}
    for (src, label, _dst) in A.transitions:
        arrows[src, label] = arrows.get((src, label), 0) + 1
    assert set(arrows.values()) == {1}


# Path totals of each adder to L = 10: being unambiguous with 0/1
# weights, an adder's total at length L counts the accepted triples.
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
    assert oracles.accepted_path_totals(
        ints(add.initial), ints(add.final),
        {key: w.payload for key, w in add.transitions.items()}, 10) == counts


def test_constructed_machines_json_is_pinned():
    # sha256 of the JSON: a rewrite of a construction must keep its
    # output byte for byte (state names and order, labels, arrows).
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()
    got = {f"base {q}": digest(automaton_to_json(addition_automaton_base(q).automaton))
           for q in (2, 3, 4)}
    got["zeckendorf"] = digest(automaton_to_json(addition_automaton_zeckendorf().automaton))
    got["defect"] = digest(dfa_to_json(defect_automaton_constructed()))
    assert got == {
        "base 2": "3e64cefd0a65ddd934f74079d072a53e5dee64b495b5dabd23e879fa7e0826a8",
        "base 3": "721cb25fa065a5aca39b1803916165c1cf69ab91a900cae5e25b3c50b7dff740",
        "base 4": "2035e2df0da7141d9290dcf9a612769987d562a502e964f0d2ac3014e27e6288",
        "zeckendorf": "078c3bb31e3797af082bba85022e8b36aeaa7e3e46ca913482de31d1e77deefe",
        "defect": "ca9f2088e73c4d541f5ad8b12fd7d957bce5cbc3dd0a5b30f3e7797563218f81",
    }
    assert len(defect_automaton_constructed().states) == 39


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
    # trimmed like every explored machine: nothing is left
    assert A.n_states == B.n_states == 0


def test_polynomial_json_is_pinned():
    # sha256 of the JSON for supports with gaps: the tree nodes are
    # numbered in order of first appearance, byte for byte
    gaps1, gaps2 = (0, 1, 0, 0, 2, 3), (1, 0, 0, 0, 0, 5, 0, 0, 7)
    got = {
        (coeffs, name, ring.spec): hashlib.sha256(automaton_to_json(
            polynomial_automaton(coeffs, kind, ring)).encode()).hexdigest()
        for coeffs in (gaps1, gaps2)
        for name, kind in (("base 2", BASE2), ("base 3", Base(3)),
                           ("zeckendorf", ZECKENDORF))
        for ring in (INTEGERS, RATIONALS)
    }
    assert got == {
        (gaps1, "base 2", "Z"): "82d9e852983d7187f0e0a6cd48139ca1bf0e68680e1752030808ed44eed93d3f",
        (gaps1, "base 2", "Q"): "68365624a93d13c6a079f65ad91a32f967c604c03f602d36bbf1aa90eb7af44d",
        (gaps1, "base 3", "Z"): "cd992d6efbf62b2a1cbb4c4cd0c8d981e1fa8d440cab76f6d7f597c0331e1242",
        (gaps1, "base 3", "Q"): "ee9f1b0f03dc6864d75e5c6b00088af626f3eee9c7d7efb73288d335e8032bd8",
        (gaps1, "zeckendorf", "Z"): "11848d20380bfeee00a3100f82ab58286d9dc5fea5d6a528d2c01627f35da02a",
        (gaps1, "zeckendorf", "Q"): "c7b9297c6bba4a6074adc6ca5c2bcd25f362547302ca1216fdd55c369561e06c",
        (gaps2, "base 2", "Z"): "f9a954bdbb8c0e36444933b1000d4d3496e0cdaaa39253f800f14085870f3c2c",
        (gaps2, "base 2", "Q"): "0d5b1ebd049e1d37789351f9f67a70da95a49f63106d960b0312bd2f220d65ba",
        (gaps2, "base 3", "Z"): "35570000ab2e9a9d29934d02fe4972be1024b8a8432df30361149b49652844a0",
        (gaps2, "base 3", "Q"): "25fd6213fa82cc4d10f59486adc34120c08c77486848793533fd3070f1e6ab4c",
        (gaps2, "zeckendorf", "Z"): "a66156b0d7f659859a644e3c9162ce850c62ebe1e29bbe8962a217c55712b055",
        (gaps2, "zeckendorf", "Q"): "d3328ef554b8fea954e87291bf995c27bab900845628e3869b2359da7063bbfd",
    }


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
