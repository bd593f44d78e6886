import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import ints, make_random_equation
from mahler.automata import (
    addition_automaton,
    all_ones_automaton,
    count_ones_automaton,
    fibonacci_representation_automaton,
)
from mahler.equations import build_automaton_z
from mahler.numeration import ZECKENDORF, Base, canonical
from mahler.rings import INTEGERS, RATIONALS, MixedRingError, PrimeField, RingError
from mahler.wfa import (
    AutomatonError,
    DfaWithOutput,
    MissingTransitionError,
    UnambiguousAutomaton,
    WeightedAutomaton,
    automaton_from_matrix,
    cauchy_product,
    count_accepted_path_pairs,
    count_accepted_paths,
    determinize,
    eval_sequence,
    explore,
    explore_automaton,
    forward_vector,
    is_unambiguous,
    matrix_rep,
    normalize,
    reachable,
    same_structure,
    sequence_prefix,
    trim,
    weight,
)

BASE2 = Base(2)


def hand_automaton():
    one = INTEGERS.one
    return WeightedAutomaton(
        ring=INTEGERS,
        alphabet=(0, 1),
        states=("a", "b"),
        initial=(one, INTEGERS.zero),
        final=(INTEGERS.zero, one),
        transitions={
            (0, 0, 0): 1,
            (0, 1, 1): 2,
            (1, 0, 1): 3,
        },
    )


def brute_weight(A, w):
    """Reference path-sum: enumerate every path explicitly."""
    total = A.ring.zero
    paths = [(s, A.initial[s]) for s in range(A.n_states)]
    for label in w:
        nxt = []
        for s, acc in paths:
            for t in range(A.n_states):
                wt = A.transition(s, label, t)
                if wt:
                    nxt.append((t, acc * wt))
        paths = nxt
    for s, acc in paths:
        total = total + acc * A.final[s]
    return total


def all_words(alphabet, max_len):
    for L in range(max_len + 1):
        yield from product(alphabet, repeat=L)


def test_hand_weights():
    A = hand_automaton()
    assert weight(A, ()).payload == 0
    assert weight(A, (1,)).payload == 2
    assert weight(A, (1, 0)).payload == 6
    assert weight(A, (1, 0, 0)).payload == 18
    assert weight(A, (0, 1)).payload == 2
    assert weight(A, (1, 1)).payload == 0
    assert A.weight((1, 0)).payload == 6


def test_weight_matches_brute_path_sum():
    for A in (hand_automaton(), count_ones_automaton(INTEGERS)):
        for w in all_words((0, 1), 6):
            assert weight(A, w) == brute_weight(A, w)


def test_weight_rejects_foreign_labels():
    with pytest.raises(AutomatonError):
        weight(hand_automaton(), (2,))


def test_forward_vector_gathers_to_weight():
    A = fibonacci_representation_automaton()
    for w in all_words((0, 1), 7):
        vec = forward_vector(A, w)
        total = INTEGERS.zero
        for v, f in zip(vec, A.final):
            total = total + v * f
        assert total == weight(A, w)


@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF])
def test_sequence_prefix_matches_eval(kind):
    if isinstance(kind, Base) and kind.q == 3:
        e = INTEGERS.element
        A = WeightedAutomaton(
            ring=INTEGERS, alphabet=(0, 1, 2), states=("s",),
            initial=(e(1),), final=(e(1),),
            transitions={(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 0): 3})
    else:
        A = count_ones_automaton(INTEGERS)
    pref = sequence_prefix(A, kind, 200)
    for n in range(201):
        assert pref[n] == eval_sequence(A, kind, n)
    with pytest.raises(AutomatonError):
        sequence_prefix(A, kind, -1)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.sampled_from([INTEGERS, RATIONALS, PrimeField(5)]))
def test_zeckendorf_prefix_walk_matches_eval(seed, ring):
    rng = random.Random(seed)
    P = make_random_equation(rng, ring, ZECKENDORF, 2, 3, zero_f0=rng.random() < 0.3)
    A = build_automaton_z(P)
    N = 150
    pref = sequence_prefix(A, ZECKENDORF, N)
    assert pref == [eval_sequence(A, ZECKENDORF, n) for n in range(N + 1)]


def test_base_prefix_walk_below_the_base():
    # the roots 1..q-1 of the base-q walk are cut at N
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0, 1, 2, 3, 4), states=("s",),
        initial=(INTEGERS.one,), final=(INTEGERS.one,),
        transitions={(0, d, 0): d + 1 for d in range(5)})
    for N in range(6):
        assert sequence_prefix(A, Base(5), N) == \
            [eval_sequence(A, Base(5), n) for n in range(N + 1)]


def test_explore_numbers_seeds_first_then_breadth_first():
    # a binary tree of words: "" -> "0", "1" -> "00", "01", "10", "11"
    def successors(word):
        if len(word) < 2:
            for b in "01":
                yield b, word + b, 1
    order, trans = explore(["1", "", "1"], successors)
    assert order == ["1", "", "10", "11", "0", "00", "01"]
    assert trans == {(0, "0", 2): 1, (0, "1", 3): 1, (1, "0", 4): 1,
                     (1, "1", 0): 1, (4, "0", 5): 1, (4, "1", 6): 1}


def test_explore_sums_repeated_arrows():
    two = INTEGERS.element(2)
    arrows = {"a": [("x", "b", two), ("x", "b", INTEGERS.one), ("y", "b", two)],
              "b": [("x", "b", two)]}
    order, trans = explore(["a"], lambda s: arrows[s])
    assert order == ["a", "b"]
    assert trans == {(0, "x", 1): INTEGERS.element(3), (0, "y", 1): two,
                     (1, "x", 1): two}
    assert explore([], lambda s: arrows[s]) == ([], {})


def test_explore_automaton_weights_names_and_trim():
    # "a" and "b" are seeds; "c" is found from "a"; the dead end "x" is
    # found from "b" but reaches no final state, so trim removes it
    e = INTEGERS.element
    arrows = {"a": [(0, "c", e(2)), (1, "b", e(1))],
              "b": [(0, "a", e(3)), (1, "x", e(1))],
              "c": [(1, "c", e(1))],
              "x": [(0, "x", e(1))]}
    named, finals = [], []

    def name(state):
        named.append(state)
        return f"{state}{len(named)}"

    def final(state):
        finals.append(state)
        return e(5) if state == "c" else e(0)

    A = explore_automaton(INTEGERS, (0, 1), {"b": e(7), "a": e(0)},
                          lambda s: arrows[s], final, name)
    assert named == finals == ["b", "a", "x", "c"]
    assert A.states == ("b1", "a2", "c4")
    assert A.initial == (e(7), e(0), e(0))
    assert A.final == (e(0), e(0), e(5))
    assert dict(A.transitions) == {(0, 0, 1): e(3), (1, 1, 0): e(1),
                                   (1, 0, 2): e(2), (2, 1, 2): e(1)}
    assert weight(A, (0, 0, 1)) == e(7 * 3 * 2 * 5)


def test_reachable_closure():
    adj = {0: {1}, 1: {2}, 2: {0}, 3: {0}, 4: set()}
    assert reachable([1], adj) == {0, 1, 2}
    assert reachable([3], adj) == {0, 1, 2, 3}
    assert reachable([4, 5], adj) == {4, 5}
    assert reachable([], adj) == set()


def test_trim_drops_unreachable_and_dead():
    one = INTEGERS.one
    zero = INTEGERS.zero
    A = WeightedAutomaton(
        ring=INTEGERS,
        alphabet=(0, 1),
        states=("a", "b", "unreach", "dead"),
        initial=(one, zero, zero, zero),
        final=(zero, one, zero, zero),
        transitions={
            (0, 0, 0): 1,
            (0, 1, 1): 2,
            (1, 0, 1): 3,
            (2, 0, 1): 5,  # no initial mass ever gets here
            (0, 0, 3): 7,  # never reaches a final state
        },
    )
    T = trim(A)
    assert T.states == ("a", "b")
    for w in all_words((0, 1), 8):
        assert weight(T, w) == weight(A, w)
    assert trim(T) is T


def test_normalize_single_final_and_weights():
    for A in (fibonacci_representation_automaton(), count_ones_automaton(INTEGERS)):
        N = normalize(A)
        finals = [i for i, f in enumerate(N.final) if f]
        assert len(finals) == 1
        assert N.states[finals[0]] == "fin"
        assert all(not f.is_one() or i == finals[0]
                   for i, f in enumerate(N.final))
        assert not any(src == finals[0] for (src, _b, _d) in N.transitions)
        for w in all_words((0, 1), 10):
            assert weight(N, w) == weight(A, w)


def test_normalize_avoids_name_collision():
    one = INTEGERS.one
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0,), states=("fin",),
        initial=(one,), final=(one,), transitions={(0, 0, 0): 1})
    N = normalize(A)
    assert "fin_" in N.states


def test_matrix_rep_round_trip():
    A = hand_automaton()
    rep = matrix_rep(A)
    B = automaton_from_matrix(rep, states=A.states)
    assert same_structure(A, B)
    # direct linear-algebra evaluation against the path semantics
    for w in all_words((0, 1), 6):
        vec = list(rep.initial)
        for label in w:
            mat = rep.matrices[label]
            vec = [sum((vec[i] * mat[i][j] for i in range(len(vec))),
                       start=INTEGERS.zero)
                   for j in range(len(vec))]
        total = sum((v * f for v, f in zip(vec, rep.final)),
                    start=INTEGERS.zero)
        assert total == weight(A, w)


def test_same_structure_detects_changes():
    A = hand_automaton()
    B = hand_automaton()
    assert same_structure(A, B)
    C = WeightedAutomaton(
        ring=A.ring, alphabet=A.alphabet, states=A.states,
        initial=A.initial, final=A.final,
        transitions={(0, 0, 0): 1, (0, 1, 1): 5, (1, 0, 1): 3})
    assert not same_structure(A, C)


def test_count_paths_all_ones():
    A = all_ones_automaton()
    counts = count_accepted_paths(A, 6)
    assert counts == [2 ** L for L in range(7)]
    assert count_accepted_path_pairs(A, 6) == counts
    assert is_unambiguous(A, 6)


def ambiguous_automaton():
    one = INTEGERS.one
    zero = INTEGERS.zero
    return WeightedAutomaton(
        ring=INTEGERS,
        alphabet=(0, 1),
        states=("s", "t", "u", "v"),
        initial=(one, zero, zero, zero),
        final=(zero, zero, zero, one),
        transitions={
            (0, 1, 1): 1,
            (0, 1, 2): 1,
            (1, 0, 3): 1,
            (2, 0, 3): 1,
        },
    )


def test_ambiguity_detected():
    A = ambiguous_automaton()
    assert count_accepted_paths(A, 2)[2] == 2
    assert count_accepted_path_pairs(A, 2)[2] == 4
    assert not is_unambiguous(A, 2)
    with pytest.raises(AutomatonError, match="ambiguous"):
        UnambiguousAutomaton(A)


def test_unambiguous_wrapper_validation():
    with pytest.raises(AutomatonError, match="weights"):
        UnambiguousAutomaton(hand_automaton())  # weights 2 and 3
    f2 = count_ones_automaton(PrimeField(2))
    with pytest.raises(AutomatonError, match="integers"):
        UnambiguousAutomaton(f2)
    ok = UnambiguousAutomaton(all_ones_automaton())
    assert ok.alphabet == (0, 1)


def test_path_counting_needs_integers():
    with pytest.raises(AutomatonError):
        count_accepted_paths(count_ones_automaton(PrimeField(2)), 3)


def test_cauchy_product_base2():
    add = addition_automaton(BASE2)
    A = count_ones_automaton(INTEGERS)
    B = all_ones_automaton()
    C = cauchy_product(A, B, add)
    got = ints(sequence_prefix(C, BASE2, 120))
    a = ints(sequence_prefix(A, BASE2, 120))
    assert got == oracles.convolve(a, [1] * 121)


def test_cauchy_product_zeckendorf():
    add = addition_automaton(ZECKENDORF)
    A = fibonacci_representation_automaton()
    C = cauchy_product(A, A, add)
    got = ints(sequence_prefix(C, ZECKENDORF, 120))
    a = ints(sequence_prefix(A, ZECKENDORF, 120))
    assert got == oracles.convolve(a, a)


def test_cauchy_product_ring_mismatch():
    add = addition_automaton(BASE2)
    with pytest.raises(AutomatonError):
        cauchy_product(count_ones_automaton(INTEGERS),
                       count_ones_automaton(PrimeField(2)), add)


def test_determinize_direct_and_reverse():
    A = count_ones_automaton(PrimeField(2))
    D = determinize(A, "direct")
    R = determinize(A, "reverse")
    for w in all_words((0, 1), 8):
        assert D.run(w) == weight(A, w)
        assert R.run(w) == weight(A, tuple(reversed(w)))


def test_determinize_prerequisites():
    with pytest.raises(RingError):
        determinize(count_ones_automaton(INTEGERS))
    with pytest.raises(AutomatonError):
        determinize(count_ones_automaton(PrimeField(2)), "sideways")


def test_dfa_run_and_missing_edge():
    D = DfaWithOutput(
        alphabet=(0, 1),
        states=("x", "y"),
        initial=0,
        transitions={(0, 1): 1, (1, 0): 0},
        outputs=("even", "odd"),
    )
    assert D.run((1, 0, 1)) == "odd"
    assert D.run_states((1, 0)) == [0, 1, 0]
    with pytest.raises(MissingTransitionError):
        D.run((0,))


def test_automaton_validation():
    one = INTEGERS.one
    with pytest.raises(AutomatonError, match="duplicate state"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a", "a"),
                          initial=(one, one), final=(one, one), transitions={})
    with pytest.raises(AutomatonError, match="out of range"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one,), final=(one,),
                          transitions={(0, 0, 3): 1})
    with pytest.raises(AutomatonError, match="alphabet"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one,), final=(one,),
                          transitions={(0, 7, 0): 1})
    with pytest.raises(AutomatonError, match="length"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one, one), final=(one,), transitions={})
    with pytest.raises(MixedRingError):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one,), final=(one,),
                          transitions={(0, 0, 0): PrimeField(5).one})


def test_zero_weights_dropped():
    one = INTEGERS.one
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0,), states=("a",),
        initial=(one,), final=(one,),
        transitions={(0, 0, 0): 0})
    assert dict(A.transitions) == {}
