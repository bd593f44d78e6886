import copy
import hashlib
import pickle
import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import equation_text, ints, make_random_equation, zero_digit_counter
from mahler import cli, rings, wfa
from mahler.automata import (
    addition_automaton,
    all_ones_automaton,
    count_ones_automaton,
    defect_automaton,
    fibonacci_representation_automaton,
)
from mahler.equations import (_kernel_basis, build_automaton_dumas, build_automaton_q,
                              build_automaton_z, parse_equation, residual, solve_series,
                              weight_z)
from mahler.numeration import ZECKENDORF, Base, canonical, fib, parse_word, word_alphabet
from mahler.rings import (INTEGERS, RATIONALS, MixedRingError, ModRing, PrimeField,
                          RingError, RingValue, parse_ring)
from mahler.serialize import dfa_to_json
from mahler.wfa import (
    AutomatonError,
    DfaWithOutput,
    MissingTransitionError,
    UnambiguousAutomaton,
    WeightedAutomaton,
    _column_payload,
    _initial_payload,
    _span,
    _step_payload,
    cauchy_product,
    determinize,
    eval_sequence,
    explore,
    explore_automaton,
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


def test_weight_matches_brute_path_sum():
    for A in (hand_automaton(), count_ones_automaton(INTEGERS)):
        arrows = {key: w.payload for key, w in A.transitions.items()}
        for w in all_words((0, 1), 6):
            assert weight(A, w).payload == oracles.path_sum(
                ints(A.initial), ints(A.final), arrows, w)


def test_weight_rejects_foreign_labels():
    with pytest.raises(AutomatonError):
        weight(hand_automaton(), (2,))


@pytest.mark.parametrize("ring, line", [
    ("Z", "ring must be a Ring, not 'Z'"),
    (None, "ring must be a Ring, not None"),
])
def test_a_ring_that_is_no_ring_is_one_line(ring, line):
    # a ring spec or None is named through _quote, not a bare AttributeError
    with pytest.raises(AutomatonError) as exc:
        WeightedAutomaton(ring=ring, alphabet=(0, 1), states=("a",), initial=(1,),
                          final=(1,), transitions={(0, 1, 0): 1})
    assert str(exc.value) == line


def test_forward_vector_gathers_to_weight():
    A = fibonacci_representation_automaton()
    for w in all_words((0, 1), 7):
        vec = oracles.forward_vector(A, w)
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
    assert list(pref) == [eval_sequence(A, ZECKENDORF, n) for n in range(N + 1)]


# Random machines over Z, Q, Zmod:6 and Fp:5, given as plain ints: weights
# past n wrap mod n.  A pair of arrows w and n - w (w and -w over Z, Q)
# from two sources of equal initial weight into one target makes that
# entry of the step cancel only after the reduction; a pair from one
# source into two targets of equal final weight does the same to an entry
# of the column mu(b) F.
STEP_RINGS = ("Z", "Q", "Zmod:6", "Fp:5")


@st.composite
def plain_int_machines(draw, kinds=(ZECKENDORF, BASE2, Base(3)), rings=STEP_RINGS):
    ring = parse_ring(draw(st.sampled_from(rings)))
    n = ring.characteristic
    kind = draw(st.sampled_from(kinds))
    alphabet = word_alphabet(kind)
    k = draw(st.integers(2, 4))
    weights = st.integers(-3, 3 * n if n else 12)
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, k - 1), st.sampled_from(alphabet), st.integers(0, k - 1)),
        weights, max_size=3 * k))
    initial = draw(st.lists(weights, min_size=k, max_size=k))
    final = draw(st.lists(weights, min_size=k, max_size=k))
    pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
    for label in alphabet:
        if draw(st.booleans()):
            s1, s2 = draw(pair)
            dst = draw(st.integers(0, k - 1))
            w = draw(st.integers(1, n - 1 if n else 5))
            arrows[(s1, label, dst)] = w
            arrows[(s2, label, dst)] = n - w if n else -w
            initial[s2] = initial[s1] = initial[s1] or 1
        if draw(st.booleans()):
            d1, d2 = draw(pair)
            src = draw(st.integers(0, k - 1))
            w = draw(st.integers(1, n - 1 if n else 5))
            arrows[(src, label, d1)] = w
            arrows[(src, label, d2)] = n - w if n else -w
            final[d2] = final[d1] = final[d1] or 1
    return ring, kind, initial, final, arrows


def _digit_word(n, kind):
    if kind == ZECKENDORF:
        return [int(c) for c in oracles.zeckendorf_greedy(n)]
    return oracles.base_digits(n, kind.q)


@settings(max_examples=80)
@given(plain_int_machines())
def test_stepping_matches_the_plain_int_path_sum_on_every_ring(machine):
    ring, kind, initial, final, arrows = machine
    A = WeightedAutomaton(ring=ring, alphabet=word_alphabet(kind),
                          states=tuple(f"s{i}" for i in range(len(initial))),
                          initial=initial, final=final, transitions=arrows)

    def reduced(x):
        return ring.element(x).payload

    for label in A.alphabet:
        step = _step_payload(A, _initial_payload(A), label)
        assert all(v and v == reduced(v) and type(v) is type(ring.zero.payload)
                   for v in step.values())
    for w in all_words(A.alphabet, 4):
        assert weight(A, w).payload == reduced(oracles.path_sum(initial, final, arrows, w))
    N = 40
    assert [v.payload for v in sequence_prefix(A, kind, N)] == [
        reduced(oracles.path_sum(initial, final, arrows, _digit_word(n, kind)))
        for n in range(N + 1)]


def _meeting_points(kind, top):
    """0..3 and u - 1, u for every digit unit u <= top (q^k in base q,
    F_k in Zeckendorf): the N at which len(canonical(N)), and with it
    the depth where the two sides of the prefix walk meet, moves."""
    units = ([kind.q ** k for k in range(top.bit_length())] if isinstance(kind, Base)
             else [fib(k) for k in range(top.bit_length() * 2)])
    return sorted({0, 1, 2, 3}.union(*({u - 1, u} for u in units if u <= top)))


@settings(max_examples=80)
@given(plain_int_machines((ZECKENDORF, BASE2, Base(3), Base(10))), st.data())
def test_pruned_walk_matches_eval_and_never_steps_a_zero_vector(machine, data):
    # over Zmod:6 and Fp:5 the cancelling arrow pairs empty a row or a
    # column mid-walk; I = 0 leaves nothing to step
    ring, kind, initial, final, arrows = machine
    if data.draw(st.booleans()):  # loops keep rows and columns alive to full depth
        arrows = {(s, b, s): 1 for s in range(len(initial)) for b in word_alphabet(kind)} | arrows
    if data.draw(st.integers(0, 7)) == 0:
        initial = [0] * len(initial)
    A = WeightedAutomaton(ring=ring, alphabet=word_alphabet(kind),
                          states=tuple(f"s{i}" for i in range(len(initial))),
                          initial=initial, final=final, transitions=arrows)
    points = _meeting_points(kind, 250)
    expected = [eval_sequence(A, kind, n) for n in range(points[-1] + 1)]
    stepped = []

    def step(A, vec, label):
        assert vec, "the walk stepped a zero vector"
        stepped.append(label)
        return _step_payload(A, vec, label)

    def column(A, label, col):
        assert col, "the walk multiplied a zero column"
        return _column_payload(A, label, col)

    for N in points:
        stepped.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(wfa, "_step_payload", step)
            m.setattr(wfa, "_column_payload", column)
            got = sequence_prefix(A, kind, N)
        values = list(got)
        assert values == expected[:N + 1]
        assert all(v is ring.zero for v in values if not v)
        assert len(stepped) <= N + 1  # one step per node: the word 0, then each n in 1..N
        # reading makes one value per distinct output, also where unequal
        # sums reduce to one residue; the values are those of the payloads
        assert len({id(v) for v in values}) <= len(set(got.payloads))
        assert got.payloads == tuple(v.payload for v in values)


# a fraction with a denominator up to 7, of either sign
FRACTIONS = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 7))


@settings(max_examples=60)
@given(plain_int_machines((ZECKENDORF, BASE2, Base(3), Base(10)), rings=("Q",)), st.data())
def test_q_walk_on_the_integer_image_matches_the_fraction_path_sum(machine, data):
    # Q machines with the cancelling pairs of plain_int_machines, made
    # fractional by a diagonal similarity S (I S, S^-1 mu(b) S, S^-1 F),
    # a scale per label and one per vector: every pair still cancels, and
    # the walk runs on an image with D, c_I and c_F above 1
    _, kind, initial, final, arrows = machine
    k = len(initial)
    alphabet = word_alphabet(kind)
    if data.draw(st.booleans()):  # loops keep rows and columns alive to full depth
        arrows = {(s, b, s): 1 for s in range(k) for b in alphabet} | arrows
    if data.draw(st.integers(0, 7)) == 0:
        initial = [0] * k
    sigma = data.draw(st.lists(FRACTIONS, min_size=k, max_size=k))
    by_label = {b: data.draw(FRACTIONS) for b in alphabet}
    c_init, c_final = data.draw(FRACTIONS), data.draw(FRACTIONS)
    initial = [c_init * x * y for x, y in zip(initial, sigma)]
    final = [c_final * x / y for x, y in zip(final, sigma)]
    arrows = {(s, b, d): w * by_label[b] * sigma[d] / sigma[s]
              for (s, b, d), w in arrows.items()}
    A = WeightedAutomaton(ring=RATIONALS, alphabet=alphabet,
                          states=tuple(f"s{i}" for i in range(k)),
                          initial=initial, final=final, transitions=arrows)
    points = _meeting_points(kind, 120)
    expected = [Fraction(oracles.path_sum(initial, final, arrows, _digit_word(n, kind)))
                for n in range(points[-1] + 1)]
    evaluated = [eval_sequence(A, kind, n) for n in range(points[-1] + 1)]
    for N in points:
        got = sequence_prefix(A, kind, N)
        payloads = got.payloads
        assert list(payloads) == expected[:N + 1]
        assert all(type(x) is Fraction for x in payloads)
        # one Fraction per distinct output of each word length, the zero included
        assert len({id(x) for x in payloads}) <= len(
            {(len(canonical(n, kind)), x) for n, x in enumerate(payloads)})
        values = list(got)
        assert values == evaluated[:N + 1]
        assert all(v is RATIONALS.zero for v in values if not v)
        # reading makes one value per distinct output, and the zero is ring.zero
        assert len({id(v) for v in values}) <= len(set(payloads))


def test_the_oracle_never_reaches_the_integer_image():
    # solve_series and residual keep their own arithmetic: with the image
    # refused, they still run, while the prefix walk over Q cannot
    P = parse_equation("ring Q\nnumeration zeckendorf\nf0 1\n"
                       "alpha 0 0 1\nalpha 1 0 1/3\nalpha 1 1 -2/5\nalpha 2 0 2/3\n")
    A = build_automaton_z(P)

    def refuse(*args):
        raise AssertionError("the integer image was built")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(wfa, "_integer_image", refuse)
        s = solve_series(P, 300)
        assert residual(P, s).is_zero()
        with pytest.raises(AssertionError, match="integer image"):
            sequence_prefix(A, ZECKENDORF, 300)
    assert sequence_prefix(A, ZECKENDORF, 300) == s


@pytest.mark.parametrize("q", [100000, 10])
def test_large_base_walk_makes_no_column_past_N(q):
    # every column mu(v) F the walk makes is for a suffix word v of value
    # <= N, and no level of either side loops over all q digits: at
    # q = 10^5 one pass over the alphabet per node would take minutes
    if q == 100000:
        A = build_automaton_q(parse_equation(
            "ring Z\nnumeration base 100000\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"))
    else:  # one state, weight of a word = product of (digit + 1)
        A = WeightedAutomaton(ring=INTEGERS, alphabet=tuple(range(q)), states=("s",),
                              initial=(1,), final=(1,),
                              transitions={(0, d, 0): d + 1 for d in range(q)})
    kind, N = Base(q), 3000
    made = {}  # id of each column made -> (value, length) of its suffix word
    kept = []

    def column(A, label, col):
        value, length = made.get(id(col), (0, 0))  # (0, 0): the empty word's F
        out = _column_payload(A, label, col)
        made[id(out)] = (label * q ** length + value, length + 1)
        kept.append(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(wfa, "_column_payload", column)
        start = time.perf_counter()
        got = sequence_prefix(A, kind, N)
        elapsed = time.perf_counter() - start
    assert list(got) == [eval_sequence(A, kind, n) for n in range(N + 1)]
    assert all(value <= N for value, _ in made.values())
    assert made or q > N  # base 10 meets in the middle; base 10^5 has one level
    assert elapsed < 1.0


@pytest.mark.parametrize("spec", STEP_RINGS)
def test_machines_pickle_and_deep_copy(spec):
    # rebuilt through the constructor, so the arrow index and the label
    # set come back with them and the copy steps like the original
    ring = parse_ring(spec)
    rep = fibonacci_representation_automaton(ring)
    A = cauchy_product(rep, rep, addition_automaton(ZECKENDORF))
    for back in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A), copy.copy(A)):
        assert same_structure(back, A) and back._arrows == A._arrows
        assert sequence_prefix(back, ZECKENDORF, 60) == sequence_prefix(A, ZECKENDORF, 60)
    if ring.cardinality:
        D = determinize(count_ones_automaton(ring))
        for back in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D)):
            assert dict(back.transitions) == dict(D.transitions)
            assert (back.states, back.outputs, back.initial) == (D.states, D.outputs, D.initial)
            with pytest.raises(TypeError):
                back.transitions[0, 0] = 1
    D = defect_automaton()
    back = pickle.loads(pickle.dumps(D))
    assert dfa_to_json(back) == dfa_to_json(D)


@pytest.mark.parametrize("spec, pair", [("Zmod:6", (2, 4)), ("Fp:5", (1, 4)),
                                        ("Z", (3, -3)), ("Q", (3, -3))])
def test_step_drops_an_entry_that_cancels(spec, pair):
    ring = parse_ring(spec)
    A = WeightedAutomaton(ring=ring, alphabet=(0, 1), states=("a", "b", "c"),
                          initial=(1, 1, 0), final=(0, 0, 1),
                          transitions={(0, 1, 2): pair[0], (1, 1, 2): pair[1],
                                       (0, 0, 2): pair[0]})
    assert _step_payload(A, _initial_payload(A), 1) == {}
    assert _step_payload(A, _initial_payload(A), 0) == {2: ring.element(pair[0]).payload}
    assert not weight(A, (1,)) and weight(A, (0,)) == ring.element(pair[0])


def _counting_ring_values(m, made):
    """Patch the RingValue constructor that wfa and rings call so that it
    records each payload it is given in made."""
    def counted(ring, payload):
        made.append(payload)
        return RingValue(ring, payload)

    m.setattr(wfa, "RingValue", counted)
    m.setattr(rings, "RingValue", counted)


def test_sequence_prefix_makes_one_value_per_distinct_output():
    # fib_repr takes 52 distinct values to N = 4000: iterating the prefix
    # makes each nonzero one once, not once per entry, and each zero is
    # ring.zero itself (over Fp:5, 985 entries)
    for ring in (INTEGERS, PrimeField(5), RATIONALS):
        s = sequence_prefix(fibonacci_representation_automaton(ring), ZECKENDORF, 4000)
        made = []
        with pytest.MonkeyPatch.context() as m:
            _counting_ring_values(m, made)
            values = list(s)
        assert [v.payload for v in values] == list(s.payloads)
        assert all(v is ring.zero for v in values if not v)
        assert len(made) <= len({x for x in s.payloads if x}) < 100


def test_sequence_prefix_makes_no_ring_value():
    # count-ones times all-ones in base 2: every h_n to N = 4000 is
    # distinct, and the walk makes payloads only, no value per entry
    H = cauchy_product(count_ones_automaton(INTEGERS), all_ones_automaton(INTEGERS),
                       addition_automaton(BASE2))
    made = []
    with pytest.MonkeyPatch.context() as m:
        _counting_ring_values(m, made)
        s = sequence_prefix(H, BASE2, 4000)
    assert made == []
    assert len(set(s.payloads)) == 4001


@pytest.mark.parametrize("name", ["fib_repr", "hyperbinary", "dumas_fib", "dumas_twolayer"])
def test_sequence_prefix_of_a_build_is_the_oracle_prefix(name):
    # one type of sequence prefix: the walk of a build of a shipped
    # isolating equation equals solve_series as a SeriesPrefix
    P = parse_equation(equation_text(f"{name}.eq"))
    A = (build_automaton_dumas if P.g_poly else build_automaton_q
         if isinstance(P.kind, Base) else build_automaton_z)(P)
    assert sequence_prefix(A, P.kind, 2000) == solve_series(P, 2000)


def test_sequence_prefix_rejects_digits_outside_the_alphabet():
    # a {0,1} machine read in base 3 has no value where a 2 is read: the
    # prefix raises exactly when some eval_sequence up to N would
    A = count_ones_automaton(INTEGERS)
    kind = Base(3)
    assert list(sequence_prefix(A, kind, 1)) == [eval_sequence(A, kind, n) for n in range(2)]
    for N in (2, 8):
        with pytest.raises(AutomatonError, match="label 2 outside automaton alphabet"):
            sequence_prefix(A, kind, N)
        with pytest.raises(AutomatonError, match="label 2 outside automaton alphabet"):
            eval_sequence(A, kind, 2)


def test_base_prefix_walk_below_the_base():
    # the roots 1..q-1 of the base-q walk are cut at N
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0, 1, 2, 3, 4), states=("s",),
        initial=(INTEGERS.one,), final=(INTEGERS.one,),
        transitions={(0, d, 0): d + 1 for d in range(5)})
    for N in range(6):
        assert list(sequence_prefix(A, Base(5), N)) == \
            [eval_sequence(A, Base(5), n) for n in range(N + 1)]


def test_weight_on_a_large_base_does_not_pay_for_the_alphabet():
    # the label check reads the set the machine built once, so a call on
    # a base-10^5 machine costs its word, not the 10^5 labels
    A = build_automaton_q(parse_equation(
        "ring Z\nnumeration base 100000\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"))
    start = time.perf_counter()
    # f = Phi(f), f_0 = 1: f_n = 1 at n = 0 only, and the word n 0 reads n q
    assert [n for n in range(2000) if weight(A, (n, 0))] == [0]
    assert time.perf_counter() - start < 1.0
    with pytest.raises(AutomatonError, match="label 100000 outside automaton alphabet"):
        weight(A, (100000,))


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
    # found from "b" but reaches no final state, so trim removes it.  The
    # two arrows from "c" to the final state "y" cancel, so "y" is
    # unreachable and trimmed too, after "d" is found from "c".  Every
    # explored state is named and counted, trimmed ones too: "d" is the
    # sixth.
    e = INTEGERS.element
    arrows = {"a": [(0, "c", e(2)), (1, "b", e(1))],
              "b": [(0, "a", e(3)), (1, "x", e(1))],
              "c": [(1, "c", e(1)), (0, "y", e(2)), (0, "y", e(-2)), (0, "d", e(1))],
              "d": [],
              "x": [(0, "x", e(1))],
              "y": [(1, "c", e(4))]}
    named, finals = [], []

    def name(state):
        named.append(state)
        return f"{state}{len(named)}"

    def final(state):
        finals.append(state)
        return {"c": e(5), "d": e(1), "y": e(9)}.get(state, e(0))

    A = explore_automaton(INTEGERS, (0, 1), {"b": e(7), "a": e(0)},
                          lambda s: arrows[s], final, name)
    assert named == finals == ["b", "a", "x", "c", "y", "d"]
    assert A.states == ("b1", "a2", "c4", "d6")
    assert A.initial == (e(7), e(0), e(0), e(0))
    assert A.final == (e(0), e(0), e(5), e(1))
    assert dict(A.transitions) == {(0, 0, 1): e(3), (1, 1, 0): e(1),
                                   (1, 0, 2): e(2), (2, 1, 2): e(1), (2, 0, 3): e(1)}
    assert weight(A, (0, 0, 1)) == e(7 * 3 * 2 * 5)
    assert weight(A, (0, 0, 1, 0)) == e(7 * 3 * 2 * 1)
    assert trim(A) is A


@st.composite
def explorations(draw):
    """A ring, seeds with their weights, successors of the states 0..k and
    final weights.  Weights may be zero (seeds, finals and lone arrows);
    cancelling pairs of arrows sum to zero, and state k is reached only
    through such a pair, so it is dropped with it; states without
    arrows or final weight are dead ends."""
    ring = parse_ring(draw(st.sampled_from(("Z", "Zmod:6", "Fp:5"))))
    k = draw(st.integers(1, 6))
    weight = st.integers(-4, 4).map(ring.element)
    arrow = st.tuples(st.sampled_from((0, 1)), st.integers(0, k - 1), weight)
    out = {s: draw(st.lists(arrow, max_size=4)) for s in range(k + 1)}
    for s, (b, t, w) in draw(st.lists(st.tuples(
            st.integers(0, k - 1), st.tuples(st.sampled_from((0, 1)), st.integers(0, k), weight)),
            max_size=3)):
        out[s] += [(b, t, w), (b, t, -w)]
    seeds = draw(st.dictionaries(st.integers(0, k - 1), weight, min_size=1, max_size=3))
    finals = draw(st.lists(weight, min_size=k + 1, max_size=k + 1))
    return ring, seeds, out, finals


@settings(max_examples=300)
@given(explorations())
def test_explore_automaton_matches_the_reference_assembly(case):
    ring, seeds, out, finals = case
    args = (ring, (0, 1), seeds, out.__getitem__, finals.__getitem__, "q{}".format)
    assert same_structure(explore_automaton(*args),
                          oracles.trimmed_assembly(WeightedAutomaton, *args))


def test_reachable_closure():
    arrows = [(0, 1), (1, 2), (2, 0), (3, 0)]
    assert reachable([1], arrows) == {0, 1, 2}
    assert reachable([3], arrows) == {0, 1, 2, 3}
    assert reachable([4, 5], arrows) == {4, 5}
    assert reachable([], arrows) == set()


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


def dense_matrices(A):
    """One n x n matrix of RingValues per label, straight from transitions."""
    n = A.n_states
    mats = {b: [[A.ring.zero] * n for _ in range(n)] for b in A.alphabet}
    for (s, b, d), w in A.transitions.items():
        mats[b][s][d] = w
    return mats


def dense_forward(A, mats, w):
    """I * M_{w_1} * ... * M_{w_k} by dense vector-matrix products."""
    n, zero = A.n_states, A.ring.zero
    vec = list(A.initial)
    for b in w:
        vec = [sum((vec[s] * mats[b][s][d] for s in range(n)), start=zero)
               for d in range(n)]
    return vec


def test_matrix_rep_round_trip():
    A = hand_automaton()
    mats = dense_matrices(A)
    n = A.n_states
    B = WeightedAutomaton(
        ring=A.ring, alphabet=A.alphabet, states=A.states, initial=A.initial,
        final=A.final, transitions={(s, b, d): mats[b][s][d] for b in A.alphabet
                                    for s in range(n) for d in range(n)})
    assert same_structure(A, B)
    # direct linear-algebra evaluation against the path semantics
    for w in all_words((0, 1), 6):
        total = sum((v * f for v, f in zip(dense_forward(A, mats, w), A.final)),
                    start=INTEGERS.zero)
        assert total == weight(A, w)


# Random machines over Z, Fp:3 and Zmod:6 with several arrows per
# (source, label); the Zmod:6 weights 2, 3 and 4 make products cancel.
INDEX_RINGS = {"Z": (INTEGERS, (-2, -1, 1, 2, 3)),
               "Fp:3": (parse_ring("Fp:3"), (1, 2)),
               "Zmod:6": (parse_ring("Zmod:6"), (1, 2, 3, 4, 5))}


@st.composite
def indexed_machines(draw):
    ring, weights = INDEX_RINGS[draw(st.sampled_from(sorted(INDEX_RINGS)))]
    n = draw(st.integers(1, 4))
    entry = st.sampled_from((0,) + weights)
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1)), st.integers(0, n - 1)),
        st.sampled_from(weights), max_size=3 * n))
    return WeightedAutomaton(
        ring=ring, alphabet=(0, 1), states=tuple(f"s{i}" for i in range(n)),
        initial=tuple(draw(st.lists(entry, min_size=n, max_size=n))),
        final=tuple(draw(st.lists(entry, min_size=n, max_size=n))),
        transitions=arrows)


@settings(max_examples=60)
@given(indexed_machines())
def test_arrow_index_steps_like_the_dense_matrices(A):
    ring = A.ring
    indexed = [((s, b, d), RingValue(ring, w)) for b, by_src in A._arrows.items()
               for s, out in by_src.items() for d, w in out]
    assert len(indexed) == len(A.transitions)
    assert dict(indexed) == dict(A.transitions)
    mats = dense_matrices(A)
    finite = ring.cardinality is not None
    if finite:
        direct, reverse = determinize(A, "direct"), determinize(A, "reverse")
    for w in all_words(A.alphabet, 6):
        vec = dense_forward(A, mats, w)
        total = sum((v * f for v, f in zip(vec, A.final)), start=ring.zero)
        assert oracles.forward_vector(A, w) == tuple(vec)
        assert weight(A, w) == total
        if finite:
            assert direct.run(list(w)) == total
            assert reverse.run(list(w)) == weight(A, w[::-1])


def test_same_structure_detects_changes():
    A = hand_automaton()
    B = hand_automaton()
    assert same_structure(A, B)
    C = WeightedAutomaton(
        ring=A.ring, alphabet=A.alphabet, states=A.states,
        initial=A.initial, final=A.final,
        transitions={(0, 0, 0): 1, (0, 1, 1): 5, (1, 0, 1): 3})
    assert not same_structure(A, C)


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
    assert weight(A, (1, 0)) == INTEGERS.element(2)
    with pytest.raises(AutomatonError, match="ambiguous: state 's' has 2 arrows on label 1"):
        UnambiguousAutomaton(A)


def test_ambiguity_past_twelve_digits_detected():
    # 0 -1-> 1 and 0 -1-> 14, then two 12-step chains on 0 into the final
    # states 13 and 26: only words of length 13 have two accepting paths
    one, zero = INTEGERS.one, INTEGERS.zero
    trans = {(0, 1, 1): 1, (0, 1, 14): 1}
    for start in (1, 14):
        trans.update({(start + k, 0, start + k + 1): 1 for k in range(12)})
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0, 1), states=tuple(f"s{i}" for i in range(27)),
        initial=(one,) + (zero,) * 26,
        final=tuple(one if i in (13, 26) else zero for i in range(27)),
        transitions=trans)
    assert weight(A, (1,) + (0,) * 12) == INTEGERS.element(2)
    with pytest.raises(AutomatonError, match="ambiguous"):
        UnambiguousAutomaton(A)


def test_second_initial_state_is_ambiguous():
    one = INTEGERS.one
    A = WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a", "b"),
                          initial=(one, one), final=(one, one), transitions={})
    with pytest.raises(AutomatonError, match="ambiguous: states 'a' and 'b' are both initial"):
        UnambiguousAutomaton(A)


def test_unambiguous_wrapper_validation():
    with pytest.raises(AutomatonError, match="weights"):
        UnambiguousAutomaton(hand_automaton())  # weights 2 and 3
    f2 = count_ones_automaton(PrimeField(2))
    with pytest.raises(AutomatonError, match="integers"):
        UnambiguousAutomaton(f2)
    ok = UnambiguousAutomaton(all_ones_automaton())
    assert ok.automaton.alphabet == (0, 1)


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


def test_cauchy_product_refuses_a_factor_not_leading_zero_invariant():
    # unchecked, this product's prefix reads 1, 1, 4, 4, 10, 11, ...
    # instead of the convolution 1, 1, 2, 2, 4, 5, ...
    add = addition_automaton(BASE2)
    Z, ones = zero_digit_counter(), all_ones_automaton()
    assert oracles.convolve([eval_sequence(Z, BASE2, n).payload for n in range(6)],
                            [1] * 6) == [1, 1, 2, 2, 4, 5]
    with pytest.raises(AutomatonError, match="^the first factor is not leading-zero invariant"):
        cauchy_product(Z, ones, add)
    with pytest.raises(AutomatonError, match="^the second factor is not leading-zero invariant"):
        cauchy_product(ones, Z, add)


@st.composite
def product_factors(draw):
    """A small 0/1-alphabet machine as plain ints; about half of them
    made leading-zero invariant (one initial state, whose only zero arrow
    is a weight-1 loop)."""
    k = draw(st.integers(1, 3))
    weights = st.integers(-2, 3)
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, k - 1), st.sampled_from((0, 1)), st.integers(0, k - 1)),
        weights, max_size=3 * k))
    initial = draw(st.lists(weights, min_size=k, max_size=k))
    final = draw(st.lists(weights, min_size=k, max_size=k))
    if draw(st.booleans()):
        initial = [draw(st.integers(1, 3))] + [0] * (k - 1)
        arrows = {key: w for key, w in arrows.items() if key[:2] != (0, 0)}
        arrows[(0, 0, 0)] = 1
    return initial, final, arrows


@settings(max_examples=60)
@given(st.sampled_from(("Z", "Zmod:6")), st.sampled_from((BASE2, ZECKENDORF)),
       product_factors(), product_factors())
def test_cauchy_product_is_refused_or_convolves(spec, kind, f1, f2):
    ring = parse_ring(spec)
    n = ring.characteristic
    factors = [WeightedAutomaton(ring=ring, alphabet=(0, 1),
                                 states=tuple(f"s{i}" for i in range(len(f[0]))),
                                 initial=f[0], final=f[1], transitions=f[2])
               for f in (f1, f2)]
    try:
        C = cauchy_product(*factors, addition_automaton(kind))
    except AutomatonError as e:
        assert "not leading-zero invariant" in str(e)
        return
    N = 40
    prefixes = [[oracles.path_sum(*f, _digit_word(m, kind)) for m in range(N + 1)]
                for f in (f1, f2)]
    expected = oracles.convolve(*prefixes)
    assert [v.payload for v in sequence_prefix(C, kind, N)] == [
        x % n if n else x for x in expected]


def test_cauchy_product_ring_mismatch():
    add = addition_automaton(BASE2)
    with pytest.raises(AutomatonError):
        cauchy_product(count_ones_automaton(INTEGERS),
                       count_ones_automaton(PrimeField(2)), add)


def test_cauchy_product_needs_an_adder_over_digit_triples():
    A = count_ones_automaton(INTEGERS)
    with pytest.raises(AutomatonError, match="addition automaton labels must be digit triples"):
        cauchy_product(A, A, UnambiguousAutomaton(all_ones_automaton()))


def test_determinize_direct_and_reverse():
    A = count_ones_automaton(PrimeField(2))
    D = determinize(A, "direct")
    R = determinize(A, "reverse")
    for w in all_words((0, 1), 8):
        assert D.run(w) == weight(A, w)
        assert R.run(w) == weight(A, tuple(reversed(w)))


def field_at_its_largest_sum():
    """Zmod:6 packs S = 3 coordinates per chunk (6^3 <= 256 < 6^4); 7 states
    make nch = 3 chunks, the last one short.  From I = (5, ..., 5) label 1
    adds the rows 0, 3 and 6, the first of each chunk, into every field: 3
    chunks of 5 * 1 = nch (n - 1) = 15, the most a field holds before
    reduction.  Label 0 moves coordinate k to field k + 1."""
    arrows = {(s, 1, d): 1 for s in (0, 3, 6) for d in range(7)}
    arrows.update({(s, 0, s + 1): 1 for s in range(6)})
    return WeightedAutomaton(
        ring=parse_ring("Zmod:6"), alphabet=(0, 1), states=tuple(f"s{i}" for i in range(7)),
        initial=(5,) * 7, final=(1, 0, 0, 0, 0, 0, 2), transitions=arrows)


def three_labels_at_their_largest_sums():
    """field_at_its_largest_sum with a third label and a new F: in the one
    int that steps every label and the output at once, each of the three
    blocks and the output field hold 3 chunks of 5 = nch (n - 1) = 15 for
    I.  Label 2 adds the rows 2, 5 and 6, the last of each chunk, into
    every field, and F is 1 on the first state of each chunk, so
    I . F = 15 before reduction."""
    arrows = {(s, b, d): 1 for b, rows in ((1, (0, 3, 6)), (2, (2, 5, 6)))
              for s in rows for d in range(7)}
    arrows.update({(s, 0, s + 1): 1 for s in range(6)})
    return WeightedAutomaton(
        ring=parse_ring("Zmod:6"), alphabet=(0, 1, 2), states=tuple(f"s{i}" for i in range(7)),
        initial=(5,) * 7, final=(1, 0, 0, 1, 0, 0, 1), transitions=arrows)


# sizes and sha256 of dfa_to_json, recorded before determinize summed native
# payloads (the Zmod:6 machines: before it stepped packed coordinates, and
# before it stepped every label and the output in one int)
DFA_PINS = {
    ("fib@Fp:2 squared", "direct"): (
        379, "32499ba81d0fc3fe6d59de999f6f745b59baebfb47b7366f78bb3044bda2b197"),
    ("fib@Fp:2 squared", "reverse"): (
        8288, "75e43e76b8698de4645cdb9a4f865e44ddb6cdb85662bfadc54d8bbae03c151d"),
    ("builtin:thue-morse", "direct"): (
        2, "3c6afdbc961d1b0fc393b8b41334fbdbd3caa19b9a573be66047622227833141"),
    ("builtin:thue-morse", "reverse"): (
        2, "3c6afdbc961d1b0fc393b8b41334fbdbd3caa19b9a573be66047622227833141"),
    ("Zmod:6, a field at its largest sum", "direct"): (
        29, "446166224ba616981ccde2bf6f0f6021d98bb16dd80eb0747f5d13a4ecc16e66"),
    ("Zmod:6, a field at its largest sum", "reverse"): (
        26, "470c966916d771c2f2909323d11db6c609c76a660bdedf31138b8d32e80e7ff5"),
    ("Zmod:6, three labels and the output at their largest sums", "direct"): (
        29, "a6a7a9a54048383eb025a73fd0aa9dc95d17b13c1cd6bd1b70b5e2db07ba5d89"),
    ("Zmod:6, three labels and the output at their largest sums", "reverse"): (
        53, "1c2e90a3dbea97781d1fda5fb1289bda339ed23c3ac4b2d5c4acfde143019507"),
}


def test_determinize_pinned_machines():
    f2 = fibonacci_representation_automaton(PrimeField(2))
    machines = {"fib@Fp:2 squared": cauchy_product(f2, f2, addition_automaton(ZECKENDORF)),
                "builtin:thue-morse": cli._load_wfa("builtin:thue-morse"),
                "Zmod:6, a field at its largest sum": field_at_its_largest_sum(),
                "Zmod:6, three labels and the output at their largest sums":
                    three_labels_at_their_largest_sums()}
    got = {}
    for name, direction in DFA_PINS:
        D = determinize(machines[name], direction)
        got[name, direction] = (
            len(D.states), hashlib.sha256(dfa_to_json(D).encode()).hexdigest())
    assert got == DFA_PINS


def test_determinize_prerequisites():
    with pytest.raises(RingError):
        determinize(count_ones_automaton(INTEGERS))
    with pytest.raises(AutomatonError):
        determinize(count_ones_automaton(PrimeField(2)), "sideways")


# ring spec -> most states, so that at most ring size ** states vectors exist
DETERMINIZE_RINGS = {"Fp:2": 5, "Fp:5": 4, "Zmod:6": 4, "Zmod:12": 3}
# large moduli (one coordinate per chunk): nilpotent machines only, whose
# vectors are those of the words shorter than the state count
NILPOTENT_RINGS = {"Fp:257": 4, "Fp:65537": 4, "Fp:2305843009213693951": 4, "Zmod:1000": 4}


@st.composite
def finite_ring_machines(draw):
    """Random machines over prime fields and composite rings; a nilpotent
    one (arrows only to higher states) and zero divisors in Zmod:n make
    vectors that become zero."""
    spec = draw(st.sampled_from(sorted(DETERMINIZE_RINGS) + sorted(NILPOTENT_RINGS)))
    ring = parse_ring(spec)
    m = ring.characteristic
    n = draw(st.integers(1, {**DETERMINIZE_RINGS, **NILPOTENT_RINGS}[spec]))
    alphabet = draw(st.sampled_from(((0, 1), (1, 0), (0, 1, 2))))
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(alphabet), st.integers(0, n - 1)),
        st.integers(1, m - 1), max_size=3 * n))
    if spec in NILPOTENT_RINGS or draw(st.booleans()):
        arrows = {(s, b, d): w for (s, b, d), w in arrows.items() if s < d}
    entry = st.integers(0, m - 1)
    return WeightedAutomaton(
        ring=ring, alphabet=alphabet, states=tuple(f"s{i}" for i in range(n)),
        initial=tuple(draw(st.lists(entry, min_size=n, max_size=n))),
        final=tuple(draw(st.lists(entry, min_size=n, max_size=n))),
        transitions=arrows)


def transposed(A):
    """I and F swapped, every arrow reversed: mu(w) F of A is I mu(reverse(w)) here."""
    return WeightedAutomaton(
        ring=A.ring, alphabet=A.alphabet, states=A.states, initial=A.final, final=A.initial,
        transitions={(d, b, s): w for (s, b, d), w in A.transitions.items()})


@settings(max_examples=150)
@given(finite_ring_machines())
def test_determinize_equals_the_dense_subset_construction(A):
    for direction, M in (("direct", A), ("reverse", transposed(A))):
        transitions, outputs = oracles.subset_construction(
            [v.payload for v in M.initial], [v.payload for v in M.final],
            {k: w.payload for k, w in M.transitions.items()}, sorted(M.alphabet),
            M.ring.characteristic)
        D = determinize(A, direction)
        assert D.initial == 0
        assert dict(D.transitions) == transitions
        assert [v.payload for v in D.outputs] == outputs
        assert D.states == tuple(f"v{i}" for i in range(len(outputs)))


def test_span_of_fib_squared_over_f2():
    f2 = fibonacci_representation_automaton(PrimeField(2))
    P = cauchy_product(f2, f2, addition_automaton(ZECKENDORF))
    n = P.n_states
    assert n == 110
    for M in (P, transposed(P)):
        pivots, rows = _span(M)
        assert len(pivots) == len(rows) == 32
        vectors = [[v.payload for v in oracles.forward_vector(M, w)] for w in all_words((0, 1), 8)]
        for vec in vectors:  # y = sum_k y[P_k] R_k
            rebuilt = [0] * n
            for c, row in zip(pivots, rows):
                for s, x in row.items():
                    rebuilt[s] = (rebuilt[s] + vec[c] * x) % 2
            assert rebuilt == vec
        sparse = [{s: x for s, x in enumerate(vec) if x} for vec in vectors]
        assert len(pivots) == n - len(_kernel_basis(P.ring, sparse, n))


@st.composite
def span_machines(draw):
    """Random machines of up to five states over Fp:2, Fp:3 and Fp:2^61-1."""
    ring = parse_ring(draw(st.sampled_from(("Fp:2", "Fp:3", "Fp:2305843009213693951"))))
    p = ring.characteristic
    n = draw(st.integers(1, 5))
    entry = st.integers(0, p - 1)
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1)), st.integers(0, n - 1)),
        st.integers(1, p - 1), max_size=3 * n))
    return WeightedAutomaton(
        ring=ring, alphabet=(0, 1), states=tuple(f"s{i}" for i in range(n)),
        initial=tuple(draw(st.lists(entry, min_size=n, max_size=n))),
        final=(0,) * n, transitions=arrows)


@settings(max_examples=150)
@given(span_machines())
def test_span_is_the_reduced_echelon_form_of_the_forward_vectors(A):
    # the words shorter than the state count already span every I mu(w)
    n, p = A.n_states, A.ring.characteristic
    vectors = [[v.payload for v in oracles.forward_vector(A, w)]
               for w in all_words(A.alphabet, n - 1)]
    pivots, rows = oracles.reduced_echelon(vectors, n, p)
    got_pivots, basis = _span(A)
    assert sorted(got_pivots) == pivots
    assert dict(zip(got_pivots, basis)) == {
        c: {s: x for s, x in enumerate(row) if x} for c, row in zip(pivots, rows)}


def test_span_over_q_refuses_fraction_payloads():
    # _span takes int rows only: over Q the insert meets the Fractions
    for A in (count_ones_automaton(RATIONALS), fibonacci_representation_automaton(RATIONALS)):
        with pytest.raises(TypeError):
            _span(A)


def test_span_over_a_composite_ring_keeps_every_state():
    # Zmod:6 is no field: every state is a coordinate, even where a field's
    # span would be smaller (here it would be zero: I is zero)
    A = WeightedAutomaton(ring=parse_ring("Zmod:6"), alphabet=(0, 1), states=("a", "b", "c"),
                          initial=(0, 0, 0), final=(1, 2, 3),
                          transitions={(0, 0, 1): 2, (1, 1, 2): 3, (2, 0, 0): 1})
    for M in (A, transposed(A)):
        assert _span(M) == ([0, 1, 2], [{0: 1}, {1: 1}, {2: 1}])


def test_determinize_from_a_zero_initial_vector():
    # pinned at the dense construction: direct has one looping state, reached
    # through a span of dimension 0; reverse starts from F = (1, 1)
    A = WeightedAutomaton(ring=PrimeField(2), alphabet=(0, 1), states=("a", "b"),
                          initial=(0, 0), final=(1, 1), transitions={(0, 0, 1): 1, (1, 1, 0): 1})
    assert _span(A) == ([], [])
    D = determinize(A, "direct")
    assert (D.states, D.initial, dict(D.transitions)) == (("v0",), 0, {(0, 0): 0, (0, 1): 0})
    assert [v.payload for v in D.outputs] == [0]
    R = determinize(A, "reverse")
    assert (R.states, R.initial) == (("v0", "v1", "v2", "v3"), 0)
    assert dict(R.transitions) == {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 2,
                                   (2, 0): 1, (2, 1): 3, (3, 0): 3, (3, 1): 3}
    assert [v.payload for v in R.outputs] == [0, 0, 0, 0]


DFA_FIELDS = dict(alphabet=(0, 1), states=("x", "y"), initial=0,
                  transitions={(0, 1): 1, (1, 0): 0}, outputs=("even", "odd"))


@pytest.mark.parametrize("field, value, message", [
    ("states", ("x", "y", "x"), "duplicate state name 'x'"),
    ("initial", 2, "initial state 2 is no state index"),
    ("outputs", ("even",), "1 outputs for 2 states"),
    ("transitions", {(0, 1): 1, (2, 0): 0}, r"bad transition \(2, 0\) -> 0"),
    ("transitions", {(0, 1): 1, (1, 0): 5}, r"bad transition \(1, 0\) -> 5"),
    ("transitions", {(0, 1): 1, (1, 7): 0}, r"bad transition \(1, 7\) -> 0"),
    ("transitions", {0: 0}, "bad transition 0 -> 0"),
    ("transitions", {(0, 0, 0): 0}, r"bad transition \(0, 0, 0\) -> 0"),
    ("transitions", {("a", 0): 0}, r"bad transition \('a', 0\) -> 0"),
    ("transitions", [1, 2], r"transitions \[1, 2\] is not a mapping"),
    ("transitions", None, "transitions None is not a mapping"),
], ids=["state-names", "initial", "outputs", "arrow-source", "arrow-target", "arrow-label",
        "key-not-a-pair", "key-of-three", "key-source-not-an-index", "table-a-list",
        "table-none"])
def test_dfa_checks_its_shape(field, value, message):
    with pytest.raises(AutomatonError, match=message):
        DfaWithOutput(**{**DFA_FIELDS, field: value})


def test_dfa_of_malformed_fields_is_refused_before_any_reader():
    # accepted unchecked, this machine made run, dfa_to_json and dfa_to_dot
    # each raise a bare IndexError
    with pytest.raises(AutomatonError, match="initial state 3 is no state index"):
        DfaWithOutput(alphabet=(0,), states=("a",), initial=3,
                      transitions={(0, 5): 9}, outputs=())


def test_dfa_run_and_missing_edge():
    D = DfaWithOutput(
        alphabet=(0, 1),
        states=("x", "y"),
        initial=0,
        transitions={(0, 1): 1, (1, 0): 0},
        outputs=("even", "odd"),
    )
    assert D.run((1, 0, 1)) == "odd"
    with pytest.raises(MissingTransitionError):
        D.run((0,))


@pytest.mark.parametrize("text", ["", "0", "1001", "10100101", "1,0,-1", "1,-1"])
def test_word_as_text_tuple_or_list_reads_alike(text):
    # every reader takes a word through as_digits: text is parsed, any
    # other sequence becomes a tuple
    words = (text, parse_word(text), list(parse_word(text)))
    runs = [defect_automaton().run(w) for w in words]
    assert runs[0] in (-1, 0, 1) and runs == runs[:1] * 3
    if set(parse_word(text)) <= {0, 1}:
        A = fibonacci_representation_automaton()
        for read in (weight, weight_z):
            values = [read(A, w) for w in words]
            assert values == values[:1] * 3


def test_automaton_validation():
    one = INTEGERS.one
    with pytest.raises(AutomatonError, match="duplicate state"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a", "a"),
                          initial=(one, one), final=(one, one), transitions={})
    with pytest.raises(AutomatonError, match="duplicate alphabet labels"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0, 0), states=("a",),
                          initial=(one,), final=(one,), transitions={})
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


@pytest.mark.parametrize("key", [(0, 0), ("0", 0, 0), (0, 0, 0, 0), 7])
def test_malformed_transition_keys_raise_automaton_error(key):
    # a key too short to unpack, a state index that is no int, a key too
    # long, and a key that is no tuple: one AutomatonError naming the key
    one = INTEGERS.one
    with pytest.raises(AutomatonError, match=f"bad transition key {re.escape(repr(key))}"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one,), final=(one,), transitions={key: 1})


@pytest.mark.parametrize("transitions, shown", [([(0, 0, 0)], "[(0, 0, 0)]"), (None, "None"),
                                               (((0, 0, 0), 1), "((0, 0, 0), 1)")])
def test_transitions_that_are_no_mapping_raise_automaton_error(transitions, shown):
    # not a bare AttributeError from .items()
    one = INTEGERS.one
    with pytest.raises(AutomatonError, match=f"transitions {re.escape(shown)} is not a mapping"):
        WeightedAutomaton(ring=INTEGERS, alphabet=(0,), states=("a",),
                          initial=(one,), final=(one,), transitions=transitions)


def test_constructor_takes_values_of_an_equal_ring_and_wraps_ints():
    machine_ring, other = ModRing(6), ModRing(6)
    assert machine_ring == other and machine_ring is not other
    e = other.element
    A = WeightedAutomaton(ring=machine_ring, alphabet=(0, 1), states=("a", "b"),
                          initial=(e(1), 0), final=(0, e(5)),
                          transitions={(0, 0, 1): e(7), (1, 1, 0): 4, (0, 1, 0): e(6)})
    assert A.initial == (machine_ring.one, machine_ring.zero)
    assert A.final[1].payload == 5 and A.final[0].payload == 0
    assert dict(A.transitions) == {(0, 0, 1): machine_ring.one,
                                   (1, 1, 0): machine_ring.element(4)}
    assert A._arrows == {0: {0: [(1, 1)]}, 1: {1: [(0, 4)]}}
    for bad in ({"initial": (PrimeField(5).one, 0)}, {"final": (0, ModRing(12).one)},
                {"transitions": {(0, 0, 1): INTEGERS.one}}):
        args = dict(ring=machine_ring, alphabet=(0, 1), states=("a", "b"),
                    initial=(1, 0), final=(0, 1), transitions={}) | bad
        with pytest.raises(MixedRingError):
            WeightedAutomaton(**args)


def test_automaton_repr():
    A = count_ones_automaton(INTEGERS)
    assert repr(A) == "<WeightedAutomaton 2 states over Z, 5 transitions>"


def test_zero_weights_dropped():
    one = INTEGERS.one
    A = WeightedAutomaton(
        ring=INTEGERS, alphabet=(0,), states=("a",),
        initial=(one,), final=(one,),
        transitions={(0, 0, 0): 0})
    assert dict(A.transitions) == {}
