"""Concrete machines: Zeckendorf value recognizers, the shift-defect
machine, addition automata for base q and Zeckendorf, polynomial and shift
constructions, and small reference automata used by tests and the CLI.

The recognizers follow the pair construction: after reading a prefix u the
state is (p, q) = ([u]_Z rebased at the last digit, the same sum shifted
one Fibonacci index down), so reading digit d maps (p, q) to
(p + q + d, p + d).  States are explored up to a conservative coordinate
bound, trimmed to the part that can still reach an accepting state, and
the build re-runs itself with four times the bound and checks the two
results are isomorphic, so an insufficient bound fails loudly instead of
silently misclassifying long words.
"""

from __future__ import annotations

from functools import lru_cache

from .numeration import Base, NumerationKind, _digits, format_word, word_alphabet
from .rings import INTEGERS, Ring, RingValue
from .wfa import (AutomatonError, DfaWithOutput, UnambiguousAutomaton,
                  WeightedAutomaton, _dfa_table, explore, explore_automaton,
                  reachable)


# ---------------------------------------------------------------------------
# Value recognizers over arbitrary digit alphabets (Zeckendorf reading).

def _recognizer_core(digits: tuple, c: int, bound: int):
    """Reachable (p, q) pairs with both coordinates within the bound,
    trimmed to states that can still reach p = c.  Returns
    (pairs, transitions, accepting, initial) with partial transitions."""
    def successors(pq):
        p, q = pq
        for d in digits:
            p2, q2 = p + q + d, p + d
            if abs(p2) <= bound and abs(q2) <= bound:
                yield d, (p2, q2), None

    order, trans = explore([(0, 0)], successors)
    accept = {i for i, (p, _q) in enumerate(order) if p == c}
    rev: dict = {}
    for src, _d, dst in trans:
        rev.setdefault(dst, set()).add(src)
    live = reachable(accept, rev)
    keep = sorted(live | {0})
    remap = {old: new for new, old in enumerate(keep)}
    pairs = [order[i] for i in keep]
    core_trans = {(remap[s], d): remap[t]
                  for s, d, t in trans if s in remap and t in remap}
    core_accept = {remap[i] for i in accept if i in remap}
    return pairs, core_trans, core_accept, remap[0]


def _dfa_canonical_form(trans, accept, initial, digits):
    """BFS relabelling from the initial state; isomorphism-invariant."""
    order, arrows = explore(
        [initial],
        lambda s: ((d, trans[(s, d)], None) for d in digits if (s, d) in trans))
    acc = frozenset(i for i, s in enumerate(order) if s in accept)
    return (len(order), frozenset(arrows), acc)


@lru_cache(maxsize=None)
def _recognizer_cached(digits: tuple, c: int):
    bound = 8 * (max(max(abs(d) for d in digits), abs(c)) + 1)
    parts = _recognizer_core(digits, c, bound)
    check = _recognizer_core(digits, c, 4 * bound)
    form = _dfa_canonical_form(*parts[1:], digits)
    form4 = _dfa_canonical_form(*check[1:], digits)
    if form != form4:
        raise AutomatonError(
            f"recognizer bound {bound} too small for digits {digits}, c={c}")
    return parts


def constant_recognizer(C, c: int) -> DfaWithOutput:
    """Total DFA accepting words over C whose Zeckendorf value equals c."""
    digits = tuple(sorted(set(C)))
    if not digits:
        raise AutomatonError("empty digit set")
    pairs, trans, accept, initial = _recognizer_cached(digits, c)
    n = len(pairs)
    dead = n
    total = {}
    for s in range(n):
        for d in digits:
            total[(s, d)] = trans.get((s, d), dead)
    for d in digits:
        total[(dead, d)] = dead
    names = tuple(f"p{p}q{q}" for p, q in pairs) + ("dead",)
    outputs = tuple(s in accept for s in range(n)) + (False,)
    return DfaWithOutput(
        alphabet=digits,
        states=names,
        initial=initial,
        transitions=total,
        outputs=outputs,
    )


def zero_recognizer(C) -> DfaWithOutput:
    """Total DFA accepting words over C of Zeckendorf value zero."""
    return constant_recognizer(C, 0)


# ---------------------------------------------------------------------------
# The shift-defect machine: reading (m)_Z digitwise-minus (n)_Z it outputs
# delta(m - n, n).  The five-state table is fixed; q0 deliberately has no
# -1 transition because no valid difference word starts that way.

def defect_automaton() -> DfaWithOutput:
    trans = {
        (0, 0): 0, (0, 1): 1,
        (1, -1): 3, (1, 0): 2, (1, 1): 1,
        (2, -1): 2, (2, 0): 1, (2, 1): 1,
        (3, -1): 2, (3, 0): 1, (3, 1): 4,
        (4, -1): 3, (4, 0): 3, (4, 1): 2,
    }
    return DfaWithOutput(
        alphabet=(-1, 0, 1),
        states=("q0", "q1", "q2", "q3", "q4"),
        initial=0,
        transitions=trans,
        outputs=(0, 0, 0, -1, 1),
    )


def _determinize_nfa(arrows, initial_set, final_set, alphabet):
    """Classical subset construction; the empty set is an explicit state."""
    def successors(subset):
        for d in alphabet:
            yield d, frozenset(t for s in subset for t in arrows.get((s, d), ())), None

    order, trans = explore([frozenset(initial_set)], successors)
    accepting = tuple(bool(subset & final_set) for subset in order)
    return order, _dfa_table(trans), accepting


@lru_cache(maxsize=None)
def defect_automaton_constructed() -> DfaWithOutput:
    """The defect machine rebuilt from scratch by the guess-the-sum route.

    For each candidate output b, a nondeterministic machine reads the
    difference word and guesses, digit by digit, an adjacent-ones-free word
    w; a zero recognizer over {-1, 0, 1, 2} tracks [w minus input]_Z.  At
    the end of input, w must have value equal to the input's and appending
    a zero digit to both must leave difference -b.  The three determinized
    machines are run in parallel; the output is the unique b that accepts,
    or None if none does.
    """
    alphabet = (-1, 0, 1)
    pairs, trans, _accept, initial = _recognizer_cached((-1, 0, 1, 2), 0)

    dfas = []
    for b in (-1, 0, 1):
        arrows: dict = {}
        n = len(pairs)
        for s in range(n):
            for x in (0, 1):
                sx = s * 2 + x
                for bp in alphabet:
                    targets = []
                    t = trans.get((s, 0 - bp))
                    if t is not None:
                        targets.append(t * 2 + 0)
                    if x == 0:
                        t = trans.get((s, 1 - bp))
                        if t is not None:
                            targets.append(t * 2 + 1)
                    if targets:
                        arrows[(sx, bp)] = tuple(targets)
        final = frozenset(s * 2 + x
                          for s, (p, q) in enumerate(pairs)
                          for x in (0, 1)
                          if p == 0 and q == -b)
        dfas.append(_determinize_nfa(arrows, {initial * 2 + 0}, final, alphabet))

    order, prod_trans = explore(
        [(0, 0, 0)],
        lambda triple: ((d, tuple(dfas[i][1][(triple[i], d)] for i in range(3)), None)
                        for d in alphabet))
    outputs = []
    for triple in order:
        hits = [b for i, b in enumerate((-1, 0, 1)) if dfas[i][2][triple[i]]]
        if len(hits) > 1:
            raise AutomatonError(f"defect sets overlap on a state: {hits}")
        outputs.append(hits[0] if hits else None)
    return DfaWithOutput(
        alphabet=alphabet,
        states=tuple(f"d{i}" for i in range(len(order))),
        initial=0,
        transitions=_dfa_table(prod_trans),
        outputs=tuple(outputs),
    )


# ---------------------------------------------------------------------------
# Addition automata.  Labels are digit triples (a, b, c) standing for one
# column of the stacked words u (x) v (x) w with value(u) + value(v) =
# value(w); words are read most significant digit first with u and v
# left-padded to the length of w.

@lru_cache(maxsize=None)
def addition_automaton_base(q: int) -> UnambiguousAutomaton:
    """Carry machine for base q, derived rather than hard-coded.

    The state is the value read so far of u + v - w; a value r other than
    0 or -1 can never come back to 0, since one more digit maps r to
    q*r + e with e between -(q-1) and 2(q-1), so only those two values are
    kept; state "0" stands for running value 0 and state "1" for -1.
    """
    if q < 2:
        raise AutomatonError(f"base must be >= 2, got {q}")
    one = INTEGERS.one
    digits = range(q)
    states = (0, -1)
    idx = {0: 0, -1: 1}
    trans = {}
    alphabet = []
    for a in digits:
        for b in digits:
            for c in digits:
                alphabet.append((a, b, c))
                e = a + b - c
                for r in states:
                    r2 = q * r + e
                    if r2 in idx:
                        trans[(idx[r], (a, b, c), idx[r2])] = one
    A = WeightedAutomaton(
        ring=INTEGERS,
        alphabet=tuple(alphabet),
        states=("0", "1"),
        initial=(one, INTEGERS.zero),
        final=(one, INTEGERS.zero),
        transitions=trans,
    )
    return UnambiguousAutomaton(A)


@lru_cache(maxsize=None)
def addition_automaton_zeckendorf() -> UnambiguousAutomaton:
    """Addition automaton for the Zeckendorf numeration.

    Product of three per-track adjacent-ones checks with a zero recognizer
    fed the digitwise combination a + b - c; deterministic, hence
    unambiguous.  Accepts exactly the padded canonical triples.
    """
    pairs, rtrans, raccept, rinit = _recognizer_cached((-1, 0, 1, 2), 0)
    one = INTEGERS.one

    def successors(state):
        r, l1, l2, l3 = state
        for a in (0, 1) if l1 == 0 else (0,):
            for b in (0, 1) if l2 == 0 else (0,):
                for c in (0, 1) if l3 == 0 else (0,):
                    r2 = rtrans.get((r, a + b - c))
                    if r2 is not None:
                        yield (a, b, c), (r2, a, b, c), one

    def name(state):
        r, l1, l2, l3 = state
        return f"p{pairs[r][0]}q{pairs[r][1]}|{l1}{l2}{l3}"

    return UnambiguousAutomaton(explore_automaton(
        INTEGERS, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
        {(rinit, 0, 0, 0): one}, successors,
        lambda state: one if state[0] in raccept else INTEGERS.zero, name))


def addition_automaton(kind: NumerationKind) -> UnambiguousAutomaton:
    """Addition automaton for the given numeration."""
    if isinstance(kind, Base):
        return addition_automaton_base(kind.q)
    return addition_automaton_zeckendorf()


# ---------------------------------------------------------------------------
# Polynomial series and coefficient shifts.

def polynomial_automaton(coeffs, kind: NumerationKind, ring: Ring) -> WeightedAutomaton:
    """Automaton whose weight on canonical(n) is the n-th list entry.

    A zero self-loop on the root absorbs leading zeros; the rest is the
    tree of canonical expansions of the support.  Words outside the tree
    get weight 0, so beyond the list the series is zero.
    """
    cs = [ring.element(c) for c in coeffs]
    index: dict = {(): 0}
    names = ["z"]
    trans = {(0, 0, 0): ring.one}
    finals = {0: cs[0] if cs else ring.zero}

    def node(prefix):
        i = index.get(prefix)
        if i is None:
            i = len(index)
            index[prefix] = i
            names.append("n" + format_word(prefix))
        return i

    for n, c in enumerate(cs):
        if n == 0 or not c:
            continue
        w = _digits(n, kind)
        prev = 0
        for k in range(1, len(w) + 1):
            known = w[:k] in index
            cur = node(w[:k])
            if not known:
                trans[(prev, w[k - 1], cur)] = ring.one
            prev = cur
        finals[prev] = c
    n_states = len(index)
    final = tuple(finals.get(i, ring.zero) for i in range(n_states))
    initial = tuple(ring.one if i == 0 else ring.zero for i in range(n_states))
    return WeightedAutomaton(
        ring=ring,
        alphabet=word_alphabet(kind),
        states=tuple(names),
        initial=initial,
        final=final,
        transitions=trans,
    )


def shift_regular(A: WeightedAutomaton, j: int) -> WeightedAutomaton:
    """Automaton of x^j times the series of A, Zeckendorf reading.

    Composes j single shifts.  Each shift guesses an adjacent-ones-free
    word w alongside the input v and feeds the digitwise difference
    v - w to a recognizer of value 1, so surviving paths have
    [w] = [v] - 1 and the guessed word drives A.  A must be leading-zero
    invariant; the result then is as well.
    """
    if j < 0:
        raise AutomatonError(f"shift needs j >= 0, got {j}")
    if not set(A.alphabet) <= {0, 1}:
        raise AutomatonError("shift_regular expects a {0,1}-alphabet automaton")
    for _ in range(j):
        A = _shift_once(A)
    return A


def _shift_once(A: WeightedAutomaton) -> WeightedAutomaton:
    pairs, rtrans, raccept, rinit = _recognizer_cached((-1, 0, 1), 1)
    ring = A.ring
    arrows = A._arrows

    def successors(state):
        r, s, x = state
        for b in (0, 1):
            for guess in (0, 1) if x == 0 else (0,):
                r2 = rtrans.get((r, b - guess))
                if r2 is not None:
                    for d, w in arrows.get(guess, {}).get(s, ()):
                        yield b, (r2, d, guess), RingValue(ring, w)

    def name(state):
        r, s, x = state
        return f"p{pairs[r][0]}q{pairs[r][1]}|{A.states[s]}|{x}"

    return explore_automaton(
        ring, (0, 1), {(rinit, s, 0): v for s, v in enumerate(A.initial) if v},
        successors,
        lambda state: A.final[state[1]] if state[0] in raccept else ring.zero, name)


# ---------------------------------------------------------------------------
# Small reference automata.

def count_ones_automaton(ring: Ring) -> WeightedAutomaton:
    """Two states; the weight of a word is its number of 1 digits.

    Over Fp:2 with base-2 reading this generates the Thue-Morse sequence.
    """
    one = ring.one
    trans = {
        (0, 0, 0): one, (0, 1, 0): one,
        (0, 1, 1): one,
        (1, 0, 1): one, (1, 1, 1): one,
    }
    return WeightedAutomaton(
        ring=ring,
        alphabet=(0, 1),
        states=("s", "t"),
        initial=(one, ring.zero),
        final=(ring.zero, one),
        transitions=trans,
    )


def fibonacci_representation_automaton(ring: Ring = INTEGERS) -> WeightedAutomaton:
    """Three states; the weight of (n)_Z counts the ways to write n as a
    sum of distinct Fibonacci numbers."""
    one = ring.one
    trans = {
        (0, 0, 0): one, (0, 1, 0): one,
        (0, 1, 1): one,
        (1, 0, 2): one,
        (2, 0, 1): one, (2, 1, 1): one,
        (2, 0, 0): one,
    }
    return WeightedAutomaton(
        ring=ring,
        alphabet=(0, 1),
        states=("0", "1", "2"),
        initial=(one, ring.zero, ring.zero),
        final=(one, ring.zero, ring.zero),
        transitions=trans,
    )


def all_ones_automaton(ring: Ring = INTEGERS) -> WeightedAutomaton:
    """One state; every 0/1 word has weight one (the series of all ones)."""
    one = ring.one
    return WeightedAutomaton(
        ring=ring,
        alphabet=(0, 1),
        states=("s",),
        initial=(one,),
        final=(one,),
        transitions={(0, 0, 0): one, (0, 1, 0): one},
    )
