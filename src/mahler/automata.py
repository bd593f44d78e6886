"""Concrete machines: Zeckendorf value recognizers, the shift-defect
machine, addition automata for base q and Zeckendorf, polynomial and shift
constructions, and small reference automata used by tests and the CLI.

The recognizers follow the pair construction: after reading a prefix u the
state is (p, q) = ([u]_Z rebased at the last digit, the same sum shifted
one Fibonacci index down), so reading digit d maps (p, q) to
(p + q + d, p + d).  States are explored up to a conservative coordinate
bound, trimmed to the part that can still reach an accepting state, and
the build re-runs itself with four times the bound and checks the two
results are equal, so an insufficient bound fails loudly instead of
silently misclassifying long words.  Equal is the same test as
isomorphic here: the pair a word leads to depends on the word alone, and
every state on a path to a live pair is live, so both cores are numbered
by the breadth-first order of their own arrows.
"""

from __future__ import annotations

from functools import lru_cache

from .numeration import Base, NumerationKind, _word_sep, canonical, word_alphabet
from .rings import INTEGERS, Ring, RingValue
from .wfa import (AutomatonError, DfaWithOutput, UnambiguousAutomaton,
                  WeightedAutomaton, explore, explore_automaton, explore_dfa,
                  reachable)


# ---------------------------------------------------------------------------
# Value recognizers over arbitrary digit alphabets (Zeckendorf reading).

def _recognizer_core(digits: tuple, c: int, bound: int):
    """Reachable (p, q) pairs with both coordinates within the bound,
    trimmed to the initial pair and the pairs that can still reach p = c.
    Returns (pairs, transitions) with partial transitions; the initial
    state is index 0 and a state accepts iff its pair has p == c."""
    def successors(pq):
        p, q = pq
        for d in digits:
            p2, q2 = p + q + d, p + d
            if abs(p2) <= bound and abs(q2) <= bound:
                yield d, (p2, q2), None

    order, trans = explore([(0, 0)], successors)
    live = reachable((i for i, (p, _q) in enumerate(order) if p == c),
                     ((dst, src) for src, _d, dst in trans))
    keep = sorted(live | {0})
    remap = {old: new for new, old in enumerate(keep)}
    return ([order[i] for i in keep],
            {(remap[s], d): remap[t] for s, d, t in trans if s in remap and t in remap})


@lru_cache(maxsize=None)
def _recognizer_cached(digits: tuple, c: int):
    bound = 8 * (max(max(abs(d) for d in digits), abs(c)) + 1)
    core = _recognizer_core(digits, c, bound)
    if core != _recognizer_core(digits, c, 4 * bound):
        raise AutomatonError(f"recognizer bound {bound} too small for digits {digits}, c={c}")
    return core


def constant_recognizer(C, c: int) -> DfaWithOutput:
    """Total DFA accepting words over C whose Zeckendorf value equals c."""
    digits = tuple(sorted(set(C)))
    if not digits:
        raise AutomatonError("empty digit set")
    pairs, trans = _recognizer_cached(digits, c)
    dead = len(pairs)  # no arrows leave it in the core, so it loops to itself
    return DfaWithOutput(
        alphabet=digits, states=tuple(f"p{p}q{q}" for p, q in pairs) + ("dead",), initial=0,
        transitions={(s, d): trans.get((s, d), dead) for s in range(dead + 1) for d in digits},
        outputs=tuple(p == c for p, _q in pairs) + (False,))


# ---------------------------------------------------------------------------
# The shift-defect machine: reading (m)_Z digitwise-minus (n)_Z it outputs
# phi(m) - phi(m - n) - phi(n).  The five-state table is fixed; q0 has no
# -1 transition because no valid difference word starts that way.

def defect_automaton() -> DfaWithOutput:
    trans = {
        (0, 0): 0, (0, 1): 1,
        (1, -1): 3, (1, 0): 2, (1, 1): 1,
        (2, -1): 2, (2, 0): 1, (2, 1): 1,
        (3, -1): 2, (3, 0): 1, (3, 1): 4,
        (4, -1): 3, (4, 0): 3, (4, 1): 2,
    }
    return DfaWithOutput(alphabet=(-1, 0, 1), states=("q0", "q1", "q2", "q3", "q4"),
                         initial=0, transitions=trans, outputs=(0, 0, 0, -1, 1))


@lru_cache(maxsize=None)
def defect_automaton_constructed() -> DfaWithOutput:
    """The defect machine rebuilt from scratch by the guess-the-sum route.

    A nondeterministic machine reads the difference word and guesses,
    digit by digit, an adjacent-ones-free word w; a zero recognizer over
    {-1, 0, 1, 2} tracks [w minus input]_Z, and the NFA state is the
    recognizer state with the last guessed digit.  At the end of input, w
    must have value equal to the input's, and appending a zero digit to
    both must leave difference -b.  The guessing does not depend on b, so
    one subset construction (the empty set an explicit state) serves all
    three candidate outputs: a subset outputs the unique b whose end
    states it meets, or None if it meets none.
    """
    alphabet = (-1, 0, 1)
    pairs, trans = _recognizer_cached((-1, 0, 1, 2), 0)

    def step(subset, bp):
        targets = set()
        for s, x in subset:
            t = trans.get((s, -bp))
            if t is not None:
                targets.add((t, 0))
            if x == 0:
                t = trans.get((s, 1 - bp))
                if t is not None:
                    targets.add((t, 1))
        return frozenset(targets)

    return explore_dfa(alphabet, frozenset({(0, 0)}), lambda subset: (
        [step(subset, bp) for bp in alphabet],
        next((b for b in alphabet if any(pairs[s] == (0, -b) for s, _x in subset)), None)), "d")


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
    explored from 0; state "0" stands for running value 0 and state "1"
    for -1, and only "0" is final.  The next state is a function of the
    state and the triple, so the machine is deterministic, which
    UnambiguousAutomaton checks.
    """
    if q < 2:
        raise AutomatonError(f"base must be >= 2, got {q}")
    one = INTEGERS.one
    alphabet = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]

    def successors(r):
        for a, b, c in alphabet:
            r2 = q * r + a + b - c
            if r2 in (0, -1):
                yield (a, b, c), r2, one

    return UnambiguousAutomaton(explore_automaton(
        INTEGERS, alphabet, {0: one}, successors,
        lambda r: one if r == 0 else INTEGERS.zero, lambda r: str(-r)))


@lru_cache(maxsize=None)
def addition_automaton_zeckendorf() -> UnambiguousAutomaton:
    """Addition automaton for the Zeckendorf numeration.

    Product of three per-track adjacent-ones checks with a zero recognizer
    fed the digitwise combination a + b - c; deterministic (checked by
    UnambiguousAutomaton), hence unambiguous.  Accepts exactly the padded
    canonical triples.
    """
    pairs, rtrans = _recognizer_cached((-1, 0, 1, 2), 0)
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
        {(0, 0, 0, 0): one}, successors,
        lambda state: one if pairs[state[0]][0] == 0 else INTEGERS.zero, name))


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
    get weight 0, so beyond the list the series is zero.  Every tree node
    is a seed, in order of first appearance (n ascending, then prefix
    length), which fixes the state numbering; like every explored
    machine the result is trimmed, so the zero series has no states.
    """
    cs = [ring.element(c) for c in coeffs]
    finals = {(): cs[0] if cs else ring.zero}
    for n, c in enumerate(cs):
        if n and c:
            w = canonical(n, kind)
            for k in range(1, len(w)):
                finals.setdefault(w[:k], ring.zero)
            finals[w] = c
    alphabet = word_alphabet(kind)
    one = ring.one

    def successors(prefix):
        if not prefix:
            yield 0, prefix, one
        for d in alphabet:
            if prefix + (d,) in finals:
                yield d, prefix + (d,), one

    return explore_automaton(
        ring, alphabet, {prefix: one if not prefix else ring.zero for prefix in finals},
        successors, finals.__getitem__,
        lambda prefix: "n" + _word_sep(kind).join(map(str, prefix)) if prefix else "z")


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
    pairs, rtrans = _recognizer_cached((-1, 0, 1), 1)
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
        ring, (0, 1), {(0, s, 0): v for s, v in enumerate(A.initial) if v},
        successors,
        lambda state: A.final[state[1]] if pairs[state[0]][0] == 1 else ring.zero, name)


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
