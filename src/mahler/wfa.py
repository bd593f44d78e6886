"""Weighted finite automata over exact commutative rings.

An automaton reads digit words most-significant-digit first.  Its weight
on a word is the sum over all paths of initial weight times the product
of transition weights times final weight; absent transitions weigh zero.

Deterministic machines with one output per state (recognizers, carry and
defect machines) are a separate, deliberately partial type: taking an
undefined transition raises instead of drifting into an implicit dead
state, because for those machines an undefined transition means the input
is outside the domain the machine was built for.

Every construction that builds a machine state by state (products,
subset constructions, the equation compilers in equations.py, the
recognizers, carry machines and polynomial machines in automata.py) goes
through explore(), which numbers the states reachable from a list of
seeds breadth-first.  The weighted ones (the equation compilers,
products, shifts, both adders and the polynomial machines) take the
explored states straight to a trimmed machine through
explore_automaton(), and none keeps a state index of its own.  Plain
reachability without numbering (trimming) uses reachable().

A weighted machine keeps one arrow index, built with it: ``_arrows`` maps
label -> {src: [(dst, weight payload), ...]} in the order of
``transitions``, i.e. each mu(b) stored row by row.  _step_payload,
determinize, the determinism check of UnambiguousAutomaton,
cauchy_product, automata._shift_once and the copies of g in
equations._build_z read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Union

from .numeration import Base, NumerationKind, as_digits, canonical, word_alphabet
from .rings import INTEGERS, Ring, RingError, RingValue, _quote

Label = Union[int, tuple]


class AutomatonError(ValueError):
    """Structural problem: bad state index, unknown label, ring mismatch."""


class MissingTransitionError(KeyError):
    """A partial deterministic machine was driven off its domain."""


def explore(seeds: Iterable[Hashable],
            successors: Callable[[Hashable], Iterable[tuple]]) -> tuple[list, dict]:
    """Number the states reachable from the seeds, breadth-first.

    ``successors(state)`` yields ``(label, target, weight)`` triples.
    States are numbered in order of discovery, seeds first in their given
    order.  Returns ``(order, trans)``: ``order[i]`` is state i, and
    ``trans`` maps ``(src, label, dst)`` indices to the weight of that
    arrow, repeated arrows summed with ``+``.  Unweighted machines pass
    None as the weight.
    """
    index: dict = {}
    order: list = []
    for s in seeds:
        if s not in index:
            index[s] = len(order)
            order.append(s)
    trans: dict = {}
    cursor = 0
    while cursor < len(order):
        for label, target, w in successors(order[cursor]):
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
            key = (cursor, label, dst)
            cur = trans.get(key)
            trans[key] = w if cur is None else cur + w
        cursor += 1
    return order, trans


def reachable(seeds: Iterable[Hashable], adj: Mapping) -> set:
    """The seeds and every state reachable from them; ``adj`` maps a
    state to its successors (absent key: none)."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for t in adj.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _dfa_table(trans: dict) -> dict:
    """explore()'s arrows of a deterministic machine as a (src, label) -> dst
    table, in the same order.  Empties ``trans`` one arrow at a time, so
    each old key is freed as its replacement is made and the peak memory
    of a large determinization stays that of one table."""
    table = {}
    while trans:
        (src, label, dst), _w = trans.popitem()
        table[src, label] = dst
    trans.clear()  # popitem() leaves the emptied table allocated
    return dict(reversed(table.items()))


def _label_key(label):
    # ints sort before tuples so mixed alphabets still order deterministically
    if isinstance(label, tuple):
        return (1, label)
    return (0, (label,))


@dataclass(frozen=True, eq=False)
class DfaWithOutput:
    """Partial DFA whose states carry outputs; run() returns the last output."""

    alphabet: tuple
    states: tuple[str, ...]
    initial: int
    transitions: Mapping  # (state index, label) -> state index
    outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))

    def step(self, state: int, label) -> int:
        nxt = self.transitions.get((state, label))
        if nxt is None:
            raise MissingTransitionError(
                f"no transition from state {self.states[state]!r} on {label!r}")
        return nxt

    def run(self, word) -> object:
        """Drive the machine over the word; output of the state reached."""
        state = self.initial
        for label in as_digits(word) if not isinstance(word, (list, tuple)) else word:
            state = self.step(state, label)
        return self.outputs[state]


@dataclass(frozen=True, eq=False)
class WeightedAutomaton:
    """Weighted automaton: ring, alphabet, named states, I/F vectors, arrows
    (``transitions``: (src, label, dst) -> nonzero weight), and the arrow
    index ``_arrows``: label -> {src: [(dst, payload), ...]}, built once
    here; the module docstring lists the code that reads it."""

    ring: Ring
    alphabet: tuple
    states: tuple[str, ...]
    initial: tuple
    final: tuple
    transitions: Mapping  # (src, label, dst) -> RingValue, zero entries dropped

    def __post_init__(self):
        ring = self.ring
        states = tuple(self.states)
        if len(set(states)) != len(states):
            raise AutomatonError("duplicate state names")
        alphabet = tuple(self.alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise AutomatonError("duplicate alphabet labels")
        alpha_set = set(alphabet)
        n = len(states)
        initial = tuple(ring.element(v) for v in self.initial)
        final = tuple(ring.element(v) for v in self.final)
        if len(initial) != n or len(final) != n:
            raise AutomatonError("initial/final vector length differs from state count")
        clean = {}
        arrows: dict = {}
        for (src, label, dst), w in dict(self.transitions).items():
            if not (0 <= src < n and 0 <= dst < n):
                raise AutomatonError(f"transition endpoint out of range: {(src, label, dst)}")
            if label not in alpha_set:
                raise AutomatonError(f"transition label {_quote(label)} not in alphabet")
            w = ring.element(w)
            if w:
                clean[(src, label, dst)] = w
                arrows.setdefault(label, {}).setdefault(src, []).append((dst, w.payload))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "transitions", MappingProxyType(clean))
        object.__setattr__(self, "_arrows", arrows)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def weight(self, w) -> RingValue:
        return weight(self, w)

    def __repr__(self):
        return (f"<WeightedAutomaton {len(self.states)} states over "
                f"{self.ring.spec}, {len(self.transitions)} transitions>")


def _word_labels(A: WeightedAutomaton, w) -> list:
    labels = list(as_digits(w)) if not isinstance(w, (list, tuple)) else list(w)
    alpha = set(A.alphabet)
    for lab in labels:
        if lab not in alpha:
            raise AutomatonError(f"label {_quote(lab)} outside automaton alphabet")
    return labels


def _step_payload(A: WeightedAutomaton, vec: dict, label) -> dict:
    """The sparse row vector vec * mu(label): each nonzero entry of vec
    meets the arrows of its own source only.

    Payloads are plain ints or Fractions, so the sums and products are
    native ``+`` and ``*``; over Zmod:n and Fp:p each output entry is
    reduced mod the characteristic once, at the end, and then zeros are
    dropped.  The result is entry for entry what ring._add/_mul give.
    """
    by_src = A._arrows.get(label, {})
    out: dict = {}
    for src, a in vec.items():
        for dst, wpay in by_src.get(src, ()):
            cur = out.get(dst)
            out[dst] = a * wpay if cur is None else cur + a * wpay
    n = A.ring.characteristic
    if n:
        return {s: r for s, v in out.items() if (r := v % n)}
    return {s: v for s, v in out.items() if v}


def _initial_payload(A: WeightedAutomaton) -> dict:
    return {i: v.payload for i, v in enumerate(A.initial) if v}


def _gather_payload(A: WeightedAutomaton, entries: Iterable[tuple]) -> RingValue:
    """Sum of a * F[s] over the (s, a) payload pairs of a row vector."""
    ring = A.ring
    acc = zero = ring._zero.payload
    final = A.final
    for s, a in entries:
        f = final[s].payload
        if f != zero:
            acc = ring._add(acc, ring._mul(a, f))
    return RingValue(ring, acc)


def _fold(A: WeightedAutomaton, w) -> dict:
    """The sparse row vector I * mu(w)."""
    vec = _initial_payload(A)
    for label in _word_labels(A, w):
        if not vec:
            break
        vec = _step_payload(A, vec, label)
    return vec


def weight(A: WeightedAutomaton, w) -> RingValue:
    """Weight of a digit word under the automaton."""
    return _gather_payload(A, _fold(A, w).items())


def forward_vector(A: WeightedAutomaton, w) -> tuple:
    """Accumulated in-weight per state after reading the word."""
    vec = _fold(A, w)
    zero = A.ring._zero.payload
    return tuple(RingValue(A.ring, vec.get(i, zero)) for i in range(len(A.states)))


def eval_sequence(A: WeightedAutomaton, kind: NumerationKind, n: int) -> RingValue:
    """Weight of the canonical expansion of n."""
    return weight(A, canonical(n, kind))


def sequence_prefix(A: WeightedAutomaton, kind: NumerationKind, N: int) -> list:
    """[weight(canonical(n)) for n = 0..N], sharing work across prefixes.

    Walks the tree of canonical words once, depth first, instead of
    refolding each word from scratch; agrees with eval_sequence entry by
    entry.  In Zeckendorf each node w carries the pair (value(w),
    value(w 0)): child w b has value(w 0) + b and value(w b 0) =
    value(w 0) + value(w) + 2 b, so the walk never calls phi.  Digit b
    first occurs in canonical(b), so a digit b <= N missing from the
    machine's alphabet raises as eval_sequence would.
    """
    if N < 0:
        raise AutomatonError(f"need N >= 0, got {N}")
    _word_labels(A, [b for b in word_alphabet(kind) if b <= N])
    out = [None] * (N + 1)
    out[0] = eval_sequence(A, kind, 0)
    if N == 0:
        return out
    init = _initial_payload(A)
    if isinstance(kind, Base):
        q = kind.q
        stack = [(_step_payload(A, init, b), b) for b in range(min(q - 1, N), 0, -1)]
        while stack:
            vec, val = stack.pop()
            out[val] = _gather_payload(A, vec.items())
            for b in range(q - 1, -1, -1):
                child = q * val + b
                if child <= N:
                    stack.append((_step_payload(A, vec, b), child))
    else:
        stack = [(_step_payload(A, init, 1), 1, 2, 1)]
        while stack:
            vec, val, shifted, last = stack.pop()
            out[val] = _gather_payload(A, vec.items())
            for b in ((0,) if last == 1 else (1, 0)):
                child = shifted + b
                if child <= N:
                    stack.append((_step_payload(A, vec, b), child,
                                  shifted + val + 2 * b, b))
    return out


def trim(A: WeightedAutomaton) -> WeightedAutomaton:
    """Restrict to states both reachable from I and co-reachable to F."""
    n = len(A.states)
    fwd_adj: dict = {}
    bwd_adj: dict = {}
    for (src, _label, dst) in A.transitions:
        fwd_adj.setdefault(src, set()).add(dst)
        bwd_adj.setdefault(dst, set()).add(src)
    fwd = reachable((i for i in range(n) if A.initial[i]), fwd_adj)
    bwd = reachable((i for i in range(n) if A.final[i]), bwd_adj)
    keep = sorted(fwd & bwd)
    if len(keep) == n:
        return A
    remap = {old: new for new, old in enumerate(keep)}
    return WeightedAutomaton(
        ring=A.ring,
        alphabet=A.alphabet,
        states=tuple(A.states[i] for i in keep),
        initial=tuple(A.initial[i] for i in keep),
        final=tuple(A.final[i] for i in keep),
        transitions={(remap[s], b, remap[d]): w
                     for (s, b, d), w in A.transitions.items()
                     if s in remap and d in remap},
    )


def explore_automaton(ring: Ring, alphabet, seeds: Mapping,
                      successors: Callable[[Hashable], Iterable[tuple]],
                      final: Callable[[Hashable], RingValue],
                      name: Callable[[Hashable], str]) -> WeightedAutomaton:
    """The trimmed weighted automaton on the states explore() finds.

    ``seeds`` maps each seed state to its initial weight; every other
    state gets zero.  ``successors`` is as for explore().  ``final(state)``
    and ``name(state)`` are each called once per state, in numbering
    order, so a ``name`` may count the states it has seen
    (build_automaton_dumas numbers its g{j}n{t} copy states that way).
    """
    order, trans = explore(seeds, successors)
    initial = list(seeds.values()) + [ring.zero] * (len(order) - len(seeds))
    return trim(WeightedAutomaton(
        ring=ring,
        alphabet=tuple(alphabet),
        states=tuple(name(s) for s in order),
        initial=tuple(initial),
        final=tuple(final(s) for s in order),
        transitions=trans,
    ))


def same_structure(A: WeightedAutomaton, B: WeightedAutomaton) -> bool:
    """Identical states, alphabet, vectors and transition table."""
    return (A.ring == B.ring and A.alphabet == B.alphabet and A.states == B.states
            and A.initial == B.initial and A.final == B.final
            and dict(A.transitions) == dict(B.transitions))


@dataclass(frozen=True, eq=False)
class UnambiguousAutomaton:
    """A 0/1-weighted automaton over Z certified free of duplicate paths.

    Construction checks the weight range and that the machine is
    deterministic: at most one initial state and at most one arrow per
    (source, label).  Then every word has at most one path from the
    initial state, at every length; a failure raises.
    """

    automaton: WeightedAutomaton

    def __post_init__(self):
        A = self.automaton
        if A.ring != INTEGERS:
            raise AutomatonError("unambiguous automata are kept over the integers")
        vals = set(A.transitions.values()) | set(A.initial) | set(A.final)
        allowed = {INTEGERS.zero, INTEGERS.one}
        if not vals <= allowed:
            raise AutomatonError("weights outside {0, 1}")
        starts = [s for s, v in enumerate(A.initial) if v]
        if len(starts) > 1:
            raise AutomatonError(
                f"ambiguous: states {_quote(A.states[starts[0]])} and "
                f"{_quote(A.states[starts[1]])} are both initial")
        for label, by_src in A._arrows.items():
            for src, out in by_src.items():
                if len(out) > 1:
                    raise AutomatonError(
                        f"ambiguous: state {_quote(A.states[src])} has "
                        f"{len(out)} arrows on label {_quote(label)}")

    @property
    def alphabet(self):
        return self.automaton.alphabet


def cauchy_product(A1: WeightedAutomaton, A2: WeightedAutomaton,
                   add: UnambiguousAutomaton) -> WeightedAutomaton:
    """Automaton for the coefficientwise convolution h_n = sum f_m g_{n-m}.

    ``add`` reads triples (a, b, c) of digits and accepts exactly the
    digitwise triples of canonical-up-to-padding expansions with value(a)
    + value(b) = value(c).  Both factors must be leading-zero invariant,
    since the summand expansions get padded to the length of the result.
    """
    if A1.ring != A2.ring:
        raise AutomatonError(
            f"factor rings differ: {A1.ring.spec} vs {A2.ring.spec}")
    ring = A1.ring
    AA = add.automaton
    out_labels = []
    for lab in AA.alphabet:
        if not (isinstance(lab, tuple) and len(lab) == 3):
            raise AutomatonError("addition automaton labels must be digit triples")
        if lab[2] not in out_labels:
            out_labels.append(lab[2])
    # alphabet order, not index order, fixes the order of discovery (state numbering)
    add_arrows = [(lab, AA._arrows[lab]) for lab in AA.alphabet if lab in AA._arrows]
    arrows1, arrows2 = A1._arrows, A2._arrows
    mul = ring._mul

    seeds = {(qa, s1, s2): v1 * v2
             for qa in range(len(AA.states)) if AA.initial[qa]
             for s1, v1 in enumerate(A1.initial) if v1
             for s2, v2 in enumerate(A2.initial) if v2}

    def successors(triple):
        qa, s1, s2 = triple
        for (b1, b2, b3), by_src in add_arrows:
            for qa2, _w in by_src.get(qa, ()):
                for d1, w1 in arrows1.get(b1, {}).get(s1, ()):
                    for d2, w2 in arrows2.get(b2, {}).get(s2, ()):
                        yield b3, (qa2, d1, d2), RingValue(ring, mul(w1, w2))

    def final(triple):
        qa, s1, s2 = triple
        return A1.final[s1] * A2.final[s2] if AA.final[qa] else ring.zero

    return explore_automaton(
        ring, out_labels, seeds, successors, final,
        lambda t: f"{AA.states[t[0]]}|{A1.states[t[1]]}|{A2.states[t[2]]}")


def determinize(A: WeightedAutomaton, direction: str = "direct") -> DfaWithOutput:
    """Weight-vector subset construction over a finite ring.

    direction "direct": states are row vectors I * mu(w); the output of the
    state reached by w is weight(A, w).  direction "reverse": states are
    column vectors mu(w) * F, so the output after w is weight(A, reverse(w));
    that is the direct construction on the transposed machine (I and F
    swapped, arrows reversed).
    """
    if direction not in ("direct", "reverse"):
        raise AutomatonError(f"unknown direction {direction!r}")
    if A.ring.cardinality is None:
        raise RingError(
            f"determinization needs a finite ring, not {A.ring.spec}")
    if direction == "reverse":
        A = WeightedAutomaton(
            ring=A.ring, alphabet=A.alphabet, states=A.states,
            initial=A.final, final=A.initial,
            transitions={(d, b, s): w for (s, b, d), w in A.transitions.items()})
    ring = A.ring
    n = len(A.states)
    zero = ring._zero.payload
    labels = sorted(A.alphabet, key=_label_key)
    add, mul = ring._add, ring._mul
    start = tuple(v.payload for v in A.initial)
    arrows = A._arrows

    def step_vec(vec, label):
        acc = [zero] * n
        for src, out in arrows.get(label, {}).items():
            a = vec[src]
            if a != zero:
                for dst, w in out:
                    acc[dst] = add(acc[dst], mul(a, w))
        return tuple(acc)

    order, trans = explore(
        [start], lambda vec: ((label, step_vec(vec, label), None) for label in labels))
    return DfaWithOutput(
        alphabet=tuple(labels),
        states=tuple(f"v{i}" for i in range(len(order))),
        initial=0,
        transitions=_dfa_table(trans),
        outputs=tuple(_gather_payload(A, enumerate(v)) for v in order),
    )
