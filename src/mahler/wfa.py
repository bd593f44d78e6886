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
recognizers and carry machines in automata.py) goes through explore(),
which numbers the states reachable from a list of seeds breadth-first.
The weighted ones (the equation compilers, products, shifts and the
Zeckendorf adder) take the explored states straight to a trimmed
machine through explore_automaton().  Plain reachability without
numbering (trimming) uses reachable().
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Union

from .numeration import Base, NumerationKind, as_digits, canonical
from .rings import INTEGERS, Ring, RingError, RingValue

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

    def run_states(self, word) -> list[int]:
        """The full state trajectory, starting state included."""
        state = self.initial
        out = [state]
        for label in word:
            state = self.step(state, label)
            out.append(state)
        return out


@dataclass(frozen=True, eq=False)
class WeightedAutomaton:
    """Weighted automaton: ring, alphabet, named states, I/F vectors, arrows."""

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
        for (src, label, dst), w in dict(self.transitions).items():
            if not (0 <= src < n and 0 <= dst < n):
                raise AutomatonError(f"transition endpoint out of range: {(src, label, dst)}")
            if label not in alpha_set:
                raise AutomatonError(f"transition label {label!r} not in alphabet")
            w = ring.element(w)
            if w:
                clean[(src, label, dst)] = w
        arrows = {}
        for (src, label, dst), w in clean.items():
            arrows.setdefault(label, []).append((src, dst, w.payload))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "transitions", MappingProxyType(clean))
        object.__setattr__(self, "_arrows", arrows)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def transition(self, src: int, label, dst: int) -> RingValue:
        return self.transitions.get((src, label, dst), self.ring.zero)

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
            raise AutomatonError(f"label {lab!r} outside automaton alphabet")
    return labels


def _step_payload(A: WeightedAutomaton, vec: dict, label) -> dict:
    ring = A.ring
    zero = ring._zero.payload
    out: dict = {}
    for src, dst, wpay in A._arrows.get(label, ()):
        a = vec.get(src)
        if a is None:
            continue
        prod = ring._mul(a, wpay)
        cur = out.get(dst)
        out[dst] = prod if cur is None else ring._add(cur, prod)
    return {s: v for s, v in out.items() if v != zero}


def _initial_payload(A: WeightedAutomaton) -> dict:
    return {i: v.payload for i, v in enumerate(A.initial) if v}


def _gather_payload(A: WeightedAutomaton, vec: dict) -> RingValue:
    ring = A.ring
    acc = ring._zero.payload
    zero = acc
    for s, a in vec.items():
        f = A.final[s].payload
        if f != zero:
            acc = ring._add(acc, ring._mul(a, f))
    return RingValue(ring, acc)


def weight(A: WeightedAutomaton, w) -> RingValue:
    """Weight of a digit word under the automaton."""
    vec = _initial_payload(A)
    for label in _word_labels(A, w):
        if not vec:
            break
        vec = _step_payload(A, vec, label)
    return _gather_payload(A, vec)


def forward_vector(A: WeightedAutomaton, w) -> tuple:
    """Accumulated in-weight per state after reading the word."""
    vec = _initial_payload(A)
    for label in _word_labels(A, w):
        vec = _step_payload(A, vec, label)
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
    value(w 0) + value(w) + 2 b, so the walk never calls phi.
    """
    if N < 0:
        raise AutomatonError(f"need N >= 0, got {N}")
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
            out[val] = _gather_payload(A, vec)
            for b in range(q - 1, -1, -1):
                child = q * val + b
                if child <= N:
                    stack.append((_step_payload(A, vec, b), child))
    else:
        stack = [(_step_payload(A, init, 1), 1, 2, 1)]
        while stack:
            vec, val, shifted, last = stack.pop()
            out[val] = _gather_payload(A, vec)
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


def normalize(A: WeightedAutomaton) -> WeightedAutomaton:
    """Equivalent automaton whose only final state is a fresh sink.

    The sink has final weight one and no outgoing transitions; every
    transition into an old final state is duplicated into the sink with
    the old final weight folded in, and the sink picks up the empty-word
    weight as its initial weight.
    """
    ring = A.ring
    sink = "fin"
    while sink in A.states:
        sink = sink + "_"
    n = len(A.states)
    empty_word = ring.zero
    for i in range(n):
        empty_word = empty_word + A.initial[i] * A.final[i]
    trans = dict(A.transitions)
    extra: dict = {}
    for (src, label, dst), w in A.transitions.items():
        f = A.final[dst]
        if f:
            key = (src, label, n)
            cur = extra.get(key, ring.zero)
            extra[key] = cur + w * f
    trans.update(extra)
    return WeightedAutomaton(
        ring=ring,
        alphabet=A.alphabet,
        states=A.states + (sink,),
        initial=A.initial + (empty_word,),
        final=(ring.zero,) * n + (ring.one,),
        transitions=trans,
    )


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Linear representation: row vector, one matrix per label, column vector."""

    ring: Ring
    alphabet: tuple
    initial: tuple
    matrices: Mapping  # label -> tuple of row tuples, entries RingValue
    final: tuple


def matrix_rep(A: WeightedAutomaton) -> MatrixRep:
    n = len(A.states)
    zero = A.ring.zero
    mats = {}
    for label in A.alphabet:
        rows = [[zero] * n for _ in range(n)]
        for src, dst, wpay in A._arrows.get(label, ()):
            rows[src][dst] = rows[src][dst] + RingValue(A.ring, wpay)
        mats[label] = tuple(tuple(r) for r in rows)
    return MatrixRep(
        ring=A.ring,
        alphabet=A.alphabet,
        initial=A.initial,
        matrices=MappingProxyType(mats),
        final=A.final,
    )


def automaton_from_matrix(rep: MatrixRep, states: Sequence[str] | None = None) -> WeightedAutomaton:
    n = len(rep.initial)
    if states is None:
        states = tuple(f"s{i}" for i in range(n))
    trans = {}
    for label, rows in rep.matrices.items():
        for i in range(n):
            for j in range(n):
                w = rows[i][j]
                if w:
                    trans[(i, label, j)] = w
    return WeightedAutomaton(
        ring=rep.ring,
        alphabet=rep.alphabet,
        states=tuple(states),
        initial=rep.initial,
        final=rep.final,
        transitions=trans,
    )


def same_structure(A: WeightedAutomaton, B: WeightedAutomaton) -> bool:
    """Identical states, alphabet, vectors and transition table."""
    return (A.ring == B.ring and A.alphabet == B.alphabet and A.states == B.states
            and A.initial == B.initial and A.final == B.final
            and dict(A.transitions) == dict(B.transitions))


# Path counting for unambiguity: over the integers, with every weight in
# {0, 1}, the automaton weight of a word counts its accepting paths.  The
# machine is unambiguous up to length L exactly when the sum over words of
# (path count)^2 matches the sum of path counts at every length; the
# squared sum comes from the pair-product automaton, so no word
# enumeration happens.

def _total_path_weight(I, arrows_by_label, F, L, labels) -> list[int]:
    totals = []
    vec = dict(I)
    for _ in range(L + 1):
        totals.append(sum(a * F.get(s, 0) for s, a in vec.items()))
        nxt: dict = {}
        for label in labels:
            for src, dst, w in arrows_by_label.get(label, ()):
                a = vec.get(src)
                if a:
                    nxt[dst] = nxt.get(dst, 0) + a * w
        vec = nxt
    return totals


def count_accepted_paths(A: WeightedAutomaton, L: int) -> list[int]:
    """Sum over words of each length 0..L of the automaton weight (in Z)."""
    if A.ring != INTEGERS:
        raise AutomatonError("path counting is defined over the integers")
    I = {i: v.payload for i, v in enumerate(A.initial) if v}
    F = {i: v.payload for i, v in enumerate(A.final) if v}
    return _total_path_weight(I, A._arrows, F, L, A.alphabet)


def count_accepted_path_pairs(A: WeightedAutomaton, L: int) -> list[int]:
    """Sum over words of the squared weight, via the pair-product automaton."""
    if A.ring != INTEGERS:
        raise AutomatonError("path counting is defined over the integers")
    I = {}
    for i, vi in enumerate(A.initial):
        if vi:
            for j, vj in enumerate(A.initial):
                if vj:
                    I[(i, j)] = vi.payload * vj.payload
    F = {}
    for i, vi in enumerate(A.final):
        if vi:
            for j, vj in enumerate(A.final):
                if vj:
                    F[(i, j)] = vi.payload * vj.payload
    arrows = {}
    for label, arr in A._arrows.items():
        pair = []
        for s1, d1, w1 in arr:
            for s2, d2, w2 in arr:
                pair.append(((s1, s2), (d1, d2), w1 * w2))
        arrows[label] = pair
    return _total_path_weight(I, arrows, F, L, A.alphabet)


def is_unambiguous(A: WeightedAutomaton, L: int) -> bool:
    """No word of length <= L has two accepting paths."""
    return count_accepted_paths(A, L) == count_accepted_path_pairs(A, L)


@dataclass(frozen=True, eq=False)
class UnambiguousAutomaton:
    """A 0/1-weighted automaton over Z certified free of duplicate paths.

    Construction checks the weight range and runs the path-pair counting
    check up to ``check_length``; a failure raises.
    """

    automaton: WeightedAutomaton
    check_length: int = 12

    def __post_init__(self):
        A = self.automaton
        if A.ring != INTEGERS:
            raise AutomatonError("unambiguous automata are kept over the integers")
        vals = set(A.transitions.values()) | set(A.initial) | set(A.final)
        allowed = {INTEGERS.zero, INTEGERS.one}
        if not vals <= allowed:
            raise AutomatonError("weights outside {0, 1}")
        if not is_unambiguous(A, self.check_length):
            raise AutomatonError(
                f"ambiguous: some word of length <= {self.check_length} "
                f"has more than one accepting path")

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
    add_out: dict = {}
    for (src, lab, dst) in AA.transitions:
        add_out.setdefault(src, []).append((lab[0], lab[1], lab[2], dst))
    out1: dict = {}
    for (src, lab, dst), w in A1.transitions.items():
        out1.setdefault((src, lab), []).append((dst, w))
    out2: dict = {}
    for (src, lab, dst), w in A2.transitions.items():
        out2.setdefault((src, lab), []).append((dst, w))

    seeds = {(qa, s1, s2): v1 * v2
             for qa in range(len(AA.states)) if AA.initial[qa]
             for s1, v1 in enumerate(A1.initial) if v1
             for s2, v2 in enumerate(A2.initial) if v2}

    def successors(triple):
        qa, s1, s2 = triple
        for b1, b2, b3, qa2 in add_out.get(qa, ()):
            for d1, w1 in out1.get((s1, b1), ()):
                for d2, w2 in out2.get((s2, b2), ()):
                    yield b3, (qa2, d1, d2), w1 * w2

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
    start = tuple(v.payload for v in A.initial)
    arrows = A._arrows
    out_side = tuple(v.payload for v in A.final)

    def step_vec(vec, label):
        acc = [zero] * n
        for src, dst, w in arrows.get(label, ()):
            a = vec[src]
            if a != zero:
                acc[dst] = ring._add(acc[dst], ring._mul(a, w))
        return tuple(acc)

    def out_of(vec):
        o = zero
        for a, f in zip(vec, out_side):
            if a != zero and f != zero:
                o = ring._add(o, ring._mul(a, f))
        return RingValue(ring, o)

    order, trans = explore(
        [start], lambda vec: ((label, step_vec(vec, label), None) for label in labels))
    return DfaWithOutput(
        alphabet=tuple(labels),
        states=tuple(f"v{i}" for i in range(len(order))),
        initial=0,
        transitions=_dfa_table(trans),
        outputs=tuple(out_of(v) for v in order),
    )
