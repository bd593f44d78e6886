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
explore_automaton(), which trims on state indices by the one rule that
trim() also applies and streams the arrows into one machine's index; none
keeps a state index of its own.  The two machines with outputs built by
subset construction, determinize and automata.defect_automaton_constructed,
are assembled by explore_dfa().
Plain reachability without numbering (trimming) uses reachable(), on (s, t) arrows.

A weighted machine stores its arrows once, in the index ``_arrows``:
label -> {src: [(dst, weight payload), ...]}, each mu(b) row by row, each
list in the order its arrows were given; ``transitions`` is a view of
it.  _step_payload (a row vector times mu(b)), _column_payload (mu(b)
times a column vector), UnambiguousAutomaton, cauchy_product, the
writers, _integer_image, determinize's transpose, automata._shift_once
and the copies of g in equations._build read the index.

One Gauss-Jordan insert, _insert_row, keeps a reduced row echelon form
of sparse rows (column -> nonzero int) over Fp:p or Q; it does every
elimination in the package, and each elimination touches only the
nonzeros of its two rows.  _span runs it on the vectors I mu(w) to get
a basis of the subspace they span, and determinize steps each state as
its coordinates in that basis, packed into one int and stepped a chunk
of coordinates at a time through memoized chunk products;
equations._kernel_basis runs it on find_relation's sparse int rows (over
Q on the prefix scaled once), skipping a row orthogonal to the kernel so
far once a row was dependent: that row is dependent too.

sequence_prefix meets in the middle of the tree of canonical words: rows
I mu(u) stepped down its top levels, columns mu(v) F built up from its
bottom, and one dot product per deeper word.  It makes payloads only,
returned as the oracle's rings.SeriesPrefix.  Over Q the walk runs on
the machine's integer image: D mu(b), c_I I and c_F F, with D, c_I and
c_F the lcms of the denominators of the arrows, I and F.  Every word of
length L shares the denominator c_I c_F D^L, so each nonzero sum
becomes one Fraction as it leaves the walk.  The scaling is
rings._integral, Q's one integer-scaling rule, which also serves the
oracle and find_relation, once on s_0..s_N for its system.

A bulk producer makes one object per distinct output, through one memo
per call (rings._memo): the walk's Q exits, per word length on the int
sum (a Fraction is never hashed), cauchy_product on each arrow weight
and final product (over Q each is made anew), and determinize on each
state's output.  A zero is the ring's zero itself.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, ItemsView, Iterable, Iterator, Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import count, repeat
from math import gcd
from types import MappingProxyType, SimpleNamespace

from .numeration import Base, NumerationKind, as_digits, canonical, fib
from .rings import (INTEGERS, RATIONALS, Ring, RingError, RingValue, SeriesPrefix, _integral,
                    _memo, _quote, _series)


class AutomatonError(ValueError):
    """Structural problem: bad state index, unknown label, ring mismatch."""


class MissingTransitionError(KeyError):
    """A partial deterministic machine was driven off its domain."""

    def __str__(self):  # the message itself, not KeyError's repr of it
        return str(self.args[0])


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


def reachable(seeds: Iterable[Hashable], arrows: Iterable[tuple]) -> set:
    """The seeds and every state that the (s, t) arrows lead to from them."""
    adj: dict = {}
    for s, t in arrows:
        (adj.get(s) or adj.setdefault(s, [])).append(t)
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for t in adj.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _label_key(label):
    # ints sort before tuples so mixed alphabets still order deterministically
    if isinstance(label, tuple):
        return (1, label)
    return (0, (label,))


def _reduce_by_init(obj):
    """__reduce__ of a frozen dataclass that holds read-only mappings:
    pickle and copy rebuild it through its constructor, which validates
    again, from its init fields with each mapping (a view too) as a dict."""
    return type(obj), tuple(dict(v) if isinstance(v, Mapping) else v
                            for v in (getattr(obj, f.name) for f in fields(obj) if f.init))


def _flat(arrows: dict) -> Iterator[tuple]:
    """(src, label, dst, payload) per arrow of an index, by label, then source."""
    return ((s, b, d, p) for b, by_src in arrows.items()
            for s, out in by_src.items() for d, p in out)


class _ArrowView(Mapping):
    """A weighted machine's ``transitions``, read from its index in _flat's
    order: each RingValue made as it is read, each lookup a scan of its
    source's arrows, the length counted when the index was built."""

    def __init__(self, ring: Ring, arrows: dict, size: int):
        self._ring, self._arrows, self._len = ring, arrows, size

    def __getitem__(self, key):
        try:
            src, label, dst = key
            for d, p in self._arrows[label][src]:
                if d == dst:
                    return RingValue(self._ring, p)
        except (TypeError, ValueError, KeyError):  # no (src, label, dst), or none held
            pass
        raise KeyError(key)

    def __iter__(self):
        return ((s, b, d) for s, b, d, _p in _flat(self._arrows))

    def __len__(self):
        return self._len

    def items(self):
        return _ArrowItems(self)


class _ArrowItems(ItemsView):
    def __iter__(self):  # each value from its payload, without a lookup
        ring = self._mapping._ring
        return (((s, b, d), RingValue(ring, p)) for s, b, d, p in _flat(self._mapping._arrows))


@dataclass(frozen=True, eq=False)
class DfaWithOutput:
    """Partial DFA whose states carry outputs; run() returns the last output."""

    alphabet: tuple
    states: tuple[str, ...]
    initial: int
    transitions: Mapping  # (state index, label) -> state index
    outputs: tuple

    def __post_init__(self):
        n, labels, seen = len(self.states), frozenset(self.alphabet), set()
        if len(set(self.states)) != n:  # name the first repeated one
            raise AutomatonError("duplicate state name "
                                 + _quote(next(s for s in self.states if s in seen or seen.add(s))))
        if self.initial not in range(n):
            raise AutomatonError(f"initial state {_quote(self.initial)} is no state index")
        if len(self.outputs) != n:
            raise AutomatonError(f"{len(self.outputs)} outputs for {n} states")
        if not isinstance(self.transitions, Mapping):
            raise AutomatonError(f"transitions {_quote(self.transitions)} is not a mapping")
        table = dict(self.transitions)
        try:  # every arrow joins two states by a label
            for key, dst in table.items():
                src, label = key
                if not (0 <= src < n and 0 <= dst < n and label in labels):
                    raise ValueError
        except (TypeError, ValueError):  # also a key that is no (state index, label) pair
            raise AutomatonError(f"bad transition {_quote(key)} -> {_quote(dst)}") from None
        object.__setattr__(self, "transitions", MappingProxyType(table))

    __reduce__ = _reduce_by_init

    def step(self, state: int, label) -> int:
        nxt = self.transitions.get((state, label))
        if nxt is None:
            raise MissingTransitionError(
                f"no transition from state {_quote(self.states[state])} on {_quote(label)}")
        return nxt

    def run(self, word) -> object:
        """Drive the machine over the word; output of the state reached."""
        state = self.initial
        for label in as_digits(word):
            state = self.step(state, label)
        return self.outputs[state]


@dataclass(frozen=True, eq=False)
class WeightedAutomaton:
    """Weighted automaton: ring, alphabet, named states, I/F vectors and
    arrows (``transitions``: (src, label, dst) -> weight), stored once, in
    the index ``_arrows``: label -> {src: [(dst, nonzero payload), ...]},
    built here; ``transitions`` becomes its read-only view.  The label
    set ``_alphabet_set``, also built here, checks the words read.
    Values of ``ring`` itself are kept as given; anything else passes
    through ``ring.element``."""

    ring: Ring
    alphabet: tuple
    states: tuple[str, ...]
    initial: tuple
    final: tuple
    transitions: Mapping  # (src, label, dst) -> RingValue, zero entries dropped

    def __post_init__(self):
        ring = self.ring
        if not isinstance(ring, Ring):
            raise AutomatonError(f"ring must be a Ring, not {_quote(ring)}")
        states = tuple(self.states)
        if len(set(states)) != len(states):
            raise AutomatonError("duplicate state names")
        alphabet = tuple(self.alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise AutomatonError("duplicate alphabet labels")
        initial, final = (tuple([v if isinstance(v, RingValue) and v.ring is ring
                                 else ring.element(v) for v in vec])
                          for vec in (self.initial, self.final))
        if len(initial) != len(states) or len(final) != len(states):
            raise AutomatonError("initial/final vector length differs from state count")
        if not isinstance(self.transitions, Mapping):
            raise AutomatonError(f"transitions {_quote(self.transitions)} is not a mapping")
        for name, v in (("states", states), ("alphabet", alphabet), ("initial", initial),
                        ("final", final), ("_alphabet_set", frozenset(alphabet))):
            object.__setattr__(self, name, v)
        self._index(self.transitions.items())

    def _index(self, arrows: Iterable[tuple]) -> None:
        """The one loop that checks (key, weight) arrows, drops zeros and
        indexes the rest in their order: the constructor's, and _assembled's."""
        ring, n, alpha_set = self.ring, len(self.states), self._alphabet_set
        element = ring.element  # ints, Fractions, values of another ring object
        index: dict = {}
        size = 0
        try:  # each key tuple is unpacked, not kept
            for key, w in arrows:
                src, label, dst = key
                if not (0 <= src < n and 0 <= dst < n):
                    raise AutomatonError(f"transition endpoint out of range: {key}")
                if label not in alpha_set:
                    raise AutomatonError(f"transition label {_quote(label)} not in alphabet")
                if not (isinstance(w, RingValue) and w.ring is ring):
                    w = element(w)
                if p := w.payload:
                    size += 1
                    by_src = index.get(label) or index.setdefault(label, {})
                    (by_src.get(src) or by_src.setdefault(src, [])).append((dst, p))
        except (AutomatonError, RingError):
            raise
        except (TypeError, ValueError):  # a key that is no (src, label, dst) of state indices
            raise AutomatonError(f"bad transition key {_quote(key)}") from None
        object.__setattr__(self, "_arrows", index)
        object.__setattr__(self, "transitions", _ArrowView(ring, index, size))

    __reduce__ = _reduce_by_init

    @property
    def n_states(self) -> int:
        return len(self.states)

    def __repr__(self):
        return (f"<WeightedAutomaton {len(self.states)} states over "
                f"{self.ring.spec}, {len(self.transitions)} transitions>")


def _word_labels(A: WeightedAutomaton, w) -> tuple:
    labels = as_digits(w)
    alpha = A._alphabet_set
    for lab in labels:
        if lab not in alpha:
            raise AutomatonError(f"label {_quote(lab)} outside automaton alphabet")
    return labels


def _step_payload(A: WeightedAutomaton, vec: dict, label) -> dict:
    """The sparse row vector vec * mu(label): each nonzero entry of vec
    meets the arrows of its own source only.

    Native ``+`` and ``*`` on the payloads; each output entry is reduced
    once, at the end, by ring._reduce (skipped over Z and Q, where it is
    the identity), and then zeros are dropped.
    """
    by_src = A._arrows.get(label, {})
    out: dict = {}
    for src, a in vec.items():
        for dst, wpay in by_src.get(src, ()):
            cur = out.get(dst)
            out[dst] = a * wpay if cur is None else cur + a * wpay
    ring = A.ring
    if not ring.characteristic:  # Z and Q: _reduce is the identity
        return {s: v for s, v in out.items() if v}
    reduce = ring._reduce
    return {s: r for s, v in out.items() if (r := reduce(v))}


def _initial_payload(A: WeightedAutomaton) -> dict:
    return {i: v.payload for i, v in enumerate(A.initial) if v}


def _gather_payload(A: WeightedAutomaton, entries: Iterable[tuple]) -> RingValue:
    """Sum of a * F[s] over the (s, a) payload pairs of a row vector,
    native ``+`` and ``*``, reduced once."""
    ring = A.ring
    acc = ring.zero.payload
    final = A.final
    for s, a in entries:
        f = final[s].payload
        if f:
            acc += a * f
    return RingValue(ring, ring._reduce(acc))


def weight(A: WeightedAutomaton, w) -> RingValue:
    """Weight of a digit word under the automaton: the sparse row vector
    I * mu(w), gathered against F."""
    vec = _initial_payload(A)
    for label in _word_labels(A, w):
        if not vec:
            break
        vec = _step_payload(A, vec, label)
    return _gather_payload(A, vec.items())


def eval_sequence(A: WeightedAutomaton, kind: NumerationKind, n: int) -> RingValue:
    """Weight of the canonical expansion of n."""
    return weight(A, canonical(n, kind))


def _column_payload(A: WeightedAutomaton, label, col: dict) -> dict:
    """The sparse column vector mu(label) * col, read from the same arrow
    index as _step_payload, each entry reduced once, zeros dropped."""
    reduce = A.ring._reduce
    out = {}
    for src, arrows in A._arrows.get(label, {}).items():
        acc = None
        for dst, w in arrows:
            c = col.get(dst)
            if c is not None:
                acc = w * c if acc is None else acc + w * c
        if acc is not None and (acc := reduce(acc)):
            out[src] = acc
    return out


def _integer_image(A: WeightedAutomaton, length: int) -> tuple:
    """The integer image of a Q machine for sequence_prefix: (M, I', F',
    dens).

    D is the lcm of the denominators of the arrow weights, c_I and c_F
    those of I and F (rings._integral).  M holds the ring Z and A's arrow
    index with every weight times D, so it steps the int matrices
    D mu(b) through _step_payload and _column_payload; I' = c_I I and
    F' = c_F F are sparse int vectors.  A word w of length L then weighs
    I' M(w) F' / (c_I c_F D^L), and dens[L] = c_I c_F D^L (L <= length).
    M is an exact scaling of a machine that was validated when it was
    made, so it is not a WeightedAutomaton and is not validated again.
    """
    D, scaled = _integral([p for *_k, p in _flat(A._arrows)])
    it = iter(scaled)
    arrows = {b: {s: [(d, next(it)) for d, _w in out] for s, out in by_src.items()}
              for b, by_src in A._arrows.items()}
    c_I, init = _integral([v.payload for v in A.initial])
    c_F, final = _integral([v.payload for v in A.final])
    return (SimpleNamespace(ring=INTEGERS, _arrows=arrows),
            {s: a for s, a in enumerate(init) if a},
            {s: f for s, f in enumerate(final) if f},
            [c_I * c_F * D ** L for L in range(length + 1)])


def sequence_prefix(A: WeightedAutomaton, kind: NumerationKind, N: int) -> SeriesPrefix:
    """weight(canonical(n)) for n = 0..N, as a SeriesPrefix made by one
    walk of the tree of canonical words; agrees with eval_sequence.

    weight(u v) = (I mu(u)) . (mu(v) F) for every cut of a word, so the
    walk meets in the middle of the tree of canonical words.  Forward, it
    steps the rows I mu(u) down the tree one level at a time
    (_step_payload) and reads each out against F.  Backward, it builds
    for each length j the columns mu(v) F of the suffix words v with
    value(v) <= N (base q: any digits; Zeckendorf: no 11), each one
    _column_payload from a column a digit shorter.  Each round grows the
    side whose next level looks cheaper: the children to make times
    their parents' nonzeros over the state count, against the new
    suffix words.  Once the depths add up to len(canonical(N)), each
    deeper word u v is one dot product, at value(u 0^j) + value(v); in
    Zeckendorf a u ending in 1 meets only a v starting with 0.  Zero
    rows and columns are dropped, since every word through them weighs
    zero.  A node u carries value(u) and value(u 0): the child u b has
    value value(u 0) + b (0 only for a leading zero, skipped), and
    value(u b 0) is q value(u b) in base q and value(u 0) + value(u) +
    2 b in Zeckendorf, so the walk never calls phi.  Digit b first
    occurs in canonical(b), so a digit b <= N missing from the
    machine's alphabet raises as eval_sequence would.

    Every dot product is stored as its native sum; after the walk each word
    length L's outputs go through exit L by one map: over Q one Fraction per
    distinct int sum over c_I c_F D^L (the walk runs on A's _integer_image),
    over Zmod and Fp ring._reduce, over Z none.  The walk makes no ring value.
    """
    if N < 0:
        raise AutomatonError(f"need N >= 0, got {N}")
    base = isinstance(kind, Base)
    q = kind.q if base else 2
    _word_labels(A, range(min(q, N + 1)))
    ring = A.ring
    step, column = _step_payload, _column_payload
    out = [0] * (N + 1)
    length = len(canonical(N, kind))
    if ring == RATIONALS:
        M, init, final, dens = _integer_image(A, length)
        exits = [_memo(lambda acc, den=den: Fraction(acc, den), ring.zero.payload) for den in dens]
    else:
        M, init = A, _initial_payload(A)
        final = {s: f.payload for s, f in enumerate(A.final) if f}
        exits = [ring._reduce] * (length + 1) if ring.characteristic else []
    # forward: (I mu(u), value(u), value(u 0), last digit) per node u of depth_f
    level = [(init, 0, 0, 0)] if init else []
    depth_f = 0
    # backward: columns[j] lists (value(v), mu(v) F) by increasing value(v)
    columns = [[(0, final)] if final else []]

    def meet(nodes, top):
        # out[value(u v)] = I mu(u) . mu(v) F for each node u, each v shorter than top
        for row, val, shifted, last in nodes:
            items = row.items()
            at, here = shifted - val, val  # here = value(u 0^j)
            for j in range(top):
                if here > N:
                    break
                cap = N - here if base or not last else min(N - here, fib(j - 1) - 1)
                for v, col in columns[j]:
                    if v > cap:
                        break
                    acc = 0
                    for s, a in items:
                        c = col.get(s)
                        if c is not None:
                            acc += a * c
                    out[here + v] = acc
                at, here = here, q * here if base else here + at

    while level and depth_f + len(columns) - 1 < length:
        children = [(vec, b, child, q * child if base else shifted + val + 2 * b)
                    for vec, val, shifted, last in level
                    for b in (range(min(q, N - shifted + 1)) if base
                              else (0,) if last else (0, 1))
                    if 0 < (child := shifted + b) <= N]
        j = len(columns) - 1
        unit = q ** j if base else fib(j)  # value of a 1 before j digits
        # the root's children are leading digits: the forward side makes them
        if depth_f and min(q ** (j + 1) if base else fib(j + 1), N + 1) * len(A.states) \
                < sum(len(vec) for vec, *_ in children):
            columns.append([(b * unit + v, c) for b in range(min(q, N // unit + 1))
                            for v, col in columns[j]
                            if b * unit + v <= N and (base or not b or v < fib(j - 1))
                            if (c := column(M, b, col))])
            continue
        meet(level, 1)
        level = [(row, val, shifted, b) for vec, b, val, shifted in children
                 if (row := step(M, vec, b))]
        depth_f += 1
    meet(level, len(columns))
    # the word 0, not the root's empty word: one step from the root, length 1
    row = step(M, init, 0) if init else {}
    out[0] = sum(a * final[s] for s, a in row.items() if s in final)
    for L in range(1, len(exits)):  # length L: n from q^(L-1) resp. F_(L-1), or 0
        lo, hi = (q ** (L - 1) if base else fib(L - 1)) if L > 1 else 0, q ** L if base else fib(L)
        out[lo:hi] = map(exits[L], out[lo:hi])
    return _series(ring, out)


def _trimmed(ring: Ring, alphabet, states, initial, final, transitions: Mapping,
             reached: bool) -> WeightedAutomaton | None:
    """The one trimming rule, on indices: the machine restricted to the
    states both reachable from I and co-reachable to F, its arrows
    renumbered as they stream into its index, or None when that is every
    state.  An arrow of zero weight joins nothing; ``reached`` says every
    state is reachable from I: no closure from I."""
    n = len(states)
    keep = reachable((i for i in range(n) if final[i]),
                     ((d, s) for (s, _b, d), w in transitions.items() if w.payload))
    if not reached:
        keep &= reachable((i for i in range(n) if initial[i]),
                          ((s, d) for (s, _b, d), w in transitions.items() if w.payload))
    if len(keep) == n:
        return None
    remap = {old: new for new, old in enumerate(sorted(keep))}  # in index order
    return _assembled(ring, alphabet, tuple(states[i] for i in remap),
                      tuple(initial[i] for i in remap), tuple(final[i] for i in remap),
                      (((remap[s], b, remap[d]), w) for (s, b, d), w in transitions.items()
                       if s in remap and d in remap))


def _assembled(ring: Ring, alphabet, states, initial, final,
               arrows: Iterable[tuple]) -> WeightedAutomaton:
    """The public constructor on no arrows, then its checked loop on the
    streamed (key, weight) arrows: no per-arrow mapping is made."""
    A = WeightedAutomaton(ring=ring, alphabet=alphabet, states=states,
                          initial=initial, final=final, transitions={})
    A._index(arrows)
    return A


def trim(A: WeightedAutomaton) -> WeightedAutomaton:
    """Restrict to states both reachable from I and co-reachable to F;
    A itself when every state is."""
    return _trimmed(A.ring, A.alphabet, A.states, A.initial, A.final, A.transitions, False) or A


def explore_automaton(ring: Ring, alphabet, seeds: Mapping,
                      successors: Callable[[Hashable], Iterable[tuple]],
                      final: Callable[[Hashable], RingValue],
                      name: Callable[[Hashable], str]) -> WeightedAutomaton:
    """The trimmed weighted automaton on the states explore() finds.

    ``seeds`` maps each seed state to its initial weight; every other
    state gets zero.  ``successors`` is as for explore().  ``name(state)``
    and ``final(state)`` are each called once per explored state, trimmed
    ones too, in numbering order, so a ``name`` may count the states it
    has seen (build_automaton_dumas numbers its g{j}n{t} copy states that
    way).  The states are trimmed on their indices (the rule of trim()),
    and the explored arrows stream, renumbered, into the machine's index,
    assembled, and checked, once; arrows whose weights summed to zero are
    dropped.  Every explored state was found along an arrow from a seed,
    so when none sums to zero and no seed weighs zero, all are reachable
    from I and the trim takes only the closure to F.
    """
    order, trans = explore(seeds, successors)
    states = tuple(map(name, order))
    finals = tuple(map(final, order))
    initial = (*seeds.values(), *[ring.zero] * (len(order) - len(seeds)))
    reached = all(seeds.values()) and all(w.payload for w in trans.values())
    del order
    return (_trimmed(ring, alphabet, states, initial, finals, trans, reached)
            or _assembled(ring, alphabet, states, initial, finals, trans.items()))


def explore_dfa(alphabet, seed: Hashable, expand: Callable, prefix: str) -> DfaWithOutput:
    """The DfaWithOutput on the states explore() reaches from the seed.
    ``expand(state)`` gives (its successors, one per label in alphabet
    order, its output), called once per state as explore() reaches it;
    state i is named prefix + str(i)."""
    alphabet = tuple(alphabet)
    outputs: list = []

    def successors(state):
        targets, out = expand(state)
        outputs.append(out)
        return zip(alphabet, targets, repeat(None))

    # explore's arrow dict lives only while the table is built from it
    table = {(src, label): dst for src, label, dst in explore([seed], successors)[1]}
    return DfaWithOutput(alphabet=alphabet, initial=0, transitions=table,
                         states=tuple(f"{prefix}{i}" for i in range(len(outputs))),
                         outputs=tuple(outputs))


def same_structure(A: WeightedAutomaton, B: WeightedAutomaton) -> bool:
    """Identical states, alphabet, vectors and transition table."""
    return (A.ring == B.ring and A.alphabet == B.alphabet and A.states == B.states
            and A.initial == B.initial and A.final == B.final
            and A.transitions == B.transitions)


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
        weights = {p for *_k, p in _flat(A._arrows)} | {v.payload for v in A.initial + A.final}
        if not weights <= {0, 1}:
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


def cauchy_product(A1: WeightedAutomaton, A2: WeightedAutomaton,
                   add: UnambiguousAutomaton) -> WeightedAutomaton:
    """Automaton for the coefficientwise convolution h_n = sum f_m g_{n-m}.

    ``add`` reads triples (a, b, c) of digits and accepts exactly the
    digitwise triples of canonical-up-to-padding expansions with value(a)
    + value(b) = value(c).  Both factors must be leading-zero invariant,
    since the summand expansions get padded to the length of the result.
    A factor passes when I mu(0) = I, for then weight(0^k w) =
    I mu(0)^k mu(w) F = weight(w); any other factor is refused, although
    some of those are invariant by a longer argument.
    """
    if A1.ring != A2.ring:
        raise AutomatonError(f"factor rings differ: {A1.ring.spec} vs {A2.ring.spec}")
    for which, A in (("first", A1), ("second", A2)):
        init = _initial_payload(A)
        if _step_payload(A, init, 0) != init:
            raise AutomatonError(
                f"the {which} factor is not leading-zero invariant: I mu(0) != I")
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
    reduce = ring._reduce
    # one value per distinct weight; over Q each is made anew
    made = partial(RingValue, ring)
    if ring != RATIONALS:
        made = _memo(made, ring.zero)

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
                        yield b3, (qa2, d1, d2), made(reduce(w1 * w2))

    def final(triple):
        qa, s1, s2 = triple
        return (made(reduce(A1.final[s1].payload * A2.final[s2].payload))
                if AA.final[qa] else ring.zero)

    return explore_automaton(
        ring, out_labels, seeds, successors, final,
        lambda t: f"{AA.states[t[0]]}|{A1.states[t[1]]}|{A2.states[t[2]]}")


def _primitive(row: dict) -> dict:
    """A sparse int row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g <= 1 else {c: x // g for c, x in row.items()}


def _insert_row(echelon: dict, row: dict, p: int) -> bool:
    """Gauss-Jordan insert of a sparse int row (column -> nonzero int,
    pivot at its least column) into echelon, a reduced row echelon form
    that maps each pivot column, in order of insertion, to its row.

    Over Fp:p entries are ints mod p and each row is scaled so its pivot
    is 1; over Q (p = 0) rows are primitive integer rows (_primitive
    raises TypeError on a Fraction).  The row is cleared at each pivot
    column it holds; a nonzero rest becomes a new row, cleared from the
    others.  An elimination, row <- a*row - f*pivot_row reduced mod p or
    divided by its content (Bareiss, Math. Comp. 22, 1968, divides by
    the previous pivot instead), touches only the nonzeros of its two
    rows (over Fp:p, where a = 1, only those of the pivot row, in place)
    and keeps each row a multiple of its row of the unique reduced
    echelon form.  The given row is copied once, not changed.  Returns
    whether the row was independent.
    """
    def eliminate(row, prow, c):  # in place when the pivot entry a is 1
        a, f = prow[c], row[c]
        new = row if a == 1 else {k: a * x for k, x in row.items()}
        for k, y in prow.items():  # x is 0 only at a column that row holds
            x = new.get(k, 0) - f * y
            if p:
                x %= p
            if x:
                new[k] = x
            else:
                del new[k]
        return new if p else _primitive(new)

    row = dict(row)  # the caller's row stays as it is
    for c in [c for c in row if c in echelon]:
        row = eliminate(row, echelon[c], c)
    if not row:
        return False
    c = min(row)
    if p:
        inv = pow(row[c], -1, p)
    row = {k: x * inv % p for k, x in row.items()} if p else _primitive(row)
    for k in [k for k, prow in echelon.items() if c in prow]:
        echelon[k] = eliminate(echelon[k], row, c)
    echelon[c] = row
    return True


def _span(A: WeightedAutomaton) -> tuple[list, list]:
    """A basis of the row vectors I mu(w): pivot columns P and sparse rows
    R, with R_k[P_k] = 1 and every other row zero in column P_k, so a y
    in the span of R is sum_k y[P_k] R_k.

    Over Fp:p, R is the reduced row echelon form of the span, the least
    mu-invariant subspace that holds I.  Breadth-first from I, each
    vector I mu(w) is stepped by _step_payload and inserted, as the
    sparse row it is, by _insert_row, and only an independent one has
    its successors queued.  The inserted vectors span the same space as
    R, so that space is closed under every mu(b).  Over Zmod:n, which is
    not a field, R is the unit vector of every state.  Over Q the
    insert raises TypeError on the Fraction payloads.  There is no
    kernel screen as in equations._kernel_basis: here the kernel has
    dimension n - rank (78 of 110 on fib@Fp:2 squared), so its dot
    products would cost more than the sparse eliminations they spare.
    """
    ring = A.ring
    n = len(A.states)
    if not ring.is_field:
        return list(range(n)), [{s: ring.one.payload} for s in range(n)]
    p = ring.characteristic
    echelon: dict = {}
    todo = [_initial_payload(A)]
    for vec in todo:
        if vec and _insert_row(echelon, vec, p):
            todo.extend(_step_payload(A, vec, b) for b in A.alphabet)
    return list(echelon), list(echelon.values())


def determinize(A: WeightedAutomaton, direction: str = "direct") -> DfaWithOutput:
    """Weight-vector subset construction over a finite ring.

    direction "direct": states are row vectors I * mu(w); the output of the
    state reached by w is weight(A, w).  direction "reverse": states are
    column vectors mu(w) * F, so the output after w is weight(A, reverse(w));
    that is the direct construction on the transposed machine (I and F
    swapped, arrows reversed).

    A state is held as the coordinates c_k = y[P_k] of its vector y in
    the basis R of _span: over Fp:p the reduced echelon rows of the span
    of the vectors, over Zmod:n, which is not a field, the unit vector of
    each state, so that c = y.  Label b maps c to c M_b, where row k of
    M_b holds the coordinates of R_k mu(b), and the output of c is
    c . (R F).  The coordinates are a linear bijection of the span onto
    its coordinate space, so the states, their numbering, the arrows and
    the outputs are those of the construction on the vectors, stepped in
    the span's dimension instead of the state count.

    The r coordinates of a state are packed into one int, c_k in bits
    [k W, (k + 1) W), with W = bit_length(nch (n - 1)) + 1 for the
    ring's modulus n, and cut into nch chunks of S coordinates, S the
    largest s >= 1 with n^s <= 256.  One int of m r + 1 such fields, m
    the alphabet size, holds a state's whole step: a block of r fields
    per label in _label_key order, c M_b, then one field, c . (R F).
    It is the sum of the chunks' contributions, each memoized, reduced,
    per chunk and chunk value on first use ("Four Russians": Arlazarov,
    Dinic, Kronrod and Faradzev, 1970); a zero chunk adds nothing.  So
    a state costs one walk over its chunks and one reduction: a summed
    field is at most nch (n - 1) < 2^(W - 1), so its top bit is free as
    a guard, and for t from bit_length(nch) - 1 down to 0, n 2^t is
    subtracted from every field that the guard shows is at least n 2^t,
    all fields in one int operation.
    """
    if direction not in ("direct", "reverse"):
        raise AutomatonError(f"unknown direction {_quote(direction)}")
    if A.ring.cardinality is None:
        raise RingError(f"determinization needs a finite ring, not {A.ring.spec}")
    if direction == "reverse":  # the transpose, streamed from A's index
        A = _assembled(A.ring, A.alphabet, A.states, A.final, A.initial,
                       (((d, b, s), RingValue(A.ring, p)) for s, b, d, p in _flat(A._arrows)))
    ring = A.ring
    n = ring.characteristic
    pivots, basis = _span(A)
    r = len(basis)
    S = next(s for s in count(1) if n ** (s + 1) > 256)
    nch = -(-r // S)
    W = (nch * (n - 1)).bit_length() + 1
    alphabet = sorted(A.alphabet, key=_label_key)
    block = r * W  # the bits of one label's successor
    *starts, out_at = [i * block for i in range(len(alphabet) + 1)]  # the blocks, the output
    where = {c: k * W for k, c in enumerate(pivots)}  # pivot column -> field offset
    # row k of every M_b, each at its label's block, and R_k . F in the output field
    rows = [[(i * block + where[s], a) for i, b in enumerate(alphabet)
             for s, a in _step_payload(A, row, b).items() if s in where]
            + [(out_at, _gather_payload(A, row.items()).payload)] for row in basis]
    chunks = [(rows[j:j + S], {}) for j in range(0, r, S)]  # each chunk's rows and memo
    field, span = (1 << W) - 1, S * W
    chunk, mask = (1 << span) - 1, (1 << block) - 1
    ones = sum(1 << k * W for k in range(len(alphabet) * r + 1))
    guard, top = ones << W - 1, W - 1
    subtract = [(guard - (n << t) * ones, n << t) for t in reversed(range(nch.bit_length()))]
    value = _memo(partial(RingValue, ring), ring.zero)  # one per distinct output

    def expand(x):  # the successors, label by label, and the output of state x
        acc = 0
        for rows, memo in chunks:
            key = x & chunk
            x >>= span
            if not key:
                continue
            v = memo.get(key)
            if v is None:
                sums = {}
                y = key
                for row in rows:
                    a = y & field
                    y >>= W
                    if a:
                        for off, m in row:
                            sums[off] = sums.get(off, 0) + a * m
                v = 0
                for off, s in sums.items():
                    v |= s % n << off
                memo[key] = v
            acc += v
        for bias, k in subtract:
            acc -= (((acc + bias) & guard) >> top) * k
        return [acc >> at & mask for at in starts], value(acc >> out_at)

    seed = sum(A.initial[c].payload << off for c, off in where.items())
    return explore_dfa(alphabet, seed, expand, "v")
