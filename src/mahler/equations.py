"""Mahler-type functional equations and their automaton compilers.

An equation couples a power series y over a commutative ring to its
images under a substitution operator Phi.  In base q, Phi(y)(x) =
y(x^q); in Zeckendorf numeration, Phi moves the coefficient at n to
position phi(n).  We store

    A_0(x) * y = A_1(x) * Phi(y) + ... + A_d(x) * Phi^d(y) + g(x)

as a sparse table alpha[(i, j)] holding the x^j coefficient of A_i,
plus f0 and an optional polynomial inhomogeneous part g.  The equation
is *isolating* when A_0 = 1.  Coefficients of an isolating equation
satisfy the well-founded recurrence

    f_n = sum of alpha[i, j] * f_k over i >= 1 and op^i(k) + j = n,
          plus g_n,

where op is multiplication by q resp. phi; n = 0 turns into the
compatibility constraint on f0.  solve_series implements the recurrence
directly and is the oracle every automaton built here is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from math import lcm
from types import MappingProxyType
from typing import Mapping, Optional

from .automata import defect_automaton, polynomial_automaton, shift_regular
from .numeration import (
    ZECKENDORF,
    Base,
    NumerationError,
    NumerationKind,
    Zeckendorf,
    as_digits,
    canonical,
    floor_phi,
    format_word,
    has_adjacent_ones,
    pad,
    phi,
    preimages,
    word_alphabet,
)
from .rings import (RATIONALS, Ring, RingError, RingValue, SeriesPrefix, _decimal, _integral,
                    _quote, _series, parse_ring)
from .wfa import (
    WeightedAutomaton,
    _insert_row,
    _reduce_by_init,
    eval_sequence,
    explore_automaton,
    sequence_prefix,
    weight,
)


class EquationError(ValueError):
    """An equation violates a precondition of the requested operation."""


class EquationFileError(EquationError):
    """Malformed equation file; the message names the offending line."""


def _index(x) -> bool:
    """x can index alpha or a polynomial: an int >= 0, not a bool, which
    an equation file could not spell."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _int(name: str, x) -> int:
    """x when it is an int and not a bool; else one EquationError naming x."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise EquationError(f"{name} must be an int, not {type(x).__name__} {_quote(x)}")
    return x


def _table(x, name: str) -> dict:
    """dict(x); a field that is neither a mapping nor pairs is named."""
    try:
        return dict(x)
    except (TypeError, ValueError):
        raise EquationError(f"{name} {_quote(x)} is not a mapping") from None


@dataclass(frozen=True, eq=False)
class MahlerEquation:
    """A_0(x) y = sum_{i=1}^{d} A_i(x) Phi^i(y) + g(x), sparse coefficients.

    alpha maps (i, j) to the x^j coefficient of A_i; zero entries are
    dropped on construction.  d and h are derived from the support: d is
    the largest i with A_i nonzero, h the largest j appearing anywhere.
    g_poly maps exponents to the coefficients of the polynomial
    inhomogeneous part; most equations leave it empty.  For another f0,
    use dataclasses.replace(P, f0=...), which derives d and h again.
    """

    ring: Ring
    kind: NumerationKind
    alpha: Mapping
    f0: RingValue
    g_poly: Mapping = None
    d: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        ring = self.ring
        if not isinstance(ring, Ring):
            raise EquationError(f"ring must be a Ring, not {_quote(ring)}")
        if not isinstance(self.kind, (Base, Zeckendorf)):
            raise EquationError(f"unknown numeration kind: {_quote(self.kind)}")
        clean = {}
        for key, val in _table(self.alpha, "alpha").items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise EquationError(f"alpha key {_quote(key)} is not an (i, j) pair") from None
            if not (_index(i) and _index(j)):
                raise EquationError(f"alpha index {_quote(key)} out of range")
            if v := ring.element(val):
                clean[(i, j)] = v
        if not clean:
            raise EquationError("equation has no nonzero coefficient")
        g = {}
        for j, val in _table(self.g_poly or {}, "g_poly").items():
            if not _index(j):
                raise EquationError(f"g exponent {_quote(j)} out of range")
            if v := ring.element(val):
                g[j] = v
        object.__setattr__(self, "alpha", MappingProxyType(clean))
        object.__setattr__(self, "g_poly", MappingProxyType(g))
        object.__setattr__(self, "f0", ring.element(self.f0))
        object.__setattr__(self, "d", max(i for i, _ in clean))
        object.__setattr__(self, "h", max(j for _, j in clean))

    __reduce__ = _reduce_by_init

    def coefficient(self, i: int, j: int) -> RingValue:
        return self.alpha.get((i, j), self.ring.zero)

    def g(self, j: int) -> RingValue:
        return self.g_poly.get(j, self.ring.zero)

    @property
    def is_homogeneous(self) -> bool:
        return not self.g_poly

    def __repr__(self):
        kind = f"base {self.kind.q}" if isinstance(self.kind, Base) else "zeckendorf"
        extra = "" if self.is_homogeneous else ", inhomogeneous"
        return (f"<MahlerEquation {kind} over {self.ring.spec}, "
                f"d={self.d}, h={self.h}{extra}>")


def is_isolating(P: MahlerEquation) -> bool:
    """True when A_0 = 1 (the single coefficient alpha[0, 0] = 1)."""
    a00 = P.alpha.get((0, 0))
    if a00 is None or not a00.is_one():
        return False
    return all(i != 0 or j == 0 for (i, j) in P.alpha)


def _compat_sides(P: MahlerEquation, g0: RingValue):
    """Both sides of the n = 0 coefficient identity for P.f0 and g_0 = g0."""
    rhs = sum((a * P.f0 for (i, j), a in P.alpha.items() if i >= 1 and j == 0), g0)
    return P.coefficient(0, 0) * P.f0, rhs


def compatible_f0(P: MahlerEquation) -> bool:
    """n = 0 instance of the recurrence: alpha[0,0] f0 = sum_{i>=1} alpha[i,0] f0 + g_0.

    For an isolating homogeneous equation this is f0 = (sum of the
    constant terms of A_1..A_d) * f0, with the equation's own f0 and g_0.
    """
    lhs, rhs = _compat_sides(P, P.g(0))
    return lhs == rhs


def _isolating_f0(P: MahlerEquation, g0: RingValue) -> RingValue:
    """P.f0, after checking that P is isolating and that P.f0 satisfies
    the n = 0 identity with g_0 = g0."""
    if not is_isolating(P):
        raise EquationError(
            "equation is not isolating (A_0 != 1); only isolating equations "
            "determine their coefficients by recurrence")
    lhs, rhs = _compat_sides(P, g0)
    if lhs != rhs:
        raise EquationError(
            f"f0 = {P.f0} is not compatible: the n = 0 coefficient identity "
            f"needs {lhs} = {rhs}")
    return P.f0


def _payloads(ring: Ring, s, what: str) -> tuple:
    """Payloads of a SeriesPrefix (read as they are) or of a sequence of
    ring elements (each through ring.element)."""
    if isinstance(s, SeriesPrefix):
        if s.ring != ring:
            raise EquationError(f"{what} ring differs from the equation ring")
        return s.payloads
    return tuple(ring.element(v).payload for v in s)


def _g_payloads(P: MahlerEquation, g, N: int) -> list:
    """Payloads of g_0..g_N; an explicit prefix overrides the polynomial part."""
    if g is None:
        out = [P.ring.zero.payload] * (N + 1)
        for j, v in P.g_poly.items():
            if j <= N:
                out[j] = v.payload
        return out
    seq = _payloads(P.ring, g, "g series")
    if len(seq) <= N:
        raise EquationError(f"g prefix too short: need g_0..g_{N}, got {len(seq)} entries")
    return seq


def _term_sums(reduce, items: list, vals: list, out: list, g, n0: int) -> list:
    """The term loop of solve_series and residual: out[n] = g[n] + native
    sum of a * vals[pre_i[n - j]] over the items (j, a, pre_i), n = n0..N,
    reduced unless reduce is None.  Each table is read shifted by j (a -1
    for n < j), and a -1 reads the zero at vals[N + 1]: no branch per term."""
    N = len(vals) - 2
    terms = [(a, [-1] * min(j, N + 1) + pre_i[:max(N + 1 - j, 0)]) for j, a, pre_i in items]
    for n in range(n0, N + 1):
        acc = g[n]
        for a, tab in terms:
            acc += a * vals[tab[n]]
        out[n] = acc if reduce is None else reduce(acc)
    return out


def _oracle(ring: Ring, items: list, src, g, N: int, depth: int, n0: int) -> SeriesPrefix:
    """_term_sums as a SeriesPrefix, on [f_0], each f_n written where it is
    read (n0 = 1), or on a copy of s_0..s_N (n0 = 0).  Over Q on ints: D, c the
    lcms of the denominators of the items, of src and g_0..g_N (_integral),
    S = c D^depth: a sum of D a, S s, D S g is D S times its entry, // D exact
    when S times each entry is an int, and it leaves as one Fraction(x, S)."""
    reduce = ring._reduce if ring.characteristic else None
    if ring == RATIONALS:
        D, alphas = _integral([a for _j, a, _pre in items])
        c, ints = _integral([*src, *islice(g, N + 1)])
        scale, n = D ** depth, len(src)
        src, g = [x * scale for x in ints[:n]], [x * scale * D for x in ints[n:]]
        items = [(j, a, pre) for (j, _a, pre), a in zip(items, alphas)]
        reduce = (lambda x: x // D) if D > 1 else None
    vals = [*src, *repeat(0, N + 2 - len(src))]
    sums = islice(_term_sums(reduce, items, vals, vals if n0 else [0] * (N + 1), g, n0), N + 1)
    if ring != RATIONALS:
        return _series(ring, sums)
    S, zero = c * scale, ring.zero.payload
    return _series(ring, [Fraction(x, S) if x else zero for x in sums])


def solve_series(P: MahlerEquation, N: int, g=None) -> SeriesPrefix:
    """f_0..f_N by the coefficient recurrence; the oracle for every builder.

    Requires the isolating form; f_0 is P.f0.  Each f_n with n >= 1
    collects alpha[i, j] * f_k over all i >= 1 and k with op^i(k) + j = n
    (all such k are < n, so the recurrence is well-founded), plus g_n.
    An explicit g prefix overrides the equation's polynomial part.  The
    k come from one preimage table per distinct i, all composed from one
    i = 1 table; the oracle uses numeration code only, never an
    automaton.  The sums are _term_sums, the loop residual shares, each
    f_n written where it is read; over Q on ints (_oracle, depth E =
    len(canonical(N))): a k with op^i(k) + j = n, i >= 1, has fewer digits
    than n, so by induction f_n c D^len(canonical(n)) is an int.
    """
    if N < 0:
        raise EquationError(f"need N >= 0, got {N}")
    g_pay = _g_payloads(P, g, N)
    f0 = _isolating_f0(P, RingValue(P.ring, g_pay[0])).payload
    pre = preimages(P.kind, N, (i for (i, _) in P.alpha if i >= 1))
    items = [(j, a.payload, pre[i]) for (i, j), a in sorted(P.alpha.items()) if i >= 1]
    return _oracle(P.ring, items, [f0], g_pay, N, len(canonical(N, P.kind)), 1)


def residual(P: MahlerEquation, s, g=None) -> SeriesPrefix:
    """Coefficients of A_0 s - sum_{i>=1} A_i Phi^i(s) - g, to the order of s.

    Identically zero exactly when s solves the equation up to its
    truncation order.  Works for non-isolating equations; needs no
    coefficients beyond the prefix because phi(k) >= k and q*k >= k.
    The term loop is solve_series's _term_sums, run on s and -g with A_0
    in it: alpha[i, j] adds +-alpha[i, j] * s_k for the k with op^i(k) + j
    = n, + for i = 0 (the depth-0 table is the identity) and - for i >= 1.
    A SeriesPrefix is read from its payloads with no second check.  Over
    Q it runs on ints (_oracle, depth 1: S r_n is an int).
    """
    ring = P.ring
    seq = _payloads(ring, s, "series")
    if not seq:
        raise EquationError("empty series prefix")
    N = len(seq) - 1
    g_pay = _g_payloads(P, g, N)
    pre = preimages(P.kind, N, (i for (i, _) in P.alpha))
    items = [(j, (-a if i else a).payload, pre[i]) for (i, j), a in sorted(P.alpha.items())]
    neg_g = [-v if v else v for v in islice(g_pay, N + 1)]  # over Q, -0 is a new Fraction
    return _oracle(ring, items, seq, neg_g, N, 1, 0)


# ---------------------------------------------------------------------------
# equation files

# directive -> usage line, one word per token (numeration checks its two forms)
_USAGE = {"ring": "ring <spec>", "d": "d <int>", "h": "h <int>", "f0": "f0 <element>",
          "alpha": "alpha <i> <j> <element>", "g": "g <j> <element>"}


def parse_equation(text: str) -> MahlerEquation:
    """Parse the line-oriented equation format.

    Directives: `ring <spec>`, `numeration base <q>` or `numeration
    zeckendorf`, `d <int>`, `h <int>`, `f0 <element>`, one `alpha <i>
    <j> <element>` per nonzero coefficient, optional `g <j> <element>`
    lines for a polynomial inhomogeneous part.  Blank lines and lines
    starting with `#` are skipped.  Declared d/h must match the
    coefficient support.
    """

    def fail(lineno, msg):
        raise EquationFileError(f"line {lineno}: {msg}")

    def intval(tok, lineno, what):
        try:
            return _decimal(tok)
        except ValueError:
            fail(lineno, f"{what} must be an integer, got {_quote(tok)}")

    ring = None
    kind = None
    decl = {}
    f0_entry = None
    alpha_entries = {}
    g_entries = {}
    singles = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        key = toks[0]
        if key in ("ring", "numeration", "d", "h", "f0"):
            if key in singles:
                fail(lineno, f"duplicate {key} line")
            singles.add(key)
        if (usage := _USAGE.get(key)) and len(toks) != len(usage.split()):
            fail(lineno, f"expected: {usage}")
        if key == "ring":
            try:
                ring = parse_ring(toks[1])
            except RingError as e:
                fail(lineno, str(e))
        elif key == "numeration":
            if len(toks) == 2 and toks[1] == "zeckendorf":
                kind = ZECKENDORF
            elif len(toks) == 3 and toks[1] == "base":
                try:
                    kind = Base(intval(toks[2], lineno, "base"))
                except NumerationError as e:
                    fail(lineno, str(e))
            else:
                fail(lineno, "expected: numeration base <q>  or  numeration zeckendorf")
        elif key in ("d", "h"):
            decl[key] = (lineno, intval(toks[1], lineno, key))
        elif key == "f0":
            f0_entry = (lineno, toks[1])
        elif key == "alpha":
            i = intval(toks[1], lineno, "alpha index i")
            j = intval(toks[2], lineno, "alpha index j")
            if i < 0 or j < 0:
                fail(lineno, f"alpha indices must be nonnegative, got {_quote((i, j))}")
            if (i, j) in alpha_entries:
                fail(lineno, f"duplicate alpha {_quote((i, j))}")
            alpha_entries[(i, j)] = (lineno, toks[3])
        elif key == "g":
            j = intval(toks[1], lineno, "g exponent")
            if j < 0:
                fail(lineno, f"g exponent must be nonnegative, got {_quote(j)}")
            if j in g_entries:
                fail(lineno, f"duplicate g {_quote(j)}")
            g_entries[j] = (lineno, toks[2])
        else:
            fail(lineno, f"unknown directive {_quote(key)}")
    for what, seen in (("ring line", ring), ("numeration line", kind),
                       ("f0 line", f0_entry), ("alpha lines", alpha_entries)):
        if not seen:
            raise EquationFileError(f"missing {what}")

    def element(entry, what):
        lineno, tok = entry
        try:
            return ring.parse(tok)
        except RingError as e:
            fail(lineno, f"bad {what}: {e}")

    f0 = element(f0_entry, "f0")
    alpha = {key: element(entry, f"alpha {_quote(key[0])} {_quote(key[1])}")
             for key, entry in alpha_entries.items()}
    g_poly = {j: element(entry, f"g {_quote(j)}") for j, entry in g_entries.items()}
    if not any(alpha.values()):
        raise EquationFileError("all alpha coefficients are zero")
    P = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=f0, g_poly=g_poly)
    for key, true in (("d", P.d), ("h", P.h)):
        if key in decl and decl[key][1] != true:
            fail(decl[key][0], f"declared {key} = {_quote(decl[key][1])} but the alpha "
                               f"lines give {key} = {_quote(true)}")
    return P


def format_equation(P: MahlerEquation) -> str:
    """Inverse of parse_equation, with coefficients in lexicographic order."""
    kind = f"base {P.kind.q}" if isinstance(P.kind, Base) else "zeckendorf"
    lines = [f"ring {P.ring.spec}", f"numeration {kind}", f"d {P.d}", f"h {P.h}", f"f0 {P.f0}"]
    lines += [f"alpha {i} {j} {P.alpha[(i, j)]}" for (i, j) in sorted(P.alpha)]
    lines += [f"g {j} {P.g_poly[j]}" for j in sorted(P.g_poly)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation, one construction for both numerations

def _h_tilde(kind: NumerationKind, h: int) -> int:
    """The largest grid offset h~ for exponent h: max(0, ceil(h/(q-1)) - 1)
    in base q, floor((h+2)*phi) - 1 in Zeckendorf."""
    if isinstance(kind, Base):
        return max(0, -(-h // (kind.q - 1)) - 1)
    return floor_phi(h + 2) - 1


@dataclass(frozen=True)
class ZSpaceInfo:
    """Grid parameters of the Zeckendorf construction for one equation.

    grid_bound counts the full state grid d * (h~+1) * 5 * 2^g before
    any trimming; trim_bound is the 320*d*h^2 cap the trimmed automaton
    is expected to respect (meaningful for h >= 1).
    """

    h_tilde: int
    window: int
    grid_bound: int
    trim_bound: int


def z_state_space(P: MahlerEquation) -> ZSpaceInfo:
    """Offsets run 0..h~ with h~ = floor((h+2)*phi) - 1; windows have
    length g = |canonical(h~)|."""
    ht = _h_tilde(ZECKENDORF, P.h)
    g = len(canonical(ht))
    d = max(P.d, 1)
    return ZSpaceInfo(h_tilde=ht, window=g, grid_bound=d * (ht + 1) * 5 * (2 ** g),
                      trim_bound=320 * d * P.h * P.h)


def _build(P: MahlerEquation, G: Optional[WeightedAutomaton],
           extra_i: int = 0, extra_j: int = 0) -> WeightedAutomaton:
    """The construction for f = sum_i A_i Phi^i(f) + g in either
    numeration; G is an automaton for g (Zeckendorf only), or None for
    g = 0.

    A grid state is (i, j, r, u): layer i <= d-1, offset j <= h~
    (_h_tilde; offsets above it cannot occur on a path with nonzero
    weight and are cut), and a context (r, u) that only Zeckendorf uses.
    Reading digit b either descends one layer with weight 1, tracking the
    offset j -> ell, or closes the block of layers with weight
    alpha[i+1, ell-k] into s_{0,k}.  I = P.f0 on the j = 0 column, F = 1
    exactly on layer-0 states with offset 0.  Leading zeros do not change
    weights: compatibility of f0 makes the initial vector stable under
    reading 0.  Only ell, the alphabet, the seeds and the state names
    depend on the numeration:

    - Base q: the shift is linear, ell = qj + b, and (r, u) = (None, ()).
      A digit past h + h~ - qj closes no block and descends nowhere, so
      only digits below min(q, h + h~ - qj + 1) are read.  The whole grid
      is seeded in row order (initial weight zero off the j = 0 column),
      so explore() numbers the states i-major; names are s{i}_{j}.
    - Zeckendorf: r is a defect-automaton state and the window u holds
      the last g input digits (the word is implicitly padded with g
      leading zeros).  Running the defect automaton from r over the
      digitwise difference u - (j)_Z gives the linearity defect, and ell
      = phi(j) + defect + b.  The run never takes the one missing defect
      edge (q0 on -1): only digits of value below j would, and no offset
      exceeds the value of the digits read (after n, ell = phi(n) -
      phi(n - j) + b, k <= ell, and x^j g feeds offset j only from value
      j on).  Consuming the oldest window digit u[0] moves the defect
      state on, and the window becomes u[1:] + (b,).  The guess b = 1 is
      cut when the window already ends in 1: no adjacent-ones-free word
      takes that edge, so cutting it keeps weights intact on the whole
      contract domain while keeping the explored grid small.  The seeds
      are s_{i,0,q0,0^g}; names are s{i}_{j}_q{r}_u{u}.

    For a nonzero g, each offset j <= h~ also gets a copy of the automaton
    B_j for x^j g (x^(j-1) g shifted once more), run in lockstep with the
    defect state and digit window of the grid: copy states are ("g", j,
    b, r, u), state b of B_j, seeded from the initial states of B_j and
    named g{j}n{t}, t counting them in order of discovery.  Each copy
    state keeps the arrows of b, and on digit e gains one arrow into the
    grid state s_{0,j,r,u} weighted sum w F[d] over the arrows b -e-> d of
    B_j (when nonzero); this injects g_{n-j} into the offset-j carrier
    exactly where the recurrence wants it.  The empty-word mass of each
    B_j is dropped: canonical expansions are never empty, and the n = 0
    identity is instead enforced up front as compatibility of f0 with g_0
    (without it no automaton of this shape can compute the series, since
    the weight of "0" always equals the right-hand side of that
    identity).  The result is trimmed.

    extra_i/extra_j widen the grid beyond the cutoffs; the extra states
    never occur on a nonzero-weight path, so the evaluated sequence must
    not change.  Only tests widen it, to check exactly that.
    """
    ring = P.ring
    f0 = _isolating_f0(
        P, ring.zero if G is None else eval_sequence(G, ZECKENDORF, 0))
    one = ring.one
    alpha = P.alpha
    d = max(P.d, 1) + extra_i
    h = P.h
    ht = _h_tilde(P.kind, h) + extra_j
    zeck = isinstance(P.kind, Zeckendorf)
    if zeck:
        g = len(canonical(ht))
        dfa = defect_automaton()
        dtrans = dict(dfa.transitions)
        douts = dfa.outputs
        phi_tab = [phi(j) for j in range(ht + 1)]
        pad_tab = [pad(canonical(j), g) for j in range(ht + 1)]
        u0 = (0,) * g
        seeds = {(i, 0, dfa.initial, u0): f0 for i in range(d)}
    else:
        q = P.kind.q
        seeds = {(i, j, None, ()): f0 if j == 0 else ring.zero
                 for i in range(d) for j in range(ht + 1)}
    parts = []
    for j in range(ht + 1 if G is not None else 0):
        xg = G if j == 0 else shift_regular(xg, 1)   # x^j g
        parts.append(xg)
        for sidx, w in enumerate(xg.initial):
            if w:
                seeds["g", j, sidx, dfa.initial, u0] = w

    def successors(state):
        if state[0] == "g":
            _tag, j, bs, r, u = state
            Bj = parts[j]
            r = dtrans[r, u[0]]
            for b in (0,) if u[-1] == 1 else (0, 1):
                u2 = u[1:] + (b,)
                into = ring.zero
                for dst, w in Bj._arrows.get(b, {}).get(bs, ()):
                    w = RingValue(ring, w)
                    yield b, ("g", j, dst, r, u2), w
                    into = into + w * Bj.final[dst]
                if into:
                    yield b, (0, j, r, u2), into
            return
        i, j, r, u = state
        if zeck:
            s = r
            pj = pad_tab[j]
            for t in range(g):
                s = dtrans[s, u[t] - pj[t]]
            ell0 = phi_tab[j] + douts[s]   # the offset after digit b is ell0 + b
            r = dtrans[r, u[0]]
            digits = (0,) if u[-1] == 1 else (0, 1)
        else:
            ell0 = q * j
            digits = range(min(q, h + ht - ell0 + 1))
        for b in digits:
            u2 = u and u[1:] + (b,)   # the window slides on; base q has none
            ell = ell0 + b
            if i + 1 < d and 0 <= ell <= ht:
                yield b, (i + 1, ell, r, u2), one
            if ell >= 0:
                for k in range(max(0, ell - h), min(ht, ell) + 1):
                    a = alpha.get((i + 1, ell - k))
                    if a is not None:
                        yield b, (0, k, r, u2), a

    part_size = [0] * len(parts)

    def name(state):
        if state[0] != "g":
            i, j, r, u = state
            return f"s{i}_{j}_q{r}_u{''.join(map(str, u))}" if zeck else f"s{i}_{j}"
        j = state[1]
        part_size[j] += 1
        return f"g{j}n{part_size[j] - 1}"

    return explore_automaton(
        ring, word_alphabet(P.kind), seeds, successors,
        lambda state: one if state[:2] == (0, 0) else ring.zero, name)


def build_automaton_q(P: MahlerEquation) -> WeightedAutomaton:
    """Weighted automaton computing f_n on base-q expansions of n: the
    base-q case of the one construction (_build), g = 0, on its cut
    grid."""
    if not isinstance(P.kind, Base):
        raise EquationError("build_automaton_q needs a base-q equation")
    if P.g_poly:
        raise EquationError(
            "inhomogeneous equations are supported only over Zeckendorf "
            "numeration (build_automaton_dumas)")
    return _build(P, None)


def build_automaton_z(P: MahlerEquation) -> WeightedAutomaton:
    """Weighted automaton computing f_n on Zeckendorf expansions of n.

    The Zeckendorf case g = 0 of the one construction (_build): the grid
    alone, seeded with P.f0.  The contract covers every adjacent-ones-free
    word, with leading zeros allowed; evaluate through weight_z to get the
    adjacent-ones check.
    """
    if not isinstance(P.kind, Zeckendorf):
        raise EquationError("build_automaton_z needs a Zeckendorf equation")
    if P.g_poly:
        raise EquationError(
            "inhomogeneous equations need build_automaton_dumas")
    return _build(P, None)


def weight_z(A: WeightedAutomaton, word) -> RingValue:
    """Zeckendorf-contract evaluation: rejects words with adjacent ones."""
    w = as_digits(word)
    if has_adjacent_ones(w):
        raise NumerationError(
            f"word {_quote(format_word(w))} has adjacent ones; Zeckendorf automata "
            "are specified on adjacent-ones-free words only")
    return weight(A, w)


def build_automaton_dumas(P: MahlerEquation,
                          G: WeightedAutomaton = None) -> WeightedAutomaton:
    """Solution automaton for f = sum_i A_i Phi^i(f) + g with regular g.

    The Zeckendorf case of the one construction (_build) with the
    automaton G for g; G defaults to the polynomial automaton of the
    equation's g lines.  A homogeneous equation with no G is the case
    g = 0: no copies of g, and the machine of build_automaton_z.  P.f0
    must satisfy the n = 0 identity with the g_0 that G gives.
    """
    if not isinstance(P.kind, Zeckendorf):
        raise EquationError("build_automaton_dumas needs a Zeckendorf equation")
    if G is None:
        if P.g_poly:
            G = polynomial_automaton([P.g(j) for j in range(max(P.g_poly) + 1)],
                                     ZECKENDORF, P.ring)
    else:
        if P.g_poly:
            raise EquationError(
                "pass the inhomogeneous part either as g lines or as an "
                "automaton, not both")
        if G.ring != P.ring:
            raise EquationError("g automaton ring differs from the equation ring")
        if not set(G.alphabet) <= {0, 1}:
            raise EquationError("g automaton must read the digits {0, 1}")
    return _build(P, G)


# ---------------------------------------------------------------------------
# reverse direction: from automaton to equation

def _kernel_vectors(echelon: dict, ncols: int) -> tuple[int, list]:
    """(L, V): sparse int vectors V spanning the right kernel of an
    echelon form of wfa._insert_row, one per free column f in ascending
    order, with L at f and -m[f] L / m[c] at the pivot c of each row m;
    L is the lcm of the pivot entries (1 over Fp:p)."""
    L = lcm(*(m[c] for c, m in echelon.items()))
    return L, [{f: L, **{c: -m[f] * (L // m[c]) for c, m in echelon.items() if f in m}}
               for f in range(ncols) if f not in echelon]


def _kernel_basis(ring: Ring, rows, ncols: int) -> list:
    """Right-kernel basis of a matrix over a field, from sparse int rows
    (column -> nonzero int, possibly lazy): ints mod p over Fp:p, over Q
    the rows of one integer multiple of the matrix, which has its kernel.

    Fraction-free Gauss-Jordan on ints, row by row through
    wfa._insert_row.  Echelon row m with pivot column c is a multiple of
    its row of the unique reduced row echelon form, so -m[f] / m[c] is the
    entry Gauss-Jordan over the field gives (_kernel_vectors): a Fraction
    over Q, an int mod p; one vector per free column f, ascending.

    Over a field the row space is exactly the orthogonal complement of
    the kernel.  So once a row was dependent, a later row orthogonal to
    the kernel vectors of the echelon form so far is dependent too and
    skips the insert; any other row is independent, and its insert
    drops that screen until the next dependent row.
    """
    p = ring.characteristic
    echelon: dict = {}
    screen = None  # kernel vectors of the echelon form, since the last dependent row
    for row in rows:
        if len(echelon) == ncols:
            break  # full rank: every further row is dependent
        dots = (sum(x * row.get(c, 0) for c, x in v.items()) for v in screen or ())
        if screen is not None and not any(d % p if p else d for d in dots):
            continue
        screen = None if _insert_row(echelon, row, p) else _kernel_vectors(echelon, ncols)[1]
    L, kernel = _kernel_vectors(echelon, ncols)
    entry = (lambda x: x % p) if p else (lambda x: Fraction(x, L))
    return [[entry(v.get(c, 0)) for c in range(ncols)] for v in kernel]


def find_relation(A: WeightedAutomaton, kind: NumerationKind, d_max: int,
                  h_max: int, N: int, N_check: int = None) -> Optional[MahlerEquation]:
    """Search for an equation annihilating the sequence of A.

    Sets up the homogeneous linear system "coefficient n of
    sum_{i<=d_max} C_i(x) Phi^i(s) is zero for n = 0..N" in the unknown
    coefficients of the C_i, solves it exactly over the (field) ring of
    A, and re-verifies each kernel basis vector against the longer
    prefix s_0..s_{N_check} (default 4N).  Returns the first candidate
    whose residual vanishes on the whole check prefix, normalized so the
    first nonzero stored coefficient in lexicographic (i, j) order is 1,
    or None.  The choice of basis vectors follows ascending free
    columns, so a zero sequence yields the single coefficient
    alpha[0, 0] = 1.

    Entry (n, (i, j)) of the system is the s_k with op^i(k) + j = n, so
    k <= N: over Q s_0..s_N is scaled to ints once (rings._integral), and
    each row is read off the preimage tables as _kernel_basis takes it.
    """
    ring = A.ring
    if not ring.is_field:
        raise RingError(f"find_relation needs a field ring, got {ring.spec}")
    if _int("d_max", d_max) < 0 or _int("h_max", h_max) < 0:
        raise EquationError("d_max and h_max must be nonnegative")
    if _int("N", N) < 1:
        raise EquationError(f"need N >= 1, got {_quote(N)}")
    N_check = 4 * N if N_check is None else N_check
    if _int("N_check", N_check) <= N:
        raise EquationError(f"N_check must exceed N, got {_quote(N_check)} <= {N}")
    s = sequence_prefix(A, kind, N_check)
    ints = s.payloads if ring.characteristic else _integral(s.payloads[:N + 1])[1]
    cols = [(i, j) for i in range(d_max + 1) for j in range(h_max + 1)]
    pre = preimages(kind, N, range(d_max + 1))
    tabs = [(c, j, pre[i]) for c, (i, j) in enumerate(cols)]
    rows = ({c: x for c, j, pre_i in tabs if n >= j and (k := pre_i[n - j]) >= 0 and (x := ints[k])}
            for n in range(N + 1))
    for v in _kernel_basis(ring, rows, len(cols)):
        alpha = {(i, j): -x if i else x for (i, j), x in zip(cols, v) if x}
        u = ring._inv(alpha[min(alpha)])  # the first coefficient becomes 1
        alpha = {key: u * x for key, x in alpha.items()}  # reduced by MahlerEquation
        cand = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=s[0])
        if residual(cand, s).is_zero():
            return cand
    return None


# ---------------------------------------------------------------------------
# growth of the non-regular example

@dataclass(frozen=True)
class GrowthReport:
    """Coefficients of (1-x) f = Phi(f), f_0 = 1, and growth thresholds.

    The coefficients satisfy f_n = f_{n-1} + f_{lambda(n)} when the
    expansion of n ends in 0, else f_n = f_{n-1}; equivalently f_n is
    the sum of all f_i with i <= lambda(n).  thresholds[k] is the least
    index with f_n > n^k (search restricted to n >= 1 so the k >= 1
    entries are not satisfied vacuously at n = 0; k = 0 reports the
    first n with f_n >= 1), or None when no index up to n_max works.
    """

    n_max: int
    k_max: int
    coefficients: tuple
    thresholds: Mapping

    def __post_init__(self):
        object.__setattr__(self, "thresholds", MappingProxyType(dict(self.thresholds)))

    __reduce__ = _reduce_by_init

    @property
    def prefix(self) -> tuple:
        return self.coefficients[:6]


def growth_analysis(N: int, k_max: int) -> GrowthReport:
    """Coefficients f_0..f_N over plain integers plus growth thresholds.

    Both recurrence forms (the step form and the summation form) are
    computed and compared on every index; a mismatch raises, since they
    are provably equal.
    """
    if N < 1:
        raise EquationError(f"need N >= 1, got {N}")
    if k_max < 0:
        raise EquationError(f"need k_max >= 0, got {k_max}")
    # lambda(n) drops the last Zeckendorf digit.  That digit is 0 exactly
    # when n = phi(k) for some k, and then lambda(n) = k; otherwise
    # n - 1 = phi(lambda(n)).
    pre = preimages(ZECKENDORF, N, (1,))[1]
    f = [1]
    sums = [1]
    for n in range(1, N + 1):
        ln = pre[n]
        if ln >= 0:
            step = f[n - 1] + f[ln]
        else:
            ln = pre[n - 1]
            step = f[n - 1]
        if step != sums[ln]:
            raise EquationError(f"recurrence forms disagree at n = {n}")
        f.append(step)
        sums.append(sums[-1] + step)
    # thresholds[0] scans from n = 0 with f_n >= 1.  For k >= 1 the
    # thresholds never decrease (n^k <= n^(k+1) for n >= 1), so each search
    # resumes where the one for k - 1 stopped, and once one fails every
    # later one fails too: O(N + k_max) comparisons in all.
    thresholds = {0: next((n for n in range(N + 1) if f[n] >= 1), None)}
    n = 1
    for k in range(1, k_max + 1):
        while n <= N and f[n] <= n ** k:
            n += 1
        thresholds[k] = n if n <= N else None
    return GrowthReport(n_max=N, k_max=k_max, coefficients=tuple(f),
                        thresholds=thresholds)
