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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

from .automata import defect_automaton, polynomial_automaton, shift_regular
from .numeration import (
    ZECKENDORF,
    Base,
    NumerationError,
    NumerationKind,
    Zeckendorf,
    _digits,
    as_digits,
    floor_phi,
    format_word,
    has_adjacent_ones,
    pad,
    phi,
    preimages,
)
from .rings import Ring, RingError, RingValue, _quote, parse_ring
from .wfa import (
    WeightedAutomaton,
    eval_sequence,
    explore_automaton,
    sequence_prefix,
    weight,
)


class EquationError(ValueError):
    """An equation violates a precondition of the requested operation."""


class EquationFileError(EquationError):
    """Malformed equation file; the message names the offending line."""


@dataclass(frozen=True)
class SeriesPrefix:
    """Truncated power series: coefficients f_0 .. f_N in one ring."""

    ring: Ring
    coeffs: Tuple[RingValue, ...]

    def __post_init__(self):
        coeffs = tuple(self.ring.element(c) for c in self.coeffs)
        if not coeffs:
            raise EquationError("a series prefix holds at least f_0")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        """The truncation order N."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, SeriesPrefix):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"<SeriesPrefix over {self.ring.spec} to order {self.order}: {head}{tail}>"


@dataclass(frozen=True, eq=False)
class MahlerEquation:
    """A_0(x) y = sum_{i=1}^{d} A_i(x) Phi^i(y) + g(x), sparse coefficients.

    alpha maps (i, j) to the x^j coefficient of A_i; zero entries are
    dropped on construction.  d and h are derived from the support (and
    checked against the declared values when given): d is the largest i
    with A_i nonzero, h the largest j appearing anywhere.  g_poly maps
    exponents to the coefficients of the polynomial inhomogeneous part;
    most equations leave it empty.
    """

    ring: Ring
    kind: NumerationKind
    alpha: Mapping
    f0: RingValue
    g_poly: Mapping = None
    d: int = None
    h: int = None

    def __post_init__(self):
        ring = self.ring
        if not isinstance(self.kind, (Base, Zeckendorf)):
            raise EquationError(f"unknown numeration kind: {self.kind!r}")
        clean = {}
        for key, val in dict(self.alpha).items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise EquationError(f"alpha key {_quote(key)} is not an (i, j) pair") from None
            if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                raise EquationError(f"alpha index {_quote(key)} out of range")
            v = ring.element(val)
            if v:
                clean[(i, j)] = v
        if not clean:
            raise EquationError("equation has no nonzero coefficient")
        gp = {}
        for j, val in dict(self.g_poly or {}).items():
            if not isinstance(j, int) or j < 0:
                raise EquationError(f"g exponent {_quote(j)} out of range")
            v = ring.element(val)
            if v:
                gp[j] = v
        d = max(i for i, _ in clean)
        h = max(j for _, j in clean)
        if self.d is not None and self.d != d:
            raise EquationError(
                f"declared exponent d = {_quote(self.d)} but the coefficients give "
                f"d = {_quote(d)}")
        if self.h is not None and self.h != h:
            raise EquationError(
                f"declared height h = {_quote(self.h)} but the coefficients give "
                f"h = {_quote(h)}")
        object.__setattr__(self, "alpha", MappingProxyType(clean))
        object.__setattr__(self, "g_poly", MappingProxyType(gp))
        object.__setattr__(self, "f0", ring.element(self.f0))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", h)

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


def _compat_sides(P: MahlerEquation, f0: RingValue, g0: RingValue):
    """Both sides of the n = 0 coefficient identity."""
    lhs = P.coefficient(0, 0) * f0
    rhs = g0
    for (i, j), a in P.alpha.items():
        if i >= 1 and j == 0:
            rhs = rhs + a * f0
    return lhs, rhs


def compatible_f0(P: MahlerEquation, f0=None, g0=None) -> bool:
    """n = 0 instance of the recurrence: alpha[0,0] f0 = sum_{i>=1} alpha[i,0] f0 + g0.

    For an isolating homogeneous equation this is f0 = (sum of the
    constant terms of A_1..A_d) * f0.  g0 defaults to the equation's own
    inhomogeneous part and may be overridden when g comes from an
    automaton.
    """
    ring = P.ring
    f0 = P.f0 if f0 is None else ring.element(f0)
    g0 = P.g(0) if g0 is None else ring.element(g0)
    lhs, rhs = _compat_sides(P, f0, g0)
    return lhs == rhs


def _isolating_f0(P: MahlerEquation, f0, g0: RingValue) -> RingValue:
    """The f0 to solve or build with (default P.f0), after checking that P
    is isolating and that f0 satisfies the n = 0 identity with g_0 = g0."""
    if not is_isolating(P):
        raise EquationError(
            "equation is not isolating (A_0 != 1); only isolating equations "
            "determine their coefficients by recurrence")
    f0 = P.f0 if f0 is None else P.ring.element(f0)
    lhs, rhs = _compat_sides(P, f0, g0)
    if lhs != rhs:
        raise EquationError(
            f"f0 = {f0} is not compatible: the n = 0 coefficient identity "
            f"needs {lhs} = {rhs}")
    return f0


def _g_lookup(P: MahlerEquation, g, N: int):
    """Accessor for g_n; an explicit prefix overrides the polynomial part."""
    ring = P.ring
    if g is None:
        gp = P.g_poly
        zero = ring.zero
        return lambda n: gp.get(n, zero)
    if isinstance(g, SeriesPrefix):
        if g.ring != ring:
            raise EquationError("g series ring differs from the equation ring")
        seq = g.coeffs
    else:
        seq = tuple(ring.element(v) for v in g)
    if len(seq) <= N:
        raise EquationError(f"g prefix too short: need g_0..g_{N}, got {len(seq)} entries")
    return lambda n: seq[n]


def solve_series(P: MahlerEquation, N: int, f0=None, g=None) -> SeriesPrefix:
    """f_0..f_N by the coefficient recurrence; the oracle for every builder.

    Requires the isolating form.  Each f_n with n >= 1 collects
    alpha[i, j] * f_k over all i >= 1 and k with op^i(k) + j = n (all
    such k are < n, so the recurrence is well-founded), plus g_n.  An
    explicit g prefix overrides the equation's polynomial part.  The k
    come from one preimages(kind, N, i) table per distinct i; the oracle
    uses numeration code only, never an automaton.
    """
    if N < 0:
        raise EquationError(f"need N >= 0, got {N}")
    g_at = _g_lookup(P, g, N)
    out = [_isolating_f0(P, f0, g_at(0))]
    pre = {i: preimages(P.kind, N, i) for (i, _) in P.alpha if i >= 1}
    items = [(j, a, pre[i]) for (i, j), a in sorted(P.alpha.items()) if i >= 1]
    for n in range(1, N + 1):
        acc = g_at(n)
        for j, a, pre_i in items:
            m = n - j
            if m >= 0:
                k = pre_i[m]
                if k >= 0:
                    acc = acc + a * out[k]
        out.append(acc)
    return SeriesPrefix(P.ring, tuple(out))


def residual(P: MahlerEquation, s, g=None) -> SeriesPrefix:
    """Coefficients of A_0 s - sum_{i>=1} A_i Phi^i(s) - g, to the order of s.

    Identically zero exactly when s solves the equation up to its
    truncation order.  Works for non-isolating equations; needs no
    coefficients beyond the prefix because phi(k) >= k and q*k >= k.
    """
    ring = P.ring
    if isinstance(s, SeriesPrefix):
        if s.ring != ring:
            raise EquationError("series ring differs from the equation ring")
        seq = s.coeffs
    else:
        seq = tuple(ring.element(v) for v in s)
        if not seq:
            raise EquationError("empty series prefix")
    N = len(seq) - 1
    g_at = _g_lookup(P, g, N)
    pre = {i: preimages(P.kind, N, i) for (i, _) in P.alpha if i >= 1}
    items = [(i, j, a, pre.get(i)) for (i, j), a in sorted(P.alpha.items())]
    out = []
    for n in range(N + 1):
        acc = -g_at(n)
        for i, j, a, pre_i in items:
            m = n - j
            if m < 0:
                continue
            if i == 0:
                acc = acc + a * seq[m]
                continue
            k = pre_i[m]
            if k >= 0:
                acc = acc - a * seq[k]
        out.append(acc)
    return SeriesPrefix(ring, tuple(out))


# ---------------------------------------------------------------------------
# equation files

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
            return int(tok, 10)
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
        if key == "ring":
            if len(toks) != 2:
                fail(lineno, "expected: ring <spec>")
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
            if len(toks) != 2:
                fail(lineno, f"expected: {key} <int>")
            decl[key] = (lineno, intval(toks[1], lineno, key))
        elif key == "f0":
            if len(toks) != 2:
                fail(lineno, "expected: f0 <element>")
            f0_entry = (lineno, toks[1])
        elif key == "alpha":
            if len(toks) != 4:
                fail(lineno, "expected: alpha <i> <j> <element>")
            i = intval(toks[1], lineno, "alpha index i")
            j = intval(toks[2], lineno, "alpha index j")
            if i < 0 or j < 0:
                fail(lineno, f"alpha indices must be nonnegative, got {_quote((i, j))}")
            if (i, j) in alpha_entries:
                fail(lineno, f"duplicate alpha {_quote((i, j))}")
            alpha_entries[(i, j)] = (lineno, toks[3])
        elif key == "g":
            if len(toks) != 3:
                fail(lineno, "expected: g <j> <element>")
            j = intval(toks[1], lineno, "g exponent")
            if j < 0:
                fail(lineno, f"g exponent must be nonnegative, got {_quote(j)}")
            if j in g_entries:
                fail(lineno, f"duplicate g {_quote(j)}")
            g_entries[j] = (lineno, toks[2])
        else:
            fail(lineno, f"unknown directive {_quote(key)}")
    if ring is None:
        raise EquationFileError("missing ring line")
    if kind is None:
        raise EquationFileError("missing numeration line")
    if f0_entry is None:
        raise EquationFileError("missing f0 line")
    if not alpha_entries:
        raise EquationFileError("missing alpha lines")

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
    support = {key for key, val in alpha.items() if val}
    if not support:
        raise EquationFileError("all alpha coefficients are zero")
    true_d = max(i for i, _ in support)
    true_h = max(j for _, j in support)
    if "d" in decl and decl["d"][1] != true_d:
        fail(decl["d"][0], f"declared d = {_quote(decl['d'][1])} but the alpha lines "
                           f"give d = {_quote(true_d)}")
    if "h" in decl and decl["h"][1] != true_h:
        fail(decl["h"][0], f"declared h = {_quote(decl['h'][1])} but the alpha lines "
                           f"give h = {_quote(true_h)}")
    return MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=f0, g_poly=g_poly)


def format_equation(P: MahlerEquation) -> str:
    """Inverse of parse_equation, with coefficients in lexicographic order."""
    lines = [f"ring {P.ring.spec}"]
    if isinstance(P.kind, Base):
        lines.append(f"numeration base {P.kind.q}")
    else:
        lines.append("numeration zeckendorf")
    lines.append(f"d {P.d}")
    lines.append(f"h {P.h}")
    lines.append(f"f0 {P.f0}")
    for (i, j) in sorted(P.alpha):
        lines.append(f"alpha {i} {j} {P.alpha[(i, j)]}")
    for j in sorted(P.g_poly):
        lines.append(f"g {j} {P.g_poly[j]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# base-q compilation

def build_automaton_q(P: MahlerEquation, f0=None, *,
                      _extra_i: int = 0, _extra_j: int = 0) -> WeightedAutomaton:
    """Weighted automaton computing f_n on base-q expansions of n.

    Grid states s_{i,j} with 0 <= i <= d-1 and 0 <= j <= h~ where
    h~ = max(0, ceil(h/(q-1)) - 1); offsets above h~ cannot occur on a
    path with nonzero weight and are cut.  Reading digit b from s_{i,j}
    either descends one layer with weight 1, tracking the offset
    j -> qj + b, or closes the block of layers with weight
    alpha[i+1, qj+b-k] into s_{0,k}.  I = f0 on the whole j = 0 column,
    F = 1 on s_{0,0}; the result is trimmed.  Leading zeros do not
    change weights: compatibility of f0 makes the initial vector stable
    under reading 0.  The whole grid is seeded in row order (initial
    weight zero off the j = 0 column), so explore() numbers the states
    i-major.

    _extra_i/_extra_j widen the grid beyond the cutoffs; the extra
    states never occur on a nonzero-weight path, so the evaluated
    sequence must not change.  Exposed for that validation only.
    """
    if not isinstance(P.kind, Base):
        raise EquationError("build_automaton_q needs a base-q equation")
    if P.g_poly:
        raise EquationError(
            "inhomogeneous equations are supported only over Zeckendorf "
            "numeration (build_automaton_dumas)")
    ring = P.ring
    f0 = _isolating_f0(P, f0, ring.zero)
    q = P.kind.q
    d = max(P.d, 1) + _extra_i
    ht = max(0, -(-P.h // (q - 1)) - 1) + _extra_j
    one = ring.one
    zero = ring.zero
    alpha = P.alpha

    def moves(state):
        i, j = state
        for b in range(q):
            m = q * j + b
            if i + 1 < d and m <= ht:
                yield b, (i + 1, m), one
            for k in range(min(ht, m) + 1):
                a = alpha.get((i + 1, m - k))
                if a is not None:
                    yield b, (0, k), a

    seeds = {(i, j): f0 if j == 0 else zero
             for i in range(d) for j in range(ht + 1)}
    return explore_automaton(
        ring, range(q), seeds, moves,
        lambda state: one if state == (0, 0) else zero,
        lambda state: f"s{state[0]}_{state[1]}")


# ---------------------------------------------------------------------------
# Zeckendorf compilation

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
    ht = floor_phi(P.h + 2) - 1
    g = len(_digits(ht))
    d = max(P.d, 1)
    return ZSpaceInfo(
        h_tilde=ht,
        window=g,
        grid_bound=d * (ht + 1) * 5 * (2 ** g),
        trim_bound=320 * d * P.h * P.h,
    )


def _build_z(P: MahlerEquation, f0, G: Optional[WeightedAutomaton],
             extra_i: int = 0, extra_j: int = 0) -> WeightedAutomaton:
    """The Zeckendorf construction for f = sum_i A_i Phi^i(f) + g, where
    G is an automaton for g, or None for g = 0.

    A grid state is (i, j, q, u): layer i, offset j, defect-automaton
    state q, and the window u holding the last g input digits (the word
    is implicitly padded with g leading zeros).  Running the defect
    automaton from q over the digitwise difference u - (j)_Z gives the
    linearity defect; the offset after consuming the next digit b is then
    phi(j) + defect + b.  A state whose run needs the missing defect edge
    is unreachable while reading adjacent-ones-free input and gets no
    transitions.  Consuming the oldest window digit u[0] moves the defect
    state on, and the window becomes u[1:] + (b,).  The guess b = 1 is cut
    when the window already ends in 1: no adjacent-ones-free word takes
    that edge, so cutting it keeps weights intact on the whole contract
    domain while keeping the explored grid small.

    The grid is explored from the seeds s_{i,0,q0,0^g} (initial weight
    f0), and F = 1 exactly on layer-0 states with offset 0.  For a
    nonzero g, each offset j <= h~ also gets a copy of the automaton B_j
    for x^j g (x^(j-1) g shifted once more), run in lockstep with the
    defect state and digit window of the grid: copy states are
    ("g", j, b, q, u), state b of B_j, seeded from the initial states of
    B_j and named g{j}n{t}, t counting them in order of discovery.  Each
    copy state keeps the arrows of b, and on digit e gains one arrow into
    the grid state s_{0,j,q,u} weighted sum w F[d] over the arrows
    b -e-> d of B_j (when nonzero); this injects g_{n-j} into the
    offset-j carrier exactly where the recurrence wants it.  The
    empty-word mass of each B_j is dropped: canonical expansions are
    never empty, and the n = 0 identity is instead enforced up front as
    compatibility of f0 with g_0 (without it no automaton of this shape
    can compute the series, since the weight of "0" always equals the
    right-hand side of that identity).  The result is trimmed.
    """
    ring = P.ring
    f0 = _isolating_f0(
        P, f0, ring.zero if G is None else eval_sequence(G, ZECKENDORF, 0))
    one = ring.one
    alpha = P.alpha
    d = max(P.d, 1) + extra_i
    h = P.h
    ht = z_state_space(P).h_tilde + extra_j
    g = len(_digits(ht))
    dfa = defect_automaton()
    dtrans = dict(dfa.transitions)
    douts = dfa.outputs
    phi_tab = [phi(j) for j in range(ht + 1)]
    pad_tab = [pad(_digits(j), g).digits for j in range(ht + 1)]
    u0 = (0,) * g
    seeds = {(i, 0, dfa.initial, u0): f0 for i in range(d)}
    parts = []
    for j in range(ht + 1 if G is not None else 0):
        xg = G if j == 0 else shift_regular(xg, 1)   # x^j g
        parts.append(xg)
        for sidx, w in enumerate(xg.initial):
            if w:
                seeds["g", j, sidx, dfa.initial, u0] = w

    def successors(state):
        is_copy = state[0] == "g"
        if is_copy:
            _tag, j, bs, qs, u = state
            Bj = parts[j]
        else:
            i, j, qs, u = state
            s = qs
            pj = pad_tab[j]
            for t in range(g):
                s = dtrans.get((s, u[t] - pj[t]))
                if s is None:
                    return
            ell0 = phi_tab[j] + douts[s]   # the offset after digit b is ell0 + b
        q2 = dtrans[(qs, u[0])]
        for b in (0,) if u[-1] == 1 else (0, 1):
            u2 = u[1:] + (b,)
            if is_copy:
                into = ring.zero
                for dst, w in Bj._arrows.get(b, {}).get(bs, ()):
                    w = RingValue(ring, w)
                    yield b, ("g", j, dst, q2, u2), w
                    into = into + w * Bj.final[dst]
                if into:
                    yield b, (0, j, q2, u2), into
                continue
            ell = ell0 + b
            if i + 1 <= d - 1 and 0 <= ell <= ht:
                yield b, (i + 1, ell, q2, u2), one
            if ell >= 0:
                for k in range(max(0, ell - h), min(ht, ell) + 1):
                    a = alpha.get((i + 1, ell - k))
                    if a is not None:
                        yield b, (0, k, q2, u2), a

    part_size = [0] * len(parts)

    def name(state):
        if state[0] != "g":
            i, j, qs, u = state
            return f"s{i}_{j}_q{qs}_u{''.join(map(str, u))}"
        j = state[1]
        part_size[j] += 1
        return f"g{j}n{part_size[j] - 1}"

    return explore_automaton(
        ring, (0, 1), seeds, successors,
        lambda state: one if state[:2] == (0, 0) else ring.zero, name)


def build_automaton_z(P: MahlerEquation, f0=None, *,
                      _extra_i: int = 0, _extra_j: int = 0) -> WeightedAutomaton:
    """Weighted automaton computing f_n on Zeckendorf expansions of n.

    The homogeneous case g = 0 of the one Zeckendorf construction
    (_build_z): the grid alone.  The contract covers every
    adjacent-ones-free word, with leading zeros allowed; evaluate
    through weight_z to get the adjacent-ones check.

    _extra_i/_extra_j widen the grid beyond the cutoffs without
    changing the evaluated sequence; exposed for validating exactly
    that.
    """
    if not isinstance(P.kind, Zeckendorf):
        raise EquationError("build_automaton_z needs a Zeckendorf equation")
    if P.g_poly:
        raise EquationError(
            "inhomogeneous equations need build_automaton_dumas")
    return _build_z(P, f0, None, _extra_i, _extra_j)


def weight_z(A: WeightedAutomaton, word) -> RingValue:
    """Zeckendorf-contract evaluation: rejects words with adjacent ones."""
    w = as_digits(word)
    if has_adjacent_ones(w):
        raise NumerationError(
            f"word {format_word(w)} has adjacent ones; Zeckendorf automata "
            "are specified on adjacent-ones-free words only")
    return weight(A, w)


def build_automaton_dumas(P: MahlerEquation, G: WeightedAutomaton = None,
                          f0=None) -> WeightedAutomaton:
    """Solution automaton for f = sum_i A_i Phi^i(f) + g with regular g.

    The one Zeckendorf construction (_build_z) with the automaton G for
    g; G defaults to the polynomial automaton of the equation's g lines.
    A homogeneous equation with no G is the case g = 0: no copies of g,
    and the machine of build_automaton_z.
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
    return _build_z(P, f0, G)


# ---------------------------------------------------------------------------
# reverse direction: from automaton to equation

def _kernel_basis(ring: Ring, rows: list, ncols: int) -> list:
    """Right-kernel basis of a matrix of ring payloads over a field.

    Fraction-free Gauss-Jordan on Python ints.  Over Q each row is first
    scaled by the lcm of its denominators; over Fp:p the payloads
    already are ints.  Elimination sets row <- a*row - f*pivot_row, then
    divides the row by its content over Q (where Bareiss, Math. Comp.
    22, 1968, divides by the previous pivot) or reduces it mod p.  At
    the end pivot row r is a multiple of row r of the reduced row
    echelon form, which is unique, so each entry -m[r][free] / m[r][c]
    is the value, as the same payload type, that Gauss-Jordan over the
    field gives.  One basis vector per free column, emitted in
    ascending column order.
    """
    p = ring.characteristic
    if p:
        mat = list(rows)  # rows are replaced, never changed in place
    else:
        mat = []
        for row in rows:
            den = lcm(*(x.denominator for x in row))
            mat.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    pivots = []
    r = 0
    for c in range(ncols):
        prow = next((rr for rr in range(r, len(mat)) if mat[rr][c]), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        row_r = mat[r]
        a = row_r[c]
        for rr, row in enumerate(mat):
            f = row[c]
            if f and rr != r:
                new = [a * x - f * y for x, y in zip(row, row_r)]
                mat[rr] = [x % p for x in new] if p else _primitive(new)
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    zero, one = ring.zero.payload, ring.one.payload
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [zero] * ncols
        v[free] = one
        for rr, c in pivots:
            if p:
                v[c] = -mat[rr][free] * pow(mat[rr][c], -1, p) % p
            else:
                v[c] = Fraction(-mat[rr][free], mat[rr][c])
        basis.append(v)
    return basis


def _primitive(row: list) -> list:
    """An int row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


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
    """
    ring = A.ring
    if not ring.is_field:
        raise RingError(f"find_relation needs a field ring, got {ring.spec}")
    if d_max < 0 or h_max < 0:
        raise EquationError("d_max and h_max must be nonnegative")
    if N < 1:
        raise EquationError(f"need N >= 1, got {N}")
    N_check = 4 * N if N_check is None else N_check
    if N_check <= N:
        raise EquationError(f"N_check must exceed N, got {N_check} <= {N}")
    s = sequence_prefix(A, kind, N_check)
    sp = [v.payload for v in s]
    zero = ring.zero.payload
    cols = [(i, j) for i in range(d_max + 1) for j in range(h_max + 1)]
    pre = [preimages(kind, N, i) for i in range(d_max + 1)]
    rows = []
    for n in range(N + 1):
        row = []
        for (i, j) in cols:
            m = n - j
            k = pre[i][m] if m >= 0 else -1
            row.append(sp[k] if k >= 0 else zero)
        rows.append(row)
    sfull = SeriesPrefix(ring, tuple(s))
    for v in _kernel_basis(ring, rows, len(cols)):
        alpha = {}
        for (i, j), payload in zip(cols, v):
            if payload == zero:
                continue
            val = RingValue(ring, payload)
            alpha[(i, j)] = val if i == 0 else -val
        if not alpha:
            continue
        u = alpha[min(alpha)].inverse()
        alpha = {key: u * val for key, val in alpha.items()}
        cand = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=s[0])
        if residual(cand, sfull).is_zero():
            return cand
    return None


# ---------------------------------------------------------------------------
# isolating normalization over prime fields

def _poly_from(ring: Ring, poly) -> dict:
    """Sparse coefficient dict from a list/tuple or exponent mapping."""
    items = poly.items() if isinstance(poly, Mapping) else enumerate(poly)
    out = {}
    for j, v in items:
        if not isinstance(j, int) or j < 0:
            raise EquationError(f"polynomial exponent {j!r} out of range")
        v = ring.element(v)
        if v:
            out[j] = v
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ja, va in a.items():
        for jb, vb in b.items():
            j = ja + jb
            cur = out.get(j)
            p = va * vb
            out[j] = p if cur is None else cur + p
    return {j: v for j, v in out.items() if v}


def _poly_pow(ring: Ring, a: dict, e: int) -> dict:
    result = {0: ring.one}
    base = dict(a)
    while e:
        if e & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base)
        e >>= 1
    return result


def christol_isolate(ore: Sequence, q: int, ring: Ring):
    """Rewrite an annihilating operator into isolating form by substitution.

    ore lists the polynomials A_0..A_d of an operator
    sum_{i=0}^d A_i Phi^i annihilating f, over a prime field whose
    characteristic equals q.  Substituting f = A_0 * g and using
    A_0(x)^{q^i} = A_0(x^{q^i}) (Frobenius) turns the relation into
    A_0^2 * (g + sum_{i>=1} B_i Phi^i(g)) = 0 with
    B_i = A_i * A_0^{q^i - 2}, so g satisfies the isolating equation
    with stored coefficients alpha[i, j] = -(B_i)_j.  Returns that
    equation together with the dense coefficient tuple of the multiplier
    A_0; the caller recovers f as the Cauchy product of A_0 and g, with
    g_0 = f_0 / A_0(0).

    The stored f0 of the returned equation is a compatible default (1
    when the constant terms allow a free choice, else 0); pass the g_0
    you actually want to the automaton builder.
    """
    if not ring.is_field or ring.characteristic != q:
        raise RingError(
            f"christol_isolate needs a prime field of characteristic q = {q}, "
            f"got {ring.spec}")
    polys = [_poly_from(ring, p) for p in ore]
    while polys and not polys[-1]:
        polys.pop()
    d = len(polys) - 1
    if d < 1:
        raise EquationError("operator needs d >= 1 (some Phi term)")
    a0 = polys[0]
    if not a0:
        raise EquationError("A_0 = 0 cannot be normalized away")
    if 0 not in a0:
        raise EquationError("A_0(0) = 0: the multiplier has no series inverse")
    alpha = {(0, 0): ring.one}
    for i in range(1, d + 1):
        if not polys[i]:
            continue
        bi = _poly_mul(polys[i], _poly_pow(ring, a0, q ** i - 2))
        for j, v in bi.items():
            alpha[(i, j)] = -v
    sum0 = ring.zero
    for (i, j), v in alpha.items():
        if i >= 1 and j == 0:
            sum0 = sum0 + v
    f0 = ring.one if sum0.is_one() else ring.zero
    Q = MahlerEquation(ring=ring, kind=Base(q), alpha=alpha, f0=f0)
    a0_dense = tuple(a0.get(j, ring.zero) for j in range(max(a0) + 1))
    return Q, a0_dense


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
    pre = preimages(ZECKENDORF, N, 1)
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
