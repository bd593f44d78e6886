"""Brute-force reference computations for the test suite.

Everything in this file is deliberately independent of the package:
plain integers and fractions, exhaustive enumeration, textbook linear
algebra, and high-precision decimal arithmetic.  Tests compare package
output against these, and expected constants frozen into test modules
were produced by them.
"""

from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import product
from math import isqrt

getcontext().prec = 80

_SQRT5 = Decimal(5).sqrt()
_PHI = (1 + _SQRT5) / 2


def fibs_upto(limit):
    """Fibonacci numbers 1, 2, 3, 5, ... not exceeding limit."""
    out = []
    a, b = 1, 2
    while a <= limit:
        out.append(a)
        a, b = b, a + b
    return out


def zeckendorf_greedy(n):
    """Canonical Zeckendorf digit string of n (most significant first),
    by greedy subtraction of the largest Fibonacci number."""
    if n == 0:
        return "0"
    fibs = fibs_upto(n)
    digits = []
    rest = n
    for f in reversed(fibs):
        if f <= rest:
            digits.append("1")
            rest -= f
        else:
            digits.append("0")
    assert rest == 0
    return "".join(digits)


def zeckendorf_ones(n):
    """Number of 1-digits in the canonical Zeckendorf expansion."""
    return zeckendorf_greedy(n).count("1")


def subset_counts(N):
    """counts[n] = number of subsets of distinct Fibonacci numbers
    (1, 2, 3, 5, ...) summing to n, for 0 <= n <= N."""
    counts = [0] * (N + 1)
    counts[0] = 1
    for f in fibs_upto(N):
        for n in range(N, f - 1, -1):
            counts[n] += counts[n - f]
    return counts


def hyperbinary_counts(N, max_len=None):
    """counts[n] = number of strings over digits {0,1,2} whose base-2
    value is n, up to leading zeros (each representation counted once,
    without its leading-zero variants)."""
    if max_len is None:
        max_len = N.bit_length() + 1
    counts = [0] * (N + 1)
    for length in range(0, max_len + 1):
        for digits in product((0, 1, 2), repeat=length):
            if length > 0 and digits[0] == 0:
                continue
            val = 0
            for d in digits:
                val = 2 * val + d
            if val <= N:
                counts[val] += 1
    return counts


def base_digits(n, q):
    """Base-q digits of n, most significant first; 0 -> [0]."""
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % q)
        n //= q
    return out[::-1]


def digit_ones(n, q=2):
    """Number of 1-digits in the base-q expansion."""
    return base_digits(n, q).count(1)


def convolve(a, b):
    """Naive Cauchy product of two coefficient lists (length = min)."""
    N = min(len(a), len(b))
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(N)]


def accepted_path_totals(initial, final, arrows, L):
    """I * (sum_b M_b)^k * F for k = 0..L: the sum over all words of each
    length of the automaton weight.  Plain-int vectors, arrows a dict
    (src, label, dst) -> int."""
    n = len(initial)
    step = [[0] * n for _ in range(n)]
    for (src, _label, dst), w in arrows.items():
        step[src][dst] += w
    vec = list(initial)
    totals = []
    for _ in range(L + 1):
        totals.append(sum(v * f for v, f in zip(vec, final)))
        vec = [sum(vec[s] * step[s][d] for s in range(n)) for d in range(n)]
    return totals


def path_sum(initial, final, arrows, word):
    """Weight of a word as the sum over every path, one path at a time:
    initial weight times arrow weights times final weight, in whatever
    numbers the weights are (plain ints: no reduction).  ``arrows`` is a
    dict (src, label, dst) -> weight."""
    out = {}
    for (src, label, dst), w in arrows.items():
        out.setdefault((src, label), []).append((dst, w))
    paths = [(s, w) for s, w in enumerate(initial) if w]
    for label in word:
        paths = [(dst, acc * w) for s, acc in paths for dst, w in out.get((s, label), ())]
    return sum(acc * final[s] for s, acc in paths)


def forward_vector(A, word):
    """I * M_{w_1} * ... * M_{w_k}, the weight reaching each state after
    reading the word, summed arrow by arrow from ``A.initial`` and
    ``A.transitions`` in the arithmetic of their values."""
    by_label = {}
    for (src, label, dst), w in A.transitions.items():
        by_label.setdefault(label, []).append((src, dst, w))
    vec = list(A.initial)
    for label in word:
        nxt = [A.ring.zero] * len(vec)
        for src, dst, w in by_label.get(label, ()):
            if vec[src]:
                nxt[dst] = nxt[dst] + vec[src] * w
        vec = nxt
    return tuple(vec)


def trimmed_assembly(make, ring, alphabet, seeds, successors, final, name):
    """A weighted machine assembled the long way round: the states found
    breadth-first from the seeds (seeds first, in order, then in order of
    discovery), repeated arrows summed, arrows that sum to zero dropped,
    then the states both reachable from a nonzero initial weight and
    co-reachable to a nonzero final weight kept, each closure over
    adjacency sets.  The kept states keep their order; ``make`` is the
    machine's constructor.  ``name`` and ``final`` are called once per
    state found, in order, as the package calls them."""
    order = list(seeds)
    index = {s: i for i, s in enumerate(order)}
    sums = {}
    for i, state in enumerate(order):  # order grows as states are found
        for label, target, w in successors(state):
            if target not in index:
                index[target] = len(order)
                order.append(target)
            key = (i, label, index[target])
            sums[key] = sums[key] + w if key in sums else w
    names = [name(s) for s in order]
    finals = [final(s) for s in order]
    initial = [seeds.get(s, ring.zero) for s in order]
    arrows = {key: w for key, w in sums.items() if w}
    forward, backward = {}, {}
    for src, _label, dst in arrows:
        forward.setdefault(src, set()).add(dst)
        backward.setdefault(dst, set()).add(src)

    def closure(vector, adjacency):
        seen = {i for i, v in enumerate(vector) if v}
        todo = list(seen)
        while todo:
            for t in adjacency.get(todo.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    keep = sorted(closure(initial, forward) & closure(finals, backward))
    new = {old: k for k, old in enumerate(keep)}
    return make(ring=ring, alphabet=tuple(alphabet), states=tuple(names[i] for i in keep),
                initial=tuple(initial[i] for i in keep), final=tuple(finals[i] for i in keep),
                transitions={(new[s], b, new[d]): w for (s, b, d), w in arrows.items()
                             if s in new and d in new})


def subset_construction(initial, final, arrows, alphabet, n):
    """Weight-vector subset construction mod n on dense vectors: states
    are the vectors I * M_w with every entry reduced mod n, numbered
    breadth-first from I, each state's labels taken in the order of
    ``alphabet``.  ``arrows`` is a dict (src, label, dst) -> int.
    Returns (transitions {(state, label): state}, outputs [I * M_w * F
    mod n]); state 0 is I."""
    size = len(initial)
    start = tuple(x % n for x in initial)
    index = {start: 0}
    order = [start]
    transitions = {}
    for i, vec in enumerate(order):  # order grows as states are found
        for b in alphabet:
            acc = [0] * size
            for (src, label, dst), w in arrows.items():
                if label == b:
                    acc[dst] += vec[src] * w
            nxt = tuple(x % n for x in acc)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            transitions[i, b] = index[nxt]
    outputs = [sum(v * f for v, f in zip(vec, final)) % n for vec in order]
    return transitions, outputs


def recurrence(alpha, f0, g, op, N, mod=0):
    """f_0..f_N of the isolating equation f = sum alpha[i, j] x^j Phi^i(f) + g
    by its recurrence, one term and one candidate index at a time: f_n is
    g_n plus alpha[i, j] * f_k for every (i, j) and every k < n with
    op^i(k) + j = n.  ``alpha`` maps (i, j), i >= 1, to ints or Fractions;
    ``g`` lists g_0..g_N; ``op`` is the index map of one Phi (k -> q k, or
    phi_ref).  With mod > 0 every f_n is reduced mod it."""
    images = {}
    for i, _j in alpha:
        row = list(range(N + 1))
        for _ in range(i):
            row = [op(k) for k in row]
        images[i] = row
    f = [f0 % mod if mod else f0]
    for n in range(1, N + 1):
        acc = g[n]
        for (i, j), a in alpha.items():
            for k in range(n):
                if images[i][k] + j == n:
                    acc += a * f[k]
        f.append(acc % mod if mod else acc)
    return f


def residual(alpha, s, g, op):
    """r_0..r_N of A_0 s - sum_{i>=1} A_i Phi^i(s) - g, one term and one
    candidate index at a time: r_n is the sum of alpha[0, j] * s_{n-j},
    minus alpha[i, j] * s_k for every i >= 1 and every k <= n with
    op^i(k) + j = n, minus g_n.  ``alpha`` maps (i, j) to ints or
    Fractions; ``s`` and ``g`` list the terms 0..N; ``op`` is as in
    ``recurrence``.  Nothing is reduced."""
    N = len(s) - 1
    images = {}
    for i, _j in alpha:
        row = list(range(N + 1))
        for _ in range(i):
            row = [op(k) for k in row]
        images[i] = row
    r = []
    for n in range(N + 1):
        acc = -g[n]
        for (i, j), a in alpha.items():
            if i == 0:
                if j <= n:
                    acc += a * s[n - j]
                continue
            for k in range(n + 1):
                if images[i][k] + j == n:
                    acc -= a * s[k]
        r.append(acc)
    return r


def reduced_echelon(rows, ncols, p=0):
    """Textbook Gauss-Jordan: (pivots, R), the pivot columns in ascending
    order and the nonzero rows of the reduced row echelon form, each
    pivot row scaled to 1 and its pivot column cleared in every other
    row.  Entries are Fractions (p = 0) or ints mod the prime p."""
    def red(x):
        return x % p if p else Fraction(x)

    def div(a, b):
        return a * pow(b, -1, p) % p if p else Fraction(a) / b

    mat = [[red(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        prow = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        piv = mat[r][c]
        mat[r] = [div(x, piv) for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = [red(x - f * y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots, mat[:len(pivots)]


def kernel_basis(rows, ncols, p=0):
    """Right-kernel basis read off reduced_echelon: one vector per free
    column, in ascending column order, with 1 at the free column."""
    def red(x):
        return x % p if p else Fraction(x)

    pivots, mat = reduced_echelon(rows, ncols, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [red(0)] * ncols
        v[free] = red(1)
        for r, c in enumerate(pivots):
            v[c] = red(-mat[r][free])
        basis.append(v)
    return basis


def phi_floor(n):
    """floor(n * golden ratio) via 80-digit decimal arithmetic."""
    return int(_PHI * n)


def phi_ref(n):
    """Zeckendorf shift: floor(phi*n + phi - 1) = floor(phi*(n+1)) - 1."""
    return phi_floor(n + 1) - 1


# The paper's closed forms, exact by an integer square root: for k >= 0,
# floor(k * phi) = (k + isqrt(5 k^2)) // 2, since 5 k^2 is never a
# perfect square for k >= 1.

def _floor_phi(k):
    return (k + isqrt(5 * k * k)) // 2


def floor_phi2(k):
    """floor(k * phi^2) = k + floor(k * phi), using phi^2 = phi + 1."""
    return k + _floor_phi(k)


def phi_via_floor(n):
    """Closed form floor(phi*n + phi - 1) for the shift map."""
    return _floor_phi(n + 1) - 1


def phi2_via_floor(n):
    """Closed form floor(phi^2*n + phi - 1) for the double shift."""
    return n + phi_via_floor(n)


def delta_ref(m, n):
    """Linearity defect phi(m+n) - phi(m) - phi(n)."""
    return phi_ref(m + n) - phi_ref(m) - phi_ref(n)


def diff_word(m, n):
    """Digitwise difference of the canonical expansions of m and n,
    padded on the left to a common length; digits in {-1, 0, 1}."""
    wm = zeckendorf_greedy(m)
    wn = zeckendorf_greedy(n)
    L = max(len(wm), len(wn))
    wm = wm.zfill(L)
    wn = wn.zfill(L)
    return [int(a) - int(b) for a, b in zip(wm, wn)]


def fib_word_value(digits):
    """Value of an arbitrary integer digit word under Fibonacci place
    weights F_0 = 1, F_1 = 2, ... (most significant digit first)."""
    fibs = [1, 2]
    while len(fibs) < len(digits):
        fibs.append(fibs[-1] + fibs[-2])
    return sum(d * f for d, f in zip(digits, reversed(fibs[:len(digits)])))
