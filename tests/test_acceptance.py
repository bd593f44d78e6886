"""Acceptance gate.

One test per shipped claim, `test_c01` .. `test_c12`, so that `pytest -v`
prints a single pass/fail line for each, followed by the library-wide
property tests (`test_inv_*`).  Everything here is exact: no tolerances,
no sampling where an exhaustive sweep is affordable.
"""

import random
from itertools import product
from math import isqrt

import numpy as np
import pytest

import oracles
from conftest import equation_text, ints, make_random_equation
from mahler.automata import (
    addition_automaton,
    all_ones_automaton,
    count_ones_automaton,
    defect_automaton,
    defect_automaton_constructed,
    fibonacci_representation_automaton,
)
from mahler.equations import (
    EquationError,
    SeriesPrefix,
    _build,
    build_automaton_dumas,
    build_automaton_q,
    build_automaton_z,
    find_relation,
    growth_analysis,
    parse_equation,
    residual,
    solve_series,
    weight_z,
    z_state_space,
)
from mahler.numeration import ZECKENDORF, Base, canonical, phi, phi_iter
from mahler.rings import INTEGERS, RATIONALS, PrimeField, parse_ring
from mahler.wfa import (
    cauchy_product,
    determinize,
    sequence_prefix,
    weight,
)

BASE2 = Base(2)

PHI_TABLE = (0, 2, 3, 5, 7, 8, 10, 11, 13, 15, 16, 18, 20, 21)
PHI2_PLUS1_TABLE = (1, 4, 6, 9, 12, 14, 17, 19, 22, 25, 27, 30, 33, 35)

TWO_LAYER_TEXT = """ring Z
numeration base 2
d 2
h 3
f0 1
alpha 0 0 1
alpha 1 0 2
alpha 1 1 3
alpha 1 2 4
alpha 1 3 5
alpha 2 0 -1
alpha 2 1 6
alpha 2 2 7
alpha 2 3 8
"""


def shipped(name):
    return parse_equation(equation_text(name))


def base_q_state_bound(P):
    return P.d * max(1, -(-P.h // (P.kind.q - 1)))


# ---------------------------------------------------------------------------
# criteria


def test_c01_shift_tables():
    assert tuple(phi(n) for n in range(14)) == PHI_TABLE
    assert tuple(phi_iter(n, 2) + 1 for n in range(14)) == PHI2_PLUS1_TABLE


def test_c02_floor_formulas():
    # floor(n*r + r - 1) = floor((n+1)*r) - 1 and, with r^2 = r + 1,
    # floor(n*r^2 + r - 1) = floor((n+1)*r) + n - 1, where
    # floor(k*r) = (k + isqrt(5*k*k)) // 2 for the golden ratio r.
    for n in range(100_001):
        fl = (n + 1 + isqrt(5 * (n + 1) * (n + 1))) // 2
        assert phi(n) == fl - 1
        assert phi_iter(n, 2) == fl + n - 1


def test_c03_defect_automata_exhaustive():
    # Both machines read the digitwise difference of the padded canonical
    # words of m and n and must output phi(m) - phi(m-n) - phi(n) on every
    # pair 0 <= n <= m <= 2000.  Vectorized over all 2 003 001 pairs.
    M = 2000
    words = [canonical(n) for n in range(M + 1)]
    L = max(len(w) for w in words)
    digit = np.zeros((M + 1, L), dtype=np.int8)
    for n, w in enumerate(words):
        digit[n, L - len(w):] = w
    shift = np.array([phi(n) for n in range(M + 1)], dtype=np.int64)

    rows, cols = np.triu_indices(M + 1)        # rows = n <= cols = m
    diff = (digit[cols] - digit[rows] + 1).astype(np.int8)
    expected = shift[cols] - shift[cols - rows] - shift[rows]

    def run_all(dfa):
        n_states = len(dfa.states)
        table = np.full((n_states + 1, 3), n_states, dtype=np.int64)
        for (s, lab), t in dfa.transitions.items():
            table[s, lab + 1] = t
        out = np.full(n_states + 1, -99, dtype=np.int64)
        for i, v in enumerate(dfa.outputs):
            if v is not None:
                out[i] = int(v)
        state = np.full(len(rows), dfa.initial, dtype=np.int64)
        for t in range(L):
            state = table[state, diff[:, t]]
        assert not np.any(state == n_states), "missing transition hit"
        result = out[state]
        assert not np.any(result == -99), "ended in a state without output"
        return result

    got_fixed = run_all(defect_automaton())
    got_built = run_all(defect_automaton_constructed())
    assert np.array_equal(got_fixed, expected)
    assert np.array_equal(got_built, expected)
    assert np.array_equal(got_fixed, got_built)


def test_c04_base_q_compiler_vs_oracle():
    rng = random.Random(20260816)
    rings = [PrimeField(2), PrimeField(5), INTEGERS]
    for trial in range(20):
        q = rng.choice((2, 3))
        P = make_random_equation(rng, rings[trial % 3], Base(q), 3, 4,
                                 zero_f0=(trial % 10 == 0))
        A = build_automaton_q(P)
        assert A.n_states <= base_q_state_bound(P)
        assert list(sequence_prefix(A, P.kind, 4096)) == \
            list(solve_series(P, 4096))

    # the double-then-shift count: automaton vs literal enumeration of
    # every digit string over {0, 1, 2} with the given base-2 value
    P = shipped("hyperbinary.eq")
    A = build_automaton_q(P)
    assert ints(sequence_prefix(A, BASE2, 512)) == \
        oracles.hyperbinary_counts(512)


def test_c05_zeckendorf_compiler_vs_oracle():
    P = shipped("fib_repr.eq")
    A = build_automaton_z(P)
    got = ints(sequence_prefix(A, ZECKENDORF, 2000))
    assert got == ints(solve_series(P, 2000))
    assert got == oracles.subset_counts(2000)

    rng = random.Random(101)
    rings = [PrimeField(2), PrimeField(5), INTEGERS]
    for trial in range(10):
        P = make_random_equation(rng, rings[trial % 3], ZECKENDORF, 2, 3)
        A = build_automaton_z(P)
        assert list(sequence_prefix(A, ZECKENDORF, 2000)) == \
            list(solve_series(P, 2000))


def test_c06_state_bounds():
    # base automata: exact sizes, within d * max(1, ceil(h/(q-1)))
    P = shipped("hyperbinary.eq")
    assert build_automaton_q(P).n_states == 2 <= base_q_state_bound(P)
    P = parse_equation(TWO_LAYER_TEXT)
    assert build_automaton_q(P).n_states == 6 <= base_q_state_bound(P)

    # Zeckendorf automata: exact sizes; the trimmed machine stays within
    # 320*d*h^2 (the quadratic bound presumes h >= 1, so the h = 0
    # instance gets only its exact count checked)
    P = shipped("fib_repr.eq")
    info = z_state_space(P)
    A = build_automaton_z(P)
    assert A.n_states == 29
    assert A.n_states <= info.trim_bound == 320
    assert info.grid_bound == 160

    P = shipped("dumas_fib.eq")
    A = build_automaton_dumas(P)
    assert A.n_states == 34
    assert A.n_states <= z_state_space(P).trim_bound == 320

    P = shipped("dumas_twolayer.eq")
    assert P.h == 0
    assert build_automaton_dumas(P).n_states == 8


def test_c07_ones_count_annihilated():
    # s_n = number of 1 digits in the canonical word of n, fed into the
    # stored five-term relation; the residual must vanish through n = 500.
    P = shipped("thue_morse_zeck.eq")
    s = SeriesPrefix(INTEGERS,
                     tuple(oracles.zeckendorf_ones(n) for n in range(3500)))
    r = residual(P, s)
    assert len(r) > 500
    assert all(v == INTEGERS.zero for v in r.coeffs[:501])


def test_c08_cauchy_product_convolution():
    hyper = build_automaton_q(shipped("hyperbinary.eq"))
    fibz = build_automaton_z(shipped("fib_repr.eq"))
    ones = all_ones_automaton()
    cnt = count_ones_automaton(INTEGERS)
    fib = fibonacci_representation_automaton(INTEGERS)
    cases = [
        (BASE2, cnt, ones),
        (BASE2, ones, ones),
        (BASE2, hyper, cnt),
        (ZECKENDORF, fib, ones),
        (ZECKENDORF, cnt, ones),
        (ZECKENDORF, fibz, cnt),
    ]
    for kind, A, B in cases:
        H = cauchy_product(A, B, addition_automaton(kind))
        fa = ints(sequence_prefix(A, kind, 500))
        fb = ints(sequence_prefix(B, kind, 500))
        assert ints(sequence_prefix(H, kind, 500)) == oracles.convolve(fa, fb)


def test_c09_determinization_exhaustive():
    machines = [
        count_ones_automaton(PrimeField(2)),
        fibonacci_representation_automaton(PrimeField(5)),
        all_ones_automaton(parse_ring("Zmod:12")),
    ]
    words = [w for L in range(13) for w in product((0, 1), repeat=L)]
    for A in machines:
        direct = determinize(A, "direct")
        reverse = determinize(A, "reverse")
        for w in words:
            v = weight(A, w)
            assert direct.run(w) == v
            assert reverse.run(w[::-1]) == v


def test_c10_growth_is_superpolynomial():
    # growth_analysis raises internally if its two recurrence forms ever
    # disagree, so a clean return is the agreement check
    report = growth_analysis(10_000, 3)
    assert report.prefix == (1, 1, 2, 4, 4, 8)
    assert dict(report.thresholds) == {0: 0, 1: 3, 2: 32, 3: 176}
    assert report.thresholds[3] is not None    # beats n^3 before 10^4
    f = report.coefficients
    assert all(f[n] >= f[n - 1] for n in range(1, len(f)))
    assert f[176] == 5_513_544 > 176 ** 3


def test_c11_relation_recovery():
    A = fibonacci_representation_automaton(RATIONALS)
    R = find_relation(A, ZECKENDORF, 1, 1, 500, N_check=2000)
    assert R is not None
    one = RATIONALS.one
    assert dict(R.alpha) == {(0, 0): one, (1, 0): one, (1, 1): one}
    assert (R.d, R.h) == (1, 1)
    assert R.f0 == one
    assert not R.g_poly


def test_c12_inhomogeneous_builder_vs_oracle():
    for name in ("dumas_fib.eq", "dumas_twolayer.eq"):
        P = shipped(name)
        A = build_automaton_dumas(P)
        assert list(sequence_prefix(A, ZECKENDORF, 500)) == \
            list(solve_series(P, 500))


# ---------------------------------------------------------------------------
# library-wide properties


def test_inv_oracle_soundness():
    rng = random.Random(9)
    rings = [PrimeField(2), PrimeField(5), INTEGERS, RATIONALS]
    for kind in (BASE2, Base(3), ZECKENDORF):
        for trial in range(20):
            P = make_random_equation(rng, rings[trial % 4], kind, 3, 4,
                                     zero_f0=(trial % 7 == 0))
            r = residual(P, solve_series(P, 300))
            assert len(r) >= 1
            assert r.is_zero()


def test_inv_leading_zero_invariance():
    A = build_automaton_q(shipped("hyperbinary.eq"))
    for n in range(101):
        w = canonical(n, BASE2)
        base = weight(A, w)
        for k in range(1, 6):
            assert weight(A, (0,) * k + w) == base

    Z = build_automaton_z(shipped("fib_repr.eq"))
    for n in range(101):
        w = canonical(n)
        base = weight_z(Z, w)
        for k in range(1, 6):
            assert weight_z(Z, (0,) * k + w) == base


def test_inv_per_state_weights_base_q():
    # After any word w, the accumulated weight sitting in state s{i}_{j}
    # is f_k when k * q^i + j = [w] has a nonnegative integer solution k,
    # and zero otherwise.
    for text, q in ((TWO_LAYER_TEXT, 2), (equation_text("hyperbinary.eq"), 2)):
        P = parse_equation(text)
        A = build_automaton_q(P)
        f = ints(solve_series(P, 1 << 11))
        coords = [tuple(int(t) for t in name[1:].split("_"))
                  for name in A.states]
        for L in range(11):
            for w in product(range(q), repeat=L):
                n = 0
                for b in w:
                    n = q * n + b
                for (i, j), v in zip(coords, ints(oracles.forward_vector(A, w))):
                    k, rem = divmod(n - j, q ** i)
                    assert v == (f[k] if rem == 0 and k >= 0 else 0)


def test_inv_tracked_window_and_defect_state_z():
    # Reading an adjacent-ones-free word w, every state holding nonzero
    # weight agrees on its bookkeeping: the window u is the last g digits
    # of the zero-padded word, and q is where the defect machine lands
    # after consuming the rest.  Exactly one such state carries final
    # weight (here every coefficient is >= 1, so the carrier must exist).
    A = build_automaton_z(shipped("fib_repr.eq"))
    g = z_state_space(shipped("fib_repr.eq")).window
    D = defect_automaton()
    finals = ints(A.final)
    for L in range(11):
        for w in product((0, 1), repeat=L):
            if any(a == b == 1 for a, b in zip(w, w[1:])):
                continue
            padded = (0,) * g + w
            exp_u = "".join(map(str, padded[L:]))
            q_state = D.initial
            for b in padded[:L]:
                q_state = D.transitions[(q_state, b)]
            carriers = 0
            for name, v, fin in zip(A.states, ints(oracles.forward_vector(A, w)),
                                    finals):
                if v == 0:
                    continue
                _, _, q_part, u_part = name[1:].split("_")
                assert q_part == f"q{q_state}"
                assert u_part[1:] == exp_u
                if fin != 0:
                    carriers += 1
            assert carriers == 1


def test_inv_truncation_safety():
    P = shipped("hyperbinary.eq")
    A = build_automaton_q(P)
    B = _build(P, None, 1, 3)
    assert list(sequence_prefix(A, BASE2, 1000)) == \
        list(sequence_prefix(B, BASE2, 1000))

    P = shipped("fib_repr.eq")
    A = build_automaton_z(P)
    B = _build(P, None, 1, 3)
    assert (A.n_states, B.n_states) == (29, 47)
    assert list(sequence_prefix(A, ZECKENDORF, 1000)) == \
        list(sequence_prefix(B, ZECKENDORF, 1000))


def test_inv_relation_reverified_on_longer_prefix():
    A = fibonacci_representation_automaton(RATIONALS)
    R = find_relation(A, ZECKENDORF, 1, 1, 80)      # default check at 4 * N
    s = SeriesPrefix(RATIONALS, tuple(sequence_prefix(A, ZECKENDORF, 320)))
    assert residual(R, s).is_zero()
    with pytest.raises(EquationError, match="N_check must exceed N"):
        find_relation(A, ZECKENDORF, 1, 1, 50, N_check=50)
