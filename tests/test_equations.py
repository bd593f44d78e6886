"""Equation layer: files, the recurrence oracle, and the compilers."""

import copy
import hashlib
import itertools
import pickle
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import SHIPPED, equation_text, ints, make_random_equation
from mahler import equations
from mahler.automata import (
    all_ones_automaton,
    count_ones_automaton,
    fibonacci_representation_automaton,
    polynomial_automaton,
)
from mahler.equations import (
    EquationError,
    EquationFileError,
    MahlerEquation,
    SeriesPrefix,
    ZSpaceInfo,
    _build,
    _kernel_basis,
    build_automaton_dumas,
    build_automaton_q,
    build_automaton_z,
    compatible_f0,
    find_relation,
    format_equation,
    growth_analysis,
    is_isolating,
    parse_equation,
    residual,
    solve_series,
    weight_z,
    z_state_space,
)
from mahler.numeration import ZECKENDORF, Base, NumerationError, canonical, preimages, value
from mahler.rings import (INTEGERS, RATIONALS, MixedRingError, ModRing, PrimeField, _integral,
                          RingError, parse_ring)
from mahler.serialize import automaton_from_json, automaton_to_json
from mahler.wfa import (
    WeightedAutomaton,
    same_structure,
    sequence_prefix,
    weight,
)

BASE2 = Base(2)
F2 = PrimeField(2)
F5 = PrimeField(5)


def shipped(name):
    return parse_equation(equation_text(name))


# ---------------------------------------------------------------------------
# SeriesPrefix

class TestSeriesPrefix:
    def test_coerces_and_indexes(self):
        s = SeriesPrefix(INTEGERS, (1, 2, 3))
        assert s.order == 2
        assert len(s) == 3
        assert [v.payload for v in s] == [1, 2, 3]
        assert s[1] == INTEGERS.element(2)

    def test_needs_at_least_f0(self):
        with pytest.raises(RingError, match="at least f_0"):
            SeriesPrefix(INTEGERS, ())

    def test_is_zero(self):
        assert SeriesPrefix(INTEGERS, (0, 0, 0)).is_zero()
        assert not SeriesPrefix(INTEGERS, (0, 0, 1)).is_zero()

    def test_equality_is_ring_aware(self):
        a = SeriesPrefix(INTEGERS, (1, 2))
        assert a == SeriesPrefix(INTEGERS, (1, 2))
        assert a != SeriesPrefix(INTEGERS, (1, 3))
        assert a != SeriesPrefix(RATIONALS, (1, 2))
        assert (a == (1, 2)) is False

    def test_reads_like_a_tuple_of_ring_values(self):
        vals = tuple(RATIONALS.element(Fraction(x, 3)) for x in (3, 0, -1, 4, 0, 2, 5, 7, 9, 1))
        s = SeriesPrefix(RATIONALS, vals)
        assert s.payloads == tuple(v.payload for v in vals)
        assert s.order == len(vals) - 1 and len(s) == len(vals)
        assert tuple(s) == s.coeffs == vals
        assert s[3] == vals[3] and s[-1] == vals[-1]
        assert s[2:7] == vals[2:7] and s[::3] == vals[::3] and s[5:2] == ()
        with pytest.raises(IndexError):
            s[len(vals)]
        # equal to, and hashed like, the frozen (ring, coefficients) record it replaces
        same = SeriesPrefix(RATIONALS, [Fraction(x, 3) for x in (3, 0, -1, 4, 0, 2, 5, 7, 9, 1)])
        assert s == same and hash(s) == hash(same) == hash((RATIONALS, vals))
        assert len({s, same, SeriesPrefix(RATIONALS, vals[:-1])}) == 2
        assert s != SeriesPrefix(RATIONALS, vals[:-1] + (RATIONALS.zero,))
        assert repr(s) == ("<SeriesPrefix over Q to order 9: "
                           "1, 0, -1/3, 4/3, 0, 2/3, 5/3, 7/3, ...>")
        assert not s.is_zero()
        assert SeriesPrefix(RATIONALS, (RATIONALS.zero,) * 3).is_zero()
        with pytest.raises(AttributeError):
            s.payloads = ()
        assert copy.copy(s) == s

    def test_validates_foreign_values(self):
        with pytest.raises(MixedRingError):
            SeriesPrefix(INTEGERS, (INTEGERS.one, F5.one))
        with pytest.raises(RingError, match="not an integer"):
            SeriesPrefix(INTEGERS, (1, Fraction(1, 2)))
        with pytest.raises(RingError, match="cannot make a Z element"):
            SeriesPrefix(INTEGERS, (1, "2"))
        assert SeriesPrefix(F5, (7, -1)).payloads == (2, 4)
        assert residual(shipped("thue_morse_zeck.eq"),
                        SeriesPrefix(INTEGERS, (0, 1, 1, 1, 2))).is_zero()

    def test_pickles_and_deep_copies(self):
        s = solve_series(shipped("fib_repr.eq"), 10)
        for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert back == s and hash(back) == hash(s) and back.coeffs == s.coeffs
        q = SeriesPrefix(RATIONALS, (Fraction(1, 3), 0, -2))
        assert pickle.loads(pickle.dumps(q)) == copy.deepcopy(q) == q

    def test_repr_truncates(self):
        short = repr(SeriesPrefix(INTEGERS, (1, 2)))
        assert "over Z to order 1" in short and "..." not in short
        assert "..." in repr(SeriesPrefix(INTEGERS, tuple(range(12))))


# ---------------------------------------------------------------------------
# MahlerEquation construction

class TestMahlerEquation:
    def test_exponents_derived_from_support(self):
        P = shipped("hyperbinary.eq")
        assert (P.d, P.h) == (1, 2)
        assert P.coefficient(1, 1).is_one()
        assert P.coefficient(5, 5) == INTEGERS.zero
        assert {j: v for (i, j), v in P.alpha.items() if i == 1} == \
            {0: INTEGERS.one, 1: INTEGERS.one, 2: INTEGERS.one}
        assert P.is_homogeneous

    def test_zero_coefficients_dropped(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1, (1, 5): 0}, f0=1)
        assert (1, 5) not in P.alpha
        assert P.h == 0

    def test_empty_equation_rejected(self):
        with pytest.raises(EquationError, match="no nonzero coefficient"):
            MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(1, 1): 0}, f0=0)

    def test_bad_alpha_keys(self):
        with pytest.raises(EquationError, match=r"alpha key 3 is not an \(i, j\) pair"):
            MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={3: 1}, f0=0)
        with pytest.raises(EquationError, match=r"alpha index \(-1, 0\) out of range"):
            MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(-1, 0): 1}, f0=0)

    def test_bad_kind(self):
        with pytest.raises(EquationError, match="unknown numeration kind"):
            MahlerEquation(ring=INTEGERS, kind="base2", alpha={(0, 0): 1}, f0=0)

    def test_g_poly_validated_and_cleaned(self):
        with pytest.raises(EquationError, match="g exponent -1 out of range"):
            MahlerEquation(ring=INTEGERS, kind=ZECKENDORF,
                           alpha={(0, 0): 1}, f0=0, g_poly={-1: 1})
        P = MahlerEquation(ring=INTEGERS, kind=ZECKENDORF,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=0, g_poly={2: 0})
        assert P.is_homogeneous

    def test_bools_are_not_indices(self):
        # True == 1, but format_equation would write "True", which no file can spell
        with pytest.raises(EquationError, match=r"alpha index \(True, False\) out of range"):
            MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(0, 0): 1, (True, False): 1}, f0=0)
        with pytest.raises(EquationError, match="g exponent True out of range"):
            MahlerEquation(ring=INTEGERS, kind=ZECKENDORF,
                           alpha={(0, 0): 1}, f0=0, g_poly={True: 2})

    @pytest.mark.parametrize("name, bad, line", [
        ("alpha", [1, 2], "alpha [1, 2] is not a mapping"),
        ("alpha", 5, "alpha 5 is not a mapping"),
        ("g_poly", [0, 1], "g_poly [0, 1] is not a mapping"),
        ("g_poly", 7, "g_poly 7 is not a mapping"),
        ("g_poly", "ab", "g_poly 'ab' is not a mapping"),
    ])
    def test_a_table_that_is_no_mapping_is_one_line(self, name, bad, line):
        # a sequence of pairs is still read as a table; anything else dict
        # refuses is named through _quote, not a bare TypeError or ValueError
        args = dict(ring=INTEGERS, kind=ZECKENDORF, alpha={(0, 0): 1, (1, 1): 1}, f0=0)
        pairs = {"alpha": [((0, 0), 1), ((1, 1), 1)], "g_poly": [(0, 1)]}[name]
        P = MahlerEquation(**{**args, name: pairs})
        assert dict(getattr(P, name)) == {k: INTEGERS.one for k, _ in pairs}
        with pytest.raises(EquationError) as exc:
            MahlerEquation(**{**args, name: bad})
        assert str(exc.value) == line

    @pytest.mark.parametrize("ring, line", [
        ("Z", "ring must be a Ring, not 'Z'"),
        (None, "ring must be a Ring, not None"),
    ])
    def test_a_ring_that_is_no_ring_is_one_line(self, ring, line):
        # a ring spec or None is named through _quote, not a bare AttributeError
        with pytest.raises(EquationError) as exc:
            MahlerEquation(ring=ring, kind=ZECKENDORF, alpha={(0, 0): 1, (1, 1): 1}, f0=0)
        assert str(exc.value) == line

    @pytest.mark.parametrize("make, error", [
        (lambda: canonical(-10**5000), NumerationError),
        (lambda: Base(-10**5000), NumerationError),
        (lambda: ModRing(-10**5000), RingError),
        (lambda: PrimeField(10**5000), RingError),
        (lambda: MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(-10**5000, 0): 1}, f0=0),
         EquationError),
        (lambda: MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(0, 0): 1}, f0=0,
                                g_poly={-10**5000: 1}), EquationError),
    ], ids=["canonical", "Base", "ModRing", "PrimeField", "alpha", "g_poly"])
    def test_an_int_past_the_str_limit_is_named_by_its_size(self, make, error):
        with pytest.raises(error) as exc:
            make()
        line = str(exc.value)
        assert "16610-bit number" in line and len(line) < 120 and "\n" not in line

    def test_tables_are_immutable(self):
        P = shipped("fib_repr.eq")
        with pytest.raises(TypeError):
            P.alpha[(0, 0)] = INTEGERS.zero
        with pytest.raises(TypeError):
            P.g_poly[2] = INTEGERS.one

    def test_pickles_and_deep_copies(self):
        # rebuilt through the constructor: equal fields, read-only tables,
        # the same machine from the builder, and validation runs again
        for name in SHIPPED:
            P = shipped(name)
            for back in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P), copy.copy(P)):
                assert (back.ring, back.kind, back.f0, back.d, back.h) == \
                    (P.ring, P.kind, P.f0, P.d, P.h)
                assert back.alpha == P.alpha and back.g_poly == P.g_poly
                with pytest.raises(TypeError):
                    back.alpha[(0, 0)] = P.ring.zero
                if is_isolating(P) and not P.g_poly:
                    build = build_automaton_q if isinstance(P.kind, Base) else build_automaton_z
                    assert same_structure(build(back), build(P))
        P = MahlerEquation(ring=F5, kind=ZECKENDORF, alpha={(0, 0): 1, (1, 1): 3}, f0=2)
        cls, args = P.__reduce__()
        assert cls is MahlerEquation and type(args[2]) is dict
        with pytest.raises(EquationError, match="no nonzero coefficient"):
            cls(P.ring, P.kind, {(0, 0): 5}, *args[3:])

    def test_repr(self):
        assert "zeckendorf over Z, d=1, h=1" in repr(shipped("fib_repr.eq"))
        assert "base 2" in repr(shipped("hyperbinary.eq"))
        assert "inhomogeneous" in repr(shipped("dumas_fib.eq"))


# ---------------------------------------------------------------------------
# isolating form and the n = 0 identity

class TestCompatibility:
    def test_is_isolating(self):
        assert is_isolating(shipped("fib_repr.eq"))
        assert is_isolating(shipped("hyperbinary.eq"))
        assert not is_isolating(shipped("growth.eq"))
        assert not is_isolating(shipped("thue_morse_base2.eq"))
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 2, (1, 0): 1}, f0=0)
        assert not is_isolating(P)

    def test_compatible_f0(self):
        fib = shipped("fib_repr.eq")
        assert compatible_f0(fib)
        assert compatible_f0(replace(fib, f0=7))
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        assert compatible_f0(P)
        assert not compatible_f0(replace(P, f0=1))
        assert not compatible_f0(replace(P, f0=0, g_poly={0: 1}))
        assert compatible_f0(replace(P, f0=-1, g_poly={0: 1}))

    def test_column_sum_readings_agree_on_shipped(self):
        # The n = 0 identity sums the constant coefficients; published
        # statements of it bound that sum by d in one place and by h in
        # another.  The d bound is the implemented one (the initial
        # weights of the compiled automata depend on it); this pins the
        # fact that no shipped equation distinguishes the two.
        for name in SHIPPED:
            P = shipped(name)
            g0 = P.g(0)

            def verdict(bound):
                total = P.coefficient(0, 0)
                for i in range(1, bound + 1):
                    total = total - P.coefficient(i, 0)
                return (total * P.f0) == g0

            assert verdict(P.d) == verdict(P.h), name
            assert verdict(P.d) == compatible_f0(P), name


# ---------------------------------------------------------------------------
# solve_series

FIB_HEAD = [1, 1, 1, 2, 1, 2, 2, 1, 3]


class TestSolveSeries:
    def test_fib_head_frozen(self):
        assert ints(solve_series(shipped("fib_repr.eq"), 8)) == FIB_HEAD

    def test_fib_matches_subset_count_oracle(self):
        s = solve_series(shipped("fib_repr.eq"), 400)
        assert ints(s) == oracles.subset_counts(400)

    def test_hyperbinary_matches_digit_oracle(self):
        s = solve_series(shipped("hyperbinary.eq"), 512)
        assert ints(s) == oracles.hyperbinary_counts(512)

    def test_truncation_order_does_not_change_prefix(self):
        P = shipped("fib_repr.eq")
        assert solve_series(P, 60).coeffs == solve_series(P, 200).coeffs[:61]

    def test_f0_scales_the_homogeneous_solution(self):
        P = shipped("fib_repr.eq")
        assert [3 * v for v in ints(solve_series(P, 100))] == \
            ints(solve_series(replace(P, f0=3), 100))

    def test_rejects_non_isolating(self):
        with pytest.raises(EquationError, match="not isolating"):
            solve_series(shipped("growth.eq"), 10)

    def test_rejects_incompatible_f0(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        with pytest.raises(EquationError,
                           match="f0 = 1 is not compatible: the n = 0 "
                                 "coefficient identity needs 1 = 2"):
            solve_series(replace(P, f0=1), 10)

    def test_rejects_negative_order(self):
        with pytest.raises(EquationError, match="need N >= 0, got -1"):
            solve_series(shipped("fib_repr.eq"), -1)

    def test_explicit_g_prefix_overrides_polynomial(self):
        dfib = shipped("dumas_fib.eq")
        plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                               alpha=dict(dfib.alpha), f0=dfib.f0)
        g = [0, 0, 1] + [0] * 198
        assert solve_series(plain, 200, g=g).coeffs == solve_series(dfib, 200).coeffs

    def test_g_prefix_too_short(self):
        with pytest.raises(EquationError, match="g prefix too short: need g_0..g_50"):
            solve_series(shipped("dumas_fib.eq"), 50, g=[0] * 50)

    def test_g_ring_mismatch(self):
        gq = SeriesPrefix(RATIONALS, (0,) * 60)
        with pytest.raises(EquationError, match="g series ring differs"):
            solve_series(shipped("dumas_fib.eq"), 50, g=gq)

    def test_degenerate_d0(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(0, 0): 1}, f0=0)
        assert ints(solve_series(P, 10)) == [0] * 11


# ---------------------------------------------------------------------------
# residual

class TestResidual:
    def test_solutions_have_zero_residual(self):
        rng = random.Random(421)
        for ring in (INTEGERS, RATIONALS, F5):
            for kind in (BASE2, Base(3), ZECKENDORF):
                P = make_random_equation(rng, ring, kind, 3, 3)
                assert residual(P, solve_series(P, 160)).is_zero(), P

    def test_perturbed_solution_is_flagged(self):
        P = shipped("fib_repr.eq")
        s = list(solve_series(P, 50))
        s[17] = s[17] + INTEGERS.one
        assert not residual(P, s).is_zero()

    def test_thue_morse_base2_file(self):
        P = shipped("thue_morse_base2.eq")
        t = [oracles.digit_ones(n, 2) % 2 for n in range(201)]
        assert residual(P, t).is_zero()

    def test_thue_morse_zeck_file(self):
        P = shipped("thue_morse_zeck.eq")
        s = [oracles.zeckendorf_ones(n) for n in range(201)]
        assert residual(P, s).is_zero()

    def test_growth_file(self):
        f = growth_analysis(200, 0).coefficients
        assert residual(shipped("growth.eq"), f).is_zero()

    def test_inhomogeneous_part_is_observed(self):
        dfib = shipped("dumas_fib.eq")
        s = solve_series(dfib, 100)
        assert residual(dfib, s).is_zero()
        plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                               alpha=dict(dfib.alpha), f0=dfib.f0)
        assert not residual(plain, s).is_zero()
        assert residual(plain, s, g=[0, 0, 1] + [0] * 98).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(EquationError, match="series ring differs"):
            residual(shipped("fib_repr.eq"), SeriesPrefix(RATIONALS, (1, 1)))

    def test_empty_prefix(self):
        with pytest.raises(EquationError, match="empty series prefix"):
            residual(shipped("fib_repr.eq"), [])


# ---------------------------------------------------------------------------
# the oracle against a plain recurrence

ORACLE_RINGS = ("Z", "Q", "Zmod:6", "Zmod:12", "Fp:2", "Fp:7")


def ring_entries(ring):
    """Coefficients for ring: residues, mostly non-integer fractions, or
    small integers."""
    n = ring.characteristic
    if n:
        return st.integers(0, n - 1)
    if ring == RATIONALS:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(-3, 3)


@st.composite
def oracle_problems(draw):
    """(P, explicit g prefix or None, N, k, reference f_0..f_N) over every
    ring family, in base 2, base 3 and Zeckendorf, with d <= 3, h <= 4 and
    no g, a polynomial g or an explicit g prefix (which overrides a
    polynomial part); g_0 or alpha[1, 0] is chosen so that f0 is
    compatible.  k in 1..N is an index to perturb."""
    ring = parse_ring(draw(st.sampled_from(ORACLE_RINGS)))
    n = ring.characteristic
    entry = ring_entries(ring)
    kind = draw(st.sampled_from((BASE2, Base(3), ZECKENDORF)))
    d, h, N = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 60))
    alpha = {(i, j): draw(entry) for i in range(1, d + 1) for j in range(h + 1)}
    f0 = draw(entry)
    mode = draw(st.sampled_from(("none", "polynomial", "prefix")))
    g_poly = {} if mode == "none" else {j: draw(entry) for j in range(draw(st.integers(0, 5)))}
    g = [draw(entry) for _ in range(N + 1)] if mode == "prefix" else \
        [g_poly.get(j, 0) for j in range(N + 1)]
    c = sum(alpha[i, 0] for i in range(1, d + 1))
    if mode == "none":
        alpha[1, 0] += 1 - c
    else:
        g[0] = f0 * (1 - c)
        if mode == "polynomial":
            g_poly[0] = g[0]
    P = MahlerEquation(ring=ring, kind=kind, alpha={(0, 0): 1, **alpha}, f0=f0, g_poly=g_poly)
    op = oracles.phi_ref if kind == ZECKENDORF else (lambda k: kind.q * k)
    want = oracles.recurrence(alpha, f0, g, op, N, n)
    return P, (g if mode == "prefix" else None), N, draw(st.integers(1, N)), want


def assert_canonical(series):
    ring = series.ring
    for v in series:
        if ring == RATIONALS:
            assert type(v.payload) is Fraction
        else:
            assert type(v.payload) is int
            assert ring.characteristic == 0 or 0 <= v.payload < ring.characteristic


@settings(max_examples=200)
@given(oracle_problems())
def test_oracle_equals_plain_recurrence(problem):
    P, g, N, k, want = problem
    s = solve_series(P, N, g=g)
    assert [v.payload for v in s] == want
    assert_canonical(s)
    res = residual(P, s, g=g)
    assert res.is_zero()
    assert_canonical(res)
    bad = list(s)
    bad[k] = bad[k] + P.ring.one
    res = residual(P, bad, g=g)
    assert [bool(v) for v in res].index(True) == k
    assert res[k].is_one()
    assert_canonical(res)


@st.composite
def residual_problems(draw):
    """(P, s, g, reference residual) with an A_0 that has terms beyond
    x^0 (so P is not isolating), random A_1..A_d (d <= 3), a random
    prefix s and an explicit g, over every ring family, in base 2, base 3
    and Zeckendorf."""
    ring = parse_ring(draw(st.sampled_from(ORACLE_RINGS)))
    n = ring.characteristic
    entry = ring_entries(ring)
    kind = draw(st.sampled_from((BASE2, Base(3), ZECKENDORF)))
    d, h, N = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 60))
    alpha = {(i, j): draw(entry) for i in range(d + 1) for j in range(h + 1)}
    alpha[0, draw(st.integers(1, 3))] = draw(entry.filter(bool))
    s = [draw(entry) for _ in range(N + 1)]
    g = [draw(entry) for _ in range(N + 1)]
    P = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=0)
    op = oracles.phi_ref if kind == ZECKENDORF else (lambda k: kind.q * k)
    want = oracles.residual(alpha, s, g, op)
    return P, s, g, [r % n for r in want] if n else want


@settings(max_examples=100)
@given(residual_problems())
def test_residual_equals_plain_sum(problem):
    P, s, g, want = problem
    res = residual(P, s, g=g)
    assert [v.payload for v in res] == want
    assert_canonical(res)


# denominators far past ring_entries' 1..4: over Q the oracle runs on ints
# over one common denominator, which these make hundreds of bits long
M61 = 2**61 - 1
BIG_ALPHA = {(1, 1): Fraction(1, M61), (1, 2): Fraction(-7, 1000003),
             (2, 0): Fraction(7, 1000003), (2, 1): Fraction(3, 4)}


def kind_op(kind):
    return oracles.phi_ref if kind == ZECKENDORF else (lambda k: kind.q * k)


@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF], ids=["base2", "base3", "zeck"])
@pytest.mark.parametrize("mode", ["none", "polynomial", "prefix"])
def test_q_oracle_with_large_denominators(kind, mode):
    N = 500
    f0 = Fraction(-5, 1000003)
    alpha = {(1, 0): Fraction(1, 2), **BIG_ALPHA}
    if mode == "none":
        alpha[1, 0] = 1 - alpha[2, 0]  # the constant terms sum to 1: f0 is compatible
        g = [Fraction(0)] * (N + 1)
    elif mode == "polynomial":
        g = [Fraction(0)] * (N + 1)
        g[2], g[5] = Fraction(3, M61), Fraction(-1, 1000003)
    else:
        g = [Fraction(n % 7 - 3, M61) + Fraction(n % 3, 1000003) for n in range(N + 1)]
    g[0] = f0 * (1 - alpha[1, 0] - alpha[2, 0])
    g_poly = {j: v for j, v in enumerate(g) if v} if mode == "polynomial" else {}
    P = MahlerEquation(ring=RATIONALS, kind=kind, alpha={(0, 0): 1, **alpha}, f0=f0,
                       g_poly=g_poly)
    explicit = g if mode == "prefix" else None
    s = solve_series(P, N, g=explicit)
    assert [v.payload for v in s] == oracles.recurrence(alpha, f0, g, kind_op(kind), N)
    assert_canonical(s)
    res = residual(P, s, g=explicit)
    assert res.is_zero() and len(res) == N + 1
    assert all(p is RATIONALS.zero.payload for p in res.payloads)
    bad = [v.payload for v in s]
    bad[N // 3] += Fraction(1, 1000033)
    res = residual(P, bad, g=explicit)
    assert [v.payload for v in res] == oracles.residual(
        {(0, 0): 1, **alpha}, bad, g, kind_op(kind))
    assert_canonical(res)


@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF], ids=["base2", "base3", "zeck"])
def test_q_residual_on_a_prefix_whose_denominators_share_nothing_with_the_equation(kind):
    # A_0 = 1 + x^2/M61 makes the equation non-isolating; s and g are over
    # 11, 13^2 and 1000033, primes the equation's denominators do not hold
    N = 300
    alpha = {(0, 0): Fraction(1), (0, 2): Fraction(1, M61), **BIG_ALPHA}
    s = [Fraction(n % 5 - 2, (11, 169, 1000033)[n % 3]) for n in range(N + 1)]
    g = [Fraction(n % 4, 1000033 * 11) for n in range(N + 1)]
    P = MahlerEquation(ring=RATIONALS, kind=kind, alpha=alpha, f0=0)
    res = residual(P, s, g=g)
    assert [v.payload for v in res] == oracles.residual(alpha, s, g, kind_op(kind))
    assert_canonical(res)


@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF], ids=["base2", "base3", "zeck"])
def test_q_oracle_at_order_zero_and_with_no_phi_term(kind):
    # N = 0: f_0 alone; alpha[0, 0] = 1 alone: f = g, and nothing to scale by
    P = MahlerEquation(ring=RATIONALS, kind=kind, alpha={(0, 0): 1, **BIG_ALPHA},
                       f0=Fraction(2, M61), g_poly={0: Fraction(2, M61) * (1 - BIG_ALPHA[2, 0])})
    s = solve_series(P, 0)
    assert s.payloads == (Fraction(2, M61),)
    assert_canonical(s)
    assert residual(P, s).is_zero()
    g = {0: Fraction(3, 1000003), 4: Fraction(-1, M61), 9: Fraction(5, 7)}
    P = MahlerEquation(ring=RATIONALS, kind=kind, alpha={(0, 0): 1}, f0=g[0], g_poly=g)
    for N in (0, 1, 9, 40):
        want = [g.get(n, Fraction(0)) for n in range(N + 1)]
        s = solve_series(P, N)
        assert [v.payload for v in s] == want == oracles.recurrence(
            {}, g[0], want, kind_op(kind), N)
        assert_canonical(s)
        res = residual(P, s)
        assert res.is_zero() and len(res) == N + 1
        assert_canonical(res)


@pytest.mark.parametrize("spec", ORACLE_RINGS)
@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF], ids=["base2", "base3", "zeck"])
def test_a_term_with_no_preimage_reads_zero_not_the_last_term(spec, kind):
    # each table is read shifted by j, and a -1 in it (no preimage, or
    # n < j) reads the zero kept past s_N.  Every term i >= 1 here has no
    # preimage at n = N, nor has j = N + 3 anywhere, while s_N = 1: a -1
    # that read s_N would add a term to r_N
    ring, op, N = parse_ring(spec), kind_op(kind), 41
    alpha, row = {(0, 0): 1, (0, 2): 2, (1, N + 3): 5}, range(N + 1)
    for i in (1, 2, 3):
        row = [op(k) for k in row]  # op^i(k), k = 0..N
        alpha |= {(i, j): i + j + 1 for j in range(6) if N - j not in row}
    assert sum(i >= 1 and j <= N for i, j in alpha) >= 4
    if ring == RATIONALS:
        alpha = {key: Fraction(a, key[1] % 3 + 2) for key, a in alpha.items()}
        s = [Fraction(n % 7 - 3, n % 4 + 1) for n in range(N)] + [Fraction(1)]
    else:
        s = [n % 7 - 3 for n in range(N)] + [1]
    P = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=0)
    n = ring.characteristic
    want = oracles.residual(alpha, s, [0] * (N + 1), op)
    res = residual(P, s)
    assert [v.payload for v in res] == [r % n if n else r for r in want]
    assert_canonical(res)


@pytest.mark.parametrize("spec", ["Z", "Q", "Zmod:6", "Fp:7"])
@pytest.mark.parametrize("kind", [BASE2, Base(3), ZECKENDORF], ids=["base2", "base3", "zeck"])
def test_a_term_far_past_the_prefix_changes_nothing_and_costs_nothing(spec, kind):
    # a table is shifted by min(j, N + 1): alpha at j = 10^12 adds nothing
    # to N = 100, and no table of 10^12 entries is made
    ring, N = parse_ring(spec), 100
    third = Fraction(1, 3) if ring == RATIONALS else 4
    alpha = {(0, 0): 1, (1, 0): 1, (1, 1): third, (2, 2): 2}  # any f0 is compatible
    P = MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=1)
    far = MahlerEquation(ring=ring, kind=kind, alpha={**alpha, (1, 10**12): 3, (2, 10**12): third},
                         f0=1)
    s = solve_series(P, N)
    bad = [v.payload for v in s]
    bad[N // 2] += 1
    tracemalloc.start()
    try:
        got = solve_series(far, N), residual(far, bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (s, residual(P, bad))
    assert not got[1].is_zero()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# equation files

class TestEquationFiles:
    def test_round_trip_shipped(self):
        for name in SHIPPED:
            P = parse_equation(equation_text(name))
            Q = parse_equation(format_equation(P))
            assert Q.ring == P.ring, name
            assert Q.kind == P.kind, name
            assert Q.alpha == P.alpha, name
            assert Q.f0 == P.f0, name
            assert Q.g_poly == P.g_poly, name

    def test_format_is_a_fixed_point_of_parse_then_format(self):
        for name in SHIPPED:
            text = format_equation(parse_equation(equation_text(name)))
            assert format_equation(parse_equation(text)) == text, name

    def test_format_declares_true_exponents(self):
        txt = format_equation(shipped("hyperbinary.eq"))
        assert "d 1\n" in txt
        assert "h 2\n" in txt
        assert txt.startswith("ring Z\n")
        assert txt.endswith("\n")

    def test_duplicate_directive(self):
        with pytest.raises(EquationFileError, match="line 2: duplicate ring line"):
            parse_equation("ring Z\nring Q\n")

    def test_unknown_directive(self):
        with pytest.raises(EquationFileError, match="line 1: unknown directive 'beta'"):
            parse_equation("beta 1 2 3\n")

    def test_wrong_arity(self):
        with pytest.raises(EquationFileError,
                           match="line 1: expected: alpha <i> <j> <element>"):
            parse_equation("alpha 0 0\n")
        with pytest.raises(EquationFileError, match="line 1: expected: ring <spec>"):
            parse_equation("ring\n")
        with pytest.raises(EquationFileError, match="line 1: expected: g <j> <element>"):
            parse_equation("g 2\n")
        with pytest.raises(EquationFileError, match="line 3: expected: d <int>"):
            parse_equation("ring Z\nnumeration zeckendorf\nd 1 2\n")
        with pytest.raises(EquationFileError, match="line 3: expected: f0 <element>"):
            parse_equation("ring Z\nnumeration zeckendorf\nf0 1 2\n")

    def test_arity_after_duplicate_and_for_each_directive(self):
        with pytest.raises(EquationFileError, match="line 2: duplicate h line"):
            parse_equation("h 1\nh 1 2\n")
        with pytest.raises(EquationFileError, match="line 1: expected: h <int>"):
            parse_equation("h 1 2\nbeta\n")
        with pytest.raises(EquationFileError, match="line 1: expected: numeration base <q>  or"):
            parse_equation("numeration base\n")

    def test_non_integer_index(self):
        with pytest.raises(EquationFileError,
                           match="line 1: alpha index i must be an integer, got 'x'"):
            parse_equation("alpha x 0 1\n")

    def test_negative_indices(self):
        with pytest.raises(EquationFileError,
                           match=r"line 1: alpha indices must be nonnegative, got \(-1, 0\)"):
            parse_equation("alpha -1 0 1\n")
        with pytest.raises(EquationFileError,
                           match="line 1: g exponent must be nonnegative, got -1"):
            parse_equation("g -1 1\n")

    def test_duplicate_entries(self):
        text = "ring Z\nnumeration base 2\nf0 1\nalpha 0 0 1\nalpha 0 0 1\n"
        with pytest.raises(EquationFileError, match=r"line 5: duplicate alpha \(0, 0\)"):
            parse_equation(text)
        with pytest.raises(EquationFileError, match="line 2: duplicate g 2"):
            parse_equation("g 2 1\ng 2 5\n")

    def test_missing_directives(self):
        with pytest.raises(EquationFileError, match="missing ring line"):
            parse_equation("numeration base 2\nf0 1\nalpha 0 0 1\n")
        with pytest.raises(EquationFileError, match="missing numeration line"):
            parse_equation("ring Z\nf0 1\nalpha 0 0 1\n")
        with pytest.raises(EquationFileError, match="missing f0 line"):
            parse_equation("ring Z\nnumeration base 2\nalpha 0 0 1\n")
        with pytest.raises(EquationFileError, match="missing alpha lines"):
            parse_equation("ring Z\nnumeration base 2\nf0 1\n")

    def test_bad_ring_spec(self):
        with pytest.raises(EquationFileError, match="line 1: unknown ring spec 'Foo'"):
            parse_equation("ring Foo\n")

    def test_bad_numeration(self):
        with pytest.raises(EquationFileError, match="line 1: base must be an integer >= 2"):
            parse_equation("numeration base 1\n")
        with pytest.raises(EquationFileError, match="numeration base <q>"):
            parse_equation("numeration fibonacci\n")

    def test_bad_element(self):
        text = "ring Z\nnumeration base 2\nf0 x\nalpha 0 0 1\n"
        with pytest.raises(EquationFileError, match="line 3: bad f0: bad Z element 'x'"):
            parse_equation(text)
        text = "ring Z\nnumeration base 2\nf0 1\nalpha 1 0 y\nalpha 0 0 1\n"
        with pytest.raises(EquationFileError, match="line 4: bad alpha 1 0: bad Z element 'y'"):
            parse_equation(text)

    @pytest.mark.parametrize("spec", ["Z", "Q", "Fp:7"])
    def test_literals_are_ascii_decimal(self, spec):
        # int() alone reads "1_0" as 10 and "١" (Arabic-Indic one) as 1
        head = f"ring {spec}\nnumeration zeckendorf\n"
        for bad in ("1_0", "١"):
            with pytest.raises(EquationFileError,
                               match=f"line 3: bad f0: bad {spec} element '{bad}'"):
                parse_equation(f"{head}f0 {bad}\nalpha 0 0 1\n")
            with pytest.raises(EquationFileError,
                               match=f"line 4: bad alpha 1 0: bad {spec} element '{bad}'"):
                parse_equation(f"{head}f0 1\nalpha 1 0 {bad}\nalpha 0 0 1\n")
            with pytest.raises(EquationFileError, match="line 4: alpha index i must be an integer"):
                parse_equation(f"{head}f0 1\nalpha {bad} 0 1\nalpha 0 0 1\n")
        with pytest.raises(EquationFileError, match="line 3: bad g 0: bad Q element '1/2_0'"):
            parse_equation("ring Q\nnumeration zeckendorf\ng 0 1/2_0\nf0 0\nalpha 0 0 1\n")

    def test_all_zero_alpha(self):
        with pytest.raises(EquationFileError, match="all alpha coefficients are zero"):
            parse_equation("ring Z\nnumeration base 2\nf0 0\nalpha 0 0 0\n")

    def test_declared_mismatch_names_the_line(self):
        text = "ring Z\nnumeration base 2\nd 2\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
        with pytest.raises(EquationFileError,
                           match="line 3: declared d = 2 but the alpha lines give d = 1"):
            parse_equation(text)
        text = "ring Z\nnumeration base 2\nh 3\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
        with pytest.raises(EquationFileError,
                           match="line 3: declared h = 3 but the alpha lines give h = 0"):
            parse_equation(text)

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\nring Z\n  # indented comment\nnumeration base 2\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
        P = parse_equation(text)
        assert P.d == 1


# ---------------------------------------------------------------------------
# base-q compilation

WIDE_RINGS = tuple(parse_ring(spec) for spec in ("Z", "Q", "Zmod:6", "Fp:5"))


def wide_equation(rng, ring, kind, d_max, h_max, f0):
    """A random isolating equation with 1 <= d <= d_max and 1 <= h <= h_max,
    past the sizes c04 and c05 draw, with alpha[d, h] nonzero.  Over Q the
    coefficients are mostly not integers.  f0 is 0 or 1; for f0 = 1 the
    column-0 coefficients sum to one.  With f0 = 0 the machine trims to
    empty, so callers pass it rarely."""
    n = ring.characteristic

    def coeff():
        if n:
            return rng.randrange(1, n)
        c = rng.choice((-2, -1, 1, 2))
        return Fraction(c, rng.randint(1, 3)) if ring == RATIONALS else c

    d, h = rng.randint(1, d_max), rng.randint(1, h_max)
    alpha = {(i, j): coeff() for i in range(1, d + 1) for j in range(h + 1)
             if rng.random() < 0.45}
    alpha[d, h] = coeff()
    if f0:
        alpha[1, 0] = 1 - sum(alpha.get((i, 0), 0) for i in range(2, d + 1))
    return MahlerEquation(ring=ring, kind=kind, alpha={(0, 0): 1, **alpha}, f0=f0)


# d = 2, h = 3, q = 2: the full 6-state grid of build_automaton_q
TWO_LAYER = MahlerEquation(
    ring=INTEGERS, kind=BASE2,
    alpha={(0, 0): 1, (1, 0): 2, (1, 1): 3, (1, 2): 4, (1, 3): 5,
           (2, 0): -1, (2, 1): 6, (2, 2): 7, (2, 3): 8},
    f0=1)


class TestBuildAutomatonQ:
    def test_hyperbinary_two_states(self):
        A = build_automaton_q(shipped("hyperbinary.eq"))
        assert len(A.states) == 2
        assert A.alphabet == (0, 1)

    def test_hyperbinary_matches_oracle(self):
        A = build_automaton_q(shipped("hyperbinary.eq"))
        assert ints(sequence_prefix(A, BASE2, 400)) == oracles.hyperbinary_counts(400)

    def test_leading_zeros_do_not_change_weights(self):
        A = build_automaton_q(shipped("hyperbinary.eq"))
        for n in (0, 1, 5, 11, 100):
            w = canonical(n, BASE2)
            assert weight(A, (0, 0, 0) + w) == weight(A, w)

    def test_two_layer_grid_structure(self):
        # every arrow of the full grid is forced by the construction rule,
        # so the whole table is asserted literally
        P = TWO_LAYER
        A = build_automaton_q(P)
        e = INTEGERS.element
        expected = WeightedAutomaton(
            ring=INTEGERS,
            alphabet=(0, 1),
            states=("s0_0", "s0_1", "s0_2", "s1_0", "s1_1", "s1_2"),
            initial=(e(1), e(0), e(0), e(1), e(0), e(0)),
            final=(e(1), e(0), e(0), e(0), e(0), e(0)),
            transitions={
                (0, 0, 0): e(2), (0, 0, 3): e(1),
                (0, 1, 0): e(3), (0, 1, 1): e(2), (0, 1, 4): e(1),
                (1, 0, 0): e(4), (1, 0, 1): e(3), (1, 0, 2): e(2), (1, 0, 5): e(1),
                (1, 1, 0): e(5), (1, 1, 1): e(4), (1, 1, 2): e(3),
                (2, 0, 1): e(5), (2, 0, 2): e(4),
                (2, 1, 2): e(5),
                (3, 0, 0): e(-1),
                (3, 1, 0): e(6), (3, 1, 1): e(-1),
                (4, 0, 0): e(7), (4, 0, 1): e(6), (4, 0, 2): e(-1),
                (4, 1, 0): e(8), (4, 1, 1): e(7), (4, 1, 2): e(6),
                (5, 0, 1): e(8), (5, 0, 2): e(7),
                (5, 1, 2): e(8),
            })
        assert same_structure(A, expected)
        assert list(sequence_prefix(A, BASE2, 500)) == list(solve_series(P, 500))

    def test_grid_numbered_row_major(self):
        # the whole grid is seeded in row order, so the numbering stays
        # i-major; seeding only the j = 0 column would number breadth-first
        # (s0_0, s1_0, s1_1, s0_1, ...)
        assert build_automaton_q(TWO_LAYER).states == \
            ("s0_0", "s0_1", "s0_2", "s1_0", "s1_1", "s1_2")

    def test_state_bound_on_randomized_instances(self):
        rng = random.Random(99)
        for trial in range(6):
            ring = (INTEGERS, F5, F2)[trial % 3]
            q = (2, 3)[trial % 2]
            P = make_random_equation(rng, ring, Base(q), 3, 4,
                                     zero_f0=trial % 2 == 0)
            A = build_automaton_q(P)
            bound = P.d * max(1, -(-P.h // (q - 1)))
            assert len(A.states) <= bound
            assert list(sequence_prefix(A, P.kind, 600)) == \
                list(solve_series(P, 600))

    def test_widened_randomized_instances_match_oracle(self):
        # bases 2, 3 and 5 with d <= 4 and h <= 6, each base over each ring
        rng = random.Random(20)
        for trial in range(12):
            P = wide_equation(rng, WIDE_RINGS[trial % 4], Base((2, 3, 5)[trial % 3]), 4, 6,
                              f0=int(trial != 5))
            want = solve_series(P, 1000)
            assert sequence_prefix(build_automaton_q(P), P.kind, 1000) == want, P
            assert sequence_prefix(_build(P, None, 1, 3), P.kind, 1000) == want, P

    def test_degenerate_instances(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(0, 0): 1}, f0=0)
        A = build_automaton_q(P)
        assert A.states == ()
        assert ints(sequence_prefix(A, BASE2, 10)) == [0] * 11
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=1)
        A = build_automaton_q(P)
        assert A.states == ("s0_0",)
        assert ints(sequence_prefix(A, BASE2, 8)) == [1] + [0] * 8

    def test_widened_grid_is_weight_identical(self):
        P = shipped("hyperbinary.eq")
        A = build_automaton_q(P)
        Ax = _build(P, None, 1, 3)
        assert len(Ax.states) == 2
        assert list(sequence_prefix(A, BASE2, 300)) == \
            list(sequence_prefix(Ax, BASE2, 300))

    def test_rejects_wrong_kind(self):
        with pytest.raises(EquationError, match="needs a base-q equation"):
            build_automaton_q(shipped("fib_repr.eq"))

    def test_rejects_inhomogeneous(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=1, g_poly={2: 1})
        with pytest.raises(EquationError, match="supported only over Zeckendorf"):
            build_automaton_q(P)

    def test_rejects_non_isolating(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 2, (1, 0): 1}, f0=0)
        with pytest.raises(EquationError, match="not isolating"):
            build_automaton_q(P)

    def test_rejects_incompatible_f0(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        with pytest.raises(EquationError, match="is not compatible"):
            build_automaton_q(replace(P, f0=1))


# ---------------------------------------------------------------------------
# Zeckendorf compilation

class TestBuildAutomatonZ:
    def test_state_space_fib(self):
        info = z_state_space(shipped("fib_repr.eq"))
        assert info == ZSpaceInfo(h_tilde=3, window=3, grid_bound=160,
                                  trim_bound=320)

    def test_state_space_twolayer(self):
        info = z_state_space(shipped("dumas_twolayer.eq"))
        assert info == ZSpaceInfo(h_tilde=2, window=2, grid_bound=120,
                                  trim_bound=0)

    def test_fib_build(self):
        P = shipped("fib_repr.eq")
        A = build_automaton_z(P)
        assert len(A.states) == 29
        assert len(A.states) <= z_state_space(P).trim_bound
        assert ints(sequence_prefix(A, ZECKENDORF, 500)) == oracles.subset_counts(500)

    def test_weight_z_guards_the_contract(self):
        A = build_automaton_z(shipped("fib_repr.eq"))
        assert weight_z(A, (1, 0, 0)).payload == 2
        assert weight_z(A, "100").payload == 2
        with pytest.raises(NumerationError, match="adjacent ones"):
            weight_z(A, (1, 1, 0))

    def test_leading_zeros_do_not_change_weights(self):
        A = build_automaton_z(shipped("fib_repr.eq"))
        for n in (0, 1, 4, 12, 64, 200):
            w = canonical(n)
            for k in range(1, 4):
                assert weight(A, (0,) * k + w) == weight(A, w)

    def test_randomized_instances_match_oracle(self):
        rng = random.Random(7)
        for trial in range(4):
            ring = (INTEGERS, F5)[trial % 2]
            P = make_random_equation(rng, ring, ZECKENDORF, 2, 3,
                                     zero_f0=trial % 2 == 1)
            A = build_automaton_z(P)
            assert list(sequence_prefix(A, ZECKENDORF, 400)) == \
                list(solve_series(P, 400))

    def test_widened_randomized_instances_match_oracle(self):
        # d <= 3 and h <= 4, each ring twice
        rng = random.Random(20)
        for trial in range(8):
            P = wide_equation(rng, WIDE_RINGS[trial % 4], ZECKENDORF, 3, 4, f0=int(trial != 6))
            want = solve_series(P, 400)
            assert sequence_prefix(build_automaton_z(P), ZECKENDORF, 400) == want, P
            assert sequence_prefix(_build(P, None, 1, 3), ZECKENDORF, 400) == want, P

    def test_widened_grid_is_weight_identical(self):
        P = shipped("fib_repr.eq")
        A = build_automaton_z(P)
        Ax = _build(P, None, 1, 3)
        assert len(A.states) == 29
        assert len(Ax.states) == 47
        assert list(sequence_prefix(A, ZECKENDORF, 300)) == \
            list(sequence_prefix(Ax, ZECKENDORF, 300))

    def test_rejects_wrong_kind(self):
        with pytest.raises(EquationError, match="needs a Zeckendorf equation"):
            build_automaton_z(shipped("hyperbinary.eq"))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(EquationError, match="need build_automaton_dumas"):
            build_automaton_z(shipped("dumas_fib.eq"))

    def test_rejects_non_isolating(self):
        with pytest.raises(EquationError, match="not isolating"):
            build_automaton_z(shipped("growth.eq"))

    def test_rejects_incompatible_f0(self):
        P = MahlerEquation(ring=INTEGERS, kind=ZECKENDORF,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        with pytest.raises(EquationError, match="is not compatible"):
            build_automaton_z(replace(P, f0=1))


# ---------------------------------------------------------------------------
# inhomogeneous Zeckendorf compilation

DUMAS_FIB_HEAD = [1, 1, 2, 3, 2, 3, 3, 2, 5, 3, 3, 5, 2,
                  5, 5, 3, 6, 3, 5, 5, 2, 7, 5, 5, 8]
DUMAS_TWO_HEAD = [0, 0, 1, 2, 0, 3, 0, 0, 5, 0, 0, 0, 0,
                  8, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0]


class TestBuildAutomatonDumas:
    def test_shipped_fib_instance(self):
        P = shipped("dumas_fib.eq")
        A = build_automaton_dumas(P)
        assert len(A.states) == 34
        s = sequence_prefix(A, ZECKENDORF, 500)
        assert ints(s)[:25] == DUMAS_FIB_HEAD
        assert list(s) == list(solve_series(P, 500))

    def test_shipped_twolayer_instance(self):
        # Fibonacci numbers at Fibonacci positions, zero elsewhere.
        P = shipped("dumas_twolayer.eq")
        A = build_automaton_dumas(P)
        assert len(A.states) == 8
        s = sequence_prefix(A, ZECKENDORF, 500)
        assert ints(s)[:25] == DUMAS_TWO_HEAD
        assert list(s) == list(solve_series(P, 500))

    def test_homogeneous_input_matches_plain_build(self):
        P = shipped("fib_repr.eq")
        D = build_automaton_dumas(P)
        B = build_automaton_z(P)
        assert list(sequence_prefix(D, ZECKENDORF, 300)) == \
            list(sequence_prefix(B, ZECKENDORF, 300))
        assert same_structure(D, B)
        rng = random.Random(5)
        for trial in range(8):
            ring = (INTEGERS, RATIONALS, F5, ModRing(6))[trial % 4]
            P = make_random_equation(rng, ring, ZECKENDORF, 3, 4,
                                     zero_f0=trial % 3 == 0)
            assert same_structure(build_automaton_dumas(P), build_automaton_z(P))

    def test_explicit_g_automaton(self):
        dfib = shipped("dumas_fib.eq")
        plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                               alpha=dict(dfib.alpha), f0=dfib.f0)
        G = polynomial_automaton([0, 0, 1], ZECKENDORF, INTEGERS)
        A = build_automaton_dumas(plain, G=G)
        assert list(sequence_prefix(A, ZECKENDORF, 300)) == \
            list(solve_series(dfib, 300))

    def test_f0_override(self):
        P = replace(shipped("dumas_fib.eq"), f0=0)
        A = build_automaton_dumas(P)
        s = sequence_prefix(A, ZECKENDORF, 200)
        assert ints(s)[:8] == [0, 0, 1, 1, 1, 1, 1, 1]
        assert list(s) == list(solve_series(P, 200))

    def test_rejects_wrong_kind(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=1, g_poly={2: 1})
        with pytest.raises(EquationError, match="needs a Zeckendorf equation"):
            build_automaton_dumas(P)

    def test_rejects_double_g(self):
        G = polynomial_automaton([0, 0, 1], ZECKENDORF, INTEGERS)
        with pytest.raises(EquationError, match="not both"):
            build_automaton_dumas(shipped("dumas_fib.eq"), G=G)

    def test_rejects_ring_mismatch(self):
        dfib = shipped("dumas_fib.eq")
        plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                               alpha=dict(dfib.alpha), f0=dfib.f0)
        G = polynomial_automaton([0, 0, 1], ZECKENDORF, RATIONALS)
        with pytest.raises(EquationError, match="g automaton ring differs"):
            build_automaton_dumas(plain, G=G)

    def test_rejects_wrong_alphabet(self):
        dfib = shipped("dumas_fib.eq")
        plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                               alpha=dict(dfib.alpha), f0=dfib.f0)
        e = INTEGERS.element
        G = WeightedAutomaton(ring=INTEGERS, alphabet=(0, 1, 2), states=("a",),
                              initial=(e(1),), final=(e(1),), transitions={})
        with pytest.raises(EquationError, match=r"read the digits \{0, 1\}"):
            build_automaton_dumas(plain, G=G)

    def test_rejects_non_isolating(self):
        with pytest.raises(EquationError, match="not isolating"):
            build_automaton_dumas(shipped("growth.eq"))

    def test_rejects_incompatible_f0(self):
        with pytest.raises(EquationError, match="f0 = 1 is not compatible"):
            build_automaton_dumas(replace(shipped("dumas_twolayer.eq"), f0=1))


@st.composite
def automaton_g_problems(draw, rings=("Z", "Q", "Zmod:6", "Fp:5"), d_max=2, h_max=2):
    """(P, G, reference g_0..g_N) for a random G over {0, 1} with one to
    three states and I mu(0) = I (state 0 alone starts, and its one
    0-arrow is a loop of weight 1), and a random isolating Zeckendorf P
    with d <= d_max, h <= h_max whose constant terms sum to zero, so f0 =
    g_0 is compatible.  g comes from path sums, not from the package; at
    most two arrows leave a state on each digit, which keeps the paths of
    a ten-digit word to 2^10."""
    ring = parse_ring(draw(st.sampled_from(rings)))
    n = ring.characteristic
    entry = ring_entries(ring)
    size = draw(st.integers(1, 3))
    initial = [draw(entry.filter(bool))] + [0] * (size - 1)
    final = [draw(entry) for _ in range(size)]
    arrows = {(0, 0, 0): 1}
    for src in range(size):
        for label in (0, 1) if src else (1,):
            for _ in range(2):
                arrows[src, label, draw(st.integers(0, size - 1))] = draw(entry)
    arrows = {key: w for key, w in arrows.items() if w}
    G = WeightedAutomaton(ring=ring, alphabet=(0, 1), states=tuple(f"g{k}" for k in range(size)),
                          initial=initial, final=final, transitions=arrows)
    g = [oracles.path_sum(initial, final, arrows, map(int, oracles.zeckendorf_greedy(m)))
         for m in range(121)]
    g = [x % n for x in g] if n else g
    d, h = draw(st.integers(1, d_max)), draw(st.integers(0, h_max))
    alpha = {(i, j): draw(entry) for i in range(1, d + 1) for j in range(h + 1)}
    alpha[1, 0] = -sum(alpha[i, 0] for i in range(2, d + 1))
    P = MahlerEquation(ring=ring, kind=ZECKENDORF, alpha={(0, 0): 1, **alpha}, f0=g[0])
    return P, G, g


@settings(max_examples=6)
@given(automaton_g_problems())
def test_zeckendorf_build_with_an_automaton_g(problem):
    P, G, g = problem
    A = build_automaton_dumas(P, G=G)
    assert sequence_prefix(A, ZECKENDORF, 120) == solve_series(P, 120, g=g)
    assert same_structure(automaton_from_json(automaton_to_json(A)), A)


@settings(max_examples=20)
@given(automaton_g_problems(rings=("Q", "Zmod:6", "Zmod:12"), d_max=3, h_max=4))
def test_zeckendorf_build_with_an_automaton_g_past_d_h_2(problem):
    # Q coefficients are mostly non-integer fractions, and over Q the
    # check walks the machine's integer image; Zmod:n has zero divisors
    P, G, g = problem
    A = build_automaton_dumas(P, G=G)
    assert sequence_prefix(A, ZECKENDORF, 120) == solve_series(P, 120, g=g)


def test_builder_json_is_pinned():
    # sha256 of automaton_to_json: a rewrite of a builder must keep its
    # output byte for byte (state names and order, vectors, arrows).
    dfib = shipped("dumas_fib.eq")
    plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                           alpha=dict(dfib.alpha), f0=dfib.f0)
    fib = shipped("fib_repr.eq")
    twolayer = shipped("dumas_twolayer.eq")
    builds = {
        "z fib_repr": (build_automaton_z(fib),
                       "a2fbd86c864454e60e720363a9a6041b3f23dd7df9d354e2e9e365ba31c96339"),
        "z fib_repr widened": (
            _build(fib, None, 1, 3),
            "2f06c37a3be504bc864500ad3e24cd70676d224063a8c5945c8b575bd79918ff"),
        "dumas fib_repr": (build_automaton_dumas(fib),
                           "a2fbd86c864454e60e720363a9a6041b3f23dd7df9d354e2e9e365ba31c96339"),
        "dumas dumas_fib": (build_automaton_dumas(dfib),
                            "114a36dff517a730f666e4db0476a8f2317774f2c09bb941677419d383f0f7ce"),
        "dumas dumas_twolayer": (
            build_automaton_dumas(shipped("dumas_twolayer.eq")),
            "ed1f6bef8853ab93982b260964e0450b3315d93933eab41110ea83989a3396bd"),
        "dumas G = count-ones": (
            build_automaton_dumas(plain, G=count_ones_automaton(INTEGERS)),
            "ba8884b0ddec0bb0bf3bc163c20791044f32748b21c42b1b1eae1c3a00bac58b"),
        "dumas G = x^2": (
            build_automaton_dumas(
                plain, G=polynomial_automaton([0, 0, 1], ZECKENDORF, INTEGERS)),
            "114a36dff517a730f666e4db0476a8f2317774f2c09bb941677419d383f0f7ce"),
        "q hyperbinary": (build_automaton_q(shipped("hyperbinary.eq")),
                          "c23cf552e700ad44f0bb0528835504d4c5733d6fdaee41c031cfcd64e9450c9e"),
        "q two-layer": (build_automaton_q(TWO_LAYER),
                        "42088ae60aa44c0a45f368287a346647c0fe4b07dddcdc7c7e8ed71b4cda96fe"),
        "q hyperbinary widened": (
            _build(shipped("hyperbinary.eq"), None, 1, 3),
            "c23cf552e700ad44f0bb0528835504d4c5733d6fdaee41c031cfcd64e9450c9e"),
        "q two-layer widened": (
            _build(TWO_LAYER, None, 1, 3),
            "42088ae60aa44c0a45f368287a346647c0fe4b07dddcdc7c7e8ed71b4cda96fe"),
        "dumas dumas_twolayer widened": (
            _build(twolayer, polynomial_automaton([twolayer.g(j) for j in range(4)],
                                                  ZECKENDORF, INTEGERS), 1, 3),
            "cbc416193ca84157e6f72a88eaef0d9b67af9d4397446f7822e710f17b060b4e"),
    }
    # base-q draws with d <= 4 and h <= 6; the f0 = 0 one (base 3 over Fp:5) trims to empty
    wide = iter((
        "90316d47aed9ae2523fed2ef4e16095932e07c2262160b532380d7cbcf23a2c7",
        "9ccbc639fa0a3c83a9cffaf42b0d85e3878a57116a4aa061f05722f1f2691f0b",
        "19c6c6126cc2cc631d828dad591ec5442f64d5f96df4cbf9044f94a2eb1ff9e5",
        "d67997f11637de5fe53544ebe9fa297256ee937d916d1876fde3a30e6064a5e2",
        "c1609d3e1d816067d1893cead3d73d9675c10973d454946c99ca6ac2ef4034eb",
        "891082fad7cd736be7c7cd653cc268762560983ebfb9eb50ff1c251b17e26090",
    ))
    rng = random.Random(23)
    for t, (q, spec) in enumerate(itertools.product((3, 5), ("Q", "Zmod:6", "Fp:5"))):
        P = wide_equation(rng, parse_ring(spec), Base(q), 4, 6, f0=int(t != 2))
        digest = next(wide)
        builds[f"q wide base {q} {spec}"] = (build_automaton_q(P), digest)
        builds[f"q wide base {q} {spec} widened"] = (_build(P, None, 1, 3), digest)
    got = {name: hashlib.sha256(automaton_to_json(A).encode()).hexdigest()
           for name, (A, _) in builds.items()}
    assert got == {name: digest for name, (_, digest) in builds.items()}


# ---------------------------------------------------------------------------
# relation search

KERNEL_RINGS = ("Q", "Fp:2", "Fp:3", "Fp:101")


@st.composite
def kernel_systems(draw):
    """(ring, rows, ncols): random, all-zero, wide (more columns than
    rows), rank-deficient products L*R, tall products of 20 to 40 rows
    and rank at most 3, and matrices with no rows."""
    ring = parse_ring(draw(st.sampled_from(KERNEL_RINGS)))
    p = ring.characteristic
    # over Q mostly non-integer fractions
    entry = (st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)) if not p
             else st.integers(0, p - 1))
    shape = draw(st.sampled_from(("random", "zero", "wide", "product", "tall", "no rows")))
    if shape == "no rows":
        ncols, nrows = draw(st.integers(0, 7)), 0
    elif shape == "wide":
        ncols = draw(st.integers(2, 7))
        nrows = draw(st.integers(1, ncols - 1))
    elif shape == "tall":  # rows past the rank go through _kernel_basis's screen
        ncols, nrows = draw(st.integers(1, 7)), draw(st.integers(20, 40))
    else:
        ncols, nrows = draw(st.integers(1, 7)), draw(st.integers(1, 8))

    def matrix(n, m):
        return [[draw(entry) for _ in range(m)] for _ in range(n)]

    if shape == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif shape in ("product", "tall"):
        k = draw(st.integers(0, min(nrows, ncols) if shape == "product" else min(ncols, 3)))
        L, R = matrix(nrows, k), matrix(k, ncols)
        rows = [[sum((L[i][t] * R[t][j] for t in range(k)), 0) for j in range(ncols)]
                for i in range(nrows)]
    else:
        rows = matrix(nrows, ncols)
    return ring, [[ring.element(x).payload for x in row] for row in rows], ncols


def sparse_int_rows(ring, rows):
    """rows of payloads as _kernel_basis takes them: sparse dicts of the
    nonzero ints, over Q all scaled by one common denominator."""
    d = 1 if ring.characteristic else _integral([x for row in rows for x in row])[0]
    return [{c: int(x * d) for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=300)
@given(kernel_systems())
def test_kernel_basis_equals_textbook_gauss_jordan(system):
    ring, rows, ncols = system
    got = _kernel_basis(ring, sparse_int_rows(ring, rows), ncols)
    want = oracles.kernel_basis(rows, ncols, ring.characteristic)
    assert got == want
    assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]


@st.composite
def fractional_q_machines(draw):
    """Random machines over Q of one to three states on {0, 1}, each with
    a weight whose denominator is not 1, and a small relation system."""
    n = draw(st.integers(1, 3))
    weight = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    arrows = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1)), st.integers(0, n - 1)),
        weight, max_size=3 * n))
    initial, final = (draw(st.lists(weight, min_size=n, max_size=n)) for _ in "IF")
    proper = st.builds(Fraction, st.sampled_from((1, -1, 3, -3)), st.sampled_from((2, 5, 7)))
    initial[0], final[0] = draw(proper), draw(proper)
    A = WeightedAutomaton(ring=RATIONALS, alphabet=(0, 1), states=tuple(map(str, range(n))),
                          initial=tuple(initial), final=tuple(final), transitions=arrows)
    kind = draw(st.sampled_from((ZECKENDORF, BASE2)))
    return A, kind, draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(fractional_q_machines())
def test_kernel_of_the_once_scaled_system_is_that_of_the_fraction_system(problem):
    # find_relation's rows: entry (n, (i, j)) is the s_k with op^i(k) + j = n,
    # over Q taken from s_0..s_N scaled to ints once for the whole system
    A, kind, d_max, h_max, N = problem
    s = [v.payload for v in sequence_prefix(A, kind, N)]
    cols = [(i, j) for i in range(d_max + 1) for j in range(h_max + 1)]
    pre = preimages(kind, N, range(d_max + 1))
    ks = [[pre[i][n - j] if n >= j else -1 for i, j in cols] for n in range(N + 1)]
    fractions = [[s[k] if k >= 0 else Fraction(0) for k in row] for row in ks]
    ints = _integral(s)[1]
    rows = [{c: ints[k] for c, k in enumerate(row) if k >= 0 and ints[k]} for row in ks]
    got = _kernel_basis(RATIONALS, iter(rows), len(cols))
    assert got == oracles.kernel_basis(fractions, len(cols))
    assert all(type(x) is Fraction for v in got for x in v)


class TestFindRelation:
    # CI's Q equation in Zeckendorf: its sequence has denominators other than
    # 1, so find_relation's one scaling of the prefix is no identity there
    Q_ZECK = ("ring Q\nnumeration zeckendorf\nf0 1\nalpha 0 0 1\nalpha 1 0 1/3\n"
              "alpha 1 1 -2/5\nalpha 2 0 2/3\n")

    @pytest.mark.parametrize("d_max, h_max, N", [(2, 1, 120), (3, 3, 200)])
    def test_recovers_the_fractional_zeckendorf_equation(self, d_max, h_max, N):
        P = parse_equation(self.Q_ZECK)
        A = build_automaton_dumas(P)
        assert A.n_states == 38
        s = sequence_prefix(A, ZECKENDORF, 3)
        assert [v.payload for v in s] == [1, Fraction(-2, 5), Fraction(-2, 15), Fraction(-34, 225)]
        R = find_relation(A, ZECKENDORF, d_max, h_max, N)
        assert format_equation(R) == format_equation(P)

    def test_recovers_fib_equation(self):
        A = fibonacci_representation_automaton(RATIONALS)
        R = find_relation(A, ZECKENDORF, 1, 1, 80)
        assert R is not None
        assert {k: str(v) for k, v in R.alpha.items()} == \
            {(0, 0): "1", (1, 0): "1", (1, 1): "1"}
        assert R.f0.is_one()

    def test_zero_sequence(self):
        Z0 = polynomial_automaton([0], ZECKENDORF, RATIONALS)
        R = find_relation(Z0, ZECKENDORF, 1, 1, 40)
        assert {k: str(v) for k, v in R.alpha.items()} == {(0, 0): "1"}
        assert not R.f0

    def test_no_relation_in_range(self):
        A = all_ones_automaton(RATIONALS)
        assert find_relation(A, ZECKENDORF, 0, 0, 40) is None
        assert find_relation(A, ZECKENDORF, 1, 1, 60) is None

    def test_recovers_stored_zeck_relation(self):
        expected = {(0, 1): "1", (1, 0): "1", (1, 1): "1", (2, 0): "-1",
                    (2, 2): "2", (3, 2): "-2", (4, 5): "-1"}
        stored = shipped("thue_morse_zeck.eq")
        assert {k: str(v) for k, v in stored.alpha.items()} == expected
        R = find_relation(count_ones_automaton(RATIONALS), ZECKENDORF, 4, 5, 120)
        assert R is not None
        assert {k: str(v) for k, v in R.alpha.items()} == expected
        assert not R.f0

    def test_recovers_stored_base2_relation(self):
        expected = {(0, 1): "1", (1, 0): "1", (1, 1): "1",
                    (2, 0): "1", (2, 4): "1"}
        stored = shipped("thue_morse_base2.eq")
        assert {k: str(v) for k, v in stored.alpha.items()} == expected
        R = find_relation(count_ones_automaton(F2), BASE2, 2, 4, 100)
        assert R is not None
        assert {k: str(v) for k, v in R.alpha.items()} == expected

    # the two relation searches of the benchmark's machine-algebra workload
    BENCH_RELATIONS = {
        "count-ones": (count_ones_automaton, 4, 5, (
            "ring Q\nnumeration zeckendorf\nd 4\nh 5\nf0 0\n"
            "alpha 0 1 1\nalpha 1 0 1\nalpha 1 1 1\nalpha 2 0 -1\n"
            "alpha 2 2 2\nalpha 3 2 -2\nalpha 4 5 -1\n")),
        "fib-repr": (fibonacci_representation_automaton, 2, 2, (
            "ring Q\nnumeration zeckendorf\nd 1\nh 1\nf0 1\n"
            "alpha 0 0 1\nalpha 1 0 1\nalpha 1 1 1\n")),
    }

    @pytest.mark.parametrize("name, most", [("count-ones", 40), ("fib-repr", 10)])
    def test_the_kernel_screen_spares_the_dependent_rows(self, name, most, monkeypatch):
        # each system has 201 rows and rank at most 29: a row orthogonal to
        # the kernel of the echelon form so far never reaches the insert
        calls = []
        insert = equations._insert_row
        monkeypatch.setattr(equations, "_insert_row",
                            lambda *args: calls.append(1) or insert(*args))
        machine, d_max, h_max, text = self.BENCH_RELATIONS[name]
        R = find_relation(machine(RATIONALS), ZECKENDORF, d_max, h_max, 200)
        assert format_equation(R) == text
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("name", sorted(BENCH_RELATIONS))
    def test_bench_relations_are_pinned(self, name):
        machine, d_max, h_max, text = self.BENCH_RELATIONS[name]
        R = find_relation(machine(RATIONALS), ZECKENDORF, d_max, h_max, 200)
        assert format_equation(R) == text
        if name == "count-ones":
            alpha_lines = [ln for ln in text.splitlines() if ln.startswith("alpha")]
            assert alpha_lines == [ln for ln in equation_text("thue_morse_zeck.eq").splitlines()
                                   if ln.startswith("alpha")]

    def test_needs_a_field(self):
        A = fibonacci_representation_automaton(INTEGERS)
        with pytest.raises(RingError, match="needs a field ring, got Z"):
            find_relation(A, ZECKENDORF, 1, 1, 50)

    def test_argument_validation(self):
        A = all_ones_automaton(RATIONALS)
        with pytest.raises(EquationError, match="must be nonnegative"):
            find_relation(A, ZECKENDORF, -1, 0, 50)
        with pytest.raises(EquationError, match="need N >= 1"):
            find_relation(A, ZECKENDORF, 1, 1, 0)
        with pytest.raises(EquationError, match="N_check must exceed N, got 50 <= 50"):
            find_relation(A, ZECKENDORF, 1, 1, 50, N_check=50)
        # an argument that is no int, or is a bool, is refused by one
        # EquationError that names it and asks for an int, not with a bare
        # TypeError from a comparison or a range
        for args, kwargs, message in [
                ((1.5, 1, 20), {}, "^d_max must be an int, not float 1.5$"),
                (("2", 1, 20), {}, "^d_max must be an int, not str '2'$"),
                ((1, 2.0, 20), {}, "^h_max must be an int, not float 2.0$"),
                ((True, 1, 20), {}, "^d_max must be an int, not bool True$"),
                ((1, 1, 20.0), {}, "^N must be an int, not float 20.0$"),
                ((1, 1, "20"), {}, "^N must be an int, not str '20'$"),
                ((1, 1, True), {}, "^N must be an int, not bool True$"),
                ((1, 1, 20), {"N_check": 80.5}, "^N_check must be an int, not float 80.5$"),
                ((1, 1, 20), {"N_check": "80"}, "^N_check must be an int, not str '80'$")]:
            with pytest.raises(EquationError, match=message):
                find_relation(A, ZECKENDORF, *args, **kwargs)


# ---------------------------------------------------------------------------
# growth of the non-regular example

class TestGrowth:
    def test_prefix_frozen(self):
        rep = growth_analysis(300, 2)
        assert rep.prefix == (1, 1, 2, 4, 4, 8)
        assert rep.coefficients[:6] == rep.prefix
        assert rep.n_max == 300
        assert rep.k_max == 2

    def test_thresholds(self):
        rep = growth_analysis(200, 3)
        assert rep.thresholds == {0: 0, 1: 3, 2: 32, 3: 176}
        assert growth_analysis(100, 3).thresholds[3] is None

    def test_pickles_and_deep_copies(self):
        rep = growth_analysis(200, 3)
        for back in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert back == rep and back.thresholds == {0: 0, 1: 3, 2: 32, 3: 176}
            with pytest.raises(TypeError):
                back.thresholds[0] = 1

    def test_matches_digit_level_form(self):
        # the recurrence read straight off canonical words: lambda(n) drops
        # the last digit, and f_lambda(n) is added when that digit is 0
        N = 5000
        f = [1]
        for n in range(1, N + 1):
            w = canonical(n)
            f.append(f[n - 1] + (f[value(w[:-1])] if w[-1] == 0 else 0))
        rep = growth_analysis(N, 3)
        assert list(rep.coefficients) == f
        assert rep.thresholds == {0: 0, 1: 3, 2: 32, 3: 176}

    def test_thresholds_match_plain_scan(self):
        # the resumed search gives the same thresholds as scanning every
        # k from scratch
        rep = growth_analysis(3000, 40)
        f = rep.coefficients
        plain = {0: 0}
        for k in range(1, 41):
            plain[k] = next((n for n in range(1, 3001) if f[n] > n ** k), None)
        assert rep.thresholds == plain
        assert plain[40] is None and plain[3] is not None

    def test_coefficients_nondecreasing(self):
        f = growth_analysis(400, 0).coefficients
        assert all(f[n] >= f[n - 1] for n in range(1, 401))

    def test_disagreeing_recurrence_forms_raise(self, monkeypatch):
        # the step and summation forms are provably equal; a preimage
        # table corrupted to phi^-1(3) = 1 (it is 2) parts them at n = 3
        real = equations.preimages

        def corrupted(kind, N, depths):
            tables = real(kind, N, depths)
            tables[1][3] = 1
            return tables

        monkeypatch.setattr(equations, "preimages", corrupted)
        with pytest.raises(EquationError, match="recurrence forms disagree at n = 3"):
            growth_analysis(10, 1)

    def test_validation(self):
        with pytest.raises(EquationError, match="need N >= 1"):
            growth_analysis(0, 1)
        with pytest.raises(EquationError, match="need k_max >= 0"):
            growth_analysis(10, -1)

    def test_report_is_immutable(self):
        rep = growth_analysis(10, 1)
        with pytest.raises(TypeError):
            rep.thresholds[0] = 5
