"""Equation layer: files, the recurrence oracle, and the compilers."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import SHIPPED, equation_text, ints, make_random_equation
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
    _kernel_basis,
    build_automaton_dumas,
    build_automaton_q,
    build_automaton_z,
    christol_isolate,
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
from mahler.numeration import ZECKENDORF, Base, NumerationError, canonical, value
from mahler.rings import INTEGERS, RATIONALS, ModRing, PrimeField, RingError, parse_ring
from mahler.serialize import automaton_to_json
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
        with pytest.raises(EquationError, match="at least f_0"):
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

    def test_declared_exponent_mismatch(self):
        with pytest.raises(EquationError,
                           match="declared exponent d = 3 but the coefficients give d = 1"):
            MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=1, d=3)
        with pytest.raises(EquationError,
                           match="declared height h = 2 but the coefficients give h = 0"):
            MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 1}, f0=1, h=2)

    @pytest.mark.parametrize("field", ["d", "h"])
    def test_declared_mismatch_quotes_a_huge_integer(self, field):
        with pytest.raises(EquationError) as exc:
            MahlerEquation(ring=INTEGERS, kind=BASE2, alpha={(0, 0): 1, (1, 0): 1},
                           f0=1, **{field: 10 ** 4000})
        assert "..." in str(exc.value) and len(str(exc.value)) < 200

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

    def test_tables_are_immutable(self):
        P = shipped("fib_repr.eq")
        with pytest.raises(TypeError):
            P.alpha[(0, 0)] = INTEGERS.zero
        with pytest.raises(TypeError):
            P.g_poly[2] = INTEGERS.one

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
        assert compatible_f0(fib, f0=7)
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        assert compatible_f0(P)
        assert not compatible_f0(P, f0=1)
        assert not compatible_f0(P, f0=0, g0=1)
        assert compatible_f0(P, f0=-1, g0=1)

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
            ints(solve_series(P, 100, f0=3))

    def test_rejects_non_isolating(self):
        with pytest.raises(EquationError, match="not isolating"):
            solve_series(shipped("growth.eq"), 10)

    def test_rejects_incompatible_f0(self):
        P = MahlerEquation(ring=INTEGERS, kind=BASE2,
                           alpha={(0, 0): 1, (1, 0): 2}, f0=0)
        with pytest.raises(EquationError,
                           match="f0 = 1 is not compatible: the n = 0 "
                                 "coefficient identity needs 1 = 2"):
            solve_series(P, 10, f0=1)

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
            w = canonical(n, BASE2).digits
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
        Ax = build_automaton_q(P, _extra_i=1, _extra_j=3)
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
            build_automaton_q(P, f0=1)


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
            w = canonical(n).digits
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

    def test_widened_grid_is_weight_identical(self):
        P = shipped("fib_repr.eq")
        A = build_automaton_z(P)
        Ax = build_automaton_z(P, _extra_i=1, _extra_j=3)
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
            build_automaton_z(P, f0=1)


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
        P = shipped("dumas_fib.eq")
        A = build_automaton_dumas(P, f0=0)
        s = sequence_prefix(A, ZECKENDORF, 200)
        assert ints(s)[:8] == [0, 0, 1, 1, 1, 1, 1, 1]
        assert list(s) == list(solve_series(P, 200, f0=0))

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
            build_automaton_dumas(shipped("dumas_twolayer.eq"), f0=1)


def test_builder_json_is_pinned():
    # sha256 of automaton_to_json: a rewrite of a builder must keep its
    # output byte for byte (state names and order, vectors, arrows).
    dfib = shipped("dumas_fib.eq")
    plain = MahlerEquation(ring=dfib.ring, kind=dfib.kind,
                           alpha=dict(dfib.alpha), f0=dfib.f0)
    fib = shipped("fib_repr.eq")
    builds = {
        "z fib_repr": (build_automaton_z(fib),
                       "a2fbd86c864454e60e720363a9a6041b3f23dd7df9d354e2e9e365ba31c96339"),
        "z fib_repr widened": (
            build_automaton_z(fib, _extra_i=1, _extra_j=3),
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
    }
    got = {name: hashlib.sha256(automaton_to_json(A).encode()).hexdigest()
           for name, (A, _) in builds.items()}
    assert got == {name: digest for name, (_, digest) in builds.items()}


# ---------------------------------------------------------------------------
# relation search

KERNEL_RINGS = ("Q", "Fp:2", "Fp:3", "Fp:101")


@st.composite
def kernel_systems(draw):
    """(ring, rows, ncols): random, all-zero, wide (more columns than
    rows), rank-deficient products L*R, and matrices with no rows."""
    ring = parse_ring(draw(st.sampled_from(KERNEL_RINGS)))
    p = ring.characteristic
    # over Q mostly non-integer fractions
    entry = (st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)) if not p
             else st.integers(0, p - 1))
    shape = draw(st.sampled_from(("random", "zero", "wide", "product", "no rows")))
    if shape == "no rows":
        ncols, nrows = draw(st.integers(0, 7)), 0
    elif shape == "wide":
        ncols = draw(st.integers(2, 7))
        nrows = draw(st.integers(1, ncols - 1))
    else:
        ncols, nrows = draw(st.integers(1, 7)), draw(st.integers(1, 8))

    def matrix(n, m):
        return [[draw(entry) for _ in range(m)] for _ in range(n)]

    if shape == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif shape == "product":
        k = draw(st.integers(0, min(nrows, ncols)))
        L, R = matrix(nrows, k), matrix(k, ncols)
        rows = [[sum((L[i][t] * R[t][j] for t in range(k)), 0) for j in range(ncols)]
                for i in range(nrows)]
    else:
        rows = matrix(nrows, ncols)
    return ring, [[ring.element(x).payload for x in row] for row in rows], ncols


@settings(max_examples=300)
@given(kernel_systems())
def test_kernel_basis_equals_textbook_gauss_jordan(system):
    ring, rows, ncols = system
    got = _kernel_basis(ring, rows, ncols)
    want = oracles.kernel_basis(rows, ncols, ring.characteristic)
    assert got == want
    assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]


class TestFindRelation:
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


# ---------------------------------------------------------------------------
# isolating normalization over prime fields

class TestChristolIsolate:
    def test_frozen_normalization(self):
        Q, a0 = christol_isolate([[1, 1], [1], [0, 1]], 2, F2)
        assert {k: str(v) for k, v in sorted(Q.alpha.items())} == \
            {(0, 0): "1", (1, 0): "1", (2, 1): "1", (2, 3): "1"}
        assert tuple(str(v) for v in a0) == ("1", "1")
        assert Q.f0.is_one()
        assert Q.kind == BASE2
        assert is_isolating(Q)

    def test_identity_multiplier_passes_through(self):
        Q, a0 = christol_isolate([[1], [1, 1]], 2, F2)
        assert a0 == (F2.one,)
        assert {k: str(v) for k, v in Q.alpha.items()} == \
            {(0, 0): "1", (1, 0): "1", (1, 1): "1"}

    def test_pipeline_solves_the_original_operator(self):
        # f = A_0 * g with g the solution of the isolating rewrite must
        # satisfy the original operator.
        Q, a0 = christol_isolate([[1, 1], [1], [0, 1]], 2, F2)
        g = solve_series(Q, 300, f0=1)
        f = []
        for n in range(260):
            acc = F2.zero
            for j, c in enumerate(a0):
                if n - j >= 0:
                    acc = acc + c * g[n - j]
            f.append(acc)
        original = MahlerEquation(
            ring=F2, kind=BASE2,
            alpha={(0, 0): 1, (0, 1): 1, (1, 0): 1, (2, 1): 1}, f0=f[0])
        assert residual(original, f).is_zero()

    def test_odd_characteristic(self):
        Q, a0 = christol_isolate([[1], [2]], 5, F5)
        assert {k: str(v) for k, v in Q.alpha.items()} == \
            {(0, 0): "1", (1, 0): "3"}
        assert not Q.f0

    def test_rejects_zero_a0(self):
        with pytest.raises(EquationError, match="A_0 = 0 cannot be normalized away"):
            christol_isolate([[0], [1]], 2, F2)

    def test_rejects_vanishing_constant_term(self):
        with pytest.raises(EquationError, match=r"A_0\(0\) = 0"):
            christol_isolate([[0, 1], [1]], 2, F2)

    def test_rejects_missing_phi_terms(self):
        with pytest.raises(EquationError, match="needs d >= 1"):
            christol_isolate([[1]], 2, F2)
        with pytest.raises(EquationError, match="needs d >= 1"):
            christol_isolate([[1], [0]], 2, F2)

    def test_rejects_wrong_ring(self):
        with pytest.raises(RingError, match="characteristic q = 2, got Q"):
            christol_isolate([[1], [1]], 2, RATIONALS)
        with pytest.raises(RingError, match="characteristic q = 2, got Fp:3"):
            christol_isolate([[1], [1]], 2, PrimeField(3))

    def test_rejects_bad_exponent(self):
        with pytest.raises(EquationError, match="polynomial exponent -1 out of range"):
            christol_isolate([{-1: 1}, [1]], 2, F2)


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

    def test_matches_digit_level_form(self):
        # the recurrence read straight off canonical words: lambda(n) drops
        # the last digit, and f_lambda(n) is added when that digit is 0
        N = 5000
        f = [1]
        for n in range(1, N + 1):
            w = canonical(n).digits
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

    def test_validation(self):
        with pytest.raises(EquationError, match="need N >= 1"):
            growth_analysis(0, 1)
        with pytest.raises(EquationError, match="need k_max >= 0"):
            growth_analysis(10, -1)

    def test_report_is_immutable(self):
        rep = growth_analysis(10, 1)
        with pytest.raises(TypeError):
            rep.thresholds[0] = 5
