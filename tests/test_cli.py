"""CLI behavior through main(argv): outputs, exit codes, error paths."""

import copy
import json
import random
import re
import time

import pytest

from conftest import SHIPPED, equation_text, ints, zero_digit_counter
from mahler import cli
from mahler.automata import (addition_automaton_base, addition_automaton_zeckendorf,
                             polynomial_automaton)
from mahler.cli import MAX_N, main
from mahler.equations import build_automaton_q, parse_equation, solve_series
from mahler.numeration import ZECKENDORF, canonical, format_word
from mahler.serialize import automaton_from_json, automaton_to_json
from mahler.wfa import sequence_prefix


@pytest.fixture
def eqfile(tmp_path):
    def write(name):
        path = tmp_path / name
        path.write_text(equation_text(name), encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_fib(eqfile, capsys):
    code, out, err = run(capsys, "solve", "-f", eqfile("fib_repr.eq"), "-N", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "0, 0, 1"
    assert lines[3] == "3, 100, 2"
    assert lines[8] == "8, 10000, 3"


def test_solve_base2_words(eqfile, capsys):
    code, out, err = run(capsys, "solve", "-f", eqfile("hyperbinary.eq"), "-N", "5")
    assert code == 0
    assert out.splitlines()[5] == "5, 101, 2"


def test_solve_order_zero(eqfile, capsys):
    code, out, err = run(capsys, "solve", "-f", eqfile("fib_repr.eq"), "-N", "0")
    assert code == 0
    assert out == "0, 0, 1\n"


# f = (1 + x) Phi(f) in base 12, where the one digit ten (n = 10) and the
# word 1 0 (n = 12) are written with the same two characters unless a
# comma tells them apart
BASE12 = "ring Z\nnumeration base 12\nf0 1\nalpha 0 0 1\nalpha 1 0 1\nalpha 1 1 1\n"


def test_solve_words_in_a_base_above_ten(capsys, tmp_path):
    path = tmp_path / "b12.eq"
    path.write_text(BASE12, encoding="utf-8")
    code, out, err = run(capsys, "solve", "-f", str(path), "-N", "13")
    assert code == 0
    assert out.splitlines()[10:] == ["10, 10, 0", "11, 11, 0", "12, 1,0, 1", "13, 1,1, 1"]


def test_eval_word_in_a_base_above_ten(capsys, tmp_path):
    # a comma-less digit text is one digit there, as solve prints it
    eq, machine = tmp_path / "b12.eq", tmp_path / "b12.json"
    eq.write_text(BASE12, encoding="utf-8")
    assert run(capsys, "build", "-f", str(eq), "-o", str(machine))[0] == 0
    for word, n in (("10", "10"), ("11", "11"), ("1,0", "12"), (" 11 ", "11")):
        by_word = run(capsys, "eval", "-a", str(machine), "--numeration", "base-12",
                      "--word", word)
        by_index = run(capsys, "eval", "-a", str(machine), "--numeration", "base-12",
                       "-n", n)
        assert by_word == by_index and by_word[0] == 0, word
    assert by_index[1] == "0\n"  # f_11, where the digit-by-digit reading gave f_13 = 1


def test_eval_word_int_cannot_read_is_one_error_line(capsys, tmp_path):
    eq, machine = tmp_path / "b12.eq", tmp_path / "b12.json"
    eq.write_text(BASE12, encoding="utf-8")
    run(capsys, "build", "-f", str(eq), "-o", str(machine))
    for word in ("1" * 5000, "²"):  # int() refuses both
        assert_one_short_error(*run(capsys, "eval", "-a", str(machine),
                                    "--numeration", "base-12", "--word", word))
    assert_one_short_error(*run(capsys, "eval", "-a", "builtin:count-ones",
                                "--numeration", "base-2", "--word", "1²"))
    # int() reads these too, but a digit is ASCII 0-9: in base 12 the
    # one-digit path read "١٠" (Arabic-Indic) as the digit ten
    for automaton, numeration, word in (
            (machine, "base-12", "١٠"), (machine, "base-12", "1_0,2"),
            (machine, "base-12", "١,0"), ("builtin:count-ones", "base-2", "١٠"),
            ("builtin:count-ones", "base-2", "1_0,1"), ("builtin:fib-repr", "zeckendorf", "١٠")):
        result = run(capsys, "eval", "-a", str(automaton), "--numeration", numeration,
                     "--word", word)
        assert_one_short_error(*result)
        assert result[2].startswith("error: bad digit word "), word


def test_solve_rejects_non_isolating(eqfile, capsys):
    code, out, err = run(capsys, "solve", "-f", eqfile("growth.eq"))
    assert code == 2
    assert err.startswith("error: equation is not isolating")
    assert "mahler verify" in err


# ---------------------------------------------------------------------------
# build

def test_build_zeckendorf_reports_grid(eqfile, capsys):
    code, out, err = run(capsys, "build", "-f", eqfile("fib_repr.eq"))
    assert code == 0
    assert err.splitlines()[0] == \
        "grid bound 160 states (h~ = 3, window 3); built 29 after trimming"
    A = automaton_from_json(out)
    assert A.n_states == 29


def test_build_base_reports_count(eqfile, capsys):
    code, out, err = run(capsys, "build", "-f", eqfile("hyperbinary.eq"))
    assert code == 0
    assert err.splitlines()[0] == "built 2 states"


def test_build_dumas_goes_through_inhomogeneous_path(eqfile, capsys):
    code, out, err = run(capsys, "build", "-f", eqfile("dumas_fib.eq"))
    assert code == 0
    assert err.splitlines()[0] == \
        "grid bound 160 states (h~ = 3, window 3); built 34 after trimming"


def test_build_to_file(eqfile, capsys, tmp_path):
    dest = tmp_path / "fib.json"
    code, out, err = run(capsys, "build", "-f", eqfile("fib_repr.eq"),
                         "-o", str(dest))
    assert code == 0
    assert out == ""
    assert f"wrote {dest}" in err
    assert automaton_from_json(dest.read_text()).n_states == 29


def test_build_rejects_non_isolating(eqfile, capsys):
    code, out, err = run(capsys, "build", "-f", eqfile("thue_morse_zeck.eq"))
    assert code == 2
    assert err.startswith("error: equation is not isolating")


# ---------------------------------------------------------------------------
# eval

def test_eval_at_index(eqfile, capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr", "-n", "11")
    assert code == 0
    assert out == "3\n"


def test_eval_word(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr",
                         "--word", "10100")
    assert code == 0
    assert out == "3\n"


def test_eval_base2(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:thue-morse",
                         "--numeration", "base-2", "-n", "3")
    assert code == 0
    assert out == "0\n"


def test_eval_word_in_base_q(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:count-ones",
                         "--numeration", "base-2", "--word", "101")
    assert (code, out, err) == (0, "2\n", "")
    code, out, err = run(capsys, "eval", "-a", "builtin:count-ones",
                         "--numeration", "base-3", "--word", "121")
    assert (code, out, err) == (2, "", "error: label 2 outside automaton alphabet\n")


def test_eval_from_json_file(eqfile, capsys, tmp_path):
    dest = tmp_path / "fib.json"
    run(capsys, "build", "-f", eqfile("fib_repr.eq"), "-o", str(dest))
    code, out, err = run(capsys, "eval", "-a", str(dest), "-n", "8")
    assert code == 0
    assert out == "3\n"


def test_eval_zeckendorf_rejects_adjacent_ones(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr",
                         "--word", "110")
    assert code == 2
    assert "adjacent ones" in err


def test_eval_negative_index(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr", "-n", "-1")
    assert code == 2
    assert err == "error: need n >= 0, got -1\n"


def test_eval_bad_numeration(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr", "-n", "1",
                         "--numeration", "base-x")
    assert code == 2
    assert "bad base in numeration 'base-x'" in err
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr", "-n", "1",
                         "--numeration", "decimal")
    assert code == 2
    assert "unknown numeration 'decimal'" in err


def test_eval_needs_exactly_one_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-a", "builtin:fib-repr", "-n", "1", "--word", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-a", "builtin:fib-repr"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify

def test_verify_builds_and_passes(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("fib_repr.eq"),
                         "-N", "120")
    assert code == 0
    assert out == "PASS: automaton matches the recurrence oracle for all n <= 120\n"


def test_verify_corrupted_automaton_fails(eqfile, capsys, tmp_path):
    dest = tmp_path / "fib.json"
    run(capsys, "build", "-f", eqfile("fib_repr.eq"), "-o", str(dest))
    doc = json.loads(dest.read_text())
    doc["transitions"][0]["weight"] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "-f", eqfile("fib_repr.eq"),
                         "-N", "50", "--automaton", str(bad))
    assert code == 1
    found = re.fullmatch(r"FAIL at n = (\d+) \(word (\d+)\): oracle \S+, automaton \S+\n",
                         out)
    assert found is not None, out
    n = int(found.group(1))
    assert found.group(2) == format_word(canonical(n))


def test_verify_fail_word_in_a_base_above_ten(capsys, tmp_path):
    path = tmp_path / "b12.eq"
    path.write_text(BASE12, encoding="utf-8")
    P = parse_equation(BASE12)
    coeffs = list(solve_series(P, 12))
    coeffs[12] = coeffs[12] + P.ring.one
    bad = tmp_path / "bad.json"
    bad.write_text(automaton_to_json(polynomial_automaton(coeffs, P.kind, P.ring)))
    code, out, err = run(capsys, "verify", "-f", str(path), "-N", "13", "--automaton", str(bad))
    assert code == 1
    assert out == "FAIL at n = 12 (word 1,0): oracle 1, automaton 2\n"


def test_verify_residual_mode(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("thue_morse_zeck.eq"),
                         "-N", "200", "--automaton", "builtin:count-ones")
    assert code == 0
    assert out == "PASS: residual vanishes for all n <= 200\n"


def test_verify_residual_mode_base2(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("thue_morse_base2.eq"),
                         "-N", "200", "--automaton", "builtin:thue-morse")
    assert code == 0
    assert out == "PASS: residual vanishes for all n <= 200\n"


def test_verify_residual_mode_flags_wrong_sequence(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("thue_morse_zeck.eq"),
                         "-N", "50", "--automaton", "builtin:fib-repr")
    assert code == 1
    assert out == "FAIL at n = 4: residual 1\n"


def test_verify_non_isolating_needs_automaton(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("growth.eq"), "-N", "50")
    assert code == 2
    assert "pass --automaton" in err


def test_verify_ring_mismatch(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("thue_morse_zeck.eq"),
                         "-N", "50", "--automaton", "builtin:thue-morse")
    assert code == 2
    assert err == "error: automaton ring Fp:2 differs from equation ring Z\n"


def test_verify_negative_order(eqfile, capsys):
    code, out, err = run(capsys, "verify", "-f", eqfile("fib_repr.eq"),
                         "-N", "-3")
    assert code == 2
    assert err == "error: need N >= 0, got -3\n"


REL = ["relation", "-a", "builtin:fib-repr@Q", "--dmax", "1", "--hmax", "1"]


@pytest.mark.parametrize("argv, what, bad", [
    (["solve", "-f", "fib_repr.eq", "-N", str(MAX_N + 1)], "-N", MAX_N + 1),
    (["verify", "-f", "hyperbinary.eq", "-N", str(MAX_N + 1)], "-N", MAX_N + 1),
    (REL + ["-N", str(MAX_N + 1)], "-N", MAX_N + 1),
    (REL + ["-N", "10", "--ncheck", str(MAX_N + 1)], "--ncheck (default 4N)", MAX_N + 1),
    (REL + ["-N", str(MAX_N // 4 + 1)], "--ncheck (default 4N)", 4 * (MAX_N // 4 + 1)),
    (["growth", "-N", str(MAX_N + 1)], "-N", MAX_N + 1),
    (["growth", "-N", "100", "--kmax", str(MAX_N + 1)], "--kmax", MAX_N + 1),
    (["relation", "-a", "builtin:fib-repr@Q", "--dmax", "20", "--hmax", "3000", "-N", "500"],
     "linear system size (dmax+1)(hmax+1)(N+1)", 21 * 3001 * 501),
])
def test_order_ceiling(argv, what, bad, eqfile, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ceiling must be checked before any work")
    for name in ("solve_series", "sequence_prefix", "residual", "find_relation",
                 "growth_analysis", "_build_from_equation", "_load_wfa"):
        monkeypatch.setattr(cli, name, never)
    argv = [eqfile(a) if a.endswith(".eq") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} = {bad} exceeds the ceiling {MAX_N}\n"


def test_order_at_ceiling_is_accepted(capsys, monkeypatch):
    seen = []
    real = cli.growth_analysis
    monkeypatch.setattr(cli, "growth_analysis",
                        lambda N, k: seen.append(N) or real(10, k))
    code, out, err = run(capsys, "growth", "-N", str(MAX_N))
    assert code == 0
    assert seen == [MAX_N]


def test_memory_error_is_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "growth_analysis", exhausted)
    code, out, err = run(capsys, "growth", "-N", "100")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


# ---------------------------------------------------------------------------
# relation

def test_relation_recovers_fib_equation(capsys):
    code, out, err = run(capsys, "relation", "-a", "builtin:fib-repr@Q",
                         "--dmax", "1", "--hmax", "1", "-N", "80")
    assert code == 0
    assert out == ("ring Q\n"
                   "numeration zeckendorf\n"
                   "d 1\n"
                   "h 1\n"
                   "f0 1\n"
                   "alpha 0 0 1\n"
                   "alpha 1 0 1\n"
                   "alpha 1 1 1\n")


def test_relation_none_found(capsys):
    code, out, err = run(capsys, "relation", "-a", "builtin:all-ones@Q",
                         "--dmax", "0", "--hmax", "0", "-N", "40")
    assert code == 1
    assert out == "no relation found with d <= 0, h <= 0\n"


def test_relation_needs_field(capsys):
    code, out, err = run(capsys, "relation", "-a", "builtin:fib-repr",
                         "--dmax", "1", "--hmax", "1", "-N", "40")
    assert code == 2
    assert err == "error: find_relation needs a field ring, got Z\n"


# ---------------------------------------------------------------------------
# builtins

def test_fixed_builtin_rejects_ring_suffix(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:addition-zeckendorf@Q",
                         "-n", "0")
    assert code == 2
    assert "does not take a ring suffix" in err


def test_unknown_builtin(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:nope", "-n", "0")
    assert code == 2
    assert "unknown builtin automaton 'nope'" in err
    assert "fib-repr" in err


def test_unknown_builtin_lists_every_name(capsys):
    code, out, err = run(capsys, "export", "-a", "builtin:nope")
    assert (code, out) == (2, "")
    assert err == ("error: unknown builtin automaton 'nope'; available: addition-base2, "
                   "addition-zeckendorf, all-ones, count-ones, defect, defect-constructed, "
                   "fib-repr, thue-morse\n")


def test_machine_with_outputs_takes_no_ring_suffix(capsys):
    code, out, err = run(capsys, "export", "-a", "builtin:defect@Z")
    assert (code, out, err) == (2, "", "error: builtin 'defect' does not take a ring suffix\n")


def test_machine_with_outputs_is_read_by_export_only(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:defect", "-n", "3")
    assert (code, out) == (2, "")
    assert err == "error: 'builtin:defect' is a machine with outputs; only export reads it\n"


@pytest.mark.parametrize("name", ["nope", "addition-zeckendorf"])
def test_ring_suffix_is_read_before_the_name(capsys, name):
    code, out, err = run(capsys, "eval", "-a", f"builtin:{name}@Foo", "-n", "0")
    assert (code, out, err) == (2, "", "error: unknown ring spec 'Foo'\n")


def test_missing_automaton_file(capsys):
    code, out, err = run(capsys, "eval", "-a", "/nonexistent/x.json", "-n", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_eval_json_of_wrong_types(capsys, tmp_path):
    doc = {"ring": "Z", "alphabet": [0, 1], "states": ["a"],
           "initial": {"a": 1}, "final": {"a": "1"}, "transitions": []}
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "-a", str(bad), "-n", "3")
    assert code == 2
    assert err == "error: initial weight 1 is not a string\n"


def test_eval_json_with_duplicate_labels(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(_wfa_doc(alphabet="[0, 0]"), encoding="utf-8")
    code, out, err = run(capsys, "eval", "-a", str(path), "-n", "1")
    assert (code, out, err) == (2, "", "error: duplicate alphabet labels\n")


def test_eval_deeply_nested_json(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000)
    code, out, err = run(capsys, "eval", "-a", str(bad), "-n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: not valid JSON: ")
    assert err.count("\n") == 1


def test_bad_ring_suffix(capsys):
    code, out, err = run(capsys, "eval", "-a", "builtin:fib-repr@Foo", "-n", "0")
    assert code == 2
    assert "unknown ring spec 'Foo'" in err


# ---------------------------------------------------------------------------
# product, determinize

def test_product_convolves(capsys, tmp_path):
    dest = tmp_path / "prod.json"
    code, out, err = run(capsys, "product", "-a", "builtin:fib-repr",
                         "-b", "builtin:all-ones", "-o", str(dest))
    assert code == 0
    A = automaton_from_json(dest.read_text())
    assert ints(sequence_prefix(A, ZECKENDORF, 9)) == \
        [1, 2, 3, 5, 6, 8, 10, 11, 14, 16]


def test_product_ring_mismatch(capsys):
    code, out, err = run(capsys, "product", "-a", "builtin:fib-repr",
                         "-b", "builtin:all-ones@Q")
    assert code == 2
    assert err == "error: factor rings differ: Z vs Q\n"


def test_product_refuses_a_factor_not_leading_zero_invariant(capsys, tmp_path):
    # unchecked, the product read 1, 1, 4, 4, 10, 11, ... for the
    # convolution 1, 1, 2, 2, 4, 5, ...
    zeros = tmp_path / "zeros.json"
    zeros.write_text(automaton_to_json(zero_digit_counter()))
    code, out, err = run(capsys, "product", "-a", str(zeros), "-b", "builtin:all-ones",
                         "--numeration", "base-2")
    assert (code, out) == (2, "")
    assert err == "error: the first factor is not leading-zero invariant: I mu(0) != I\n"


def test_determinize_finite_ring(capsys):
    code, out, err = run(capsys, "determinize", "-a", "builtin:thue-morse")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "dfa"
    code, out, err = run(capsys, "determinize", "-a", "builtin:thue-morse",
                         "--direction", "reverse")
    assert code == 0


def test_determinize_rejects_infinite_ring(capsys):
    code, out, err = run(capsys, "determinize", "-a", "builtin:count-ones")
    assert code == 2
    assert err == "error: determinization needs a finite ring, not Z\n"


# ---------------------------------------------------------------------------
# defect, growth

def test_defect_outputs(capsys):
    assert run(capsys, "defect", "--input", "1,0,-1") == (0, "0\n", "")
    assert run(capsys, "defect", "--input", "1,-1") == (0, "-1\n", "")
    assert run(capsys, "defect", "--input", "0") == (0, "0\n", "")


@pytest.mark.parametrize("argv", [
    ("defect", "--input", "-1,0,1"),
    ("defect", "--input", "1,-1"),
    ("eval", "-a", "builtin:fib-repr", "--word", "-1,0"),
    ("eval", "-a", "builtin:fib-repr", "--word", "10100"),
    ("defect", "--inp", "-1,0"),
    ("eval", "-a", "builtin:fib-repr", "--wo", "-1"),
])
def test_digit_word_with_a_minus_is_read_as_a_value(capsys, argv):
    # the word as its own argument behaves exactly like the --opt=word form
    *head, opt, word = argv
    assert run(capsys, *argv) == run(capsys, *head, f"{opt}={word}")


def test_leading_negative_digit_word(capsys):
    assert run(capsys, "defect", "--input", "-1,0,1") == \
        (2, "", "error: no transition from state 'q0' on -1\n")
    assert run(capsys, "eval", "-a", "builtin:fib-repr", "--word", "-1,0") == \
        (2, "", "error: label -1 outside automaton alphabet\n")


def test_defect_missing_transition(capsys):
    code, out, err = run(capsys, "defect", "--input", "-1")
    assert code == 2
    assert "no transition" in err


def test_growth_output(capsys):
    code, out, err = run(capsys, "growth", "-N", "200", "--kmax", "3")
    assert code == 0
    assert out == ("f_0..f_5 = 1, 1, 2, 4, 4, 8\n"
                   "k=0: first n with f_n >= 1: n = 0\n"
                   "k=1: first n with f_n > n^1: n = 3 (f_n = 4)\n"
                   "k=2: first n with f_n > n^2: n = 32 (f_n = 1088)\n"
                   "k=3: first n with f_n > n^3: n = 176 (f_n = 5513544)\n")


def test_growth_not_reached(capsys):
    code, out, err = run(capsys, "growth", "-N", "100", "--kmax", "3")
    assert code == 0
    assert out.splitlines()[-1] == "k=3: f_n > n^3 not reached for n <= 100"


# ---------------------------------------------------------------------------
# export

def test_export_defect_dot(capsys):
    code, out, err = run(capsys, "export", "-a", "builtin:defect")
    assert code == 0
    assert out.startswith("digraph automaton {")
    for q in ("q0", "q1", "q2", "q3", "q4"):
        assert f'"{q}"' in out
    assert "style=bold" in out


def test_export_defect_constructed(capsys):
    code, out, err = run(capsys, "export", "-a", "builtin:defect-constructed",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["type"] == "dfa"


def test_export_wfa_dot_and_json(capsys, tmp_path):
    code, out, err = run(capsys, "export", "-a", "builtin:fib-repr")
    assert code == 0
    assert "peripheries=2" in out
    dest = tmp_path / "a.json"
    code, out, err = run(capsys, "export", "-a", "builtin:fib-repr",
                         "--format", "json", "-o", str(dest))
    assert code == 0
    assert automaton_from_json(dest.read_text()).n_states == 3


@pytest.mark.parametrize("name, make", [
    ("addition-base2", lambda: addition_automaton_base(2)),
    ("addition-zeckendorf", addition_automaton_zeckendorf),
])
def test_export_fixed_builtin(name, make, capsys):
    code, out, err = run(capsys, "export", "-a", f"builtin:{name}", "--format", "json")
    assert (code, err) == (0, "")
    assert out == automaton_to_json(make().automaton) + "\n"


# ---------------------------------------------------------------------------
# hostile input: one short error line

def _wfa_doc(alphabet="[0, 1]", initial='{"a": "1"}'):
    return ('{"ring": "Z", "alphabet": ' + alphabet + ', "states": ["a"], '
            '"initial": ' + initial + ', "final": {"a": "1"}, "transitions": []}')


def _eq_doc(lines):
    return "ring Z\nnumeration zeckendorf\nf0 1\n" + lines


BIG = "9" * 4000

HOSTILE = {
    # at 980 levels a deep caller stack can make json.loads give up first;
    # 400 levels always reach the label check
    **{f"label nested {k} deep": ("x.json", _wfa_doc(alphabet="[0, " + "[" * k + "]" * k + "]"))
       for k in (400, 980)},
    "50,000-char state name": ("x.json", _wfa_doc(initial='{"' + "s" * 50_000 + '": "1"}')),
    "integer past the str limit": ("x.json", _wfa_doc(alphabet="[0, " + "1" * 5000 + "]")),
    "100,000-char directive": ("x.eq", "ring Z\n" + "x" * 100_000 + " 1\n"),
    "100,000-char ring spec": ("x.eq", "ring " + "Z" * 100_000 + "\n"),
    # every place where an integer from an equation file reaches an error line
    "4,000-digit declared d": ("x.eq", _eq_doc(f"d {BIG}\nalpha 0 0 1\nalpha 1 0 1\n")),
    "4,000-digit declared h": ("x.eq", _eq_doc(f"h {BIG}\nalpha 0 0 1\nalpha 1 0 1\n")),
    "4,000-digit alpha index behind a declared d": (
        "x.eq", _eq_doc(f"d 1\nalpha 0 0 1\nalpha {BIG} 0 1\n")),
    "4,000-digit duplicate alpha": (
        "x.eq", _eq_doc(f"alpha 0 0 1\nalpha {BIG} {BIG} 1\nalpha {BIG} {BIG} 1\n")),
    "4,000-digit negative alpha index": ("x.eq", _eq_doc(f"alpha 0 0 1\nalpha -{BIG} 0 1\n")),
    "4,000-digit bad alpha element": ("x.eq", _eq_doc(f"alpha 0 0 1\nalpha {BIG} {BIG} y\n")),
    "4,000-digit negative g exponent": ("x.eq", _eq_doc(f"alpha 0 0 1\ng -{BIG} 1\n")),
    "4,000-digit duplicate g": ("x.eq", _eq_doc(f"alpha 0 0 1\ng {BIG} 1\ng {BIG} 1\n")),
    "4,000-digit bad g element": ("x.eq", _eq_doc(f"alpha 0 0 1\ng {BIG} y\n")),
    "4,000-digit negative base": ("x.eq", f"ring Z\nnumeration base -{BIG}\nf0 1\nalpha 0 0 1\n"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_gives_one_short_error_line(case, capsys, tmp_path):
    name, text = HOSTILE[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name.endswith(".json"):
        assert_one_short_error(*run(capsys, "eval", "-a", str(path), "-n", "1"))
    else:
        assert_one_short_error(*run(capsys, "solve", "-f", str(path), "-N", "1"))


def assert_one_short_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) <= 200


HOSTILE_ARGV = {
    "5,000-char numeration": ("eval", "-a", "builtin:fib-repr", "-n", "3",
                              "--numeration", "y" * 5000),
    "5,000-char builtin name": ("eval", "-a", "builtin:" + "y" * 5000, "-n", "1"),
    "5,000-char word": ("eval", "-a", "builtin:fib-repr", "--word", "x" * 5000),
    "prime past the primality bound": (
        "eval", "-a", "builtin:fib-repr@Fp:" + "9" * 40, "-n", "1"),
    # the ceiling is checked before the file is opened
    "4,001-digit order": ("solve", "-f", "x.eq", "-N", "9" * 4001),
    # past 4,300 digits even repr() of the product raises
    "8,000-digit system size": ("relation", "-a", "builtin:fib-repr@Q",
                                "--dmax", "9" * 4000, "--hmax", "9" * 4000, "-N", "10"),
    "4,000-digit defect label": ("defect", "--input", "1," + "9" * 4000),
    "100,000-digit word with adjacent ones": ("eval", "-a", "builtin:fib-repr",
                                              "--word", "11" + "0" * 100_000),
    "100,000-char file name": ("solve", "-f", "x" * 100_000, "-N", "8"),
    # the base-1000 adder reads 10^9 digit triples
    "base-1000 product": ("product", "-a", "builtin:count-ones", "-b", "builtin:count-ones",
                          "--numeration", "base-1000"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ARGV))
def test_hostile_argument_gives_one_short_error_line(case, capsys):
    start = time.perf_counter()
    result = run(capsys, *HOSTILE_ARGV[case])
    assert time.perf_counter() - start < 1.0
    assert_one_short_error(*result)


def test_order_past_the_str_limit_is_named_by_its_size(capsys):
    nines = "9" * 4000
    assert run(capsys, "relation", "-a", "builtin:fib-repr@Q", "--dmax", nines,
               "--hmax", nines, "-N", "5") == (
        2, "", "error: linear system size (dmax+1)(hmax+1)(N+1) = a 26579-bit number "
               "exceeds the ceiling 1000000\n")


def test_integer_past_the_str_limit_is_not_echoed_whole(capsys):
    # argparse refuses it; its error line quotes the text short
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-f", "x.eq", "-N", "9" * 5001])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "invalid int value" in errors[0]
    assert all(len(line) <= 200 for line in captured.err.splitlines())


@pytest.mark.parametrize("argv, bad", [
    (("eval", "-a", "builtin:count-ones", "--numeration", "base-1_0", "-n", "1"), "base-1_0"),
    (("eval", "-a", "builtin:count-ones", "--numeration", "base-٢", "-n", "5"), "base-٢"),
    (("solve", "-f", "fib_repr.eq", "-N", "٣"), "٣"),
    (("growth", "-N", "100", "--kmax", "1_0"), "1_0"),
    (("relation", "-a", "builtin:fib-repr@Q", "--dmax", "١", "--hmax", "1"), "١"),
])
def test_integer_options_take_ascii_decimals_only(argv, bad, eqfile, capsys):
    # int() alone reads "1_0" as 10 and other scripts' digits as digits
    argv = [eqfile(a) if a.endswith(".eq") else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad option type
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(bad) in errors[0]


OVERSIZED = {
    "d = 10^8": "numeration zeckendorf\nf0 1\nalpha 0 0 1\nalpha 100000000 0 1\n",
    "h = 10^8": "numeration zeckendorf\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
                "alpha 1 100000000 1\n",
    "g exponent 10^8": "numeration zeckendorf\nf0 0\nalpha 0 0 1\nalpha 1 0 1\n"
                       "g 100000000 1\n",
    "base-2 d = 10^8": "numeration base 2\nf0 1\nalpha 0 0 1\nalpha 100000000 0 1\n",
    "base 10^11": "numeration base 100000000000\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n",
    "base-2 grid": "numeration base 2\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
                   "alpha 1000 2000 1\n",
    "zeckendorf grid": "numeration zeckendorf\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n"
                       "alpha 30 300 1\n",
}
# d, h and q are each below the ceiling here: only the grid rules refuse
GRID_REFUSALS = {
    "base-2 grid": "error: base-q grid d(h~+1) = 2000000 exceeds the ceiling 1000000\n",
    "zeckendorf grid": "error: grid bound = 599654400 exceeds the ceiling 1000000\n",
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_equation_is_refused_before_building(case, capsys, tmp_path, monkeypatch):
    path = tmp_path / "big.eq"
    path.write_text("ring Z\n" + OVERSIZED[case], encoding="utf-8")
    for builder in ("build_automaton_q", "build_automaton_dumas"):
        monkeypatch.setattr(cli, builder, lambda *args: pytest.fail("a builder ran"))
    start = time.perf_counter()
    result = run(capsys, "build", "-f", str(path))
    assert time.perf_counter() - start < 1.0
    assert_one_short_error(*result)
    assert "exceeds the ceiling" in result[2]
    if case in GRID_REFUSALS:
        assert result[2] == GRID_REFUSALS[case]
    # solve needs only O(N) work however large d, h or the g exponent are
    start = time.perf_counter()
    code, out, _err = run(capsys, "solve", "-f", str(path), "-N", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and len(out.splitlines()) == 11


def test_large_base_costs_the_digits_used_not_the_base(capsys, tmp_path):
    # with q = 10^5 and N = 3000 every index is a single digit: the prefix
    # walk visits digits up to N and the build digits up to h + h~, never
    # all q of them
    path = tmp_path / "b100000.eq"
    path.write_text("ring Z\nnumeration base 100000\nf0 1\nalpha 0 0 1\nalpha 1 0 1\n",
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, _err = run(capsys, "verify", "-f", str(path), "-N", "3000")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out.startswith("PASS")
    P = parse_equation(path.read_text(encoding="utf-8"))
    assert sequence_prefix(build_automaton_q(P), P.kind, 3000) == solve_series(P, 3000)


def test_verify_rejects_an_automaton_missing_base_digits(capsys, tmp_path):
    # count-ones reads {0, 1}; base 3 needs a 2 from n = 2 on
    path = tmp_path / "b3.eq"
    path.write_text("ring Z\nnumeration base 3\nf0 0\nalpha 0 0 1\nalpha 1 0 1\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "verify", "-f", str(path), "-N", "8",
                         "--automaton", "builtin:count-ones")
    assert code == 2
    assert out == ""
    assert err == "error: label 2 outside automaton alphabet\n"


def test_large_prime_field_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, _err = run(capsys, "eval", "-a", "builtin:fib-repr@Fp:1000000000000000003",
                          "-n", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.strip() == "1"


# ---------------------------------------------------------------------------
# mutation fuzzing of both readers: every mutant of a shipped equation file
# or builtin JSON machine ends in an answer, a FAIL or one short error line

FUZZ_CHARS = "0123456789-+/:,.[]{}\" \nabdefhqxzFZ@#"


def _mutate(rng, text):
    """One to four edits: delete, insert or replace a character, reverse a span."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars))
        edit = rng.randrange(4)
        if edit == 0:
            del chars[i]
        elif edit == 1:
            chars.insert(i, rng.choice(FUZZ_CHARS))
        elif edit == 2:
            chars[i] = rng.choice(FUZZ_CHARS)
        else:
            j = i + rng.randint(2, 12)
            chars[i:j] = reversed(chars[i:j])
    return "".join(chars)


# values of other JSON types, and huge, negative or boolean labels and weights
ODD_VALUES = (None, True, False, 0, -1, 1.5, 10**30, "", "x", "1/0", "-1", [], {}, [0, 1],
              {"0": "1"})
HUGE_VALUES = (10**30, -(10**30), -1, True, False, "9" * 5000, "-1", [10**30, 0, 1])


def _slots(doc):
    """Every (container, key) of a parsed JSON document, depth first."""
    out = []

    def walk(node):
        items = (list(node.items()) if isinstance(node, dict)
                 else list(enumerate(node)) if isinstance(node, list) else ())
        for key, value in items:
            out.append((node, key))
            walk(value)
    walk(doc)
    return out


def _mutate_doc(rng, doc):
    """One to three edits to a copy of a parsed machine, dumped again: a value
    of another type, a dropped key or list entry, a duplicated list entry,
    an arrow to an unknown state, an added type or unknown key, or a huge,
    negative or boolean label, weight, alphabet entry or initial weight.
    Unlike a character edit, the mutant is always valid JSON."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        edit, slots = rng.randrange(6), _slots(doc)
        rows = doc.get("transitions")
        rows = [r for r in rows if isinstance(r, dict)] if isinstance(rows, list) else []
        lists = [(node, key) for node, key in slots if isinstance(node, list)]
        if edit == 0 and slots:
            node, key = rng.choice(slots)
            node[key] = rng.choice(ODD_VALUES)
        elif edit == 1 and slots:
            node, key = rng.choice(slots)
            del node[key]
        elif edit == 2 and lists:
            node, key = rng.choice(lists)
            node.insert(key, copy.deepcopy(node[key]))
        elif edit == 3 and rows:
            rng.choice(rows)[rng.choice(("from", "to"))] = rng.choice(("nowhere", "", "0 "))
        elif edit == 4:
            doc[rng.choice(("type", "extra"))] = rng.choice(("wfa", "dfa", 1, None, []))
        elif edit == 5:
            where = rng.choice(("label", "weight", "alphabet", "initial"))
            value = rng.choice(HUGE_VALUES)
            if where in ("label", "weight") and rows:
                rng.choice(rows)[where] = value
            elif where == "alphabet" and isinstance(doc.get("alphabet"), list) and doc["alphabet"]:
                doc["alphabet"][rng.randrange(len(doc["alphabet"]))] = value
            elif isinstance(doc.get("initial"), dict) and doc["initial"]:
                doc["initial"][rng.choice(list(doc["initial"]))] = value
    return json.dumps(doc)


def _json_commands(rng, path, fib, N):
    return [
        ["eval", "-a", path, "-n", N],
        ["eval", "-a", path, "--word", rng.choice(["101", "1001", "0"])],
        ["export", "-a", path, "--format", rng.choice(["dot", "json"])],
        ["determinize", "-a", path, "--direction", rng.choice(["direct", "reverse"])],
        ["product", "-a", path, "-b", rng.choice(["builtin:fib-repr", path])],
        ["verify", "-f", fib, "-N", N, "--automaton", path]]


def _directives(name):
    """A shipped equation file without its comment lines: they are most of
    its text, and a mutant that only edits them reaches the skip path."""
    return "".join(line for line in equation_text(name).splitlines(True)
                   if not line.startswith("#"))


def test_mutated_inputs_end_in_an_answer_or_one_error_line(eqfile, capsys, tmp_path):
    sources = [(_directives(name), False) for name in SHIPPED] + [
        (automaton_to_json(cli._load_wfa(f"builtin:{name}")), True)
        for name in sorted(cli.BUILTIN_WFA)]
    fib = eqfile("fib_repr.eq")
    mutant_file = tmp_path / "mutant"
    path = str(mutant_file)
    rng = random.Random(14)
    cases = 0
    while cases < 300:
        text, is_json = rng.choice(sources)
        mutant = _mutate(rng, text)
        mutant_file.write_text(mutant, encoding="utf-8")
        N = str(rng.randint(0, 30))
        if is_json:
            commands = _json_commands(rng, path, fib, N)
        else:
            commands = [["solve", "-f", path, "-N", N], ["verify", "-f", path, "-N", N],
                        ["build", "-f", path]]
        cases += len(commands)
        _assert_answers_or_one_error_line(capsys, commands, mutant)
    # token-level mutants reach the JSON loader's checks, which few
    # character mutants do
    docs = [json.loads(text) for text, is_json in sources if is_json]
    for _ in range(32):
        mutant = _mutate_doc(rng, rng.choice(docs))
        mutant_file.write_text(mutant, encoding="utf-8")
        N = str(rng.randint(0, 30))
        commands = _json_commands(rng, path, fib, N) + [
            ["relation", "-a", path, "--dmax", "1", "--hmax", "1", "-N", "10"]]
        _assert_answers_or_one_error_line(capsys, commands, mutant)


def _assert_answers_or_one_error_line(capsys, commands, mutant):
    for argv in commands:
        where = f"{argv[0]} on {mutant!r}"
        try:
            code = main(argv)
        except Exception as e:  # a traceback out of main is the defect sought
            pytest.fail(f"{where} raised {e!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        if code == 2:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and len(errors[0]) < 400, where
