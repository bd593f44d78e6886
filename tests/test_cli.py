"""CLI behavior through main(argv): outputs, exit codes, error paths."""

import json
import re

import pytest

from conftest import equation_text, ints
from mahler import cli
from mahler.cli import MAX_N, main
from mahler.numeration import ZECKENDORF, canonical, format_word
from mahler.serialize import automaton_from_json
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
    assert found.group(2) == format_word(canonical(n).digits)


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


# ---------------------------------------------------------------------------
# hostile input: one short error line

def _wfa_doc(alphabet="[0, 1]", initial='{"a": "1"}'):
    return ('{"ring": "Z", "alphabet": ' + alphabet + ', "states": ["a"], '
            '"initial": ' + initial + ', "final": {"a": "1"}, "transitions": []}')


HOSTILE = {
    # at 980 levels a deep caller stack can make json.loads give up first;
    # 400 levels always reach the label check
    **{f"label nested {k} deep": ("x.json", _wfa_doc(alphabet="[0, " + "[" * k + "]" * k + "]"))
       for k in (400, 980)},
    "50,000-char state name": ("x.json", _wfa_doc(initial='{"' + "s" * 50_000 + '": "1"}')),
    "integer past the str limit": ("x.json", _wfa_doc(alphabet="[0, " + "1" * 5000 + "]")),
    "100,000-char directive": ("x.eq", "ring Z\n" + "x" * 100_000 + " 1\n"),
    "100,000-char ring spec": ("x.eq", "ring " + "Z" * 100_000 + "\n"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_gives_one_short_error_line(case, capsys, tmp_path):
    name, text = HOSTILE[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name.endswith(".json"):
        code, out, err = run(capsys, "eval", "-a", str(path), "-n", "1")
    else:
        code, out, err = run(capsys, "solve", "-f", str(path), "-N", "1")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) <= 200
