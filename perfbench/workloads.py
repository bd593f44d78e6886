"""The benchmark's four workloads: inputs from a seed, jobs, and checks.

A workload is a list of jobs that one client runs in order, in a closed
loop.  Each job has three parts:

* ``run(ph)`` calls the public mahler API (looked up at call time, so
  the tracer's wrappers are seen) and is the only timed part; ``ph``
  opens one span per phase;
* ``view(out)`` reduces the output to plain values, untimed;
* ``check(view)`` compares the view with a reference that the machine
  under test did not produce, untimed.  The runner caches a passing
  view per job, so a later identical output reuses the verdict.

Why each workload exists, and what it predicts, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

import corpus
import reference as ref

# Sizes per workload; "tiny" is for the smoke test only.
SIZES = {
    "full": {"verify_N": 4000, "corpus_N": 400, "corpus_shapes": corpus.SHAPES,
             "fib2_N": 800, "fib3_N": 300, "base2_N": 4000, "dfa_L": 10,
             "rel_ones": (4, 5, 200), "rel_fib": (2, 2, 200), "recheck_N": 2000,
             "cli_N": 300, "cli_solve_N": 200, "cli_growth_N": 2000},
    "tiny": {"verify_N": 60, "corpus_N": 30, "corpus_shapes": corpus.TINY_SHAPES,
             "fib2_N": 40, "fib3_N": 20, "base2_N": 40, "dfa_L": 4,
             "rel_ones": (4, 5, 40), "rel_fib": (1, 1, 20), "recheck_N": 200,
             "cli_N": 30, "cli_solve_N": 20, "cli_growth_N": 200},
}


@dataclass
class Verdict:
    ok: bool
    coeffs: int            # sequence entries (or DFA outputs) produced and checked
    states: int = 0        # states of the machines the job produced
    transitions: int = 0   # their transitions
    detail: str = ""


@dataclass
class Job:
    name: str
    ring: Optional[str]    # ring family the job computes in, if it has one
    run: Callable
    view: Callable
    check: Callable


def payloads(seq):
    return tuple(v.payload for v in seq)


def data_text(root, name):
    with open(os.path.join(root, "src", "mahler", "data", name + ".eq"), encoding="utf-8") as fh:
        return fh.read()


def scaled(text, c):
    """Equation text over Z with f0 and every g coefficient times c.

    The equations are linear, so the solution is c times the original.
    """
    out = []
    for line in text.splitlines():
        tok = line.split()
        if tok[:1] == ["f0"]:
            line = f"f0 {int(tok[1]) * c}"
        elif tok[:1] == ["g"]:
            line = f"g {tok[1]} {int(tok[2]) * c}"
        out.append(line)
    return "\n".join(out) + "\n"


def words(L):
    """Every 0/1 word of length <= L, the empty word included."""
    return [w for n in range(L + 1) for w in itertools.product((0, 1), repeat=n)]


def machine_size(A):
    return A.n_states, len(A.transitions)


# ---------------------------------------------------------------------------
# verify-zeck

def verify_zeck(M, seed, size, ctx):
    rng = random.Random(seed)
    N = SIZES[size]["verify_N"]
    jobs = []
    for name in ("fib_repr", "dumas_fib", "dumas_twolayer"):
        c = rng.randint(2, 9)
        jobs.append(_verify_job(M, name, scaled(data_text(ctx.root, name), c), N,
                                (lambda c=c: [c * x for x in ref.subset_counts(N)])
                                if name == "fib_repr" else None))
    text = data_text(ctx.root, "thue_morse_zeck")

    def run(ph):
        with ph.phase("parse"):
            P = M.parse_equation(text)
        with ph.phase("build"):
            C = M.count_ones_automaton(M.INTEGERS)
        with ph.phase("prefix"):
            seq = M.sequence_prefix(C, P.kind, N)
        with ph.phase("oracle"):
            res = M.residual(P, M.SeriesPrefix(P.ring, tuple(seq)))
        return seq, res

    ones = cache(lambda: tuple(ref.zeck_ones(N)))
    jobs.append(Job(
        "residual:thue_morse_zeck", "Z", run,
        lambda out: (payloads(out[0]), out[1].is_zero()),
        lambda v: Verdict(v[1] and v[0] == ones(), N + 1)))
    rng.shuffle(jobs)
    return jobs


def _verify_job(M, name, text, N, independent):
    def run(ph):
        with ph.phase("parse"):
            P = M.parse_equation(text)
        with ph.phase("build"):
            A = (M.build_automaton_dumas if P.g_poly else M.build_automaton_z)(P)
        with ph.phase("oracle"):
            oracle = M.solve_series(P, N)
        with ph.phase("prefix"):
            got = M.sequence_prefix(A, P.kind, N)
        return A, oracle, got

    def check(v):
        size, oracle, got = v
        ok = oracle == got and (independent is None or list(oracle) == independent())
        return Verdict(ok, N + 1, *size)

    return Job(f"verify:{name}", "Z", run,
               lambda out: (machine_size(out[0]), payloads(out[1]), payloads(out[2])),
               check)


# ---------------------------------------------------------------------------
# compile-corpus

def compile_corpus(M, seed, size, ctx):
    cfg = SIZES[size]
    return [_corpus_job(M, f"eq{i}", family, text, cfg["corpus_N"])
            for i, (family, text) in enumerate(corpus.generate(seed, cfg["corpus_shapes"]))]


def _corpus_job(M, name, family, text, N):
    def run(ph):
        with ph.phase("parse"):
            P = M.parse_equation(text)
        with ph.phase("build"):
            A = (M.build_automaton_q if isinstance(P.kind, M.Base) else M.build_automaton_z)(P)
        with ph.phase("serialize"):
            B = M.automaton_from_json(M.automaton_to_json(A))
        with ph.phase("oracle"):
            oracle = M.solve_series(P, N)
        with ph.phase("prefix"):
            got = M.sequence_prefix(B, P.kind, N)
        return A, B, oracle, got

    def view(out):
        A, B, oracle, got = out
        return machine_size(A), M.same_structure(A, B), payloads(oracle), payloads(got)

    def check(v):
        size, round_trip, oracle, got = v
        return Verdict(round_trip and oracle == got, N + 1, *size)

    return Job(f"{name}:{family}", family, run, view, check)


# ---------------------------------------------------------------------------
# machine-algebra

def machine_algebra(M, seed, size, ctx):
    rng = random.Random(seed)
    cfg = SIZES[size]
    Z, Q, F2 = M.INTEGERS, M.RATIONALS, M.PrimeField(2)
    ZECK, BASE2 = M.ZECKENDORF, M.Base(2)
    c = rng.randint(2, 9)
    fib_text = scaled(data_text(ctx.root, "fib_repr"), c)
    fib = M.fibonacci_representation_automaton(Z)
    fib2 = M.fibonacci_representation_automaton(F2)
    jobs = []

    N = cfg["fib2_N"]

    def fib_square(ph):
        with ph.phase("build"):
            A = M.build_automaton_z(M.parse_equation(fib_text))
        with ph.phase("product"):
            H = M.cauchy_product(A, A, M.automata.addition_automaton(ZECK))
        with ph.phase("prefix"):
            return [A, H], M.sequence_prefix(H, ZECK, N)

    sc = cache(lambda n: [c * x for x in ref.subset_counts(n)])
    jobs.append(_product_job("product:fib_repr^2", fib_square, N,
                             lambda n: ref.convolve(sc(n), sc(n), n)))

    N3 = cfg["fib3_N"]

    def fib_cube(ph):
        add = M.automata.addition_automaton(ZECK)
        with ph.phase("product"):
            H2 = M.cauchy_product(fib, fib, add)
            H3 = M.cauchy_product(H2, fib, add)
        with ph.phase("prefix"):
            return [H2, H3], M.sequence_prefix(H3, ZECK, N3)

    def cube_ref(n):
        f = ref.subset_counts(n)
        return ref.convolve(ref.convolve(f, f, n), f, n)

    jobs.append(_product_job("product:fib-repr^3", fib_cube, N3, cube_ref))

    NB = cfg["base2_N"]

    def ones_by_all(ph):
        with ph.phase("product"):
            H = M.cauchy_product(M.count_ones_automaton(Z), M.all_ones_automaton(Z),
                                 M.automata.addition_automaton(BASE2))
        with ph.phase("prefix"):
            return [H], M.sequence_prefix(H, BASE2, NB)

    jobs.append(_product_job("product:count-ones*all-ones@base2", ones_by_all, NB,
                             lambda n: ref.convolve(ref.popcounts(n), [1] * (n + 1), n)))

    all_words = words(cfg["dfa_L"])
    for direction in ("direct", "reverse"):
        jobs.append(_determinize_job(M, direction, fib2, all_words))

    for name, A, reference_seq, (dmax, hmax, n) in (
            ("count-ones@Q", M.count_ones_automaton(Q), ref.zeck_ones, cfg["rel_ones"]),
            ("fib-repr@Q", M.fibonacci_representation_automaton(Q), ref.subset_counts,
             cfg["rel_fib"])):
        jobs.append(_relation_job(M, name, A, reference_seq, dmax, hmax, n, cfg["recheck_N"]))
    rng.shuffle(jobs)
    return jobs


def _product_job(name, run, N, expected):
    def view(out):
        machines, seq = out
        return tuple(machine_size(A) for A in machines), payloads(seq)

    def check(v):
        sizes, seq = v
        return Verdict(list(seq) == expected(N), N + 1,
                       sum(s for s, _ in sizes), sum(t for _, t in sizes))

    return Job(name, "Z", run, view, check)


def _determinize_job(M, direction, factor, all_words):
    ring = factor.ring

    def run(ph):
        with ph.phase("product"):
            P = M.cauchy_product(factor, factor, M.automata.addition_automaton(M.ZECKENDORF))
        with ph.phase("determinize"):
            return P, M.determinize(P, direction)

    def view(out):
        P, D = out
        return (P.n_states, payloads(P.initial), payloads(P.final),
                tuple(sorted((k, w.payload) for k, w in P.transitions.items())),
                D.initial, tuple(sorted(D.transitions.items())), tuple(map(str, D.outputs)))

    def check(v):
        """Every word up to the fixed length, plus a shortest word into
        every DFA state, so each state's output is compared with weight."""
        n, initial, final, arrows, start, trans, outputs = v
        P = M.WeightedAutomaton(ring=ring, alphabet=(0, 1), states=tuple(map(str, range(n))),
                                initial=initial, final=final, transitions=dict(arrows))
        table = dict(trans)
        access = {start: ()}
        queue = [start]
        for state in queue:
            for b in (0, 1):
                nxt = table[(state, b)]
                if nxt not in access:
                    access[nxt] = access[state] + (b,)
                    queue.append(nxt)
        probes = all_words + list(access.values())
        ok = len(access) == len(outputs)
        for u in probes:
            state = start
            for b in u:
                state = table[(state, b)]
            ok = ok and outputs[state] == str(M.weight(P, u if direction == "direct" else u[::-1]))
        return Verdict(ok, len(probes), n + len(outputs), len(arrows) + len(trans))

    return Job(f"determinize:{direction}", "Fp", run, view, check)


def _relation_job(M, name, A, reference_seq, dmax, hmax, N, recheck_N):
    def run(ph):
        with ph.phase("relation"):
            return M.find_relation(A, M.ZECKENDORF, dmax, hmax, N)

    def view(eq):
        return None if eq is None else M.format_equation(eq)

    def check(text):
        if text is None:
            return Verdict(False, 0, detail="no relation found")
        P = M.parse_equation(text)
        seq = M.SeriesPrefix(M.RATIONALS, tuple(Fraction(x) for x in reference_seq(recheck_N)))
        return Verdict(M.residual(P, seq).is_zero(), 4 * N + 1)

    return Job(f"relation:{name}", "Q", run, view, check)


# ---------------------------------------------------------------------------
# cli-session

def cli_session(M, seed, size, ctx):
    rng = random.Random(seed)
    cfg = SIZES[size]
    N, NS, NG = cfg["cli_N"], cfg["cli_solve_N"], cfg["cli_growth_N"]
    data = os.path.join(ctx.root, "src", "mahler", "data")
    work = ctx.work_dir
    os.makedirs(work, exist_ok=True)

    def path(name):
        return os.path.join(work, name)

    c = rng.randint(2, 9)
    files = {
        "fib_c.eq": scaled(data_text(ctx.root, "fib_repr"), c),
        "bad.eq": "ring Z\nnumeration zeckendorf\nf0 1\nalpha 0 0 1\nbogus 1 2\n",
        "bad.json": '{"ring": "Z", "states": [',
    }
    for name, text in files.items():
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    fib_c = cache(lambda n: [c * x for x in ref.subset_counts(n)])
    k = rng.randrange(0, 1500)
    word = _random_zeck_word(rng, 14)
    m = rng.randrange(0, 600)
    n = rng.randrange(0, m + 1)
    digits_m, digits_n = ref.zeck_digits(m), ref.zeck_digits(n)
    digits_n = [0] * (len(digits_m) - len(digits_n)) + digits_n
    diff = ",".join(str(a - b) for a, b in zip(digits_m, digits_n))
    defect = ref.phi_shift(m) - ref.phi_shift(m - n) - ref.phi_shift(n)

    pass_iso = f"PASS: automaton matches the recurrence oracle for all n <= {N}"
    pass_res = f"PASS: residual vanishes for all n <= {N}"
    isolating = {"fib_repr": ("zeckendorf", ref.subset_counts),
                 "hyperbinary": (2, ref.hyperbinary),
                 "dumas_fib": ("zeckendorf", None),
                 "dumas_twolayer": ("zeckendorf", None)}
    residual_checked = {"thue_morse_base2": "builtin:thue-morse",
                        "thue_morse_zeck": "builtin:count-ones"}

    calls = [
        ("build", ["build", "-f", path("fib_c.eq"), "-o", path("fib.json")],
         _wfa_file(M, lambda A: M.sequence_prefix(A, M.ZECKENDORF, N), lambda: fib_c(N))),
        ("eval-n", ["eval", "-a", path("fib.json"), "-n", str(k)],
         _stdout([str(fib_c(k)[k])], 1)),
        ("eval-word", ["eval", "-a", path("fib.json"), "--word", "".join(map(str, word))],
         _stdout([str(fib_c(ref.zeck_value(word))[ref.zeck_value(word)])], 1)),
    ]
    for name in ("fib_repr", "hyperbinary", "dumas_fib", "dumas_twolayer",
                 "thue_morse_base2", "thue_morse_zeck", "growth"):
        eq = os.path.join(data, name + ".eq")
        if name in isolating:
            calls.append((f"verify:{name}", ["verify", "-f", eq, "-N", str(N)],
                          _stdout([pass_iso], N + 1)))
            calls.append((f"solve:{name}", ["solve", "-f", eq, "-N", str(NS)],
                          _solve_lines(M, eq, NS, *isolating[name])))
        elif name in residual_checked:
            calls.append((f"verify:{name}", ["verify", "-f", eq, "-N", str(N),
                                             "--automaton", residual_checked[name]],
                          _stdout([pass_res], N + 1)))
            calls.append((f"solve:{name}", ["solve", "-f", eq, "-N", str(NS)], _error))
        else:
            calls.append((f"verify:{name}", ["verify", "-f", eq, "-N", str(N)], _error))
            calls.append((f"solve:{name}", ["solve", "-f", eq, "-N", str(NS)], _error))
    calls += [
        ("product", ["product", "-a", "builtin:fib-repr", "-b", "builtin:fib-repr",
                     "-o", path("prod.json")],
         _wfa_file(M, lambda A: M.sequence_prefix(A, M.ZECKENDORF, N),
                   lambda: ref.convolve(ref.subset_counts(N), ref.subset_counts(N), N))),
        ("determinize", ["determinize", "-a", "builtin:thue-morse"], _thue_morse_dfa(words(8))),
        ("export", ["export", "-a", path("fib.json"), "--format", "dot"],
         _dot_matches(path("fib.json"))),
        ("defect", ["defect", "--input", diff], _stdout([str(defect)], 1)),
        ("relation", ["relation", "-a", "builtin:fib-repr@Q", "--dmax", "1", "--hmax", "1",
                      "-N", "50"], _relation_output(M, 4 * 50 + 1)),
        ("growth", ["growth", "-N", str(NG), "--kmax", "3"],
         _stdout(ref.growth_lines(NG, 3), NG + 1)),
        ("bad-eq", ["verify", "-f", path("bad.eq")], _error),
        ("bad-json", ["eval", "-a", path("bad.json"), "-n", "3"], _error),
        ("negative-N", ["solve", "-f", path("fib_c.eq"), "-N", "-5"], _error),
        ("unknown-builtin", ["eval", "-a", "builtin:nope", "-n", "1"], _error),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    return [_cli_job(M, name, argv, expect, ctx.in_process, env, ctx.root)
            for name, argv, expect in calls]


def _random_zeck_word(rng, length):
    """A 0/1 word with a leading 1 and no two adjacent ones."""
    w = [1]
    while len(w) < length:
        w.append(0 if w[-1] == 1 else rng.randint(0, 1))
    return w


def _cli_job(M, name, argv, expect, in_process, env, root):
    """One CLI call; ``expect(code, stdout, stderr lines, -o file text)``."""
    output = argv[argv.index("-o") + 1] if "-o" in argv else None

    def run(ph):
        with ph.phase("cli"):
            if in_process:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = M.cli.main(argv)
                return code, out.getvalue(), err.getvalue()
            proc = subprocess.run([sys.executable, "-m", "mahler.cli", *argv], cwd=root,
                                  env=env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

    def view(out):
        code, stdout, stderr = out
        produced = None
        if output is not None and os.path.exists(output):
            with open(output, encoding="utf-8") as fh:
                produced = fh.read()
        return code, stdout, stderr.splitlines(), produced

    def check(v):
        code, stdout, stderr, produced = v
        if "Traceback" in "\n".join(stderr):
            return Verdict(False, 0, detail="traceback")
        return expect(code, stdout, stderr, produced)

    return Job(f"cli:{name}", None, run, view, check)


def _verdict_ok(code, ok, coeffs=0, states=0, transitions=0):
    return Verdict(code == 0 and ok, coeffs, states, transitions)


def _error(code, stdout, stderr, produced):
    """Usage or input error: exit code 2, nothing on stdout, one stderr line."""
    return Verdict(code == 2 and stdout == "" and len(stderr) == 1
                   and stderr[0].startswith("error: "), 0)


def _stdout(lines, coeffs=0):
    return lambda code, stdout, stderr, produced: _verdict_ok(
        code, stdout.splitlines() == lines, coeffs)


def _solve_lines(M, eq_path, N, numeration, independent):
    """`solve` prints "n, word, f_n"; words come from reference expansions,
    values from an independent sequence where one exists, else from the
    oracle computed in this process."""
    def expected():
        if independent is not None:
            values = independent(N)
        else:
            with open(eq_path, encoding="utf-8") as fh:
                values = [str(v) for v in M.solve_series(M.parse_equation(fh.read()), N)]
        digits = ref.zeck_digits if numeration == "zeckendorf" else (
            lambda n: ref.base_digits(n, numeration))
        return [f"{n}, {''.join(map(str, digits(n)))}, {values[n]}" for n in range(N + 1)]

    expected = cache(expected)
    return lambda code, stdout, stderr, produced: _verdict_ok(
        code, stdout.splitlines() == expected(), N + 1)


def _wfa_file(M, prefix, expected):
    def fn(code, stdout, stderr, produced):
        if code != 0 or produced is None:
            return Verdict(False, 0)
        A = M.automaton_from_json(produced)
        return _verdict_ok(code, payloads(prefix(A)) == tuple(expected()), 0, *machine_size(A))
    return fn


def _thue_morse_dfa(all_words):
    def fn(code, stdout, stderr, produced):
        doc = json.loads(stdout)
        table = {(t["from"], t["label"]): t["to"] for t in doc["transitions"]}
        ok = True
        for w in all_words:
            state = doc["initial"]
            for b in w:
                state = table[(state, b)]
            ok = ok and doc["outputs"][state] == str(sum(w) % 2)
        return _verdict_ok(code, ok, len(all_words), len(doc["states"]), len(table))
    return fn


def _dot_matches(json_path):
    def fn(code, stdout, stderr, produced):
        with open(json_path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        lines = stdout.splitlines()
        edges = sum(" -> " in ln for ln in lines)
        nodes = sum(ln.startswith('  "') and " -> " not in ln for ln in lines)
        return _verdict_ok(code, (nodes, edges) == (len(doc["states"]),
                                                    len(doc["transitions"])))
    return fn


def _relation_output(M, coeffs):
    def fn(code, stdout, stderr, produced):
        if code != 0:
            return Verdict(False, 0)
        P = M.parse_equation(stdout)
        seq = M.SeriesPrefix(M.RATIONALS, tuple(Fraction(x) for x in ref.subset_counts(1000)))
        return _verdict_ok(code, M.residual(P, seq).is_zero(), coeffs)
    return fn


WORKLOADS = {
    "verify-zeck": verify_zeck,
    "compile-corpus": compile_corpus,
    "machine-algebra": machine_algebra,
    "cli-session": cli_session,
}
