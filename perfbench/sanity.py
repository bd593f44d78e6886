"""Sanity check of the benchmark's yardsticks against the code's own figures.

Exact machine sizes must equal the sizes the code pins (exit code 1 if
not).  Timings are medians of three runs, printed next to the baseline
figures recorded for this code base (single runs, good to about +-20%);
a timing far from its baseline is reported, never adjusted.

    python3 perfbench/sanity.py
"""

import os
import statistics
import sys
from time import perf_counter

import run

# (what, expected) for exact sizes; (what, baseline seconds) for timings.
PINNED = {
    "fib_repr build states": 29,
    "dumas_fib build states": 34,
    "fib_repr x fib_repr product states": 2023,
    "(fib x fib) x fib product states": 2462,
    "fib@Fp:2 squared, direct DFA states": 379,
    "fib@Fp:2 squared, reverse DFA states": 8288,
}
BASELINE = {
    "hyperbinary solve_series N=1e5": 0.44,
    "fib_repr build": 0.002,
    "fib_repr solve_series N=2e4": 1.26,
    "fib_repr sequence_prefix N=2e4": 0.50,
    "fib_repr x fib_repr cauchy_product": 0.046,
    "fib_repr^2 sequence_prefix N=2000": 0.93,
    "find_relation count-ones@Q d<=4 h<=5 N=200": 0.61,
    "100k canonical (Zeckendorf)": 0.92,
}


def median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main():
    M = run.import_mahler()
    data = os.path.join(run.ROOT, "src", "mahler", "data")

    def eq(name):
        with open(os.path.join(data, name + ".eq"), encoding="utf-8") as fh:
            return M.parse_equation(fh.read())

    Z, ZECK = M.INTEGERS, M.ZECKENDORF
    add = M.automata.addition_automaton(ZECK)
    fib_eq, hyper = eq("fib_repr"), eq("hyperbinary")
    fib_A = M.build_automaton_z(fib_eq)
    square = M.cauchy_product(fib_A, fib_A, add)
    fb = M.fibonacci_representation_automaton(Z)
    f2 = M.fibonacci_representation_automaton(M.PrimeField(2))
    f2sq = M.cauchy_product(f2, f2, add)
    sizes = {
        "fib_repr build states": fib_A.n_states,
        "dumas_fib build states": M.build_automaton_dumas(eq("dumas_fib")).n_states,
        "fib_repr x fib_repr product states": square.n_states,
        "(fib x fib) x fib product states": M.cauchy_product(
            M.cauchy_product(fb, fb, add), fb, add).n_states,
        "fib@Fp:2 squared, direct DFA states": len(M.determinize(f2sq, "direct").states),
        "fib@Fp:2 squared, reverse DFA states": len(M.determinize(f2sq, "reverse").states),
    }
    times = {
        "hyperbinary solve_series N=1e5": lambda: M.solve_series(hyper, 100_000),
        "fib_repr build": lambda: M.build_automaton_z(fib_eq),
        "fib_repr solve_series N=2e4": lambda: M.solve_series(fib_eq, 20_000),
        "fib_repr sequence_prefix N=2e4": lambda: M.sequence_prefix(fib_A, ZECK, 20_000),
        "fib_repr x fib_repr cauchy_product": lambda: M.cauchy_product(fib_A, fib_A, add),
        "fib_repr^2 sequence_prefix N=2000": lambda: M.sequence_prefix(square, ZECK, 2000),
        "find_relation count-ones@Q d<=4 h<=5 N=200": lambda: M.find_relation(
            M.count_ones_automaton(M.RATIONALS), ZECK, 4, 5, 200),
        "100k canonical (Zeckendorf)": lambda: [M.canonical(n) for n in range(100_000)],
    }
    ok = True
    for what, expected in PINNED.items():
        got = sizes[what]
        ok = ok and got == expected
        print(f"{what:45s} {got:>8d}  pinned {expected:>6d}  {'ok' if got == expected else 'MISMATCH'}")
    for what, fn in times.items():
        t = median_time(fn)
        base = BASELINE[what]
        print(f"{what:45s} {t:8.3f} s  baseline {base:.3f} s  ratio {t / base:.2f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
