"""Command-line front end over the library.

Subcommands:

  solve        coefficient table of an isolating equation file
  build        compile an equation file to an automaton (JSON)
  eval         evaluate an automaton at an index or on a digit word
  verify       check an automaton (or a fresh build) against the oracle
  relation     search for an equation annihilating an automaton's sequence
  product      Cauchy product of two automata
  determinize  finite-ring automaton to a DFA with outputs
  defect       run the linearity-defect automaton on a digit word
  growth       growth thresholds of the non-regular example
  export       automaton to DOT or JSON

Automaton arguments accept either a JSON file path or "builtin:<name>";
ring-parameterized builtins also take "builtin:<name>@<ring>", e.g.
builtin:fib-repr@Q.  See BUILTIN_WFA / BUILTIN_DFA (export alone reads
the latter).  Exit codes: 0 success or PASS, 1 verification FAIL (or
no relation found), 2 usage, parse, or precondition errors, an order
-N above MAX_N, an equation whose d, h, g exponents, base or state grid
pass MAX_N (build, verify), a base-q adder of more than MAX_N digit
triples (product), or running out of memory.
"""

from __future__ import annotations

import argparse
import sys

from .automata import (
    addition_automaton,
    addition_automaton_base,
    addition_automaton_zeckendorf,
    all_ones_automaton,
    count_ones_automaton,
    defect_automaton,
    defect_automaton_constructed,
    fibonacci_representation_automaton,
)
from .equations import (
    EquationError,
    _h_tilde,
    build_automaton_dumas,
    build_automaton_q,
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
from .numeration import (
    ZECKENDORF,
    Base,
    NumerationError,
    _canonical_fold,
    _word_sep,
    canonical,
)
from .rings import INTEGERS, PrimeField, RingError, _decimal, _quote, parse_ring
from .serialize import (
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    dfa_to_dot,
    dfa_to_json,
)
from .wfa import (
    AutomatonError,
    DfaWithOutput,
    MissingTransitionError,
    cauchy_product,
    determinize,
    eval_sequence,
    sequence_prefix,
    weight,
)


class CliError(Exception):
    """Bad command-line level input; reported on stderr with exit code 2."""


# Largest truncation order solve, verify, relation and growth accept.
# Each holds several O(N) tables and walks N coefficients in pure Python,
# so a larger order ends in a memory blow-up or hours of work.
MAX_N = 10**6


def _check_order(N: int, what: str = "-N") -> None:
    if N > MAX_N:
        raise CliError(f"{what} = {_quote(N)} exceeds the ceiling {MAX_N}")


def _integer(text: str) -> int:
    """argparse type for integer options; a bad value is quoted short
    (its text, since repr of an int past 4,300 digits raises)."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


# name -> (maker, takes a ring suffix); a ring-parameterized maker gets
# the suffix's ring or None, a fixed one is called without arguments.
BUILTIN_WFA = {
    "thue-morse": (lambda ring: count_ones_automaton(ring or PrimeField(2)), True),
    "count-ones": (lambda ring: count_ones_automaton(ring or INTEGERS), True),
    "fib-repr": (lambda ring: fibonacci_representation_automaton(ring or INTEGERS), True),
    "all-ones": (lambda ring: all_ones_automaton(ring or INTEGERS), True),
    "addition-base2": (lambda: addition_automaton_base(2).automaton, False),
    "addition-zeckendorf": (lambda: addition_automaton_zeckendorf().automaton, False),
}

BUILTIN_DFA = {
    "defect": (defect_automaton, False),
    "defect-constructed": (defect_automaton_constructed, False),
}


def _load_machine(spec: str):
    """The weighted automaton, or BUILTIN_DFA machine with outputs, of an -a spec."""
    if not spec.startswith("builtin:"):
        with open(spec, "r", encoding="utf-8") as fh:
            return automaton_from_json(fh.read())
    name, at, ring_spec = spec[len("builtin:"):].partition("@")
    ring = parse_ring(ring_spec) if at else None
    maker, takes_ring = BUILTIN_WFA.get(name) or BUILTIN_DFA.get(name) or (None, False)
    if maker is None:
        raise CliError(f"unknown builtin automaton {_quote(name)}; available: "
                       + ", ".join(sorted([*BUILTIN_WFA, *BUILTIN_DFA])))
    if ring is not None and not takes_ring:
        raise CliError(f"builtin {_quote(name)} does not take a ring suffix")
    return maker(ring) if takes_ring else maker()


def _load_wfa(spec: str):
    if isinstance(A := _load_machine(spec), DfaWithOutput):
        raise CliError(f"{_quote(spec)} is a machine with outputs; only export reads it")
    return A


def _load_equation(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_equation(fh.read())


def _parse_numeration(text: str):
    if text == "zeckendorf":
        return ZECKENDORF
    if text.startswith("base-"):
        try:
            return Base(_decimal(text[len("base-"):]))
        except ValueError:
            raise CliError(f"bad base in numeration {_quote(text)}") from None
    raise CliError(
        f"unknown numeration {_quote(text)}; expected 'zeckendorf' or 'base-<q>'")


def _emit(path, *parts: str):
    """Write the parts one after another: a large document and its newline
    are never joined into one more copy."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.writelines(parts)


def _build_from_equation(P):
    """P's machine and its report line, after refusing sizes the build would loop over."""
    _check_order(P.d, "d")
    _check_order(P.h, "h")
    _check_order(max(P.g_poly, default=0), "largest g exponent")
    if isinstance(P.kind, Base):
        _check_order(P.kind.q, "base q (the machine's alphabet)")
        _check_order(max(P.d, 1) * (_h_tilde(P.kind, P.h) + 1), "base-q grid d(h~+1)")
        A = build_automaton_q(P)
        return A, f"built {A.n_states} states"
    info = z_state_space(P)
    _check_order(info.grid_bound, "grid bound")
    A = build_automaton_dumas(P)
    return A, (f"grid bound {info.grid_bound} states (h~ = {info.h_tilde}, "
               f"window {info.window}); built {A.n_states} after trimming")


def cmd_solve(args) -> int:
    _check_order(args.N)
    P = _load_equation(args.file)
    if not is_isolating(P):
        raise CliError(
            "equation is not isolating (A_0 != 1), so there is no coefficient "
            "recurrence to unroll; use `mahler verify --automaton ...` to check "
            "a sequence against it instead")
    series = solve_series(P, args.N)
    sep = _word_sep(P.kind)
    words = _canonical_fold(P.kind, args.N, "",
                            lambda text, b: f"{text}{sep}{b}" if text else str(b))
    fmt = P.ring.format
    sys.stdout.writelines(f"{n}, {word}, {fmt(v)}\n"
                          for n, (word, v) in enumerate(zip(words, series.payloads)))
    return 0


def cmd_build(args) -> int:
    A, report = _build_from_equation(_load_equation(args.file))
    print(report, file=sys.stderr)
    _emit(args.output, automaton_to_json(A), "\n")
    return 0


def cmd_eval(args) -> int:
    A = _load_wfa(args.automaton)
    kind = _parse_numeration(args.numeration)
    if args.word is not None:
        word = args.word.strip()
        if _word_sep(kind) and word.isascii() and word.isdecimal():  # one digit, as solve prints it
            try:
                word = (int(word),)
            except ValueError:  # int() reads at most 4,300 digits
                raise CliError(f"bad digit word {_quote(word)}") from None
        v = (weight if isinstance(kind, Base) else weight_z)(A, word)
    else:
        if args.n < 0:
            raise CliError(f"need n >= 0, got {args.n}")
        v = eval_sequence(A, kind, args.n)
    print(v)
    return 0


def cmd_verify(args) -> int:
    N = args.N
    if N < 0:
        raise CliError(f"need N >= 0, got {N}")
    _check_order(N)
    P = _load_equation(args.file)
    isolating = is_isolating(P)
    if not (isolating or args.automaton):
        raise CliError(
            "equation is not isolating, so there is no oracle to build from; "
            "pass --automaton to check its sequence against the equation")
    A = _load_wfa(args.automaton) if args.automaton else _build_from_equation(P)[0]
    if A.ring != P.ring:
        raise CliError(f"automaton ring {A.ring.spec} differs from equation ring {P.ring.spec}")
    fmt = P.ring.format
    if isolating:
        oracle = solve_series(P, N).payloads
        got = sequence_prefix(A, P.kind, N).payloads
        n = next((n for n in range(N + 1) if got[n] != oracle[n]), None)
        if n is not None:
            word = _word_sep(P.kind).join(map(str, canonical(n, P.kind)))
            print(f"FAIL at n = {n} (word {word}): oracle {fmt(oracle[n])}, "
                  f"automaton {fmt(got[n])}")
            return 1
        print(f"PASS: automaton matches the recurrence oracle for all n <= {N}")
        return 0
    res = residual(P, sequence_prefix(A, P.kind, N)).payloads
    n = next((n for n, v in enumerate(res) if v), None)
    if n is not None:
        print(f"FAIL at n = {n}: residual {fmt(res[n])}")
        return 1
    print(f"PASS: residual vanishes for all n <= {N}")
    return 0


def cmd_relation(args) -> int:
    _check_order(args.N)
    _check_order(4 * args.N if args.ncheck is None else args.ncheck,
                 "--ncheck (default 4N)")
    _check_order((args.dmax + 1) * (args.hmax + 1) * (args.N + 1),
                 "linear system size (dmax+1)(hmax+1)(N+1)")
    A = _load_wfa(args.automaton)
    kind = _parse_numeration(args.numeration)
    eq = find_relation(A, kind, args.dmax, args.hmax, args.N, args.ncheck)
    if eq is None:
        print(f"no relation found with d <= {args.dmax}, h <= {args.hmax}")
        return 1
    sys.stdout.write(format_equation(eq))
    return 0


def cmd_product(args) -> int:
    kind = _parse_numeration(args.numeration)
    if isinstance(kind, Base):
        _check_order(kind.q ** 3, "adder alphabet q^3")
    A = _load_wfa(args.automaton)
    B = _load_wfa(args.other)
    C = cauchy_product(A, B, addition_automaton(kind))
    _emit(args.output, automaton_to_json(C), "\n")
    return 0


def cmd_determinize(args) -> int:
    A = _load_wfa(args.automaton)
    D = determinize(A, args.direction)
    _emit(args.output, dfa_to_json(D), "\n")
    return 0


def cmd_defect(args) -> int:
    print(defect_automaton().run(args.input))
    return 0


def cmd_growth(args) -> int:
    _check_order(args.N)
    _check_order(args.kmax, "--kmax")
    rep = growth_analysis(args.N, args.kmax)
    print("f_0..f_5 = " + ", ".join(str(c) for c in rep.prefix))
    for k in sorted(rep.thresholds):
        n = rep.thresholds[k]
        if k == 0:
            print(f"k=0: first n with f_n >= 1: n = {n}")
        elif n is None:
            print(f"k={k}: f_n > n^{k} not reached for n <= {rep.n_max}")
        else:
            print(f"k={k}: first n with f_n > n^{k}: n = {n} "
                  f"(f_n = {rep.coefficients[n]})")
    return 0


def cmd_export(args) -> int:
    obj = _load_machine(args.automaton)
    to_json, to_dot = ((dfa_to_json, dfa_to_dot) if isinstance(obj, DfaWithOutput)
                       else (automaton_to_json, automaton_to_dot))
    parts = (to_json(obj), "\n") if args.format == "json" else (to_dot(obj),)
    _emit(args.output, *parts)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahler",
        description="Compile Mahler-type functional equations to weighted "
                    "automata over base-q or Zeckendorf numeration.")
    sub = parser.add_subparsers(dest="command", required=True)
    automaton = dict(required=True, help="automaton JSON path or builtin:<name>")
    numeration = dict(default="zeckendorf", help="zeckendorf (default) or base-<q>")

    p = sub.add_parser("solve", help="coefficient table of an isolating equation")
    p.add_argument("-f", "--file", required=True, help="equation file")
    p.add_argument("-N", type=_integer, default=100,
                   help=f"truncation order (default 100, at most {MAX_N})")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("build", help="compile an equation file to an automaton")
    p.add_argument("-f", "--file", required=True, help="equation file")
    p.add_argument("-o", "--output", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate an automaton")
    p.add_argument("-a", "--automaton", **automaton)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("-n", type=_integer, help="index, evaluated on its canonical expansion")
    grp.add_argument("--word", help="explicit digit word, e.g. '10100', '1,0,2' or '-1,0'")
    p.add_argument("--numeration", **numeration)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="check an automaton against the equation")
    p.add_argument("-f", "--file", required=True, help="equation file")
    p.add_argument("-N", type=_integer, default=500,
                   help=f"check n <= N (default 500, at most {MAX_N})")
    p.add_argument("--automaton", help="automaton JSON path or builtin:<name>; "
                                       "default: build from the equation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("relation", help="search for an annihilating equation")
    p.add_argument("-a", "--automaton", **automaton)
    p.add_argument("--dmax", type=_integer, required=True,
                   help=f"largest Phi power ((dmax+1)(hmax+1)(N+1) at most {MAX_N})")
    p.add_argument("--hmax", type=_integer, required=True,
                   help=f"largest coefficient degree ((dmax+1)(hmax+1)(N+1) at most {MAX_N})")
    p.add_argument("-N", type=_integer, default=500,
                   help=f"linear system rows (default 500, at most {MAX_N})")
    p.add_argument("--ncheck", type=_integer, default=None,
                   help=f"re-verification order (default 4N, at most {MAX_N})")
    p.add_argument("--numeration", **numeration)
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("product", help="Cauchy product of two automata")
    p.add_argument("-a", "--automaton", required=True, help="first factor")
    p.add_argument("-b", "--other", required=True, help="second factor")
    p.add_argument("--numeration", **numeration)
    p.add_argument("-o", "--output", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("determinize", help="finite-ring automaton to output DFA")
    p.add_argument("-a", "--automaton", **automaton)
    p.add_argument("--direction", choices=("direct", "reverse"), default="direct")
    p.add_argument("-o", "--output", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_determinize)

    p = sub.add_parser("defect", help="run the linearity-defect automaton")
    p.add_argument("--input", required=True,
                   help="digit word over {-1,0,1} with commas, e.g. '1,0,-1' or '0,1,-1'")
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("growth", help="non-regular example growth thresholds")
    p.add_argument("-N", type=_integer, default=10000,
                   help=f"compute f_0..f_N (default 10000, at most {MAX_N})")
    p.add_argument("--kmax", type=_integer, default=3,
                   help=f"largest exponent to test (default 3, at most {MAX_N})")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("export", help="write an automaton as DOT or JSON")
    p.add_argument("-a", "--automaton", **automaton)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes '-1,0' for an option
        opt = argv[i - 1]  # --word, --input or an abbreviation of either
        if len(opt) > 2 and argv[i][1:2].isdigit() and any(
                name.startswith(opt) for name in ("--word", "--input")):
            argv[i - 1:i + 1] = [f"{opt}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, EquationError, RingError, AutomatonError,
            NumerationError, MissingTransitionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        msg = str(e) if e.filename is None else (  # str(e) carries the whole name
            f"[Errno {e.errno}] {e.strerror}: {_quote(e.filename)}")
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
