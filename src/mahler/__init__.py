"""Weighted automata for Mahler-type functional equations.

Compiles isolating Mahler equations over base-q or Zeckendorf
numeration into weighted finite automata, with an independent series
recurrence as the oracle, plus the reverse direction (relation search),
Cauchy products, determinization over finite rings, and the Zeckendorf
shift phi with the automata of its linearity defect.
"""

from .automata import (
    addition_automaton,
    all_ones_automaton,
    count_ones_automaton,
    defect_automaton,
    defect_automaton_constructed,
    fibonacci_representation_automaton,
    polynomial_automaton,
    shift_regular,
)
from .equations import (
    EquationError,
    EquationFileError,
    MahlerEquation,
    SeriesPrefix,
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
from .numeration import (
    ZECKENDORF,
    Base,
    NumerationError,
    Zeckendorf,
    canonical,
    fib,
    floor_phi,
    format_word,
    has_adjacent_ones,
    parse_word,
    phi,
    phi_iter,
    phi_preimage,
    value,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    MixedRingError,
    ModRing,
    PrimeField,
    Ring,
    RingError,
    RingValue,
    parse_ring,
)
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
    UnambiguousAutomaton,
    WeightedAutomaton,
    cauchy_product,
    determinize,
    eval_sequence,
    same_structure,
    sequence_prefix,
    trim,
    weight,
)

__version__ = "0.1.0"
