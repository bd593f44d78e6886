"""Weighted automata for Mahler-type functional equations.

Compiles isolating Mahler equations over base-q or Zeckendorf
numeration into weighted finite automata, with an independent series
recurrence as the oracle, plus the reverse direction (relation search),
Cauchy products, determinization over finite rings, and the arithmetic
of the Zeckendorf shift (phi, lambda, the linearity defect and its
automaton).
"""

from .automata import (
    addition_automaton,
    addition_automaton_base,
    addition_automaton_zeckendorf,
    all_ones_automaton,
    constant_recognizer,
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
    GrowthReport,
    MahlerEquation,
    SeriesPrefix,
    ZSpaceInfo,
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
from .numeration import (
    ZECKENDORF,
    Base,
    DigitWord,
    NumerationError,
    Zeckendorf,
    canonical,
    delta,
    fib,
    floor_phi,
    floor_phi2,
    format_word,
    has_adjacent_ones,
    lam,
    parse_word,
    phi,
    phi_iter,
    phi_preimage,
    phi_via_floor,
    phi2_via_floor,
    value,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    MixedRingError,
    ModRing,
    PrimeField,
    RationalRing,
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
    forward_vector,
    same_structure,
    sequence_prefix,
    trim,
    weight,
)

__version__ = "0.1.0"
