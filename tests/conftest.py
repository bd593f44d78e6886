"""Shared helpers: shipped-equation loading and randomized instances."""

import importlib.resources

from hypothesis import HealthCheck, settings

from mahler.equations import MahlerEquation
from mahler.rings import INTEGERS
from mahler.wfa import WeightedAutomaton

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


SHIPPED = (
    "fib_repr.eq",
    "hyperbinary.eq",
    "thue_morse_base2.eq",
    "thue_morse_zeck.eq",
    "growth.eq",
    "dumas_fib.eq",
    "dumas_twolayer.eq",
)


def equation_text(name: str) -> str:
    return (importlib.resources.files("mahler") / "data" / name).read_text(
        encoding="utf-8")


def make_random_equation(rng, ring, kind, d_max, h_max, zero_f0=False):
    """Random isolating equation with a compatible f0.

    Either f0 = 0 (any coefficients are compatible) or f0 = 1 with the
    column-0 coefficients forced to sum to one.  The top layer gets at
    least one entry so the exponent is what was drawn.
    """
    d = rng.randint(1, d_max)
    h = rng.randint(0, h_max)
    alpha = {(0, 0): 1}
    for i in range(1, d + 1):
        for j in range(h + 1):
            if rng.random() < 0.45:
                alpha[(i, j)] = _coeff(rng, ring)
    if not any(i == d for (i, _) in alpha if i > 0):
        alpha[(d, rng.randint(0, h))] = _coeff(rng, ring)
    if zero_f0:
        f0 = 0
    else:
        f0 = 1
        rest = ring.zero
        for i in range(2, d + 1):
            if (i, 0) in alpha:
                rest = rest + ring.element(alpha[(i, 0)])
        alpha[(1, 0)] = ring.one - rest
    return MahlerEquation(ring=ring, kind=kind, alpha=alpha, f0=f0)


def _coeff(rng, ring):
    if ring.cardinality is None:
        return rng.choice((-2, -1, 1, 2))
    return rng.randrange(1, min(ring.cardinality, 5))


def ints(values):
    """RingValue sequence over Z -> plain ints (for readable asserts)."""
    return [v.payload if hasattr(v, "payload") else int(v) for v in values]


def zero_digit_counter():
    """Base 2, over Z: the number of zero digits in the word (f = 1, 0,
    1, 0, 2, 1, ...).  I mu(0) = I + (the state that has read a zero), so
    padding a word with zeros changes its weight: the factor a Cauchy
    product must refuse."""
    return WeightedAutomaton(
        ring=INTEGERS, alphabet=(0, 1), states=("s", "t"), initial=(1, 0), final=(0, 1),
        transitions={(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1})
