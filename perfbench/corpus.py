"""Seeded generator of random isolating Mahler equations.

Writes equation files as text without importing mahler, so the library
receives only the generated inputs.  The draw is stratified: every ring
family meets every numeration and every (d, h) shape once, so two seeds
differ in coefficients, moduli and order but not in how much of each
kind of work they ask for.
"""

import random
from fractions import Fraction

RING_FAMILIES = ("Z", "Q", "Zmod", "Fp")
NUMERATIONS = ("base 2", "base 3", "zeckendorf")
SHAPES = ((1, 5), (2, 3), (3, 1))   # each d in 1..3 and each h in {1, 3, 5} once
TINY_SHAPES = ((1, 1),)
COMPOSITE_MODULI = (6, 10, 12, 15)
PRIMES = (5, 7, 11, 13)


def _draw(rng, spec):
    """A nonzero coefficient for the ring."""
    if spec == "Z":
        return Fraction(rng.choice((-2, -1, 1, 2)))
    if spec == "Q":
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return Fraction(rng.randrange(1, int(spec.split(":")[1])))


def _format(x, spec):
    """Coefficient text in the ring's literal syntax; '' when it is zero."""
    if ":" in spec:
        x = x.numerator % int(spec.split(":")[1])
        return str(x) if x else ""
    if x == 0:
        return ""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def equation_text(rng, spec, numeration, d, h):
    """An isolating equation with every alpha[i, j] (1 <= i <= d, j <= h)
    nonzero and a nonzero f0.

    The full support fixes the shape of the compiled machine, so the seed
    changes the weights but not the amount of work.  alpha[1, 0] is solved
    for so that the constant terms of A_1..A_d sum to one, which makes any
    f0 compatible; the other constant terms are redrawn until it is nonzero.
    """
    while True:
        alpha = {(i, j): _draw(rng, spec)
                 for i in range(1, d + 1) for j in range(h + 1) if (i, j) != (1, 0)}
        alpha[(1, 0)] = 1 - sum(v for (i, j), v in alpha.items() if j == 0)
        if _format(alpha[(1, 0)], spec):
            break
    lines = [f"ring {spec}", f"numeration {numeration}", f"d {d}", f"h {h}",
             f"f0 {_format(_draw(rng, spec), spec)}", "alpha 0 0 1"]
    lines += [f"alpha {i} {j} {_format(v, spec)}" for (i, j), v in sorted(alpha.items())]
    return "\n".join(lines) + "\n"


def generate(seed, shapes=SHAPES):
    """[(ring family, equation text)], one per family x numeration x shape."""
    rng = random.Random(seed)
    out = []
    for family in RING_FAMILIES:
        spec = {"Zmod": f"Zmod:{rng.choice(COMPOSITE_MODULI)}",
                "Fp": f"Fp:{rng.choice(PRIMES)}"}.get(family, family)
        for numeration in NUMERATIONS:
            for d, h in shapes:
                out.append((family, equation_text(rng, spec, numeration, d, h)))
    rng.shuffle(out)
    return out
