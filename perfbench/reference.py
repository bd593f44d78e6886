"""Independent reference values for the benchmark's output checks.

Nothing here imports mahler: plain integers, greedy expansions and the
exact golden-ratio floor formula, so a check never compares the program
against its own output.
"""

from math import isqrt


def fibs_upto(limit):
    """Fibonacci numbers 1, 2, 3, 5, ... not exceeding limit."""
    out = []
    a, b = 1, 2
    while a <= limit:
        out.append(a)
        a, b = b, a + b
    return out


def zeck_digits(n):
    """Greedy Zeckendorf digits of n, most significant first; [0] for 0."""
    if n == 0:
        return [0]
    digits = []
    for f in reversed(fibs_upto(n)):
        bit = int(f <= n)
        digits.append(bit)
        n -= f * bit
    return digits


def base_digits(n, q):
    """Base-q digits of n, most significant first; [0] for 0."""
    out = []
    while n:
        n, r = divmod(n, q)
        out.append(r)
    return out[::-1] or [0]


def zeck_value(digits):
    """Value of a 0/1 digit word (any word, not only canonical) in Zeckendorf."""
    fibs = [1, 2]
    while len(fibs) < len(digits):
        fibs.append(fibs[-1] + fibs[-2])
    return sum(d * f for d, f in zip(reversed(digits), fibs))


def subset_counts(N):
    """counts[n] = subsets of distinct Fibonacci numbers summing to n."""
    counts = [1] + [0] * N
    for f in fibs_upto(N):
        for n in range(N, f - 1, -1):
            counts[n] += counts[n - f]
    return counts


def zeck_ones(N):
    """Number of 1 digits in the Zeckendorf expansion of n, for n <= N."""
    return [sum(zeck_digits(n)) for n in range(N + 1)]


def convolve(a, b, N):
    """c_n = sum_k a_k b_{n-k} for n <= N."""
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(N + 1)]


def phi_shift(n):
    """Zeckendorf shift phi(n) = floor(phi (n + 1)) - 1, exactly."""
    k = n + 1
    return (k + isqrt(5 * k * k)) // 2 - 1


def growth_lines(N, kmax):
    """Expected stdout of `mahler growth -N N --kmax kmax`.

    f_n = f_{n-1} + f_{lam(n)} when the expansion of n ends in 0, else
    f_{n-1}; lam drops the last Zeckendorf digit.
    """
    f = [1]
    for n in range(1, N + 1):
        w = zeck_digits(n)
        f.append(f[-1] + (f[zeck_value(w[:-1])] if w[-1] == 0 else 0))
    lines = ["f_0..f_5 = " + ", ".join(str(c) for c in f[:6])]
    for k in range(kmax + 1):
        if k == 0:
            n = next((i for i in range(N + 1) if f[i] >= 1), None)
            lines.append(f"k=0: first n with f_n >= 1: n = {n}")
            continue
        n = next((i for i in range(1, N + 1) if f[i] > i ** k), None)
        if n is None:
            lines.append(f"k={k}: f_n > n^{k} not reached for n <= {N}")
        else:
            lines.append(f"k={k}: first n with f_n > n^{k}: n = {n} (f_n = {f[n]})")
    return lines


def hyperbinary(N):
    """Hyperbinary representation counts b(n) = s(n + 1), s Stern's sequence."""
    s = [0, 1]
    while len(s) < N + 2:
        n = len(s)
        s.append(s[n // 2] if n % 2 == 0 else s[n // 2] + s[n // 2 + 1])
    return s[1:N + 2]


def popcounts(N):
    return [bin(n).count("1") for n in range(N + 1)]
