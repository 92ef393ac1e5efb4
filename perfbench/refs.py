"""Independent references for the benchmark's verdicts.

Everything here is plain Python over ``fractions.Fraction``; nothing calls
supcalc, so a defect in supcalc cannot also creep into the expected
answer.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb


def chain_leaves(n: int, p: Fraction, q: Fraction, a: Fraction,
                 b: Fraction) -> Counter:
    """Leaves of n identical chained forks, by the binomial closed form:
    taking the left branch k times yields value a**k * b**(n-k) with
    weight p**k * q**(n-k), on C(n, k) of the 2**n paths."""
    return Counter({(p ** k * q ** (n - k), a ** k * b ** (n - k)): comb(n, k)
                    for k in range(n + 1)})


def tree_leaves(forks: list[tuple[Fraction, Fraction, Fraction, Fraction]]
                ) -> Counter:
    """Leaves of independent forks (p, q, a, b) combined by products,
    enumerated over all 2**n branch choices."""
    leaves = [(Fraction(1), Fraction(1))]
    for p, q, a, b in forks:
        leaves = [(w * p, v * a) for w, v in leaves] + [(w * q, v * b)
                                                        for w, v in leaves]
    return Counter(leaves)


def aggregate(leaves: Counter) -> dict[Fraction, Fraction]:
    """Total weight per distinct value."""
    out: dict[Fraction, Fraction] = {}
    for (weight, value), count in leaves.items():
        out[value] = out.get(value, Fraction(0)) + weight * count
    return out


def matvec(m: list[list[Fraction]], u: list[Fraction]) -> list[Fraction]:
    return [sum((mij * uj for mij, uj in zip(row, u)), Fraction(0))
            for row in m]


def progression_sum(n: int, first: Fraction, step: Fraction) -> Fraction:
    """first + (first + step) + ... over n terms, in closed form."""
    return n * first + step * n * (n - 1) / 2


def scaled_identity(s: Fraction, n: int) -> list[Fraction]:
    """Row-major entries of s times the n x n identity."""
    return [s if i == j else Fraction(0) for i in range(n) for j in range(n)]


def prop_dim(a) -> int:
    """Dimension of a proposition's interpretation, from its constructor
    names: one is 1, top and zero are 0, (*) and -o multiply, & (+) (o)
    add."""
    kind = type(a).__name__
    if kind == "One":
        return 1
    if kind in ("Top", "Zero"):
        return 0
    left, right = prop_dim(a.left), prop_dim(a.right)
    if kind in ("Tensor", "Lollipop"):
        return left * right
    if kind in ("With", "Plus", "Sup"):
        return left + right
    raise TypeError(f"not a proposition: {a!r}")
