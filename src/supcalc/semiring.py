"""Scalar algebras the calculus is parameterized over.

Four instances ship: exact non-negative rationals (``qnn``, the default),
exact signed rationals (``q``), the two-point or/and algebra (``bool``),
and machine floats with tolerant equality (``f64``).  Scalar literals in
source text are always rationals; each instance decides which literals it
accepts via :meth:`Semiring.from_literal`.

The two rational instances multiply, add and compare through :func:`mul`,
:func:`add` and :func:`eq`, not through ``Fraction``'s operators.  Every
run distribution leaf costs a few products (fork weights, ``scal_star``
contractions), and the operator spends most of each one on dispatch
(``Fraction.__mul__`` is a generic forward to ``_mul``) and on
``Fraction.__new__``.  When both operands are exactly ``Fraction``, the
kernel runs the standard library's own gcd-reduced algorithm on the two
slots and fills a new instance's slots directly, so its result is the
operator's: the same normalised numerator and denominator, of type
``Fraction``; the comparison compares the two slots, which the operator
does after a type dispatch.  Any other operand (an ``int`` entry of
``encode_matrix``, a ``Fraction`` subclass) goes through the operator
unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Sequence

Scalar = Any  # carrier value of some Semiring instance


class SemiringError(Exception):
    pass


class WeightError(SemiringError):
    """A scalar pair used as branch weights does not sum to one."""


class LiteralError(SemiringError):
    """A scalar literal has no image in the chosen carrier."""


@dataclass(frozen=True)
class Semiring:
    """A commutative-addition semiring with a decidable equality.

    ``test_pool`` is the scalar pool randomized law checks draw from,
    ``weight_pool`` the valid branch-weight pairs, and ``non_weight_pair``
    one pair that deliberately fails the p+q=1 side condition.
    ``is_zero(a)`` decides ``eq(a, zero)``; the matrix model skips the
    entries it accepts.

    ``exact`` is a fact about the carrier, not an option: its products do
    not depend on how they are associated, and ``one`` is their identity,
    value and type alike.  It holds for qnn, q and bool.  A run
    distribution then folds the fork weights of a shared segment into one
    product; otherwise (f64, and by default a semiring built elsewhere)
    it multiplies them one at a time along each path from the root.
    """

    name: str
    zero: Scalar
    one: Scalar
    add: Callable[[Scalar, Scalar], Scalar]
    mul: Callable[[Scalar, Scalar], Scalar]
    eq: Callable[[Scalar, Scalar], bool]
    is_zero: Callable[[Scalar], bool]
    from_literal: Callable[[Fraction], Scalar]
    test_pool: tuple
    weight_pool: tuple
    non_weight_pair: tuple
    exact: bool = False

    def sum(self, values: Sequence[Scalar]) -> Scalar:
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


@dataclass(frozen=True)
class WeightPair:
    """A validated pair of branch weights with p + q = 1."""

    p: Scalar
    q: Scalar


def make_weight_pair(p: Scalar, q: Scalar, semiring: Semiring) -> WeightPair:
    if not semiring.eq(semiring.add(p, q), semiring.one):
        raise WeightError(
            f"weights {format_scalar(p)} and {format_scalar(q)} do not sum to 1 "
            f"in semiring {semiring.name}"
        )
    return WeightPair(p, q)


def format_scalar(v: Scalar) -> str:
    """Render a carrier value as a source-text literal.

    Floats are rendered as the exact rational they denote, so printing
    always round-trips through the literal grammar.
    """
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return str(Fraction(v))
    raise TypeError(f"not a scalar: {v!r}")


def _qnn_literal(f: Fraction) -> Fraction:
    if f.numerator < 0:  # a Fraction's denominator is positive
        raise LiteralError(f"semiring qnn has no negative scalar {f}")
    return f


def _bool_literal(f: Fraction) -> bool:
    if f == 0:
        return False
    if f == 1:
        return True
    raise LiteralError(f"semiring bool has no scalar {f}")


_F = Fraction
_new = object.__new__


def mul(a: Scalar, b: Scalar) -> Scalar:
    """a * b: Fraction's own product, without its operator dispatch and
    constructor when both operands are Fractions; the operator otherwise."""
    if type(a) is not _F or type(b) is not _F:
        return a * b
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    r = _new(_F)
    r._numerator = na * nb
    r._denominator = da * db
    return r


def add(a: Scalar, b: Scalar) -> Scalar:
    """a + b: Fraction's own sum, without its operator dispatch and
    constructor when both operands are Fractions; the operator otherwise."""
    if type(a) is not _F or type(b) is not _F:
        return a + b
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    r = _new(_F)
    g = gcd(da, db)
    if g == 1:
        r._numerator = na * db + da * nb
        r._denominator = da * db
        return r
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        r._numerator = t
        r._denominator = s * db
    else:
        r._numerator = t // g2
        r._denominator = s * (db // g2)
    return r


def eq(a: Scalar, b: Scalar) -> bool:
    """a == b: two Fractions, each normalised, are equal exactly when their
    numerators and their denominators are; any other operand goes through
    the operator."""
    if type(a) is not _F or type(b) is not _F:
        return a == b
    return (a._numerator == b._numerator
            and a._denominator == b._denominator)


QNN = Semiring(
    name="qnn",
    zero=_F(0),
    one=_F(1),
    add=add,
    mul=mul,
    eq=eq,
    is_zero=operator.not_,
    from_literal=_qnn_literal,
    test_pool=(_F(0), _F(1), _F(1, 2), _F(1, 4), _F(3, 4), _F(2), _F(3)),
    weight_pool=(
        (_F(1, 2), _F(1, 2)),
        (_F(1, 4), _F(3, 4)),
        (_F(3, 4), _F(1, 4)),
        (_F(1), _F(0)),
        (_F(0), _F(1)),
    ),
    non_weight_pair=(_F(1, 2), _F(1, 4)),
    exact=True,
)

Q = Semiring(
    name="q",
    zero=_F(0),
    one=_F(1),
    add=add,
    mul=mul,
    eq=eq,
    is_zero=operator.not_,
    from_literal=lambda f: f,
    test_pool=(_F(0), _F(1), _F(-1), _F(1, 2), _F(-1, 2), _F(3, 4), _F(2), _F(3)),
    weight_pool=(
        (_F(1, 2), _F(1, 2)),
        (_F(1, 4), _F(3, 4)),
        (_F(2), _F(-1)),
        (_F(1), _F(0)),
    ),
    non_weight_pair=(_F(1, 2), _F(1, 4)),
    exact=True,
)

BOOL = Semiring(
    name="bool",
    zero=False,
    one=True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    eq=lambda a, b: a == b,
    is_zero=operator.not_,
    from_literal=_bool_literal,
    test_pool=(False, True),
    weight_pool=((True, False), (False, True), (True, True)),
    non_weight_pair=(False, False),
    exact=True,
)

_F64_TOL = 1e-9

F64 = Semiring(
    name="f64",
    zero=0.0,
    one=1.0,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    eq=lambda a, b: abs(a - b) <= _F64_TOL,
    is_zero=lambda a: abs(a) <= _F64_TOL,
    from_literal=lambda f: float(f),
    test_pool=(0.0, 1.0, 0.5, 0.25, 0.75, 2.0, 3.0),
    weight_pool=((0.5, 0.5), (0.25, 0.75), (1.0, 0.0)),
    non_weight_pair=(0.5, 0.25),
)

SEMIRINGS = {sr.name: sr for sr in (QNN, Q, BOOL, F64)}


def get_semiring(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise SemiringError(
            f"unknown semiring {name!r}; choose from {sorted(SEMIRINGS)}"
        ) from None


def embed(s: Scalar, semiring: Semiring = QNN):
    """The canonical left-multiplication embedding of a scalar as a 1x1 matrix."""
    from .matmodel import scalar_map

    return scalar_map(s, 1, semiring)
