"""Closed proofs of one/& propositions as vectors, and linear maps as terms.

On the semimodule fragment (propositions built from ``one`` and ``&``) the
closed irreducible proofs are exactly S^n vectors: a star is a 1-vector and
a pair concatenates the blocks of its components.  A matrix becomes a
function term by recursion on the domain proposition, and conversely the
matrix of any closed function term is read off column by column on basis
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rewrite
from . import syntax as S
from .denote import denote_prop
from .semiring import QNN, Semiring
from .syntax import Prop, Term


class NotInV(Exception):
    """The proposition is outside the semimodule fragment."""


class LengthMismatch(Exception):
    pass


def is_vprop(a: Prop) -> bool:
    if isinstance(a, S.One):
        return True
    if isinstance(a, S.With):
        return is_vprop(a.left) and is_vprop(a.right)
    return False


def dim_v(a: Prop) -> int:
    """The number of one-leaves of a semimodule proposition, which is its
    dimension."""
    if not is_vprop(a):
        raise NotInV(f"{S.print_prop(a)} is not built from one and &")
    return denote_prop(a)


@dataclass(frozen=True)
class SVector:
    entries: tuple
    prop: Prop

    def __post_init__(self):
        if len(self.entries) != dim_v(self.prop):
            raise LengthMismatch(
                f"{len(self.entries)} entries for {S.print_prop(self.prop)} "
                f"of dimension {dim_v(self.prop)}")


def to_vector(t: Term, a: Prop, semiring: Semiring = QNN) -> SVector:
    """The vector of a closed proof of a; reducible proofs are normalized
    first."""
    if not is_vprop(a):
        raise NotInV(f"{S.print_prop(a)} is not built from one and &")
    t = rewrite.normalize(t, semiring)
    return SVector(tuple(_read(t, a)), a)


def _read(t: Term, a: Prop) -> list:
    if isinstance(a, S.One):
        if not isinstance(t, S.Star):
            raise NotInV(f"irreducible proof of one is not a star: {S.print_term(t)}")
        return [t.scalar]
    assert isinstance(a, S.With)
    if not isinstance(t, S.Pair):
        raise NotInV(f"irreducible proof of a &-type is not a pair: {S.print_term(t)}")
    return _read(t.left, a.left) + _read(t.right, a.right)


def from_vector(u: SVector) -> Term:
    """The closed irreducible proof a vector denotes."""
    return _build(list(u.entries), u.prop)


def _build(entries: list, a: Prop) -> Term:
    if isinstance(a, S.One):
        return S.Star(entries[0])
    assert isinstance(a, S.With)
    n1 = dim_v(a.left)
    return S.Pair(_build(entries[:n1], a.left), _build(entries[n1:], a.right))


def encode_matrix(m, a: Prop, b: Prop) -> Term:
    """A closed term of type a -o b applying the matrix m (rows indexed by
    b, columns by a).

    Recursion on a: over ``one`` the function scales its column by the
    incoming star, and over a &-split it sums the two sub-encodings applied
    to the projections.
    """
    rows = [list(r) for r in m]
    if not is_vprop(a) or not is_vprop(b):
        raise NotInV("matrix encodings need one/& propositions on both sides")
    dom, cod = dim_v(a), dim_v(b)
    if len(rows) != cod or any(len(r) != dom for r in rows):
        raise LengthMismatch(
            f"matrix must be {cod}x{dom} for "
            f"{S.print_prop(a)} -o {S.print_prop(b)}")
    return _encode(rows, a, b)


def _encode(rows, a: Prop, b: Prop) -> Term:
    x = "x"
    if isinstance(a, S.One):
        column = SVector(tuple(r[0] for r in rows), b)
        return S.Lam(x, S.UnitElim(S.Var(x), from_vector(column)), a)
    n1 = dim_v(a.left)
    t1 = _encode([r[:n1] for r in rows], a.left, b)
    t2 = _encode([r[n1:] for r in rows], a.right, b)
    return S.Lam(x, S.Sum(S.App(t1, S.Fst(S.Var(x))),
                          S.App(t2, S.Snd(S.Var(x)))), a)


def extract_linear_map(t: Term, a: Prop, b: Prop,
                       semiring: Semiring = QNN) -> list[list]:
    """The matrix of a closed term of type a -o b, read off on basis
    vectors; by linearity it represents the term on every input."""
    sr = semiring
    n, m = dim_v(a), dim_v(b)
    cols = []
    for j in range(n):
        basis = SVector(tuple(sr.one if i == j else sr.zero for i in range(n)), a)
        result = to_vector(S.App(t, from_vector(basis)), b, sr)
        cols.append(result.entries)
    return [[cols[j][i] for j in range(n)] for i in range(m)]


def matvec(m, vec, semiring: Semiring = QNN) -> list:
    """Plain matrix-vector product used as the independent oracle."""
    sr = semiring
    return [sr.sum([sr.mul(mij, vj) for mij, vj in zip(row, vec)]) for row in m]
