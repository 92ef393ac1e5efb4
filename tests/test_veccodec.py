"""Vector correspondence and matrix encodings."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import supcalc as sc
from supcalc import matmodel as M
from supcalc import syntax as S
from supcalc import veccodec as V

SR = sc.QNN


def prop(src):
    return sc.parse_prop(src)


def vec(entries, a):
    return V.SVector(tuple(F(e) for e in entries), prop(a))


# ---------------------------------------------------------------------------
# dimensions


def test_dim_v():
    assert sc.dim_v(S.One()) == 1
    assert sc.dim_v(prop("one & (one & one)")) == 3
    assert sc.dim_v(prop("(one & one) & (one & one)")) == 4


def test_dim_v_rejects_non_v_props():
    with pytest.raises(V.NotInV):
        sc.dim_v(prop("one (+) one"))
    assert not V.is_vprop(prop("one -o one"))
    assert not V.is_vprop(S.Top())


# ---------------------------------------------------------------------------
# the correspondence


def test_to_vector_flattens_blocks():
    t = sc.parse_term("pair(star(1),pair(star(2),star(3)))")
    assert sc.to_vector(t, prop("one & (one & one)")).entries == (F(1), F(2), F(3))


def test_to_vector_zero():
    assert sc.to_vector(S.Star(F(0)), S.One()).entries == (F(0),)


def test_to_vector_normalizes_first():
    t = sc.parse_term("sum(star(1),star(2))")
    assert sc.to_vector(t, S.One()).entries == (F(3),)


def test_from_vector_base():
    assert sc.from_vector(vec([5], "one")) == S.Star(F(5))


def test_from_vector_blocks():
    assert sc.from_vector(vec([1, 2], "one & one")) == \
        S.Pair(S.Star(F(1)), S.Star(F(2)))


def test_vector_length_checked():
    with pytest.raises(V.LengthMismatch):
        V.SVector((F(1),), prop("one & one"))


def test_roundtrip_random_vectors():
    rng = random.Random(8)
    shapes = ["one", "one & one", "one & (one & one)",
              "(one & one) & (one & one)"]
    for _ in range(100):
        a = prop(rng.choice(shapes))
        entries = tuple(F(rng.randrange(10)) for _ in range(sc.dim_v(a)))
        u = V.SVector(entries, a)
        t = sc.from_vector(u)
        assert sc.to_vector(t, a).entries == entries
        assert sc.from_vector(sc.to_vector(t, a)) == t


def test_sum_and_scalar_are_homomorphic():
    rng = random.Random(9)
    a = prop("(one & one) & one")
    for _ in range(50):
        xs = tuple(F(rng.randrange(10)) for _ in range(3))
        ys = tuple(F(rng.randrange(10)) for _ in range(3))
        s = F(rng.randrange(10))
        t, u = sc.from_vector(V.SVector(xs, a)), sc.from_vector(V.SVector(ys, a))
        assert sc.to_vector(S.Sum(t, u), a).entries == \
            tuple(x + y for x, y in zip(xs, ys))
        assert sc.to_vector(S.Scal(s, t), a).entries == \
            tuple(s * x for x in xs)


# ---------------------------------------------------------------------------
# matrix encodings


def test_encode_identity_1x1():
    t = sc.encode_matrix([[F(1)]], S.One(), S.One())
    assert isinstance(t, S.Lam)
    assert t.body == S.UnitElim(S.Var(t.var), S.Star(F(1)))
    got = sc.to_vector(S.App(t, S.Star(F(7))), S.One())
    assert got.entries == (F(7),)


def test_encode_matrix_2x2_example():
    a = prop("one & one")
    m = [[F(1), F(2)], [F(3), F(4)]]
    t = sc.encode_matrix(m, a, a)
    u = vec([5, 6], "one & one")
    got = sc.to_vector(S.App(t, sc.from_vector(u)), a)
    assert got.entries == (F(17), F(39))
    assert list(got.entries) == sc.matvec(m, [F(5), F(6)])


def test_encode_zero_matrix():
    a = prop("one & one")
    m = [[F(0), F(0)], [F(0), F(0)]]
    t = sc.encode_matrix(m, a, a)
    for entries in [(1, 2), (5, 0)]:
        got = sc.to_vector(S.App(t, sc.from_vector(vec(entries, "one & one"))), a)
        assert got.entries == (F(0), F(0))


def test_encode_shape_checked():
    with pytest.raises(V.LengthMismatch):
        sc.encode_matrix([[F(1)]], prop("one & one"), S.One())


def test_extract_of_encode_is_identity():
    rng = random.Random(10)
    shapes = {1: "one", 2: "one & one", 3: "(one & one) & one"}
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = [[F(rng.randrange(10)) for _ in range(cols)] for _ in range(rows)]
        a, b = prop(shapes[cols]), prop(shapes[rows])
        assert sc.extract_linear_map(sc.encode_matrix(m, a, b), a, b) == m


def test_extract_identity_function():
    a = prop("one & one")
    got = sc.extract_linear_map(sc.parse_term("lam(x,x)"), a, a)
    assert got == [[F(1), F(0)], [F(0), F(1)]]


def test_extract_agrees_with_denotation_via_uncurry():
    rng = random.Random(11)
    a, b = prop("one & one"), prop("(one & one) & one")
    for _ in range(10):
        m = [[F(rng.randrange(10)) for _ in range(2)] for _ in range(3)]
        t = sc.encode_matrix(m, a, b)
        interp = sc.denote_closed(t, S.Lollipop(a, b))
        # interp : I -> hom(A,B); transpose back to a map I (x) A -> B
        da, db = sc.denote_prop(a), sc.denote_prop(b)
        as_map = M.eval_after(da, db, interp, M.identity(da, SR))
        assert as_map.equal(M.mat_from_rows(
            sc.extract_linear_map(t, a, b), SR))
