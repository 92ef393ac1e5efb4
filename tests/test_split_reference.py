"""The former context split, kept as the reference for
``checker._Checker.split``, and the differential tests against it.

The reference works out the free variables and the absorption of every
premise before it places any name.  The checker's split reads the free
variables only of a non-empty context, and absorption only for a name
that neither side uses.  Both must give an equal split plan and equal
premise contexts, or an error of the same class and message, on every
judgment.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import supcalc as sc
from supcalc import checker as C
from supcalc import syntax as S
from supcalc.checker import LinearViolation, SplitPlan
from supcalc.gen import TermGenerator


# ---------------------------------------------------------------------------
# the reference: the former split


def reference_split(ctx, t):
    first, *rest = S._CHILDREN[type(t)]
    left = getattr(t, first)
    fv_left = S.free_vars(left)
    absorb_left = C.can_absorb(left)
    fv_right: set[str] = set()
    absorb_right = True
    for n in rest:
        r = getattr(t, n)
        fv_right |= S.free_vars(r).difference(S.bound_names(t, n))
        absorb_right = absorb_right and C.can_absorb(r)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for i, (x, _) in enumerate(ctx):
        in_l, in_r = x in fv_left, x in fv_right
        if in_l and in_r:
            raise LinearViolation(
                f"variable {x} is used by both sides of a context split "
                f"in {S.print_term(t)}")
        if in_l:
            left_idx.append(i)
        elif in_r:
            right_idx.append(i)
        elif absorb_left:
            left_idx.append(i)
        elif absorb_right:
            right_idx.append(i)
        else:
            raise LinearViolation(
                f"variable {x} is never used in {S.print_term(t)}")
    lctx = tuple(ctx[i] for i in left_idx)
    rctx = tuple(ctx[i] for i in right_idx)
    plan = SplitPlan(tuple(x for x, _ in lctx), tuple(x for x, _ in rctx),
                     tuple(left_idx + right_idx))
    return lctx, rctx, plan


# ---------------------------------------------------------------------------
# the checker's split against the reference


def _outcome(split, ctx, t):
    try:
        return split(ctx, t)
    except C.TypingError as exc:
        return (type(exc), str(exc))


@contextmanager
def _compared_splits():
    """Every split the checker makes compared with the reference's on the
    same judgment, the checker's first, so that it meets the nodes without
    the facts the reference leaves.  Yields the list of (context, outcome)
    pairs compared."""
    kernel = C._Checker.split
    seen = []

    def split(self, ctx, t):
        got = _outcome(lambda c, u: kernel(self, c, u), ctx, t)
        want = _outcome(reference_split, ctx, t)
        assert got == want, (ctx, S.print_term(t), got, want)
        seen.append((ctx, got))
        return kernel(self, ctx, t)

    C._Checker.split = split
    try:
        yield seen
    finally:
        C._Checker.split = kernel


def _fresh(t):
    """An equal term of new nodes, which know no fact."""
    return sc.parse_term(sc.print_term(t))


def _check(ctx, t, a):
    try:
        sc.typecheck(ctx, t, a)
    except (C.TypingError, sc.SemiringError):
        pass


def _variants(ctx, t, a):
    """A judgment as given, with its context reversed, and with an unused
    one or top variable first and last."""
    yield ctx, a
    yield tuple(reversed(ctx)), a
    for extra in (("z_", S.One()), ("z_", S.Top())):
        yield (extra,) + ctx, a
        yield ctx + (extra,), a


def _tally(seen):
    """The splits compared: of a non-empty context, and those that fail."""
    return (sum(1 for ctx, _ in seen if ctx),
            sum(1 for _, got in seen if not isinstance(got[-1], SplitPlan)))


def test_splits_of_the_corpus_judgments_match_the_reference(corpus_entries):
    with _compared_splits() as seen:
        for e in corpus_entries:
            for ctx, a in _variants(e.ctx, e.term, e.prop):
                _check(ctx, _fresh(e.term), a)
    nonempty, failed = _tally(seen)
    assert nonempty > 100 and failed > 10


def _derivation_nodes(d):
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.children)


def test_splits_of_generated_subterms_in_their_open_contexts_match():
    gen = TermGenerator(seed=41, allow_sup_elim=True, max_depth=4)
    judgments = []
    for _ in range(300):
        t, a = gen.closed()
        judgments += [(d.ctx, d.term, d.prop)
                      for d in _derivation_nodes(sc.typecheck((), t, a))]
    with _compared_splits() as seen:
        for ctx, t, a in judgments:
            for variant, b in _variants(ctx, t, a):
                _check(variant, _fresh(t), b)
    nonempty, failed = _tally(seen)
    assert nonempty > 1000 and failed > 100


_NAMES = ("x", "y", "z")
_PROPS = [sc.parse_prop(src) for src in
          ("one", "top", "zero", "one & one", "one (+) one", "one (o) one",
           "one -o one", "one (*) one")]


def _terms():
    leaves = st.one_of(st.sampled_from([S.Var(x) for x in _NAMES]),
                       st.just(S.Star(F(1))), st.just(S.Unit()))

    def extend(sub):
        names = st.sampled_from(_NAMES)
        return st.one_of(
            st.builds(S.UnitElim, sub, sub), st.builds(S.App, sub, sub),
            st.builds(S.Tens, sub, sub),
            st.builds(S.TensElim, sub, names, names, sub),
            st.builds(S.ZeroElim, sub, st.just(S.One())),
            st.builds(S.Case, sub, names, sub, names, sub),
            st.builds(S.SupElim, st.just(F(1, 2)), st.just(F(1, 2)), sub,
                      names, sub, names, sub),
            st.builds(S.Pair, sub, sub), st.builds(S.Lam, names, sub),
            st.builds(S.Inl, sub))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def _judgments(draw):
    names = draw(st.permutations(_NAMES))[:draw(st.integers(0, 3))]
    ctx = tuple((x, draw(st.sampled_from(_PROPS))) for x in names)
    return ctx, draw(_terms()), draw(st.sampled_from([None, *_PROPS]))


@settings(max_examples=300, deadline=None)
@given(_judgments())
def test_splits_of_hypothesis_judgments_match_the_reference(judgment):
    ctx, t, a = judgment
    with _compared_splits():
        _check(ctx, t, a)
    if type(t) in C._SPLITS:
        # the root's split, whether or not the check reaches it
        got = _outcome(C._Checker(sc.QNN).split, ctx, _fresh(t))
        assert got == _outcome(reference_split, ctx, t)


def test_a_closed_item_leaves_no_fact_on_its_argument():
    # a closed application splits the empty context, and so does every
    # split in its closed argument: none asks for free variables or
    # absorption there; the function's body splits the name it binds
    a = sc.parse_prop("one & one & one")
    m = [[F(3 * i + j, 1 + j) for j in range(3)] for i in range(3)]
    v = sc.SVector((F(1), F(2), F(3)), a)
    t = sc.parse_term(sc.print_term(
        S.App(sc.encode_matrix(m, a, a), sc.from_vector(v))))
    sc.typecheck((), t, a)
    for u in S.nodes(t.arg):
        assert u._fv is None and u._absorbs is None, sc.print_term(u)
    assert any(u._fv is not None for u in S.nodes(t.fn))


def test_absorption_is_asked_only_for_a_name_neither_side_uses(monkeypatch):
    asked = []
    real = C.can_absorb

    def counting(t):
        asked.append(sc.print_term(t))
        return real(t)

    monkeypatch.setattr(C, "can_absorb", counting)
    ctx = sc.parse_context("x:one, y:one")
    sc.typecheck(ctx, sc.parse_term("tens(x,unit_elim(y,star(1)))"))
    assert asked == []
    # z is used by neither side: the left premise is asked, and absorbs
    sc.typecheck(ctx + (("z", S.Top()),),
                 sc.parse_term("tens(tens(x,unit),unit_elim(y,star(1)))"))
    assert asked[0] == "tens(x,unit)"
