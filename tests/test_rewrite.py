"""Reduction, distributions, and observational comparison."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import operator
import random
import re
import time
from fractions import Fraction as F

import pytest

import supcalc as sc
from supcalc import checker as TC
from supcalc import rewrite as R
from supcalc import syntax as S
from supcalc.gen import TermGenerator, canonical_inhabitant

SR = sc.QNN


def term(src):
    return sc.parse_term(src)


# ---------------------------------------------------------------------------
# step_all


def test_step_unit_elim():
    (step, reduct), = sc.step_all(term("unit_elim(star(2),star(5))"))
    assert step.rule == "unit_elim" and step.weight == F(1)
    assert sc.print_term(reduct) == "scal(2,star(5))"


def test_step_sum_of_stars():
    (step, reduct), = sc.step_all(term("sum(star(1),star(2))"))
    assert step.rule == "sum_star"
    assert reduct == S.Star(F(3))


def test_step_sup_elim_forks():
    steps = sc.step_all(term("sup_elim{1/2,1/2}(sup(star(1),star(2)),x.x,y.y)"))
    assert [(s.rule, s.weight) for s, _ in steps] == [
        ("sup_elim_left", F(1, 2)), ("sup_elim_right", F(1, 2))]
    assert [sc.print_term(r) for _, r in steps] == ["star(1)", "star(2)"]


def test_step_all_finds_nested_redexes():
    t = term("pair(unit_elim(star(1),star(2)),sum(star(1),star(1)))")
    rules = sorted(s.rule for s, _ in sc.step_all(t))
    assert rules == ["sum_star", "unit_elim"]


def test_rule_inventory():
    assert sc.BETA_RULES == (
        "unit_elim", "tens_elim", "apply", "fst", "snd", "case_inl",
        "case_inr", "supfst", "supsnd", "sup_elim_left", "sup_elim_right")
    assert sc.COMMUTATION_RULES == (
        "sum_star", "sum_tens_elim", "sum_lam", "sum_unit", "sum_pair",
        "sum_case", "sum_sup",
        "scal_star", "scal_tens_elim", "scal_lam", "scal_unit", "scal_pair",
        "scal_case", "scal_sup")
    assert sc.ALL_RULES == sc.BETA_RULES + sc.COMMUTATION_RULES


def test_only_fork_steps_carry_non_unit_weights(corpus_entries):
    forking = {"sup_elim_left", "sup_elim_right"}
    for e in corpus_entries:
        for step, _ in sc.step_all(e.term):
            if step.rule not in forking:
                assert step.weight == F(1), step


# ---------------------------------------------------------------------------
# normalize


def test_normalize_beta():
    assert sc.normalize(term("app(lam(x,x),star(5))")) == S.Star(F(5))


def test_normalize_scal():
    assert sc.normalize(term("scal(2,star(3))")) == S.Star(F(6))


def test_normalize_sum_of_pairs():
    got = sc.normalize(term("sum(pair(star(1),star(2)),pair(star(3),star(4)))"))
    assert got == S.Pair(S.Star(F(4)), S.Star(F(6)))


def test_normalize_refuses_forks():
    with pytest.raises(sc.SupBranchEncountered):
        sc.normalize(term("sup_elim{1/2,1/2}(sup(star(1),star(2)),x.x,y.y)"))


def test_normalize_skips_discarded_forks():
    t = term("fst(pair(star(7),sup_elim{1/2,1/2}(sup(star(1),star(2)),x.x,y.y)))")
    assert sc.normalize(t) == S.Star(F(7))


def test_merge_lams_renames_apart():
    got = sc.normalize(term("sum(lam(x,x),lam(y,scal(2,y)))"))
    assert sc.alpha_eq(got, term("lam(z,sum(z,scal(2,z)))"))


def test_corpus_terminates_within_budget(corpus_entries):
    for e in corpus_entries:
        sc.distribution(e.term)  # raises BudgetExceeded on failure


# ---------------------------------------------------------------------------
# distribution


def test_distribution_of_equal_branches():
    t = term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)")
    d = sc.distribution(t)
    assert [(w, sc.print_term(v)) for w, v in d.items] == [
        (F(1, 2), "star(1/2)"), (F(1, 2), "star(1/2)")]
    assert [(w, sc.print_term(v)) for w, v in d.aggregate(SR)] == [
        (F(1), "star(1/2)")]


def test_distribution_of_distinct_branches():
    u = term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
    d = sc.distribution(u)
    assert sorted((w, sc.print_term(v)) for w, v in d.items) == [
        (F(1, 2), "star(1/4)"), (F(1, 2), "star(3/4)")]


def test_distribution_without_forks_is_singleton():
    t = term("app(lam(x,x),star(5))")
    d = sc.distribution(t)
    assert d.items == ((F(1), S.Star(F(5))),)


def test_path_weights_multiply():
    t = term("sup_elim{1/2,1/2}(sup(sup_elim{1/4,3/4}(sup(star(1),star(2)),"
             "a.a,b.b),star(5)),x.x,y.y)")
    for p in sc.paths(t):
        prod = F(1)
        for step, _ in p.steps:
            prod *= step.weight
        assert prod == p.weight
        assert sc.is_normal(p.value)


def test_mass_conservation_on_corpus(corpus_entries):
    for e in corpus_entries:
        assert sc.distribution(e.term).total(SR) == F(1), e.name


def test_distribution_invariant_under_strategy(corpus_entries):
    """An independent explorer that always contracts the *last* redex in
    preorder must produce the same aggregated distribution."""

    def rightmost_distribution(t):
        out = []
        stack = [(t, F(1))]
        while stack:
            u, w = stack.pop()
            groups = {}
            for step, reduct in sc.step_all(u):
                groups.setdefault(step.pos, []).append((step, reduct))
            if not groups:
                out.append((w, u))
                continue
            pos = max(groups)
            for step, reduct in groups[pos]:
                stack.append((reduct, w * step.weight))
        return out

    def agg(items):
        buckets = {}
        for w, v in items:
            key = sc.print_term(sc.canonical(v))
            buckets[key] = buckets.get(key, F(0)) + w
        return buckets

    for e in corpus_entries:
        base = agg(sc.distribution(e.term).items)
        other = agg(rightmost_distribution(e.term))
        assert base == other, e.name


# ---------------------------------------------------------------------------
# sum_of_distribution


def test_sum_of_distribution_orders_lexicographically():
    u = term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
    got = sc.sum_of_distribution(sc.distribution(u))
    assert sc.print_term(got) == "sum(scal(1/2,star(1/4)),scal(1/2,star(3/4)))"


def test_sum_of_distribution_singleton():
    d = R.Distribution(((F(1), S.Star(F(5))),))
    assert sc.sum_of_distribution(d) == S.Scal(F(1), S.Star(F(5)))


def test_sum_of_distribution_left_associates():
    d = R.Distribution(((F(1), S.Star(F(1))), (F(1), S.Star(F(2))),
                        (F(1), S.Star(F(3)))))
    got = sc.sum_of_distribution(d)
    assert isinstance(got, S.Sum) and isinstance(got.left, S.Sum)
    assert not isinstance(got.right, S.Sum)


def test_sum_of_empty_distribution():
    with pytest.raises(sc.EmptyDistribution):
        sc.sum_of_distribution(R.Distribution(()))


# ---------------------------------------------------------------------------
# introduction shapes


def test_introduction_shapes_on_corpus(corpus_entries):
    from conftest import shape_of_value_ok

    for e in corpus_entries:
        for _, v in sc.distribution(e.term).items:
            assert shape_of_value_ok(v, e.prop), (e.name, sc.print_term(v))


def test_normal_form_inventory():
    # sums and scalar products survive at tensor and plus types only
    assert sc.is_normal(term("sum(tens(star(1),star(1)),tens(star(2),star(2)))"))
    assert sc.is_normal(term("scal(2,tens(star(1),star(2)))"))
    assert sc.is_normal(term("sum(inl{one}(star(1)),inr{one}(star(2)))"))
    assert not sc.is_normal(term("sum(pair(star(1),star(1)),pair(star(2),star(2)))"))
    assert not sc.is_normal(term("scal(2,lam(x,x))"))
    assert not sc.is_normal(term("sum(unit,unit)"))


# ---------------------------------------------------------------------------
# confluence of the fork-free fragment


def test_confluence_spot_checks():
    gen = TermGenerator(seed=2, allow_sup_elim=False, max_depth=5)
    for i in range(40):
        t, _ = gen.closed()
        n1 = sc.normalize_random(t, random.Random(100 + i))
        n2 = sc.normalize_random(t, random.Random(900 + i))
        n3 = sc.normalize(t)
        assert sc.alpha_eq(n1, n2) and sc.alpha_eq(n1, n3)


# ---------------------------------------------------------------------------
# mixed computational equivalence


def test_mixed_equiv_adequacy_pair():
    t = term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)")
    u = term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
    assert sc.mixed_equiv(t, u, S.One())


def test_mixed_equiv_distinguishes_scalars():
    assert not sc.mixed_equiv(term("star(1)"), term("star(2)"), S.One())


def test_mixed_equiv_reflexive(corpus_entries):
    for e in corpus_entries:
        from supcalc.veccodec import is_vprop

        if is_vprop(e.prop) or isinstance(e.prop, S.Top):
            assert sc.mixed_equiv(e.term, e.term, e.prop), e.name


def test_mixed_equiv_on_vectors():
    a = sc.parse_prop("one & one")
    t = term("pair(star(1),star(2))")
    u = term("sum(pair(star(1),star(0)),pair(star(0),star(2)))")
    assert sc.mixed_equiv(t, u, a)


def test_mixed_equiv_unsupported_type():
    with pytest.raises(sc.UnsupportedType):
        sc.mixed_equiv(term("lam(x,x)"), term("lam(x,x)"),
                       sc.parse_prop("one -o one"))


def test_mixed_equiv_at_top():
    assert sc.mixed_equiv(term("unit"), term("scal(2,unit)"), S.Top())


# ---------------------------------------------------------------------------
# elimination contexts


def test_elim_contexts_at_one():
    for depth in (0, 1, 3):
        ks = sc.enumerate_elim_contexts(S.One(), depth)
        assert [sc.print_term(k) for k in ks] == ["[.]"]


def test_elim_contexts_with_projections():
    ks = sc.enumerate_elim_contexts(sc.parse_prop("one & one"), 1)
    assert [sc.print_term(k) for k in ks] == ["fst([.])", "snd([.])"]


def test_elim_contexts_sup_projections():
    ks = sc.enumerate_elim_contexts(sc.parse_prop("one (o) one"), 1)
    assert [sc.print_term(k) for k in ks] == ["supfst([.])", "supsnd([.])"]


def test_elim_contexts_produce_basic_judgments():
    for src in ["(one & one) & (one (o) one)", "one -o one",
                "one (*) one", "one (+) one"]:
        a = sc.parse_prop(src)
        ks = sc.enumerate_elim_contexts(a, 3)
        assert ks
        filler = canonical_inhabitant(a)
        for k in ks:
            assert sc.hole_count(k) == 1
            d = sc.typecheck((), sc.fill(k, filler))
            assert isinstance(d.prop, (S.One, S.Top))


def test_elim_contexts_separate_the_adequacy_pair_targets():
    # plugging the two distribution sums into every basic context yields
    # matching aggregated results
    t = term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)")
    u = term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
    st = sc.sum_of_distribution(sc.distribution(t))
    su = sc.sum_of_distribution(sc.distribution(u))
    for k in sc.enumerate_elim_contexts(S.One(), 2):
        dt = sc.distribution(sc.fill(k, st)).aggregate(SR)
        du = sc.distribution(sc.fill(k, su)).aggregate(SR)
        assert [(w, sc.print_term(v)) for w, v in dt] == \
            [(w, sc.print_term(v)) for w, v in du]


# ---------------------------------------------------------------------------
# contract against a reference that spells out each of the 25 rules as its
# own clause


def _ref_merge_lams(a, b, make):
    """Combine two abstractions under a shared binder, renaming apart."""
    ann = a.ann if a.ann is not None else b.ann
    if a.var == b.var:
        return S.Lam(a.var, make(a.body, b.body), ann)
    if a.var not in S.free_vars(b.body):
        nb = S.substitute(S.Var(a.var), b.var, b.body)
        return S.Lam(a.var, make(a.body, nb), ann)
    taken = S.free_vars(a.body) | S.free_vars(b.body)
    z = S.fresh_name(a.var, taken)
    na = S.substitute(S.Var(z), a.var, a.body)
    nb = S.substitute(S.Var(z), b.var, b.body)
    return S.Lam(z, make(na, nb), ann)


def _ref_contract(t, semiring):
    """contract as a chain of 25 clauses, one per rule."""
    sr = semiring
    one = sr.one

    if isinstance(t, S.UnitElim) and isinstance(t.unit, S.Star):
        return [("unit_elim", one, S.Scal(t.unit.scalar, t.body))]

    if isinstance(t, S.TensElim):
        scrut = t.pair
        if isinstance(scrut, S.Tens):
            out = S.subst_parallel(t.body, {t.left_var: scrut.left,
                                            t.right_var: scrut.right})
            return [("tens_elim", one, out)]
        if isinstance(scrut, S.Sum):
            return [("sum_tens_elim", one, S.Sum(
                S.TensElim(scrut.left, t.left_var, t.right_var, t.body),
                S.TensElim(scrut.right, t.left_var, t.right_var, t.body)))]
        if isinstance(scrut, S.Scal):
            return [("scal_tens_elim", one, S.Scal(
                scrut.scalar,
                S.TensElim(scrut.body, t.left_var, t.right_var, t.body)))]
        return []

    if isinstance(t, S.App) and isinstance(t.fn, S.Lam):
        return [("apply", one, S.substitute(t.arg, t.fn.var, t.fn.body))]

    if isinstance(t, S.Fst) and isinstance(t.pair, S.Pair):
        return [("fst", one, t.pair.left)]
    if isinstance(t, S.Snd) and isinstance(t.pair, S.Pair):
        return [("snd", one, t.pair.right)]

    if isinstance(t, S.Case):
        scrut = t.scrutinee
        if isinstance(scrut, S.Inl):
            return [("case_inl", one,
                     S.substitute(scrut.body, t.left_var, t.left_body))]
        if isinstance(scrut, S.Inr):
            return [("case_inr", one,
                     S.substitute(scrut.body, t.right_var, t.right_body))]
        if isinstance(scrut, S.Sum):
            return [("sum_case", one, S.Sum(
                S.Case(scrut.left, t.left_var, t.left_body,
                       t.right_var, t.right_body),
                S.Case(scrut.right, t.left_var, t.left_body,
                       t.right_var, t.right_body)))]
        if isinstance(scrut, S.Scal):
            return [("scal_case", one, S.Scal(
                scrut.scalar,
                S.Case(scrut.body, t.left_var, t.left_body,
                       t.right_var, t.right_body)))]
        return []

    if isinstance(t, S.SupFst) and isinstance(t.pair, S.SupPair):
        return [("supfst", one, t.pair.left)]
    if isinstance(t, S.SupSnd) and isinstance(t.pair, S.SupPair):
        return [("supsnd", one, t.pair.right)]

    if isinstance(t, S.SupElim) and isinstance(t.scrutinee, S.SupPair):
        scrut = t.scrutinee
        return [
            ("sup_elim_left", t.p,
             S.substitute(scrut.left, t.left_var, t.left_body)),
            ("sup_elim_right", t.q,
             S.substitute(scrut.right, t.right_var, t.right_body)),
        ]

    if isinstance(t, S.Sum):
        a, b = t.left, t.right
        if isinstance(a, S.Star) and isinstance(b, S.Star):
            return [("sum_star", one, S.Star(sr.add(a.scalar, b.scalar)))]
        if isinstance(a, S.Lam) and isinstance(b, S.Lam):
            return [("sum_lam", one, _ref_merge_lams(a, b, S.Sum))]
        if isinstance(a, S.Unit) and isinstance(b, S.Unit):
            return [("sum_unit", one, S.Unit())]
        if isinstance(a, S.Pair) and isinstance(b, S.Pair):
            return [("sum_pair", one, S.Pair(S.Sum(a.left, b.left),
                                             S.Sum(a.right, b.right)))]
        if isinstance(a, S.SupPair) and isinstance(b, S.SupPair):
            return [("sum_sup", one, S.SupPair(S.Sum(a.left, b.left),
                                               S.Sum(a.right, b.right)))]
        return []

    if isinstance(t, S.Scal):
        s, a = t.scalar, t.body
        if isinstance(a, S.Star):
            return [("scal_star", one, S.Star(sr.mul(s, a.scalar)))]
        if isinstance(a, S.Lam):
            return [("scal_lam", one, S.Lam(a.var, S.Scal(s, a.body), a.ann))]
        if isinstance(a, S.Unit):
            return [("scal_unit", one, S.Unit())]
        if isinstance(a, S.Pair):
            return [("scal_pair", one, S.Pair(S.Scal(s, a.left),
                                              S.Scal(s, a.right)))]
        if isinstance(a, S.SupPair):
            return [("scal_sup", one, S.SupPair(S.Scal(s, a.left),
                                                S.Scal(s, a.right)))]
        return []

    return []


def test_contract_matches_the_clause_per_rule_reference(corpus_entries):
    gen = TermGenerator(seed=11, allow_sup_elim=True, max_depth=4)
    terms = [e.term for e in corpus_entries]
    terms += [gen.closed()[0] for _ in range(300)]
    fired = set()
    for t in terms:
        for _, u in S.subterms(t):
            got = R.contract(u, SR)
            assert got == _ref_contract(u, SR), sc.print_term(u)
            assert R.is_redex(u) == bool(got), sc.print_term(u)
            fired.update(rule for rule, _, _ in got)
    assert fired == set(R.ALL_RULES)


# One node of each term class, typed or not, with variables free and bound
# so that substitution and the renaming of sum_lam have work to do; the
# right-hand set differs from the left, so a sum of two nodes of one class
# sums two different terms.
_LEFT_SAMPLES = [
    S.Var("x"), S.Sum(S.Star(F(1)), S.Var("y")), S.Scal(F(2), S.Var("x")),
    S.Star(F(3)), S.UnitElim(S.Var("u"), S.Star(F(1))),
    S.Lam("x", S.Sum(S.Var("x"), S.Var("y"))), S.App(S.Var("f"), S.Var("x")),
    S.Tens(S.Var("x"), S.Star(F(2))),
    S.TensElim(S.Var("p"), "x", "y", S.Tens(S.Var("y"), S.Var("x"))),
    S.Unit(), S.ZeroElim(S.Var("z")), S.Pair(S.Var("x"), S.Star(F(3))),
    S.Fst(S.Var("p")), S.Snd(S.Var("p")), S.Inl(S.Var("x")),
    S.Inr(S.Star(F(1))),
    S.Case(S.Var("s"), "x", S.Var("x"), "y", S.Scal(F(2), S.Var("y"))),
    S.SupPair(S.Star(F(1)), S.Var("x")), S.SupFst(S.Var("p")),
    S.SupSnd(S.Var("p")),
    S.SupElim(F(1, 3), F(2, 3), S.Var("s"), "x", S.Var("x"), "y", S.Unit()),
    S.Hole(),
]
_RIGHT_SAMPLES = [
    S.Var("y"), S.Sum(S.Var("x"), S.Unit()), S.Scal(F(1, 2), S.Unit()),
    S.Star(F(5)), S.UnitElim(S.Star(F(2)), S.Var("x")),
    S.Lam("y", S.Scal(F(2), S.Var("x"))), S.App(S.Lam("z", S.Var("z")),
                                                 S.Var("y")),
    S.Tens(S.Unit(), S.Var("y")),
    S.TensElim(S.Tens(S.Var("x"), S.Unit()), "a", "b", S.Var("a")),
    S.Unit(), S.ZeroElim(S.Var("x")), S.Pair(S.Unit(), S.Var("y")),
    S.Fst(S.Pair(S.Var("x"), S.Unit())), S.Snd(S.Var("q")),
    S.Inl(S.Unit()), S.Inr(S.Var("y")),
    S.Case(S.Inl(S.Var("x")), "a", S.Var("a"), "b", S.Var("x")),
    S.SupPair(S.Var("y"), S.Unit()), S.SupFst(S.Var("q")),
    S.SupSnd(S.SupPair(S.Var("x"), S.Unit())),
    S.SupElim(F(1, 2), F(1, 2), S.Var("t"), "a", S.Var("y"), "b",
              S.Var("b")),
    S.Hole(),
]


def _shape_sweep():
    """Each term class with each subterm field holding a node of each
    class (the other fields holding the right-hand sample's subterms), and
    each sum of a left and a right node of any two classes."""
    right = {type(r): r for r in _RIGHT_SAMPLES}
    for cls in S._CHILDREN:
        base = right[cls]
        for field in S._CHILDREN[cls]:
            for sample in _LEFT_SAMPLES:
                yield S._rebuild(base, {field: sample})
    for a in _LEFT_SAMPLES:
        for b in _RIGHT_SAMPLES:
            yield S.Sum(a, b)


def test_every_shape_matches_the_clause_per_rule_reference():
    """is_redex and contract agree with the reference on every class and
    every class of its subterms, so also on ill-typed forms such as
    sum(star(1),lam(x,x)), scal(2,tens(..)) and let_tens(inl(..),..)
    that generated terms never hold."""
    classes = set(S._CHILDREN)
    assert {type(u) for u in _LEFT_SAMPLES} == classes
    assert {type(u) for u in _RIGHT_SAMPLES} == classes
    fired, nodes, redexes = set(), 0, 0
    for u in _shape_sweep():
        want = _ref_contract(u, SR)
        assert R.is_redex(u) == bool(want), sc.print_term(u)
        assert R.contract(u, SR) == want, sc.print_term(u)
        fired.update(rule for rule, _, _ in want)
        nodes += 1
        redexes += bool(want)
    assert fired == set(R.ALL_RULES)
    assert nodes > 1000 and 0 < redexes < nodes // 4


# ---------------------------------------------------------------------------
# Nodes built directly against the constructor's nodes

_FACTS = ("_fv", "_absorbs", "_deriv")
# the rules whose contraction builds its contractum's root node
_BUILDING_RULES = set(R.COMMUTATION_RULES) | {"unit_elim"}


def _constructed(u, **updates):
    """The node the constructor of u's class makes from u's fields, some
    of them replaced."""
    values = {f.name: getattr(u, f.name) for f in dataclasses.fields(u)}
    values.update(updates)
    return type(u)(**values)


def _field_items(u):
    """u's (field, value) pairs, in the constructor's field order."""
    return [(name, getattr(u, name)) for name in S._FIELDS[type(u)]]


def _assert_built_as_constructed(u, want):
    """u is want, the constructor's node: equal, with the same hash, repr
    and fields in the same order; and u keeps no fact (each is None)."""
    assert type(u) is type(want)
    assert u == want and hash(u) == hash(want) and repr(u) == repr(want)
    assert _field_items(u) == _field_items(want)
    assert not [fact for fact in _FACTS if getattr(u, fact) is not None], \
        repr(u)


def test_direct_builds_are_the_constructors_nodes(corpus_entries):
    """Every node built directly, for a contraction, a plug or _rebuild,
    is the node the constructor makes of the same fields; none of the facts
    of the node it is made from (all three are known) carries over, and
    that node stays as it was."""
    gen = TermGenerator(seed=11, allow_sup_elim=True, max_depth=4)
    typed = [(e.ctx, e.term, e.prop) for e in corpus_entries]
    typed += [((), *gen.closed()) for _ in range(100)]
    for ctx, t, a in typed:
        sc.typecheck(ctx, t, a)
    nodes = [u for _, t, _ in typed for u in S.nodes(t)]
    assert any(u._deriv is not None for u in nodes)
    nodes += list(_shape_sweep())
    built = set()
    for u in nodes:
        S.free_vars(u)
        TC.can_absorb(u)
        assert all(getattr(u, fact) is not None for fact in _FACTS[:2])
        before = _field_items(u)
        for i, name in enumerate(S._CHILDREN[type(u)]):
            for x in (getattr(u, name), S.Unit()):
                want = _constructed(u, **{name: x})
                _assert_built_as_constructed(R._plug(u, i, x), want)
                _assert_built_as_constructed(S._rebuild(u, {name: x}), want)
        assert _field_items(u) == before
        for rule, _, c in R.contract(u, SR):
            if rule in _BUILDING_RULES:
                _assert_built_as_constructed(c, _constructed(c))
                built.add(rule)
    assert built == _BUILDING_RULES


# ---------------------------------------------------------------------------
# differential check of the reduction loop against a naive reference that
# rescans the whole term from the root on every step


def _ref_subterms(t):
    """Preorder by reflection: the reference order of positions."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop(0)
        yield pos, u
        kids = [getattr(u, f.name) for f in dataclasses.fields(u)
                if isinstance(getattr(u, f.name), S.Term)]
        stack[0:0] = [(pos + (i,), c) for i, c in enumerate(kids)]


def _ref_replace_at(t, pos, new):
    if not pos:
        return new
    names = [f.name for f in dataclasses.fields(t)
             if isinstance(getattr(t, f.name), S.Term)]
    name = names[pos[0]]
    return dataclasses.replace(
        t, **{name: _ref_replace_at(getattr(t, name), pos[1:], new)})


def _ref_redexes(t):
    return [(p, e) for p, u in _ref_subterms(t) if (e := R.contract(u, SR))]


def _ref_leftmost(t, semiring=SR):
    return next(((p, e) for p, u in _ref_subterms(t)
                 if (e := R.contract(u, semiring))), None)


def _ref_run(t, rng=None):
    """Each term of the reference run with the redex chosen in it, as
    (position, contract entries); the run ends at a normal form (None) or
    at a fork."""
    while True:
        if rng is None:
            found = _ref_leftmost(t)
        else:
            redexes = _ref_redexes(t)
            found = rng.choice(redexes) if redexes else None
        yield t, found
        if found is None or len(found[1]) > 1:
            return
        t = _ref_replace_at(t, found[0], found[1][0][2])


def _ref_normalize(t, rng=None, budget=R.DEFAULT_BUDGET):
    # a run of budget steps yields budget + 1 terms
    for _, (u, found) in zip(range(budget + 1), _ref_run(t, rng)):
        if found is None:
            return u
        pos, entries = found
        if len(entries) > 1:
            raise R.SupBranchEncountered(
                f"probabilistic fork at position {pos}; use distribution()")
    raise R.BudgetExceeded(f"no normal form within {budget} steps")


def _ref_paths(t, budget=R.DEFAULT_BUDGET, semiring=SR):
    out, stack, used = [], [(t, (), semiring.one)], 0
    while stack:
        u, trail, w = stack.pop()
        found = _ref_leftmost(u, semiring)
        if found is None:
            out.append(R.Path(source=t, steps=trail, weight=w))
            continue
        pos, entries = found
        used += len(entries)
        if used > budget:
            raise R.BudgetExceeded(f"reduction tree larger than {budget} steps")
        for rule, sw, c in reversed(entries):
            nxt = _ref_replace_at(u, pos, c)
            stack.append((nxt, trail + ((R.Step(pos, rule, sw), nxt),),
                          semiring.mul(w, sw)))
    return out


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except R.ReductionError as exc:
        return type(exc), str(exc)


_FORK = "sup_elim{{1/3,2/3}}(sup(star({a}),star({b})),x.x,y.y)"


def _fork(i):
    return _FORK.format(a=2 * i + 1, b=2 * i + 2)


def _fork_chain(n, left=False):
    """unit_elim chains of n forks with distinct leaf scalars, nested to
    the right or to the left."""
    src = _fork(0)
    for i in range(1, n):
        src = (f"unit_elim({src},{_fork(i)})" if left
               else f"unit_elim({_fork(i)},{src})")
    return src


def _fork_tree(lo, hi):
    """A balanced unit_elim tree of the forks lo..hi-1."""
    if hi - lo == 1:
        return _fork(lo)
    mid = (lo + hi) // 2
    return f"unit_elim({_fork_tree(lo, mid)},{_fork_tree(mid, hi)})"


def _fork_terms():
    """Right- and left-nested fork chains and balanced fork trees of 1..8
    forks."""
    return [term(src) for n in range(1, 9)
            for src in (_fork_chain(n), _fork_chain(n, left=True),
                        _fork_tree(0, n))]


def _large_fork_terms():
    """One chain and one balanced tree of 9 and of 10 forks."""
    return [term(src) for n in (9, 10)
            for src in (_fork_chain(n), _fork_tree(0, n))]


def _sum_chain(n, left=False):
    """sum(star(1), sum(star(2), ...)) over star(1..n), nested to the right
    or to the left; its normal form is star(n(n+1)/2)."""
    t = S.Star(F(n))
    for i in range(n - 1, 0, -1):
        t = S.Sum(t, S.Star(F(i))) if left else S.Sum(S.Star(F(i)), t)
    return t


def _deep_terms():
    return [_sum_chain(300), _sum_chain(300, left=True)]


_STUCK_BODIES = "x.unit_elim(x,star(1)),y.unit_elim(y,sum(star(1),star(2)))"


def _odd_terms():
    """Open terms whose eliminator gets stuck on a variable, so that the
    leftmost-outermost redex is a later sibling's; and ill-typed terms
    where a contraction makes the parent stop being a redex."""
    return [term(src) for src in (
        f"case(app(lam(w,w),z),{_STUCK_BODIES})",
        f"sup_elim{{1/2,1/2}}(app(lam(w,w),z),{_STUCK_BODIES})",
        "unit_elim(app(lam(w,w),z),sum(star(1),star(2)))",
        "app(app(lam(w,w),f),sum(star(1),star(2)))",
        "let_tens(app(lam(w,w),z),a,b,unit_elim(a,unit_elim(b,"
        "sum(star(1),star(2)))))",
        "let_tens(sum(star(1),star(2)),a,b,a)",
        "case(scal(2,star(3)),x.x,y.y)",
        "case(sum(unit,sum(unit,unit)),x.x,y.y)",
    )]


def _edge_terms(corpus_entries):
    """The terms also checked at one step less than the budget they need."""
    return ([e.term for e in corpus_entries] + _large_fork_terms()
            + _deep_terms())


def _differential_terms(corpus_entries):
    gen = TermGenerator(seed=11, allow_sup_elim=True, max_depth=4)
    return (_edge_terms(corpus_entries)
            + [gen.closed()[0] for _ in range(300)] + _fork_terms()
            + _odd_terms())


def test_reduction_matches_naive_reference(corpus_entries):
    """Each loop result equals the reference's at the default budget and at
    exactly the budget the term needs: paths needs the steps of its tree,
    normalize and normalize_random the steps of the reference run under the
    same rng.  The edge terms are also compared at one less."""
    edges = len(_edge_terms(corpus_entries))
    for i, t in enumerate(_differential_terms(corpus_entries)):
        assert list(S.subterms(t)) == list(_ref_subterms(t))
        assert R._redexes(t, SR) == _ref_redexes(t), sc.print_term(t)
        got = sc.paths(t)
        assert got == _ref_paths(t), sc.print_term(t)
        tree = _tree_steps(got)
        assert sc.paths(t, budget=tree) == got
        assert sc.distribution(t) == _leaves(got)
        assert sc.distribution(t, budget=tree) == _leaves(got)
        for p in got:
            for _, u in p.steps[-3:]:
                assert sc.is_normal(u) == (_ref_leftmost(u) is None)
        assert sc.is_normal(t) == (_ref_leftmost(t) is None)
        one_less = i < edges
        if one_less and tree:
            want = _outcome(_ref_paths, t, budget=tree - 1)
            assert _outcome(sc.paths, t, budget=tree - 1) == want
            assert _outcome(sc.distribution, t, budget=tree - 1) == want
        for seed in (None, i):
            want = _outcome(_ref_normalize, t, _rng(seed))
            assert _normalize(t, seed) == want, sc.print_term(t)
            need = sum(1 for _ in _ref_run(t, _rng(seed))) - 1
            assert _normalize(t, seed, need) == want
            if one_less:
                assert _normalize(t, seed, need - 1) == (
                    R.BudgetExceeded, f"no normal form within {need - 1} steps")


def _leaves(ps):
    """The distribution whose items are the (weight, value) leaves of the
    paths ps."""
    return R.Distribution(tuple((p.weight, p.value) for p in ps))


def _rng(seed):
    return None if seed is None else random.Random(seed)


def _normalize(t, seed, budget=R.DEFAULT_BUDGET):
    """The outcome of normalizing t within budget: leftmost-outermost
    without a seed, else random under random.Random(seed)."""
    if seed is None:
        return _outcome(sc.normalize, t, budget=budget)
    return _outcome(sc.normalize_random, t, _rng(seed), budget=budget)


def _tree_steps(ps):
    """The number of steps in the reduction tree whose maximal paths, left
    branch first, are ps: each path adds the steps after its common prefix
    with the path before it."""
    total, prev = 0, ()
    for p in ps:
        shared = 0
        while (shared < min(len(prev), len(p.steps))
               and prev[shared] == p.steps[shared]):
            shared += 1
        total += len(p.steps) - shared
        prev = p.steps
    return total


def test_budget_errors_match_naive_reference(corpus_entries):
    terms = [e.term for e in corpus_entries[:20]] + _fork_terms()[:9]
    for t in terms:
        for budget in range(0, 30):
            ref = _outcome(_ref_paths, t, budget=budget)
            assert _outcome(sc.paths, t, budget=budget) == ref
            assert _outcome(sc.distribution, t, budget=budget) == (
                ("ok", _leaves(ref[1])) if ref[0] == "ok" else ref)
            assert (_outcome(sc.normalize, t, budget=budget)
                    == _outcome(_ref_normalize, t, budget=budget))
            rng_a, rng_b = random.Random(budget), random.Random(budget)
            assert (_outcome(sc.normalize_random, t, rng_a, budget=budget)
                    == _outcome(_ref_normalize, t, rng_b, budget=budget))


@pytest.mark.parametrize("src, steps, value", [
    ("star(1)", 0, "star(1)"),
    ("sum(star(1),star(2))", 1, "star(3)"),
])
def test_every_strategy_runs_within_a_budget_of_its_steps(src, steps, value):
    """A budget of n steps admits a run of n steps, under every strategy,
    and a budget of one less does not."""
    t = term(src)
    assert sc.print_term(sc.normalize(t, budget=steps)) == value
    assert sc.print_term(sc.normalize_random(t, random.Random(0),
                                             budget=steps)) == value
    assert [sc.print_term(p.value) for p in sc.paths(t, budget=steps)] == [
        value]
    if steps:
        assert _normalize(t, None, steps - 1) == (
            R.BudgetExceeded, f"no normal form within {steps - 1} steps")
        assert _normalize(t, 0, steps - 1) == (
            R.BudgetExceeded, f"no normal form within {steps - 1} steps")
        assert _outcome(sc.paths, t, budget=steps - 1) == (
            R.BudgetExceeded, f"reduction tree larger than {steps - 1} steps")


@pytest.mark.parametrize("src", ["star(1)", _fork(0)], ids=["value", "fork"])
def test_every_strategy_refuses_a_budget_below_zero(src):
    """A budget below zero admits no run, not even one of no steps, and
    the budget is checked before a fork is refused."""
    t = term(src)
    tree = (R.BudgetExceeded, "reduction tree larger than -1 steps")
    run = (R.BudgetExceeded, "no normal form within -1 steps")
    assert _outcome(sc.paths, t, budget=-1) == tree
    assert _outcome(sc.distribution, t, budget=-1) == tree
    assert _normalize(t, None, -1) == run
    assert _normalize(t, 0, -1) == run


def test_kept_redex_positions_match_a_rescan(corpus_entries):
    """The random strategy's kept position list, updated after each step,
    equals the redex positions of a full rescan of the new term."""
    gen = TermGenerator(seed=5, allow_sup_elim=True, max_depth=4)
    terms = ([e.term for e in corpus_entries] + _odd_terms() * 8
             + [gen.closed()[0] for _ in range(300)])
    rng = random.Random(0)
    steps = 0
    for t in terms:
        focus, frames, at = t, None, ()
        kept = [p for p, _ in R._redexes(t, SR)]
        while kept:
            pos = rng.choice(kept)
            focus, frames = R._move(focus, frames, at, pos)
            contractum = rng.choice(R.contract(focus, SR))[2]
            focus, frames, at, kept = R._contract_at(kept, pos, contractum,
                                                     frames)
            assert S.replace_at(t, pos, contractum) == R._plug_all(focus,
                                                                   frames)
            t = R._plug_all(focus, frames)
            assert kept == [p for p, _ in _ref_redexes(t)], \
                sc.print_term(t)
            steps += 1
    assert steps > 1000


def test_deep_chain_normalizes_to_its_closed_form():
    n = 2000
    t = _sum_chain(n)
    assert sc.normalize(t) == S.Star(F(n * (n + 1) // 2))
    assert sc.distribution(_sum_chain(n, left=True)).items == (
        (F(1), S.Star(F(n * (n + 1) // 2))),)


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_step_all_is_linear_in_depth(left):
    # a chain of sums has one redex, at its deepest sum; a scan that built
    # a position per node would take time quadratic in depth: 4 times the
    # depth would then take about 16 times as long.  The two depths are
    # timed in turn, so that a change in the host's speed meets both.
    depths = (1000, 4000)
    chains = [_sum_chain(n, left) for n in depths]
    times = [[], []]
    for _ in range(5):
        for n, t, spent in zip(depths, chains, times):
            start = time.perf_counter()
            (step, _), = sc.step_all(t)
            spent.append(time.perf_counter() - start)
            assert step.rule == "sum_star" and len(step.pos) == n - 2
    assert min(times[1]) < 8 * min(times[0])


@pytest.mark.parametrize("src", [_fork_chain(10), _fork_tree(0, 10)],
                         ids=["chain", "tree"])
def test_distribution_runs_each_shared_segment_once(src, monkeypatch):
    """The subterm right of a fork is reached by both branches as the same
    object, and its segment is run once: contract is called fewer than half
    as many times as the unshared tree has steps."""
    t = term(src)
    steps = _tree_steps(sc.paths(t))
    calls = 0

    def counted(u, semiring):
        nonlocal calls
        calls += 1
        return contract(u, semiring)

    contract = R.contract
    monkeypatch.setattr(R, "contract", counted)
    sc.distribution(t)
    assert 0 < calls < steps / 2


def test_distribution_of_a_long_fork_chain_exceeds_the_budget():
    """2**40 leaves: the budget counts the unshared tree, so the run stops
    at the default budget instead of filling memory."""
    with pytest.raises(R.BudgetExceeded) as exc:
        sc.distribution(term(_fork_chain(40)))
    assert str(exc.value) == "reduction tree larger than 100000 steps"


def test_distribution_multiplies_weights_in_path_order():
    """Float products depend on their order: under f64 the weights of
    paths and of distribution equal those of the naive reference, which
    multiplies along each path from the root.  No weight is dyadic, so a
    product associated otherwise rounds otherwise.  The inputs: fork chains
    nested both ways and balanced trees of 6 and 8 forks at 1/10,9/10;
    chains of one repeated fork, whose segments the run shares, at each
    weight pair; and chains and trees of 12 forks whose weights cycle
    through the three pairs."""
    pairs = ("1/10,9/10", "1/3,2/3", "2/5,3/5")
    shapes = (lambda n: _fork_chain(n), lambda n: _fork_chain(n, left=True),
              lambda n: _fork_tree(0, n))
    srcs = [shape(n).replace("1/3,2/3", "1/10,9/10")
            for n in (6, 8) for shape in shapes]
    for pair in pairs:
        for n in (6, 8):
            src = _fork(0)
            for _ in range(1, n):
                src = f"unit_elim({_fork(0)},{src})"
            srcs.append(src.replace("1/3,2/3", pair))
    for shape in shapes:
        cycle = itertools.cycle(pairs)
        srcs.append(re.sub("1/3,2/3", lambda _: next(cycle), shape(12)))
    for src in srcs:
        t = sc.parse_term(src, sc.F64)
        want = _ref_paths(t, semiring=sc.F64)
        if len(want) < 4096:  # 12 forks: each path keeps every whole term
            assert sc.paths(t, sc.F64) == want
        assert sc.distribution(t, sc.F64) == _leaves(want)


# ---------------------------------------------------------------------------
# The exact kernel and the leaf key against the operators and the former key


def _by_operators(sr):
    """sr with Fraction's operators in place of the exact kernel; bool and
    f64 never used it."""
    if sr in (sc.QNN, sc.Q):
        return dataclasses.replace(sr, add=operator.add, mul=operator.mul)
    return sr


def _former_aggregate(d, sr):
    """Distribution.aggregate as it was, keying every leaf by its printed
    canonical form."""
    buckets = {}
    for w, v in d.items:
        key = S.print_term(S.canonical(v))
        if key in buckets:
            buckets[key][0] = sr.add(buckets[key][0], w)
        else:
            buckets[key] = [w, v]
    return [(w, v) for _, (w, v) in sorted(buckets.items())]


def _former_sum_of_distribution(d):
    """sum_of_distribution as it was, sorting by the former key."""
    pieces = sorted((S.Scal(w, v) for w, v in d.items),
                    key=lambda u: S.print_term(S.canonical(u)))
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = S.Sum(acc, piece)
    return acc


def _exactly(items):
    """Items with each weight as its type, numerator and denominator (or
    its float), and each value as printed."""
    return [(type(w), (w.numerator, w.denominator)
             if isinstance(w, F) else w, S.print_term(v)) for w, v in items]


def _sr_fork(sr, i):
    """Fork number i over sr's own weight pairs and test scalars."""
    p, q = sr.weight_pool[i % len(sr.weight_pool)]
    pool = sr.test_pool
    a, b = pool[(2 * i + 1) % len(pool)], pool[(2 * i + 2) % len(pool)]
    fs = sc.format_scalar
    return (f"sup_elim{{{fs(p)},{fs(q)}}}(sup(star({fs(a)}),star({fs(b)})),"
            "x.x,y.y)")


def _sr_fork_terms(sr):
    """Fork chains nested both ways, chains of one repeated fork and
    balanced trees, of up to 12 forks, over sr's scalars."""
    def chain(n, left=False, same=False):
        src = _sr_fork(sr, 0)
        for i in range(1, n):
            f = _sr_fork(sr, 0 if same else i)
            src = f"unit_elim({src},{f})" if left else f"unit_elim({f},{src})"
        return src

    def tree(lo, hi):
        if hi - lo == 1:
            return _sr_fork(sr, lo)
        mid = (lo + hi) // 2
        return f"unit_elim({tree(lo, mid)},{tree(mid, hi)})"

    return [sc.parse_term(src, sr) for n in (1, 2, 3, 5, 8, 12)
            for src in (chain(n), chain(n, left=True), chain(n, same=True),
                        tree(0, n))]


def _sr_corpus_terms(corpus_entries, sr):
    """The corpus entries that parse under sr, and 300 generated terms."""
    out = []
    for e in corpus_entries:
        try:
            out.append(sc.parse_term(sc.print_term(e.term), sr))
        except S.ParseError:
            pass
    gen = TermGenerator(seed=11, semiring=sr, allow_sup_elim=True,
                        max_depth=4)
    return out + [gen.closed()[0] for _ in range(300)]


@pytest.mark.parametrize("sr", (sc.QNN, sc.Q, sc.BOOL, sc.F64),
                         ids=lambda s: s.name)
def test_kernel_and_leaf_key_leave_distributions_as_they_were(
        corpus_entries, sr):
    """distribution's items, in order, with each weight's numerator and
    denominator, equal those of a run under Fraction's operators, and
    aggregate and sum_of_distribution equal the former key's results."""
    ref = _by_operators(sr)
    terms = _sr_corpus_terms(corpus_entries, sr) + _sr_fork_terms(sr)
    leaves = 0
    for t in terms:
        got, want = sc.distribution(t, sr), sc.distribution(t, ref)
        assert _exactly(got.items) == _exactly(want.items), sc.print_term(t)
        assert _exactly(got.aggregate(sr)) == _exactly(
            _former_aggregate(want, ref))
        assert sc.print_term(sc.sum_of_distribution(got)) == (
            sc.print_term(_former_sum_of_distribution(want)))
        leaves += len(got.items)
    assert leaves > 4 * 4096


@pytest.mark.parametrize("sr", (sc.QNN, sc.Q), ids=lambda s: s.name)
def test_kernel_leaves_budget_errors_as_they_were(sr):
    """A chain one fork too long and a tree one step short of its budget
    raise where the run under Fraction's operators raises."""
    ref = _by_operators(sr)
    chain = term(_fork_chain(13))
    assert (_outcome(sc.distribution, chain, sr)
            == _outcome(sc.distribution, chain, ref)
            == (R.BudgetExceeded, "reduction tree larger than 100000 steps"))
    t = term(_fork_tree(0, 8))
    tree = _tree_steps(sc.paths(t))
    got = _outcome(sc.distribution, t, sr, budget=tree - 1)
    assert got == _outcome(sc.distribution, t, ref, budget=tree - 1)
    assert got[0] is R.BudgetExceeded


def test_leaf_key_is_the_printed_canonical_form(corpus_entries):
    """On values with and without binders, and on the scalar products that
    sum_of_distribution sorts."""
    gen = TermGenerator(seed=17, allow_sup_elim=True, max_depth=4)
    values = [e.term for e in corpus_entries]
    values += [gen.closed()[0] for _ in range(200)]
    values += [v for t in values[:]
               for _, v in sc.distribution(t).items]
    values += [S.Scal(F(1, 2), v) for v in values[:]]
    values += [S.Star(F(-3, 4)), S.Unit(), S.Var("x"), S.Hole(),
               term("lam(x,lam(y,app(x,y)))"), term("pair(star(1),unit)")]
    assert any(type(u) in S._BINDERS for v in values for u in S.nodes(v))
    for v in values:
        assert R._leaf_key(v) == S.print_term(S.canonical(v))


_DISTRIBUTION_PINS = {
    "qnn": "08d8f037f0c940fa91ce38dc7a2176e75a613211a201e96bba907fa6e3271ee7",
    "q": "e422d909695f8b4dd76f68c59a0f85daa52f4519f1b447d12fffaeb44013c002",
    "bool": "0b0dbe1d4bc9f77a6d814cd415013ba133ccc50f8126e5cfa8331e559501b3e7",
    "f64": "04d5c8767e150085d7e1f6dc22942ea9e15a9af220d2b20b790b10a1b95899a6",
}


@pytest.mark.parametrize("sr", (sc.QNN, sc.Q, sc.BOOL, sc.F64),
                         ids=lambda s: s.name)
def test_distributions_are_pinned(corpus_entries, sr):
    """Every leaf of distribution and every aggregated value, in order,
    with each weight's type and numerator and denominator (or its float):
    any change to a leaf, to its order or to a weight's value or type
    shows as a new digest."""
    h = hashlib.sha256()
    for t in _sr_fork_terms(sr) + _sr_corpus_terms(corpus_entries, sr):
        d = sc.distribution(t, sr)
        for part in (d.items, d.aggregate(sr)):
            h.update(f"{_exactly(part)}\n".encode())
    assert h.hexdigest() == _DISTRIBUTION_PINS[sr.name]


@pytest.mark.parametrize("sr", (sc.Q, sc.BOOL, sc.F64), ids=lambda s: s.name)
def test_fork_distributions_match_naive_reference(sr):
    """Under each carrier besides qnn, on fork chains and trees whose
    shared segments include those of one repeated fork, the leaves equal
    the naive reference's, which multiplies along each path from the
    root, item by item with each weight's type.  paths, which runs its
    own loop, equals the reference's paths too."""
    for t in _sr_fork_terms(sr):
        ref = _ref_paths(t, semiring=sr)
        want = _leaves(ref)
        assert _exactly(sc.distribution(t, sr).items) == _exactly(
            want.items), sc.print_term(t)
        if len(ref) < 4096:  # 12 forks: each path keeps every whole term
            assert sc.paths(t, sr) == ref, sc.print_term(t)


def test_segments_are_shared_under_every_carrier(monkeypatch):
    """A float word is the tuple of its fork weights, so an inexact
    carrier shares segments as the exact ones do: on the fork terms,
    distribution makes as many contract and _plug calls under q, bool and
    f64 as under qnn."""
    contract, plug = R.contract, R._plug
    calls = {}

    def counted_contract(u, semiring):
        calls["contract"] += 1
        return contract(u, semiring)

    def counted_plug(parent, i, child):
        calls["plug"] += 1
        return plug(parent, i, child)

    monkeypatch.setattr(R, "contract", counted_contract)
    monkeypatch.setattr(R, "_plug", counted_plug)
    counts = {}
    for sr in (sc.QNN, sc.Q, sc.BOOL, sc.F64):
        calls.update(contract=0, plug=0)
        for t in _sr_fork_terms(sr):
            sc.distribution(t, sr)
        counts[sr.name] = dict(calls)
    assert counts["qnn"]["contract"] > 0 and counts["qnn"]["plug"] > 0
    assert all(c == counts["qnn"] for c in counts.values()), counts


# ---------------------------------------------------------------------------
# Contraction at the plug: a reader of a stored segment contracts a node
# whose eliminated child it replaces without building the redex node


def _shape_rules():
    """Every (eliminating class, subterm class, rule) of _SHAPES."""
    return {(cls, sub, rule) for cls, (_, _, cases) in R._SHAPES.items()
            for sub, rules in cases.items() for rule, _, _ in rules}


@pytest.mark.parametrize("sr", (sc.QNN, sc.F64), ids=lambda s: s.name)
def test_contractions_read_the_eliminated_subterm_only_as_their_argument(
        corpus_entries, sr):
    """make(t, a) equals make(t', a), where t' is t with a hole for its
    eliminated subterm a, for every rule of every redex of the shape
    sweep, the corpus and 300 generated terms; and the eliminated field is
    child 0 of every eliminating class.  So a contraction may be made from
    a node that still holds a stale child there."""
    for cls, (field, _, _) in R._SHAPES.items():
        assert S._CHILDREN[cls][0] == field
    swept = list(_shape_sweep())
    terms = _sr_corpus_terms(corpus_entries, sr)
    nodes = swept + [u for t in terms for u in S.nodes(t)]
    seen, redexes = set(), 0
    for k, u in enumerate(nodes):
        if not R.is_redex(u):
            continue
        field, _, cases = R._SHAPES[type(u)]
        a = getattr(u, field)
        stale = S._rebuild(u, {field: S.Hole()})
        for rule, _, make in cases[type(a)]:
            assert make(u, a, sr) == make(stale, a, sr), (
                rule, sc.print_term(u))
            if k < len(swept):
                seen.add((type(u), type(a), rule))
        redexes += k >= len(swept)
    assert seen == _shape_rules()
    assert redexes > 500


@pytest.mark.parametrize("sr", (sc.QNN, sc.F64), ids=lambda s: s.name)
def test_distribution_builds_no_redex_only_to_contract_it(
        corpus_entries, sr, monkeypatch):
    """While distribution runs, no node that _plug returns is a
    deterministic redex whose eliminated child (child 0) is the plugged
    one: such a step is contracted at the plug instead.  contract is never
    asked about a node without subterms, and aggregate returns an unmerged
    value's leaf as the very tuple of the distribution."""
    plug, contract = R._plug, R.contract
    plugs = 0

    def spied_plug(parent, i, child):
        nonlocal plugs
        u = plug(parent, i, child)
        plugs += 1
        assert i != 0 or len(contract(u, sr)) != 1, sc.print_term(u)
        return u

    def spied_contract(u, semiring):
        assert S._CHILDREN[type(u)], sc.print_term(u)
        return contract(u, semiring)

    monkeypatch.setattr(R, "_plug", spied_plug)
    monkeypatch.setattr(R, "contract", spied_contract)
    shared = 0
    for t in _sr_fork_terms(sr) + _sr_corpus_terms(corpus_entries, sr):
        d = sc.distribution(t, sr)
        leaves = {id(leaf) for leaf in d.items}
        shared += sum(id(v) in leaves for v in d.aggregate(sr))
    assert plugs > 1000 and shared > 100
