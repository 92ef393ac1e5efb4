"""Linear type checking, derivations, and subject reduction."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as F

import hashlib
import json

import pytest

import supcalc as sc
from supcalc import checker as C
from supcalc import rewrite as R
from supcalc import syntax as S
from supcalc.cli import _derivation_json
from supcalc.gen import TermGenerator
from supcalc.semiring import SemiringError
from conftest import naive_free_vars


def check(src, type_src=None, ctx_src=""):
    ctx = sc.parse_context(ctx_src)
    expected = sc.parse_prop(type_src) if type_src else None
    return sc.typecheck(ctx, sc.parse_term(src), expected)


# ---------------------------------------------------------------------------
# rule schemas


def test_axiom():
    d = check("x", ctx_src="x:one (+) one")
    assert d.rule == "ax"
    assert d.prop == sc.parse_prop("one (+) one")


def test_star_types_at_one():
    d = check("star(2)")
    assert d.rule == "one_i" and d.prop == S.One()


def test_tensor_cannot_duplicate():
    with pytest.raises(C.LinearViolation):
        check("tens(x,x)", ctx_src="x:one")


def test_additive_sharing_is_fine():
    d = check("pair(x,x)", ctx_src="x:one")
    assert d.prop == sc.parse_prop("one & one")
    d = check("sum(x,x)", ctx_src="x:one")
    assert d.prop == S.One()


def test_unused_variable_rejected():
    with pytest.raises(C.LinearViolation):
        check("star(1)", ctx_src="x:one")
    with pytest.raises(C.LinearViolation):
        check("y", ctx_src="x:one, y:one")


def test_unbound_variable():
    with pytest.raises(C.UnboundVariable):
        check("x")


def test_top_absorbs_everything():
    d = check("unit", ctx_src="x:one, y:one & one")
    assert d.rule == "top_i" and d.prop == S.Top()


def test_zero_elim_absorbs_the_rest():
    d = check("lam(z,zero_elim(z))", "zero -o one")
    assert d.prop == sc.parse_prop("zero -o one")
    d = check("lam(z,lam(w,zero_elim(z)))", "zero -o one -o one")
    assert d.children[0].children[0].rule == "zero_e"


def test_weight_error():
    t = S.SupElim(F(1, 2), F(1, 4),
                  S.SupPair(S.Star(F(1)), S.Star(F(2))),
                  "x", S.Var("x"), "y", S.Var("y"))
    with pytest.raises(sc.WeightError):
        sc.typecheck((), t)


def test_exchange_is_silent_but_recorded():
    d = check("tens(y,x)", ctx_src="x:one, y:one & one")
    assert d.rule == "tens_i"
    assert d.split.left == ("y",) and d.split.right == ("x",)
    assert d.split.perm == (1, 0)


def test_uniqueness_of_inferred_types():
    for src, ctx in [("sum(fst(x),snd(x))", "x:one & one"),
                     ("case(z,a.a,b.scal(2,b))", "z:one (+) one")]:
        d1 = check(src, ctx_src=ctx)
        d2 = check(src, ctx_src=ctx)
        assert d1.prop == d2.prop


# ---------------------------------------------------------------------------
# bidirectional checking and annotations


def test_bare_lam_needs_a_goal():
    with pytest.raises(C.AmbiguousType):
        check("lam(x,x)")
    assert check("lam(x,x)", "one -o one").prop == sc.parse_prop("one -o one")


def test_annotated_lam_infers():
    d = check("lam{one & one}(x,x)")
    assert d.prop == sc.parse_prop("(one & one) -o (one & one)")


def test_annotation_mismatch():
    with pytest.raises(C.TypeMismatch):
        check("lam{one}(x,x)", "(one & one) -o (one & one)")


def test_bare_injection_needs_a_goal():
    with pytest.raises(C.AmbiguousType) as info:
        check("inl(star(1))")
    assert str(info.value) == ("cannot infer the right component of "
                               "inl(star(1)); annotate as inl{B}(t)")
    with pytest.raises(C.AmbiguousType) as info:
        check("inr(star(1))")
    assert str(info.value) == ("cannot infer the left component of "
                               "inr(star(1)); annotate as inr{A}(t)")
    assert check("inl(star(1))", "one (+) top").prop == \
        sc.parse_prop("one (+) top")
    assert check("inl{top}(star(1))").prop == sc.parse_prop("one (+) top")


def test_redex_application_types_without_annotation():
    d = check("app(lam(x,x),star(5))")
    assert d.prop == S.One()


def test_curried_redex_application():
    d = check("app(app(lam(x,lam(y,unit_elim(x,y))),star(2)),star(3))", "one")
    assert d.prop == S.One()


def test_binder_shadowing_rejected():
    with pytest.raises(C.TypingError):
        check("lam(x,lam(x,unit_elim(x,x)))", "one -o one -o one")
    # the bare function of a redex absorbs x, which its binder then shadows
    with pytest.raises(C.TypingError) as info:
        check("app(lam(x,unit_elim(x,unit)),star(1))", ctx_src="x:top")
    assert type(info.value) is C.TypingError
    assert str(info.value) == "binder x shadows a context variable"


def test_duplicate_context_rejected():
    with pytest.raises(C.TypingError):
        sc.typecheck((("x", S.One()), ("x", S.One())), S.Var("x"))


# ---------------------------------------------------------------------------
# derivation validation


def test_validate_roundtrip(corpus_entries):
    for e in corpus_entries[:25]:
        d = sc.typecheck(e.ctx, e.term, e.prop)
        assert sc.validate(d).ok


def test_validate_rejects_mismatched_additive_contexts():
    d = check("pair(x,x)", ctx_src="x:one")
    wrong_child = replace(d.children[1], ctx=(("y", S.One()),),
                          term=S.Var("y"))
    bad = replace(d, children=(d.children[0], wrong_child))
    report = sc.validate(bad)
    assert not report.ok


def test_validate_rejects_dropped_split_variable():
    d = check("tens(x,y)", ctx_src="x:one, y:one")
    bad_plan = replace(d.split, right=(), perm=(0,))
    bad = replace(d, split=bad_plan)
    report = sc.validate(bad)
    assert not report.ok
    assert any("exhaust" in p or "permutation" in p for p in report.problems)


def test_validate_rejects_a_coherent_plan_that_is_not_the_checkers():
    d = check("tens(y,x)", ctx_src="x:one & one, y:one & one")
    assert d.split == C.SplitPlan(("y",), ("x",), (1, 0))
    wrong = replace(d, split=C.SplitPlan(("x",), ("y",), (0, 1)))
    # coherent, but it routes x to y's premise: it denotes the identity
    # where the term denotes the swap
    assert not sc.denote(wrong).matrix.equal(sc.denote(d).matrix)
    assert not sc.validate(wrong).ok
    assert not sc.validate(replace(d, split=None)).ok


def test_validate_rejects_wrong_rule_tag():
    d = check("star(1)")
    report = sc.validate(replace(d, rule="top_i"))
    assert not report.ok


def _nodes(d, path=()):
    yield path, d
    for i, c in enumerate(d.children):
        yield from _nodes(c, path + (i,))


def _put(d, path, node):
    """d with the node at path replaced."""
    if not path:
        return node
    kids = list(d.children)
    kids[path[0]] = _put(kids[path[0]], path[1:], node)
    return replace(d, children=tuple(kids))


def _mutants(n):
    """Tampered copies of one derivation node, each of them invalid."""
    tags = C.RULE_TAGS
    yield "rule tag", replace(n, rule=tags[(tags.index(n.rule) + 1) % len(tags)])
    yield "conclusion", replace(n, prop=S.With(n.prop, n.prop))
    if n.children:
        yield "dropped child", replace(n, children=n.children[:-1])
        c = n.children[0]
        wider = replace(c, ctx=c.ctx + (("fresh_", S.One()),))
        yield "child context", replace(n, children=(wider,) + n.children[1:])
    if n.split is not None and len(n.split.perm) > 1:
        perm = tuple(reversed(n.split.perm))
        yield "split permutation", replace(n, split=replace(n.split, perm=perm))
    if n.split is not None and (n.split.left or n.split.right):
        names = [x for x, _ in n.ctx]
        left, right = n.split.right, n.split.left
        perm = tuple(names.index(x) for x in left + right)
        yield "swapped parts", replace(n, split=C.SplitPlan(left, right, perm))
    if n.ctx:
        yield "context entry", replace(n, ctx=n.ctx[:-1])


def test_validate_rejects_every_mutant(corpus_entries):
    derivations = [sc.typecheck(e.ctx, e.term, e.prop) for e in corpus_entries]
    gen = TermGenerator(seed=37, max_depth=2)
    for _ in range(100):
        t, a = gen.closed()
        derivations.append(sc.typecheck((), t, a))
    kinds = set()
    for d in derivations:
        for path, node in _nodes(d):
            for kind, mutant in _mutants(node):
                kinds.add(kind)
                report = sc.validate(_put(d, path, mutant))
                assert not report.ok, (kind, path, sc.print_term(d.term))
                assert report.problems
    assert len(kinds) == 7


def test_validate_typechecks_a_valid_derivation_once(monkeypatch):
    d = check("sup_elim{1/2,1/2}(sup(pair(star(1),unit),pair(star(2),unit)),"
              "x.fst(x),y.snd(pair(unit,fst(y))))", "one")
    calls = []
    real = C.typecheck

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(C, "typecheck", counting)
    assert sc.validate(d).ok
    assert len(calls) == 1


def _absorbs_by_cases(t):
    """can_absorb written out form by form, as a reference."""
    if isinstance(t, S.Unit):
        return True
    if isinstance(t, S.ZeroElim):
        return True
    if isinstance(t, (S.Sum, S.Pair, S.SupPair)):
        return _absorbs_by_cases(t.left) and _absorbs_by_cases(t.right)
    if isinstance(t, S.Scal):
        return _absorbs_by_cases(t.body)
    if isinstance(t, S.Lam):
        return _absorbs_by_cases(t.body)
    if isinstance(t, (S.Fst, S.Snd)):
        return _absorbs_by_cases(t.pair)
    if isinstance(t, (S.SupFst, S.SupSnd)):
        return _absorbs_by_cases(t.pair)
    if isinstance(t, (S.Inl, S.Inr)):
        return _absorbs_by_cases(t.body)
    if isinstance(t, S.Tens):
        return _absorbs_by_cases(t.left) or _absorbs_by_cases(t.right)
    if isinstance(t, S.App):
        return _absorbs_by_cases(t.fn) or _absorbs_by_cases(t.arg)
    if isinstance(t, S.UnitElim):
        return _absorbs_by_cases(t.unit) or _absorbs_by_cases(t.body)
    if isinstance(t, S.TensElim):
        return _absorbs_by_cases(t.pair) or _absorbs_by_cases(t.body)
    if isinstance(t, (S.Case, S.SupElim)):
        return _absorbs_by_cases(t.scrutinee) or (
            _absorbs_by_cases(t.left_body) and _absorbs_by_cases(t.right_body))
    return False


def test_can_absorb_matches_the_form_by_form_reference(corpus_entries):
    terms = [e.term for e in corpus_entries]
    gen = TermGenerator(seed=11, allow_sup_elim=True, max_depth=4)
    terms += [gen.closed()[0] for _ in range(300)]
    seen = {True: 0, False: 0}
    for t in terms:
        for _, u in S.subterms(t):
            assert C.can_absorb(u) == _absorbs_by_cases(u), sc.print_term(u)
            seen[C.can_absorb(u)] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("src, message", [
    ("fst(star(1))", "star(1) has type one, expected a with-pair"),
    ("supsnd(pair(star(1),star(1)))",
     "pair(star(1),star(1)) has type one & one, expected a sup-pair"),
])
def test_projection_of_a_non_pair(src, message):
    with pytest.raises(C.TypeMismatch) as info:
        check(src)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# exact resource use


def _leaf_uses(d, counts):
    if d.rule == "ax":
        counts[d.ctx[0][0]] = counts.get(d.ctx[0][0], 0) + 1
    for c in d.children:
        _leaf_uses(c, counts)


def test_exact_resource_use():
    # in additive branches the same variable may appear in several leaves,
    # but along any single branch each variable is consumed exactly once;
    # with no additive rules the leaf count is exactly one per variable
    d = check("unit_elim(x,scal(2,y))", ctx_src="x:one, y:one")
    counts = {}
    _leaf_uses(d, counts)
    assert counts == {"x": 1, "y": 1}


# ---------------------------------------------------------------------------
# subject reduction


def test_subject_reduction_unit_elim():
    t = sc.parse_term("unit_elim(star(2),star(3))")
    report = sc.check_subject_reduction(t)
    assert report.ok and report.steps == 1
    (step, reduct), = sc.step_all(t)
    assert sc.print_term(reduct) == "scal(2,star(3))"
    assert sc.typecheck((), reduct).prop == S.One()


def test_subject_reduction_normal_form_is_vacuous():
    report = sc.check_subject_reduction(sc.parse_term("star(1)"))
    assert report.ok and report.steps == 0


def test_subject_reduction_sup_branches():
    t = sc.parse_term("sup_elim{1/4,3/4}(sup(star(1),star(2)),x.x,y.y)")
    report = sc.check_subject_reduction(t)
    assert report.ok and report.steps == 2


def test_subject_reduction_on_corpus(corpus_entries):
    for e in corpus_entries:
        report = sc.check_subject_reduction(e.term, (), sc.QNN, expected=e.prop)
        assert report.ok, (e.name, report.findings)


def test_subject_reduction_on_generated_terms():
    gen = TermGenerator(seed=23, max_depth=5)
    for _ in range(60):
        t, a = gen.closed()
        report = sc.check_subject_reduction(t, (), sc.QNN, expected=a)
        assert report.ok, (sc.print_term(t), report.findings)


def test_generated_terms_typecheck_and_validate():
    gen = TermGenerator(seed=31, max_depth=5)
    for _ in range(60):
        t, a = gen.closed()
        d = sc.typecheck((), t, a)
        assert sc.validate(d).ok


def test_checker_memo_agrees_with_free_vars_and_can_absorb(corpus_entries):
    # the free variables and absorption a check leaves on the nodes are
    # those worked out from scratch
    judgments = [(e.ctx, e.term, e.prop) for e in corpus_entries]
    gen = TermGenerator(seed=12, allow_sup_elim=True, max_depth=4)
    judgments += [((), *gen.closed()) for _ in range(100)]
    for ctx, t, a in judgments:
        sc.typecheck(ctx, t, a)
        for _, u in S.subterms(t):
            assert S.free_vars(u) == naive_free_vars(u), sc.print_term(u)
            assert C.can_absorb(u) == _absorbs_by_cases(u), sc.print_term(u)


def test_context_splits_are_linear_in_nesting_depth(monkeypatch):
    # each node works out its free variables once, so free_vars (its
    # recursive calls included) is asked a bounded number of times per node
    real = S.free_vars
    calls = 0

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(S, "free_vars", counting)

    def calls_at(depth):
        nonlocal calls
        src = "star(1)"
        for _ in range(depth):
            src = f"unit_elim(star(1),{src})"
        t = sc.parse_term(src)
        calls = 0
        d = sc.typecheck((), t, sc.One())
        assert d.rule == "one_e" and d.children[1].rule == "one_e"
        return calls

    at_500, at_1000 = calls_at(500), calls_at(1000)
    assert 0 < at_500 and at_1000 < 2.5 * at_500


# ---------------------------------------------------------------------------
# derivations kept by judgment


def test_a_shared_object_is_derived_in_each_of_its_contexts():
    # the left unit absorbs x, the right one is typed in the empty context
    u = S.Unit()
    ctx = sc.parse_context("x:one")
    d = sc.typecheck(ctx, S.Tens(u, u))
    assert [k.ctx for k in d.children] == [ctx, ()]
    copy = sc.typecheck(ctx, S.Tens(S.Unit(), S.Unit()))
    assert d == copy
    assert sc.validate(d).ok
    assert sc.denote(d).matrix.equal(sc.denote(copy).matrix)


def test_a_shared_object_is_derived_at_each_expected_type():
    ident = S.Lam("x", S.Var("x"))
    a = sc.parse_prop("(one -o one) & ((one & one) -o (one & one))")
    d = sc.typecheck((), S.Pair(ident, ident), a)
    assert d.prop == a
    copy = sc.typecheck((), sc.parse_term("pair(lam(x,x),lam(x,x))"), a)
    assert d == copy
    assert sc.validate(d).ok
    # one term object, two derivations, two matrices (1x1 and 4x1)
    assert sc.denote(d).matrix.equal(sc.denote(copy).matrix)


def test_a_derivation_is_returned_in_its_own_semiring_only():
    t = sc.parse_term("app(lam(x,pair(x,unit)),star(1))")
    d = sc.typecheck((), t, None, sc.QNN)
    assert sc.typecheck((), t, None, sc.QNN) is d
    for semiring in (sc.BOOL, sc.F64):
        other = sc.typecheck((), t, None, semiring)
        assert other is not d and other == d
    # the other semirings' derivations replaced the link, so qnn derives
    # again, and its new derivation is kept
    again = sc.typecheck((), t, None, sc.QNN)
    assert again is not d and again == d
    assert sc.typecheck((), t, None, sc.QNN) is again


def test_a_copy_of_a_term_gets_a_derivation_of_its_own():
    import copy
    import pickle

    t = sc.parse_term("lam(x,tens(x,unit))")
    a = sc.parse_prop("one -o one (*) top")
    d = sc.typecheck((), t, a)
    dup = copy.copy(t)
    got = sc.typecheck((), dup, a)
    assert got.term is dup and got is not d and got == d
    assert sc.typecheck((), t, a) is d
    # a derivation that keeps its matrix still copies and pickles
    sc.denote(d)
    for made in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert made == d and made._mat is None


def test_an_equal_term_that_is_another_object_is_derived_afresh():
    t = sc.parse_term("sup_elim{1/2,1/2}(sup(star(1),star(2)),x.x,y.y)")
    d = sc.typecheck((), t)
    u = sc.parse_term(sc.print_term(t))
    assert u == t and u is not t
    got = sc.typecheck((), u)
    assert got == d and got is not d and got.term is u
    for a, b in zip(S.nodes(d.term), S.nodes(got.term)):
        assert a is not b


def test_failures_are_not_kept():
    t = sc.parse_term("pair(star(1),unit)")
    right, wrong = sc.parse_prop("one & top"), sc.parse_prop("one & one")
    with pytest.raises(C.TypeMismatch):
        sc.typecheck((), t, wrong)
    d = sc.typecheck((), t, right)
    with pytest.raises(C.TypeMismatch):
        sc.typecheck((), t, wrong)
    assert sc.typecheck((), t, right) is d
    assert sc.typecheck((), t, None) is not d


def test_a_synthesized_derivation_serves_a_check_at_its_type_only():
    # checking a term against the type it synthesizes derives the same,
    # but a derivation checked against a type says nothing of synthesis:
    # a bare injection checks and does not synthesize
    t = sc.parse_term("pair(star(1),unit)")
    d = sc.typecheck((), t)
    assert sc.typecheck((), t, d.prop) is d
    with pytest.raises(C.TypeMismatch):
        sc.typecheck((), t, S.With(S.One(), S.One()))
    u = sc.parse_term("inl(star(1))")
    checked = sc.typecheck((), u, sc.parse_prop("one (+) top"))
    with pytest.raises(C.AmbiguousType):
        sc.typecheck((), u)
    assert sc.typecheck((), u, checked.prop) is checked


def fresh_subject_reduction(t, ctx, semiring, expected):
    """check_subject_reduction with a fresh typecheck call per reduct."""
    d = sc.typecheck(ctx, t, expected, semiring)
    findings = []
    steps = sc.step_all(t, semiring)
    for step, reduct in steps:
        try:
            sc.typecheck(ctx, reduct, d.prop, semiring)
        except C.TypingError as exc:
            findings.append(C.SRFinding(step.rule, step.pos, reduct,
                                        str(exc)))
    return C.SRReport(t, d.prop, len(steps), findings)


@pytest.mark.parametrize("broken", [False, True])
def test_subject_reduction_matches_a_fresh_typecheck_per_reduct(
        monkeypatch, corpus_entries, broken):
    if broken:
        # fst and supfst contract to their whole pair, which does not keep
        # the type
        contract = R.contract
        monkeypatch.setattr(R, "contract", lambda t, sr: [
            (r, w, t.pair if r in ("fst", "supfst") else c)
            for r, w, c in contract(t, sr)])
    gen = TermGenerator(seed=23, allow_sup_elim=True, max_depth=4)
    judgments = [(e.term, e.ctx, e.prop) for e in corpus_entries]
    judgments += [(t, (), a) for t, a in (gen.closed() for _ in range(300))]
    flagged = 0
    for t, ctx, a in judgments:
        got = C.check_subject_reduction(t, ctx, sc.QNN, a)
        assert got == fresh_subject_reduction(t, ctx, sc.QNN, a), (
            sc.print_term(t))
        flagged += len(got.findings)
    assert bool(flagged) == broken


# ---------------------------------------------------------------------------
# outcomes pinned


def _pinned_judgments(corpus_entries):
    """Each corpus entry and generated term at its type, with no type, at
    A & A and with an unused one or top variable, and up to 40 of its
    subterms alone in the empty context."""
    items = [(e.term, e.ctx, e.prop) for e in corpus_entries]
    gen = TermGenerator(seed=3, allow_sup_elim=True, max_depth=4)
    items += [(t, (), a) for t, a in (gen.closed() for _ in range(300))]
    for t, ctx, a in items:
        yield ctx, t, a
        yield ctx, t, None
        yield ctx, t, S.With(a, a)
        yield ctx + (("z_", S.One()),), t, a
        yield ctx + (("z_", S.Top()),), t, a
        for u in list(S.nodes(t))[:40]:
            yield (), u, None


def test_checker_outcomes_are_pinned(corpus_entries):
    # derivations with their split plans, and the class and message of
    # every error, in the order the checker meets them; a second pass over
    # the same term objects, which keep the first pass's facts and hold
    # links to its derivations, reads the same
    judgments = list(_pinned_judgments(corpus_entries))
    kept = []
    digests = []
    for first_pass in (True, False):
        reused = 0
        digest = hashlib.sha256()
        kinds = {}
        for semiring in (sc.QNN, sc.BOOL):
            for ctx, t, a in judgments:
                try:
                    d = sc.typecheck(ctx, t, a, semiring)
                except (C.TypingError, SemiringError) as exc:
                    kind = type(exc).__name__
                    outcome = f"{kind}: {exc}"
                else:
                    kind = "Derivation"
                    outcome = json.dumps(_derivation_json(d))
                    if first_pass:
                        kept.append(d)
                    else:
                        reused += id(d) in kept_ids
                kinds[kind] = kinds.get(kind, 0) + 1
                digest.update(outcome.encode() + b"\n")
        assert kinds == {"Derivation": 14582, "UnboundVariable": 7412,
                         "LinearViolation": 1310, "WeightError": 1147,
                         "TypeMismatch": 579, "AmbiguousType": 100}
        digests.append(digest.hexdigest())
        kept_ids = {id(d) for d in kept}
    assert reused > 0
    assert digests == 2 * [
        "0a207a47b6e612b42f3798fe9072e1bba0a2a3822e77fe09e41a3e15b1b0a3f1"]
