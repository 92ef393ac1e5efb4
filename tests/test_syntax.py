"""Parser, printer, substitution and term contexts."""

from __future__ import annotations

import gc
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcalc as sc
from supcalc import checker as C
from supcalc import rewrite as R
from supcalc import syntax as S
from supcalc.gen import TermGenerator
from conftest import naive_free_vars


# ---------------------------------------------------------------------------
# parsing


def test_parse_lollipop():
    assert sc.parse_prop("one -o one") == S.Lollipop(S.One(), S.One())


def test_parse_prop_precedence():
    # -o binds loosest and associates right; (*) binds tightest
    a = sc.parse_prop("one & one -o one (+) one -o one")
    assert a == S.Lollipop(
        S.With(S.One(), S.One()),
        S.Lollipop(S.Plus(S.One(), S.One()), S.One()))
    b = sc.parse_prop("one (+) one (*) one")
    assert b == S.Plus(S.One(), S.Tensor(S.One(), S.One()))


def test_parse_adequacy_term():
    t = sc.parse_term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)), x.x, y.y)")
    assert t == S.SupElim(F(1, 2), F(1, 2),
                          S.SupPair(S.Star(F(1, 2)), S.Star(F(1, 2))),
                          "x", S.Var("x"), "y", S.Var("y"))


def test_parse_bad_weights_rejected():
    with pytest.raises(S.ParseError) as exc:
        sc.parse_term("sup_elim{1/2,1/4}(sup(star(1),star(2)),x.x,y.y)")
    assert "sum to 1" in str(exc.value)


def test_parse_error_position_and_expectations():
    with pytest.raises(S.ParseError) as exc:
        sc.parse_term("pair(star(1)  star(2))")
    err = exc.value
    assert err.line == 1 and err.col == 15
    assert "," in err.expected


def test_parse_whitespace_insensitive():
    a = sc.parse_term("pair( star(1) ,\n  star(2) )")
    assert a == sc.parse_term("pair(star(1),star(2))")


def test_parse_zero_denominator():
    with pytest.raises(S.ParseError):
        sc.parse_term("star(1/0)")


@pytest.mark.parametrize("src, line, col", [
    ("star(²)", 1, 6), ("star(1/²)", 1, 8),
    ("pair(star(1),\n  star(1²))", 2, 9),
])
def test_a_non_decimal_digit_is_an_unexpected_character(src, line, col):
    # "²" is a digit to str.isdigit but not a decimal one; int() refuses it
    with pytest.raises(S.ParseError) as exc:
        sc.parse_term(src)
    err = exc.value
    assert str(err) == f"{line}:{col}: unexpected character '²'"
    assert (err.line, err.col, err.expected) == (line, col, ())


def test_fullwidth_decimal_digits_are_read():
    assert sc.parse_term("star(１/２)") == S.Star(F(1, 2))


def test_a_literal_beyond_the_int_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() has no digit limit in this interpreter")
    with pytest.raises(S.ParseError) as exc:
        sc.parse_term("star(1/" + "7" * (limit + 1) + ")")
    assert str(exc.value) == "1:6: scalar literal has too many digits"


def test_keywords_are_reserved():
    with pytest.raises(S.ParseError):
        sc.parse_term("lam(case, case)")


@pytest.mark.parametrize("parse, src", [
    (sc.parse_term, "sum(star(1)," * 19999 + "star(1)" + ")" * 19999),
    (sc.parse_prop, "(" * 20000 + "one" + ")" * 20000),
    (sc.parse_context, "x:" + "(" * 20000 + "one" + ")" * 20000),
], ids=["term", "prop", "context"])
def test_too_deep_input_is_a_parse_error_about_nesting(parse, src):
    with pytest.raises(S.ParseError) as exc:
        parse(src)
    message = str(exc.value)
    assert "nested too deeply" in message and "recursion" not in message
    # the position is a token inside the nesting, not the end of input
    assert exc.value.line == 1 and 1 < exc.value.col < len(src) // 2


def _nested_sums(depth):
    """A depth-deep chain of sums nested to the right: depth term forms."""
    return "sum(star(1)," * (depth - 1) + "star(1)" + ")" * (depth - 1)


def test_the_nesting_limit_is_counted_by_the_parser():
    # the deepest chain the parser reads, and one form more, refused at
    # the first token past the limit
    deepest = _nested_sums(S.MAX_NESTING)
    assert sc.print_term(sc.parse_term(deepest)) == deepest
    with pytest.raises(S.ParseError) as exc:
        sc.parse_term(_nested_sums(S.MAX_NESTING + 1))
    assert "nested too deeply" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (
        1, len("sum(star(1),") * (S.MAX_NESTING - 1) + len("sum(") + 1)


def test_the_nesting_error_position_does_not_depend_on_the_callers_stack():
    src = _nested_sums(15000)

    def position_at(frames):
        if frames:
            return position_at(frames - 1)
        with pytest.raises(S.ParseError) as exc:
            sc.parse_term(src)
        return exc.value.line, exc.value.col

    assert position_at(0) == position_at(300) == position_at(600)


@pytest.mark.parametrize("word", sorted(S.PROP_KEYWORDS))
def test_nullary_propositions_round_trip(word):
    a = S._NULLARY[word]()
    assert sc.print_prop(a) == word
    assert sc.parse_prop(sc.print_prop(a)) == a


# ---------------------------------------------------------------------------
# printing


def test_print_star():
    assert sc.print_term(S.Star(F(2))) == "star(2)"


def test_print_pair():
    assert sc.print_term(S.Pair(S.Star(F(1)), S.Star(F(2)))) == \
        "pair(star(1),star(2))"


def test_print_lam_roundtrip():
    t = S.Lam("x", S.Var("x"))
    assert sc.print_term(t) == "lam(x,x)"
    assert sc.alpha_eq(sc.parse_term(sc.print_term(t)), t)


def test_roundtrip_generated_terms():
    gen = TermGenerator(seed=5, max_depth=5)
    for _ in range(150):
        t, _ = gen.closed()
        assert sc.alpha_eq(sc.parse_term(sc.print_term(t)), t)


_props = st.recursive(
    st.sampled_from([S.One(), S.Top(), S.Zero()]),
    lambda kids: st.builds(S.Tensor, kids, kids)
    | st.builds(S.Lollipop, kids, kids)
    | st.builds(S.With, kids, kids)
    | st.builds(S.Plus, kids, kids)
    | st.builds(S.Sup, kids, kids),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_props)
def test_roundtrip_props(a):
    assert sc.parse_prop(sc.print_prop(a)) == a


def _former_print_prop(a, level=0):
    """The former definition: each level concatenates its operands'
    whole strings."""
    if type(a) in S._NULLARY_WORD:
        return S._NULLARY_WORD[type(a)]
    my = S._PROP_LEVEL[type(a)]
    op = f" {S._CONNECTIVE_WORD[type(a)]} "
    if isinstance(a, S.Lollipop):
        s = _former_print_prop(a.left, my + 1) + op + _former_print_prop(
            a.right, my)
    else:
        s = _former_print_prop(a.left, my) + op + _former_print_prop(
            a.right, my + 1)
    return f"({s})" if my < level else s


def _deep_props(depth):
    """Right- and left-nested chains of each connective, depth deep."""
    for conn in (S.Tensor, S.Lollipop, S.With, S.Plus, S.Sup):
        right = left = S.One()
        for _ in range(depth):
            right, left = conn(S.Top(), right), conn(left, S.Zero())
        yield right
        yield left


@settings(max_examples=300, deadline=None)
@given(_props)
def test_print_prop_matches_the_former_definition(a):
    assert sc.print_prop(a) == _former_print_prop(a)


def test_print_prop_matches_the_former_definition_on_deep_props():
    gen = TermGenerator(seed=9)
    props = [gen.random_prop(depth=4) for _ in range(200)]
    props += _deep_props(1500)
    for a in props:
        assert sc.print_prop(a) == _former_print_prop(a)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_variable_hit():
    v = S.Star(F(7))
    assert sc.substitute(v, "x", S.Var("x")) == v


def test_substitute_variable_miss():
    assert sc.substitute(S.Star(F(7)), "x", S.Var("y")) == S.Var("y")


def _debruijn(t, env):
    """Independent nameless-form oracle used to compare modulo alpha."""
    if isinstance(t, S.Var):
        return ("bound", env.index(t.name)) if t.name in env else ("free", t.name)
    parts = [type(t).__name__]
    for f in S.subterm_fields(t):
        bound = S.bound_names(t, f)
        parts.append(_debruijn(getattr(t, f), list(bound)[::-1] + env))
    for f in ("scalar", "p", "q"):
        if hasattr(t, f):
            parts.append(("scalar", getattr(t, f)))
    return tuple(parts)


def test_substitute_capture_avoiding():
    # (y/x) lam(y, sum(x, y)) must rename the binder
    t = S.Lam("y", S.Sum(S.Var("x"), S.Var("y")))
    out = sc.substitute(S.Var("y"), "x", t)
    expected = S.Lam("z", S.Sum(S.Var("y"), S.Var("z")))
    assert _debruijn(out, []) == _debruijn(expected, [])
    assert "y" in sc.free_vars(out)


def test_substitute_idempotent_without_free_occurrence():
    t = sc.parse_term("lam(x,pair(fst(x),snd(x)))")
    assert sc.substitute(S.Star(F(1)), "q", t) == t


def test_parallel_substitution_is_simultaneous():
    # (a/x, b/y) applied to tens(x,y) where a mentions the *name* y
    r = S.Tens(S.Var("x"), S.Var("y"))
    out = S.subst_parallel(r, {"x": S.Var("y"), "y": S.Star(F(3))})
    assert out == S.Tens(S.Var("y"), S.Star(F(3)))


def reference_subst_parallel(t, mapping):
    """The quadratic substitution subst_parallel replaced: the same
    algorithm, asking S.free_vars afresh at every node and binder."""
    mapping = {x: v for x, v in mapping.items() if v != S.Var(x)}
    if not mapping:
        return t
    if isinstance(t, S.Var):
        return mapping.get(t.name, t)
    if isinstance(t, S.Hole):
        return t
    relevant = {x: v for x, v in mapping.items() if x in S.free_vars(t)}
    if not relevant:
        return t
    updates = {}
    binder_spec = S._BINDERS.get(type(t), {})
    renames = {}
    for field in S.subterm_fields(t):
        body = getattr(t, field)
        bvars = binder_spec.get(field, ())
        local = {x: v for x, v in relevant.items()
                 if x not in {getattr(t, b) for b in bvars}}
        local = {x: v for x, v in local.items() if x in S.free_vars(body)}
        for b in bvars:
            bname = renames.get(b, getattr(t, b))
            clash = any(bname in S.free_vars(v) for v in local.values())
            if clash:
                taken = set(S.free_vars(body)) | set(local)
                taken |= {getattr(t, b2) for b2 in bvars}
                taken |= set(renames.values())
                for v in local.values():
                    taken |= S.free_vars(v)
                new_name = S.fresh_name(bname, taken)
                renames[b] = new_name
                body = reference_subst_parallel(
                    body, {getattr(t, b): S.Var(new_name)})
                local = {x: v for x, v in local.items()
                         if x in S.free_vars(body)}
        new_body = reference_subst_parallel(body, local) if local else body
        if new_body is not body or body is not getattr(t, field):
            updates[field] = new_body
    for b, new_name in renames.items():
        updates[b] = new_name
    return S._rebuild(t, updates) if updates else t


def _substitution_cases(t):
    """(body, mapping) pairs from every binder of t: each bound variable
    mapped to a variable named as a binder inside the body (which forces a
    renaming wherever the variable occurs under that binder), to a term
    with two such free names, and to a closed term; and a node's bound
    variables swapped, simultaneously."""
    for _, u in S.subterms(t):
        for field in S.subterm_fields(u):
            bound = S.bound_names(u, field)
            if not bound:
                continue
            body = getattr(u, field)
            inner = sorted({n for _, w in S.subterms(body)
                            for f in S.subterm_fields(w)
                            for n in S.bound_names(w, f)})
            images = [S.Var(n) for n in inner] + [S.Star(F(3))]
            if inner:
                images.append(S.Tens(S.Var(inner[0]), S.Var(inner[-1])))
            for x in bound:
                for v in images:
                    yield body, {x: v}
            if len(bound) == 2:
                x, y = bound
                yield body, {x: S.Var(y), y: S.Var(x)}


def _substitution_terms():
    terms = [e.term for e in sc.corpus()]
    gen = TermGenerator(seed=23, allow_sup_elim=True, max_depth=4)
    terms += [gen.closed()[0] for _ in range(300)]
    return terms


def test_subst_parallel_matches_the_quadratic_reference():
    cases = 0
    for t in _substitution_terms():
        for body, mapping in _substitution_cases(t):
            got = S.subst_parallel(body, mapping)
            assert got == reference_subst_parallel(body, mapping), (
                sc.print_term(body), mapping)
            cases += 1
    assert cases > 1000


def test_subst_parallel_rebuilds_only_the_paths_to_substituted_names():
    """Every input subterm whose free names are neither mapped nor bound
    anywhere in the body (a renamed binder maps its name too) is the same
    object in the output, and so is every image that substitution puts in
    place of a free name; a body with no free mapped name is returned as
    it is.  Step soundness reuses the root's derivation of such a subterm
    on the strength of this."""
    cases = kept = 0
    for t in _substitution_terms():
        for body, mapping in _substitution_cases(t):
            out = S.subst_parallel(body, mapping)
            present = {id(u) for u in S.nodes(out)}
            fv = S.free_vars(body)
            if fv.isdisjoint(mapping):
                assert out is body
            bound = {n for u in S.nodes(body)
                     for f in S.subterm_fields(u)
                     for n in S.bound_names(u, f)}
            unmoved = bound | set(mapping)
            for u in S.nodes(body):
                if S.free_vars(u).isdisjoint(unmoved):
                    assert id(u) in present, (sc.print_term(body), mapping,
                                              sc.print_term(u))
                    kept += 1
            for x, v in mapping.items():
                if x in fv and v != S.Var(x):
                    assert id(v) in present, (sc.print_term(body), mapping)
            cases += 1
    assert cases > 1000 and kept > 10_000


def test_subst_parallel_substitutes_under_an_8000_deep_binder_chain():
    # one stack frame per level, binder nodes included, so a chain nearly
    # as deep as the parser's nesting limit substitutes within the
    # recursion limit
    depth = 8000
    t = S.Var("x")
    for i in range(depth):
        t = S.Lam(f"y{i}", t)
    out = S.subst_parallel(t, {"x": S.Star(F(1))})
    for i in range(depth - 1, -1, -1):
        assert type(out) is S.Lam and out.var == f"y{i}"
        out = out.body
    assert out == S.Star(F(1))


def test_subst_parallel_renames_nested_binders_as_the_reference_does():
    # renaming the outer y to y1 captures y under the inner binder y1,
    # which the nested renaming then moves to y11
    body = sc.parse_term("lam(y,lam(y1,tens(x,tens(y,y1))))")
    mapping = {"x": S.Var("y")}
    out = S.subst_parallel(body, mapping)
    assert out == sc.parse_term("lam(y1,lam(y11,tens(y,tens(y1,y11))))")
    assert out == reference_subst_parallel(body, mapping)
    # a binder is renamed away from every image's free variables at once
    t = sc.parse_term("let_tens(p,a,b,tens(tens(a,b),tens(x,z)))")
    mapping = {"x": S.Tens(S.Var("a"), S.Var("b")), "z": S.Var("a1")}
    out = S.subst_parallel(t, mapping)
    assert out == reference_subst_parallel(t, mapping)
    assert out == sc.parse_term(
        "let_tens(p,a2,b1,tens(tens(a2,b1),tens(tens(a,b),a1)))")
    # the right branch's fresh name also avoids the left branch's
    t = sc.parse_term("case(s,y.tens(x,y),y.tens(x,y))")
    mapping = {"x": S.Var("y")}
    out = S.subst_parallel(t, mapping)
    assert out == reference_subst_parallel(t, mapping)
    assert out == sc.parse_term("case(s,y1.tens(y,y1),y2.tens(y,y2))")


def test_subst_parallel_is_linear_in_term_size(monkeypatch):
    # each node's free variables are worked out once per call, so
    # S.bound_names runs a fixed number of times per node
    real = S.bound_names
    calls = 0

    def counting(t, field):
        nonlocal calls
        calls += 1
        return real(t, field)

    monkeypatch.setattr(S, "bound_names", counting)

    def calls_at(depth):
        nonlocal calls
        t = S.Var("x")
        for i in range(depth):
            t = S.Lam(f"y{i}", S.Sum(S.Var("x"), t))
        calls = 0
        out = S.subst_parallel(t, {"x": S.Star(F(1))})
        made = calls
        assert "x" not in sc.free_vars(out)
        return made

    at_500, at_1000 = calls_at(500), calls_at(1000)
    assert 0 < at_500 and at_1000 < 2.5 * at_500


# ---------------------------------------------------------------------------
# term contexts


def test_fill_hole_is_identity_context():
    t = sc.parse_term("star(5)")
    assert sc.fill(S.Hole(), t) == t


def test_fill_one_layer():
    ab = sc.parse_term("pair(star(1),star(2))")
    assert sc.fill(S.Fst(S.Hole()), ab) == S.Fst(ab)
    lam = sc.parse_term("lam(x,x)")
    k = S.App(S.Hole(), S.Star(F(4)))
    assert sc.fill(k, lam) == S.App(lam, S.Star(F(4)))


def test_fill_is_textual_no_capture_avoidance():
    # the hole sits under a binder; plugging a term with that free variable
    # captures it, by definition
    k = S.Lam("x", S.Hole())
    assert sc.fill(k, S.Var("x")) == S.Lam("x", S.Var("x"))


def test_context_composition():
    outer = S.Fst(S.Hole())
    inner = S.App(S.Hole(), S.Star(F(1)))
    t = sc.parse_term("lam(x,pair(x,x))")
    composed = sc.compose_contexts(outer, inner)
    assert sc.fill(composed, t) == sc.fill(outer, sc.fill(inner, t))
    assert sc.hole_count(composed) == 1


def _ref_fill(context, t):
    """The former definition: asks hole_count of each child at every node
    it passes, so it is quadratic in the context's depth."""
    if isinstance(context, S.Hole):
        return t
    updates = {}
    for field in S.subterm_fields(context):
        child = getattr(context, field)
        if sc.hole_count(child):
            updates[field] = _ref_fill(child, t)
    return S._rebuild(context, updates) if updates else context


def test_fill_matches_the_former_definition(monkeypatch):
    deep = S.Hole()
    for _ in range(2000):
        deep = S.Fst(deep)
    contexts = [deep, S.Pair(S.Hole(), S.Hole()),
                S.Lam("x", S.App(S.Var("x"), S.Hole()))]
    gen = TermGenerator(seed=3)
    for _ in range(100):
        contexts += sc.enumerate_elim_contexts(gen.random_prop(depth=3), 3)
    assert len(contexts) > 100
    filler = sc.parse_term("pair(star(1),star(2))")
    want = [_ref_fill(k, filler) for k in contexts]
    # one pass: fill no longer asks hole_count
    monkeypatch.setattr(S, "hole_count", None)
    assert [sc.fill(k, filler) for k in contexts] == want
    ground = sc.parse_term("app(lam(x,x),star(3))")
    assert sc.fill(ground, filler) is ground


def test_hole_count():
    assert sc.hole_count(S.Hole()) == 1
    assert sc.hole_count(S.Pair(S.Hole(), S.Hole())) == 2
    assert sc.hole_count(sc.parse_term("star(1)")) == 0
    # deeper than the recursion limit, which fill handles too
    deep = S.Hole()
    for _ in range(12_000):
        deep = S.Fst(deep)
    assert sc.hole_count(deep) == 1
    assert sc.hole_count(S.Pair(deep, S.Hole())) == 2


def test_nodes_walks_subterms_in_order(corpus_entries):
    gen = TermGenerator(seed=3, allow_sup_elim=True, max_depth=4)
    terms = [e.term for e in corpus_entries] + [gen.closed()[0]
                                                for _ in range(100)]
    for t in terms:
        assert list(S.nodes(t)) == [u for _, u in S.subterms(t)]


def _fst_context(depth):
    deep = S.Hole()
    for _ in range(depth):
        deep = S.Fst(deep)
    return deep


@pytest.mark.parametrize("walk, want", [(sc.is_normal, True),
                                        (sc.hole_count, 1)])
def test_whole_term_walks_are_linear_in_depth(walk, want):
    # a walk that built a position per node would take time quadratic in
    # depth: 8 times the depth would then take about 64 times as long.
    # The two depths are timed in turn, so that a change in the host's
    # speed meets both.
    contexts = [_fst_context(depth) for depth in (3_000, 24_000)]
    times = [[], []]
    for _ in range(3):
        for deep, spent in zip(contexts, times):
            start = time.perf_counter()
            assert walk(deep) == want
            spent.append(time.perf_counter() - start)
    assert min(times[1]) < 24 * min(times[0])


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_eq_basic():
    assert sc.alpha_eq(sc.parse_term("lam(x,x)"), sc.parse_term("lam(y,y)"))
    assert not sc.alpha_eq(sc.parse_term("lam(x,x)"),
                           sc.parse_term("lam(x,scal(2,x))"))


def test_alpha_eq_tracks_binder_structure():
    a = sc.parse_term("lam(x,lam(y,tens(x,y)))")
    b = sc.parse_term("lam(y,lam(x,tens(y,x)))")
    c = sc.parse_term("lam(x,lam(y,tens(y,x)))")
    assert sc.alpha_eq(a, b)
    assert not sc.alpha_eq(a, c)


def test_canonical_is_alpha_invariant():
    a = sc.parse_term("lam(u,case(inl{one}(u),p.p,q.scal(2,q)))")
    b = sc.parse_term("lam(w,case(inl{one}(w),r.r,s.scal(2,s)))")
    assert sc.canonical(a) == sc.canonical(b)


def test_canonical_binders_capture_no_free_name():
    """A free name spelled like a canonical binder name stays free, so
    values that differ up to alpha keep distinct keys and are not merged;
    the renaming still handles a 9000-deep binder chain (of one name, so
    that its environment stays small)."""
    a, b = sc.parse_term("lam(x,v0)"), sc.parse_term("lam(x,x)")
    assert not sc.alpha_eq(a, b)
    assert sc.canonical(a) != sc.canonical(b)
    assert sc.alpha_eq(sc.canonical(a), a)
    assert sc.canonical(sc.parse_term("lam(y,v0)")) == sc.canonical(a)
    t = sc.parse_term("sup_elim{1/2,1/2}(sup(lam(x,v0),lam(x,x)),p.p,q.q)")
    assert sc.distribution(t).aggregate(sc.QNN) == [
        (F(1, 2), b), (F(1, 2), a)]
    deep = S.Var("v3")
    for i in range(9000):
        deep = S.Lam("x", deep)
    u = sc.canonical(deep)
    for i in range(9000):
        assert u.var == f"vv{i}"
        u = u.body
    assert u == S.Var("v3")
    assert len(sc.Distribution(((F(1), deep),)).aggregate(sc.QNN)) == 1


# the fields that name a binder, per class, which the former alpha_eq
# skipped and _binder_names reads
_BINDER_FIELDS = {cls: {v for vs in S._BINDERS.get(cls, {}).values() for v in vs}
                  for cls in S._TERM_CLASSES}


def _former_alpha_eq(t, u):
    """alpha_eq as it was, copying both environments at every binder."""
    return _former_alpha(t, u, {}, {}, 0)


def _former_alpha(t, u, envt, envu, depth):
    if type(t) is not type(u):
        return False
    if isinstance(t, S.Var):
        return envt.get(t.name, t.name) == envu.get(u.name, u.name)
    for name in S._FIELDS[type(t)]:
        a, b = getattr(t, name), getattr(u, name)
        if isinstance(a, S.Term):
            et, eu, d = envt, envu, depth
            for x, y in zip(S.bound_names(t, name), S.bound_names(u, name)):
                et = {**et, x: d}
                eu = {**eu, y: d}
                d += 1
            if not _former_alpha(a, b, et, eu, d):
                return False
        elif isinstance(a, str) and name in _BINDER_FIELDS[type(t)]:
            continue
        elif a != b:
            return False
    return True


def _former_canonical(t):
    """canonical as it was, copying its environment for every field."""
    prefix = "v"
    names = []
    free = set()

    def go(u, env):
        if isinstance(u, S.Var):
            if u.name in env:
                return S.Var(env[u.name])
            free.add(u.name)
            return u
        updates = {}
        spec = S._BINDERS.get(type(u), {})
        for field in S.subterm_fields(u):
            local = dict(env)
            for b in spec.get(field, ()):
                new = f"{prefix}{len(names)}"
                names.append(new)
                local[getattr(u, b)] = new
                updates[b] = new
            updates[field] = go(getattr(u, field), local)
        return S._rebuild(u, updates) if updates else u

    out = go(t, {})
    while not free.isdisjoint(names):
        prefix += "v"
        names.clear()
        out = go(t, {})
    return out


def _agrees_with_the_former_definitions(t, u):
    assert sc.canonical(t) == _former_canonical(t)
    for a, b in ((t, u), (t, sc.canonical(t)), (u, sc.canonical(t)),
                 (sc.canonical(t), sc.canonical(u)), (t, t)):
        assert sc.alpha_eq(a, b) == _former_alpha_eq(a, b)


def test_canonical_and_alpha_eq_match_the_former_definitions(corpus_entries):
    terms = [e.term for e in corpus_entries]
    gen = TermGenerator(seed=41, allow_sup_elim=True, max_depth=4)
    terms += [gen.closed()[0] for _ in range(200)]
    for t, u in zip(terms, terms[1:] + terms[:1]):
        _agrees_with_the_former_definitions(t, u)


# binders that shadow one another, and free names spelled like the
# canonical binder names
_ALPHA_NAMES = st.sampled_from(["x", "y", "v0", "v1", "vv0"])
_ALPHA_TERMS = st.recursive(
    st.one_of(_ALPHA_NAMES.map(S.Var), st.just(S.Unit())),
    lambda t: st.builds(S.Lam, _ALPHA_NAMES, t)
    | st.builds(S.Tens, t, t)
    | st.builds(S.TensElim, t, _ALPHA_NAMES, _ALPHA_NAMES, t)
    | st.builds(S.Case, t, _ALPHA_NAMES, t, _ALPHA_NAMES, t),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_ALPHA_TERMS, _ALPHA_TERMS)
def test_canonical_and_alpha_eq_match_the_former_definitions_on_shadowing(
        t, u):
    _agrees_with_the_former_definitions(t, u)


@pytest.mark.parametrize("walk", [sc.canonical,
                                  lambda t: sc.alpha_eq(t, t)])
def test_canonical_and_alpha_eq_are_linear_in_binder_depth(walk):
    # copying an environment per binder would take time quadratic in the
    # depth of a chain of distinct binders: 4 times the depth would then
    # take about 16 times as long.  Both chains are built first and timed
    # in turn, so that a change in the host's speed meets both, with the
    # collector off during each timed walk.
    def chain(depth):
        deep = S.Var("x0")
        for i in range(depth):
            deep = S.Lam(f"x{i}", deep)
        return deep

    chains = [chain(depth) for depth in (2_000, 8_000)]
    times = [[], []]
    for _ in range(5):
        for deep, spent in zip(chains, times):
            gc.disable()
            try:
                start = time.perf_counter()
                walk(deep)
                spent.append(time.perf_counter() - start)
            finally:
                gc.enable()
    assert min(times[1]) < 8 * min(times[0])


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_alpha_eq_holds_at_the_nesting_limit(nesting):
    """Two parses of a MAX_NESTING-deep sum chain, whose bottom binders
    are named apart, are alike; a free bottom variable tells them apart.
    alpha_eq goes through canonical and the printer at every depth."""
    def chain(bottom):
        n = S.MAX_NESTING - 1
        if nesting == "right":
            return "sum(star(1)," * n + bottom + ")" * n
        return "sum(" * n + bottom + ",star(1))" * n

    a = sc.parse_term(chain("lam(x,x)"))
    assert sc.alpha_eq(a, sc.parse_term(chain("lam(x,x)")))
    assert sc.alpha_eq(a, sc.parse_term(chain("lam(y,y)")))
    assert not sc.alpha_eq(a, sc.parse_term(chain("lam(y,x)")))


def test_alpha_eq_holds_on_a_deep_chain_of_distinct_binders():
    def chain(bottom):
        for i in range(9000):
            bottom = S.Lam(f"x{i}", bottom)
        return bottom

    t = chain(S.Var("x0"))
    assert sc.alpha_eq(t, sc.canonical(t))
    assert not sc.alpha_eq(chain(S.Var("y")), sc.canonical(t))


def test_sup_is_distinct_from_with():
    assert S.Sup(S.One(), S.One()) != S.With(S.One(), S.One())
    assert sc.parse_prop("one (o) one") != sc.parse_prop("one & one")


# ---------------------------------------------------------------------------
# facts kept on nodes


def _facts(u):
    """The names of the facts node u keeps: those not unset (None)."""
    return [name for name in S.Term.__slots__ if getattr(u, name) is not None]


def _prime(t):
    """Every node of t made to work out its free variables and absorption."""
    for u in S.nodes(t):
        sc.free_vars(u)
        C.can_absorb(u)


def _binder_names(t):
    return {getattr(u, b) for u in S.nodes(t) for b in _BINDER_FIELDS[type(u)]}


def _made_from(t):
    """(inputs, output, asks) triples: each term made from t by contraction
    at a position, by substitution (see _substitution_cases), and by
    replace_at and fill at up to 20 positions spread over t, with the terms
    it was made from, all primed, and whether making it asks for free
    variables (substitution does, of the nodes it has made so far too)."""
    positions = list(S.subterms(t))
    for pos, u in positions:
        for _, _, c in R.contract(u, sc.QNN):
            yield (u,), c, True
    for pos, u in positions[::-(-len(positions) // 20)]:
        yield (t,), S.replace_at(t, pos, S.Unit()), False
        context = S.replace_at(t, pos, S.Hole())
        _prime(context)
        yield (context, u), S.fill(context, u), False
    for body, mapping in _substitution_cases(t):
        for v in mapping.values():
            _prime(v)
        yield (body, *mapping.values()), S.subst_parallel(body, mapping), True


def _check_made_nodes_inherit_no_fact(t):
    """No node of a term made from primed t that is not a node of its
    inputs keeps a fact, except the free variables that making it asked
    for, and those nodes' free variables are the naive reference's; the
    number of outputs with a binder name none of their inputs has, which
    a substitution that renamed a binder makes."""
    _prime(t)
    renamed = 0
    for inputs, out, asks in _made_from(t):
        old = {id(u) for v in inputs for u in S.nodes(v)}
        allowed = {"_fv"} if asks else set()
        made = [u for u in S.nodes(out) if id(u) not in old]
        for u in made:
            assert set(_facts(u)) <= allowed, (sc.print_term(out), _facts(u))
        for u in made:
            assert sc.free_vars(u) == naive_free_vars(u), sc.print_term(u)
        if asks:
            renamed += not _binder_names(out) <= set().union(
                *map(_binder_names, inputs))
    return renamed


def test_made_nodes_inherit_no_fact(corpus_entries):
    kept = []  # the derivations whose links the terms' nodes keep
    renamed = 0
    gen = TermGenerator(seed=43, allow_sup_elim=True, max_depth=4)
    for ctx, t, a in ([(e.ctx, e.term, e.prop) for e in corpus_entries]
                      + [((), *gen.closed()) for _ in range(100)]):
        kept.append(sc.typecheck(ctx, t, a))
        assert "_deriv" in _facts(t)
        renamed += _check_made_nodes_inherit_no_fact(t)
    assert renamed > 100


@settings(max_examples=200, deadline=None)
@given(_ALPHA_TERMS)
def test_made_nodes_inherit_no_fact_on_shadowing(t):
    _check_made_nodes_inherit_no_fact(t)


def test_a_copy_or_a_pickle_keeps_no_fact():
    import copy
    import pickle

    t = sc.parse_term("lam(x,tens(x,unit))")
    d = sc.typecheck((), t, sc.parse_prop("one -o one (*) top"))
    _prime(t)
    assert _facts(t) == list(S.Term.__slots__)
    for made in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert made == t and _facts(made) == []
    assert d.term is t


# the facts each kind of node keeps, every one None until set
_NODE_FACTS = ((S.Term, ("_fv", "_absorbs", "_deriv")), (S.Prop, ("_dim",)),
               (C.Derivation, ("_sr", "_want", "_mat")), (C.SplitPlan, ()))
_PROP_CLASSES = {S.One, S.Top, S.Zero, S.Tensor, S.Lollipop, S.With, S.Plus,
                 S.Sup}


def _fact_names(u):
    return next(facts for cls, facts in _NODE_FACTS if isinstance(u, cls))


def _props(a):
    yield a
    if not isinstance(a, (S.One, S.Top, S.Zero)):
        yield from _props(a.left)
        yield from _props(a.right)


def _derivation_nodes(d):
    """d's derivation nodes, their split plans, term nodes and the nodes of
    their propositions."""
    yield d
    if d.split is not None:
        yield d.split
    yield from S.nodes(d.term)
    for a in [d.prop] + [a for _, a in d.ctx]:
        yield from _props(a)
    for k in d.children:
        yield from _derivation_nodes(k)


def test_every_node_is_slotted_and_a_copy_keeps_its_fields_only(
        corpus_entries):
    """Every term, proposition, derivation and split plan node of the
    corpus and of 100 generated terms, typed and denoted, has no __dict__;
    its copy, deep copy and pickle round trip equal it, have its hash and
    keep no fact (each is None), while it keeps its own."""
    import copy
    import pickle

    gen = TermGenerator(seed=17, allow_sup_elim=True, max_depth=4)
    typed = [(e.ctx, e.term, e.prop) for e in corpus_entries]
    typed += [((), *gen.closed()) for _ in range(100)]
    kept = [sc.typecheck(ctx, t, a) for ctx, t, a in typed]
    for d in kept:
        sc.denote(d)
    extra = [S.Hole(), S.replace_at(typed[0][1], (), S.Hole()),
             sc.parse_prop("(zero (o) top) (+) one")]
    _prime(extra[1])
    sc.denote_prop(extra[2])
    seen, classes, known = set(), set(), 0
    for u in [n for d in kept for n in _derivation_nodes(d)] + extra:
        if id(u) in seen:
            continue
        seen.add(id(u))
        classes.add(type(u))
        assert not hasattr(u, "__dict__"), repr(u)
        facts = _fact_names(u)
        known += any(getattr(u, f) is not None for f in facts)
        before = [getattr(u, f) for f in facts]
        for made in (copy.copy(u), copy.deepcopy(u),
                     pickle.loads(pickle.dumps(u))):
            assert type(made) is type(u) and made is not u
            assert made == u and hash(made) == hash(u), repr(u)
            assert not hasattr(made, "__dict__")
            assert [getattr(made, f) for f in facts] == [None] * len(facts)
        assert [getattr(u, f) for f in facts] == before
    assert classes == (set(S._FIELDS) | _PROP_CLASSES
                       | {C.Derivation, C.SplitPlan})
    assert known > len(seen) // 2


def test_variables_of_one_name_share_one_free_variable_set():
    a, b = S.Var("x"), S.Var("x")
    assert a is not b and sc.free_vars(a) is sc.free_vars(b)
    assert sc.free_vars(a) == {"x"} and sc.free_vars(S.Var("y")) == {"y"}
    t = sc.parse_term("tens(x,lam(y,app(y,x)))")
    assert sc.free_vars(t.left) is sc.free_vars(t.right.body.arg) is \
        sc.free_vars(a)
