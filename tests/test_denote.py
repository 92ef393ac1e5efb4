"""Matrix interpretation and the executable semantic metatheory."""

from __future__ import annotations

import copy
import hashlib
import importlib
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import supcalc as sc
from supcalc import checker as C
from supcalc import matmodel as M
from supcalc import rewrite as R
from supcalc import syntax as S
from supcalc.denote import SoundnessReport, StepCheck
from supcalc.gen import TermGenerator

SR = sc.QNN
D = importlib.import_module("supcalc.denote")  # the package binds denote


def term(src):
    return sc.parse_term(src)


def prop(src):
    return sc.parse_prop(src)


def mat(rows):
    return M.mat_from_rows([[F(v) for v in row] for row in rows], SR)


def closed_matrix(src, type_src=None):
    expected = prop(type_src) if type_src else None
    return sc.denote_closed(term(src), expected)


# ---------------------------------------------------------------------------
# objects


def test_denote_prop_dims():
    assert sc.denote_prop(S.One()) == 1
    assert sc.denote_prop(S.Top()) == 0
    assert sc.denote_prop(S.Zero()) == 0
    assert sc.denote_prop(prop("(one & one) -o one")) == 2
    assert sc.denote_prop(prop("(one & one) (*) (one (+) one)")) == 4
    assert sc.denote_prop(prop("one (o) one")) == 2


def test_denote_prop_refuses_a_non_proposition():
    for bad in (term("star(1)"), S.Prop(), 1, None):
        with pytest.raises(TypeError):
            sc.denote_prop(bad)


def test_denote_refuses_a_derivation_over_a_non_proposition():
    # a derivation built by hand may name anything as its type or in its
    # context; denote refuses it as denote_prop does
    x = S.Var("x")
    for bad in (term("star(1)"), S.Prop(), "one", 1, None):
        for d in (C.Derivation("ax", (("x", S.One()),), x, bad),
                  C.Derivation("ax", (("x", bad),), x, S.One())):
            with pytest.raises(TypeError, match="not a proposition"):
                sc.denote(d)


def test_a_proposition_keeps_its_dimension():
    """An equal but distinct proposition works out the same dimension and
    keeps its own; the kept dimension changes neither == nor hash."""
    a, b = prop("(one & one) -o one (+) one"), prop("(one & one) -o one (+) one")
    assert a == b and a is not b and hash(a) == hash(b)
    assert sc.denote_prop(a) == 4
    assert a._dim == 4 and b._dim is None
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert sc.denote_prop(b) == 4 and b._dim == 4
    assert a.left._dim == 2 and a.right._dim == 2


def test_a_copy_or_a_pickle_of_a_proposition_keeps_no_dimension():
    import copy
    import pickle

    a = prop("one (o) (one & top)")
    assert sc.denote_prop(a) == 2
    for made in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert made == a and made._dim is None
        assert sc.denote_prop(made) == 2


def _rules(d):
    yield d.rule
    for k in d.children:
        yield from _rules(k)


def test_the_clause_table_covers_every_rule_the_checker_emits(
        corpus_entries):
    assert set(D._Denoter._CLAUSES) == set(C.RULE_TAGS)
    gen = TermGenerator(seed=29, allow_sup_elim=True, max_depth=4)
    judgments = [(e.ctx, e.term, e.prop) for e in corpus_entries]
    judgments += [((), *gen.closed()) for _ in range(300)]
    emitted = set()
    for ctx, t, a in judgments:
        emitted.update(_rules(sc.typecheck(ctx, t, a)))
    assert emitted <= set(C.RULE_TAGS)


def test_denote_ctx_dims():
    assert sc.denote_ctx(()) == 1
    assert sc.denote_ctx(sc.parse_context("x:one & one")) == 2
    assert sc.denote_ctx(sc.parse_context("x:one & one, y:one & one")) == 4
    assert sc.denote_ctx(sc.parse_context("x:top, y:one")) == 0


# ---------------------------------------------------------------------------
# rule clauses


def test_star_denotes_its_scalar():
    assert closed_matrix("star(2)").equal(mat([[2]]))


def test_adequacy_pair_denotes_one_half():
    t = "sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)"
    u = "sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)"
    assert closed_matrix(t).equal(mat([["1/2"]]))
    assert closed_matrix(u).equal(mat([["1/2"]]))


def test_identity_function_denotes_hom_identity():
    # hom(I,I) is 1-dimensional and the identity is its unit vector
    assert closed_matrix("lam(x,x)", "one -o one").equal(mat([[1]]))
    # at one&one the flattened identity matrix is (1,0,0,1)
    got = closed_matrix("lam(x,x)", "(one & one) -o (one & one)")
    assert got.equal(mat([[1], [0], [0], [1]]))


def test_eta_expansion_same_matrix():
    a = closed_matrix("lam(x,pair(fst(x),snd(x)))", "(one & one) -o (one & one)")
    b = closed_matrix("lam(x,x)", "(one & one) -o (one & one)")
    assert a.equal(b)


def test_open_term_matrix_shape():
    d = sc.typecheck(sc.parse_context("x:one & one"), term("fst(x)"))
    interp = sc.denote(d)
    assert (interp.object_out, interp.object_in) == (1, 2)
    assert interp.matrix.equal(mat([[1, 0]]))


def test_exchange_inserts_a_braiding():
    ctx = sc.parse_context("x:one & one, y:one & one & one")
    d = sc.typecheck(ctx, term("tens(y,x)"))
    interp = sc.denote(d)
    assert (interp.matrix.rows, interp.matrix.cols) == (6, 6)
    assert interp.matrix.equal(M.perm_mat([2, 3], [1, 0], SR))


def test_zero_dimensional_types():
    assert closed_matrix("unit").rows == 0
    got = closed_matrix("tens(unit,star(1))", "top (*) one")
    assert (got.rows, got.cols) == (0, 1)
    got = closed_matrix("lam(x,zero_elim(x))", "zero -o one")
    assert (got.rows, got.cols) == (0, 1)


_BIG = " (*) ".join(["(one & one)"] * 30)  # 2^30 dimensions


@pytest.mark.parametrize("src, type_src, refused", [
    # the root would be hom(A, A), 2^60 x 1, after identity(2^30)
    ("lam(x,x)", f"{_BIG} -o {_BIG}", f"rule lolli_i denotes a {2 ** 60}x1"),
    # the root is 0x1; zero_elim(x) has no columns but 2^30 rows
    ("lam(x,zero_elim(x))", f"zero -o {_BIG}", f"rule zero_e denotes a {2 ** 30}x0"),
], ids=["identity", "no-columns"])
def test_a_node_past_the_entry_budget_is_refused_before_anything_is_built(
        src, type_src, refused):
    d = sc.typecheck((), term(src), prop(type_src))
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(M.ShapeMismatch, match=refused):
        sc.denote(d)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.5 and peak < 100_000, (elapsed, peak)


@pytest.mark.parametrize("budget, ok", [(4, True), (3, False)])
def test_a_node_at_the_entry_budget_is_denoted(monkeypatch, budget, ok):
    # the root is 4x1 and the variable's identity 2x2
    monkeypatch.setattr(D, "MAX_ENTRIES", budget)
    d = sc.typecheck((), term("lam(x,x)"), prop("one & one -o one & one"))
    if ok:
        assert sc.denote(d).matrix.equal(mat([[1], [0], [0], [1]]))
    else:
        with pytest.raises(M.ShapeMismatch, match="more than the 3 entries"):
            sc.denote(d)


def test_shape_soundness_on_corpus(corpus_entries):
    for e in corpus_entries:
        d = sc.typecheck(e.ctx, e.term, e.prop)
        interp = sc.denote(d)
        assert interp.matrix.rows == sc.denote_prop(e.prop)
        assert interp.matrix.cols == sc.denote_ctx(e.ctx)


def _corpus_in(sr):
    """The corpus in sr; under bool, which has no scalar but 0 and 1, the
    bundled sources whose scalars it has."""
    if sr is not sc.BOOL:
        return sc.corpus(sr)
    entries = []
    for name, src, type_src in sc.corpus_sources():
        try:
            entries.append(sc.CorpusEntry(name, sc.parse_term(src, sr), (),
                                          sc.parse_prop(type_src, sr)))
        except sc.ParseError:
            pass
    return entries


_CORPUS_PINS = {
    name: (66, "932b13a9f4a8265099d9367b855c3f22aedc73fe5df829ef584964d957d9fd6a")
    for name in ("qnn", "q", "f64")}
_CORPUS_PINS["bool"] = (
    16, "0c72d16d4bb14026e2774155149c016c7611b5f337dbdbb5b2a6f3e795c3f5c5")


@pytest.mark.parametrize("semiring", ["qnn", "q", "f64", "bool"])
def test_corpus_matrices_are_pinned(semiring):
    """Any change to a clause's matrix or to an object's dimension shows
    as a new digest."""
    sr = sc.get_semiring(semiring)
    h = hashlib.sha256()
    corpus = _corpus_in(sr)
    for e in corpus:
        i = sc.denote(sc.typecheck(e.ctx, e.term, e.prop, sr), sr)
        h.update(f"{e.name} {i.object_in} {i.object_out} {i.matrix!r}\n"
                 .encode())
    assert (len(corpus), h.hexdigest()) == _CORPUS_PINS[semiring]


def _stored(m):
    """m's stored entries row by row, in storage order, with their types."""
    return "|".join(" ".join(f"{j}:{type(v).__name__}:{sc.format_scalar(v)}"
                             for j, v in r.items()) for r in m.data)


def _pinned_inputs(family, sr):
    """(closed term, type) pairs in sr: the corpus, generated terms, drawn
    in qnn and read again in sr, or encoded maps applied to vectors, whose
    zero entries are stored zeros of star(0)."""
    if family == "corpus":
        return [(e.term, e.prop) for e in sc.corpus(sr)]
    if family == "generated":
        out = []
        for seed in (0, 5, 11):
            gen = TermGenerator(seed=seed, allow_sup_elim=True, max_depth=4)
            for _ in range(40):
                t, a = gen.closed()
                out.append((sc.parse_term(sc.print_term(t), sr),
                            sc.parse_prop(sc.print_prop(a), sr)))
        return out
    rng, lit = random.Random(37), sr.from_literal
    out = []
    for rows in range(1, 7):
        for cols in range(1, 7):
            m = [[lit(F(rng.randrange(6), rng.randrange(1, 4)))
                  for _ in range(cols)] for _ in range(rows)]
            u = [lit(F(rng.randrange(6), rng.randrange(1, 4)))
                 for _ in range(cols)]
            enc = sc.encode_matrix(m, _vprop(cols), _vprop(rows))
            vec = sc.from_vector(sc.SVector(tuple(u), _vprop(cols)))
            out.append((S.App(enc, vec), _vprop(rows)))
    return out


_NODE_PINS = {
    "corpus": (
        "52bab59775b6c9b693c1c3b8a90dbea550ea2a10c023240a403a34d6e73e43f3",
        "bf6b0a6a3f36da9de44dc7792dc97c510c25b88ab99b44b176cbdedd6789c50e"),
    "generated": (
        "e3874db0d0e80a74cec6e6e1d20901d1f5c397b33f3d700c0129e3f2b904bdca",
        "0f4028f6d9a0d55f459e743b1c9984d387b6536f2be99d61b4b917594bf770fd"),
    "encoded": (
        "c69566b5bfdc5d71336690232abc2b1ceb4a1c35c41936bc044701e8e459578d",
        "556c35af744ce3159582e218c7aa61136108b0e868f3bb734b2e862aa5a498cf"),
}


@pytest.mark.parametrize("semiring", ["qnn", "q", "f64"])
@pytest.mark.parametrize("family", ["corpus", "generated", "encoded"])
def test_every_node_matrix_is_pinned(family, semiring):
    """Every derivation node's stored entries, in storage order and with
    their types: any change to a value, to a stored zero, to the order of a
    row or to the order a float sum accumulates in shows as a new digest."""
    sr = sc.get_semiring(semiring)
    h = hashlib.sha256()
    for t, a in _pinned_inputs(family, sr):
        stack = [sc.denote(sc.typecheck((), t, a, sr), sr).derivation]
        while stack:
            d = stack.pop()
            m = sc.denote(d, sr).matrix
            h.update(f"{d.rule} {m.rows}x{m.cols} {_stored(m)}\n".encode())
            stack.extend(reversed(d.children))
    exact, floats = _NODE_PINS[family]
    assert h.hexdigest() == (floats if sr is sc.F64 else exact)


_STRUCTURAL = ("hom_mat", "unit_map", "eval_map", "perm_mat", "proj1",
               "proj2", "inj1", "inj2", "distribute", "weighted_codiag")

# open judgments whose splits permute their context, for each rule that
# replays a permutation
_PERMUTED = [
    ("x:one & one, f:(one & one) -o one", "app(f,x)", "one"),
    ("x:one & one, y:one & one & one", "tens(y,x)", None),
    ("p:one (*) one, y:one & one", "let_tens(p,a,b,tens(unit_elim(a,b),y))",
     None),
    ("y:one & one, s:one (+) one", "case(s,a.tens(a,y),b.tens(b,y))", None),
    ("y:one & one, s:one (o) one",
     "sup_elim{1/4,3/4}(s,a.tens(a,y),b.tens(b,y))", None),
]


def _assert_stored_in_order(m):
    """The storage invariant of matmodel's docstring: one dict per row,
    columns in range and in ascending order."""
    assert len(m.data) == m.rows
    for r in m.data:
        cols = list(r)
        assert cols == sorted(cols) and all(0 <= j < m.cols for j in cols)


def test_denoting_builds_no_structural_matrix(monkeypatch):
    """Every clause computes its composite with a structural map directly
    from its premises' stored entries; step soundness mixes a fork's
    matrices the same way."""
    judgments = [((), e.term, e.prop) for e in sc.corpus()]
    gen = TermGenerator(seed=43, allow_sup_elim=True, max_depth=4)
    judgments += [((), *gen.closed()) for _ in range(100)]
    judgments.append(((), *_encoded_application(6)))
    judgments += [(sc.parse_context(c), term(t), prop(a) if a else None)
                  for c, t, a in _PERMUTED]

    def refuse(name):
        def build(*args):
            raise AssertionError(f"{name} built while denoting")
        return build

    for name in _STRUCTURAL:
        monkeypatch.setattr(M, name, refuse(name))
    permuted = 0
    for ctx, t, a in judgments:
        d = sc.typecheck(ctx, t, a)
        sc.denote(d)
        stack = [d]
        while stack:
            node = stack.pop()
            _assert_stored_in_order(node._mat)
            permuted += (node.split is not None
                         and list(node.split.perm) != sorted(node.split.perm))
            stack.extend(node.children)
        if not ctx:
            assert sc.check_step_soundness(t, SR, expected=a).ok
    assert permuted >= len(_PERMUTED)


# ---------------------------------------------------------------------------
# substitution identity


def test_substitution_axiom_case():
    tD = sc.typecheck(sc.parse_context("x:one"), term("x"))
    vD = sc.typecheck((), term("star(3)"))
    assert sc.check_substitution(tD, vD)
    assert sc.denote(vD).matrix.equal(mat([[3]]))


def test_substitution_with_additive_sharing():
    tD = sc.typecheck(sc.parse_context("x:one & one"),
                      term("pair(snd(x),fst(x))"))
    vD = sc.typecheck(sc.parse_context("d:one & one"),
                      term("pair(snd(d),fst(d))"))
    assert sc.check_substitution(tD, vD)


def test_substitution_with_leading_context():
    tD = sc.typecheck(sc.parse_context("g:one, x:one"),
                      term("sum(unit_elim(g,x),unit_elim(x,g))"))
    vD = sc.typecheck(sc.parse_context("d:one"), term("scal(2,d)"))
    assert sc.check_substitution(tD, vD)


def test_substitution_on_generated_pairs():
    gen = TermGenerator(seed=41, max_depth=4)
    done = 0
    for _ in range(200):
        if done >= 40:
            break
        a = gen.random_prop(1)
        b = gen.random_prop(1)
        body = gen.generate((("x", a),), b, 3)
        if "x" not in sc.free_vars(body):
            continue
        v, _ = gen.closed(a, 3)
        tD = sc.typecheck((("x", a),), body)
        vD = sc.typecheck((), v)
        assert sc.check_substitution(tD, vD), (
            sc.print_term(body), sc.print_term(v))
        done += 1
    assert done >= 40


# ---------------------------------------------------------------------------
# per-step soundness


def test_step_soundness_unit_elim():
    rep = sc.check_step_soundness(term("unit_elim(star(2),star(3))"))
    assert rep.ok and len(rep.checks) == 1
    assert closed_matrix("unit_elim(star(2),star(3))").equal(mat([[6]]))


def test_step_soundness_probabilistic_fork():
    t = "sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)"
    rep = sc.check_step_soundness(term(t))
    assert rep.ok
    (check,) = rep.checks
    assert check.rules == ("sup_elim_left", "sup_elim_right")
    # the mixing identity evaluates to [1/2] on both sides
    mix = M.weighted_codiag((F(1, 2), F(1, 2)), 1, SR)
    sides = M.compose(mix, M.compose(
        M.biproduct_mat(mat([["1/2"]]), mat([["1/2"]])), M.diag(1, SR)))
    assert sides.equal(mat([["1/2"]]))


def test_step_soundness_normal_form_vacuous():
    rep = sc.check_step_soundness(term("star(4)"))
    assert rep.ok and rep.checks == []


def test_step_soundness_whole_corpus(corpus_entries):
    for e in corpus_entries:
        rep = sc.check_step_soundness(e.term, SR, expected=e.prop)
        assert rep.ok, (e.name, [c for c in rep.checks if not c.ok])


def test_step_soundness_along_reduction_graphs(corpus_entries):
    # soundness holds not only at the root but at every reachable term
    for e in corpus_entries[:20]:
        seen = set()
        frontier = [e.term]
        while frontier and len(seen) < 60:
            t = frontier.pop()
            key = sc.print_term(sc.canonical(t))
            if key in seen:
                continue
            seen.add(key)
            rep = sc.check_step_soundness(t, SR, expected=e.prop)
            assert rep.ok, (e.name, sc.print_term(t))
            frontier.extend(r for _, r in sc.step_all(t))


def whole_term_step_soundness(t, semiring=SR, ctx=(), expected=None):
    """The whole-term step-soundness check that check_step_soundness falls
    back to per position: every reduct typed and denoted from the root."""
    sr = semiring
    d = sc.typecheck(ctx, t, expected, sr)
    base = sc.denote(d, sr).matrix
    groups = {}
    for step, reduct in sc.step_all(t, sr):
        groups.setdefault(step.pos, []).append((step, reduct))
    checks = []
    for pos, entries in sorted(groups.items()):
        rules = tuple(step.rule for step, _ in entries)
        if len(entries) == 1:
            _, reduct = entries[0]
            other = sc.denote(sc.typecheck(ctx, reduct, d.prop, sr), sr).matrix
            ok = base.equal(other)
            detail = "" if ok else f"{base!r} != {other!r}"
        else:
            (s1, r1), (s2, r2) = entries
            m1 = sc.denote(sc.typecheck(ctx, r1, d.prop, sr), sr).matrix
            m2 = sc.denote(sc.typecheck(ctx, r2, d.prop, sr), sr).matrix
            mix = M.weighted_codiag((s1.weight, s2.weight),
                                    sc.denote_prop(d.prop), sr)
            g = sc.denote_ctx(d.ctx)
            rhs = M.compose(mix, M.compose(M.biproduct_mat(m1, m2),
                                           M.diag(g, sr)))
            ok = base.equal(rhs)
            detail = "" if ok else f"{base!r} != {rhs!r}"
        checks.append(StepCheck(pos, rules, ok, detail))
    return SoundnessReport(t, checks)


def _vprop(n):
    """one & (one & ... one) with n leaves."""
    a = S.One()
    for _ in range(n - 1):
        a = S.With(S.One(), a)
    return a


def _reachable(t, limit=60):
    """Terms reachable from t by steps, up to limit distinct ones."""
    seen = set()
    frontier = [t]
    while frontier and len(seen) < limit:
        u = frontier.pop()
        key = sc.print_term(sc.canonical(u))
        if key in seen:
            continue
        seen.add(key)
        yield u
        frontier.extend(r for _, r in sc.step_all(u))


def _soundness_inputs(family, corpus):
    """(term, expected type) pairs of one input family."""
    if family == "corpus":
        return [(e.term, e.prop) for e in corpus]
    if family == "generated":
        gen = TermGenerator(seed=29, allow_sup_elim=True, max_depth=4)
        return [gen.closed() for _ in range(300)]
    if family == "encoded":
        rng = random.Random(31)
        out = []
        for rows in range(1, 7):
            for cols in range(1, 7):
                m = [[F(rng.randrange(10), rng.randrange(1, 4))
                      for _ in range(cols)] for _ in range(rows)]
                u = [F(rng.randrange(10), rng.randrange(1, 4))
                     for _ in range(cols)]
                enc = sc.encode_matrix(m, _vprop(cols), _vprop(rows))
                vec = sc.from_vector(sc.SVector(tuple(u), _vprop(cols)))
                out.append((S.App(enc, vec), _vprop(rows)))
        return out
    # the terms reached in test_step_soundness_along_reduction_graphs
    return [(u, e.prop) for e in corpus[:20] for u in _reachable(e.term)]


@pytest.mark.parametrize("family",
                         ["corpus", "generated", "encoded", "reachable"])
def test_step_soundness_matches_the_whole_term_reference(monkeypatch,
                                                         corpus_entries,
                                                         family):
    inputs = _soundness_inputs(family, corpus_entries)
    assert inputs
    # on sound rules every position is settled by its local check
    fallbacks = []
    monkeypatch.setattr(D, "_whole_term_check",
                        lambda *args: fallbacks.append(args[3]))
    for t, a in inputs:
        got = sc.check_step_soundness(t, SR, expected=a)
        assert got == whole_term_step_soundness(t, SR, expected=a), (
            sc.print_term(t))
        # again, on a term whose nodes now carry facts, with its root's
        # derivation and matrix held
        held = sc.denote(sc.typecheck((), t, a, SR), SR)
        assert sc.check_step_soundness(t, SR, expected=a) == got
        assert held.derivation.term is t
    assert fallbacks == []


def _former_redex_positions(t):
    """The positions of t's redexes as the former rewrite._redexes found
    them: one list of child indices, a tuple built only for a redex."""
    out = []
    path = []
    stack = [(t, 0, None)]
    while stack:
        u, depth, i = stack.pop()
        if i is not None:
            del path[depth - 1:]
            path.append(i)
        if R.is_redex(u):
            out.append(tuple(path))
        names = S._CHILDREN[type(u)]
        for j in range(len(names) - 1, -1, -1):
            child = getattr(u, names[j])
            if S._CHILDREN[type(child)]:
                stack.append((child, depth + 1, j))
    return out


def _former_node_at(d, pos):
    """The former denote._node_at: the node of d whose term sits at pos in
    d's term, or None where a premise's term is not its field's own
    object."""
    for i in pos:
        kid = d.children[i] if i < len(d.children) else None
        if kid is None or kid.term is not getattr(
                d.term, S.subterm_fields(d.term)[i]):
            return None
        d = kid
    return d


def _former_redex_walk(t, d):
    """(position, redex node, sub-derivation or None) as the former step
    soundness found them: the former _redexes positions, each node reached
    from the root by _move, and its sub-derivation by _node_at."""
    return [(pos, R._move(t, None, (), pos)[0],
             None if d is None else _former_node_at(d, pos))
            for pos in _former_redex_positions(t)]


def _same_walk(got, want):
    assert [p for p, _, _ in got] == [p for p, _, _ in want]
    for (_, u, du), (_, v, dv) in zip(got, want):
        assert u is v and du is dv


def test_one_redex_walk_finds_what_the_former_scan_and_descents_found(
        corpus_entries):
    inputs = [pair for family in ("corpus", "generated", "encoded")
              for pair in _soundness_inputs(family, corpus_entries)]
    found = located = 0
    for t, a in inputs:
        d = C.typecheck((), t, a, SR)
        got = R._redex_walk(t, d)
        _same_walk(got, _former_redex_walk(t, d))
        _same_walk(R._redex_walk(t), _former_redex_walk(t, None))
        assert R._redexes(t, SR) == [
            (pos, R.contract(u, SR)) for pos, u, _ in got]
        found += len(got)
        located += sum(du is not None for _, _, du in got)
    # the checker derives every premise from its field's own object
    assert found == located > 1000
    # a derivation whose first premise derives an equal copy of its field:
    # no redex below that premise has a sub-derivation, the others have
    t = term("pair(app(lam(x,x),fst(pair(star(1),star(2)))),"
             "app(lam(y,y),star(3)))")
    d = C.typecheck((), t)
    kid = d.children[0]
    copied = C.Derivation(kid.rule, kid.ctx, copy.copy(kid.term), kid.prop,
                          kid.children, kid.split)
    assert copied.term == t.left and copied.term is not t.left
    odd = C.Derivation(d.rule, d.ctx, t, d.prop, (copied,) + d.children[1:],
                       d.split)
    got = R._redex_walk(t, odd)
    _same_walk(got, _former_redex_walk(t, odd))
    assert [(p, du is None) for p, _, du in got] == [
        ((0,), True), ((0, 1), True), ((1,), False)]


def _flagged_as_by_the_reference(monkeypatch, corpus, rule, breaks):
    """With R.contract's entries rewritten by breaks, both checks give
    equal reports on every input of the differential test that has a
    redex of rule; the number of checks they flag."""
    inputs = [(t, a) for family in ("corpus", "generated", "encoded",
                                    "reachable")
              for t, a in _soundness_inputs(family, corpus)
              if any(step.rule == rule for step, _ in sc.step_all(t))]
    assert inputs
    contract = R.contract
    monkeypatch.setattr(R, "contract",
                        lambda t, sr: breaks(contract(t, sr), sr))
    flagged = 0
    for t, a in inputs:
        got = sc.check_step_soundness(t, SR, expected=a)
        assert got == whole_term_step_soundness(t, SR, expected=a), (
            sc.print_term(t))
        flagged += sum(not c.ok for c in got.checks)
    return flagged


def test_a_broken_scalar_rule_is_flagged_where_the_whole_term_check_does(
        monkeypatch, corpus_entries):
    # scal_star multiplies by an extra 2
    def breaks(entries, sr):
        two = sr.from_literal(F(2))
        return [(r, w, S.Star(sr.mul(two, c.scalar)) if r == "scal_star"
                 else c) for r, w, c in entries]

    assert _flagged_as_by_the_reference(monkeypatch, corpus_entries,
                                        "scal_star", breaks)


def test_swapped_fork_weights_are_flagged_where_the_whole_term_check_does(
        monkeypatch, corpus_entries):
    # each branch of a fork carries the other branch's weight
    def breaks(entries, sr):
        if len(entries) != 2:
            return entries
        (r1, w1, c1), (r2, w2, c2) = entries
        return [(r1, w2, c1), (r2, w1, c2)]

    assert _flagged_as_by_the_reference(monkeypatch, corpus_entries,
                                        "sup_elim_left", breaks)


def test_an_ill_typed_contractum_fails_as_in_the_whole_term_check(
        monkeypatch, corpus_entries):
    # fst and supfst contract to their whole pair, which does not keep the
    # type: where the whole-term check raises, so must the local one, even
    # after its own attempt to type the contractum has failed
    inputs = [(t, a) for family in ("corpus", "generated", "reachable")
              for t, a in _soundness_inputs(family, corpus_entries)
              if any(step.rule in ("fst", "supfst")
                     for step, _ in sc.step_all(t))]
    inputs.append((term("fst(pair(star(1),star(2)))"), S.One()))
    contract = R.contract
    monkeypatch.setattr(R, "contract", lambda t, sr: [
        (r, w, t.pair if r in ("fst", "supfst") else c)
        for r, w, c in contract(t, sr)])
    raised = 0
    for t, a in inputs:
        outcomes = []
        for check in (sc.check_step_soundness, whole_term_step_soundness):
            try:
                outcomes.append(check(t, SR, expected=a))
            except C.TypingError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], sc.print_term(t)
        raised += isinstance(outcomes[0], tuple)
    assert raised


def _encoded_application(n):
    """An encoded n x n map applied to an encoded vector, at its type."""
    rng = random.Random(n)
    m = [[F(rng.randrange(10), rng.randrange(1, 4)) for _ in range(n)]
         for _ in range(n)]
    u = [F(rng.randrange(10), rng.randrange(1, 4)) for _ in range(n)]
    enc = sc.encode_matrix(m, _vprop(n), _vprop(n))
    vec = sc.from_vector(sc.SVector(tuple(u), _vprop(n)))
    return S.App(enc, vec), _vprop(n)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_step_soundness_derives_and_denotes_only_rebuilt_nodes(monkeypatch,
                                                               n):
    # while the root's derivation is held, a contractum shares every node
    # that substitution left as it was with the root, derivation and matrix
    # included; so the check derives a node of the root only where the
    # contractum asks it for a judgment the root's derivation does not
    # hold, and denotes only the nodes it derives
    judged = []
    counts = {"clauses": 0}

    def logged(clause):
        def apply(self, ctx, t, want, rule):
            judged.append((t, ctx, want))
            return clause(self, ctx, t, want, rule)
        return apply

    def counted(clause):
        def apply(*args):
            counts["clauses"] += 1
            return clause(*args)
        return apply

    monkeypatch.setattr(C._Checker, "_CLAUSES", {
        cls: (rule, logged(clause))
        for cls, (rule, clause) in C._Checker._CLAUSES.items()})
    monkeypatch.setattr(D._Denoter, "_CLAUSES", {
        rule: (counted(clause), arg)
        for rule, (clause, arg) in D._Denoter._CLAUSES.items()})
    t, a = _encoded_application(n)
    held = sc.denote(sc.typecheck((), t, a))
    once = len(judged)
    assert counts["clauses"] == once
    root = {(id(u), ctx, want) for u, ctx, want in judged}
    judged.clear()
    counts["clauses"] = 0
    report = sc.check_step_soundness(t, SR, expected=a)
    assert report.ok and len(report.checks) > n
    old = {id(u) for u in S.nodes(t)}
    rebuilt = {id(u) for pos, entries in R._redexes(t, SR)
               for _, _, c in entries for u in S.nodes(c) if id(u) not in old}
    again = [(u, ctx, want) for u, ctx, want in judged if id(u) in old]
    assert len(judged) - len(again) == len(rebuilt)
    assert not any((id(u), ctx, want) in root for u, ctx, want in again)
    assert counts["clauses"] == len(judged) <= 2 * len(rebuilt) < once
    assert held.derivation.term is t


def test_a_derivation_keeps_its_matrix_in_each_semiring_apart():
    d = sc.typecheck((), term("lam{one & one}(x,x)"))
    exact = sc.denote(d, SR).matrix
    assert sc.denote(d, SR).matrix is exact
    floats = sc.denote(d, sc.F64).matrix
    assert floats.sr is sc.F64 and type(floats.at(0, 0)) is float
    assert sc.denote(d, sc.F64).matrix is floats
    again = sc.denote(d, SR).matrix
    assert again.sr is SR and type(again.at(0, 0)) is F
    assert again.equal(exact)


def test_a_derivation_and_its_matrix_are_freed_with_it():
    # the term's link to its derivation is weak, so dropping the
    # derivation frees it even with the cycle collector off
    import gc
    import weakref

    t, a = _encoded_application(3)
    gc.disable()
    try:
        d = sc.typecheck((), t, a)
        sc.denote(d)
        assert sc.typecheck((), t, a) is d
        alive = weakref.ref(d)
        kids = [weakref.ref(k) for k in d.children]
        del d
        assert alive() is None and all(k() is None for k in kids)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# whole-run soundness


def test_global_soundness_examples():
    assert sc.check_global_soundness(
        term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)"))
    assert sc.check_global_soundness(
        term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)"))
    assert sc.check_global_soundness(term("app(lam(x,x),star(5))"))


def test_global_soundness_whole_corpus(corpus_entries):
    for e in corpus_entries:
        assert sc.check_global_soundness(e.term, SR, expected=e.prop), e.name


_FORK_WEIGHTS = ("1/2,1/2", "1/3,2/3", "1/4,3/4", "2/5,3/5")


def _nested_forks(depth, weights=("1/2,1/2",), start=1):
    """A depth-level tree of nested forks, sup_elim{w}(sup(T,T'),x.x,y.y)
    with w drawn from weights by level, down to 2^depth distinct stars."""
    if depth == 0:
        return f"star({start})"
    half = 1 << (depth - 1)
    return (f"sup_elim{{{weights[depth % len(weights)]}}}(sup("
            f"{_nested_forks(depth - 1, weights, start)},"
            f"{_nested_forks(depth - 1, weights, start + half)}),x.x,y.y)")


def test_global_soundness_holds_on_a_tree_of_8192_leaves():
    # the summed term of 8192 leaves is a sum chain deeper than the
    # checker recurses through; the sum's matrix is built without it
    t = term(_nested_forks(13))
    assert len(sc.distribution(t).items) == 8192
    assert sc.check_global_soundness(t)


def _former_global_matrix(t, sr, expected):
    """The matrix of the summed term, which whole-run soundness compared
    with before it applied the sum's clauses directly."""
    d = sc.typecheck((), t, expected, sr)
    summed = sc.sum_of_distribution(sc.distribution(t, sr))
    return D._Denoter(sr).matrix((), summed, d.prop)


@pytest.mark.parametrize("semiring", ["qnn", "q", "f64"])
def test_global_soundness_sums_as_the_summed_term_denotes(monkeypatch,
                                                          semiring):
    sr = sc.get_semiring(semiring)
    inputs = [(e.term, e.prop) for e in _corpus_in(sr)] + [
        (sc.parse_term(_nested_forks(n, _FORK_WEIGHTS), sr), None)
        for n in range(1, 7)]
    compared = []
    equal = M.Mat.equal
    monkeypatch.setattr(M.Mat, "equal", lambda self, other: (
        compared.append(other) or equal(self, other)))
    for t, a in inputs:
        assert sc.check_global_soundness(t, sr, a)
        got = compared[-1]
        assert _stored(got) == _stored(_former_global_matrix(t, sr, a))


# ---------------------------------------------------------------------------
# adequacy comparison


def test_adequacy_on_the_probabilistic_pair():
    t = term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)")
    u = term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
    v = sc.adequacy_compare(t, u, S.One())
    assert v.denotations_equal and v.mixed_equivalent and v.note == "consistent"


def test_adequacy_on_the_eta_gap():
    a = prop("(one & one) -o (one & one)")
    t = term("lam(x,pair(fst(x),snd(x)))")
    u = term("lam(x,x)")
    # no reduction relates them, yet the matrices agree
    assert sc.is_normal(t) and sc.is_normal(u)
    assert not sc.alpha_eq(t, u)
    v = sc.adequacy_compare(t, u, a)
    assert v.denotations_equal
    assert v.mixed_equivalent is None  # outside the decidable fragment


def test_adequacy_distinct_denotations():
    v = sc.adequacy_compare(term("star(1)"), term("star(2)"), S.One())
    assert not v.denotations_equal and v.note == "distinct denotations"


# ---------------------------------------------------------------------------
# linearity on the semimodule fragment


def test_linearity_of_encoded_maps():
    rng = random.Random(6)
    a = prop("one & one")
    b = prop("(one & one) & one")
    for _ in range(10):
        m = [[F(rng.randrange(5)) for _ in range(2)] for _ in range(3)]
        t = sc.encode_matrix(m, a, b)
        u1 = sc.from_vector(sc.SVector((F(rng.randrange(5)), F(rng.randrange(5))), a))
        u2 = sc.from_vector(sc.SVector((F(rng.randrange(5)), F(rng.randrange(5))), a))
        s = F(rng.randrange(5))
        lhs = sc.normalize(S.App(t, S.Sum(u1, u2)))
        rhs = sc.normalize(S.Sum(S.App(t, u1), S.App(t, u2)))
        assert sc.alpha_eq(lhs, rhs)
        lhs = sc.normalize(S.App(t, S.Scal(s, u1)))
        rhs = sc.normalize(S.Scal(s, S.App(t, u1)))
        assert sc.alpha_eq(lhs, rhs)
        # the interpretations add as matrices as well
        m_sum = sc.denote_closed(S.App(t, S.Sum(u1, u2)), b)
        m1 = sc.denote_closed(S.App(t, u1), b)
        m2 = sc.denote_closed(S.App(t, u2), b)
        assert m_sum.equal(M.add(m1, m2))
