"""The random well-typed term source."""

from __future__ import annotations

import hashlib

import pytest

import supcalc as sc
from supcalc import syntax as S
from supcalc.gen import (TermGenerator, canonical_inhabitant, consume_to_one,
                         enumerate_elim_contexts)


def _contains(t, cls) -> bool:
    return any(isinstance(sub, cls) for _, sub in S.subterms(t))


def test_generated_terms_are_closed_and_well_typed():
    gen = TermGenerator(seed=1, max_depth=5)
    for _ in range(80):
        t, a = gen.closed()
        assert not sc.free_vars(t)
        d = sc.typecheck((), t, a)
        assert d.prop == a


def test_generation_is_deterministic_per_seed():
    a = [TermGenerator(seed=9).closed() for _ in range(5)]
    b = [TermGenerator(seed=9).closed() for _ in range(5)]
    assert a == b
    c = [TermGenerator(seed=10).closed() for _ in range(5)]
    assert a != c


def test_fork_free_flag_excludes_sup_elim():
    gen = TermGenerator(seed=3, allow_sup_elim=False, max_depth=6)
    saw_sup_pair = False
    for _ in range(80):
        t, _ = gen.closed()
        assert not _contains(t, S.SupElim)
        saw_sup_pair = saw_sup_pair or _contains(t, S.SupPair)
    # the deterministic sup projections are still in play
    assert saw_sup_pair


def test_generator_hits_probabilistic_forks():
    gen = TermGenerator(seed=4, max_depth=6)
    assert any(_contains(gen.closed()[0], S.SupElim) for _ in range(60))


def test_generated_contexts_are_consumed():
    gen = TermGenerator(seed=6, max_depth=4)
    ctx = sc.parse_context("h:one, k:one & one")
    for _ in range(40):
        a = gen.random_prop(1)
        t = gen.generate(ctx, a, 4)
        d = sc.typecheck(ctx, t, a)
        assert d.prop == a


@pytest.mark.parametrize("allow_sup_elim, digest", [
    (True, "d9550f1e96f5b06f7b73c207f61b2bd02e803c212fd49a43ebd2d85f70bbabc5"),
    (False, "a9cae4fcc9939066152bf65a671255f935b4caaa1b0bca9dcc5b112161bd06b9"),
])
def test_generated_terms_are_pinned(allow_sup_elim, digest):
    """The benchmark's inputs come from this draw order: any change to the
    generator's choices shows as a new digest."""
    h = hashlib.sha256()
    for seed in (0, 5, 11):
        gen = TermGenerator(seed=seed, allow_sup_elim=allow_sup_elim,
                            max_depth=4)
        for _ in range(40):
            t, a = gen.closed()
            h.update(f"{sc.print_term(t)} : {sc.print_prop(a)}\n".encode())
    assert h.hexdigest() == digest


def _helper_props():
    """200 drawn propositions and four with top, zero, and a part that
    cannot be spent down to one."""
    gen = TermGenerator(seed=0)
    return [gen.random_prop(2) for _ in range(200)] + [
        sc.parse_prop(src)
        for src in ("top", "zero", "one (*) top", "one (+) top")]


def _printed(t):
    return "-" if t is None else sc.print_term(t)


def test_generator_helpers_are_pinned():
    """What canonical_inhabitant, consume_to_one and enumerate_elim_contexts
    build: any change to their terms shows as a new digest."""
    h = hashlib.sha256()
    for a in _helper_props():
        contexts = enumerate_elim_contexts(a, 2)
        h.update(f"{sc.print_prop(a)} | {_printed(canonical_inhabitant(a))}"
                 f" | {_printed(consume_to_one(S.Var('e'), a, sc.QNN))}"
                 f" | {' ; '.join(map(_printed, contexts))}\n".encode())
    assert h.hexdigest() == (
        "3745a12f2af9f6f45978fd27806d78a9ce56f1c3054a2395d15663d25fdc15b2")
