from __future__ import annotations

import pytest

import supcalc as sc
from supcalc import syntax as S


@pytest.fixture(scope="session")
def corpus_entries():
    return sc.corpus()


def naive_free_vars(t) -> frozenset:
    """The free variables of t worked out from scratch at every call, from
    the term's fields alone, with none of the facts its nodes keep."""
    if isinstance(t, S.Var):
        return frozenset((t.name,))
    out = set()
    for name in S.subterm_fields(t):
        out |= naive_free_vars(getattr(t, name)) - set(
            S.bound_names(t, name))
    return frozenset(out)


def shape_of_value_ok(t, a) -> bool:
    """The closed-normal-form shape table: one value shape per connective,
    with sums and scalar products surviving only at tensor and plus types."""
    if isinstance(a, S.One):
        return isinstance(t, S.Star)
    if isinstance(a, S.Top):
        return isinstance(t, S.Unit)
    if isinstance(a, S.Zero):
        return False
    if isinstance(a, S.With):
        return isinstance(t, S.Pair)
    if isinstance(a, S.Sup):
        return isinstance(t, S.SupPair)
    if isinstance(a, S.Lollipop):
        return isinstance(t, S.Lam)
    if isinstance(a, S.Tensor):
        return isinstance(t, (S.Tens, S.Sum, S.Scal))
    if isinstance(a, S.Plus):
        return isinstance(t, (S.Inl, S.Inr, S.Sum, S.Scal))
    return False
