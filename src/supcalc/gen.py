"""Goal-directed random generation of well-typed terms.

Generation is type- and context-driven: every context variable is routed to
exactly one premise (or shared by additive forms), so the output always
checks.  Generated propositions avoid ``top`` and ``zero`` so that every
context variable can be consumed down to ``one``; the fallback at depth 0
spends the remaining context deterministically.

Each connective's proof forms are stated once, in tables looked up by the
proposition's class, as ``syntax._PAIRS`` and ``syntax._INJECTIONS`` are:
``_INTROS`` holds the introductions ``generate`` may draw for a goal,
``_PAIRING`` the former of each connective proved by a pair of proofs, and
``_elim_steps`` the one-hole destructor steps out of a proposition (a
pair's two projections, or a function applied to its canonical argument).

That fallback and the elimination contexts read the constructor-only
helpers below: ``canonical_inhabitant`` builds a closed proof of a
proposition, ``consume_to_one`` spends a term down to ``one``, and
``enumerate_elim_contexts`` lists the destructor-only contexts from a
proposition down to ``one`` or ``top``.
"""

from __future__ import annotations

import random

from . import syntax as S
from .semiring import QNN, Semiring
from .syntax import Prop, Term

Ctx = tuple[tuple[str, Prop], ...]

# The former of each connective proved by a proof of each of its sides:
# tensor's, and the pair of & and of (o).
_PAIRING = {S.Tensor: S.Tens,
            **{conn: pair for conn, (pair, _, _) in S._PAIRS.items()}}

# The introductions generate may draw for a goal of each connective, each
# as many times as it is listed.
_INTROS = {S.One: (S.Star,) * 2, S.Lollipop: (S.Lam,) * 3,
           S.Plus: (S.Inl, S.Inr),
           **{conn: (pair,) * 2 for conn, pair in _PAIRING.items()}}

# The forms generate may draw for any goal, after the goal's introductions.
_ANY_GOAL = (S.Sum, S.Scal, S.UnitElim, S.App, S.Fst, S.Snd, S.Case,
             S.TensElim, S.SupFst, S.SupSnd)

# The connectives taken apart by binding both sides, let_tens and case: the
# letter of the names bound by consume_to_one and enumerate_elim_contexts.
_SPLIT_TAGS = {S.Tensor: ("t", "e"), S.Plus: ("c", "c")}


class TermGenerator:
    def __init__(self, seed: int = 0, semiring: Semiring = QNN,
                 allow_sup_elim: bool = True, max_depth: int = 6):
        self.rng = random.Random(seed)
        self.sr = semiring
        self.allow_sup_elim = allow_sup_elim
        self.max_depth = max_depth
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"g{self._counter}"

    def _scalar(self):
        return self.rng.choice(self.sr.test_pool)

    def random_prop(self, depth: int = 2) -> Prop:
        if depth <= 0 or self.rng.random() < 0.4:
            return S.One()
        ctor = self.rng.choice((S.With, S.Plus, S.Tensor, S.Lollipop, S.Sup))
        return ctor(self.random_prop(depth - 1), self.random_prop(depth - 1))

    def closed(self, prop: Prop | None = None,
               depth: int | None = None) -> tuple[Term, Prop]:
        a = prop if prop is not None else self.random_prop(2)
        d = depth if depth is not None else self.max_depth
        return self.generate((), a, d), a

    # -- helpers -----------------------------------------------------------

    def _split_ctx(self, ctx: Ctx) -> tuple[Ctx, Ctx]:
        left, right = [], []
        for entry in ctx:
            (left if self.rng.random() < 0.5 else right).append(entry)
        return tuple(left), tuple(right)

    def _spend(self, ctx: Ctx, a: Prop) -> Term:
        """Deterministic fallback: consume every context variable to one,
        then inhabit the goal."""
        if not ctx:
            t = canonical_inhabitant(a, self.sr)
            if t is None:
                raise ValueError(f"uninhabitable goal {S.print_prop(a)}")
            return t
        (x, ax), rest = ctx[0], ctx[1:]
        used = consume_to_one(S.Var(x), ax, self.sr)
        if used is None:
            raise ValueError(f"cannot consume {S.print_prop(ax)}")
        return S.UnitElim(used, self._spend(rest, a))

    # -- generation --------------------------------------------------------

    def generate(self, ctx: Ctx, a: Prop, depth: int) -> Term:
        rng = self.rng
        just_a = len(ctx) == 1 and ctx[0][1] == a
        if depth <= 0:
            if just_a and rng.random() < 0.5:
                return S.Var(ctx[0][0])
            return self._spend(ctx, a)

        options = [S.Var] * 3 if just_a else []
        if not ctx or type(a) is not S.One:  # star needs an empty context
            options += _INTROS.get(type(a), ())
        options += _ANY_GOAL
        if self.allow_sup_elim:
            options += [S.SupElim] * 2

        pick = rng.choice(options)
        d = depth - 1
        if pick is S.Var:
            return S.Var(ctx[0][0])
        if pick is S.Star:
            return S.Star(self._scalar())
        if pick in _PAIRING.values():
            # tensor splits the context between its sides; a pair shares it
            c1, c2 = self._split_ctx(ctx) if pick is S.Tens else (ctx, ctx)
            return pick(self.generate(c1, a.left, d),
                        self.generate(c2, a.right, d))
        if pick is S.Lam:
            x = self._fresh()
            return S.Lam(x, self.generate(ctx + ((x, a.left),), a.right, d),
                         a.left)
        if pick in S._INJECTIONS:
            side, other = S._INJECTIONS[pick]
            return pick(self.generate(ctx, getattr(a, side), d),
                        getattr(a, other))
        if pick is S.Sum:
            return S.Sum(self.generate(ctx, a, d), self.generate(ctx, a, d))
        if pick is S.Scal:
            return S.Scal(self._scalar(), self.generate(ctx, a, d))
        if pick in S._PROJECTION:
            pair, side = S._PROJECTION[pick]
            other = self.random_prop(1)
            conn = S._PAIR_PROP[pair]
            pairtype = conn(a, other) if side == "left" else conn(other, a)
            return pick(self.generate(ctx, pairtype, d))
        # each form left splits the context between its first premise and
        # the others
        c1, c2 = self._split_ctx(ctx)
        if pick is S.UnitElim:
            return S.UnitElim(self.generate(c1, S.One(), d),
                              self.generate(c2, a, d))
        if pick is S.App:
            arg_t = self.random_prop(1)
            return S.App(self.generate(c1, S.Lollipop(arg_t, a), d),
                         self.generate(c2, arg_t, d))
        t1, t2 = self.random_prop(1), self.random_prop(1)
        x, y = self._fresh(), self._fresh()
        if pick is S.TensElim:
            scrut = self.generate(c1, S.Tensor(t1, t2), d)
            body = self.generate(c2 + ((x, t1), (y, t2)), a, d)
            return S.TensElim(scrut, x, y, body)
        # case or sup_elim
        conn = S.Plus if pick is S.Case else S.Sup
        scrut = self.generate(c1, conn(t1, t2), d)
        left = self.generate(((x, t1),) + c2, a, d)
        right = self.generate(((y, t2),) + c2, a, d)
        if pick is S.Case:
            return S.Case(scrut, x, left, y, right)
        p, q = rng.choice(self.sr.weight_pool)
        return S.SupElim(p, q, scrut, x, left, y, right)


# ---------------------------------------------------------------------------
# Canonical inhabitants, consumers and elimination contexts


def canonical_inhabitant(a: S.Prop, semiring: Semiring = QNN) -> Term | None:
    """A closed proof of a, if this constructor-only search finds one."""
    sr = semiring
    kind = type(a)
    if kind in _PAIRING:
        l, r = (canonical_inhabitant(x, sr) for x in (a.left, a.right))
        pair = _PAIRING[kind]
        return pair(l, r) if l is not None and r is not None else None
    if kind is S.Plus:
        for inj, (side, other) in S._INJECTIONS.items():
            body = canonical_inhabitant(getattr(a, side), sr)
            if body is not None:
                return inj(body, getattr(a, other))
        return None
    if kind is S.Lollipop:
        body = _consume_to(S.Var("x"), a.left, a.right, sr)
        return S.Lam("x", body, a.left) if body is not None else None
    if kind is S.One:
        return S.Star(sr.one)
    return S.Unit() if kind is S.Top else None


def _elim_steps(a: S.Prop, sr: Semiring) -> tuple:
    """Each one-hole destructor step out of a, as (wrap, the proposition it
    leaves), where wrap builds the step around a term: a pair's two
    projections, or a function applied to its canonical argument."""
    if type(a) in S._PAIRS:
        _, fst, snd = S._PAIRS[type(a)]
        return (fst, a.left), (snd, a.right)
    if type(a) is S.Lollipop:
        arg = canonical_inhabitant(a.left, sr)
        if arg is not None:
            return ((lambda t: S.App(t, arg), a.right),)
    return ()


def consume_to_one(expr: Term, a: S.Prop, sr: Semiring, depth: int = 0) -> Term | None:
    """A term of type one consuming expr : a linearly, if one exists."""
    kind = type(a)
    if depth > 32 or kind is S.Top:
        return None
    if kind is S.One:
        return expr
    if kind is S.Zero:
        return S.ZeroElim(expr, S.One())
    if kind in _SPLIT_TAGS:
        tag = _SPLIT_TAGS[kind][0]
        return _split_elim(expr, a, f"_{tag}{depth}l", f"_{tag}{depth}r", sr,
                           depth + 1)
    for wrap, part in _elim_steps(a, sr):
        got = consume_to_one(wrap(expr), part, sr, depth + 1)
        if got is not None:
            return got
    return None


def _split_elim(expr: Term, a: S.Prop, x: str, y: str, sr: Semiring,
                depth: int, stuck: Term | None = None) -> Term | None:
    """let_tens on expr : a tensor, or case on expr : a plus, binding x and
    y to a's parts and spending each down to one.  Where a part cannot be
    spent, the body or both branches are ``stuck``, or without it there is
    no term."""
    l = consume_to_one(S.Var(x), a.left, sr, depth)
    r = consume_to_one(S.Var(y), a.right, sr, depth)
    if l is None or r is None:
        if stuck is None:
            return None
        body = l = r = stuck
    else:
        body = S.UnitElim(l, r)
    if type(a) is S.Tensor:
        return S.TensElim(expr, x, y, body)
    return S.Case(expr, x, l, y, r)


def _consume_to(expr: Term, a: S.Prop, target: S.Prop, sr: Semiring) -> Term | None:
    """A term of type target that consumes expr : a."""
    if type(target) is S.Top:
        return S.Unit()
    used = consume_to_one(expr, a, sr)
    if used is None:
        return None
    if type(target) is S.One:
        return used
    filler = canonical_inhabitant(target, sr)
    if filler is None:
        return None
    return S.UnitElim(used, filler)


def enumerate_elim_contexts(a: S.Prop, depth: int,
                            semiring: Semiring = QNN) -> list[Term]:
    """All destructor-only contexts from a down to one or top, with branch
    and argument positions filled by canonical closed terms, up to the
    given nesting depth."""
    sr = semiring
    out: list[Term] = [S.Hole()] if type(a) in (S.One, S.Top) else []
    if depth <= 0:
        return out
    for wrap, part in _elim_steps(a, sr):
        step = wrap(S.Hole())
        out += [S.fill(k, step)
                for k in enumerate_elim_contexts(part, depth - 1, sr)]
    if type(a) in _SPLIT_TAGS:
        tag = _SPLIT_TAGS[type(a)][1]
        out.append(_split_elim(S.Hole(), a, f"{tag}l_", f"{tag}r_", sr, 0,
                               stuck=S.Unit()))
    return out
