"""Goal-directed random generation of well-typed terms.

Generation is type- and context-driven: every context variable is routed to
exactly one premise (or shared by additive forms), so the output always
checks.  Generated propositions avoid ``top`` and ``zero`` so that every
context variable can be consumed down to ``one``; the fallback at depth 0
spends the remaining context deterministically.

That fallback and the elimination contexts read the constructor-only
helpers below: ``canonical_inhabitant`` builds a closed proof of a
proposition, ``consume_to_one`` spends a term down to ``one``, and
``enumerate_elim_contexts`` lists the destructor-only contexts from a
proposition down to a basic one.
"""

from __future__ import annotations

import random

from . import syntax as S
from .semiring import QNN, Semiring
from .syntax import Prop, Term

Ctx = tuple[tuple[str, Prop], ...]


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
        if depth <= 0:
            if len(ctx) == 1 and ctx[0][1] == a and rng.random() < 0.5:
                return S.Var(ctx[0][0])
            return self._spend(ctx, a)

        options: list[str] = []
        if len(ctx) == 1 and ctx[0][1] == a:
            options += ["var"] * 3
        if isinstance(a, S.One) and not ctx:
            options += ["star"] * 2
        if isinstance(a, S.Tensor):
            options += ["tens"] * 2
        if isinstance(a, S.Lollipop):
            options += ["lam"] * 3
        if type(a) in S._PAIRS:
            options += ["pair"] * 2
        if isinstance(a, S.Plus):
            options += ["inl", "inr"]
        options += ["sum", "scal"]
        options += ["unit_elim", "app", "fst", "snd", "case", "let_tens",
                    "supfst", "supsnd"]
        if self.allow_sup_elim:
            options += ["sup_elim", "sup_elim"]

        pick = rng.choice(options)
        cls = S._KEYWORD_CLASS.get(pick)
        d = depth - 1

        if pick == "var":
            return S.Var(ctx[0][0])
        if pick == "star":
            return S.Star(self._scalar())
        if pick == "tens":
            c1, c2 = self._split_ctx(ctx)
            return S.Tens(self.generate(c1, a.left, d),
                          self.generate(c2, a.right, d))
        if pick == "lam":
            x = self._fresh()
            return S.Lam(x, self.generate(ctx + ((x, a.left),), a.right, d),
                         a.left)
        if pick == "pair":
            pair = S._PAIRS[type(a)][0]
            return pair(self.generate(ctx, a.left, d),
                        self.generate(ctx, a.right, d))
        if cls in S._INJECTIONS:
            side, other = S._INJECTIONS[cls]
            return cls(self.generate(ctx, getattr(a, side), d),
                       getattr(a, other))
        if pick == "sum":
            return S.Sum(self.generate(ctx, a, d), self.generate(ctx, a, d))
        if pick == "scal":
            return S.Scal(self._scalar(), self.generate(ctx, a, d))
        if pick == "unit_elim":
            c1, c2 = self._split_ctx(ctx)
            return S.UnitElim(self.generate(c1, S.One(), d),
                              self.generate(c2, a, d))
        if pick == "app":
            c1, c2 = self._split_ctx(ctx)
            arg_t = self.random_prop(1)
            return S.App(self.generate(c1, S.Lollipop(arg_t, a), d),
                         self.generate(c2, arg_t, d))
        if cls in S._PROJECTION:
            pair, side = S._PROJECTION[cls]
            other = self.random_prop(1)
            conn = S._PAIR_PROP[pair]
            pairtype = conn(a, other) if side == "left" else conn(other, a)
            return cls(self.generate(ctx, pairtype, d))
        if pick == "let_tens":
            c1, c2 = self._split_ctx(ctx)
            t1, t2 = self.random_prop(1), self.random_prop(1)
            x, y = self._fresh(), self._fresh()
            scrut = self.generate(c1, S.Tensor(t1, t2), d)
            body = self.generate(c2 + ((x, t1), (y, t2)), a, d)
            return S.TensElim(scrut, x, y, body)
        if pick in ("case", "sup_elim"):
            c1, c2 = self._split_ctx(ctx)
            t1, t2 = self.random_prop(1), self.random_prop(1)
            x, y = self._fresh(), self._fresh()
            conn = S.Plus if pick == "case" else S.Sup
            scrut = self.generate(c1, conn(t1, t2), d)
            left = self.generate(((x, t1),) + c2, a, d)
            right = self.generate(((y, t2),) + c2, a, d)
            if pick == "case":
                return S.Case(scrut, x, left, y, right)
            p, q = rng.choice(self.sr.weight_pool)
            return S.SupElim(p, q, scrut, x, left, y, right)
        raise AssertionError(pick)


# ---------------------------------------------------------------------------
# Canonical inhabitants, consumers and elimination contexts


def basic(a: S.Prop) -> bool:
    return isinstance(a, (S.One, S.Top))


def canonical_inhabitant(a: S.Prop, semiring: Semiring = QNN) -> Term | None:
    """A closed proof of a, if this constructor-only search finds one."""
    sr = semiring
    if isinstance(a, S.One):
        return S.Star(sr.one)
    if isinstance(a, S.Top):
        return S.Unit()
    if isinstance(a, S.Zero):
        return None
    if isinstance(a, (S.Tensor, S.With, S.Sup)):
        l, r = (canonical_inhabitant(x, sr) for x in (a.left, a.right))
        cls = S.Tens if isinstance(a, S.Tensor) else S._PAIRS[type(a)][0]
        return cls(l, r) if l is not None and r is not None else None
    if isinstance(a, S.Plus):
        for inj, (side, other) in S._INJECTIONS.items():
            body = canonical_inhabitant(getattr(a, side), sr)
            if body is not None:
                return inj(body, getattr(a, other))
        return None
    if isinstance(a, S.Lollipop):
        x = "x"
        body = _consume_to(S.Var(x), a.left, a.right, sr)
        return S.Lam(x, body, a.left) if body is not None else None
    return None


def consume_to_one(expr: Term, a: S.Prop, sr: Semiring, depth: int = 0) -> Term | None:
    """A term of type one consuming expr : a linearly, if one exists."""
    if depth > 32 or isinstance(a, S.Top):
        return None
    if isinstance(a, S.One):
        return expr
    if isinstance(a, S.Zero):
        return S.ZeroElim(expr, S.One())
    if type(a) in S._PAIRS:
        _, fst, snd = S._PAIRS[type(a)]
        got = consume_to_one(fst(expr), a.left, sr, depth + 1)
        return got if got is not None else consume_to_one(
            snd(expr), a.right, sr, depth + 1)
    if isinstance(a, (S.Tensor, S.Plus)):
        tag = "t" if isinstance(a, S.Tensor) else "c"
        return _split_elim(expr, a, f"_{tag}{depth}l", f"_{tag}{depth}r", sr,
                           depth + 1)
    if isinstance(a, S.Lollipop):
        arg = canonical_inhabitant(a.left, sr)
        if arg is None:
            return None
        return consume_to_one(S.App(expr, arg), a.right, sr, depth + 1)
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
    if isinstance(a, S.Tensor):
        return S.TensElim(expr, x, y, body)
    return S.Case(expr, x, l, y, r)


def _consume_to(expr: Term, a: S.Prop, target: S.Prop, sr: Semiring) -> Term | None:
    """A term of type target that consumes expr : a."""
    if isinstance(target, S.Top):
        return S.Unit()
    used = consume_to_one(expr, a, sr)
    if used is None:
        return None
    if isinstance(target, S.One):
        return used
    filler = canonical_inhabitant(target, sr)
    if filler is None:
        return None
    return S.UnitElim(used, filler)


def enumerate_elim_contexts(a: S.Prop, depth: int,
                            semiring: Semiring = QNN) -> list[Term]:
    """All destructor-only contexts from a down to a basic proposition,
    with branch and argument positions filled by canonical closed terms,
    up to the given nesting depth."""
    sr = semiring
    out: list[Term] = []
    if basic(a):
        out.append(S.Hole())
    if depth <= 0:
        return out

    def extend(inner: S.Prop, wrap) -> list[Term]:
        return [S.fill(k, wrap) for k in enumerate_elim_contexts(
            inner, depth - 1, sr)]

    if type(a) in S._PAIRS:
        _, fst, snd = S._PAIRS[type(a)]
        out += extend(a.left, fst(S.Hole()))
        out += extend(a.right, snd(S.Hole()))
    elif isinstance(a, S.Lollipop):
        arg = canonical_inhabitant(a.left, sr)
        if arg is not None:
            out += extend(a.right, S.App(S.Hole(), arg))
    elif isinstance(a, (S.Tensor, S.Plus)):
        tag = "e" if isinstance(a, S.Tensor) else "c"
        out.append(_split_elim(S.Hole(), a, f"{tag}l_", f"{tag}r_", sr, 0,
                               stuck=S.Unit()))
    return out
