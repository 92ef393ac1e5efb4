"""Small-step reduction, normalization, and probabilistic runs.

There are 25 contraction rules: 11 value/redex contractions and 14
commutations of sums and scalar products, which come in two shapes.  A sum
or a scalar product of introductions (``star``, ``lam``, ``unit``, ``pair``,
``sup``) moves inside the introduction; an eliminator (``let_tens``,
``case``) over a sum or a scalar product moves outside it.  Every rule is
closed under arbitrary term contexts.  The two sup-elim contractions carry
their branch weights; all other steps have weight 1.

The base strategy everywhere is leftmost-outermost: the first redex in a
preorder traversal.  Strong normalization of well-typed terms makes
exhaustive branch exploration terminating, so ``distribution`` enumerates
the full multiset of (probability, normal form) leaves.

One loop, ``_reduce``, runs every reduction: ``normalize``,
``normalize_random``, ``paths`` and ``distribution`` call it, and
``is_normal`` asks its leftmost search.  Its redex choice is either the
leftmost-outermost redex or a uniformly random one of the full preorder
redex list.  The leftmost search does not rescan from the root after a
contraction at ``pos``.  ``contract`` looks only at a node and the classes
of its direct children, so the parent of ``pos`` is the only node whose
redex status can change; every node before the parent in preorder is
unchanged and stays a non-redex.  The search therefore checks the parent
first, then continues the preorder from ``pos`` (the contractum) and then
through the right siblings of each ancestor, innermost first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import syntax as S
from .semiring import QNN, Semiring
from .syntax import Term

DEFAULT_BUDGET = 100_000

BETA_RULES = (
    "unit_elim", "tens_elim", "apply", "fst", "snd", "case_inl", "case_inr",
    "supfst", "supsnd", "sup_elim_left", "sup_elim_right",
)
COMMUTATION_RULES = (
    "sum_star", "sum_tens_elim", "sum_lam", "sum_unit", "sum_pair",
    "sum_case", "sum_sup",
    "scal_star", "scal_tens_elim", "scal_lam", "scal_unit", "scal_pair",
    "scal_case", "scal_sup",
)
ALL_RULES = BETA_RULES + COMMUTATION_RULES


class ReductionError(Exception):
    pass


class SupBranchEncountered(ReductionError):
    """Normalization hit a probabilistic fork; use distribution() instead."""


class BudgetExceeded(ReductionError):
    pass


class EmptyDistribution(ReductionError):
    pass


class UnsupportedType(ReductionError):
    """The observational comparison is only decidable on the semimodule
    fragment (propositions built from one and &) and on top."""


@dataclass(frozen=True)
class Step:
    pos: tuple[int, ...]
    rule: str
    weight: object


# the rule contracting each projection of a pair
_PROJECTION_RULES = {S.Fst: "fst", S.Snd: "snd",
                     S.SupFst: "supfst", S.SupSnd: "supsnd"}

# the rule contracting a case of each injection, and the branch it selects
_CASE_RULES = {S.Inl: ("case_inl", "left_var", "left_body"),
               S.Inr: ("case_inr", "right_var", "right_body")}

# The two commutation shapes.  sum(I(..), I(..)) and scal(s, I(..)) contract
# to the introduction I of the subterms' sums or scalar products; each I and
# its rules for a sum and for a scalar product:
_INTRODUCTIONS = {
    S.Star: ("sum_star", "scal_star"), S.Lam: ("sum_lam", "scal_lam"),
    S.Unit: ("sum_unit", "scal_unit"), S.Pair: ("sum_pair", "scal_pair"),
    S.SupPair: ("sum_sup", "scal_sup"),
}
# E(sum(a, b)) contracts to sum(E(a), E(b)), and E(scal(s, a)) to
# scal(s, E(a)); each eliminator E, its eliminated field and its rules:
_ELIMINATORS = {S.TensElim: ("pair", "sum_tens_elim", "scal_tens_elim"),
                S.Case: ("scrutinee", "sum_case", "scal_case")}


def _merge_lams(a: S.Lam, b: S.Lam) -> Term:
    """The sum of two abstractions under a shared binder, renaming apart."""
    ann = a.ann if a.ann is not None else b.ann
    if a.var == b.var:
        return S.Lam(a.var, S.Sum(a.body, b.body), ann)
    if a.var not in S.free_vars(b.body):
        nb = S.substitute(S.Var(a.var), b.var, b.body)
        return S.Lam(a.var, S.Sum(a.body, nb), ann)
    taken = S.free_vars(a.body) | S.free_vars(b.body)
    z = S.fresh_name(a.var, taken)
    na = S.substitute(S.Var(z), a.var, a.body)
    nb = S.substitute(S.Var(z), b.var, b.body)
    return S.Lam(z, S.Sum(na, nb), ann)


def contract(t: Term, semiring: Semiring) -> list[tuple[str, object, Term]]:
    """Root redex patterns: (rule, weight, contractum) triples.

    Deterministic redexes give one triple; a sup-elimination of a sup-pair
    gives both branches.
    """
    one = semiring.one
    cls = type(t)

    if cls is S.Sum:
        a, b = t.left, t.right
        kind = type(a)
        if kind is not type(b) or kind not in _INTRODUCTIONS:
            return []
        if kind is S.Star:
            out = S.Star(semiring.add(a.scalar, b.scalar))
        elif kind is S.Lam:
            out = _merge_lams(a, b)
        else:
            out = S._rebuild(a, {n: S.Sum(getattr(a, n), getattr(b, n))
                                 for n in S._CHILDREN[kind]})
        return [(_INTRODUCTIONS[kind][0], one, out)]

    if cls is S.Scal:
        s, a = t.scalar, t.body
        kind = type(a)
        if kind not in _INTRODUCTIONS:
            return []
        if kind is S.Star:
            out = S.Star(semiring.mul(s, a.scalar))
        else:
            out = S._rebuild(a, {n: S.Scal(s, getattr(a, n))
                                 for n in S._CHILDREN[kind]})
        return [(_INTRODUCTIONS[kind][1], one, out)]

    if cls in _ELIMINATORS:
        field, sum_rule, scal_rule = _ELIMINATORS[cls]
        arg = getattr(t, field)
        kind = type(arg)
        if kind is S.Sum:
            return [(sum_rule, one, S.Sum(S._rebuild(t, {field: arg.left}),
                                          S._rebuild(t, {field: arg.right})))]
        if kind is S.Scal:
            return [(scal_rule, one, S.Scal(
                arg.scalar, S._rebuild(t, {field: arg.body})))]
        if cls is S.TensElim and kind is S.Tens:
            out = S.subst_parallel(t.body, {t.left_var: arg.left,
                                            t.right_var: arg.right})
            return [("tens_elim", one, out)]
        if cls is S.Case and kind in _CASE_RULES:
            rule, var, body = _CASE_RULES[kind]
            return [(rule, one, S.substitute(arg.body, getattr(t, var),
                                             getattr(t, body)))]
        return []

    if cls is S.UnitElim and type(t.unit) is S.Star:
        return [("unit_elim", one, S.Scal(t.unit.scalar, t.body))]

    if cls is S.App and type(t.fn) is S.Lam:
        return [("apply", one, S.substitute(t.arg, t.fn.var, t.fn.body))]

    if cls in S._PROJECTION:
        pair, side = S._PROJECTION[cls]
        if type(t.pair) is not pair:
            return []
        return [(_PROJECTION_RULES[cls], one, getattr(t.pair, side))]

    if cls is S.SupElim and type(t.scrutinee) is S.SupPair:
        scrut = t.scrutinee
        return [
            ("sup_elim_left", t.p,
             S.substitute(scrut.left, t.left_var, t.left_body)),
            ("sup_elim_right", t.q,
             S.substitute(scrut.right, t.right_var, t.right_body)),
        ]

    return []


def _redexes(t: Term, semiring: Semiring) -> list:
    """(position, contract entries) of every redex of t, in preorder."""
    return [(pos, entries) for pos, sub in S.subterms(t)
            if (entries := contract(sub, semiring))]


def step_all(t: Term, semiring: Semiring = QNN) -> list[tuple[Step, Term]]:
    """Every redex at every position, paired with the rewritten whole term."""
    return [(Step(pos, rule, weight), S.replace_at(t, pos, contractum))
            for pos, entries in _redexes(t, semiring)
            for rule, weight, contractum in entries]


def _leftmost(t: Term, pos: tuple[int, ...], semiring: Semiring):
    """The leftmost-outermost redex of t as (position, contract entries),
    or None, given that no redex precedes the parent of pos in preorder."""
    spine = []
    for i in pos:
        spine.append(t)
        t = getattr(t, S.subterm_fields(t)[i])
    if spine:
        entries = contract(spine[-1], semiring)
        if entries:
            return pos[:-1], entries

    def rest():
        yield pos, t
        for d in range(len(pos) - 1, -1, -1):
            siblings = S.children(spine[d])
            for j in range(pos[d] + 1, len(siblings)):
                yield pos[:d] + (j,), siblings[j]

    for base, sub in rest():
        for q, u in S.subterms(sub):
            entries = contract(u, semiring)
            if entries:
                return base + q, entries
    return None


def _reduce(t: Term, semiring: Semiring, budget: int, rng=None,
            forks: bool = False, trails: bool = False) -> list:
    """The one reduction loop: a (weight, normal form, steps) triple per
    leaf of t's reduction tree, left branch first.

    The redex is the leftmost-outermost one, or with rng a uniformly random
    one of the preorder redex list.  With forks both branches of a
    sup-elimination are explored; without, a fork raises
    SupBranchEncountered.  Steps are recorded only with trails.
    """
    if forks:
        limit, message = budget, f"reduction tree larger than {budget} steps"
    else:
        limit, message = budget - 1, f"no normal form within {budget} steps"
    leaves = []
    stack = [(t, (), semiring.one, None)]
    used = 0
    while stack:
        term, pos, weight, trail = stack.pop()
        if used > limit:
            raise BudgetExceeded(message)
        if rng is None:
            found = _leftmost(term, pos, semiring)
        else:
            redexes = _redexes(term, semiring)
            found = rng.choice(redexes) if redexes else None
        if found is None:
            steps = []
            while trail is not None:
                trail, step = trail
                steps.append(step)
            leaves.append((weight, term, tuple(reversed(steps))))
            continue
        pos, entries = found
        if len(entries) > 1 and not forks:
            raise SupBranchEncountered(
                f"probabilistic fork at position {pos}; use distribution()")
        used += len(entries)
        # push right branch first so the left branch is explored first; a
        # step that is no fork has weight one, which leaves the weight as is
        for rule, w, contractum in reversed(entries):
            nxt = S.replace_at(term, pos, contractum)
            stack.append((nxt, pos, semiring.mul(weight, w)
                          if len(entries) > 1 else weight,
                          (trail, (Step(pos, rule, w), nxt)) if trails
                          else None))
    return leaves


def is_normal(t: Term, semiring: Semiring = QNN) -> bool:
    return _leftmost(t, (), semiring) is None


def normalize(t: Term, semiring: Semiring = QNN,
              budget: int = DEFAULT_BUDGET) -> Term:
    """Leftmost-outermost normal form of a term without reachable
    probabilistic forks."""
    return _reduce(t, semiring, budget)[0][1]


def normalize_random(t: Term, rng: random.Random, semiring: Semiring = QNN,
                     budget: int = DEFAULT_BUDGET) -> Term:
    """Normalize picking a uniformly random redex at each step (forks are
    refused, as in normalize)."""
    return _reduce(t, semiring, budget, rng=rng)[0][1]


# ---------------------------------------------------------------------------
# Probabilistic runs


@dataclass(frozen=True)
class Path:
    """One maximal reduction sequence; weight is the product of step weights."""

    source: Term
    steps: tuple[tuple[Step, Term], ...]
    weight: object

    @property
    def value(self) -> Term:
        return self.steps[-1][1] if self.steps else self.source


@dataclass(frozen=True)
class Distribution:
    """The multiset of (probability, normal form) leaves of a term's
    reduction tree under the base strategy; duplicates are kept."""

    items: tuple[tuple[object, Term], ...]

    def total(self, semiring: Semiring):
        return semiring.sum([w for w, _ in self.items])

    def aggregate(self, semiring: Semiring) -> list[tuple[object, Term]]:
        """Merge duplicate values (up to alpha) by summing their weights."""
        buckets: dict[str, list] = {}
        for w, v in self.items:
            key = S.print_term(S.canonical(v))
            if key in buckets:
                buckets[key][0] = semiring.add(buckets[key][0], w)
            else:
                buckets[key] = [w, v]
        return [(w, v) for _, (w, v) in sorted(buckets.items())]


def paths(t: Term, semiring: Semiring = QNN,
          budget: int = DEFAULT_BUDGET) -> list[Path]:
    """All maximal leftmost-outermost reduction paths, left branch first."""
    return [Path(source=t, steps=steps, weight=w)
            for w, _, steps in _reduce(t, semiring, budget, forks=True,
                                       trails=True)]


def distribution(t: Term, semiring: Semiring = QNN,
                 budget: int = DEFAULT_BUDGET) -> Distribution:
    """Exhaustively enumerate spdv(t): reduce leftmost-outermost, forking
    at each sup-elimination with the two branch weights.  Unlike paths,
    no steps are recorded."""
    return Distribution(tuple(
        (w, v) for w, v, _ in _reduce(t, semiring, budget, forks=True)))


def sum_of_distribution(d: Distribution, semiring: Semiring = QNN) -> Term:
    """The weighted-sum term of a distribution: each element contributes
    scal(weight, value); elements are ordered lexicographically by their
    printed form and summed left-associated."""
    if not d.items:
        raise EmptyDistribution("cannot sum an empty distribution")
    pieces = [S.Scal(w, v) for w, v in d.items]
    pieces.sort(key=lambda u: S.print_term(S.canonical(u)))
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = S.Sum(acc, piece)
    return acc


# ---------------------------------------------------------------------------
# Observational comparison on the semimodule fragment


def mixed_equiv(t: Term, u: Term, a: S.Prop, semiring: Semiring = QNN) -> bool:
    """Whether two closed terms of type a are indistinguishable after
    aggregating their value distributions.

    Decidable on the semimodule fragment (one/& propositions), where it
    amounts to comparing the weighted sums of the value vectors, and on
    top, where all terms collapse.
    """
    from . import checker as TC
    from . import veccodec

    if isinstance(a, S.Top):
        TC.typecheck((), t, a, semiring)
        TC.typecheck((), u, a, semiring)
        return True
    if not veccodec.is_vprop(a):
        raise UnsupportedType(
            f"{S.print_prop(a)} is outside the decidable fragment")

    def vec(term: Term):
        n = veccodec.dim_v(a)
        total = [semiring.zero] * n
        for w, v in distribution(term, semiring).items:
            entries = veccodec.to_vector(v, a, semiring).entries
            total = [semiring.add(acc, semiring.mul(w, e))
                     for acc, e in zip(total, entries)]
        return total

    vt, vu = vec(t), vec(u)
    return all(semiring.eq(x, y) for x, y in zip(vt, vu))


# ---------------------------------------------------------------------------
# Elimination contexts


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
        l = canonical_inhabitant(a.left, sr)
        if l is not None:
            return S.Inl(l, a.right)
        r = canonical_inhabitant(a.right, sr)
        if r is not None:
            return S.Inr(r, a.left)
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
    if isinstance(a, S.Tensor):
        x, y = f"_t{depth}l", f"_t{depth}r"
        l = consume_to_one(S.Var(x), a.left, sr, depth + 1)
        r = consume_to_one(S.Var(y), a.right, sr, depth + 1)
        if l is None or r is None:
            return None
        return S.TensElim(expr, x, y, S.UnitElim(l, r))
    if isinstance(a, S.Lollipop):
        arg = canonical_inhabitant(a.left, sr)
        if arg is None:
            return None
        return consume_to_one(S.App(expr, arg), a.right, sr, depth + 1)
    if isinstance(a, S.Plus):
        x, y = f"_c{depth}l", f"_c{depth}r"
        l = consume_to_one(S.Var(x), a.left, sr, depth + 1)
        r = consume_to_one(S.Var(y), a.right, sr, depth + 1)
        if l is None or r is None:
            return None
        return S.Case(expr, x, l, y, r)
    return None


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
    elif isinstance(a, S.Tensor):
        x, y = "el_", "er_"
        body = None
        l = consume_to_one(S.Var(x), a.left, sr)
        r = consume_to_one(S.Var(y), a.right, sr)
        if l is not None and r is not None:
            body = S.UnitElim(l, r)
            out.append(S.TensElim(S.Hole(), x, y, body))
        else:
            out.append(S.TensElim(S.Hole(), x, y, S.Unit()))
    elif isinstance(a, S.Plus):
        x, y = "cl_", "cr_"
        l = consume_to_one(S.Var(x), a.left, sr)
        r = consume_to_one(S.Var(y), a.right, sr)
        if l is not None and r is not None:
            out.append(S.Case(S.Hole(), x, l, y, r))
        else:
            out.append(S.Case(S.Hole(), x, S.Unit(), y, S.Unit()))
    return out
