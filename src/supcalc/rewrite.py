"""Small-step reduction, normalization, and probabilistic runs.

There are 25 contraction rules: 11 value/redex contractions and 14
commutations of sums and scalar products, all in one table, ``_SHAPES``.
It maps each eliminating class (``sum``, ``scal``, ``let_tens``, ``case``,
``unit_elim``, ``app``, the four projections, ``sup_elim``) to its
eliminated field, and that field's subterm class to the rules and their
contractions; a ``sum`` also needs its right subterm of its left's class.
``is_redex`` reads only the table and ``contract`` dispatches through it,
so a node's redex status depends on its class and its direct children's
classes alone.  A sum or a scalar product of introductions (``star``,
``lam``, ``unit``, ``pair``, ``sup``) moves inside the introduction;
``let_tens`` and ``case`` over a sum or a scalar product move outside it.
Every rule is closed under arbitrary term contexts.  The two sup-elim
contractions carry their branch weights; all other steps have weight 1.

The base strategy everywhere is leftmost-outermost: the first redex in a
preorder traversal.  Strong normalization of well-typed terms makes
exhaustive branch exploration terminating, so ``distribution`` enumerates
the full multiset of (probability, normal form) leaves.

One engine, ``_shared_run``, runs the leftmost-outermost strategy for
``normalize``, which refuses the first fork, and for ``distribution``,
which explores the forks and runs each subterm's segment once per call;
it never rescans the whole term after a step.  ``paths`` and
``normalize_random`` run the kept-redex-list loop, which keeps the
preorder list of redex positions: ``paths`` contracts its first entry,
explores both branches of a fork and plugs the whole term after every
step, as each step it lists holds it; ``normalize_random`` contracts a
uniformly random entry.  ``is_normal`` asks ``is_redex`` at every subterm.

The loop holds the term as a focus and an immutable linked list of
frames ``(parent, child index, outer frames)`` up to the root, in the
manner of Huet's zipper (Huet, "The Zipper", JFP 1997).  Plugging a
child back into its parent rebuilds one node; the child the parent still
holds at that index may be stale, and the plug replaces it.
``normalize_random`` rebuilds the whole term only at the normal form.

Invariant of the kept list: after every step it equals the positions of
``_redexes`` on the current term.  Lexicographic order on position tuples
is preorder, so the positions under ``pos`` form one contiguous run that
``bisect`` finds.  A step cuts that run, splices in the contractum's redex
positions prefixed by ``pos``, and asks ``is_redex`` of the parent again
at its bisect slot: no other node outside ``pos`` gets a new child.
Positions are kept rather than contracta, since an ancestor's contractum
would hold stale subterms; ``contract`` runs again only at the chosen
position, which the focus reaches through the deepest common ancestor of
the two positions.  The list has the length and order of a full rescan,
so ``rng.choice`` makes the same draws.

``_shared_run`` runs each subterm's segment once per call.  A subterm
R's segment is R's own leftmost-outermost run, up to its first contraction
at R's root or up to R's normal form.  It does not depend on R's context:
redex status reads only a node's class and its children's, and a
contraction strictly inside R leaves R's root class as it is, so no node
outside R changes redex status until the segment ends.  The subterm right
of a fork is reached by both branches as the same object, so segments are
kept by object identity, with R held so that its id is not reused, and
they give back the same objects, which carries the sharing into the next
segments.  The leaves come out in the order of the unshared tree, and the
budget counts that tree's steps: a kept segment adds its stored count, so
sharing changes neither the budgets at which BudgetExceeded is raised nor
its message.  A segment keeps the fork weights it takes as its word.
Under an exact carrier (``Semiring.exact``: qnn, q, bool) the word is
their product, started from ``one``, and a state that reads the segment
multiplies its own product by it once.  Under an inexact one (f64) a
float product depends on its association, so the word is the tuple of
the weights, started from ``()``, and a reader folds it into its own word
one weight at a time: along each path from the root the weights are
multiplied in path order, so the products are the same whether or not a
segment is shared.

A reader of a segment that ends in a contraction at R's root plugs that
contractum c back into R's parent.  Where R is the parent's eliminated
subterm (child 0 of every eliminating class) and ``_SHAPES`` says the
plugged parent is a deterministic redex, the reader contracts at once,
``make(parent, c)``, and never builds the redex node: every contraction
reads its eliminated subterm only through its argument, so the parent,
which still holds R there, gives the same contractum.  The step is counted
when that contractum's state is taken up, as a plugged redex's would be,
and a fork (two rules) still goes through ``contract``.  No node without
subterms is asked about, since none is a redex, and a leaf of the whole
term is its (weight, value) pair, which ``distribution`` keeps as it is.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

from . import syntax as S
from .semiring import QNN, Semiring, format_scalar
from .syntax import Term

DEFAULT_BUDGET = 100_000

_CHILDREN = S._CHILDREN

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


def _sum_stars(t: S.Sum, a: S.Star, sr: Semiring) -> Term:
    return S.Star(sr.add(a.scalar, t.right.scalar))


def _merge_lams(t: S.Sum, a: S.Lam, sr: Semiring) -> Term:
    """The sum of two abstractions under a shared binder, renaming apart."""
    b = t.right
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


def _sum_into(t: S.Sum, a: Term, sr: Semiring) -> Term:
    return S._rebuild(a, {n: S.Sum(getattr(a, n), getattr(t.right, n))
                          for n in _CHILDREN[type(a)]})


def _scal_star(t: S.Scal, a: S.Star, sr: Semiring) -> Term:
    return S.Star(sr.mul(t.scalar, a.scalar))


def _scal_into(t: S.Scal, a: Term, sr: Semiring) -> Term:
    return S._rebuild(a, {n: S.Scal(t.scalar, getattr(a, n))
                          for n in _CHILDREN[type(a)]})


def _sum_out(t: Term, a: S.Sum, sr: Semiring) -> Term:
    field = _SHAPES[type(t)][0]
    return S.Sum(S._rebuild(t, {field: a.left}),
                 S._rebuild(t, {field: a.right}))


def _scal_out(t: Term, a: S.Scal, sr: Semiring) -> Term:
    return S.Scal(a.scalar, S._rebuild(t, {_SHAPES[type(t)][0]: a.body}))


def _tens_elim(t: S.TensElim, a: S.Tens, sr: Semiring) -> Term:
    return S.subst_parallel(t.body, {t.left_var: a.left, t.right_var: a.right})


def _unit_elim(t: S.UnitElim, a: S.Star, sr: Semiring) -> Term:
    return S.Scal(a.scalar, t.body)


def _apply(t: S.App, a: S.Lam, sr: Semiring) -> Term:
    return S.substitute(t.arg, a.var, a.body)


def _project(t: Term, a: Term, sr: Semiring) -> Term:
    return getattr(a, S._PROJECTION[type(t)][1])


def _branch(part: str, side: str):
    """A branch's contraction: a's part for t's side variable in its body."""
    var, body = side + "_var", side + "_body"
    return lambda t, a, sr: S.substitute(getattr(a, part), getattr(t, var),
                                         getattr(t, body))


# The redex shapes of the module docstring: {eliminating class: (eliminated
# field, the field a sum also needs of that class, {subterm class: [(rule,
# weight field or None for 1, contraction(t, subterm, semiring))]})}.
_SHAPES = {
    S.Sum: ("left", "right", {
        S.Star: [("sum_star", None, _sum_stars)],
        S.Lam: [("sum_lam", None, _merge_lams)],
        S.Unit: [("sum_unit", None, _sum_into)],
        S.Pair: [("sum_pair", None, _sum_into)],
        S.SupPair: [("sum_sup", None, _sum_into)]}),
    S.Scal: ("body", None, {
        S.Star: [("scal_star", None, _scal_star)],
        S.Lam: [("scal_lam", None, _scal_into)],
        S.Unit: [("scal_unit", None, _scal_into)],
        S.Pair: [("scal_pair", None, _scal_into)],
        S.SupPair: [("scal_sup", None, _scal_into)]}),
    S.TensElim: ("pair", None, {
        S.Tens: [("tens_elim", None, _tens_elim)],
        S.Sum: [("sum_tens_elim", None, _sum_out)],
        S.Scal: [("scal_tens_elim", None, _scal_out)]}),
    S.Case: ("scrutinee", None, {
        S.Inl: [("case_inl", None, _branch("body", "left"))],
        S.Inr: [("case_inr", None, _branch("body", "right"))],
        S.Sum: [("sum_case", None, _sum_out)],
        S.Scal: [("scal_case", None, _scal_out)]}),
    S.UnitElim: ("unit", None, {S.Star: [("unit_elim", None, _unit_elim)]}),
    S.App: ("fn", None, {S.Lam: [("apply", None, _apply)]}),
    S.Fst: ("pair", None, {S.Pair: [("fst", None, _project)]}),
    S.Snd: ("pair", None, {S.Pair: [("snd", None, _project)]}),
    S.SupFst: ("pair", None, {S.SupPair: [("supfst", None, _project)]}),
    S.SupSnd: ("pair", None, {S.SupPair: [("supsnd", None, _project)]}),
    S.SupElim: ("scrutinee", None, {S.SupPair: [
        ("sup_elim_left", "p", _branch("left", "left")),
        ("sup_elim_right", "q", _branch("right", "right"))]}),
}


def is_redex(t: Term) -> bool:
    """Whether t is a redex, read from _SHAPES; nothing is built."""
    shape = _SHAPES.get(type(t))
    if shape is None:
        return False
    field, twin, cases = shape
    kind = type(getattr(t, field))
    return kind in cases and (twin is None or type(getattr(t, twin)) is kind)


def contract(t: Term, semiring: Semiring) -> list[tuple[str, object, Term]]:
    """Root redex patterns: (rule, weight, contractum) triples, one for a
    deterministic redex and both branches for a sup-elimination.  It reads
    _SHAPES as is_redex does, with one lookup of t's class."""
    shape = _SHAPES.get(type(t))
    if shape is None:
        return []
    field, twin, cases = shape
    a = getattr(t, field)
    rules = cases.get(type(a))
    if rules is None or (twin is not None
                         and type(getattr(t, twin)) is not type(a)):
        return []
    out = []  # a loop costs less than a comprehension on this hot path
    for rule, weight, make in rules:
        out.append((rule, semiring.one if weight is None
                    else getattr(t, weight), make(t, a, semiring)))
    return out


def _redexes(t: Term, semiring: Semiring) -> list:
    """(position, contract entries) of every redex of t, in preorder, each
    contracted where _redex_walk found it."""
    return [(pos, contract(u, semiring)) for pos, u, _ in _redex_walk(t)]


def _redex_walk(t: Term, d=None, pos: tuple[int, ...] = ()) -> list:
    """(pos + q, node, sub-derivation) for the position q of every redex of
    t, in preorder.  Given d, t's derivation, a redex's sub-derivation is
    the node of d that derives it; a node's premises follow its term's
    subterm fields in order, and where a premise's term is not its field's
    own object, there is no such node, at the premise or below it, and the
    walk gives None, as it does without d.  The walk keeps one list of
    child indices and builds a tuple only for a redex; childless nodes are
    no redexes and are not visited."""
    out = []
    path = list(pos)
    stack = [(t, d, len(pos), None)]
    while stack:
        u, du, depth, i = stack.pop()
        if i is not None:
            del path[depth - 1:]
            path.append(i)
        if is_redex(u):
            out.append((tuple(path), u, du))
        names = _CHILDREN[type(u)]
        kids = () if du is None else du.children
        for j in range(len(names) - 1, -1, -1):
            child = getattr(u, names[j])
            if _CHILDREN[type(child)]:
                dk = kids[j] if j < len(kids) else None
                if dk is not None and dk.term is not child:
                    dk = None
                stack.append((child, dk, depth + 1, j))
    return out


def step_all(t: Term, semiring: Semiring = QNN) -> list[tuple[Step, Term]]:
    """Every redex at every position, paired with the rewritten whole term."""
    return [(Step(pos, rule, weight), S.replace_at(t, pos, contractum))
            for pos, entries in _redexes(t, semiring)
            for rule, weight, contractum in entries]


def _plug(parent: Term, i: int, child: Term) -> Term:
    """parent with its i-th subterm replaced by child: one node rebuilt."""
    return S._rebuild(parent, {_CHILDREN[type(parent)][i]: child})


def _plug_all(u: Term, frames) -> Term:
    """The whole term: u plugged back through every frame up to the root."""
    while frames is not None:
        parent, i, frames = frames
        u = _plug(parent, i, u)
    return u


def _move(focus: Term, frames, at: tuple[int, ...], pos: tuple[int, ...]):
    """The node at pos and its frames, from the focus at position at:
    climb to the deepest common ancestor, plugging, then descend."""
    common = next((k for k, (a, b) in enumerate(zip(at, pos)) if a != b),
                  min(len(at), len(pos)))
    for _ in range(len(at) - common):
        parent, i, frames = frames
        focus = _plug(parent, i, focus)
    for i in pos[common:]:
        frames = (focus, i, frames)
        focus = getattr(focus, _CHILDREN[type(focus)][i])
    return focus, frames


def _contract_at(kept: list, pos: tuple[int, ...], contractum: Term,
                 frames):
    """(focus, frames, focus position, kept redex positions) after the redex
    at pos, held at frames, contracts to contractum; the focus is the
    rebuilt parent of pos, or the contractum at the root."""
    lo = bisect_left(kept, pos)
    hi = bisect_left(kept, pos[:-1] + (pos[-1] + 1,)) if pos else len(kept)
    kept = (kept[:lo] + [p for p, _, _ in _redex_walk(contractum, None, pos)]
            + kept[hi:])
    if frames is None:
        return contractum, None, pos, kept
    parent, i, frames = frames
    up, up_pos = _plug(parent, i, contractum), pos[:-1]
    slot = bisect_left(kept, up_pos)
    was = slot < len(kept) and kept[slot] == up_pos
    if was != is_redex(up):
        if was:
            del kept[slot]
        else:
            kept.insert(slot, up_pos)
    return up, frames, up_pos, kept


def is_normal(t: Term) -> bool:
    return not any(map(is_redex, S.nodes(t)))


def normalize(t: Term, semiring: Semiring = QNN,
              budget: int = DEFAULT_BUDGET) -> Term:
    """Leftmost-outermost normal form of a term without reachable
    probabilistic forks."""
    (_, value), = _shared_run(t, semiring, budget, forks=False)
    return value


def normalize_random(t: Term, rng: random.Random, semiring: Semiring = QNN,
                     budget: int = DEFAULT_BUDGET) -> Term:
    """Normalize picking a uniformly random redex at each step (forks are
    refused, as in normalize) and taking at most budget steps."""
    focus, frames, at = t, None, ()
    kept = [p for p, _, _ in _redex_walk(t)]
    for _ in range(budget + 1):
        if not kept:
            return _plug_all(focus, frames)
        pos = rng.choice(kept)
        focus, frames = _move(focus, frames, at, pos)
        entries = contract(focus, semiring)
        if len(entries) > 1:
            raise SupBranchEncountered(
                f"probabilistic fork at position {pos}; use distribution()")
        focus, frames, at, kept = _contract_at(kept, pos, entries[0][2],
                                               frames)
    raise BudgetExceeded(f"no normal form within {budget} steps")


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


def _leaf_key(v: Term) -> str:
    """``print_term(canonical(v))``, the key under which values equal up
    to alpha are one.  canonical only renames binders and the variables
    they bind, so a value with no binder prints as its canonical form and
    is not canonicalised: a childless value (``star(c)``, ``unit``) is
    printed at once, any other is walked once to look for a binder."""
    if type(v) is S.Star:
        return "star(" + format_scalar(v.scalar) + ")"
    if _CHILDREN[type(v)] and any(type(u) in S._BINDERS for u in S.nodes(v)):
        v = S.canonical(v)
    return S.print_term(v)


@dataclass(frozen=True)
class Distribution:
    """The multiset of (probability, normal form) leaves of a term's
    reduction tree under the base strategy; duplicates are kept."""

    items: tuple[tuple[object, Term], ...]

    def total(self, semiring: Semiring):
        return semiring.sum([w for w, _ in self.items])

    def aggregate(self, semiring: Semiring) -> list[tuple[object, Term]]:
        """Merge duplicate values (up to alpha) by summing their weights in
        leaf order.  Each value is its first leaf's term, and the values
        are sorted by their printed canonical form (``_leaf_key``).  The
        result holds leaf tuples: a value met once is its leaf's own tuple
        from ``items``, a merged one a new (summed weight, value) tuple."""
        buckets: dict[str, tuple[object, Term]] = {}
        for leaf in self.items:
            key = _leaf_key(leaf[1])
            first = buckets.get(key)
            buckets[key] = leaf if first is None else (
                semiring.add(first[0], leaf[0]), first[1])
        return [buckets[key] for key in sorted(buckets)]


def paths(t: Term, semiring: Semiring = QNN,
          budget: int = DEFAULT_BUDGET) -> list[Path]:
    """All maximal leftmost-outermost reduction paths, left branch first,
    within budget steps of the reduction tree (a fork counts one per
    branch), on the kept-redex-list loop."""
    message = f"reduction tree larger than {budget} steps"
    if budget < 0:
        raise BudgetExceeded(message)
    out, used = [], 0
    stack = [(t, None, (), [p for p, _, _ in _redex_walk(t)], semiring.one,
              ())]
    while stack:
        focus, frames, at, kept, weight, steps = stack.pop()
        if not kept:
            out.append(Path(source=t, steps=steps, weight=weight))
            continue
        pos = kept[0]
        focus, frames = _move(focus, frames, at, pos)
        entries = contract(focus, semiring)
        used += len(entries)
        if used > budget:
            raise BudgetExceeded(message)
        fork = len(entries) > 1
        for rule, w, c in reversed(entries):  # the left branch comes first
            nxt = _contract_at(kept, pos, c, frames)
            stack.append((*nxt, semiring.mul(weight, w) if fork else weight,
                          steps + ((Step(pos, rule, w),
                                    _plug_all(*nxt[:2])),)))
    return out


def distribution(t: Term, semiring: Semiring = QNN,
                 budget: int = DEFAULT_BUDGET) -> Distribution:
    """Exhaustively enumerate spdv(t): reduce leftmost-outermost, forking
    at each sup-elimination with the two branch weights.  Each subterm's
    segment is run once, and only each leaf's weight and normal form are
    kept."""
    return Distribution(tuple(_shared_run(t, semiring, budget, forks=True)))


# the modes of a pending state (node, i, word, mode) of _shared_run:
# check node's root first; go to child i; go to child i, whose segment has
# just been run and counted; node is the contractum of a deterministic step
# that a plug skipped, and the step is counted when the state is popped
_CHECK, _NEXT, _RESUME, _CONTRACTED = range(4)


def _shared_run(t: Term, semiring: Semiring, budget: int,
                forks: bool) -> list:
    """The leaves of t's leftmost-outermost reduction tree, left branch
    first, running each subterm's segment once.

    A frame runs one segment, of its root; the first frame runs the whole
    term instead, going on from each contractum of its root.  Its pending
    states are (node, i, word, mode): node is the current form of
    the root, children before i are normal.  Words are the fork weights
    taken since the frame began (see the module docstring).  In the first
    frame a word is their product, taken in path order from ``one``.  In
    any other it starts from ``empty``: under an exact carrier it is their
    product from ``one`` (the object), under an inexact one the tuple of
    the weights from ``()``.  A word read from a segment extends the
    reader's unless either is ``empty``: by one product if exact, else
    weight by weight through ``reduce(op, cell, word)``, which multiplies
    in path order in the first frame and appends in any other.  A finished
    frame leaves (root, [(word, result, rooted)], unshared steps)
    in memo, keyed by id(root); rooted tells a contractum of the root from
    a normal form.  Memo hits add their steps to the budget, which so
    counts the unshared tree.  A budget below zero raises BudgetExceeded
    at once.

    Without forks, a root contraction with two entries raises
    SupBranchEncountered before its steps are counted, so a fork one step
    past the budget is reported as a fork.  The redex is the root of the
    innermost frame; its position is the child index of each enclosing
    frame's pending _RESUME entry, outermost first.

    A rooted result read back at child 0, the eliminated field of every
    shape, that makes node a deterministic redex is contracted there from
    the stale node, which gives the same contractum (see the module
    docstring), and pushed as a _CONTRACTED state.  Popping it counts its
    one step against the budget, as the check of the plugged node would,
    so BudgetExceeded comes where it came; then the first frame checks the
    contractum from its root and child 0, and any other frame ends its
    segment with it.  A fork, or a plug at another child, goes through a
    _CHECK state; a node without subterms is never passed to contract.
    The first frame's leaves are (weight, normal form) pairs.
    """
    message = (f"reduction tree larger than {budget} steps" if forks
               else f"no normal form within {budget} steps")
    if budget < 0:
        raise BudgetExceeded(message)
    memo = {}
    used = 0
    leaves = []
    exact = semiring.exact
    empty, join = ((semiring.one, semiring.mul) if exact
                   else ((), lambda word, w: word + (w,)))
    frames = [(None, [(t, 0, semiring.one, _CHECK)], leaves, 0,
               semiring.mul)]
    while frames:
        root, todo, out, start, op = frames[-1]
        if not todo:
            frames.pop()
            if root is not None:
                memo[id(root)] = (root, out, used - start)
            continue
        node, i, word, mode = todo.pop()
        if mode == _CONTRACTED:
            used += 1
            if used > budget:
                raise BudgetExceeded(message)
            if root is not None:
                out.append((word, node, True))
                continue
            mode = _CHECK
        names = _CHILDREN[type(node)]
        if mode == _CHECK and names:  # a node without subterms is no redex
            entries = contract(node, semiring)
            if entries:
                fork = len(entries) > 1
                if fork and not forks:
                    pos = tuple(f[1][-1][1] for f in frames[:-1])
                    raise SupBranchEncountered(
                        f"probabilistic fork at position {pos}; "
                        "use distribution()")
                used += len(entries)
                if used > budget:
                    raise BudgetExceeded(message)
                if root is None:
                    for _, w, c in reversed(entries):
                        todo.append((c, 0, op(word, w) if fork else word,
                                     _CHECK))
                else:
                    out.extend((op(word, w) if fork else word, c, True)
                               for _, w, c in entries)
                continue
        if i == len(names):
            out.append((word, node) if root is None
                       else (word, node, False))
            continue
        child = getattr(node, names[i])
        if not _CHILDREN[type(child)]:
            # a leaf is no redex: its segment is empty and it stays as is
            todo.append((node, i + 1, word, _NEXT))
            continue
        hit = memo.get(id(child))
        if hit is None:
            todo.append((node, i, word, _RESUME))
            frames.append((child, [(child, 0, empty, _CHECK)], [], used,
                           join))
            continue
        _, results, steps = hit
        if mode != _RESUME:
            used += steps
            if used > budget:
                raise BudgetExceeded(message)
        # child 0 is the eliminated field of every shape
        shape = _SHAPES.get(type(node)) if i == 0 else None
        for cell, c, rooted in reversed(results):
            w = (word if cell is empty else cell if word is empty
                 else op(word, cell) if exact else reduce(op, cell, word))
            if not rooted:
                todo.append((node if c is child else _plug(node, i, c),
                             i + 1, w, _NEXT))
                continue
            rules = shape[2].get(type(c)) if shape else None
            if (rules is not None and len(rules) == 1
                    and (shape[1] is None
                         or type(getattr(node, shape[1])) is type(c))):
                _, _, make = rules[0]
                todo.append((make(node, c, semiring), 0, w, _CONTRACTED))
            else:
                todo.append((_plug(node, i, c), i, w, _CHECK))
    return leaves


def sum_of_distribution(d: Distribution) -> Term:
    """The weighted-sum term of a distribution: each element contributes
    scal(weight, value); elements are ordered lexicographically by their
    printed form and summed left-associated."""
    if not d.items:
        raise EmptyDistribution("cannot sum an empty distribution")
    pieces = [S.Scal(w, v) for w, v in d.items]
    pieces.sort(key=_leaf_key)
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
