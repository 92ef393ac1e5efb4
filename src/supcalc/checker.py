"""Linear type checking with explicit derivations.

The checker is bidirectional: most forms synthesize their type, while
``lam``, ``inl``, ``inr`` and ``zero_elim`` need either a ``{type}``
annotation or an expected type flowing in.  Checking is deterministic and
syntax directed; when a judgment holds, its type is unique.

The multiplicative rules split the ambient context between a left
premise, the form's first subterm, and right premises, its other
subterms: ``unit_elim``, ``app``, ``tens`` and ``let_tens`` have one right
premise, ``case`` and ``sup_elim`` have both branches, and ``zero_elim``
has none.  A variable goes to the side that uses it, that is, where it is
free outside the names the premise binds; a variable used on both sides is
a linearity violation.  A variable used by neither side goes left if the
left premise can absorb it, else right if every right premise can, and is
otherwise a linearity violation.  So absorption is the split rule itself:
a split form absorbs if its left premise or every right premise does
(``zero_elim`` always does), ``unit`` absorbs, any other form with
subterms absorbs if all of them do, and a variable or a ``star`` absorbs
nothing.

Each split records the partition and the permutation taking the ambient
order to the premise order, which the denotational interpreter replays as
a braiding.

A split reads only the facts it needs to place the names.  An empty
context has no name to place, so its split asks for no fact: checking a
closed term asks for none at any split outside its binders.  A non-empty
context reads the free variables of every premise, and asks whether a
premise absorbs only when a name is used by neither side: first of the
left premise, then, if it does not, of each right premise in turn.

The checker keeps nothing itself.  A term node keeps its free variables,
whether it absorbs, and a weak link (a derivation holds its term) to the
last derivation built for it, with the semiring, context and expected
type.  While something else holds that derivation, a check of the node in
that semiring and an equal context gets it back at that expected type, or
at its own type if it was built with none: checking a term against the
type it synthesizes derives the same.  Failures are not kept.  So a
reduct re-derives only the nodes its step rebuilt.

A derivation and a split plan keep their fields in slots and have no
``__dict__``, as terms do (see ``syntax``).  A derivation's facts are
slots too: the semiring (``_sr``) and the expected type (``_want``) the
checker built it for, and its matrix (``_mat``, see ``denote``).  The
constructor sets each to None, which means unset, and a copy or a pickle
carries the fields only.

``validate`` re-typechecks a derivation's root judgment once and compares
the derivation with the checker's own, node by node.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from . import syntax as S
from .semiring import QNN, Semiring, WeightError
from .syntax import Prop, Term

Context = tuple[tuple[str, Prop], ...]


class TypingError(Exception):
    pass


class UnboundVariable(TypingError):
    pass


class LinearViolation(TypingError):
    pass


class TypeMismatch(TypingError):
    pass


class AmbiguousType(TypingError):
    """The form needs an annotation or an expected type to check against."""


@S._slotted
class SplitPlan:
    """Partition of the ambient context for a multiplicative rule.

    ``left``/``right`` are the variable names routed to the first/second
    premise group, in ambient order; ``perm`` lists ambient indices in the
    order left + right, i.e. the permutation that reorders the ambient
    context into the premise contexts.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    perm: tuple[int, ...]


class _DerivationFacts:
    # a derivation's facts (see the module docstring), and the slot that
    # lets a term hold a weak link to its derivation
    __slots__ = ("_sr", "_want", "_mat", "__weakref__")


@S._slotted
class Derivation(_DerivationFacts):
    rule: str
    ctx: Context
    term: Term
    prop: Prop
    children: tuple["Derivation", ...] = ()
    split: Optional[SplitPlan] = None


# the one proposition one and the one top that the checker's rules give
_ONE, _TOP = S.One(), S.Top()

# the forms whose rule splits its context (see the module docstring)
_SPLITS = {S.UnitElim, S.App, S.Tens, S.TensElim, S.ZeroElim, S.Case,
           S.SupElim}
# each split form's left premise field and its right premise fields
_PREMISES = {cls: (S._CHILDREN[cls][0], S._CHILDREN[cls][1:])
             for cls in _SPLITS}
# the plan of a split of the empty context
_NO_SPLIT = SplitPlan((), (), ())


def can_absorb(t: Term) -> bool:
    """Whether a typing of t can consume context variables it never uses.
    A node decides it once, from its subterms', and keeps the answer."""
    out = t._absorbs
    if out is not None:
        return out
    names = S._CHILDREN[type(t)]
    if type(t) in _SPLITS:
        names = () if can_absorb(getattr(t, names[0])) else names[1:]
        out = True
    else:
        out = bool(names) or type(t) is S.Unit
    for n in names:
        if not can_absorb(getattr(t, n)):
            out = False
            break
    object.__setattr__(t, "_absorbs", out)
    return out


class _Checker:
    """One checker for any number of judgments in one semiring; what it
    learns, it leaves on the nodes (see the module docstring)."""

    def __init__(self, semiring: Semiring):
        self.sr = semiring

    # -- context splitting ------------------------------------------------

    def split(self, ctx: Context,
              t: Term) -> tuple[Context, Context, SplitPlan]:
        """Split ctx for the node t between its left premise and its right
        premises, less the names each binds, by the split rule stated
        above.  An empty ctx has nothing to place; otherwise absorption is
        asked only for a name that neither side uses, of the left premise
        first and then of each right premise."""
        if not ctx:
            return (), (), _NO_SPLIT
        first, rest = _PREMISES[type(t)]
        left = getattr(t, first)
        fv_left = S.free_vars(left)
        fv_right = S._NO_NAMES
        for n in rest:
            fv = S.free_vars(getattr(t, n))
            bound = S.bound_names(t, n)
            if bound and not fv.isdisjoint(bound):
                fv = fv.difference(bound)
            fv_right = fv_right | fv if fv_right else fv
        absorb_left = absorb_right = None
        left_idx: list[int] = []
        right_idx: list[int] = []
        for i, (x, _) in enumerate(ctx):
            if x in fv_left:
                if x in fv_right:
                    raise LinearViolation(
                        f"variable {x} is used by both sides of a context "
                        f"split in {S.print_term(t)}")
                left_idx.append(i)
                continue
            if x in fv_right:
                right_idx.append(i)
                continue
            if absorb_left is None:
                absorb_left = can_absorb(left)
            if absorb_left:
                left_idx.append(i)
                continue
            if absorb_right is None:
                absorb_right = all(can_absorb(getattr(t, n)) for n in rest)
            if not absorb_right:
                raise LinearViolation(
                    f"variable {x} is never used in {S.print_term(t)}")
            right_idx.append(i)
        lctx = tuple([ctx[i] for i in left_idx])
        rctx = tuple([ctx[i] for i in right_idx])
        plan = SplitPlan(tuple([x for x, _ in lctx]),
                         tuple([x for x, _ in rctx]),
                         tuple(left_idx + right_idx))
        return lctx, rctx, plan

    # -- bidirectional checking -------------------------------------------

    def _typecheck(self, ctx: Context, t: Term, want: Optional[Prop]) -> Derivation:
        # a derivation depends only on (semiring, ctx, t, want), and one
        # synthesized serves a check at its own type; failures are not kept
        entry = self._CLAUSES.get(type(t))
        if entry is None:
            raise TypingError(f"cannot type {t!r}")
        link = t._deriv
        d = link and link()
        if d is not None and d._sr is self.sr and d.ctx == ctx and (
                d._want == want or d._want is None and d.prop == want):
            return d
        rule, clause = entry
        d = clause(self, ctx, t, want, rule)
        if want is not None and d.prop is not want and d.prop != want:
            raise TypeMismatch(
                f"{S.print_term(t)} has type {S.print_prop(d.prop)}, "
                f"expected {S.print_prop(want)}")
        object.__setattr__(d, "_sr", self.sr)
        object.__setattr__(d, "_want", want)
        object.__setattr__(t, "_deriv", weakref.ref(d))
        return d

    # Each clause takes the context, the term, the expected type or None
    # and its rule tag.  It calls _typecheck on its premises itself, so that
    # a nesting level costs two stack frames and deep terms still check.

    def _ax(self, ctx, t, want, rule):
        if all(x != t.name for x, _ in ctx):
            raise UnboundVariable(f"unbound variable {t.name}")
        if len(ctx) != 1:
            extra = [x for x, _ in ctx if x != t.name]
            raise LinearViolation(
                f"variable(s) {', '.join(extra)} unused at occurrence of {t.name}")
        return Derivation(rule, ctx, t, ctx[0][1])

    def _star(self, ctx, t, want, rule):
        if ctx:
            raise LinearViolation(
                f"variable(s) {', '.join(x for x, _ in ctx)} unused at "
                f"{S.print_term(t)}")
        return Derivation(rule, ctx, t, _ONE)

    def _unit(self, ctx, t, want, rule):
        return Derivation(rule, ctx, t, _TOP)

    def _linear_sum(self, ctx, t, want, rule):
        # sum and scal share their context and their type with every premise
        ds: list[Derivation] = []
        for n in S._CHILDREN[type(t)]:
            ds.append(self._typecheck(ctx, getattr(t, n), want))
            want = ds[0].prop
        return Derivation(rule, ctx, t, want, tuple(ds))

    def _unit_elim(self, ctx, t, want, rule):
        lctx, rctx, plan = self.split(ctx, t)
        d1 = self._typecheck(lctx, t.unit, _ONE)
        d2 = self._typecheck(rctx, t.body, want)
        return Derivation(rule, ctx, t, d2.prop, (d1, d2), plan)

    def _lam(self, ctx, t, want, rule):
        ann = t.ann
        if ann is None:
            if want is None:
                raise AmbiguousType(
                    f"cannot infer the argument type of {S.print_term(t)}; "
                    f"annotate as lam{{A}}(x, t) or check against a type")
            if not isinstance(want, S.Lollipop):
                raise TypeMismatch(
                    f"{S.print_term(t)} is a function but the expected "
                    f"type is {S.print_prop(want)}")
            ann = want.left
        elif want is not None:
            if not isinstance(want, S.Lollipop) or want.left != ann:
                raise TypeMismatch(
                    f"annotation {S.print_prop(ann)} does not match "
                    f"expected {S.print_prop(want)}")
        body_want = want.right if isinstance(want, S.Lollipop) else None
        return self._lolli_i(ctx, t, ann, body_want)

    def _lolli_i(self, ctx: Context, t: S.Lam, ann: Prop,
                 body_want: Optional[Prop]) -> Derivation:
        """The lambda introduction of t, its binder at type ann."""
        if any(x == t.var for x, _ in ctx):
            raise TypingError(f"binder {t.var} shadows a context variable")
        d1 = self._typecheck(ctx + ((t.var, ann),), t.body, body_want)
        return Derivation("lolli_i", ctx, t, S.Lollipop(ann, d1.prop), (d1,))

    def _app(self, ctx, t, want, rule):
        lctx, rctx, plan = self.split(ctx, t)
        try:
            d1 = self._typecheck(lctx, t.fn, None)
        except AmbiguousType:
            # redex-style application: type the argument first
            d2 = self._typecheck(rctx, t.arg, None)
            if want is not None:
                d1 = self._typecheck(lctx, t.fn, S.Lollipop(d2.prop, want))
            elif type(t.fn) is S.Lam and t.fn.ann is None:
                d1 = self._lolli_i(lctx, t.fn, d2.prop, None)
            else:
                raise
        else:
            if not isinstance(d1.prop, S.Lollipop):
                raise TypeMismatch(
                    f"{S.print_term(t.fn)} has type {S.print_prop(d1.prop)}, "
                    f"which is not a function type")
            d2 = self._typecheck(rctx, t.arg, d1.prop.left)
        return Derivation(rule, ctx, t, d1.prop.right, (d1, d2), plan)

    def _tens(self, ctx, t, want, rule):
        lctx, rctx, plan = self.split(ctx, t)
        lw = want.left if isinstance(want, S.Tensor) else None
        rw = want.right if isinstance(want, S.Tensor) else None
        d1 = self._typecheck(lctx, t.left, lw)
        d2 = self._typecheck(rctx, t.right, rw)
        return Derivation(rule, ctx, t, S.Tensor(d1.prop, d2.prop),
                          (d1, d2), plan)

    def _let_tens(self, ctx, t, want, rule):
        lctx, rctx, plan = self.split(ctx, t)
        d1 = self._typecheck(lctx, t.pair, None)
        if not isinstance(d1.prop, S.Tensor):
            raise TypeMismatch(
                f"{S.print_term(t.pair)} has type {S.print_prop(d1.prop)}, "
                f"expected a tensor")
        if t.left_var == t.right_var:
            raise TypingError("tensor eliminator binders must be distinct")
        for b in (t.left_var, t.right_var):
            if any(x == b for x, _ in rctx):
                raise TypingError(f"binder {b} shadows a context variable")
        body_ctx = rctx + ((t.left_var, d1.prop.left),
                           (t.right_var, d1.prop.right))
        d2 = self._typecheck(body_ctx, t.body, want)
        return Derivation(rule, ctx, t, d2.prop, (d1, d2), plan)

    def _zero_elim(self, ctx, t, want, rule):
        ann = t.ann if t.ann is not None else want
        if ann is None:
            raise AmbiguousType(
                f"cannot infer the result type of {S.print_term(t)}; "
                f"annotate as zero_elim{{C}}(t)")
        lctx, _, plan = self.split(ctx, t)
        d1 = self._typecheck(lctx, t.absurd, S.Zero())
        return Derivation(rule, ctx, t, ann, (d1,), plan)

    def _pair(self, ctx, t, want, rule):
        conn = S._PAIR_PROP[type(t)]
        lw = want.left if isinstance(want, conn) else None
        rw = want.right if isinstance(want, conn) else None
        d1 = self._typecheck(ctx, t.left, lw)
        d2 = self._typecheck(ctx, t.right, rw)
        return Derivation(rule, ctx, t, conn(d1.prop, d2.prop), (d1, d2))

    def _project(self, ctx, t, want, rule):
        pair, side = S._PROJECTION[type(t)]
        conn = S._PAIR_PROP[pair]
        d1 = self._typecheck(ctx, t.pair, None)
        if not isinstance(d1.prop, conn):
            noun = "with-pair" if conn is S.With else "sup-pair"
            raise TypeMismatch(
                f"{S.print_term(t.pair)} has type {S.print_prop(d1.prop)}, "
                f"expected a {noun}")
        return Derivation(rule, ctx, t, getattr(d1.prop, side), (d1,))

    def _inject(self, ctx, t, want, rule):
        side, other = S._INJECTIONS[type(t)]
        plus = want if isinstance(want, S.Plus) else None
        absent = t.ann
        if absent is None:
            if plus is None:
                form = S._FORMS[type(t)][0][1] + (
                    "{B}(t)" if other == "right" else "{A}(t)")
                raise AmbiguousType(
                    f"cannot infer the {other} component of "
                    f"{S.print_term(t)}; annotate as {form}")
            absent = getattr(plus, other)
        d1 = self._typecheck(ctx, t.body,
                             None if plus is None else getattr(plus, side))
        return Derivation(rule, ctx, t,
                          S.Plus(**{side: d1.prop, other: absent}), (d1,))

    def _branching(self, ctx, t, want, rule):
        # case eliminates a plus; sup_elim a sup, whose weights must sum to 1
        conn = S.Plus
        if rule == "sup_e":
            sr, conn = self.sr, S.Sup
            if not sr.eq(sr.add(t.p, t.q), sr.one):
                raise WeightError(
                    f"sup-elimination weights do not sum to 1 in {sr.name}")
        lctx, rctx, plan = self.split(ctx, t)
        d1 = self._typecheck(lctx, t.scrutinee, None)
        if not isinstance(d1.prop, conn):
            raise TypeMismatch(
                f"{S.print_term(t.scrutinee)} has type {S.print_prop(d1.prop)}, "
                f"which cannot be eliminated by {S.print_term(t)[:20]}...")
        for b in (t.left_var, t.right_var):
            if any(x == b for x, _ in rctx):
                raise TypingError(f"binder {b} shadows a context variable")
        d2 = self._typecheck(((t.left_var, d1.prop.left),) + rctx,
                             t.left_body, want)
        d3 = self._typecheck(((t.right_var, d1.prop.right),) + rctx,
                             t.right_body, d2.prop)
        return Derivation(rule, ctx, t, d2.prop, (d1, d2, d3), plan)

    # each form's rule tag and clause; twin forms share a clause
    _CLAUSES = {
        S.Var: ("ax", _ax), S.Star: ("one_i", _star),
        S.Sum: ("sum", _linear_sum), S.Scal: ("scal", _linear_sum),
        S.UnitElim: ("one_e", _unit_elim), S.Tens: ("tens_i", _tens),
        S.TensElim: ("tens_e", _let_tens), S.Lam: ("lolli_i", _lam),
        S.App: ("lolli_e", _app), S.Unit: ("top_i", _unit),
        S.ZeroElim: ("zero_e", _zero_elim), S.Pair: ("with_i", _pair),
        S.Fst: ("with_e1", _project), S.Snd: ("with_e2", _project),
        S.Inl: ("plus_i1", _inject), S.Inr: ("plus_i2", _inject),
        S.Case: ("plus_e", _branching), S.SupPair: ("sup_i", _pair),
        S.SupFst: ("sup_e1", _project), S.SupSnd: ("sup_e2", _project),
        S.SupElim: ("sup_e", _branching),
    }


RULE_TAGS = tuple(rule for rule, _ in _Checker._CLAUSES.values())


def typecheck(ctx: Context, t: Term, expected: Optional[Prop] = None,
              semiring: Semiring = QNN) -> Derivation:
    """Type-check t in ctx, optionally against an expected proposition."""
    ctx = tuple(ctx)
    names = [x for x, _ in ctx]
    if len(set(names)) != len(names):
        raise TypingError(f"duplicate context variables in {names}")
    try:
        return _Checker(semiring)._typecheck(ctx, t, expected)
    except RecursionError:
        raise TypingError("term is nested too deeply") from None


# ---------------------------------------------------------------------------
# Derivation validation


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]

    def __bool__(self) -> bool:
        return self.ok


def validate(d: Derivation, semiring: Semiring = QNN) -> ValidationReport:
    """Check that d is the checker's derivation of its root judgment and
    that all split plans are coherent partitions of their ambient contexts.

    The root judgment is re-typechecked once, and d is walked together with
    the fresh derivation: at each node the rule tag, the split plan, the
    number of premises and the premises' judgments must agree.  A subtree
    is re-checked on its own only where its judgment already differs from
    the checker's, which happens only in an invalid derivation."""
    problems: list[str] = []
    _validate(d, None, semiring, problems)
    return ValidationReport(not problems, problems)


def _validate(d: Derivation, redone: Optional[Derivation], sr: Semiring,
              problems: list[str]) -> None:
    """redone is the checker's derivation of d's judgment, or None if that
    judgment is yet to be re-checked."""
    names = [x for x, _ in d.ctx]
    if len(set(names)) != len(names):
        problems.append(f"duplicate context variables in {names}")
    if d.split is not None:
        plan = d.split
        if sorted(plan.perm) != list(range(len(d.ctx))):
            problems.append(f"split permutation {plan.perm} is not a "
                            f"permutation of the context")
        else:
            reordered = [names[i] for i in plan.perm]
            if tuple(reordered) != plan.left + plan.right:
                problems.append("split permutation does not reorder the "
                                "context into left + right")
        if set(plan.left) & set(plan.right):
            problems.append("split parts are not disjoint")
        if set(plan.left) | set(plan.right) != set(names):
            problems.append("split parts do not exhaust the context")
    if redone is None:
        try:
            redone = typecheck(d.ctx, d.term, d.prop, sr)
        except TypingError as exc:
            problems.append(f"node does not re-check: {exc}")
            return
    if d.split != redone.split:
        problems.append(f"split plan of {d.rule} is not the checker's "
                        f"{redone.split}")
    if redone.rule != d.rule:
        problems.append(f"rule tag {d.rule} does not match schema {redone.rule}")
    elif len(d.children) != len(redone.children):
        problems.append(f"rule {d.rule} has {len(d.children)} children, "
                        f"wants {len(redone.children)}")
    for i, c in enumerate(d.children):
        want_c = redone.children[i] if i < len(redone.children) else None
        if want_c is not None and (c.ctx, c.term, c.prop) != (
                want_c.ctx, want_c.term, want_c.prop):
            problems.append(
                f"child {i} of {d.rule} concludes a different judgment "
                f"than the schema requires")
            want_c = None
        _validate(c, want_c, sr, problems)


# ---------------------------------------------------------------------------
# Subject reduction


@dataclass
class SRFinding:
    rule: str
    position: tuple[int, ...]
    reduct: Term
    problem: str


@dataclass
class SRReport:
    term: Term
    prop: Prop
    steps: int
    findings: list[SRFinding]

    @property
    def ok(self) -> bool:
        return not self.findings


def check_subject_reduction(t: Term, ctx: Context = (),
                            semiring: Semiring = QNN,
                            expected: Optional[Prop] = None) -> SRReport:
    """Every one-step reduct must re-check at the same type."""
    from . import rewrite

    # d holds t's derivation, whose nodes the reducts share
    d = typecheck(ctx, t, expected, semiring)
    findings: list[SRFinding] = []
    steps = rewrite.step_all(t, semiring)
    for step, reduct in steps:
        try:
            typecheck(ctx, reduct, d.prop, semiring)
        except TypingError as exc:
            findings.append(SRFinding(step.rule, step.pos, reduct, str(exc)))
    return SRReport(t, d.prop, len(steps), findings)
