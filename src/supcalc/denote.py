"""Interpretation of typing derivations as matrices.

Propositions become dimensions (additives add, multiplicatives and the
internal hom multiply, top and zero are 0-dimensional), contexts become
left-associated tensors, and each derivation rule contributes one matrix
clause.  Split-plan permutations are replayed as factor permutations of
the context object before a rule's clause applies, which equals the
matching composite of braidings.

The module also packages the executable forms of the semantic metatheory:
the substitution identity, per-step and whole-run soundness, and the
adequacy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import matmodel as M
from . import rewrite
from . import syntax as S
from . import checker as TC
from .matmodel import Mat
from .semiring import QNN, Semiring
from .syntax import Prop, Term


def denote_prop(a: Prop) -> int:
    if isinstance(a, S.One):
        return 1
    if isinstance(a, (S.Top, S.Zero)):
        return 0
    if isinstance(a, S.Tensor):
        return denote_prop(a.left) * denote_prop(a.right)
    if isinstance(a, S.Lollipop):
        return M.hom_obj(denote_prop(a.left), denote_prop(a.right))
    if isinstance(a, (S.With, S.Plus, S.Sup)):
        return denote_prop(a.left) + denote_prop(a.right)
    raise TypeError(f"not a proposition: {a!r}")


def denote_ctx(ctx: TC.Context) -> int:
    n = 1
    for _, a in ctx:
        n *= denote_prop(a)
    return n


@dataclass(frozen=True)
class Interp:
    derivation: TC.Derivation
    object_in: int
    object_out: int
    matrix: Mat


class _Denoter:
    def __init__(self, semiring: Semiring):
        self.sr = semiring

    def ctx_dims(self, ctx: TC.Context) -> list[int]:
        return [denote_prop(a) for _, a in ctx]

    def permuted(self, mat: Mat, d: TC.Derivation,
                 swap_parts: bool = False) -> Mat:
        """mat after the permutation of the ambient context onto the
        premise order; an identity permutation is not built."""
        plan = d.split
        if plan is None:
            return mat
        order = list(plan.perm)
        if swap_parts:
            k = len(plan.left)
            order = order[k:] + order[:k]
        if order == sorted(order):
            return mat
        return M.compose(mat, M.perm_mat(self.ctx_dims(d.ctx), order, self.sr))

    def go(self, d: TC.Derivation) -> Mat:
        mat = self._clause(d)
        want_shape = (denote_prop(d.prop), denote_ctx(d.ctx))
        if (mat.rows, mat.cols) != want_shape:
            raise M.ShapeMismatch(
                f"internal: rule {d.rule} produced {mat.rows}x{mat.cols}, "
                f"expected {want_shape[0]}x{want_shape[1]}")
        return mat

    def _clause(self, d: TC.Derivation) -> Mat:
        sr = self.sr
        rule = d.rule
        kids = d.children

        if rule == "ax":
            return M.identity(denote_prop(d.prop), sr)

        if rule == "one_i":
            return M.scalar_map(d.term.scalar, 1, sr)

        if rule == "sum":
            return M.add(self.go(kids[0]), self.go(kids[1]))

        if rule == "scal":
            body = self.go(kids[0])
            return M.compose(M.scalar_map(d.term.scalar, body.rows, sr), body)

        if rule in ("one_e", "tens_i"):
            t, u = self.go(kids[0]), self.go(kids[1])
            return self.permuted(M.tensor_mat(t, u), d)

        if rule == "tens_e":
            t, u = self.go(kids[0]), self.go(kids[1])
            ddim = denote_ctx(kids[1].ctx[:len(d.split.right)])
            inner = M.compose(u, M.tensor_mat(M.identity(ddim, sr), t))
            return self.permuted(inner, d, swap_parts=True)

        if rule == "lolli_i":
            body = self.go(kids[0])
            a = denote_prop(kids[0].ctx[-1][1])
            g = denote_ctx(d.ctx)
            return M.compose(M.hom_mat(a, body), M.unit_map(g, a, sr))

        if rule == "lolli_e":
            t, u = self.go(kids[0]), self.go(kids[1])
            fn_type = kids[0].prop
            a, b = denote_prop(fn_type.left), denote_prop(fn_type.right)
            ev = M.eval_map(a, b, sr)
            return M.compose(ev, self.permuted(M.tensor_mat(t, u), d))

        if rule == "top_i":
            return Mat(0, denote_ctx(d.ctx), [], sr)

        if rule == "zero_e":
            t = self.go(kids[0])
            ddim = denote_ctx(tuple(
                (x, a) for x, a in d.ctx if x in d.split.right))
            lifted = M.tensor_mat(t, M.identity(ddim, sr))
            out = M.compose(Mat(denote_prop(d.prop), 0, [], sr), lifted)
            return self.permuted(out, d)

        if rule in ("with_i", "sup_i"):
            t, u = self.go(kids[0]), self.go(kids[1])
            g = denote_ctx(d.ctx)
            return M.compose(M.biproduct_mat(t, u), M.diag(g, sr))

        if rule in ("with_e1", "sup_e1", "with_e2", "sup_e2"):
            t = self.go(kids[0])
            pairtype = kids[0].prop
            a, b = denote_prop(pairtype.left), denote_prop(pairtype.right)
            proj = M.proj1 if rule.endswith("1") else M.proj2
            return M.compose(proj(a, b, sr), t)

        if rule in ("plus_i1", "plus_i2"):
            t = self.go(kids[0])
            a, b = denote_prop(d.prop.left), denote_prop(d.prop.right)
            inj = M.inj1 if rule == "plus_i1" else M.inj2
            return M.compose(inj(a, b, sr), t)

        if rule in ("plus_e", "sup_e"):
            t, u, v = (self.go(k) for k in kids)
            scrut = kids[0].prop
            a, b = denote_prop(scrut.left), denote_prop(scrut.right)
            ddim = denote_ctx(kids[1].ctx[1:])  # branch context minus binder
            dist = M.distribute("d", (a, b, ddim), sr)
            lifted = M.tensor_mat(t, M.identity(ddim, sr))
            branches = M.biproduct_mat(u, v)
            c = denote_prop(d.prop)
            if rule == "plus_e":
                mix = M.codiag(c, sr)
            else:
                mix = M.weighted_codiag((d.term.p, d.term.q), c, sr)
            out = M.compose(branches, M.compose(dist, lifted))
            return self.permuted(M.compose(mix, out), d)

        raise TypeError(f"no interpretation clause for rule {rule}")


def denote(d: TC.Derivation, semiring: Semiring = QNN) -> Interp:
    """Interpret a typing derivation as a matrix, one clause per node."""
    mat = _Denoter(semiring).go(d)
    return Interp(d, denote_ctx(d.ctx), denote_prop(d.prop), mat)


def denote_closed(t: Term, expected: Optional[Prop] = None,
                  semiring: Semiring = QNN) -> Mat:
    return denote(TC.typecheck((), t, expected, semiring), semiring).matrix


# ---------------------------------------------------------------------------
# Substitution identity


def check_substitution(t_deriv: TC.Derivation, v_deriv: TC.Derivation,
                       semiring: Semiring = QNN) -> bool:
    """The interpretation of (v/x)t equals t's composed with Id (x) v's,
    where x is the last variable of t's context."""
    if not t_deriv.ctx:
        raise TC.TypingError("t's context must end with the substituted variable")
    gamma, (x, a) = t_deriv.ctx[:-1], t_deriv.ctx[-1]
    if v_deriv.prop != a:
        raise TC.TypeMismatch(
            f"substituend has type {S.print_prop(v_deriv.prop)}, "
            f"variable {x} expects {S.print_prop(a)}")
    overlap = {n for n, _ in gamma} & {n for n, _ in v_deriv.ctx}
    if overlap:
        raise TC.TypingError(f"contexts share variables {sorted(overlap)}")
    new_ctx = gamma + v_deriv.ctx
    subst_term = S.substitute(v_deriv.term, x, t_deriv.term)
    lhs = denote(TC.typecheck(new_ctx, subst_term, t_deriv.prop, semiring),
                 semiring).matrix
    t_mat = denote(t_deriv, semiring).matrix
    v_mat = denote(v_deriv, semiring).matrix
    g = denote_ctx(gamma)
    rhs = M.compose(t_mat, M.tensor_mat(M.identity(g, semiring), v_mat))
    return lhs.equal(rhs)


# ---------------------------------------------------------------------------
# Soundness


@dataclass
class StepCheck:
    pos: tuple[int, ...]
    rules: tuple[str, ...]
    ok: bool
    detail: str = ""


@dataclass
class SoundnessReport:
    term: Term
    checks: list[StepCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_step_soundness(t: Term, semiring: Semiring = QNN,
                         ctx: TC.Context = (),
                         expected: Optional[Prop] = None) -> SoundnessReport:
    """Per-redex soundness: deterministic contractions preserve the matrix;
    a probabilistic fork mixes the two branch matrices by its weights."""
    sr = semiring
    d = TC.typecheck(ctx, t, expected, sr)
    base = denote(d, sr).matrix
    groups: dict[tuple[int, ...], list[tuple[rewrite.Step, Term]]] = {}
    for step, reduct in rewrite.step_all(t, sr):
        groups.setdefault(step.pos, []).append((step, reduct))
    checks: list[StepCheck] = []
    for pos, entries in sorted(groups.items()):
        rules = tuple(step.rule for step, _ in entries)
        if len(entries) == 1:
            _, reduct = entries[0]
            other = denote(TC.typecheck(ctx, reduct, d.prop, sr), sr).matrix
            ok = base.equal(other)
            detail = "" if ok else f"{base!r} != {other!r}"
        else:
            (s1, r1), (s2, r2) = entries
            m1 = denote(TC.typecheck(ctx, r1, d.prop, sr), sr).matrix
            m2 = denote(TC.typecheck(ctx, r2, d.prop, sr), sr).matrix
            mix = M.weighted_codiag((s1.weight, s2.weight),
                                    denote_prop(d.prop), sr)
            g = denote_ctx(d.ctx)
            rhs = M.compose(mix, M.compose(M.biproduct_mat(m1, m2),
                                           M.diag(g, sr)))
            ok = base.equal(rhs)
            detail = "" if ok else f"{base!r} != {rhs!r}"
        checks.append(StepCheck(pos, rules, ok, detail))
    return SoundnessReport(t, checks)


def check_global_soundness(t: Term, semiring: Semiring = QNN,
                           expected: Optional[Prop] = None) -> bool:
    """The matrix of a closed term equals the matrix of the weighted sum
    of its run results."""
    sr = semiring
    d = TC.typecheck((), t, expected, sr)
    dist = rewrite.distribution(t, sr)
    summed = rewrite.sum_of_distribution(dist, sr)
    lhs = denote(d, sr).matrix
    rhs = denote(TC.typecheck((), summed, d.prop, sr), sr).matrix
    return lhs.equal(rhs)


# ---------------------------------------------------------------------------
# Adequacy comparison


@dataclass
class AdequacyVerdict:
    denotations_equal: bool
    mixed_equivalent: Optional[bool]  # None when outside the decidable fragment
    note: str


def adequacy_compare(t: Term, u: Term, a: Prop,
                     semiring: Semiring = QNN) -> AdequacyVerdict:
    """Equal matrices must imply observational indistinguishability; the
    converse direction is not claimed."""
    sr = semiring
    mt = denote(TC.typecheck((), t, a, sr), sr).matrix
    mu = denote(TC.typecheck((), u, a, sr), sr).matrix
    if not mt.equal(mu):
        return AdequacyVerdict(False, None, "distinct denotations")
    try:
        mixed = rewrite.mixed_equiv(t, u, a, sr)
    except rewrite.UnsupportedType:
        return AdequacyVerdict(True, None,
                               "consistent (fragment check unavailable)")
    note = "consistent" if mixed else "INCONSISTENT: equal denotations but distinguishable"
    return AdequacyVerdict(True, mixed, note)
