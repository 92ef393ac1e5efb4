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

Per-step soundness is checked locally.  The interpretation is
compositional: a node's matrix is built from its premises' matrices by its
rule's clause alone.  So if a redex and its contractum, both typed in the
redex's own context at its own type, have equal matrices, then replacing
the redex's sub-derivation by the contractum's changes no matrix above it,
and the whole term and its reduct have equal matrices.  Each clause is
affine in each premise's matrix and a fork's weights sum to one, so the
same holds for a fork's mix of its branch matrices.  The root derivation
is therefore denoted once, keeping every node's matrix, and each redex is
compared with its contractum in its own sub-derivation.  Where that local
check does not pass (the matrices differ, the redex has no node of its
own, or the contractum does not type in the redex's context), the position
is checked on the whole reduct instead, so the report and its detail
strings are those of the whole-term check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import matmodel as M
from . import rewrite
from . import syntax as S
from . import checker as TC
from .matmodel import Mat
from .semiring import QNN, Semiring, WeightError
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
    """One interpretation run.  Each proposition's dimension is worked out
    once per run, keyed by identity; an entry holds its proposition, so
    that no id is reused while the run lives.  Each node's (rows, cols) is
    worked out once, before its clause.  With ``keep`` the run also keeps
    every node's matrix, keyed by the node's identity."""

    def __init__(self, semiring: Semiring, keep: bool = False):
        self.sr = semiring
        self._dims: dict[int, tuple[Prop, int]] = {}
        self.mats: Optional[dict[int, tuple[TC.Derivation, Mat]]] = (
            {} if keep else None)

    def dim(self, a: Prop) -> int:
        hit = self._dims.get(id(a))
        if hit is None:
            hit = self._dims[id(a)] = (a, denote_prop(a))
        return hit[1]

    def ctx_dims(self, ctx: TC.Context) -> list[int]:
        return [self.dim(a) for _, a in ctx]

    def ctx_dim(self, ctx: TC.Context) -> int:
        n = 1
        for _, a in ctx:
            n *= self.dim(a)
        return n

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
        # rows and cols are the dimensions of d's type and of its context
        rows, cols = self.dim(d.prop), self.ctx_dim(d.ctx)
        mat = self._clause(d, rows, cols)
        if mat.rows != rows or mat.cols != cols:
            raise M.ShapeMismatch(
                f"internal: rule {d.rule} produced {mat.rows}x{mat.cols}, "
                f"expected {rows}x{cols}")
        if self.mats is not None:
            self.mats[id(d)] = (d, mat)
        return mat

    def _clause(self, d: TC.Derivation, rows: int, cols: int) -> Mat:
        sr = self.sr
        rule = d.rule
        kids = d.children

        if rule == "ax":
            return M.identity(rows, sr)

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
            ddim = self.ctx_dim(kids[1].ctx[:len(d.split.right)])
            inner = M.compose(u, M.tensor_mat(M.identity(ddim, sr), t))
            return self.permuted(inner, d, swap_parts=True)

        if rule == "lolli_i":
            body = self.go(kids[0])
            a = self.dim(kids[0].ctx[-1][1])
            return M.compose(M.hom_mat(a, body), M.unit_map(cols, a, sr))

        if rule == "lolli_e":
            t, u = self.go(kids[0]), self.go(kids[1])
            fn_type = kids[0].prop
            a, b = self.dim(fn_type.left), self.dim(fn_type.right)
            ev = M.eval_map(a, b, sr)
            return M.compose(ev, self.permuted(M.tensor_mat(t, u), d))

        if rule == "top_i":
            return Mat(0, cols, [], sr)

        if rule == "zero_e":
            t = self.go(kids[0])
            ddim = self.ctx_dim(tuple(
                (x, a) for x, a in d.ctx if x in d.split.right))
            lifted = M.tensor_mat(t, M.identity(ddim, sr))
            out = M.compose(Mat(rows, 0, [], sr), lifted)
            return self.permuted(out, d)

        if rule in ("with_i", "sup_i"):
            t, u = self.go(kids[0]), self.go(kids[1])
            return M.compose(M.biproduct_mat(t, u), M.diag(cols, sr))

        if rule in ("with_e1", "sup_e1", "with_e2", "sup_e2"):
            t = self.go(kids[0])
            pairtype = kids[0].prop
            a, b = self.dim(pairtype.left), self.dim(pairtype.right)
            proj = M.proj1 if rule.endswith("1") else M.proj2
            return M.compose(proj(a, b, sr), t)

        if rule in ("plus_i1", "plus_i2"):
            t = self.go(kids[0])
            a, b = self.dim(d.prop.left), self.dim(d.prop.right)
            inj = M.inj1 if rule == "plus_i1" else M.inj2
            return M.compose(inj(a, b, sr), t)

        if rule in ("plus_e", "sup_e"):
            t, u, v = (self.go(k) for k in kids)
            scrut = kids[0].prop
            a, b = self.dim(scrut.left), self.dim(scrut.right)
            ddim = self.ctx_dim(kids[1].ctx[1:])  # branch context minus binder
            dist = M.distribute("d", (a, b, ddim), sr)
            lifted = M.tensor_mat(t, M.identity(ddim, sr))
            branches = M.biproduct_mat(u, v)
            if rule == "plus_e":
                mix = M.codiag(rows, sr)
            else:
                mix = M.weighted_codiag((d.term.p, d.term.q), rows, sr)
            out = M.compose(branches, M.compose(dist, lifted))
            return self.permuted(M.compose(mix, out), d)

        raise TypeError(f"no interpretation clause for rule {rule}")


def denote(d: TC.Derivation, semiring: Semiring = QNN) -> Interp:
    """Interpret a typing derivation as a matrix, one clause per node."""
    mat = _Denoter(semiring).go(d)
    return Interp(d, mat.cols, mat.rows, mat)


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
    a probabilistic fork mixes the two branch matrices by its weights.

    Each redex is checked in its own sub-derivation, and a position whose
    local check does not pass is checked again on the whole term (see the
    module docstring)."""
    sr = semiring
    d = TC.typecheck(ctx, t, expected, sr)
    den = _Denoter(sr, keep=True)
    base = den.go(d)
    checks: list[StepCheck] = []
    # _redexes lists positions in preorder, which is their sorted order
    for pos, entries in rewrite._redexes(t, sr):
        sd = _node_at(d, pos)
        if sd is not None and _locally_sound(sd, entries, den, sr):
            checks.append(StepCheck(pos, tuple(r for r, _, _ in entries), True))
        else:
            checks.append(_whole_term_check(t, d, base, pos, entries, sr))
    return SoundnessReport(t, checks)


def _node_at(d: TC.Derivation,
             pos: tuple[int, ...]) -> Optional[TC.Derivation]:
    """The node of d whose term sits at pos in d's term.  A node's premises
    follow its term's subterm fields in order; where a premise's term is
    not its field's own object, there is no such node."""
    for i in pos:
        kid = d.children[i] if i < len(d.children) else None
        if kid is None or kid.term is not getattr(
                d.term, S.subterm_fields(d.term)[i]):
            return None
        d = kid
    return d


def _fork_mix(weights, m1: Mat, m2: Mat, rows: int, cols: int,
              sr: Semiring) -> Mat:
    """The two branch matrices mixed by the fork's weights."""
    mix = M.weighted_codiag(weights, rows, sr)
    return M.compose(mix, M.compose(M.biproduct_mat(m1, m2), M.diag(cols, sr)))


def _locally_sound(sd: TC.Derivation, entries, den: _Denoter,
                   sr: Semiring) -> bool:
    """Whether the contracta of the redex derived by sd, typed in sd's
    context at sd's type, have the matrix den kept for sd: the same one,
    or for a fork the two mixed by its weights."""
    try:
        ds = [TC.typecheck(sd.ctx, c, sd.prop, sr) for _, _, c in entries]
    except (TC.TypingError, WeightError):
        return False
    mats = [denote(cd, sr).matrix for cd in ds]
    stored = den.mats[id(sd)][1]
    if len(mats) == 1:
        return stored.equal(mats[0])
    return stored.equal(_fork_mix(tuple(w for _, w, _ in entries), *mats,
                                  stored.rows, stored.cols, sr))


def _whole_term_check(t: Term, d: TC.Derivation, base: Mat,
                      pos: tuple[int, ...], entries,
                      sr: Semiring) -> StepCheck:
    """The check of the redex at pos on the whole term: each reduct is
    typed and denoted from the root and compared with base, the matrix of
    t's derivation d."""
    rules = tuple(r for r, _, _ in entries)
    mats = [denote(TC.typecheck(d.ctx, S.replace_at(t, pos, c), d.prop, sr),
                   sr).matrix for _, _, c in entries]
    if len(mats) == 1:
        other = mats[0]
    else:
        other = _fork_mix(tuple(w for _, w, _ in entries), *mats,
                          base.rows, base.cols, sr)
    ok = base.equal(other)
    return StepCheck(pos, rules, ok, "" if ok else f"{base!r} != {other!r}")


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
