"""Interpretation of typing derivations as matrices.

A proposition's dimension is matmodel's object map for its connective,
read from ``_OBJECTS`` (one is 1, top and zero are 0), and a context's is
the product of its propositions'.  ``_Denoter._CLAUSES`` gives each rule
tag its clause and the clause's argument, so twin rules share one clause:
the with and sup pairings, the four projections, the two injections, and
``case`` with ``sup_elim``, which mix their branches by the weighted
codiagonal (``case`` at weights (1, 1), which is the codiagonal).
Split-plan permutations are replayed as factor permutations of the
context object before a rule's clause applies, which equals the matching
composite of braidings.

A clause whose composite has a structural map in it (0/1 or scalar
entries) computes that composite directly from its premises' stored
entries, through a matmodel kernel that builds neither the map nor the
intermediate products.  Each kernel keeps the composite's zero skips, its
pass-through of the semiring's ``one``, its ascending-column rows and its
order of summation, so every stored value is the composite's, value for
value and type for type, under f64 too.  With f the function, x the
argument, t a premise, u and v the branches, a = dim A and G, H, D the
contexts' dimensions:

* ``lolli_i``: hom(A, body) . unit(G, A), the body transposed over its
  last context factor, out[i*a + j][g] = body[i][g*a + j]
  (``curry_last``);
* ``lolli_e``: ev . (f (x) x), out[i][l*H + r] = sum over ascending j of
  f[i*a + j][l] * x[j][r] (``eval_after``, which also takes the
  permutation);
* a split's permutation: m . perm, a re-index of m's columns
  (``reindex_cols``);
* ``tens_e``: u . (Id_D (x) t), each row of u multiplied through t's rows
  (``compose_lifted``);
* the projections: proj . t, a block of t's rows (``row_block``); the
  injections: inj . t, t's rows between zero rows (``pad_rows``);
* ``scal``: s^ . t, t's rows times s (``scale``);
* ``plus_e`` and ``sup_e``: [p^, q^] . (u (+) v) . d . (t (x) Id_D).
  Under the left-major pairing the distribution map d is the identity, so
  this is p.(u . (t_A (x) Id_D)) + q.(v . (t_B (x) Id_D)), t_A and t_B
  the row blocks of t (``row_block``, ``compose_lifted``, ``mix``).

The structural maps stay in matmodel for its law suite, and the
substitution identity states its right-hand side as a composite.

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
compared with its contractum in its own sub-derivation.  One preorder walk
of the term beside the root's derivation (``rewrite._redex_walk``) lists
each redex with its node and that sub-derivation, and the redex is
contracted where the walk found it; nothing descends from the root again.
Where the local check does not pass (the matrices differ, the redex has
no node of its own, or the contractum does not type in the redex's
context), the position is checked on the whole reduct instead, so the
report and its detail strings are those of the whole-term check.  Both
checks build the matrix to compare with through ``_reduct_mat``: a
step's one reduct, or a fork's two mixed by the fork's weights, the
weighted codiagonal after their pairing (``mix``).

A derivation node keeps its matrix, which names its semiring, for the
node's life, and a term node a weak link to its derivation (see ``checker``).
So while the root's derivation lives, a contractum or a reduct re-derives
and re-denotes only the nodes its contraction rebuilt, the path to each
substituted occurrence (``syntax.subst_parallel`` returns every subterm
with no free substituted name, and every image, as the same object); an
argument, a closed function or a branch that substitution left as the
same object is the root's own node, with its derivation and matrix.  No
comparison holds by construction: the redex's matrix comes from its own
clause (for ``apply``, evaluation after the function and the argument),
the contractum's from the clauses of the rebuilt path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import matmodel as M
from . import rewrite
from . import syntax as S
from . import checker as TC
from .matmodel import Mat
from .semiring import QNN, Semiring, WeightError
from .syntax import Prop, Term

# The most cells a derivation node's matrix may have: its rows times its
# cols, a zero dimension counted as one (a node with no columns still keeps
# a list of its rows, and one with no rows may re-index its columns).
# ``_Denoter.go`` refuses a node past it with ``ShapeMismatch`` before its
# premises are denoted, so a type whose dimension grows by tensor and hom
# cannot take memory silently.
MAX_ENTRIES = 1 << 20

# writers of the facts this module sets, straight into their slots
_set_dim, _set_mat = Prop._dim.__set__, TC.Derivation._mat.__set__

_UNITS = {S.One: 1, S.Top: 0, S.Zero: 0}
_OBJECTS = {S.Tensor: M.tensor_obj, S.Lollipop: M.hom_obj,
            S.With: M.biproduct_obj, S.Plus: M.biproduct_obj,
            S.Sup: M.biproduct_obj}


def denote_prop(a: Prop) -> int:
    """a's dimension, which a keeps once worked out."""
    dim = getattr(a, "_dim", None)  # None too for a non-proposition
    if dim is None:
        cls = type(a)
        if cls in _UNITS:
            dim = _UNITS[cls]
        elif cls in _OBJECTS:
            dim = _OBJECTS[cls](denote_prop(a.left), denote_prop(a.right))
        else:
            raise TypeError(f"not a proposition: {a!r}")
        _set_dim(a, dim)
    return dim


def denote_ctx(ctx: TC.Context) -> int:
    dim = 1
    for _, a in ctx:
        dim *= denote_prop(a)
    return dim


@dataclass(frozen=True)
class Interp:
    derivation: TC.Derivation
    object_in: int
    object_out: int
    matrix: Mat


class _Denoter:
    """One interpretation run, over any number of derivations.  A node
    keeps its matrix (see the module docstring), so a node that several
    derivations share is interpreted once.  Each node's (rows, cols) is
    worked out once, before its clause."""

    def __init__(self, semiring: Semiring):
        self.sr = semiring

    def ctx_dims(self, ctx: TC.Context) -> list[int]:
        return [denote_prop(a) for _, a in ctx]

    def right_dim(self, d: TC.Derivation) -> int:
        """The dimension of the right part of d's context split."""
        return math.prod(denote_prop(d.ctx[i][1])
                         for i in d.split.perm[len(d.split.left):])

    def perm_index(self, d: TC.Derivation,
                   swap_parts: bool = False) -> Optional[list[int]]:
        """The permutation of the ambient context onto the premise order,
        as ``M.perm_index``; None for the identity permutation."""
        plan = d.split
        if plan is None:
            return None
        order = list(plan.perm)
        if swap_parts:
            k = len(plan.left)
            order = order[k:] + order[:k]
        if order == sorted(order):
            return None
        return M.perm_index(self.ctx_dims(d.ctx), order)

    def permuted(self, mat: Mat, d: TC.Derivation,
                 swap_parts: bool = False) -> Mat:
        """mat after the permutation of the ambient context onto the
        premise order."""
        index = self.perm_index(d, swap_parts)
        return mat if index is None else M.reindex_cols(mat, index)

    def matrix(self, ctx: TC.Context, t: Term,
               expected: Optional[Prop] = None) -> Mat:
        """The matrix of t typed in ctx, against expected if given."""
        return self.go(TC.typecheck(ctx, t, expected, self.sr))

    def go(self, d: TC.Derivation) -> Mat:
        hit = d._mat
        if hit is not None and hit.sr is self.sr:
            return hit
        entry = self._CLAUSES.get(d.rule)
        if entry is None:
            raise TypeError(f"no interpretation clause for rule {d.rule}")
        # rows and cols are the dimensions of d's type and of its context
        rows, cols = denote_prop(d.prop), denote_ctx(d.ctx)
        if (rows or 1) * (cols or 1) > MAX_ENTRIES:
            raise M.ShapeMismatch(
                f"rule {d.rule} denotes a {rows}x{cols} matrix, more than "
                f"the {MAX_ENTRIES} entries a node may have")
        clause, arg = entry
        mat = clause(self, d, [self.go(k) for k in d.children], rows, cols,
                     arg)
        if mat.rows != rows or mat.cols != cols:
            raise M.ShapeMismatch(
                f"internal: rule {d.rule} produced {mat.rows}x{mat.cols}, "
                f"expected {rows}x{cols}")
        _set_mat(d, mat)
        return mat

    # Each clause takes the node, its premises' matrices, the node's shape
    # and the argument its table entry gives.

    def _identity(self, d, ms, rows, cols, _):
        return M.identity(rows, self.sr)

    def _zero(self, d, ms, rows, cols, _):
        # top_i maps into the zero object; zero_e factors through
        # zero (x) the right part of the split, also a zero object
        return M.zero_mat(cols, rows, self.sr)

    def _scalar(self, d, ms, rows, cols, _):
        # star(s) is s as a map on one; scal(s, t) is s after t
        s = d.term.scalar
        return M.scale(s, ms[0]) if ms else M.scalar_map(s, rows, self.sr)

    def _sum(self, d, ms, rows, cols, _):
        return M.add(*ms)

    def _tensor(self, d, ms, rows, cols, _):
        return self.permuted(M.tensor_mat(*ms), d)

    def _let_tens(self, d, ms, rows, cols, _):
        t, u = ms
        return self.permuted(M.compose_lifted(u, self.right_dim(d), t, 1), d,
                             swap_parts=True)

    def _lam(self, d, ms, rows, cols, _):
        return M.curry_last(ms[0], cols, denote_prop(d.prop.left))

    def _app(self, d, ms, rows, cols, _):
        return M.eval_after(denote_prop(d.children[0].prop.left), rows, *ms,
                            self.perm_index(d))

    def _pair(self, d, ms, rows, cols, _):
        return M.pair_mat(*ms)

    def _project(self, d, ms, rows, cols, second):
        skipped = denote_prop(d.children[0].prop.left) if second else 0
        return M.row_block(ms[0], skipped, rows)

    def _inject(self, d, ms, rows, cols, second):
        a, b = denote_prop(d.prop.left), denote_prop(d.prop.right)
        return M.pad_rows(ms[0], a if second else 0, 0 if second else b)

    def _case(self, d, ms, rows, cols, weighted):
        t, u, v = ms
        a, ddim = denote_prop(d.children[0].prop.left), self.right_dim(d)
        one = self.sr.one
        weights = (d.term.p, d.term.q) if weighted else (one, one)
        left = M.compose_lifted(u, 1, M.row_block(t, 0, a), ddim)
        right = M.compose_lifted(v, 1, M.row_block(t, a, t.rows - a), ddim)
        return self.permuted(M.mix(weights, left, right), d)

    # each rule's clause and the argument it is called with
    _CLAUSES = {
        "ax": (_identity, None), "one_i": (_scalar, None),
        "sum": (_sum, None), "scal": (_scalar, None),
        "one_e": (_tensor, None), "tens_i": (_tensor, None),
        "tens_e": (_let_tens, None), "lolli_i": (_lam, None),
        "lolli_e": (_app, None), "top_i": (_zero, None),
        "zero_e": (_zero, None),
        "with_i": (_pair, None), "sup_i": (_pair, None),
        "with_e1": (_project, False), "sup_e1": (_project, False),
        "with_e2": (_project, True), "sup_e2": (_project, True),
        "plus_i1": (_inject, False), "plus_i2": (_inject, True),
        "plus_e": (_case, False), "sup_e": (_case, True),
    }


def denote(d: TC.Derivation, semiring: Semiring = QNN) -> Interp:
    """Interpret a typing derivation as a matrix, one clause per node."""
    mat = _Denoter(semiring).go(d)
    return Interp(d, mat.cols, mat.rows, mat)


def denote_closed(t: Term, expected: Optional[Prop] = None,
                  semiring: Semiring = QNN) -> Mat:
    return _Denoter(semiring).matrix((), t, expected)


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
    lhs = _Denoter(semiring).matrix(new_ctx, subst_term, t_deriv.prop)
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
    denoter = _Denoter(semiring)
    d = TC.typecheck(ctx, t, expected, semiring)
    base = denoter.go(d)
    checks: list[StepCheck] = []
    # the walk lists redexes in preorder, which is their positions' order
    for pos, u, sd in rewrite._redex_walk(t, d):
        entries = rewrite.contract(u, semiring)
        if sd is not None and _locally_sound(sd, entries, denoter):
            checks.append(StepCheck(pos, tuple(r for r, _, _ in entries), True))
        else:
            checks.append(_whole_term_check(t, d, base, pos, entries, denoter))
    return SoundnessReport(t, checks)


def _reduct_mat(entries, reduct, ctx: TC.Context, prop: Prop,
                denoter: _Denoter) -> Mat:
    """The matrix a redex's contraction entries must keep: each contractum
    c made into the term reduct(c) and typed in ctx at prop, the one
    reduct's matrix, or a fork's two paired as by with_i and mixed by the
    fork's weights."""
    mats = [denoter.matrix(ctx, reduct(c), prop) for _, _, c in entries]
    if len(mats) == 1:
        return mats[0]
    return M.mix(tuple(w for _, w, _ in entries), *mats)


def _locally_sound(sd: TC.Derivation, entries, denoter: _Denoter) -> bool:
    """Whether the contracta of the redex derived by sd, typed in sd's
    context at sd's type, keep sd's matrix."""
    try:
        other = _reduct_mat(entries, lambda c: c, sd.ctx, sd.prop, denoter)
    except (TC.TypingError, WeightError):
        return False
    return denoter.go(sd).equal(other)


def _whole_term_check(t: Term, d: TC.Derivation, base: Mat,
                      pos: tuple[int, ...], entries,
                      denoter: _Denoter) -> StepCheck:
    """The check of the redex at pos on the whole term: each reduct is
    typed and denoted from the root and compared with base, the matrix of
    t's derivation d."""
    other = _reduct_mat(entries, lambda c: S.replace_at(t, pos, c), d.ctx,
                        d.prop, denoter)
    ok = base.equal(other)
    return StepCheck(pos, tuple(r for r, _, _ in entries), ok,
                     "" if ok else f"{base!r} != {other!r}")


def check_global_soundness(t: Term, semiring: Semiring = QNN,
                           expected: Optional[Prop] = None) -> bool:
    """The matrix of a closed term equals the matrix of the weighted sum
    of its run results; t's derivation, while held, is reused."""
    denoter = _Denoter(semiring)
    d = TC.typecheck((), t, expected, semiring)
    dist = rewrite.distribution(t, semiring)
    summed = rewrite.sum_of_distribution(dist)
    return denoter.go(d).equal(denoter.matrix((), summed, d.prop))


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
    denoter = _Denoter(semiring)
    if not denoter.matrix((), t, a).equal(denoter.matrix((), u, a)):
        return AdequacyVerdict(False, None, "distinct denotations")
    try:
        mixed = rewrite.mixed_equiv(t, u, a, semiring)
    except rewrite.UnsupportedType:
        return AdequacyVerdict(True, None,
                               "consistent (fragment check unavailable)")
    note = "consistent" if mixed else "INCONSISTENT: equal denotations but distinguishable"
    return AdequacyVerdict(True, mixed, note)
