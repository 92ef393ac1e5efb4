"""A bundled corpus of closed well-typed terms.

The corpus exercises every typing rule and every one of the 25 contraction
rules as an immediate redex of at least one entry; the test suite asserts
both coverages.  Entries are (name, term, context, proposition) with the
context always empty: corpus terms are closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import veccodec
from .semiring import QNN, Semiring
from .syntax import App, Prop, Star, Term, parse_prop, parse_term

_F = "1/2"  # readability only

_SOURCES: list[tuple[str, str, str]] = [
    # the two run/denotation examples behind the adequacy discussion
    ("adequacy_t",
     "sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)", "one"),
    ("adequacy_u",
     "sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)", "one"),
    # the eta gap: equal denotations, no reduction between them
    ("eta_expanded_id", "lam(x,pair(fst(x),snd(x)))",
     "(one & one) -o (one & one)"),
    ("plain_id", "lam(x,x)", "(one & one) -o (one & one)"),
    # disjunction elimination derived from the two pair projections
    ("derived_case_left",
     "case(inl{one}(supfst(sup(star(1),star(2)))),x.x,y.y)", "one"),
    ("derived_case_right",
     "case(inr{one}(supsnd(sup(star(1),star(2)))),x.x,y.y)", "one"),
    # one immediate redex per beta rule
    ("redex_unit_elim", "unit_elim(star(2),star(3))", "one"),
    ("redex_tens_elim",
     "let_tens(tens(star(1),star(2)),x,y,unit_elim(x,y))", "one"),
    ("redex_apply", "app(lam(x,x),star(5))", "one"),
    ("redex_fst", "fst(pair(star(1),star(2)))", "one"),
    ("redex_snd", "snd(pair(star(1),star(2)))", "one"),
    ("redex_case_inl", "case(inl{one}(star(1)),x.x,y.y)", "one"),
    ("redex_case_inr", "case(inr{one}(star(2)),x.x,y.y)", "one"),
    ("redex_supfst", "supfst(sup(star(1),star(2)))", "one"),
    ("redex_supsnd", "supsnd(sup(star(1),star(2)))", "one"),
    ("redex_sup_elim_even",
     "sup_elim{1/2,1/2}(sup(star(1),star(0)),x.x,y.y)", "one"),
    ("redex_sup_elim_skewed",
     "sup_elim{1/4,3/4}(sup(star(2),star(1/2)),x.x,y.y)", "one"),
    ("redex_sup_elim_degenerate",
     "sup_elim{1,0}(sup(star(2),star(3)),x.x,y.y)", "one"),
    # one immediate redex per sum-commutation rule
    ("comm_sum_star", "sum(star(1),star(2))", "one"),
    ("comm_sum_tens_elim",
     "let_tens(sum(tens(star(1),star(1)),tens(star(2),star(1))),x,y,"
     "unit_elim(x,y))", "one"),
    ("comm_sum_lam", "sum(lam(x,x),lam(y,scal(2,y)))", "one -o one"),
    ("comm_sum_lam_applied", "app(sum(lam(x,x),lam(y,y)),star(3))", "one"),
    ("comm_sum_unit", "sum(unit,unit)", "top"),
    ("comm_sum_pair",
     "sum(pair(star(1),star(2)),pair(star(3),star(4)))", "one & one"),
    ("comm_sum_case",
     "case(sum(inl{one}(star(1)),inr{one}(star(2))),x.x,y.y)", "one"),
    ("comm_sum_sup",
     "sum(sup(star(1),star(2)),sup(star(3),star(4)))", "one (o) one"),
    # one immediate redex per scalar-commutation rule
    ("comm_scal_star", "scal(2,star(3))", "one"),
    ("comm_scal_tens_elim",
     "let_tens(scal(2,tens(star(1),star(3))),x,y,unit_elim(x,y))", "one"),
    ("comm_scal_lam", "scal(2,lam(x,x))", "one -o one"),
    ("comm_scal_unit", "scal(2,unit)", "top"),
    ("comm_scal_pair", "scal(2,pair(star(1),star(2)))", "one & one"),
    ("comm_scal_case", "case(scal(2,inl{one}(star(1))),x.x,y.y)", "one"),
    ("comm_scal_sup", "scal(2,sup(star(1),star(2)))", "one (o) one"),
    # normal forms witnessing the closed-value shapes
    ("value_star_half", "star(1/2)", "one"),
    ("value_star_zero", "star(0)", "one"),
    ("value_unit", "unit", "top"),
    ("value_pair", "pair(star(1),star(2))", "one & one"),
    ("value_sup", "sup(star(1),star(2))", "one (o) one"),
    ("value_inl", "inl{one}(star(1))", "one (+) one"),
    ("value_sum_of_injections",
     "sum(inl{one}(star(1)),inr{one}(star(2)))", "one (+) one"),
    ("value_scal_of_tens", "scal(2,tens(star(1),star(2)))", "one (*) one"),
    ("value_sum_of_tens",
     "sum(tens(star(1),star(1)),tens(star(2),star(2)))", "one (*) one"),
    # functions and absorption
    ("fn_swap_tensor",
     "lam(z,let_tens(z,x,y,tens(y,x)))", "(one (*) one) -o (one (*) one)"),
    ("fn_add_components", "lam(p,sum(fst(p),snd(p)))", "(one & one) -o one"),
    ("fn_case_handler",
     "lam(z,case(z,x.x,y.scal(2,y)))", "(one (+) one) -o one"),
    ("fn_absorb_into_top", "lam(x,unit)", "one -o top"),
    ("fn_share_with_top", "lam(x,pair(unit,x))", "one -o (top & one)"),
    ("fn_zero_elim", "lam(x,zero_elim(x))", "zero -o one"),
    ("fn_case_absorbing",
     "app(lam(z,case(z,x.unit,y.unit)),inl{one}(star(1)))", "top"),
    ("fn_curried",
     "app(app(lam(x,lam(y,unit_elim(x,y))),star(2)),star(3))", "one"),
    ("fn_tensor_arg",
     "app(lam(z,let_tens(z,x,y,unit_elim(x,y))),tens(star(2),star(5)))",
     "one"),
    ("fn_sup_elim_under_lam",
     "lam(z,sup_elim{1/2,1/2}(z,x.x,y.y))", "(one (o) one) -o one"),
    ("fn_sup_elim_shared_ctx",
     "app(app(lam(z,lam(w,sup_elim{1/2,1/2}(z,x.unit_elim(x,w),"
     "y.unit_elim(y,w)))),sup(star(1),star(2))),star(3))", "one"),
    ("fn_case_shared_ctx",
     "app(app(lam(z,lam(w,case(z,x.unit_elim(x,w),y.unit_elim(y,w)))),"
     "inr{one}(star(2))),star(3))", "one"),
    ("fn_sup_to_with",
     "app(lam(z,sup_elim{1/4,3/4}(z,x.pair(x,unit_elim(x,star(1))),"
     "y.pair(unit_elim(y,star(2)),y))),sup(star(1),star(0)))", "one & one"),
    # nested and mixed probabilistic runs
    ("nested_sup_elim",
     "sup_elim{1/2,1/2}(sup(sup_elim{1/4,3/4}(sup(star(1),star(2)),a.a,b.b),"
     "star(5)),x.x,y.y)", "one"),
    ("sup_elim_discarded",
     "fst(pair(star(7),sup_elim{1/2,1/2}(sup(star(1),star(2)),x.x,y.y)))",
     "one"),
    ("sup_inside_star_sum",
     "sup_elim{1/2,1/2}(sup(sum(star(1),star(1)),star(2)),x.x,y.y)", "one"),
    ("unit_elim_chain",
     "unit_elim(star(2),unit_elim(star(3),star(4)))", "one"),
    ("tens_with_units", "tens(unit,star(1))", "top (*) one"),
    ("pair_with_unit", "pair(unit,star(1))", "top & one"),
    ("scal_zero", "scal(0,star(1))", "one"),
]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    term: Term
    ctx: tuple
    prop: Prop


def corpus(semiring: Semiring = QNN) -> list[CorpusEntry]:
    entries = [
        CorpusEntry(name, parse_term(src, semiring), (),
                    parse_prop(type_src, semiring))
        for name, src, type_src in _SOURCES
    ]
    entries.extend(_encoded_matrix_entries(semiring))
    return entries


def corpus_sources() -> list[tuple[str, str, str]]:
    return list(_SOURCES)


def _encoded_matrix_entries(sr: Semiring) -> list[CorpusEntry]:
    lit = sr.from_literal
    from fractions import Fraction as Fr

    v2 = parse_prop("one & one", sr)
    m = [[lit(Fr(1)), lit(Fr(2))], [lit(Fr(3)), lit(Fr(4))]]
    enc = veccodec.encode_matrix(m, v2, v2)
    vec = veccodec.from_vector(veccodec.SVector((lit(Fr(5)), lit(Fr(6))), v2))
    one = parse_prop("one", sr)
    m1 = [[lit(Fr(1, 2))]]
    enc1 = veccodec.encode_matrix(m1, one, one)
    return [
        CorpusEntry("encoded_matrix_2x2", enc, (),
                    parse_prop("(one & one) -o (one & one)", sr)),
        CorpusEntry("encoded_matrix_applied", App(enc, vec), (), v2),
        CorpusEntry("encoded_matrix_1x1", enc1, (),
                    parse_prop("one -o one", sr)),
        CorpusEntry("encoded_matrix_1x1_applied",
                    App(enc1, Star(lit(Fr(4)))), (), one),
    ]
