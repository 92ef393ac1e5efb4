"""Acceptance suite.

One test per criterion; each runs the full check at its stated tolerance
(exact equality over the default rationals) and prints a pass line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import supcalc as sc
from supcalc import matmodel as M
from supcalc import syntax as S
from supcalc.gen import TermGenerator

from conftest import shape_of_value_ok

SR = sc.QNN


class _timer:
    def __init__(self, number: int, label: str, budget: float):
        self.number, self.label, self.budget = number, label, budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\n[acceptance] {self.number}. {self.label}: "
                  f"PASS in {elapsed:.2f}s (budget {self.budget:.0f}s)")
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        else:
            print(f"\n[acceptance] {self.number}. {self.label}: "
                  f"FAIL after {elapsed:.2f}s")
        return False


def _vprops():
    return {1: sc.parse_prop("one"),
            2: sc.parse_prop("one & one"),
            3: sc.parse_prop("(one & one) & one"),
            4: sc.parse_prop("(one & one) & (one & one)")}


def test_criterion_1_adequacy_example():
    with _timer(1, "probabilistic pair: denotation, distribution, equivalence", 1.0):
        t = sc.parse_term("sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)")
        u = sc.parse_term("sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)")
        half = M.Mat(1, 1, [F(1, 2)], SR)
        assert sc.denote_closed(t).equal(half)
        assert sc.denote_closed(u).equal(half)
        agg_t = [(w, sc.print_term(v))
                 for w, v in sc.distribution(t).aggregate(SR)]
        assert agg_t == [(F(1), "star(1/2)")]
        agg_u = sorted((w, sc.print_term(v))
                       for w, v in sc.distribution(u).aggregate(SR))
        assert agg_u == [(F(1, 2), "star(1/4)"), (F(1, 2), "star(3/4)")]
        assert sc.mixed_equiv(t, u, S.One())


def test_criterion_2_categorical_law_suite():
    with _timer(2, "structural law families, 200 trials, dims to 5", 60.0):
        report = sc.check_laws(seed=0, trials=200, max_dim=5, semiring=SR)
        assert len(report.results) == 14
        for res in report.results:
            assert res.ok, (res.name, res.failures[:3])
        # the left-inverse family also witnesses the failure outside the
        # weight set: a non-complementary pair must not invert the diagonal
        bad = M.compose(M.weighted_codiag(SR.non_weight_pair, 3, SR),
                        M.diag(3, SR))
        assert not bad.equal(M.identity(3, SR))


def test_criterion_3_per_step_soundness(corpus_entries):
    with _timer(3, "per-step soundness on every corpus redex", 60.0):
        rules_hit: set[str] = set()
        for e in corpus_entries:
            report = sc.check_step_soundness(e.term, SR, expected=e.prop)
            assert report.ok, (e.name,
                               [c for c in report.checks if not c.ok][:2])
            for c in report.checks:
                rules_hit.update(c.rules)
        assert rules_hit == set(sc.ALL_RULES), sorted(
            set(sc.ALL_RULES) - rules_hit)


def test_criterion_4_global_soundness(corpus_entries):
    with _timer(4, "whole-run soundness on the corpus", 60.0):
        assert len(corpus_entries) >= 50
        for e in corpus_entries:
            assert sc.check_global_soundness(e.term, SR, expected=e.prop), e.name


def test_criterion_5_matrix_theorem():
    with _timer(5, "matrix encodings achieve M*u on 100 random matrices", 30.0):
        rng = random.Random(42)
        props = _vprops()
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[F(rng.randrange(10)) for _ in range(cols)]
                 for _ in range(rows)]
            a, b = props[cols], props[rows]
            enc = sc.encode_matrix(m, a, b)
            for _ in range(5):
                u = [F(rng.randrange(10)) for _ in range(cols)]
                got = sc.to_vector(
                    S.App(enc, sc.from_vector(sc.SVector(tuple(u), a))), b, SR)
                assert list(got.entries) == sc.matvec(m, u, SR)
            assert sc.extract_linear_map(enc, a, b, SR) == m


def test_criterion_6_linearity():
    with _timer(6, "syntactic and semantic linearity of 50 encoded maps", 30.0):
        rng = random.Random(7)
        props = _vprops()
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = [[F(rng.randrange(10)) for _ in range(cols)]
                 for _ in range(rows)]
            a, b = props[cols], props[rows]
            t = sc.encode_matrix(m, a, b)
            u1 = sc.from_vector(sc.SVector(
                tuple(F(rng.randrange(10)) for _ in range(cols)), a))
            u2 = sc.from_vector(sc.SVector(
                tuple(F(rng.randrange(10)) for _ in range(cols)), a))
            s = F(rng.randrange(10))
            assert sc.alpha_eq(
                sc.normalize(S.App(t, S.Sum(u1, u2)), SR),
                sc.normalize(S.Sum(S.App(t, u1), S.App(t, u2)), SR))
            assert sc.alpha_eq(
                sc.normalize(S.App(t, S.Scal(s, u1)), SR),
                sc.normalize(S.Scal(s, S.App(t, u1)), SR))
            m_sum = sc.denote_closed(S.App(t, S.Sum(u1, u2)), b, SR)
            m1 = sc.denote_closed(S.App(t, u1), b, SR)
            m2 = sc.denote_closed(S.App(t, u2), b, SR)
            assert m_sum.equal(M.add(m1, m2))
            m_scal = sc.denote_closed(S.App(t, S.Scal(s, u1)), b, SR)
            assert m_scal.equal(M.compose(
                M.scalar_map(s, m1.rows, SR), m1))


def test_criterion_7_subject_reduction_and_shapes(corpus_entries):
    with _timer(7, "type preservation and closed-value shapes", 30.0):
        for e in corpus_entries:
            report = sc.check_subject_reduction(e.term, (), SR, expected=e.prop)
            assert report.ok, (e.name, report.findings[:2])
            for _, value in sc.distribution(e.term, SR).items:
                assert shape_of_value_ok(value, e.prop), (
                    e.name, sc.print_term(value))


def test_criterion_8_confluence_of_fork_free_fragment():
    with _timer(8, "confluence under independently seeded strategies", 30.0):
        gen = TermGenerator(seed=2024, allow_sup_elim=False, max_depth=6)
        for i in range(100):
            t, _ = gen.closed()
            n1 = sc.normalize_random(t, random.Random(10_000 + i), SR)
            n2 = sc.normalize_random(t, random.Random(20_000 + i), SR)
            assert sc.alpha_eq(n1, n2), sc.print_term(t)


def test_criterion_9_mass_conservation(corpus_entries):
    with _timer(9, "probability mass of every corpus run is exactly 1", 10.0):
        for e in corpus_entries:
            assert sc.distribution(e.term, SR).total(SR) == F(1), e.name
