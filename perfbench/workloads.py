"""The benchmark's four workloads: seeded inputs, one pipeline per item,
and a verdict checked against ``refs``.

A workload is built from the package object ``sc`` (a fresh import of
supcalc) and a seed.  ``plan`` is the list of items the closed loop walks
through; ``run(item)`` takes one item through the whole pipeline and
returns True when every verdict matches the benchmark's own reference.

Item costs are heavy-tailed (matrix dimensions, term sizes), so a run of
a few hundred items would swing with the luck of the draw.  The plans are
therefore stratified: candidates are sorted by a cheap size key and
visited in bit-reversed rank order, so every prefix of a plan covers the
small, middle and large inputs in their population proportions.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import refs

LAW_FAMILIES = 14  # structural law families the matrix model must satisfy


def spread_order(keys: list) -> list[int]:
    """Indices of ``keys`` such that every prefix samples the sorted keys
    evenly: rank by key, then visit ranks in van der Corput order."""
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    bits = max(1, (len(ranked) - 1).bit_length())
    order = sorted(range(1 << bits),
                   key=lambda j: int(format(j, f"0{bits}b")[::-1], 2))
    return [ranked[j] for j in order if j < len(ranked)]


class Workload:
    name = ""
    plan_size = 0

    def __init__(self, sc, seed: int):
        self.sc = sc
        self.plan = self.make_plan(seed, self.plan_size)

    def make_plan(self, seed: int, n: int) -> list:
        raise NotImplementedError

    def run(self, item) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Laws(Workload):
    """Why: the structural-law suite on dense random operands up to 225x225
    (and 625x625 identities in the pentagon).  Nearly all time is
    ``matmodel.compose``; syntax, rewrite and checker are not touched, so
    this is the workload a sparse matrix model must speed up.

    Item: ``check_laws(seed=s, trials=1, max_dim=5)`` over qnn; verdict:
    all fourteen families hold, and the non-weight pair still fails to
    invert the diagonal (its composite is exactly (p+q)*Id)."""

    name = "laws"
    plan_size = 1024

    def make_plan(self, seed, n):
        rng = random.Random(f"laws:{seed}")
        return [rng.randrange(2 ** 31) for _ in range(n)]

    def run(self, law_seed):
        return laws_hold(self.sc, law_seed, max_dim=5)


def laws_hold(sc, law_seed: int, max_dim: int) -> bool:
    """One trial of every law family holds, and the non-weight pair still
    fails to invert the diagonal: its composite is exactly (p+q)*Id."""
    sr, M = sc.QNN, sc.matmodel
    report = sc.check_laws(seed=law_seed, trials=1, max_dim=max_dim,
                           semiring=sr)
    laws_ok = (len(report.results) == LAW_FAMILIES
               and all(r.trials == 1 and r.ok for r in report.results))
    p, q = sr.non_weight_pair
    witness = M.compose(M.weighted_codiag((p, q), 3, sr), M.diag(3, sr))
    return (laws_ok and p + q != 1
            and witness.entries == refs.scaled_identity(p + q, 3))


# ---------------------------------------------------------------------------


class Confluence(Workload):
    """Why: fork-free generated terms (max_depth 4) reduced three ways.  The
    time is in syntax and rewrite (redex rescans, reflection, substitution)
    and no matrix is built; the tail is heavy, so it shows in
    ``item_ms_p90``.  It never takes the fork-exploring path.

    Item: typecheck, ``normalize``, ``normalize_random`` under two seeds;
    verdict: the three normal forms are alpha-equal and the normal form
    re-checks at the generated type."""

    name = "confluence"
    plan_size = 2048

    def make_plan(self, seed, n):
        sc = self.sc
        # depth 6 (acceptance criterion 8) averages ~150 ms an item with
        # multi-second outliers, and depth 5 still has rare items of 30 s:
        # either decides a run's throughput alone.  Depth 4 takes the same
        # paths at ~18 ms an item, with none above 1 s in 3000.
        gen = sc.TermGenerator(seed=seed, allow_sup_elim=False, max_depth=4)
        terms = [gen.closed() for _ in range(n)]
        keys = [len(sc.print_term(t)) for t, _ in terms]
        rng = random.Random(f"confluence:{seed}")
        return [(terms[i][0], terms[i][1],
                 rng.randrange(2 ** 31), rng.randrange(2 ** 31))
                for i in spread_order(keys)]

    def run(self, item):
        return reduces_confluently(self.sc, *item)


def reduces_confluently(sc, t, a, s1: int, s2: int) -> bool:
    """``t : a`` is typechecked and normalised three ways (leftmost and two
    random strategies); the three results are alpha-equal and the normal
    form re-checks at ``a``."""
    d = sc.typecheck((), t, a)
    nf = sc.normalize(t)
    r1 = sc.normalize_random(t, random.Random(s1))
    r2 = sc.normalize_random(t, random.Random(s2))
    nd = sc.typecheck((), nf, a)
    return (d.prop == a and nd.prop == a
            and sc.alpha_eq(nf, r1) and sc.alpha_eq(nf, r2))


# ---------------------------------------------------------------------------

_WEIGHTS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 5), F(3, 5))
_VALUES = (F(1, 2), F(2), F(3), F(1, 3), F(3, 2), F(5, 4), F(4, 5))
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89)
CHAIN_SIZES = range(4, 11)
TREE_SIZES = range(5, 12)  # a tree of n forks costs about a chain of n - 1


def _fork(p, q, a, b) -> str:
    return f"sup_elim{{{p},{q}}}(sup(star({a}),star({b})),x.x,y.y)"


def _chain_source(forks) -> str:
    src = _fork(*forks[-1])
    for fork in reversed(forks[:-1]):
        src = f"unit_elim({_fork(*fork)},{src})"
    return src


def _tree_source(forks) -> str:
    if len(forks) == 1:
        return _fork(*forks[0])
    mid = len(forks) // 2
    return (f"unit_elim({_tree_source(forks[:mid])},"
            f"{_tree_source(forks[mid:])})")


class Forks(Workload):
    """Why: exhaustive run distributions, the fork-exploring path that
    confluence skips.  Two families, each about half the time:

    (a) chains ``unit_elim(fork, unit_elim(fork, ...))`` of n identical
        forks: 2**n leaves but only n+1 distinct values, so memoised
        enumeration (Holtzen et al., OOPSLA 2020) has much to share;
    (b) balanced ``unit_elim`` trees of n forks over distinct primes: 2**n
        leaves, all distinct, so sharing can only add overhead.

    Every round of 14 items has chains of 4..10 forks and trees of 5..11.
    Item: parse, typecheck, ``distribution``, ``aggregate``; verdict: the
    leaf multiset and the aggregated distribution equal the binomial
    closed form (a) or the enumerated leaf weights (b)."""

    name = "forks"
    plan_size = 28 * (len(CHAIN_SIZES) + len(TREE_SIZES))

    def make_plan(self, seed, n):
        rng = random.Random(f"forks:{seed}")
        plan = []
        while len(plan) < n:
            round_ = []
            for size in CHAIN_SIZES:
                p = rng.choice(_WEIGHTS)
                a, b = rng.sample(_VALUES, 2)
                chain = [(p, 1 - p, a, b)] * size
                round_.append(("chain", size, _chain_source(chain),
                               refs.chain_leaves(size, p, 1 - p, a, b)))
            for size in TREE_SIZES:
                primes = rng.sample(_PRIMES, 2 * size)
                forks = [(w, 1 - w, F(primes[2 * i]), F(primes[2 * i + 1]))
                         for i, w in enumerate(rng.choices(_WEIGHTS, k=size))]
                round_.append(("tree", size, _tree_source(forks),
                               refs.tree_leaves(forks)))
            keys = [(size, rng.random()) for _, size, _, _ in round_]
            plan.extend(round_[i] for i in spread_order(keys))
        return plan[:n]

    def run(self, item):
        sc = self.sc
        _, _, src, leaves = item
        t = sc.parse_term(src)
        d = sc.typecheck((), t)
        dist = sc.distribution(t)
        agg = dist.aggregate(sc.QNN)
        got = Counter((w, _star_value(v)) for w, v in dist.items)
        expected_agg = refs.aggregate(leaves)
        return (d.prop == sc.One() and got == leaves
                and len(agg) == len(expected_agg)
                and {_star_value(v): w for w, v in agg} == expected_agg)


def _star_value(v):
    return v.scalar if type(v).__name__ == "Star" else None


# ---------------------------------------------------------------------------


def _vprop(sc, n: int):
    """one & (one & ... one) with n leaves."""
    a = sc.One()
    for _ in range(n - 1):
        a = sc.With(sc.One(), a)
    return a


class Semantics(Workload):
    """Why: the denotational pipeline on structural maps (permutations,
    blocks, identities), where laws uses the matrix model on dense
    operands.  Most time is ``denote`` and ``checker``.  A small share of
    fork-free reductions and law-suite trials keeps every layer entry
    point that a later change may speed up in this workload's traced run.

    One round holds the 66 corpus entries, 36 ``encode_matrix`` maps
    (1..6 x 1..6) applied to a vector, generated terms with sup_elim at
    depth 4, and a few ``sum`` chains 300..2000 deep.  Item: print, parse,
    typecheck, denote, then ``check_step_soundness`` (not on the chains,
    where it is quadratic).  Verdicts: the parse round-trips, the type is
    the expected one, the matrix has the benchmark's own dimensions, an
    encoded map's matrix is the plain m.u, a chain's matrix is the closed
    form sum, and every step is sound.

    The round also holds a few fork-free depth-4 terms taken through the
    confluence item, and a few one-trial law suites with dimensions up to
    3 (operands up to 9x9, identities up to 81x81) checked as the laws
    item is."""

    name = "semantics"
    generated_per_round = 24
    reduced_per_round = 8
    laws_per_round = 4
    plan_size = 3072

    def make_plan(self, seed, n):
        sc = self.sc
        rng = random.Random(f"semantics:{seed}")
        gen = sc.TermGenerator(seed=seed, allow_sup_elim=True, max_depth=4)
        fork_free = sc.TermGenerator(seed=seed, allow_sup_elim=False,
                                     max_depth=4)
        corpus = [("corpus", e.term, e.prop) for e in sc.corpus(sc.QNN)]
        plan = []
        while len(plan) < n:
            kinds = [list(corpus)]
            rng.shuffle(kinds[0])
            encoded = []
            for rows in range(1, 7):
                for cols in range(1, 7):
                    m = [[F(rng.randrange(10), rng.randrange(1, 4))
                          for _ in range(cols)] for _ in range(rows)]
                    u = [F(rng.randrange(10), rng.randrange(1, 4))
                         for _ in range(cols)]
                    encoded.append(("encoded", m, u, _vprop(sc, cols),
                                    _vprop(sc, rows)))
            rng.shuffle(encoded)
            kinds.append(encoded)
            generated = []
            for _ in range(self.generated_per_round):
                t, a = gen.closed()
                generated.append(("generated", t, a))
            kinds.append([generated[i] for i in spread_order(
                [len(sc.print_term(t)) for _, t, _ in generated])])
            chains = []
            for lo, hi in ((300, 1000), (1000, 2001)):
                depth = rng.randrange(lo, hi)
                first = F(rng.randrange(1, 10), rng.randrange(1, 5))
                step = F(rng.randrange(1, 10), rng.randrange(1, 5))
                chains.append(("chain", _sum_chain(depth, first, step),
                               refs.progression_sum(depth, first, step)))
            kinds.append(chains)
            reduced = []
            for _ in range(self.reduced_per_round):
                t, a = fork_free.closed()
                reduced.append(("reduced", t, a, rng.randrange(2 ** 31),
                                rng.randrange(2 ** 31)))
            kinds.append([reduced[i] for i in spread_order(
                [len(sc.print_term(t)) for _, t, _, _, _ in reduced])])
            kinds.append([("laws", rng.randrange(2 ** 31))
                          for _ in range(self.laws_per_round)])
            # interleave the kinds in proportion, so a partial round keeps
            # the round's mix
            slots = [((i + 0.5) / len(k), j, item)
                     for j, k in enumerate(kinds) for i, item in enumerate(k)]
            plan.extend(item for _, _, item in sorted(slots, key=lambda s: s[:2]))
        return plan[:n]

    def run(self, item):
        sc = self.sc
        kind = item[0]
        if kind == "reduced":
            return reduces_confluently(sc, *item[1:])
        if kind == "laws":
            return laws_hold(sc, item[1], max_dim=3)
        if kind == "chain":
            _, src, total = item
            t = sc.parse_term(src)
            if sc.print_term(t) != src:
                return False
            mat = sc.denote(sc.typecheck((), t, sc.One())).matrix
            return (mat.rows, mat.cols) == (1, 1) and mat.entries == [total]
        if kind == "encoded":
            _, m, u, a, b = item
            enc = sc.encode_matrix(m, a, b)
            term = sc.App(enc, sc.from_vector(sc.SVector(tuple(u), a)))
            expected, prop = refs.matvec(m, u), b
        else:
            _, term, prop = item
            expected = None
        t = sc.parse_term(sc.print_term(term))
        if t != term:
            return False
        d = sc.typecheck((), t, prop)
        mat = sc.denote(d).matrix
        if d.prop != prop or (mat.rows, mat.cols) != (refs.prop_dim(prop), 1):
            return False
        if expected is not None and mat.entries != expected:
            return False
        return sc.check_step_soundness(t, expected=prop).ok


def _sum_chain(n: int, first: F, step: F) -> str:
    """sum(star(c1),sum(star(c2),...star(cn))) with c_i = first + (i-1)*step,
    written exactly as the printer writes it."""
    return ("".join(f"sum(star({first + i * step})," for i in range(n - 1))
            + f"star({first + (n - 1) * step})" + ")" * (n - 1))


WORKLOADS = {w.name: w for w in (Laws, Confluence, Forks, Semantics)}
