"""Time the three reference figures of the ROADMAP re-anchor.

    python3 perfbench/crosscheck.py

1. the law suite, ``check_laws(seed=0, trials=200, max_dim=5)``;
2. confluence on 100 generated fork-free terms (seed 2024, max_depth 6),
   each normalised under two random strategies, as acceptance criterion 8;
3. ``distribution`` on 12 chained even forks (4096 leaves), in two chain
   shapes: the right-nested chain of the forks workload and a left-nested
   one.

Each figure is printed with its wall time, so a drift between the
benchmark and the ROADMAP numbers shows directly.
"""

from __future__ import annotations

import random
import time

import run

EVEN_FORK = "sup_elim{1/2,1/2}(sup(star(1/2),star(2)),x.x,y.y)"


def right_chain(n: int) -> str:
    src = EVEN_FORK
    for _ in range(n - 1):
        src = f"unit_elim({EVEN_FORK},{src})"
    return src


def left_chain(n: int) -> str:
    src = EVEN_FORK
    for _ in range(n - 1):
        src = f"unit_elim({src},{EVEN_FORK})"
    return src


def timed(label, fn):
    start = time.perf_counter()
    detail = fn()
    print(f"{label}: {time.perf_counter() - start:.2f} s ({detail})")


def main() -> None:
    sc = run.fresh_import()

    def laws():
        return f"ok={sc.check_laws(seed=0, trials=200, max_dim=5).ok}"

    def confluence():
        gen = sc.TermGenerator(seed=2024, allow_sup_elim=False, max_depth=6)
        agree = 0
        for i in range(100):
            t, _ = gen.closed()
            n1 = sc.normalize_random(t, random.Random(10_000 + i))
            n2 = sc.normalize_random(t, random.Random(20_000 + i))
            agree += sc.alpha_eq(n1, n2)
        return f"{agree}/100 alpha-equal"

    def chain(make, n):
        def go():
            d = sc.distribution(sc.parse_term(make(n)))
            return (f"{len(d.items)} leaves, "
                    f"{len(d.aggregate(sc.QNN))} distinct")
        return go

    timed("law suite, 200 trials, max_dim 5", laws)
    timed("confluence, 100 terms", confluence)
    for n in (10, 12):
        timed(f"right-nested chain, n={n}", chain(right_chain, n))
        timed(f"left-nested chain, n={n}", chain(left_chain, n))


if __name__ == "__main__":
    main()
