"""Check that the benchmark's verdicts can fail.

    python3 perfbench/selfcheck.py

For each workload, runs the first few items of seed 1 twice: once as the
benchmark does, and once with its reference deliberately corrupted.  The
clean pass must have a fail ratio of 0 and the corrupted pass one above 0;
the exit code is 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run
import refs
import workloads

ITEMS = 6


def _shift_first_arg(fn):
    return lambda s, n: fn(s + 1, n)


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _extra_leaf(fn):
    def corrupted(*args):
        leaves = fn(*args)
        leaves[(Fraction(0), Fraction(0))] += 1
        return leaves
    return corrupted


# workload -> (module attribute of refs, corruption)
CORRUPTIONS = {
    "laws": [("scaled_identity", _shift_first_arg)],
    "forks": [("chain_leaves", _extra_leaf), ("tree_leaves", _extra_leaf)],
    "semantics": [("prop_dim", _plus_one), ("progression_sum", _plus_one),
                  ("matvec", lambda fn: lambda m, u: [x + 1 for x in fn(m, u)])],
}


def _wrong_type(workload):
    """Confluence's reference is the generated type; expect another one."""
    sc = workload.sc
    workload.plan = [(t, sc.Tensor(a, sc.One()), s1, s2)
                     for t, a, s1, s2 in workload.plan]


def fail_ratio(name: str, corrupt: bool) -> float:
    saved = [(attr, getattr(refs, attr)) for attr, _ in CORRUPTIONS.get(name, [])]
    try:
        if corrupt:
            for attr, how in CORRUPTIONS.get(name, []):
                setattr(refs, attr, how(getattr(refs, attr)))
        sc = run.fresh_import()
        workload = workloads.WORKLOADS[name](sc, 1)
        if corrupt and name == "confluence":
            _wrong_type(workload)
        runner = run.Runner(workload)
        runner.reported = corrupt  # expected failures need no traceback
        for item in workload.plan[:ITEMS]:
            runner(item)
        return runner.failed / ITEMS
    finally:
        for attr, fn in saved:
            setattr(refs, attr, fn)


def main() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        clean, corrupted = fail_ratio(name, False), fail_ratio(name, True)
        good = clean == 0 and corrupted > 0
        ok &= good
        print(f"{name}: fail_ratio clean {clean:.2f}, corrupted reference "
              f"{corrupted:.2f} -> {'ok' if good else 'NOT DETECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
