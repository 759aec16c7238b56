#!/usr/bin/env python3
"""Paired timing of two source trees on the same benchmark decks.

Each run is a fresh process that imports one tree's ``ntbounds.cli``, sends
the benchmark's warm-up requests, then times the first K decks of a perfbench
workload sent through its ``main`` in-process.  A pair is one run of each tree; the tree that runs first
alternates from pair to pair, so drift in the machine's speed falls on both
sides.  The decks come from this checkout's ``perfbench/workloads.py``, which
is only read.  Prints each pair's seconds, each tree's median and quartiles,
and how many pairs TREE_B won; exits 1 unless TREE_B won at least 9 pairs in
10 and the medians differ by more than TREE_A's interquartile range.

    python3 scripts/time_decks.py query-mix --decks 300 --pairs 10 ../parent .
"""

import argparse
import statistics
import subprocess
import sys
import time

from compare_outputs import _workloads, run_request, tree_main


def time_decks(tree: str, workload: str, decks: int, seed: int) -> float:
    """Seconds `tree`'s CLI takes for the first `decks` decks, after the
    imports and the warm-up requests."""
    main = tree_main(tree)
    workloads = _workloads()
    for req in workloads.WARMUP:
        run_request(main, req.argv)
    requests = [req.argv for index in range(decks)
                for req in workloads.deck(workload, seed, index)]
    t0 = time.perf_counter()
    for argv in requests:
        run_request(main, argv)
    return time.perf_counter() - t0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("query-mix", "search", "census"))
    parser.add_argument("trees", nargs="+", metavar="TREE",
                        help="TREE_A TREE_B (each holds src/ntbounds)")
    parser.add_argument("--decks", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(time_decks(args.trees[0], args.workload, args.decks, args.seed))
        return 0
    if len(args.trees) != 2 or args.pairs < 1 or args.decks < 1:
        parser.error("give two trees, --pairs >= 1 and --decks >= 1")
    tree_a, tree_b = args.trees

    def run(tree: str) -> float:
        result = subprocess.run(
            [sys.executable, __file__, args.workload, tree, "--decks", str(args.decks),
             "--seed", str(args.seed), "--worker"],
            capture_output=True, text=True, check=True)
        return float(result.stdout)

    seconds = {tree_a: [], tree_b: []}
    wins = 0
    for pair in range(args.pairs):
        order = (tree_a, tree_b) if pair % 2 == 0 else (tree_b, tree_a)
        got = {tree: run(tree) for tree in order}
        for tree in order:
            seconds[tree].append(got[tree])
        wins += got[tree_b] < got[tree_a]
        print(f"pair {pair + 1}: A {got[tree_a]:.3f} s  B {got[tree_b]:.3f} s  "
              f"({'A' if order[0] == tree_a else 'B'} first)", flush=True)
    for label, tree in (("A", tree_a), ("B", tree_b)):
        q1, q2, q3 = quartiles(seconds[tree])
        print(f"{label} {tree}: median {q2:.3f} s  quartiles {q1:.3f} / {q3:.3f} s")
    a1, a2, a3 = quartiles(seconds[tree_a])
    b2 = quartiles(seconds[tree_b])[1]
    print(f"B faster in {wins}/{args.pairs} pairs; median A/B {a2 / b2:.3f}; "
          f"median gap {a2 - b2:.3f} s against A's IQR {a3 - a1:.3f} s")
    return 0 if 10 * wins >= 9 * args.pairs and a2 - b2 > a3 - a1 else 1


if __name__ == "__main__":
    sys.exit(main())
