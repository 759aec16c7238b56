#!/usr/bin/env python3
"""Compare what source trees print for the same benchmark requests.

Runs the argv of the first K decks of a perfbench workload through
``ntbounds.cli.main`` of each given source tree, each tree in its own process,
and prints per tree the request count and a sha256 over every request's exit
code and stdout.  The decks come from this checkout's
``perfbench/workloads.py``, which is only read.  Exits 1 when the hashes
differ.

    python3 scripts/compare_outputs.py query-mix --decks 300 ../parent .
    python3 scripts/compare_outputs.py search --decks 6 --seed 11 ../parent .
"""

import argparse
import hashlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _workloads():
    sys.dont_write_bytecode = True  # leave no cache files beside workloads.py
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def tree_main(tree: str):
    """`ntbounds.cli.main` of the source tree `tree`."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from ntbounds.cli import main
    return main


def run_request(main, argv) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one in-process CLI run; stderr is dropped."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.buffer.getvalue()


def digest(tree: str, workload: str, decks: int, seed: int) -> tuple[int, str]:
    """(request count, sha256 hex) of the decks run through `tree`'s CLI."""
    main = tree_main(tree)
    workloads = _workloads()
    h = hashlib.sha256()
    count = 0
    for index in range(decks):
        for req in workloads.deck(workload, seed, index):
            code, blob = run_request(main, req.argv)
            h.update(b"%d %d\n" % (code, len(blob)))
            h.update(blob)
            count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("query-mix", "search", "census"))
    parser.add_argument("trees", nargs="+", help="source trees (each holds src/ntbounds)")
    parser.add_argument("--decks", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        count, hexdigest = digest(args.trees[0], args.workload, args.decks, args.seed)
        print(count, hexdigest)
        return 0
    seen = set()
    for tree in args.trees:
        result = subprocess.run(
            [sys.executable, __file__, args.workload, tree, "--decks", str(args.decks),
             "--seed", str(args.seed), "--worker"],
            capture_output=True, text=True)
        if result.returncode:
            sys.stderr.write(result.stderr)
            return 2
        count, hexdigest = result.stdout.split()
        print(f"{tree}: requests {count} sha256 {hexdigest}")
        seen.add((count, hexdigest))
    return 0 if len(seen) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
