#!/usr/bin/env python3
"""Compare what source trees print for the same benchmark requests.

Runs the argv of the first K decks of a perfbench workload through
``ntbounds.cli.main`` of each given source tree, each tree in its own process,
and prints per tree the request count and a sha256 over every request's exit
code, stdout and refusal lines (the stderr lines that begin ``ntbounds``; the
search timing line is left out).  The decks come from this checkout's
``perfbench/workloads.py``, which is only read.  With ``--argv-file FILE`` the
requests are instead the argv lists of FILE, a JSON list of lists of strings,
and the workload is not given.  Exits 1 when the hashes differ.

    python3 scripts/compare_outputs.py query-mix --decks 300 ../parent .
    python3 scripts/compare_outputs.py search --decks 6 --seed 11 ../parent .
    python3 scripts/compare_outputs.py --argv-file shapes.json ../parent .
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
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


def run_request(main, argv) -> tuple[int, bytes, str]:
    """(exit code, stdout bytes, refusal lines of stderr) of one in-process CLI run."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    refusals = "".join(line for line in err.getvalue().splitlines(keepends=True)
                       if line.startswith("ntbounds"))
    return code, out.buffer.getvalue(), refusals


def requests(workload: str | None, decks: int, seed: int, argv_file: str | None):
    """The argv of each request: FILE's lists, or the decks' requests."""
    if argv_file is not None:
        return json.loads(Path(argv_file).read_text())
    workloads = _workloads()
    return [req.argv for index in range(decks) for req in workloads.deck(workload, seed, index)]


def digest(tree: str, argvs) -> tuple[int, str]:
    """(request count, sha256 hex) of the argvs run through `tree`'s CLI."""
    os.environ["COLUMNS"] = "80"  # argparse wraps --help at the terminal's width
    main = tree_main(tree)
    h = hashlib.sha256()
    for argv in argvs:
        code, blob, refusals = run_request(main, argv)
        h.update(b"%d %d\n" % (code, len(blob)))
        h.update(blob)
        h.update(refusals.encode())
    return len(argvs), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="[workload] tree",
                        help="a workload (query-mix, search or census), then the "
                             "source trees (each holds src/ntbounds); with "
                             "--argv-file, the trees only")
    parser.add_argument("--decks", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--argv-file", help="JSON list of argv lists to run instead of decks")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_intermixed_args(argv)
    workload, trees = None, args.trees
    if args.argv_file is None:
        workload, *trees = trees
        if workload not in ("query-mix", "search", "census") or not trees or args.decks is None:
            parser.error("give a workload, --decks and the trees, or --argv-file and the trees")
    if args.worker:
        count, hexdigest = digest(trees[0], requests(
            workload, args.decks, args.seed, args.argv_file))
        print(count, hexdigest)
        return 0
    if args.argv_file is None:
        source = [workload, "--decks", str(args.decks), "--seed", str(args.seed)]
    else:
        source = ["--argv-file", str(Path(args.argv_file).resolve())]
    seen = set()
    for tree in trees:
        result = subprocess.run([sys.executable, __file__, *source, tree, "--worker"],
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
