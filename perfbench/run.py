"""ntbounds benchmark: seeded workloads through ``ntbounds.cli.main``.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Load is one closed-loop client in
this process: the next request is sent when the previous one has returned.
The program sees only the generated argv.  Every output is checked; the last
stdout line is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced pass (--trace 1).  See BASELINE.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402


class Session:
    """Sends requests, checks their outputs, and keeps the tallies of one run."""

    def __init__(self, cli, checks):
        self.cli = cli
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.latencies_ns: list[int] = []
        self.census_outputs: dict[tuple, list] = {}  # shape -> [buckets, request count]
        self.search_outputs: dict[tuple, dict] = {}
        self.tracer = None
        self.next_request_id = 0

    def call(self, argv) -> tuple[int, bytes, int]:
        """(exit code, stdout bytes, latency in ns) of one in-process CLI run."""
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self.next_request_id
        self.next_request_id += 1
        t0 = time.perf_counter_ns()
        try:
            code = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed request, not a crashed run
            code = -1
            self.note(f"{' '.join(argv)}: {traceback.format_exc(limit=3)}")
        finally:
            elapsed = time.perf_counter_ns() - t0
            if self.tracer is not None:
                self.tracer.request = -1
            sys.stdout, sys.stderr = saved
        return code, out.buffer.getvalue(), elapsed

    def note(self, reason: str) -> None:
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.note(reason)

    def send(self, req: Request, timed: bool) -> None:
        code, blob, elapsed = self.call(req.argv)
        self.attempted += 1
        if timed:
            self.latencies_ns.append(elapsed)
        if code != 0:
            self.fail(1, f"{' '.join(req.argv)}: exit code {code}")
            return
        try:
            payload = self.checks.check_output(req.kind, req.info, blob)
            self._check_repeat(req, payload)
        except (self.checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.fail(1, f"{' '.join(req.argv)}: {exc!r}")

    def _check_repeat(self, req: Request, payload: dict) -> None:
        """Same logical input, same report: across shard counts for searches
        (and across n, which below B = 200 changes only the echoed n), across
        torsion bounds for the census degree buckets."""
        info = req.info
        if req.kind == "search":
            key = (info["family"], info["B"])
            report = {k: v for k, v in payload.items() if k != "n"}
            first = self.search_outputs.setdefault(key, report)
            self.checks.require(first == report, f"search report differs across shards {key}")
        elif req.kind == "census":
            key = (info["ring"], info["N"], info["r"], info["dmax"])
            buckets = payload["degree_buckets"]
            seen = self.census_outputs.setdefault(key, [buckets, 0])
            seen[1] += 1
            self.checks.require(seen[0] == buckets, f"census buckets differ for {key}")

    def run_decks(self, workload: str, seed: int, seconds: float) -> None:
        """Whole decks until `seconds` of request time have been measured."""
        index = 0
        while sum(self.latencies_ns) < seconds * 1e9:
            self.run_deck_range(workload, seed, index, index + 1)
            index += 1

    def run_deck_range(self, workload: str, seed: int, first: int, stop: int) -> None:
        for index in range(first, stop):
            for req in workloads.deck(workload, seed, index):
                self.send(req, timed=True)

    def check_golden(self) -> None:
        for name, argv in workloads.GOLDEN.items():
            code, blob, _ = self.call(argv)
            self.attempted += 1
            if code != 0 or blob != (GOLDEN_DIR / name).read_bytes():
                self.fail(1, f"golden {name}: exit {code}, bytes differ from tests/golden")

    def check_search_shards(self) -> None:
        """Every family at B = 25 with 1 and 8 shards: send() compares the bytes."""
        for family in ("f1", "f2"):
            for shards in (1, 8):
                argv = ("search", "--family", family, "--n", "1", "--curve", family,
                        "--height-bound", "25", "--tol", "1e-10", "--shards", str(shards))
                self.send(Request(argv, "search",
                                  {"family": family, "n": 1, "B": "25", "shards": shards}),
                          timed=False)

    def check_census_shapes(self) -> float:
        """Oracle check of every census shape seen; returns its time in ms."""
        t0 = time.perf_counter()
        for (ring, N, r, dmax), (buckets, count) in sorted(self.census_outputs.items()):
            try:
                self.checks.check_census_shape(ring, N, r, dmax, buckets)
            except self.checks.CheckFailed as exc:
                self.fail(count, f"census {ring} N={N} r={r} Dmax={dmax}: {exc}")
        return (time.perf_counter() - t0) * 1e3

    def post_checks(self, workload: str) -> float:
        if workload == "query-mix":
            self.check_golden()
        if workload == "search":
            self.check_search_shards()
        return self.check_census_shapes()


def measure_setup(repeats: int) -> tuple[list[float], bool]:
    """Wall time of fresh interpreters that import the CLI and answer the warm-up."""
    payload = json.dumps([list(r.argv) for r in workloads.WARMUP])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NTBOUNDS_PRECISION", None)
    times, ok = [], True
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                                  input=payload, text=True, capture_output=True, env=env,
                                  timeout=SETUP_TIMEOUT_S)
            failure = proc.stderr[-500:] if proc.returncode != 0 else None
        except subprocess.TimeoutExpired:  # run() has killed and reaped the probe
            failure = f"no exit within {SETUP_TIMEOUT_S} s"
        times.append(time.perf_counter() - t0)
        if failure is not None:
            ok = False
            print(f"perfbench: set-up probe failed: {failure}", file=sys.stderr)
    return times, ok


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(session: Session, setup_times: list[float], rss_mb: float) -> dict:
    lat_ms = sorted(ns / 1e6 for ns in session.latencies_ns)
    tail_ms, tail_pct, count = stats.tail(lat_ms)
    failed_ratio = session.failed / session.attempted
    print(f"requests timed: {count}; tail percentile: p{tail_pct:g} "
          f"(>= {stats.TAIL_MIN_BEYOND} samples beyond); failed_ratio: {failed_ratio:g} "
          f"({session.failed}/{session.attempted})")
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_p50_ms": metric(stats.nearest_rank(lat_ms, 50)[0], "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "ops_per_s": metric(count / (sum(lat_ms) / 1e3), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_ratio": metric(1.0 - failed_ratio, "ratio"),
    }


def per_layer(session: Session, tracer, requests: int, traced_start: int,
              untraced_ops: float, atom_misses: int, check_ms: float) -> dict:
    summary = tracer.summary()
    lat = session.latencies_ns[traced_start:]
    traced_ops = len(lat) / (sum(lat) / 1e9)

    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_ms(name):
        return summary.get(name, (0, 0.0))[1]

    out = {}
    for name in ("cli.main", "reporting.canonical_dumps", "reporting.payload",
                 "bounds.family_final_bound", "bounds.bound_transverse_E2",
                 "bounds.bound_weaktransverse_EN", "bounds.constants_D",
                 "bounds.constants_CN", "chow_hurwitz.family_degree_upper",
                 "chow_hurwitz.hurwitz_genus", "search.search_rational_points",
                 "search.enumerate_rank1"):
        out[f"{name}.self_ms"] = metric(self_ms(name), "ms")
    for name in ("rounding.eval_const", "rounding.fraction_to_decimal",
                 "heights.canonical_height_enclosure", "elliptic.torsion_order",
                 "elliptic.scalar_mul", "elliptic.add", "rounding.iv_from_int",
                 "subgroups.enumerate_matrices", "subgroups.hermite_normal_form",
                 "subgroups.degree_estimate", "rings.canon_row", "rings.divmod_rounded",
                 "rings.elements_of_norm_at_most"):
        out[f"{name}.calls"] = metric(calls(name), "count")
        out[f"{name}.self_ms"] = metric(self_ms(name), "ms")
    counters = tracer.counters
    out["rounding.eval_const.per_op"] = metric(calls("rounding.eval_const") / requests, "count")
    out["rounding.atom_cache.misses"] = metric(atom_misses, "count")
    out["search.candidate_points"] = metric(counters["search.candidate_points"], "count")
    out["search.pairs_scanned"] = metric(counters["search.pairs_scanned"], "count")
    height_calls = calls("heights.canonical_height_enclosure")
    out["search.kept_ratio"] = metric(
        counters["search.candidate_points"] / height_calls if height_calls else 0.0, "ratio")
    hnf_calls = calls("subgroups.hermite_normal_form")
    out["subgroups.useful_ratio"] = metric(
        counters["subgroups.classes"] / hnf_calls if hnf_calls else 0.0, "ratio")
    out["bruteforce.check_ms"] = metric(check_ms, "ms")
    out["trace.ops_per_s_ratio"] = metric(traced_ops / untraced_ops, "ratio")
    print(f"traced requests: {requests}; spans: {len(tracer.start)}; "
          f"ops/s untraced {untraced_ops:.4g}, traced {traced_ops:.4g}")
    return out


def atom_cache_size() -> int:
    from ntbounds import rounding
    return len(getattr(rounding, "_ATOM_CACHE", ()))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup_times, setup_ok = ([], True) if trace else measure_setup(SETUP_REPEATS)
    from ntbounds import cli
    import checks
    session = Session(cli, checks)
    # Atoms the run evaluates, the warm-up's included: the cache is empty here.
    atoms_before = atom_cache_size()
    if not setup_ok:
        session.attempted += SETUP_REPEATS * len(workloads.WARMUP)
        session.fail(SETUP_REPEATS * len(workloads.WARMUP), "set-up probe failed")
    for req in workloads.WARMUP:
        session.send(req, timed=False)

    if not trace:
        session.run_decks(workload, seed, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        session.post_checks(workload)
        metrics = end_to_end(session, setup_times, rss_mb)
    else:
        from tracing import Tracer
        # Two passes of the same number of decks of the same mix, untraced then
        # traced.  The traced pass takes the next decks rather than replaying
        # the first ones, so its fresh query-mix log atoms are fresh too.
        decks = workloads.traced_decks(workload, seconds)
        session.run_deck_range(workload, seed, 0, decks)
        untraced = session.latencies_ns[:]
        untraced_ops = len(untraced) / (sum(untraced) / 1e9)
        tracer = Tracer()
        tracer.install()
        first_request = session.next_request_id
        session.tracer = tracer
        # The traced pass includes the warm-up requests, so every layer the
        # warm-up touches reports a measured time on every workload.
        for req in workloads.WARMUP:
            session.send(req, timed=False)
        traced_start = len(session.latencies_ns)
        session.run_deck_range(workload, seed, decks, 2 * decks)
        atom_misses = atom_cache_size() - atoms_before
        traced_requests = session.next_request_id - first_request
        session.tracer = None
        tracer.uninstall()
        check_ms = session.post_checks(workload)
        tracer.write(OUT_DIR / f"trace-{workload}-{seed}.bin")
        metrics = per_layer(session, tracer, traced_requests, traced_start, untraced_ops,
                            atom_misses, check_ms)

    for reason in session.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ntbounds" / "cli.py").is_file():
        print(f"perfbench: no ntbounds sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "query-mix" and not GOLDEN_DIR.is_dir():
        print(f"perfbench: golden reports missing under {GOLDEN_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("NTBOUNDS_PRECISION", None)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in result["metrics"].items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
