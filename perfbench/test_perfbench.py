"""Tests of the benchmark's own arithmetic: deck generation, the tail rule,
span self time.  Run with:  python3 -m pytest perfbench -q
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, span_self_ns  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_list(workload):
    first = [r.argv for i in range(3) for r in workloads.deck(workload, 7, i)]
    again = [r.argv for i in range(3) for r in workloads.deck(workload, 7, i)]
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_argv_list_same_mix(workload):
    a = workloads.deck(workload, 1, 0)
    b = workloads.deck(workload, 2, 0)
    assert [r.argv for r in a] != [r.argv for r in b]
    assert Counter(r.kind for r in a) == Counter(r.kind for r in b)


def test_query_mix_repeats_popular_requests_and_never_fresh_atoms():
    def decks(first):
        return [r for i in range(first, first + 20) for r in workloads.deck("query-mix", 1, i)]

    def expressions(requests):
        return {a for r in requests for flag, a in zip(r.argv, r.argv[1:])
                if flag in ("--hw", "--h-c")}

    first, second = decks(0), decks(20)
    assert not expressions(first) & expressions(second)
    assert {r.argv for r in first} & {r.argv for r in second}


def test_query_mix_deck_has_one_request_of_each_kind():
    def kind(r):
        detail = r.info.get("set") or r.info.get("branch") or r.info.get("family")
        return f"{r.kind}:{detail}" if detail else r.kind

    forms = set()
    for index in range(len(workloads.EXPONENT_FORMS)):
        deck = workloads.deck("query-mix", 5, index)
        assert sorted(map(kind, deck)) == sorted([
            "constants:d", "constants:cn", "bound:square", "bound:power",
            "family-audit:f1", "family-audit:f2", "exponents"])
        forms |= {(r.info["theorem"], r.info["case"]) for r in deck if r.kind == "exponents"}
    assert forms == {(t, c) for t, c, _ in workloads.EXPONENT_FORMS}


def test_every_search_deck_holds_the_same_evenly_spaced_grid():
    def heights(deck):
        return sorted((r.info["family"], int(r.info["B"])) for r in deck)

    first = workloads.deck("search", 3, 0)
    assert len(first) % 2 == 1
    assert heights(first) == heights(workloads.deck("search", 3, 1))
    assert heights(first) == heights(workloads.deck("search", 4, 7))
    for family in ("f1", "f2"):
        grid = [B for f, B in heights(first) if f == family]
        assert len(grid) == workloads.SEARCH_GRID[family]
        assert (grid[0], grid[-1]) == workloads.SEARCH_B_RANGE[family]
        steps = {b - a for a, b in zip(grid, grid[1:])}
        assert max(steps) - min(steps) <= 1


def test_search_decks_rotate_every_shard_count_over_every_height():
    pairs = Counter()
    for index in range(len(workloads.SHARD_COUNTS)):
        pairs.update((r.info["family"], r.info["B"], r.info["shards"])
                     for r in workloads.deck("search", 3, index))
    heights = sum(workloads.SEARCH_GRID.values())
    assert len(pairs) == heights * len(workloads.SHARD_COUNTS)
    assert set(pairs.values()) == {1}


def test_census_deck_holds_each_shape_once():
    deck = workloads.deck("census", 2, 3)
    shapes = [(r.info["ring"], r.info["N"], r.info["r"], r.info["dmax"]) for r in deck]
    assert sorted(shapes) == sorted(workloads.CENSUS_SHAPES)
    assert len(set(shapes)) == len(shapes)


def test_traced_pass_size_depends_on_seconds_only():
    assert workloads.traced_decks("search", 1) == 1
    assert workloads.traced_decks("census", 20) == round(10 / workloads.DECK_SECONDS["census"])


def test_zipf_n_repeats_popular_values():
    import random
    rng = random.Random(0)
    draws = [workloads.zipf_n(rng) for _ in range(2000)]
    assert all(1 <= n <= workloads.ZIPF_N_MAX for n in draws)
    assert Counter(draws).most_common(1)[0][0] == 1


@pytest.mark.parametrize("n, pct, value", [
    (1000, 95.0, 950.0),   # the ladder stops at p95
    (200, 95.0, 190.0),    # exactly ten samples beyond p95
    (199, 90.0, 180.0),    # p95 would leave nine
    (40, 75.0, 30.0),
    (100, 90.0, 90.0),
    (12, 50.0, 6.0),       # too few for any tail: the median
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, value):
    got_value, got_pct, count = stats.tail([float(i) for i in range(n, 0, -1)])
    assert (got_value, got_pct, count) == (value, pct, n)


def test_nearest_rank_counts_samples_beyond():
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == (2.0, 2)
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 100) == (4.0, 0)


def test_self_time_subtracts_union_of_children():
    # parent [0, 100]; children overlap on [20, 30] and one runs past the end
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 40, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    assert span_self_ns(start, end, parent) == [100 - 30 - 10, 20 - 6, 20, 30, 6]


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def gen():
        for _ in range(3):
            yield traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_gen = tracer.wrap("gen", gen)

    def root():
        return list(traced_gen()) + [traced_leaf()]

    traced_root = tracer.wrap("root", root)
    assert traced_root() == [sum(range(2000))] * 4  # idle: nothing recorded
    assert len(tracer.start) == 0
    tracer.request = 0
    traced_root()
    tracer.request = -1
    summary = tracer.summary()
    assert summary["root"][0] == 1 and summary["gen"][0] == 1 and summary["leaf"][0] == 4
    # one span per generator resumption: three items plus the final stop
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("gen") == 4
    total_ms = sum(ms for _, ms in summary.values())
    root_ms = (tracer.end[0] - tracer.start[0]) / 1e6
    assert total_ms == pytest.approx(root_ms)


def test_install_rebinds_names_taken_by_consumer_modules():
    from ntbounds import elliptic, heights, search
    original = elliptic.torsion_order
    tracer = Tracer()
    tracer.install()
    try:
        assert search.torsion_order is elliptic.torsion_order is heights.torsion_order
        assert elliptic.torsion_order is not original
    finally:
        tracer.uninstall()
    assert search.torsion_order is original and heights.torsion_order is original


def test_sublattice_count_matches_known_values():
    import checks
    assert [checks.sublattice_count(2, m) for m in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert checks.sublattice_count(3, 2) == 7
    assert checks.sublattice_count(3, 1) == 1
