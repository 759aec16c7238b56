"""The acceptance gate: one test per criterion, each printed as a pass line
with its measured runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; failures surface as ordinary pytest failures either way.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from ntbounds.bounds import constants_D_printed, exponents, family_final_bound, family_invariants
from ntbounds.bruteforce import match_against, oracle_degree, oracle_enumerate
from ntbounds.chow_hurwitz import family_curve_profile, family_degree_upper, hurwitz_genus
from ntbounds.cli import main
from ntbounds.elliptic import add, negate, scalar_mul, validate_curve, weierstrass_height
from ntbounds.heights import (
    ProjPointQ,
    canonical_height_enclosure,
    modified_height_h2_expr,
    weil_height_expr,
)
from ntbounds.presets import ambient_gamma
from ntbounds.rings import RING_GAUSS, RING_Z
from ntbounds.rounding import Direction, eval_const
from ntbounds.search import search_rational_points
from ntbounds.subgroups import census, enumerate_matrices, torsion_count

GOLDEN = Path(__file__).parent / "golden"
TOL = Fraction(1, 10 ** 10)


def _passline(num: int, label: str, elapsed: float, budget: float):
    print(f"criterion {num:02d} {label}: PASS ({elapsed * 1000:.2f} ms "
          f"< {budget * 1000:.0f} ms budget)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _best_of(fn, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_weierstrass_height():
    E = validate_curve(-1, -2)
    weierstrass_height(E, Direction.UPPER, 256)  # warm the log cache

    upper = weierstrass_height(E, Direction.UPPER, 256).exact()
    lower = weierstrass_height(E, Direction.LOWER, 256).exact()
    with mpmath.workdps(80):
        exact = Fraction(str(mpmath.log(2) / 3))
    eps = Fraction(1, 10 ** 30)
    assert lower <= exact + eps and exact - eps <= upper
    assert abs(upper - exact) < eps and abs(lower - exact) < eps

    elapsed = _best_of(lambda: weierstrass_height(E, Direction.UPPER, 256), 5)
    _passline(1, "weierstrass-height", elapsed, 0.001)


def test_criterion_02_d_constant_printed_digits():
    constants_D_printed(256)  # warm
    printed = constants_D_printed(256)
    assert printed["d1"] == "2.364e34"
    assert printed["d2_hw_coefficient"] == "5.319e35"
    assert printed["d2_constant_term"] == "9.504e35"
    assert printed["d3_hw_coefficient"] == "4.5"
    assert printed["d3_constant_term"] == "7.279"
    elapsed = _best_of(lambda: constants_D_printed(256), 3)
    _passline(2, "printed-constant-digits", elapsed, 0.010)


def test_criterion_03_family_degree_and_genus():
    t0 = time.perf_counter()
    for n in range(1, 101):
        assert family_degree_upper(n) == 9 * (n + 1)
        deg, profile = family_curve_profile(n)
        assert hurwitz_genus(deg, 0, profile) == 4 * n + 2
    _passline(3, "degree-and-genus", time.perf_counter() - t0, 1.0)


def test_criterion_04_height_pipeline():
    t0 = time.perf_counter()
    eps = Fraction(1, 10 ** 30)
    with mpmath.workdps(80):
        log18 = Fraction(str(mpmath.log(18)))
        log24 = Fraction(str(mpmath.log(24)))
    for n in list(range(1, 101)) + [250, 500, 1000]:
        inv = family_invariants("f2", n)
        mu = eval_const(inv.mu_upper, Direction.NEAREST, 256).exact()
        h = eval_const(inv.h_upper, Direction.NEAREST, 256).exact()
        mu_want = log18 + 3 * log24 / (2 * n)
        assert abs(mu - mu_want) < eps
        assert abs(h - 18 * (n + 1) * mu_want) < eps * 18 * (n + 1)
    flagged = family_final_bound(1)
    assert flagged.flagged and flagged.verdict == "exceeds-closed-form"
    assert flagged.notes  # discrepancy recorded, not raised
    for n in range(2, 1001):
        rep = family_final_bound(n)
        assert not rep.flagged
        assert rep.composed_total.exact() <= rep.closed_form_total
    _passline(4, "height-pipeline", time.perf_counter() - t0, 5.0)


def test_criterion_05_canonical_height_properties():
    t0 = time.perf_counter()
    for family in ("f1", "f2"):
        gamma = ambient_gamma(family)
        E, g = gamma.curve, gamma.generator
        lo, hi = canonical_height_enclosure(E, g, TOL)
        base = (lo + hi) / 2
        for m in range(1, 11):
            lom, him = canonical_height_enclosure(E, scalar_mul(E, m, g), TOL)
            assert abs((lom + him) / 2 - m * m * base) <= (m * m + 1) * TOL
        for (i, j) in ((1, 2), (2, 3), (1, 3)):
            P, Q = scalar_mul(E, i, g), scalar_mul(E, j, g)
            mids = []
            for point in (add(E, P, Q), add(E, P, negate(Q)), P, Q):
                plo, phi = canonical_height_enclosure(E, point, TOL)
                mids.append((plo + phi) / 2)
            assert abs(mids[0] + mids[1] - 2 * mids[2] - 2 * mids[3]) <= 6 * TOL
    _passline(5, "canonical-height-properties", time.perf_counter() - t0, 10.0)


def test_criterion_06_height_sandwich():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    half_logs = {}
    for m in range(1, 6):
        expr = eval_const(
            modified_height_h2_expr(ProjPointQ(tuple([1] * (m + 1)))),
            Direction.UPPER, 64)
        half_logs[m] = expr.exact() + Fraction(1, 10 ** 9)  # (1/2) log(m+1), padded
    for _ in range(10_000):
        m = rng.randint(1, 5)
        coords = tuple(rng.randint(-10 ** 4, 10 ** 4) for _ in range(m + 1))
        if all(c == 0 for c in coords):
            continue
        P = ProjPointQ(coords)
        m_eff = len(P.coords) - 1
        h_lo = eval_const(weil_height_expr(P), Direction.LOWER, 64).exact()
        h_hi = eval_const(weil_height_expr(P), Direction.UPPER, 64).exact()
        h2_lo = eval_const(modified_height_h2_expr(P), Direction.LOWER, 64).exact()
        h2_hi = eval_const(modified_height_h2_expr(P), Direction.UPPER, 64).exact()
        assert h_lo <= h2_hi
        assert h2_lo <= h_hi + half_logs.get(m_eff, half_logs[5])
    _passline(6, "height-sandwich", time.perf_counter() - t0, 5.0)


def test_criterion_07_point_search():
    t0 = time.perf_counter()
    gamma = ambient_gamma("f1")
    expected = [("(1, -1)", "(1, 1)"), ("(1, 1)", "(1, 1)")]
    for n in range(1, 6):
        rep = search_rational_points("f1", n, gamma, 25, TOL, shards=1)
        got = sorted((str(f.p1), str(f.p2)) for f in rep.found)
        assert got == expected, n
    single = time.perf_counter() - t0
    from ntbounds.reporting import canonical_dumps, search_report_payload
    rep1 = search_rational_points("f1", 1, gamma, 25, TOL, shards=1)
    rep8 = search_rational_points("f1", 1, gamma, 25, TOL, shards=8)
    assert canonical_dumps(search_report_payload(rep1)) == \
        canonical_dumps(search_report_payload(rep8))
    _passline(7, "point-search", single, 60.0)


def test_criterion_08_exponent_cross_check():
    exponents("point-count", "weak-transverse-rank1", N=3)  # warm import paths
    weak = exponents("point-count", "weak-transverse-rank1", N=3)
    square = exponents("point-count", "transverse-square-rank1")
    weak_exps = [e.eta_free for e in weak.entries]
    assert weak_exps == [Fraction(29), Fraction(22), Fraction(21)]
    assert weak_exps == [e.eta_free for e in square.entries]
    elapsed = _best_of(
        lambda: exponents("point-count", "weak-transverse-rank1", N=3), 5)
    _passline(8, "exponent-cross-check", elapsed, 0.001)


def test_criterion_09_census_oracle_equivalence():
    t0 = time.perf_counter()
    cases = [(RING_Z, n, r, 50) for n in (1, 2, 3) for r in (1, 2) if r <= n]
    cases.append((RING_GAUSS, 2, 1, 25))
    for ring, n, r, dmax in cases:
        production = enumerate_matrices(ring, n, r, dmax)
        raw = oracle_enumerate(ring, n, r, dmax)
        stats = match_against(ring, raw, production)
        assert not stats["unmatched"], (ring.kind, n, r)
        assert not stats["ambiguous"], (ring.kind, n, r)
        assert all(h >= 1 for h in stats["matched"]), (ring.kind, n, r)
        # the census counts the classes the oracle confirms, degree by degree
        buckets: dict[int, int] = {}
        for m in production:
            d = oracle_degree(ring, m.entries)
            buckets[d] = buckets.get(d, 0) + 1
        assert census(ring, n, r, dmax, 1).degree_buckets == tuple(sorted(buckets.items()))
    for n in range(1, 5):
        for t in (1, 7, 100):
            direct = sum(i ** (2 * n) for i in range(1, t + 1))
            assert torsion_count(n, t) == direct
    _passline(9, "census-oracle-equivalence", time.perf_counter() - t0, 30.0)


def test_criterion_10_report_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    commands = {
        "constants_d.json": ["constants", "--d", "--hw", "1/3log2"],
        "family_audit_f2.json": ["family-audit", "--family", "f2",
                                 "--n-range", "1:3", "--digits", "30"],
        "search_f1_n1.json": ["search", "--family", "f1", "--n", "1", "--curve",
                              "f1", "--height-bound", "25", "--tol", "1e-10"],
        "census_z_2_1.json": ["census", "--ring", "z", "--N", "2", "--r", "1",
                              "--max-degree", "40", "--torsion", "10"],
        "exponents_point_count.json": ["exponents", "--theorem", "point-count",
                                       "--case", "weak-transverse-rank1", "--N", "3"],
        "bound_square.json": ["bound", "--branch", "square", "--deg-c", "18",
                              "--h-c", "log(18)", "--hw", "1/3log2"],
        "bound_power.json": ["bound", "--branch", "power", "--N", "3",
                             "--deg-c", "2", "--h-c", "1/2", "--hw", "0"],
    }
    for name, args in commands.items():
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{name}.{tag}"
            assert main([*args, "--out", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], name
        assert runs[0] == (GOLDEN / name).read_bytes(), name
    for shards in ("2", "8"):
        out = tmp_path / f"shards{shards}.json"
        assert main(["search", "--family", "f1", "--n", "1", "--curve", "f1",
                     "--height-bound", "25", "--tol", "1e-10",
                     "--shards", shards, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "search_f1_n1.json").read_bytes()
    with capsys.disabled():
        _passline(10, "report-determinism", time.perf_counter() - t0, 60.0)
