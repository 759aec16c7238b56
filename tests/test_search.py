import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntbounds.search as search_module
from ntbounds.elliptic import ECPoint, negate, scalar_mul, validate_curve
from ntbounds.errors import DomainError
from ntbounds.heights import canonical_height_enclosure
from ntbounds.presets import ambient_gamma
from ntbounds.search import (
    GammaSpec,
    enumerate_rank1,
    search_rational_points,
)

TOL = Fraction(1, 10 ** 10)
O = ECPoint.infinity()

# The constant c of each family's equation x(p1)^n + c = y(p2).
_FAMILY_SHIFT = {"f1": 0, "f2": 1}


def family_membership(p1, p2, family, n):
    """Oracle: the family equation on an affine pair, tested exactly; a pair
    with a point at infinity is not a member."""
    if p1.is_infinity or p2.is_infinity:
        return False
    return p1.x ** n + _FAMILY_SHIFT[family] == p2.y


def test_gamma_spec_validation():
    E = validate_curve(1, -1)
    with pytest.raises(DomainError):
        GammaSpec(E, O)  # infinity generator
    with pytest.raises(Exception):
        GammaSpec(E, ECPoint.affine(2, 2))  # not on curve
    with pytest.raises(DomainError):
        GammaSpec(validate_curve(-1, 0), ECPoint.affine(0, 0))  # 2-torsion generator


def test_enumerate_bound_zero_gives_identity_only():
    gamma = ambient_gamma("f1")
    assert [p for p, _ in enumerate_rank1(gamma, 0, TOL)] == [O]


def test_enumerate_just_above_generator_height():
    gamma = ambient_gamma("f1")
    lo, hi = canonical_height_enclosure(gamma.curve, gamma.generator, TOL)
    pts = [p for p, _ in enumerate_rank1(gamma, (lo + hi) / 2 + Fraction(1, 100), TOL)]
    assert sorted(str(p) for p in pts) == ["(1, -1)", "(1, 1)", "O"]


def test_enumerate_count_matches_lattice_formula():
    gamma = ambient_gamma("f1")
    lo, hi = canonical_height_enclosure(gamma.curve, gamma.generator, TOL)
    ghat = (lo + hi) / 2
    for B in (1, 5, 10, 25):
        pts = list(enumerate_rank1(gamma, B, TOL))
        expect = 2 * math.isqrt(int(Fraction(B) / ghat)) + 1
        assert abs(len(pts) - expect) <= 2


def test_enumerate_monotone_in_bound():
    gamma = ambient_gamma("f2")
    small = {p.key() for p, _ in enumerate_rank1(gamma, 5, TOL)}
    large = {p.key() for p, _ in enumerate_rank1(gamma, 10, TOL)}
    assert small <= large


def test_enumerate_rejects_torsion_like_generator():
    gamma = ambient_gamma("f1")
    with pytest.raises(DomainError):
        list(enumerate_rank1(gamma, 10, Fraction(1)))  # tol >= hhat(g)


def test_membership_examples():
    p11 = ECPoint.affine(1, 1)
    p1m1 = ECPoint.affine(1, -1)
    for n in (1, 2, 3, 7):
        assert family_membership(p11, p11, "f1", n)
        assert family_membership(p1m1, p11, "f1", n)
    g2 = ECPoint.affine(2, 2)
    assert not family_membership(g2, g2, "f2", 1)  # 2 + 1 != 2
    assert not family_membership(O, p11, "f1", 1)
    assert not family_membership(p11, O, "f2", 1)
    with pytest.raises(DomainError):
        search_rational_points("f9", 1, ambient_gamma("f1"), 1, TOL)
    with pytest.raises(DomainError):
        search_rational_points("f1", 0, ambient_gamma("f1"), 1, TOL)


def test_search_f1_finds_exactly_the_expected_points():
    gamma = ambient_gamma("f1")
    for n in range(1, 6):
        rep = search_rational_points("f1", n, gamma, 25, TOL)
        got = sorted((str(f.p1), str(f.p2)) for f in rep.found)
        assert got == [("(1, -1)", "(1, 1)"), ("(1, 1)", "(1, 1)")], n


def test_search_all_found_points_reverify():
    gamma = ambient_gamma("f1")
    rep = search_rational_points("f1", 2, gamma, 25, TOL)
    E = gamma.curve
    for f in rep.found:
        assert E.contains(f.p1) and E.contains(f.p2)
        assert family_membership(f.p1, f.p2, "f1", 2)
        for h in (f.height1, f.height2):
            assert h <= Fraction(25) + 2 * TOL


def test_search_f2_regression_fixture():
    # No externally provided answer for this family; the desk-scale result is
    # frozen as a regression value (empty at B = 25).
    gamma = ambient_gamma("f2")
    rep = search_rational_points("f2", 1, gamma, 25, TOL)
    assert rep.found == ()
    assert rep.candidate_points == 9


def test_search_shard_counts_equal():
    gamma = ambient_gamma("f1")
    rep1 = search_rational_points("f1", 1, gamma, 10, TOL, shards=1)
    rep8 = search_rational_points("f1", 1, gamma, 10, TOL, shards=8)
    assert rep1.found == rep8.found
    assert rep1.candidate_points == rep8.candidate_points
    assert rep1.pairs_scanned == rep8.pairs_scanned
    assert rep1.closure_candidates == rep8.closure_candidates


def test_search_empty_at_bound_zero():
    gamma = ambient_gamma("f2")
    rep = search_rational_points("f2", 1, gamma, 0, TOL)
    assert rep.found == ()
    assert rep.candidate_points == 1  # just the identity
    assert rep.closure_candidates == ("O x O",)


# -- the walk against a per-point reference --------------------------------


def _a_max(gamma, B, tol=TOL, enclosure=canonical_height_enclosure):
    g_lo, _ = enclosure(gamma.curve, gamma.generator, tol)
    m = 0
    while m * m * g_lo < B + tol:
        m += 1
    return m


def _per_a_reference(gamma, B, a_max, tol=TOL, enclosure=canonical_height_enclosure):
    """a -> the kept (point, estimate) pairs, none or one: a*g recomputed by
    scalar_mul and decided by its own certified canonical height."""
    E = gamma.curve
    out = {}
    for a in range(-a_max, a_max + 1):
        P = scalar_mul(E, a, gamma.generator)
        p_lo, p_hi = enclosure(E, P, tol)
        mid = (p_lo + p_hi) / 2
        out[a] = [(P, mid)] if mid <= B + tol else []
    return out


# Gamma = Z*g on two curves beyond the presets whose torsion Gamma leaves
# out: y^2 = x^3 - 2x has the 2-torsion point (0, 0), and y^2 = x^3 + 9 the
# 3-torsion points (0, +-3).

def _two_torsion_gamma():
    return GammaSpec(validate_curve(-2, 0), ECPoint.affine(2, 2))


def _three_torsion_gamma():
    return GammaSpec(validate_curve(0, 9), ECPoint.affine(-2, 1))


def _gamma(name):
    if name == "two_torsion":
        return _two_torsion_gamma()
    if name == "three_torsion":
        return _three_torsion_gamma()
    return ambient_gamma(name)


@pytest.mark.parametrize("name,B", [("f1", 10), ("f2", 25), ("two_torsion", 10),
                                    ("three_torsion", 10)])
def test_incremental_walk_matches_per_a_reference(name, B):
    gamma = _gamma(name)
    a_max = _a_max(gamma, B)
    assert a_max >= 3
    per_a = _per_a_reference(gamma, B, a_max)
    want = [pe for a in range(-a_max, a_max + 1) for pe in per_a[a]]
    assert list(enumerate_rank1(gamma, B, TOL)) == want


@pytest.mark.parametrize("name", ["f1", "f2", "two_torsion"])
def test_kept_set_at_the_quadraticity_band_edges(name):
    # B sits k*tol/2 from a^2 * mid(g), so the points with that a fall on
    # either side of the keep/drop thresholds or inside the band between them
    gamma = _gamma(name)
    in_band = 0
    for tol in (TOL, Fraction(1, 1000)):
        g_lo, g_hi = canonical_height_enclosure(gamma.curve, gamma.generator, tol)
        mid = (g_lo + g_hi) / 2
        for a in (1, 2, 3):
            for k in (-3, -1, 0, 1, 3):
                B = a * a * mid + k * tol / 2
                a_max = _a_max(gamma, B, tol)
                per_a = _per_a_reference(gamma, B, a_max, tol)
                want = [pe for b in range(-a_max, a_max + 1) for pe in per_a[b]]
                assert list(enumerate_rank1(gamma, B, tol)) == want, (tol, a, k)
                rep = search_rational_points("f1", 1, gamma, B, tol)
                assert rep.candidate_points == len(want), (tol, a, k)
                in_band += sum(1 for b in range(-a_max, a_max + 1)
                               if b * b * g_hi > B + tol / 2
                               and b * b * g_lo <= B + 3 * tol / 2)
    assert in_band > 0  # the per-point fallback was exercised


class _OneSidedEnclosure:
    """A valid enclosure oracle pushed to one side: [hi - tol, hi] ("low") or
    [lo, lo + tol] ("high") around the certified [lo, hi], one side for the
    generator's x and another for every other point.  Each still contains
    h-hat and is tol wide, the worst case the keep/drop thresholds allow."""

    def __init__(self, generator, generator_side, point_side):
        self.generator_x = generator.x
        self.sides = (generator_side, point_side)
        self.certified = {}

    def __call__(self, E, P, tol, precision=256):
        key = (P.x, tol, precision)
        if key not in self.certified:
            self.certified[key] = canonical_height_enclosure(E, P, tol, precision)
        lo, hi = self.certified[key]
        if hi == 0:
            return lo, hi  # torsion: exactly zero
        side = self.sides[0] if P.x == self.generator_x else self.sides[1]
        return (hi - tol, hi) if side == "low" else (lo, lo + tol)


@pytest.mark.parametrize("name", ["f1", "two_torsion"])
def test_kept_set_with_one_sided_enclosures(name, monkeypatch):
    gamma = _gamma(name)
    tol = Fraction(1, 1000)
    g_lo, g_hi = canonical_height_enclosure(gamma.curve, gamma.generator, tol)
    for generator_side in ("low", "high"):
        for point_side in ("low", "high"):
            # A Gamma keeps its generator's enclosure, so each oracle gets a
            # fresh one: a shared Gamma would serve the first oracle's answer.
            gamma = _gamma(name)
            oracle = _OneSidedEnclosure(gamma.generator, generator_side, point_side)
            monkeypatch.setattr(search_module, "canonical_height_enclosure", oracle)
            for a in (1, 2):
                for k in range(-8, 9):
                    B = a * a * (g_lo + g_hi) / 2 + k * tol / 4
                    a_max = _a_max(gamma, B, tol, oracle)
                    per_a = _per_a_reference(gamma, B, a_max, tol, oracle)
                    want = [pe for b in range(-a_max, a_max + 1) for pe in per_a[b]]
                    got = list(enumerate_rank1(gamma, B, tol))
                    assert got == want, (generator_side, point_side, a, k)


def _pair_scan_reference(points, family, n):
    """found and closure lists from an N^2 family_membership scan."""
    found, closure = [], []
    for p1, h1 in points:
        for p2, h2 in points:
            if p1.is_infinity or p2.is_infinity:
                closure.append(f"{p1} x {p2}")
            elif family_membership(p1, p2, family, n):
                found.append((p1, p2, h1, h2))
    return sorted(found, key=lambda f: (f[0].key(), f[1].key())), sorted(closure)


@pytest.mark.parametrize("name,B", [("f1", 25), ("f2", 40), ("two_torsion", 12)])
def test_pair_lookup_matches_quadratic_scan(name, B):
    gamma = _gamma(name)
    points = sorted(enumerate_rank1(gamma, B, TOL), key=lambda pe: pe[0].key())
    hits = 0
    for family in ("f1", "f2"):
        for n in (1, 2, 3):
            rep = search_rational_points(family, n, gamma, B, TOL)
            found, closure = _pair_scan_reference(points, family, n)
            assert [(f.p1, f.p2, f.height1, f.height2) for f in rep.found] == found
            assert list(rep.closure_candidates) == closure
            assert rep.pairs_scanned == len(points) ** 2
            hits += len(found)
    assert hits > 0


@settings(max_examples=200, deadline=None)
@given(x=st.fractions(max_denominator=10 ** 30).filter(lambda x: abs(x) < 10 ** 30),
       family=st.sampled_from(["f1", "f2"]), n=st.integers(min_value=1, max_value=7))
def test_family_rhs_is_the_lowest_terms_pair_of_the_equation(x, family, n):
    y = x ** n + _FAMILY_SHIFT[family]
    assert search_module._family_rhs(family, n, x) == (y.numerator, y.denominator)


@settings(max_examples=300, deadline=None)
@given(x=st.fractions(max_denominator=10 ** 6).filter(lambda x: abs(x) < 10 ** 6),
       family=st.sampled_from(["f1", "f2"]), n=st.integers(min_value=1, max_value=40),
       bits=st.integers(min_value=0, max_value=300))
def test_power_skipped_only_when_no_y_of_that_size_can_match(x, family, n, bits):
    if not search_module._may_match(n, x, bits):
        top, bottom = search_module._family_rhs(family, n, x)
        assert max(abs(top), bottom) >= 2 ** bits


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_huge_family_exponent_takes_no_large_power(monkeypatch, name):
    # x^n with |x| > 1 and n = 10^6 has at least 10^6 bits, past every kept
    # y: only x in {-1, 0, 1} is raised, and it matches as at n = 2
    gamma, B = ambient_gamma(name), 150
    rhs = search_module._family_rhs

    def small_powers_only(family, n, x):
        assert n < 10 ** 6 or (abs(x) <= 1 and x.denominator == 1), x
        return rhs(family, n, x)

    monkeypatch.setattr(search_module, "_family_rhs", small_powers_only)
    for family in ("f1", "f2"):
        rep = search_rational_points(family, 10 ** 6, gamma, B, TOL)
        square = search_rational_points(family, 2, gamma, B, TOL)
        assert rep.found == tuple(f for f in square.found if abs(f.p1.x) <= 1)


def test_search_rejects_unknown_family_and_bad_n():
    gamma = ambient_gamma("f1")
    with pytest.raises(DomainError):
        search_rational_points("f9", 1, gamma, 0, TOL)
    with pytest.raises(DomainError):
        search_rational_points("f1", 0, gamma, 0, TOL)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["f1", "f2", "two_torsion"]),
       a=st.integers(min_value=-6, max_value=6))
def test_canonical_height_is_symmetric_under_negation(name, a):
    gamma = _gamma(name)
    E = gamma.curve
    P = scalar_mul(E, a, gamma.generator)
    assert canonical_height_enclosure(E, P, TOL) == \
        canonical_height_enclosure(E, negate(P), TOL)


class _CountingEnclosure:
    def __init__(self):
        self.calls = 0
        self.points = []

    def __call__(self, E, P, *args, **kwargs):
        self.calls += 1
        self.points.append(P)
        return canonical_height_enclosure(E, P, *args, **kwargs)


def test_f1_search_walk_adds_pinned(monkeypatch):
    # B = 25 walks |a| <= 9 on f1: one add per new |a|, 9.  A walk that
    # stepped past a = 9, or rebuilt a*g from scratch, would add more.
    calls = []
    real_add = search_module.add
    monkeypatch.setattr(search_module, "add", lambda *args: calls.append(1) or real_add(*args))
    rep = search_rational_points("f1", 1, ambient_gamma("f1"), 25, TOL)
    assert rep.candidate_points == 19
    assert len(calls) == 9


def test_f1_search_certifies_one_height(monkeypatch):
    counter = _CountingEnclosure()
    monkeypatch.setattr(search_module, "canonical_height_enclosure", counter)
    rep = search_rational_points("f1", 1, ambient_gamma("f1"), 25, TOL)
    assert len(rep.found) == 2
    assert counter.calls == 1


def test_repeated_searches_on_one_gamma_certify_the_generator_once(monkeypatch):
    counter = _CountingEnclosure()
    monkeypatch.setattr(search_module, "canonical_height_enclosure", counter)
    gamma = ambient_gamma("f1")
    for family, n, B in (("f1", 1, 25), ("f2", 2, 25), ("f1", 3, 10), ("f1", 1, 25)):
        search_rational_points(family, n, gamma, B, TOL)
    assert counter.calls == 1
    # the enumeration certifies every point it yields, but reads the
    # generator's enclosure from the same slot
    list(enumerate_rank1(gamma, 25, TOL))
    assert counter.calls > 1
    assert counter.points.count(gamma.generator) == 1


@pytest.mark.parametrize("tol,precision", [(Fraction(1, 1000), 256), (TOL, 320)])
def test_new_tol_or_precision_certifies_again(monkeypatch, tol, precision):
    counter = _CountingEnclosure()
    monkeypatch.setattr(search_module, "canonical_height_enclosure", counter)
    gamma = ambient_gamma("f1")
    first = search_rational_points("f1", 1, gamma, 25, TOL)
    again = search_rational_points("f1", 1, gamma, 25, tol, precision=precision)
    assert counter.calls == 2
    assert again == search_rational_points("f1", 1, ambient_gamma("f1"), 25, tol,
                                           precision=precision)
    assert len(again.found) == len(first.found) == 2
    # the slot now holds the new key, so going back certifies once more
    assert search_rational_points("f1", 1, gamma, 25, TOL) == first
    assert counter.calls == 4


def test_filled_slot_leaves_equality_hash_and_repr_alone():
    gamma, fresh = ambient_gamma("f2"), ambient_gamma("f2")
    search_rational_points("f2", 1, gamma, 10, TOL)
    assert gamma._enclosure is not None and fresh._enclosure is None
    assert gamma._walk is not None and fresh._walk is None
    assert gamma == fresh
    assert hash(gamma) == hash(fresh)
    assert repr(gamma) == repr(fresh)


@pytest.mark.parametrize("name,B", [("f1", 25), ("f2", 40), ("two_torsion", 12),
                                    ("three_torsion", 12)])
def test_search_point_set_matches_per_a_reference(name, B):
    # every candidate P shows up in the closure list as "O x P"
    gamma = _gamma(name)
    a_max = _a_max(gamma, B)
    want = sorted(str(P) for kept in _per_a_reference(gamma, B, a_max).values()
                  for P, _ in kept)
    rep = search_rational_points("f1", 1, gamma, B, TOL)
    got = sorted(c.removeprefix("O x ") for c in rep.closure_candidates
                 if c.startswith("O x "))
    assert got == want
    assert rep.candidate_points == len(want)


# -- the walk kept on a Gamma ----------------------------------------------


_WALK_BOUNDS = {"f1": (0, 3, 10, 25), "f2": (0, 10, 25, 40),
                "two_torsion": (0, 4, 12), "three_torsion": (0, 4, 12)}


@pytest.mark.parametrize("name", sorted(_WALK_BOUNDS))
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_kept_walk_matches_fresh_gammas_in_any_request_order(name, order):
    bounds = sorted(_WALK_BOUNDS[name])
    if order == "descending":
        bounds.reverse()
    elif order == "shuffled":
        random.Random(f"{name} walk").shuffle(bounds)
        bounds += bounds[:2]  # a bound seen before, after others
    gamma = _gamma(name)
    for B in bounds:
        for family, n in (("f1", 1), ("f2", 2)):
            rep = search_rational_points(family, n, gamma, B, TOL)
            assert rep == search_rational_points(family, n, _gamma(name), B, TOL), (B, family)
        a_max = _a_max(gamma, B)
        per_a = _per_a_reference(gamma, B, a_max)
        want = [pe for a in range(-a_max, a_max + 1) for pe in per_a[a]]
        assert list(enumerate_rank1(gamma, B, TOL)) == want, B


def _count_adds_and_enclosures(monkeypatch):
    adds = []
    real_add = search_module.add
    monkeypatch.setattr(search_module, "add", lambda *args: adds.append(1) or real_add(*args))
    counter = _CountingEnclosure()
    monkeypatch.setattr(search_module, "canonical_height_enclosure", counter)
    return adds, counter


def test_search_at_equal_or_smaller_bound_walks_and_certifies_nothing(monkeypatch):
    gamma = ambient_gamma("f1")
    adds, counter = _count_adds_and_enclosures(monkeypatch)
    first = search_rational_points("f1", 1, gamma, 25, TOL)
    assert (len(adds), counter.calls) == (9, 1)
    slot = gamma._walk
    adds.clear()
    counter.calls = 0
    for family, n, B in (("f1", 1, 25), ("f2", 3, 25), ("f1", 2, 10), ("f1", 1, 0)):
        search_rational_points(family, n, gamma, B, TOL)
    assert (len(adds), counter.calls) == (0, 0)
    assert search_rational_points("f1", 1, gamma, 25, TOL) == first
    assert gamma._walk is slot  # read, not extended again


def _reach(gamma):
    """The largest |a| that gamma's kept walk covers."""
    return (len(gamma._walk) - 1) // 2


def test_raising_the_bound_walks_only_the_new_rows(monkeypatch):
    gamma = ambient_gamma("f1")
    search_rational_points("f1", 1, gamma, 25, TOL)
    assert _reach(gamma) == 9
    adds, _ = _count_adds_and_enclosures(monkeypatch)
    rep = search_rational_points("f1", 1, gamma, 56, TOL)
    assert _reach(gamma) == 14  # a = 10..14 are new
    assert len(adds) == 5  # one add per new |a|
    assert rep.candidate_points == len(gamma._walk) == 29


def test_walk_keeps_its_longest_reach():
    gamma = ambient_gamma("f1")
    search_rational_points("f1", 1, gamma, 150, TOL)
    reached = gamma._walk
    assert _reach(gamma) == 24  # last = 24 at B = 150
    rep = search_rational_points("f1", 1, gamma, 25, TOL)
    assert gamma._walk is reached
    assert rep == search_rational_points("f1", 1, ambient_gamma("f1"), 25, TOL)


class _Unread:
    """A walk entry that no request may read."""

    def __getitem__(self, index):
        raise AssertionError("read a walked point past the request's cutoff")


@pytest.mark.parametrize("name", ["f1", "three_torsion"])
def test_request_reads_only_its_own_prefix_of_the_walk(name):
    gamma = _gamma(name)
    search_rational_points("f1", 1, gamma, 150, TOL)
    walk = gamma._walk
    B = 12
    prefix = 2 * _a_max(gamma, B) + 1
    assert prefix < len(walk)
    object.__setattr__(gamma, "_walk", walk[:prefix] + (_Unread(),) * (len(walk) - prefix))
    rep = search_rational_points("f2", 2, gamma, B, TOL)
    assert rep == search_rational_points("f2", 2, _gamma(name), B, TOL)


def test_walk_slot_is_ordered_and_complete():
    gamma = ambient_gamma("f1")
    search_rational_points("f1", 1, gamma, 25, TOL)
    walk = gamma._walk
    E, g = gamma.curve, gamma.generator
    m = _reach(gamma)
    assert len(walk) == 2 * m + 1
    assert [w[1] for w in walk] == [0] + [s * a for a in range(1, m + 1) for s in (1, -1)]
    for P, a, text in walk:
        assert text == str(P)
        assert P == scalar_mul(E, a, g)


def test_only_the_found_pairs_are_put_in_key_order(monkeypatch):
    # The walk is kept in walk order, never sorted: on a warm Gamma, raising
    # the bound sorts only the found pairs, two key() calls per pair.
    gamma = ambient_gamma("f1")
    search_rational_points("f1", 1, gamma, 25, TOL)
    calls = []
    real_key = ECPoint.key
    monkeypatch.setattr(ECPoint, "key", lambda self: calls.append(1) or real_key(self))
    rep = search_rational_points("f1", 1, gamma, 400, TOL)
    assert len(rep.found) == 2
    assert len(calls) <= 2 * len(rep.found)
    assert rep.found == tuple(sorted(rep.found, key=lambda f: (real_key(f.p1), real_key(f.p2))))
