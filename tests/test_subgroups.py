import cmath
import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntbounds import rings, subgroups
from ntbounds.bruteforce import match_against, oracle_enumerate
from ntbounds.rings import RING_EISENSTEIN, RING_GAUSS, RING_Z, EndRing, ring_by_name
from ntbounds.errors import DomainError, ResourceGuardError
from ntbounds.subgroups import (
    SubgroupMatrix,
    _binary_aut_order,
    _candidate_rows,
    _full_rank_subsets,
    _norm_counts,
    _row_count,
    census,
    degree_estimate,
    enumerate_matrices,
    hermite_normal_form,
    row_bound_for_degree,
    torsion_count,
)

Z, G, W = RING_Z, RING_GAUSS, RING_EISENSTEIN


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _matrix(ring, rows):
    """Rows of ints (Z) or (a, b) pairs."""
    return SubgroupMatrix(ring, tuple(
        tuple((e, 0) if isinstance(e, int) else e for e in row) for row in rows))


# -- ring sanity -------------------------------------------------------------


def test_ring_lookup():
    assert ring_by_name("Z") is Z and ring_by_name("zi") is G and ring_by_name("zw") is W
    with pytest.raises(DomainError):
        ring_by_name("zz")


@given(a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(-9, 9),
       d=st.integers(-9, 9))
@settings(max_examples=60)
def test_norm_multiplicative(a, b, c, d):
    for ring in (Z, G, W):
        x = (a, 0) if ring is Z else (a, b)
        y = (c, 0) if ring is Z else (c, d)
        assert ring.norm(ring.mul(x, y)) == ring.norm(x) * ring.norm(y)


@given(a=st.integers(-30, 30), b=st.integers(-30, 30), c=st.integers(-6, 6),
       d=st.integers(-6, 6))
@settings(max_examples=60)
def test_euclidean_division(a, b, c, d):
    for ring in (Z, G, W):
        x = (a, 0) if ring is Z else (a, b)
        y = (c, 0) if ring is Z else (c, d)
        if ring.is_zero(y):
            continue
        q, r = ring.divmod_rounded(x, y)
        assert _add(ring.mul(q, y), r) == x
        assert ring.norm(r) < ring.norm(y)


def test_units_and_canonical_associates():
    for ring in (Z, G, W):
        units = ring.units
        assert all(ring.norm(u) == 1 for u in units)
        x = (3, 2) if ring is not Z else (3, 0)
        canon, u = ring.canon_assoc(x)
        assert canon == ring.mul(u, x)
        cs = {ring.canon_assoc(ring.mul(v, x))[0] for v in units}
        assert len(cs) == 1  # one canonical representative per orbit


def _element(ring, a, b):
    return (a, 0) if ring is Z else (a, b)


def _divmod_by_fractions(ring, x, y):
    """The rounded division as first written: round x*conj(y)/norm(y) through
    reduced Fractions."""
    def round_half_up(q):
        return (2 * q.numerator + q.denominator) // (2 * q.denominator)

    n = ring.norm(y)
    num = ring.mul(x, ring.conj(y))
    q = (round_half_up(Fraction(num[0], n)), round_half_up(Fraction(num[1], n)))
    return q, ring.sub(x, ring.mul(q, y))


def _canon_row_by_search(ring, row):
    """The canonical row as first written: the largest of all unit multiples."""
    if all(ring.is_zero(e) for e in row):
        return row
    return max(tuple(ring.mul(u, e) for e in row) for u in ring.units)


_rings = st.sampled_from([Z, G, W])


@given(ring=_rings, a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6),
       c=st.integers(-40, 40), d=st.integers(-40, 40))
@settings(max_examples=300)
def test_divmod_rounded_matches_fraction_rounding(ring, a, b, c, d):
    x, y = _element(ring, a, b), _element(ring, c, d)
    if ring.is_zero(y):
        with pytest.raises(ZeroDivisionError):
            ring.divmod_rounded(x, y)
        return
    assert ring.divmod_rounded(x, y) == _divmod_by_fractions(ring, x, y)


@given(ring=_rings, zeros=st.integers(0, 3),
       tail=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                     min_size=0, max_size=4))
@settings(max_examples=300)
def test_canon_row_matches_unit_search(ring, zeros, tail):
    row = tuple([(0, 0)] * zeros + [_element(ring, a, b) for a, b in tail])
    if not row:
        return
    assert ring.canon_row(row) == _canon_row_by_search(ring, row)


_rows = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                min_size=0, max_size=4)


@given(ring=_rings, u=_rows, v=_rows)
@settings(max_examples=200)
def test_dot_conj_matches_ring_products(ring, u, v):
    u = [_element(ring, a, b) for a, b in u]
    v = [_element(ring, a, b) for a, b in v]
    want = (0, 0)
    for x, y in zip(u, v):
        want = _add(want, ring.mul(x, ring.conj(y)))
    assert ring.dot_conj(u, v) == want
    assert ring.dot_conj(u, u) == (ring.row_norm(u), 0)


# w as a complex number: i for Z[i] (and Z, whose elements have b = 0) and
# e^(2 pi i/3) for Z[omega]; a model of the rings that shares no code with them
_W_COMPLEX = {"z": 1j, "zi": 1j, "zw": cmath.exp(2j * cmath.pi / 3)}


def _complex(ring, x):
    return x[0] + x[1] * _W_COMPLEX[ring.kind]


def _close(ring, x, z):
    return abs(_complex(ring, x) - z) < 1e-6


@given(ring=_rings, u=_rows, v=_rows)
@settings(max_examples=200)
def test_ring_laws_match_complex_numbers(ring, u, v):
    u = [_element(ring, a, b) for a, b in u]
    v = [_element(ring, a, b) for a, b in v]
    for x, y in zip(u, v):
        zx, zy = _complex(ring, x), _complex(ring, y)
        assert _close(ring, ring.mul(x, y), zx * zy)
        assert _close(ring, ring.conj(x), zx.conjugate())
        assert abs(ring.norm(x) - abs(zx) ** 2) < 1e-6
    want = sum((_complex(ring, x) * _complex(ring, y).conjugate() for x, y in zip(u, v)), 0j)
    assert _close(ring, ring.dot_conj(u, v), want)


@pytest.mark.parametrize("ring", [G, W], ids=["zi", "zw"])
def test_elements_of_norm_at_most_lists_the_wide_box_in_its_order(ring):
    # the candidate rows and the oracle read this order; norm >= 3/4 max(|a|, |b|)^2
    # on both rings, so the box |a|, |b| <= isqrt(4 bound / 3) + 1 holds every
    # element of norm <= bound
    for bound in [*range(-3, 400), 1000, 4321, 10 ** 4]:
        s = isqrt(4 * max(bound, 0) // 3) + 1
        want = [(a, b) for a in range(-s, s + 1) for b in range(-s, s + 1)
                if ring.norm((a, b)) <= bound]
        assert ring.elements_of_norm_at_most(bound) == want, bound


# -- degree --------------------------------------------------------------


def test_degree_examples():
    assert degree_estimate(_matrix(Z, [(1, 0)])) == 1
    assert degree_estimate(_matrix(Z, [(2, 1)])) == 5
    assert degree_estimate(SubgroupMatrix(G, (((1, 1), (1, 0)),))) == 3


def test_degree_rejects_rank_deficient():
    with pytest.raises(DomainError):
        degree_estimate(_matrix(Z, [(1, 2), (2, 4)]))


def _random_unimodular_image(rng, ring, M):
    rows = [list(r) for r in M.entries]
    r = len(rows)
    for _ in range(6):
        if r > 1:
            i, j = rng.sample(range(r), 2)
            c = (rng.randint(-3, 3), 0)
            rows[i] = [_add(x, ring.mul(c, y)) for x, y in zip(rows[i], rows[j])]
        u = rng.choice(ring.units)
        k = rng.randrange(r)
        rows[k] = [ring.mul(u, x) for x in rows[k]]
    return SubgroupMatrix(ring, tuple(tuple(row) for row in rows))


def test_degree_invariance_and_hnf_canonicality():
    rng = random.Random(11)
    samples = [
        _matrix(Z, [(2, 1, 0), (0, 3, 1)]),
        _matrix(Z, [(1, 1), (0, 2)]),
        SubgroupMatrix(G, (((1, 1), (0, 1), (2, 0)), ((0, 0), (3, 1), (1, -1)))),
        SubgroupMatrix(W, (((2, 1), (1, 0)),)),
    ]
    for M in samples:
        d0 = degree_estimate(M)
        h0 = hermite_normal_form(M).entries
        for _ in range(40):
            M2 = _random_unimodular_image(rng, M.ring, M)
            assert degree_estimate(M2) == d0
            assert hermite_normal_form(M2).entries == h0


def test_degree_invariant_under_column_permutation():
    rng = random.Random(3)
    M = _matrix(Z, [(2, 1, 5), (0, 3, 1)])
    d0 = degree_estimate(M)
    for perm in itertools.permutations(range(3)):
        rows = tuple(tuple(row[p] for p in perm) for row in M.entries)
        assert degree_estimate(SubgroupMatrix(Z, rows)) == d0


def _leibniz_det(ring, rows, cols):
    """Determinant of the square submatrix on `cols` as a permutation sum."""
    total = (0, 0)
    for perm in itertools.permutations(range(len(cols))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = ring.one
        for i, p in enumerate(perm):
            term = ring.mul(term, rows[i][cols[p]])
        total = ring.sub(total, term) if inversions % 2 else _add(total, term)
    return total


def _cauchy_binet_degree(ring, rows):
    """Sum of the norms of all r x r minors."""
    return sum(ring.norm(_leibniz_det(ring, rows, cols))
               for cols in itertools.combinations(range(len(rows[0])), len(rows)))


@st.composite
def _matrices(draw):
    ring = draw(_rings)
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))  # r = 4 reaches the off-diagonal divisions
    entry = st.builds(lambda a, b: _element(ring, a, b),
                      st.integers(-3, 3), st.integers(-3, 3))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(r)]
    if draw(st.booleans()):
        # make the last row depend on the others (the zero row when r = 1)
        coeffs = [draw(entry) for _ in range(r - 1)]
        last = [(0, 0)] * n
        for c, row in zip(coeffs, rows):
            last = [_add(x, ring.mul(c, y)) for x, y in zip(last, row)]
        rows[-1] = last
    return SubgroupMatrix(ring, tuple(tuple(row) for row in rows))


@given(M=_matrices())
@settings(max_examples=300, deadline=None)
def test_degree_matches_cauchy_binet(M):
    want = _cauchy_binet_degree(M.ring, M.entries)
    if want == 0:
        with pytest.raises(DomainError):
            degree_estimate(M)
    else:
        assert degree_estimate(M) == want


# -- enumeration vs oracle ---------------------------------------------------


def test_enumerate_small_example():
    ms = enumerate_matrices(Z, 1, 1, 4)
    assert [m.entries for m in ms] == [(((1, 0),),), (((2, 0),),)]
    assert enumerate_matrices(Z, 2, 1, 0) == []


def _oracle_equivalence(ring, n, r, dmax):
    prod = enumerate_matrices(ring, n, r, dmax)
    raw = oracle_enumerate(ring, n, r, dmax)
    stats = match_against(ring, raw, prod)
    assert not stats["unmatched"], f"production missed {len(stats['unmatched'])} classes"
    assert not stats["ambiguous"], "duplicate production classes"
    assert all(h >= 1 for h in stats["matched"]), "production emitted a spurious class"
    return len(prod)


@pytest.mark.parametrize("n,r,dmax", [(1, 1, 30), (2, 1, 30), (2, 2, 30), (3, 2, 20)])
def test_enumerate_matches_oracle_z(n, r, dmax):
    _oracle_equivalence(Z, n, r, dmax)


def test_enumerate_matches_oracle_gaussian():
    _oracle_equivalence(G, 2, 1, 12)


def _unpruned_classes(ring, n, r, dmax):
    """Reference: every full-rank r-subset of the candidate rows, in
    lexicographic order and with no box cuts, deduplicated by Hermite form."""
    rows = sorted(_candidate_rows(ring, n, row_bound_for_degree(ring, r, dmax)))
    found = {}
    for d, subset in _full_rank_subsets(ring, rows, r, dmax):
        m = hermite_normal_form(SubgroupMatrix(ring, subset))
        found.setdefault(m.entries, d)
    return sorted((d, entries) for entries, d in found.items())


# N = 3, Dmax = 3 holds the hexagonal lattice spanned by (1, -1, 0) and
# (0, 1, -1): its reduced basis has prod ||b_i||^2 = 4 = (4/3) * 3, exactly
# on the edge of the r = 2 box.
@pytest.mark.parametrize("n,r,dmax", [
    (2, 2, 7), (2, 2, 25), (2, 2, 50), (3, 2, 3), (3, 2, 10), (3, 2, 20),
    (4, 2, 2), (4, 2, 5), (3, 3, 1), (3, 3, 2)])
def test_pruned_walk_matches_unpruned_walk(n, r, dmax):
    got = [(degree_estimate(m), m.entries) for m in enumerate_matrices(Z, n, r, dmax)]
    assert got == _unpruned_classes(Z, n, r, dmax)


def _sublattice_count(k, index):
    """Closed form: sublattices of Z^k of the given index, one per Hermite
    form with diagonal d_1 ... d_k = index and d_i^(i-1) residue choices."""
    if k == 1:
        return 1
    return sum(_sublattice_count(k - 1, index // d) * d ** (k - 1)
               for d in range(1, index + 1) if index % d == 0)


# N = 4 and 5 are far past the walk (about 211 s at N = 4, Dmax = 9)
@pytest.mark.parametrize("n,max_index,counts", [
    (2, 6, [1, 3, 4, 7, 6, 12]), (3, 4, [1, 7, 13, 35]), (4, 3, [1, 15, 40]),
    (5, 2, [1, 31])])
def test_full_rank_counts_match_sublattice_counts(n, max_index, counts):
    # at r = N the Gram determinant is the squared index of the sublattice
    assert [_sublattice_count(n, i) for i in range(1, max_index + 1)] == counts
    rep = census(Z, n, n, max_index ** 2, 1, ceiling=10 ** 80)
    assert rep.degree_buckets == tuple((i * i, c) for i, c in enumerate(counts, 1))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_index_series_from_zero_counts_sublattices(r):
    assert subgroups._index_series(0, r, 12) == [0] + [
        _sublattice_count(r, k) for k in range(1, 13)]


@pytest.mark.parametrize("s,r", [(s, r) for r in range(1, 7) for s in range(r)])
def test_index_series_factors_as_a_dirichlet_product(s, r):
    # zeta(y) ... zeta(y - s + 1) times zeta(y - s) ... zeta(y - r + 1)
    top = 40
    low, high = subgroups._index_series(0, s, top), subgroups._index_series(s, r, top)
    product = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(1, top // d + 1):
            product[d * m] += low[d] * high[m]
    assert product == subgroups._index_series(0, r, top)


def test_walked_census_enumerates_once(monkeypatch):
    calls = []
    enumerate_all = subgroups.enumerate_matrices

    def counted(*args):
        calls.append(args)
        return enumerate_all(*args)

    monkeypatch.setattr(subgroups, "enumerate_matrices", counted)
    rep = census(Z, 6, 3, 1, 1, ceiling=10 ** 12)
    assert len(calls) == 1
    assert rep.degree_buckets == ((1, comb(6, 3)),)


def test_rank_one_candidate_rows_are_hermite_forms():
    for ring in (Z, G, W):
        for n in (1, 2, 3):
            rows = _candidate_rows(ring, n, 6)
            assert rows
            for row in rows:
                assert hermite_normal_form(SubgroupMatrix(ring, (row,))).entries == (row,)


def test_enumerate_deterministic_order():
    a = enumerate_matrices(Z, 2, 2, 30)
    b = enumerate_matrices(Z, 2, 2, 30)
    assert [m.entries for m in a] == [m.entries for m in b]
    degrees = [degree_estimate(m) for m in a]
    assert degrees == sorted(degrees)


def test_resource_guard_refuses():
    with pytest.raises(ResourceGuardError):
        enumerate_matrices(Z, 3, 2, 50, ceiling=10)


@pytest.mark.parametrize("ring, n, bound", [
    (Z, 1, 1), (Z, 2, 7), (Z, 3, 24), (Z, 4, 30), (Z, 5, 12), (Z, 3, 0),
    (G, 1, 10), (G, 2, 13), (G, 3, 9), (W, 1, 7), (W, 2, 12), (W, 3, 7),
])
def test_row_count_matches_candidate_rows(ring, n, bound):
    assert _row_count(ring, _norm_counts(ring, n, bound)[n]) == len(
        _candidate_rows(ring, n, bound))


def test_resource_guard_refuses_before_building_rows(monkeypatch):
    from ntbounds import subgroups

    def unbuilt(*args):
        raise AssertionError("candidate rows built before the guard")

    monkeypatch.setattr(subgroups, "_candidate_rows", unbuilt)
    # the norm table up to the row bound 67 takes more than 10 steps, so the
    # rows k e_i (k <= 8) give the lower bound comb(24, 2)
    with pytest.raises(ResourceGuardError, match="would scan at least 276 row combinations"):
        enumerate_matrices(Z, 3, 2, 50, ceiling=10)
    # under a ceiling the table fits in, the guard counts every candidate row
    with pytest.raises(ResourceGuardError, match="would scan 674541 row combinations"):
        enumerate_matrices(Z, 3, 2, 50, ceiling=100_000)
    # Z, N = 5, r = 4, Dmax = 4 used to build 2.78 million rows before refusing
    with pytest.raises(ResourceGuardError):
        enumerate_matrices(Z, 5, 4, 4)
    # N = 16, r = 8, Dmax = 1: a norm table up to the row bound 2^28 would not
    # fit in memory; the lower bound refuses before it is built
    monkeypatch.setattr(subgroups, "_norm_counts", unbuilt)
    with pytest.raises(ResourceGuardError, match="would scan at least "):
        enumerate_matrices(Z, 16, 8, 1)


def test_cm_rings_rank_two_unsupported():
    with pytest.raises(DomainError):
        enumerate_matrices(G, 2, 2, 10)


def test_oracle_refuses_unsupported_shapes():
    # no CM rank-2 oracle exists: the Z-only rank-2 membership solve must not
    # be applied to Gaussian entries
    reference = [_matrix(G, [[(1, 1), (0, 0)], [(0, 0), (1, 0)]])]
    with pytest.raises(DomainError):
        match_against(G, [], reference)
    with pytest.raises(DomainError):
        oracle_enumerate(G, 2, 2, 4)
    with pytest.raises(DomainError):
        oracle_enumerate(Z, 3, 3, 1)


# -- torsion and census -----------------------------------------------------


def test_torsion_count_examples():
    assert torsion_count(1, 1) == 1
    assert torsion_count(1, 2) == 5
    assert torsion_count(2, 2) == 17


def test_torsion_count_oracle_and_bound():
    for n in range(1, 13):
        for t in (1, 2, 3, 7, 10, 64, 97, 100, 200, 1000):
            direct = 0
            for i in range(1, t + 1):
                direct += i ** (2 * n)
            assert torsion_count(n, t) == direct
            assert torsion_count(n, t) <= t ** (2 * n + 1)


def test_torsion_coefficient_cache_is_capped_and_evicts():
    from ntbounds.subgroups import _faulhaber
    cap = _faulhaber.cache_info().maxsize
    assert cap == 16
    _faulhaber.cache_clear()
    try:
        for n in range(1, cap + 2):
            torsion_count(n, 3)
        assert _faulhaber.cache_info().currsize == cap
        misses = _faulhaber.cache_info().misses
        torsion_count(cap + 1, 5)  # the newest power is kept
        assert _faulhaber.cache_info().misses == misses
        torsion_count(1, 5)  # the oldest was evicted
        assert _faulhaber.cache_info().misses == misses + 1
    finally:
        _faulhaber.cache_clear()


def test_torsion_count_builds_bernoulli_numbers_once_per_power(monkeypatch):
    from ntbounds import subgroups
    built = []
    real = subgroups._even_bernoulli

    def counted(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(subgroups, "_even_bernoulli", counted)
    subgroups._faulhaber.cache_clear()
    for t in (1, 2, 97, 10 ** 9):
        for n in (6, 7):
            torsion_count(n, t)
    assert built == [6, 7]


def test_torsion_count_work_does_not_grow_with_t():
    # closed forms of sum i^2 and sum i^4, at a T no loop over T reaches
    t = 10 ** 12
    assert torsion_count(1, t) == t * (t + 1) * (2 * t + 1) // 6
    assert torsion_count(2, t) == t * (t + 1) * (2 * t + 1) * (3 * t * t + 3 * t - 1) // 30


def test_census_with_more_coordinates_than_the_recursion_limit():
    # N coordinates under a recursion limit far below N: the candidate rows
    # must not take one Python frame per coordinate
    n = 400
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        rows = _candidate_rows(Z, n, 1)
        rep = census(Z, n, 1, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    units = sorted(tuple((int(i == j), 0) for j in range(n)) for i in range(n))
    assert rows == units
    assert rep.total_matrices == n and rep.degree_buckets == ((1, n),)


@pytest.mark.parametrize("n,t", [(3, 0), (0, 20)])
def test_census_refuses_bad_torsion_input_before_the_walk(monkeypatch, n, t):
    def no_walk(*args, **kwargs):
        raise AssertionError("census walked or counted before refusing its torsion input")
    for name in ("enumerate_matrices", "_norm_counts", "_rank_two_forms"):
        monkeypatch.setattr(f"ntbounds.subgroups.{name}", no_walk)
    with pytest.raises(DomainError):
        census(Z, n, 2, 20, t)


def test_census_unit_degree_only():
    # degree 1 at r = 1 means a unit row: one class per coordinate axis
    rep = census(Z, 2, 1, 1, 3)
    assert rep.degree_buckets == ((1, 2),)
    assert all(Z.norm(e) <= 1 for m in enumerate_matrices(Z, 2, 1, 1)
               for row in m.entries for e in row)
    # at full rank r = N only the identity block remains
    rep_full = census(Z, 2, 2, 1, 3)
    assert rep_full.total_matrices == 1
    only = enumerate_matrices(Z, 2, 2, 1)[0]
    assert only.entries == (((1, 0), (0, 0)), ((0, 0), (1, 0)))


# every rank at N <= 5 (the walk takes about 40 s at N = 5, r = 4), the
# walk's own shape N = 6, r = 3, and N = 8, r = 6, counted at rank 2
@pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4) for r in range(1, min(n, 3) + 1)]
                         + [(4, 4), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (6, 3), (8, 6)])
def test_census_degree_one_classes_are_coordinate_subspaces(n, r):
    # Gram determinant 1 leaves one minor of norm 1: the span is a coordinate
    # subspace, and the module is all of it
    rep = census(Z, n, r, 1, 2, ceiling=10 ** 80)
    assert rep.degree_buckets == ((1, comb(n, r)),)


@pytest.mark.parametrize("ring,dmax", [(Z, 200), (W, 25)])
def test_rank_one_census_makes_no_hermite_forms(monkeypatch, ring, dmax):
    calls = []

    def counted(M):
        calls.append(M)
        return hermite_normal_form(M)

    monkeypatch.setattr("ntbounds.subgroups.hermite_normal_form", counted)
    assert enumerate_matrices(ring, 2, 1, dmax)
    assert calls == []
    enumerate_matrices(Z, 2, 2, 5)
    assert calls  # the counter sees the Hermite forms of rank 2


@pytest.mark.parametrize("n,r,dmax,forms,products", [
    (3, 3, 1, 1, 453), (2, 2, 100, 105, 1004)])
def test_census_work_pinned(monkeypatch, n, r, dmax, forms, products):
    # exact work of the reference census, the pruned walk plus one degree per
    # class (r(r - 1)/2 inner products each): a lost cut fails here however
    # noisy the machine (the break changes only the inner products, not the
    # forms)
    form_calls, product_calls = [], []
    dot_conj = EndRing.dot_conj

    def counted(M):
        form_calls.append(M)
        return hermite_normal_form(M)

    def counted_dot_conj(ring, u, v):
        product_calls.append(u)
        return dot_conj(ring, u, v)

    monkeypatch.setattr("ntbounds.subgroups.hermite_normal_form", counted)
    monkeypatch.setattr(EndRing, "dot_conj", counted_dot_conj)
    for m in enumerate_matrices(Z, n, r, dmax):
        degree_estimate(m)
    assert (len(form_calls), len(product_calls)) == (forms, products)


# the deck's shapes, the Z shapes with r >= 3 that a guard pricing the walk
# admitted at the default ceiling, the four it refused at the least Dmax, and
# shapes counted at rank N - r = 2 and 1 that it hung or ran out of memory on
@pytest.mark.parametrize("ring,n,r,dmax", [
    (Z, 2, 1, 200), (Z, 3, 1, 100), (Z, 2, 2, 100), (Z, 4, 2, 5), (W, 2, 1, 25),
    (Z, 3, 3, 1), (Z, 3, 3, 2), (Z, 3, 3, 3), (Z, 4, 3, 1),
    (Z, 3, 3, 4), (Z, 4, 3, 2), (Z, 4, 4, 1), (Z, 5, 3, 1),
    (Z, 8, 6, 1), (Z, 9, 7, 2), (Z, 7, 6, 30), (Z, 10, 8, 20)])
def test_census_counts_rank_at_most_two_without_walking(monkeypatch, ring, n, r, dmax):
    calls, bounds = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(subgroups, name, wrapper)

    for name in ("hermite_normal_form", "degree_estimate", "_candidate_rows",
                 "_full_rank_subsets", "enumerate_matrices", "row_bound_for_degree",
                 "_row_count"):
        counted(name, getattr(subgroups, name))
    norm_counts = subgroups._norm_counts

    def bounded(ring, n, bound):
        bounds.append(bound)
        return norm_counts(ring, n, bound)

    monkeypatch.setattr(subgroups, "_norm_counts", bounded)
    assert census(ring, n, r, dmax, 1).total_matrices > 0
    assert calls == []
    # the norm counts go up to Dmax, and full rank needs none
    assert bounds == ([] if r == n else [dmax])


# The loops the counting price bounds: the rows of a per CM one-coordinate
# list, both loops of `_norm_counts`, the stack, last entry and c-loop of
# `_rank_two_forms`, and the loops of the complement.
_PRICED_LOOPS = {
    rings.EndRing.elements_of_norm_at_most: ["for r in (isqrt(4 * bound - k * a * a),)"],
    subgroups._norm_counts: ["if count:", "if s + ne > bound:"],
    subgroups._rank_two_forms: [
        "i, b, s = stack.pop()", "if s + z * z <= c_top:",
        "for c in range(max(a, s), (dmax + b * b) // a + 1):"],
    subgroups._index_series: ["b[d * m] += w * a[m]"],
    subgroups._complement_buckets: [
        "buckets[d * k * k] = buckets.get(d * k * k, 0) + c[k] * count"],
}


def _loop_steps(monkeypatch, ring, n, r, dmax):
    """Line events on the priced loops while `census` counts, by function;
    the one-coordinate lists count their elements too."""
    lines = {}
    for fn, texts in _PRICED_LOOPS.items():
        source, first = inspect.getsourcelines(fn)
        found = {first + i for i, line in enumerate(source) if line.strip() in texts}
        assert len(found) == len(texts), fn.__name__
        lines.update({(fn.__code__.co_filename, line): fn.__name__ for line in found})
    steps = {fn.__name__: 0 for fn in _PRICED_LOOPS}

    def tracer(frame, event, arg):
        name = lines.get((frame.f_code.co_filename, frame.f_lineno))
        if event == "line" and name:
            steps[name] += 1
        return tracer

    box = EndRing.elements_of_norm_at_most

    def boxed(self, bound):
        out = box(self, bound)
        steps["elements_of_norm_at_most"] += len(out)
        return out

    monkeypatch.setattr(EndRing, "elements_of_norm_at_most", boxed)
    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        census(ring, n, r, dmax, 1, ceiling=10 ** 30)
    finally:
        sys.settrace(saved)
    return steps


@pytest.mark.parametrize("ring,n,r,dmax", [
    (Z, n, r, dmax) for n in range(4, 11) for r in sorted({2, n - 2})
    for dmax in (1, 2, 5, 12, 30)] + [
    (ring, n, 1, dmax) for ring in (G, W) for n in (1, 2, 3, 4) for dmax in (1, 3, 10, 30)] + [
    (Z, n, r, dmax) for n, r in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3))
    for dmax in (1, 6, 40)])
def test_counting_price_bounds_the_loop_steps(monkeypatch, ring, n, r, dmax):
    # each part of the price bounds its own loops: the norm counts, then the
    # rank-two forms (the price at r = s = 2 less the norm counts), then the
    # complement (the price at r less the price at s)
    price = subgroups._counting_price
    s = min(r, n - r) if ring.kind == "z" else r
    steps = _loop_steps(monkeypatch, ring, n, r, dmax)
    norms = subgroups._norm_count_steps(ring, n, dmax) if s else 0
    assert steps["elements_of_norm_at_most"] + steps["_norm_counts"] <= norms
    counted = price(ring, n, s, s, dmax, 10 ** 30) if s else 0
    assert steps["_rank_two_forms"] <= counted - norms
    assert steps["_index_series"] + steps["_complement_buckets"] <= (
        price(ring, n, r, s, dmax, 10 ** 30) - counted)


def test_counted_refusal_builds_no_table(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a table was built before the counted guard")

    for name in ("_norm_counts", "_rank_two_forms", "_index_series"):
        monkeypatch.setattr(subgroups, name, unbuilt)
    monkeypatch.setattr(EndRing, "elements_of_norm_at_most", unbuilt)
    # at Dmax = 10^30 the rank-two loop over a alone would take 10^15 steps
    for ring, n, r, dmax in ((Z, 3, 1, 100_000), (Z, 9, 7, 10 ** 6), (G, 2, 1, 10 ** 7),
                             (Z, 4, 4, 10 ** 14), (Z, 4, 2, 10 ** 30)):
        with pytest.raises(ResourceGuardError, match="census counting would take "):
            census(ring, n, r, dmax, 1)


def _reference_buckets(ring, n, r, dmax):
    """Degree buckets of the listed classes, each degree recomputed."""
    buckets = {}
    for m in enumerate_matrices(ring, n, r, dmax, ceiling=10 ** 15):
        d = degree_estimate(m)
        buckets[d] = buckets.get(d, 0) + 1
    return tuple(sorted(buckets.items()))


# the census deck's shapes, Z at r = 1 for N <= 5, Z at r = 2 for N = 2..5
# (N = 3, Dmax = 3 holds the hexagonal form on the edge of the r = 2 box), the
# CM rings at r = 1 for N <= 4, and Z at r >= 3, counted at rank N - r (the
# last four shapes are the ones a guard on the walk refused at the default
# ceiling)
@pytest.mark.parametrize("ring,n,r,dmax", [
    (Z, 2, 1, 200), (Z, 3, 1, 100), (Z, 4, 1, 30), (Z, 2, 2, 100), (Z, 3, 2, 20),
    (Z, 4, 2, 5), (Z, 3, 3, 1), (G, 2, 1, 25), (G, 3, 1, 5), (W, 2, 1, 25), (W, 3, 1, 5),
    (Z, 1, 1, 60), (Z, 5, 1, 6),
    (Z, 2, 2, 7), (Z, 2, 2, 48), (Z, 2, 2, 150), (Z, 3, 2, 3), (Z, 3, 2, 12),
    (Z, 3, 2, 30), (Z, 4, 2, 2), (Z, 4, 2, 8), (Z, 5, 2, 2), (Z, 5, 2, 4),
    (G, 1, 1, 40), (G, 4, 1, 3), (W, 1, 1, 40), (W, 4, 1, 3),
    (Z, 3, 3, 16), (Z, 4, 3, 1), (Z, 4, 3, 3), (Z, 4, 3, 6), (Z, 5, 3, 2),
    (Z, 3, 3, 4), (Z, 4, 3, 2), (Z, 4, 4, 1), (Z, 5, 3, 1),
])
def test_census_counts_match_listed_classes(ring, n, r, dmax):
    rep = census(ring, n, r, dmax, 1, ceiling=10 ** 15)
    assert rep.degree_buckets == _reference_buckets(ring, n, r, dmax)
    assert rep.total_matrices == sum(c for _, c in rep.degree_buckets)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(Z, 1), (Z, 2), (G, 1), (W, 1)]),
       st.integers(1, 4), st.integers(-1, 10))
def test_census_counts_match_listed_classes_small(ring_rank, n, dmax):
    ring, r = ring_rank
    r = min(r, n)
    assert (census(ring, n, r, dmax, 1).degree_buckets
            == _reference_buckets(ring, n, r, dmax))


def test_binary_aut_order_matches_brute_force():
    # the automorphisms of a reduced binary form have entries in {-1, 0, 1}
    # (Conway and Sloane, SPLAG, ch. 15); [-2, 2] leaves a margin
    matrices = [g for g in itertools.product(range(-2, 3), repeat=4)
                if abs(g[0] * g[3] - g[1] * g[2]) == 1]
    forms = [(a, b, c) for a in range(1, 7) for b in range(a // 2 + 1)
             for c in range(a, 13)]
    assert (1, 0, 1) in forms and (2, 1, 2) in forms
    for a, b, c in forms:
        fixed = sum(
            1 for p, q, u, v in matrices
            if (a * p * p + 2 * b * p * q + c * q * q,
                a * p * u + b * (p * v + q * u) + c * q * v,
                a * u * u + 2 * b * u * v + c * v * v) == (a, b, c))
        assert _binary_aut_order(a, b, c) == fixed, (a, b, c)


def test_census_monotone_in_dmax():
    prev = 0
    for dmax in (1, 2, 5, 10, 20, 40):
        rep = census(Z, 2, 1, dmax, 5)
        assert rep.total_matrices >= prev
        prev = rep.total_matrices
    assert rep.product_bound == rep.total_matrices * 5 ** 5


KAPPA_FROZEN = Fraction(13, 4)  # fitted once over the regression grid below


def test_census_growth_regression():
    # count(Dmax) <= kappa * Dmax^N for fixed N, the empirical growth shape
    for dmax in (5, 10, 20, 30, 40, 50):
        rep = census(Z, 2, 1, dmax, 2)
        assert rep.total_matrices <= KAPPA_FROZEN * dmax ** 2


def test_census_cumulative_consistency():
    rep = census(Z, 3, 2, 25, 4)
    cum = rep.cumulative()
    assert cum[-1][1] == rep.total_matrices
    assert all(c2 >= c1 for (_, c1), (_, c2) in zip(cum, cum[1:]))
