import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ntbounds.elliptic import ECPoint, add, negate, scalar_mul, validate_curve
from ntbounds.errors import DomainError
from ntbounds.heights import (
    ProjPointQ,
    canonical_height_enclosure,
    modified_height_h2_expr,
    weil_height_expr,
    _DoublingData,
    _doubling_data,
)
from ntbounds.rounding import Direction, eval_const

TOL = Fraction(1, 10 ** 10)

E2 = validate_curve(-1, -2)
G2 = ECPoint.affine(2, 2)
E1 = validate_curve(1, -1)
G1 = ECPoint.affine(1, 1)


# -- Weil and h2 ----------------------------------------------------------


def test_weil_examples():
    assert eval_const(weil_height_expr(ProjPointQ((1, 0, 0))), Direction.NEAREST).exact() == 0
    got = eval_const(weil_height_expr(ProjPointQ((1, 2, 3))), Direction.NEAREST, 128).exact()
    assert abs(got - Fraction(str(math.log(3)))) < Fraction(1, 10 ** 12)
    # (2/3 : 1) clears to (2 : 3)
    got2 = eval_const(weil_height_expr(ProjPointQ((Fraction(2, 3), 1))),
                      Direction.NEAREST).exact()
    assert abs(got2 - got * 1) < 1  # same log 3 value
    assert ProjPointQ((Fraction(2, 3), 1)).coords == (2, 3)


def test_h2_examples():
    def h2(coords):
        return eval_const(modified_height_h2_expr(ProjPointQ(coords)), Direction.NEAREST,
                          128).exact()

    assert h2((1, 0)) == 0
    got = h2((1, 1))
    assert abs(got - Fraction(str(0.5 * math.log(2)))) < Fraction(1, 10 ** 12)
    got = h2((1, 2, 3))
    assert abs(got - Fraction(str(0.5 * math.log(14)))) < Fraction(1, 10 ** 12)


def test_zero_vector_rejected():
    with pytest.raises(DomainError):
        ProjPointQ((0, 0, 0))


def test_height_sandwich_random_points():
    rng = random.Random(20260808)
    half_logs = {m: Fraction(str(0.5 * math.log(m + 1))) for m in range(1, 6)}
    for _ in range(10_000):
        m = rng.randint(1, 5)
        coords = tuple(rng.randint(-999, 999) for _ in range(m + 1))
        if all(c == 0 for c in coords):
            continue
        P = ProjPointQ(coords)
        h_hi = eval_const(weil_height_expr(P), Direction.UPPER, 64).exact()
        h_lo = eval_const(weil_height_expr(P), Direction.LOWER, 64).exact()
        h2_hi = eval_const(modified_height_h2_expr(P), Direction.UPPER, 64).exact()
        h2_lo = eval_const(modified_height_h2_expr(P), Direction.LOWER, 64).exact()
        m_eff = len(P.coords) - 1
        assert h_lo <= h2_hi
        assert h2_lo <= h_hi + half_logs[m_eff] + Fraction(1, 10 ** 9)


# -- canonical height machinery -------------------------------------------


def test_gcd_cap_divides_duplication_gcd():
    rng = random.Random(7)
    for E in (E2, E1, validate_curve(Fraction(1, 2), Fraction(-3, 4))):
        dd = _doubling_data(E)
        for _ in range(120):
            a = rng.randint(-80, 80)
            b = rng.randint(1, 80)
            if math.gcd(a, b) != 1:
                continue
            f = sum(c * a ** (4 - i) * b ** i for i, c in enumerate(dd.f_coeffs))
            g = sum(c * a ** (4 - i) * b ** i for i, c in enumerate(dd.g_coeffs))
            if f == 0 and g == 0:
                continue
            d = math.gcd(abs(f), abs(g))
            assert d >= 1 and dd.gcd_cap % d == 0


def test_doubling_data_is_pinned():
    # the values a polynomial extended Euclid over Q gives for these curves
    assert _doubling_data(E1) == _DoublingData(
        (1, 0, -2, 8, 1), (0, 4, 0, 4, -4), 124, Fraction(619))
    assert _doubling_data(E2) == _DoublingData(
        (1, 0, 2, 16, 1), (0, 4, 0, -4, -8), 416, Fraction(3210))
    assert _doubling_data(validate_curve(Fraction(-5, 6), Fraction(7, 9))) == _DoublingData(
        (36, 0, 60, -224, 25), (0, 144, 0, -120, 112), 15697152, Fraction(1853403))


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _bezout_lhs(u, f, v, g):
    """Ascending coefficients of u*f + v*g."""
    return [x + y for x, y in zip_longest(_poly_mul(u, f), _poly_mul(v, g), fillvalue=0)]


_curve_coeffs = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-50, max_value=50, max_denominator=12))


@given(a=_curve_coeffs, b=_curve_coeffs)
@settings(max_examples=200, deadline=None)
def test_duplication_identities_hold_exactly(a, b):
    D = 4 * a ** 3 + 27 * b ** 2
    assume(D != 0)
    dd = _doubling_data(validate_curve(a, b))
    scale = dd.f_coeffs[0]  # F = scale * (A^4 - ...)
    constant = [4 * D * scale]
    # x-chart, ascending in x = A/B: B-degree order reversed
    u, v = [16 * a, 0, 12], [27 * b, 5 * a, 0, -3]
    lhs = _bezout_lhs(u, dd.f_coeffs[::-1], v, dd.g_coeffs[::-1])
    assert lhs == constant + [0] * (len(lhs) - 1)
    # t-chart, ascending in t = B/A: B-degree order
    ut = [4 * D, -4 * a * a * b, 4 * a * (3 * a ** 3 + 22 * b * b),
          12 * b * (a ** 3 + 8 * b * b)]
    vt = [a * a * b, a * (5 * a ** 3 + 32 * b * b), 2 * b * (13 * a ** 3 + 96 * b * b),
          -3 * a * a * (a ** 3 + 8 * b * b)]
    lhs = _bezout_lhs(ut, dd.f_coeffs, vt, dd.g_coeffs)
    assert lhs == constant + [0] * (len(lhs) - 1)


def test_duplication_step_bound_holds():
    # |h(x(2P)) - 4 h(x(P))| <= log(delta_log_arg) on sampled points
    dd = _doubling_data(E2)
    delta = math.log(float(dd.delta_log_arg))
    P = G2
    for _ in range(6):
        x = P.x
        a0, b0 = x.numerator, x.denominator
        P2 = scalar_mul(E2, 2, P)
        x2 = P2.x
        h1 = math.log(max(abs(a0), b0))
        h2 = math.log(max(abs(x2.numerator), x2.denominator))
        assert abs(h2 - 4 * h1) <= delta + 1e-9
        P = P2
        if max(abs(x2.numerator), x2.denominator) > 10 ** 200:
            break


def test_canonical_height_against_exact_doubling_partial_sums():
    # independent oracle: exact 4^-m h(x(2^m P)) plus the proven tail radius
    for E, P in ((E2, G2), (E1, G1), (E1, scalar_mul(E1, 3, G1))):
        lo, hi = canonical_height_enclosure(E, P, TOL)
        mid = (lo + hi) / 2
        dd = _doubling_data(E)
        delta = math.log(float(dd.delta_log_arg))
        Q = P
        for m in range(1, 6):
            Q = scalar_mul(E, 2, Q)
            x = Q.x
            approx = math.log(max(abs(x.numerator), x.denominator)) / 4 ** m
            radius = delta / (3 * 4 ** m)
            assert abs(float(mid) - approx) <= radius + float(TOL) + 1e-9


def test_doubling_cache_is_bounded_lru():
    maxsize = _doubling_data.cache_info().maxsize
    popular = _doubling_data(E2)
    fresh = []
    # more fresh curves than the cache holds, none seen before by this process
    for b in range(1000, 1000 + maxsize + 6):
        E = validate_curve(1, b)
        fresh.append(_doubling_data(E))
        assert _doubling_data(E) is fresh[-1]  # the most recent curve hits
        assert _doubling_data(E2) is popular  # used, so kept
        assert _doubling_data.cache_info().currsize <= maxsize
    # the first fresh curve was evicted: it misses, and gets equal data again
    misses = _doubling_data.cache_info().misses
    assert _doubling_data(validate_curve(1, 1000)) == fresh[0]
    assert _doubling_data.cache_info().misses == misses + 1


def test_canonical_height_torsion_and_infinity():
    assert canonical_height_enclosure(E2, ECPoint.infinity(), TOL) == (0, 0)
    Et = validate_curve(-1, 0)
    assert canonical_height_enclosure(Et, ECPoint.affine(0, 0), TOL) == (0, 0)
    assert canonical_height_enclosure(Et, ECPoint.affine(1, 0), TOL) == (0, 0)


def test_canonical_height_zero_iff_torsion():
    lo, hi = canonical_height_enclosure(E2, G2, TOL)
    assert lo > 10 * TOL  # non-torsion: clearly positive
    Et = validate_curve(-1, 0)
    assert canonical_height_enclosure(Et, ECPoint.affine(-1, 0), TOL) == (0, 0)


def test_doubling_quadraticity_within_two_tol():
    lo1, hi1 = canonical_height_enclosure(E2, G2, TOL)
    lo2, hi2 = canonical_height_enclosure(E2, scalar_mul(E2, 2, G2), TOL)
    mid1, mid2 = (lo1 + hi1) / 2, (lo2 + hi2) / 2
    assert abs(mid2 - 4 * mid1) <= 2 * TOL


@pytest.mark.parametrize("curve,gen", [(E2, G2), (E1, G1)])
def test_quadraticity_up_to_ten(curve, gen):
    lo, hi = canonical_height_enclosure(curve, gen, TOL)
    base = (lo + hi) / 2
    for m in range(2, 11):
        lom, him = canonical_height_enclosure(curve, scalar_mul(curve, m, gen), TOL)
        assert abs((lom + him) / 2 - m * m * base) <= (m * m + 1) * TOL


@pytest.mark.parametrize("curve,gen", [(E2, G2), (E1, G1)])
def test_parallelogram_law(curve, gen):
    rng = random.Random(99)
    for _ in range(4):
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        P = scalar_mul(curve, i, gen)
        Q = scalar_mul(curve, j, gen)
        hs = []
        for point in (add(curve, P, Q), add(curve, P, negate(Q)), P, Q):
            lo, hi = canonical_height_enclosure(curve, point, TOL)
            hs.append((lo + hi) / 2)
        residual = hs[0] + hs[1] - 2 * hs[2] - 2 * hs[3]
        assert abs(residual) <= 6 * TOL


def test_canonical_height_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        canonical_height_enclosure(E2, G2, 0)
    with pytest.raises(DomainError):
        canonical_height_enclosure(E2, G2, Fraction(-1, 10))


def test_canonical_height_rational_coefficient_curve():
    E = validate_curve(Fraction(1, 2), Fraction(-5, 4))
    P = ECPoint.affine(1, Fraction(1, 2))  # 1/4 = 1 + 1/2 - 5/4
    E.require(P)
    lo, hi = canonical_height_enclosure(E, P, TOL)
    lo2, hi2 = canonical_height_enclosure(E, scalar_mul(E, 2, P), TOL)
    assert abs((lo2 + hi2) / 2 - 4 * (lo + hi) / 2) <= 2 * TOL

