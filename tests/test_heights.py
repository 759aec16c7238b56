import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntbounds.elliptic import ECPoint, add, negate, scalar_mul, validate_curve
from ntbounds.heights import (
    ProjPointQ,
    arithmetic_bezout_upper,
    canonical_height,
    canonical_height_enclosure,
    h_upper_from_mu,
    modified_height_h2,
    modified_height_h2_expr,
    weil_height,
    weil_height_expr,
    zhang_sandwich,
    _doubling_data,
)
from ntbounds.rounding import Direction, DomainError, eval_const, eval_interval

TOL = Fraction(1, 10 ** 10)

E2 = validate_curve(-1, -2)
G2 = ECPoint.affine(2, 2)
E1 = validate_curve(1, -1)
G1 = ECPoint.affine(1, 1)


# -- Weil and h2 ----------------------------------------------------------


def test_weil_examples():
    assert weil_height(ProjPointQ((1, 0, 0))).value.exact() == 0
    got = weil_height(ProjPointQ((1, 2, 3)), Direction.NEAREST, 128).value.exact()
    assert abs(got - Fraction(str(math.log(3)))) < Fraction(1, 10 ** 12)
    # (2/3 : 1) clears to (2 : 3)
    got2 = weil_height(ProjPointQ((Fraction(2, 3), 1))).value.exact()
    assert abs(got2 - got * 1) < 1  # same log 3 value
    assert ProjPointQ((Fraction(2, 3), 1)).coords == (2, 3)


def test_h2_examples():
    assert modified_height_h2(ProjPointQ((1, 0))).value.exact() == 0
    got = modified_height_h2(ProjPointQ((1, 1)), Direction.NEAREST, 128).value.exact()
    assert abs(got - Fraction(str(0.5 * math.log(2)))) < Fraction(1, 10 ** 12)
    got = modified_height_h2(ProjPointQ((1, 2, 3)), Direction.NEAREST, 128).value.exact()
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


def test_doubling_cache_is_bounded_lru(monkeypatch):
    from collections import OrderedDict

    from ntbounds import heights
    monkeypatch.setattr(heights, "_DOUBLING_CACHE_SIZE", 4)
    monkeypatch.setattr(heights, "_DOUBLING_CACHE", OrderedDict())
    popular = _doubling_data(E2)
    fresh = []
    for b in range(3, 13):
        E = validate_curve(1, b)
        fresh.append(_doubling_data(E))
        assert _doubling_data(E) is fresh[-1]  # the most recent curve hits
        assert _doubling_data(E2) is popular  # used, so kept
        assert len(heights._DOUBLING_CACHE) <= 4
    assert (Fraction(1), Fraction(3)) not in heights._DOUBLING_CACHE
    # an evicted curve gets the same data again
    assert _doubling_data(validate_curve(1, 3)) == fresh[0]


def test_canonical_height_torsion_and_infinity():
    assert canonical_height(E2, ECPoint.infinity(), TOL).value.exact() == 0
    Et = validate_curve(-1, 0)
    assert canonical_height(Et, ECPoint.affine(0, 0), TOL).value.exact() == 0
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
        canonical_height(E2, G2, 0)
    with pytest.raises(DomainError):
        canonical_height(E2, G2, Fraction(-1, 10))


def test_canonical_height_rational_coefficient_curve():
    E = validate_curve(Fraction(1, 2), Fraction(-5, 4))
    P = ECPoint.affine(1, Fraction(1, 2))  # 1/4 = 1 + 1/2 - 5/4
    E.require(P)
    lo, hi = canonical_height_enclosure(E, P, TOL)
    lo2, hi2 = canonical_height_enclosure(E, scalar_mul(E, 2, P), TOL)
    assert abs((lo2 + hi2) / 2 - 4 * (lo + hi) / 2) <= 2 * TOL


# -- combinators -----------------------------------------------------------


def test_zhang_substitution():
    mu_lo, mu_hi = zhang_sandwich(6, 3, 1)
    assert mu_lo.exact() == 1 and mu_hi.exact() == 2
    mu_lo, mu_hi = zhang_sandwich(0, 3, 1)
    assert mu_lo.exact() == 0 and mu_hi.exact() == 0


def test_zhang_reversed():
    from ntbounds.rounding import LogRat, Prod, Rat, Sum
    mu = Sum((LogRat(Fraction(18)),
              Prod((Rat(Fraction(3, 2)), LogRat(Fraction(24))))))
    hi = h_upper_from_mu(mu, 18, 1)
    want_lo, want_hi = eval_interval(Sum((Prod((Rat(Fraction(36)), mu)),)), 128)
    assert want_lo <= hi.exact()
    assert hi.exact() >= want_hi - Fraction(1, 10 ** 20)


def test_bezout_substitution():
    assert arithmetic_bezout_upper(1, 0, 1, 0, 0).exact() == 0
    assert arithmetic_bezout_upper(2, 1, 3, 0, 1).exact() == 9
    # with h(W) = 0 the bound collapses to deg W * (h(V) + c deg V)
    assert arithmetic_bezout_upper(9, 5, 4, 0, 2).exact() == 4 * (5 + 2 * 9)


def test_bezout_rejects_bad_inputs():
    with pytest.raises(DomainError):
        arithmetic_bezout_upper(0, 1, 1, 1, 0)
    with pytest.raises(DomainError):
        arithmetic_bezout_upper(1, -1, 1, 1, 0)


@given(hv=st.integers(0, 50), deg=st.integers(1, 40), dim=st.integers(0, 4))
@settings(max_examples=60)
def test_zhang_bracket_ordering(hv, deg, dim):
    mu_lo, mu_hi = zhang_sandwich(hv, deg, dim)
    assert mu_lo.exact() <= mu_hi.exact()
