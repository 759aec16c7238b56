from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ntbounds.elliptic import (
    MAZUR_ORDERS,
    ECPoint,
    EllipticCurveQ,
    PointNotOnCurveError,
    SingularCurveError,
    add,
    curve_from_json,
    negate,
    scalar_mul,
    torsion_order,
    validate_curve,
    weierstrass_height_expr,
)
from ntbounds.rounding import Direction, eval_const

O = ECPoint.infinity()


def E2():
    return validate_curve(-1, -2)


def test_validate_accepts_paper_curve():
    E = E2()
    assert E.discriminant() != 0


@pytest.mark.parametrize("a,b", [(0, 0), (-3, 2)])
def test_validate_rejects_singular(a, b):
    with pytest.raises(SingularCurveError) as err:
        validate_curve(a, b)
    assert err.value.discriminant == 0


def test_identity_and_inverse():
    E = E2()
    g = ECPoint.affine(2, 2)
    assert add(E, g, O) == g
    assert add(E, O, g) == g
    assert add(E, g, negate(g)) == O


def test_doubling_example():
    E = E2()
    g = ECPoint.affine(2, 2)
    dg = add(E, g, g)
    assert dg == ECPoint.affine(Fraction(57, 16), Fraction(-403, 64))
    assert E.contains(dg)
    assert scalar_mul(E, 2, g) == dg


def test_scalar_edge_cases():
    E = E2()
    g = ECPoint.affine(2, 2)
    assert scalar_mul(E, 1, g) == g
    assert scalar_mul(E, 0, g) == O
    assert scalar_mul(E, -1, g) == ECPoint.affine(2, -2)


def test_two_torsion_to_infinity():
    E = validate_curve(-1, 0)  # y^2 = x^3 - x
    T = ECPoint.affine(0, 0)
    assert add(E, T, T) == O
    assert torsion_order(E, T) == 2


def test_torsion_orders():
    assert torsion_order(E2(), O) == 1
    assert torsion_order(E2(), ECPoint.affine(2, 2)) is None
    # 4-torsion: y^2 = x^3 + 4x has (2, 4) of order 4
    E = validate_curve(4, 0)
    P = ECPoint.affine(2, 4)
    assert torsion_order(E, P) == 4


def test_require_rejects_off_curve():
    with pytest.raises(PointNotOnCurveError):
        E2().require(ECPoint.affine(1, 1))


def _point_curve(x0: Fraction, y0: Fraction, a: Fraction):
    """A curve through (x0, y0) with x-coefficient a, if nonsingular."""
    b = y0 ** 2 - x0 ** 3 - a * x0
    if -16 * (4 * a ** 3 + 27 * b ** 2) == 0:
        return None
    return EllipticCurveQ(a, b), ECPoint.affine(x0, y0)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(x0=small_rats, y0=small_rats, a=small_rats,
       i=st.integers(-5, 5), j=st.integers(-5, 5), k=st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_group_law_properties(x0, y0, a, i, j, k):
    built = _point_curve(x0, y0, a)
    if built is None:
        return
    E, base = built
    P, Q, R = (scalar_mul(E, m, base) for m in (i, j, k))
    assert E.contains(P) and E.contains(Q) and E.contains(R)
    assert add(E, P, Q) == add(E, Q, P)
    assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
    assert add(E, P, negate(P)) == O


@given(x0=small_rats, y0=small_rats, a=small_rats,
       m=st.integers(-8, 8), n=st.integers(-8, 8))
@settings(max_examples=50, deadline=None)
def test_scalar_mul_is_homomorphic(x0, y0, a, m, n):
    built = _point_curve(x0, y0, a)
    if built is None:
        return
    E, P = built
    assert scalar_mul(E, m + n, P) == add(E, scalar_mul(E, m, P), scalar_mul(E, n, P))


# -- h_W -----------------------------------------------------------------


def test_weierstrass_height_paper_curve():
    got = eval_const(weierstrass_height_expr(E2()), Direction.NEAREST, 256).exact()
    with mpmath.workdps(90):
        want = Fraction(str(mpmath.log(2) / 3))
    assert abs(got - want) < Fraction(1, 10 ** 40)


def test_weierstrass_height_all_units():
    h_w = weierstrass_height_expr(validate_curve(1, -1))
    assert eval_const(h_w, Direction.NEAREST).exact() == 0


def test_weierstrass_height_max_selection():
    got = eval_const(weierstrass_height_expr(validate_curve(4, 8)), Direction.NEAREST, 128).exact()
    with mpmath.workdps(50):
        want = Fraction(str(mpmath.log(2)))
    assert abs(got - want) < Fraction(1, 10 ** 25)


def test_weierstrass_height_denominators():
    # A = 1/4, B = -9/8: finite part max(v2(4)/2, v2(8)/3) = 1 -> log 2;
    # archimedean max(0, log(1/4)/2, log(9/8)/3) = log(9/8)/3
    E = validate_curve(Fraction(1, 4), Fraction(-9, 8))
    got = eval_const(weierstrass_height_expr(E), Direction.NEAREST, 128).exact()
    with mpmath.workdps(50):
        want = Fraction(str(mpmath.log(2) + mpmath.log(mpmath.mpf(9) / 8) / 3))
    assert abs(got - want) < Fraction(1, 10 ** 25)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


_SMALL_DENOMINATORS = st.builds(
    lambda e2, e3, e5, e7: 2 ** e2 * 3 ** e3 * 5 ** e5 * 7 ** e7,
    *[st.integers(0, 4)] * 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), _SMALL_DENOMINATORS,
       st.integers(-10 ** 6, 10 ** 6), _SMALL_DENOMINATORS)
def test_weierstrass_height_finite_part_is_the_per_prime_sum(na, da, nb, db):
    A, B = Fraction(na, da), Fraction(nb, db)
    assume(4 * A ** 3 + 27 * B ** 2 != 0)
    got = eval_const(weierstrass_height_expr(validate_curve(A, B)), Direction.NEAREST, 320).exact()
    with mpmath.workdps(120):
        # archimedean max(0, log|A|/2, log|B|/3), then max(v/2, w/3) log p per prime
        want = max(0, *(mpmath.log(abs(mpmath.mpf(c.numerator) / c.denominator)) / k
                        for c, k in ((A, 2), (B, 3)) if c))
        for p in (2, 3, 5, 7):
            e = max(Fraction(_valuation(A.denominator, p), 2),
                    Fraction(_valuation(B.denominator, p), 3))
            want += mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
        want = Fraction(str(want))
    assert abs(got - want) < Fraction(1, 10 ** 60)


def test_weierstrass_height_of_a_large_prime_denominator():
    # den(A) = 10^18 + 3 is prime: h_W = (1/2) log(10^18 + 3) at that prime,
    # and the archimedean place contributes nothing (|A|, |B| <= 1)
    p = 10 ** 18 + 3
    E = validate_curve(Fraction(-31, p), 1)
    got = eval_const(weierstrass_height_expr(E), Direction.NEAREST, 256).exact()
    with mpmath.workdps(90):
        want = Fraction(str(mpmath.log(p) / 2))
    assert abs(got - want) < Fraction(1, 10 ** 60)


def test_curve_json_roundtrip():
    text = '{"a": "-1", "b": "-2", "generator": ["2", "2"], "rank": 1, "torsion_order": 1}'
    assert curve_from_json(text) == (E2(), ECPoint.affine(2, 2), 1, 1)


def test_curve_json_rejects_decimals():
    from ntbounds.errors import InputParseError
    with pytest.raises(InputParseError):
        curve_from_json('{"a": "0.5", "b": "-2", "generator": ["2", "2"]}')


# -- torsion: Nagell-Lutz screen against the plain loop -------------------


def _reference_torsion_order(E, P):
    """The screen-free decision procedure: m*P = O over m = 1..12."""
    acc = O
    for m in range(1, 13):
        acc = add(E, acc, P)
        if acc.is_infinity and m in MAZUR_ORDERS:
            return m
    return None


def _tate_normal_short(b, c):
    """E(b, c): y^2 + (1 - c)xy - by = x^3 - bx^2 with its point (0, 0),
    moved to short Weierstrass form y^2 = x^3 - (c4/48)x - c6/864."""
    b, c = Fraction(b), Fraction(c)
    a1, a2, a3 = 1 - c, -b, -b
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3, a3 * a3
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    # x' = x + b2/12, y' = y + (a1 x + a3)/2, evaluated at (0, 0)
    return EllipticCurveQ(-c4 / 48, -c6 / 864), ECPoint.affine(b2 / 12, a3 / 2)


def _kubert(order, t):
    """Kubert's parametrization of a point of the given order, in short form."""
    t = Fraction(t)
    if order == 4:
        return _tate_normal_short(t, 0)
    if order == 5:
        return _tate_normal_short(t, t)
    if order == 6:
        return _tate_normal_short(t + t * t, t)
    if order == 7:
        return _tate_normal_short(t ** 3 - t ** 2, t ** 2 - t)
    if order == 8:
        b = (2 * t - 1) * (t - 1)
        return _tate_normal_short(b, b / t)
    if order == 9:
        c = t * t * (t - 1)
        return _tate_normal_short(c * (t * t - t + 1), c)
    if order == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        return _tate_normal_short(c * d, c)
    if order == 12:
        m = (3 * t - 3 * t * t - 1) / (t - 1)
        f = m / (1 - t)
        d = m + t
        c = f * (d - 1)
        return _tate_normal_short(c * d, c)
    raise ValueError(order)


# One point of every admissible order; the Kubert points have non-integral
# short-form coefficients, so the u-scaling of the screen is exercised.
TORSION_CASES = [
    (1, validate_curve(-1, -2), O),
    (2, validate_curve(-1, 0), ECPoint.affine(0, 0)),
    (3, validate_curve(0, 1), ECPoint.affine(0, 1)),
    (4, validate_curve(4, 0), ECPoint.affine(2, 4)),
    (6, validate_curve(0, 1), ECPoint.affine(2, 3)),
    (7, validate_curve(-43, 166), ECPoint.affine(3, 8)),
    (2, validate_curve(Fraction(-1, 4), 0), ECPoint.affine(Fraction(1, 2), 0)),
] + [(order, *_kubert(order, t)) for order in (4, 5, 6, 7, 8, 9, 10, 12)
     for t in (2, 3, Fraction(-1, 2))]


@pytest.mark.parametrize("order,E,P", TORSION_CASES)
def test_torsion_order_every_mazur_order(order, E, P):
    assert torsion_order(E, P) == _reference_torsion_order(E, P) == order
    for k in range(2, order):
        Q = scalar_mul(E, k, P)
        assert torsion_order(E, Q) == _reference_torsion_order(E, Q)


def test_torsion_cases_cover_mazur_orders():
    assert {order for order, _, _ in TORSION_CASES} == set(MAZUR_ORDERS)
    assert any(E.a.denominator > 1 and E.b.denominator > 1 for _, E, _ in TORSION_CASES)


def _rescaled(E, g, torsion, u):
    """The isomorphic curve y^2 = x^3 + (a/u^4)x + b/u^6 and images of points."""
    def image(P):
        return P if P.is_infinity else ECPoint(P.x / u ** 2, P.y / u ** 3)
    return (EllipticCurveQ(E.a / u ** 4, E.b / u ** 6), image(g),
            tuple(image(T) for T in torsion))


def _sweep_groups():
    """(curve, generator, torsion list): the presets, a curve with 2-torsion,
    and rescalings of both kinds with non-integral coefficients."""
    groups = [
        (validate_curve(1, -1), ECPoint.affine(1, 1), (O,)),
        (validate_curve(-1, -2), ECPoint.affine(2, 2), (O,)),
        (validate_curve(-2, 0), ECPoint.affine(2, 2), (O, ECPoint.affine(0, 0))),
    ]
    groups.append(_rescaled(*groups[1], Fraction(2)))
    groups.append(_rescaled(*groups[2], Fraction(6)))
    groups.append(_rescaled(*groups[0], Fraction(3, 2)))
    return groups


SWEEP_GROUPS = _sweep_groups()


@given(group=st.sampled_from(SWEEP_GROUPS), a=st.integers(-6, 6), t=st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_torsion_order_matches_reference_on_lattice(group, a, t):
    E, g, torsion = group
    P = add(E, scalar_mul(E, a, g), torsion[t % len(torsion)])
    assert E.contains(P)
    assert torsion_order(E, P) == _reference_torsion_order(E, P)
