from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntbounds.rounding import (
    BoundedReal,
    Direction,
    DomainError,
    eval_const,
    eval_interval,
    fraction_to_decimal,
    log_rat,
    pi_pow,
    rat,
    unit_ball_volume,
)

U, L, NE = Direction.UPPER, Direction.LOWER, Direction.NEAREST


def test_pi_power_nearest_matches_oracle():
    got = eval_const(pi_pow(8), NE, 128).exact()
    with mpmath.workdps(60):
        want = Fraction(str(mpmath.pi ** 8))
    assert abs(got - want) < Fraction(1, 10 ** 30)


def test_dyadic_rational_is_exact_in_both_directions():
    for d in (U, L, NE):
        assert eval_const(rat(Fraction(3, 2)), d, 64).exact() == Fraction(3, 2)


def test_log_rational_matches_oracle():
    got = eval_const(log_rat(2) / 3, NE, 128).exact()
    with mpmath.workdps(60):
        want = Fraction(str(mpmath.log(2) / 3))
    assert abs(got - want) < Fraction(1, 10 ** 30)
    assert str(got)[:4]  # value near 0.23104906
    assert abs(got - Fraction("0.23104906")) < Fraction(1, 10 ** 7)


def test_log_of_nonpositive_rational_rejected():
    with pytest.raises(DomainError):
        log_rat(0)
    with pytest.raises(DomainError):
        log_rat(Fraction(-2, 3))


def test_unit_ball_volumes():
    assert eval_const(unit_ball_volume(1), NE).exact() == 2
    pi_val = eval_const(pi_pow(1), NE, 128).exact()
    assert eval_const(unit_ball_volume(2), NE, 128).exact() == pi_val
    got = eval_const(unit_ball_volume(3), NE, 128).exact()
    assert abs(got - Fraction(4, 3) * pi_val) < Fraction(1, 10 ** 30)


_EXPRS = [
    pi_pow(8),
    log_rat(2) / 3,
    unit_ball_volume(5),
    (rat(Fraction(7, 3)) * pi_pow(2) + log_rat(Fraction(9, 7))) ** 3,
    pi_pow(3) * log_rat(24) - rat(2),
]


@pytest.mark.parametrize("expr", _EXPRS)
def test_bracket_tightens_with_precision(expr):
    widths = []
    for p in (64, 128, 256):
        lo = eval_const(expr, L, p).exact()
        hi = eval_const(expr, U, p).exact()
        assert lo <= hi
        widths.append(hi - lo)
    assert widths[0] >= widths[1] >= widths[2]
    assert widths[2] < Fraction(1, 10 ** 60) * max(1, abs(widths[0]) + 1) or widths[2] == 0


@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 10 ** 6),
       p=st.sampled_from([64, 128, 256]))
@settings(max_examples=60)
def test_rational_enclosure_sound(num, den, p):
    q = Fraction(num, den)
    lo = eval_const(rat(q), L, p).exact()
    hi = eval_const(rat(q), U, p).exact()
    assert lo <= q <= hi


def test_upper_value_certifies_pi_pow_8_below_9489():
    assert eval_const(pi_pow(8), U, 128).exact() < 9489


def test_directed_decimal_rendering():
    assert fraction_to_decimal(Fraction("7.2780453958"), 4, U) == "7.279"
    assert fraction_to_decimal(Fraction("7.2780453958"), 4, L) == "7.278"
    assert fraction_to_decimal(Fraction("7.2780453958"), 4, NE) == "7.278"
    assert fraction_to_decimal(-Fraction("7.2780453958"), 4, U) == "-7.278"
    assert fraction_to_decimal(Fraction(3, 2), 3, NE) == "1.5"
    assert fraction_to_decimal(Fraction(0), 5, U) == "0"
    assert fraction_to_decimal(Fraction(2364, 1000) * 10 ** 34, 4, U) == "2.364e34"
    assert BoundedReal.from_fraction(Fraction(3, 2), U).decimal(6) == "1.5"


@given(num=st.integers(1, 10 ** 12), den=st.integers(1, 10 ** 12),
       sig=st.integers(1, 8))
@settings(max_examples=80)
def test_directed_decimal_brackets_value(num, den, sig):
    q = Fraction(num, den)
    up = Fraction(fraction_to_decimal(q, sig, U).replace("e", "E"))
    down = Fraction(fraction_to_decimal(q, sig, L).replace("e", "E"))
    assert down <= q <= up


def test_directed_decimal_just_below_a_power_of_ten():
    q = Fraction(1, 10 ** 57) - Fraction(1, 10 ** 80)
    assert fraction_to_decimal(q, 1, L) == "9e-58"
    assert fraction_to_decimal(q, 3, L) == "9.99e-58"
    assert fraction_to_decimal(q, 3, U) == "1e-57"
    assert fraction_to_decimal(-q, 3, U) == "-9.99e-58"


def _parse_decimal(text: str) -> tuple[Fraction, int, str]:
    """(value, exponent of the leading digit, significant digits) of a
    rendered decimal, read off the text alone."""
    body = text.lstrip("-")
    if "e" in body:
        mantissa, exp = body.split("e")
        assert "." not in mantissa or mantissa.index(".") == 1, text
        lead = int(exp)
    else:
        mantissa = body
        point = mantissa.index(".") if "." in mantissa else len(mantissa)
        first = len(mantissa) - len(mantissa.lstrip("0."))  # first nonzero digit
        lead = point - first - (first < point)
    digits = mantissa.replace(".", "").lstrip("0")
    return Fraction(text), lead, digits.rstrip("0")


def _big_ints(max_digits: int):
    """Positive ints of up to max_digits digits, with random leading and
    trailing parts, so that draws past 4 300 digits stay cheap."""
    return st.builds(lambda hi, k, lo: hi * 10 ** k + lo,
                     st.integers(0, 10 ** 30), st.integers(0, max_digits - 31),
                     st.integers(1, 10 ** 30))


@st.composite
def _render_cases(draw):
    kind = draw(st.sampled_from(["big", "dyadic", "near-power-of-ten"]))
    if kind == "big":
        q = Fraction(draw(_big_ints(4500)), draw(_big_ints(4500)))
    elif kind == "dyadic":
        q = Fraction(draw(st.integers(1, 2 ** 1100)), 2 ** draw(st.integers(0, 3000)))
    else:
        delta = Fraction(draw(st.integers(-10 ** 6, 10 ** 6)),
                         10 ** draw(st.integers(80, 120)))
        q = Fraction(10) ** draw(st.integers(-100, 100)) * (1 + delta)
    if q == 0:
        q = Fraction(1)
    return q * draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(_render_cases(), st.integers(1, 60), st.sampled_from([U, L, NE]))
def test_directed_decimal_against_exact_oracle(q, sig, direction):
    text = fraction_to_decimal(q, sig, direction)
    x, lead, digits = _parse_decimal(text)
    assert x != 0 and digits[0] != "0", text
    assert Fraction(10) ** lead <= abs(x) < Fraction(10) ** (lead + 1), text
    assert len(digits) <= sig, text
    if direction is U:
        assert x >= q
    elif direction is L:
        assert x <= q
    unit = Fraction(10) ** (lead - sig + 1)  # one unit in the sig-th digit
    assert abs(x - q) < unit if direction is not NE else abs(x - q) <= unit / 2


def test_eval_interval_endpoints_enclose():
    lo, hi = eval_interval(pi_pow(1), 128)
    assert lo < hi
    with mpmath.workdps(50):
        pi_ref = Fraction(str(+mpmath.pi))
    assert lo < pi_ref < hi


def test_minimum_precision_enforced():
    with pytest.raises(DomainError):
        eval_const(rat(1), NE, 32)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=2 ** 300),
       st.integers(min_value=-600, max_value=600))
def test_raw_to_fraction_is_exact(sign, man, exp):
    from ntbounds.rounding import _raw_to_fraction
    want = Fraction(man) * Fraction(2) ** exp
    assert _raw_to_fraction((sign, man, exp, man.bit_length())) == (-want if sign else want)


def test_atom_cache_is_bounded_and_keeps_recent_atoms(monkeypatch):
    from collections import OrderedDict

    from ntbounds import rounding
    monkeypatch.setattr(rounding, "_ATOM_CACHE_SIZE", 4)
    monkeypatch.setattr(rounding, "_ATOM_CACHE", OrderedDict())
    popular = eval_interval(log_rat(Fraction(3, 2)), 128)
    fresh = []
    for q in range(5, 15):
        fresh.append(eval_interval(log_rat(q), 128))
        assert (log_rat(Fraction(3, 2)), 128) in rounding._ATOM_CACHE  # used, so kept
        assert eval_interval(log_rat(Fraction(3, 2)), 128) == popular
        assert len(rounding._ATOM_CACHE) <= 4
    assert (log_rat(5), 128) not in rounding._ATOM_CACHE
    # an evicted atom evaluates to the same enclosure again
    assert eval_interval(log_rat(5), 128) == fresh[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-2 ** 200, max_value=2 ** 200),
       st.integers(min_value=-300, max_value=300),
       st.integers(min_value=0, max_value=2 ** 200),
       st.integers(min_value=-300, max_value=300),
       st.sampled_from([53, 64, 128, 256]), st.sampled_from([U, L, NE]))
def test_from_interval_matches_rounding_the_exact_endpoints(m1, e1, m2, e2, prec, direction):
    # reference: round the endpoints' exact Fraction values, as a Fraction
    from mpmath import libmp
    from ntbounds.rounding import _raw_to_fraction
    a = Fraction(m1) * Fraction(2) ** e1
    b = a + Fraction(m2) * Fraction(2) ** e2
    interval = tuple(libmp.from_rational(q.numerator, q.denominator, 10 ** 4, libmp.round_floor)
                     for q in (a, b))  # exact: every endpoint drawn here fits in 10^4 bits
    assert tuple(map(_raw_to_fraction, interval)) == (a, b)
    rnd = {U: libmp.round_ceiling, L: libmp.round_floor, NE: libmp.round_nearest}[direction]
    target = {U: b, L: a, NE: (a + b) / 2}[direction]
    want = libmp.from_rational(target.numerator, target.denominator, prec, rnd)
    assert BoundedReal.from_interval(interval, direction, prec).exact() == _raw_to_fraction(want)


def test_from_interval_rejects_infinite_endpoints():
    from mpmath import libmp
    for direction in (U, L, NE):
        with pytest.raises(DomainError):
            BoundedReal.from_interval((libmp.fninf, libmp.fone), direction, 64)
