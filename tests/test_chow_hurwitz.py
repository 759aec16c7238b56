import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntbounds.chow_hurwitz import (
    family_curve_profile,
    family_degree_upper,
    hurwitz_genus,
    intersection_number,
)
from ntbounds.errors import DomainError

P2 = (2,)
P2xP2 = (2, 2)


def test_plane_bezout():
    assert intersection_number(P2, ((2,), (3,))) == 6


def test_truncation_kills_high_powers():
    # l^2 * l = l^3 is zero in P^2
    assert intersection_number(P2, ((1,), (1,), (1,))) == 0


def test_zero_class():
    assert intersection_number(P2xP2, ((0, 0), (1, 1), (1, 1), (1, 1))) == 0
    assert intersection_number(P2xP2, ()) == 0  # the empty product


def test_ambient_mismatch_rejected():
    with pytest.raises(DomainError):
        intersection_number(P2, ((1,), (1, 0)))
    with pytest.raises(DomainError):
        intersection_number((), ())


@pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
def test_family_degree_class(n):
    assert family_degree_upper(n) == 9 * (n + 1)
    assert family_degree_upper(n, "f1") == 9 * (n + 1)


@given(st.permutations(range(4)))
@settings(max_examples=24)
def test_intersection_number_order_invariant(perm):
    classes = [(3, 1), (0, 3), (1, 1), (2, 0)]
    reference = intersection_number(P2xP2, classes)
    assert intersection_number(P2xP2, [classes[i] for i in perm]) == reference


@given(a=st.integers(-5, 5), b=st.integers(-5, 5), c=st.integers(-5, 5),
       d=st.integers(-5, 5))
@settings(max_examples=40)
def test_intersection_number_multilinear(a, b, c, d):
    # In P^1 x P^1: (a l + b m)(c l + d m) has top coefficient ad + bc
    assert intersection_number((1, 1), ((a, b), (c, d))) == a * d + b * c


# -- Hurwitz ----------------------------------------------------------------


def test_identity_cover():
    assert hurwitz_genus(1, 0, ()) == 0


def test_elliptic_double_cover():
    prof = tuple((f"b{i}", ((2, 1),)) for i in range(4))
    assert hurwitz_genus(2, 0, prof) == 1


def test_hurwitz_rejects_bad_fiber_sum():
    with pytest.raises(DomainError) as err:
        hurwitz_genus(2, 0, (("bad", ((3, 1),)),))
    assert "bad" in str(err.value)


@pytest.mark.parametrize("fibers", [((0, 2),), ((2, 0), (1, 2)), ((-1, 2), (3, 1))])
def test_hurwitz_rejects_index_or_count_below_one(fibers):
    with pytest.raises(DomainError) as err:
        hurwitz_genus(2, 0, (("low", fibers),))
    assert "low" in str(err.value)


def test_family_genus_formula_full_range():
    for n in range(1, 101):
        deg, prof = family_curve_profile(n)
        assert hurwitz_genus(deg, 0, prof) == 4 * n + 2


def test_hurwitz_parity_of_accepted_profiles():
    for n in (1, 3, 10):
        deg, prof = family_curve_profile(n)
        excess = sum((e - 1) * c for _, fibers in prof for e, c in fibers)
        assert excess == 20 * n + 2
        assert (deg * 2 - excess) % 2 == 0


def test_hurwitz_rejects_inconsistent_profile():
    # degree 3 cover of P^1 with a single doubled point: 2-2g = 6 - 1 = 5, odd
    with pytest.raises(DomainError):
        hurwitz_genus(3, 0, (("x", ((2, 1), (1, 1))),))
