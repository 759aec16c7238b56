import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntbounds.chow_hurwitz import (
    BranchPoint,
    ChowClass,
    RamificationProfile,
    chow_mul,
    family_curve_degree_class,
    family_curve_profile,
    family_degree_upper,
    hurwitz_genus,
    hyperplane_combination,
    top_coefficient,
    validate_profile,
)
from ntbounds.rounding import DomainError

P2 = (2,)
P2xP2 = (2, 2)


def test_plane_bezout():
    prod = chow_mul([hyperplane_combination(P2, (2,)), hyperplane_combination(P2, (3,))])
    assert prod.coefficients == {(2,): 6}
    assert top_coefficient(prod) == 6


def test_truncation_kills_high_powers():
    l2 = ChowClass(P2, {(2,): 1})
    l1 = hyperplane_combination(P2, (1,))
    assert (l2 * l1).coefficients == {}
    assert top_coefficient(l2 * l1) == 0


def test_zero_class():
    assert top_coefficient(ChowClass(P2xP2, {})) == 0


def test_ambient_mismatch_rejected():
    with pytest.raises(DomainError):
        chow_mul([hyperplane_combination(P2, (1,)), hyperplane_combination(P2xP2, (1, 0))])


@pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
def test_family_degree_class(n):
    cls = family_curve_degree_class(n)
    assert cls.coefficients == {(2, 2): 9 * (n + 1)}
    assert family_degree_upper(n) == 9 * (n + 1)
    assert family_degree_upper(n, "f1") == 9 * (n + 1)


@given(st.permutations(range(4)))
@settings(max_examples=24)
def test_chow_mul_order_invariant(perm):
    classes = [
        hyperplane_combination(P2xP2, (3, 1)),
        hyperplane_combination(P2xP2, (0, 3)),
        hyperplane_combination(P2xP2, (1, 1)),
        hyperplane_combination(P2xP2, (2, 0)),
    ]
    reference = chow_mul(classes)
    shuffled = chow_mul([classes[i] for i in perm])
    assert shuffled.coefficients == reference.coefficients


@given(a=st.integers(-5, 5), b=st.integers(-5, 5), c=st.integers(-5, 5),
       d=st.integers(-5, 5))
@settings(max_examples=40)
def test_top_coefficient_multilinear(a, b, c, d):
    # In P^1 x P^1: (a l + b m)(c l + d m) has top coefficient ad + bc
    amb = (1, 1)
    prod = chow_mul([hyperplane_combination(amb, (a, b)),
                     hyperplane_combination(amb, (c, d))])
    assert top_coefficient(prod) == a * d + b * c


# -- Hurwitz ----------------------------------------------------------------


def test_identity_cover():
    assert hurwitz_genus(1, 0, RamificationProfile(())) == 0


def test_elliptic_double_cover():
    prof = RamificationProfile(tuple(BranchPoint(f"b{i}", ((2, 1),)) for i in range(4)))
    assert hurwitz_genus(2, 0, prof) == 1


def test_validate_profile_annotations():
    n = 2
    deg, prof = family_curve_profile(n)
    checked = validate_profile(deg, prof)
    assert checked.degree == 6 * n
    excess = dict(checked.excess_per_branch)
    assert excess["double-cover-branch-1"] == 2 * n
    assert excess["infinity"] == 6 * n - 1
    assert checked.total_excess == 20 * n + 2


def test_validate_profile_rejects_bad_fiber_sum():
    with pytest.raises(DomainError) as err:
        validate_profile(2, RamificationProfile((BranchPoint("bad", ((3, 1),)),)))
    assert "bad" in str(err.value)


def test_family_genus_formula_full_range():
    for n in range(1, 101):
        deg, prof = family_curve_profile(n)
        assert hurwitz_genus(deg, 0, prof) == 4 * n + 2


def test_hurwitz_parity_of_accepted_profiles():
    for n in (1, 3, 10):
        deg, prof = family_curve_profile(n)
        checked = validate_profile(deg, prof)
        assert (deg * 2 - checked.total_excess) % 2 == 0


def test_hurwitz_rejects_inconsistent_profile():
    # degree 3 cover of P^1 with a single doubled point: 2-2g = 6 - 1 = 5, odd
    prof = RamificationProfile((BranchPoint("x", ((2, 1), (1, 1))),))
    with pytest.raises(DomainError):
        hurwitz_genus(3, 0, prof)
