import itertools
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from ntbounds import bounds as bounds_module
from ntbounds import cli, rounding
from ntbounds.bounds import (
    bound_transverse_E2,
    bound_weaktransverse_EN,
    constants_CN,
    constants_CN_expr,
    constants_D,
    constants_D_printed,
    exponents,
    family_final_bound,
    family_invariants,
)
from ntbounds.errors import DomainError
from ntbounds.rounding import (
    Direction,
    eval_const,
    LogRat,
    Prod,
    Rat,
    fraction_to_decimal,
    rat,
)

HW_F2 = Prod((LogRat(2), Rat(Fraction(1, 3))))


def test_printed_decimal_approximations():
    printed = constants_D_printed()
    assert printed == {
        "d1": "2.364e34",
        "d2_hw_coefficient": "5.319e35",
        "d2_constant_term": "9.504e35",
        "d3_constant_term": "7.279",
        "d3_hw_coefficient": "4.5",
    }


def test_d_constants_against_oracle():
    d1, d2, d3 = constants_D(rat(0), Direction.NEAREST, 256)
    with mpmath.workdps(60):
        want_d1 = Fraction(str(mpmath.mpf(2) ** 64 * 3 ** 40 / mpmath.pi ** 8))
        want_d2 = Fraction(str(
            mpmath.mpf(2) ** 62 * 3 ** 41 / mpmath.pi ** 8
            * (71 * mpmath.log(2) + 4 * mpmath.log(3))))
        want_d3 = Fraction(str(mpmath.mpf(21) / 2 * mpmath.log(2)))
    assert abs(d1.exact() - want_d1) < want_d1 * Fraction(1, 10 ** 40)
    assert abs(d2.exact() - want_d2) < want_d2 * Fraction(1, 10 ** 40)
    assert abs(d3.exact() - want_d3) < Fraction(1, 10 ** 40)


def test_d2_with_paper_hw_prints_1074():
    _, d2, _ = constants_D(HW_F2, Direction.UPPER, 256)
    assert d2.decimal(4) == "1.074e36"


def test_c_constants_examples():
    c1, c2, c3 = constants_CN(2, rat(0), Direction.NEAREST, 256)
    # C1(2) = 64 * 3^7 2^13 3^3 / (2 pi)^2
    with mpmath.workdps(50):
        want = Fraction(str(64 * mpmath.mpf(3 ** 7 * 2 ** 13 * 27) / (2 * mpmath.pi) ** 2))
    assert abs(c1.exact() - want) < want * Fraction(1, 10 ** 30)
    assert c1.decimal(3) == "784000000"  # 7.84e8
    # C3(E,2) with h_W = 0 is (14/3) log 2
    with mpmath.workdps(50):
        want3 = Fraction(str(mpmath.mpf(14) / 3 * mpmath.log(2)))
    assert abs(c3.exact() - want3) < Fraction(1, 10 ** 30)


def test_c_constants_reject_small_n():
    with pytest.raises(DomainError):
        constants_CN_expr(1, rat(0))


def test_power_bound_substitution():
    # h = 1, deg = 1, hw = 0, N = 3: bound is C1 + C2 + C3
    report = bound_weaktransverse_EN(3, rat(1), 1, rat(0))
    c1, c2, c3 = constants_CN(3, rat(0), Direction.UPPER, 256)
    total = c1.exact() + c2.exact() + c3.exact()
    assert abs(report.bound.exact() - total) < total * Fraction(1, 10 ** 40)
    assert report.theorem == "weak-transverse-power-height"


def test_power_bound_requires_n_at_least_3():
    with pytest.raises(DomainError):
        bound_weaktransverse_EN(2, rat(1), 1, rat(0))


def test_power_bound_zero_height_unit_degree():
    report = bound_weaktransverse_EN(3, rat(0), 1, rat(0))
    _, c2, c3 = constants_CN(3, rat(0), Direction.UPPER, 256)
    want = c2.exact() + c3.exact()
    assert abs(report.bound.exact() - want) < want * Fraction(1, 10 ** 40)


def test_mu_upper_tends_to_log18():
    inv = family_invariants("f2", 10 ** 6)
    mu = eval_const(inv.mu_upper, Direction.NEAREST, 128).exact()
    with mpmath.workdps(40):
        log18 = Fraction(str(mpmath.log(18)))
    assert abs(mu - log18) < Fraction(1, 10 ** 4)


def test_square_bound_substitution():
    report = bound_transverse_E2(rat(0), 1, rat(0))
    d1, d2, d3 = constants_D(rat(0), Direction.UPPER, 256)
    want = d2.exact() + d3.exact()
    assert abs(report.bound.exact() - want) < want * Fraction(1, 10 ** 35)


def test_square_bound_n1_magnitude():
    inv = family_invariants("f2", 1)
    report = bound_transverse_E2(inv.h_upper, inv.deg_upper, HW_F2)
    # pipeline evaluation lands near 8.4e39
    assert fraction_to_decimal(report.bound.exact(), 2, Direction.NEAREST) == "8.4e39"


def test_bound_monotone_in_inputs():
    rng = random.Random(5)
    for _ in range(25):
        h1 = rat(Fraction(rng.randint(0, 400), rng.randint(1, 7)))
        d1_ = rng.randint(1, 60)
        hw1 = rat(Fraction(rng.randint(0, 30), rng.randint(1, 5)))
        h2 = rat(h1.q + Fraction(rng.randint(0, 50), 3))
        d2_ = d1_ + rng.randint(0, 9)
        hw2 = rat(hw1.q + Fraction(rng.randint(0, 4), 2))
        lo = bound_transverse_E2(h1, d1_, hw1).bound.exact()
        hi = bound_transverse_E2(h2, d2_, hw2).bound.exact()
        assert lo <= hi
        lo_n = bound_weaktransverse_EN(4, h1, d1_, hw1).bound.exact()
        hi_n = bound_weaktransverse_EN(4, h2, d2_, hw2).bound.exact()
        assert lo_n <= hi_n


# -- family pipeline ---------------------------------------------------------


def test_family_invariants_values_30_digits():
    for n in (1, 2, 5, 17):
        inv = family_invariants("f2", n)
        assert inv.deg_upper == 9 * (n + 1)
        assert inv.genus == 4 * n + 2
        mu = eval_const(inv.mu_upper, Direction.NEAREST, 256).exact()
        h = eval_const(inv.h_upper, Direction.NEAREST, 256).exact()
        with mpmath.workdps(80):
            mu_want = Fraction(str(mpmath.log(18) + 3 * mpmath.log(24) / (2 * n)))
            h_want = Fraction(str(
                18 * (n + 1) * (mpmath.log(18) + 3 * mpmath.log(24) / (2 * n))))
        assert abs(mu - mu_want) < Fraction(1, 10 ** 30)
        assert abs(h - h_want) < Fraction(1, 10 ** 30) * max(1, h_want)


def test_family_invariants_chain_consistency():
    inv = family_invariants("f2", 3)
    chain = dict(inv.chain)
    assert eval_const(chain["h(zeta)"], Direction.NEAREST).exact() == 0
    # h(x1, y1) = h(x1) + h(y1)
    hx = eval_const(chain["h(x1)"], Direction.NEAREST, 128).exact()
    hy = eval_const(chain["h(y1)"], Direction.NEAREST, 128).exact()
    hp = eval_const(chain["h(x1,y1)"], Direction.NEAREST, 128).exact()
    assert abs(hp - (hx + hy)) < Fraction(1, 10 ** 25)


def test_family_invariants_reject_f1_and_bad_n():
    with pytest.raises(DomainError):
        family_invariants("f1", 2)
    with pytest.raises(DomainError):
        family_invariants("f2", 0)


def test_family_final_bound_flags_only_n1():
    rep1 = family_final_bound(1)
    assert rep1.verdict == "exceeds-closed-form"
    assert rep1.flagged
    for n in (2, 3, 10, 250, 1000):
        rep = family_final_bound(n)
        assert rep.verdict == "within-closed-form", n
        assert not rep.flagged
        assert rep.composed_total.exact() <= rep.closed_form_total


def test_family_verdict_compares_exactly_with_the_closed_form(monkeypatch):
    # closed forms within 2^-300 (relative) of the composition, far inside
    # one unit in the 256th bit: each verdict is still decided exactly
    rep = family_final_bound(2)
    up = rep.composed_total.exact()
    lo = eval_const(rep.composed.total, Direction.LOWER, 256).exact()
    assert lo < up
    eps = Fraction(1, 2 ** 300)
    for closed, verdict in ((up * (1 + eps), "within-closed-form"),
                            (up, "within-closed-form"),
                            (lo * (1 - eps), "exceeds-closed-form"),
                            ((lo + up) / 2, "indeterminate")):
        monkeypatch.setitem(bounds_module.CLOSED_FORM_COEFF, "f2", closed / 27)
        got = family_final_bound(2)
        assert got.closed_form_total == closed
        assert got.verdict == verdict
        assert got.flagged is (verdict != "within-closed-form")


def test_family_final_bound_f1_verbatim():
    rep = family_final_bound(7, "f1")
    assert rep.closed_form_coefficient == "8.253e38"
    assert rep.composed is None
    assert rep.closed_form_total == Fraction(8253) * 10 ** 35 * 8 ** 3


def test_family_coefficient_nonincreasing_in_n():
    prev = None
    for n in range(1, 40):
        rep = family_final_bound(n)
        coeff = rep.composed_total.exact() / (n + 1) ** 3
        if prev is not None:
            assert coeff <= prev + Fraction(1, 10 ** 20)
        prev = coeff


# -- exponents ---------------------------------------------------------------


def test_point_count_cross_check():
    weak = exponents("point-count", "weak-transverse-rank1", N=3)
    square = exponents("point-count", "transverse-square-rank1")
    assert [e.eta_free for e in weak.entries] == [29, 22, 21]
    assert [e.eta_free for e in square.entries] == [29, 22, 21]
    assert all(e.eta_coeff == 1 for e in weak.entries + square.entries)


def test_point_count_low_rank_reduces_to_rank1():
    for n in (3, 4, 5, 9):
        low = exponents("point-count", "weak-transverse-low-rank", N=n, t=1)
        weak = exponents("point-count", "weak-transverse-rank1", N=n)
        assert [e.eta_free for e in low.entries] == [e.eta_free for e in weak.entries]


def test_point_count_any_rank_matches_square_case():
    got = exponents("point-count", "transverse-any-rank", N=2, t=1)
    by_base = {e.base: e.eta_free for e in got.entries}
    square = {e.base: e.eta_free for e in
              exponents("point-count", "transverse-square-rank1").entries}
    assert by_base == square


def test_census_structure_matches_square_point_count():
    # the transverse-square case embeds as a weak-transverse curve in the cube
    rep = exponents("census-structure", N=3, r=2)
    s_r = {e.base: e.eta_free for e in rep.entries if e.quantity == "point-count S_r"}
    assert s_r["[k(C):k]"] == 21
    assert s_r["deg(C)"] == 22
    assert s_r["(h(C)+deg(C))*[ktor(C):ktor]"] == 29


def test_rank1_height_exponents():
    rep = exponents("rank1-height", "weak-transverse-power", N=3)
    assert [e.eta_free for e in rep.entries] == [2, 1]
    rep2 = exponents("rank1-height", "transverse-square")
    assert [e.eta_free for e in rep2.entries] == [1, 2]


def test_low_rank_reduces_to_rank1_height():
    for n in (3, 5, 8):
        low = exponents("low-rank-height", N=n, t=1)
        rank1 = exponents("rank1-height", "weak-transverse-power", N=n)
        assert [e.eta_free for e in low.entries] == [e.eta_free for e in rank1.entries]


def test_census_structure_c1_example():
    rep = exponents("census-structure", N=4, r=3)
    c1 = next(e for e in rep.entries
              if e.quantity == "point-count S_r" and e.base == "[k(C):k]")
    assert c1.eta_free == 27
    assert c1.eta_coeff == 0  # the field-degree factor carries no eta


def test_exponent_range_validation_messages():
    with pytest.raises(DomainError) as err:
        exponents("census-structure", N=4, r=2)
    assert "2r > N" in str(err.value)
    with pytest.raises(DomainError) as err:
        exponents("low-rank-height", N=4, t=2)
    assert "t < N/2" in str(err.value)
    with pytest.raises(DomainError) as err:
        exponents("transverse-rank-height", N=3, t=3)
    assert "t <= N - 1" in str(err.value)
    with pytest.raises(DomainError):
        exponents("rank1-height", "weak-transverse-power", N=2)
    with pytest.raises(DomainError):
        exponents("no-such-theorem")


def test_theorem_ids_are_pinned():
    assert bounds_module.THEOREM_IDS == {
        "rc1-anomalous": ("nontranslate", "translate", "point"),
        "rank1-height": ("weak-transverse-power", "transverse-square"),
        "low-rank-height": (),
        "transverse-rank-height": (),
        "census-structure": (),
        "point-count": ("weak-transverse-rank1", "transverse-square-rank1",
                        "weak-transverse-low-rank", "transverse-any-rank"),
    }
    assert list(bounds_module.THEOREM_IDS) == [
        "rc1-anomalous", "rank1-height", "low-rank-height", "transverse-rank-height",
        "census-structure", "point-count"]


_KNOWN = ("['census-structure', 'low-rank-height', 'point-count', 'rank1-height', "
          "'rc1-anomalous', 'transverse-rank-height']")


@pytest.mark.parametrize("theorem, case, params, message", [
    ("no-such-theorem", "", {}, f"unknown theorem id 'no-such-theorem'; known: {_KNOWN}"),
    ("rc1-anomalous", "", {"N": 4, "dim_v": 1},
     "rc1-anomalous requires a case from ('nontranslate', 'translate', 'point'), got ''"),
    ("point-count", "foo", {"N": 3},
     "point-count requires a case from ('weak-transverse-rank1', 'transverse-square-rank1', "
     "'weak-transverse-low-rank', 'transverse-any-rank'), got 'foo'"),
    ("low-rank-height", "point", {"N": 5, "t": 2}, "low-rank-height takes no case, got 'point'"),
    ("rc1-anomalous", "point", {"dim_v": 1}, "rc1-anomalous requires N and dim_v"),
    ("low-rank-height", "", {"N": 4}, "low-rank-height requires N and t"),
    ("transverse-rank-height", "", {"t": 1}, "transverse-rank-height requires N and t"),
    ("census-structure", "", {"N": 3}, "census-structure requires N and r"),
    ("rc1-anomalous", "nontranslate", {"N": 1, "dim_v": 1}, "parameters violate N >= 2"),
    ("rc1-anomalous", "translate", {"N": 4, "dim_v": 3},
     "parameters violate 1 <= dim(V) <= N - 2"),
    ("rank1-height", "weak-transverse-power", {"N": 2}, "parameters violate N >= 3"),
    ("transverse-rank-height", "", {"N": 3, "t": 0}, "parameters violate t >= 1"),
    ("point-count", "weak-transverse-low-rank", {"N": 4, "t": 2}, "parameters violate t < N/2"),
    ("point-count", "transverse-any-rank", {"N": 3, "t": 3}, "parameters violate t <= N - 1"),
    ("census-structure", "", {"N": 4, "r": 2}, "parameters violate 2r > N"),
    ("census-structure", "", {"N": 3, "r": 3}, "parameters violate r < N"),
    ("point-count", "weak-transverse-rank1", {}, "parameters violate N > 2"),
])
def test_each_exponent_refusal_message(theorem, case, params, message):
    with pytest.raises(DomainError) as err:
        exponents(theorem, case, **params)
    assert str(err.value) == message


def test_rc1_cases():
    rep = exponents("rc1-anomalous", "point", N=5, dim_v=2)
    by = {(e.quantity, e.base): e.eta_free for e in rep.entries}
    assert by[("hhat(Y)", "h(C)+deg(C)")] == 2
    assert by[("hhat(Y)", "[ktor(C):ktor]")] == 1
    assert by[("[Q(Y):Q]", "(h(C)+deg(C))*[ktor(C):ktor]")] == 3
    rep2 = exponents("rc1-anomalous", "nontranslate", N=4, dim_v=1)
    deg_entries = [e for e in rep2.entries if e.quantity == "deg(Y)"]
    assert {e.base: (e.eta_free, e.eta_coeff) for e in deg_entries} == {
        "deg(V)": (1, 0),
        "h(C)+deg(C)": (Fraction(1, 2), 1),
    }


# -- each subtree evaluated once per request -----------------------------------

_fresh_logs = itertools.count(10 ** 6 + 1)


def _fresh_height():
    """A height expression with a log argument no other request has used."""
    return Prod((LogRat(Fraction(next(_fresh_logs), 7)), Rat(Fraction(1, 3))))


@pytest.fixture
def node_evaluations(monkeypatch):
    """Counts the Sum/Prod/Pow evaluations (not remembered enclosures) by
    (node, working precision); the nodes are kept alive so ids stay unique."""
    counts, alive = Counter(), []
    for node in (rounding.Sum, rounding.Prod, rounding.Pow):
        evaluate = rounding._EVAL[node]

        def counting(expr, precision, wp, evaluate=evaluate):
            counts[id(expr), wp] += 1
            alive.append(expr)
            return evaluate(expr, precision, wp)

        monkeypatch.setitem(rounding._EVAL, node, counting)
    return counts


def _audit_cli(tmp_path):
    out = tmp_path / "audit.json"
    assert cli.main(["family-audit", "--family", "f2", "--n", "5", "--precision", "256",
                     "--out", str(out)]) == 0


_REQUESTS = {
    "square": lambda tmp_path: bound_transverse_E2(_fresh_height(), 7, _fresh_height(), 256),
    "power": lambda tmp_path: bound_weaktransverse_EN(4, _fresh_height(), 3, _fresh_height(),
                                                      256),
    "family": lambda tmp_path: family_final_bound(5, "f2", 256),
    "family-audit-cli": _audit_cli,
}


@pytest.mark.parametrize("request_kind", sorted(_REQUESTS))
def test_each_subtree_is_evaluated_once_per_request(request_kind, node_evaluations,
                                                     tmp_path):
    _REQUESTS[request_kind](tmp_path)
    node_evaluations.clear()
    _REQUESTS[request_kind](tmp_path)  # the repeated request: earlier tests do not matter
    assert node_evaluations, "the request evaluated no node"
    assert max(node_evaluations.values()) == 1


def test_family_audit_builds_the_invariants_once_per_n(monkeypatch, tmp_path):
    # family_invariants is the only caller of family_curve_profile
    calls = Counter()
    real = bounds_module.family_curve_profile

    def counting(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(bounds_module, "family_curve_profile", counting)
    out = tmp_path / "audit.json"
    assert cli.main(["family-audit", "--family", "f2", "--n-range", "1:3",
                     "--out", str(out)]) == 0
    assert calls == {1: 1, 2: 1, 3: 1}
