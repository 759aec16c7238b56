"""Evaluators for the explicit height-bound constants, the full curve-family
audit pipeline, and exact exponent calculators for the non-effective theorems.

All constants are built as exact ConstExpr trees and evaluated once, at report
time, with directed rounding; printed approximations use UPPER-directed
significant-figure rounding (sound for upper bounds, and it reproduces the
published 4-figure values digit for digit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chow_hurwitz import family_curve_profile, family_degree_upper, hurwitz_genus
from .errors import DomainError
from .rounding import (
    BoundedReal,
    ConstExpr,
    Direction,
    LogRat,
    Pow,
    Prod,
    Rat,
    Sum,
    eval_const,
    fraction_to_decimal,
    pi_pow,
    rat,
    unit_ball_volume,
)

__all__ = [
    "BoundReport",
    "constants_CN_expr",
    "constants_CN",
    "constants_D_expr",
    "constants_D",
    "bound_transverse_E2",
    "bound_weaktransverse_EN",
    "FamilyInvariants",
    "family_invariants",
    "FamilyBoundReport",
    "family_final_bound",
    "ExponentEntry",
    "ExponentReport",
    "exponents",
    "THEOREM_IDS",
    "CLOSED_FORM_COEFF",
]

@dataclass(frozen=True)
class BoundReport:
    theorem: str
    inputs: dict
    intermediates: dict  # name -> BoundedReal
    bound: BoundedReal
    total: Optional[ConstExpr] = None  # the tree `bound` is the UPPER rounding of
    exponents_used: tuple = ()
    notes: tuple = ()


# ---------------------------------------------------------------------------
# Explicit constants
# ---------------------------------------------------------------------------


def constants_CN_expr(N: int, h_w: ConstExpr) -> tuple[ConstExpr, ConstExpr, ConstExpr]:
    """The three constants of the weak-transverse power bound, N >= 2.

    C1(N) = (N!)^N N^(3N-2) (3^(N^2+N+1) 2^(2N^2+3N-1) (N+1)^(N+1) / (w_N w_(N-1))^2)^(N-1)
    C2(E,N) = C1(N) (3^N log2 / 2 + 12N log2 + N log3 + 6N h_W(E))
    C3(E,N) = (7 N^2 / 6) log2 + (N^2 / 2) h_W(E)
    with w_r the volume of the euclidean unit ball in R^r.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    inner_rational = 3 ** (N * N + N + 1) * 2 ** (2 * N * N + 3 * N - 1) * (N + 1) ** (N + 1)
    inner = Prod((Rat(Fraction(inner_rational)),
                  Pow(Prod((unit_ball_volume(N), unit_ball_volume(N - 1))), -2)))
    c1 = Prod((Rat(Fraction(math.factorial(N) ** N * N ** (3 * N - 2))), Pow(inner, N - 1)))
    bracket = Sum((
        Prod((Rat(Fraction(3 ** N, 2)), LogRat(Fraction(2)))),
        Prod((Rat(Fraction(12 * N)), LogRat(Fraction(2)))),
        Prod((Rat(Fraction(N)), LogRat(Fraction(3)))),
        Prod((Rat(Fraction(6 * N)), h_w)),
    ))
    c2 = Prod((c1, bracket))
    c3 = Sum((
        Prod((Rat(Fraction(7 * N * N, 6)), LogRat(Fraction(2)))),
        Prod((Rat(Fraction(N * N, 2)), h_w)),
    ))
    return c1, c2, c3


def constants_CN(N: int, h_w: ConstExpr, direction: Direction = Direction.UPPER,
                 precision: int = 256) -> tuple[BoundedReal, BoundedReal, BoundedReal]:
    c1, c2, c3 = constants_CN_expr(N, h_w)
    return tuple(eval_const(c, direction, precision) for c in (c1, c2, c3))


# The input-free parts of D1-D3, built once: a node remembers its last
# enclosure, so these are evaluated once per precision, not once per request.
# A product or sum folds left, so Prod((Prod((a, b)), c)) has the endpoints of
# Prod((a, b, c)); only left prefixes are split off.
_D1 = Prod((Rat(Fraction(2 ** 64 * 3 ** 40)), pi_pow(-8)))
_D2_PREFIX = Prod((Rat(Fraction(2 ** 62 * 3 ** 41)), pi_pow(-8)))
_D2_LOGS = Sum((
    Prod((Rat(Fraction(71)), LogRat(Fraction(2)))),
    Prod((Rat(Fraction(4)), LogRat(Fraction(3)))),
))
_D3_HW_COEFFICIENT = Fraction(9, 2)
_D3_LOG = Prod((Rat(Fraction(21, 2)), LogRat(Fraction(2))))

# The published 4-significant-figure approximations: D2 and D3 split as the
# coefficient of h_W plus the constant term.  D3's coefficient is exact, so it
# is rendered once.
_D_PRINTED = (
    ("d1", _D1),
    ("d2_hw_coefficient",
     Prod((Rat(Fraction(2 ** 62 * 3 ** 41 * 30)), pi_pow(-8)))),
    ("d2_constant_term", Prod((_D2_PREFIX, _D2_LOGS))),
    ("d3_constant_term", _D3_LOG),
)
_D3_HW_COEFFICIENT_PRINTED = fraction_to_decimal(_D3_HW_COEFFICIENT, 4, Direction.UPPER)


def constants_D_expr(h_w: ConstExpr) -> tuple[ConstExpr, ConstExpr, ConstExpr]:
    """The transverse-in-E^2 constants.

    D1 = 2^64 3^40 / pi^8
    D2(E) = 2^62 3^41 / pi^8 * (71 log2 + 4 log3 + 30 h_W(E))
    D3(E) = (9/2) h_W(E) + (21/2) log2
    """
    d2 = Prod((_D2_PREFIX, Sum((_D2_LOGS, Prod((Rat(Fraction(30)), h_w))))))
    d3 = Sum((Prod((Rat(_D3_HW_COEFFICIENT), h_w)), _D3_LOG))
    return _D1, d2, d3


def constants_D(h_w: ConstExpr, direction: Direction = Direction.UPPER,
                precision: int = 256) -> tuple[BoundedReal, BoundedReal, BoundedReal]:
    d1, d2, d3 = constants_D_expr(h_w)
    return tuple(eval_const(d, direction, precision) for d in (d1, d2, d3))


def constants_D_printed(precision: int = 256) -> dict:
    """The published 4-significant-figure approximations (UPPER-rounded)."""
    out = {name: eval_const(expr, Direction.UPPER, precision).decimal(4)
           for name, expr in _D_PRINTED}
    out["d3_hw_coefficient"] = _D3_HW_COEFFICIENT_PRINTED
    return out


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def bound_transverse_E2(h_c: ConstExpr, deg_c: int, h_w: ConstExpr,
                        precision: int = 256) -> BoundReport:
    """Height bound D1 h(C) (deg C)^2 + D2(E) (deg C)^3 + D3(E) for transverse
    curves in the square of a non-CM curve, all terms UPPER-rounded."""
    if deg_c < 1:
        raise DomainError("deg_c must be >= 1")
    d1, d2, d3 = constants_D_expr(h_w)
    term_height = Prod((d1, h_c, Rat(Fraction(deg_c ** 2))))
    term_degree = Prod((d2, Rat(Fraction(deg_c ** 3))))
    total = Sum((term_height, term_degree, d3))
    inter = {
        name: eval_const(expr, Direction.UPPER, precision)
        for name, expr in (("d1", d1), ("d2", d2), ("d3", d3),
                           ("term_height", term_height), ("term_degree", term_degree))
    }
    return BoundReport(
        theorem="transverse-square-height",
        inputs={"deg_c": deg_c, "h_c": "expr", "h_w": "expr"},
        intermediates=inter,
        bound=eval_const(total, Direction.UPPER, precision),
        total=total,
        exponents_used=(("deg_c with height term", 2), ("deg_c", 3)),
        notes=("rank-1 coordinate module; non-CM explicit constants",),
    )


def bound_weaktransverse_EN(N: int, h_c: ConstExpr, deg_c: int, h_w: ConstExpr,
                            precision: int = 256) -> BoundReport:
    """Height bound C1(N) h(C) (deg C)^(N-1) + C2(E,N) (deg C)^N + C3(E,N), N >= 3."""
    if deg_c < 1:
        raise DomainError("deg_c must be >= 1")
    if N < 3:
        raise DomainError("N must be >= 3 (use the transverse-square branch for N = 2)")
    c1, c2, c3 = constants_CN_expr(N, h_w)
    total = Sum((
        Prod((c1, h_c, Rat(Fraction(deg_c ** (N - 1))))),
        Prod((c2, Rat(Fraction(deg_c ** N)))),
        c3,
    ))
    inter = {
        "c1": eval_const(c1, Direction.UPPER, precision),
        "c2": eval_const(c2, Direction.UPPER, precision),
        "c3": eval_const(c3, Direction.UPPER, precision),
    }
    return BoundReport(
        theorem="weak-transverse-power-height",
        inputs={"N": N, "deg_c": deg_c, "h_c": "expr", "h_w": "expr"},
        intermediates=inter,
        bound=eval_const(total, Direction.UPPER, precision),
        total=total,
        exponents_used=(("deg_c with height term", N - 1), ("deg_c", N)),
    )


# ---------------------------------------------------------------------------
# The curve-family pipeline
# ---------------------------------------------------------------------------

# closed-form coefficients of the published per-family bounds, exact
CLOSED_FORM_COEFF = {
    "f1": Fraction(8253) * 10 ** 35,
    "f2": Fraction(9689) * 10 ** 35,
}

# h_W of the ambient curve of the second family, y^2 = x^3 - x - 2
_F2_HW_EXPR = Prod((Rat(Fraction(1, 3)), LogRat(Fraction(2))))

# The logs and the steps of the second family's coordinate-height chain that
# do not depend on n, built once.
_LOG18 = LogRat(Fraction(18))
_LOG24 = LogRat(Fraction(24))
_F2_H_Y2 = Prod((Rat(Fraction(1, 2)), LogRat(Fraction(6))))
_F2_H2_PT2 = Prod((Rat(Fraction(1, 2)), _LOG18))


@dataclass(frozen=True)
class FamilyInvariants:
    family: str
    n: int
    deg_upper: int
    genus: int
    mu_upper: ConstExpr
    h_upper: ConstExpr
    chain: tuple  # (quantity, ConstExpr) steps of the coordinate-height chain


def family_invariants(family: str, n: int) -> FamilyInvariants:
    """Degree (via the Chow product), genus (via Hurwitz), and the essential
    minimum / normalized height upper bounds for the second family.

    The chain walks points ((x1,y1), (zeta,y2)) with zeta a root of unity:
    each coordinate's height is bounded from the defining equations, giving
    mu <= log 18 + 3 log 24 / (2n) and h <= 2 deg mu.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if family != "f2":
        raise DomainError(
            "height chain is derived only for the x1^n + 1 = y2 family (f2); "
            "the x1^n = y2 family shares the degree bound but not the chain")
    deg = family_degree_upper(n, family)
    cover_deg, profile = family_curve_profile(n)
    genus = hurwitz_genus(cover_deg, 0, profile)

    # Equal subtrees are one object, so each is evaluated once.
    x1_term = Prod((Rat(Fraction(3, 2 * n)), _LOG24))
    h_x1 = Prod((Rat(Fraction(1, 2 * n)), _LOG24))
    h_y1 = Sum((Prod((Rat(Fraction(1, n)), _LOG24)), _F2_H_Y2))
    h_pt1 = Sum((x1_term, _F2_H_Y2))
    h2_pt1 = Sum((x1_term, _F2_H2_PT2))
    h2_q = Sum((x1_term, _LOG18))
    mu = Sum((_LOG18, x1_term))
    h_upper = Prod((Rat(Fraction(2 * deg)), mu))
    chain = (
        ("h(zeta)", rat(0)),
        ("h(y2)", _F2_H_Y2),
        ("h(x1)", h_x1),
        ("h(y1)", h_y1),
        ("h(x1,y1)", h_pt1),
        ("h(zeta,y2)", _F2_H_Y2),
        ("h2(x1,y1)", h2_pt1),
        ("h2(zeta,y2)", _F2_H2_PT2),
        ("h2(point)", h2_q),
        ("mu_upper", mu),
        ("h_upper = 2*deg*mu", h_upper),
    )
    return FamilyInvariants(family, n, deg, genus, mu, h_upper, chain)


@dataclass(frozen=True)
class FamilyBoundReport:
    family: str
    n: int
    deg_upper: int
    genus: Optional[int]
    composed: Optional[BoundReport]
    composed_total: Optional[BoundedReal]
    closed_form_total: Fraction
    closed_form_coefficient: str
    verdict: str
    flagged: bool
    notes: tuple
    # UPPER values of mu, h and each (label, value) step of the height chain
    mu_upper: Optional[BoundedReal] = None
    h_upper: Optional[BoundedReal] = None
    height_chain: tuple = ()


def family_final_bound(n: int, family: str = "f2",
                       precision: int = 256) -> FamilyBoundReport:
    """Compose the family invariants with the transverse-square bound and
    compare it against the published closed form coefficient * (n+1)^3.

    The comparison is exact: within when the UPPER composition is at most the
    closed form, exceeds when the LOWER one is above it, else indeterminate.

    The n = 1 comparison is known to come out the other way (the composition
    exceeds the printed closed form); it is reported flagged, not failed.
    """
    if family not in CLOSED_FORM_COEFF:
        raise DomainError(f"unknown family {family!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    closed_total = CLOSED_FORM_COEFF[family] * (n + 1) ** 3
    closed_str = fraction_to_decimal(CLOSED_FORM_COEFF[family], 4, Direction.UPPER)
    if family == "f1":
        deg = family_degree_upper(n, "f1")
        return FamilyBoundReport(
            family="f1", n=n, deg_upper=deg, genus=None,
            composed=None, composed_total=None,
            closed_form_total=closed_total,
            closed_form_coefficient=closed_str,
            verdict="closed-form-only",
            flagged=False,
            notes=("published closed form reported verbatim; the coordinate "
                   "height chain for this family is not derived here",),
        )
    inv = family_invariants("f2", n)
    report = bound_transverse_E2(inv.h_upper, inv.deg_upper, _F2_HW_EXPR, precision)
    composed_up = report.bound
    composed_lo = eval_const(report.total, Direction.LOWER, precision)
    if composed_up.exact() <= closed_total:
        verdict, flagged = "within-closed-form", False
        notes = ()
    elif composed_lo.exact() > closed_total:
        verdict, flagged = "exceeds-closed-form", True
        notes = ("composition of the published intermediate bounds exceeds the "
                 "printed closed form at this n; recorded as an unverified "
                 "discrepancy, not an error",)
    else:
        verdict, flagged = "indeterminate", True
        notes = ("comparison indeterminate at this precision",)
    return FamilyBoundReport(
        family="f2", n=n, deg_upper=inv.deg_upper, genus=inv.genus,
        composed=report, composed_total=composed_up,
        mu_upper=eval_const(inv.mu_upper, Direction.UPPER, precision),
        h_upper=eval_const(inv.h_upper, Direction.UPPER, precision),
        height_chain=tuple((label, eval_const(expr, Direction.UPPER, precision))
                           for label, expr in inv.chain),
        closed_form_total=closed_total,
        closed_form_coefficient=closed_str,
        verdict=verdict, flagged=flagged, notes=notes,
    )


# ---------------------------------------------------------------------------
# Exponent calculators (the non-effective theorems: structure only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentEntry:
    quantity: str     # what is being bounded
    base: str         # the quantity raised to the exponent
    eta_free: Fraction
    eta_coeff: Fraction = Fraction(1)


@dataclass(frozen=True)
class ExponentReport:
    theorem: str
    case: str
    params: dict
    entries: tuple[ExponentEntry, ...]


_HD = "h(C)+deg(C)"
_KTOR = "[ktor(C):ktor]"
_HD_KTOR = "(h(C)+deg(C))*[ktor(C):ktor]"
_KDEG = "[k(C):k]"
_DEG = "deg(C)"
_HDG = "h(C)+(hhat(g)+1)*deg(C)"
_KTOR_G = "[ktor(C x g):ktor]"
_KDEG_G = "[k(C x g):k]"
_HDG_KTOR = "[ktor(C x g):ktor]*(h(C)+(hhat(g)+1)*deg(C))"
_HHAT_C = "hhat(C cap Gamma)"

# A condition is (text, test): the first whose test fails is refused as
# "parameters violate {text}".  Tests and entry builders take N, r, t and
# dim_v by keyword; a test sees None for a parameter its theorem does not
# require (see _REQUIRED), so a test that reads one checks it first.
_T_AT_LEAST_1 = ("t >= 1", lambda N, t, **_: N is not None and t is not None and t >= 1)
_T_BELOW_HALF_N = ("t < N/2", lambda N, t, **_: 2 * t < N)
_T_BELOW_N = ("t <= N - 1", lambda N, t, **_: t <= N - 1)
_RC1 = (("N >= 2", lambda N, **_: N >= 2),
        ("1 <= dim(V) <= N - 2", lambda N, dim_v, **_: 1 <= dim_v <= N - 2))


def _census_structure(N: int, r: int, **_) -> tuple[ExponentEntry, ...]:
    c1 = Fraction(r * N * (2 * N + 1), 2 * (r - 1))
    c2 = Fraction(r * (N - r) * (2 * r * N + 2 * r - 2 + 2 * N * N - N),
                  2 * (2 * r - N) * (r - 1))
    return (
        ExponentEntry("subgroup-count M_r", _HD_KTOR, Fraction(r * (N - r) * N, 2 * r - N)),
        ExponentEntry("deg(H_i)", _HD_KTOR,
                      Fraction(r * (N - r) * (N + 2 * r - 2), 2 * (r - 1) * (2 * r - N))),
        ExponentEntry("deg(H_i)", f"{_KDEG}*{_DEG}", Fraction(N * r, 2 * (r - 1))),
        ExponentEntry("hhat(Y0)", _HD, Fraction(r, 2 * r - N)),
        ExponentEntry("hhat(Y0)", _KTOR, Fraction(N - r, 2 * r - N)),
        ExponentEntry("[k(Y0):Q]", f"{_KDEG}*{_DEG}", Fraction(r, r - 1)),
        ExponentEntry("[k(Y0):Q]", _HD_KTOR, Fraction(r * (N - r), (2 * r - N) * (r - 1))),
        ExponentEntry("point-count S_r", _KDEG, c1, Fraction(0)),
        ExponentEntry("point-count S_r", _DEG, c1 + 1),
        ExponentEntry("point-count S_r", _HD_KTOR, c2),
    )


def _transverse_any_rank_count(N: int, t: int, **_) -> tuple[ExponentEntry, ...]:
    big = Fraction((N + t) * N * (2 * N + 2 * t + 1), 2 * (N - 1))
    return (
        ExponentEntry("count", _DEG, 1 + big),
        ExponentEntry("count", _KDEG_G, big),
        ExponentEntry("count", _HDG_KTOR,
                      Fraction(N * t * (4 * N * N + 2 * t * t + 6 * N * t + N - t - 2),
                               2 * (N - t) * (N - 1))),
    )


# (theorem, case) -> (conditions, entries builder); case "" for a theorem
# without cases.  THEOREM_IDS lists the theorems and cases in this order.
_THEOREMS = {
    ("rc1-anomalous", "nontranslate"): (_RC1, lambda N, dim_v, **_: (
        ExponentEntry("h(Y)", _HD, Fraction(N - 1, N - dim_v - 1)),
        ExponentEntry("deg(Y)", "deg(V)", Fraction(1), Fraction(0)),
        ExponentEntry("deg(Y)", _HD, Fraction(dim_v, N - dim_v - 1)),
    )),
    ("rc1-anomalous", "translate"): (_RC1, lambda N, dim_v, **_: (
        ExponentEntry("h(Y)", _HD, Fraction(N - 2, N - dim_v - 1)),
        ExponentEntry("h(Y)", _KTOR, Fraction(dim_v - 1, N - dim_v - 1)),
        ExponentEntry("deg(Y)", "deg(V)", Fraction(1), Fraction(0)),
        ExponentEntry("deg(Y)", _HD_KTOR, Fraction(dim_v - 1, N - dim_v - 1)),
    )),
    ("rc1-anomalous", "point"): (_RC1, lambda N, dim_v, **_: (
        ExponentEntry("hhat(Y)", _HD, Fraction(N - 1, N - dim_v - 1)),
        ExponentEntry("hhat(Y)", _KTOR, Fraction(dim_v, N - dim_v - 1)),
        ExponentEntry("[Q(Y):Q]", _HD_KTOR,
                      Fraction((dim_v + 1) * (N - 1), (N - dim_v - 1) ** 2)),
    )),
    ("rank1-height", "weak-transverse-power"): (
        (("N >= 3", lambda N, **_: N is not None and N >= 3),), lambda N, **_: (
            ExponentEntry(_HHAT_C, _HD, Fraction(N - 1, N - 2)),
            ExponentEntry(_HHAT_C, _KTOR, Fraction(1, N - 2)),
        )),
    ("rank1-height", "transverse-square"): ((), lambda **_: (
        ExponentEntry(_HHAT_C, _KTOR_G, Fraction(1)),
        ExponentEntry(_HHAT_C, _HDG, Fraction(2)),
    )),
    ("low-rank-height", ""): ((_T_AT_LEAST_1, _T_BELOW_HALF_N), lambda N, t, **_: (
        ExponentEntry(_HHAT_C, _HD, Fraction(N - t, N - 2 * t)),
        ExponentEntry(_HHAT_C, _KTOR, Fraction(t, N - 2 * t)),
    )),
    ("transverse-rank-height", ""): ((_T_AT_LEAST_1, _T_BELOW_N), lambda N, t, **_: (
        ExponentEntry(_HHAT_C, _KTOR_G, Fraction(t, N - t)),
        ExponentEntry(_HHAT_C, _HDG, Fraction(N, N - t)),
    )),
    # r < N < 2r forces r >= 2.
    ("census-structure", ""): (
        (("2r > N", lambda N, r, **_: 2 * r > N), ("r < N", lambda N, r, **_: r < N)),
        _census_structure),
    ("point-count", "weak-transverse-rank1"): (
        (("N > 2", lambda N, **_: N is not None and N > 2),), lambda N, **_: (
            ExponentEntry("count", _HD_KTOR,
                          Fraction((N - 1) * (4 * N * N - N - 4), 2 * (N - 2) ** 2)),
            ExponentEntry("count", _DEG, Fraction(2 * N ** 3 - N * N + N - 4, 2 * (N - 2))),
            ExponentEntry("count", _KDEG, Fraction(N * (N - 1) * (2 * N + 1), 2 * (N - 2))),
        )),
    ("point-count", "transverse-square-rank1"): ((), lambda **_: (
        ExponentEntry("count", _HDG_KTOR, Fraction(29)),
        ExponentEntry("count", _DEG, Fraction(22)),
        ExponentEntry("count", _KDEG_G, Fraction(21)),
    )),
    ("point-count", "weak-transverse-low-rank"): (
        (_T_AT_LEAST_1, _T_BELOW_HALF_N), lambda N, t, **_: (
            ExponentEntry("count", _HD_KTOR,
                          Fraction(t * (N - t) * (4 * N * N - 2 * N * t + N - 2 * t - 2),
                                   2 * (N - 2 * t) * (N - t - 1))),
            ExponentEntry("count", _DEG,
                          1 + Fraction(N * (2 * N + 1) * (N - t), 2 * (N - t - 1))),
            ExponentEntry("count", _KDEG, Fraction(N * (2 * N + 1) * (N - t), 2 * (N - t - 1))),
        )),
    # 1 <= t <= N - 1 forces N >= 2.
    ("point-count", "transverse-any-rank"): (
        (_T_AT_LEAST_1, _T_BELOW_N), _transverse_any_rank_count),
}

# The parameters a theorem refuses to run without, before any condition.
_REQUIRED = {
    "rc1-anomalous": ("N", "dim_v"),
    "low-rank-height": ("N", "t"),
    "transverse-rank-height": ("N", "t"),
    "census-structure": ("N", "r"),
}

THEOREM_IDS = {theorem: tuple(c for th, c in _THEOREMS if th == theorem and c)
               for theorem, _ in _THEOREMS}


def exponents(theorem: str, case: str = "", N: Optional[int] = None,
              r: Optional[int] = None, t: Optional[int] = None,
              dim_v: Optional[int] = None) -> ExponentReport:
    """Exact rational exponents (eta-free part, eta coefficient) of the
    quantitative theorems; the non-effective multiplicative constants are
    deliberately not produced."""
    if theorem not in THEOREM_IDS:
        raise DomainError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREM_IDS)}")
    if (theorem, case) not in _THEOREMS:
        cases = THEOREM_IDS[theorem]
        raise DomainError(f"{theorem} requires a case from {cases}, got {case!r}" if cases
                          else f"{theorem} takes no case, got {case!r}")
    given = {"N": N, "r": r, "t": t, "dim_v": dim_v}
    required = _REQUIRED.get(theorem, ())
    if any(given[name] is None for name in required):
        raise DomainError(f"{theorem} requires {' and '.join(required)}")
    conditions, build = _THEOREMS[theorem, case]
    for text, holds in conditions:
        if not holds(**given):
            raise DomainError(f"parameters violate {text}")
    params = {name: v for name, v in given.items() if v is not None}
    return ExponentReport(theorem, case, params, build(**given))
