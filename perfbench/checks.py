"""Output checks.  Each check raises CheckFailed with a reason.

Checks run outside the timed region and with tracing idle.  Where a check
needs a reference value it uses an independent route: a LOWER-directed twin
evaluation for every UPPER value, exact group-law arithmetic for search hits,
the brute-force oracle (or a closed-form lattice count) for censuses.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ntbounds import bounds, bruteforce, elliptic, presets, rounding, subgroups
from ntbounds.cli import parse_height_expr
from ntbounds.rings import ring_by_name

# Family f1 on E: y^2 = x^3 + x - 1 has exactly these hits for 25 <= B <= 200
# and every n (the acceptance criterion pins B = 25, n = 1..5).
F1_FOUND = {(("1", "-1"), ("1", "1")), (("1", "1"), ("1", "1"))}


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _hw_expr(hw: tuple[str, str]):
    flag, value = hw
    if flag == "--curve":
        curve, _gen = presets.ambient_curve(value)
        return elliptic.weierstrass_height_expr(curve)
    return parse_height_expr(value)


def _upper_not_below_lower(label: str, value: dict, expr, precision: int) -> None:
    require(value["direction"] == "upper", f"{label}: direction {value['direction']}")
    require(value["precision_bits"] == precision, f"{label}: precision {value['precision_bits']}")
    lower = rounding.eval_const(expr, rounding.Direction.LOWER, precision).exact()
    require(Fraction(value["value_decimal"]) >= lower,
            f"{label}: UPPER {value['value_decimal']} below its LOWER twin")


def _bound_total(k1, k2, k3, h_c, deg: int, e: int):
    """k1 h deg^e + k2 deg^(e+1) + k3, the shape of every explicit height bound."""
    R = rounding.Rat
    return rounding.Sum((rounding.Prod((k1, h_c, R(Fraction(deg ** e)))),
                         rounding.Prod((k2, R(Fraction(deg ** (e + 1))))),
                         k3))


def check_constants(info: dict, payload: dict) -> None:
    require(payload["kind"] == "constants", "kind")
    hw = _hw_expr(info["hw"])
    if info["set"] == "d":
        names, exprs = ("d1", "d2", "d3"), bounds.constants_D_expr(hw)
    else:
        require(payload["N"] == info["N"], "N echo")
        names, exprs = ("c1", "c2", "c3"), bounds.constants_CN_expr(info["N"], hw)
    for name, expr in zip(names, exprs):
        _upper_not_below_lower(name, payload["values"][name], expr, info["precision"])


def check_bound(info: dict, payload: dict) -> None:
    require(payload["kind"] == "bound", "kind")
    hw = _hw_expr(info["hw"])
    h_c = parse_height_expr(info["h_c"])
    prec, deg = info["precision"], info["deg_c"]
    if info["branch"] == "square":
        names, exprs = ("d1", "d2", "d3"), bounds.constants_D_expr(hw)
        e = 2
    else:
        names, exprs = ("c1", "c2", "c3"), bounds.constants_CN_expr(info["N"], hw)
        e = info["N"] - 1
    for name, expr in zip(names, exprs):
        _upper_not_below_lower(name, payload["intermediates"][name], expr, prec)
    _upper_not_below_lower("bound", payload["bound"], _bound_total(*exprs, h_c, deg, e), prec)


def check_family_audit(info: dict, payload: dict) -> None:
    require(payload["kind"] == "family-audit", "kind")
    (entry,) = payload["entries"]
    n, family, prec = info["n"], info["family"], info["precision"]
    require(entry["n"] == n and entry["family"] == family, "n/family echo")
    require(entry["degree_upper"] == 9 * (n + 1), f"degree {entry['degree_upper']} != 9(n+1)")
    if family == "f1":
        require(entry["flagged"] is False, "f1 flagged")
        return
    require(entry["genus"] == 4 * n + 2, f"genus {entry['genus']} != 4n+2")
    require(entry["flagged"] == (n == 1), f"flag at n={n}: {entry['flagged']}")
    inv = bounds.family_invariants("f2", n)
    _upper_not_below_lower("mu_upper", entry["mu_upper"], inv.mu_upper, prec)
    _upper_not_below_lower("h_upper", entry["h_upper"], inv.h_upper, prec)
    for label, expr in inv.chain:
        _upper_not_below_lower(label, entry["height_chain"][label], expr, prec)
    hw = rounding.Prod((rounding.Rat(Fraction(1, 3)), rounding.LogRat(Fraction(2))))
    total = _bound_total(*bounds.constants_D_expr(hw), inv.h_upper, inv.deg_upper, 2)
    _upper_not_below_lower("composed_total", entry["composed_total"], total, prec)


def check_exponents(info: dict, payload: dict) -> None:
    require(payload["kind"] == "exponents", "kind")
    require(payload["theorem"] == info["theorem"] and payload["case"] == info["case"],
            "theorem/case echo")
    require(payload["eta_constants_not_produced"] is True, "eta constants flag")
    require(len(payload["entries"]) >= 2, "too few exponent entries")
    for entry in payload["entries"]:
        for key in ("eta_free", "eta_coefficient"):
            Fraction(entry[key])  # exact rationals; raises ValueError otherwise


def _point(pair: list[str]) -> elliptic.ECPoint:
    return elliptic.ECPoint.affine(Fraction(pair[0]), Fraction(pair[1]))


def check_search(info: dict, payload: dict) -> None:
    require(payload["kind"] == "search", "kind")
    family, n = info["family"], info["n"]
    require(payload["family"] == family and payload["n"] == n, "family/n echo")
    require(payload["height_bound"] == info["B"], "height bound echo")
    require(payload["pairs_scanned"] == payload["candidate_points"] ** 2,
            "pairs scanned != candidates^2")
    curve, _gen = presets.ambient_curve(family)
    shift = 0 if family == "f1" else 1
    for hit in payload["found"]:
        p1, p2 = _point(hit["p1"]), _point(hit["p2"])
        require(curve.contains(p1) and curve.contains(p2), "hit off the curve")
        require(p1.x ** n + shift == p2.y, "hit fails the family equation")
    if family == "f1" and 25 <= Fraction(info["B"]) <= 200:
        got = {(tuple(h["p1"]), tuple(h["p2"])) for h in payload["found"]}
        require(got == F1_FOUND, f"f1 found set {sorted(got)}")


def check_census(info: dict, payload: dict) -> None:
    require(payload["kind"] == "census", "kind")
    N, T = info["N"], info["T"]
    require((payload["ring"], payload["N"], payload["r"], payload["max_degree"]) ==
            (info["ring"], N, info["r"], info["dmax"]), "shape echo")
    require(payload["torsion_order_bound"] == T, "torsion bound echo")
    require(payload["torsion_total"] == str(sum(i ** (2 * N) for i in range(1, T + 1))),
            "torsion_total")
    total = payload["total_matrices"]
    require(payload["product_bound"] == str(total * T ** (2 * N + 1)), "product_bound")
    buckets = payload["degree_buckets"]
    require(sum(c for _, c in buckets) == total, "bucket counts do not sum to total")
    acc, cumulative = 0, []
    for d, c in buckets:
        acc += c
        cumulative.append([d, acc])
    require(payload["cumulative_counts"] == cumulative, "cumulative counts")


CHECKS = {
    "constants": check_constants,
    "bound": check_bound,
    "family-audit": check_family_audit,
    "exponents": check_exponents,
    "search": check_search,
    "census": check_census,
}


def check_output(kind: str, info: dict, blob: bytes) -> dict:
    try:
        payload = json.loads(blob)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    require(payload.get("schema_version") == 1, "schema version")
    CHECKS[kind](info, payload)
    return payload


# ---------------------------------------------------------------------------
# Per-shape census oracle (after the timed runs)
# ---------------------------------------------------------------------------


def sublattice_count(N: int, m: int) -> int:
    """Number of sublattices of index m in Z^N: the Dirichlet coefficients of
    zeta(s) zeta(s-1) ... zeta(s-N+1)."""
    table = {k: 1 for k in range(1, m + 1)}  # rank 1: one sublattice per index
    for rank in range(2, N + 1):
        table = {k: sum(table[k // d] * d ** (rank - 1)
                        for d in range(1, k + 1) if k % d == 0)
                 for k in range(1, m + 1)}
    return table[m]


def check_census_shape(ring_name: str, N: int, r: int, dmax: int, buckets: list) -> None:
    """Compare the reported degree buckets of one shape with an independent count."""
    ring = ring_by_name(ring_name)
    if r == N and ring_name == "z":
        # full rank over Z: degree det^2, classes = sublattices of index |det|
        expected = []
        m = 1
        while m * m <= dmax:
            expected.append([m * m, sublattice_count(N, m)])
            m += 1
        require(buckets == expected, f"full-rank census {buckets} != lattice count {expected}")
        return
    reference = subgroups.enumerate_matrices(ring, N, r, dmax)
    by_degree: dict[int, int] = {}
    for m in reference:
        d = bruteforce.oracle_degree(ring, m.entries)
        by_degree[d] = by_degree.get(d, 0) + 1
    require(buckets == [[d, c] for d, c in sorted(by_degree.items())],
            "reported buckets differ from the oracle degrees of the classes")
    raw = bruteforce.oracle_enumerate(ring, N, r, dmax)
    stats = bruteforce.match_against(ring, raw, reference)
    require(not stats["unmatched"], f"{len(stats['unmatched'])} oracle matrices unmatched")
    require(not stats["ambiguous"], f"{len(stats['ambiguous'])} oracle matrices ambiguous")
    require(all(h >= 1 for h in stats["matched"]), "a class no oracle matrix reaches")
