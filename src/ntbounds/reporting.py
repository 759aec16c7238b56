"""Canonical JSON report emission: sorted keys, decimal strings (never binary
floats), explicit precision and rounding direction, schema version, byte-exact
reproducibility for identical logical inputs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .rounding import (BoundedReal, Direction, fraction_to_decimal, integer_digits,
                       rational_digits)

if TYPE_CHECKING:  # the report types only annotate; loading them would load their modules
    from .bounds import BoundReport, ExponentReport, FamilyBoundReport
    from .search import SearchReport
    from .subgroups import CensusReport

__all__ = [
    "SCHEMA_VERSION",
    "canonical_dumps",
    "bounded_real_payload",
    "height_payload",
    "bound_report_payload",
    "family_audit_payload",
    "search_report_payload",
    "census_payload",
    "exponents_payload",
]

SCHEMA_VERSION = 1
DEFAULT_DIGITS = 40


def canonical_dumps(payload: Any) -> bytes:
    """Deterministic bytes: sorted keys, no whitespace surprises, newline end.

    json prints ints with str(), which refuses more digits than
    sys.get_int_max_str_digits() (4 300 by default); a report's ints are
    bounded by its own input, so the limit is lifted while they print (the
    CLI runs one request at a time, on one thread)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    finally:
        sys.set_int_max_str_digits(limit)
    return (text + "\n").encode("ascii")


def bounded_real_payload(b: BoundedReal, digits: int = DEFAULT_DIGITS) -> dict:
    return {
        "value_decimal": b.decimal(digits),
        "direction": b.direction.value,
        "precision_bits": b.precision,
    }


def height_payload(h: Fraction, precision: int, tolerance: str,
                   digits: int = DEFAULT_DIGITS) -> dict:
    """A canonical height: the midpoint of its enclosure certified at
    (precision, tolerance), rendered to NEAREST."""
    return {
        "kind": "canonical",
        "value_decimal": fraction_to_decimal(h, digits, Direction.NEAREST),
        "direction": "nearest",
        "precision_bits": precision,
        "tolerance": tolerance,
    }


def bound_report_payload(report: BoundReport, digits: int = DEFAULT_DIGITS) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bound",
        "theorem": report.theorem,
        "inputs": {k: str(v) for k, v in sorted(report.inputs.items())},
        "intermediates": {
            name: bounded_real_payload(val, digits)
            for name, val in sorted(report.intermediates.items())
        },
        "bound": bounded_real_payload(report.bound, digits),
        "exponents_used": [[label, e] for label, e in report.exponents_used],
        "notes": list(report.notes),
    }


def family_audit_payload(reports: list[FamilyBoundReport],
                         digits: int = DEFAULT_DIGITS) -> dict:
    entries = []
    for rep in reports:
        entry = {
            "n": rep.n,
            "family": rep.family,
            "degree_upper": rep.deg_upper,
            "genus": rep.genus,
            "closed_form_coefficient": rep.closed_form_coefficient,
            "closed_form_total_decimal": fraction_to_decimal(
                rep.closed_form_total, digits, Direction.NEAREST),
            "verdict": rep.verdict,
            "flagged": rep.flagged,
            "notes": list(rep.notes),
        }
        if rep.composed_total is not None:
            entry["composed_total"] = bounded_real_payload(rep.composed_total, digits)
            entry["mu_upper"] = bounded_real_payload(rep.mu_upper, digits)
            entry["h_upper"] = bounded_real_payload(rep.h_upper, digits)
            entry["height_chain"] = {label: bounded_real_payload(b, digits)
                                     for label, b in rep.height_chain}
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "family-audit",
        "entries": entries,
    }


def search_report_payload(report: SearchReport, digits: int = 30) -> dict:
    """Deterministic payload only: wall-clock and rate metrics are kept on the
    in-memory report and emitted separately (stderr / --metrics-out).  The
    shard count is excluded too: it changes no work, so every shard count
    emits the same bytes."""
    found = []
    for f in report.found:
        found.append({
            "p1": [rational_digits(f.p1.x), rational_digits(f.p1.y)],
            "p2": [rational_digits(f.p2.x), rational_digits(f.p2.y)],
            "height1": height_payload(f.height1, report.precision_bits,
                                      report.tolerance, digits),
            "height2": height_payload(f.height2, report.precision_bits,
                                      report.tolerance, digits),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "search",
        "family": report.family,
        "n": report.n,
        "height_bound": report.height_bound,
        "tolerance": report.tolerance,
        "exhaustive_up_to_height_bound_only": True,
        "height_convention": {
            "scale": "1",
            "note": "x-coordinate duplication limit, divisor class 2(O)",
        },
        "candidate_points": report.candidate_points,
        "pairs_scanned": report.pairs_scanned,
        "found": found,
        "closure_candidates": list(report.closure_candidates),
    }


def census_payload(report: CensusReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "census",
        "ring": report.ring,
        "N": report.n,
        "r": report.r,
        "max_degree": report.dmax,
        "torsion_order_bound": report.torsion_order_bound,
        "total_matrices": report.total_matrices,
        "degree_buckets": [[d, c] for d, c in report.degree_buckets],
        "cumulative_counts": [[d, c] for d, c in report.cumulative()],
        # the totals grow as T^(2N+1), past the digits str() accepts
        "torsion_total": integer_digits(report.torsion_total),
        "product_bound": integer_digits(report.product_bound),
    }


def exponents_payload(report: ExponentReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "exponents",
        "theorem": report.theorem,
        "case": report.case,
        "params": {k: v for k, v in sorted(report.params.items())},
        "entries": [
            {
                "quantity": e.quantity,
                "base": e.base,
                "eta_free": str(e.eta_free),
                "eta_coefficient": str(e.eta_coeff),
            }
            for e in report.entries
        ],
        "eta_constants_not_produced": True,
    }
