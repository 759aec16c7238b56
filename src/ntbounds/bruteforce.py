"""Independent brute-force counterpart of the subgroup enumeration.

Deliberately separate machinery from subgroups.py: raw matrices are generated
from an independently derived (coarser) box, degrees come from inline minor
loops, and identification uses direct row-module membership (Cramer solve +
divisibility), never the Hermite form.  Tests compare the two pipelines class
by class.  Since the degree is the Gram determinant of the row module, two
modules of equal degree with one containing the other are equal (the index
would square the Gram determinant), so one-sided inclusion decides equality.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rings import Element, EndRing
from .rounding import DomainError
from .subgroups import SubgroupMatrix

__all__ = [
    "oracle_enumerate",
    "oracle_degree",
    "match_against",
]


def _oracle_row_box(ring: EndRing, r: int, dmax: int) -> int:
    # Coarser than the production bound on purpose: 2^(r(r-1)/2) * dmax covers
    # the Lagrange/LLL constants for every supported rank.
    if r == 1:
        return dmax
    if ring.kind != "z":
        raise DomainError("oracle supports CM rings at r = 1 only")
    return 2 ** (r * (r - 1) // 2) * dmax


def _oracle_rows(ring: EndRing, n: int, bound: int) -> list[tuple[Element, ...]]:
    """Nonzero rows with norm <= bound whose first nonzero entry is 'positive'
    (sign convention unrelated to the production unit canonicalization)."""
    coords = ring.elements_of_norm_at_most(bound)
    rows = []
    for row in itertools.product(coords, repeat=n):
        if sum(ring.norm(e) for e in row) > bound:
            continue
        lead = next((e for e in row if e != (0, 0)), None)
        if lead is None:
            continue
        if lead[0] > 0 or (lead[0] == 0 and lead[1] > 0):
            rows.append(row)
    return rows


def _minor_norms(ring: EndRing, rows: tuple) -> tuple[int, ...]:
    """Sorted norms of the maximal minors: a row-operation invariant."""
    r, n = len(rows), len(rows[0])
    out = []
    if r == 1:
        out = [ring.norm(e) for e in rows[0]]
    elif r == 2:
        u, v = rows
        for i in range(n):
            for j in range(i + 1, n):
                m = ring.sub(ring.mul(u[i], v[j]), ring.mul(u[j], v[i]))
                out.append(ring.norm(m))
    else:
        raise DomainError("oracle supports r <= 2")
    return tuple(sorted(out))


def oracle_degree(ring: EndRing, rows: tuple) -> int:
    """Sum of minor norms, written as plain loops (r <= 2)."""
    return sum(_minor_norms(ring, rows))


def oracle_enumerate(ring: EndRing, n: int, r: int, dmax: int) -> list[tuple]:
    """Raw rank-r matrices of degree <= dmax (several per class, on purpose)."""
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= N, got r={r}, N={n}")
    bound = _oracle_row_box(ring, r, dmax)
    rows = _oracle_rows(ring, n, bound)
    out = []
    if r == 1:
        for row in rows:
            d = sum(ring.norm(e) for e in row)
            if 0 < d <= dmax:
                out.append((row,))
        return out
    if ring.kind == "z":
        int_rows = [tuple(a for a, _ in row) for row in rows]
        cols = list(itertools.combinations(range(n), 2))
        for u, v in itertools.combinations(int_rows, 2):
            total = 0
            for c1, c2 in cols:
                m = u[c1] * v[c2] - u[c2] * v[c1]
                if m:
                    total += m * m
                    if total > dmax:
                        break
            else:
                if total:
                    out.append((tuple((a, 0) for a in u), tuple((a, 0) for a in v)))
        return out
    for pair in itertools.combinations(rows, 2):
        d = oracle_degree(ring, pair)
        if 0 < d <= dmax:
            out.append(pair)
    return out


# ---------------------------------------------------------------------------
# Row-module membership (Cramer + divisibility), ring-specialized
# ---------------------------------------------------------------------------


def _in_module_r1(ring: EndRing, v: tuple, u: tuple) -> bool:
    i = next((k for k in range(len(u)) if u[k] != (0, 0)), None)
    if i is None:
        return False
    num = ring.mul(v[i], ring.conj(u[i]))
    nrm = ring.norm(u[i])
    if num[0] % nrm or num[1] % nrm:
        return False
    q = (num[0] // nrm, num[1] // nrm)
    return all(ring.mul(q, u[k]) == v[k] for k in range(len(u)))


def _in_module_z_r2(v: tuple[int, ...], u1: tuple[int, ...], u2: tuple[int, ...]) -> bool:
    n = len(v)
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            delta = u1[c1] * u2[c2] - u1[c2] * u2[c1]
            if delta:
                n1 = v[c1] * u2[c2] - v[c2] * u2[c1]
                n2 = u1[c1] * v[c2] - u1[c2] * v[c1]
                if n1 % delta or n2 % delta:
                    return False
                x1, x2 = n1 // delta, n2 // delta
                return all(x1 * u1[k] + x2 * u2[k] == v[k] for k in range(n))
    return False


def _in_module(ring: EndRing, v: tuple, basis: tuple) -> bool:
    if len(basis) == 1:
        return _in_module_r1(ring, v, basis[0])
    if ring.kind == "z" and len(basis) == 2:
        return _in_module_z_r2(tuple(a for a, _ in v),
                               tuple(a for a, _ in basis[0]),
                               tuple(a for a, _ in basis[1]))
    return _in_module_generic(ring, v, basis)


def _contained(ring: EndRing, rows_a: tuple, rows_b: tuple) -> bool:
    return all(_in_module(ring, v, rows_b) for v in rows_a)


def match_against(ring: EndRing, raw_matrices: list[tuple],
                  reference: list[SubgroupMatrix]) -> dict:
    """Match every oracle matrix to exactly one reference class; report stats.

    Buckets by (degree, sorted minor norms) - both row-operation invariants -
    then decides by one-sided inclusion (equal Gram determinant makes the
    inclusion an equality).
    """
    by_key: dict[tuple, list[int]] = {}
    for idx, m in enumerate(reference):
        norms = _minor_norms(ring, m.entries)
        by_key.setdefault((sum(norms), norms), []).append(idx)
    hits = [0] * len(reference)
    unmatched, ambiguous = [], []
    for raw in raw_matrices:
        norms = _minor_norms(ring, raw)
        matches = [idx for idx in by_key.get((sum(norms), norms), ())
                   if _contained(ring, raw, reference[idx].entries)]
        if not matches:
            unmatched.append(raw)
        elif len(matches) > 1:
            ambiguous.append(raw)
        else:
            hits[matches[0]] += 1
    return {"matched": hits, "unmatched": unmatched, "ambiguous": ambiguous}


# ---------------------------------------------------------------------------
# Generic field fallback (kept for the CM rings at higher rank, if ever)
# ---------------------------------------------------------------------------

FieldElem = tuple[Fraction, Fraction]


def _f_zero() -> FieldElem:
    return (Fraction(0), Fraction(0))


def _f_from(e: Element) -> FieldElem:
    return (Fraction(e[0]), Fraction(e[1]))


def _f_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _f_mul(ring: EndRing, x: FieldElem, y: FieldElem) -> FieldElem:
    a, b = x
    c, d = y
    if ring.kind == "z":
        return (a * c, Fraction(0))
    if ring.kind == "zi":
        return (a * c - b * d, a * d + b * c)
    return (a * c - b * d, a * d + b * c - b * d)


def _f_inv(ring: EndRing, x: FieldElem) -> FieldElem:
    a, b = x
    if ring.kind == "z":
        return (1 / a, Fraction(0))
    if ring.kind == "zi":
        nrm = a * a + b * b
        return (a / nrm, -b / nrm)
    nrm = a * a - a * b + b * b
    return ((a - b) / nrm, -b / nrm)


def _in_module_generic(ring: EndRing, v: tuple, basis: tuple) -> bool:
    r, n = len(basis), len(v)
    aug = [[_f_from(basis[i][col]) for i in range(r)] + [_f_from(v[col])]
           for col in range(n)]
    pivot_cols: list[int] = []
    row_at = 0
    for unk in range(r):
        p = next((i for i in range(row_at, n) if aug[i][unk] != _f_zero()), None)
        if p is None:
            continue
        aug[row_at], aug[p] = aug[p], aug[row_at]
        inv = _f_inv(ring, aug[row_at][unk])
        aug[row_at] = [_f_mul(ring, inv, x) for x in aug[row_at]]
        for i in range(n):
            if i != row_at and aug[i][unk] != _f_zero():
                factor = aug[i][unk]
                aug[i] = [_f_sub(x, _f_mul(ring, factor, y))
                          for x, y in zip(aug[i], aug[row_at])]
        pivot_cols.append(unk)
        row_at += 1
    for i in range(row_at, n):
        if aug[i][r] != _f_zero():
            return False
    coeffs = [_f_zero()] * r
    for idx, unk in enumerate(pivot_cols):
        coeffs[unk] = aug[idx][r]
    return all(c[0].denominator == 1 and c[1].denominator == 1 for c in coeffs)
