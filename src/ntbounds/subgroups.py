"""Algebraic subgroups of E^N as matrices over End(E): Gram-determinant
degrees, Hermite normal forms, bounded-degree enumeration, and torsion
counting.

A codimension-r subgroup corresponds to a rank-r matrix M in
Mat_{r x N}(End(E)); its degree is, up to dimension-only constants, the Gram
determinant det(M conj(M)^T) of the row module, which by Cauchy-Binet is the
sum of the norms of the r x r minors.  One routine computes it: a
fraction-free elimination of the Gram matrix that walks the r-subsets of a
list of rows depth first, so `degree_estimate` (one subset, the matrix's own
rows) and `enumerate_matrices` (the subsets of the candidate rows) share it.
The enumeration walks only the subsets that could be a Minkowski-reduced
basis (short rows, small mutual inner products), of which every row module
has at least one.
Identity of subgroups = equality of row modules, decided by the canonical
Hermite normal form under left GL_r action; column permutations move to a
different subgroup of E^N, so they are never applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .rings import Element, EndRing
from .rounding import DomainError

__all__ = [
    "SubgroupMatrix",
    "ResourceGuardError",
    "degree_estimate",
    "hermite_normal_form",
    "enumerate_matrices",
    "torsion_count",
    "CensusReport",
    "census",
    "row_bound_for_degree",
]


class ResourceGuardError(RuntimeError):
    """Predicted enumeration size exceeds the configured ceiling."""


@dataclass(frozen=True)
class SubgroupMatrix:
    ring: EndRing
    entries: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple((int(a), int(b)) for a, b in row) for row in self.entries)
        if not rows or not rows[0]:
            raise DomainError("matrix must be nonempty")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise DomainError("ragged matrix")
        if len(rows) > n:
            raise DomainError(f"need rows <= cols, got {len(rows)}x{n}")
        object.__setattr__(self, "entries", rows)

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_ints(ring: EndRing, rows) -> "SubgroupMatrix":
        """Rows of ints (Z) or (a, b) pairs."""
        conv = []
        for row in rows:
            conv.append(tuple(
                (e, 0) if isinstance(e, int) else (int(e[0]), int(e[1])) for e in row))
        return SubgroupMatrix(ring, tuple(conv))


def _full_rank_subsets(ring: EndRing, rows, r: int, dmax: int | None = None,
                       box: int | None = None):
    """Yield (degree, subset) for the r-subsets of `rows` that have full rank
    and degree <= dmax (no bound when dmax is None).  Without a box every such
    subset is yielded, in the order of itertools.combinations; with one, only
    the subsets that pass the two Minkowski cuts below.

    The degree of a subset is the Gram determinant det(M conj(M)^T) of its
    rows.  The subsets are walked depth first, and each level appends one row
    to a fraction-free (Bareiss) elimination of its prefix's Gram matrix, so
    every extension of a prefix shares the prefix's work.  A Gram matrix is
    Hermitian positive semidefinite: its leading principal minors D_k are
    positive integers until a row depends on the rows before it, so no
    pivoting is needed, and D_k <= 0 prunes the prefix with all of its
    extensions.  The divisions by D_k are exact in Z, Z[i] and Z[omega].

    `box` (over Z only, with `rows` sorted by squared norm) is the bound of
    `row_bound_for_degree`: the walk then keeps only subsets that could be a
    Minkowski-reduced basis b_1, ..., b_r, sorted by norm.
      * Break: prod ||b_i||^2 <= box, and every row after row k is at least
        as long as it, so once the chosen norms times ||row_k||^(2(r - depth))
        exceed the box no later row can complete the subset.
      * Skip: b_j +- b_i (i < j) was a valid choice at step j of the
        reduction, so 2 |<b_i, b_j>| <= ||b_i||^2, the shorter of the two.
    Every lattice has a Minkowski-reduced basis, whose rows are candidate
    rows up to sign; so every row module of degree <= dmax keeps at least one
    of its bases, and deduplication by Hermite form loses no class.  At depth
    0 (so at r = 1) neither cut removes a candidate row.
    """
    mul, sub, conj, norm, dot_conj, exact_div = (
        ring.mul, ring.sub, ring.conj, ring.norm, ring.dot_conj, ring.exact_div)
    norms = [ring.row_norm(row) for row in rows]
    last = len(rows) - r
    chosen: list[tuple[Element, ...]] = []
    sizes: list[int] = []  # the squared norms of the chosen rows
    # cols[j][t] (t < j) is entry (j, t) of the prefix Gram matrix after t
    # Bareiss steps, and entry (t, j) is its conjugate; pivots[k] is D_k.
    cols: list[list[Element]] = []
    pivots = [1]

    def extend(start: int, prod: int):
        depth = len(chosen)
        for k in range(start, last + depth + 1):
            if box is not None and prod * norms[k] ** (r - depth) > box:
                break
            row = rows[k]
            a = [dot_conj(row, prev) for prev in chosen]
            # the skip reads <row, b_t> before the elimination overwrites it
            if box is not None and any(2 * abs(x) > n for (x, _), n in zip(a, sizes)):
                continue
            d = norms[k]  # the diagonal entry stays real: keep it an int
            for t in range(depth):
                c, p = a[t], pivots[t + 1]
                for j in range(t + 1, depth):
                    x = sub(mul((p, 0), a[j]), mul(c, conj(cols[j][t])))
                    a[j] = exact_div(x, (pivots[t], 0)) if t else x
                d = (p * d - norm(c)) // pivots[t]
            if d <= 0:
                continue
            if depth + 1 < r:
                chosen.append(row)
                sizes.append(norms[k])
                cols.append(a)
                pivots.append(d)
                yield from extend(k + 1, prod * norms[k])
                chosen.pop()
                sizes.pop()
                cols.pop()
                pivots.pop()
            elif dmax is None or d <= dmax:
                yield d, (*chosen, row)

    return extend(0, 1)


def degree_estimate(M: SubgroupMatrix) -> int:
    """Degree of the row module: det(M conj(M)^T), its Gram determinant;
    rejects rank-deficient input.

    By Cauchy-Binet this equals the sum of norm(minor) over all r x r minors,
    hence it is invariant under unimodular row operations and column
    permutations and multiplicative over unit row scalings.
    """
    for d, _ in _full_rank_subsets(M.ring, M.entries, M.r):
        return d
    raise DomainError("matrix is rank-deficient: its Gram determinant vanishes")


# ---------------------------------------------------------------------------
# Hermite normal form (canonical for row-module identity)
# ---------------------------------------------------------------------------


def hermite_normal_form(M: SubgroupMatrix) -> SubgroupMatrix:
    """The unique row-equivalent echelon matrix with canonical-associate pivots
    and centered residues above each pivot; rejects rank-deficient input."""
    ring = M.ring
    rows = [list(row) for row in M.entries]
    r, n = M.r, M.n
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n):
        # euclidean elimination below the current pivot row
        while True:
            live = [i for i in range(pivot_row, r) if not ring.is_zero(rows[i][col])]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: (ring.norm(rows[i][col]), i))
            base = live[0]
            for i in live[1:]:
                q, _ = ring.divmod_rounded(rows[i][col], rows[base][col])
                rows[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(rows[i], rows[base])]
        live = [i for i in range(pivot_row, r) if not ring.is_zero(rows[i][col])]
        if not live:
            continue
        i = live[0]
        rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
        _, unit = ring.canon_assoc(rows[pivot_row][col])
        if unit != ring.one:
            rows[pivot_row] = [ring.mul(unit, x) for x in rows[pivot_row]]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == r:
            break
    if pivot_row < r:
        raise DomainError("matrix is rank-deficient; no Hermite form of full row count")
    # center the entries above each pivot, left to right
    for k, col in enumerate(pivot_cols):
        p = rows[k][col]
        for i in range(k):
            q, _ = ring.divmod_rounded(rows[i][col], p)
            if not ring.is_zero(q):
                rows[i] = [ring.sub(x, ring.mul(q, y)) for x, y in zip(rows[i], rows[k])]
    return SubgroupMatrix(ring, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Bounded-degree enumeration
# ---------------------------------------------------------------------------


def row_bound_for_degree(ring: EndRing, r: int, dmax: int) -> int:
    """Bound on prod ||b_i||^2 over a Minkowski-reduced basis b_1, ..., b_r
    of any row module of degree <= dmax; since each ||b_i||^2 >= 1, it also
    bounds every row of that basis.

    r = 1: the degree IS the squared row norm.  Over Z, Minkowski's second
    theorem gives prod ||b_i||^2 <= gamma_r^r det(Gram) for a reduced basis
    when r <= 4, with an extra factor prod_{i>4} (5/4)^(i-4) for r >= 5.  So
    r = 2 uses gamma_2^2 = 4/3, and r >= 3 the constant 2^(r(r-1)/2), which
    is at least (4/3)^(r(r-1)/2) (5/4)^((r-4)(r-3)/2) by Hermite's bound
    gamma_r^r <= (4/3)^(r(r-1)/2).  The CM rings are supported at r = 1 only
    (no proven box constant is available here).
    """
    if r == 1:
        return dmax
    if ring.kind != "z":
        raise DomainError(
            "enumeration over the CM rings is supported at r = 1 only; "
            "degree-versus-box constants for higher rank are not available")
    if r == 2:
        return (4 * dmax + 2) // 3  # ceil(4/3 * dmax)
    return 2 ** (r * (r - 1) // 2) * dmax


def _candidate_rows(ring: EndRing, n: int, bound: int) -> list[tuple[Element, ...]]:
    """All nonzero rows of squared norm <= bound, one per unit orbit, sorted
    by (squared norm, row)."""
    per_coord = sorted(((e, ring.norm(e)) for e in ring.elements_of_norm_at_most(bound)),
                       key=lambda pair: pair[1])
    out = []

    def extend(prefix: list[Element], budget: int):
        if len(prefix) == n:
            row = tuple(prefix)
            if budget < bound and ring.canon_row(row) == row:  # nonzero row
                out.append((bound - budget, row))
            return
        for e, ne in per_coord:
            if ne > budget:
                break
            extend(prefix + [e], budget - ne)

    extend([], bound)
    out.sort()
    return [row for _, row in out]


def _row_count(ring: EndRing, n: int, bound: int) -> int:
    """len(_candidate_rows(ring, n, bound)) without building a row.

    Units act freely on nonzero rows, so each unit orbit of nonzero rows of
    squared norm <= bound has |units| members, and the count is
    (#{v : norm(v) <= bound} - 1) / |units|.  The vectors of each norm are
    counted coordinate by coordinate: the n-fold convolution of the
    one-coordinate norm counts, truncated at the bound.
    """
    per_coord: dict[int, int] = {}
    for e in ring.elements_of_norm_at_most(bound):
        ne = ring.norm(e)
        per_coord[ne] = per_coord.get(ne, 0) + 1
    steps = sorted(per_coord.items())
    by_norm = [1] + [0] * bound  # the empty prefix has norm 0
    for _ in range(n):
        longer = [0] * (bound + 1)
        for s, count in enumerate(by_norm):
            if count:
                for ne, k in steps:
                    if s + ne > bound:
                        break
                    longer[s + ne] += count * k
        by_norm = longer
    return (sum(by_norm) - 1) // len(ring.units())


def enumerate_matrices(ring: EndRing, n: int, r: int, dmax: int,
                       ceiling: int = 5_000_000) -> list[SubgroupMatrix]:
    """All rank-r row modules of degree <= dmax, as canonical Hermite forms,
    sorted by (degree, entries).  Refuses predictably-oversized enumerations:
    the guard counts every r-subset of the candidate rows, which is more than
    the walk visits, and it counts the rows without building them.

    The candidate rows are those a Minkowski-reduced basis of such a module
    can have (see `row_bound_for_degree`), one per unit orbit; the r-subsets
    that could be such a basis, of full rank and degree <= dmax, come from the
    same Gram elimination as `degree_estimate` (see `_full_rank_subsets`), and
    are deduplicated by their Hermite forms, which every basis of a module
    shares (at r = 1 each candidate row is already its own Hermite form)."""
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= N, got r={r}, N={n}")
    if dmax < 1:
        return []
    bound = row_bound_for_degree(ring, r, dmax)
    # the guard runs before any row is built
    work = comb(_row_count(ring, n, bound), r)
    if work > ceiling:
        raise ResourceGuardError(
            f"enumeration would scan {work} row combinations (> ceiling {ceiling}); "
            f"lower Dmax or raise the ceiling explicitly")
    rows = _candidate_rows(ring, n, bound)

    subsets = _full_rank_subsets(ring, rows, r, dmax, bound)
    if r == 1:
        # candidate rows are canonical unit-orbit representatives, and a
        # one-row Hermite form is the canonical row: each row is its own class
        classes = [(d, SubgroupMatrix(ring, subset)) for d, subset in subsets]
    else:
        found: dict[tuple, tuple[int, SubgroupMatrix]] = {}
        for d, subset in subsets:
            m = hermite_normal_form(SubgroupMatrix(ring, subset))
            found.setdefault(m.entries, (d, m))
        classes = list(found.values())
    ordered = sorted(classes, key=lambda pair: (pair[0], pair[1].entries))
    return [m for _, m in ordered]


# ---------------------------------------------------------------------------
# Torsion counting and the census
# ---------------------------------------------------------------------------


def torsion_count(n_power: int, t: int) -> int:
    """Exact sum_{i=1}^{T} i^(2N): points of order dividing i number i^(2N)."""
    if n_power < 1 or t < 1:
        raise DomainError("need N >= 1 and T >= 1")
    e = 2 * n_power
    return sum(i ** e for i in range(1, t + 1))


@dataclass(frozen=True)
class CensusReport:
    ring: str
    n: int
    r: int
    dmax: int
    torsion_order_bound: int
    total_matrices: int
    degree_buckets: tuple[tuple[int, int], ...]  # (degree, count)
    torsion_total: int
    product_bound: int  # total_matrices * T^(2N+1)

    def cumulative(self) -> tuple[tuple[int, int], ...]:
        acc, out = 0, []
        for d, c in self.degree_buckets:
            acc += c
            out.append((d, acc))
        return tuple(out)


def census(ring: EndRing, n: int, r: int, dmax: int, t: int,
           ceiling: int = 5_000_000) -> CensusReport:
    """Bounded-degree census: reduced-matrix counts per degree bucket, torsion
    counts, and the product-form bound (matrix count) * T^(2N+1).  The torsion
    count comes first, so that N < 1 or T < 1 is refused before any walk."""
    torsion_total = torsion_count(n, t)
    matrices = enumerate_matrices(ring, n, r, dmax, ceiling)
    buckets: dict[int, int] = {}
    for m in matrices:
        d = degree_estimate(m)
        buckets[d] = buckets.get(d, 0) + 1
    return CensusReport(
        ring=ring.kind,
        n=n,
        r=r,
        dmax=dmax,
        torsion_order_bound=t,
        total_matrices=len(matrices),
        degree_buckets=tuple(sorted(buckets.items())),
        torsion_total=torsion_total,
        product_bound=len(matrices) * t ** (2 * n + 1),
    )
