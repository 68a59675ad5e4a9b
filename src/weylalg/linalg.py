"""Exact linear algebra over the rationals, by one elimination.

Sparse rows are {column index: integer coefficient} maps.  `_eliminate`
is the only elimination: forward elimination that keeps entries integral
by cross-multiplication and divides each combined row by its content
(gcd), so no rounding ever occurs.  Pivots are chosen deterministically:
smallest column index first, then smallest row index among the rows still
unused, so a column is free exactly when it depends on the columns before
it.

`sparse_kernel` back-substitutes after it.  It serves only
`dense_kernel` (for `derivation_report`) and the tests: every centralizer,
whole basis or homogeneous component, comes from the descent of
`centralizer`, which eliminates its own ray constraints.
`sparse_solvable` checks an inhomogeneous system whose right-hand side is
the last column; only the tests call it, to show by elimination that a
polynomial in XY has no partner.  `dense_kernel` takes the kernel of a
derivation on a computed basis: it scales each rational row to integers
and calls `sparse_kernel`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SparseRow = dict[int, int]


def _normalize(row: SparseRow) -> SparseRow:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(rows: list[SparseRow], ncols: int) -> tuple[list[tuple[int, int]], list[bool]]:
    """Forward elimination in place; returns (pivots as (col, row), used flags)."""
    nrows = len(rows)
    used = [False] * nrows
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        cand = [ri for ri in range(nrows) if not used[ri] and col in rows[ri]]
        if not cand:
            continue
        pr = cand[0]
        used[pr] = True
        pivots.append((col, pr))
        prow = rows[pr]
        pval = prow[col]
        for ri in cand[1:]:
            row = rows[ri]
            rval = row.pop(col)
            new: SparseRow = {}
            for c, v in row.items():
                new[c] = pval * v
            for c, v in prow.items():
                if c == col:
                    continue
                nv = new.get(c, 0) - rval * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            rows[ri] = _normalize(new)
    return pivots, used


def sparse_kernel(rows: list[SparseRow], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the nullspace of the matrix whose rows are given sparsely.

    Each returned vector has entry 1 at its own free column and 0 at every
    other free column.
    """
    work = [_normalize(dict(r)) for r in rows if r]
    pivots, _ = _eliminate(work, ncols)
    pivot_cols = {col for col, _ in pivots}
    vectors: list[dict[int, Fraction]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x: dict[int, Fraction] = {free: Fraction(1)}
        for col, ri in reversed(pivots):
            row = work[ri]
            s = Fraction(0)
            for c, v in row.items():
                if c == col:
                    continue
                xc = x.get(c)
                if xc is not None:
                    s += v * xc
            if s:
                x[col] = -s / row[col]
        vectors.append(x)
    return vectors


def sparse_solvable(rows: list[SparseRow], ncols: int) -> bool:
    """Consistency of the system whose right-hand side sits at column ncols.

    After eliminating the matrix columns, an unused nonzero row can only
    retain its right-hand-side entry, which certifies inconsistency.
    """
    work = [_normalize(dict(r)) for r in rows if r]
    _, used = _eliminate(work, ncols)
    for ri, row in enumerate(work):
        if not used[ri] and row:
            return False
    return True


def dense_kernel(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Nullspace basis of a dense rational matrix (list of rows).

    Each row is scaled to integers and the kernel is the one of
    `sparse_kernel`, written out densely.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = []
    for row in matrix:
        den = lcm(*(v.denominator for v in row))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(row) if v})
    return [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in sparse_kernel(rows, ncols)]
