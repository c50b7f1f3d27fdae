"""Exact integer elimination on sparse rows (dicts from column to nonzero
int), shared by the inner-lattice solve and the Smith reduction.  Rows are
told apart by identity, never by ``==``: two rows may hold equal entries.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Row = dict[int, int]


def echelon(
    rows: list[Row], columns: Iterable[int]
) -> tuple[dict[int, Row], list[Row]]:
    """Row-reduce ``rows`` in place, column by column in the order given;
    return the pivot row of each column that has one, and the other rows,
    which are zero in every given column.  A pivot row is zero in the
    columns taken before its own.  A column's pivot is a row with entry +-1
    there if there is one; otherwise the rows meeting the column are
    reduced modulo the one of least absolute value until one is left
    (Euclid), so the pivot's absolute value is the gcd of the column.
    """
    pivots: dict[int, Row] = {}
    for j in columns:
        hits = [r for r in rows if j in r]
        while len(hits) > 1:
            units = [r for r in hits if r[j] in (1, -1)]
            pivot = units[0] if units else min(hits, key=lambda r: abs(r[j]))
            for r in hits:
                if r is not pivot:
                    q = r[j] // pivot[j]
                    for i, v in pivot.items():
                        r[i] = r.get(i, 0) - q * v
                        if not r[i]:
                            del r[i]
            hits = [r for r in hits if j in r]
        if hits:
            pivots[j] = hits[0]
            rows = [r for r in rows if r is not hits[0]]
    return pivots, rows


def smith_diagonal(rows: list[Row]) -> list[int]:
    """The absolute diagonal of a diagonal matrix equivalent over Z to
    ``rows`` (consumed): :func:`echelon` on the rows and on the transpose
    in turn, until every pivot row has one entry.  This ends.  After an
    echelon the corner (first pivot) is alone in its column, and its row is
    the transpose's first column, so the next corner is the gcd of that
    row: each alternation never raises the corner's absolute value, and
    lowers it while its row or column holds an entry it does not divide.
    Once it divides its row, the next echelon pivots on its own row (the
    first row meeting the column, of least absolute value) and clears the
    column exactly; then nothing touches the corner again, and the
    argument goes on after it.
    """
    columns: Iterable[int] = sorted({j for r in rows for j in r})
    while True:
        pivots, _ = echelon(rows, columns)  # the other rows are empty
        if all(len(r) == 1 for r in pivots.values()):
            return [abs(r[j]) for j, r in pivots.items()]
        transposed: dict[int, Row] = {}
        for k, r in enumerate(pivots.values()):
            for j, v in r.items():
                transposed.setdefault(j, {})[k] = v
        rows = [transposed[j] for j in sorted(transposed)]
        columns = range(len(pivots))


def _invariant_factors(diagonal: Sequence[int]) -> list[int]:
    """Normalize a diagonal to the divisibility chain d1 | d2 | ..."""
    factors = [abs(d) for d in diagonal if d != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a != 0:
                    g = gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
    return sorted(factors)
