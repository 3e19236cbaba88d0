"""Tiny exact linear algebra, sized for dimension <= 4 work.

``det`` is the integer determinant that decides the Newton polytope's facets
by Cramer's rule; ``rank_exact`` eliminates over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["det", "rank_exact"]


def rank_exact(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a nonempty square matrix by cofactor expansion on its first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rest = matrix[1:]
    return sum(
        (-1) ** j * a * det([[*row[:j], *row[j + 1:]] for row in rest])
        for j, a in enumerate(matrix[0]) if a
    )
