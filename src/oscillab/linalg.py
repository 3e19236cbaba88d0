"""Tiny exact linear algebra, sized for dimension <= 4 work.

``rank_exact`` eliminates over ``Fraction``; it gives the dimension of a
Newton polytope's compact faces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rank_exact"]


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

