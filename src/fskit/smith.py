"""Exact invariant factors of integer matrices.

Integer row and column operations diagonalise the matrix; replacing
diagonal pairs (x, y) by (gcd, lcm) then puts the diagonal in divisibility
order d1 | d2 | ... without changing the group Z^cols / rows.  All
arithmetic uses Python integers, so the factors are bit-exact.
"""

from __future__ import annotations

from math import gcd

Matrix = list[list[int]]


def _diagonalise(a: Matrix) -> list[int]:
    """Absolute values of the nonzero pivots of a diagonal form of a."""
    d = [list(map(int, row)) for row in a]
    rows, cols = len(d), len(d[0])
    pivots = []
    for k in range(min(rows, cols)):
        while True:
            entries = [
                (abs(d[i][j]), i, j)
                for i in range(k, rows)
                for j in range(k, cols)
                if d[i][j]
            ]
            if not entries:
                return pivots
            _, pi, pj = min(entries)
            d[k], d[pi] = d[pi], d[k]
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            pivot = d[k][k]
            # reduce column k and row k by the pivot; a nonzero remainder
            # is a smaller entry, so the loop picks it as the next pivot
            for i in range(k + 1, rows):
                q = d[i][k] // pivot
                d[i] = [x - q * y for x, y in zip(d[i], d[k])]
            for j in range(k + 1, cols):
                q = d[k][j] // pivot
                for row in d:
                    row[j] -= q * row[k]
            if not any(d[i][k] for i in range(k + 1, rows)) and not any(
                d[k][j] for j in range(k + 1, cols)
            ):
                break
        pivots.append(abs(pivot))
    return pivots


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero invariant factors of a, in divisibility order."""
    if not a or not a[0]:
        return []
    factors = _diagonalise(a)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
