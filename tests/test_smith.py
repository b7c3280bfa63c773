import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from fskit.smith import invariant_factors


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det(m):
    """Exact determinant by elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert result.denominator == 1
    return int(result)


def determinantal_factors(a):
    """Invariant factors as quotients d_k / d_(k-1) of the gcds d_k of the
    k x k minors, up to the rank."""
    rows, cols = len(a), len(a[0])
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        d_k = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d_k = gcd(d_k, det([[a[i][j] for j in cs] for i in rs]))
        if d_k == 0:
            break
        divisors.append(d_k)
    return [y // x for x, y in zip(divisors, divisors[1:])]


def random_matrix(rng, max_dim=5, bound=5):
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def unimodular(rng, n):
    """A random product of elementary integer matrices."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.choice((-2, -1, 1, 2))
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_single_entries():
    assert invariant_factors([[2]]) == [2]
    assert invariant_factors([[0]]) == []
    assert invariant_factors([[-6]]) == [6]


def test_known_matrix():
    # 2x2 with det 6 and gcd 1: factors 1, 6
    assert invariant_factors([[2, 4], [-2, 2]]) == [2, 6]
    assert invariant_factors([[1, 0], [0, 6]]) == [1, 6]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def test_rectangular():
    assert invariant_factors([[3, -3], [1, 0]]) == [1, 3]
    assert invariant_factors([[4, 0, 0]]) == [4]
    assert invariant_factors([[4], [6]]) == [2]
    assert invariant_factors([[0, 0], [0, 0], [0, 0]]) == []


def test_random_matrices():
    # the determinantal divisors fix the invariant factors independently
    # of any elimination order
    rng = random.Random(0)
    for _ in range(300):
        a = random_matrix(rng)
        factors = invariant_factors(a)
        assert factors == determinantal_factors(a)
        assert all(x > 0 for x in factors)
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


def test_invariant_factors_unimodular_invariant():
    rng = random.Random(2)
    for _ in range(50):
        a = random_matrix(rng, max_dim=4)
        rows, cols = len(a), len(a[0])
        u, v = unimodular(rng, rows), unimodular(rng, cols)
        assert abs(det(u)) == abs(det(v)) == 1
        assert invariant_factors(matmul(matmul(u, a), v)) == invariant_factors(a)


def test_invariant_factors_shuffle_invariant():
    rng = random.Random(1)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        base = invariant_factors(a)
        shuffled = a[:]
        rng.shuffle(shuffled)
        cols_perm = list(range(cols))
        rng.shuffle(cols_perm)
        shuffled = [[row[j] for j in cols_perm] for row in shuffled]
        assert invariant_factors(shuffled) == base
