"""Exact dense linear algebra over the rationals, sized for one Lefschetz block.

Vectors are lists of Fractions, matrices are lists of row vectors.
Everything here is fraction-exact; there is no floating tolerance in
any subspace computation.
"""

from __future__ import annotations

from fractions import Fraction

Vec = list[Fraction]
Mat = list[Vec]


def matmul(a: Mat, b: Mat) -> Mat:
    """The product of two matrices; b must have at least one row."""
    columns = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in columns] for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(row) for row in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [value * inv for value in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace(rows: Mat, width: int) -> Mat:
    """Basis of {x : A x = 0} for the matrix with the given rows; the
    identity when there are no rows."""
    reduced, pivots = rref(rows)
    free = [c for c in range(width) if c not in pivots]
    basis: Mat = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def pinv(rows: Mat, width: int) -> Mat:
    """The Moore-Penrose pseudo-inverse, width x len(rows), of the matrix A.

    R = rref(A) without its zero rows and C = the pivot columns of A give
    the rank factorisation A = C R, so A+ = R^T (C^T C R R^T)^-1 C^T, and
    C^T C R R^T = C^T A R^T is invertible.
    """
    reduced, pivots = rref(rows)
    if not reduced:
        return [[Fraction(0)] * len(rows) for _ in range(width)]
    rank = len(pivots)
    c_t = [[row[p] for row in rows] for p in pivots]
    gram = matmul(c_t, matmul(rows, transpose(reduced)))
    unit = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    inverse = [row[rank:] for row in rref([g + u for g, u in zip(gram, unit)])[0]]
    return matmul(transpose(reduced), matmul(inverse, c_t))
