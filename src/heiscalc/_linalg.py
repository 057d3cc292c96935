"""Exact linear algebra over the rationals.

Vectors are lists of Fractions, matrices are lists of row vectors.
Everything here is fraction-exact; there is no floating tolerance in
any subspace computation.
"""

from __future__ import annotations

from fractions import Fraction

Vec = list[Fraction]
Mat = list[Vec]


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def matvec(rows: Mat, x: Vec) -> Vec:
    return [dot(row, x) for row in rows]


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
    """Basis of {x : A x = 0} for the matrix with the given rows."""
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


def orthogonal_complement(rows: Mat, width: int) -> Mat:
    """Basis of the perp of the row span, under the standard product."""
    if not rows:
        reduced, _ = rref([[Fraction(1 if i == j else 0) for i in range(width)] for j in range(width)])
        return reduced
    return nullspace(rows, width)


def gram_schmidt(rows: Mat) -> Mat:
    """Orthogonalize without normalizing; zero vectors are dropped."""
    ortho: Mat = []
    for row in rows:
        vec = list(row)
        for prev in ortho:
            denom = dot(prev, prev)
            coeff = dot(vec, prev) / denom
            if coeff != 0:
                vec = [a - coeff * b for a, b in zip(vec, prev)]
        if any(value != 0 for value in vec):
            ortho.append(vec)
    return ortho


def solve(rows: Mat, rhs: Vec) -> Vec | None:
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return None
    width = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    solution = [Fraction(0)] * width
    for row, p in zip(reduced, pivots):
        if p == width:
            return None
        solution[p] = row[width]
    return solution
