"""Exact Gaussian elimination over any field-like scalar type.

Entries must support +, -, *, / and truth testing (zero is falsy).
Used with ``fractions.Fraction`` and with ``FieldElement``; everything
here is division-exact, no pivoting heuristics beyond "first nonzero".
"""

from __future__ import annotations


def rref(rows):
    """Reduce ``rows`` (list of lists, modified copies) to reduced row

    echelon form.  Returns ``(reduced_rows, pivot_cols)``.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        # zero entries are skipped: a product with a zero factor is zero
        mat[r] = [x * inv if x else x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_r = mat[r]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank(rows):
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, ncols, zero, one):
    """Basis of the right kernel of the matrix, one vector per free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = zero - red[i][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """One solution of ``rows * x = rhs`` or None if inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    """
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for i in range(len(red)):
        if len(pivots) > i and pivots[i] == ncols:
            return None
    # a pivot in the rhs column marks inconsistency
    zero = rhs[0] - rhs[0]
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = red[i][ncols]
    return x
