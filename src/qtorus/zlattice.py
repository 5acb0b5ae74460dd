"""Exact integer lattice linear algebra.

Smith and Hermite normal forms, kernels of a matrix modulo l, and the
congruence normal form of an antisymmetric integer matrix into hyperbolic
blocks.  Everything runs on arbitrary-precision Python ints; intermediate
entries in normal form reductions overflow any fixed width even for small
inputs, so no fixed-size array types appear here.

Pivot tie-breaking everywhere: smallest absolute value first, then lowest
row index, then lowest column index.  This keeps outputs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotAntisymmetric, VerificationFailed


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        row = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cols):
                    row[j] += a * Bk[j]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def det_bareiss(A):
    """Fraction-free exact determinant of a square integer matrix."""
    n = len(A)
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _freeze(A):
    return tuple(tuple(row) for row in A)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(A):
    """U * A * V = D diagonal with d1 | d2 | ..., di >= 0, U and V unimodular.

    Returns (D, U, V) as tuples of tuples.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_add(i, j, c):
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_add(j, i, c):
        for r in range(m):
            D[r][j] += c * D[r][i]
        for r in range(n):
            V[r][j] += c * V[r][i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    key = (abs(D[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            # clear column t, moving any smaller remainder into the pivot
            while True:
                off = [i for i in range(m) if i != t and D[i][t]]
                if not off:
                    break
                i0 = min(off, key=lambda i: (abs(D[i][t]), i))
                if abs(D[i0][t]) < abs(D[t][t]):
                    row_swap(t, i0)
                    continue
                for i in off:
                    row_add(i, t, -(D[i][t] // D[t][t]))
            while True:
                off = [j for j in range(n) if j != t and D[t][j]]
                if not off:
                    break
                j0 = min(off, key=lambda j: (abs(D[t][j]), j))
                if abs(D[t][j0]) < abs(D[t][t]):
                    col_swap(t, j0)
                    continue
                for j in off:
                    col_add(j, t, -(D[t][j] // D[t][t]))
            if any(D[i][t] for i in range(m) if i != t):
                continue
            piv = D[t][t]
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    if mat_mul(mat_mul(U, [list(r) for r in A]), V) != D:
        raise VerificationFailed("Smith form: U * A * V != D", witness={"D": D})
    if abs(det_bareiss(U)) != 1 or abs(det_bareiss(V)) != 1:
        raise VerificationFailed("Smith form: a transform is not unimodular")
    for i in range(min(m, n) - 1):
        if D[i + 1][i + 1] and (not D[i][i] or D[i + 1][i + 1] % D[i][i]):
            raise VerificationFailed(
                "Smith form: divisibility chain broken", witness={"index": i, "D": D}
            )
    return _freeze(D), _freeze(U), _freeze(V)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def hermite_normal_form(rows):
    """Canonical row HNF: pivots positive, entries above a pivot reduced

    into [0, pivot); zero rows are dropped.  Input rows are generators.
    """
    M = [list(r) for r in rows]
    if not M:
        return ()
    n = len(M[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, len(M)) if M[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(M[i][c]), i))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
            done = True
            for i in range(r + 1, len(M)):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c]:
                        done = False
            if done:
                break
        if r < len(M) and M[r][c]:
            if M[r][c] < 0:
                M[r] = [-x for x in M[r]]
            for i in range(r):
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
    return _freeze([row for row in M[:r]])


# ---------------------------------------------------------------------------
# Lattices


@dataclass(frozen=True)
class Lattice:
    """Full-rank sublattice of Z^n, stored as a canonical HNF row basis."""

    basis: tuple
    n: int

    @classmethod
    def from_rows(cls, rows, n):
        H = hermite_normal_form(rows)
        if len(H) != n:
            raise ValueError("basis rows do not span a full-rank sublattice")
        return cls(H, n)

    @classmethod
    def scaled_standard(cls, n, factor):
        return cls.from_rows([[factor if i == j else 0 for j in range(n)] for i in range(n)], n)

    def index(self):
        """Index [Z^n : lattice], the product of the HNF diagonal."""
        out = 1
        for i in range(self.n):
            out *= self.basis[i][i]
        return out

    def coords(self, v):
        """Integer coordinates of v in the basis, or None if v is outside."""
        w = list(v)
        out = []
        for i in range(self.n):
            piv = self.basis[i][i]
            if w[i] % piv:
                return None
            q = w[i] // piv
            out.append(q)
            if q:
                w = [a - q * b for a, b in zip(w, self.basis[i])]
        if any(w):
            return None
        return tuple(out)

    def __contains__(self, v):
        return self.coords(v) is not None

    def reduce(self, v):
        """Split v = r + lam with lam in the lattice and r the canonical

        digit representative (0 <= r_i < basis[i][i]).
        """
        w = list(v)
        for i in range(self.n):
            q = w[i] // self.basis[i][i]
            if q:
                w = [a - q * b for a, b in zip(w, self.basis[i])]
        r = tuple(w)
        lam = tuple(a - b for a, b in zip(v, r))
        return r, lam

    def digit_ranges(self):
        return tuple(self.basis[i][i] for i in range(self.n))


def kernel_mod(A, l):
    """The sublattice {m : A m == 0 (mod l)} of Z^n for square A.

    Computed through the Smith form of A; the result always contains
    l * Z^n and is returned with a canonical HNF basis.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("kernel_mod expects a square matrix")
    if l < 1:
        raise ValueError("modulus must be at least 1")
    D, _, V = smith_normal_form(A)
    rows = []
    for j in range(n):
        d = D[j][j] if j < len(D) and j < len(D[0]) else 0
        c = l // gcd(d, l)
        rows.append([c * V[i][j] for i in range(n)])
    lat = Lattice.from_rows(rows, n)
    for i in range(n):
        unit = [l if k == i else 0 for k in range(n)]
        if unit not in lat:
            raise VerificationFailed("kernel lattice misses l * e_i", witness={"i": i})
    return lat


# ---------------------------------------------------------------------------
# alternating normal form


def alternating_normal_form(S):
    """Congruence reduction of an antisymmetric integer matrix.

    Returns (U, ks, zeros) with U unimodular and

        U * S * U^T  =  [[0, k1], [-k1, 0]] (+) ... (+) 0_zeros,

    where k1 | k2 | ... | kp and ki > 0.
    """
    n = len(S)
    for i in range(n):
        if len(S[i]) != n:
            raise NotAntisymmetric("matrix is not square")
        for j in range(n):
            if S[i][j] != -S[j][i]:
                raise NotAntisymmetric(f"S[{i}][{j}] != -S[{j}][{i}]")
    M = [list(row) for row in S]
    U = identity_matrix(n)

    def add(i, j, c):
        # row i += c * row j and col i += c * col j (congruence)
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for r in range(n):
            M[r][i] += c * M[r][j]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def swap(i, j):
        M[i], M[j] = M[j], M[i]
        for r in range(n):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        U[i], U[j] = U[j], U[i]

    def negate(i):
        M[i] = [-a for a in M[i]]
        for r in range(n):
            M[r][i] = -M[r][i]
        U[i] = [-a for a in U[i]]

    ks = []
    p = 0
    while p + 1 < n:
        best = None
        for i in range(p, n):
            for j in range(i + 1, n):
                if M[i][j]:
                    key = (abs(M[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != p:
            swap(p, bi)
        if bj != p + 1:
            swap(p + 1, bj)
        if M[p][p + 1] < 0:
            negate(p + 1)
        while True:
            a = M[p][p + 1]
            dirty = False
            for j in range(p + 2, n):
                if M[p][j]:
                    add(j, p + 1, -(M[p][j] // a))
                    if M[p][j]:
                        dirty = True
            for j in range(p + 2, n):
                if M[p + 1][j]:
                    add(j, p, M[p + 1][j] // a)
                    if M[p + 1][j]:
                        dirty = True
            if dirty:
                # a smaller entry now sits in row p or p+1; make it the pivot
                cand = [(abs(M[p][j]), 0, j) for j in range(p + 2, n) if M[p][j]]
                cand += [(abs(M[p + 1][j]), 1, j) for j in range(p + 2, n) if M[p + 1][j]]
                cand.sort()
                _, which, j = cand[0]
                if which == 1:
                    swap(p, p + 1)
                swap(p + 1, j)
                if M[p][p + 1] < 0:
                    negate(p + 1)
                continue
            viol = None
            for i in range(p + 2, n):
                for j in range(i + 1, n):
                    if M[i][j] % a:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            add(p, viol, 1)
        ks.append(M[p][p + 1])
        p += 2

    zeros = n - 2 * len(ks)
    # exact verification of the claimed congruence and divisibility chain
    St = mat_mul(mat_mul(U, [list(r) for r in S]), transpose(U))
    for i in range(n):
        for j in range(n):
            want = 0
            if i % 2 == 0 and j == i + 1 and i // 2 < len(ks):
                want = ks[i // 2]
            elif j % 2 == 0 and i == j + 1 and j // 2 < len(ks):
                want = -ks[j // 2]
            if St[i][j] != want:
                raise VerificationFailed(
                    "alternating form: U S U^T is not the normal form",
                    witness={"entry": (i, j), "got": St[i][j], "want": want},
                )
    for a, b in zip(ks, ks[1:]):
        if b % a:
            raise VerificationFailed(
                "alternating form: divisibility chain broken", witness={"ks": ks}
            )
    if abs(det_bareiss(U)) != 1:
        raise VerificationFailed("alternating form: transform is not unimodular")
    return _freeze(U), tuple(ks), zeros
