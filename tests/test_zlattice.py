import random
from itertools import product
from math import gcd

import pytest

from qtorus.errors import NotAntisymmetric
from qtorus.zlattice import (
    Lattice,
    alternating_normal_form,
    det_bareiss,
    hermite_normal_form,
    identity_matrix,
    kernel_mod,
    mat_mul,
    smith_normal_form,
    transpose,
)


def diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0])))]


def gcd_of_entries(A):
    g = 0
    for row in A:
        for x in row:
            g = gcd(g, abs(x))
    return g


def gcd_of_2x2_minors(A):
    m, n = len(A), len(A[0])
    g = 0
    for i in range(m):
        for k in range(i + 1, m):
            for j in range(n):
                for l in range(j + 1, n):
                    g = gcd(g, abs(A[i][j] * A[k][l] - A[i][l] * A[k][j]))
    return g


def test_smith_already_diagonal():
    D, U, V = smith_normal_form([[2, 0], [0, 6]])
    assert diagonal(D) == [2, 6]
    assert U == ((1, 0), (0, 1)) and V == ((1, 0), (0, 1))


def test_smith_symplectic_block():
    D, U, V = smith_normal_form([[0, 1], [-1, 0]])
    assert diagonal(D) == [1, 1]


def test_smith_three_by_three():
    A = [[0, 2, 0], [-2, 0, 4], [0, -4, 0]]
    D, U, V = smith_normal_form(A)
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    assert diagonal(D) == [2, 2, 0]
    assert gcd_of_entries(A) == 2
    assert gcd_of_2x2_minors(A) == 4


def test_smith_random_properties():
    rng = random.Random(0)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul([list(r) for r in U], A), [list(r) for r in V]) == [
            list(r) for r in D
        ]
        assert abs(det_bareiss(U)) == 1
        assert abs(det_bareiss(V)) == 1
        diag = diagonal(D)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        for i in range(len(D)):
            for j in range(len(D[0])):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)


def test_hermite_canonical():
    # det 2, above-pivot entry reduced into [0, 2)
    H = hermite_normal_form([[2, 4], [1, 3]])
    assert H == ((1, 1), (0, 2))
    # generating set with redundancy
    H2 = hermite_normal_form([[3, 0], [0, 3], [3, 3], [6, 0]])
    assert H2 == ((3, 0), (0, 3))


def test_smith_diagonal_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        D, _, _ = smith_normal_form(A)
        factors = [abs(int(x)) for x in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        assert diagonal(D) == factors + [0] * (min(m, n) - len(factors)), A


def test_hermite_lattice_matches_sympy():
    # sympy's column HNF of A^T is lower triangular, so compare the lattices
    # the two generate, each put into this module's canonical form
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    rng = random.Random(2)
    checked = 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if sympy.Matrix(A).rank() != n:
            continue
        H = sympy_hnf(sympy.Matrix(A).T).T
        sympy_rows = [[int(x) for x in H.row(i)] for i in range(H.rows)]
        assert hermite_normal_form(sympy_rows) == hermite_normal_form(A), A
        checked += 1
    assert checked >= 100


def kernel_brute_force(A, l):
    """All residues m mod l with A m == 0 mod l, as a set."""
    n = len(A)
    out = set()
    for m in product(range(l), repeat=n):
        image = [sum(a * x for a, x in zip(row, m)) % l for row in A]
        if not any(image):
            out.add(m)
    return out


def residues_of_lattice(lat, l):
    out = set()
    for coeffs in product(range(l), repeat=lat.n):
        v = [0] * lat.n
        for c, row in zip(coeffs, lat.basis):
            v = [a + c * b for a, b in zip(v, row)]
        out.add(tuple(x % l for x in v))
    return out


def test_kernel_mod_golden():
    lat = kernel_mod([[0, 1], [-1, 0]], 3)
    assert lat.basis == ((3, 0), (0, 3))
    assert kernel_mod([[0, 0], [0, 0]], 3).basis == ((1, 0), (0, 1))
    assert kernel_mod([[0, 3], [-3, 0]], 3).basis == ((1, 0), (0, 1))


def test_kernel_mod_three_coords():
    lat = kernel_mod([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], 3)
    assert lat.basis == ((3, 0, 0), (0, 3, 0), (0, 0, 1))


def test_kernel_mod_brute_force():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 3)
        l = rng.choice([2, 3, 4, 5])
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        lat = kernel_mod(A, l)
        assert residues_of_lattice(lat, l) == kernel_brute_force(A, l)
        for row in lat.basis:
            image = [sum(a * x for a, x in zip(arow, row)) % l for arow in A]
            assert not any(image)


def test_lattice_reduce_and_coords():
    lat = Lattice.from_rows([[3, 0], [0, 3]], 2)
    assert lat.index() == 9
    r, lam = lat.reduce((7, -2))
    assert r == (1, 1) and lam == (6, -3)
    assert lat.coords((6, -3)) == (2, -1)
    assert lat.coords((1, 0)) is None
    assert (3, 3) in lat


def block_form(ks, zeros):
    n = 2 * len(ks) + zeros
    M = [[0] * n for _ in range(n)]
    for i, k in enumerate(ks):
        M[2 * i][2 * i + 1] = k
        M[2 * i + 1][2 * i] = -k
    return M


def test_alternating_golden():
    U, ks, zeros = alternating_normal_form([[0, 1], [-1, 0]])
    assert ks == (1,) and zeros == 0
    assert U == ((1, 0), (0, 1))

    U, ks, zeros = alternating_normal_form([[0, 2, 0], [-2, 0, 4], [0, -4, 0]])
    assert ks == (2,) and zeros == 1
    # paired invariants match the Smith invariants (2, 2, 0)
    D, _, _ = smith_normal_form([[0, 2, 0], [-2, 0, 4], [0, -4, 0]])
    assert sorted([D[i][i] for i in range(3)]) == sorted([2, 2, 0])

    U, ks, zeros = alternating_normal_form([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert ks == () and zeros == 3


def test_alternating_rejects_non_antisymmetric():
    with pytest.raises(NotAntisymmetric):
        alternating_normal_form([[0, 1], [1, 0]])
    with pytest.raises(NotAntisymmetric):
        alternating_normal_form([[1, 1], [-1, 0]])


def test_alternating_random_vs_smith():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 6)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                S[i][j] = rng.randint(-10, 10)
                S[j][i] = -S[i][j]
        U, ks, zeros = alternating_normal_form(S)
        assert 2 * len(ks) + zeros == n
        assert all(k > 0 for k in ks)
        for a, b in zip(ks, ks[1:]):
            assert b % a == 0
        assert abs(det_bareiss([list(r) for r in U])) == 1
        got = mat_mul(mat_mul([list(r) for r in U], S), transpose([list(r) for r in U]))
        assert got == block_form(ks, zeros)
        # invariant pairing against the Smith oracle
        D, _, _ = smith_normal_form(S)
        smith_diag = sorted(D[i][i] for i in range(n))
        paired = sorted([k for k in ks for _ in range(2)] + [0] * zeros)
        assert smith_diag == paired


def test_det_bareiss():
    assert det_bareiss(identity_matrix(4)) == 1
    assert det_bareiss([[2, 1], [1, 1]]) == 1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        # expansion oracle
        def perm_det(M):
            from itertools import permutations

            n = len(M)
            total = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= M[i][perm[i]]
                total += term
            return total

        assert det_bareiss(A) == perm_det(A)
