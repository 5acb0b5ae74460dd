import random

import pytest

from qtorus.galois_action import build_explicit_action
from qtorus.numfield import NumberField
from qtorus.torus import QMatrix, TwistedLaurentElement


def q_plane(field, q):
    """n = 2 with x1 x2 = q x2 x1."""
    qinv = field.element(q).inverse()
    return QMatrix(field, [[1, q], [qinv, 1]])


@pytest.fixture
def zeta3():
    return NumberField.cyclotomic(3)


@pytest.fixture
def Qz(zeta3):
    return q_plane(zeta3, zeta3.gen())


def rand_exp(rng, n, span=5):
    return tuple(rng.randint(-span, span) for _ in range(n))


def rand_qmatrix(field, unit, rng, n):
    entries = [[field.one() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = rng.randint(-3, 3)
            entries[i][j] = unit ** e
            entries[j][i] = unit ** (-e)
    return QMatrix(field, entries)


def rand_element(Q, rng, nterms=3, span=5):
    out = TwistedLaurentElement.zero(Q)
    for _ in range(nterms):
        c = Q.field.element([rng.randint(-4, 4) for _ in range(Q.field.degree)])
        out = out + TwistedLaurentElement.monomial(Q, rand_exp(rng, Q.n, span), c)
    return out


def test_invalid_qmatrix_rejected(zeta3):
    z = zeta3.gen()
    with pytest.raises(ValueError):
        QMatrix(zeta3, [[1, z], [z, 1]])  # z * z != 1
    with pytest.raises(ValueError):
        QMatrix(zeta3, [[z, 1], [1, 1]])  # diagonal must be 1


def test_bihom_basis(Qz, zeta3):
    z = zeta3.gen()
    assert Qz.bihom((1, 0), (0, 1)) == z
    assert Qz.bihom((0, 1), (1, 0)) == z.inverse()
    assert Qz.bihom((2, 1), (1, 1)) == z  # exponent m1 k2 - m2 k1 = 1
    rng = random.Random(0)
    for _ in range(30):
        m = rand_exp(rng, 2)
        assert Qz.bihom(m, m) == 1


def test_bihom_biadditive(Qz):
    rng = random.Random(1)
    for _ in range(30):
        m, k, r = (rand_exp(rng, 2) for _ in range(3))
        mk = tuple(a + b for a, b in zip(m, k))
        assert Qz.bihom(mk, r) == Qz.bihom(m, r) * Qz.bihom(k, r)
        assert Qz.bihom(r, mk) == Qz.bihom(r, m) * Qz.bihom(r, k)


def test_cocycle_values(Qz, zeta3):
    z = zeta3.gen()
    assert Qz.cocycle((1, 0), (0, 1)) == 1  # already normal ordered
    assert Qz.cocycle((0, 1), (1, 0)) == z.inverse()  # one swap
    assert Qz.cocycle((1, 1), (0, 0)) == 1
    assert Qz.cocycle((0, 0), (1, 1)) == 1


def test_cocycle_identity_and_eq6(Qz):
    rng = random.Random(2)
    for _ in range(50):
        m, k, r = (rand_exp(rng, 2) for _ in range(3))
        # two-cocycle identity
        mk = tuple(a + b for a, b in zip(m, k))
        kr = tuple(a + b for a, b in zip(k, r))
        assert Qz.cocycle(m, k) * Qz.cocycle(mk, r) == Qz.cocycle(k, r) * Qz.cocycle(m, kr)
        # swap relation between the cocycle and the pairing
        assert Qz.cocycle(m, k) == Qz.bihom(m, k) * Qz.cocycle(k, m)


def test_monomial_swap_exact(Qz):
    rng = random.Random(3)
    for _ in range(50):
        m, k = rand_exp(rng, 2), rand_exp(rng, 2)
        xm = TwistedLaurentElement.monomial(Qz, m)
        xk = TwistedLaurentElement.monomial(Qz, k)
        assert xm * xk == (xk * xm) * Qz.bihom(m, k)


def test_product_examples(Qz, zeta3):
    z = zeta3.gen()
    x1 = TwistedLaurentElement.generator(Qz, 0)
    x2 = TwistedLaurentElement.generator(Qz, 1)
    assert x2 * x1 == TwistedLaurentElement.monomial(Qz, (1, 1), z.inverse())
    sq = (x1 + x2) * (x1 + x2)
    expected = (
        TwistedLaurentElement.monomial(Qz, (2, 0))
        + TwistedLaurentElement.monomial(Qz, (1, 1), 1 + z.inverse())
        + TwistedLaurentElement.monomial(Qz, (0, 2))
    )
    assert sq == expected


def test_monomial_inverse(Qz, zeta3):
    z = zeta3.gen()
    m = TwistedLaurentElement.monomial(Qz, (1, 1))
    inv = m.inverse()
    assert inv == TwistedLaurentElement.monomial(Qz, (-1, -1), z.inverse())
    assert m * inv == TwistedLaurentElement.one(Qz)
    assert inv * m == TwistedLaurentElement.one(Qz)
    assert TwistedLaurentElement.monomial(Qz, (1, 1), zeta3.one()).inverse() == inv
    with pytest.raises(ValueError):
        (m + TwistedLaurentElement.one(Qz)).inverse()


def repeated_product(u, e):
    """u^e for e >= 0 as e products through ``TwistedLaurentElement.__mul__``."""
    out = TwistedLaurentElement.one(u.q)
    for _ in range(e):
        out = out * u
    return out


def check_power_product(Q, factors):
    """Check every prefix P_k of power_product(factors) against element arithmetic.

    With u_k = g_k x^(v_k): P_k = P_(k-1) u_k^e_k for e_k >= 0, and
    P_k u_k^(-e_k) = P_(k-1) for e_k < 0, both sides built by repeated
    products.  Monomials are units, so this pins every P_k exactly.
    """
    prev = TwistedLaurentElement.one(Q)
    for k, (g, v, e) in enumerate(factors, 1):
        cur = TwistedLaurentElement.monomial(Q, *Q.power_product(factors[:k]))
        u = TwistedLaurentElement.monomial(Q, v, g)
        if e >= 0:
            assert cur == prev * repeated_product(u, e), (factors[:k], cur)
        else:
            assert cur * repeated_product(u, -e) == prev, (factors[:k], cur)
        prev = cur
    return prev


def test_power_product_matches_element_arithmetic():
    # (g x^v)^e = g^e c(v, v)^(e(e-1)/2) x^(ev) for every integer e, in any order
    rng = random.Random(5)
    sqrt5 = NumberField.quadratic(5)
    unit = 9 + 4 * sqrt5.gen()
    matrices = [rand_qmatrix(sqrt5, unit, rng, 3)]  # not a root of unity
    for l in (3, 5):
        field = NumberField.cyclotomic(l)
        S = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                S[i][j] = rng.randint(1, l - 1)
                S[j][i] = -S[i][j]
        matrices.append(QMatrix.from_root_of_unity(field, l, field.gen(), S))
    for Q in matrices:
        field = Q.field
        for _ in range(12):
            factors = []
            for _ in range(rng.randint(1, 4)):
                g = field.one() if rng.random() < 0.3 else field.element(
                    [rng.choice([-2, -1, 1, 2, 3]) for _ in range(field.degree)]
                )
                factors.append((g, rand_exp(rng, 3, span=2), rng.randint(-3, 3)))
            check_power_product(Q, factors)
        # one factor whose c(v, v) is not 1, at each exponent from -3 to 3
        v = (1, 1, 0)
        assert Q.cocycle(v, v) != 1
        for e in range(-3, 4):
            check_power_product(Q, [(field.one(), v, e)])
    # sigma(x^m) for an explicit action with the non-rational gamma_sigma(e1) = 9 + 4 sqrt5:
    # sigma e1 = (1, 1), whose c(v, v) = q21 is not 1, and sigma e2 = (0, -1)
    Q = QMatrix(sqrt5, [[1, unit], [unit.inverse(), 1]])
    one = sqrt5.one()
    action = build_explicit_action(
        Q, sqrt5.galois, [[[1, 0], [0, 1]], [[1, 0], [1, -1]]], [[one, one], [unit, one]]
    )
    for m in ((0, 0), (1, 0), (2, 1), (-1, 0), (-3, 2), (3, -2)):
        factors = [(action.cocycle.values[1][i], action.module.column(1, i), e) for i, e in enumerate(m)]
        image = check_power_product(Q, factors)
        assert image == TwistedLaurentElement.monomial(Q, *action.monomial_image(1, m))


def test_associativity_random():
    rng = random.Random(4)
    for field_maker in (lambda: NumberField.cyclotomic(3), lambda: NumberField.quadratic(5)):
        field = field_maker()
        unit = field.gen() if field.kind == "cyclotomic" else 9 + 4 * field.gen()
        for n in (2, 3, 4):
            Q = rand_qmatrix(field, unit, rng, n)
            for _ in range(6):
                a, b, c = (rand_element(Q, rng) for _ in range(3))
                assert (a * b) * c == a * (b * c)


def test_grading(Qz):
    x1 = TwistedLaurentElement.generator(Qz, 0)
    x2 = TwistedLaurentElement.generator(Qz, 1)
    g = x1.grading()
    assert set(g) == {(1, 0)} and g[(1, 0)] == x1
    a = x1 + 2 * x2
    comps = a.grading()
    assert set(comps) == {(1, 0), (0, 1)}
    assert comps[(0, 1)] == 2 * x2
    total = TwistedLaurentElement.zero(Qz)
    for part in comps.values():
        total = total + part
    assert total == a
    # degrees add under multiplication of homogeneous elements
    prod = (2 * x1) * (x2 * 3)
    (deg, _), = prod.grading().items()
    assert deg == (1, 1)


def test_scalar_coercion(Qz, zeta3):
    one = TwistedLaurentElement.one(Qz)
    assert one * 2 + one == 3 * one
    assert one - 1 == TwistedLaurentElement.zero(Qz)
    assert (one * zeta3.gen()) * zeta3.gen() ** 2 == one


def test_root_of_unity_form(zeta3):
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 1], [-1, 0]])
    assert Q.entries[0][1] == z
    assert Q.declared_orders == ((1, 3), (3, 1))
    with pytest.raises(ValueError):
        QMatrix.from_root_of_unity(zeta3, 4, z, [[0, 1], [-1, 0]])
