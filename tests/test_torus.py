import hashlib
import random
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from qtorus.galois_action import build_explicit_action
from qtorus.numfield import FieldElement, NumberField, unit_order
from qtorus.problems import load_json, load_problem
from qtorus.specialization import CentralCharacter, _quotient_algebra
from qtorus.torus import QMatrix, TwistedLaurentElement
from qtorus.zlattice import Lattice

CASES = Path(__file__).resolve().parent.parent / "cases"
Q_CASES = sorted(p.name for p in CASES.glob("*.json") if "q" in load_json(p))


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
    z2 = z * z  # z^2 = z^-1
    S = [[0, 1], [-1, 0]]
    rows = [
        ([[1, z], [z, 1]], {}, r"q\[0\]\[1\] \* q\[1\]\[0\] != 1"),
        ([[z, 1], [1, 1]], {}, r"q\[0\]\[0\] != 1"),
        # z * z^2 == 1, so only S itself is at fault
        ([[1, z], [z2, 1]], {"root_of_unity": (3, z, [[0, 1], [2, 0]])}, "exponent matrix must be antisymmetric"),
        ([[1, z2], [z, 1]], {"root_of_unity": (3, z, S)}, r"q\[0\]\[1\] != epsilon\^S\[0\]\[1\]"),
        ([[1, z], [z2, 1]], {"root_of_unity": (6, z, S)}, "epsilon does not have exact order 6"),
        ([[1, z], [z2, 1]], {"declared_orders": [[1, 6], [3, 1]]}, r"declared order of q\[0\]\[1\] is wrong"),
        # q[1][0] = q[0][1]^-1 has the order just verified for q[0][1]
        ([[1, z], [z2, 1]], {"declared_orders": [[1, 3], [6, 1]]}, r"declared order of q\[1\]\[0\] is wrong"),
        # beside root-of-unity data the order of q[i][j] is l / gcd(S[i][j], l)
        (
            [[1, z], [z2, 1]],
            {"declared_orders": [[1, 3], [1, 1]], "root_of_unity": (3, z, S)},
            r"declared order of q\[1\]\[0\] is wrong",
        ),
    ]
    for entries, kwargs, message in rows:
        with pytest.raises(ValueError, match=message):
            QMatrix(zeta3, entries, **kwargs)
    sqrt5 = NumberField.quadratic(5)
    u = 9 + 4 * sqrt5.gen()
    unit_rows = [
        (sqrt5, 0, S, "zero has no multiplicative order"),
        (sqrt5, u, [[1, 1], [-1, 0]], r"q\[0\]\[0\] != 1"),
        (zeta3, z, [[3, 1], [-1, 0]], "exponent matrix must be antisymmetric"),
        (sqrt5, u, [[0, 1], [1, 0]], r"q\[0\]\[1\] \* q\[1\]\[0\] != 1"),
        # z * z^2 == 1 passes the entry check, so only S itself is at fault
        (zeta3, z, [[0, 1], [2, 0]], "exponent matrix must be antisymmetric"),
    ]
    for field, unit, exponents, message in unit_rows:
        with pytest.raises(ValueError, match=message):
            QMatrix.from_unit_powers(field, unit, exponents)


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
    l, _, S = Q.root_of_unity
    assert _orders(l, S) == [[unit_order(q, l) for q in row] for row in Q.entries] == [[1, 3], [3, 1]]
    with pytest.raises(ValueError, match="epsilon does not have exact order 4"):
        QMatrix.from_root_of_unity(zeta3, 4, z, [[0, 1], [-1, 0]])


def test_construction_synthesizes_root_of_unity_data():
    # entries + declared orders resolve to (l, epsilon, S) at construction:
    # epsilon is the first element of exact order l by coefficients, S the
    # discrete logs to base epsilon in (-l/2, l/2]
    shipped = load_problem(CASES / "n3_decompose.json").qmatrix
    l, _, S = shipped.root_of_unity
    twin = QMatrix(shipped.field, shipped.entries, declared_orders=_orders(l, S))
    z12 = NumberField.cyclotomic(12)
    S12 = ((0, 1, 2), (-1, 0, 5), (-2, -5, 0))
    Q12 = QMatrix(
        z12,
        [[z12.gen() ** s for s in row] for row in S12],
        declared_orders=_orders(12, S12),
    )
    expected = [
        (twin, 3, (-1, -1), ((0, -1, 0), (1, 0, 0), (0, 0, 0))),
        (Q12, 12, (0, -1, 0, 0), ((0, -5, 2), (5, 0, -1), (-2, 1, 0))),
    ]
    for Q, l, coeffs, S in expected:
        got_l, eps, got_S = Q.root_of_unity
        assert (got_l, eps.coeffs, got_S) == (l, coeffs, S)
        assert len(Q.eps_pows) == l and Q.eps_pows[1] == eps
        for i in range(Q.n):
            for j in range(Q.n):
                assert Q.entries[i][j] == eps ** S[i][j]
    # a seeded sweep in both spellings: SWEEP_SHA256 digests every (l, epsilon, S)
    # and eps_pows table as closing the entries under all pairwise products
    # gives them
    digest = hashlib.sha256()
    rng = random.Random(20)
    for shipped, declared in _sweep_matrices():
        for Q in (shipped, declared):
            l, eps, S = Q.root_of_unity
            digest.update(repr((l, eps.coeffs, S, [p.coeffs for p in Q.eps_pows])).encode())
            pairwise = QMatrix(Q.field, Q.entries)
            for _ in range(4):
                exps = [rng.randint(-30, 30) for _ in Q.pairs]
                assert Q.evaluate(exps) == pairwise.evaluate(exps), (l, S, exps)
    assert digest.hexdigest() == SWEEP_SHA256


SWEEP_SHA256 = "74e1a1c099fd21ba3fe6e556fd1e784a7e659a74abda3b839cfdf8bf7c8bf436"


def _orders(l, S):
    """The exact orders l / gcd(S[i][j], l) of the entries epsilon^S[i][j], epsilon of order l."""
    return [[l // gcd(s, l) for s in row] for row in S]


def _sweep_matrices():
    """(from_root_of_unity, declared-order twin) of Q(zeta_l)^S, S seeded, l up to 84, n = 1 .. 4."""
    rng = random.Random(19)
    for l in (2, 3, 4, 5, 6, 8, 12, 60, 84):
        field = NumberField.cyclotomic(l)
        for n in range(1, 5):
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    S[i][j] = rng.randint(-l, l)
                    S[j][i] = -S[i][j]
            shipped = QMatrix.from_root_of_unity(field, l, field.gen(), S)
            yield shipped, QMatrix(field, shipped.entries, declared_orders=_orders(l, S))


def test_root_of_unity_construction_takes_about_l_products(monkeypatch):
    # Q(zeta84)^S: the declared-order spelling verifies the orders of the
    # entries above the diagonal (about 200 products; the diagonal and the
    # transposed entries are integer comparisons) and grows the entry group by
    # the powers of one entry (about 170), where closing it under all pairwise
    # products takes about 84^2; from_root_of_unity builds one table of 84
    # powers of epsilon
    field = NumberField.cyclotomic(84)
    S = ((0, 1, 2), (-1, 0, 5), (-2, -5, 0))
    entries = [[field.gen() ** s for s in row] for row in S]
    orders = _orders(84, S)
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    declared = QMatrix(field, entries, declared_orders=orders)
    assert len(calls) < 750, len(calls)
    calls.clear()
    shipped = QMatrix.from_root_of_unity(field, 84, field.gen(), S)
    assert len(calls) < 300, len(calls)
    monkeypatch.undo()
    assert declared.root_of_unity[0] == 84 and set(declared.eps_pows) == set(shipped.eps_pows)
    assert declared.entries == shipped.entries


def entrywise(Q, m, k, pairs):
    """prod q[i][j]^(m_i k_j) over ``pairs``, by plain ``**``: no cache, no reduction."""
    out = Q.field.one()
    for i, j in pairs:
        out = out * Q.entries[i][j] ** (m[i] * k[j])
    return out


@pytest.mark.parametrize("name", Q_CASES)
def test_exponent_form_matches_entrywise_products(name):
    # every commutation matrix in cases/, root-of-unity or not (case1/2/3)
    Q = load_problem(CASES / name).qmatrix
    n = Q.n
    lower = [(i, j) for i in range(n) for j in range(i)]
    every = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = random.Random(6)
    for _ in range(40):
        m, k = rand_exp(rng, n), rand_exp(rng, n)
        assert Q.cocycle(m, k) == entrywise(Q, m, k, lower)
        assert Q.bihom(m, k) == entrywise(Q, m, k, every)
    field = Q.field
    for _ in range(20):
        factors = []
        for _ in range(rng.randint(1, 4)):
            g = field.one() if rng.random() < 0.5 else field.element(
                [rng.choice([-2, -1, 1, 2, 3]) for _ in range(field.degree)]
            )
            factors.append((g, rand_exp(rng, n), rng.randint(-5, 5)))
        # the per-factor rule with entrywise constants: g^e c(v, v)^(e(e-1)/2) c(exp, e v)
        exp, coeff = (0,) * n, field.one()
        for g, v, e in factors:
            part = tuple(e * a for a in v)
            coeff = coeff * g ** e * entrywise(Q, v, v, lower) ** (e * (e - 1) // 2)
            coeff = coeff * entrywise(Q, exp, part, lower)
            exp = tuple(a + b for a, b in zip(exp, part))
        assert Q.power_product(factors) == (exp, coeff)


def _ladder_matrices():
    """Every commutation matrix the benchmark ladder draws: unit entries in its S patterns."""
    out = []
    for l, n in ((3, 2), (3, 3), (4, 3), (3, 4)):
        field = NumberField.cyclotomic(l)
        for s, t, a, b in product((1, -1), repeat=4):
            if n == 2:
                S = [[0, s], [-s, 0]]
            elif n == 3:
                S = [[0, a, b], [-a, 0, b], [-b, -b, 0]]
            else:
                S = [[0, s, a, b], [-s, 0, -b, -a], [-a, b, 0, t], [-b, a, -t, 0]]
            out.append(QMatrix.from_root_of_unity(field, l, field.gen(), S))
    return out


def _unit_power_matrices():
    """from_unit_powers matrices with seeded S, n = 1 .. 4: one unit of infinite
    order over Q(sqrt5), and roots of unity of orders 3 and 5."""
    rng = random.Random(23)
    sqrt5, zeta3, zeta5 = NumberField.quadratic(5), NumberField.cyclotomic(3), NumberField.cyclotomic(5)
    out = []
    for field, u in ((sqrt5, 9 + 4 * sqrt5.gen()), (zeta3, zeta3.gen()), (zeta5, zeta5.gen())):
        for n in range(1, 5):
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    S[i][j] = rng.randint(-4, 4)
                    S[j][i] = -S[i][j]
            out.append(QMatrix.from_unit_powers(field, u, S))
    return out


def test_evaluate_matches_product_over_pairs():
    # evaluate against prod q[i][j]^exps[t] by plain ``**``, on every matrix in
    # cases/, the declared-order twins of its root-of-unity ones, the ladder
    # and seeded from_unit_powers matrices
    matrices = [load_problem(CASES / name).qmatrix for name in Q_CASES]
    twins = [
        QMatrix(Q.field, Q.entries, declared_orders=_orders(Q.root_of_unity[0], Q.root_of_unity[2]))
        for Q in matrices
        if Q.root_of_unity is not None
    ]
    assert len(twins) == 4
    matrices += twins + _ladder_matrices() + _unit_power_matrices()
    rng = random.Random(14)
    for Q in matrices:
        assert (Q.eps_pows is None) == (Q.root_of_unity is None)
        for _ in range(30):
            exps = [rng.randint(-40, 40) for _ in Q.pairs]
            expected = Q.field.one()
            for (i, j), e in zip(Q.pairs, exps):
                expected = expected * Q.entries[i][j] ** e
            assert Q.evaluate(exps) == expected, exps
        assert Q.evaluate([0] * len(Q.pairs)) is Q.field.one()


def test_evaluate_is_periodic_in_the_declared_order():
    # construction verified every order, declared or read off S, so q^e ==
    # q^(e + o) for the exact order o, on evaluate of e times a unit vector
    sqrt5 = NumberField.quadratic(5)
    matrices = [QMatrix(sqrt5, [[1, -1], [-1, 1]], declared_orders=[[1, 2], [2, 1]])]
    matrices += [load_problem(CASES / name).qmatrix for name in Q_CASES]
    checked = 0
    for Q in matrices:
        if Q.root_of_unity is None:
            continue
        l, _, S = Q.root_of_unity
        orders = _orders(l, S)
        for t, (i, j) in enumerate(Q.pairs):
            o = orders[i][j]
            for e in range(-7, 8):
                power = [e * (s == t) for s in range(len(Q.pairs))]
                shifted = [(e + o) * (s == t) for s in range(len(Q.pairs))]
                assert Q.evaluate(power) == Q.evaluate(shifted) == Q.entries[i][j] ** e
                checked += 1
    assert checked


def test_unit_power_evaluate_reads_its_cache(monkeypatch):
    # one unit of infinite order: a second pass over the same exponent vectors
    # reads every power from the unit's cache and multiplies nothing
    sqrt5 = NumberField.quadratic(5)
    S = [[0, 2, -1, 3], [-2, 0, 1, -3], [1, -1, 0, 2], [-3, 3, -2, 0]]
    Q = QMatrix.from_unit_powers(sqrt5, 9 + 4 * sqrt5.gen(), S)
    rng = random.Random(24)
    vectors = [[rng.randint(-6, 6) for _ in Q.pairs] for _ in range(50)]
    first = [Q.evaluate(exps) for exps in vectors]
    calls = []
    mul, pow_ = FieldElement.__mul__, FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(FieldElement, "__pow__", lambda a, e: calls.append("pow") or pow_(a, e))
    second = [Q.evaluate(exps) for exps in vectors]
    monkeypatch.undo()
    assert calls == []
    assert second == first


def test_reduce_monomial_matches_inverse_formula():
    # central lattices of Q(zeta3)^3 that are not 3 Z^3, on which c(r, lam) is
    # not always 1: index 27 (a dim-27 rung), and index 18, whose first digit
    # ranges over 2 values so that the quotient table meets such c(r, lam) too
    zeta3 = NumberField.cyclotomic(3)
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]])
    rng = random.Random(7)
    for rows, dim in (([[9, 0, 0], [0, 3, 0], [2, 1, 1]], 27), ([[2, 1, 1], [0, 3, 0], [0, 0, 3]], 18)):
        lattice = Lattice.from_rows(rows, 3)
        chi = CentralCharacter(Q, lattice, [2, zeta3.gen(), -1])

        def old_formula(exp):
            r, lam = lattice.reduce(exp)
            return r, Q.cocycle(r, lam).inverse() * chi.value(lam)

        exps = [rand_exp(rng, 3, span=12) for _ in range(60)]
        assert sum(Q.cocycle(*lattice.reduce(e)) != 1 for e in exps) > 10
        for exp in exps:
            assert chi.reduce_monomial(exp) == old_formula(exp)
        algebra = _quotient_algebra(Q, chi)
        assert algebra.dim == dim
        for (i, g), (j, h) in product(enumerate(algebra.labels), repeat=2):
            r, u = old_formula(tuple(a + b for a, b in zip(g, h)))
            got = algebra.mul(algebra.basis_vec(i), algebra.basis_vec(j))
            assert got == {algebra.labels.index(r): Q.cocycle(g, h) * u}
