import random
from fractions import Fraction
from math import gcd

import pytest

from qtorus.errors import FieldAssumptionViolated
from qtorus.numfield import (
    NumberField,
    find_normal_basis,
    norm,
    norm_trace,
    trace,
    unit_order,
)


@pytest.fixture
def sqrt5():
    return NumberField.quadratic(5)


@pytest.fixture
def zeta3():
    return NumberField.cyclotomic(3)


def rand_elt(field, rng, span=9):
    return field.element([Fraction(rng.randint(-span, span)) for _ in range(field.degree)])


def test_quadratic_product(sqrt5):
    alpha = sqrt5.gen()
    assert (1 + alpha) * (1 - alpha) == -4


def test_quadratic_inverse_golden(sqrt5):
    # extended gcd oracle: t^2 - 5 = (1+t)(t-1) - 4, so (1+t)^-1 = (t-1)/4
    alpha = sqrt5.gen()
    b = 1 + alpha
    expected = (alpha - 1) / 4
    assert b.inverse() == expected
    assert b * b.inverse() == 1


def test_cyclotomic_reduction(zeta3):
    z = zeta3.gen()
    assert z * z == -1 - z
    assert z ** 3 == 1


def test_division_by_zero_raises(sqrt5):
    with pytest.raises(ZeroDivisionError):
        sqrt5.zero().inverse()


def test_inverse_with_low_degree_representative():
    # a degree-4 field element whose coefficient vector has trailing zeros
    z5 = NumberField.cyclotomic(5)
    b = 1 + z5.gen()
    assert b * b.inverse() == 1
    rng = random.Random(9)
    for _ in range(20):
        a = rand_elt(z5, rng, span=3)
        if a:
            assert a * a.inverse() == 1


def test_custom_reducible_detected_lazily():
    # t^2 - 1 factors; inverting t - 1 must expose it
    field = NumberField.custom([-1, 0, 1], [[0, -1]])
    bad = field.element([-1, 1])
    with pytest.raises(FieldAssumptionViolated):
        bad.inverse()


def test_field_axioms_random(sqrt5, zeta3):
    rng = random.Random(0)
    for field in (sqrt5, zeta3):
        for _ in range(50):
            a, b, c = (rand_elt(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == 1


def test_automorphisms_quadratic(sqrt5):
    alpha = sqrt5.gen()
    sigma = sqrt5.galois.elements[1]
    a, b = Fraction(3), Fraction(7)
    assert sigma(a + b * alpha) == a - b * alpha
    assert sigma(sigma(a + b * alpha)) == a + b * alpha


def test_automorphism_is_ring_hom(zeta3, sqrt5):
    rng = random.Random(1)
    for field in (zeta3, sqrt5):
        for sigma in field.galois:
            for _ in range(20):
                a, b = rand_elt(field, rng), rand_elt(field, rng)
                assert sigma(a + b) == sigma(a) + sigma(b)
                assert sigma(a * b) == sigma(a) * sigma(b)


def test_composition_table_matches_pointwise(zeta3):
    group = zeta3.galois
    rng = random.Random(2)
    a = rand_elt(zeta3, rng)
    for i, si in enumerate(group.elements):
        for j, sj in enumerate(group.elements):
            k = group.compose_idx(i, j)
            assert group.elements[k](a) == si(sj(a))


def test_cyclotomic_sigma(zeta3):
    z = zeta3.gen()
    sigma = zeta3.galois.elements[1]
    assert sigma(z) == -1 - z


def test_norm_one_unit(sqrt5):
    alpha = sqrt5.gen()
    q = 9 + 4 * alpha
    sigma = sqrt5.galois.elements[1]
    assert sigma(q) * q == 1


def test_norm_trace_golden(sqrt5, zeta3):
    alpha = sqrt5.gen()
    lam, mu, D = Fraction(9), Fraction(4), 5
    q = lam + mu * alpha
    # independent oracle: norm is lam^2 - D*mu^2, trace is 2*lam
    assert norm(q) == lam * lam - D * mu * mu == 1
    assert trace(q) == 2 * lam == 18
    z = zeta3.gen()
    assert norm_trace(z) == (1, -1)
    assert norm(zeta3.zero()) == 0


def test_norm_trace_invariant(sqrt5, zeta3):
    rng = random.Random(3)
    for field in (sqrt5, zeta3):
        for _ in range(10):
            a = rand_elt(field, rng)
            n, t = norm_trace(a)
            for sigma in field.galois:
                assert norm(sigma(a)) == n
                assert trace(sigma(a)) == t


def test_unit_order(sqrt5, zeta3):
    assert unit_order(zeta3.gen(), 10) == 3
    assert unit_order(sqrt5.from_rational(-1), 10) == 2
    assert unit_order(9 + 4 * sqrt5.gen(), 100) is None


def test_unit_order_minimality():
    for l in (4, 5, 6, 8, 12):
        field = NumberField.cyclotomic(l)
        z = field.gen()
        e = unit_order(z, 50)
        assert e == l
        one = field.one()
        power = z
        for m in range(1, e):
            assert power != one
            power = power * z
        assert power == one


def test_normal_basis_quadratic(sqrt5):
    a = find_normal_basis(sqrt5)
    sigma = sqrt5.galois.elements[1]
    # conjugates independent over Q: 2x2 determinant of coefficient rows
    r0, r1 = a.coeffs, sigma(a).coeffs
    assert r0[0] * r1[1] - r0[1] * r1[0] != 0
    # sanity against the worked pair: 1 + alpha accepted, alpha rejected
    alpha = sqrt5.gen()
    good = 1 + alpha
    g0, g1 = good.coeffs, sigma(good).coeffs
    assert g0[0] * g1[1] - g0[1] * g1[0] != 0
    b0, b1 = alpha.coeffs, sigma(alpha).coeffs
    assert b0[0] * b1[1] - b0[1] * b1[0] == 0


def test_normal_basis_cyclotomic(zeta3):
    a = find_normal_basis(zeta3)
    sigma = zeta3.galois.elements[1]
    r0, r1 = a.coeffs, sigma(a).coeffs
    assert r0[0] * r1[1] - r0[1] * r1[0] != 0
    # zeta itself works for the 3rd cyclotomic field
    z = zeta3.gen()
    z0, z1 = z.coeffs, sigma(z).coeffs
    assert z0[0] * z1[1] - z0[1] * z1[0] != 0


def test_not_galois_rejected():
    # Q(cbrt(2)) has no nontrivial automorphism over Q
    with pytest.raises(ValueError):
        NumberField.custom([-2, 0, 0, 1], [])


def test_quadratic_constructor_validation():
    for bad in (0, 1, 4, 12):
        with pytest.raises(ValueError):
            NumberField.quadratic(bad)


def test_rationals_field():
    Q = NumberField.rationals()
    assert Q.degree == 1
    a = Q.from_rational(Fraction(3, 4))
    assert (a * 4).as_fraction() == 3
    assert len(Q.galois) == 1


# -- reference oracle: sympy polynomial arithmetic over QQ modulo f ----------

ORACLE_FIELDS = {
    "sqrt5": lambda: NumberField.quadratic(5),
    "i": lambda: NumberField.quadratic(-1),
    "zeta3": lambda: NumberField.cyclotomic(3),
    "zeta5": lambda: NumberField.cyclotomic(5),
    "zeta7": lambda: NumberField.cyclotomic(7),
    # t^2 = 1/2: a monic polynomial whose reduction table has denominator 2
    "sqrt_half": lambda: NumberField.custom([Fraction(-1, 2), 0, 1], [[0, -1]]),
    # t = golden ratio / 2, t^2 = t/2 + 1/4: the conjugate 1/2 - t is not integral in t
    "half_golden": lambda: NumberField.custom(
        [Fraction(-1, 4), Fraction(-1, 2), 1], [[Fraction(1, 2), -1]]
    ),
}


def _rand_fraction_elt(field, rng):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(field.degree)]
    )


def _assert_reduced(a):
    assert all(type(c) is int for c in a.num) and type(a.den) is int
    assert len(a.num) == a.field.degree
    assert a.den > 0 and gcd(a.den, *a.num) == 1


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_arithmetic_matches_sympy_oracle(name):
    sympy = pytest.importorskip("sympy")
    field = ORACLE_FIELDS[name]()
    t = sympy.Symbol("t")
    QQ = sympy.QQ

    def poly(coeffs):
        return sympy.Poly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain=QQ)

    f = poly(field.min_poly)

    def same(elt, p):
        got = p.rem(f).all_coeffs()[::-1]
        got = [Fraction(int(c.numerator), int(c.denominator)) for c in got]
        got += [Fraction(0)] * (field.degree - len(got))
        _assert_reduced(elt)
        assert elt.coeffs == tuple(got)
        assert all(type(c) is Fraction for c in elt.coeffs)

    rng = random.Random(sum(map(ord, name)))
    for _ in range(25):
        a, b = _rand_fraction_elt(field, rng), _rand_fraction_elt(field, rng)
        pa, pb = poly(a.coeffs), poly(b.coeffs)
        same(a + b, pa + pb)
        same(a - b, pa - pb)
        same(a * b, pa * pb)
        same(-a, -pa)
        if a:
            same(a.inverse(), pa.invert(f))
            same(a ** -3, pa.invert(f) ** 3)
            same(b / a, pb * pa.invert(f))
        for sigma in field.galois:
            same(sigma(a), pa.compose(poly(sigma.t_image.coeffs)))


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_equal_elements_have_equal_form_and_hash(name):
    field = ORACLE_FIELDS[name]()
    rng = random.Random(len(name))
    for _ in range(25):
        a, b = _rand_fraction_elt(field, rng), _rand_fraction_elt(field, rng)
        if not b:
            continue
        for other in (a * b * b.inverse(), (a + b) - b, field.element(a.coeffs), b * a / b):
            assert other == a
            assert (other.num, other.den) == (a.num, a.den)
            assert hash(other) == hash(a)
    assert hash(field.from_rational(Fraction(2, 4))) == hash(field.element([Fraction(1, 2)]))


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_galois_elements_sorted_by_fraction_images(name):
    group = ORACLE_FIELDS[name]().galois
    key = lambda a: (not a.is_identity, a.t_image.coeffs)  # noqa: E731
    assert list(group.elements) == sorted(group.elements, key=key)
    assert group.elements[0].is_identity


def test_reciprocal_of_one_makes_no_product_by_one(monkeypatch):
    # 1 / a is a.inverse() with the same products; other dividends still multiply
    from qtorus.numfield import FieldElement

    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    rng = random.Random(3)
    for field in (NumberField.quadratic(5), NumberField.cyclotomic(5)):
        for _ in range(5):
            a = rand_elt(field, rng)
            if not a:
                continue
            calls.clear()
            inv = a.inverse()
            n_inverse = len(calls)
            calls.clear()
            for one in (1, Fraction(1)):
                assert one / a == inv
            assert len(calls) == 2 * n_inverse
            assert Fraction(2, 3) / a == inv * Fraction(2, 3)


def _sympy_fields(rng):
    """Q(sqrt D) for three random squarefree D, and Q(zeta_l) for l in 3, 4, 5, 7, 8."""
    sympy = pytest.importorskip("sympy")
    squarefree = [
        D for D in range(-30, 31) if D not in (0, 1) and max(sympy.factorint(abs(D)).values(), default=1) == 1
    ]
    fields = [NumberField.quadratic(D) for D in rng.sample(squarefree, 3)]
    return fields + [NumberField.cyclotomic(l) for l in (3, 4, 5, 7, 8)]


def _sympy_poly(coeffs):
    """The element with these power-basis coefficients as a sympy polynomial in t over QQ."""
    sympy = pytest.importorskip("sympy")
    QQ = sympy.QQ
    return sympy.Poly(
        [QQ(c.numerator, c.denominator) for c in reversed(coeffs)], sympy.Symbol("t"), domain=QQ
    )


def test_normal_basis_matches_sympy_oracle():
    # the d conjugates of the returned element, computed in sympy, have rank d over QQ
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for field in _sympy_fields(rng):
        f = _sympy_poly(field.min_poly)
        images = [_sympy_poly(sigma.t_image.coeffs) for sigma in field.galois]
        assert all(f.compose(img).rem(f).is_zero for img in images)
        for seed, attempts in ((rng.randrange(1000), 500), (rng.randrange(1000), 3)):
            a = _sympy_poly(find_normal_basis(field, seed=seed, attempts=attempts).coeffs)
            rows = []
            for img in images:
                conj = a.compose(img).rem(f).all_coeffs()[::-1]
                rows.append(conj + [0] * (field.degree - len(conj)))
            assert sympy.Matrix(rows).rank() == field.degree, (field, seed, attempts)


def _sympy_order(a, bound):
    """The least e <= bound with a^e = 1 mod f, by sympy polynomial remainders, else None."""
    f, pa = _sympy_poly(a.field.min_poly), _sympy_poly(a.coeffs)
    power = pa
    for e in range(1, bound + 1):
        if power.is_one:
            return e
        power = (power * pa).rem(f)
    return None


def test_unit_order_matches_sympy_oracle():
    rng = random.Random(12)
    for field in _sympy_fields(rng):
        t = field.gen()
        candidates = [field.one(), -field.one(), t, -t, t ** 2, -(t ** 3), 1 + t]
        candidates += [rand_elt(field, rng, span=2) for _ in range(4)]
        for a in candidates:
            if a:
                bound = rng.randint(1, 20)
                assert unit_order(a, bound) == _sympy_order(a, bound), (field, a, bound)
    # a unit of infinite order has none below any bound
    unit = 9 + 4 * NumberField.quadratic(5).gen()
    assert _sympy_order(unit, 200) is None
    assert unit_order(unit, 200) is None
