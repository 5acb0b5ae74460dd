import random
from pathlib import Path

import pytest

from qtorus import galois_action
from qtorus.errors import CompatibilityFailure
from qtorus.galois_action import (
    GammaCocycle,
    SemilinearAction,
    TorusModule,
    build_explicit_action,
    build_order2_action,
    build_permutation_action,
    build_trivial_action,
    validate_action,
)
from qtorus.numfield import NumberField
from qtorus.problems import load_json, load_problem
from qtorus.torus import QMatrix, TwistedLaurentElement

CASES = Path(__file__).resolve().parent.parent / "cases"
ACTION_CASES = sorted(p.name for p in CASES.glob("*.json") if "action" in load_json(p))


def q_plane(field, q):
    qinv = field.element(q).inverse()
    return QMatrix(field, [[1, q], [qinv, 1]])


@pytest.fixture
def sqrt5():
    return NumberField.quadratic(5)


@pytest.fixture
def zeta3():
    return NumberField.cyclotomic(3)


@pytest.fixture
def unit5(sqrt5):
    return 9 + 4 * sqrt5.gen()


def swap_action(field, q):
    Q = q_plane(field, q)
    return build_order2_action(Q, field.galois, [{"swap": [0, 1]}])


def test_swap_accepts_norm_one_unit(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    assert action.n == 2


def test_swap_rejects_non_unit(sqrt5):
    with pytest.raises(CompatibilityFailure) as err:
        swap_action(sqrt5, sqrt5.from_rational(2))
    assert err.value.witness is not None


def test_sign_action_accepts_norm_one_unit(sqrt5, unit5):
    Q = q_plane(sqrt5, unit5)
    action = build_order2_action(Q, sqrt5.galois, [{"sign": 1}, {"sign": -1}])
    x2 = TwistedLaurentElement.generator(Q, 1)
    assert action.apply(1, x2) == x2.inverse()


def test_trivial_action_requires_rational_q(sqrt5):
    Q = q_plane(sqrt5, sqrt5.from_rational(7))
    action = build_trivial_action(Q, sqrt5.galois)
    alpha = sqrt5.gen()
    elt = TwistedLaurentElement.monomial(Q, (2, -1), alpha)
    sigma_elt = action.apply(1, elt)
    assert sigma_elt == TwistedLaurentElement.monomial(Q, (2, -1), -alpha)
    with pytest.raises(CompatibilityFailure):
        build_trivial_action(q_plane(sqrt5, 9 + 4 * alpha), sqrt5.galois)


def test_swap_on_generators(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    Q = action.qmatrix
    x1 = TwistedLaurentElement.generator(Q, 0)
    x2 = TwistedLaurentElement.generator(Q, 1)
    assert action.apply(1, x1) == x2
    assert action.apply(1, x2) == x1


def test_negation_action(sqrt5):
    Q = q_plane(sqrt5, sqrt5.from_rational(7))
    action = build_order2_action(Q, sqrt5.galois, [{"sign": -1}, {"sign": -1}])
    x1 = TwistedLaurentElement.generator(Q, 0)
    assert action.apply(1, x1) == x1.inverse()


def test_involution_on_monomials(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    Q = action.qmatrix
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            xm = TwistedLaurentElement.monomial(Q, (m1, m2))
            assert action.apply(1, action.apply(1, xm)) == xm


def test_corrupted_explicit_cocycle_rejected(sqrt5):
    # trivial module, gamma_sigma(e1) = alpha: the composite over sigma^2
    # picks up sigma(alpha)*alpha = -5 != 1
    alpha = sqrt5.gen()
    Q = q_plane(sqrt5, sqrt5.from_rational(7))
    one = sqrt5.one()
    with pytest.raises(CompatibilityFailure):
        build_explicit_action(
            Q,
            sqrt5.galois,
            [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
            [[one, one], [alpha, one]],
        )


def test_explicit_with_consistent_cocycle(sqrt5):
    # gamma_sigma(e1) = -1 is a genuine cocycle on the trivial module
    Q = q_plane(sqrt5, sqrt5.from_rational(7))
    one = sqrt5.one()
    action = build_explicit_action(
        Q,
        sqrt5.galois,
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        [[one, one], [-one, one]],
    )
    x1 = TwistedLaurentElement.generator(Q, 0)
    assert action.apply(1, x1) == -x1
    rep = validate_action(action, degree_bound=2, samples=20)
    assert rep.ok


def test_permutation_eq9(sqrt5, unit5):
    # a swap given as a permutation module must satisfy the permuted-entry rule
    Q = q_plane(sqrt5, unit5)
    action = build_permutation_action(
        Q, sqrt5.galois, {0: (0, 1), 1: (1, 0)}
    )
    assert action.module.mats[1] == ((0, 1), (1, 0))
    with pytest.raises(CompatibilityFailure):
        build_permutation_action(
            q_plane(sqrt5, sqrt5.from_rational(2)), sqrt5.galois, {0: (0, 1), 1: (1, 0)}
        )


def test_permutation_incompatibility_witness(zeta3):
    # the witness is the first (sigma, i, j) with q[p(i)][p(j)] != sigma(q[i][j])
    z = zeta3.gen()
    Q = QMatrix(zeta3, [[1, z, z], [z * z, 1, z], [z * z, z * z, 1]])
    perms = {0: (0, 1, 2), 1: (1, 0, 2)}
    want = next(
        (idx, i, j)
        for idx, p in perms.items()
        for i in range(3)
        for j in range(3)
        if Q.entries[p[i]][p[j]] != zeta3.galois.elements[idx](Q.entries[i][j])
    )
    with pytest.raises(CompatibilityFailure) as err:
        build_permutation_action(Q, zeta3.galois, perms)
    assert err.value.witness == want == (1, 0, 2)


def test_semilinearity_and_multiplicativity(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    Q = action.qmatrix
    rng = random.Random(0)
    alpha = sqrt5.gen()
    sigma = sqrt5.galois.elements[1]
    for _ in range(20):
        m = tuple(rng.randint(-3, 3) for _ in range(2))
        k = tuple(rng.randint(-3, 3) for _ in range(2))
        c = sqrt5.element([rng.randint(-3, 3), rng.randint(-3, 3)])
        a = TwistedLaurentElement.monomial(Q, m, alpha)
        b = TwistedLaurentElement.monomial(Q, k)
        # semilinear on scalars
        assert action.apply(1, a * c) == action.apply(1, a) * sigma(c)
        # multiplicative
        assert action.apply(1, a * b) == action.apply(1, a) * action.apply(1, b)
        # bijective: sigma then sigma is the identity
        assert action.apply(1, action.apply(1, a + b)) == a + b


def test_relation_preservation(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    Q = action.qmatrix
    sigma = sqrt5.galois.elements[1]
    for i in range(2):
        for j in range(2):
            xi = TwistedLaurentElement.generator(Q, i)
            xj = TwistedLaurentElement.generator(Q, j)
            lhs = action.apply(1, xi * xj)
            rhs = action.apply(1, xj * xi) * sigma(Q.entries[i][j])
            assert lhs == rhs


def test_validate_action_reports(sqrt5, unit5):
    action = swap_action(sqrt5, unit5)
    rep = validate_action(action, degree_bound=3, samples=30)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "group-law-on-monomials" in names


def test_gamma_on_composite_exponents(sqrt5, unit5):
    # gamma for the swap on (1,1): sigma(x1 x2) = x2 x1 = q^-1 x1 x2
    action = swap_action(sqrt5, unit5)
    q = unit5
    assert action.gamma(1, (1, 1)) == q.inverse()
    exp, coeff = action.monomial_image(1, (1, 1))
    assert exp == (1, 1)


def test_torus_module_validation(sqrt5):
    with pytest.raises(ValueError):
        TorusModule(sqrt5.galois, [[[1, 0], [0, 1]], [[2, 0], [0, 1]]])
    with pytest.raises(ValueError):
        # sigma matrix of order 4 cannot represent an order-2 group element
        TorusModule(sqrt5.galois, [[[1, 0], [0, 1]], [[0, -1], [1, 0]]])


def test_gamma_cocycle_validation(sqrt5):
    one = sqrt5.one()
    with pytest.raises(ValueError):
        GammaCocycle(sqrt5, sqrt5.galois, [[one, one], [sqrt5.zero(), one]])
    with pytest.raises(ValueError):
        GammaCocycle(sqrt5, sqrt5.galois, [[one, 2 * one], [one, one]])


def uncached_image(action, idx, m):
    gam = action.cocycle.values[idx]
    return action.qmatrix.power_product(
        (gam[i], action.module.column(idx, i), e) for i, e in enumerate(m)
    )


@pytest.mark.parametrize("name", ACTION_CASES + ["rotation5"])
def test_cached_image_matches_power_product(name, request):
    # a kept image is the value power_product gives, and a second call returns it
    if name == "rotation5":
        action = request.getfixturevalue("rotation5")
    else:
        action = load_problem(CASES / name).action
    rng = random.Random(11)
    for _ in range(60):
        m = tuple(rng.randint(-5, 5) for _ in range(action.n))
        for idx in range(len(action.galois)):
            want = uncached_image(action, idx, m)
            first = action.monomial_image(idx, m)
            assert first == want
            assert action.monomial_image(idx, m) is first


def test_capped_cache_gives_the_same_report(monkeypatch):
    doc = CASES / "n3_decompose.json"
    want = validate_action(load_problem(doc).action).to_dict()
    monkeypatch.setattr(galois_action, "IMAGE_CACHE_LIMIT", 7)
    action = load_problem(doc).action
    assert validate_action(action).to_dict() == want
    assert len(action._images) <= 7


class UncheckedAction(SemilinearAction):
    """An action that skips both construction certificates, so validate_action sees its faults."""

    def _check_compatibility(self):
        pass

    def _check_composition(self):
        pass


def test_validate_keeps_first_witnesses_of_a_broken_action(zeta3):
    # the inputs of test_permutation_incompatibility_witness, built without certificates;
    # the report is the one validate_action gave before images were cached
    z = zeta3.gen()
    Q = QMatrix(zeta3, [[1, z, z], [z * z, 1, z], [z * z, z * z, 1]])
    swap = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]
    module = TorusModule(zeta3.galois, swap)
    action = UncheckedAction(zeta3.galois, module, GammaCocycle.trivial(zeta3, zeta3.galois, 3), Q)
    assert [c.to_dict() for c in validate_action(action).checks] == [
        {
            "name": "pairing-compatibility-on-basis",
            "status": "fail",
            "witness": {"sigma": 1, "i": 0, "j": 2},
        },
        {
            "name": "pairing-compatibility-sampled",
            "status": "fail",
            "witness": {"sigma": 1, "m": [1, 0, 0], "k": [3, 3, -1]},
        },
        {"name": "cocycle-composition-sampled", "status": "pass"},
        {"name": "group-law-on-monomials", "status": "pass"},
        {
            "name": "ring-automorphism-sampled",
            "status": "fail",
            "witness": {"sigma": 1, "kind": "multiplicative"},
        },
    ]


def test_validate_keeps_first_witnesses_of_a_broken_cocycle(sqrt5):
    # the inputs of test_corrupted_explicit_cocycle_rejected, built without certificates;
    # the report is the one validate_action gave before images were cached
    Q = q_plane(sqrt5, sqrt5.from_rational(7))
    module = TorusModule(sqrt5.galois, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    one = sqrt5.one()
    cocycle = GammaCocycle(sqrt5, sqrt5.galois, [[one, one], [sqrt5.gen(), one]])
    action = UncheckedAction(sqrt5.galois, module, cocycle, Q)
    assert [c.to_dict() for c in validate_action(action).checks] == [
        {"name": "pairing-compatibility-on-basis", "status": "pass"},
        {"name": "pairing-compatibility-sampled", "status": "pass"},
        {
            "name": "cocycle-composition-sampled",
            "status": "fail",
            "witness": {"sigma": 1, "tau": 1, "m": [-3, 2]},
        },
        {
            "name": "group-law-on-monomials",
            "status": "fail",
            "witness": {"sigma": 1, "tau": 1, "m": [-3, -3]},
        },
        {"name": "ring-automorphism-sampled", "status": "pass"},
    ]


def test_validate_computes_each_image_and_product_once(monkeypatch):
    # n3_decompose: 7,328 power products and 200 element products before images were cached
    action = load_problem(CASES / "n3_decompose.json").action
    counts = {"power_product": 0, "mul": 0}
    power_product, mul = QMatrix.power_product, TwistedLaurentElement.__mul__

    def counted_power_product(self, factors):
        counts["power_product"] += 1
        return power_product(self, factors)

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(QMatrix, "power_product", counted_power_product)
    monkeypatch.setattr(TwistedLaurentElement, "__mul__", counted_mul)
    assert validate_action(action).ok
    assert counts["power_product"] <= 1200
    assert counts["mul"] <= 150


def broken_rotation5(rotation5):
    """The cocycle rows of rotation5 with gamma_sigma1(e3) = zeta, sigma1: zeta -> zeta^4."""
    field = rotation5.qmatrix.field
    assert [aut.t_image for aut in rotation5.galois.elements] == [field.gen() ** k for k in (1, 4, 3, 2)]
    rows = [[field.one()] * 3 for _ in rotation5.galois.elements]
    rows[1][2] = field.gen()
    return rows


def test_composition_witnesses_at_order_4(rotation5):
    # since sigma1(zeta) zeta = 1, the pair (sigma1, sigma1) still composes, but
    # six pairs fail on x3, the first in scan order being (sigma1, sigma2)
    field, group, Q = rotation5.qmatrix.field, rotation5.galois, rotation5.qmatrix
    rows = broken_rotation5(rotation5)
    with pytest.raises(CompatibilityFailure) as err:
        build_explicit_action(Q, group, rotation5.module.mats, rows)
    assert err.value.witness == (1, 2, 2)
    action = UncheckedAction(group, rotation5.module, GammaCocycle(field, group, rows), Q)
    x3 = TwistedLaurentElement.generator(Q, 2)
    failing = {
        (i, j)
        for i in range(4)
        for j in range(4)
        if action.apply(i, action.apply(j, x3)) != action.apply(group.compose_idx(i, j), x3)
    }
    assert failing == {(1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3)}
    checks = {c.name: c.to_dict() for c in validate_action(action).checks}
    assert checks["cocycle-composition-sampled"]["witness"] == {"sigma": 1, "tau": 2, "m": [-2, -2, 3]}
    assert checks["group-law-on-monomials"]["witness"] == {"sigma": 1, "tau": 2, "m": [-3, -3, -3]}
    assert [name for name, c in checks.items() if c["status"] == "fail"] == [
        "cocycle-composition-sampled",
        "group-law-on-monomials",
    ]


@pytest.mark.parametrize("name", ACTION_CASES + ["rotation5", "broken rotation5"])
def test_composes_matches_composing_elements(name, request):
    # the composition predicate against its definition: sigma(tau(x^m)) and
    # (sigma tau)(x^m) built as elements, for every pair (sigma, tau)
    if name.endswith("rotation5"):
        action = request.getfixturevalue("rotation5")
        if name.startswith("broken"):
            field, group = action.qmatrix.field, action.galois
            cocycle = GammaCocycle(field, group, broken_rotation5(action))
            action = UncheckedAction(group, action.module, cocycle, action.qmatrix)
    else:
        action = load_problem(CASES / name).action
    rng = random.Random(31)
    pairs = range(len(action.galois))
    seen = set()
    for _ in range(15):
        m = tuple(rng.randint(-4, 4) for _ in range(action.n))
        xm = TwistedLaurentElement.monomial(action.qmatrix, m)
        for i in pairs:
            for j in pairs:
                k = action.galois.compose_idx(i, j)
                want = action.apply(i, action.apply(j, xm)) == action.apply(k, xm)
                assert action.composes(i, j, m) is want, (m, i, j)
                seen.add(want)
    assert seen == ({True, False} if name.startswith("broken") else {True})
