import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qtorus import _linalg
from qtorus.descent import (
    _fixed_point_basis,
    central_lattice,
    center_generators,
    completeness_sweep,
    invariant_basis,
    is_central,
    l_center_lattice,
    orbit,
    span_contains,
    split_cocycle,
)
from qtorus.errors import OrderUndeclared, VerificationFailed
from qtorus.galois_action import build_order2_action, build_trivial_action
from qtorus.numfield import NumberField
from qtorus.problems import load_json, load_problem
from qtorus.specialization import CentralCharacter, specialize
from qtorus.torus import QMatrix, TwistedLaurentElement, term_key

CASES = Path(__file__).resolve().parent.parent / "cases"


def central_elements_up_to(qmatrix, bound):
    """All exponents m with |m|_inf <= bound whose monomials are central,

    found by the defining commutation identity (independent of any
    lattice computation, so usable as an oracle against it).
    """
    return [m for m in product(range(-bound, bound + 1), repeat=qmatrix.n) if qmatrix.is_central_exponent(m)]
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
def swap5(sqrt5):
    return build_order2_action(q_plane(sqrt5, 9 + 4 * sqrt5.gen()), sqrt5.galois, [{"swap": [0, 1]}])


def q_coords(elt, labels):
    """Element as a flat Q-vector over (label, power-of-t) coordinates."""
    d = elt.q.field.degree
    out = []
    for lab in labels:
        c = elt.terms.get(lab)
        coeffs = c.coeffs if c is not None else (Fraction(0),) * d
        out.extend(coeffs)
    return list(out)


def same_q_span(els_a, els_b):
    labels = sorted({m for e in list(els_a) + list(els_b) for m in e.terms}, key=term_key)
    A = [q_coords(e, labels) for e in els_a]
    B = [q_coords(e, labels) for e in els_b]
    ra, rb, rab = _linalg.rank(A), _linalg.rank(B), _linalg.rank(A + B)
    return ra == rb == rab


def test_orbits(sqrt5, swap5):
    trivial = build_trivial_action(q_plane(sqrt5, sqrt5.from_rational(7)), sqrt5.galois)
    data = orbit(trivial, (2, 1))
    assert data.orbit == ((2, 1),) and len(data.stabilizer) == 2

    data = orbit(swap5, (1, 0))
    assert set(data.orbit) == {(1, 0), (0, 1)} and data.stabilizer == (0,)

    neg = build_order2_action(
        q_plane(sqrt5, sqrt5.from_rational(7)), sqrt5.galois, [{"sign": -1}, {"sign": -1}]
    )
    data = orbit(neg, (1, 0))
    assert set(data.orbit) == {(1, 0), (-1, 0)}


def test_invariant_basis_trivial_action(sqrt5):
    action = build_trivial_action(q_plane(sqrt5, sqrt5.from_rational(7)), sqrt5.galois)
    ib = invariant_basis(action, (2, -1))
    assert len(ib.elements) == 1
    assert ib.elements[0] == TwistedLaurentElement.monomial(action.qmatrix, (2, -1))


def test_invariant_basis_swap_matches_uv(sqrt5, swap5):
    Q = swap5.qmatrix
    alpha = sqrt5.gen()
    ib = invariant_basis(swap5, (1, 0))
    assert len(ib.elements) == 2
    x1 = TwistedLaurentElement.generator(Q, 0)
    x2 = TwistedLaurentElement.generator(Q, 1)
    u = (x1 + x2) / 2
    v = (x1 - x2) / (2 * alpha)
    assert same_q_span(ib.elements, [u, v])


def test_invariant_basis_sign_matches_z(sqrt5):
    action = build_order2_action(
        q_plane(sqrt5, 9 + 4 * sqrt5.gen()), sqrt5.galois, [{"sign": 1}, {"sign": -1}]
    )
    Q = action.qmatrix
    alpha = sqrt5.gen()
    ib = invariant_basis(action, (0, 1))
    assert set(ib.orbit.orbit) == {(0, 1), (0, -1)}
    x2 = TwistedLaurentElement.generator(Q, 1)
    z1 = (x2 + x2.inverse()) / 2
    z2 = (x2 - x2.inverse()) / (2 * alpha)
    assert same_q_span(ib.elements, [z1, z2])


def test_invariant_products_stay_invariant(swap5):
    rng = random.Random(0)
    reps = [(1, 0), (1, 1), (2, 1)]
    bases = [invariant_basis(swap5, m) for m in reps]
    pool = [e for ib in bases for e in ib.elements]
    for _ in range(15):
        a, b = rng.choice(pool), rng.choice(pool)
        assert swap5.is_fixed(a * b)


def test_completeness_small(swap5):
    bases, failures = completeness_sweep(swap5, bound=2)
    assert not failures
    for ib in bases.values():
        assert len(ib.elements) == len(ib.orbit.orbit)


def test_span_contains_negative(swap5):
    Q = swap5.qmatrix
    ib = invariant_basis(swap5, (1, 0))
    assert span_contains(ib.elements, TwistedLaurentElement.generator(Q, 0))
    assert not span_contains(ib.elements, TwistedLaurentElement.monomial(Q, (2, 0)))


def test_stabilizer_cocycle_normalization(swap5, sqrt5):
    # the orbit of (1,1) is a fixed point with a nontrivial unit; splitting
    # the stabilizer cocycle normalizes the monomial into a fixed element
    data = orbit(swap5, (1, 1))
    assert data.orbit == ((1, 1),)
    gammas = {idx: swap5.gamma(idx, (1, 1)) for idx in data.stabilizer}
    q = 9 + 4 * sqrt5.gen()
    assert gammas[1] == q.inverse()
    gamma = split_cocycle(sqrt5.galois, gammas, subgroup=data.stabilizer)
    xm = TwistedLaurentElement.monomial(swap5.qmatrix, (1, 1), gamma.inverse())
    assert swap5.is_fixed(xm)


def test_split_cocycle_trivial(sqrt5):
    one = sqrt5.one()
    gamma = split_cocycle(sqrt5.galois, {0: one, 1: one})
    sigma = sqrt5.galois.elements[1]
    assert sigma(gamma) * gamma.inverse() == 1


def test_split_cocycle_minus_one(sqrt5):
    one = sqrt5.one()
    gamma = split_cocycle(sqrt5.galois, {0: one, 1: -one})
    sigma = sqrt5.galois.elements[1]
    assert sigma(gamma) * gamma.inverse() == -1


def test_split_cocycle_golden_unit(sqrt5):
    alpha = sqrt5.gen()
    q = 9 + 4 * alpha
    gamma = split_cocycle(sqrt5.galois, {0: sqrt5.one(), 1: q})
    # the first candidate c = 1 gives b = 10 + 4*alpha, so gamma = b^-1
    assert gamma == (10 + 4 * alpha).inverse()
    sigma = sqrt5.galois.elements[1]
    assert sigma(gamma) * gamma.inverse() == q


def test_split_cocycle_random_norm_one(sqrt5, zeta3):
    rng = random.Random(1)
    for field in (sqrt5, zeta3):
        sigma = field.galois.elements[1]
        for _ in range(10):
            c = field.element([rng.randint(-5, 5) for _ in range(2)])
            if not c:
                continue
            val = sigma(c) / c
            gammas = {0: field.one(), 1: val}
            if len(field.galois) == 2:
                gamma = split_cocycle(field.galois, gammas)
                assert sigma(gamma) * gamma.inverse() == val


def test_split_cocycle_rejects_non_cocycle(sqrt5):
    with pytest.raises(ValueError):
        split_cocycle(sqrt5.galois, {0: sqrt5.one(), 1: sqrt5.from_rational(2)})


def test_central_lattice_standard(zeta3):
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 1], [-1, 0]])
    lat = central_lattice(Q)
    assert lat.basis == ((3, 0), (0, 3))


def test_central_lattice_trivial_q(sqrt5):
    Q = QMatrix(sqrt5, [[1, 1], [1, 1]], declared_orders=[[1, 1], [1, 1]])
    lat = central_lattice(Q)
    assert lat.basis == ((1, 0), (0, 1))


def test_central_lattice_n3(zeta3):
    z = zeta3.gen()
    S = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, S)
    lat = central_lattice(Q)
    assert lat.basis == ((3, 0, 0), (0, 3, 0), (0, 0, 1))


def test_central_lattice_requires_orders(sqrt5):
    # 9 + 4*alpha has infinite order: no declared orders, no root-of-unity form
    Q = q_plane(sqrt5, 9 + 4 * sqrt5.gen())
    with pytest.raises(OrderUndeclared):
        central_lattice(Q)


def test_root_of_unity_synthesis(sqrt5):
    # entries +-1 only; epsilon = -1, l = 2 are synthesized at construction
    Q = QMatrix(sqrt5, [[1, -1], [-1, 1]], declared_orders=[[1, 2], [2, 1]])
    assert Q.root_of_unity_data() is Q.root_of_unity
    l, eps, S = Q.root_of_unity
    assert l == 2 and eps == -1
    assert S == ((0, 1), (-1, 0))
    assert Q.eps_pows == (1, -1) and Q.eps_pows[0] is sqrt5.one()
    lat = central_lattice(Q)
    assert lat.basis == ((2, 0), (0, 2))


def test_central_lattice_matches_bruteforce(zeta3):
    z = zeta3.gen()
    for S in ([[0, 1], [-1, 0]], [[0, 2], [-2, 0]], [[0, 0], [0, 0]]):
        Q = QMatrix.from_root_of_unity(zeta3, 3, z, S)
        lat = central_lattice(Q)
        expected = {m for m in central_elements_up_to(Q, 3)}
        got = {m for m in expected if m in lat}
        assert got == expected


def test_center_generators_swap_zeta3(zeta3):
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 1], [-1, 0]])
    action = build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}])
    gens = center_generators(action, central_lattice(Q))
    assert len(gens) == 1
    ib = gens[0]
    assert set(ib.orbit.orbit) == {(3, 0), (0, 3)}
    x1 = TwistedLaurentElement.generator(Q, 0)
    x2 = TwistedLaurentElement.generator(Q, 1)
    alpha = 2 * z + 1  # a square root of -3
    s1 = (x1 ** 3 + x2 ** 3) / 2
    s2 = (x1 ** 3 - x2 ** 3) / (2 * alpha)
    assert same_q_span(ib.elements, [s1, s2])
    for elt in ib.elements:
        ok, _ = is_central(elt)
        assert ok


def test_center_generators_rational_line():
    Q_field = NumberField.rationals()
    Q = QMatrix(Q_field, [[1]], declared_orders=[[1]])
    action = build_trivial_action(Q, Q_field.galois)
    gens = center_generators(action, central_lattice(Q))
    assert len(gens) == 1
    assert gens[0].elements[0] == TwistedLaurentElement.generator(Q, 0)


def test_l_center_lattice(zeta3):
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 2], [-2, 0]])
    assert l_center_lattice(Q).basis == ((3, 0), (0, 3))


def test_invariant_basis_order4_group():
    # cyclic Galois group of order 4 permuting four generators in a 4-cycle;
    # all q equal 1 so the permuted-entry compatibility is immediate
    z5 = NumberField.cyclotomic(5)
    group = z5.galois
    assert len(group) == 4

    def elt_order(idx):
        k, power = 1, idx
        while power != 0:
            power = group.compose_idx(power, idx)
            k += 1
        return k

    gen_idx = next(i for i in range(1, 4) if elt_order(i) == 4)
    cycle = (1, 2, 3, 0)

    def perm_power(k):
        out = tuple(range(4))
        for _ in range(k):
            out = tuple(cycle[i] for i in out)
        return out

    # express each group element as a power of the chosen generator
    perms = {0: perm_power(0)}
    idx, k = gen_idx, 1
    while idx != 0:
        perms[idx] = perm_power(k)
        idx = group.compose_idx(idx, gen_idx)
        k += 1

    from qtorus.galois_action import build_permutation_action

    one = z5.one()
    Q = QMatrix(z5, [[one] * 4 for _ in range(4)])
    action = build_permutation_action(Q, group, perms)
    data = orbit(action, (1, 0, 0, 0))
    assert len(data.orbit) == 4 and data.stabilizer == (0,)
    ib = invariant_basis(action, (1, 0, 0, 0))
    assert len(ib.elements) == 4
    for elt in ib.elements:
        assert action.is_fixed(elt)


def test_grading_restricts_to_central_monomials(zeta3):
    # the diagonal coaction, read as a grading, tags a central monomial
    # by its own exponent; this is the computational rendering checked here
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 1], [-1, 0]])
    lat = central_lattice(Q)
    for m in ((3, 0), (0, 3), (3, 3), (-3, 0)):
        assert m in lat
        comps = TwistedLaurentElement.monomial(Q, m, z).grading()
        assert set(comps) == {m}


def test_is_central_witness(zeta3):
    z = zeta3.gen()
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, 1], [-1, 0]])
    ok, witness = is_central(TwistedLaurentElement.generator(Q, 0))
    assert not ok and witness["generator"] == 1
    ok, _ = is_central(TwistedLaurentElement.monomial(Q, (3, 0)))
    assert ok
    ok, _ = is_central(TwistedLaurentElement.monomial(Q, (0, 0), z))
    assert ok


def two_sided_is_central(a):
    """The centrality check before it dropped the inverses: x_i, then x_i^-1, for each i."""
    for i in range(a.q.n):
        for power in (1, -1):
            comm = a.commutator(TwistedLaurentElement.generator(a.q, i, power))
            if comm:
                return False, {"generator": i, "power": power, "commutator": comm}
    return True, None


@pytest.mark.parametrize("name", ACTION_CASES)
def test_is_central_matches_the_two_sided_check(name):
    # seeded sums of up to three monomials, each central or not, on every
    # shipped matrix: the check on x_i alone gives the two-sided answer and witness
    Q = load_problem(CASES / name).qmatrix
    field = Q.field
    rng = random.Random(17)
    central = central_elements_up_to(Q, 2)
    verdicts = set()
    for _ in range(40):
        a = TwistedLaurentElement.zero(Q)
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(central) if rng.random() < 0.6 else tuple(rng.randint(-2, 2) for _ in range(Q.n))
            c = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            a = a + TwistedLaurentElement.monomial(Q, m, c)
        got = is_central(a)
        assert got == two_sided_is_central(a), (name, a)
        verdicts.add(got[0])
    assert verdicts == ({True} if len(central) == 5**Q.n else {True, False}), name


# ---------------------------------------------------------------------------
# the trace basis against the stacked (sigma - 1) system, solved by sympy


def monomial_image_of(action):
    def image_of(idx, lab):
        exp, coeff = action.monomial_image(idx, lab)
        return coeff, exp

    return image_of


def quotient_image_of(action, char):
    """image_of for the lines of a quotient: sigma's monomial image, reduced by the character."""

    def image_of(idx, g):
        exp, coeff = action.monomial_image(idx, g)
        r, unit = char.reduce_monomial(exp)
        return coeff * unit, r

    return image_of


def sympy_fixed_rref(action, labels, image_of):
    """Nonzero RREF rows of the kernel of the stacked (sigma - 1) system, over QQ in sympy."""
    sympy = pytest.importorskip("sympy")
    field = action.qmatrix.field
    d = field.degree
    pos = {lab: p for p, lab in enumerate(labels)}
    dim = len(labels) * d
    blocks = []
    for idx in range(1, len(action.galois)):
        sig = action.sigma(idx)
        block = -sympy.eye(dim)
        for p, lab in enumerate(labels):
            unit, lab2 = image_of(idx, lab)
            for j, t in enumerate(field.basis()):
                for i, x in enumerate((sig(t) * unit).coeffs):
                    block[pos[lab2] * d + i, p * d + j] += sympy.Rational(x.numerator, x.denominator)
        blocks.append(block)
    kernel = sympy.Matrix.vstack(*blocks).nullspace()
    reduced, pivots = sympy.Matrix.hstack(*kernel).T.rref()
    return [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(pivots))]


def assert_trace_basis_matches_oracle(action, labels, image_of):
    field = action.qmatrix.field
    zero = (Fraction(0),) * field.degree
    got = [
        [x for lab in labels for x in (vec[lab].coeffs if lab in vec else zero)]
        for vec in _fixed_point_basis(action, labels, image_of)
    ]
    assert got == sympy_fixed_rref(action, labels, image_of), labels


def assert_orbits_match_oracle(action, bound):
    done = set()
    for m in product(range(-bound, bound + 1), repeat=action.n):
        labels = sorted(orbit(action, m).orbit, key=term_key)
        if labels[0] not in done:
            done.add(labels[0])
            assert_trace_basis_matches_oracle(action, labels, monomial_image_of(action))


@pytest.mark.parametrize("name", ACTION_CASES)
def test_trace_basis_matches_sympy_on_case_orbits(name):
    assert_orbits_match_oracle(load_problem(CASES / name).action, 2)


def test_trace_basis_matches_sympy_on_order4_orbits(rotation5):
    # (0, 0, 1) is fixed by the whole group; (1, 0, 0) has a free orbit of size 4
    assert orbit(rotation5, (0, 0, 1)).stabilizer == (0, 1, 2, 3)
    assert len(orbit(rotation5, (1, 0, 0)).orbit) == 4
    assert_orbits_match_oracle(rotation5, 1)


@pytest.mark.parametrize(
    "S, values",
    [([[0, 1], [-1, 0]], [2, 2]), ([[0, 1, 2], [-1, 0, 2], [-2, -2, 0]], [2, 2, -1])],
    ids=["dim9", "dim27"],
)
def test_trace_basis_matches_sympy_on_ladder_quotient(zeta3, S, values):
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), S)
    blocks = [{"swap": [0, 1]}] + [{"sign": -1}] * (len(S) - 2)
    action = build_order2_action(Q, zeta3.galois, blocks)
    char = CentralCharacter.for_l_center(Q, values)
    labels = specialize(action, char).labels
    assert len(labels) == 3 ** len(S)
    assert_trace_basis_matches_oracle(action, labels, quotient_image_of(action, char))


def test_fixed_point_certificate_rejects_a_non_action(sqrt5):
    # sigma swaps two lines, sending x_a -> u x_b and x_b -> u' x_a; it squares
    # to the identity only if sigma(u) u' == 1.  With u = 1, u' = 2 the traces
    # x_a + x_b and t x_a - t x_b still number one per line and have full
    # L-rank, so only the check that each output vector is fixed rejects them
    action = build_trivial_action(q_plane(sqrt5, sqrt5.from_rational(7)), sqrt5.galois)
    one, two = sqrt5.one(), sqrt5.from_rational(2)
    good = {"a": (one, "b"), "b": (one, "a")}
    assert len(_fixed_point_basis(action, ["a", "b"], lambda idx, lab: good[lab])) == 2
    bad = {"a": (one, "b"), "b": (two, "a")}
    with pytest.raises(VerificationFailed, match="not fixed"):
        _fixed_point_basis(action, ["a", "b"], lambda idx, lab: bad[lab])


def _corrupt_trace_reduction(monkeypatch, corrupt):
    """Make the first ``_linalg.rref`` call, the trace reduction of the one
    orbit, return ``corrupt(reduced, pivots)``; the L-rank check runs later."""
    rref, calls = _linalg.rref, []

    def fake(rows):
        reduced, pivots = rref(rows)
        calls.append(None)
        return corrupt(reduced, pivots) if len(calls) == 1 else (reduced, pivots)

    monkeypatch.setattr(_linalg, "rref", fake)


@pytest.mark.parametrize(
    "corrupt, message, witness",
    [
        # one entry moved off the trace span: sigma maps the vector elsewhere
        (
            lambda red, piv: ([red[0][:-1] + [red[0][-1] + 1]] + red[1:], piv),
            "descent output is not fixed",
            {"first_label": (0, 1), "fixed": 2, "lines": 2, "sigma": 1},
        ),
        # a row dropped: still fixed, but one vector for two lines
        (lambda red, piv: (red, piv[:1]), "descent dimension mismatch", {"first_label": (0, 1), "fixed": 1, "lines": 2}),
        # a row repeated: fixed and two vectors, but of L-rank one
        (
            lambda red, piv: ([red[0], red[0]], piv),
            "fixed points do not span the lines over L",
            {"first_label": (0, 1), "fixed": 2, "lines": 2},
        ),
    ],
    ids=["not-fixed", "count", "l-rank"],
)
def test_descent_certificates_fire(swap5, monkeypatch, corrupt, message, witness):
    # the orbit {x1, x2} of the swap: two lines, two traces of rank two
    _corrupt_trace_reduction(monkeypatch, corrupt)
    with pytest.raises(VerificationFailed, match=message) as err:
        invariant_basis(swap5, (1, 0))
    assert err.value.witness == witness


def global_descent(action, labels, image_of):
    """The fixed-point basis as one RREF of every orbit's traces on all N d
    columns: the descent before it went orbit by orbit, as an oracle."""
    field = action.qmatrix.field
    d = field.degree
    pos = {lab: p for p, lab in enumerate(labels)}
    others = range(1, len(action.galois))
    traces, seen = [], set()
    for p, r in enumerate(labels):
        if r in seen:
            continue
        images = [image_of(idx, r) for idx in others]
        seen.update(lab2 for _, lab2 in images)
        for j, t in enumerate(field.basis()):
            row = [Fraction(0)] * (len(labels) * d)
            row[p * d + j] += 1
            for idx, (unit, lab2) in zip(others, images):
                for i, x in enumerate((action.sigma(idx)(t) * unit).coeffs, pos[lab2] * d):
                    row[i] += x
            traces.append(row)
    reduced, pivots = _linalg.rref(traces)
    out = []
    for vec in reduced[: len(pivots)]:
        blocks = {lab: vec[p * d : (p + 1) * d] for p, lab in enumerate(labels)}
        out.append({lab: field.element(block) for lab, block in blocks.items() if any(block)})
    return out


def test_orbitwise_descent_matches_one_global_rref(rotation5):
    # the quotient lines of the benchmark's rungs at seeds 0-2, and the order-4
    # rotation5 quotients of its full center (dim 25) and its l-center (dim 125)
    import workloads

    cases = []
    for (l, n), seed in product([(3, 2), (3, 3), (4, 3)], range(3)):
        rung = workloads.Rung.draw(l, n, random.Random(seed))
        cases.append((rung.action, rung.character, "l_center"))
    Q = rotation5.qmatrix
    cases.append((rotation5, CentralCharacter.for_full_center(Q, [1, 1, 1]), "full_center"))
    cases.append((rotation5, CentralCharacter.for_l_center(Q, [1, 1, 2]), "l_center"))
    for action, char, which in cases:
        labels = specialize(action, char, which=which).labels
        image_of = quotient_image_of(action, char)
        got = _fixed_point_basis(action, labels, image_of)
        want = global_descent(action, labels, image_of)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want], (which, len(labels))
