import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd
from pathlib import Path

import pytest

from qtorus import _linalg, specialization
from qtorus.descent import central_lattice
from qtorus.errors import InconsistentCharacter, PreconditionFailure, QTorusError
from qtorus.galois_action import (
    build_explicit_action,
    build_order2_action,
    build_permutation_action,
    build_trivial_action,
)
from qtorus.numfield import FieldElement, NumberField
from qtorus.problems import load_problem, parse_problem
from qtorus.specialization import (
    CentralCharacter,
    FiniteDimAlgebra,
    _quotient_algebra,
    catalog_case,
    crossed_product_witness,
    cyclic_decomposition,
    embed_monomial,
    rational_form,
    specialize,
)
from qtorus.torus import QMatrix
from qtorus.zlattice import mat_mul

CASES = Path(__file__).resolve().parent.parent / "cases"


def cyclic_algebra(field, l, a, b, omega):
    """Algebra with x^l = a, y^l = b, x y = omega y x, built directly (an independent oracle)."""
    a, b, omega = field.element(a), field.element(b), field.element(omega)
    labels = [(i, j) for i in range(l) for j in range(l)]
    index = {lab: t for t, lab in enumerate(labels)}
    table = {}
    for t1, (i, j) in enumerate(labels):
        for t2, (i2, j2) in enumerate(labels):
            coeff = omega ** (-j * i2) * a ** ((i + i2) // l) * b ** ((j + j2) // l)
            table[(t1, t2)] = {index[((i + i2) % l, (j + j2) % l)]: coeff}
    return FiniteDimAlgebra(field, labels, table, {index[(0, 0)]: field.one()})


def commutative_cyclic(field, l, a):
    """L[x]/(x^l - a)."""
    a = field.element(a)
    table = {}
    for i in range(l):
        for j in range(l):
            table[(i, j)] = {(i + j) % l: a ** ((i + j) // l)}
    return FiniteDimAlgebra(field, tuple(range(l)), table, {0: field.one()})


def truncated_line(field):
    """L[x]/(x^2), the smallest algebra with a nonzero radical."""
    one = field.one()
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {}}
    return FiniteDimAlgebra(field, (0, 1), table, {0: one})


def table_of(alg):
    """The dict table {(i, j): {target: coefficient}} of an algebra: the one a
    rational form holds, else read back off a monomial table's arrays."""
    try:
        return alg.table
    except AttributeError:
        n, tgt, cid, vals = alg.dim, alg._tgt, alg._cid, alg._vals
        return {
            (i, j): {tgt[i][j]: vals[cid[i][j]]} if tgt[i][j] != n else {} for i in range(n) for j in range(n)
        }


@pytest.fixture
def zeta3():
    return NumberField.cyclotomic(3)


@pytest.fixture
def swap3(zeta3):
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 1], [-1, 0]])
    return build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}])


def l_center_char(action, values):
    return CentralCharacter.for_l_center(action.qmatrix, values)


def uncertified(field, labels, table, unit):
    """A monomial algebra read from ``table`` with no unit or associativity
    check, so that ``check_associativity`` can be run on a failing table."""
    alg = FiniteDimAlgebra.__new__(FiniteDimAlgebra)
    alg.field, alg.labels, alg.unit = field, tuple(labels), {k: c for k, c in unit.items() if c}
    alg._classify(table)
    return alg


def test_rational_form_refuses_a_character_of_another_matrix(zeta3, swap3):
    # same field and lattice, but S = [[0, 2], [-2, 0]]: without an algebra
    # rational_form builds the L-form through specialize, which checks the matrix
    other = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 2], [-2, 0]])
    char = CentralCharacter.for_l_center(other, [2, 2])
    with pytest.raises(ValueError, match="character was built for a different commutation matrix"):
        rational_form(swap3, char)


def test_specialize_standard_c3(swap3, zeta3):
    z = zeta3.gen()
    char = l_center_char(swap3, [2, 3])
    alg = specialize(swap3, char, which="l_center")
    assert alg.dim == 9
    X = embed_monomial(alg, char, (1, 0))
    Y = embed_monomial(alg, char, (0, 1))
    assert alg.scalar_of(alg.power(X, 3)) == 2
    assert alg.scalar_of(alg.power(Y, 3)) == 3
    lhs = alg.mul(X, Y)
    rhs = {k: z * c for k, c in alg.mul(Y, X).items()}
    assert lhs == rhs
    # an index outside range(dim) is refused, not read off the zero row or from the end
    for bad in (9, -1):
        with pytest.raises(PreconditionFailure, match=r"indices in range\(9\)"):
            alg.mul({bad: z}, X)


def test_specialize_matches_direct_cyclic_oracle(swap3, zeta3):
    # independent construction of C_3(2, 3, zeta) from the x, y relations
    z = zeta3.gen()
    char = l_center_char(swap3, [2, 3])
    alg = specialize(swap3, char)
    oracle = cyclic_algebra(zeta3, 3, 2, 3, z)
    assert alg.labels == oracle.labels
    assert table_of(alg) == table_of(oracle)


def test_specialize_trivial_q_is_one_dimensional():
    sqrt5 = NumberField.quadratic(5)
    Q = QMatrix(sqrt5, [[1, 1], [1, 1]], declared_orders=[[1, 1], [1, 1]])
    action = build_trivial_action(Q, sqrt5.galois)
    char = CentralCharacter.for_full_center(Q, [2, 3])
    alg = specialize(action, char, which="full_center")
    assert alg.dim == 1


def test_which_mismatch_rejected(swap3):
    char = l_center_char(swap3, [2, 3])
    # S is nondegenerate mod 3 here, so the central lattice equals 3Z^2
    # and the full-center cross-check passes as well
    assert central_lattice(swap3.qmatrix).basis == char.lattice.basis
    alg = specialize(swap3, char, which="full_center")
    assert alg.dim == 9


def test_center_and_radical_oracles(zeta3):
    z = zeta3.gen()
    c3 = cyclic_algebra(zeta3, 3, 2, 3, z)
    assert c3.center_dim() == 1
    assert c3.radical_dim() == 0

    comm = commutative_cyclic(zeta3, 3, 2)
    assert comm.center_dim() == 3
    assert comm.radical_dim() == 0

    cube_roots_of_one = commutative_cyclic(zeta3, 3, 1)
    assert cube_roots_of_one.radical_dim() == 0

    nil = truncated_line(zeta3)
    assert nil.radical_dim() == 1

    quat = cyclic_algebra(NumberField.rationals(), 2, 1, 1, -1)
    assert quat.center_dim() == 1
    assert quat.radical_dim() == 0


def _group_table(field, elements, op):
    """The monomial table e_g e_h = e_(op(g, h)) of a finite group, with e_0 the identity."""
    index = {g: i for i, g in enumerate(elements)}
    return {
        (i, j): {index[op(g, h)]: field.one()}
        for i, g in enumerate(elements)
        for j, h in enumerate(elements)
    }


def _ungraded_algebras(field):
    """Three monomial tables that are not graded, as (labels, table, unit).

    The group algebra of S3; E11, E12, E22 with E11 E12 = E12 = E12 E22, E11
    and E22 idempotent and all else zero, whose unit has two indices; and
    1, a, b, c, z with a, b, c pairwise multiplying onto z, e_i e_j = 2 z below
    the diagonal and z above it: targets agree both ways but not one per g.
    """
    one = field.one()
    s3 = sorted(permutations(range(3)))
    group = (s3, _group_table(field, s3, lambda g, h: tuple(g[x] for x in h)), {0: one})
    table = {(i, j): {} for i in range(3) for j in range(3)}
    table[(0, 0)], table[(0, 1)], table[(1, 2)], table[(2, 2)] = {0: one}, {1: one}, {1: one}, {2: one}
    upper = (("E11", "E12", "E22"), table, {0: one, 2: one})
    table = {(i, j): {} for i in range(5) for j in range(5)}
    for i in range(5):
        table[(0, i)] = table[(i, 0)] = {i: one}
    for i in range(1, 4):
        for j in range(1, 4):
            table[(i, j)] = {4: one * (2 if i > j else 1)}
    null = ("1abcz", table, {0: one})
    return group, upper, null


def test_center_dim_raises_off_graded_tables(zeta3):
    # the central-monomial count is the center's dimension only on a graded
    # monomial table; on these it returned 1 (S3, center 3), 0 (upper
    # triangular 2 x 2, center 1) and 2 (null, center 3: a - b + c is
    # central), so it must refuse them
    rationals = NumberField.rationals()
    one = rationals.one()
    group, upper, null = (FiniteDimAlgebra(rationals, *args) for args in _ungraded_algebras(rationals))
    assert sympy_center_dim(null) == 3
    for alg in (group, upper, null):
        assert not alg.is_graded
        with pytest.raises(PreconditionFailure):
            alg.center_dim()
        with pytest.raises(PreconditionFailure):
            alg.radical_dim()
    # abelian group tables and truncated polynomial rings are graded
    cyclic6 = _group_table(rationals, tuple(range(6)), lambda g, h: (g + h) % 6)
    assert FiniteDimAlgebra(rationals, range(6), cyclic6, {0: one}).center_dim() == 6
    assert truncated_line(zeta3).center_dim() == 2


def sympy_center_dim(alg):
    """Nullity over QQ of the commutator rows: the coefficient of e_r in [sum a_g e_g, e_h]."""
    sympy = pytest.importorskip("sympy")
    n, zero = alg.dim, NumberField.rationals().zero()
    table = table_of(alg)
    rows = []
    for h in range(n):
        for r in range(n):
            row = []
            for g in range(n):
                x = (table[(g, h)].get(r, zero) - table[(h, g)].get(r, zero)).coeffs[0]
                row.append(sympy.Rational(x.numerator, x.denominator))
            if any(row):
                rows.append(row)
    return n - sympy.Matrix(rows).rank() if rows else n


def sympy_radical_dim(alg):
    """Nullity over QQ, in sympy, of the trace form tr(L_(e_i e_j)) of a table over Q."""
    sympy = pytest.importorskip("sympy")
    n, zero, table = alg.dim, sympy.Integer(0), table_of(alg)

    def rat(c):
        x = c.coeffs[0]
        return sympy.Rational(x.numerator, x.denominator)

    tr = [sum((rat(table[(k, g)][g]) for g in range(n) if g in table[(k, g)]), zero) for k in range(n)]
    gram = sympy.Matrix(n, n, lambda i, j: sum((rat(c) * tr[k] for k, c in table[(i, j)].items()), zero))
    return n - gram.rank()


def trace_form_nullity(alg):
    """n minus the rank of the trace form tr(L_(e_i e_j)), over the table's own field."""
    n, zero, table = alg.dim, alg.field.zero(), table_of(alg)
    tr = [sum((table[(k, g)].get(g, zero) for g in range(n)), zero) for k in range(n)]
    gram = [[sum((c * tr[k] for k, c in table[(i, j)].items()), zero) for j in range(n)] for i in range(n)]
    return n - _linalg.rank(gram)


def _rebased(alg, perm, s):
    """alg in the basis b_k = s e_perm[k], so its unit u e_z becomes (u / s) b_k with perm[k] = z."""
    n, s, old = alg.dim, alg.field.from_rational(s), table_of(alg)
    at = {p: k for k, p in enumerate(perm)}
    table = {
        (i, j): {at[t]: s * c for t, c in old[(perm[i], perm[j])].items()}
        for i in range(n)
        for j in range(n)
    }
    return FiniteDimAlgebra(alg.field, range(n), table, {at[t]: c / s for t, c in alg.unit.items()})


def _direct_sum(a, b):
    """a x b, with b's basis after a's: the unit has one index in each."""
    n, m = a.dim, b.dim
    table = {(i, j): {} for i in range(n + m) for j in range(n + m)}
    table.update(table_of(a))
    table.update({(n + i, n + j): {n + k: c for k, c in t.items()} for (i, j), t in table_of(b).items()})
    unit = {**a.unit, **{n + k: c for k, c in b.unit.items()}}
    return FiniteDimAlgebra(a.field, range(n + m), table, unit)


def _explicit_zeros(table, field):
    """The table with each zero product written {k: 0} and a zero term added to each other one."""
    n, zero = max(i for i, _ in table) + 1, field.zero()
    return {(i, j): {(min(t, default=i + j) + 1) % n: zero, **t} for (i, j), t in table.items()}


def _counts(alg):
    return (alg.center_dim(), alg.radical_dim()) if alg.is_graded else None


def test_radical_dim_counts_rows_off_the_unit(zeta3):
    # the count of rows that never reach the unit's index, against the trace-form
    # nullity it replaced, with the unit at index 0, at index 2 and at two indices
    cases = [(_graded_line(zeta3, m), m - 1) for m in range(1, 7)]
    cases += [
        (commutative_cyclic(zeta3, 4, 0), 3),
        (truncated_line(zeta3), 1),
        (cyclic_algebra(zeta3, 3, 0, 3, zeta3.gen()), 6),
        (_rebased(_graded_line(zeta3, 4), (1, 3, 0, 2), 2), 3),
        (_direct_sum(commutative_cyclic(zeta3, 3, 2), truncated_line(zeta3)), 1),
        (_direct_sum(truncated_line(zeta3), _graded_line(zeta3, 3)), 3),
    ]
    for l, S, values in (
        (3, [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]], [2, 2, -1]),
        (4, [[0, 1, -1], [-1, 0, -1], [1, 1, 0]], [3, 3, -1]),
    ):
        action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
        cases.append((specialize(action, char, which="l_center"), 0))
    assert cases[9][0].unit == {2: zeta3.from_rational(Fraction(1, 2))}
    for alg, want in cases:
        assert alg.is_graded
        assert alg.radical_dim() == trace_form_nullity(alg) == want, alg.labels
        # explicit zero coefficients classify like absent ones
        table = table_of(alg)
        zeros = FiniteDimAlgebra(alg.field, alg.labels, _explicit_zeros(table, alg.field), alg.unit)
        assert alg.dim == 1 or _explicit_zeros(table, alg.field) != table
        assert (zeros._tgt, _counts(zeros)) == (alg._tgt, _counts(alg))
        assert trace_form_nullity(zeros) == want


def test_malformed_table_raises_precondition_failure():
    # a target or unit index that is not an int in range(dim) is refused by name,
    # not left to an IndexError, TypeError, KeyError or a false non-associative verdict
    field = NumberField.rationals()
    one = field.one()
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}}
    assert FiniteDimAlgebra(field, (0, 1), table, {0: one}).center_dim() == 2
    for bad in (3, "x", -1, 2):
        with pytest.raises(PreconditionFailure, match=r"\(1, 1\)"):
            FiniteDimAlgebra(field, (0, 1), {**table, (1, 1): {bad: one}}, {0: one})
    with pytest.raises(PreconditionFailure, match="unit index 5"):
        FiniteDimAlgebra(field, (0, 1), table, {5: one})
    # a missing product, and a unit that does not act as identity, are named too
    missing = {ij: t for ij, t in table.items() if ij != (1, 1)}
    with pytest.raises(PreconditionFailure, match=r"missing product \(1, 1\)"):
        FiniteDimAlgebra(field, (0, 1), missing, {0: one})
    with pytest.raises(PreconditionFailure, match="identity on basis index 0"):
        FiniteDimAlgebra(field, (0, 1), table, {0: 2 * one})
    nil = truncated_line(field)
    with pytest.raises(PreconditionFailure, match="identity on basis index 0"):
        FiniteDimAlgebra(field, nil.labels, table_of(nil), {1: one})


def test_construction_reads_the_table_once_and_tests_no_entry_for_zero(monkeypatch):
    # the caller's table is read into the arrays and not kept, and the dim-64
    # (4, 3) L-form is built from its arrays with at most one zero test per
    # distinct coefficient, not one per entry
    field = NumberField.rationals()
    table = _group_table(field, tuple(range(3)), lambda g, h: (g + h) % 3)
    alg = FiniteDimAlgebra(field, range(3), table, {0: field.one()})
    assert not hasattr(alg, "table") and table_of(alg) == table
    action, char = _swap_rung(NumberField.cyclotomic(4), [[0, 1, -1], [-1, 0, -1], [1, 1, 0]], [3, 3, -1])
    calls = []
    nonzero = FieldElement.__bool__

    def spy(c):
        calls.append(c)
        return nonzero(c)

    monkeypatch.setattr(FieldElement, "__bool__", spy)
    alg = specialize(action, char, which="l_center")
    monkeypatch.undo()
    distinct = {c for t in table_of(alg).values() for c in t.values()}
    assert not hasattr(alg, "table") and len(distinct) == len(alg._vals) - 1
    assert alg.dim == 64 and len(calls) <= len(distinct) < 64


def test_l_form_matches_the_structure_constant_formula_on_random_draws():
    # a seeded differential check of the L-form: Q(zeta_l) with l in 2..6 and
    # n in {2, 3}, l^n <= 125, a random antisymmetric S and an l-center character
    # with rational values.  Every product e_g e_h is c(g, h) c(r, lam)^-1 chi(lam)
    # e_r with g + h = r + lam (the ladder oracle's formula), the center is
    # spanned by the g with S g == 0 mod l, the radical is 0, and the entries +
    # declared_orders spelling of the same matrix gives the same arrays
    rng = random.Random(14)
    shapes = [(l, n) for l in (2, 3, 4, 5, 6) for n in (2, 3) if l**n <= 125]
    for l, n in shapes + rng.sample(shapes, 4):
        field = NumberField.cyclotomic(l)
        S = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                S[a][b] = rng.randrange(-l, l + 1)
                S[b][a] = -S[a][b]
        values = [Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 2, 7))) for _ in range(n)]
        Q = QMatrix.from_root_of_unity(field, l, field.gen(), S)
        char = CentralCharacter.for_l_center(Q, values)
        alg = _quotient_algebra(Q, char)
        labels = list(alg.labels)
        assert sorted(labels) == list(product(range(l), repeat=n)), (l, S)
        position = {lab: i for i, lab in enumerate(labels)}
        for i, g in enumerate(labels):
            for j, h in enumerate(labels):
                s = [a + b for a, b in zip(g, h)]
                r = tuple(x % l for x in s)
                lam = tuple(x - y for x, y in zip(s, r))
                want = Q.cocycle(g, h) * Q.cocycle(r, lam).inverse() * char.value(lam)
                assert alg.mul(alg.basis_vec(i), alg.basis_vec(j)) == {position[r]: want}, (l, S, g, h)
        central = sum(all(sum(a * x for a, x in zip(row, g)) % l == 0 for row in S) for g in labels)
        assert (alg.center_dim(), alg.radical_dim()) == (central, 0), (l, S)
        orders = [[l // gcd(x, l) for x in row] for row in S]
        declared = QMatrix(field, Q.entries, declared_orders=orders)
        twin = _quotient_algebra(declared, CentralCharacter(declared, char.lattice, values))
        assert (twin.labels, twin._tgt, twin._cid, twin._vals) == (alg.labels, alg._tgt, alg._cid, alg._vals), (l, S)


def test_l_form_holds_only_its_arrays():
    # the dim-243 (3, 5) l-center L-form is built into its arrays with no
    # per-product dict: about 1.3 MB stays allocated, where an N^2 dict table
    # held about 20 MB
    field = NumberField.cyclotomic(3)
    S = [[0, 1, 0, 0, 1], [-1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, -1, 0, 0], [-1, 0, 0, 0, 0]]
    Q = QMatrix.from_root_of_unity(field, 3, field.gen(), S)
    char = CentralCharacter.for_l_center(Q, [2] * 5)
    tracemalloc.start()
    try:
        alg = _quotient_algebra(Q, char)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 243 and held < 4_000_000, held


def test_rational_form_needs_a_monomial_table():
    action, char = _swap_rung(NumberField.cyclotomic(4), [[0, 1], [-1, 0]], [2, 2])
    alg_k, _ = rational_form(action, char)
    with pytest.raises(PreconditionFailure):
        rational_form(action, char, alg_k)


def test_construction_checks_every_triple(monkeypatch):
    # one exhaustive check per constructed table, at any dimension; dim 126 lies
    # above the old monomial bound (125), under which larger tables were checked
    # on 200 triples.  A table that is not monomial is refused before any check
    calls = []
    check = FiniteDimAlgebra.check_associativity

    def spy(self, *args, **kwargs):
        calls.append((self.dim, args, kwargs))
        return check(self, *args, **kwargs)

    monkeypatch.setattr(FiniteDimAlgebra, "check_associativity", spy)
    assert commutative_cyclic(NumberField.rationals(), 126, 2).dim == 126
    action, char = _swap_rung(NumberField.cyclotomic(4), [[0, 1], [-1, 0]], [2, 2])
    alg_k, _ = rational_form(action, char)
    # the L-form is checked at construction; the k-form is certified by transport
    assert calls == [(126, (), {}), (16, (), {})]
    first = next(ij for ij in sorted(alg_k.table) if sum(map(bool, alg_k.table[ij].values())) > 1)
    with pytest.raises(PreconditionFailure, match=rf"product \({first[0]}, {first[1]}\) has two nonzero"):
        FiniteDimAlgebra(NumberField.rationals(), range(alg_k.dim), alg_k.table, alg_k.unit)
    assert len(calls) == 2


def _swap_rung(field, S, values):
    """An order-2 swap/sign action on the l-center of a root-of-unity matrix, and a character."""
    l = field.param
    Q = QMatrix.from_root_of_unity(field, l, field.gen(), S)
    blocks = [{"swap": [0, 1]}] + [{"sign": -1}] * (len(S) - 2)
    action = build_order2_action(Q, field.galois, blocks)
    return action, CentralCharacter.for_l_center(Q, values)


def _random_quotient(field, l, rng):
    """The l-center quotient of a random root-of-unity matrix, values random units."""
    n = rng.choice((2, 3)) if l == 3 else 2
    S = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            S[a][b] = rng.randrange(l)
            S[b][a] = -S[a][b]
    Q = QMatrix.from_root_of_unity(field, l, field.gen(), S)
    values = [field.element([rng.randint(1, 3), rng.randint(-2, 2)]) for _ in range(n)]
    return _quotient_algebra(Q, CentralCharacter.for_l_center(Q, values))


def _corruptions(alg, rng):
    """Copies of a monomial table with one coefficient, target or product changed."""
    n = alg.dim
    out = []
    for kind in ("coefficient", "target", "zero"):
        table = dict(table_of(alg))
        i, j = rng.randrange(1, n), rng.randrange(1, n)
        ((k, c),) = table[(i, j)].items()
        if kind == "coefficient":
            table[(i, j)] = {k: c * alg.field.gen() * 2}
        elif kind == "target":
            table[(i, j)] = {(k + rng.randrange(1, n)) % n: c}
        else:
            table[(i, j)] = {}
        out.append(table)
    return out


def _graded_line(field, m):
    """L[x]/(x^m) with e_i e_j = C(i+j, i) e_(i+j): every row past e_0 has zero products."""
    table = {
        (i, j): {i + j: field.from_rational(comb(i + j, i))} if i + j < m else {}
        for i in range(m)
        for j in range(m)
    }
    return FiniteDimAlgebra(field, tuple(range(m)), table, {0: field.one()})


def _zero_corruptions(alg, rng):
    """Copies of a table with a product zeroed, or a zero product made nonzero, inside a row."""
    n = alg.dim
    out = []
    for want_zero in (False, True):
        pairs = [(i, j) for (i, j), t in sorted(table_of(alg).items()) if i and j and bool(t) != want_zero]
        i, j = rng.choice(pairs)
        table = dict(table_of(alg))
        table[(i, j)] = {(i + j) % n: alg.field.gen()} if want_zero else {}
        out.append(table)
    return out


def scaled_sum(terms):
    """sum c * v over the (c, v) in terms, for sparse vectors v, zeros dropped."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            s = out.get(k)
            out[k] = c * x if s is None else s + c * x
    return {k: x for k, x in out.items() if x}


def generic_associativity(alg):
    """(True, None), or (False, the first triple (i, j, k) that fails).

    The reference oracle for ``check_associativity``, on any table, a rational
    form's too: compares (e_i e_j) e_k = sum_t c_t e_t e_k with e_i (e_j e_k)
    = sum_t c_t e_i e_t through the dict table, not the arrays ``mul``
    reads, on every triple, in ``product(range(n), repeat=3)`` order.
    """
    table = table_of(alg)
    for i, j, k in product(range(alg.dim), repeat=3):
        left = scaled_sum((c, table[(t, k)]) for t, c in table[(i, j)].items())
        right = scaled_sum((c, table[(i, t)]) for t, c in table[(j, k)].items())
        if left != right:
            return False, (i, j, k)
    return True, None


def test_cocycle_kernel_matches_generic_check():
    # the cocycle kernel against the generic scan through mul, with the same
    # triples and the same first failing triple
    rng = random.Random(11)
    tables = []
    for field, l in ((NumberField.cyclotomic(3), 3), (NumberField.cyclotomic(4), 4)):
        for _ in range(3):
            alg = _random_quotient(field, l, rng)
            tables.append((alg, table_of(alg)))
            tables.extend((alg, t) for t in _corruptions(alg, rng))
        nil = truncated_line(field)
        tables.append((nil, table_of(nil)))
        for m in (4, 6):
            line = _graded_line(field, m)
            tables.append((line, table_of(line)))
            tables.extend((line, t) for t in _zero_corruptions(line, rng))
    # tables that are not graded (the unit of E11, E12, E22 has two indices),
    # each also with a nonzero coefficient doubled
    rationals = NumberField.rationals()
    for (labels, table, unit), (i, j) in zip(_ungraded_algebras(rationals), ((1, 2), (0, 1), (0, 2))):
        alg = FiniteDimAlgebra(rationals, labels, table, unit)
        ((k, c),) = table[(i, j)].items()
        tables += [(alg, table), (alg, {**table, (i, j): {k: 2 * c}})]
    failures = 0
    for alg, table in tables:
        seen = []
        # explicit zero coefficients ({k: 0} for {}, {k1: c, k2: 0} for {k1: c})
        # must classify and check like absent ones
        for given in (table, _explicit_zeros(table, alg.field)):
            # classified with no certificate, so the kernel reads this table's targets
            kernel = uncertified(alg.field, alg.labels, given, alg.unit)
            want = generic_associativity(kernel)
            assert kernel.check_associativity() == want, alg.labels
            seen.append((kernel._tgt, kernel._cid, _counts(kernel), want))
        assert seen[0] == seen[1], alg.labels
        failures += not want[0]
    # every corrupted table is caught, and the valid ones pass
    assert failures == 29


def test_light_test_falls_back_when_greedy_set_does_not_generate():
    # L[x]/(x^6) stored with e_5 as its unit: e_5 e_0 = e_5, so the greedy set
    # {0} reaches nothing new and does not generate.  e_1 e_1 is made 4 e_2
    # (it is 2 e_2), which breaks only triples whose middle is not 0 or 5
    field = NumberField.rationals()
    line = _graded_line(field, 6)
    table = dict(table_of(line))
    table[(1, 1)] = {2: field.from_rational(4)}
    kernel = uncertified(field, line.labels, table, {5: field.one()})
    assert kernel._middles() == range(6)
    assert kernel.check_associativity() == generic_associativity(kernel) == (False, (1, 1, 2))


def test_light_test_keeps_the_first_witness(zeta3):
    # the middles of a dim-9 quotient are the unit and x2, x1; after e_5 e_2 is
    # doubled, the first failing triple has middle 4, outside them
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 1], [-1, 0]])
    alg = _quotient_algebra(Q, CentralCharacter.for_l_center(Q, [2, 2]))
    assert alg._middles() == [0, 1, 3]
    table = dict(table_of(alg))
    ((k, c),) = table[(5, 2)].items()
    table[(5, 2)] = {k: 2 * c}
    kernel = uncertified(zeta3, alg.labels, table, alg.unit)
    assert kernel.check_associativity() == generic_associativity(kernel) == (False, (1, 4, 2))


def test_cocycle_kernel_multiplies_few_coefficient_pairs(monkeypatch):
    # Z/30 twisted by a random rational coboundary has hundreds of distinct
    # coefficients; its construction reads the rows of P for the middles 0
    # and 1 only, not all m^2 products of coefficient pairs
    field = NumberField.rationals()
    rng = random.Random(30)
    n = 30
    f = [field.one()]
    f += [field.from_rational(Fraction(rng.randint(1, 99), rng.randint(1, 99))) for _ in range(n - 1)]
    table = {(i, j): {(i + j) % n: f[i] * f[j] / f[(i + j) % n]} for i in range(n) for j in range(n)}
    m = len({c for t in table.values() for c in t.values()}) + 1  # and zero
    calls = []
    times = FieldElement.__mul__

    def spy(a, b):
        calls.append(None)
        return times(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", spy)
    alg = FiniteDimAlgebra(field, tuple(range(n)), table, {0: field.one()})
    assert alg._middles() == [0, 1]
    assert m > 400 and len(calls) < m * m // 10


def check_rational_form_embeds(action, char, alg_L, alg_k, embedding):
    """phi(e_b) = embedding[b] is a unital ring map into alg_L with Galois-fixed image.

    Each rational structure constant is checked by multiplying out over L
    with the L-form table; fixedness uses the action and the character.
    """
    field = alg_L.field
    index = {lab: i for i, lab in enumerate(alg_L.labels)}
    phi = [{index[lab]: c for lab, c in vec.items()} for vec in embedding]
    assert len(phi) == alg_k.dim == alg_L.dim

    def phi_of(vec_k):
        out = {}
        for b, c in vec_k.items():
            for k, v in phi[b].items():
                out[k] = out.get(k, field.zero()) + c.coeffs[0] * v
        return {k: v for k, v in out.items() if v}

    for i in range(alg_k.dim):
        for j in range(alg_k.dim):
            assert alg_L.mul(phi[i], phi[j]) == phi_of(alg_k.table[(i, j)]), (i, j)
    assert phi_of(alg_k.unit) == alg_L.unit
    for idx in range(len(action.galois)):
        sig = action.sigma(idx)
        for vec in phi:
            image = {}
            for k, c in vec.items():
                exp, coeff = action.monomial_image(idx, alg_L.labels[k])
                r, unit = char.reduce_monomial(exp)
                image[index[r]] = image.get(index[r], field.zero()) + sig(c) * coeff * unit
            assert {k: v for k, v in image.items() if v} == vec, idx


def test_rational_form_swap(swap3):
    char = l_center_char(swap3, [2, 2])
    alg_L = specialize(swap3, char)
    alg_k, embedding = rational_form(swap3, char, alg_L)
    assert alg_k.dim == alg_L.dim == 9
    # rational central simplicity at the checkable level: the k-form's
    # commutator nullity is the L-form's center, as transport says
    assert sympy_center_dim(alg_k) == alg_L.center_dim() == 1
    assert sympy_radical_dim(alg_k) == alg_L.radical_dim() == 0
    check_rational_form_embeds(swap3, char, alg_L, alg_k, embedding)


def test_rational_form_full_center(zeta3):
    # x3 is central, so the full central lattice 3Z x 3Z x Z is coarser than 3Z^3
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    action = build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}, {"sign": 1}])
    char = CentralCharacter.for_full_center(Q, [2, 2, 5])
    alg_L = specialize(action, char, which="full_center")
    alg_k, embedding = rational_form(action, char, alg_L)
    assert alg_k.dim == 9
    check_rational_form_embeds(action, char, alg_L, alg_k, embedding)


# the swap/sign rungs of dims 9, 27 and 64, in the shapes the benchmark draws
RUNG_SHAPES = {
    "dim9": (3, [[0, 1], [-1, 0]], [2, 2]),
    "dim27": (3, [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]], [2, 2, -1]),
    "dim64": (4, [[0, 1, -1], [-1, 0, -1], [1, 1, 0]], [3, 3, -1]),
}


@pytest.mark.parametrize("shape", ["dim27", "dim64"])
def test_rational_form_embeds_on_ladder_shapes(shape):
    # the swap/sign rungs the benchmark times: the sign block gives orbits
    # with a nontrivial stabilizer, and the character has a unit value
    l, S, values = RUNG_SHAPES[shape]
    action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
    alg_L = specialize(action, char, which="l_center")
    alg_k, embedding = rational_form(action, char, alg_L)
    assert alg_k.dim == alg_L.dim == l ** 3
    check_rational_form_embeds(action, char, alg_L, alg_k, embedding)


@pytest.mark.parametrize("l, n", [(3, 2), (3, 3), (4, 3)], ids=["2", "3", "dim64"])
def test_ladder_stages_pass_the_benchmark_checks(l, n):
    # the benchmark's ladder runs the L-form, center_dim, radical_dim and the
    # k-form (rational_form(...)[0].dim), and its oracle reads mul and
    # basis_vec: an API drift in any of them fails here, not as failed ops.
    # (4, 3) over Q(i) is the dim-64 rung that dominates the ladder's time
    import workloads

    for seed in range(3):
        rung = workloads.Rung.draw(l, n, random.Random(seed))
        algebra = rung.l_form()
        stage = {
            "l_form": algebra,
            "center_dim": algebra.center_dim(),
            "radical_dim": algebra.radical_dim(),
            "k_form": rung.k_form(algebra),
        }
        verdicts = workloads.check_rung(rung, stage)
        assert verdicts.keys() == stage.keys() and all(ok for ok, _ in verdicts.values()), verdicts


def test_dim27_k_form_center_matches_l_form():
    # the dim27 ladder shape, whose center (3) is larger than one
    action, char = _swap_rung(NumberField.cyclotomic(3), [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]], [2, 2, -1])
    alg_L = specialize(action, char, which="l_center")
    alg_k, _ = rational_form(action, char, alg_L)
    assert sympy_center_dim(alg_k) == alg_L.center_dim() == 3


def test_rational_form_requires_equivariant_values(swap3):
    char = l_center_char(swap3, [2, 3])
    with pytest.raises(InconsistentCharacter):
        rational_form(swap3, char)


def test_rational_form_rejects_products_outside_its_span(swap3):
    # the fixed points of the [2, 2] character, multiplied in the [2, 3]
    # quotient, leave their rational span: the reconstruction in
    # coords_of, which certifies the k-form by transport, must catch it
    foreign = specialize(swap3, l_center_char(swap3, [2, 3]))
    with pytest.raises(InconsistentCharacter):
        rational_form(swap3, l_center_char(swap3, [2, 2]), foreign)


@pytest.mark.parametrize("shape", ["dim9", "dim64"])
def test_corrupted_basis_row_leaves_the_rational_form(monkeypatch, shape):
    # "product left the rational form" is the k-form's transport certificate:
    # double one coefficient of the last fixed-point vector and some product's
    # value on that vector's orbit block no longer reconstructs
    from qtorus import specialization

    l, S, values = RUNG_SHAPES[shape]
    action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
    alg_L = specialize(action, char, which="l_center")
    fixed_point_basis = specialization._fixed_point_basis

    def corrupted(*args):
        vecs = fixed_point_basis(*args)
        lab = next(iter(vecs[-1]))
        vecs[-1][lab] = 2 * vecs[-1][lab]
        return vecs

    monkeypatch.setattr(specialization, "_fixed_point_basis", corrupted)
    with pytest.raises(InconsistentCharacter, match="product left the rational form"):
        rational_form(action, char, alg_L)


@pytest.mark.parametrize("where", ["shared", "last"])
def test_bad_l_form_value_is_never_served_from_the_cache(where):
    # block values are checked once and their coordinates reused, keyed by the
    # value ids at the block's labels.  "shared" doubles an L-form coefficient
    # that many products read; "last" doubles only the product of the last two
    # labels, so the block values it changes keep the support of good ones and
    # differ by one id: a key coarser than the values would serve them unchecked
    l, S, values = RUNG_SHAPES["dim27"]
    action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
    alg_L = specialize(action, char, which="l_center")
    n, tgt, cid = alg_L.dim, alg_L._tgt, alg_L._cid
    table = table_of(alg_L)
    if where == "shared":
        uses = {}
        for i, j in product(range(n), repeat=2):
            if not alg_L._vals[cid[i][j]].is_rational():
                uses.setdefault(cid[i][j], []).append((i, j))
        pairs = max(uses.values(), key=len)
        assert len(pairs) > 1
    else:
        pairs = [(n - 1, n - 1)]
    for i, j in pairs:
        table[(i, j)] = {tgt[i][j]: 2 * alg_L._vals[cid[i][j]]}
    bad = uncertified(alg_L.field, alg_L.labels, table, alg_L.unit)
    with pytest.raises(InconsistentCharacter, match="product left the rational form"):
        rational_form(action, char, bad)


def k_form_digest(alg_k, embedding):
    """SHA-256 over every table entry, the unit and every embedding vector, in sorted order."""
    h = hashlib.sha256()
    for (i, j), vec in sorted(alg_k.table.items()):
        h.update(repr((i, j, sorted((b, c.num, c.den) for b, c in vec.items()))).encode())
    h.update(repr(sorted((b, c.num, c.den) for b, c in alg_k.unit.items())).encode())
    for vec in embedding:
        h.update(repr(sorted((lab, c.num, c.den) for lab, c in vec.items())).encode())
    return h.hexdigest()


def test_k_forms_keep_their_digest(rotation5):
    # the rational forms of the dim 9/27/64 rungs and of the dim-25 order-4
    # rotation5 full center, pinned byte for byte: K_FORM_SHA256 was printed by
    # this body before the descent and the table went orbit block by block
    digest = hashlib.sha256()
    for l, S, values in RUNG_SHAPES.values():
        action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
        digest.update(k_form_digest(*rational_form(action, char)).encode())
    char = CentralCharacter.for_full_center(rotation5.qmatrix, [1, 1, 1])
    digest.update(k_form_digest(*rational_form(rotation5, char)).encode())
    assert digest.hexdigest() == K_FORM_SHA256


K_FORM_SHA256 = "fc868ec06d15c3e15b17ffe7992ba282ff5fdd45e7701dc774fadb5a6ab78eee"


@pytest.mark.parametrize(
    "l, S, values",
    [
        (3, [[0, 1], [-1, 0]], [2, 2]),
        (3, [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]], [2, 2, -1]),
        (4, [[0, 1], [-1, 0]], [2, 2]),
    ],
    ids=["dim9", "dim27", "dim16"],
)
def test_transported_k_form_passes_generic_check(l, S, values):
    # the generic scan through the dict table, on every triple, as an oracle
    # for the associativity that rational_form transports from the L-form
    action, char = _swap_rung(NumberField.cyclotomic(l), S, values)
    alg_k, _ = rational_form(action, char)
    assert alg_k.dim == l ** len(S)
    assert generic_associativity(alg_k) == (True, None)


def test_rational_form_requires_rational_values(swap3, zeta3):
    char = l_center_char(swap3, [zeta3.gen(), zeta3.gen()])
    with pytest.raises(PreconditionFailure):
        rational_form(swap3, char)


def test_rational_form_l2_trivial_action():
    sqrt5 = NumberField.quadratic(5)
    Q = QMatrix(sqrt5, [[1, -1], [-1, 1]], declared_orders=[[1, 2], [2, 1]])
    action = build_trivial_action(Q, sqrt5.galois)
    char = CentralCharacter.for_l_center(Q, [2, 3])
    alg_L = specialize(action, char, which="l_center")
    assert alg_L.dim == 4
    alg_k, embedding = rational_form(action, char, alg_L)
    assert alg_k.dim == 4
    # the k-form here is monomial, so it is certified again by construction
    rational = FiniteDimAlgebra(NumberField.rationals(), range(alg_k.dim), alg_k.table, alg_k.unit)
    assert rational.center_dim() == 1
    assert rational.radical_dim() == 0
    check_rational_form_embeds(action, char, alg_L, alg_k, embedding)


def _swap_sign_draw(l, n, rng):
    """A matrix, blocks and equivariant l-center values in the swap/sign pattern of the ladder.

    q_ij = zeta_l^(S_ij), where swap (0 1) reverses S[0][1], a unit mod l,
    and a sign on x_2 needs S[0][2] == S[1][2], any residue.  The matrix is
    built from its entries and declared orders, so it carries the
    (l, epsilon, S) that spelling synthesizes.  Swapped generators share a
    value, and a sign generator gets +-1.
    """
    s = rng.choice([u for u in range(1 - l, l) if gcd(u, l) == 1])
    v = Fraction(rng.choice((2, -3, 5, 7)), rng.choice((1, 2)))
    if n == 2:
        S, blocks, values = [[0, s], [-s, 0]], [{"swap": [0, 1]}], [v, v]
    else:
        b = rng.randrange(1 - l, l)
        S, blocks = [[0, s, b], [-s, 0, b], [-b, -b, 0]], [{"swap": [0, 1]}, {"sign": -1}]
        values = [v, v, Fraction(rng.choice((1, -1)))]
    field = NumberField.cyclotomic(l)
    entries = QMatrix.from_root_of_unity(field, l, field.gen(), S).entries
    return QMatrix(field, entries, declared_orders=[[l // gcd(x, l) for x in row] for row in S]), blocks, values


def _spellings(Q, blocks, values):
    """The document of Q in the root_of_unity and the entries + declared_orders spellings."""
    l, eps, S = Q.root_of_unity
    common = {
        "field": {"kind": "cyclotomic", "l": Q.field.param},
        "n": Q.n,
        "action": {"kind": "order2", "blocks": blocks},
        "character": {"lattice": "l_center", "values": [str(v) for v in values]},
    }
    entries = [[[str(c) for c in q.coeffs] for q in row] for row in Q.entries]
    orders = [[l // gcd(x, l) for x in row] for row in S]
    return [
        {**common, "q": {"root_of_unity": {"l": l, "epsilon": [str(c) for c in eps.coeffs], "s_matrix": S}}},
        {**common, "q": {"entries": entries, "declared_orders": orders}},
    ]


def test_k_form_and_reports_on_random_draws(tmp_path):
    # a seeded differential check of the k-form and the reports: Q(zeta_l) with
    # l in {3, 4, 6} and n in {2, 3}, l^n <= 64, an order-2 swap/sign action and
    # an equivariant l-center character.  Its k-form embeds
    # (check_rational_form_embeds), its table is associative on every triple,
    # and its sympy center and radical are the L-form's.  The same draw with
    # unequal swapped values does not build, and raises a typed QTorusError.
    # The root_of_unity spelling of the matrix's (l, epsilon, S) and its
    # entries + declared_orders spelling give the same exit code and
    # byte-identical specialize --form k and decompose reports
    from qtorus.cli import main

    rng = random.Random(25)
    shapes = [(l, n) for l in (3, 4, 6) for n in (2, 3) if l**n <= 64]
    problem, out = tmp_path / "problem.json", tmp_path / "report.json"
    for l, n in shapes + rng.sample(shapes, 1):
        Q, blocks, values = _swap_sign_draw(l, n, rng)
        action = build_order2_action(Q, Q.field.galois, blocks)
        char = CentralCharacter.for_l_center(Q, values)
        alg_L = specialize(action, char, which="l_center")
        alg_k, embedding = rational_form(action, char, alg_L)
        check_rational_form_embeds(action, char, alg_L, alg_k, embedding)
        if alg_k.dim <= 27:  # the dim^3 oracles; above, the embedding check stands
            assert generic_associativity(alg_k) == (True, None), Q.root_of_unity
            assert sympy_center_dim(alg_k) == alg_L.center_dim(), Q.root_of_unity
            assert sympy_radical_dim(alg_k) == alg_L.radical_dim(), Q.root_of_unity
        broken = [values[0], values[1] + 1] + values[2:]
        with pytest.raises(InconsistentCharacter):
            rational_form(action, CentralCharacter.for_l_center(Q, broken))
        for vals, argv in product((values, broken), (["specialize", "--form", "k"], ["decompose"])):
            seen = []
            for doc in _spellings(Q, blocks, vals):
                problem.write_text(json.dumps(doc))
                out.unlink(missing_ok=True)
                code = main(argv + [str(problem), "--json", str(out)])
                seen.append((code, out.read_bytes() if out.exists() else None))
            assert seen[0] == seen[1], (argv, Q.root_of_unity, vals)
            assert seen[0][0] == (1 if vals is broken and argv[0] == "specialize" else 0), (argv, Q.root_of_unity, vals)


def _order4_draw(l, rng):
    """An action of Gal(Q(zeta5)/Q), cyclic of order 4, and an equivariant character.

    sigma: zeta -> zeta^2 generates the group, and sigma^k acts by the k-th
    power of one exponent matrix, with trivial cocycle.  l = 5: sigma rotates
    x1 -> x2 -> x1^-1 and fixes x3 (the rotation5 pattern), which asks
    S[0][1] == 0 and S[1][2] == 2 S[0][2] mod 5; the full center, spanned by
    (1, 2, 0), (0, 5, 0) and (0, 0, 5), is equivariant for values (u, u, w),
    u = +-1.  l = 2: q = +-1 is fixed by sigma, so the 4-cycle
    x1 -> x2 -> x3 -> x4 asks a circulant S mod 2, and the l-center needs
    one value on all four squares.
    """
    field = NumberField.cyclotomic(5)
    group = field.galois
    gen = next(i for i, aut in enumerate(group.elements) if aut.t_image == field.gen() ** 2)
    w = Fraction(rng.choice((2, -3, 5, 7)), rng.choice((1, 2, 3)))
    if l == 5:
        s = rng.choice((1, 2, 3, 4))
        Q = QMatrix.from_root_of_unity(field, 5, field.gen(), [[0, 0, s], [0, 0, 2 * s], [-s, -2 * s, 0]])
        M, I = [[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        mats, idx, P = {0: I}, gen, M
        while idx != 0:
            mats[idx], idx, P = P, group.compose_idx(gen, idx), mat_mul(M, P)
        action = build_explicit_action(Q, group, [mats[i] for i in range(4)], [[field.one()] * 3] * 4)
        u = rng.choice((1, -1))
        return action, CentralCharacter.for_full_center(Q, [u, u, w]), "full_center"
    a, b = rng.choice((0, 1)), rng.choice((0, 1))
    S = [[0, a, b, -a], [-a, 0, a, b], [-b, -a, 0, a], [a, -b, -a, 0]]
    Q = QMatrix.from_root_of_unity(field, 2, field.from_rational(-1), S)
    perms, idx, p = {0: (0, 1, 2, 3)}, gen, (1, 2, 3, 0)
    while idx != 0:
        perms[idx], idx, p = p, group.compose_idx(gen, idx), tuple((x + 1) % 4 for x in p)
    action = build_permutation_action(Q, group, perms)
    return action, CentralCharacter.for_l_center(Q, [w] * 4), "l_center"


def test_k_form_on_random_order4_draws():
    # seeded draws whose Galois group has order 4, over Q(zeta5): l = 5 with
    # orbits of four lines, l = 2 with orbits of one, two and four.  Each
    # k-form embeds, and its sympy center and radical are its L-form's
    rng = random.Random(26)
    for l in (5, 2, 2, 5):
        action, char, which = _order4_draw(l, rng)
        alg_L = specialize(action, char, which=which)
        alg_k, embedding = rational_form(action, char, alg_L)
        assert max(len(vec) for vec in embedding) == 4
        check_rational_form_embeds(action, char, alg_L, alg_k, embedding)
        assert sympy_center_dim(alg_k) == alg_L.center_dim(), action.qmatrix.root_of_unity
        assert sympy_radical_dim(alg_k) == alg_L.radical_dim() == 0, action.qmatrix.root_of_unity


def _unconstrained_draw(rng):
    """A seeded document over Q(zeta_l) whose parts need not fit together.

    S is any antisymmetric matrix, the order-2 blocks any swap and sign
    cover and the character any rational values on either lattice, so
    the action may be incompatible with q, the character may not be
    equivariant, and Q(zeta_5) has no order-2 Galois group.
    """
    l, n = rng.choice([(3, 2), (3, 3), (4, 2), (4, 3), (6, 2), (5, 2)])
    S = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            S[a][b] = rng.randrange(-l, l + 1)
            S[b][a] = -S[a][b]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        blocks = [{"swap": [i, j]}] + [{"sign": rng.choice((1, -1))} for _ in range(n - 2)]
    else:
        blocks = [{"sign": rng.choice((1, -1))} for _ in range(n)]
    return {
        "field": {"kind": "cyclotomic", "l": l},
        "q": {"root_of_unity": {"l": l, "s_matrix": S}},
        "action": {"kind": "order2", "blocks": blocks},
        "character": {
            "lattice": rng.choice(("l_center", "full_center")),
            "values": [rng.choice(("1", "-1", "2", "-3", "1/2", "5/7", "0")) for _ in range(n)],
        },
    }


def test_draws_that_fail_to_build_raise_typed_errors(tmp_path):
    # seeded L-form and k-form draws with nothing forcing them to build: each
    # builds, or raises a QTorusError through the library (parse_problem, then
    # specialize, then rational_form), and main exits 0 exactly when the form
    # built, else 1 or 2 with a one-line message and no traceback
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from qtorus.cli import main

    rng = random.Random(14)
    problem = tmp_path / "problem.json"
    outcomes = []
    for _ in range(60):
        doc = _unconstrained_draw(rng)
        built = []
        try:
            spec = parse_problem(doc)
            algebra = specialize(spec.action, spec.character)
            built.append("L")
            rational_form(spec.action, spec.character, algebra)
            built.append("k")
        except QTorusError:
            pass
        problem.write_text(json.dumps(doc))
        for form in ("L", "k"):
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = main(["specialize", "--form", form, str(problem)])
            assert code == 0 if form in built else code in (1, 2), (form, doc, code)
            assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") == (code != 0), doc
        outcomes.append(len(built))
    assert set(outcomes) == {0, 1, 2}, outcomes


def test_character_consistency_checked(swap3):
    with pytest.raises(ValueError):
        l_center_char(swap3, [0, 1])
    Q = swap3.qmatrix
    # a non-central lattice is rejected
    from qtorus.zlattice import Lattice

    with pytest.raises(ValueError):
        CentralCharacter(Q, Lattice.from_rows([[1, 0], [0, 3]], 2), [2, 3])


def _seeded_characters():
    """Every shipped character; seeded l-center and full-center characters in
    the selftest c07 shapes and the ladder shapes; and one character on a
    central lattice given directly."""
    import workloads
    from qtorus.descent import l_center_lattice
    from qtorus.selftest import _equivariant_values, _prop2_setup
    from qtorus.zlattice import Lattice

    shipped = [path for path in sorted(CASES.glob("*.json")) if "character" in json.loads(path.read_text())]
    out = [load_problem(path).character for path in shipped]
    for seed in range(4):
        rng = random.Random(seed)
        for l, n in ((2, 2), (3, 2), (3, 3), (4, 2)):
            _, Q, action, _, sign_coords = _prop2_setup(l, n, rng)
            for lattice in (l_center_lattice(Q), central_lattice(Q)):
                out.append(CentralCharacter(Q, lattice, _equivariant_values(action, lattice, sign_coords, rng)))
        for l, n in ((3, 2), (3, 3), (4, 3)):
            Q = workloads.Rung.draw(l, n, rng).qmatrix
            for make in (CentralCharacter.for_l_center, CentralCharacter.for_full_center):
                out.append(make(Q, [rng.choice((2, -3, Fraction(5, 7), Q.field.gen())) for _ in range(n)]))
    zeta3 = NumberField.cyclotomic(3)
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]])
    out.append(CentralCharacter(Q, Lattice.from_rows([[2, 1, 1], [0, 3, 0], [0, 0, 3]], 3), [2, zeta3.gen(), -1]))
    return out


def test_character_extension_satisfies_the_basis_pair_identity():
    # construction checks only that the lattice is central; the value
    # extension then satisfies c(h_i, h_j) chi(h_i + h_j) = chi(h_i) chi(h_j)
    # on every basis pair, and reduce_monomial gives the ladder oracle's
    # (r, c(r, lam)^-1 chi(lam)) for exp = r + lam
    rng = random.Random(5)
    for chi in _seeded_characters():
        Q, basis = chi.qmatrix, chi.lattice.basis
        for (i, hi), (j, hj) in product(enumerate(basis), repeat=2):
            s = tuple(a + b for a, b in zip(hi, hj))
            assert Q.cocycle(hi, hj) * chi.value(s) == chi.values[i] * chi.values[j], (basis, i, j)
        for _ in range(10):
            exp = tuple(rng.randint(-9, 9) for _ in range(Q.n))
            r, lam = chi.lattice.reduce(exp)
            assert chi.reduce_monomial(exp) == (r, Q.cocycle(r, lam).inverse() * chi.value(lam)), (basis, exp)


def test_cyclic_decomposition_standard(swap3):
    char = l_center_char(swap3, [2, 3])
    rep, data = cyclic_decomposition(swap3, char)
    assert rep.ok
    assert data["ks"] == [1] and data["zeros"] == 0
    blk = data["blocks"][0]
    assert blk["degree"] == 3
    assert blk["a"] == 2 and blk["b"] == 3


def test_cyclic_decomposition_with_free_generator(zeta3):
    z = zeta3.gen()
    S = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    Q = QMatrix.from_root_of_unity(zeta3, 3, z, S)
    action = build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}, {"sign": -1}])
    char = CentralCharacter.for_l_center(Q, [2, 3, 5])
    rep, data = cyclic_decomposition(action, char)
    assert rep.ok
    assert data["ks"] == [1] and data["zeros"] == 1
    assert len(data["commuting"]) == 1 and data["commuting"][0] is not None
    assert data["algebra"].dim == 27


def test_cyclic_decomposition_non_primitive_block():
    zeta4 = NumberField.cyclotomic(4)
    i = zeta4.gen()
    Q = QMatrix.from_root_of_unity(zeta4, 4, i, [[0, 2], [-2, 0]])
    action = build_order2_action(Q, zeta4.galois, [{"swap": [0, 1]}])
    char = CentralCharacter.for_l_center(Q, [2, 3])
    rep, data = cyclic_decomposition(action, char)
    assert rep.ok
    blk = data["blocks"][0]
    assert blk["k"] == 2 and blk["degree"] == 2
    # omega = i^2 has order 2
    assert blk["omega"] == -1
    # the central index equals the product of squared block degrees
    assert central_lattice(Q).index() == 4


def test_decomposition_reports_the_first_failing_block(zeta3, monkeypatch):
    # with each block's k doubled, both blocks fail their pairing and their
    # relation in the quotient; each check names the first failing block
    S = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    Q = QMatrix.from_root_of_unity(zeta3, 3, zeta3.gen(), S)
    action = build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}, {"swap": [2, 3]}])
    char = CentralCharacter.for_l_center(Q, [2, 3, 5, 7])
    rep, data = cyclic_decomposition(action, char)
    assert rep.ok and data["ks"] == [1, 1]
    normal_form = specialization.alternating_normal_form

    def doubled_ks(A):
        U, ks, zeros = normal_form(A)
        return U, [2 * k for k in ks], zeros

    monkeypatch.setattr(specialization, "alternating_normal_form", doubled_ks)
    rep, _ = cyclic_decomposition(action, char)
    assert {c.name: c.witness for c in rep.failures()} == {
        "block-pairing-matches-normal-form": {"block": 0},
        "block-relation-in-quotient": {"block": 0},
    }


def test_decompose_blocks_match_a_direct_cyclic_algebra():
    # every block of cyclic_decomposition, on the shipped documents with a
    # character, a non-primitive block and one seeded draw, against the
    # cyclic_algebra oracle: X^i Y^j (0 <= i, j < l) lie on l^2 distinct labels
    # of the L-form and multiply by cyclic_algebra(L, l, a, b, omega)'s
    # structure constants, with a = X^l, b = Y^l and X Y = omega Y X as
    # decompose reports them (l is the block's degree when k is prime to l)
    cases = []
    for name in ("l3_standard.json", "n3_decompose.json"):
        spec = load_problem(str(CASES / name))
        cases.append((spec.action, spec.character))
    zeta4 = NumberField.cyclotomic(4)
    Q = QMatrix.from_root_of_unity(zeta4, 4, zeta4.gen(), [[0, 2], [-2, 0]])
    cases.append((build_order2_action(Q, zeta4.galois, [{"swap": [0, 1]}]), CentralCharacter.for_l_center(Q, [2, 3])))
    rng = random.Random(28)
    Q, blocks, values = _swap_sign_draw(*rng.choice([(4, 3), (6, 2)]), rng)
    cases.append((build_order2_action(Q, Q.field.galois, blocks), CentralCharacter.for_l_center(Q, values)))
    for action, char in cases:
        rep, data = cyclic_decomposition(action, char)
        assert rep.ok, rep.failures()
        alg, l, field = data["algebra"], data["l"], action.qmatrix.field
        for a, blk in enumerate(data["blocks"]):
            X, Y = (embed_monomial(alg, char, g) for g in data["generators"][2 * a : 2 * a + 2])
            direct = cyclic_algebra(field, l, blk["a"], blk["b"], blk["omega"])
            elems = [alg.mul(alg.power(X, i), alg.power(Y, j)) for i, j in direct.labels]
            assert all(len(e) == 1 for e in elems)
            assert len({next(iter(e)) for e in elems}) == l * l
            for (t1, t2), prod in table_of(direct).items():
                want = {}
                for t, c in prod.items():
                    for k, x in elems[t].items():
                        want[k] = want.get(k, field.zero()) + c * x
                assert alg.mul(elems[t1], elems[t2]) == want, (action.qmatrix.root_of_unity, a, t1, t2)


def test_catalog_case2():
    rep = catalog_case(2, NumberField.quadratic(5), [9, 4])
    assert rep.ok, rep.failures()


def test_catalog_case3():
    rep = catalog_case(3, NumberField.quadratic(5), [7])
    assert rep.ok, rep.failures()


def test_catalog_case4_zeta3():
    # q = (-1 + alpha)/2 in Q(sqrt(-3)) is a primitive cube root of unity
    rep = catalog_case(4, NumberField.quadratic(-3), [Fraction(-1, 2), Fraction(1, 2)])
    assert rep.ok, rep.failures()


def test_catalog_case4_q_minus_one():
    rep = catalog_case(4, NumberField.quadratic(5), [-1])
    assert rep.ok, rep.failures()


def test_catalog_case1():
    rep = catalog_case(1, NumberField.quadratic(5), [7])
    assert rep.ok, rep.failures()


def test_catalog_preconditions():
    with pytest.raises(PreconditionFailure):
        catalog_case(2, NumberField.quadratic(5), [2])  # norm 4 != 1
    with pytest.raises(PreconditionFailure):
        catalog_case(3, NumberField.quadratic(5), [9, 4])  # not rational
    with pytest.raises(PreconditionFailure):
        catalog_case(1, NumberField.quadratic(5), [9, 4])
    with pytest.raises(PreconditionFailure):
        catalog_case(7, NumberField.quadratic(5), [1])
    with pytest.raises(PreconditionFailure):
        catalog_case(4, NumberField.cyclotomic(3), [0, 1])  # not a quadratic field


def test_crossed_product_witness_case2(zeta3):
    rep = crossed_product_witness(2, zeta3, zeta3.gen())
    assert rep.ok, rep.failures()
    assert rep.inputs["unit"] == ["1", "0"]
    assert rep.inputs["commutation_exponent"] == 1


def test_crossed_product_witness_case4(zeta3):
    rep = crossed_product_witness(4, zeta3, zeta3.gen())
    assert rep.ok, rep.failures()
    assert rep.inputs["unit"] == ["1", "0"]


def test_crossed_product_witness_case1(zeta3):
    rep = crossed_product_witness(1, zeta3, zeta3.gen())
    assert rep.ok


def test_crossed_product_witness_preconditions(zeta3):
    sqrt5 = NumberField.quadratic(5)
    with pytest.raises(PreconditionFailure):
        crossed_product_witness(2, sqrt5, 9 + 4 * sqrt5.gen())
    with pytest.raises(PreconditionFailure):
        crossed_product_witness(2, sqrt5, sqrt5.from_rational(-1))
    with pytest.raises(PreconditionFailure):
        crossed_product_witness(3, zeta3, zeta3.gen())


@pytest.mark.parametrize("case", [1, 2, 4])
def test_crossed_product_witness_needs_a_unit_q(zeta3, case):
    # q = 0 used to reach unit_order, which has no order for zero
    with pytest.raises(PreconditionFailure, match="q must be a unit"):
        crossed_product_witness(case, zeta3, zeta3.zero())


@pytest.mark.parametrize("case", [1, 2, 4])
def test_crossed_product_witness_needs_galois_order_two(case):
    # Gal(Q(zeta5)/Q) has order 4; build_order2_action used to raise a bare ValueError
    zeta5 = NumberField.cyclotomic(5)
    with pytest.raises(PreconditionFailure, match="order 2"):
        crossed_product_witness(case, zeta5, zeta5.gen())


def test_prop2_shape_random_l3(zeta3):
    rng = random.Random(5)
    z = zeta3.gen()
    for _ in range(3):
        s = rng.randint(1, 2)
        Q = QMatrix.from_root_of_unity(zeta3, 3, z, [[0, s], [-s, 0]])
        action = build_order2_action(Q, zeta3.galois, [{"swap": [0, 1]}])
        char = CentralCharacter.for_l_center(Q, [2, 2])
        alg_L = specialize(action, char)
        assert alg_L.dim == 9
        alg_k, _ = rational_form(action, char, alg_L)
        assert alg_k.dim == 9
        full = CentralCharacter.for_full_center(Q, [2, 2])
        alg_full = specialize(action, full, which="full_center")
        assert alg_full.center_dim() == 1
        assert alg_full.radical_dim() == 0


def test_rotation5_full_center_k_form(rotation5):
    # the order-4 action on the dim-25 full-center quotient, where chi = 1 is equivariant
    char = CentralCharacter.for_full_center(rotation5.qmatrix, [1, 1, 1])
    alg_L = specialize(rotation5, char, which="full_center")
    alg_k, embedding = rational_form(rotation5, char, alg_L)
    assert alg_k.dim == alg_L.dim == 25
    assert sympy_center_dim(alg_k) == alg_L.center_dim() == 1
    check_rational_form_embeds(rotation5, char, alg_L, alg_k, embedding)


def test_rotation5_l_center_k_form(rotation5):
    # dim 125: sigma sends x1^5 -> x2^5 -> x1^-5, so their values agree and multiply to 1
    char = l_center_char(rotation5, [1, 1, 2])
    alg_L = specialize(rotation5, char, which="l_center")
    alg_k, _ = rational_form(rotation5, char, alg_L)
    assert alg_k.dim == 125
    assert alg_L.center_dim() == 5
