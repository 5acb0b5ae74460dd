"""Root-of-unity specializations into finite dimensional algebras.

A central character assigns units to a canonical basis of a central
sublattice of exponents; its kernel cuts the twisted Laurent algebra
down to a finite dimensional algebra whose basis monomials are the
canonical digit representatives of Z^n modulo the lattice.  Over L the
multiplication stays monomial; the rational form is recovered as the
fixed-point subalgebra of the induced semilinear action, with structure
constants solved exactly over Q.

Also here: the cyclic-block decomposition of the exponent pairing and
the generator-level verification it induces on specializations, the
four dimension-2 catalog cases over a quadratic field with all their
defining relations, and the order-2 crossed-product witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .descent import (
    _fixed_point_basis,
    central_lattice,
    invariant_basis,
    is_central,
    l_center_lattice,
)
from .errors import InconsistentCharacter, PreconditionFailure, VerificationFailed
from .galois_action import build_order2_action, build_trivial_action
from .numfield import NumberField, norm, unit_order
from .report import Report
from .torus import QMatrix, TwistedLaurentElement
from .zlattice import alternating_normal_form


class CentralCharacter:
    """Unit values on a canonical basis of a central exponent lattice.

    The value on an arbitrary lattice vector is forced by the ordered
    product of basis monomials; consistency with the normal-ordering
    constants is checked on all basis pairs at construction.
    """

    __slots__ = ("qmatrix", "lattice", "values", "_cache")

    def __init__(self, qmatrix, lattice, values):
        if len(values) != len(lattice.basis):
            raise ValueError("need one value per lattice basis vector")
        vals = tuple(qmatrix.field.element(v) for v in values)
        if any(not v for v in vals):
            raise ValueError("character values must be nonzero")
        if not all(qmatrix.is_central_exponent(row) for row in lattice.basis):
            raise ValueError("lattice is not central for this matrix")
        self.qmatrix = qmatrix
        self.lattice = lattice
        self.values = vals
        self._cache = {}
        for i, hi in enumerate(lattice.basis):
            for j, hj in enumerate(lattice.basis):
                s = tuple(a + b for a, b in zip(hi, hj))
                lhs = qmatrix.cocycle(hi, hj) * self.value(s)
                if lhs != vals[i] * vals[j]:
                    raise InconsistentCharacter(
                        f"value extension conflicts on basis pair ({i}, {j})"
                    )

    @classmethod
    def for_l_center(cls, qmatrix, values):
        return cls(qmatrix, l_center_lattice(qmatrix), values)

    @classmethod
    def for_full_center(cls, qmatrix, values):
        return cls(qmatrix, central_lattice(qmatrix), values)

    def value(self, lam):
        """chi(x^lam) for a lattice vector lam."""
        lam = tuple(int(x) for x in lam)
        got = self._cache.get(lam)
        if got is not None:
            return got
        coords = self.lattice.coords(lam)
        if coords is None:
            raise ValueError(f"{lam} is not in the character's lattice")
        q = self.qmatrix
        one = q.field.one()
        exp, unit = q.power_product((one, row, c) for row, c in zip(self.lattice.basis, coords))
        val = one
        for c, v in zip(coords, self.values):
            if c:
                val = val * v ** c
        if exp != lam:
            raise VerificationFailed(
                "basis monomial product left the lattice vector", witness={"lam": lam, "exp": exp}
            )
        out = val * unit.inverse()
        self._cache[lam] = out
        return out

    def reduce_monomial(self, exp):
        """(r, u) with x^exp == u * x^r in the quotient, r the digit representative.

        Writing exp = r + lam with lam in the lattice, x^r x^lam = c(r, lam) x^exp
        and x^lam specializes to chi(lam), so u = c(r, lam)^-1 * chi(lam), where
        c(r, lam)^-1 = c(-r, lam) is evaluated from negated exponents.
        """
        r, lam = self.lattice.reduce(exp)
        q = self.qmatrix
        return r, q.evaluate([-e for e in q.cocycle_exponents(r, lam)]) * self.value(lam)

    def is_equivariant(self, action):
        """Whether the value map commutes with the semilinear action."""
        for idx in range(len(action.galois)):
            sig = action.sigma(idx)
            for row, v in zip(self.lattice.basis, self.values):
                exp, coeff = action.monomial_image(idx, row)
                if exp not in self.lattice:
                    return False, {"sigma": idx, "vector": row, "reason": "lattice moved"}
                if coeff * self.value(exp) != sig(v):
                    return False, {"sigma": idx, "vector": row, "reason": "value mismatch"}
        return True, None


class FiniteDimAlgebra:
    """Associative unital algebra given by exact structure constants.

    A monomial table (at most one nonzero coefficient per product, every
    L-form) is held as three arrays: the target ``_tgt`` and the
    coefficient id ``_cid`` of each product, and the values ``_vals`` by
    id.  ``_quotient_algebra`` fills them itself (``_from_arrays``); a dict
    ``table[(i, j)] = {target: coefficient}`` given to the constructor is
    read once by ``_classify`` and not kept.  ``mul`` reads the arrays, and
    vectors are sparse {index: coefficient} dicts.

    Construction takes a monomial table only; any other raises
    ``PreconditionFailure`` naming its first product with two nonzero
    coefficients.  Associativity is certified on every triple, at any
    dimension, never by sampling: the 2-cocycle identity of the
    coefficients, one row of triples at a time (``check_associativity``),
    with the middle index over a set M that the table certifies to generate
    it (Light's test, ``_middles``): a proof for every triple at dim^2 |M|
    cost.  On a quotient of rank n, M is the unit and n generators; a table
    where M fails its certificate gets the dim^3 scan.

    ``center_dim`` and ``radical_dim`` are counts on the arrays of a graded
    table and raise on any other.  The rational form is not monomial and is
    no ``FiniteDimAlgebra``: ``rational_form`` returns its table as a
    ``RationalForm``, whose center and radical are its L-form's.
    """

    __slots__ = ("field", "labels", "unit", "is_graded", "_tgt", "_cid", "_vals")

    def __init__(self, field, labels, table, unit):
        self.field, self.labels = field, tuple(labels)
        self.unit = {k: c for k, c in unit.items() if c}
        self._classify(table)
        self._certify()

    @classmethod
    def _from_arrays(cls, field, labels, arrays, unit):
        """A monomial algebra from the arrays ``_classify`` would fill, certified like a table."""
        self = cls.__new__(cls)
        self.field, self.labels, self.unit = field, tuple(labels), unit
        self._hold(*arrays)
        self._certify()
        return self

    def _certify(self):
        """The unit and associativity certificates of a constructed table."""
        j = self._unit_fails_at()
        if j is not None:
            raise PreconditionFailure(f"unit vector does not act as identity on basis index {j}")
        ok, witness = self.check_associativity()
        if not ok:
            raise VerificationFailed("non-associative table", witness=witness)

    def _classify(self, table):
        """Check every index of a dict table and read it into the arrays.

        A target or unit index that is not an int in ``range(dim)``, or a
        missing product, raises ``PreconditionFailure``; after that scan, so
        does the first (i, j) whose product has two nonzero coefficients.
        The arrays of a monomial table are ``_tgt`` and ``_cid``,
        (n+1) x (n+1) with row and column n for zero, and ``_vals``, the
        coefficients interned by exact value (equal ids mean equal elements,
        ``_vals[0]`` is zero).  A zero coefficient gets the id of zero, so
        its product gets target n: no coefficient is tested for zero.
        """
        n = self.dim
        for z in self.unit:
            if z.__class__ is not int or not 0 <= z < n:
                raise PreconditionFailure(f"unit index {z!r} is not in range({n})")
        ids = {self.field.zero(): 0}
        tgt = [[n] * (n + 1) for _ in range(n + 1)]
        cid = [[0] * (n + 1) for _ in range(n + 1)]
        bad = None
        for i in range(n):
            ti, ci = tgt[i], cid[i]
            for j in range(n):
                t = table.get((i, j))
                if t is None:
                    raise PreconditionFailure(f"missing product ({i}, {j})")
                for k, c in t.items():
                    if k.__class__ is not int or not 0 <= k < n:
                        raise PreconditionFailure(f"product ({i}, {j}) has target {k!r}, not in range({n})")
                    if bad is None:
                        got = ids.setdefault(c, len(ids))
                        if got:
                            if ti[j] != n:
                                bad = (i, j)
                            ti[j], ci[j] = k, got
        if bad is not None:
            raise PreconditionFailure(f"product {bad} has two nonzero coefficients; the table is not monomial")
        self._hold(tgt, cid, list(ids))

    def _hold(self, tgt, cid, vals):
        """Keep the arrays and set ``is_graded``: e_g e_h and e_h e_g share a
        target or are both zero, and distinct g give distinct targets for each h
        (every L-form).  Then sum a_g e_g commutes with e_h iff
        a_g c(g, h) == a_g c(h, g) for all g: central monomials span the center."""
        n = self.dim
        self.is_graded = tgt == [list(col) for col in zip(*tgt)] and all(
            len(set(row) - {n}) == n + 1 - row.count(n) for row in tgt
        )
        self._tgt, self._cid, self._vals = tgt, cid, vals

    @property
    def dim(self):
        return len(self.labels)

    def basis_vec(self, i):
        return {i: self.field.one()}

    def mul(self, u, v):
        n, tgt, cid, vals = self.dim, self._tgt, self._cid, self._vals
        if not all(0 <= k < n for w in (u, v) for k in w):
            raise PreconditionFailure(f"mul reads the arrays of a monomial table at indices in range({n})")
        out = {}
        for i, c in u.items():
            for j, d in v.items():
                k = tgt[i][j]
                if k != n:
                    s = out.get(k)
                    val = c * d * vals[cid[i][j]]
                    out[k] = val if s is None else s + val
        return {k: c for k, c in out.items() if c}

    def power(self, u, e):
        out = dict(self.unit)
        for _ in range(e):
            out = self.mul(out, u)
        return out

    def scalar_of(self, vec):
        """The scalar c with vec == c * unit, or None."""
        if not vec:
            return self.field.zero()
        some = next(iter(vec))
        base = self.unit.get(some)
        if base is None:
            return None
        c = vec[some] / base
        scaled = {k: c * w for k, w in self.unit.items()}
        return c if scaled == vec else None

    def _unit_fails_at(self):
        """The first j with unit * e_j != e_j or e_j * unit != e_j, or None.

        Sums u_z c(z, j) e_(zj) and u_z c(j, z) e_(jz) over the unit's indices
        z off the arrays of the monomial table, where a zero product has
        target n and is dropped.
        """
        n, one, unit = self.dim, self.field.one(), self.unit
        tgt, cid, vals = self._tgt, self._cid, self._vals
        for j in range(n):
            for pairs in ([(z, j) for z in unit], [(j, z) for z in unit]):
                got = {}
                for (a, b), u in zip(pairs, unit.values()):
                    k = tgt[a][b]
                    got[k] = got.get(k, vals[0]) + u * vals[cid[a][b]]
                got.pop(n, None)
                if got.pop(j, vals[0]) != one or any(got.values()):
                    return j
        return None

    def check_associativity(self):
        """Associativity of a monomial table: c(i,j) c(ij,k) == c(j,k) c(i,jk).

        Returns (True, None), or (False, the first triple (i, j, k) that
        fails).

        With e_i e_j = c(i,j) e_ij, each side of (e_i e_j) e_k == e_i (e_j e_k)
        is a target and a product of two coefficients.  The coefficients' ids
        are the arrays', so equal ids mean equal elements; each pair of ids
        is multiplied once, into the rows of ``P`` that the scanned middles
        read, and the product is interned in a copy of ``_vals``.  A zero
        product has target n (one past the basis) and the id of zero, so both
        sides of a zero triple read (n, id of zero).  For each (i, j) the two
        sides are compared as whole rows over k; a differing row gives its
        first k.

        The middle index j runs over ``_middles()`` (Light's test).  When a
        row differs there, the scan reruns over every j, so the witness is
        the first failing triple in ``product(range(n), repeat=3)`` order.
        """
        n, tgt, cid = self.dim, self._tgt, self._cid
        base = self._vals
        vals = base[:]
        ids = {c: x for x, c in enumerate(vals)}

        def intern(c):
            got = ids.get(c)
            if got is None:
                got = ids[c] = len(vals)
                vals.append(c)
            return got

        P = [None] * len(base)

        def first_failure(middles):
            # the left side reads the rows cid[i][j], the right side the rows cid[j][k]
            rows = {cid[i][j] for i in range(n) for j in middles}
            for x in rows.union(*(cid[j] for j in middles)):
                if P[x] is None:
                    v = base[x]
                    P[x] = [intern(v * y) for y in base]
            for i in range(n):
                ti, ci = tgt[i], cid[i]
                for j in middles:
                    a, Pij = ti[j], P[ci[j]]
                    tj, cj = tgt[j], cid[j]
                    left_t, left_p = tgt[a], [Pij[y] for y in cid[a]]
                    right_t = [ti[b] for b in tj]
                    right_p = [P[y][ci[b]] for b, y in zip(tj, cj)]
                    if left_t != right_t or left_p != right_p:
                        k = next(
                            k for k in range(n) if (left_t[k], left_p[k]) != (right_t[k], right_p[k])
                        )
                        return i, j, k
            return None

        middles = self._middles()
        witness = first_failure(middles)
        if witness is not None and len(middles) < n:
            witness = first_failure(range(n))
        return witness is None, witness

    def _middles(self):
        """Middle indices for Light's associativity test: the unit's labels and S.

        Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
        section 1.2): the a with (x a) y == x (a y) for all x, y form a
        subalgebra, so the table is associative once the middles pass and
        generate it.  S is
        greedy: the first label not yet reached joins S, and the reached labels
        are the closure of the unit's labels under right multiplication by S
        along nonzero products; each is a nonzero multiple of a product of
        middles.  A label that joins S and stays unreached stops the greedy.
        The generation certificate: the closure reaches every label, else the
        middles are all of ``range(n)``, the full scan.
        """
        n, tgt = self.dim, self._tgt
        reached = list(self.unit)
        seen = set(reached)
        S = []
        for x in range(n):
            if x in seen:
                continue
            S.append(x)
            todo = [(r, x) for r in reached]
            while todo:
                r, s = todo.pop()
                t = tgt[r][s]
                if t != n and t not in seen:
                    seen.add(t)
                    reached.append(t)
                    todo += [(t, y) for y in S]
            if x not in seen:
                break
        if len(seen) < n:
            return range(n)
        return sorted(set(self.unit).union(S))

    def center_dim(self):
        """Dimension of the center: the count of central monomials of a graded
        table, exact by ``_hold``; any other table raises."""
        if not self.is_graded:
            raise PreconditionFailure("center_dim counts central monomials; the table is not graded")
        n, tgt, cid = self.dim, self._tgt, self._cid
        return sum(all(tgt[g][h] == tgt[h][g] and cid[g][h] == cid[h][g] for h in range(n)) for g in range(n))

    def radical_dim(self):
        """Dimension of the radical: the rows of ``_tgt`` that reach no index of
        the unit, counted on a graded table; any other table raises.

        In characteristic zero (all this library builds) the radical is the
        kernel of the trace form tr(L_(xy)).  Let the unit be the sum of u_z e_z
        over z in Z.  Distinct rows give distinct targets in each column, so
        unit * e_g has no cancelling terms: e_g = u_z e_z e_g for one z = z(g)
        in Z, and e_z e_g = 0 for the others.  Row g reaches target g at z(g),
        so by gradedness at no other k: tr(L_(e_k)) is |z^-1(k)| / u_k on Z and
        0 off it, and tr(L_(e_i e_j)) != 0 exactly where e_i e_j lands in Z.
        Row i reaches Z at most once: at w, associativity and e_i = u e_z(i) e_i
        give z(w) = z(i), and z(z(w)) = w by symmetry.  So does each column, by
        symmetry, and the trace form's rank is the number of rows that reach Z.
        """
        if not self.is_graded:
            raise PreconditionFailure("radical_dim counts rows of a graded table; the table is not graded")
        unit = set(self.unit)
        return sum(unit.isdisjoint(row) for row in self._tgt[: self.dim])


# ---------------------------------------------------------------------------
# quotient construction


def specialize(action, character, which=None):
    """The finite dimensional fiber of the algebra at a central character.

    Returns the monomial quotient over L; ``rational_form`` computes its
    rational form by Galois descent.  ``which`` optionally cross-checks
    that the character lives on the full central lattice ("full_center")
    or on l * Z^n ("l_center").
    """
    Q = action.qmatrix
    if character.qmatrix is not Q:
        raise ValueError("character was built for a different commutation matrix")
    if which == "full_center" and character.lattice != central_lattice(Q):
        raise ValueError("character does not live on the full central lattice")
    if which == "l_center" and character.lattice != l_center_lattice(Q):
        raise ValueError("character does not live on the l-center lattice")
    return _quotient_algebra(Q, character)


def _quotient_algebra(Q, character):
    """e_g e_h = c(g, h) c(r, lam)^-1 chi(lam) e_r, with g + h = r + lam.

    With q[i][j] = epsilon^S[i][j], c(g, h) = epsilon^(g . v_h) for the
    integer row v_h[i] = sum_(j < i) S[i][j] h_j, so the coefficient is
    epsilon^e chi(lam) with e = g . v_h - r . v_lam mod l.  Each distinct sum
    g + h (a mixed-radix code, as digits never carry) is reduced once, and
    each distinct (e, lam) costs one field product.  (l, epsilon, S) comes
    from ``Q.root_of_unity_data()``, so the entry orders must be known, and
    ``Q.eps_pows`` holds the powers of epsilon.  ``specialize`` is the one
    library caller, after its checks on the character.
    """
    lat = character.lattice
    l, _, S = Q.root_of_unity_data()
    pows = Q.eps_pows
    n = Q.n

    def row(h):
        return [sum(S[i][j] * h[j] for j in range(i)) for i in range(n)]

    ranges = lat.digit_ranges()
    labels = [tuple(digits) for digits in product(*[range(r) for r in ranges])]
    index = {lab: i for i, lab in enumerate(labels)}
    weights = [1] * n
    for i in range(n - 1, 0, -1):
        weights[i - 1] = weights[i] * (2 * ranges[i] - 1)
    # per sum code: (index of r, r . v_lam, l * id of lam); a coefficient's key is that plus e
    lam_ids, sums = {}, []
    for s in product(*[range(2 * r - 1) for r in ranges]):
        r, lam = lat.reduce(s)
        lid = lam_ids.setdefault(lam, len(lam_ids))
        sums.append((index[r], sum(map(mul, r, row(lam))), l * lid))
    codes = [sum(map(mul, g, weights)) for g in labels]
    rows = [row(h) for h in labels]
    lams = list(lam_ids)
    N = len(labels)
    tgt = [[N] * (N + 1) for _ in range(N + 1)]
    cid = [[0] * (N + 1) for _ in range(N + 1)]
    ids, by_key = {Q.field.zero(): 0}, {}
    for i, g in enumerate(labels):
        cg, ti, ci = codes[i], tgt[i], cid[i]
        for j, vh in enumerate(rows):
            k, base, key = sums[cg + codes[j]]
            key += (sum(map(mul, g, vh)) - base) % l
            x = by_key.get(key)
            if x is None:
                c = pows[key % l] * character.value(lams[key // l])
                x = by_key[key] = ids.setdefault(c, len(ids))
            ti[j], ci[j] = k, x
    unit = {index[(0,) * n]: Q.field.one()}
    return FiniteDimAlgebra._from_arrays(Q.field, labels, (tgt, cid, list(ids)), unit)


def embed_monomial(algebra, character, exponent):
    """Image of x^exponent in the quotient, as a sparse vector."""
    r, unit = character.reduce_monomial(tuple(int(x) for x in exponent))
    return {algebra.labels.index(r): unit}


class RationalForm:
    """The structure constants of a rational form on the basis ``range(dim)``.

    ``table[(i, j)]`` is e_i e_j as a sparse {index: coefficient} dict over
    Q, and ``unit`` the unit vector; both are certified by ``rational_form``.
    """

    __slots__ = ("dim", "table", "unit")

    def __init__(self, dim, table, unit):
        self.dim, self.table, self.unit = dim, table, unit


def rational_form(action, character, algebra=None):
    """The fixed-point subalgebra over Q of the quotient over L.

    Returns (RationalForm, embedding) where the embedding lists, per
    rational basis element, its L-coefficient vector inside the quotient.
    The embedded vectors are verified L-linearly independent, which is
    exactly the statement that extension of scalars recovers the quotient
    over L.  Without ``algebra`` the quotient is ``specialize(action,
    character)``, which refuses a character built for another matrix.

    The rational table is not checked triple by triple: the embedding
    phi is injective (the L-rank certificate), reproduces the unit and
    every product phi(e_i) phi(e_j) exactly (``coords_of``), and lands
    in the L-form, whose associativity its construction checked on every
    triple.  So phi((e_i e_j) e_k) == phi(e_i (e_j e_k)) for every triple.
    With equal dimensions phi (x) L is an isomorphism, so the center and
    radical dimensions of ``algebra`` are the rational form's as well.

    The table runs on interned coefficients and integer coordinates.  Ids
    start from the L-form's ``_vals`` (id 0 is zero), each coefficient of phi
    gets one by exact value, and the product or sum of two ids is computed
    the first time the pair is met.  phi(e_i) phi(e_j) is read from the
    L-form's ``_tgt`` and ``_cid`` (``algebra`` must be a ``FiniteDimAlgebra``)
    and summed per target label.  Each phi(e_b) lies on one Galois orbit of
    labels, its block, so the product's value on each block it reaches is
    reconstructed against that block's rows alone: ``coords_of`` sums it on
    integer numerators over one denominator, reads the coordinates at the
    pivots, and checks the reconstruction on integers.  A block value is
    keyed by its block and the value ids at the block's labels; the first
    product that meets a key checks it, and later ones reuse the checked
    coordinates, so every product is still reconstructed exactly.  Each
    distinct output coordinate x / L is built once.
    """
    Q = action.qmatrix
    if algebra is None:
        algebra = specialize(action, character)
    if not isinstance(algebra, FiniteDimAlgebra):
        raise PreconditionFailure("rational form needs a monomial quotient table")
    for v in character.values:
        if not v.is_rational():
            raise PreconditionFailure("rational form needs rational character values")
    ok, witness = character.is_equivariant(action)
    if not ok:
        raise InconsistentCharacter(f"character is not equivariant: {witness}")
    labels = algebra.labels
    index = {lab: i for i, lab in enumerate(labels)}

    def image_of(idx, g):
        exp, coeff = action.monomial_image(idx, g)
        r, unit = character.reduce_monomial(exp)
        return coeff * unit, r

    vecs = _fixed_point_basis(action, labels, image_of)
    N = len(labels)
    d = Q.field.degree

    # coefficients interned by exact value; each keeps its denominator and
    # its nonzero numerators by power of t
    ids, vals, flat = {}, [], []

    def intern(c):
        got = ids.get(c)
        if got is None:
            got = ids[c] = len(vals)
            vals.append(c)
            flat.append((c.den, [(t, x) for t, x in enumerate(c.num) if x]))
        return got

    products, sums = {}, {}

    def times(x, y):
        """The id of vals[x] * vals[y], multiplied the first time the pair is met."""
        got = products.get((x, y))
        if got is None:
            got = products[(x, y)] = intern(vals[x] * vals[y])
        return got

    def plus(x, y):
        """The id of vals[x] + vals[y], added the first time the pair is met."""
        got = sums.get((x, y))
        if got is None:
            got = sums[(x, y)] = intern(vals[x] + vals[y])
        return got

    for c in algebra._vals:
        intern(c)  # so an id of the L-form's _cid is an id here too
    tgt, cid = algebra._tgt, algebra._cid
    phi = [[(index[lab], intern(c)) for lab, c in v.items()] for v in vecs]

    # each basis row once, over the power basis at position p * d + t: its
    # denominator M_b and integer numerators.  The rows are an RREF, so the
    # first position is the row's pivot, where it equals 1
    rows, basis_at = [], {}
    for b, v in enumerate(phi):
        M = lcm(*(flat[z][0] for _, z in v))
        row = {p * d + t: x * (M // flat[z][0]) for p, z in v for t, x in flat[z][1]}
        rows.append((M, row))
        basis_at[min(row)] = b

    rationals = NumberField.rationals()
    made = {}

    def rational_of(x, L):
        """The rational x / L, built the first time (x, L) is met."""
        got = made.get((x, L))
        if got is None:
            got = made[(x, L)] = rationals._make((x,), L)
        return got

    def coords_of(terms):
        """Rational coordinates of the sum of vals[z] e_k over (k, z) in terms.

        The sum is W / L, with L the lcm of the terms' denominators; the
        coordinate of row b is the entry of W at its pivot, over L.  The
        exact reconstruction sum_b W[pivot_b] row_b / M_b == W runs on
        integers, scaled by the lcm M of the M_b used.
        """
        L = lcm(*(flat[z][0] for _, z in terms))
        w = {}
        for k, z in terms:
            den, nz = flat[z]
            s = L // den
            for t, x in nz:
                p = k * d + t
                w[p] = w.get(p, 0) + x * s
        w = {p: x for p, x in w.items() if x}
        c = sorted((basis_at[p], x) for p, x in w.items() if p in basis_at)
        M = lcm(*(rows[b][0] for b, _ in c))
        recon = {}
        for b, x in c:
            Mb, row = rows[b]
            f = x * (M // Mb)
            for p, r in row.items():
                recon[p] = recon.get(p, 0) + f * r
        if {p: x for p, x in recon.items() if x} != {p: M * x for p, x in w.items()}:
            raise InconsistentCharacter("product left the rational form")
        return {b: rational_of(x, L) for b, x in c}

    # each phi(e_b) is fixed, so its support is one orbit of labels: a block
    blocks = {}
    for v in phi:
        blocks.setdefault(tuple(k for k, _ in v), len(blocks))
    block_of = {k: blk for labs, blk in blocks.items() for k in labs}
    block_labels = list(blocks)
    term_of, verified, table = {}, {}, {}
    for i in range(N):
        for j in range(N):
            # phi(e_i) phi(e_j) as a value id per target label; a term's id,
            # keyed by (x, y, c), is made through the pair products of times
            value = {}
            for a, x in phi[i]:
                ta, ca = tgt[a], cid[a]
                for b, y in phi[j]:
                    k = ta[b]
                    if k != N:
                        c = ca[b]
                        z = term_of.get((x, y, c))
                        if z is None:
                            z = term_of[(x, y, c)] = times(times(x, y), c)
                        s = value.get(k)
                        value[k] = z if s is None else plus(s, z)
            coords = {}
            for blk in {block_of[k] for k in value}:
                labs = block_labels[blk]
                key = (blk, tuple(map(value.get, labs)))
                got = verified.get(key)
                if got is None:
                    got = verified[key] = coords_of([(k, z) for k, z in zip(labs, key[1]) if z])
                coords.update(got)
            table[(i, j)] = dict(sorted(coords.items()))
    unit = coords_of([(k, intern(c)) for k, c in algebra.unit.items()])
    return RationalForm(N, table, unit), vecs


# ---------------------------------------------------------------------------
# cyclic block decomposition


def cyclic_decomposition(action, character):
    """Decompose the l-center specialization into commuting cyclic blocks.

    The exponent pairing matrix is put into hyperbolic normal form over
    Z; the rows of the transform name new generator monomials which are
    verified, inside the quotient, to satisfy exactly the block
    relations X_i Y_i = eps^{k_i} Y_i X_i with all other pairs
    commuting, and to have central l-th powers realizing the block
    parameters.  The block order data only depends on k_i mod l: the
    effective modulus is gcd(k_i, l) and the block degree is
    d_i = l / gcd(k_i, l).  The character's lattice is checked to be
    l * Z^n here, so the quotient is ``specialize(action, character)``
    with no ``which`` cross-check.
    """
    Q = action.qmatrix
    l, _, S = Q.root_of_unity_data()
    if character.lattice != l_center_lattice(Q):
        raise ValueError("cyclic decomposition needs an l-center character")
    rep = Report("cyclic-decomposition")
    U, ks, zeros = alternating_normal_form([list(r) for r in S])
    n = Q.n
    p = len(ks)
    gens = [tuple(U[a]) for a in range(n)]
    one = Q.field.one()
    omegas = [Q.eps_pows[k % l] for k in ks]  # epsilon^k_a, block a's commutation scalar

    def record(name, witnesses):
        # a check is one search: its first witness, or a pass when there is none
        witness = next(witnesses, None)
        rep.add(name, witness is None, witness)

    record("block-pairing-matches-normal-form", (
        {"block": a} for a in range(p) if Q.bihom(gens[2 * a], gens[2 * a + 1]) != omegas[a]
    ))
    # every pair of generators but a block's own commutes
    record("cross-block-generators-commute", (
        {"pair": (a, b)}
        for a, b in combinations(range(n), 2)
        if not (a % 2 == 0 and b == a + 1 and a // 2 < p) and Q.bihom(gens[a], gens[b]) != one
    ))

    algebra = specialize(action, character)
    vecs = [embed_monomial(algebra, character, g) for g in gens]
    # X_a Y_a == omega_a Y_a X_a for each block's pair (X_a, Y_a)
    record("block-relation-in-quotient", (
        {"block": a}
        for a, X, Y in zip(range(p), vecs[0::2], vecs[1::2])
        if algebra.mul(X, Y) != {k: omegas[a] * c for k, c in algebra.mul(Y, X).items()}
    ))

    blocks = []
    for a in range(p):
        av = algebra.scalar_of(algebra.power(vecs[2 * a], l))
        bv = algebra.scalar_of(algebra.power(vecs[2 * a + 1], l))
        rep.add(f"block-{a}-powers-central", av is not None and bv is not None)
        keff = gcd(ks[a], l)
        blocks.append(
            {
                "k": ks[a],
                "k_effective": keff,
                "degree": l // keff,
                "omega": omegas[a],
                "a": av,
                "b": bv,
            }
        )
    commuting = []
    for a in range(2 * p, n):
        cv = algebra.scalar_of(algebra.power(vecs[a], l))
        rep.add(f"free-generator-{a}-power-central", cv is not None)
        commuting.append(cv)

    index_full = central_lattice(Q).index()
    degrees = 1
    for blk in blocks:
        degrees *= blk["degree"] ** 2
    rep.add(
        "central-index-matches-block-degrees",
        index_full == degrees,
        None if index_full == degrees else {"index": index_full, "degrees": degrees},
    )
    return rep, {
        "l": l,
        "ks": list(ks),
        "zeros": zeros,
        "generators": gens,
        "blocks": blocks,
        "commuting": commuting,
        "algebra": algebra,
    }


# ---------------------------------------------------------------------------
# dimension-2 catalog


def _q_plane(field, q):
    return QMatrix(field, [[1, q], [q.inverse(), 1]])


def catalog_case(case, field, q):
    """Verify the generator presentation of one of the four rank-2 cases.

    ``field`` is a quadratic field Q(sqrt(D)) (``NumberField.quadratic``).

    Case selection fixes the Galois module: 1 trivial, 2 = diag(1, -1),
    3 = -identity, 4 = swap.  Preconditions: q rational in cases 1 and 3,
    norm one in cases 2 and 4.  All stated relations are expanded
    exactly inside the twisted Laurent algebra, the matrix-form
    commutation rules are additionally rederived from the quadratic and
    commutator relations by direct substitution, and every constructed
    generator is checked Galois-fixed.
    """
    if case not in (1, 2, 3, 4):
        raise PreconditionFailure(f"unknown case {case}")
    if field.kind != "quadratic":
        raise PreconditionFailure("the catalog needs a quadratic field")
    D = field.param
    alpha = field.gen()
    q = field.element(q)
    if not q:
        raise PreconditionFailure("q must be a unit")
    if case in (1, 3) and not q.is_rational():
        raise PreconditionFailure(f"case {case} needs q rational")
    if case in (2, 4) and norm(q) != 1:
        raise PreconditionFailure(f"case {case} needs a norm-one q")
    Q = _q_plane(field, q)
    rep = Report(f"catalog-case-{case}")
    rep.inputs = {"case": case, "D": D, "q": [str(c) for c in q.coeffs]}

    if case == 1:
        action = build_trivial_action(Q, field.galois)
    elif case == 2:
        action = build_order2_action(Q, field.galois, [{"sign": 1}, {"sign": -1}])
    elif case == 3:
        action = build_order2_action(Q, field.galois, [{"sign": -1}, {"sign": -1}])
    else:
        action = build_order2_action(Q, field.galois, [{"swap": [0, 1]}])
    rep.add("action-construction", True)

    x1 = TwistedLaurentElement.generator(Q, 0)
    x2 = TwistedLaurentElement.generator(Q, 1)
    lam = field.from_rational(q.coeffs[0])
    mu = field.from_rational(q.coeffs[1])

    if case == 1:
        rep.add("commutation-relation", x1 * x2 == (x2 * x1) * q)
        rep.add("fixed-ring-is-monomial", all(
            list(invariant_basis(action, m).elements) == [TwistedLaurentElement.monomial(Q, m)]
            for m in ((1, 0), (0, 1), (2, -1))
        ))
        return rep

    if case == 2:
        x = x1
        z1 = (x2 + x2.inverse()) / 2
        z2 = (x2 - x2.inverse()) / (2 * alpha)
        rep.add("relation-row-1", x * z1 == (z1 * lam + z2 * (D * mu)) * x)
        rep.add("relation-row-2", x * z2 == (z1 * mu + z2 * lam) * x)
        rep.add("relation-quadric", z1 * z1 - z2 * z2 * D == TwistedLaurentElement.one(Q))
        rep.add("relation-commuting", z1.commutator(z2).is_zero())
        for name, elt in (("x", x), ("x-inverse", x.inverse()), ("z1", z1), ("z2", z2)):
            rep.add(f"fixed-{name}", action.is_fixed(elt))
        return rep

    if case == 3:
        y1 = (x1 + x1.inverse()) / 2
        y2 = (x1 - x1.inverse()) / (2 * alpha)
        z1 = (x2 + x2.inverse()) / 2
        z2 = (x2 - x2.inverse()) / (2 * alpha)
        qinv = q.inverse()
        rep.add("relation-row1-plus", y1 * z1 + y2 * z2 * D == (z1 * y1 + z2 * y2 * D) * q)
        rep.add("relation-row1-minus", y1 * z1 - y2 * z2 * D == (z1 * y1 - z2 * y2 * D) * qinv)
        rep.add("relation-row2-plus", y2 * z1 + y1 * z2 == (z2 * y1 + z1 * y2) * q)
        # the minus branch pairs with the reversed order on the right;
        # the version with (z2 y1 - z1 y2) fails the exact expansion
        rep.add("relation-row2-minus", y2 * z1 - y1 * z2 == (z1 * y2 - z2 * y1) * qinv)
        rep.note("second minus-branch relation verified with right side z1*y2 - z2*y1")
        one = TwistedLaurentElement.one(Q)
        rep.add("relation-quadric-y", y1 * y1 - y2 * y2 * D == one)
        rep.add("relation-quadric-z", z1 * z1 - z2 * z2 * D == one)
        rep.add("relation-commuting-y", y1.commutator(y2).is_zero())
        rep.add("relation-commuting-z", z1.commutator(z2).is_zero())
        for name, elt in (("y1", y1), ("y2", y2), ("z1", z1), ("z2", z2)):
            rep.add(f"fixed-{name}", action.is_fixed(elt))
        return rep

    # case 4
    sigma = field.galois.elements[1]
    u = (x1 + x2) / 2
    v = (x1 - x2) / (2 * alpha)
    if q == -1:
        w = x1 * x2 * alpha
        zero = TwistedLaurentElement.zero(Q)
        rep.add("relation-a", u * u - v * v * D == zero)
        rep.add("relation-b", u.commutator(v) == w * Fraction(-1, D))
        rep.add("relation-c-u", w * u == -(u * w))
        rep.add("relation-c-v", w * v == -(v * w))
        w_from_b = u.commutator(v) * (-D)
        rep.add("relation-c-u-derived", w_from_b * u == -(u * w_from_b))
        rep.add("relation-c-v-derived", w_from_b * v == -(v * w_from_b))
        rep.add("defining-relation", u * u - v * v * D == zero)
    else:
        w = x1 * x2 * ((1 + sigma(q)) / 2)
        rep.add("relation-a", u * u - v * v * D == w)
        rep.add("relation-b", u.commutator(v) == w * (-mu / (1 + lam)))
        rep.add("relation-c-u", w * u == (u * lam - v * (D * mu)) * w)
        rep.add("relation-c-v", w * v == (u * (-mu) + v * lam) * w)
        w_a = u * u - v * v * D
        rep.add("relation-c-u-derived", w_a * u == (u * lam - v * (D * mu)) * w_a)
        rep.add("relation-c-v-derived", w_a * v == (u * (-mu) + v * lam) * w_a)
        lhs = u.commutator(v) * (1 + lam) + (u * u - v * v * D) * mu
        rep.add("defining-relation", lhs.is_zero())
        rep.add("w-is-invertible-monomial", w.is_monomial() and bool(w))
    for name, elt in (("u", u), ("v", v), ("w", w)):
        rep.add(f"fixed-{name}", action.is_fixed(elt))
    return rep


# ---------------------------------------------------------------------------
# crossed-product witnesses


def crossed_product_witness(case, field, q):
    """Order-2 witness data for the cyclic structure of a specialization.

    For the sign case the witness is y = x2, for the swap case
    y = x1^(-1) x2; the checks are sigma(y) * y = reported unit (so
    sigma inverts y up to that exact unit), centrality of y^l, the unit
    sigma(y^l) * y^l, and the commutation x y = q^e y x with e = +-1.
    Full maximal-subfield certification over the fraction field of the
    center is out of scope; passing witnesses are reported as consistent
    with a cyclic crossed product, not as a proof of one.  Every case needs
    Gal(L/Q) of order 2 and q a unit.
    """
    if case not in (1, 2, 4):
        raise PreconditionFailure("witness construction covers cases 1, 2 and 4 only")
    if len(field.galois) != 2:
        raise PreconditionFailure(f"witness needs a Galois group of order 2, not {len(field.galois)}")
    q = field.element(q)
    if not q:
        raise PreconditionFailure("q must be a unit")
    rep = Report(f"crossed-product-witness-case-{case}")
    if case == 1:
        rep.add("trivial-witness", True)
        rep.note("the fixed ring is already a twisted Laurent ring over Q; no witness needed")
        return rep
    l = unit_order(q, 2 * field.degree ** 2)  # no root of unity has a higher order
    if l is None:
        raise PreconditionFailure("q is not a root of unity")
    if l % 2 == 0 or l == 1:
        raise PreconditionFailure("witness needs q of odd order at least 3")
    Q = _q_plane(field, q)
    if case == 2:
        action = build_order2_action(Q, field.galois, [{"sign": 1}, {"sign": -1}])
        y = TwistedLaurentElement.generator(Q, 1)
    else:
        action = build_order2_action(Q, field.galois, [{"swap": [0, 1]}])
        y = TwistedLaurentElement.generator(Q, 0).inverse() * TwistedLaurentElement.generator(Q, 1)
        rep.note("swap-case witness is y = x1^(-1) * x2")
    x = TwistedLaurentElement.generator(Q, 0)

    def unit_of(z):
        """(c, sigma(z) * z) with sigma(z) * z == c * x^0, c None when it is no such unit."""
        prod = action.apply(1, z) * z
        return (prod.terms.get((0,) * Q.n) if prod.is_monomial() else None), prod

    unit, prod = unit_of(y)
    rep.add("sigma-inverts-y-up-to-unit", unit is not None,
            None if unit is not None else {"sigma_y_times_y": repr(prod)})
    if unit is not None:
        rep.inputs["unit"] = [str(c) for c in unit.coeffs]
        if case == 2:
            rep.add("sigma-inverts-y-exactly", unit == field.one())
        else:
            rep.add("unit-reported", True, {"unit": [str(c) for c in unit.coeffs]})

    yl = y ** l
    ok, witness = is_central(yl)
    rep.add("y-power-l-central", ok, None if ok else {"generator": witness["generator"]})

    unit_l, _ = unit_of(yl)
    rep.add("sigma-inverts-y-power-up-to-unit", unit_l is not None)
    if unit_l is not None:
        rep.inputs["unit_l"] = [str(c) for c in unit_l.coeffs]

    if x * y == (y * x) * q:
        rep.add("cyclic-commutation", True, {"exponent": 1})
        rep.inputs["commutation_exponent"] = 1
    elif x * y == (y * x) * q.inverse():
        rep.add("cyclic-commutation", True, {"exponent": -1})
        rep.inputs["commutation_exponent"] = -1
    else:
        rep.add("cyclic-commutation", False)
    rep.note("verified witnesses are consistent with a cyclic crossed product structure")
    return rep
