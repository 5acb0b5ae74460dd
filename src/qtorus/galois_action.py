"""Semilinear Galois actions on twisted Laurent algebras.

An action is determined by three pieces of data: an integral module
structure (one GL_n(Z) matrix per Galois element, acting on exponents),
a cocycle assigning a unit gamma_sigma(e_i) to each generator, and the
commutation matrix.  A generator maps by

    sigma(x_i) = gamma_sigma(e_i) * x^(sigma e_i),

and the action extends to every monomial factorwise (apply sigma to each
x_i^(m_i) and normal-order through ``QMatrix.power_product``), which is
the unique multiplicative extension.  Construction verifies exactly, on
the finite generating data:

  * compatibility Q(sigma m, sigma k) = sigma(Q(m, k)) on all basis
    pairs, which makes the map a well-defined algebra map; and
  * the composition rule sigma(tau(x_i)) = (sigma tau)(x_i) for all
    pairs, which makes it a group action.

Together these certify the identities on the whole algebra, since both
sides of each identity are multiplicative and biadditive.

An action is immutable once constructed, so ``monomial_image`` keeps each
image it computes, keyed by (sigma index, m): a kept image is exactly the
value ``power_product`` would return again.  ``apply``, ``gamma`` and the
descent and specialization callers all go through it.  At most
``IMAGE_CACHE_LIMIT`` images are kept per action; past that, images are
computed afresh, so a large sweep costs time, not unbounded memory.
"""

from __future__ import annotations

import random
import reprlib
from itertools import product

from .errors import CompatibilityFailure
from .report import Report
from .torus import TwistedLaurentElement
from .zlattice import det_bareiss, identity_matrix, mat_mul

# the most sigma-images one action keeps: about 270 bytes each over a
# degree-2 field, so about 4 MB when full
IMAGE_CACHE_LIMIT = 1 << 14


class TorusModule:
    """Integral Galois module: one unimodular matrix per group element.

    Matrices act on column vectors; column i is the image of e_i.  The
    assignment must be a group homomorphism for the group's composition
    table.
    """

    __slots__ = ("galois", "n", "mats", "cols")

    def __init__(self, galois, mats):
        mats = tuple(tuple(tuple(int(x) for x in row) for row in M) for M in mats)
        if len(mats) != len(galois):
            raise ValueError("need one matrix per Galois element")
        n = len(mats[0])
        for M in mats:
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError("module matrices must be square of equal size")
            if abs(det_bareiss([list(r) for r in M])) != 1:
                raise ValueError("module matrix is not invertible over Z")
        if mats[galois.identity_index] != tuple(tuple(r) for r in identity_matrix(n)):
            raise ValueError("identity element must act by the identity matrix")
        for i in range(len(galois)):
            for j in range(len(galois)):
                k = galois.compose_idx(i, j)
                prod = mat_mul([list(r) for r in mats[i]], [list(r) for r in mats[j]])
                if tuple(tuple(r) for r in prod) != mats[k]:
                    raise ValueError("module matrices do not respect the group law")
        self.galois = galois
        self.n = n
        self.mats = mats
        self.cols = tuple(tuple(zip(*M)) for M in mats)

    def apply(self, idx, m):
        M = self.mats[idx]
        return tuple(sum(M[r][c] * m[c] for c in range(self.n)) for r in range(self.n))

    def column(self, idx, i):
        return self.cols[idx][i]


class GammaCocycle:
    """Values gamma_sigma(e_i) on the generators, one row per group element."""

    __slots__ = ("values",)

    def __init__(self, field, galois, values):
        vals = tuple(tuple(field.element(v) for v in row) for row in values)
        if len(vals) != len(galois):
            raise ValueError("need one value row per Galois element")
        for row in vals:
            for v in row:
                if not v:
                    raise ValueError("cocycle values must be nonzero")
        if any(v != field.one() for v in vals[galois.identity_index]):
            raise ValueError("identity cocycle values must all be 1")
        self.values = vals

    @classmethod
    def trivial(cls, field, galois, n):
        one = field.one()
        return cls(field, galois, [[one] * n for _ in galois.elements])


class SemilinearAction:
    """A validated semilinear action of Gal(L/Q) on L_Q[x1^+-1, ..., xn^+-1]."""

    __slots__ = ("galois", "module", "cocycle", "qmatrix", "_images")

    def __init__(self, galois, module, cocycle, qmatrix):
        self.galois = galois
        self.module = module
        self.cocycle = cocycle
        self.qmatrix = qmatrix
        self._images = {}
        self._check_compatibility()
        self._check_composition()

    # -- core maps -------------------------------------------------------

    @property
    def n(self):
        return self.qmatrix.n

    def sigma(self, idx):
        return self.galois.elements[idx]

    def monomial_image(self, idx, m):
        """(exponent, coefficient) of sigma(x^m) = prod_i sigma(x_i)^(m_i), normal-ordered."""
        key = (idx, tuple(m))
        got = self._images.get(key)
        if got is None:
            gam = self.cocycle.values[idx]
            got = self.qmatrix.power_product(
                (gam[i], self.module.column(idx, i), e) for i, e in enumerate(m)
            )
            if len(self._images) < IMAGE_CACHE_LIMIT:
                self._images[key] = got
        return got

    def gamma(self, idx, m):
        """gamma_sigma(m), the unit with sigma(x^m) = gamma * x^(sigma m)."""
        return self.monomial_image(idx, m)[1]

    def apply(self, idx, element):
        """Apply the idx-th Galois element to an algebra element."""
        sig = self.sigma(idx)
        one = self.qmatrix.field.one()
        out = {}
        for m, c in element.terms.items():
            exp, coeff = self.monomial_image(idx, m)
            val = sig(c) if coeff is one else sig(c) * coeff
            s = out.get(exp)
            out[exp] = val if s is None else s + val
        return TwistedLaurentElement(self.qmatrix, out)

    def is_fixed(self, element):
        return all(self.apply(idx, element) == element for idx in range(len(self.galois)))

    # -- construction-time certificates -----------------------------------

    def compatibility_witness(self):
        """The first (sigma index, i, j) with Q(sigma e_i, sigma e_j) != sigma(q[i][j]), or None."""
        q = self.qmatrix
        n = self.n
        for idx in range(len(self.galois)):
            sig = self.sigma(idx)
            for i in range(n):
                vi = self.module.column(idx, i)
                for j in range(n):
                    vj = self.module.column(idx, j)
                    if q.bihom(vi, vj) != sig(q.entries[i][j]):
                        return idx, i, j
        return None

    def _check_compatibility(self):
        witness = self.compatibility_witness()
        if witness is not None:
            raise CompatibilityFailure(
                "Q(sigma e_i, sigma e_j) != sigma(q[i][j])", witness=witness
            )

    def composes(self, i, j, m):
        """Whether sigma(tau(x^m)) == (sigma tau)(x^m), sigma and tau the i-th and j-th elements.

        ``TorusModule`` certified M_sigma M_tau == M_(sigma tau), so both sides
        have that exponent; their coefficients, from kept images, are
        gamma_(sigma tau)(m) and gamma_sigma(tau m) * sigma(gamma_tau(m)).
        """
        lhs = self.gamma(self.galois.compose_idx(i, j), m)
        tm, gam = self.monomial_image(j, m)
        return lhs == self.gamma(i, tm) * self.sigma(i)(gam)

    def _check_composition(self):
        basis = identity_matrix(self.n)
        for i, j in product(range(len(self.galois)), repeat=2):
            for g, e_g in enumerate(basis):
                if not self.composes(i, j, e_g):
                    raise CompatibilityFailure("sigma(tau(x_i)) != (sigma tau)(x_i)", witness=(i, j, g))


# ---------------------------------------------------------------------------
# builders


def build_permutation_action(qmatrix, galois, perms):
    """Action where each Galois element permutes the generators.

    ``perms`` maps each group element index to a tuple p with
    sigma(e_i) = e_{p[i]}.  Compatibility reduces to
    q[p(i)][p(j)] = sigma(q[i][j]); ``SemilinearAction`` checks it for
    every (sigma, i, j).
    """
    n = qmatrix.n
    mats = []
    for idx in range(len(galois)):
        p = tuple(perms[idx])
        if sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {reprlib.repr(p)}")
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            M[p[i]][i] = 1
        mats.append(M)
    module = TorusModule(galois, mats)
    cocycle = GammaCocycle.trivial(qmatrix.field, galois, n)
    return SemilinearAction(galois, module, cocycle, qmatrix)


def build_trivial_action(qmatrix, galois):
    ident = tuple(range(qmatrix.n))
    return build_permutation_action(qmatrix, galois, {i: ident for i in range(len(galois))})


def build_order2_action(qmatrix, galois, blocks):
    """Action of a two-element Galois group from sign and swap blocks.

    ``blocks`` is a list of {"sign": +1|-1} entries, consuming the next
    free coordinate each, and {"swap": [i, j]} entries naming a pair.
    Every indecomposable integral module of the order-2 group is a sign
    or a swap, so this covers all of them.
    """
    if len(galois) != 2:
        raise ValueError("order-2 builder needs a Galois group of order 2")
    n = qmatrix.n
    M = [[0] * n for _ in range(n)]
    taken = [False] * n
    cursor = 0
    for blk in blocks:
        if "sign" in blk:
            while cursor < n and taken[cursor]:
                cursor += 1
            if cursor >= n:
                raise ValueError("more blocks than coordinates")
            s = blk["sign"]
            if s not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            M[cursor][cursor] = s
            taken[cursor] = True
        elif "swap" in blk:
            i, j = blk["swap"]
            if i == j or not (0 <= i < n and 0 <= j < n) or taken[i] or taken[j]:
                raise ValueError(f"invalid swap pair {reprlib.repr(blk['swap'])}")
            M[i][j] = M[j][i] = 1
            taken[i] = taken[j] = True
        else:
            raise ValueError(f"unknown block {reprlib.repr(blk)}")
    if not all(taken):
        raise ValueError("blocks do not cover all coordinates")
    module = TorusModule(galois, [identity_matrix(n), M])
    cocycle = GammaCocycle.trivial(qmatrix.field, galois, n)
    return SemilinearAction(galois, module, cocycle, qmatrix)


def build_explicit_action(qmatrix, galois, mats, cocycle_values):
    """Fully explicit action; all validation happens at construction."""
    module = TorusModule(galois, mats)
    cocycle = GammaCocycle(qmatrix.field, galois, cocycle_values)
    return SemilinearAction(galois, module, cocycle, qmatrix)


# ---------------------------------------------------------------------------
# validation report


def _rand_exp(rng, n, span=5):
    return tuple(rng.randint(-span, span) for _ in range(n))


def _rand_element(action, rng):
    q = action.qmatrix
    out = TwistedLaurentElement.zero(q)
    for _ in range(3):
        c = q.field.element([rng.randint(-3, 3) for _ in range(q.field.degree)])
        out = out + TwistedLaurentElement.monomial(q, _rand_exp(rng, q.n, 3), c)
    return out


def validate_action(action, degree_bound=3, samples=50, seed=0):
    """Re-verify every defining identity of the action and report.

    Basis checks are exhaustive; the sampled checks re-test the same
    identities at random exponents and elements.  Each check is one search
    that returns its first counterexample as the witness, or None; the
    checks run in the order of the table at the end, on one random stream.
    """
    rng = random.Random(seed)
    q = action.qmatrix
    n = action.n
    sigmas = range(len(action.galois))

    def pairing_on_basis():
        found = action.compatibility_witness()
        return None if found is None else dict(zip(("sigma", "i", "j"), found))

    def pairing_sampled():
        for _ in range(samples):
            m, k = _rand_exp(rng, n, degree_bound), _rand_exp(rng, n, degree_bound)
            for idx in sigmas:
                sm, sk = action.module.apply(idx, m), action.module.apply(idx, k)
                if q.bihom(sm, sk) != action.sigma(idx)(q.bihom(m, k)):
                    return {"sigma": idx, "m": list(m), "k": list(k)}
        return None

    def composition(exponents):
        """The first (sigma, tau, m), in scan order, at which sigma tau does not act as sigma after tau."""
        for m in exponents:
            for i, j in product(sigmas, repeat=2):
                if not action.composes(i, j, m):
                    return {"sigma": i, "tau": j, "m": list(m)}
        return None

    def ring_automorphism():
        for _ in range(samples):
            a, b = _rand_element(action, rng), _rand_element(action, rng)
            prod, total = a * b, a + b
            for idx in sigmas:
                sa, sb = action.apply(idx, a), action.apply(idx, b)
                if action.apply(idx, prod) != sa * sb:
                    return {"sigma": idx, "kind": "multiplicative"}
                if action.apply(idx, total) != sa + sb:
                    return {"sigma": idx, "kind": "additive"}
        return None

    # both generators are lazy: a sample is drawn from rng when its search reaches it
    sampled = (_rand_exp(rng, n, degree_bound) for _ in range(samples))
    box = product(range(-degree_bound, degree_bound + 1), repeat=n)
    rep = Report("validate-action")
    for name, search in (
        ("pairing-compatibility-on-basis", pairing_on_basis),
        ("pairing-compatibility-sampled", pairing_sampled),
        ("cocycle-composition-sampled", lambda: composition(sampled)),
        ("group-law-on-monomials", lambda: composition(box)),
        ("ring-automorphism-sampled", ring_automorphism),
    ):
        witness = search()
        rep.add(name, witness is None, witness)
    return rep
