"""Galois descent: rational forms of twisted Laurent algebras and centers.

The fixed subalgebra of a semilinear action is computed orbitwise.  The
action permutes the L-lines of an orbit's monomials (with unit
corrections), and by Galois descent their L-span V is L (x) V^G, so the
trace v -> sum_sigma sigma(v) maps the line of the orbit's first monomial
onto the fixed points V^G, a Q-space of dimension the orbit size.  The
reduced row echelon form of those traces, under the degree-lexicographic
term order, gives its canonical basis; each orbit's traces lie on its own
lines, so each orbit is reduced on its own columns.  Exact certificates
prove the basis.

A cocycle of units over a subgroup of the Galois group splits through a
nonzero twisted sum b = sum_h gamma_h h(c): the splitting unit is b^{-1}.
Linear independence of automorphisms guarantees some basis candidate c
gives b != 0, so the deterministic search terminates in characteristic 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import _linalg
from .errors import SearchExhausted, VerificationFailed
from .numfield import _ZERO
from .torus import TwistedLaurentElement, term_key
from .zlattice import Lattice, kernel_mod


@dataclass(frozen=True)
class OrbitData:
    representative: tuple
    orbit: tuple
    stabilizer: tuple  # group element indices fixing the representative

    def __len__(self):
        return len(self.orbit)


@dataclass(frozen=True)
class InvariantBasis:
    orbit: OrbitData
    elements: tuple


def orbit(action, m):
    """The Galois orbit of an exponent vector, with its stabilizer."""
    m = tuple(int(x) for x in m)
    seen = []
    stab = []
    for idx in range(len(action.galois)):
        im = action.module.apply(idx, m)
        if im == m:
            stab.append(idx)
        if im not in seen:
            seen.append(im)
    data = OrbitData(m, tuple(seen), tuple(stab))
    if len(data.orbit) * len(data.stabilizer) != len(action.galois):
        raise VerificationFailed(
            "orbit-stabilizer count fails",
            witness={"m": m, "orbit": len(data.orbit), "stabilizer": len(data.stabilizer)},
        )
    return data


def _fixed_point_basis(action, labels, image_of):
    """Q-basis of the fixed points of a units-permutation semilinear action.

    ``labels`` lists the permuted lines in canonical order; ``image_of``
    maps (sigma_idx, label) to (unit, label'): sigma sends c x_label to
    sigma(c) unit x_label'.  Returns a list of {label: FieldElement}
    coefficient dictionaries, RREF-canonical (flattened over the power
    basis, they are the nonzero rows of an RREF).

    The rows reduced are the traces sum_sigma sigma(t^j x_r), r the first
    label of each orbit.  They lie on the orbit's lines, so each orbit's d
    traces are reduced on its own d |O| columns, and the rows of all orbits,
    merged by pivot, are the RREF of all traces (RREF is unique).  Whatever
    spanned them, three certificates make the output a Q-basis of the fixed
    points: each vector is fixed by every sigma, there is one per line, and
    each orbit's lines have full L-rank on that orbit's vectors.  The orbits
    cover the lines, so with the count they are disjoint and the L-rank is
    full.  Then the vectors span the lines over L, so a fixed
    w = sum a_b out_b has unique coordinates, sigma(a_b) = a_b for every
    sigma and a_b is in Q.
    """
    field = action.qmatrix.field
    d = field.degree
    pos = {lab: p for p, lab in enumerate(labels)}
    others = range(1, len(action.galois))
    moves = {idx: [image_of(idx, lab) for lab in labels] for idx in others}
    conjugates = {idx: [action.sigma(idx)(t) for t in field.basis()] for idx in others}

    blocks, rows = [], []  # (orbit labels, its vectors); (global pivot, vector)
    seen = set()
    for p, r in enumerate(labels):
        if r in seen:
            continue
        members = sorted({p}.union(pos[moves[idx][p][1]] for idx in others))
        at = {q: k * d for k, q in enumerate(members)}
        traces = []
        for j in range(d):
            row = [_ZERO] * (len(members) * d)
            row[at[p] + j] += 1
            for idx in others:
                unit, lab2 = moves[idx][p]
                for i, x in enumerate((conjugates[idx][j] * unit).coeffs, at[pos[lab2]]):
                    row[i] += x
            traces.append(row)
        reduced, pivots = _linalg.rref(traces)
        vecs = []
        for vec, c in zip(reduced, pivots):
            coeffs = {}
            for k, q in enumerate(members):
                block = vec[k * d : (k + 1) * d]
                if any(block):
                    coeffs[labels[q]] = field.element(block)
            vecs.append(coeffs)
            rows.append((members[c // d] * d + c % d, coeffs))
        blocks.append(([labels[q] for q in members], vecs))
        seen.update(blocks[-1][0])
    rows.sort(key=lambda row: row[0])
    out = [vec for _, vec in rows]
    witness = {"first_label": labels[0], "fixed": len(out), "lines": len(labels)}
    for idx in others:
        sig = action.sigma(idx)
        for vec in out:
            image = {}
            for lab, c in vec.items():
                unit, lab2 = moves[idx][pos[lab]]
                image[lab2] = sig(c) * unit
            if image != vec:
                witness["sigma"] = idx
                raise VerificationFailed("descent output is not fixed", witness=witness)
    if len(out) != len(labels):
        raise VerificationFailed("descent dimension mismatch", witness=witness)
    zero = field.zero()
    for lines, vecs in blocks:
        if _linalg.rank([[vec.get(lab, zero) for vec in vecs] for lab in lines]) != len(lines):
            raise VerificationFailed("fixed points do not span the lines over L", witness=witness)
    return out


def invariant_basis(action, m):
    """Q-basis of the Galois-fixed points of the L-span of the orbit of x^m,

    certified by ``_fixed_point_basis`` on the action's monomial images.
    """
    data = orbit(action, m)
    labels = sorted(data.orbit, key=term_key)

    def image_of(idx, lab):
        exp, coeff = action.monomial_image(idx, lab)
        return coeff, exp

    vecs = _fixed_point_basis(action, labels, image_of)
    return InvariantBasis(data, tuple(TwistedLaurentElement(action.qmatrix, v) for v in vecs))


def span_contains(basis_elements, element):
    """Whether ``element`` is an L-linear combination of the basis elements."""
    if not basis_elements:
        return element.is_zero()
    labels = set(element.terms)
    for b in basis_elements:
        labels.update(b.terms)
    labels = sorted(labels, key=term_key)
    field = basis_elements[0].q.field
    rows = [[b.terms.get(lab, field.zero()) for b in basis_elements] for lab in labels]
    rhs = [element.terms.get(lab, field.zero()) for lab in labels]
    return _linalg.solve(rows, rhs) is not None


def completeness_sweep(action, bound=3):
    """Check that every monomial of max-norm at most ``bound`` descends.

    Returns (orbit bases by representative, list of failing exponents).
    """
    q = action.qmatrix
    bases = {}
    failures = []
    for m in product(range(-bound, bound + 1), repeat=q.n):
        data = orbit(action, m)
        rep = min(data.orbit, key=term_key)
        if rep not in bases:
            bases[rep] = invariant_basis(action, rep)
        if not span_contains(bases[rep].elements, TwistedLaurentElement.monomial(q, m)):
            failures.append(m)
    return bases, failures


# ---------------------------------------------------------------------------
# Hilbert 90


def split_cocycle(galois, gammas, subgroup=None):
    """Split a unit cocycle over a subgroup H: find gamma with

        gamma_h = h(gamma) * gamma^{-1}   for every h in H.

    ``gammas`` maps group element indices to units; the cocycle condition
    is a precondition and is verified exhaustively first.
    """
    H = tuple(subgroup) if subgroup is not None else tuple(range(len(galois)))
    if galois.identity_index not in H:
        raise ValueError("subgroup must contain the identity")
    for i in H:
        for j in H:
            if galois.compose_idx(i, j) not in H:
                raise ValueError("indices are not closed under composition")
    field = galois.field
    for i in H:
        gi = field.element(gammas[i])
        if not gi:
            raise ValueError("cocycle values must be units")
        for j in H:
            k = galois.compose_idx(i, j)
            lhs = field.element(gammas[k])
            rhs = gi * galois.elements[i](field.element(gammas[j]))
            if lhs != rhs:
                raise ValueError(f"cocycle condition fails at ({i}, {j})")

    candidates = list(field.basis())
    acc = field.zero()
    for b in field.basis():
        acc = acc + b
        candidates.append(acc)
    for c in candidates:
        b = field.zero()
        for h in H:
            b = b + field.element(gammas[h]) * galois.elements[h](c)
        if b:
            gamma = b.inverse()
            for h in H:
                if field.element(gammas[h]) != galois.elements[h](gamma) * gamma.inverse():
                    raise VerificationFailed(
                        "Hilbert 90 solution fails the coboundary identity", witness={"sigma": h}
                    )
            return gamma
    raise SearchExhausted("no candidate produced a nonzero twisted sum")


# ---------------------------------------------------------------------------
# center


def central_lattice(Q):
    """The sublattice of exponents whose monomials are central.

    Computed as the mod-l kernel of the exponent matrix and re-verified
    against the actual matrix entries.
    """
    l, _, S = Q.root_of_unity_data()
    lat = kernel_mod([list(r) for r in S], l)
    for row in lat.basis:
        if not Q.is_central_exponent(row):
            raise VerificationFailed("kernel vector fails the pairing check", witness={"row": row})
    return lat


def l_center_lattice(Q):
    l, _, _ = Q.root_of_unity_data()
    return Lattice.scaled_standard(Q.n, l)


def is_central(a):
    """Exact centrality check against all generators and their inverses."""
    Q = a.q
    for i in range(Q.n):
        for power in (1, -1):
            g = TwistedLaurentElement.generator(Q, i, power)
            comm = a.commutator(g)
            if comm:
                return False, {"generator": i, "power": power, "commutator": comm}
    return True, None


def center_generators(action, lattice):
    """Invariant bases spanning the Galois orbits of a central generating set.

    The generating set is the canonical basis of ``lattice``, which the
    caller built: ``central_lattice`` for the center, ``l_center_lattice``
    for the l-center.  The lattice is checked to be stable under the
    module action, and every output element is checked central.
    """
    for idx in range(len(action.galois)):
        for row in lattice.basis:
            if action.module.apply(idx, row) not in lattice:
                raise ValueError("central lattice is not stable under the action")
    out = []
    for row in lattice.basis:
        if any(row in ib.orbit.orbit for ib in out):
            continue
        ib = invariant_basis(action, row)
        for elt in ib.elements:
            ok, witness = is_central(elt)
            if not ok:
                raise VerificationFailed("non-central invariant generator", witness=witness)
        out.append(ib)
    return out


def commutant_monomial_basis(qmatrix, bound):
    """Basis of the commutant of the generators on a bounded exponent box.

    Solves [z, x_j] = 0 for all j exactly over L, where z ranges over the
    span of the monomials with |m|_inf <= bound.  Returns a list of
    elements (each a basis vector of the solution space).  Complements
    the lattice computation of the center with an honest linear solve.
    """
    field = qmatrix.field
    n = qmatrix.n
    labels = sorted(product(range(-bound, bound + 1), repeat=n), key=term_key)
    pos = {m: i for i, m in enumerate(labels)}
    zero, one = field.zero(), field.one()
    rows = []
    for j in range(n):
        ej = tuple(1 if t == j else 0 for t in range(n))
        targets = {}
        for m in labels:
            c = qmatrix.cocycle(m, ej) - qmatrix.cocycle(ej, m)
            if c:
                t = tuple(a + b for a, b in zip(m, ej))
                targets.setdefault(t, []).append((m, c))
        for t in sorted(targets, key=term_key):
            row = [zero] * len(labels)
            for m, c in targets[t]:
                row[pos[m]] = c
            rows.append(row)
    vecs = _linalg.nullspace(rows, len(labels), zero, one)
    out = []
    for vec in vecs:
        terms = {labels[i]: c for i, c in enumerate(vec) if c}
        out.append(TwistedLaurentElement(qmatrix, terms))
    return out

