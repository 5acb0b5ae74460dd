"""Every ``raise VerificationFailed`` site of the library fires under an injected fault.

The certificates guard the algorithms' own output, so no valid input
reaches them.  Each entry of ``INJECTIONS`` breaks the step its
certificate checks (a lying helper, a corrupted transform, an integer
whose first ``%`` lies) and returns the call that must then raise.  The
contract test reads the sites from the library's AST as (function,
message) and requires each one to have an entry, so a new certificate
arrives with its injection.
"""

import ast
import os
import re

import pytest

import qtorus
from qtorus import _linalg, numfield, torus, zlattice
from qtorus.descent import center_generators, central_lattice, invariant_basis, orbit, split_cocycle
from qtorus.errors import VerificationFailed
from qtorus.galois_action import TorusModule, build_order2_action
from qtorus.numfield import FieldElement, NumberField
from qtorus.specialization import CentralCharacter, FiniteDimAlgebra
from qtorus.torus import QMatrix
from qtorus.zlattice import Lattice

PACKAGE = os.path.dirname(os.path.abspath(qtorus.__file__))


def _swap3():
    """The swap action on x1 x2 = zeta3 x2 x1."""
    field = NumberField.cyclotomic(3)
    Q = QMatrix.from_root_of_unity(field, 3, field.gen(), [[0, 1], [-1, 0]])
    return build_order2_action(Q, field.galois, [{"swap": [0, 1]}])


class _LyingInt(int):
    """An int whose first ``%`` answers 0: an elimination that reads it skips a step."""

    lies = 1

    def __mod__(self, other):
        if self.lies:
            self.lies = 0
            return 0
        return int(self) % other


def _perturbed(f):
    """``f`` with 1 added to the first entry of the matrix it returns."""

    def fake(*args):
        out = f(*args)
        out[0][0] += 1
        return out

    return fake


def _corrupt_first_rref(monkeypatch, corrupt):
    """The first ``_linalg.rref``, the trace reduction of one orbit, returns ``corrupt(reduced, pivots)``."""
    rref, calls = _linalg.rref, []

    def fake(rows):
        reduced, pivots = rref(rows)
        calls.append(None)
        return corrupt(reduced, pivots) if len(calls) == 1 else (reduced, pivots)

    monkeypatch.setattr(_linalg, "rref", fake)
    return lambda: invariant_basis(_swap3(), (1, 0))


def _orbit_count(monkeypatch):
    # every sigma, the identity too, moves m to one vector: orbit 1, stabilizer 0
    action = _swap3()
    monkeypatch.setattr(TorusModule, "apply", lambda self, idx, m: (7, 7))
    return lambda: orbit(action, (1, 0))


def _not_fixed(monkeypatch):
    return _corrupt_first_rref(monkeypatch, lambda red, piv: ([red[0][:-1] + [red[0][-1] + 1]] + red[1:], piv))


def _count(monkeypatch):
    return _corrupt_first_rref(monkeypatch, lambda red, piv: (red, piv[:1]))


def _l_rank(monkeypatch):
    return _corrupt_first_rref(monkeypatch, lambda red, piv: ([red[0], red[0]], piv))


def _coboundary(monkeypatch):
    # the trivial cocycle is split by gamma = b^-1 for any b != 0; an inverse
    # that returns its input gives gamma = b = 2 from the candidate 1, and at the
    # identity 1 != 2 * 2
    field = NumberField.quadratic(5)
    monkeypatch.setattr(FieldElement, "inverse", lambda self: self)
    return lambda: split_cocycle(field.galois, {0: 1, 1: 1})


def _pairing(monkeypatch):
    # a kernel of all of Z^2 holds x1, which does not commute with x2
    Q = _swap3().qmatrix
    monkeypatch.setattr(qtorus.descent, "kernel_mod", lambda A, l: Lattice.scaled_standard(2, 1))
    return lambda: central_lattice(Q)


def _non_central(monkeypatch):
    # Z^2 is stable under the swap, but x1 + x2 is not central: no patch needed
    action = _swap3()
    return lambda: center_generators(action, Lattice.scaled_standard(2, 1))


def _cyclotomic_divisibility(monkeypatch):
    divmod_ = numfield._poly_divmod
    # start from Phi_1 alone: a Phi_6 cached by an earlier test would skip the divisions
    monkeypatch.setattr(numfield, "_cyclotomic_cache", {1: numfield._cyclotomic_cache[1]})
    monkeypatch.setattr(numfield, "_poly_divmod", lambda a, b: (divmod_(a, b)[0], [numfield._ONE]))
    return lambda: numfield._cyclotomic_poly(6)


def _character_product(monkeypatch):
    # the ordered product of basis monomials lands one step off the lattice vector
    Q = _swap3().qmatrix
    char = CentralCharacter.for_l_center(Q, [2, 3])
    power_product = QMatrix.power_product

    def fake(self, factors):
        exp, unit = power_product(self, factors)
        return (exp[0] + 1,) + exp[1:], unit

    monkeypatch.setattr(QMatrix, "power_product", fake)
    return lambda: char.value((3, 6))


def _non_associative(monkeypatch):
    # e1 e1 = e2 and e2 e1 = e1 but e1 e2 = 0: (e1 e1) e1 != e1 (e1 e1)
    field = NumberField.rationals()
    one = field.one()
    table = {(i, j): {} for i in range(3) for j in range(3)}
    for i in range(3):
        table[(0, i)] = table[(i, 0)] = {i: one}
    table[(1, 1)] = {2: one}
    table[(2, 1)] = {1: one}
    return lambda: FiniteDimAlgebra(field, ["1", "e1", "e2"], table, {0: one})


def _no_generator(monkeypatch):
    # an order search that never finds l leaves the group of +-1 without a generator
    field = NumberField.quadratic(5)
    one, minus = field.one(), -field.one()
    monkeypatch.setattr(torus, "unit_order", lambda a, bound: None)
    return lambda: torus.synthesize_root_of_unity([[one, minus], [minus, one]], [[1, 2], [2, 1]])


def _smith_product(monkeypatch):
    monkeypatch.setattr(zlattice, "mat_mul", _perturbed(zlattice.mat_mul))
    return lambda: zlattice.smith_normal_form([[2, 4], [6, 8]])


def _smith_unimodular(monkeypatch):
    monkeypatch.setattr(zlattice, "det_bareiss", lambda A: 2)
    return lambda: zlattice.smith_normal_form([[2, 4], [6, 8]])


def _smith_chain(monkeypatch):
    # diag(2, 3) passes the product and unimodular checks when the step that
    # would make 2 divide 3 is skipped
    return lambda: zlattice.smith_normal_form([[2, 0], [0, _LyingInt(3)]])


def _kernel_misses(monkeypatch):
    # a transform doubled: its columns span 2 Z^2, which misses 3 e_1
    smith = zlattice.smith_normal_form

    def fake(A):
        D, U, V = smith(A)
        return D, U, [[2 * x for x in row] for row in V]

    monkeypatch.setattr(zlattice, "smith_normal_form", fake)
    return lambda: zlattice.kernel_mod([[0, 1], [-1, 0]], 3)


def _alternating_product(monkeypatch):
    monkeypatch.setattr(zlattice, "mat_mul", _perturbed(zlattice.mat_mul))
    return lambda: zlattice.alternating_normal_form([[0, 2], [-2, 0]])


def _alternating_chain(monkeypatch):
    S = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, _LyingInt(3)], [0, 0, -3, 0]]
    return lambda: zlattice.alternating_normal_form(S)


def _alternating_unimodular(monkeypatch):
    monkeypatch.setattr(zlattice, "det_bareiss", lambda A: 2)
    return lambda: zlattice.alternating_normal_form([[0, 2], [-2, 0]])


# (function, message with "{}" for each formatted field) -> (injection, witness):
# the witness is its dict's keys, None, or the triple the certificate names
INJECTIONS = {
    ("orbit", "orbit-stabilizer count fails"): (_orbit_count, {"m", "orbit", "stabilizer"}),
    ("_fixed_point_basis", "descent output is not fixed"): (_not_fixed, {"first_label", "fixed", "lines", "sigma"}),
    ("_fixed_point_basis", "descent dimension mismatch"): (_count, {"first_label", "fixed", "lines"}),
    ("_fixed_point_basis", "fixed points do not span the lines over L"): (_l_rank, {"first_label", "fixed", "lines"}),
    ("split_cocycle", "Hilbert 90 solution fails the coboundary identity"): (_coboundary, {"sigma"}),
    ("central_lattice", "kernel vector fails the pairing check"): (_pairing, {"row"}),
    ("center_generators", "non-central invariant generator"): (_non_central, {"generator", "power", "commutator"}),
    ("_cyclotomic_poly", "Phi_{} does not divide t^{} - 1"): (_cyclotomic_divisibility, {"l", "d"}),
    ("CentralCharacter.value", "basis monomial product left the lattice vector"): (_character_product, {"lam", "exp"}),
    ("FiniteDimAlgebra._certify", "non-associative table"): (_non_associative, (1, 1, 1)),
    ("synthesize_root_of_unity", "finite subgroup of a field without a generator"): (_no_generator, {"l"}),
    ("smith_normal_form", "Smith form: U * A * V != D"): (_smith_product, {"D"}),
    ("smith_normal_form", "Smith form: a transform is not unimodular"): (_smith_unimodular, None),
    ("smith_normal_form", "Smith form: divisibility chain broken"): (_smith_chain, {"index", "D"}),
    ("kernel_mod", "kernel lattice misses l * e_i"): (_kernel_misses, {"i"}),
    ("alternating_normal_form", "alternating form: U S U^T is not the normal form"): (
        _alternating_product,
        {"entry", "got", "want"},
    ),
    ("alternating_normal_form", "alternating form: divisibility chain broken"): (_alternating_chain, {"ks"}),
    ("alternating_normal_form", "alternating form: transform is not unimodular"): (_alternating_unimodular, None),
}


@pytest.mark.parametrize("site", list(INJECTIONS), ids=[f"{f}: {m}" for f, m in INJECTIONS])
def test_certificate_fires_under_its_fault(site, monkeypatch):
    inject, witness = INJECTIONS[site]
    call = inject(monkeypatch)
    with pytest.raises(VerificationFailed) as err:
        call()
    pattern = ".+".join(re.escape(part) for part in site[1].split("{}"))
    assert re.fullmatch(pattern, str(err.value)), str(err.value)
    got = err.value.witness
    assert (set(got) if isinstance(got, dict) else got) == witness


def verification_sites():
    """(enclosing function, message template) of every ``raise VerificationFailed``
    in the library; a method is named Class.method, a formatted field is "{}"."""
    found = []

    def template(node):
        if isinstance(node, ast.Constant):
            return node.value
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)

    def visit(node, owner, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner if fn is None else None, child.name)
            elif (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) == "VerificationFailed"
            ):
                found.append((f"{owner}.{fn}" if owner else fn, template(child.exc.args[0])))
            else:
                visit(child, owner, fn)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), None, None)
    return found


def test_every_verification_site_has_an_injection():
    sites = verification_sites()
    assert len(sites) == len(set(sites)), sites
    assert set(sites) == set(INJECTIONS)
