"""Centers and root-of-unity specializations.

At a cube root of unity the center of the standard twisted torus is the
cube sublattice; cutting the algebra at a central character produces a
nine-dimensional algebra with trivial center and zero radical, and the
exponent pairing decomposes it into cyclic blocks.
"""

from qtorus import NumberField
from qtorus.descent import central_lattice, center_generators
from qtorus.galois_action import build_order2_action
from qtorus.specialization import (
    CentralCharacter,
    cyclic_decomposition,
    rational_form,
    specialize,
)
from qtorus.torus import QMatrix

Z = NumberField.cyclotomic(3)
zeta = Z.gen()
Q = QMatrix.from_root_of_unity(Z, 3, zeta, [[0, 1], [-1, 0]])
action = build_order2_action(Q, Z.galois, [{"swap": [0, 1]}])

lat = central_lattice(Q)
print("central lattice basis:", lat.basis, " index:", lat.index())

for ib in center_generators(action):
    print("center generators over the orbit", ib.orbit.orbit)
    for elt in ib.elements:
        print("  ", elt)

# Specialize at chi(x1^3) = 2, chi(x2^3) = 3.
char = CentralCharacter.for_l_center(Q, [2, 3])
alg = specialize(action, char, which="l_center")
print("\nquotient dimension:", alg.dim)
print("center dimension:  ", alg.center_dim())
print("radical dimension: ", alg.radical_dim())

rep, data = cyclic_decomposition(action, char)
print(rep.render_text())
blk = data["blocks"][0]
print("block: k =", blk["k"], " degree =", blk["degree"], " a =", blk["a"], " b =", blk["b"])

# The rational form needs Galois-symmetric values.
sym = CentralCharacter.for_l_center(Q, [2, 2])
alg_L = specialize(action, sym)
alg_k, _ = rational_form(action, sym, alg_L)
print("\nrational form dimension:", alg_k.dim)
print("rational center / radical (from the L-form, by transport):", alg_L.center_dim(), "/", alg_L.radical_dim())
