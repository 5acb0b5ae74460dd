"""Puts ``perfbench/`` on the import path so tests can read its op list and frozen reports.

Also holds the one explicit Galois action of order above 2 that the tests share.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))


@pytest.fixture
def rotation5():
    """Order-4 rotation action over Q(zeta5), with S[0][2] = -2, S[1][2] = 1, S[0][1] = 0.

    The generator sigma: zeta -> zeta^2 sends x1 -> x2, x2 -> x1^-1 and
    fixes x3, with trivial cocycle; sigma^k acts by the k-th power.
    """
    from qtorus.galois_action import build_explicit_action
    from qtorus.numfield import NumberField
    from qtorus.torus import QMatrix
    from qtorus.zlattice import mat_mul

    field = NumberField.cyclotomic(5)
    group = field.galois
    zeta = field.gen()
    gen = next(i for i, aut in enumerate(group.elements) if aut.t_image == zeta**2)
    rotation = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    mats = {0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    idx, M = gen, rotation
    while idx != 0:
        mats[idx] = M
        idx, M = group.compose_idx(gen, idx), mat_mul(rotation, M)
    Q = QMatrix.from_root_of_unity(field, 5, zeta, [[0, 0, -2], [0, 0, 1], [2, -1, 0]])
    one = field.one()
    return build_explicit_action(Q, group, [mats[i] for i in range(4)], [[one] * 3] * 4)
