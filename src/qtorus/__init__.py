"""Exact computer algebra for Galois forms of twisted Laurent polynomial rings.

Subpackages cover number field arithmetic, integer lattice normal forms,
twisted Laurent (quantum torus) algebras, semilinear Galois actions and
descent to rational forms, and root-of-unity specializations into finite
dimensional algebras, plus a CLI that runs machine-checked verification
reports.
"""

from .errors import (
    CompatibilityFailure,
    FieldAssumptionViolated,
    InconsistentCharacter,
    NotAntisymmetric,
    OrderUndeclared,
    PreconditionFailure,
    ProblemFormatError,
    QTorusError,
    SearchExhausted,
    VerificationFailed,
)
from .numfield import (
    FieldAutomorphism,
    FieldElement,
    GaloisGroup,
    NumberField,
    find_normal_basis,
    norm,
    norm_trace,
    trace,
    unit_order,
)

__all__ = [
    "CompatibilityFailure",
    "FieldAssumptionViolated",
    "FieldAutomorphism",
    "FieldElement",
    "GaloisGroup",
    "InconsistentCharacter",
    "NotAntisymmetric",
    "NumberField",
    "OrderUndeclared",
    "PreconditionFailure",
    "ProblemFormatError",
    "QTorusError",
    "SearchExhausted",
    "VerificationFailed",
    "find_normal_basis",
    "norm",
    "norm_trace",
    "trace",
    "unit_order",
]
