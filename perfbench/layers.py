"""The qtorus functions the benchmark times, by metric name.

``op_timer_specs`` are installed on every run: they time the L-form
and k-form entry points, a few dozen calls per pass.  ``layer_specs``
are installed only on a traced run.  A
target that a later version of the library no longer has is skipped
and its counts read 0.
"""

from __future__ import annotations

from tracing import resolve


def _qpow_key(tracer, args, kwargs):
    q, i, j, e = args
    tracer.keys["torus.qpow"].add((tracer.object_seq(q), i, j, e))


def _char_value_key(tracer, args, kwargs):
    char, lam = args
    tracer.keys["specialization.char_value"].add(
        (tracer.object_seq(char), tuple(int(x) for x in lam))
    )


def _rref_shape(tracer, args, kwargs):
    rows = args[0]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    counts = tracer.counts
    counts["linalg.rref.cells"] += nrows * ncols
    counts["linalg.rref.max_rows"] = max(counts["linalg.rref.max_rows"], nrows)
    counts["linalg.rref.max_cols"] = max(counts["linalg.rref.max_cols"], ncols)


def _assoc_triples(tracer, args, kwargs):
    algebra = args[0]
    sample = args[1] if len(args) > 1 else kwargs.get("sample")
    tracer.counts["specialization.assoc.triples"] += algebra.dim ** 3 if sample is None else sample


L_FORM = "specialization.specialize"
K_FORM = "specialization.rational_form"

# (metric name, module, qualified name, counter); several targets may share a name
_LAYER_TARGETS = (
    ("numfield.mul", "qtorus.numfield", "FieldElement.__mul__", None),
    ("numfield.inverse", "qtorus.numfield", "FieldElement.inverse", None),
    ("numfield.pow", "qtorus.numfield", "FieldElement.__pow__", None),
    ("numfield.aut_call", "qtorus.numfield", "FieldAutomorphism.__call__", None),
    ("torus.cocycle", "qtorus.torus", "QMatrix.cocycle", None),
    ("torus.bihom", "qtorus.torus", "QMatrix.bihom", None),
    ("torus.element_mul", "qtorus.torus", "TwistedLaurentElement.__mul__", None),
    ("torus.qpow", "qtorus.torus", "QMatrix.qpow", _qpow_key),
    ("galois_action.monomial_image", "qtorus.galois_action", "SemilinearAction.monomial_image", None),
    ("galois_action.construct", "qtorus.galois_action", "build_permutation_action", None),
    ("galois_action.construct", "qtorus.galois_action", "build_order2_action", None),
    ("galois_action.construct", "qtorus.galois_action", "build_explicit_action", None),
    ("zlattice.smith", "qtorus.zlattice", "smith_normal_form", None),
    ("zlattice.alternating", "qtorus.zlattice", "alternating_normal_form", None),
    ("zlattice.hnf", "qtorus.zlattice", "hermite_normal_form", None),
    ("linalg.rref", "qtorus._linalg", "rref", _rref_shape),
    ("descent.fixed_point_basis", "qtorus.descent", "_fixed_point_basis", None),
    ("descent.invariant_basis", "qtorus.descent", "invariant_basis", None),
    ("specialization.quotient", "qtorus.specialization", "_quotient_algebra", None),
    ("specialization.assoc", "qtorus.specialization", "FiniteDimAlgebra.check_associativity", _assoc_triples),
    ("specialization.fdalg_mul", "qtorus.specialization", "FiniteDimAlgebra.mul", None),
    ("specialization.center_dim", "qtorus.specialization", "FiniteDimAlgebra.center_dim", None),
    ("specialization.radical_dim", "qtorus.specialization", "FiniteDimAlgebra.radical_dim", None),
    ("specialization.char_value", "qtorus.specialization", "CentralCharacter.value", _char_value_key),
    ("problems.load_problem", "qtorus.problems", "load_problem", None),
    ("report.serialize", "qtorus.report", "Report.to_dict", None),
    ("report.serialize", "qtorus.report", "Report.render_text", None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in _LAYER_TARGETS))

# layers that run on every workload, so their self time is never 0
TIMED_LAYERS = (
    "numfield.mul",
    "numfield.inverse",
    "numfield.pow",
    "numfield.aut_call",
    "torus.cocycle",
    "torus.bihom",
    "torus.element_mul",
    "galois_action.monomial_image",
    "galois_action.construct",
    "zlattice.hnf",
    "linalg.rref",
    "descent.fixed_point_basis",
    "specialization.quotient",
    "specialization.assoc",
    "specialization.fdalg_mul",
    "specialization.center_dim",
    "specialization.radical_dim",
    "specialization.char_value",
    L_FORM,
    K_FORM,
)

COUNTERS = (
    "linalg.rref.cells",
    "linalg.rref.max_rows",
    "linalg.rref.max_cols",
    "specialization.assoc.triples",
)
DISTINCT = ("torus.qpow", "specialization.char_value")


def op_timer_specs():
    """The L-form and k-form entry points."""
    return [
        (L_FORM, resolve("qtorus.specialization", "specialize"), None),
        (K_FORM, resolve("qtorus.specialization", "rational_form"), None),
    ]


def layer_specs():
    """Every layer function, plus each acceptance criterion as ``selftest.cNN``."""
    specs = [(name, resolve(mod, qual), counter) for name, mod, qual, counter in _LAYER_TARGETS]
    for entry in resolve("qtorus.selftest", "CRITERIA") or ():
        specs.append(("selftest." + entry[0].split("-", 1)[0], entry[1], None))
    return specs
