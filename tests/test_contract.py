"""Library-wide contracts: certificates raise typed errors, never bare asserts."""

import ast
import os
import re

import pytest

import qtorus
from qtorus.errors import QTorusError, VerificationFailed
from qtorus.numfield import NumberField
from qtorus.specialization import FiniteDimAlgebra

PACKAGE = os.path.dirname(os.path.abspath(qtorus.__file__))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_modules():
    """(file name, AST) of every module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a certificate must raise instead
    found = []
    for name, tree in library_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_imports_in_library():
    # an import nothing reads is left over from deleted code; names in __all__ are re-exports
    found = []
    for name, tree in library_modules():
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        found += [f"{name}:{line} {imp}" for imp, line in imported.items() if imp not in used]
    assert not found, found


def python_files(*dirs):
    """(path, AST) of every Python file under the given repository directories."""
    for top in dirs:
        for root, _, files in os.walk(os.path.join(REPO, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), filename=path)


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def test_every_library_definition_is_referenced():
    # a function, method or class that nothing names is dead code; a reference is
    # a name, an attribute, an import alias or a dotted string (perfbench names
    # the functions it wraps as strings such as "QMatrix.cocycle")
    referenced = set()
    for _, tree in python_files("src", "tests", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
                referenced.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED.fullmatch(node.value):
                    referenced.update(node.value.split("."))
    found = []
    for name, tree in library_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in referenced:
                    found.append(f"{name}:{node.lineno} {node.name}")
    assert not found, found


def test_no_library_call_samples_associativity():
    # every associativity certificate the library runs covers every triple:
    # check_associativity takes no arguments, and no call may pass a sample size
    found = []
    for name, tree in library_modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check_associativity"
                and (node.args or any(kw.arg in ("sample", None) for kw in node.keywords))
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def attribute_uses(tree, attr):
    """(enclosing def or class path, 'Load' or 'Store') of every ``x.<attr>`` in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append((".".join(scope), type(child.ctx).__name__))
            visit(child, scope)

    visit(tree, ())
    return found


def test_monomial_table_dict_is_read_in_one_place():
    # a monomial algebra is its arrays: a dict table given to the constructor is
    # read once, by _classify, as an argument, and not kept; mul and every other
    # reader use the arrays.  Only the rational form's record stores a table
    uses = set()
    for name, tree in library_modules():
        uses.update((name, where, ctx) for where, ctx in attribute_uses(tree, "table"))
    assert uses == {("specialization.py", "RationalForm.__init__", "Store")}
    # one kind of FiniteDimAlgebra: no flag tells a monomial table from another;
    # only TwistedLaurentElement.is_monomial() is called, by the two catalogs
    # (the witness catalog calls it in its one sigma(z) * z unit test)
    tree = dict(library_modules())["specialization.py"]
    assert {where for where, _ in attribute_uses(tree, "is_monomial")} == {
        "catalog_case",
        "crossed_product_witness.unit_of",
    }


def test_no_certificate_multiplies_through_mul():
    # associativity and the unit are certified on a monomial table's arrays;
    # FiniteDimAlgebra.mul serves only powers and the cyclic block relations
    uses = set()
    for name, tree in library_modules():
        uses.update((name, where, ctx) for where, ctx in attribute_uses(tree, "mul"))
    assert uses == {
        ("specialization.py", "FiniteDimAlgebra.power", "Load"),
        ("specialization.py", "cyclic_decomposition", "Load"),
    }


def test_field_product_kernel_is_reached_only_through_mul():
    # each field builds its product kernel once, at construction, and
    # FieldElement.__mul__ is its one caller, so every product passes the
    # entry point that callers and the benchmark's counts see
    uses = set()
    for name, tree in library_modules():
        uses.update((name, where, ctx) for where, ctx in attribute_uses(tree, "_mul"))
    assert uses == {
        ("numfield.py", "NumberField.__init__", "Store"),
        ("numfield.py", "FieldElement.__mul__", "Load"),
    }


def test_declared_orders_are_read_only_by_qmatrix():
    # construction verifies declared orders and resolves them into root-of-unity
    # data, which every module reads instead: no QMatrix keeps its declared orders
    uses = set()
    for name, tree in library_modules():
        uses.update((name, where, ctx) for where, ctx in attribute_uses(tree, "declared_orders"))
    assert not uses, uses


def test_one_unit_presentation_has_one_writer():
    # QMatrix.__init__ presents plain entries, each its own unit; _present is
    # the one writer of a presentation by one unit, for every spelling that has one
    for attr in ("units", "eps_pows", "root_of_unity"):
        stores = set()
        for name, tree in library_modules():
            stores.update((name, where) for where, ctx in attribute_uses(tree, attr) if ctx == "Store")
        assert stores == {("torus.py", "QMatrix.__init__"), ("torus.py", "QMatrix._present")}, attr


def test_root_of_unity_data_is_read_through_its_accessor():
    # root_of_unity_data() is the one reader of the slot, and the one place
    # that raises OrderUndeclared when the entry orders are unknown
    loads = set()
    for name, tree in library_modules():
        loads.update((name, where) for where, ctx in attribute_uses(tree, "root_of_unity") if ctx == "Load")
    assert loads == {("torus.py", "QMatrix.root_of_unity_data")}


def test_parse_errors_echo_input_through_reprlib():
    # a value a parse error echoes is shortened by reprlib.repr, never spelled
    # out in full by a !r conversion, so a long input cannot flood the message
    tree = dict(library_modules())["problems.py"]
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")]
    assert not found, found


def scope_node(tree, path):
    """The def or class at a dotted path such as ``SemilinearAction.composes``."""
    node = tree
    for name in path.split("."):
        node = next(
            child
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def test_composition_law_is_one_predicate_on_images():
    # SemilinearAction.composes is the one statement of the composition law on
    # coefficients: construction and both of validate's composition checks read
    # it, and neither builds an element or applies the action to one
    tree = dict(library_modules())["galois_action.py"]
    readers = {"SemilinearAction._check_composition", "validate_action.composition"}
    uses = set()
    for name, module in library_modules():
        uses.update((name, where, ctx) for where, ctx in attribute_uses(module, "composes"))
    assert uses == {("galois_action.py", where, "Load") for where in readers}
    for where in readers:
        node = scope_node(tree, where)
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert "TwistedLaurentElement" not in names, where
        assert not attribute_uses(node, "apply"), where


def test_no_library_call_passes_a_lattice_to_cross_check():
    # every library character was built on its lattice by its own constructor,
    # so no caller asks specialize to recompute that lattice through ``which``
    found = []
    for name, tree in library_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if callee == "specialize" and (len(node.args) > 2 or any(kw.arg in ("which", None) for kw in node.keywords)):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def import_time_calls(tree):
    """The callee of every call a module makes when it is imported: module and
    class bodies, decorators and default values, but no function or lambda body
    and no ``if __name__ == "__main__"`` block."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            decorators = getattr(node, "decorator_list", [])
            for sub in decorators + node.args.defaults + [d for d in node.args.kw_defaults if d]:
                visit(sub)
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            return
        if isinstance(node, ast.Call):
            found.append(ast.unparse(node.func))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_no_import_time_work_in_library():
    # importing qtorus is set-up that every benchmark workload pays before its
    # first op, so a module may call at import only what it calls today: its
    # Fraction constants, its compiled patterns and its dataclass declarations
    found = {}
    for name, tree in library_modules():
        for callee in import_time_calls(tree):
            found[(name, callee)] = found.get((name, callee), 0) + 1
    assert found == {
        ("numfield.py", "Fraction"): 3,
        ("problems.py", "re.compile"): 2,
        ("problems.py", "dc_field"): 1,
        ("descent.py", "dataclass"): 2,
        ("zlattice.py", "dataclass"): 1,
        ("report.py", "field"): 3,
    }


def test_failed_certificate_raises_verification_failed():
    # e1 e1 = e2 and e2 e1 = e1 but e1 e2 = 0: (e1 e1) e1 != e1 (e1 e1)
    field = NumberField.rationals()
    one = field.one()
    table = {(i, j): {} for i in range(3) for j in range(3)}
    for i in range(3):
        table[(0, i)] = table[(i, 0)] = {i: one}
    table[(1, 1)] = {2: one}
    table[(2, 1)] = {1: one}
    with pytest.raises(VerificationFailed) as err:
        FiniteDimAlgebra(field, ["1", "e1", "e2"], table, {0: one})
    assert isinstance(err.value, QTorusError)
    assert err.value.witness is not None
