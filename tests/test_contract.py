"""Library-wide contracts: certificates raise typed errors, never bare asserts."""

import ast
import os

import pytest

import qtorus
from qtorus.errors import QTorusError, VerificationFailed
from qtorus.numfield import NumberField
from qtorus.specialization import FiniteDimAlgebra

PACKAGE = os.path.dirname(os.path.abspath(qtorus.__file__))


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
