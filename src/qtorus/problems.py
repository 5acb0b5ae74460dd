"""Parsing and serialization of problem documents.

Documents are JSON, UTF-8, with every rational written as a string
"p" or "p/q" so nothing ever round-trips through floating point.  Field
elements are arrays of rational strings (coefficients of powers of t).
Parse failures raise ProblemFormatError carrying a JSON path into the
document.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import CompatibilityFailure, ProblemFormatError, QTorusError
from .galois_action import (
    build_explicit_action,
    build_order2_action,
    build_permutation_action,
    build_trivial_action,
)
from .numfield import NumberField, check_field_size
from .specialization import CentralCharacter
from .torus import QMatrix, term_key

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_INT_RE = re.compile(r"^-?\d+$")


def _convert(convert, text, path):
    """``convert(text)``; past Python's limit on the digits of an integer string, a parse error at ``path``."""
    try:
        return convert(text)
    except ValueError as err:
        raise ProblemFormatError(str(err), path) from err


def parse_int(value, path):
    """A JSON integer (not a bool) or a decimal-integer string; floats never truncate."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_RE.match(value):
        return _convert(int, value, path)
    raise ProblemFormatError(f"expected an integer, got {value!r}", path)


def parse_rational(value, path):
    """A JSON integer (not a bool) or a "p" / "p/q" string, as a Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        return _convert(Fraction, value, path)
    raise ProblemFormatError(f"expected an integer or 'p/q' string, got {value!r}", path)


def parse_element(fld, value, path):
    if isinstance(value, (int, str)):
        return fld.from_rational(parse_rational(value, path))
    if not isinstance(value, list):
        raise ProblemFormatError("expected a coefficient array", path)
    coeffs = [parse_rational(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if len(coeffs) > fld.degree:
        raise ProblemFormatError(
            f"coefficient array longer than field degree {fld.degree}", path
        )
    return fld.element(coeffs)


def make_field(path, make, value):
    """The field ``make(value)`` names; a value it rejects is a parse error at ``path``."""
    try:
        return make(value)
    except ValueError as err:
        raise ProblemFormatError(str(err), path) from err


def parse_field(doc, path="$.field"):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ProblemFormatError("field description needs a 'kind'", path)
    kind = doc["kind"]
    try:
        if kind == "quadratic":
            return make_field(f"{path}.D", NumberField.quadratic, parse_int(doc["D"], f"{path}.D"))
        if kind == "cyclotomic":
            return make_field(f"{path}.l", NumberField.cyclotomic, parse_int(doc["l"], f"{path}.l"))
        if kind == "rational":
            return NumberField.rationals()
        if kind == "custom":
            poly = parse_array(doc["min_poly"], f"{path}.min_poly")
            autos = parse_array(doc.get("automorphisms", []), f"{path}.automorphisms")
            check_field_size(len(poly) - 1, len(autos))
            min_poly = [parse_rational(c, f"{path}.min_poly[{i}]") for i, c in enumerate(poly)]
            parsed = []
            for i, g in enumerate(autos):
                parsed.append(
                    [parse_rational(c, f"{path}.automorphisms[{i}][{j}]") for j, c in enumerate(g)]
                )
            return NumberField.custom(min_poly, parsed)
    except ProblemFormatError:
        raise
    except KeyError as err:
        raise ProblemFormatError(f"missing key {err}", path) from err
    except (ValueError, TypeError) as err:
        raise ProblemFormatError(str(err), path) from err
    raise ProblemFormatError(f"unknown field kind {kind!r}", path)


def parse_array(doc, path):
    if not isinstance(doc, list):
        raise ProblemFormatError("expected an array", path)
    return doc


def parse_int_list(doc, path):
    return [parse_int(x, f"{path}[{j}]") for j, x in enumerate(parse_array(doc, path))]


def parse_int_matrix(doc, path):
    if not isinstance(doc, list) or not doc:
        raise ProblemFormatError("expected a nonempty matrix", path)
    out = []
    for i, row in enumerate(doc):
        if row == []:
            raise ProblemFormatError("expected a nonempty row", f"{path}[{i}]")
        if isinstance(row, list) and len(row) != len(doc[0]):
            raise ProblemFormatError("matrix rows differ in length", f"{path}[{i}]")
        out.append(parse_int_list(row, f"{path}[{i}]"))
    return out


# the most generators a document may have: at n = 40 (Q(zeta3), S = 0 mod 3,
# the identity action) validate --degree-bound 0 took about 2.7 s, decompose
# 1.2 s and center 1.0 s on a 2-core machine with Python 3.11, and validate
# 5.0 s at n = 50; the time grows as about n^3 to n^4
GENERATOR_BOUND = 40


def _bound_generators(rows, path):
    """Refuse a q matrix of more than ``GENERATOR_BOUND`` rows before any entry is parsed."""
    if isinstance(rows, list) and len(rows) > GENERATOR_BOUND:
        raise ProblemFormatError(f"the matrix has {len(rows)} generators, above the bound {GENERATOR_BOUND}", path)


def parse_qmatrix(fld, doc, path="$.q"):
    """Parse the commutation data.

    Structural problems (bad rationals, missing keys) raise
    ProblemFormatError; a well-formed matrix that fails its defining
    identities raises CompatibilityFailure so the caller reports a
    failed check rather than a parse error.
    """
    if not isinstance(doc, dict):
        raise ProblemFormatError("q must be an object", path)
    try:
        if "root_of_unity" in doc:
            sub = doc["root_of_unity"]
            l = parse_int(sub["l"], f"{path}.root_of_unity.l")
            if l < 1:
                raise ProblemFormatError("must be at least 1", f"{path}.root_of_unity.l")
            s_path = f"{path}.root_of_unity.s_matrix"
            _bound_generators(sub["s_matrix"], s_path)
            S = parse_int_matrix(sub["s_matrix"], s_path)
            if len(S[0]) != len(S):
                raise ProblemFormatError("expected a square matrix", s_path)
            if "epsilon" in sub:
                eps_path = f"{path}.root_of_unity.epsilon"
                eps = parse_element(fld, sub["epsilon"], eps_path)
                if not eps:
                    raise ProblemFormatError("epsilon must be nonzero", eps_path)
            elif fld.kind == "cyclotomic":
                eps = fld.gen()
            else:
                raise ProblemFormatError(
                    "epsilon required unless the field is cyclotomic",
                    f"{path}.root_of_unity",
                )
            args = ("root_of_unity", l, eps, S)
        elif "entries" in doc:
            _bound_generators(doc["entries"], f"{path}.entries")
            rows = parse_array(doc["entries"], f"{path}.entries")
            entries = []
            for i, row in enumerate(rows):
                row_path = f"{path}.entries[{i}]"
                if len(parse_array(row, row_path)) != len(rows):
                    raise ProblemFormatError(f"expected {len(rows)} values: q is square", row_path)
                entries.append(
                    [parse_element(fld, x, f"{row_path}[{j}]") for j, x in enumerate(row)]
                )
            orders = doc.get("declared_orders")
            if orders is not None:
                orders = parse_int_matrix(orders, f"{path}.declared_orders")
                if len(orders) != len(entries) or len(orders[0]) != len(entries):
                    raise ProblemFormatError("not the size of entries", f"{path}.declared_orders")
                for i, row in enumerate(orders):
                    for j, o in enumerate(row):
                        if o < 1:
                            raise ProblemFormatError(
                                "must be at least 1", f"{path}.declared_orders[{i}][{j}]"
                            )
            args = ("entries", entries, orders)
        else:
            raise ProblemFormatError("q needs 'entries' or 'root_of_unity'", path)
    except ProblemFormatError:
        raise
    except KeyError as err:
        raise ProblemFormatError(f"missing key {err}", path) from err
    except (ValueError, TypeError) as err:
        raise ProblemFormatError(str(err), path) from err
    try:
        if args[0] == "root_of_unity":
            return QMatrix.from_root_of_unity(fld, args[1], args[2], args[3])
        return QMatrix(fld, args[1], declared_orders=args[2])
    except ValueError as err:
        raise CompatibilityFailure(
            f"commutation matrix check failed: {err}", witness={"path": path}
        ) from err


def parse_action(qmatrix, galois, doc, path="$.action"):
    """The action ``doc`` describes; a value its builder rejects is a parse error at ``path``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ProblemFormatError("action description needs a 'kind'", path)
    kind = doc["kind"]
    try:
        if kind == "permutation":
            perms = doc["perms"]
            if not isinstance(perms, dict):
                raise ProblemFormatError("expected an object", f"{path}.perms")
            perms = {
                parse_int(k, f"{path}.perms.{k}"): parse_int_list(v, f"{path}.perms.{k}")
                for k, v in perms.items()
            }
            build, args = build_permutation_action, (perms,)
        elif kind == "trivial":
            build, args = build_trivial_action, ()
        elif kind == "order2":
            blocks = [
                _parse_block(blk, f"{path}.blocks[{i}]")
                for i, blk in enumerate(parse_array(doc["blocks"], f"{path}.blocks"))
            ]
            build, args = build_order2_action, (blocks,)
        elif kind == "explicit":
            n = qmatrix.n
            matrices = [
                parse_int_matrix(M, f"{path}.matrices[{i}]")
                for i, M in enumerate(parse_array(doc["matrices"], f"{path}.matrices"))
            ]
            for i, M in enumerate(matrices):
                if len(M) != n or len(M[0]) != n:
                    raise ProblemFormatError(f"expected {n} x {n}", f"{path}.matrices[{i}]")
            cocycle = [
                [
                    parse_element(qmatrix.field, v, f"{path}.cocycle[{i}][{j}]")
                    for j, v in enumerate(parse_array(row, f"{path}.cocycle[{i}]"))
                ]
                for i, row in enumerate(parse_array(doc["cocycle"], f"{path}.cocycle"))
            ]
            for i, row in enumerate(cocycle):
                if len(row) != n:
                    raise ProblemFormatError(f"expected {n} values", f"{path}.cocycle[{i}]")
            build, args = build_explicit_action, (matrices, cocycle)
        else:
            raise ProblemFormatError(f"unknown action kind {kind!r}", path)
    except KeyError as err:
        raise ProblemFormatError(f"missing key {err}", path) from err
    try:
        return build(qmatrix, galois, *args)
    except (ValueError, KeyError) as err:
        raise ProblemFormatError(str(err), path) from err


def _parse_block(blk, path):
    """One order-2 block, {"sign": s} or {"swap": [i, j]}, with its integers parsed."""
    if not isinstance(blk, dict):
        raise ProblemFormatError("expected a block object", path)
    if "sign" in blk:
        return {"sign": parse_int(blk["sign"], f"{path}.sign")}
    if "swap" in blk:
        return {"swap": parse_int_list(blk["swap"], f"{path}.swap")}
    return blk


def parse_character(qmatrix, doc, path="$.character"):
    if not isinstance(doc, dict):
        raise ProblemFormatError("character must be an object", path)
    which = doc.get("lattice", "l_center")
    if which not in ("l_center", "full_center"):
        raise ProblemFormatError("lattice must be 'l_center' or 'full_center'", f"{path}.lattice")
    values_doc = doc.get("values")
    if not isinstance(values_doc, list):
        raise ProblemFormatError("character needs a 'values' array", f"{path}.values")
    values = [
        parse_element(qmatrix.field, v, f"{path}.values[{i}]") for i, v in enumerate(values_doc)
    ]
    try:
        if which == "l_center":
            return CentralCharacter.for_l_center(qmatrix, values), which
        return CentralCharacter.for_full_center(qmatrix, values), which
    except ProblemFormatError:
        raise
    except QTorusError as err:
        raise ProblemFormatError(str(err), path) from err
    except ValueError as err:
        raise ProblemFormatError(str(err), path) from err


@dataclass
class ProblemSpec:
    field: object
    qmatrix: object
    action: object
    character: object = None
    which: str = "l_center"
    options: dict = dc_field(default_factory=dict)


def parse_problem(doc):
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be an object")
    fld = parse_field(doc.get("field"), "$.field")
    qmatrix = parse_qmatrix(fld, doc.get("q"), "$.q")
    if "n" in doc and parse_int(doc["n"], "$.n") != qmatrix.n:
        raise ProblemFormatError(f"n does not match the matrix size {qmatrix.n}", "$.n")
    action = parse_action(qmatrix, fld.galois, doc.get("action"), "$.action")
    character = None
    which = "l_center"
    if "character" in doc:
        character, which = parse_character(qmatrix, doc["character"], "$.character")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemFormatError("options must be an object", "$.options")
    options = dict(options)
    for key in options:
        low = {"degree_bound": 0, "samples": 1}.get(key)
        if low is None:
            raise ProblemFormatError("not an option (degree_bound, samples)", f"$.options.{key}")
        options[key] = parse_int(options[key], f"$.options.{key}")
        if options[key] < low:
            raise ProblemFormatError(f"must be at least {low}", f"$.options.{key}")
    return ProblemSpec(fld, qmatrix, action, character, which, options)


def load_json(pathname):
    """The JSON document in a file; unreadable, undecodable or too deep, a parse error at ``$``."""
    try:
        with open(pathname, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ProblemFormatError(f"cannot read {pathname}: {err.strerror}", "$") from err
    except ValueError as err:  # undecodable, or an integer literal past Python's digit limit
        raise ProblemFormatError(f"invalid JSON: {err}", "$") from err
    except RecursionError as err:
        raise ProblemFormatError("invalid JSON: nested too deeply", "$") from err


def load_problem(pathname):
    return parse_problem(load_json(pathname))


# ---------------------------------------------------------------------------
# serialization


def element_json(x):
    return [str(c) for c in x.coeffs]


def tl_element_json(elt):
    return [
        {"exp": list(m), "coeff": element_json(c)}
        for m, c in sorted(elt.terms.items(), key=lambda t: term_key(t[0]))
    ]


def lattice_json(lat):
    return [list(row) for row in lat.basis]
