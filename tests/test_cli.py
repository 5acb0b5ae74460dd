import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorus import cli, torus
from qtorus.cli import main
from qtorus.numfield import FIELD_DEGREE_BOUND, NumberField
from qtorus.problems import GENERATOR_BOUND, element_json, load_problem, parse_problem, parse_qmatrix
from qtorus.report import Report
from workloads import corpus_ops, load_goldens, op_id

ROOT = Path(__file__).resolve().parent.parent
CASES = os.path.join(ROOT, "cases")
GOLDENS = load_goldens()


def case(name):
    return os.path.join(CASES, name)


@pytest.mark.parametrize("argv", corpus_ops(), ids=op_id)
def test_shipped_case_report_matches_golden(argv, tmp_path, monkeypatch, capsys):
    # run from the repository root: reports echo the case paths they were given
    monkeypatch.chdir(ROOT)
    out_path = tmp_path / "report.json"
    golden = GOLDENS["corpus"][op_id(argv)]
    assert main(argv + ["--json", str(out_path), "--seed", "0"]) == golden["exit"]
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == golden["sha256"]


def _l3(key=None, value=None):
    """The standard l = 3 problem with an explicit action, one dotted key replaced."""
    doc = {
        "field": {"kind": "cyclotomic", "l": 3},
        "n": 2,
        "q": {"root_of_unity": {"l": 3, "s_matrix": [[0, 1], [-1, 0]]}},
        "action": {
            "kind": "explicit",
            "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "cocycle": [[["1"], ["1"]], [["1"], ["1"]]],
        },
    }
    if key is not None:
        *parents, last = key.split(".")
        target = doc
        for part in parents:
            target = target[part]
        target[last] = value
    return doc


def _case2_entries(entries):
    """The shipped case2_sqrt5 document with its q.entries replaced."""
    with open(case("case2_sqrt5.json")) as fh:
        doc = json.load(fh)
    doc["q"]["entries"] = entries
    return doc


def _declared(orders):
    """q = [[1, -1], [-1, 1]] over Q(sqrt 5) with the given declared orders."""
    return {
        "field": {"kind": "quadratic", "D": 5},
        "q": {"entries": [["1", "-1"], ["-1", "1"]], "declared_orders": orders},
        "action": {"kind": "trivial"},
    }


def _declared_twin():
    """cases/n3_decompose.json with q spelled as entries + declared_orders."""
    with open(case("n3_decompose.json")) as fh:
        doc = json.load(fh)
    one, z, z2 = ["1"], ["0", "1"], ["-1", "-1"]  # 1, zeta3 and zeta3^2 = zeta3^-1
    doc["q"] = {
        "entries": [[one, z, one], [z2, one, one], [one, one, one]],
        "declared_orders": [[1, 3, 1], [3, 1, 1], [1, 1, 1]],
    }
    return doc


def _side(n):
    """An n x n zero exponent matrix."""
    return [[0] * n for _ in range(n)]


def _trivial(n, options=None):
    """n generators over Q(sqrt 5), every q_ij = 1, the trivial action."""
    doc = {"field": {"kind": "quadratic", "D": 5}, "q": {"entries": [["1"] * n] * n}, "action": {"kind": "trivial"}}
    return doc if options is None else {**doc, "options": options}


def _z13_commutative(character=True):
    """Q(zeta13), n = 4, S = 0 and the trivial action: its l-center lattice has index 13^4."""
    doc = {
        "field": {"kind": "cyclotomic", "l": 13},
        "n": 4,
        "q": {"root_of_unity": {"l": 13, "s_matrix": [[0] * 4] * 4}},
        "action": {"kind": "trivial"},
    }
    return {**doc, "character": _Z13_CHI} if character else doc


_Z13_CHI = {"lattice": "l_center", "values": ["2", "3", "4", "5"]}


def _custom(min_poly, automorphisms=()):
    """A one-generator document over the custom field Q[t]/(min_poly)."""
    return {
        "field": {"kind": "custom", "min_poly": min_poly, "automorphisms": list(automorphisms)},
        "q": {"entries": [["1"]]},
        "action": {"kind": "trivial"},
    }


# (argv, a document above a field or matrix bound, the JSON path and the message
# of its refusal); a custom field's coefficients here are not rationals, so a
# refusal that came after they were parsed would name a coefficient's path
OVERSIZED = [
    (["validate"], _l3("field.l", 97), "$.field.l", f"the field has degree 96, above the bound {FIELD_DEGREE_BOUND}"),
    (
        ["validate"],
        _custom(["x"] * (FIELD_DEGREE_BOUND + 2)),
        "$.field",
        f"the field has degree {FIELD_DEGREE_BOUND + 1}, above the bound {FIELD_DEGREE_BOUND}",
    ),
    (["validate"], _custom(["-2", "0", "1"], [["x"]] * 3), "$.field", "3 automorphisms for a field of degree 2"),
    (
        ["normal-form"],
        {"matrix": _side(cli.NORMAL_FORM_SIDE_BOUND + 1)},
        "$.matrix",
        f"the matrix has side {cli.NORMAL_FORM_SIDE_BOUND + 1} and 0-bit entries, above the bound of side"
        f" {cli.NORMAL_FORM_SIDE_BOUND} and {cli.NORMAL_FORM_BIT_BOUND}-bit entries",
    ),
    (
        ["normal-form"],
        {"matrix": [[0, 2 ** 16], [-(2 ** 16), 0]]},
        "$.matrix",
        "the matrix has side 2 and 17-bit entries, above the bound of side",
    ),
]


# (JSON path of the q matrix, a document with one generator above the bound), per spelling of q
TOO_MANY_GENERATORS = [
    ("$.q.root_of_unity.s_matrix", _l3("q.root_of_unity.s_matrix", _side(GENERATOR_BOUND + 1))),
    ("$.q.entries", _trivial(GENERATOR_BOUND + 1)),
]

# one digit past Python's limit on converting decimal text to an int; as a
# JSON literal it cannot be written by json.dumps, so a document holds
# HUGE_LITERAL and _write puts the digits in its place
HUGE = "9" * 4301
HUGE_LITERAL = "<a 4301-digit integer literal>"

# (argv before the file, document, JSON path) for each site that reads a
# decimal integer: the decoder, parse_int and parse_rational
OVERSIZED_INTEGERS = [
    (["validate"], _l3("n", HUGE_LITERAL), "$"),
    (["validate"], _l3("n", HUGE), "$.n"),
    (["validate"], _l3("options", {"samples": HUGE}), "$.options.samples"),
    (["specialize"], _l3("character", {"values": [HUGE, "2"]}), "$.character.values[0]"),
    (
        ["validate"],
        _l3("action", {"kind": "permutation", "perms": {HUGE: [0, 1], "1": [1, 0]}}),
        "$.action.perms." + "9" * 12 + "..." + "9" * 13,
    ),
    (
        ["validate"],
        _l3("action", {"kind": "permutation", "perms": {"0": [0, 1], "1": [HUGE, 0]}}),
        "$.action.perms.1[0]",
    ),
    (["validate"], _case2_entries([[["1"], [HUGE, "4"]], [["9", "-4"], ["1"]]]), "$.q.entries[0][1][0]"),
]

# (argv before the file, document or raw text or bytes, JSON path the
# error must name); every entry exits 2, none may crash or silently
# truncate a float
MALFORMED = [
    # the (2b+1)^n monomial box of validate and invariants is bounded before it
    # is walked: 7^10 monomials at the default b = 3 would take hours
    (["validate"], _trivial(10), "$.n"),
    (["invariants"], _trivial(10), "$.n"),
    (["invariants"], _trivial(3, {"degree_bound": 20}), "$.options.degree_bound"),
    # a specialization's dim^2 table is bounded before it is built: dim 13^4 would need 8 * 10^8 entries
    (["specialize"], _z13_commutative(), "$.character.lattice"),
    (["validate"], {"field": {"kind": "quadratic", "D": 4}}, "$.field.D"),
    (["validate"], {"field": {"kind": "quadratic", "D": -(10**21) - 117}}, "$.field.D"),
    # more generators than problems.GENERATOR_BOUND are refused before any entry is parsed
    *((["validate"], doc, key) for key, doc in TOO_MANY_GENERATORS),
    (["validate"], _l3("n", "two"), "$.n"),
    (["validate"], _l3("field.l", 3.7), "$.field.l"),
    (["validate"], _l3("field.l", 1), "$.field.l"),
    # building Q(zeta_l) grows as about l^3, so l is bounded before the field is built
    (["validate"], _l3("field.l", 101), "$.field.l"),
    (["validate"], _l3("q.root_of_unity.l", 3.7), "$.q.root_of_unity.l"),
    (
        ["validate"],
        _l3("q.root_of_unity.s_matrix", [[0, 1.9], [-1.9, 0]]),
        "$.q.root_of_unity.s_matrix[0][1]",
    ),
    (
        ["validate"],
        _l3("action.matrices", [[[1, 0], [0, 1]], [[0, "one"], [1, 0]]]),
        "$.action.matrices[1][0][1]",
    ),
    (["validate"], _l3("action.matrices", 5), "$.action.matrices"),
    (["validate"], _l3("action.cocycle", 5), "$.action.cocycle"),
    (
        ["validate"],
        _l3("action", {"kind": "permutation", "perms": {"0": [0.0, 1.0], "1": [0.0, 1.0]}}),
        "$.action.perms.0[0]",
    ),
    (
        ["validate"],
        _l3("action", {"kind": "order2", "blocks": [{"sign": 1.0}, {"sign": 1}]}),
        "$.action.blocks[0].sign",
    ),
    (["validate"], _l3("action.matrices", [[[1]], [[1]]]), "$.action.matrices[0]"),
    (["center"], _l3("action.cocycle", [["1"], ["1"]]), "$.action.cocycle[0]"),
    (["validate"], _l3("q.root_of_unity.s_matrix", [[0], [1]]), "$.q.root_of_unity.s_matrix"),
    # a zero epsilon has no inverse, so epsilon^-1 in q[1][0] cannot be formed
    (["validate"], _l3("q.root_of_unity.epsilon", ["0"]), "$.q.root_of_unity.epsilon"),
    (
        ["center"],
        {
            "field": {"kind": "quadratic", "D": 5},
            "q": {"entries": [["1", "-1"], ["-1", "1"]], "declared_orders": [[1, 3]]},
            "action": {"kind": "trivial"},
        },
        "$.q.declared_orders",
    ),
    # an order must be at least 1: it is an exponent modulus
    (["validate"], _l3("q.root_of_unity.l", 0), "$.q.root_of_unity.l"),
    (["center"], _l3("q.root_of_unity.l", -3), "$.q.root_of_unity.l"),
    (["validate"], _declared([[1, 0], [0, 1]]), "$.q.declared_orders[0][1]"),
    (["center"], _declared([[1, 2], [-2, 1]]), "$.q.declared_orders[1][0]"),
    (["validate"], _case2_entries([[["1"], ["-1"]]]), "$.q.entries[0]"),
    (["validate"], _case2_entries([[["1"], ["9", "4"]], [["9", "-4"]]]), "$.q.entries[1]"),
    (["validate"], _l3("options", {"degree_bound": -1}), "$.options.degree_bound"),
    (["invariants"], _l3("options", {"samples": 0}), "$.options.samples"),
    # above cli.SAMPLES_BOUND, refused before validate samples anything
    (["validate"], _l3("options", {"samples": 10**6}), "$.options.samples"),
    # only degree_bound and samples are read; a misspelt key must not fall back to the default
    (["invariants"], _l3("options", {"degree_bond": 9}), "$.options.degree_bond"),
    (["invariants"], _l3("options", {"degree_bound": 1, "seed": 4}), "$.options.seed"),
    (["normal-form"], {"matrix": [[0, "x"], [0, 0]]}, "$.matrix[0][1]"),
    (["normal-form"], {"matrix": [[0, 1.7], [-1.7, 0]]}, "$.matrix[0][1]"),
    (["normal-form"], {"matrix": []}, "$.matrix"),
    (["normal-form"], {"matrix": [[]]}, "$.matrix[0]"),
    (["normal-form"], {"matrix": [[], []]}, "$.matrix[0]"),
    (["normal-form"], {"matrix": [[0, 1], [2]]}, "$.matrix[1]"),
    (["normal-form"], '{"matrix": [[0, 1], [-1, 0]', "$"),
    (["specialize", case("l3_standard.json"), "--chi"], '{"values": ["2", "2"', "$"),
    (["validate"], b"\xff\xfe", "$"),
    # a JSON boolean is not a rational, though Python reads true as 1
    (["specialize"], _l3("character", {"values": [True, "2"]}), "$.character.values[0]"),
    (["validate"], _case2_entries([[True, ["9", "4"]], [["9", "-4"], ["1"]]]), "$.q.entries[0][0]"),
    # above numfield.FIELD_DEGREE_BOUND or the normal-form bounds, refused before any work
    *((argv, doc, path) for argv, doc, path, _ in OVERSIZED),
    # one row per parse-error site that no other test reaches
    (["validate"], [], "$"),
    (["validate"], _l3("options", 5), "$.options"),
    (["validate"], _l3("q", 5), "$.q"),
    (["validate"], _l3("q", {}), "$.q"),
    (["validate"], _l3("q", {"root_of_unity": {"s_matrix": [[0, 1], [-1, 0]]}}), "$.q"),
    (["validate"], _l3("q", {"root_of_unity": [3]}), "$.q"),
    (["validate"], _l3("field", {"kind": "quadratic", "D": -3}), "$.q.root_of_unity"),
    (["validate"], _l3("q.root_of_unity.epsilon", ["0", "1", "0"]), "$.q.root_of_unity.epsilon"),
    (["validate"], _l3("field", 5), "$.field"),
    (["validate"], _l3("field", {"kind": "cyclotomic"}), "$.field"),
    (["validate"], _custom(["-2", "0", "2"]), "$.field"),
    (["validate"], _l3("action", 5), "$.action"),
    (["validate"], _l3("action", {"kind": "order2"}), "$.action"),
    (["validate"], _l3("action", {"kind": "permutation", "perms": [[0, 1], [1, 0]]}), "$.action.perms"),
    (["validate"], _l3("action", {"kind": "order2", "blocks": [5]}), "$.action.blocks[0]"),
    (["specialize"], _l3("character", 5), "$.character"),
    (["specialize"], _l3("character", {"lattice": "l_center"}), "$.character.values"),
    # q over Q(sqrt 5) has infinite order, so no character lattice is defined
    (["specialize"], {**json.loads(Path(case("case2_sqrt5.json")).read_text()), "character": {"values": ["2", "3"]}}, "$.character"),
    (["decompose"], _l3("character", {"lattice": "full_center", "values": ["2", "3"]}), "$.character"),
    (["normal-form"], [], "$"),
    # past Python's digit limit an integer is a parse error, not a ValueError from int()
    *OVERSIZED_INTEGERS,
]


# (argv before the file, a document with a 100,000-character value or key, the
# JSON path its error names) for each site that echoes input in a parse error
LONG = "x" * 100_000
SHORT_KEY = "x" * 12 + "..." + "x" * 13
LONG_INPUTS = [
    (["validate"], _l3("field.kind", LONG), "$.field"),
    (["validate"], _l3("action.kind", LONG), "$.action"),
    (["validate"], _l3("n", LONG), "$.n"),
    (["specialize"], _l3("character", {"values": [LONG, "2"]}), "$.character.values[0]"),
    (["validate"], _l3("options", {LONG: 1}), f"$.options.{SHORT_KEY}"),
    (["validate"], _l3("action", {"kind": "order2", "blocks": [{LONG: 1}, {"sign": 1}]}), "$.action"),
    # the key is both the path and the value the message echoes
    (["validate"], _l3("action", {"kind": "permutation", "perms": {LONG: [0, 1]}}), f"$.action.perms.{SHORT_KEY}"),
    (["validate"], _l3("action", {"kind": "permutation", "perms": {"0": [0, 1], "1": list(range(10**5))}}), "$.action"),
    # integers of up to 4,300 digits parse, and these two messages echo one
    (["validate"], _l3("action", {"kind": "order2", "blocks": [{"swap": [int("9" * 4300), 0]}]}), "$.action"),
    (["validate"], _l3("options", {"samples": int("9" * 4300)}), "$.options.samples"),
]


@pytest.mark.parametrize("argv, doc, path", LONG_INPUTS)
def test_parse_error_shortens_long_input(argv, doc, path, tmp_path, capsys):
    bad = _write(tmp_path / "long.json", doc)
    start = time.perf_counter()
    assert main(argv + [str(bad)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 300, err[:300]
    assert err.startswith(f"parse error: {path}: "), err


def _write(path, doc):
    if not isinstance(doc, (str, bytes)):
        doc = json.dumps(doc).replace(json.dumps(HUGE_LITERAL), HUGE)
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    return path


def test_parse_error_exit_code(tmp_path, capsys):
    assert main(["validate", str(_write(tmp_path / "good.json", _l3()))]) == 0
    capsys.readouterr()
    for i, (argv, doc, path) in enumerate(MALFORMED):
        bad = _write(tmp_path / f"bad{i}.json", doc)
        assert main(argv + [str(bad)]) == 2, (argv, doc)
        assert f"parse error: {path}:" in capsys.readouterr().err, (argv, doc)


# (argv, the flag its error names); the ids keep the names of the first rows
BAD_FLAGS = [
    # a negative bound sweeps no monomial and passes vacuously; argparse rejects it
    (["validate", "--degree-bound", "-1", case("case2_sqrt5.json")], "--degree-bound"),
    (["invariants", "--degree-bound", "-1", case("case2_sqrt5.json")], "--degree-bound"),
    (["validate", "--samples", "0", case("case2_sqrt5.json")], "--samples"),
    # no field given
    (["witness", "--case", "2", "--q", "0,1"], "--l"),
    # 4 is not squarefree
    (["catalog", "--case", "2", "--D", "4", "--q", "9,4"], "--D"),
    # three coefficients in a degree-2 field
    (["witness", "--case", "2", "--l", "3", "--q", "0,1,5"], "--q"),
    # two fields given
    (["witness", "--case", "2", "--D", "5", "--l", "3", "--q", "0,1"], "--l"),
    # Gal(Q(zeta_l)/Q) has order 4 or 400, not 2; refused before the field is built
    (["witness", "--case", "2", "--l", "5", "--q", "0,1"], "--l"),
    (["witness", "--case", "2", "--l", "1000", "--q", "0,1"], "--l"),
    # |D| above 10^18, where the squarefree test would take seconds
    (["catalog", "--case", "2", "--D", "1000000000000000000117", "--q", "1"], "--D"),
    # a box of 201^2 monomials is refused before it is walked
    (["invariants", "--degree-bound", "100", case("case2_sqrt5.json")], "--degree-bound"),
    # 200,000 samples ran for over a minute; above cli.SAMPLES_BOUND they are refused
    (["validate", "--samples", "200000", case("case2_sqrt5.json")], "--samples"),
    # a coefficient past Python's digit limit
    (["witness", "--case", "2", "--l", "3", "--q", HUGE], "--q"),
    (["catalog", "--case", "2", "--D", "5", "--q", f"1,{HUGE}"], "--q"),
]


@pytest.mark.parametrize(
    "argv, flag", BAD_FLAGS, ids=[f"argv{i}" for i in range(len(BAD_FLAGS))]
)
def test_out_of_range_flag_exits_2(argv, flag, capsys):
    try:
        code = main(argv)
    except SystemExit as err:  # argparse rejects the value itself
        code = err.code
    assert code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err or f"parse error: {flag}:" in err, err


def test_oversized_integers_exit_2_in_under_a_second(tmp_path, capsys):
    # each is refused when it is read, before any work on the document
    runs = [argv + [str(_write(tmp_path / f"bad{i}.json", doc))] for i, (argv, doc, _) in enumerate(OVERSIZED_INTEGERS)]
    runs += [argv for argv, _ in BAD_FLAGS if HUGE in ",".join(argv)]
    assert len(runs) == 9
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("key, doc", TOO_MANY_GENERATORS)
def test_generators_are_bounded_in_both_spellings(key, doc, tmp_path, capsys):
    # center took seconds at n = 50; one generator above the bound is refused at
    # once, naming the size, the bound and the matrix's JSON path
    problem = _write(tmp_path / "big.json", doc)
    start = time.perf_counter()
    assert main(["center", str(problem)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"parse error: {key}: the matrix has {GENERATOR_BOUND + 1} generators, above the bound {GENERATOR_BOUND}" in err
    # a matrix at the bound is read
    at_bound = {"root_of_unity": {"l": 3, "s_matrix": _side(GENERATOR_BOUND)}}
    assert parse_qmatrix(NumberField.cyclotomic(3), at_bound).n == GENERATOR_BOUND


@pytest.mark.parametrize(
    "argv, doc, path, message",
    OVERSIZED,
    ids=["zeta97", "custom_degree", "custom_automorphisms", "matrix_side", "matrix_bits"],
)
def test_fields_and_matrices_above_their_bounds_are_refused(argv, doc, path, message, tmp_path, capsys):
    # building Q(zeta97) took about 2 s and validating over it 77 s; a 60 x 60
    # normal form ran past 30 s.  The refusal names the size, the bound and the path
    problem = _write(tmp_path / "big.json", doc)
    start = time.perf_counter()
    assert main(argv + [str(problem)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"parse error: {path}: {message}" in capsys.readouterr().err


def test_normal_form_at_its_bounds_runs(tmp_path):
    top = 2 ** cli.NORMAL_FORM_BIT_BOUND - 1
    for matrix in (_side(cli.NORMAL_FORM_SIDE_BOUND), [[0, top], [-top, 0]]):
        assert main(["normal-form", str(_write(tmp_path / "m.json", {"matrix": matrix}))]) == 0


# one accepted document per field kind
FIELD_KINDS = {
    "quadratic": json.loads(Path(case("case2_sqrt5.json")).read_text()),
    "cyclotomic": _l3(),
    "rational": {"field": {"kind": "rational"}, "q": {"entries": [["1", "2"], ["1/2", "1"]]}, "action": {"kind": "trivial"}},
    "custom": {**_custom(["-2", "0", "1"], [["0", "-1"]]), "q": {"entries": [["1", "3"], ["1/3", "1"]]}},
}


@pytest.mark.parametrize("kind", sorted(FIELD_KINDS))
def test_each_field_kind_is_accepted(kind, tmp_path):
    problem = str(_write(tmp_path / "problem.json", FIELD_KINDS[kind]))
    assert load_problem(problem).field.kind == kind
    assert main(["validate", problem]) == 0


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_monomial_box_is_refused_before_it_is_walked(command, tmp_path, capsys):
    # n = 10 at b = 3 is a box of 7^10 monomials; the refusal gives its size and
    # the bound, and exits 2 at once.  At b = 0 the box is one monomial and runs
    doc = _write(tmp_path / "n10.json", _trivial(10))
    start = time.perf_counter()
    assert main([command, str(doc)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"$.n: the monomial box has {7 ** 10} monomials, above the bound {cli.MONOMIAL_BOX_BOUND}" in err
    assert main([command, str(doc), "--degree-bound", "0"]) == 0


def test_samples_above_the_bound_are_refused_before_validate_runs(tmp_path, capsys):
    # the refusal names the flag or the document path, the count and the bound;
    # at the bound itself validate runs
    bound = cli.SAMPLES_BOUND
    doc = _write(tmp_path / "many.json", _l3("options", {"samples": bound + 1}))
    start = time.perf_counter()
    assert main(["validate", str(doc)]) == 2
    assert main(["validate", case("case2_sqrt5.json"), "--samples", str(bound + 1)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"$.options.samples: {bound + 1} samples is above the bound {bound}" in err
    assert f"--samples: {bound + 1} samples is above the bound {bound}" in err
    at_bound = cli.build_parser().parse_args(["validate", str(doc), "--samples", str(bound)])
    assert cli._samples(load_problem(str(doc)), at_bound) == bound


@pytest.mark.parametrize("command", ["specialize", "decompose"])
def test_specialization_dimension_is_refused_before_it_is_built(command, tmp_path, capsys):
    # the character's lattice has index 13^4 = 28,561, the dimension of the
    # specialization; the refusal names what gave the character and exits 2 at once
    doc = _write(tmp_path / "z13.json", _z13_commutative())
    start = time.perf_counter()
    assert main([command, str(doc)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (
        f"$.character.lattice: the specialization has dimension {13 ** 4}, "
        f"above the bound {cli.SPECIALIZATION_DIM_BOUND}"
    ) in err
    bare = _write(tmp_path / "z13_bare.json", _z13_commutative(character=False))
    chi = _write(tmp_path / "chi.json", _Z13_CHI)
    assert main([command, str(bare), "--chi", str(chi)]) == 2
    assert f"--chi: the specialization has dimension {13 ** 4}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, message",
    [
        (
            {"root_of_unity": {"l": 200000, "epsilon": ["7"], "s_matrix": [[0, 1], [-1, 0]]}},
            "epsilon does not have exact order 200000",
        ),
        (
            {
                "entries": [[["1"], ["7"]], [["1/7"], ["1"]]],
                "declared_orders": [[1, 300000], [300000, 1]],
            },
            "declared order of q[0][1] is wrong",
        ),
    ],
    ids=["root_of_unity_l", "declared_orders"],
)
def test_huge_declared_order_fails_fast(q, message, tmp_path, capsys):
    # a root of unity in a degree-2 field has order at most 2 * 2^2, so the
    # order check stops there instead of taking hundreds of thousands of products
    doc = {"field": {"kind": "quadratic", "D": 5}, "q": q, "action": {"kind": "trivial"}}
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path / "big.json", doc))]) == 1
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().out


# every subcommand that reads a file, with the file last on the command line
FILE_READERS = [
    ["validate"],
    ["invariants"],
    ["center"],
    ["lcenter"],
    ["normal-form"],
    ["specialize"],
    ["decompose"],
    ["specialize", case("l3_standard.json"), "--chi"],
    ["decompose", case("l3_standard.json"), "--chi"],
]


@pytest.mark.parametrize("argv", FILE_READERS, ids=lambda argv: "_".join(argv[::2]))
def test_deeply_nested_json_is_a_parse_error(argv, tmp_path, capsys):
    # the decoder recurses once per level and gives up past the recursion limit
    deep = _write(tmp_path / "deep.json", "[" * 100000 + "]" * 100000)
    assert main(argv + [str(deep)]) == 2
    assert "parse error: $: invalid JSON" in capsys.readouterr().err


def test_explicit_flag_wins_over_document_option(tmp_path, monkeypatch):
    # a flag on the command line, else the document's options, else the default
    opts = str(_write(tmp_path / "opts.json", _l3("options", {"degree_bound": 1, "samples": 2})))
    plain = str(_write(tmp_path / "plain.json", _l3()))
    seen = []

    def validate_action(action, degree_bound, samples, seed):
        seen.append((degree_bound, samples))
        return Report("validate-action")

    monkeypatch.setattr(cli, "validate_action", validate_action)
    for argv, expected in [
        ([opts, "--degree-bound", "0", "--samples", "7"], (0, 7)),
        ([opts, "--samples", "7"], (1, 7)),
        ([opts], (1, 2)),
        ([plain, "--degree-bound", "2"], (2, 50)),
        ([plain], (3, 50)),
    ]:
        assert main(["validate"] + argv) == 0
        assert seen.pop() == expected, argv
    out_path = tmp_path / "report.json"
    for argv, expected in [([opts, "--degree-bound", "0"], 0), ([opts], 1), ([plain], 3)]:
        assert main(["invariants"] + argv + ["--json", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["inputs"]["degree_bound"] == expected, argv


def test_declared_orders_are_synthesized_once_per_matrix(tmp_path, monkeypatch):
    # each command builds one QMatrix, and construction resolves (l, epsilon, S)
    # once; root_of_unity_data only reads it back
    twin = str(_write(tmp_path / "twin.json", _declared_twin()))
    calls = []
    synthesize = torus.synthesize_root_of_unity

    def spy(entries, orders):
        calls.append(orders)
        return synthesize(entries, orders)

    monkeypatch.setattr(torus, "synthesize_root_of_unity", spy)
    for command in ("center", "lcenter", "specialize", "decompose"):
        calls.clear()
        assert main([command, twin]) == 0
        assert len(calls) == 1, command


@pytest.mark.parametrize("command", ["center", "lcenter", "specialize", "validate", "invariants"])
def test_declared_order_twin_reports_match_shipped_case(command, tmp_path):
    # decompose is left out: the twin synthesizes epsilon = zeta3^2, so S01 = -1
    reports = []
    for problem in (case("n3_decompose.json"), str(_write(tmp_path / "twin.json", _declared_twin()))):
        out_path = tmp_path / "report.json"
        assert main([command, problem, "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        del report["inputs"]["problem"]
        reports.append(report)
    assert reports[0] == reports[1]


def _entries_twin(doc):
    """``doc`` with q = epsilon^S spelled as entries + declared_orders: q_ij has order l / gcd(S_ij, l)."""
    l, S = doc["q"]["root_of_unity"]["l"], doc["q"]["root_of_unity"]["s_matrix"]
    entries = parse_problem(doc).qmatrix.entries
    q = {
        "entries": [[element_json(x) for x in row] for row in entries],
        "declared_orders": [[l // gcd(s, l) for s in row] for row in S],
    }
    return {**doc, "q": q}


ROOT_OF_UNITY_CASES = sorted(
    name for name in os.listdir(CASES) if "root_of_unity" in json.loads(Path(case(name)).read_text()).get("q", {})
)


@pytest.mark.parametrize("name", ROOT_OF_UNITY_CASES)
def test_both_spellings_give_byte_identical_reports(name, tmp_path, monkeypatch):
    # each shipped root-of-unity document and its entries + declared_orders twin,
    # run from two folders under the same file name, so the reports' bytes compare
    with open(case(name)) as fh:
        doc = json.load(fh)
    commands = ("center", "lcenter", "validate", "invariants")
    reports = []
    for spelling in (doc, _entries_twin(doc)):
        folder = tmp_path / str(len(reports))
        folder.mkdir()
        _write(folder / name, spelling)
        monkeypatch.chdir(folder)
        reports.append([(main([c, name, "--json", f"{c}.json"]), Path(f"{c}.json").read_bytes()) for c in commands])
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["specialize", "cases/l3_standard.json", "--chi", "cases/chi_symmetric.json", "--form", "k"],
        ["decompose", "cases/n3_decompose.json"],
    ],
    ids=op_id,
)
def test_optimized_interpreter_report_matches_golden(argv, tmp_path):
    # python -O strips assert statements: the certificates must not depend on them
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qtorus.cli", *argv, "--json", str(out_path), "--seed", "0"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    golden = GOLDENS["corpus"][op_id(argv)]
    assert proc.returncode == golden["exit"], proc.stderr
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == golden["sha256"]


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/problem.json"]) == 2
    assert "parse error: $: cannot read /nonexistent/problem.json" in capsys.readouterr().err


def test_unwritable_report_is_not_a_parse_error(tmp_path, capsys):
    # the input parses and the check passes; only writing --json fails
    out_path = tmp_path / "nodir" / "report.json"
    assert main(["center", case("l3_standard.json"), "--json", str(out_path)]) == 1
    assert "error: cannot write report:" in capsys.readouterr().err


def test_float_rationals_rejected(tmp_path, capsys):
    doc = {
        "field": {"kind": "quadratic", "D": 5},
        "q": {"entries": [[["1"], ["0.5"]], [["2"], ["1"]]]},
        "action": {"kind": "order2", "blocks": [{"sign": 1}, {"sign": 1}]},
    }
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "$.q.entries[0][1]" in capsys.readouterr().err


def test_bad_commutation_matrix_is_failed_check(tmp_path, capsys):
    # q12 * q21 != 1: well-formed document, failed identity, exit 1
    doc = {
        "field": {"kind": "quadratic", "D": 5},
        "q": {"entries": [[["1"], ["2"]], [["2"], ["1"]]]},
        "action": {"kind": "trivial"},
    }
    bad = tmp_path / "badq.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1


def test_incompatible_action_fails_with_witness(tmp_path, capsys):
    doc = {
        "field": {"kind": "quadratic", "D": 5},
        "q": {"entries": [[["1"], ["2"]], [["1/2"], ["1"]]]},
        "action": {"kind": "order2", "blocks": [{"swap": [0, 1]}]},
    }
    bad = tmp_path / "incompat.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_center_report_content(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["center", case("l3_standard.json"), "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["ok"] is True
    assert doc["inputs"]["lattice"] == [[3, 0], [0, 3]]
    gens = doc["inputs"]["generators"]
    assert len(gens) == 1 and all(gens[0]["central"])
    exps = {tuple(term["exp"]) for elt in gens[0]["basis"] for term in elt}
    assert exps == {(3, 0), (0, 3)}


def test_json_reports_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["center", case("l3_standard.json"), "--json", str(p1)]) == 0
    assert main(["center", case("l3_standard.json"), "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_validate_seed_does_not_change_outcome(tmp_path):
    p1, p2 = tmp_path / "s0.json", tmp_path / "s7.json"
    base = ["validate", case("case4_zeta3.json"), "--degree-bound", "2", "--samples", "10"]
    assert main(base + ["--json", str(p1), "--seed", "0"]) == 0
    assert main(base + ["--json", str(p2), "--seed", "7"]) == 0
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    pattern1 = [(c["name"], c["status"]) for c in d1["checks"]]
    pattern2 = [(c["name"], c["status"]) for c in d2["checks"]]
    assert pattern1 == pattern2


def test_specialize_with_chi_and_rational_form(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code = main(
        [
            "specialize",
            case("l3_standard.json"),
            "--chi",
            case("chi_symmetric.json"),
            "--form",
            "k",
            "--json",
            str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["inputs"]["dimension"] == 9
    assert doc["inputs"]["rational_dimension"] == 9
    assert doc["inputs"]["rational_center_dim"] == 1
    assert doc["inputs"]["rational_radical_dim"] == 0


def test_specialize_k_form_reports_a_center_above_one(tmp_path):
    # the dim-27 swap/sign shape has center 3 (l3_standard's k-form has 1),
    # so a rational_center_dim of 1 or of the dimension is caught
    doc = {
        "field": {"kind": "cyclotomic", "l": 3},
        "q": {"root_of_unity": {"l": 3, "s_matrix": [[0, 1, 2], [-1, 0, 2], [-2, -2, 0]]}},
        "action": {"kind": "order2", "blocks": [{"swap": [0, 1]}, {"sign": -1}]},
        "character": {"lattice": "l_center", "values": ["2", "2", "-1"]},
    }
    problem, out_path = tmp_path / "dim27.json", tmp_path / "spec.json"
    problem.write_text(json.dumps(doc))
    assert main(["specialize", str(problem), "--form", "k", "--json", str(out_path)]) == 0
    inputs = json.loads(out_path.read_text())["inputs"]
    assert inputs["rational_dimension"] == 27
    assert inputs["rational_center_dim"] == inputs["center_dim"] == 3
    assert inputs["rational_radical_dim"] == 0


def test_decompose_report(tmp_path):
    out_path = tmp_path / "dec.json"
    assert main(["decompose", case("n3_decompose.json"), "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["inputs"]["ks"] == [1]
    assert doc["inputs"]["zeros"] == 1
    assert doc["inputs"]["blocks"][0]["degree"] == 3


def test_decompose_without_character(tmp_path, capsys):
    assert main(["decompose", case("case4_zeta3.json")]) == 2


def test_normal_form_output(tmp_path):
    out_path = tmp_path / "nf.json"
    assert main(["normal-form", case("matrix_example.json"), "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["inputs"]["alternating"]["ks"] == [2]
    assert doc["inputs"]["alternating"]["zeros"] == 1
    D = doc["inputs"]["smith"]["D"]
    assert [D[i][i] for i in range(3)] == [2, 2, 0]


def test_catalog_cli():
    assert main(["catalog", "--case", "2", "--D", "5", "--q", "9,4"]) == 0
    assert main(["catalog", "--case", "2", "--D", "5", "--q", "2"]) == 1


def test_witness_cli():
    assert main(["witness", "--case", "2", "--l", "3", "--q", "0,1"]) == 0
    assert main(["witness", "--case", "4", "--l", "3", "--q", "0,1"]) == 0
    assert main(["witness", "--case", "4", "--D", "-3", "--q=-1/2,1/2"]) == 0
    # not a root of unity: precondition failure, exit 1
    assert main(["witness", "--case", "2", "--D", "5", "--q", "9,4"]) == 1


def test_witness_q_zero_is_a_precondition_failure(capsys):
    assert main(["witness", "--case", "2", "--l", "3", "--q", "0"]) == 1
    assert "precondition failed: q must be a unit" in capsys.readouterr().err


def test_witness_names_a_q_of_infinite_order(capsys):
    # 9 + 4 sqrt(5) has infinite order; unit_order's search to 2 d^2 = 8 proves it
    assert main(["witness", "--case", "2", "--D", "5", "--q", "9,4"]) == 1
    assert capsys.readouterr().err == "precondition failed: q is not a root of unity\n"


def test_catalog_large_squarefree_D_is_fast():
    # trial division stops at the cube root of the cofactor, not the square root
    start = time.perf_counter()
    assert main(["catalog", "--case", "2", "--D", "10000000000000061", "--q", "1"]) == 0
    assert time.perf_counter() - start < 5.0


def test_invariants_cli(tmp_path):
    out_path = tmp_path / "inv.json"
    assert (
        main(
            [
                "invariants",
                case("case2_sqrt5.json"),
                "--degree-bound",
                "2",
                "--json",
                str(out_path),
            ]
        )
        == 0
    )
    doc = json.loads(out_path.read_text())
    assert any(c["name"] == "completeness" and c["status"] == "pass" for c in doc["checks"])


# -- fuzz: one leaf of a shipped problem document replaced -----------------

# 10 and 10**6 reach the size bounds through $.n, l, D, the orders and the exponents,
# a side above the generator bound reaches it through a q matrix, a 60 x 60
# matrix of 41-bit entries reaches both normal-form bounds, and HUGE_LITERAL
# (written by _write as a 4,301-digit literal) reaches the decoder's digit limit
FUZZ_POOL = [
    None, True, 0, -1, 2, 10, 10**6, 1.5, "", "x", "1/0", "0", "-3", [], {}, [0], [[]],
    _side(GENERATOR_BOUND + 1), [[2**40] * 60] * 60, HUGE_LITERAL,
]
FUZZ_COMMANDS = [
    ["validate", "--degree-bound", "1", "--samples", "2"],
    ["center"],
    ["specialize"],
    ["specialize", "--form", "k"],
    ["decompose"],
    ["lcenter"],
]


def _leaf_paths(doc, path=()):
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def _problem_documents():
    docs = {}
    for name in sorted(os.listdir(CASES)):
        with open(case(name)) as fh:
            doc = json.load(fh)
        if "field" in doc:
            docs[name] = doc
    return docs


FUZZ_DOCS = _problem_documents()
# (document name, path of one leaf in it), over every leaf of every document, and
# the path of each document's q matrix
FUZZ_SITES = [(name, path) for name, doc in FUZZ_DOCS.items() for path in _leaf_paths(doc)]
FUZZ_SITES += [
    (name, ("q", "entries") if "entries" in doc["q"] else ("q", "root_of_unity", "s_matrix"))
    for name, doc in FUZZ_DOCS.items()
]


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(
    site=st.sampled_from(FUZZ_SITES),
    value=st.sampled_from(FUZZ_POOL),
    command=st.sampled_from(FUZZ_COMMANDS),
)
# always run: q[1][0] = epsilon^-1, and a zero epsilon has no inverse
@example(site=("case4_qminus1.json", ("q", "root_of_unity", "epsilon", 0)), value="0", command=["center"])
def test_fuzzed_document_exits_cleanly(site, value, command):
    # any document one value away from a shipped case passes, fails a check or
    # is a parse error naming a JSON path; it never raises out of main
    name, path = site
    doc = json.loads(json.dumps(FUZZ_DOCS[name]))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        problem = _write(Path(tmp) / "problem.json", doc)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(command + [str(problem)])
    assert code in (0, 1, 2)
    if code == 2:
        assert re.match(r"parse error: (\$|--)", err.getvalue()), err.getvalue()


def test_fuzzed_matrix_exits_cleanly(tmp_path):
    # normal-form reads no problem document, so the document fuzz never reaches it:
    # every pool value replaces the shipped matrix and each of its entries in turn
    with open(case("matrix_example.json")) as fh:
        doc = json.load(fh)
    sites = [("matrix",)] + [("matrix", i, j) for i, row in enumerate(doc["matrix"]) for j in range(len(row))]
    bad = []
    for path in sites:
        for value in FUZZ_POOL:
            fuzzed = json.loads(json.dumps(doc))
            target = fuzzed
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["normal-form", str(_write(tmp_path / "m.json", fuzzed))])
            if code not in (0, 1, 2) or code == 2 and not err.getvalue().startswith("parse error: $"):
                bad.append((path, value, code))
    assert not bad, bad[:5]


# -- sweep: the flag-only subcommands over every combination ---------------

SWEEP_D = ["-7", "-3", "-1", "2", "3", "5"]
SWEEP_Q = ["0,1", "1", "-1", "-1/2,1/2", "0", "9,4", "2", "1/2"]


def test_flag_sweep_exits_cleanly():
    # witness and catalog take only flags, so the document fuzz never reaches them
    fields = [["--l", str(l)] for l in range(2, 13)] + [["--D", D] for D in SWEEP_D]
    argvs = [["witness", "--case", c] + f for c in ("1", "2", "4") for f in fields]
    argvs += [["catalog", "--case", c, "--D", D] for c in ("1", "2", "3", "4") for D in SWEEP_D]
    bad = []
    for argv in (a + ["--q=" + q] for a in argvs for q in SWEEP_Q):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                code = repr(exc)
        if code not in (0, 1, 2):
            bad.append((argv, code))
        elif code == 2 and not re.match(r"parse error: --", err.getvalue()):
            bad.append((argv, err.getvalue()))
    assert len(argvs) * len(SWEEP_Q) == 600
    assert not bad, bad[:5]
