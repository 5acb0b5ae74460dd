import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorus.cli import main
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


# (argv before the file, document or raw text or bytes, JSON path the
# error must name); every entry exits 2, none may crash or silently
# truncate a float
MALFORMED = [
    (["validate"], {"field": {"kind": "quadratic", "D": 4}}, "$.field"),
    (["validate"], _l3("n", "two"), "$.n"),
    (["validate"], _l3("field.l", 3.7), "$.field.l"),
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
    (["validate"], _case2_entries([[["1"], ["-1"]]]), "$.q.entries[0]"),
    (["validate"], _case2_entries([[["1"], ["9", "4"]], [["9", "-4"]]]), "$.q.entries[1]"),
    (["validate"], _l3("options", {"degree_bound": -1}), "$.options.degree_bound"),
    (["invariants"], _l3("options", {"samples": 0}), "$.options.samples"),
    (["normal-form"], {"matrix": [[0, "x"], [0, 0]]}, "$.matrix[0][1]"),
    (["normal-form"], {"matrix": [[0, 1.7], [-1.7, 0]]}, "$.matrix[0][1]"),
    (["normal-form"], {"matrix": []}, "$.matrix"),
    (["normal-form"], {"matrix": [[0, 1], [2]]}, "$.matrix[1]"),
    (["normal-form"], '{"matrix": [[0, 1], [-1, 0]', "$"),
    (["specialize", case("l3_standard.json"), "--chi"], '{"values": ["2", "2"', "$"),
    (["validate"], b"\xff\xfe", "$"),
]


def _write(path, doc):
    if not isinstance(doc, (str, bytes)):
        doc = json.dumps(doc)
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

FUZZ_POOL = [None, True, 0, -1, 2, 1.5, "", "x", "1/0", "0", "-3", [], {}, [0], [[]]]
FUZZ_COMMANDS = [["validate", "--degree-bound", "1", "--samples", "2"], ["center"], ["specialize"]]


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
# (document name, path of one leaf in it), over every leaf of every document
FUZZ_SITES = [(name, path) for name, doc in FUZZ_DOCS.items() for path in _leaf_paths(doc)]


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
