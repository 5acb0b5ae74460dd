"""Command line front end.

Subcommands take a JSON problem document, run exact verifications, and
emit a report: human-readable on stdout and, with --json PATH, a
machine-readable JSON file.  The JSON report never contains timing, so
identical (document, seed) pairs produce byte-identical files.

Each ``cmd_*`` builds and returns a Report; ``main`` is the one runner
that times the command, emits its report and maps errors to exit codes.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
input could not be parsed (the message carries a JSON path, or the name
of the flag at fault).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .descent import (
    central_lattice,
    center_generators,
    completeness_sweep,
    l_center_lattice,
)
from .errors import CompatibilityFailure, PreconditionFailure, ProblemFormatError, QTorusError
from .galois_action import validate_action
from .numfield import NumberField
from .problems import (
    element_json,
    lattice_json,
    load_json,
    load_problem,
    parse_character,
    parse_int_matrix,
    parse_rational,
    tl_element_json,
)
from .report import Report
from .selftest import run_selftest
from .specialization import (
    catalog_case,
    crossed_product_witness,
    cyclic_decomposition,
    rational_form,
    specialize,
)
from .zlattice import alternating_normal_form, smith_normal_form


def _emit(report, args, elapsed):
    print(report.render_text(elapsed))
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return 1
    return 0 if report.ok else 1


def cmd_validate(args):
    rep = Report("validate", inputs={"problem": args.problem})
    try:
        spec = load_problem(args.problem)
    except CompatibilityFailure as err:
        rep.add("construction", False, {"error": str(err), "witness": err.witness})
        return rep
    rep.add("construction", True)
    sub = validate_action(
        spec.action,
        degree_bound=spec.options.get("degree_bound", args.degree_bound),
        samples=spec.options.get("samples", args.samples),
        seed=args.seed,
    )
    rep.extend(sub)
    return rep


def cmd_invariants(args):
    spec = load_problem(args.problem)
    bound = spec.options.get("degree_bound", args.degree_bound)
    rep = Report("invariants", inputs={"problem": args.problem, "degree_bound": bound})
    bases, failures = completeness_sweep(spec.action, bound=bound)
    orbits = []
    for rep_exp in sorted(bases):
        ib = bases[rep_exp]
        orbits.append(
            {
                "representative": list(rep_exp),
                "orbit": [list(m) for m in ib.orbit.orbit],
                "stabilizer_size": len(ib.orbit.stabilizer),
                "basis": [tl_element_json(e) for e in ib.elements],
            }
        )
        rep.add(
            f"orbit-{','.join(str(x) for x in rep_exp)}-dimension",
            len(ib.elements) == len(ib.orbit.orbit),
        )
    rep.add("completeness", not failures, {"failures": [list(m) for m in failures[:5]]} if failures else None)
    rep.inputs["orbits"] = orbits
    return rep


def cmd_center(args):
    spec = load_problem(args.problem)
    rep = Report(args.command, inputs={"problem": args.problem})
    lat = l_center_lattice(spec.qmatrix) if args.l_center else central_lattice(spec.qmatrix)
    rep.inputs["lattice"] = lattice_json(lat)
    gens = center_generators(spec.action, l_center=args.l_center)
    # center_generators raises VerificationFailed on any non-central
    # element, so every element it returns is certified central
    payload = [
        {
            "orbit": [list(m) for m in ib.orbit.orbit],
            "basis": [tl_element_json(e) for e in ib.elements],
            "central": [True] * len(ib.elements),
        }
        for ib in gens
    ]
    rep.inputs["generators"] = payload
    rep.add("lattice-computed", True)
    rep.add("generators-central", True)
    return rep


def cmd_normal_form(args):
    doc = load_json(args.matrixfile)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ProblemFormatError("expected an object with a 'matrix' key", "$")
    A = parse_int_matrix(doc["matrix"], "$.matrix")
    rep = Report("normal-form", inputs={"matrix": A})
    D, U, V = smith_normal_form(A)
    rep.inputs["smith"] = {
        "D": [list(r) for r in D],
        "U": [list(r) for r in U],
        "V": [list(r) for r in V],
    }
    rep.add("smith-form-verified", True)
    n = len(A)
    antisym = len(A[0]) == n and all(A[i][j] == -A[j][i] for i in range(n) for j in range(n))
    if antisym:
        Ua, ks, zeros = alternating_normal_form(A)
        rep.inputs["alternating"] = {
            "U": [list(r) for r in Ua],
            "ks": list(ks),
            "zeros": zeros,
        }
        rep.add("alternating-form-verified", True)
    return rep


def _character_from_args(spec, args):
    if args.chi:
        return parse_character(spec.qmatrix, load_json(args.chi), "$")
    if spec.character is None:
        raise ProblemFormatError(
            "no character: add one to the problem or pass --chi FILE", "$.character"
        )
    return spec.character, spec.which


def cmd_specialize(args):
    spec = load_problem(args.problem)
    char, which = _character_from_args(spec, args)
    rep = Report("specialize", inputs={"problem": args.problem, "which": which})
    algebra = specialize(spec.action, char, which=which)
    rep.inputs["dimension"] = algebra.dim
    rep.add("quotient-constructed", True)
    # construction checked every triple, and raises on a failing one
    rep.add("associativity", True)
    cdim = algebra.center_dim()
    rdim = algebra.radical_dim()
    rep.inputs["center_dim"] = cdim
    rep.inputs["radical_dim"] = rdim
    rep.add("semisimple", rdim == 0, None if rdim == 0 else {"radical_dim": rdim})
    if args.form == "k":
        rational, _ = rational_form(spec.action, char, algebra)
        rep.inputs["rational_dimension"] = rational.dim
        rep.add("rational-form-dimension-matches", rational.dim == algebra.dim)
        rep.inputs["rational_center_dim"] = rational.center_dim()
        rep.inputs["rational_radical_dim"] = rational.radical_dim()
    return rep


def cmd_decompose(args):
    spec = load_problem(args.problem)
    char, which = _character_from_args(spec, args)
    if which != "l_center":
        raise ProblemFormatError("decomposition needs an l_center character", "$.character")
    rep, data = cyclic_decomposition(spec.action, char)
    rep.inputs["problem"] = args.problem
    rep.inputs["ks"] = data["ks"]
    rep.inputs["zeros"] = data["zeros"]
    rep.inputs["generators"] = [list(g) for g in data["generators"]]
    rep.inputs["blocks"] = [
        {
            "k": blk["k"],
            "k_effective": blk["k_effective"],
            "degree": blk["degree"],
            "omega": element_json(blk["omega"]),
            "a": element_json(blk["a"]) if blk["a"] is not None else None,
            "b": element_json(blk["b"]) if blk["b"] is not None else None,
        }
        for blk in data["blocks"]
    ]
    rep.inputs["commuting"] = [
        element_json(c) if c is not None else None for c in data["commuting"]
    ]
    return rep


def _field_flag(flag, make, value):
    """The field ``make(value)`` names; a value it rejects is a parse error at ``flag``."""
    try:
        return make(value)
    except ValueError as err:
        raise ProblemFormatError(str(err), flag) from err


def _q_flag(text, field):
    """The rational coefficients of q given by ``--q``, at most one per power basis element."""
    q = [parse_rational(part.strip(), "--q") for part in text.split(",")]
    if len(q) > field.degree:
        raise ProblemFormatError(f"expected at most {field.degree} coefficients", "--q")
    return q


def cmd_catalog(args):
    field = _field_flag("--D", NumberField.quadratic, args.D)
    return catalog_case(args.case, field, _q_flag(args.q, field))


def cmd_witness(args):
    if (args.D is None) == (args.l is None):
        raise ProblemFormatError("give exactly one of --D and --l", "--l")
    if args.D is not None:
        field = _field_flag("--D", NumberField.quadratic, args.D)
    else:
        field = _field_flag("--l", NumberField.cyclotomic, args.l)
    return crossed_product_witness(args.case, field, _q_flag(args.q, field))


def cmd_selftest(args):
    return run_selftest(seed=args.seed)


def _int_at_least(low):
    """An argparse ``type``: an integer no less than ``low``, else argparse exits 2."""

    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="exact verification for Galois forms of twisted Laurent algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True):
        if problem:
            p.add_argument("problem", help="path to a JSON problem document")
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="re-verify every defining identity of the action")
    common(p)
    p.add_argument("--degree-bound", type=_int_at_least(0), default=3)
    p.add_argument("--samples", type=_int_at_least(1), default=50)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="orbit invariant bases with a completeness sweep")
    common(p)
    p.add_argument("--degree-bound", type=_int_at_least(0), default=3)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("center", help="central lattice and invariant center generators")
    common(p)
    p.set_defaults(func=cmd_center, l_center=False)

    p = sub.add_parser("lcenter", help="same as center, on the l-th power sublattice")
    common(p)
    p.set_defaults(func=cmd_center, l_center=True)

    p = sub.add_parser("normal-form", help="Smith and alternating normal forms of a matrix")
    p.add_argument("matrixfile", help="JSON file with a 'matrix' key")
    common(p, problem=False)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("specialize", help="finite-dimensional fiber at a central character")
    common(p)
    p.add_argument("--chi", metavar="FILE", help="JSON character file")
    p.add_argument("--form", choices=("L", "k"), default="L")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("decompose", help="cyclic block decomposition of a specialization")
    common(p)
    p.add_argument("--chi", metavar="FILE")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("catalog", help="verify one of the four rank-2 presentations")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated rational coefficients of q")
    common(p, problem=False)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("witness", help="order-2 crossed-product witness checks")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 4))
    p.add_argument("--D", type=int, help="quadratic field discriminant")
    p.add_argument("--l", type=int, help="cyclotomic field index (instead of --D)")
    p.add_argument("--q", required=True)
    common(p, problem=False)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("selftest", help="run the complete acceptance suite")
    common(p, problem=False)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    """Run one subcommand: time it, emit its report, map errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        start = time.time()
        report = args.func(args)
        return _emit(report, args, time.time() - start)
    except ProblemFormatError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except PreconditionFailure as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return 1
    except QTorusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
