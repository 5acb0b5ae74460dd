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
import reprlib
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
    make_field,
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


# used when neither a flag nor the document's ``options`` sets the value
DEFAULT_OPTIONS = {"degree_bound": 3, "samples": 50}


# the largest (2b+1)^n monomial box that validate and invariants may walk: at
# n = 5, b = 3 (16,807 monomials) they take about 2 s and 4 s on a 2-core
# machine with Python 3.11, and the time grows with the box
MONOMIAL_BOX_BOUND = 20_000

# the most random points validate may sample: 1,000 take about 0.4 s, 5,000
# 1.7 s and 10,000 2.9 s on cases/case2_sqrt5.json on a 2-core machine with
# Python 3.11, and the time grows with the count
SAMPLES_BOUND = 10_000

# the largest dimension (the character lattice's index) of a specialization
# that specialize and decompose may build: on a 2-core machine with Python
# 3.11, specialize --form k is the slowest of the three commands, at about
# 0.3-0.4 s for swap/sign l-center documents of dims 216-256 and 3.8 s at 729
SPECIALIZATION_DIM_BOUND = 400

# the largest side and entry bit length of a normal-form matrix: on random
# antisymmetric matrices (Smith and alternating forms), side 40 with 16-bit
# entries took about 2.5 s on a 2-core machine with Python 3.11, side 40 with
# 21-bit entries 5.9 s, side 80 with 2-bit entries 4.0 s and side 20 with
# 125-bit entries 11 s, so neither side * bits nor side^3 * bits orders the cost
NORMAL_FORM_SIDE_BOUND = 40
NORMAL_FORM_BIT_BOUND = 16


def _option(spec, args, key):
    """An explicit flag, else the document's option, else the default."""
    flag = getattr(args, key)
    return spec.options.get(key, DEFAULT_OPTIONS[key]) if flag is None else flag


def _degree_bound(spec, args):
    """The degree bound b, refused before any work when its box has more than
    ``MONOMIAL_BOX_BOUND`` monomials; the error names what set the size."""
    b = _option(spec, args, "degree_bound")
    size = (2 * b + 1) ** spec.qmatrix.n
    if size > MONOMIAL_BOX_BOUND:
        if args.degree_bound is not None:
            path = "--degree-bound"
        else:
            path = "$.options.degree_bound" if "degree_bound" in spec.options else "$.n"
        raise ProblemFormatError(f"the monomial box has {size} monomials, above the bound {MONOMIAL_BOX_BOUND}", path)
    return b


def _samples(spec, args):
    """The sample count, refused before any work above ``SAMPLES_BOUND``; the
    error names what set it."""
    samples = _option(spec, args, "samples")
    if samples > SAMPLES_BOUND:
        path = "--samples" if args.samples is not None else "$.options.samples"
        raise ProblemFormatError(f"{reprlib.repr(samples)} samples is above the bound {SAMPLES_BOUND}", path)
    return samples


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
        degree_bound=_degree_bound(spec, args),
        samples=_samples(spec, args),
        seed=args.seed,
    )
    rep.extend(sub)
    return rep


def cmd_invariants(args):
    spec = load_problem(args.problem)
    bound = _degree_bound(spec, args)
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
    gens = center_generators(spec.action, lat)
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
    side = max(len(A), len(A[0]))
    bits = max(abs(x).bit_length() for row in A for x in row)
    if side > NORMAL_FORM_SIDE_BOUND or bits > NORMAL_FORM_BIT_BOUND:
        raise ProblemFormatError(
            f"the matrix has side {side} and {bits}-bit entries, above the bound of side"
            f" {NORMAL_FORM_SIDE_BOUND} and {NORMAL_FORM_BIT_BOUND}-bit entries",
            "$.matrix",
        )
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
    """(character, lattice name) from ``--chi`` or the document, refused before any
    work when the lattice's index, the specialization's dimension, is above
    ``SPECIALIZATION_DIM_BOUND``."""
    if args.chi:
        char, which = parse_character(spec.qmatrix, load_json(args.chi), "$")
        path = "--chi"
    elif spec.character is None:
        raise ProblemFormatError(
            "no character: add one to the problem or pass --chi FILE", "$.character"
        )
    else:
        char, which, path = spec.character, spec.which, "$.character.lattice"
    dim = char.lattice.index()
    if dim > SPECIALIZATION_DIM_BOUND:
        raise ProblemFormatError(
            f"the specialization has dimension {dim}, above the bound {SPECIALIZATION_DIM_BOUND}", path
        )
    return char, which


def cmd_specialize(args):
    spec = load_problem(args.problem)
    char, which = _character_from_args(spec, args)
    rep = Report("specialize", inputs={"problem": args.problem, "which": which})
    algebra = specialize(spec.action, char)
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
        # rational_form certified A_k (x) L == A_L, which keeps center and radical dims
        rep.inputs["rational_center_dim"] = cdim
        rep.inputs["rational_radical_dim"] = rdim
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


def _q_flag(text, field):
    """The rational coefficients of q given by ``--q``, at most one per power basis element."""
    q = [parse_rational(part.strip(), "--q") for part in text.split(",")]
    if len(q) > field.degree:
        raise ProblemFormatError(f"expected at most {field.degree} coefficients", "--q")
    return q


def cmd_catalog(args):
    field = make_field("--D", NumberField.quadratic, args.D)
    return catalog_case(args.case, field, _q_flag(args.q, field))


def cmd_witness(args):
    if (args.D is None) == (args.l is None):
        raise ProblemFormatError("give exactly one of --D and --l", "--l")
    if args.D is not None:
        field = make_field("--D", NumberField.quadratic, args.D)
    elif args.l in (3, 4, 6):
        field = NumberField.cyclotomic(args.l)
    else:
        raise ProblemFormatError(f"must be 3, 4 or 6 (degree 2), got {args.l}", "--l")
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
    p.add_argument("--degree-bound", type=_int_at_least(0))
    p.add_argument("--samples", type=_int_at_least(1))
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="orbit invariant bases with a completeness sweep")
    common(p)
    p.add_argument("--degree-bound", type=_int_at_least(0))
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
    p.add_argument("--l", type=int, help="cyclotomic field index 3, 4 or 6 (instead of --D)")
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
