"""Acceptance suite: every criterion at its stated budget, zero tolerance.

Each test prints one pass/fail line through pytest; the same checks are
reachable at runtime through `qtorus selftest`.
"""

import hashlib
import json
import time

from qtorus.cli import main
from qtorus.selftest import (
    build_core_report,
    criterion_alternating,
    criterion_associativity,
    criterion_catalog,
    criterion_center,
    criterion_commutation,
    criterion_descent_completeness,
    criterion_hilbert90,
    criterion_specializations,
    criterion_witnesses,
)
from workloads import load_goldens

SEED = 0


def timed(func, *args, budget=None):
    start = time.time()
    ok, details = func(*args)
    elapsed = time.time() - start
    assert ok, details
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    return details


def test_01_commutation_identity_suite():
    details = timed(criterion_commutation, SEED, budget=5.0)
    assert details["pairs_checked"] == 1200  # 200 per (field, n) configuration


def test_02_associativity_and_cocycle():
    details = timed(criterion_associativity, SEED, budget=5.0)
    assert details["triples_checked"] == 200


def test_03_center_of_standard_torus():
    details = timed(criterion_center, budget=5.0)
    # degree <= 2: only scalars commute; degree <= 3: scalars plus the
    # eight nonzero central lattice monomials in the box
    assert details["commutant_dim_degree2"] == 1
    assert details["commutant_dim_degree3"] == 9


def test_04_descent_completeness():
    details = timed(criterion_descent_completeness, budget=10.0)
    assert details["orbits"] > 0


def test_05_cocycle_splitting():
    timed(criterion_hilbert90, SEED, budget=2.0)


def test_06_rank2_catalog():
    details = timed(criterion_catalog, budget=10.0)
    assert details["cases"] == 4


def test_07_specializations():
    details = timed(criterion_specializations, SEED, budget=30.0)
    assert details["l3n3"]["dim_l_center"] == 27


def test_08_alternating_normal_form():
    details = timed(criterion_alternating, SEED, budget=10.0)
    assert details["matrices_checked"] == 100


def test_09_crossed_product_witnesses():
    timed(criterion_witnesses, budget=2.0)


def test_10_deterministic_reports(tmp_path):
    # byte-identical to the report frozen for this seed, which is stronger
    # than two runs agreeing with each other
    p1 = tmp_path / "one.json"
    assert main(["selftest", "--json", str(p1), "--seed", str(SEED)]) == 0
    golden = load_goldens()["selftest"][str(SEED)]
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == golden["sha256"]
    doc = json.loads(p1.read_text())
    assert doc["ok"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "c01-commutation-identity",
        "c02-associativity-and-cocycle",
        "c03-center-standard-torus",
        "c04-descent-completeness",
        "c05-cocycle-splitting",
        "c06-rank2-catalog",
        "c07-specializations",
        "c08-alternating-normal-form",
        "c09-crossed-product-witnesses",
        "c10-deterministic-reports",
    ]


def test_core_report_stable_across_seeds():
    # properties hold for every seed: the pass/fail pattern cannot move
    rep = build_core_report(7)
    assert rep.ok, [c.name for c in rep.failures()]
