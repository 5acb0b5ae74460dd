"""Self-test of the benchmark harness on a reduced ladder (dims 9 and 27).

    python3 perfbench/selfcheck.py

Checks that every end-to-end metric in BENCHMARK.json prints with its
unit, that a corrupted frozen report shows up as a failed op, that a
traced run prints every per-layer metric, that two traced runs with one
seed give identical counts, and that the benchmark fails without the
library sources next to it.  Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
REDUCED = ["--workload", "ladder", "--seed", "3", "--seconds", "1", "--rungs", "9,27"]


def last_json(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert result["correct"] is True and result["failed"] == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    for spec in declared:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{spec['name']}: unit {got['unit']}, declared {spec['unit']}"
        assert isinstance(got["value"], (int, float)), spec["name"]


def check_corrupted_golden():
    sys.path.insert(0, HERE)
    import run

    run.import_qtorus()
    import workloads
    from tracing import Tracer

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        assert 0 in workloads.load_goldens()["frozen_seeds"]
        bench = workloads.corpus(0, tmp)
        bench.ops = [op for op in bench.ops if op[0] == "normal-form"]
        pending = bench.run_pass(workloads.Sampler(Tracer(), extra=0))
        assert [r[1] for r in bench.check(pending)] == [True], "intact golden must pass"
        good = bench.golden(workloads.op_id(bench.ops[0]), 0)
        bad = dict(good, sha256=("0" if good["sha256"][0] != "0" else "1") + good["sha256"][1:])
        bench.golden = lambda op, seed: bad
        records = bench.check(pending)
        assert [r[1] for r in records] == [False], f"corrupted golden must fail: {records}"


def check_bare_directory():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "selftest", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, "benchmark must fail without the library sources"
        assert '"metrics"' not in proc.stdout, "no result may be printed without the library"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)

    check_metrics(last_json(REDUCED + ["--trace", "0"]), bench["end_to_end"])
    print("ok: every end-to-end metric prints with its unit")

    check_corrupted_golden()
    print("ok: a corrupted frozen report is a failed op")

    first = last_json(REDUCED + ["--trace", "1"])
    check_metrics(first, bench["per_layer"])
    print("ok: a traced run prints every per-layer metric")

    second = last_json(REDUCED + ["--trace", "1"])
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    diff = {k: (counts[k], again.get(k)) for k in counts if counts[k] != again.get(k)}
    assert not diff, f"traced counts differ between two runs with one seed: {diff}"
    print(f"ok: {len(counts)} counts identical across two traced runs")

    check_bare_directory()
    print("ok: without the library sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
