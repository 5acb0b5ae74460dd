"""Run the benchmark over several seeds and record every run with its spread.

    python3 perfbench/record.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/record.py --seeds 0-4 --workloads ladder --out /tmp/ladder.json

Each run is one ``run.py`` process with ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric the record holds the
median over seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(bench, runs):
    out = {}
    for spec in bench["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[spec["name"]] = {"median": median, "spread": (q3 - q1) / median, "bound": spec["bound"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true", help="also record one traced run per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            result = run_once(cmd, name, seed, bench["run_seconds"], 0)
            runs.append(dict(result, seed=seed))
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        entry = {"runs": runs, "summary": summarize(bench, runs) if len(runs) >= 2 else {}}
        if args.trace:
            entry["traced"] = dict(run_once(cmd, name, args.seeds[0], bench["run_seconds"], 1),
                                   seed=args.seeds[0])
        record["workloads"][name] = entry
        for metric, s in entry["summary"].items():
            print(f"{name} {metric}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
