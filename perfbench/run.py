"""qtorus benchmark: end-to-end timings, or per-layer counts with --trace 1.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 38 --trace 0

Run from the root of a qtorus checkout; the library is imported from
its ``src/`` directory.  Workloads (one per process, one caller, closed
loop; see README.md):

* ``corpus``: every CLI invocation on ``cases/`` that exits 0 (36 ops).
* ``selftest``: ``qtorus selftest``, one op.
* ``ladder``: at dims 9 / 27 / 64, the L-form quotient with its
  exhaustive associativity certificate, center_dim, radical_dim and
  rational_form (12 ops).

After set-up, passes repeat until the next one would end after
``--seconds``; there is always at least one.  Pass k takes its inputs
from seed 3 * seed + k % 3.  Cheap ops get extra samples spread over
the run (``workloads.Sampler``).  Every op's output is checked (frozen
report bytes, or an independent oracle for the ladder); ``failed``
counts the ops that did not pass.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
this process and six fresh ones, from before ``import qtorus`` until
the inputs are ready); ``wall_s`` (one pass: the sum over ops of each
op's median latency); ``op_p50_ms`` and ``op_p90_ms`` (percentiles of
the per-op medians); ``peak_rss_mb``.  It also prints, unbounded,
``l_form_s`` and ``k_form_s``: the same sum, of the time inside
``specialize`` and ``rational_form``.

``--trace 1`` runs one untraced pass, then wraps the layer functions
listed in ``layers.py`` and runs one traced pass on freshly built
inputs, both without extra samples; it prints call counts, self times
and counters of the traced pass, and ``trace.overhead_s`` = traced
minus untraced pass time.

The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "selftest", "ladder")
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60


def import_qtorus():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qtorus", "__init__.py")):
        raise SystemExit(f"error: no qtorus sources under {SRC}")
    sys.path.insert(0, SRC)
    import qtorus
    import qtorus.cli  # noqa: F401  (loads every module, as the qtorus command does)

    if os.path.dirname(os.path.abspath(qtorus.__file__)) != os.path.join(SRC, "qtorus"):
        raise SystemExit(f"error: imported qtorus from {qtorus.__file__}, not from {SRC}")
    return qtorus


def parse_rungs(text):
    dims = {9: (3, 2), 27: (3, 3), 64: (4, 3), 81: (3, 4)}
    try:
        return tuple(dims[int(d)] for d in text.split(","))
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(f"rungs are dims from {sorted(dims)}, comma-separated")


def make_workload(name, seed, tmpdir, rungs):
    import workloads

    if name == "corpus":
        return workloads.corpus(seed, tmpdir)
    if name == "selftest":
        return workloads.selftest(seed, tmpdir)
    return workloads.LadderWorkload(seed, rungs)


def setup(args, tmpdir):
    """Import the library and build the inputs; returns (workload, seconds)."""
    import_qtorus()
    workload = make_workload(args.workload, args.seed, tmpdir, args.rungs)
    return workload, time.perf_counter() - _PROCESS_START


def child_setup_times(args):
    """Set-up time of fresh processes, each from before ``import qtorus``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--rungs", ",".join(str(l ** n) for l, n in args.rungs)]
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_passes(workload, sampler, seconds, max_passes=None):
    """Closed loop of passes; returns (passes, op records, ops attempted).

    Passes repeat until the next one would end after ``seconds``.
    """
    records, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pending = workload.run_pass(sampler)
        records += workload.check(pending)
        del pending  # a pass's outputs must not inflate the next pass's peak memory
        durations.append(time.perf_counter() - t0)
        if max_passes is not None and len(durations) >= max_passes:
            break
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    attempted = len(records) + sampler.repeats_run
    records += [(name, False, detail) for name, detail in sampler.failures]
    return len(durations), records, attempted


def op_medians(sampler):
    """Per op: the medians over its samples of (seconds, L-form seconds, k-form seconds)."""
    return {
        name: tuple(statistics.median(column) for column in zip(*samples))
        for name, samples in sampler.samples.items()
    }


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def describe(args):
    return (f"workload={args.workload} seed={args.seed} python={platform.python_version()} "
            f"nproc={os.cpu_count()}")


def end_to_end(args, workload, setup_s, tracer):
    from workloads import Sampler

    sampler = Sampler(tracer, workload.extra)
    passes, records, attempted = run_passes(workload, sampler, args.seconds)
    setup_times = [setup_s] + child_setup_times(args)
    medians = op_medians(sampler)
    lat = [m[0] for m in medians.values()]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(describe(args))
    print(f"passes={passes} repeats of cheap ops={sampler.repeats_run} "
          f"setup samples={len(setup_times)}")
    # not bounded: on selftest they follow the seed's c07 configurations
    print(f"l_form_s={sum(m[1] for m in medians.values())} "
          f"k_form_s={sum(m[2] for m in medians.values())} (s, same sum inside specialize "
          f"and rational_form)")
    ranks = range(1, len(lat) + 1)
    print(f"{len(lat)} ops: op_p50 is the {percentile(ranks, 50)}th and op_p90 the "
          f"{percentile(ranks, 90)}th smallest op median")
    for name, (seconds, _, _) in medians.items():
        print(f"  {seconds:9.4f} s  median of {len(sampler.samples[name]):<3d} {name}")
    return metrics, records, attempted


def traced(args, workload, tmpdir):
    import layers
    from tracing import Tracer
    from workloads import Sampler

    plain = Tracer()
    plain.install(layers.op_timer_specs())
    try:
        untraced = Sampler(plain, extra=0)
        _, records, attempted = run_passes(workload, untraced, args.seconds, max_passes=1)
    finally:
        plain.uninstall()

    tracer = Tracer()
    tracer.install(layers.op_timer_specs() + layers.layer_specs())
    try:
        # inputs are built again under the tracer, so construction is counted
        fresh = make_workload(args.workload, args.seed, tmpdir, args.rungs)
        sampler = Sampler(tracer, extra=0)
        pending = fresh.run_pass(sampler)
    finally:
        tracer.uninstall()
    traced_records = fresh.check(pending)
    records += traced_records
    attempted += len(traced_records)

    def pass_time(s):
        return sum(sample[0] for samples in s.samples.values() for sample in samples)

    wall = pass_time(sampler)
    metrics = {}
    for name in layers.LAYER_NAMES + (layers.L_FORM, layers.K_FORM):
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in layers.TIMED_LAYERS:
        metrics[f"{name}.self_s"] = (tracer.self_time(name), "s")
    for name in (layers.L_FORM, layers.K_FORM):
        metrics[f"{name}.total_s"] = (tracer.total[name], "s")
    for name in layers.DISTINCT:
        metrics[f"{name}.distinct"] = (len(tracer.keys[name]), "count")
    for name in layers.COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - pass_time(untraced), "s")

    print(describe(args))
    print(f"untraced pass {pass_time(untraced):.3f} s, traced pass {wall:.3f} s")
    if tracer.missing:
        print(f"not found in this library version: {', '.join(tracer.missing)}")
    print("       calls      self_s     total_s  span")
    for name in sorted(tracer.calls, key=lambda n: -tracer.self_time(n)):
        print(f"{tracer.calls[name]:12d} {tracer.self_time(name):11.4f} {tracer.total[name]:11.4f}  {name}")
    for name, samples in sampler.samples.items():
        print(f"  traced op {samples[0][0]:9.4f} s  {name}")
    return metrics, records, attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rungs", type=parse_rungs, default="9,27,64",
                        help="ladder dims, from 9,27,64,81 (default 9,27,64)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, HERE)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        workload, setup_s = setup(args, tmpdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, records, attempted = traced(args, workload, tmpdir)
        else:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(layers.op_timer_specs())
            try:
                metrics, records, attempted = end_to_end(args, workload, setup_s, tracer)
            finally:
                tracer.uninstall()

    failed = [r for r in records if not r[1]]
    for name, _, detail in failed[:20]:
        print(f"FAILED {name}: {detail}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
