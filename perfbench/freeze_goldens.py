"""Freeze the exit code and JSON report bytes of every corpus and selftest op.

    python3 perfbench/freeze_goldens.py corpus   > corpus.json
    python3 perfbench/freeze_goldens.py selftest > selftest.json
    python3 perfbench/freeze_goldens.py merge corpus.json selftest.json

Run at the commit whose outputs the benchmark should hold later
commits to; the merge step writes ``goldens.json``.  Corpus reports do
not depend on the seed, so one digest per op stands for every frozen
seed (the script stops if that ever stops being true); selftest reports
echo the seed, so they get one digest per seed.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FROZEN_SEEDS = list(range(32))


def freeze(ops):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import op_id, run_cli

    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = os.path.join(tmp, "report.json")
        for seed in FROZEN_SEEDS:
            for argv in ops:
                code, text = run_cli(argv, seed, path)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                os.remove(path)
                out.setdefault(op_id(argv), {})[str(seed)] = {"exit": code, "sha256": digest}
            print(f"seed {seed} frozen", file=sys.stderr)
    return out


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, HERE)
    from workloads import GOLDENS, corpus_ops

    if argv[0] == "corpus":
        per_seed = freeze(corpus_ops())
        frozen = {}
        for op, by_seed in per_seed.items():
            distinct = {json.dumps(v, sort_keys=True) for v in by_seed.values()}
            if len(distinct) != 1:
                raise SystemExit(f"report of {op!r} depends on the seed")
            frozen[op] = json.loads(distinct.pop())
        json.dump(frozen, sys.stdout, indent=1, sort_keys=True)
    elif argv[0] == "selftest":
        json.dump(freeze([["selftest"]])["selftest"], sys.stdout, indent=1, sort_keys=True)
    elif argv[0] == "merge":
        parts = []
        for path in argv[1:3]:
            with open(path, "r", encoding="utf-8") as fh:
                parts.append(json.load(fh))
        doc = {"frozen_seeds": FROZEN_SEEDS, "corpus": parts[0], "selftest": parts[1]}
        with open(GOLDENS, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
