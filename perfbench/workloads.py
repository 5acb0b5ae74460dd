"""The three workloads: inputs from a seed, timed ops, and output checks.

Every workload is a closed loop with one caller: the next call starts
when the previous one returns.  ``run_pass`` makes every op once through
a ``Sampler`` and returns the raw outputs; ``check`` turns them into one
record per op, ``(name, ok, detail)``.  Checks run after the pass (and
after a tracer is removed), so they never count towards a latency or a
layer count.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from itertools import product

from layers import K_FORM, L_FORM

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# ops faster than this are cheap: their latency is as noisy as the moment
# they ran, so they get extra samples
CHEAP_S = 0.25
SEEDS_PER_RUN = 3


def pass_seeds(seed):
    """Input seeds of a run: pass k uses ``pass_seeds(seed)[k % 3]``.

    Inputs differ in cost (a selftest seed draws its own matrices, a
    ladder seed its own S and character), so a run covers three draws
    and no single draw sets a run's medians.
    """
    return [SEEDS_PER_RUN * seed + k for k in range(SEEDS_PER_RUN)]


class Sampler:
    """Times the ops of one run and spreads extra samples of cheap ops over it.

    A shared machine changes speed over seconds.  One sample per pass
    would leave a cheap op's median at the mercy of two or three
    moments, so after each slow op the sampler repeats the next few
    cheap ops (round robin).  A repeat starts from inputs as fresh as
    the first sample's and checks its own result.  Each sample is
    (seconds, seconds inside L-form calls, seconds inside k-form calls),
    the last two read from the op timers of ``tracer``.
    """

    def __init__(self, tracer, extra):
        self.tracer = tracer
        self.extra = extra
        self.samples = defaultdict(list)
        self.repeats = {}
        self.cursor = 0
        self.repeats_run = 0
        self.failures = []

    def _measure(self, thunk):
        total = self.tracer.total
        gc.collect()  # collector work inside an op then depends on that op alone
        l0, k0 = total[L_FORM], total[K_FORM]
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        return (elapsed, total[L_FORM] - l0, total[K_FORM] - k0), result

    def run(self, name, thunk, again=None):
        """Time ``thunk()``; ``again()`` prepares a self-checking repeat of it."""
        sample, result = self._measure(thunk)
        self.samples[name].append(sample)
        if sample[0] >= CHEAP_S:
            self.repeat_cheap()
        elif again is not None:
            self.repeats[name] = again
        return result

    def repeat_cheap(self):
        names = list(self.repeats)
        for _ in range(self.extra if names else 0):
            name = names[self.cursor % len(names)]
            self.cursor += 1
            self.repeats_run += 1
            try:
                sample, _ = self._measure(self.repeats[name]())
            except Exception:  # a repeat that fails is a failed op
                self.failures.append((name, traceback.format_exc(limit=3)))
                continue
            self.samples[name].append(sample)


# ---------------------------------------------------------------------------
# CLI workloads: corpus and selftest

_DOCS = (
    "case1_rational",
    "case2_sqrt5",
    "case3_sqrt5",
    "case4_qminus1",
    "case4_zeta3",
    "l3_standard",
    "n3_decompose",
)
_ROOT_OF_UNITY_DOCS = ("case4_qminus1", "case4_zeta3", "l3_standard", "n3_decompose")


def corpus_ops():
    """Every CLI invocation on ``cases/`` that exits 0, as argv lists.

    Paths stay relative to the repository root because the JSON reports
    echo them.
    """
    ops = [["validate", f"cases/{d}.json"] for d in _DOCS]
    ops += [["invariants", f"cases/{d}.json"] for d in _DOCS]
    ops += [[cmd, f"cases/{d}.json"] for cmd in ("center", "lcenter") for d in _ROOT_OF_UNITY_DOCS]
    ops.append(["normal-form", "cases/matrix_example.json"])
    ops.append(["specialize", "cases/l3_standard.json"])
    ops.append(["specialize", "cases/l3_standard.json", "--chi", "cases/chi_symmetric.json", "--form", "k"])
    ops.append(["specialize", "cases/n3_decompose.json"])
    ops += [["decompose", f"cases/{d}.json"] for d in ("l3_standard", "n3_decompose")]
    # the selftest catalog corpus plus case 1
    for case, D, q in ((1, 5, "7"), (2, 5, "9,4"), (3, 5, "7"), (4, -3, "-1/2,1/2"), (4, 5, "-1")):
        ops.append(["catalog", "--case", str(case), "--D", str(D), f"--q={q}"])
    ops += [["witness", "--case", str(case), "--l", "3", "--q", "0,1"] for case in (1, 2, 4)]
    return ops


def op_id(argv):
    return " ".join(argv)


def load_goldens():
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv, seed, out_path):
    """One in-process ``qtorus`` invocation writing its JSON report to out_path.

    Returns (exit code, error text); the text report goes to a buffer.
    """
    from qtorus.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(list(argv) + ["--json", out_path, "--seed", str(seed)])
    except Exception:  # an op that crashes is a failed op, not a crashed benchmark
        return None, traceback.format_exc(limit=3)
    return code, sink.getvalue()[-400:] if code else ""


def check_report(golden, seed, code, out_path, frozen_seeds):
    """(ok, detail) for one CLI op against its frozen exit code and bytes.

    For a seed whose report was frozen the bytes must match; for any
    other seed the exit code must match and the report must say ok.
    """
    if code != golden["exit"]:
        return False, f"exit {code}, expected {golden['exit']}"
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        return False, f"no report: {err}"
    if seed in frozen_seeds:
        digest = hashlib.sha256(data).hexdigest()
        if digest != golden["sha256"]:
            return False, f"report sha256 {digest[:12]} differs from the frozen {golden['sha256'][:12]}"
        return True, ""
    try:
        ok = json.loads(data)["ok"] is True
    except (ValueError, KeyError, TypeError) as err:
        return False, f"unreadable report: {err}"
    return ok, "" if ok else "report says ok: false"


class CliWorkload:
    """A fixed list of CLI invocations, checked against frozen reports.

    ``golden(op, seed)`` is the frozen {"exit", "sha256"} of an op, or None.
    """

    # about ten samples per cheap op in a run: 26 of the 36 corpus ops are
    # cheap, and a pass has 10 slow ones
    extra = 10

    def __init__(self, seed, tmpdir, ops, golden, frozen_seeds):
        self.seeds = pass_seeds(seed)
        self.passes = 0
        self.tmpdir = tmpdir
        self.ops = ops
        self.golden = golden
        self.frozen_seeds = frozen_seeds

    def _again(self, argv, seed):
        golden = self.golden(op_id(argv), seed)
        if golden is None:
            return None
        path = os.path.join(self.tmpdir, "repeat.json")

        def call():
            code, text = run_cli(argv, seed, path)
            if code != golden["exit"]:
                raise RuntimeError(f"exit {code}, expected {golden['exit']}: {text}")

        return lambda: call

    def run_pass(self, sampler):
        seed = self.seeds[self.passes % len(self.seeds)]
        self.passes += 1
        results = []
        for i, argv in enumerate(self.ops):
            out_path = os.path.join(self.tmpdir, f"op{i}.json")
            if os.path.exists(out_path):
                os.remove(out_path)
            code, text = sampler.run(
                op_id(argv), lambda: run_cli(argv, seed, out_path), self._again(argv, seed)
            )
            results.append((argv, seed, code, text, out_path))
        return results

    def check(self, results):
        records = []
        for argv, seed, code, text, out_path in results:
            golden = self.golden(op_id(argv), seed)
            if golden is None:
                ok, detail = False, "no frozen report for this op"
            else:
                ok, detail = check_report(golden, seed, code, out_path, self.frozen_seeds)
            records.append((op_id(argv), ok, (detail + " " + text).strip()))
        return records


def corpus(seed, tmpdir):
    """Corpus reports do not depend on the seed: one golden per op."""
    goldens = load_goldens()
    frozen = goldens["corpus"]
    return CliWorkload(
        seed, tmpdir, corpus_ops(), lambda op, s: frozen.get(op), set(goldens["frozen_seeds"])
    )


def selftest(seed, tmpdir):
    """``qtorus selftest``; reports echo the seed, so each seed has its own golden."""
    goldens = load_goldens()
    frozen = goldens["selftest"]
    return CliWorkload(
        seed, tmpdir, [["selftest"]],
        lambda op, s: frozen.get(str(s), {"exit": 0, "sha256": ""}),
        set(goldens["frozen_seeds"]),
    )


# ---------------------------------------------------------------------------
# specialization ladder


def _draw_rung(l, n, rng):
    """Commutation exponents S, swap/sign blocks and l-center values.

    S is drawn with unit entries mod l in the pattern the order-2 action
    needs (sigma(q) = q^-1 on each entry): a swap (0 1) reverses S[0][1],
    a sign on x_2 needs S[0][2] == S[1][2], and a second swap (2 3)
    needs S[1][3] == -S[0][2] and S[1][2] == -S[0][3].  The character
    is equivariant: swapped generators share one value, a sign generator
    gets +-1.
    """
    unit = lambda: rng.choice((1, -1))  # noqa: E731
    value = lambda: Fraction(rng.choice((2, 3, 5, 7)))  # noqa: E731
    if n == 2:
        s = unit()
        v = value()
        return [[0, s], [-s, 0]], [{"swap": [0, 1]}], [v, v]
    if n == 3:
        a, b = unit(), unit()
        v = value()
        S = [[0, a, b], [-a, 0, b], [-b, -b, 0]]
        return S, [{"swap": [0, 1]}, {"sign": -1}], [v, v, Fraction(unit())]
    s, t, a, b = unit(), unit(), unit(), unit()
    v, w = value(), value()
    S = [[0, s, a, b], [-s, 0, -b, -a], [-a, b, 0, t], [-b, a, -t, 0]]
    return S, [{"swap": [0, 1]}, {"swap": [2, 3]}], [v, v, w, w]


def _center_count(l, S):
    """Brute force: digit vectors g in [0, l)^n with S g == 0 (mod l)."""
    n = len(S)
    return sum(
        1
        for g in product(range(l), repeat=n)
        if all(sum(a * x for a, x in zip(row, g)) % l == 0 for row in S)
    )


def _expect(got, want, what):
    if got != want:
        raise RuntimeError(f"{what} {got}, expected {want}")


class Rung:
    """One ladder rung, built with the library's certificates.

    Every construction makes a new field, matrix, action and character,
    so no cache of an earlier one is warm.
    """

    def __init__(self, l, n, S, blocks, values):
        from qtorus import NumberField
        from qtorus.galois_action import build_order2_action
        from qtorus.specialization import CentralCharacter
        from qtorus.torus import QMatrix

        self.l, self.n, self.S, self.blocks, self.values = l, n, S, blocks, values
        field = NumberField.cyclotomic(l)
        self.qmatrix = QMatrix.from_root_of_unity(field, l, field.gen(), S)
        self.action = build_order2_action(self.qmatrix, field.galois, blocks)
        self.character = CentralCharacter.for_l_center(self.qmatrix, values)

    @classmethod
    def draw(cls, l, n, rng):
        return cls(l, n, *_draw_rung(l, n, rng))

    def fresh(self):
        return Rung(self.l, self.n, self.S, self.blocks, self.values)

    @property
    def dim(self):
        return self.l ** self.n

    def l_form(self):
        from qtorus import specialization

        return specialization.specialize(self.action, self.character, which="l_center")

    def k_form(self, algebra):
        from qtorus import specialization

        return specialization.rational_form(self.action, self.character, algebra)[0]

    def again_l_form(self):
        fresh = self.fresh()
        return lambda: _expect(fresh.l_form().dim, self.dim, "dim")

    def again_k_form(self):
        fresh = self.fresh()
        algebra = fresh.l_form()
        return lambda: _expect(fresh.k_form(algebra).dim, self.dim, "rational dim")


def _again_same(method, stage, key):
    """Repeat of a method of an algebra (which holds no cache) that must agree."""
    return lambda: lambda: _expect(method(), stage[key], key)


class LadderWorkload:
    """Specializations of growing dimension: L-form, center, radical, k-form.

    Inputs are built anew for every pass, outside the timed calls, so
    each pass starts with cold caches.
    """

    # about eight samples per cheap stage in a run: 7 of the 12 stages are
    # cheap, and a pass has 5 slow ones
    extra = 3

    def __init__(self, seed, rungs):
        self.seeds = pass_seeds(seed)
        self.shapes = rungs
        self.passes = 0
        self.rungs = self.draw(self.seeds[0])

    def draw(self, seed):
        rng = random.Random(seed)
        return [Rung.draw(l, n, rng) for l, n in self.shapes]

    def run_pass(self, sampler):
        if self.passes:
            self.rungs = self.draw(self.seeds[self.passes % len(self.seeds)])
        self.passes += 1
        # repeats hold the last pass's algebras; drop them so peak memory
        # does not depend on the number of passes
        sampler.repeats.clear()
        done = []
        for rung in self.rungs:
            stage, errors = {}, []
            name = f"dim{rung.dim}."
            try:
                algebra = stage["l_form"] = sampler.run(name + "l_form", rung.l_form, rung.again_l_form)
                for key in ("center_dim", "radical_dim"):
                    method = getattr(algebra, key)
                    stage[key] = sampler.run(name + key, method, _again_same(method, stage, key))
                stage["k_form"] = sampler.run(
                    name + "k_form", lambda: rung.k_form(algebra), rung.again_k_form
                )
            except Exception:  # a crashed stage is a failed op
                errors.append(traceback.format_exc(limit=3))
            done.append((rung, stage, errors))
        return done

    def check(self, done):
        records = []
        for rung, stage, errors in done:
            verdicts = check_rung(rung, stage)
            for key in ("l_form", "center_dim", "radical_dim", "k_form"):
                ok, detail = verdicts.get(key, (False, " ".join(errors) or "not run"))
                records.append((f"dim{rung.dim}.{key}", ok, detail))
        return records


def check_rung(rung, stage):
    """Independent checks of each stage's output, keyed like ``stage``."""
    out = {}
    if "l_form" in stage:
        out["l_form"] = check_structure_constants(rung, stage["l_form"])
    if "center_dim" in stage:
        want = _center_count(rung.l, rung.S)
        got = stage["center_dim"]
        out["center_dim"] = (got == want, "" if got == want else f"center_dim {got}, brute force {want}")
    if "radical_dim" in stage:
        got = stage["radical_dim"]
        out["radical_dim"] = (got == 0, "" if got == 0 else f"radical_dim {got}")
    if "k_form" in stage:
        got = stage["k_form"].dim
        out["k_form"] = (got == rung.dim, "" if got == rung.dim else f"rational dim {got}")
    return out


def check_structure_constants(rung, algebra):
    """Recompute e_g * e_h = c(g, h) c(r, lam)^-1 chi(lam) e_r for every pair.

    Here g + h = r + lam with r in [0, l)^n and lam in l Z^n.
    """
    if algebra.dim != rung.dim:
        return False, f"dim {algebra.dim}, expected {rung.dim}"
    Q, chi, l = rung.qmatrix, rung.character, rung.l
    labels = list(algebra.labels)
    if sorted(labels) != list(product(range(l), repeat=rung.n)):
        return False, "basis labels are not the digit vectors"
    position = {lab: i for i, lab in enumerate(labels)}
    for i, g in enumerate(labels):
        for j, h in enumerate(labels):
            s = [a + b for a, b in zip(g, h)]
            r = tuple(x % l for x in s)
            lam = tuple(x - y for x, y in zip(s, r))
            want = Q.cocycle(g, h) * Q.cocycle(r, lam).inverse() * chi.value(lam)
            got = algebra.mul(algebra.basis_vec(i), algebra.basis_vec(j))
            if got != {position[r]: want}:
                return False, f"structure constant e{g} * e{h} differs"
    return True, ""
