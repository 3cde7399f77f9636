#!/usr/bin/env python3
"""Repeat the perfbench workloads and record their spread as a BENCH_*.json file.

    python3 tools/bench.py --runs 10 --out BENCH_6.json
    python3 tools/bench.py --runs 10 --tree parent=../old --tree change=. --out BENCH_6.json

Each run is one ``perfbench/run.py --workload W --seed S --seconds T`` in
a fresh interpreter, started in the root of its checkout, so every tree
is measured with its own benchmark files, unedited.  Run i uses seed
``--seed + i`` for every tree.  With two or more trees the order inside a
run alternates (the first tree leads on even runs), and the file records,
per metric, how many runs the last tree beat the first.  The sweeps below
alternate the same way, per model and per repeat.  Every command of a
tree runs with the tree's own bytecode cache (``PYTHONPYCACHEPREFIX``),
empty at the start and written as the tree's modules are first imported,
so that no tree recompiles a module at every import because of stale
bytecode beside its source.

Per tree, workload and metric the file holds every value, the min, the
quartiles, the median and the spread (interquartile range over the
median); per run it holds the report digest and whether every op was
correct.  Per tree it also holds ``src_lines``, the line count of
``src/polydarboux/*.py`` (as ``wc -l`` counts it), and ``sweep``, a
dimension sweep run once after the workloads: the wall time and exit code
of ``analyze --json`` and of ``darboux --json`` on each conjugated
``canonical`` model of ``SWEEP`` (shuffle seed 3), each under a timeout of
``SWEEP_TIMEOUT`` seconds (exit code null when it ran out), with the
sha256 of its stdout and its peak RSS (``ru_maxrss`` from ``os.wait4``
on the command, forked from a small helper).  The models are
``poly N nhat 1`` for nhat = 1, 2, 3 and dimensions N * (nhat + 1) from
16 to 64, then poly models with k = 2 and 3 (forms of degree 3 and 4) and
multi models, of dimensions 15 to 64, then ``poly N nhat 1`` models of
dimensions 96 to 1 024.
``small_support`` is a record of the same kind on the 2-form e13 + e24
declared in each dimension of ``SMALL_SUPPORT_DIMS``, where the work
should not grow with the declared dimension.  Each of its commands runs
``SMALL_SUPPORT_REPEATS`` times: ``seconds`` and ``peak_rss_mb`` list
every repeat, with ``*_min`` and ``*_max`` beside them, and the repeats
must print the same bytes (the tool stops otherwise).  With two or more trees,
``sweep_digests_equal`` and ``small_support_digests_equal`` say whether
the first and the last tree printed the same bytes on every command.
``traced`` holds, per tree and workload, one traced pass run after the
series, ``perfbench/run.py --trace 1 --seed 7 --seconds 5``:
its report digest, whether it printed ``TRACE CHECK FAILED`` (a
``must_fire`` function that never ran, a report that tracing changed, or
counts that differ between its two passes) and its per-layer metrics.
``homotopy_sweep`` is a record of the same kind for ``homotopy --json``
on the closed forms d(beta) of ``HOMOTOPY_SWEEP`` (dims 8 to 24, degrees
3 and 4), written once by the first tree and read by every tree;
``homotopy_sweep_digests_equal`` compares the first and the last tree on it.
``detection`` holds, per tree, the ``not_found`` count of the single
component searches on two grids of conjugated canonical models, per cell
and in total: acceptance criterion 2's n-hat = 1 grid, (N, k) with
k <= N <= 4 plus (5, 2), (5, 3) and (6, 2), ``search_polylagrangian`` on
20 seeds each (``1000 * s + 7``), and criterion 3's grid,
``detect_multilagrangian`` on 4 seeds each (``500 * s + 3``).  It is
deterministic: a record of how far detection is from a decision, not a
gate.
``fractions_per_op`` holds, per tree and workload, the number of
``fractions.Fraction`` objects built per op over one seed-1 round, counted
in a child interpreter that builds the round as perfbench does and wraps
``Fraction.__new__`` only while the ops run.  It is deterministic: a
record, not a gate.
``moser_agreement`` holds, per tree, the ``numpy.linalg.lstsq`` and
``numpy.linalg.solve`` calls per op over one seed-1 ``moser`` round,
counted the same way, so the record shows which solver each stage took,
and against the first tree the largest |difference| of the printed
residuals, op by op and sample by sample, and whether every
``min_jacobian_det`` string is equal: the flow's float answers may move in
their last digits.
``moser_stage`` holds, per tree, the microseconds of one Runge-Kutta stage,
``DeformationField.batch(points, 0.5, with_jacobian=True)`` on the seed-1
``perturbed_multisymplectic`` fixture, at each sample count of
``MOSER_STAGE_SAMPLES`` (points of the radius-0.1 ball, as ``moser`` draws
them by default): ``MOSER_STAGE_ROUNDS`` rounds, alternating between the trees,
each the min over ``MOSER_STAGE_REPEATS`` repeats of ``MOSER_STAGE_CALLS`` calls
in a fresh interpreter; it lists every round's figure and their min.
``moser_step`` is a record of the same kind at ten samples, for ``step``, one
full Runge-Kutta step with the Jacobian update and its ``det``
(``integrate_flow_batch`` over one step, its start included), and for
``check``, the comparison after the flow of a 20-step op: the tree's
``_pullback_residuals`` on the final points and Jacobians, or, on a tree
without it, the per-sample loop that ``_flow_residuals`` ran there.
The Python version and the CPU count come from this interpreter.  Runs
go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the ``canonical`` arguments of the sweep's models
SWEEP = [("poly", n, nhat, 1) for n, nhat in [(8, 1), (16, 1), (24, 1), (32, 1), (6, 2), (11, 2),
                                              (16, 2), (21, 2), (4, 3), (8, 3), (12, 3), (16, 3)]]
SWEEP += [("poly", n, 1, 3) for n in (5, 6, 7, 8)] + [("poly", 8, 1, 2), ("poly", 10, 1, 2)]
SWEEP += [("multi", n, 2, 2, 2) for n in (4, 8, 12)] + [("multi", 8, 2, 2, 3)]
SWEEP += [("poly", n, nhat, 1) for n, nhat in [(48, 1), (32, 2), (24, 3), (64, 2), (128, 1),
                                              (256, 1), (512, 1)]]
SWEEP_TIMEOUT = 30.0
# declared dimensions of the small-support series
SMALL_SUPPORT_DIMS = (128, 256, 512, 1024)
# runs of each small-support command: its RSS at R^1024 moves by tens of MB from run to run
SMALL_SUPPORT_REPEATS = 3
# the (dim, degree) of the homotopy sweep's closed forms
HOMOTOPY_SWEEP = [(dim, k) for dim in (8, 12, 16, 20, 24) for k in (3, 4)]
# the traced pass run once per tree and workload after the series
TRACED_SEED, TRACED_SECONDS = 7, 5.0
# sample counts of the moser stage record: one point, one perfbench op's ten, two full
# blocks of 3 x 3 systems and a partial one, and ten blocks
MOSER_STAGE_SAMPLES = (1, 10, 21, 100)
MOSER_STAGE_ROUNDS, MOSER_STAGE_REPEATS, MOSER_STAGE_CALLS = 5, 15, 20
# samples and flow steps of the moser step record: one perfbench op's
MOSER_STEP_SAMPLES, MOSER_STEP_FLOW = 10, 20


def tree_env(tree: Path, pycache: Path) -> dict:
    """The environment of every command run on ``tree``: its ``src`` and its bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: Path, env: dict, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    summary = json.loads(lines[-1])
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("report digest")), None)
    out = {"seed": seed, "digest": digest, "correct": summary["correct"],
           "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}
    if trace:
        out["trace_check_failed"] = [ln for ln in lines if ln.startswith("TRACE CHECK FAILED")]
    return out


def traced(label: str, tree: Path, env: dict, workloads: list) -> dict:
    """One traced pass per workload: digest, failed trace checks and per-layer metrics."""
    out = {}
    for w in workloads:
        out[w] = res = run_once(tree, env, w, TRACED_SEED, TRACED_SECONDS, trace=1)
        print(f"traced {w} {label}: digest {res['digest'][:12]} "
              f"{'TRACE CHECK FAILED' if res['trace_check_failed'] else 'checks hold'}", flush=True)
    return out


# Builds one seed-1 round of a workload with the tree's own perfbench, runs its ops with
# ``Fraction.__new__`` wrapped and prints the Fractions built per op.
_FRACTION_COUNTER = """\
import sys, tempfile
from fractions import Fraction
from pathlib import Path
sys.path.insert(0, "perfbench")
import run
cli = run.import_program()
from workloads import WORKLOADS
wl = WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory() as tmp:
    ops = [op for panel in wl.build(1, wl.panels, Path(tmp)) for op in panel]
    run.run_op(cli, run.WARMUP)
    built, new = 0, Fraction.__new__
    def counted(cls, *args, **kwargs):
        global built
        built += 1
        return new(cls, *args, **kwargs)
    Fraction.__new__ = counted
    for op in ops:
        run.run_op(cli, op.argvs)
print(built / len(ops))
"""


# Builds the seed-1 round of ``moser`` with the tree's own perfbench, runs its ops with
# ``numpy.linalg.lstsq`` and ``numpy.linalg.solve`` wrapped and prints, as JSON, the calls
# of each per op and each op's residual and ``min_jacobian_det`` strings.
_MOSER_ROUND = """\
import json, sys, tempfile
from pathlib import Path
import numpy
sys.path.insert(0, "perfbench")
import run
cli = run.import_program()
from workloads import WORKLOADS
wl = WORKLOADS["moser"]
with tempfile.TemporaryDirectory() as tmp:
    ops = [op for panel in wl.build(1, wl.panels, Path(tmp)) for op in panel]
    run.run_op(cli, run.WARMUP)
    calls = dict.fromkeys(["lstsq", "solve"], 0)
    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call
    for name in calls:
        setattr(numpy.linalg, name, counted(name, getattr(numpy.linalg, name)))
    reports = [json.loads(run.run_op(cli, op.argvs).stdout)["result"] for op in ops]
print(json.dumps({"lstsq_calls_per_op": calls["lstsq"] / len(ops),
                  "solve_calls_per_op": calls["solve"] / len(ops),
                  "residuals": [r["residuals"] for r in reports],
                  "min_jacobian_det": [r["min_jacobian_det"] for r in reports]}))
"""


def moser_agreement(trees: list) -> dict:
    rounds = [json.loads(subprocess.run([sys.executable, "-c", _MOSER_ROUND], cwd=path, env=env,
                                        capture_output=True, text=True, check=True).stdout)
              for _, path, env in trees]
    first = rounds[0]
    return {label: {
        "lstsq_calls_per_op": r["lstsq_calls_per_op"],
        "solve_calls_per_op": r["solve_calls_per_op"],
        "max_residual_delta": max(abs(float(a) - float(b))
                                  for ops_a, ops_b in zip(r["residuals"], first["residuals"],
                                                          strict=True)
                                  for a, b in zip(ops_a, ops_b, strict=True)),
        "min_jacobian_det_equal": r["min_jacobian_det"] == first["min_jacobian_det"],
    } for (label, _, _), r in zip(trees, rounds)}


# Prints, as JSON, the min over argv[2] repeats of the microseconds per call of argv[3]
# calls of one Runge-Kutta stage with the Jacobian, per sample count of argv[1].
_MOSER_STAGE = """\
import json, sys, time
import numpy as np
from polydarboux.moser import DeformationField, ball_sample_points, perturbed_multisymplectic
from polydarboux.polyforms import moser_potential
fx = perturbed_multisymplectic(seed=1)
field = DeformationField(fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0))
repeats, calls = int(sys.argv[2]), int(sys.argv[3])
out = {}
for n in json.loads(sys.argv[1]):
    points = np.array(ball_sample_points(fx.omega.dim, n, 0.1))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            field.batch(points, 0.5, with_jacobian=True)
        best = min(best, (time.perf_counter() - t0) / calls)
    out[n] = round(best * 1e6, 2)
print(json.dumps(out))
"""


def _timed_rounds(trees: list, script: str, args: list, keys: list) -> dict:
    """Per tree and key of ``script``'s JSON answer, every round's figure and their min, over
    ``MOSER_STAGE_ROUNDS`` rounds that alternate between the trees."""
    rounds = {label: [] for label, _, _ in trees}
    for i in range(MOSER_STAGE_ROUNDS):
        for label, path, env in alternated(trees, i):
            proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=path,
                                  env=env, capture_output=True, text=True, check=True)
            rounds[label].append(json.loads(proc.stdout))
    return {label: {key: {"us_min": min(r[key] for r in rs), "us_rounds": [r[key] for r in rs]}
                    for key in keys}
            for label, rs in rounds.items()}


def moser_stage(trees: list) -> dict:
    return _timed_rounds(trees, _MOSER_STAGE, [json.dumps(MOSER_STAGE_SAMPLES),
                                               MOSER_STAGE_REPEATS, MOSER_STAGE_CALLS],
                         [str(n) for n in MOSER_STAGE_SAMPLES])


# Prints, as JSON, the min over argv[3] repeats of the microseconds per call of argv[4]
# calls of one Runge-Kutta step and of the check after an argv[2]-step flow, at argv[1]
# samples.
_MOSER_STEP = """\
import json, sys, time
import numpy as np
from polydarboux import moser
from polydarboux.polyforms import moser_potential
samples, steps, repeats, calls = map(int, sys.argv[1:5])
fx = moser.perturbed_multisymplectic(seed=1)
omega, dim = fx.omega, fx.omega.dim
field = moser.DeformationField(omega, fx.omega0, moser_potential(omega, fx.omega0))
points = np.array(moser.ball_sample_points(dim, samples, 0.1))
states = moser.integrate_flow_batch(field.batch, points, steps)
base = fx.omega0.coeffs_float([0.0] * dim)
if hasattr(moser, "_pullback_residuals"):
    finals = np.array([s.point for s in states]), np.array([s.jacobian for s in states])
    check = lambda: moser._pullback_residuals(omega, base, *finals)
else:
    def check():
        out = []
        for s in states:
            pulled = moser.pullback_constant_float(omega.coeffs_float(s.point), s.jacobian,
                                                   omega.degree, dim)
            keys = set(base) | set(pulled)
            out.append(max(abs(pulled.get(m, 0.0) - base.get(m, 0.0)) for m in keys))
        return out
def best(run):
    out = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            run()
        out = min(out, (time.perf_counter() - t0) / calls)
    return round(out * 1e6, 2)
print(json.dumps({"step": best(lambda: moser.integrate_flow_batch(field.batch, points, 1)),
                  "check": best(check)}))
"""


def moser_step(trees: list) -> dict:
    return _timed_rounds(trees, _MOSER_STEP, [MOSER_STEP_SAMPLES, MOSER_STEP_FLOW,
                                              MOSER_STAGE_REPEATS, MOSER_STAGE_CALLS],
                         ["step", "check"])


# Prints, as JSON, the seeds per cell and the not_found count per cell of the two grids of
# ``detection``.
_DETECTION = """\
import itertools, json
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance)
from polydarboux.errors import PreconditionError
from polydarboux.lagrangian import detect_multilagrangian, search_polylagrangian
poly = {}
for n, k in [(n, k) for k in (1, 2, 3) for n in range(k, 5)] + [(5, 2), (5, 3), (6, 2)]:
    model = canonical_poly_model(n, 1, k)
    poly[f"{n} {k}"] = sum(search_polylagrangian(conjugated_poly_instance(
        model, seed=1000 * s + 7)[0]).status == "not_found" for s in range(20))
multi = {}
for n, b, k in itertools.product((1, 2, 3), repeat=3):
    for r in range(max(2, k + 1 - b), k + 2):
        try:
            model = canonical_multi_model(n, b, k, r)
        except PreconditionError:  # an empty momentum block
            continue
        multi[f"{n} {b} {k} {r}"] = sum(detect_multilagrangian(conjugated_multi_instance(
            model, seed=500 * s + 3)[0], model.flag, r).status == "not_found" for s in range(4))
print(json.dumps({"criterion_2_nhat_1": [20, poly], "criterion_3": [4, multi]}))
"""


def detection(tree: Path, env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", _DETECTION], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return {name: {"seeds": seeds, "not_found": cells, "not_found_total": sum(cells.values())}
            for name, (seeds, cells) in json.loads(proc.stdout).items()}


def fractions_per_op(tree: Path, env: dict, workload: str) -> float:
    proc = subprocess.run([sys.executable, "-c", _FRACTION_COUNTER, workload], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


CLI = [sys.executable, "-m", "polydarboux.cli"]


# Runs argv[1:] in a forked child and prints its wall seconds and ru_maxrss (KiB) on the
# last line of stderr.  Linux carries a process's RSS high-water mark across exec, so a
# command spawned straight from this process would read at least this process's RSS;
# forked from the small helper, it reads its own.
_RSS_HELPER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status) & 255)
"""


def _timed(cmd: list, tree: Path, env: dict) -> dict:
    """Wall seconds, exit code, sha256 of stdout and peak RSS of one command.

    The command runs under ``_RSS_HELPER``, in its own session, and is
    reaped there with ``os.wait4``.  After ``SWEEP_TIMEOUT`` seconds the
    session is killed, and the exit code, the digest and the peak are null.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-c", _RSS_HELPER, *cmd], cwd=tree, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=SWEEP_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"seconds": SWEEP_TIMEOUT, "exit": None, "stdout_sha256": None,
                    "peak_rss_mb": None}
        out.seek(0)
        digest = hashlib.file_digest(out, "sha256").hexdigest()
        err.seek(0)
        seconds, rss_kib = err.read().split()[-2:]
    return {"seconds": round(float(seconds), 3), "exit": code, "stdout_sha256": digest,
            "peak_rss_mb": round(int(rss_kib) / 1024, 1)}


def alternated(trees: list, i: int) -> list:
    """The trees in the order of turn i: the first tree leads on even turns."""
    return trees if i % 2 == 0 else trees[::-1]


def sweep(trees: list) -> dict:
    """Time ``analyze`` and ``darboux`` on each sweep model, built by each tree's own
    ``canonical``, tree after tree per model."""
    out = {label: [] for label, _, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for i, model in enumerate(SWEEP):
            name = " ".join(map(str, model))
            for label, tree, env in alternated(trees, i):
                doc = Path(tmp) / f"{name.replace(' ', '-')}.json"
                subprocess.run(CLI + ["canonical", *name.split(), "--shuffle-seed", "3", "-o",
                                      str(doc)], cwd=tree, env=env, capture_output=True, check=True)
                dim = json.loads(doc.read_text())["dim"]
                for command in ("analyze", "darboux"):
                    res = _timed(CLI + [command, str(doc), "--json"], tree, env)
                    out[label].append({"command": command, "model": name, "dim": dim, **res})
                    print(f"sweep {label}: {command} {name} (dim {dim}) exit {res['exit']} "
                          f"in {res['seconds']:.2f}s, {res['peak_rss_mb']} MB", flush=True)
    return out


def small_support(trees: list) -> dict:
    """Time ``analyze`` and ``darboux`` on e13 + e24 declared in growing dimensions,
    ``SMALL_SUPPORT_REPEATS`` times each, tree after tree per repeat."""
    out = {label: [] for label, _, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for dim in SMALL_SUPPORT_DIMS:
            doc = Path(tmp) / f"e13-e24-{dim}.json"
            doc.write_text(json.dumps({
                "schema_version": "1", "kind": "scalar_form", "dim": dim, "degree": 2,
                "terms": [{"indices": [1, 3], "coefficient": "1"},
                          {"indices": [2, 4], "coefficient": "1"}]}))
            for command in ("analyze", "darboux"):
                cmd = CLI + [command, str(doc), "--json"]
                runs = {label: [] for label, _, _ in trees}
                for i in range(SMALL_SUPPORT_REPEATS):
                    for label, tree, env in alternated(trees, i):
                        runs[label].append(_timed(cmd, tree, env))
                for label, tree, _ in trees:
                    res = _repeated(runs[label], tree, command)
                    out[label].append({"command": command, "dim": dim, **res})
                    print(f"small support {label}: {command} in R^{dim} exit {res['exit']} in "
                          f"{res['seconds_min']:.2f}-{res['seconds_max']:.2f}s, "
                          f"{res['peak_rss_mb_min']}-{res['peak_rss_mb_max']} MB", flush=True)
    return out


# Writes, per (dim, k) of argv[2], d(beta) for a seeded random (k-1)-form beta on the split
# (dim/2, dim/2) with at most one fiber factor per monomial, as a poly_form document with
# r = 2, into the directory argv[1]: up to 10 * dim monomials of beta, each with 2 to 6
# terms of degree at most 5.
_HOMOTOPY_DOCS = """\
import itertools, json, random, sys
from fractions import Fraction
from pathlib import Path
from polydarboux.io import poly_form_to_document
from polydarboux.polyforms import PolyForm, exterior_d, poly_from_terms
for dim, k in json.loads(sys.argv[2]):
    rng = random.Random(100 * dim + k)
    x_dim = dim // 2
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(dim), k - 1)
             if sum(i >= x_dim for i in c) <= 1]
    coeffs = {}
    for m in rng.sample(masks, min(len(masks), 10 * dim)):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            e = [0] * dim
            for _ in range(rng.randint(0, 5)):
                e[rng.randrange(dim)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        p = poly_from_terms(dim, terms)
        if p.terms:
            coeffs[m] = p
    doc = poly_form_to_document(exterior_d(PolyForm(dim, k - 1, (x_dim, dim - x_dim), coeffs)))
    doc["r"] = 2
    (Path(sys.argv[1]) / f"d-beta-{dim}-{k}.json").write_text(json.dumps(doc))
"""


def homotopy_documents(tree: Path, env: dict, out: Path) -> list:
    """Write the homotopy sweep's documents into ``out`` with the tree's own program."""
    subprocess.run([sys.executable, "-c", _HOMOTOPY_DOCS, str(out), json.dumps(HOMOTOPY_SWEEP)],
                   cwd=tree, env=env, capture_output=True, check=True)
    return [(dim, k, out / f"d-beta-{dim}-{k}.json") for dim, k in HOMOTOPY_SWEEP]


def homotopy_sweep(label: str, tree: Path, env: dict, documents: list) -> list:
    """Time ``homotopy --json`` on each sweep document."""
    out = []
    for dim, k, doc in documents:
        res = _timed(CLI + ["homotopy", str(doc), "--json"], tree, env)
        out.append({"dim": dim, "degree": k, "bytes": doc.stat().st_size, **res})
        print(f"homotopy sweep {label}: dim {dim} degree {k} exit {res['exit']} "
              f"in {res['seconds']:.2f}s, {res['peak_rss_mb']} MB", flush=True)
    return out


def _repeated(runs: list, tree: Path, command: str) -> dict:
    """The repeats of one ``_timed`` command, with the min and max of their figures."""
    if len({(r["exit"], r["stdout_sha256"]) for r in runs}) != 1:
        raise RuntimeError(f"{tree}: {command} printed different bytes across repeats")
    out = {"exit": runs[0]["exit"], "stdout_sha256": runs[0]["stdout_sha256"]}
    for key in ("seconds", "peak_rss_mb"):
        values = [r[key] for r in runs]
        known = [v for v in values if v is not None]
        out.update({key: values, f"{key}_min": min(known, default=None),
                    f"{key}_max": max(known, default=None)})
    return out


def src_lines(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "polydarboux").glob("*.py"))


def describe(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def better_count(first: list, last: list, higher_is_better: bool) -> int:
    return sum((b > a) if higher_is_better else (b < a) for a, b in zip(first, last))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--tree", action="append",
                        help="LABEL=PATH of a checkout to measure (repeatable; default: this one)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of run 0")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = [t.split("=", 1) for t in (args.tree or [f"tree={ROOT}"])]
    with tempfile.TemporaryDirectory() as caches:
        trees = [(label, Path(path).resolve(), tree_env(Path(path).resolve(), Path(caches) / str(i)))
                 for i, (label, path) in enumerate(trees)]
        series(args, spec, workloads, trees)
    return 0


def series(args, spec: dict, workloads: list, trees: list) -> None:
    """Every measurement of ``main``, on (label, path, environment) trees."""
    fractions = {label: {w: fractions_per_op(path, env, w) for w in workloads}
                 for label, path, env in trees}
    print(f"fractions per op: {json.dumps(fractions)}", flush=True)
    moser = {}
    if "moser" in workloads:
        moser["moser_agreement"] = moser_agreement(trees)
        print(f"moser agreement: {json.dumps(moser['moser_agreement'])}", flush=True)
        moser["moser_stage"] = moser_stage(trees)
        moser["moser_step"] = moser_step(trees)
        for key in ("moser_stage", "moser_step"):
            print(f"{key} us: " + json.dumps(
                {label: {n: r["us_min"] for n, r in record.items()}
                 for label, record in moser[key].items()}), flush=True)
    detections = {label: detection(path, env) for label, path, env in trees}
    print("detection not_found: " + json.dumps(
        {label: {g: d["not_found_total"] for g, d in grids.items()}
         for label, grids in detections.items()}), flush=True)
    runs = {w: {label: [] for label, _, _ in trees} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for label, path, env in alternated(trees, i):
                res = run_once(path, env, w, args.seed + i, spec["run_seconds"])
                runs[w][label].append(res)
                print(f"run {i} {w} {label}: ops_per_kru {res['metrics']['ops_per_kru']:.4g} "
                      f"digest {res['digest'][:12]} correct {res['correct']}", flush=True)
        # rewritten after every run, so an interrupted series keeps what it measured
        write_record(args, spec, trees, runs, i + 1, fractions, detections, moser)
    traces = {label: traced(label, path, env, workloads) for label, path, env in trees}
    write_record(args, spec, trees, runs, args.runs, fractions, detections, moser, traces=traces)
    sweeps = sweep(trees)
    supports = small_support(trees)
    with tempfile.TemporaryDirectory() as tmp:
        documents = homotopy_documents(trees[0][1], trees[0][2], Path(tmp))
        homotopies = {label: homotopy_sweep(label, path, env, documents)
                      for label, path, env in trees}
    write_record(args, spec, trees, runs, args.runs, fractions, detections, moser, sweeps,
                 supports, traces, homotopies)


def write_record(args, spec: dict, trees: list, runs: dict, done: int, fractions: dict,
                 detections: dict, moser: dict, sweeps: dict | None = None,
                 supports: dict | None = None, traces: dict | None = None,
                 homotopies: dict | None = None) -> None:
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    out = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "runs": done, "seed": args.seed,
           "trees": [label for label, _, _ in trees],
           "src_lines": {label: src_lines(path) for label, path, _ in trees},
           "fractions_per_op": fractions, "detection": detections, "workloads": {}}
    first, last = trees[0][0], trees[-1][0]
    out.update(moser)  # moser_agreement, moser_stage and moser_step, when moser is measured
    for key, record in (("sweep", sweeps), ("small_support", supports),
                        ("homotopy_sweep", homotopies)):
        if record is not None:
            out[key] = record
            if len(trees) > 1:
                out[f"{key}_digests_equal"] = ([r["stdout_sha256"] for r in record[first]]
                                               == [r["stdout_sha256"] for r in record[last]])
    if traces is not None:
        out["traced"] = traces
    for w, by_tree in runs.items():
        entry = {}
        for label, rs in by_tree.items():
            entry[label] = {
                "metrics": {m: describe([r["metrics"][m] for r in rs]) for m in rs[0]["metrics"]},
                "digests": [r["digest"] for r in rs],
                "correct": [r["correct"] for r in rs],
            }
        if len(trees) > 1:
            entry[f"{last}_better_than_{first}"] = {
                m: better_count(entry[first]["metrics"][m]["values"],
                                entry[last]["metrics"][m]["values"], higher.get(m, True))
                for m in entry[first]["metrics"]}
            entry["digests_equal"] = entry[first]["digests"] == entry[last]["digests"]
            if traces is not None:
                entry["traced_digests_equal"] = (traces[first][w]["digest"]
                                                 == traces[last][w]["digest"])
        out["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")

if __name__ == "__main__":
    sys.exit(main())
