"""Benchmark of the polydarboux command line, one workload per process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each op runs ``polydarboux.cli.main`` in this interpreter with stdout
captured, in a closed loop with one caller.  Ops are timed against a fixed
``fractions.Fraction`` reference loop, run between ops and from a timer
inside long ones, so one reference unit (ru) is one pass of that loop on
the same CPU at the same moment.  Outputs are verified after timing.
``--trace 1`` instead runs the first panel once untraced and twice with
every layer wrapped, and reports the per-layer metrics.  The last line of
stdout is a JSON summary.  ``--workload all`` runs every workload, each in
its own interpreter.

The workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: numpy must not start a BLAS pool

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
BATCH_MIN_S = 0.015   # ops shorter than this share one pair of reference passes
TICK_S = 0.1          # period of the reference passes taken inside long ops
REF_WINDOW = 2        # extra reference passes averaged on each side of a batch
TAIL_BEYOND = 10      # op_tail_ru: the highest percentile with this many ops beyond it


# ---------------------------------------------------------------------------
# reference loop: imports nothing from polydarboux

# Two fixed matrices: one of small fractions, where the pass spends its time
# in interpreter overhead, and one with 13-digit numerators and denominators,
# where it spends it in big-integer gcds.  The program does both, and when the
# shared CPU slows down, each kind of work slows by a different factor.
_REF_MATRICES = (
    [[Fraction((7 * i + 3 * j) % 13 - 6, 1 + (i + 2 * j) % 5) for j in range(10)]
     for i in range(9)],
    [[Fraction((7 * i + 3 * j) % 13 - 6, 1 + (i + 2 * j) % 5)
      * Fraction(10 ** 12 + i, 10 ** 12 + j) for j in range(9)] for i in range(8)],
)


def reference_pass() -> None:
    """One pass of the reference unit: exact elimination of fixed matrices."""
    for rows in _REF_MATRICES:
        pivots = []
        for raw in rows:
            r = raw
            for pc, prow in pivots:
                c = r[pc]
                if c:
                    r = [a - c * b if b else a for a, b in zip(r, prow)]
            lead = next((j for j, x in enumerate(r) if x), None)
            if lead is None:
                continue
            inv = 1 / r[lead]
            r = [x * inv if x else x for x in r]
            pivots.append((lead, r))
            pivots.sort(key=lambda t: t[0])


class ReferenceClock:
    """Reference passes between ops, and from a timer inside long ops.

    The CPU of a shared box changes speed within one long op, so passes
    between ops alone miss it: every TICK_S a timer signal runs one more
    pass, and the time those passes take is not charged to the op.
    """

    def __init__(self):
        self.passes: list = []    # seconds per pass, in time order
        self.stolen = 0.0         # seconds spent in timer passes

    def sample(self):
        stolen, t0 = self.stolen, perf_counter()
        reference_pass()
        self.passes.append(perf_counter() - t0 - (self.stolen - stolen))

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_pass()
        dt = perf_counter() - t0
        self.passes.append(dt)
        self.stolen += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# running ops


@dataclass
class OpResult:
    code: object      # exit code of the last command run, or "exception"
    seconds: float
    stdout: str
    stderr: str


def run_op(cli, argvs, clock=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    elapsed = 0.0
    code = 0
    # start every op from an empty collector, as a fresh CLI process would;
    # otherwise a full collection lands inside whichever op crosses the threshold
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in argvs:
            stolen = clock.stolen if clock else 0.0
            t0 = perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed op, not a failed benchmark
                code = "exception"
                traceback.print_exc(file=err)
            elapsed += perf_counter() - t0 - ((clock.stolen if clock else 0.0) - stolen)
            if code != 0:
                break
    return OpResult(code, elapsed, out.getvalue(), err.getvalue())


def measure(cli, ops) -> tuple[list, list, list]:
    """Run ops in order; returns results, ru per op and reference pass seconds.

    An op's ru is its time over the mean of the passes that bracket its
    batch, the timer passes taken during the batch, and REF_WINDOW more
    passes on either side: one pass alone reads 10% high or low.
    """
    results, spans = [], []       # spans: (ops of a batch, pass before it, end of its passes)
    batch, batch_s = [], 0.0
    with ReferenceClock() as clock:
        clock.sample()
        for i, op in enumerate(ops):
            if not batch:
                first = len(clock.passes) - 1
            res = run_op(cli, op.argvs, clock)
            results.append(res)
            batch.append(i)
            batch_s += res.seconds
            if batch_s >= BATCH_MIN_S or i == len(ops) - 1:
                clock.sample()
                spans.append((batch, first, len(clock.passes)))
                batch, batch_s = [], 0.0
    ru = [0.0] * len(ops)
    for batch, first, end in spans:
        ref = statistics.fmean(clock.passes[max(first - REF_WINDOW, 0):end + REF_WINDOW])
        for j in batch:
            ru[j] = results[j].seconds / ref
    return results, ru, clock.passes


def digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.stdout.encode())
    return h.hexdigest()


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


# ---------------------------------------------------------------------------
# set-up


def import_program():
    """Import polydarboux from this checkout's src/, never from elsewhere."""
    if not (SRC / "polydarboux" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import polydarboux.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "polydarboux").resolve():
        sys.exit(f"perfbench: polydarboux imported from {cli.__file__}, not {SRC}")
    return cli


def child_import_seconds(workload: str) -> float:
    """Interpreter start plus program import, in a fresh child interpreter."""
    modules = "polydarboux.cli" + (", polydarboux.moser" if workload == "moser" else "")
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return perf_counter() - t0


# first calls through the parser, the document writer and a model constructor
WARMUP = (("canonical", "poly", "1", "1", "1"),)


def set_up(cli, wl, seed, panels, workdir):
    """Build the inputs SETUP_REPEATS times; returns (panels, setup seconds)."""
    imports = statistics.median(child_import_seconds(wl.name) for _ in range(SETUP_REPEATS))
    builds, built = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        again = wl.build(seed, panels, workdir)
        run_op(cli, WARMUP)
        builds.append(perf_counter() - t0)
        if built is not None and [[o.argvs for o in p] for p in again] != \
                [[o.argvs for o in p] for p in built]:
            sys.exit("perfbench: input generation is not deterministic")
        built = again
    return built, imports + statistics.median(builds)


# ---------------------------------------------------------------------------
# reporting


def verify(wl, ops, results):
    causes = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        try:
            cause = wl.verify(op, res)
        except Exception:  # an unreadable report is a wrong result
            cause = "wrong"
        if cause:
            causes[i] = cause
    return causes


def report_failures(ops, causes):
    counts = {}
    for i, cause in sorted(causes.items()):
        counts[cause] = counts.get(cause, 0) + 1
        print(f"  op {i}: {cause}: {ops[i].kind}")
    return counts


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_timed(cli, wl, panels, seconds, setup_s):
    round_ops = [op for panel in panels for op in panel]
    t0 = perf_counter()
    results, ru, refs = measure(cli, round_ops)
    # the program's peak; later rounds repeat the same ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds, extra_ru, extra_n = 1, 0.0, 0
    per_op = [[x] for x in ru]
    nondeterministic = 0
    # repeat whole rounds while another fits, so the op mix never changes
    while (perf_counter() - t0) * (rounds + 1) / rounds <= seconds:
        again, ru2, refs2 = measure(cli, round_ops)
        rounds += 1
        for i, (a, b) in enumerate(zip(results, again)):
            per_op[i].append(ru2[i])
            nondeterministic += (a.stdout != b.stdout or a.code != b.code)
        extra_ru += sum(ru2)
        extra_n += len(round_ops)
        refs += refs2
    elapsed = perf_counter() - t0

    t0 = perf_counter()
    causes = verify(wl, round_ops, results)
    verify_s = perf_counter() - t0
    n = len(round_ops)
    op_ru = [statistics.median(v) for v in per_op]
    ok = n - len(causes)
    failed = sum(1 for c in causes.values() if c != "not_found")
    pct, tail_ru = tail(op_ru)
    total_ru = sum(ru) + extra_ru
    attempted = n * rounds
    wall = sum(r.seconds for r in results)
    print(f"workload {wl.name}: {rounds} round(s) of {n} ops in {len(panels)} panels, "
          f"{elapsed:.2f} s measured, {verify_s:.2f} s verifying")
    print(f"reference: mean {1000 * statistics.fmean(refs):.4f} ms over {len(refs)} passes")
    print(f"raw: ops_per_s {n / wall:.4f}, op_p50_ms {1000 * statistics.median(r.seconds for r in results):.4f}")
    print(f"op_tail_ru is p{pct:.1f}: {TAIL_BEYOND} of {n} ops beyond it")
    print(f"failed_ratio {len(causes) / n:.4f} fraction: {len(causes)} of {n} ops "
          f"({len(causes) - failed} heuristic not_found, {failed} failed)")
    cause_counts = report_failures(round_ops, causes)
    print(f"failures by cause: {json.dumps(cause_counts, sort_keys=True)}")
    print(f"report digest sha256 {digest(results)}")
    if nondeterministic:
        print(f"NONDETERMINISTIC: {nondeterministic} repeated ops changed their report")
    metrics = {
        "ops_per_kru": 1000 * (n + extra_n) / total_ru,
        "op_p50_ru": statistics.median(op_ru),
        "op_tail_ru": tail_ru,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok / n,
    }
    units = {"ops_per_kru": "ops/kru", "op_p50_ru": "ru", "op_tail_ru": "ru", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "fraction"}
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    correct = failed == 0 and not nondeterministic
    emit(correct, attempted, failed * rounds, metrics, units)
    return 0


def run_traced(cli, wl, panels):
    from tracing import Tracer
    ops = panels[0]
    base, base_ru, _ = measure(cli, ops)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            results, ru, _ = measure(cli, ops)
        finally:
            tracer.uninstall()
        passes.append((tracer, results, ru))
    (t1, r1, ru1), (t2, r2, ru2) = passes
    causes = verify(wl, ops, base)
    failed = sum(1 for c in causes.values() if c != "not_found")
    problems = []
    if t1.snapshot() != t2.snapshot():
        problems.append("per-layer counts differ between two traced passes")
    if not digest(base) == digest(r1) == digest(r2):
        problems.append("tracing changed a report")
    silent = [q for q in wl.must_fire if not t1.fired(q)]
    if silent:
        problems.append(f"never fired: {', '.join(silent)}")
    metrics = t1.layer_metrics(len(ops))
    metrics["trace_overhead"] = statistics.fmean([sum(ru1), sum(ru2)]) / sum(base_ru) - 1
    print(f"workload {wl.name}: traced {len(ops)} ops (first panel), twice")
    print(f"report digest sha256 {digest(base)}")
    report_failures(ops, causes)
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}")
    units = {k: ("fraction" if k.endswith(("_share", "_ratio", "overhead")) else "count/op")
             for k in metrics}
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    emit(failed == 0 and not problems, len(ops), failed, metrics, units)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        # each workload in its own interpreter, one after the other
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    wl = WORKLOADS[args.workload]
    panels = 1 if args.trace else wl.panels
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        built, setup_s = set_up(cli, wl, args.seed, panels, workdir)
        print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} imports and builds)")
        if args.trace:
            return run_traced(cli, wl, built)
        return run_timed(cli, wl, built, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
