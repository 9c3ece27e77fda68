"""One benchmark run inside a fresh interpreter; started by run.py.

Prints ``READY`` once repkit is imported and the seeded inputs are built,
then (unless ``--setup-only``) runs whole rounds of the workload's
operations for ``--seconds`` seconds and prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: No new round starts once this much time has gone into rounds.
MAX_MEASURE_S = 120
#: The reference kernel: its loop iterations, its clause-set, its nominal
#: time, and how often it runs.
REF_ITERATIONS = 50_000
_ref_rng = random.Random(0)
REF_CLAUSES = [frozenset(v if _ref_rng.random() < 0.5 else -v
                         for v in _ref_rng.sample(range(1, 301), 3)) for _ in range(1500)]
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.25


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no `except Exception`
    inside the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout


def reference_loop():
    """Time a fixed pure-Python kernel: an integer loop, then the images of
    REF_CLAUSES under four single literals, built as sets of frozensets the
    way repkit builds clause-sets.  Under load on a shared host the second
    half slows more than the first, as the program does."""
    t0 = perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    for x in (1, -2, 3, -4):
        out = set()
        for c in REF_CLAUSES:
            if x not in c:
                out.add(frozenset([y for y in c if y != -x]))
        frozenset(out)
    return perf_counter() - t0


class Speed:
    """The machine's current speed, from the reference kernel timed every
    REF_EVERY_S seconds between operations.

    On a shared host the same operation runs up to half again as slow for
    seconds or minutes at a time, and the kernel slows with it.  An
    operation's time times REF_NOMINAL_S over the kernel's time around it is
    its time on a machine where the kernel takes REF_NOMINAL_S.  The time
    around it is a median of four samples, because one sample of the kernel
    varies about as much as the operation does.
    """

    def __init__(self):
        self.at, self.took = [], []

    def sample(self, force=False):
        if force or not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            took = reference_loop()
            self.at.append(perf_counter())
            self.took.append(took)

    def scale(self, start, end):
        """REF_NOMINAL_S over the median kernel time of the two samples just
        before start and the two just after end."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        around = self.took[max(i - 1, 0):i + 1] + self.took[j:j + 2]
        return REF_NOMINAL_S / statistics.median(around)


class Runner:
    """Runs rounds and counts operations.  An operation that raises or times
    out is failed; one whose output fails a check or differs from an earlier
    round's is failed and also wrong."""

    def __init__(self, workload, clear_caches):
        self.workload, self.clear_caches = workload, clear_caches
        self.attempted = self.failed = self.wrong = 0
        self.problems = []
        self.digests = {}

    def run_round(self, ctx, speed=None):
        """All operations once; returns (time, start, end) of each, in
        operation order.  Samples the speed between operations if given one."""
        times = []
        for op_id, op in enumerate(self.workload.ops):
            self.clear_caches()  # every operation starts from cold memo tables
            if speed:
                speed.sample()
            start = perf_counter()
            ctx.begin_op(op_id, op.label)
            signal.setitimer(signal.ITIMER_REAL, self.workload.timeout_s)
            try:
                out = op.run(ctx)
                problems = None
            except OpTimeout:
                problems = [f"timed out after {self.workload.timeout_s} s"]
            except Exception as e:  # a failing operation is counted, the run goes on
                problems = [f"raised {type(e).__name__}: {e}"]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt, end = ctx.end_op(), perf_counter()
            if problems is None:
                try:
                    problems = op.check(out, op.want)
                    digest = op.digest(out)
                    if self.digests.setdefault(op.label, digest) != digest:
                        problems.append("output differs from the previous round's")
                except Exception as e:
                    problems = [f"check raised {type(e).__name__}: {e}"]
                del out
                self.wrong += bool(problems)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{op.label}: {'; '.join(problems)}")
            times.append((dt, start, end))
        if speed:
            speed.sample(force=True)
        return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import repkit
    if Path(repkit.__file__).resolve().parent != (src / "repkit").resolve():
        print(f"repkit imported from {repkit.__file__}, not from {src}", file=sys.stderr)
        return 3
    from repkit import reductions
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workload.prepare()
    runner = Runner(workload, reductions.clear_caches)
    signal.signal(signal.SIGALRM, _alarm)
    speed = Speed()
    rounds = []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        rounds.append(runner.run_round(tracing.Timer(), speed))
        spent = perf_counter() - start
        if spent >= args.seconds or spent + (perf_counter() - r0) > MAX_MEASURE_S:
            break
    # Each operation's median over the rounds, so that no single slow stretch
    # decides a run.
    wall_s = sum(statistics.median(dt for dt, _, _ in ts) for ts in zip(*rounds))
    op_s = [statistics.median(dt * speed.scale(t0, t1) for dt, t0, t1 in ts)
            for ts in zip(*rounds)]
    untraced_run_s = sum(op_s)

    if args.trace:
        tracer = tracing.Tracer()
        traced_run_s = sum(dt for dt, _, _ in runner.run_round(tracer))
        metrics = tracer.layer_metrics(src)
        metrics["trace.run_s"] = (traced_run_s, "s")
        metrics["trace.untraced_run_s"] = (wall_s, "s")
        metrics["trace.overhead_ratio"] = (traced_run_s / wall_s, "ratio")
        out_dir = Path(args.root) / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "ops": [op.label for op in workload.ops],
            "spans": tracer.spans,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }))
        print(f"spans written to {trace_file.relative_to(args.root)}")
    else:
        metrics = {
            "run_s": (untraced_run_s, "s"),
            "op_max_s": (max(op_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for line in runner.problems[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"rounds {len(rounds)}, {len(workload.ops)} operations each; wall time per round "
          + ", ".join(f"{sum(dt for dt, _, _ in ts):.4f}" for ts in rounds)
          + f" s; per-operation medians sum to {wall_s:.4f} s wall, {untraced_run_s:.4f} s"
          f" at reference speed; reference kernel median {statistics.median(speed.took):.6f} s")
    print(json.dumps({
        "correct": runner.wrong == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
