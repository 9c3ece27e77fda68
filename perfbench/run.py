"""repkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload family-hardness --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run starts fresh interpreters that
import repkit from ``src/``: several set-up-only ones for ``setup_s``, each
between two bare interpreters, then one that measures.  The last line of
standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See perfbench/README.md.
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
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("family-hardness", "analyze-corpus", "dimacs-io")
#: Set-up-only interpreters started per run to measure set-up.
SETUP_ONLY = 11
#: setup_s is in seconds on a machine where a bare interpreter starts in this time.
BARE_NOMINAL_S = 0.050
#: Every process of the run is killed at this point, and the run fails.
DEADLINE_S = 170


class RunError(Exception):
    pass


def worker_cmd(args, setup_only):
    return [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])


def start(cmd, deadline):
    """Run cmd; returns (seconds until it printed READY, its other output lines)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        what = "worker" if cmd[1] == str(WORKER) else "bare interpreter"
        raise RunError(f"{what} exited with code {code} (killed after {DEADLINE_S} s "
                       "if negative)")
    return ready_s, rest


def measure_setup(args, deadline):
    """The median over SETUP_ONLY set-up-only workers of the worker's time to
    READY over the mean time of the bare interpreters started just before
    and just after it, times BARE_NOMINAL_S.

    On a shared host the same start-up ran up to a third slower from one run
    to the next; a bare interpreter's start slows alike, so the ratio stays.
    """
    bare = [sys.executable, "-c", "print('READY')"]
    before, _ = start(bare, deadline)
    ratios = []
    for _ in range(SETUP_ONLY):
        ready_s, _ = start(worker_cmd(args, True), deadline)
        after, _ = start(bare, deadline)
        ratios.append(ready_s / ((before + after) / 2))
        before = after
    return BARE_NOMINAL_S * statistics.median(ratios)


def source_identity():
    """The commit if this is a git checkout, and a digest of src/repkit."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repkit" / "__init__.py").is_file():
        print(f"no repkit sources under {ROOT / 'src'}; run from a repkit checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM unwind through run_worker's cleanup, which kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = None if args.trace else measure_setup(args, deadline)
        _, lines = start(worker_cmd(args, False), deadline)
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}

    commit, digest = source_identity()
    for line in lines[:-1]:
        print(line)
    print(f"python {platform.python_version()}, commit {commit}, src/repkit sha256 {digest}, "
          f"workload {args.workload}, seed {args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
