"""Layer benchmark of the SpMV program: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload cg-fem --seed 1 --seconds 10 --trace 0

It runs the workload in its own Python process with one BLAS/OpenMP
thread and the program's compiled-kernel cache in a directory of its
own (``perfbench/.cache``), forwards that process's output, and exits
non-zero when an answer was wrong or the run failed. The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1`` (whose full report is written to
``perfbench/.cache/out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import WORKLOADS  # noqa: E402

#: The worker must finish well inside the 180 s a run is allowed.
WORKER_TIMEOUT_S = 170


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of the worker's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny matrices, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    cache = os.path.join(HERE, ".cache")
    kernels = os.path.join(cache, "ckernels")
    out_dir = os.path.join(cache, "out")
    tmp = os.path.join(cache, "tmp")
    for d in (kernels, out_dir, tmp):
        os.makedirs(d, exist_ok=True)
    warm = any(os.scandir(kernels))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        # glibc's default threshold, pinned: left dynamic, it moves with
        # what each thread freed before, so a worker thread's large NumPy
        # temporaries are page-faulted afresh or reused by history, which
        # split serve-mix's large-burst latency into two modes.
        MALLOC_MMAP_THRESHOLD_="131072",
        REPRO_CKERNEL_CACHE=kernels,
        REPRO_CEILINGS_CACHE=os.path.join(cache, "ceilings.json"),
        TMPDIR=tmp,
        PERFBENCH_CACHE_WARM="1" if warm else "0",
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--out", os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    # Its own session, so the server and shard processes the worker
    # starts can be stopped with it.
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        print(f"perfbench: {args.workload} exceeded {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        _kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: worker failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    print("\n".join(lines))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
