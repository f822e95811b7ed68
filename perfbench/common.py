"""Inputs, answer checks, statistics and a span recorder shared by the
benchmark's workload and layer code.

Everything here runs inside the workload subprocess, after
``perfbench/run.py`` has pinned BLAS/OpenMP to one thread and pointed
the program's compiled-kernel cache at a benchmark-owned directory.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import resource
import shutil
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.sparse as sp

from repro.formats.coo import COOMatrix
from repro.kernels.reference import spmv_reference
from repro.matrices import generate

#: Matrix sizes. Epidem at this scale (~10k nnz) is resident in one
#: core's L2; FEM-Cant at this scale (~1.0M nnz, ~8.6 MB as tuned
#: BCSR) is above L2 and inside the shared L3.
SMALL = ("Epidem", 0.005)
LARGE = ("FEM-Cant", 0.25)
#: Smoke runs shrink every matrix by this factor.
SMOKE_SCALE = 0.1
#: Generator seed of every sparsity pattern (see make_matrix).
PATTERN_SEED = 0

#: Relative tolerance of a served answer against spmv_reference.
ANSWER_RTOL = 1e-12
#: CG target and the accepted error against the known solution.
CG_TOL = 1e-10
CG_XTOL = 1e-6


# ---------------------------------------------------------------- inputs
def spd(coo: COOMatrix) -> COOMatrix:
    """``(A + Aᵀ)/2`` plus a diagonal shift by the largest absolute row
    sum: symmetric and strictly diagonally dominant, hence SPD."""
    at = coo.transpose()
    n = coo.nrows
    row = np.concatenate([coo.row, at.row, np.arange(n)])
    col = np.concatenate([coo.col, at.col, np.arange(n)])
    sym_val = np.concatenate([coo.val / 2, at.val / 2])
    row_sums = np.zeros(n)
    np.add.at(row_sums, np.concatenate([coo.row, at.row]), np.abs(sym_val))
    diag = np.full(n, 1.0 + row_sums.max())
    return COOMatrix((n, n), row, col, np.concatenate([sym_val, diag]))


@dataclass
class Matrix:
    """One generated input matrix with its x pool and checked answers."""

    name: str
    coo: COOMatrix
    scipy: sp.csr_matrix
    xs: np.ndarray            #: (pool, ncols) input vectors
    ys: np.ndarray            #: (pool, nrows) spmv_reference answers


def make_matrix(spec: tuple[str, float], seed: int, *, pool: int,
                scale: float = 1.0, make_spd: bool = False) -> Matrix:
    """A suite matrix whose values, and ``pool`` x vectors, come from
    ``seed``; the expected answers come from the program's per-entry
    reference.

    The sparsity pattern is the suite generator's at PATTERN_SEED. The
    pattern decides how the kernels access memory, so a pattern drawn
    per seed would move timings by the structure alone (6.9% against
    2.2% run-to-run spread of cg-fem's median on one pattern).
    """
    name, base = spec
    coo = generate(name, scale=base * scale, seed=PATTERN_SEED, cache=False)
    rng = np.random.default_rng([seed, coo.nrows, pool])
    coo = COOMatrix(coo.shape, coo.row, coo.col,
                    coo.val * rng.uniform(0.5, 1.5, coo.val.shape))
    if make_spd:
        coo = spd(coo)
    xs = rng.standard_normal((pool, coo.ncols))
    ys = np.stack([spmv_reference(coo, x) for x in xs])
    s = sp.csr_matrix((coo.val, (coo.row, coo.col)), shape=coo.shape)
    return Matrix(name, coo, s, xs, ys)


def input_digest(*mats: Matrix) -> str:
    """Short hash of the generated inputs (a different seed changes it)."""
    h = hashlib.sha256()
    for m in mats:
        for arr in (m.coo.row, m.coo.col, m.coo.val, m.xs):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- checks
def answer_ok(y, expected: np.ndarray) -> bool:
    """``y`` matches ``expected`` to ANSWER_RTOL, relative to its largest
    entry (entries near zero carry cancellation error)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != expected.shape or not np.all(np.isfinite(y)):
        return False
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(y - expected))) <= ANSWER_RTOL * scale


def cg_ok(converged: bool, x, m: Matrix, b: np.ndarray,
          x_true: np.ndarray) -> bool:
    """Converged, true residual ‖b − Ax‖/‖b‖ within CG_TOL (checked with
    scipy, not the program), and close to the known solution."""
    if not converged:
        return False
    x = np.asarray(x, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    # Recomputed residual drifts slightly from CG's recursive one.
    if float(np.linalg.norm(b - m.scipy @ x)) > 10 * CG_TOL * b_norm:
        return False
    err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    return bool(err <= CG_XTOL)


def corrupt_enabled() -> bool:
    """Smoke-test hook: PERFBENCH_CORRUPT=1 perturbs every answer before
    it is checked, so the correctness check must fail the run."""
    return os.environ.get("PERFBENCH_CORRUPT") == "1"


def maybe_corrupt(y):
    if not corrupt_enabled():
        return y
    y = np.array(y, dtype=np.float64, copy=True)
    y[0] += 1e-6 * (1.0 + abs(y[0]))
    return y


# ------------------------------------------------------------ statistics
def pct(values, q: float) -> float:
    """The q-th percentile (0..100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process, or of ``pid`` (VmHWM)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        kb = re.search(r"VmHWM:\s+(\d+)", fh.read())
    return int(kb.group(1)) / 1024.0


# ------------------------------------------------------ host references
def ref_sweep(s: sp.csr_matrix, x: np.ndarray, reps: int) -> float:
    """Seconds for ``reps`` scipy CSR products: the external reference
    every memory-heavy timing is divided by. scipy is not code of this
    repository, so no change to the program moves it."""
    t0 = time.perf_counter()
    for _ in range(reps):
        s @ x
    return time.perf_counter() - t0


def build_ref(mats, reps: int) -> float:
    """Seconds for ``reps`` scipy CSR builds of each matrix's triplets:
    the sorting and allocating a set-up does, without the program."""
    t0 = time.perf_counter()
    for _ in range(reps):
        for m in mats:
            sp.csr_matrix((m.coo.val, (m.coo.row, m.coo.col)),
                          shape=m.coo.shape)
    return time.perf_counter() - t0


def copy_gbs(nbytes: int, reps: int = 5) -> float:
    """Best streaming-copy rate (read + write bytes per second, in GB/s)
    over an array of ``nbytes``."""
    src = np.ones(max(nbytes // 8, 1))
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


# ------------------------------------------------------------------ host
def host_info() -> dict:
    """What every result records about the machine and toolchain."""
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor()}
    try:
        with open("/proc/cpuinfo") as fh:
            m = re.search(r"model name\s*:\s*(.+)", fh.read())
        if m:
            info["cpu_model"] = m.group(1).strip()
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                with open(os.path.join(d, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(d, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(d, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            suffix = "" if kind == "Unified" else kind[0].lower()
            caches[f"L{level}{suffix}"] = size
    info["caches"] = caches
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    compiler = None
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=10)
        compiler = out.stdout.splitlines()[0] if out.stdout else cc
    info["compiler"] = compiler
    info["numpy"] = np.__version__
    info["scipy"] = scipy.__version__
    info["python"] = platform.python_version()
    return info


# ----------------------------------------------------------------- spans
@dataclass
class Tracer:
    """In-memory spans recorded from the benchmark's side of each layer
    call; written out once when the run ends."""

    enabled: bool = False
    spans: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)
