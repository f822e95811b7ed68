"""Per-layer metrics of a traced run.

Each layer's public function is timed from outside, on the workload's
own matrix and x vectors, and the program's metrics registry is read
for what only the program sees (queue time, batch size, refusals,
kernel fallbacks). Nothing here is gated; these numbers explain the
end-to-end ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from common import (CG_TOL, Matrix, answer_ok, cg_ok, copy_gbs, median,
                    pct, ref_sweep, spd)
from drivers import MACHINE, Server, closed_loop, make_client, tune
from metrics import e2e_defs, layer_defs

from repro.core.engine import SpmvEngine
from repro.dist import ShardGroup
from repro.formats.convert import coo_to_csr
from repro.formats.footprint import spmv_compulsory_bytes
from repro.kernels.cbackend import spmm_c, spmv_c
from repro.kernels.registry import spmv_backend
from repro.machines.registry import get_machine
from repro.observe.metrics import HistogramSummary, get_registry
from repro.parallel.threaded import threaded_spmv
from repro.solvers.cg import conjugate_gradient

#: Wall-time budget of each timed micro-loop, in seconds.
PROBE_S = 0.4
#: SpMM width probed (the serve scheduler's max_batch).
SPMM_K = 8


def _timed(fn, budget: float = PROBE_S, min_reps: int = 5) -> list:
    """Call ``fn`` repeatedly for ``budget`` seconds; per-call seconds."""
    out = []
    t_end = time.perf_counter() + budget
    while len(out) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _counter_sum(prefix: str) -> float:
    snap = get_registry().snapshot()["counters"]
    return sum(v for k, v in snap.items()
               if k == prefix or k.startswith(prefix + "{"))


def _merged_hist(name: str, **match) -> HistogramSummary:
    """All label sets of histogram ``name`` whose labels include
    ``match``, merged into one summary."""
    hists = get_registry().snapshot()["histograms"]
    want = [f"{k}={v}" for k, v in match.items()]
    parts = [h for k, h in hists.items()
             if (k == name or k.startswith(name + "{"))
             and all(w in k for w in want)]
    parts = [h for h in parts if h.count]
    if not parts:
        return HistogramSummary(0, 0.0, 0.0, 0.0)
    counts = np.sum([h.bucket_counts for h in parts], axis=0)
    return HistogramSummary(
        sum(h.count for h in parts), sum(h.total for h in parts),
        min(h.min for h in parts), max(h.max for h in parts),
        bounds=parts[0].bounds, bucket_counts=tuple(int(c) for c in counts))


def serve_loop_metrics(lat_s) -> dict:
    """Scheduler and client metrics of a traced ServeClient loop: the
    registry was reset when the loop began."""
    return {
        "scheduler.queue_ms.p50": _merged_hist(
            "slo.phase_seconds", phase="queue").quantile(0.5) * 1e3,
        "scheduler.batch_size.mean": _merged_hist("serve.batch_size").mean,
        "scheduler.rejected": _counter_sum("serve.rejected"),
        "client.latency_ms.p50": pct(lat_s, 50) * 1e3,
        "client.latency_ms.p99": pct(lat_s, 99) * 1e3,
    }


def _client_loop(run, m: Matrix, seconds: float) -> list:
    """A fresh ServeClient, one closed-loop caller; per-request seconds."""
    client = make_client(run.nproc)
    try:
        fp = client.register(m.coo).fingerprint
        client.spmv(fp, m.xs[0])
        get_registry().reset()
        return closed_loop(run, lambda x: client.spmv(fp, x), m, seconds,
                           "probe.client_request")["lat"]
    finally:
        client.close()


def probe(run, m: Matrix, matrix, *, solver: bool = True,
          client_lat=None, http_lat=None) -> None:
    """Fill ``run.layers`` with every layer metric not already set by the
    workload loop. ``matrix`` is the tuned structure the program runs
    for ``m``; ``client_lat``/``http_lat`` are the loop's own latencies
    when the workload already drove that layer."""
    L = run.layers
    tr = run.tracer
    x, y_ref = m.xs[0], m.ys[0]
    nbytes = spmv_compulsory_bytes(matrix)

    # host: external references, they move with the host only.
    with tr.span("probe.host"):
        ref = _timed(lambda: ref_sweep(m.scipy, x, 1))
        L["host.ref_spmv_ms.p50"] = median(ref) * 1e3
        L["host.copy_gbs"] = copy_gbs(nbytes)

    # kernels.cbackend and kernels.registry, interleaved call by call.
    with tr.span("probe.cbackend"):
        calls0 = _counter_sum("c_backend.calls")
        falls0 = _counter_sum("c_backend.fallbacks")
        run.count(answer_ok(spmv_c(matrix, x), y_ref))
        run.count(answer_ok(spmv_backend(matrix, x, backend="c"), y_ref))
        t_c, t_b = [], []
        t_end = time.perf_counter() + 2 * PROBE_S
        while len(t_c) < 5 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            spmv_c(matrix, x)
            t1 = time.perf_counter()
            spmv_backend(matrix, x, backend="c")
            t_b.append(time.perf_counter() - t1)
            t_c.append(t1 - t0)
        rng = np.random.default_rng(len(m.xs))
        xk = np.ascontiguousarray(
            rng.standard_normal((matrix.ncols, SPMM_K)))
        yk = spmm_c(matrix, xk)
        run.count(answer_ok(yk, m.scipy @ xk))
        t_k = _timed(lambda: spmm_c(matrix, xk), min_reps=3)
        calls = _counter_sum("c_backend.calls") - calls0
        falls = _counter_sum("c_backend.fallbacks") - falls0
    spmv_s = median(t_c)
    L["cbackend.spmv_us.p50"] = spmv_s * 1e6
    L["cbackend.spmv_rel"] = spmv_s / median(ref)
    L["cbackend.copy_frac"] = nbytes / spmv_s / 1e9 / L["host.copy_gbs"]
    L["cbackend.spmm_us.p50"] = median(t_k) * 1e6
    L["cbackend.spmm_per_vec"] = median(t_k) / (SPMM_K * spmv_s)
    L["cbackend.fallback_frac"] = falls / max(calls + falls, 1)
    L["registry.overhead_us.p50"] = (median(t_b) - spmv_s) * 1e6

    # parallel.threaded and dist against serial spmv_c on one CSR.
    with tr.span("probe.executors"):
        csr = coo_to_csr(m.coo)
        serial = median(_timed(lambda: spmv_c(csr, x)))
        run.count(answer_ok(threaded_spmv(csr, x, n_threads=run.nproc),
                            y_ref))
        L["threaded.speedup"] = serial / median(_timed(
            lambda: threaded_spmv(csr, x, n_threads=run.nproc)))
        group = ShardGroup(run.nproc, backend="c")
        try:
            fp = group.register(csr)
            run.count(answer_ok(group.spmv(fp, x), y_ref))
            L["dist.speedup"] = serial / median(_timed(
                lambda: group.spmv(fp, x)))
        finally:
            group.close()

    # core.engine: plan and materialize, each timed alone.
    with tr.span("probe.engine"):
        engine = SpmvEngine(get_machine(MACHINE))
        plan_t, mat_t = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            plan = engine.plan(m.coo, backend="c")
            t1 = time.perf_counter()
            plan.materialize(m.coo)
            mat_t.append(time.perf_counter() - t1)
            plan_t.append(t1 - t0)
        L["engine.plan_s"] = median(plan_t)
        L["engine.materialize_s"] = median(mat_t)

    # solvers: cg-fem measures these in its own loop; elsewhere CG runs
    # on the SPD form of the workload matrix, built as cg-fem builds its.
    if solver:
        with tr.span("probe.solvers"):
            _solver_probe(run, m)

    # serve.registry: fresh clients, register only.
    with tr.span("probe.serve_register"):
        reg_t = []
        for _ in range(3):
            client = make_client(run.nproc)
            try:
                t0 = time.perf_counter()
                client.register(m.coo)
                reg_t.append(time.perf_counter() - t0)
            finally:
                client.close()
        L["serve.register_s"] = median(reg_t)

    # serve.client / serve.scheduler: the loop's own, else a lone loop.
    with tr.span("probe.client"):
        if client_lat is None:
            client_lat = _client_loop(run, m, 2 * PROBE_S)
            if "client.latency_ms.p50" not in L:
                L.update(serve_loop_metrics(client_lat))
        L["client.overhead_us.p50"] = (median(client_lat)
                                       - median(t_b)) * 1e6

    # serve.transport: the loop's own HTTP latencies, else a short HTTP
    # loop on the same matrix; overhead is HTTP minus in-process.
    with tr.span("probe.transport"):
        if http_lat is None:
            http_lat = _http_probe(run, m)
        L["transport.overhead_ms.p50"] = (median(http_lat)
                                          - median(client_lat)) * 1e3
        L["transport.latency_ms.p99"] = pct(http_lat, 99) * 1e3


def _solver_probe(run, m: Matrix) -> None:
    coo = spd(m.coo)
    s = sp.csr_matrix((coo.val, (coo.row, coo.col)), shape=coo.shape)
    x_true = m.xs[0]
    b = s @ x_true
    tuned = tune(coo)
    tr = run.tracer

    def op(v):
        with tr.span("solvers.op"):
            return tuned(v)

    spd_m = Matrix(m.name, coo, s, m.xs[:1], b[None, :])
    solve_t, iters = [], []
    t_end = time.perf_counter() + 2 * PROBE_S
    while len(solve_t) < 3 or time.perf_counter() < t_end:
        with tr.span("solvers.solve"):
            t0 = time.perf_counter()
            res = conjugate_gradient((op, coo.nrows), b, tol=CG_TOL)
            solve_t.append(time.perf_counter() - t0)
        iters.append(res.iterations)
        run.count(cg_ok(res.converged, res.x, spd_m, b, x_true))
    L = run.layers
    L["solvers.iterations"] = float(median(iters))
    L["solvers.solve_ms.p50"] = median(solve_t) * 1e3
    L["solvers.op_frac"] = tr.total("solvers.op") / tr.total("solvers.solve")


def _http_probe(run, m: Matrix) -> list:
    server = Server(run.nproc)
    try:
        fp = server.register(m.coo)
        server.spmv(fp, m.xs[0])
        return closed_loop(run, lambda x: server.spmv(fp, x), m,
                           4 * PROBE_S, "probe.http_request")["lat"]
    finally:
        server.stop()


def report(run, info: dict, e2e: dict) -> dict:
    """The traced run's JSON: every per-layer metric with its unit, what
    it should move and where, next to the untraced half's end-to-end
    metrics and the recorded spans."""
    defs = layer_defs()
    missing = sorted(set(defs) - set(run.layers))
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    e2e_units = e2e_defs()
    return {
        "info": info,
        "end_to_end": {k: {"value": v, "unit": u,
                           "better": e2e_units[k]["better"]}
                       for k, (v, u) in e2e.items()},
        "per_layer": {k: dict(value=float(run.layers[k]), **defs[k])
                      for k in defs},
        "spans": run.tracer.spans,
    }
