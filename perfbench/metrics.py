"""Every metric the benchmark reports: name, unit, direction, and — for
per-layer metrics — which end-to-end metric it should move and on which
workload. ``BENCHMARK.json`` lists the same names; ``smoke.py`` checks
that the two agree.
"""

from __future__ import annotations

WORKLOADS = {
    "cg-fem": "CG to 1e-10 on the ~1M-nnz FEM matrix, single thread; "
              "kernel and solver do the work, serve and HTTP are bypassed",
    "serve-lone": "one closed-loop ServeClient caller on the L2-resident "
                  "10k-nnz matrix; scheduler and client floors dominate",
    "serve-mix": "open-loop Poisson bursts of 8 on both matrices; batches "
                 "fill by size, so SpMM cost dominates",
    "http-lone": "one persistent HTTP/1.1 connection in a closed loop on "
                 "the small matrix; adds transport and JSON to serve-lone",
}

#: (name, unit, better, bound). Every workload reports every one.
#: Wall time on a shared host drifts with the neighbours, so on all but
#: http-lone (whose cost is a fixed TCP timer) each time is divided by an
#: interleaved reference that is not code of this repository and that
#: uses what the timed work uses, then scaled by that reference's nominal
#: time: the numbers read as milliseconds or seconds on a host where the
#: reference takes its nominal time. See README.md for each reference.
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "fraction", "higher", 0.01),
    ("latency_ms.p50", "ms", "lower", 0.2),
    ("latency_ms.p90", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.15),
]

#: Nominal times of the references, in ms: their medians on a 2-core
#: Xeon KVM guest (2 MiB L2 per core). Fixed: changing one rescales that
#: workload's metrics. Latency references: a sweep of 10 scipy CSR
#: products (cg-fem), scipy S @ X with k = 8 (serve-mix), a 2 ms thread
#: hand-off (serve-lone). Set-up references: scipy CSR builds of the
#: workload's matrices (10 builds of the small one for serve-lone).
NOMINAL_REF_MS = {"cg-fem": 10.0, "serve-mix": 5.0, "serve-lone": 2.1}
NOMINAL_BUILD_MS = {"cg-fem": 11.0, "serve-lone": 1.7, "serve-mix": 10.0}

_KERNEL = "latency_ms.* on cg-fem and serve-mix"
_SERVE = "latency_ms.* and throughput_per_s on serve-lone and serve-mix"

#: (name, unit, better, what it should move, on which workloads)
PER_LAYER = [
    ("host.ref_spmv_ms.p50", "ms", "lower", "nothing; shows host drift",
     "all"),
    ("host.copy_gbs", "GB/s", "higher", "nothing; shows host drift", "all"),
    ("cbackend.spmv_us.p50", "us", "lower", _KERNEL, "cg-fem, serve-mix"),
    ("cbackend.spmv_rel", "ratio", "lower", _KERNEL, "cg-fem, serve-mix"),
    ("cbackend.copy_frac", "fraction", "higher", _KERNEL,
     "cg-fem, serve-mix"),
    ("cbackend.spmm_us.p50", "us", "lower", "latency_ms.* on serve-mix",
     "serve-mix"),
    ("cbackend.spmm_per_vec", "ratio", "lower", "latency_ms.* on serve-mix",
     "serve-mix"),
    ("cbackend.fallback_frac", "fraction", "lower", _KERNEL,
     "cg-fem, serve-mix"),
    ("registry.overhead_us.p50", "us", "lower",
     "latency_ms.* once the flush-deadline floor is gone",
     "serve-lone; slightly cg-fem"),
    ("threaded.speedup", "ratio", "higher",
     "none today; guards executor consolidation", "none"),
    ("dist.speedup", "ratio", "higher",
     "none today; guards executor consolidation", "none"),
    ("engine.plan_s", "s", "lower", "setup_s", "cg-fem, serve-mix"),
    ("engine.materialize_s", "s", "lower", "setup_s", "cg-fem, serve-mix"),
    ("solvers.iterations", "count", "lower", "latency_ms.* on cg-fem",
     "cg-fem"),
    ("solvers.solve_ms.p50", "ms", "lower", "latency_ms.* on cg-fem",
     "cg-fem"),
    ("solvers.op_frac", "fraction", "higher", "latency_ms.* on cg-fem",
     "cg-fem"),
    ("serve.register_s", "s", "lower", "setup_s",
     "serve-lone, serve-mix, http-lone"),
    ("client.overhead_us.p50", "us", "lower", _SERVE, "serve-lone"),
    ("scheduler.queue_ms.p50", "ms", "lower", _SERVE,
     "serve-lone, serve-mix"),
    ("scheduler.batch_size.mean", "count", "higher",
     "latency_ms.* on serve-mix", "serve-mix"),
    ("scheduler.rejected", "count", "lower", "ok_frac", "serve-mix"),
    ("client.latency_ms.p50", "ms", "lower", _SERVE,
     "serve-lone, serve-mix"),
    ("client.latency_ms.p99", "ms", "lower", _SERVE,
     "serve-lone, serve-mix"),
    ("gen.late_ms.p99", "ms", "lower",
     "nothing; a late generator invalidates serve-mix", "serve-mix"),
    ("transport.overhead_ms.p50", "ms", "lower",
     "latency_ms.* and throughput_per_s on http-lone", "http-lone"),
    ("transport.latency_ms.p99", "ms", "lower",
     "latency_ms.* and throughput_per_s on http-lone", "http-lone"),
    ("observe.trace_overhead_frac", "fraction", "lower", "nothing", "all"),
]


def e2e_defs() -> dict:
    return {n: {"unit": u, "better": b, "bound": bd} for n, u, b, bd in E2E}


def layer_defs() -> dict:
    return {n: {"unit": u, "better": b, "moves": mv, "on": on}
            for n, u, b, mv, on in PER_LAYER}
