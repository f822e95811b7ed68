"""One workload run, in its own process (started by ``run.py``).

Prints the result JSON as its last stdout line. Usage::

    python perfbench/worker.py --workload serve-lone --seed 1 \
        --seconds 10 --trace 0 [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

import layers
from common import (CG_TOL, LARGE, SMALL, SMOKE_SCALE, Tracer, answer_ok,
                    build_ref, cg_ok, corrupt_enabled, host_info,
                    input_digest, make_matrix, maybe_corrupt, median, pct,
                    peak_rss_mb, ref_sweep)
from drivers import FloorRef, Server, closed_loop, make_client, tune
from metrics import NOMINAL_BUILD_MS, NOMINAL_REF_MS, WORKLOADS

from repro.observe.metrics import get_registry
from repro.solvers.cg import conjugate_gradient

#: scipy products per cg-fem reference sweep.
CG_REF_REPS = 10
#: serve-mix: offered rate, burst size and load-window length.
MIX_RATE = 48.0
MIX_BURST = 8
MIX_LOAD_S = 2.0
#: Least time between two bursts. Large bursts alternate with small ones,
#: so two large batches are at least 2 × MIX_GAP_S apart: twice what one
#: large k = 8 batch takes on the parent (about 100 ms on a 2-core Xeon),
#: so large batches queue behind each other only once that time grows.
MIX_GAP_S = 0.1


def timed_setups(setup, teardown, reps: int, ref=None):
    """One untimed warm set-up, then ``reps`` timed fresh ones; every
    handle but the last is torn down. Each set-up ends with a checked
    first answer. With ``ref``, each set-up time is divided by one
    ``ref()`` timed right after it. Returns (handle, times)."""
    handle = setup()
    times = []
    for _ in range(reps):
        teardown(handle)
        t0 = time.perf_counter()
        handle = setup()
        dt = time.perf_counter() - t0
        times.append(dt / ref() if ref is not None else dt)
    return handle, times


def build_refs(*mats, reps: int = 1):
    """Set-up reference: median of three scipy CSR builds of ``mats``."""
    return lambda: median([build_ref(mats, reps) for _ in range(3)])


def setup_s(workload: str, ratios) -> float:
    """Median set-up time over its reference, in seconds on a host where
    the reference takes its nominal time."""
    return median(ratios) * NOMINAL_BUILD_MS[workload] / 1e3


class Run:
    """Shared state of one workload run."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = SMOKE_SCALE if args.smoke else 1.0
        self.nproc = os.cpu_count() or 1
        self.tracer = Tracer()
        self.attempted = 0
        self.ok = 0
        self.layers: dict = {}
        self.digest = ""

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.ok += bool(ok)

    def phases(self, loop):
        """Run ``loop(seconds)`` once untraced and, in a traced run, once
        more with spans on (they stay on for the layer probes); returns
        (untraced, traced-or-None)."""
        share = self.seconds / 2 if self.trace else self.seconds
        plain = loop(share)
        if not self.trace:
            return plain, None
        self.tracer.enabled = True
        get_registry().reset()
        return plain, loop(share)


def _e2e(run: Run, setup, p50_ms, p90_ms, throughput, rss) -> dict:
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (run.ok / max(run.attempted, 1), "fraction"),
        "latency_ms.p50": (p50_ms, "ms"),
        "latency_ms.p90": (p90_ms, "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }


# ------------------------------------------------------------- cg-fem
def cg_fem(run: Run) -> dict:
    """Tune once, then CG solves in a closed single-thread loop; each
    solve is divided by the mean of the scipy sweeps timed right before
    and right after it."""
    m = make_matrix(LARGE, run.seed, pool=1, scale=run.scale, make_spd=True)
    run.digest = input_digest(m)
    x_true, b = m.xs[0], m.ys[0]
    n = m.coo.nrows

    def setup():
        tuned = tune(m.coo)
        res = conjugate_gradient((tuned, n), b, tol=CG_TOL)
        run.count(cg_ok(res.converged, maybe_corrupt(res.x), m, b, x_true))
        return tuned

    tuned, ratios = timed_setups(setup, lambda h: None, reps=5,
                                 ref=build_refs(m))
    tr = run.tracer

    def op(v):
        with tr.span("solvers.op"):
            return tuned(v)

    def loop(seconds):
        rel, raw, iters = [], [], []
        t_ref = ref_sweep(m.scipy, x_true, CG_REF_REPS)
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            with tr.span("solvers.solve"):
                t0 = time.perf_counter()
                res = conjugate_gradient((op, n), b, tol=CG_TOL)
                t_solve = time.perf_counter() - t0
            run.count(cg_ok(res.converged, maybe_corrupt(res.x), m, b,
                            x_true))
            t_prev, t_ref = t_ref, ref_sweep(m.scipy, x_true, CG_REF_REPS)
            rel.append(t_solve / (0.5 * (t_prev + t_ref)))
            raw.append(t_solve)
            iters.append(res.iterations)
        return {"rel": rel, "raw": raw, "iters": iters}

    plain, traced = run.phases(loop)
    lat_ms = [r * NOMINAL_REF_MS["cg-fem"] for r in plain["rel"]]
    out = _e2e(run, setup_s("cg-fem", ratios), pct(lat_ms, 50),
               pct(lat_ms, 90), 1e3 / float(np.mean(lat_ms)), peak_rss_mb())
    if traced is not None:
        run.layers.update({
            "solvers.iterations": float(median(traced["iters"])),
            "solvers.solve_ms.p50": median(traced["raw"]) * 1e3,
            "solvers.op_frac": (tr.total("solvers.op")
                                / tr.total("solvers.solve")),
            "observe.trace_overhead_frac": (median(traced["rel"])
                                            / median(plain["rel"]) - 1),
            "gen.late_ms.p99": 0.0,
        })
        layers.probe(run, m, tuned.matrix, solver=False)
    return out


# ---------------------------------------------------------- serve-lone
def serve_lone(run: Run) -> dict:
    """One closed-loop caller of ServeClient.spmv on the small matrix.
    Each request is followed by one FloorRef hand-off; the latency
    quantiles are divided by the same quantiles of the reference, and
    throughput by its mean."""
    m = make_matrix(SMALL, run.seed, pool=16, scale=run.scale)
    run.digest = input_digest(m)

    def setup():
        client = make_client(run.nproc)
        fp = client.register(m.coo).fingerprint
        run.count(answer_ok(maybe_corrupt(client.spmv(fp, m.xs[0])),
                            m.ys[0]))
        return client, fp

    (client, fp), ratios = timed_setups(
        setup, lambda h: h[0].close(), reps=21, ref=build_refs(m, reps=10))
    floor = FloorRef()
    try:
        plain, traced = run.phases(lambda s: closed_loop(
            run, lambda x: client.spmv(fp, x), m, s, "client.spmv",
            ref=floor))
    finally:
        floor.close()
    rss = peak_rss_mb()
    lat, ref = plain["lat"], plain["ref"]
    nominal = NOMINAL_REF_MS["serve-lone"]
    out = _e2e(run, setup_s("serve-lone", ratios),
               pct(lat, 50) / pct(ref, 50) * nominal,
               pct(lat, 90) / pct(ref, 90) * nominal,
               1e3 / (float(np.mean(lat)) / float(np.mean(ref)) * nominal),
               rss)
    if traced is not None:
        run.layers.update(layers.serve_loop_metrics(traced["lat"]))
        run.layers["observe.trace_overhead_frac"] = (
            median(traced["lat"]) / median(plain["lat"]) - 1)
        run.layers["gen.late_ms.p99"] = 0.0
        layers.probe(run, m, client.registry.get(fp).matrix,
                     client_lat=traced["lat"])
    client.close()
    return out


# ----------------------------------------------------------- serve-mix
def serve_mix(run: Run) -> dict:
    """Open loop: one generator thread submits Poisson-timed bursts of 8
    same-matrix requests, alternating small and large matrix, at least
    MIX_GAP_S apart. Between load windows the service idles while the
    reference (scipy S @ X, k = 8, large matrix) is timed; each
    large-matrix request's latency, from its scheduled send time, is
    divided by the mean of the references before and after its window."""
    small = make_matrix(SMALL, run.seed, pool=MIX_BURST, scale=run.scale)
    large = make_matrix(LARGE, run.seed, pool=MIX_BURST, scale=run.scale)
    run.digest = input_digest(small, large)
    mats = (small, large)
    x_ref = np.ascontiguousarray(large.xs.T)

    def setup():
        client = make_client(run.nproc)
        fps = [client.register(mm.coo).fingerprint for mm in mats]
        for mm, fp in zip(mats, fps):
            run.count(answer_ok(maybe_corrupt(client.spmv(fp, mm.xs[0])),
                                mm.ys[0]))
        return client, fps

    (client, fps), ratios = timed_setups(
        setup, lambda h: h[0].close(), reps=5, ref=build_refs(*mats))
    rng = np.random.default_rng([run.seed, 7])
    per_window = max(1, round(MIX_RATE * MIX_LOAD_S / MIX_BURST))
    tr = run.tracer

    def reference() -> float:
        return median([ref_sweep(large.scipy, x_ref, 1) for _ in range(7)])

    def window(records, late):
        """One load window; returns the time from its start until the
        window ends or the last answer arrives, whichever is later."""
        t0 = time.perf_counter() + 0.005
        # A Poisson process with dead time MIX_GAP_S, conditioned on
        # per_window arrivals: sorted uniforms, the k-th shifted by k gaps.
        free = MIX_LOAD_S - per_window * MIX_GAP_S
        times = (np.sort(rng.uniform(0.0, free, per_window))
                 + MIX_GAP_S * np.arange(per_window) + t0)
        first = int(rng.integers(2))
        futs = []
        lock = threading.Lock()
        done_at: dict = {}

        def on_done(key):
            def cb(_f):
                t = time.perf_counter()
                with lock:
                    done_at[key] = t
            return cb

        for k, t_sched in enumerate(times):
            which = (first + k) % 2
            delay = t_sched - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(time.perf_counter() - t_sched)
            order = rng.permutation(MIX_BURST)
            with tr.span("gen.burst"):
                for j in order:
                    key = (k, int(j))
                    try:
                        f = client.submit(fps[which], mats[which].xs[j])
                    except Exception:  # noqa: BLE001 - refusal is a miss
                        run.count(False)
                        continue
                    f.add_done_callback(on_done(key))
                    futs.append((key, which, int(j), float(t_sched), f))
        t_last = t0 + MIX_LOAD_S
        for key, which, j, t_sched, f in futs:
            try:
                y = f.result(timeout=60)
                ok = answer_ok(maybe_corrupt(y), mats[which].ys[j])
            except Exception:  # noqa: BLE001 - counted as a miss
                ok = False
            run.count(ok)
            with lock:
                t_done = done_at.get(key, time.perf_counter())
            records.append((which, t_done - t_sched))
            t_last = max(t_last, t_done)
        # Answers spilling past the window lower the completion rate.
        return t_last - t0

    def loop(seconds):
        rel, lat_all, late, span_s, n_done = [], [], [], 0.0, 0
        refs = [reference()]
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            records: list = []
            span_s += window(records, late)
            refs.append(reference())
            ref = 0.5 * (refs[-2] + refs[-1])
            rel += [lat / ref for which, lat in records if which == 1]
            lat_all += [lat for _, lat in records]
            n_done += len(records)
        return {"rel": rel, "lat": lat_all, "late": late,
                "throughput": n_done / span_s}

    plain, traced = run.phases(loop)
    rss = peak_rss_mb()
    lat_ms = [r * NOMINAL_REF_MS["serve-mix"] for r in plain["rel"]]
    out = _e2e(run, setup_s("serve-mix", ratios), pct(lat_ms, 50),
               pct(lat_ms, 90), plain["throughput"], rss)
    if traced is not None:
        run.layers.update(layers.serve_loop_metrics(traced["lat"]))
        run.layers["gen.late_ms.p99"] = pct(traced["late"], 99) * 1e3
        run.layers["observe.trace_overhead_frac"] = (
            median(traced["rel"]) / median(plain["rel"]) - 1)
        layers.probe(run, large, client.registry.get(fps[1]).matrix)
    client.close()
    return out


# ----------------------------------------------------------- http-lone
def http_lone(run: Run) -> dict:
    """One persistent HTTP/1.1 connection, closed loop, small matrix."""
    m = make_matrix(SMALL, run.seed, pool=16, scale=run.scale)
    run.digest = input_digest(m)

    def setup():
        server = Server(run.nproc)
        try:
            fp = server.register(m.coo)
            run.count(answer_ok(maybe_corrupt(server.spmv(fp, m.xs[0])),
                                m.ys[0]))
        except BaseException:
            server.stop()
            raise
        return server, fp

    # Raw seconds: a server set-up is mostly starting Python, which a
    # scipy build does not stand for.
    (server, fp), setup_times = timed_setups(
        setup, lambda h: h[0].stop(), reps=5)
    try:
        plain, traced = run.phases(lambda s: closed_loop(
            run, lambda x: server.spmv(fp, x), m, s, "transport.request"))
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    lat_ms = [v * 1e3 for v in plain["lat"]]
    out = _e2e(run, median(setup_times), pct(lat_ms, 50), pct(lat_ms, 90),
               len(lat_ms) / plain["wall"], rss)
    if traced is not None:
        run.layers["observe.trace_overhead_frac"] = (
            median(traced["lat"]) / median(plain["lat"]) - 1)
        run.layers["gen.late_ms.p99"] = 0.0
        # The server's own structure: the same registration in-process.
        client = make_client(run.nproc)
        matrix = client.register(m.coo).matrix
        client.close()
        layers.probe(run, m, matrix, http_lat=traced["lat"])
    return out


RUNNERS = {"cg-fem": cg_fem, "serve-lone": serve_lone,
           "serve-mix": serve_mix, "http-lone": http_lone}
assert set(RUNNERS) == set(WORKLOADS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=None,
                    help="traced runs write their layer report here")
    args = ap.parse_args(argv)
    run = Run(args)
    metrics = RUNNERS[args.workload](run)
    correct = run.ok == run.attempted and run.attempted > 0
    info = {"workload": args.workload, "seed": args.seed,
            "input_digest": run.digest, "corrupt": corrupt_enabled(),
            "ckernel_cache_warm": os.environ.get("PERFBENCH_CACHE_WARM")
            == "1", "host": host_info()}
    if args.trace:
        report = layers.report(run, info, metrics)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        shown = {k: {"value": v["value"], "unit": v["unit"]}
                 for k, v in report["per_layer"].items()}
    else:
        shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.attempted - run.ok, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
