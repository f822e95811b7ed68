"""How the benchmark drives the program: the tuner, the in-process
client, the HTTP server subprocess, and a checked closed loop."""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import answer_ok, maybe_corrupt

from repro.core.engine import SpmvEngine
from repro.machines.registry import get_machine
from repro.serve import ServeClient

#: Machine model every workload plans for (ServeClient's default).
MACHINE = "AMD X2"


def tune(coo):
    """``SpmvEngine.tune`` on the C backend."""
    return SpmvEngine(get_machine(MACHINE)).tune(coo, backend="c")


def make_client(nproc: int) -> ServeClient:
    return ServeClient(MACHINE, backend="c", n_workers=nproc)


class Server:
    """A ``repro serve --backend c`` subprocess and one persistent
    HTTP/1.1 connection to it."""

    def __init__(self, nproc: int):
        self.conn = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "c",
             "--port", "0", "--workers", str(nproc)],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stderr.readline()
        found = re.search(r"http://[\d.]+:(\d+)", line)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", int(found.group(1)), timeout=60)

    def post(self, path: str, body: dict) -> dict:
        self.conn.request("POST", path, json.dumps(body),
                          {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"{path} answered {resp.status}: "
                               f"{data[:200]!r}")
        return json.loads(data)

    def register(self, coo) -> str:
        return self.post("/v1/matrices", {
            "shape": list(coo.shape), "row": coo.row.tolist(),
            "col": coo.col.tolist(), "val": coo.val.tolist(),
        })["fingerprint"]

    def spmv(self, fp: str, x: np.ndarray) -> list:
        return self.post("/v1/spmv", {"fingerprint": fp,
                                      "x": x.tolist()})["y"]

    def stop(self) -> None:
        """SIGINT drains and exits; kill if it does not within 10 s."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class FloorRef:
    """The shape of a lone serve request without the program: hand a
    token to a thread that sleeps the scheduler's default flush deadline
    and hands it back. It shows how the host's timers and thread wake-ups
    drift, which set a lone request's latency."""

    def __init__(self, wait_s: float = 0.002):
        self.wait_s = wait_s
        self._in: queue.SimpleQueue = queue.SimpleQueue()
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while self._in.get() is not None:
            time.sleep(self.wait_s)
            self._out.put(True)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._in.put(True)
        self._out.get()
        return time.perf_counter() - t0

    def close(self) -> None:
        self._in.put(None)
        self._thread.join(timeout=5)


def closed_loop(run, call, m, seconds: float, span: str,
                ref=None) -> dict:
    """One caller sends ``call(x)`` for each x of ``m``'s pool in turn,
    the next after the previous answer, for ``seconds``; every answer is
    checked. With ``ref``, each call is followed by one timed ``ref()``.
    Returns per-call and per-reference seconds and the loop's wall
    time."""
    lat, refs = [], []
    pool = len(m.xs)
    t_start = time.perf_counter()
    t_end = t_start + seconds
    i = 0
    while time.perf_counter() < t_end:
        j = i % pool
        ok = True
        with run.tracer.span(span):
            t0 = time.perf_counter()
            try:
                y = call(m.xs[j])
            except Exception:  # noqa: BLE001 - counted as a miss
                ok, y = False, None
            lat.append(time.perf_counter() - t0)
        run.count(ok and answer_ok(maybe_corrupt(y), m.ys[j]))
        if ref is not None:
            refs.append(ref())
        i += 1
    return {"lat": lat, "ref": refs, "wall": time.perf_counter() - t_start}
