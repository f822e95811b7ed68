"""The benchmark's own smoke test: tiny matrices, about a second per
workload. Run from the repository root::

    python3 perfbench/smoke.py

It checks that BENCHMARK.json and metrics.py agree, that every metric
name is well formed and has a unit and a direction, that each workload
reports exactly its declared metrics (traced and untraced), that a
corrupted answer fails the run, and that another seed changes the
inputs but not the metric names.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import (E2E, PER_LAYER, WORKLOADS, e2e_defs,  # noqa: E402
                     layer_defs)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload: str, seed: int = 1, trace: int = 0,
          corrupt: bool = False) -> tuple[int, dict, dict]:
    env = dict(os.environ)
    env.pop("PERFBENCH_CORRUPT", None)
    if corrupt:
        env["PERFBENCH_CORRUPT"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, f"{workload}: no result (exit {proc.returncode})"
    info = json.loads(lines[-2])["info"]
    return proc.returncode, info, json.loads(lines[-1])


def check_declarations() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
            for m in spec["end_to_end"]} == e2e_defs()
    assert {m["name"]: {k: m[k] for k in ("unit", "better")}
            for m in spec["per_layer"]} == {
        n: {"unit": d["unit"], "better": d["better"]}
        for n, d in layer_defs().items()}
    for name, unit, better, *_ in E2E + PER_LAYER:
        assert NAME.fullmatch(name), name
        assert unit and NAME.fullmatch(unit.replace("/", "_")), (name, unit)
        assert better in ("lower", "higher"), (name, better)


def check_result(res: dict, declared: dict) -> None:
    assert res["correct"] is True and res["failed"] == 0, res
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == set(declared), (
        set(res["metrics"]) ^ set(declared))
    for name, m in res["metrics"].items():
        assert m["unit"] == declared[name]["unit"], name
        assert isinstance(m["value"], float), name


def main() -> int:
    check_declarations()
    for w in WORKLOADS:
        code, info, res = bench(w)
        assert code == 0, (w, code)
        check_result(res, e2e_defs())
        code, _, res = bench(w, trace=1)
        assert code == 0, (w, "trace", code)
        check_result(res, layer_defs())
        print(f"ok  {w}: e2e and per-layer metrics, digest "
              f"{info['input_digest']}")

    code, _, res = bench("serve-lone", corrupt=True)
    assert code != 0 and res["correct"] is False, res
    assert res["failed"] == res["attempted"], res
    print("ok  a corrupted answer fails the run")

    _, info1, res1 = bench("cg-fem", seed=1)
    _, info2, res2 = bench("cg-fem", seed=2)
    assert info1["input_digest"] != info2["input_digest"]
    assert set(res1["metrics"]) == set(res2["metrics"])
    print("ok  another seed changes the inputs, not the metric names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
