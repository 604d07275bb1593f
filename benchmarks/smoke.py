"""Smoke test of the benchmark itself at tiny sizes.

    python3 benchmarks/smoke.py
    python3 -m pytest benchmarks/smoke.py

Runs every workload shrunk to a few KiB, once untraced and once traced,
and checks that each run reports exactly the metrics BENCHMARK.json
names, with their units, and that no op failed (error rate 0).
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def tiny(w: wl.Workload) -> wl.Workload:
    return dataclasses.replace(
        w,
        message_bytes=3 * wl.KiB,
        small_rounds=1,
        trace_cycles=1,
    )


def test_smoke():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for name, workload in wl.WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(name, tiny(workload), seed=0, seconds=0.5, trace=trace)
            assert result["correct"], (name, trace)
            assert result["attempted"] > 0 and result["failed"] == 0, (name, trace)
            units = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (name, trace, set(got) ^ set(units))


if __name__ == "__main__":
    test_smoke()
    print("smoke: ok")
