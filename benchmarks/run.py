"""sbshare benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sbshare is imported from its ``src``.
One process, one thread, a closed loop with one caller.  Every op's
output is checked, and untimed edge cases run first.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed.

``--trace 0`` measures for S seconds with no wrappers installed and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
cycles twice on the same inputs, first plain and then with span
wrappers, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``.bench_out/``.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from importlib import metadata
from pathlib import Path

import workloads as wl
import tracing

HERE = Path(__file__).resolve().parent
OUT_DIR = wl.ROOT / ".bench_out"
TMP_DIR = wl.ROOT / ".bench_tmp"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 150

LATENCY_KINDS = ("secret_split", "secret_combine", "range")
THROUGHPUT_KINDS = ("split", "combine", "cli_split", "cli_combine")
OP_KINDS = THROUGHPUT_KINDS + LATENCY_KINDS


# -- fresh-interpreter probes -------------------------------------------


def probe(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=wl.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_process_metrics(workload: wl.Workload, seed: int, rss: bool) -> dict:
    """Median set-up times over SETUP_PROBES fresh interpreters, and peak RSS.

    numpy's import time is returned for the log; it is not part of set-up.

    With rss, the first probe also runs one pass of the workload.
    """
    first = [json.dumps(dataclasses.asdict(workload)), str(seed)] if rss else []
    runs = [probe(*first)] + [probe() for _ in range(SETUP_PROBES - 1)]
    out = {
        "numpy_import_s": statistics.median(r["numpy_import_s"] for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "setup.first_op_s": statistics.median(r["first_op_s"] for r in runs),
        "setup_s": statistics.median(r["import_s"] + r["first_op_s"] for r in runs),
    }
    if rss:
        out["peak_rss_MiB"] = runs[0]["peak_rss_MiB"]
    return out


# -- fingerprint ----------------------------------------------------------


def src_lines() -> dict[str, int]:
    pkg = wl.SRC / "sbshare"
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))}


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (wl.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def fingerprint() -> dict:
    digest = hashlib.sha256()
    for p in sorted((wl.SRC / "sbshare").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "cryptography": _version("cryptography"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines(),
    }


# -- statistics -------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples leaves 10 above it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(loop: wl.Loop, message_bytes: int) -> dict:
    """Throughput in plaintext MiB per second at the p75 op time; p75 latency in ms.

    A shared host's speed changes over seconds to minutes.  At times it
    swings by nearly 2x between a fast and a slow mode whose shares of a
    run vary, which moves a mean or a median of op times; at others it
    stays fast apart from short stalls, which move a p90.  The p75 op
    time is steady in both cases as long as the slow mode holds more and
    the stalls less than a quarter of the run.  Medians and p90s are
    printed but not reported as metrics.
    """
    out = {}
    for kind in THROUGHPUT_KINDS:
        out[f"{kind}_MiBps.at_p75"] = message_bytes / wl.MiB / percentile(loop.times[kind], 75)
    for kind in LATENCY_KINDS:
        out[f"{kind}_ms.p75"] = percentile(loop.times[kind], 75) * 1e3
    return out


def overhead_pct(plain: wl.Loop, traced: wl.Loop) -> float:
    """Extra op time of the traced phase over the plain one, on identical inputs."""
    kinds = [k for k in OP_KINDS if plain.times.get(k) and traced.times.get(k)]
    base = sum(sum(plain.times[k]) for k in kinds)
    return 100 * (sum(sum(traced.times[k]) for k in kinds) / base - 1)


def per_layer(spans, mem_spans, message_bytes: int) -> dict:
    total, self_s, calls, units = tracing.totals(spans)
    peak = tracing.peaks(mem_spans)
    read_bytes = units["rrsg.read"]
    out = {
        "rrsg.read_s": total["rrsg.read"],
        "rrsg.read_calls": calls["rrsg.read"],
        "rrsg.bytes": read_bytes,
        "rrsg.ns_per_byte": total["rrsg.read"] * 1e9 / read_bytes if read_bytes else 0.0,
        "shamir.split_key_s": total["shamir.split_key"],
        "shamir.split_key_calls": calls["shamir.split_key"],
        "shamir.recover_key_s": total["shamir.recover_key"],
        "shamir.recover_key_calls": calls["shamir.recover_key"],
    }
    for name in ("derive_points", "field_indices", "eval_blocks", "interpolate_blocks"):
        out[f"engine.{name}_s"] = total[f"engine.{name}"]
    for name in ("engine.split_payloads", "engine.recover_padded", "scheme.split", "scheme.combine", "scheme.range"):
        out[f"{name}.self_s"] = self_s[name]
    out["engine.blocks"] = units["engine.split_payloads"] + units["engine.recover_padded"]
    out["share_format.encode_s"] = total["share_format.encode"]
    out["share_format.decode_s"] = total["share_format.decode"]
    out["cli.self_s"] = self_s["cli.main"]
    for kind in OP_KINDS:
        out[f"op.{kind}_s"] = total[f"op.{kind}"]
    out["rrsg.peak_x"] = peak["rrsg.read"] / message_bytes
    out["engine.peak_x"] = max(peak["engine.split_payloads"], peak["engine.recover_padded"]) / message_bytes
    return out


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- one run ------------------------------------------------------------------


@contextmanager
def traced_memory(recorder: tracing.Recorder | None, result: dict):
    """tracemalloc on for the block; the overall peak lands in result["peak"]."""
    tracemalloc.start()
    try:
        with tracing.installed(recorder) if recorder else nullcontext():
            yield
        result["peak"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_end_to_end(ctx: wl.Context, seconds: float) -> tuple[dict, list[wl.Loop]]:
    mem = {}
    if not wl.one_pass(ctx, lambda: traced_memory(None, mem)):
        raise RuntimeError("memory pass: split and combine disagree")
    loop = wl.Loop()
    wl.run_for(loop, ctx, seconds)
    metrics = end_to_end(loop, ctx.w.message_bytes) if not loop.failed else {}
    metrics["peak_x"] = mem["peak"] / ctx.w.message_bytes
    return metrics, [loop]


def measure_layers(ctx: wl.Context, name: str, seed: int) -> tuple[dict, list[wl.Loop]]:
    """Run the workload's fixed cycles plain, then again on the same inputs with spans."""
    mem_recorder = tracing.Recorder(track_memory=True)
    if not wl.one_pass(ctx, lambda: traced_memory(mem_recorder, {})):
        raise RuntimeError("memory pass: split and combine disagree")
    state = ctx.rng.bit_generator.state
    plain = wl.Loop()
    wl.run_cycles(plain, ctx, ctx.w.trace_cycles)
    ctx.rng.bit_generator.state = state
    recorder = tracing.Recorder()
    traced = wl.Loop(recorder=recorder)
    with tracing.installed(recorder):
        wl.run_cycles(traced, ctx, ctx.w.trace_cycles)

    metrics = per_layer(recorder.spans, mem_recorder.spans, ctx.w.message_bytes)
    lines = src_lines()
    metrics["src.lines"] = sum(lines.values())
    for module in ("__init__", "rrsg", "gf", "shamir", "_engine", "scheme", "share_format", "cli"):
        metrics[f"src.lines.{module}"] = lines.get(module, 0)
    metrics["trace.overhead_pct"] = overhead_pct(plain, traced)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    recorder.dump(spans_path, {"workload": name, "seed": seed, "fingerprint": fingerprint()})
    print(f"spans: {spans_path.relative_to(wl.ROOT)} ({len(recorder.spans)} spans)")
    return metrics, [plain, traced]


def summary(loop: wl.Loop) -> str:
    parts = []
    for kind in OP_KINDS:
        times = loop.times.get(kind, [])
        if times:
            p50, p75, p90 = (percentile(times, p) * 1e3 for p in (50, 75, 90))
            parts.append(f"{kind} n={len(times)} p50={p50:.4g}ms p75={p75:.4g}ms p90={p90:.4g}ms")
    return "; ".join(parts)


def run(name: str, workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the last stdout line holds."""
    cases, failures = wl.preflight(seed)
    if failures:
        print(f"benchmark: preflight failed: {', '.join(failures)}", file=sys.stderr)
        return {"correct": False, "attempted": cases, "failed": len(failures), "metrics": {}}

    fresh = fresh_process_metrics(workload, seed, rss=not trace)
    print(f"numpy import {fresh['numpy_import_s']:.4g} s (median, fresh interpreters; not in setup_s)")
    tmp = TMP_DIR / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.Context(workload, seed, tmp)
        if trace:
            metrics, loops = measure_layers(ctx, name, seed)
            metrics["setup.import_s"] = fresh["setup.import_s"]
            metrics["setup.first_op_s"] = fresh["setup.first_op_s"]
        else:
            metrics, loops = measure_end_to_end(ctx, seconds)
            metrics["peak_rss_MiB"] = fresh["peak_rss_MiB"]
            metrics["setup_s"] = fresh["setup_s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.exists() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {name} seed {seed} trace {int(trace)}: {attempted} ops, {failed} failed, "
          f"error_rate {failed / attempted:.4g}")
    print("ops: " + summary(loops[-1]))
    units = metric_units()
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    print("fingerprint " + json.dumps(fingerprint()))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
