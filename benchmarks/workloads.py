"""Workload definitions, timed operations and correctness checks.

Imports sbshare from the ``src`` directory of the checkout that holds
this file, never from an installed copy, so the benchmark always
measures the sources next to it.
"""

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sbshare" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no sbshare sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sbshare  # noqa: E402
from sbshare import _engine, cli, scheme, share_format  # noqa: E402
from sbshare.shamir import FieldPolicy, SchemeParams  # noqa: E402

if Path(sbshare.__file__).resolve().parent != SRC / "sbshare":
    raise SystemExit(f"benchmark: imported sbshare from {sbshare.__file__}, not {SRC}")

KiB = 1 << 10
MiB = 1 << 20
SECRET_BYTES = 32
MAX_RANGE_BLOCKS = 64


@dataclass(frozen=True)
class Workload:
    """One input mix.

    Every cycle splits and combines one message through the library and
    once through in-process ``cli.main``.  Before each of those four big
    ops it runs ``small_rounds`` rounds of: split and combine of a fresh
    32-byte secret, and one range read of 1 to 64 blocks from a share
    set of one more message, built before timing.  Every combine uses a
    seeded random subset of exactly m shares.
    """

    n: int
    m: int
    dual_seed: bool
    message_bytes: int
    small_rounds: int
    trace_cycles: int

    @property
    def params(self) -> SchemeParams:
        return SchemeParams(n=self.n, m=self.m, dual_seed=self.dual_seed)


# Why each workload exists is recorded in BENCHMARK.json.  The sizes make
# one untraced 45 s run hold at least 45 samples of each big op and 150 of
# each small op on a 2-vCPU x86 host, and keep each phase of a traced run
# near 10 s there.  Big ops of 0.07 to 0.3 s sample a host whose speed
# swings over seconds at many points of the run instead of averaging a
# few long stretches.  Spreading the small ops between the big ones
# samples that host evenly across the run.
WORKLOADS = {
    "bulk-5of3": Workload(5, 3, False, 512 * KiB, small_rounds=2, trace_cycles=10),
    "wide-32of16": Workload(32, 16, True, 64 * KiB, small_rounds=1, trace_cycles=12),
}


# -- operations ---------------------------------------------------------
#
# Each op looks its sbshare entry points up on the module at call time,
# so the wrappers a traced run installs see every call.


def split_op(message: bytes, params: SchemeParams) -> list[bytes]:
    shares = scheme.split(message, params)
    return [share_format.encode_share(s) for s in shares]


def combine_op(blobs: list[bytes], subset: list[int]) -> bytes:
    return scheme.combine([share_format.decode_share(blobs[i]) for i in subset])


def range_op(shares, start: int, count: int) -> bytes:
    return scheme.recover_range(shares, start, count)


def cli_op(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def padded(message: bytes, m: int) -> bytes:
    p = m - len(message) % m
    return message + bytes([p]) * p


class Context:
    """Inputs and scratch files of one workload run, all drawn from the seed."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w = workload
        self.params = workload.params
        self.rng = np.random.default_rng(seed)
        self.msg_path = tmp / "msg.bin"
        self.share_dir = tmp / "shares"
        self.out_path = tmp / "out.bin"
        range_msg = self.rng.bytes(workload.message_bytes)
        blobs = split_op(range_msg, self.params)
        self.range_shares = [share_format.decode_share(b) for b in blobs]
        self.range_padded = padded(range_msg, workload.m)

    def subset(self) -> list[int]:
        return sorted(int(i) for i in self.rng.choice(self.w.n, self.w.m, replace=False))

    def cli_split_argv(self) -> list[str]:
        argv = ["split", str(self.msg_path), "-n", str(self.w.n), "-m", str(self.w.m)]
        argv += ["-o", str(self.share_dir)]
        return argv + (["--dual-seed"] if self.w.dual_seed else [])

    def cli_combine_argv(self) -> list[str]:
        paths = [str(self.share_dir / f"msg.{i}.sbs1") for i in self.subset()]
        return ["combine", *paths, "-o", str(self.out_path)]


class Loop:
    """Closed loop with one caller: each op starts after the last returns.

    Records per-kind op times; counts ops whose output fails its check or
    that raise.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, kind: str, fn, check):
        if self.recorder is not None:
            fn = self.recorder.op(kind, fn)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            print(f"benchmark: {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t0
        if not check(result):
            self.failed += 1
            print(f"benchmark: {kind} returned a wrong result", file=sys.stderr)
            return None
        self.times.setdefault(kind, []).append(elapsed)
        return result


def small_ops(loop: Loop, ctx: Context) -> None:
    w, params, rng = ctx.w, ctx.params, ctx.rng
    total_blocks = len(ctx.range_padded) // w.m
    for _ in range(w.small_rounds):
        secret = rng.bytes(SECRET_BYTES)
        blobs = loop.op("secret_split", lambda: split_op(secret, params), lambda b: len(b) == w.n)
        if blobs is not None:
            subset = ctx.subset()
            loop.op("secret_combine", lambda: combine_op(blobs, subset), lambda out: out == secret)

        count = int(rng.integers(1, min(MAX_RANGE_BLOCKS, total_blocks) + 1))
        start = int(rng.integers(0, total_blocks - count + 1))
        shares = [ctx.range_shares[i] for i in ctx.subset()]
        want = ctx.range_padded[start * w.m : (start + count) * w.m]
        loop.op("range", lambda: range_op(shares, start, count), lambda out: out == want)


def cycle(loop: Loop, ctx: Context) -> None:
    w, params = ctx.w, ctx.params
    message = ctx.rng.bytes(w.message_bytes)
    small_ops(loop, ctx)
    blobs = loop.op("split", lambda: split_op(message, params), lambda b: len(b) == w.n)
    small_ops(loop, ctx)
    if blobs is not None:
        subset = ctx.subset()
        loop.op("combine", lambda: combine_op(blobs, subset), lambda out: out == message)

    ctx.msg_path.write_bytes(message)
    small_ops(loop, ctx)
    split_argv = ctx.cli_split_argv()
    split_rc = loop.op("cli_split", lambda: cli_op(split_argv), lambda rc: rc == 0)
    small_ops(loop, ctx)
    if split_rc is not None:
        combine_argv = ctx.cli_combine_argv()
        loop.op(
            "cli_combine",
            lambda: cli_op(combine_argv),
            lambda rc: rc == 0 and ctx.out_path.read_bytes() == message,
        )


def one_pass(ctx: Context, measure=contextlib.nullcontext) -> bool:
    """One untimed split and combine of a fresh message, inside `measure()`."""
    message = ctx.rng.bytes(ctx.w.message_bytes)
    subset = ctx.subset()
    with measure():
        return combine_op(split_op(message, ctx.params), subset) == message


def run_cycles(loop: Loop, ctx: Context, cycles: int) -> None:
    """Run exactly `cycles` whole cycles."""
    for _ in range(cycles):
        cycle(loop, ctx)


def run_for(loop: Loop, ctx: Context, seconds: float) -> None:
    """Run whole cycles until `seconds` have passed; the last one may run over."""
    deadline = time.perf_counter() + seconds
    while True:
        cycle(loop, ctx)
        if time.perf_counter() >= deadline:
            return


# -- untimed checks -----------------------------------------------------


def round_trip(message: bytes, params: SchemeParams, subset: list[int], ranges: bool) -> bool:
    """Split, encode, decode and combine; with ranges, also read back the
    last block, the whole payload and an empty range."""
    blobs = split_op(message, params)
    if combine_op(blobs, subset) != message:
        return False
    if not ranges:
        return True
    shares = [share_format.decode_share(blobs[i]) for i in subset]
    want = padded(message, params.m)
    blocks = len(want) // params.m
    last = range_op(shares, blocks - 1, 1) == want[-params.m :]
    whole = range_op(shares, 0, blocks) == want
    empty = range_op(shares, blocks, 0) == b""
    return last and whole and empty


def preflight(seed: int) -> tuple[int, list[str]]:
    """Round-trip the parameter edges; return the case count and the failed names.

    n=m=255 skips the range reads: each recovery at m=255 costs seconds.
    """
    rng = np.random.default_rng([seed, 1])
    cases = {
        "m=1": (SchemeParams(n=3, m=1), 100, True),
        "n=m": (SchemeParams(n=4, m=4), 100, True),
        "n=m=255": (SchemeParams(n=255, m=255), 3, False),
        "empty message": (SchemeParams(n=5, m=3), 0, True),
        "partial last block": (SchemeParams(n=5, m=3), 1000, True),
        "fixed_field": (SchemeParams(n=5, m=3, field_policy=FieldPolicy.FIXED_CANONICAL), 1000, True),
        "dual_seed": (SchemeParams(n=6, m=4, dual_seed=True), 1000, True),
    }
    failures = []
    for name, (params, size, ranges) in cases.items():
        message = rng.bytes(size)
        subset = sorted(int(i) for i in rng.choice(params.n, params.m, replace=False))
        try:
            ok = round_trip(message, params, subset, ranges)
        except Exception:
            print(f"benchmark: preflight {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            ok = False
        if not ok:
            failures.append(name)
    return len(cases), failures
