"""Span recorder for the traced run.

Spans are recorded around the public sbshare names that callers look
up at call time; the library itself is not changed.  Wrappers are
installed only for the duration of a traced phase and removed after.
"""

import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from workloads import _engine, cli, scheme, share_format


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "units", "base", "high")

    def __init__(self, op, sid, parent, name):
        self.op, self.id, self.parent, self.name = op, sid, parent, name
        self.start = self.end = self.units = 0
        self.base = self.high = 0


class Recorder:
    """Keeps spans in memory; with track_memory, also each span's tracemalloc peak.

    A span's peak is the highest traced allocation level reached while
    it was open, less the level when it opened.  tracemalloc has one
    global peak, so each span folds the peak reached so far into its
    parent before resetting it, and hands its own high mark up on exit.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0

    def op(self, kind: str, fn):
        """Wrap one benchmark op as the root span of a new op id."""
        self._op += 1
        return self.wrap("op." + kind, fn)

    def wrap(self, name, fn, units=None):
        spans, stack, memory = self.spans, self._stack, self.track_memory

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(self._op, len(spans), parent.id if parent else -1, name)
            spans.append(span)
            stack.append(span)
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.high = max(parent.high, peak)
                tracemalloc.reset_peak()
                span.base = span.high = current
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if memory:
                    span.high = max(span.high, tracemalloc.get_traced_memory()[1])
                    if parent is not None:
                        parent.high = max(parent.high, span.high)
            if units is not None:
                span.units = units(args, result)
            return result

        return wrapper

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps([s.op, s.id, s.parent, s.name, s.start, s.end, s.units]) + "\n")


def _targets():
    """(module, attribute, span name, units) for every wrapped name.

    cli imports split, combine and recover_range into its own namespace,
    and scheme.combine calls scheme.recover_range, so those names are
    wrapped where each caller looks them up.
    """
    return [
        (_engine, "derive_points", "engine.derive_points", None),
        (_engine, "field_indices", "engine.field_indices", None),
        (_engine, "eval_blocks", "engine.eval_blocks", None),
        (_engine, "interpolate_blocks", "engine.interpolate_blocks", None),
        (_engine, "split_payloads", "engine.split_payloads", lambda a, r: len(r[0]) if r else 0),
        (_engine, "recover_padded", "engine.recover_padded", lambda a, r: len(a[0][0]) if a[0] else 0),
        (scheme, "split_key", "shamir.split_key", None),
        (scheme, "recover_key", "shamir.recover_key", None),
        (scheme, "split", "scheme.split", None),
        (scheme, "combine", "scheme.combine", None),
        (scheme, "recover_range", "scheme.range", None),
        (cli, "split", "scheme.split", None),
        (cli, "combine", "scheme.combine", None),
        (cli, "recover_range", "scheme.range", None),
        (share_format, "encode_share", "share_format.encode", None),
        (share_format, "decode_share", "share_format.decode", None),
        (cli, "encode_share", "share_format.encode", None),
        (cli, "decode_share", "share_format.decode", None),
        (cli, "main", "cli.main", None),
    ]


@contextmanager
def installed(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    for module, attr, name, units in _targets():
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"benchmark: {module.__name__}.{attr} not found; {name} not traced", file=sys.stderr)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, recorder.wrap(name, fn, units))

    open_stream = getattr(scheme, "new_stream", None)
    if open_stream is None:
        print("benchmark: scheme.new_stream not found; rrsg.read not traced", file=sys.stderr)
    else:
        def new_stream(*args, **kwargs):
            stream = open_stream(*args, **kwargs)
            stream.read = recorder.wrap("rrsg.read", stream.read, lambda a, r: len(r))
            return stream

        saved.append((scheme, "new_stream", open_stream))
        scheme.new_stream = new_stream
    try:
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def totals(spans: list[Span]):
    """Per span name: total seconds, self seconds, calls and units.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs the benchmark, so children never overlap.
    """
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    units = defaultdict(int)
    for s in spans:
        duration = s.end - s.start
        total[s.name] += duration / 1e9
        self_s[s.name] += (duration - child_ns[s.id]) / 1e9
        calls[s.name] += 1
        units[s.name] += s.units
    return total, self_s, calls, units


def peaks(spans: list[Span]) -> dict[str, int]:
    """Per span name: the largest peak in bytes over its calls."""
    out = defaultdict(int)
    for s in spans:
        out[s.name] = max(out[s.name], s.high - s.base)
    return out
