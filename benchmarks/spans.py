"""Per-op-kind breakdown of a spans file written by a traced run.

    python3 benchmarks/spans.py .bench_out/spans-wide-32of16-seed1.jsonl

For each op kind, prints the op's total seconds and, for every span name
inside it, the self seconds and their share of that total.  Self time is
a span's duration minus its direct children's.
"""

import json
import sys
from collections import defaultdict


def breakdown(path: str) -> dict[str, tuple[float, dict[str, float]]]:
    with open(path) as f:
        f.readline()  # header: workload, seed and fingerprint
        spans = [json.loads(line) for line in f]
    kind = {}
    child_ns = defaultdict(int)
    for op, _, parent, name, start, end, _ in spans:
        if parent < 0:
            kind[op] = name
        else:
            child_ns[parent] += end - start
    total = defaultdict(int)
    self_ns = defaultdict(lambda: defaultdict(int))
    for op, sid, parent, name, start, end, _ in spans:
        if parent < 0:
            total[kind[op]] += end - start
        self_ns[kind[op]][name] += end - start - child_ns[sid]
    return {k: (total[k] / 1e9, {n: v / 1e9 for n, v in self_ns[k].items()}) for k in total}


def main(path: str) -> None:
    for kind, (total, layers) in breakdown(path).items():
        print(f"{kind}: {total:.4g} s")
        for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {seconds:10.4g} s {100 * seconds / total:6.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
