"""Fresh-interpreter probe, started by run.py as a child process.

    python3 benchmarks/probe.py                   # set-up times only
    python3 benchmarks/probe.py WORKLOAD_JSON SEED  # and peak RSS of one pass

Prints one JSON object.  Set-up is `import sbshare` plus its first tiny
split and combine, which builds the lazy GF tables.  numpy is imported
first and timed apart: its import is most of the total, is no work of
sbshare's, and swings by up to 2.5x from run to run with the host's
load, which would hide any change in sbshare's own set-up.  With a workload,
the probe then builds that workload's range share set and splits and
combines one message, and reports the process's RSS high-water mark.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t_numpy = time.perf_counter()
import numpy  # noqa: E402, F401

t0 = time.perf_counter()
import sbshare  # noqa: E402

t1 = time.perf_counter()
_params = sbshare.SchemeParams(n=3, m=2)
if sbshare.combine(sbshare.split(b"setup", _params)[1:]) != b"setup":
    raise SystemExit("probe: first split and combine disagree")
t2 = time.perf_counter()
result = {"numpy_import_s": t0 - t_numpy, "import_s": t1 - t0, "first_op_s": t2 - t1}


def vm_hwm_mib() -> float:
    """RSS high-water mark of this process's own address space.

    /proc/self/status VmHWM, unlike getrusage's ru_maxrss, does not
    inherit the parent's high-water mark across fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if len(sys.argv) == 3:
    import workloads

    workload = workloads.Workload(**json.loads(sys.argv[1]))
    ctx = workloads.Context(workload, int(sys.argv[2]), tmp=Path("."))
    if not workloads.one_pass(ctx):
        raise SystemExit("probe: split and combine disagree")
    result["peak_rss_MiB"] = vm_hwm_mib()

print(json.dumps(result))
