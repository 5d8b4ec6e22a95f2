"""Run one srmkit CLI command in this fresh process and report what it cost.

    python3 perfbench/child.py RESULT.json [--trace] -- <srmkit CLI arguments>

The process imports srmkit, notes its post-import peak RSS, calls
``srmkit.cli.main`` once and writes to RESULT.json the exit code, the wall
time around that call and the peak RSS above the post-import baseline.

With ``--trace`` the public functions of srmkit are wrapped first (see
tracer.py) and the recorded spans are written too.

The peak is the kernel's high-water mark of this process image (``VmHWM``).
``ru_maxrss`` is not used: Linux carries it across fork and exec, so in a
child it starts at the RSS its parent had when it was spawned.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    result_path, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]

    import srmkit.cli

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    baseline = peak_rss_mib()
    start = time.perf_counter()
    code = srmkit.cli.main(cli_args)
    wall = time.perf_counter() - start
    peak = peak_rss_mib()
    result = {
        "code": code,
        "wall_s": wall,
        "baseline_mib": baseline,
        "peak_mib": peak - baseline,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
