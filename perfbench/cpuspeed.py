"""Samples how fast the benchmark worker's CPU runs Python, and scales
times by it.

    python3 perfbench/cpuspeed.py SAMPLES_FILE

On a shared machine other tenants slow each CPU in turn, by up to half,
for seconds and sometimes minutes at a time, and a slow stretch can start
in the middle of an operation.  The worker pins itself to one CPU and
starts this script, which inherits the pin and so shares the CPU with the
worker and its set-up probes.  Every PERIOD_S it times a fixed Python
loop there and appends `time loop_seconds` to SAMPLES_FILE.  The worker
scales each timed section to a CPU on which the loop takes
REFERENCE_LOOP_S (about this machine's uncontended speed), by the mean of
the samples taken over the section.  The loop shares no code with the
package, so the scaling factor depends only on the machine: a change to
the package moves the scaled time as much as the wall time, while a slow
stretch of the machine moves both and mostly cancels.  The script exits
when the worker does.
"""

import os
import sys
import time

PERIOD_S = 0.2
REFERENCE_LOOP_S = 0.5e-3
# CLI operations slow down more than the loop when other tenants contend
# for the CPU's caches and memory: fitted over ten seeds of each workload,
# operation time went as the loop time to the power 0.65 (volterra-ensemble,
# vectorised numpy) to 1.65 (action-stationarity, per-step Python
# objects), and 1.4 gave the smallest worst-case spread of the five.
# Set-up probes (imports, file reads) follow the loop itself.
OPERATION_EXPONENT = 1.4


def loop_s() -> float:
    """Best of three timings of a fixed ~0.5 ms Python loop, here and now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += i * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(time_s: float, loop: float, exponent: float = 1.0) -> float:
    """time_s as it would read on a CPU running the loop in REFERENCE_LOOP_S."""
    return time_s * (REFERENCE_LOOP_S / loop) ** exponent


def main(argv: list[str]) -> int:
    worker = os.getppid()
    with open(argv[1], "a", encoding="utf-8", buffering=1) as out:
        while os.getppid() == worker:
            out.write(f"{time.perf_counter()!r} {loop_s()!r}\n")
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
