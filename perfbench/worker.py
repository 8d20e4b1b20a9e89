"""Runs one workload's CLI operations in a process of its own.

    python3 perfbench/worker.py SPEC_JSON

The spec names the workload, its config file, the seeds and the run
length, and carries the reference data the checks need.  The worker runs
one untimed warm-up operation, then timed operations in a closed loop (one
at a time, on one thread) until they have taken the run length, and checks
every operation's outputs outside the timed window.  With tracing on it
alternates untraced and traced operations.  Between operations it runs
the set-up probes the spec asks for, each in a fresh interpreter, so that
they sample the same stretch of machine time as the operations.  The
worker stays on one CPU, which its probes and `cpuspeed.py` inherit; each
operation and probe gets the mean of the loop times `cpuspeed.py` sampled
on that CPU over its interval (`loop_s`).  It prints one JSON
object: every operation's wall time, loop time and problems, the set-up
and loop times of the probes, its own peak resident memory, and the
traced operations' per-layer values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import metrics
from cpuspeed import PERIOD_S
from tracer import Tracer
from workloads import WORKLOADS, OpResult

HERE = Path(__file__).resolve().parent
MIN_TRACED_OPS = 2   # exact counts are compared across traced operations


def run_op(command: str, config: Path, seed: int, out: Path) -> tuple:
    """One `frachp` invocation in this interpreter: (wall seconds, result)."""
    import frachp.cli
    shutil.rmtree(out, ignore_errors=True)
    error = ""
    argv = [command, "--config", str(config), "--seed", str(seed),
            "--out", str(out)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):   # keep JSON clean
            code = frachp.cli.main(argv)
    except (Exception, SystemExit) as exc:   # a raising operation fails
        code = -1
        error = "".join(traceback.format_exception_only(exc)).strip()
    elapsed = time.perf_counter() - t0
    return elapsed, OpResult(seed, code, out, error)


def run_ops(spec: dict) -> dict:
    """Warm-up plus timed operations as the spec asks; see the module doc."""
    workload = WORKLOADS[spec["workload"]]
    cfg = workload.config_for(spec["size"])
    refs = spec["refs"]
    config, out = Path(spec["config"]), Path(spec["out"])
    tracer = Tracer() if spec["trace"] else None
    ops, layers, setups = [], [], []
    samples = out.parent / "loop_samples.txt"
    samples.write_text("", encoding="utf-8")

    def mean_loop_since(start: float) -> float:
        """Mean of the loop samples from one period before `start` to one
        period after now; waits for the next sample if there is none."""
        end = time.perf_counter() + PERIOD_S
        while True:
            values = []
            for line in samples.read_text(encoding="utf-8").splitlines():
                fields = line.split()
                if (len(fields) == 2
                        and start - PERIOD_S <= float(fields[0]) <= end):
                    values.append(float(fields[1]))
            if values or time.perf_counter() > end + 5.0:
                break
            time.sleep(PERIOD_S / 4)
        if not values:
            raise RuntimeError("cpuspeed.py recorded no loop samples")
        return sum(values) / len(values)

    def probe() -> None:
        start = time.perf_counter()
        proc = subprocess.run(spec["setup_probe"], stdout=subprocess.PIPE,
                              text=True, check=True, timeout=60)
        setups.append({"setup_s": json.loads(
            proc.stdout.strip().splitlines()[-1])["setup_s"],
            "loop_s": mean_loop_since(start)})

    def operation(seed: int, kind: str) -> float:
        start = time.perf_counter()
        if kind == "traced":
            with tracer.installed():
                wall, op = run_op(workload.command, config, seed, out)
            layers.append(metrics.layer_values(tracer.summary()))
        else:
            wall, op = run_op(workload.command, config, seed, out)
        loop = mean_loop_since(start)
        try:
            problems = workload.check(op, cfg, refs)
        except Exception as exc:   # a check that cannot read outputs fails
            problems = [f"check raised {exc!r}"]
        if op.error:
            print(f"{workload.name}: {op.error}", file=sys.stderr)
        ops.append({"seed": seed, "kind": kind, "wall_s": wall,
                    "loop_s": loop, "problems": problems})
        return wall

    def measure() -> None:
        operation(spec["warmup_seed"], "warmup")
        measured = 0.0
        while True:
            measured += operation(spec["seed"], "plain")
            if tracer is not None:
                measured += operation(spec["seed"], "traced")
            # Probes are spread evenly over the measured time.
            while (len(setups) < spec["setup_probes"] and measured
                   >= len(setups) * spec["seconds"] / spec["setup_probes"]):
                probe()
            if (measured >= spec["seconds"]
                    and (tracer is None or len(layers) >= MIN_TRACED_OPS)):
                break
        while len(setups) < spec["setup_probes"]:
            probe()

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sampler = subprocess.Popen([sys.executable, str(HERE / "cpuspeed.py"),
                                str(samples)])
    try:
        measure()
    finally:
        sampler.terminate()
        sampler.wait(timeout=30)
        os.sched_setaffinity(0, cpus)

    result = {"ops": ops, "layers": layers, "setup_s": setups,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["absent"] = sorted(tracer.absent)
        if spec.get("trace_file"):
            np.savez_compressed(spec["trace_file"], **tracer.span_arrays())
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    print(json.dumps(run_ops(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
