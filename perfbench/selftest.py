"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a frachp source checkout.  Checks that BENCHMARK.json
names exactly the metrics and workloads the code reports; that every
workload, untraced and traced, prints every metric with its unit and a
valid result line; and that broken outputs are counted as failed
operations: a flipped byte in trajectory.csv, a strong-order slope below
the C07 gate, and a traced name the package no longer has (which must be
reported as absent, not crash the run).  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_out" / "selftest"


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


@contextmanager
def replaced(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def in_process(workload: str, seed: int, trace: bool = False,
               refs: dict | None = None) -> dict:
    """Tiny worker run inside this process, so patches apply to it."""
    import worker
    from workloads import WORKLOADS
    spec = run.prepare_run(WORKLOADS[workload], "tiny", seed, 0.0, trace,
                           WORK / workload)
    spec["refs"].update(refs or {})
    return worker.run_ops(spec)


def test_declared_metrics() -> None:
    import metrics
    from workloads import WORKLOADS
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in bench["end_to_end"]}
          == metrics.END_TO_END, "BENCHMARK.json end_to_end matches the code")
    check({m["name"]: m["unit"] for m in bench["per_layer"]}
          == metrics.per_layer_units(),
          "BENCHMARK.json per_layer matches the code")
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == {w.name: w.why for w in WORKLOADS.values()},
          "BENCHMARK.json workloads match the code")


def test_every_metric_printed() -> None:
    import metrics
    from workloads import WORKLOADS
    for trace, units in ((0, metrics.END_TO_END),
                         (1, metrics.per_layer_units())):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
                 "--size", "tiny"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 2,
                  f"{name} trace={trace}: correct result line")
            check({k: v["unit"] for k, v in result["metrics"].items()}
                  == units, f"{name} trace={trace}: every metric reported")
            unprinted = [metric for metric, unit in units.items()
                         if not any(re.match(rf"{re.escape(metric)} = \S+ "
                                             rf"{re.escape(unit)}\b", line)
                                    for line in lines)]
            check(not unprinted, f"{name} trace={trace}: every metric "
                  f"printed with its unit (missing: {unprinted})")


def test_flipped_byte_fails() -> None:
    import frachp.cli
    from workloads import PIN_SEED, _sha256
    clean = in_process("simulate-pendulum", PIN_SEED)
    check(not any(op["problems"] for op in clean["ops"]),
          "clean tiny pendulum run passes")
    digest = _sha256(WORK / "simulate-pendulum" / "out" / "trajectory.csv")
    original = frachp.cli.write_trajectory_csv

    def flipping(path, traj):
        original(path, traj)
        if Path(path).name == "trajectory.csv":
            body = bytearray(Path(path).read_bytes())
            body[len(body) // 2] ^= 0x01
            Path(path).write_bytes(bytes(body))

    with replaced(frachp.cli, "write_trajectory_csv", flipping):
        broken = in_process("simulate-pendulum", PIN_SEED,
                            refs={"sha256": {str(PIN_SEED): digest}})
    check(all(op["problems"] for op in broken["ops"]),
          "a flipped byte in trajectory.csv fails every operation")


def test_low_slope_fails() -> None:
    import numpy as np

    import frachp.cli
    original = frachp.cli.strong_convergence_order

    def shallow(*args, **kwargs):
        slope, hs, errors = original(*args, **kwargs)
        return 0.3, hs, errors[0] * (hs / hs[0]) ** 0.3

    with replaced(frachp.cli, "strong_convergence_order", shallow):
        result = in_process("convergence-ensemble", 7)
    check(all(op["problems"] for op in result["ops"])
          and all("slope" in op["problems"][0] for op in result["ops"]),
          "a strong-order slope below 0.45 fails every operation")
    check(np.isfinite(result["ops"][0]["wall_s"]), "failed ops are timed")


def test_missing_name_is_absent() -> None:
    import frachp.dynamics
    import metrics
    original = frachp.dynamics.christoffel
    del frachp.dynamics.christoffel
    try:
        result = in_process("simulate-pendulum", 3, trace=True)
    finally:
        frachp.dynamics.christoffel = original
    check(not any(op["problems"] for op in result["ops"]),
          "traced run without a traced name still passes")
    check(metrics.absent_metrics(result["absent"])
          == ["dynamics.christoffel.calls"],
          "the removed name's metric is reported absent")
    layers = result["layers"]
    check(len(layers) >= 2 and all(
        layers[0][k] == layer[k] for layer in layers
        for k, (unit, _, _) in metrics.PER_LAYER.items()
        if unit in metrics.EXACT_UNITS), "exact counts repeat across ops")


def test_count_mismatch_fails() -> None:
    import metrics
    layer = dict.fromkeys(metrics.PER_LAYER, 0)
    result = {"layers": [layer, {**layer, "integrator.steps": 1}],
              "ops": [{"kind": kind, "wall_s": 1.0, "problems": []}
                      for kind in ("plain", "traced", "plain", "traced")]}
    run.per_layer(result)
    check([bool(op["problems"]) for op in result["ops"]]
          == [False, False, False, True],
          "an exact count that changes between traced operations fails")


def main() -> int:
    trouble = run.use_checkout(ROOT)
    if trouble:
        print(f"selftest: {trouble}", file=sys.stderr)
        return 2
    try:
        test_declared_metrics()
        test_flipped_byte_fails()
        test_low_slope_fails()
        test_missing_name_is_absent()
        test_count_mismatch_fails()
        test_every_metric_printed()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
