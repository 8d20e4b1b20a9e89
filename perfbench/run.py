"""The frachp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a frachp source checkout; it imports the package
from `src/` there and needs no build.  Workloads and their checks are in
`workloads.py`.  With `--trace 0` the run reports the end-to-end metrics:

  wall_s       median wall time of one CLI operation in a warm interpreter
  setup_s      median, over fresh interpreters, of import + parse_config
               (+ build_system + assemble_hp_fields)
               (both scaled to a reference CPU speed: see cpuspeed.py)
  peak_rss_mb  peak resident memory of the process that ran the operations
  pass_ratio   operations whose outputs passed their checks / attempted,
               i.e. 1 - fail_ratio

With `--trace 1` it reports the per-layer metrics of `metrics.py` from
traced operations, and the tracing overhead.  Everything goes to stdout as
lines of `name = value unit`; the last line is one JSON object with keys
correct, attempted, failed and metrics.  Scratch files, a result file with
provenance and every sample, and the span file of the last traced
operation go under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One process and one thread run one operation at a time.
PINNED_ENV = {
    "FRACHP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0   # the whole run, child processes included


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("reference", "tiny"),
                        default="reference",
                        help="tiny shrinks every workload, for self-tests")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path) -> dict:
    import platform
    from importlib import metadata

    import numpy
    from frachp import noise

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "sympy": sympy_version,
            "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "rng_version": getattr(noise, "RNG_VERSION", "absent"),
            "commit": git_commit(root)}


def _child(args: list[str], timeout: float) -> dict:
    """Run a benchmark child process; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict) -> tuple[dict, dict, dict]:
    """Values and samples of the end-to-end metrics, and unscaled times."""
    import metrics
    from cpuspeed import OPERATION_EXPONENT, scaled
    ops = result["ops"]
    timed = [op for op in ops if op["kind"] == "plain"]
    samples = {
        "wall_s": [scaled(op["wall_s"], op["loop_s"], OPERATION_EXPONENT)
                   for op in timed],
        "setup_s": [scaled(p["setup_s"], p["loop_s"])
                    for p in result["setup_s"]]}
    unscaled = {"wall_s": [op["wall_s"] for op in timed],
                "setup_s": [p["setup_s"] for p in result["setup_s"]],
                "loop_s": [op["loop_s"] for op in timed]}
    passed = sum(1 for op in ops if not op["problems"])
    values = {"wall_s": metrics.median(samples["wall_s"]),
              "setup_s": metrics.median(samples["setup_s"]),
              "peak_rss_mb": result["peak_rss_mb"],
              "pass_ratio": passed / len(ops)}
    return values, samples, unscaled


def per_layer(result: dict) -> tuple[dict, dict]:
    """Medians over traced operations; exact counts must all agree.

    A traced operation whose exact counts differ from the first one's is
    marked failed.
    """
    import metrics
    layers = result["layers"]
    traced = [op for op in result["ops"] if op["kind"] == "traced"]
    values, samples = {}, {}
    for name, unit in metrics.per_layer_units().items():
        if name == metrics.TRACE_OVERHEAD[0]:
            continue
        seen = [layer[name] for layer in layers]
        if unit in metrics.EXACT_UNITS:
            values[name] = seen[0]
            for op, value in zip(traced, seen):
                if value != seen[0]:
                    op["problems"].append(f"{name} = {value}, but {seen[0]} "
                                          "in the first traced operation")
        else:
            values[name] = metrics.median(seen)
            samples[name] = seen
    walls = {kind: [op["wall_s"] for op in result["ops"]
                    if op["kind"] == kind] for kind in ("plain", "traced")}
    values[metrics.TRACE_OVERHEAD[0]] = (metrics.median(walls["traced"])
                                         - metrics.median(walls["plain"]))
    return values, samples


def use_checkout(root: Path) -> str:
    """Pin threads and import frachp from root/src; "" or what is wrong."""
    src = root / "src"
    if not (src / "frachp" / "__init__.py").is_file():
        return ("src/frachp not found; run from the root of a frachp "
                "source checkout")
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(src))
    import frachp
    if not Path(frachp.__file__).resolve().is_relative_to(src.resolve()):
        return f"imported frachp from {frachp.__file__}, not from {src}"
    return ""


def prepare_run(workload, size: str, seed: int, seconds: float, trace: bool,
                work: Path) -> dict:
    """Fresh work directory, config file and reference data: the spec.

    Untraced runs also measure set-up, SETUP_REPEATS times.
    """
    from workloads import PIN_SEED, config_text
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(config_text(workload, size), encoding="utf-8")
    warmup_seed = PIN_SEED if workload.pinned else seed
    refs = workload.prepare(workload.config_for(size), {seed, warmup_seed},
                            workload.pinned and size == "reference")
    return {"workload": workload.name, "size": size,
            "config": str(config), "out": str(work / "out"),
            "seed": seed, "warmup_seed": warmup_seed,
            "seconds": seconds, "trace": trace,
            "trace_file": str(work / "spans.npz") if trace else "",
            "setup_probes": 0 if trace else SETUP_REPEATS,
            "setup_probe": [sys.executable, str(HERE / "setup_probe.py"),
                            str(config),
                            "hp" if workload.uses_hp_fields else "plain"],
            "refs": refs}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    trouble = use_checkout(root)
    if trouble:
        print(f"perfbench: {trouble}", file=sys.stderr)
        return 2

    import metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = (root / ".perfbench_out"
            / f"{workload.name}-seed{args.seed}-trace{args.trace}")
    spec = prepare_run(workload, args.size, args.seed, args.seconds,
                       bool(args.trace), work)

    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result = _child([str(HERE / "worker.py"), str(spec_path)],
                    RUN_LIMIT_S - (time.perf_counter() - started))

    if args.trace:
        values, samples = per_layer(result)
        units = metrics.per_layer_units()
        absent = metrics.absent_metrics(result["absent"])
        unscaled = {}
    else:
        values, samples, unscaled = end_to_end(result)
        units = metrics.END_TO_END
        absent = []
    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    problems = [f"op {i} ({op['kind']}, seed {op['seed']}): {p}"
                for i, op in enumerate(ops) for p in op["problems"]]

    prov = provenance(root)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"operations: {len(ops)} attempted, {failed} failed, "
          f"fail_ratio = {failed / len(ops)!r}")
    for name, unit in units.items():
        print(metrics.describe(name, values[name], unit, samples.get(name)))
    for name, raw in unscaled.items():
        print(f"unscaled {name} = {metrics.median(raw)!r} s  "
              f"(median of {len(raw)})")
    if absent:
        print("absent (name gone from the package): " + ", ".join(absent))
    for line in problems:
        print("problem: " + line)

    out = {"correct": failed == 0,
           "attempted": len(ops), "failed": failed,
           "metrics": {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}}
    (work / "result.json").write_text(json.dumps(
        {**out, "workload": workload.name, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "size": args.size,
         "provenance": prov, "samples": samples, "unscaled": unscaled,
         "absent": absent,
         "problems": problems, "ops": ops}, indent=1), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
