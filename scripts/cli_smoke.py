"""Run each `frachp` command once on a tiny config and check what it wrote.

    PYTHONPATH=src python3 scripts/cli_smoke.py     # python -m frachp.cli
    python3 scripts/cli_smoke.py frachp             # the console script

The arguments, if any, are the command that runs frachp.  simulate,
convergence, action-check and volterra must each exit 0 and write a
non-empty run manifest and the files FILES names, and every field of
every CSV it wrote must be its own value printed again: "%d" in a `step`
or `n_paths` column, "%.17g" elsewhere.  Each then reruns from
the config part of its own manifest (the lines before `code_version`)
into a fresh --out, and must write every CSV and SVG byte for byte again,
and a manifest that differs only in `out`.  `simulate` with an `--out`
ending in `x#y`, which its manifest could not hold (`#` starts a
comment), must exit 1 with one stderr line and no traceback, and create
nothing.  Then `frachp volterra`
runs once more in a fresh interpreter through `cli.main`, which fails if a
module of the HP group is in `sys.modules` after `main` returns, however it
was loaded (an `importlib.import_module` load included).  Prints one line
per check and exits 1 on the first failure.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

RUN = "alpha = 0.6\nbeta = 0.3\nt_eval = 0.8\nh = 0.001\nn_steps = 300\n"
CONFIGS = {
    "simulate": "system = pendulum\n" + RUN,
    "convergence": "system = pendulum\nalpha = 1\nbeta = 1\nt_eval = 10\n"
                   "h = 0.002\nlevels = 3\nn_paths = 4\nt_end = 0.4\n",
    "action-check": "system = pendulum\n" + RUN + "gamma = const\n",
    "volterra": "system = pendulum\nalpha = 0.6\nbeta = 0.5\nt_eval = 0.8\n"
                "h = 0.001\nn_steps = 200\nn_paths = 4\nsigma = 0.2\n",
}
FILES = {
    "simulate": ["trajectory.csv", "trajectory_deterministic.csv",
                 "phase_qp.svg", "p_vs_n_noisy.svg"],
    "convergence": ["convergence.csv"],
    "action-check": [],
    "volterra": ["summary.csv", "path_0003.csv"],
}
INT_COLUMNS = ("step", "n_paths")
HP_GROUP = ("frachp.dynamics", "frachp.integrator", "frachp.svgplot")
STARTUP = f"""\
import sys
from frachp.cli import main
code = main(sys.argv[1:])
loaded = [m for m in {HP_GROUP!r} if m in sys.modules]
if loaded:
    sys.exit(f"frachp volterra loaded {{loaded}}")
sys.exit(code)
"""


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def outputs(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())
            if f.suffix in (".csv", ".svg")}


def check_fields(name: str, out: Path) -> None:
    """Each field of out's CSVs is the text of the value it reads as."""
    for path in sorted(out.glob("*.csv")):
        header, *rows = path.read_text(encoding="ascii").splitlines()
        formats = [("%d", int) if column in INT_COLUMNS else ("%.17g", float)
                   for column in header.split(",")]
        for line, row in enumerate(rows, 2):
            fields = row.split(",")
            if len(fields) != len(formats):
                fail(f"{name} {path.name} line {line}: {len(fields)} fields")
            for (fmt, kind), field in zip(formats, fields):
                if fmt % kind(field) != field:
                    fail(f"{name} {path.name} line {line}: {field!r} is not "
                         f"{fmt} of its own value")
    print(f"ok   {name} CSV fields are their values' text")


def manifest(out: Path) -> list[str]:
    return [line for line in
            (out / "run_manifest").read_text(encoding="utf-8").splitlines()
            if not line.startswith("out = ")]


def rerun(frachp: list[str], name: str, out: Path) -> None:
    """Rerun `name` from the config part of out's manifest."""
    text = (out / "run_manifest").read_text(encoding="utf-8")
    cfg, again = out.with_suffix(".rerun.cfg"), out.with_suffix(".rerun")
    cfg.write_text(text.split("\ncode_version = ", 1)[0] + "\n",
                   encoding="utf-8")
    args = [name, "--config", str(cfg), "--out", str(again)]
    if subprocess.run([*frachp, *args]).returncode != 0:
        fail(f"{name} rerun from its manifest exited non-zero")
    if outputs(again) != outputs(out):
        fail(f"{name} rerun from its manifest wrote other CSV/SVG bytes")
    if manifest(again) != manifest(out):
        fail(f"{name} rerun from its manifest wrote another manifest")
    print(f"ok   {name} reruns from its manifest")


def rejects_comment_in_out(frachp: list[str], work: Path) -> None:
    """simulate with an --out that reads back as another path."""
    before = sorted(work.iterdir())
    args = ["simulate", "--config", str(work / "simulate.cfg"),
            "--out", str(work / "out-x#y")]
    run = subprocess.run([*frachp, *args], capture_output=True, text=True)
    if (run.returncode != 1 or len(run.stderr.splitlines()) != 1
            or "Traceback" in run.stderr):
        fail(f"simulate --out .../out-x#y: exit {run.returncode}, "
             f"stderr {run.stderr!r}")
    if sorted(work.iterdir()) != before:
        fail("simulate --out .../out-x#y created a file or directory")
    print("ok   simulate rejects --out .../out-x#y")


def main(frachp: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in CONFIGS.items():
            cfg, out = work / f"{name}.cfg", work / f"out-{name}"
            cfg.write_text(text, encoding="utf-8")
            args = [name, "--config", str(cfg), "--out", str(out)]
            if subprocess.run([*frachp, *args]).returncode != 0:
                fail(f"{name} exited non-zero")
            for f in ["run_manifest", *FILES[name]]:
                if not (out / f).is_file() or (out / f).stat().st_size == 0:
                    fail(f"{name} wrote no {f}")
            print(f"ok   {name}")
            check_fields(name, out)
            rerun(frachp, name, out)
        rejects_comment_in_out(frachp, work)
        args = ["volterra", "--config", str(work / "volterra.cfg"),
                "--out", str(work / "out-startup")]
        if subprocess.run([sys.executable, "-c", STARTUP, *args]).returncode:
            fail("volterra start-up")
        print("ok   volterra loads no HP module")


if __name__ == "__main__":
    main(sys.argv[1:] or [sys.executable, "-m", "frachp.cli"])
