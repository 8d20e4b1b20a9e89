"""The on-disk cache of expression-system kernel sources."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frachp
from frachp import exprsys
from frachp.errors import ParseError
from frachp.exprsys import hamiltonian_from_expression, metric_from_expressions

from .test_dynamics import DENSE_GAMMAS, DENSE_METRIC

POLAR = ([["1", "0"], ["0", "q1**2"]], ["cos(q2)"], 2)
BUILDS = {
    "polar": (metric_from_expressions, POLAR),
    "dense-3d": (metric_from_expressions, (DENSE_METRIC, DENSE_GAMMAS, 3)),
    "hamiltonian": (hamiltonian_from_expression,
                    ("p1**2/2 + p2**2/2 + cos(q1)*sqrt(2 + q2**2)",
                     ["cos(q1)", "exp(q2/3)"], 2)),
}
POLAR_CONFIG = """\
system = metric:custom
alpha = 0.6
beta = 0.3
t_eval = 0.8
h = 0.0001
n_steps = 7000
seed = 1
dim = 2
metric_expr = 1, 0; 0, q1**2
gamma_expr = cos(q2)
q0 = 1.0, 0.0
p0 = 0.0, 0.5
"""


def _build(monkeypatch, name):
    """The system `name` and the kernel sources it was assembled from."""
    builder, args = BUILDS[name]
    seen = []
    assemble = exprsys._assemble
    monkeypatch.setattr(exprsys, "_assemble", lambda cls, dim, sources: (
        seen.append(sources) or assemble(cls, dim, sources)))
    system = builder(*args)
    monkeypatch.setattr(exprsys, "_assemble", assemble)
    return system, seen[0]


def _no_derive(monkeypatch):
    """Make deriving fail, so that a build can only be a hit."""
    def derive(*args):
        raise AssertionError("derived although the cache holds the entry")
    for name in ("_derive_metric", "_derive_hamiltonian"):
        monkeypatch.setattr(exprsys, name, derive)


def _count_derives(monkeypatch):
    calls = []
    for name in ("_derive_metric", "_derive_hamiltonian"):
        derive = getattr(exprsys, name)
        monkeypatch.setattr(exprsys, name, lambda *a, derive=derive: (
            calls.append(a) or derive(*a)))
    return calls


def _outputs(system):
    """Every kernel of `system` on fixed samples, as bytes."""
    rng = np.random.default_rng(31)
    q = rng.uniform(0.5, 2.0, (40, system.dim))
    x = rng.uniform(-1.5, 1.5, (40, system.dim))
    kernels = [getattr(system, name)(q, x) for name in
               ("hamiltonian", "grad_q", "grad_p", "geodesic")
               if hasattr(system, name)]
    kernels += [getattr(system, name)(q) for name in
                ("metric", "metric_grad", "noise_matrix")
                if hasattr(system, name)]
    kernels += [f(q) for f in system.noise.gamma + system.noise.gamma_grad]
    return [k.tobytes() for k in kernels]


def _run(code, **kw):
    src = str(Path(frachp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, **kw)


@pytest.mark.parametrize("name", list(BUILDS))
def test_hit_gives_the_miss_kernels(monkeypatch, kernel_cache, name):
    cold, cold_sources = _build(monkeypatch, name)
    assert len(list(kernel_cache.glob("*.json"))) == 1
    _no_derive(monkeypatch)
    warm, warm_sources = _build(monkeypatch, name)
    assert warm_sources == cold_sources
    assert _outputs(warm) == _outputs(cold)


def test_polar_pin_holds_on_a_hit(tmp_path, monkeypatch, kernel_cache):
    from .test_config_cli import TestSimulateCommand
    pinned = TestSimulateCommand().test_polar_expression_csv_bytes_are_pinned
    for run in ("miss", "hit"):
        (tmp_path / run).mkdir()
        pinned(tmp_path / run)
        assert len(list(kernel_cache.glob("*.json"))) == 1
        _no_derive(monkeypatch)


def test_hit_imports_no_sympy():
    code = ("import sys\n"
            "from frachp.cli import build_system\n"
            "from frachp.config import parse_config\n"
            f"build_system(parse_config({POLAR_CONFIG!r}))\n"
            "print('sympy' in sys.modules)\n")
    miss, hit = _run(code), _run(code)
    assert (miss.stdout, hit.stdout) == ("True\n", "False\n")
    assert miss.stderr == hit.stderr == ""


def test_builtin_systems_import_no_expression_code():
    # Neither the CLI nor a built-in system loads exprsys or sympy, so
    # the other commands' set-up pays for neither.
    code = ("import sys\n"
            "from frachp.cli import build_system\n"
            "from frachp.config import parse_config\n"
            f"text = {POLAR_CONFIG!r}\n"
            "build_system(parse_config(text.replace('metric:custom', "
            "'metric:polar')))\n"
            "build_system(parse_config(text.replace('metric:custom', "
            "'pendulum').replace('dim = 2', 'dim = 1')))\n"
            "print(sorted({'sympy', 'frachp.exprsys'} & set(sys.modules)))\n")
    assert _run(code).stdout == "[]\n"


def _poison(entry: Path, key=None):
    """Rewrite a cache entry so that compiling any of its kernel records
    raises, naming `entry_ran`, under its own key or `key`."""
    data = json.loads(entry.read_text())
    bad = {"args": [["q1"]], "subs": [], "shape": [],
           "entries": ["entry_ran(q1)"]}
    data["kernels"] = {name: ([[bad] * len(part) for part in v]
                              if name == "noise" else bad)
                       for name, v in data["kernels"].items()}
    if key is not None:
        data["key"] = key
    entry.write_text(json.dumps(data))


@pytest.mark.parametrize("spoil", ["truncated", "foreign-key",
                                   "group-writable", "world-writable",
                                   "group-writable-dir"])
def test_unsound_entry_is_rebuilt(monkeypatch, kernel_cache, spoil):
    sound, _ = _build(monkeypatch, "polar")
    (entry,) = kernel_cache.glob("*.json")
    good = entry.read_bytes()
    if spoil == "truncated":
        entry.write_bytes(good[:len(good) // 2])
    elif spoil == "foreign-key":
        key = json.loads(good)["key"]
        _poison(entry, key=key[:-1] + ["0" * 64])
    else:
        _poison(entry)
        mode = {"group-writable": 0o620, "world-writable": 0o602}
        if spoil in mode:
            entry.chmod(mode[spoil])
        else:
            kernel_cache.chmod(0o770)
    derives = _count_derives(monkeypatch)
    rebuilt, _ = _build(monkeypatch, "polar")
    assert len(derives) == 1
    assert _outputs(rebuilt) == _outputs(sound)
    assert entry.read_bytes() == good
    assert entry.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("blocked", ["cache-home", "entry-dir"])
def test_unusable_cache_still_builds_silently(monkeypatch, kernel_cache,
                                              capfd, blocked):
    # A file where a directory should be: nothing can be read or written.
    path = kernel_cache if blocked == "entry-dir" else kernel_cache.parent
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("")
    want, _ = _build(monkeypatch, "polar")
    got, _ = _build(monkeypatch, "polar")
    assert _outputs(got) == _outputs(want)
    assert capfd.readouterr() == ("", "")
    assert path.read_text() == ""


def test_token_check_runs_before_the_cache(monkeypatch, tmp_path,
                                           kernel_cache):
    # An entry stored under the key of text that fails the token check is
    # never read: config text cannot reach stored code.
    pwned = tmp_path / "PWNED"
    text = f"p1**2/2 + 0*len(open('{pwned}','w').name)"
    monkeypatch.setattr(exprsys, "_assemble", lambda *a: pytest.fail(
        "assembled a system from rejected text"))
    exprsys._cached(["hamiltonian_from_expression", 1, text, ["cos(q1)"]],
                    lambda: {"hamiltonian": ["", []]})
    assert len(list(kernel_cache.glob("*.json"))) == 1
    with pytest.raises(ParseError, match="'len' is not a number"):
        hamiltonian_from_expression(text, ["cos(q1)"], 1)
    assert not pwned.exists()


@pytest.mark.parametrize("builder, args", [
    (hamiltonian_from_expression, ("p1**2/2 + cos(q1", ["cos(q1)"], 1)),
    (hamiltonian_from_expression, ("p1**2/2 + cos(q1)", ["cos(q1"], 1)),
    (metric_from_expressions, ([["1", "0"], ["0", "q1**"]], ["cos(q2)"], 2)),
    (hamiltonian_from_expression, ("p1**2/2 + cos(q1) + x", ["cos(q1)"], 1)),
    (hamiltonian_from_expression, ("p1**2/2 + cos(q3)", ["cos(q1)"], 2)),
    (hamiltonian_from_expression, ("p1**2/2 + cos(q1)", ["p1"], 1)),
    (metric_from_expressions, ([["1", "0", "0"]] * 3, ["cos(q2)"], 2)),
    (metric_from_expressions, ([["1", "0"], ["0"]], ["cos(q2)"], 2)),
    (hamiltonian_from_expression, ("p1**2/2 + log()", ["cos(q1)"], 1)),
    (metric_from_expressions, ([["1/0", "0"], ["0", "q1**2"]], ["cos(q2)"],
                               2)),
    (hamiltonian_from_expression, ("p1**2/2 + 0/0*q1", ["cos(q1)"], 1)),
], ids=["hamiltonian-malformed", "gamma-malformed", "metric-malformed",
        "free-symbol", "q-beyond-dim", "p-in-gamma", "metric-3x3",
        "metric-ragged", "no-argument", "metric-zoo", "hamiltonian-nan"])
def test_parse_errors_are_the_same_with_a_warm_cache(kernel_cache, builder,
                                                     args):
    with pytest.raises(ParseError) as cold:
        builder(*args)
    for name in BUILDS:
        BUILDS[name][0](*BUILDS[name][1])
    hamiltonian_from_expression("p1**2/2 + cos(q1)", ["cos(q1)"], 1)
    entries = sorted(kernel_cache.glob("*.json"))
    with pytest.raises(ParseError) as warm:
        builder(*args)
    assert str(warm.value) == str(cold.value)
    assert sorted(kernel_cache.glob("*.json")) == entries


@pytest.mark.parametrize("builder, args, bad", [
    (hamiltonian_from_expression, ("p1**2/2 + cos(q1", ["x"], 1),
     "gamma_expr: cannot parse 'x': 'x' is not"),
    (metric_from_expressions, ([["1", "q1**"], ["0", "y"]], ["cos(q2)"], 2),
     "metric_expr: cannot parse 'y': 'y' is not"),
], ids=["hamiltonian-then-gamma", "metric-entries"])
def test_token_errors_precede_syntax_errors(builder, args, bad):
    # Every text's token check runs before any text is sympified, so with
    # several bad texts a later one's token is reported before an earlier
    # one's malformed syntax, the same on a cold and on a warm cache.
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            builder(*args)
        assert str(err.value).startswith(bad)
        BUILDS["polar"][0](*BUILDS["polar"][1])


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
def test_cache_falls_back_to_home(tmp_path, monkeypatch, xdg):
    # XDG_CACHE_HOME unset, empty or relative means ~/.cache.
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    _build(monkeypatch, "polar")
    cache = tmp_path / "home" / ".cache" / "frachp"
    assert len(list(cache.glob("*.json"))) == 1
    assert cache.stat().st_mode & 0o777 == 0o700
    assert not list((tmp_path / "cwd").iterdir())
