"""Custom systems from expression strings (sympy-backed).

Coordinates are named q1..qn and p1..pn; gradients are produced by symbolic
differentiation, so custom systems satisfy the same analytic-gradient
checks as the built-ins.  Only deriving a system's kernel records imports
sympy, and `_cached` keeps them on disk, so a rerun of a text skips sympy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import tempfile
from pathlib import Path

from .dynamics import HamiltonianSystem, MetricSystem, NoiseCoupling, _compile
from .errors import ParseError

# Besides numbers, + - * / ** and parentheses, expression text may use its
# coordinates, these constants, and these functions when called.
_FUNCTIONS = frozenset("sin cos tan exp log sqrt sinh cosh tanh "
                       "asin acos atan".split())
_CONSTANTS = frozenset(("pi", "E"))
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|\*\*|[-+*/()]"
                    r"|(?P<name>[A-Za-z_]\w*)(?P<call>\s*\()?|(?P<bad>\S)")


def _check(texts: list[str], key: str, prefixes: str, dim: int) -> None:
    """Raise a ParseError naming the first token of config key `key`'s
    texts that is not a number, + - * / ** ( ), a coordinate (a prefix and
    1..dim), a constant or a called function.  sympify runs text as Python,
    so this check runs first, and before the cache is looked up."""
    allowed = {f"{c}{i}" for c in prefixes for i in range(1, dim + 1)}
    allowed |= _CONSTANTS
    for text, m in ((t, m) for t in texts for m in _TOKEN.finditer(t)):
        name = m["name"]
        ok = name is None or name in (_FUNCTIONS if m["call"] else allowed)
        if m["bad"] or not ok:
            raise ParseError(
                f"{key}: cannot parse {text!r}: {m['bad'] or name!r} is not "
                f"a number, + - * / ** ( ), {', '.join(sorted(allowed))} or "
                f"a called elementary function")


def _parse(text: str, key: str):
    """sympify config key `key`'s text, which `_check` has passed."""
    import sympy
    try:
        expr = sympy.sympify(text)
    except (sympy.SympifyError, TypeError):
        expr = None
    if not isinstance(expr, sympy.Expr):
        raise ParseError(f"{key}: cannot parse {text!r} as an expression")
    if expr.has(sympy.zoo, sympy.nan):  # 1/0 or 0/0; zoo has no numpy text
        raise ParseError(f"{key}: {text!r} divides by zero")
    return expr


def _symbols(prefix: str, n: int):
    import sympy
    return sympy.symbols(f"{prefix}1:{n + 1}")


def _source(args, exprs, shape: tuple, cse: bool = False) -> dict:
    """The kernel record of a function of arrays (..., n_i) whose columns
    are `args`: a tuple of symbols for one array, or of such tuples.

    `exprs` are the row-major entries of its (...) + shape value.  Each
    entry is recorded in the text sympy's NumPyPrinter gives it under
    `lambdify(..., modules=[np])`, after the common subexpressions that
    lambdify's `cse=True` takes if `cse`.  Rational entries (0, 1, 1/3)
    are literals, and zero ones are None.  `_compile` (`dynamics`) binds
    the numpy names the text uses, such as sin, arctan, pi and e, so each
    entry is the numpy expression lambdify runs, and only the printer's
    text runs; the float lanes render the same text.
    """
    import sympy
    from sympy.printing.numpy import NumPyPrinter
    groups = (args,) if isinstance(args[0], sympy.Symbol) else args
    subs, exprs = sympy.cse(list(exprs), list=False) if cse else ((), exprs)
    printer = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True,
                            "user_functions": {}})  # as lambdify sets it
    return {"args": [[str(x) for x in group] for group in groups],
            "subs": [[str(x), printer.doprint(e)] for x, e in subs],
            "shape": list(shape),
            "entries": [printer.doprint(e) if e != 0 else None
                        for e in exprs]}


def _cached(key: list, derive) -> dict:
    """derive()'s kernel records for `key`, from a sound cache entry or
    derived and stored.  An entry's key adds sympy's release file and this
    module's digest; it is read only if it and its directory are the
    user's and not group- or world-writable.  A bad cache is a quiet miss.
    An entry holds kernel records only, not code nor the names they use:
    `_compile` turns each into a numpy function, binding the numpy names
    its text uses, when the system is assembled."""
    try:  # on no sympy, a numpy dim (for json) or no home: derive only
        init = Path(importlib.util.find_spec("sympy").origin)  # unimported
        key = [*key, init.with_name("release.py").read_text("utf-8"),
               hashlib.sha256(Path(__file__).read_bytes()).hexdigest()]
        name = hashlib.sha256(json.dumps(key).encode()).hexdigest()
        home = os.environ.get("XDG_CACHE_HOME", "")  # used if absolute
        home = Path(home) if os.path.isabs(home) else Path.home() / ".cache"
        path = home / "frachp" / f"{name}.json"
    except (OSError, ValueError, TypeError, AttributeError, RuntimeError):
        return derive()
    try:  # AttributeError: no os.getuid, as on Windows: never trusted
        with open(path, "rb") as fh:
            if all(st.st_uid == os.getuid() and not st.st_mode & 0o022
                   for st in (os.fstat(fh.fileno()), path.parent.stat())):
                entry = json.loads(fh.read())
                if entry["key"] == key:
                    return entry["kernels"]
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        pass
    kernels = derive()
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".tmp", dir=path.parent)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump({"key": key, "kernels": kernels}, fh)
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)
            raise
    except OSError:
        pass
    return kernels


def _noise_sources(gammas, qs) -> list:
    """Records of couplings gamma_a(qs), then of their symbolic gradients."""
    return [[_source(qs, [e], ()) for e in gammas],
            [_source(qs, [e.diff(q) for q in qs], (len(qs),)) for e in gammas]]


def _assemble(cls, dim: int, sources: dict):
    """The `cls` system whose kernel records `sources` holds by name."""
    noise = NoiseCoupling(*([_compile(k) for k in part]
                            for part in sources["noise"]))
    return cls(dim, noise=noise, **{name: _compile(k) for name, k
                                    in sources.items() if name != "noise"})


def _derive_hamiltonian(h_expr, gamma_exprs, dim) -> dict:
    qs, ps = _symbols("q", dim), _symbols("p", dim)
    h_sym = _parse(h_expr, "hamiltonian_expr")
    gammas = [_parse(text, "gamma_expr") for text in gamma_exprs]
    dh = [h_sym.diff(x) for x in qs + ps]
    return {"hamiltonian": _source((qs, ps), [h_sym], ()),
            "grad_q": _source((qs, ps), dh[:dim], (dim,)),
            "grad_p": _source((qs, ps), dh[dim:], (dim,)),
            "noise": _noise_sources(gammas, qs)}


def hamiltonian_from_expression(h_expr: str, gamma_exprs: list[str],
                                dim: int) -> HamiltonianSystem:
    """HamiltonianSystem from H(q1..qn, p1..pn) expression text."""
    _check([h_expr], "hamiltonian_expr", "qp", dim)
    _check(gamma_exprs, "gamma_expr", "q", dim)
    return _assemble(HamiltonianSystem, dim, _cached(
        ["hamiltonian_from_expression", dim, h_expr, list(gamma_exprs)],
        lambda: _derive_hamiltonian(h_expr, gamma_exprs, dim)))


def _closed_forms(g, gammas, qs) -> dict:
    """Records of the geodesic and noise_matrix of a MetricSystem with
    metric g(qs) and couplings gammas, as sympy derives them once.

    -Gamma^i_jk v^j v^k = -g^il (d_k g_lj - d_l g_jk / 2) v^j v^k, and the
    noise matrix is g^-1 grad gamma_a, with g^-1 = adj(g) / det(g); both
    are generated with cse.  Where an entry comes out zoo or nan, as they
    do where det(g) is identically 0, the dict is empty, so the system
    takes the numeric defaults and fails as they do.
    """
    import sympy
    n, m = len(qs), len(gammas)
    vs = _symbols("v", n)
    det, adj = g.det(), g.adjugate()
    w = [sum((g[l, j].diff(qs[k]) - g[j, k].diff(qs[l]) / 2) * vs[j] * vs[k]
             for j in range(n) for k in range(n)) for l in range(n)]
    geodesic = [-sum(adj[i, l] * w[l] for l in range(n)) / det
                for i in range(n)]
    noise = list(adj * sympy.Matrix(n, m, lambda i, a: gammas[a].diff(qs[i]))
                 / det)
    if any(e.has(sympy.zoo, sympy.nan) for e in geodesic + noise):
        return {}
    return {"geodesic": _source((qs, vs), geodesic, (n,), cse=True),
            "noise_matrix": _source(qs, noise, (n, m), cse=True)}


def _derive_metric(rows, gamma_exprs, dim) -> dict:
    import sympy
    qs = _symbols("q", dim)
    g_sym = sympy.Matrix([[_parse(e, "metric_expr") for e in row]
                          for row in rows])
    gammas = [_parse(text, "gamma_expr") for text in gamma_exprs]
    # metric_grad[i, j, k] = d g_ij / d q_k
    return {"metric": _source(qs, list(g_sym), (dim, dim)),
            "metric_grad": _source(qs, [g.diff(q) for g in g_sym
                                        for q in qs], (dim, dim, dim)),
            "noise": _noise_sources(gammas, qs),
            **_closed_forms(g_sym, gammas, qs)}


def metric_from_expressions(rows: list[list[str]], gamma_exprs: list[str],
                            dim: int) -> MetricSystem:
    """MetricSystem from an n x n table of g_ij(q1..qn) expression strings,
    with the closed-form geodesic and noise_matrix of `_closed_forms`."""
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ParseError(f"metric_expr: rows of {[len(r) for r in rows]} "
                         f"entries, need {dim} rows of {dim} for dim = {dim}")
    _check([e for row in rows for e in row], "metric_expr", "q", dim)
    _check(gamma_exprs, "gamma_expr", "q", dim)
    return _assemble(MetricSystem, dim, _cached(
        ["metric_from_expressions", dim, [list(row) for row in rows],
         list(gamma_exprs)],
        lambda: _derive_metric(rows, gamma_exprs, dim)))
