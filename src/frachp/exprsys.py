"""Custom systems from expression strings (sympy-backed).

Coordinates are named q1..qn and p1..pn; gradients are produced by symbolic
differentiation, so custom systems satisfy the same analytic-gradient
checks as the built-ins.
"""

from __future__ import annotations

import re

import numpy as np

from .dynamics import HamiltonianSystem, MetricSystem, NoiseCoupling
from .errors import ParseError

# Besides numbers, + - * / ** and parentheses, expression text may use its
# coordinates, these constants, and these functions when called.
_FUNCTIONS = frozenset("sin cos tan exp log sqrt sinh cosh tanh "
                       "asin acos atan".split())
_CONSTANTS = frozenset(("pi", "E"))
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|\*\*|[-+*/()]"
                    r"|(?P<name>[A-Za-z_]\w*)(?P<call>\s*\()?|(?P<bad>\S)")


def _parse(text: str, key: str, symbols):
    """sympify the text of config key `key`, an expression in `symbols`.

    sympify evaluates its input as Python, so every token is checked first:
    any other name or character is a ParseError naming it, which keeps
    config text from running code or bringing in free symbols.  Malformed
    text is a ParseError too.
    """
    import sympy
    allowed = {str(x) for x in symbols} | _CONSTANTS
    for m in _TOKEN.finditer(text):
        name = m["name"]
        ok = name is None or name in (_FUNCTIONS if m["call"] else allowed)
        if m["bad"] or not ok:
            raise ParseError(
                f"{key}: cannot parse {text!r}: {m['bad'] or name!r} is not "
                f"a number, + - * / ** ( ), {', '.join(sorted(allowed))} or "
                f"a called elementary function")
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


def _lambdify(args, exprs, shape: tuple, cse: bool = False):
    """One generated numpy function of arrays (..., n_i) whose columns are
    `args`: a tuple of symbols for one array, or a tuple of such tuples.

    `exprs` are the row-major entries of its (...) + shape value.  It reads
    the columns they use as x[..., j] and writes each entry into a zeroed
    output, in the text sympy's NumPyPrinter gives it under
    `lambdify(..., modules=[np])`, after the common subexpressions that
    lambdify's `cse=True` takes if `cse`.  Rational entries (0, 1, 1/3)
    are literals, and zero ones stay the output's +0.0.  So each entry is
    the numpy expression lambdify runs, and only the printer's text runs.
    """
    import sympy
    from sympy.printing.numpy import NumPyPrinter
    groups = (args,) if isinstance(args[0], sympy.Symbol) else args
    subs, exprs = sympy.cse(list(exprs), list=False) if cse else ((), exprs)
    printer = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True,
                            "user_functions": {}})  # as lambdify sets it
    body = [f"{x} = {printer.doprint(e)}" for x, e in subs]
    body.append(f"_out = _zeros(_x0.shape[:-1] + {tuple(shape)!r})")
    for index, e in zip(np.ndindex(*shape), exprs):
        if e != 0:
            at = ", ".join(("...",) + tuple(map(str, index)))
            body.append(f"_out[{at}] = {printer.doprint(e)}")
    used = set().union(*(e.free_symbols for e in exprs),
                       *(e.free_symbols for _, e in subs))
    cols = [f"{x} = _x{i}[..., {j}]" for i, group in enumerate(groups)
            for j, x in enumerate(group) if x in used]
    source = "".join(f"    {line}\n" for line in cols + body)
    namespace = {"_zeros": np.zeros, **{
        name: getattr(np, name) for name in printer.module_imports["numpy"]}}
    exec(f"def kernel({', '.join(f'_x{i}' for i in range(len(groups)))}):\n"
         f"{source}    return _out\n", namespace)
    return namespace["kernel"]


def _noise(gammas, qs) -> NoiseCoupling:
    """Couplings from sympy expressions gamma_a(qs), with their symbolic
    gradients."""
    return NoiseCoupling(
        tuple(_lambdify(qs, [e], ()) for e in gammas),
        tuple(_lambdify(qs, [e.diff(q) for q in qs], (len(qs),))
              for e in gammas))


def hamiltonian_from_expression(h_expr: str, gamma_exprs: list[str],
                                dim: int) -> HamiltonianSystem:
    """HamiltonianSystem from H(q1..qn, p1..pn) expression text."""
    import sympy
    qs, ps = _symbols("q", dim), _symbols("p", dim)
    h_sym = _parse(h_expr, "hamiltonian_expr", qs + ps)
    gammas = [_parse(text, "gamma_expr", qs) for text in gamma_exprs]
    return HamiltonianSystem(
        dim, _lambdify((qs, ps), [h_sym], ()), _noise(gammas, qs),
        grad_q=_lambdify((qs, ps), [sympy.diff(h_sym, q) for q in qs],
                         (dim,)),
        grad_p=_lambdify((qs, ps), [sympy.diff(h_sym, p) for p in ps],
                         (dim,)))


def _closed_forms(g, gammas, qs) -> dict:
    """The geodesic and noise_matrix of a MetricSystem with metric g(qs)
    and couplings gammas, as sympy derives them once.

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
    return {"geodesic": _lambdify((qs, vs), geodesic, (n,), cse=True),
            "noise_matrix": _lambdify(qs, noise, (n, m), cse=True)}


def metric_from_expressions(rows: list[list[str]], gamma_exprs: list[str],
                            dim: int) -> MetricSystem:
    """MetricSystem from an n x n table of g_ij(q1..qn) expression strings,
    with the closed-form geodesic and noise_matrix of `_closed_forms`."""
    import sympy
    qs = _symbols("q", dim)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ParseError(f"metric_expr: rows of {[len(r) for r in rows]} "
                         f"entries, need {dim} rows of {dim} for dim = {dim}")
    g_sym = sympy.Matrix([[_parse(e, "metric_expr", qs) for e in row]
                          for row in rows])
    gammas = [_parse(text, "gamma_expr", qs) for text in gamma_exprs]
    # metric_grad[i, j, k] = d g_ij / d q_k
    return MetricSystem(
        dim, _lambdify(qs, list(g_sym), (dim, dim)), _noise(gammas, qs),
        metric_grad=_lambdify(qs, [g.diff(q) for g in g_sym for q in qs],
                              (dim, dim, dim)),
        **_closed_forms(g_sym, gammas, qs))
