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
    return expr


def _symbols(prefix: str, n: int):
    import sympy
    return sympy.symbols(f"{prefix}1:{n + 1}")


def _lambdify_vec(args, exprs):
    import sympy
    fns = [sympy.lambdify(args, e, modules="math") for e in exprs]

    def call(*vals):
        flat = [float(x) for v in vals for x in np.atleast_1d(v)]
        return np.array([f(*flat) for f in fns])

    return call


def noise_from_expressions(exprs: list[str], dim: int) -> NoiseCoupling:
    """Couplings gamma_a(q1..qn) from expression strings.

    The values follow the batch contract of `frachp.dynamics` (samples of
    shape (..., n)); the gradients take one sample at a time.
    """
    import sympy
    qs = _symbols("q", dim)
    gammas, grads = [], []
    for text in exprs:
        e = _parse(text, "gamma_expr", qs)
        fn = sympy.lambdify(qs, e, modules="numpy")
        grad = _lambdify_vec(qs, [sympy.diff(e, q) for q in qs])
        gammas.append(lambda q, _f=fn: _f(*np.moveaxis(
            np.asarray(q, dtype=float), -1, 0)))
        grads.append(lambda q, _g=grad: _g(q))
    return NoiseCoupling(tuple(gammas), tuple(grads))


def hamiltonian_from_expression(h_expr: str, gamma_exprs: list[str],
                                dim: int) -> HamiltonianSystem:
    """HamiltonianSystem from H(q1..qn, p1..pn) expression text."""
    import sympy
    qs, ps = _symbols("q", dim), _symbols("p", dim)
    h_sym = _parse(h_expr, "hamiltonian_expr", qs + ps)
    h_fn = sympy.lambdify(qs + ps, h_sym, modules="math")
    grad_q = _lambdify_vec(qs + ps, [sympy.diff(h_sym, q) for q in qs])
    grad_p = _lambdify_vec(qs + ps, [sympy.diff(h_sym, p) for p in ps])

    return HamiltonianSystem(
        dim,
        lambda q, p: float(h_fn(*np.atleast_1d(q), *np.atleast_1d(p))),
        noise_from_expressions(gamma_exprs, dim),
        grad_q=lambda q, p: grad_q(q, p),
        grad_p=lambda q, p: grad_p(q, p))


def metric_from_expressions(rows: list[list[str]], gamma_exprs: list[str],
                            dim: int) -> MetricSystem:
    """MetricSystem from an n x n table of g_ij(q1..qn) expression strings."""
    import sympy
    qs = _symbols("q", dim)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ParseError(f"metric_expr: rows of {[len(r) for r in rows]} "
                         f"entries, need {dim} rows of {dim} for dim = {dim}")
    g_sym = sympy.Matrix([[_parse(e, "metric_expr", qs) for e in row]
                          for row in rows])
    g_fn = sympy.lambdify(qs, g_sym, modules="numpy")
    dg_fns = [sympy.lambdify(qs, g_sym.diff(q), modules="numpy") for q in qs]

    def metric(q):
        return np.asarray(g_fn(*np.atleast_1d(q)), dtype=float)

    def metric_grad(q):
        vals = np.atleast_1d(q)
        dg = np.empty((dim, dim, dim))
        for k, f in enumerate(dg_fns):
            dg[:, :, k] = np.asarray(f(*vals), dtype=float)
        return dg

    return MetricSystem(dim, metric, noise_from_expressions(gamma_exprs, dim),
                        metric_grad=metric_grad)
