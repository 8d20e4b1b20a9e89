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


def _lambdify(args, exprs, shape: tuple):
    """numpy function of arrays (..., n_i) whose columns are `args`.

    `exprs` are the row-major entries of a value of shape `shape`.  Entries
    that are sympy Rationals (0, 1, 1/3) are taken once into a constant
    row; the others are lambdified once, so other numbers such as pi keep
    going through numpy.  A call reads the columns as x[..., j], fills one
    (..., len(exprs)) array from the row and the lambdified entries, and
    returns (...) + shape.
    """
    import sympy
    exprs = list(exprs)
    live = [j for j, e in enumerate(exprs)
            if not isinstance(e, sympy.Rational)]
    fixed = [j for j in range(len(exprs)) if j not in live]
    row = np.zeros(len(exprs))
    # Lambdified, the constants take the values a call would give them.
    row[fixed] = sympy.lambdify((), [exprs[j] for j in fixed],
                                modules="numpy")()
    fn = sympy.lambdify(args, [exprs[j] for j in live], modules="numpy")

    def call(*arrays):
        cols = [x[..., j] for x in arrays for j in range(x.shape[-1])]
        batch = cols[0].shape
        out = np.empty(batch + (len(exprs),))
        out[...] = row
        for j, val in zip(live, fn(*cols)):
            out[..., j] = val
        return out.reshape(batch + shape)

    return call


def noise_from_expressions(exprs: list[str], dim: int) -> NoiseCoupling:
    """Couplings gamma_a(q1..qn) from expression strings, with their
    symbolic gradients."""
    import sympy
    qs = _symbols("q", dim)
    gammas, grads = [], []
    for text in exprs:
        e = _parse(text, "gamma_expr", qs)
        gammas.append(_lambdify(qs, [e], ()))
        grads.append(_lambdify(qs, [sympy.diff(e, q) for q in qs], (dim,)))
    return NoiseCoupling(tuple(gammas), tuple(grads))


def hamiltonian_from_expression(h_expr: str, gamma_exprs: list[str],
                                dim: int) -> HamiltonianSystem:
    """HamiltonianSystem from H(q1..qn, p1..pn) expression text."""
    import sympy
    qs, ps = _symbols("q", dim), _symbols("p", dim)
    h_sym = _parse(h_expr, "hamiltonian_expr", qs + ps)
    return HamiltonianSystem(
        dim, _lambdify(qs + ps, [h_sym], ()),
        noise_from_expressions(gamma_exprs, dim),
        grad_q=_lambdify(qs + ps, [sympy.diff(h_sym, q) for q in qs],
                         (dim,)),
        grad_p=_lambdify(qs + ps, [sympy.diff(h_sym, p) for p in ps],
                         (dim,)))


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
    # metric_grad[i, j, k] = d g_ij / d q_k
    return MetricSystem(
        dim, _lambdify(qs, list(g_sym), (dim, dim)),
        noise_from_expressions(gamma_exprs, dim),
        metric_grad=_lambdify(qs, [g.diff(q) for g in g_sym for q in qs],
                              (dim, dim, dim)))
