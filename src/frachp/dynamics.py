"""System definitions (Hamiltonian, hyperregular Lagrangian, metric
Lagrangian), noise couplings, Legendre transform, Christoffel symbols, and
assembly of the Ito drift/diffusion fields of the fractional momentum
equations.

All dynamics run in global coordinates on flat space; angle variables are
plain reals and are never wrapped.

Array contract.  Every callable a system holds maps samples (..., n) to
values (...) + tail: tail () for L, H and each coupling gamma_a; (n,) for
grad_q, grad_p, grad_v, gamma_grad and geodesic; (n, n) for metric and
v_hessian; (n, m) for noise_matrix; (n, n, n) for metric_grad.  One
sample (n,) has no batch axes, and row i of a batch must equal the call
on row i.  `_call_batched` checks the result where a batch is formed (the
action's L and gamma_a, `metric_at`, H and grad_p in the Legendre
fallback): a value of shape tail alone, such as the 0.0 of
`lambda q, v: 0.0`, is broadcast and must equal the value on the last
sample; another shape or a TypeError raises BatchShapeError naming the
callable.  The Euler step is called on the (P, n) stack of the P paths
the integrator steps together, and `complete_state` once on the
(N+1, P, n) history of a run.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import cache, partial
from types import MappingProxyType
from typing import Callable, Optional, Union

import numpy as np

from .core import FractionalParams
from .errors import (BatchShapeError, GridMismatch, InvalidArgument,
                     NoConvergence, NotPositiveDefinite, SingularHessian)
from .specfun import gamma, hp_noise_coefficient, power_kernel

_FD_BASE_STEP = 1e-6


def central_gradient(f: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Central-difference derivative with step 1e-6 * (1 + |x_i|).

    x has shape (..., n) and f maps it to values of shape (...) + S; the
    derivative axis is last, so the result has shape (...) + S + (n,).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        step = _FD_BASE_STEP * (1.0 + np.abs(x[..., i]))
        xp, xm = x.copy(), x.copy()
        xp[..., i] += step
        xm[..., i] -= step
        diff = (np.asarray(f(xp), dtype=float)
                - np.asarray(f(xm), dtype=float))
        cols.append(diff / (2.0 * step).reshape(
            step.shape + (1,) * (diff.ndim - step.ndim)))
    return np.stack(cols, axis=-1)


def _call_batched(fn, role: str, batch: tuple, tail: tuple,
                  *args) -> np.ndarray:
    """fn(*args) under the array contract: shape batch + tail.

    One value of shape tail is broadcast over the batch if it equals fn on
    the last sample.  That catches a per-sample callable reading row 0 of
    the batch, as `v.flat[0]` does; a per-sample `float(v[0])` raises
    TypeError, reported the same way.
    """
    name = getattr(fn, "__qualname__", repr(fn))
    want = batch + tail
    must = f"it must map (..., n) to (...) + {tail}"
    try:
        out = np.asarray(fn(*args), dtype=float)
    except TypeError as exc:
        raise BatchShapeError(f"{role} {name} failed on a batch of shape "
                              f"{batch} ({exc}); {must}") from exc
    if out.shape == want:
        return out
    if out.shape == tail:
        last = fn(*(a[(-1,) * len(batch)] for a in args))
        if np.array_equal(out, np.asarray(last, dtype=float), equal_nan=True):
            return np.broadcast_to(out, want)
    raise BatchShapeError(
        f"{role} {name} returned shape {out.shape} for a batch of shape "
        f"{batch}, not {want} nor one value equal to that on its last "
        f"sample; {must}")


def _fd_partial(f, which: int):
    """Derivative of f(x0, x1) in argument `which` by central differences."""

    def grad(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if which == 0:
            return central_gradient(lambda x: f(x, b), a)
        return central_gradient(lambda x: f(a, x), b)

    return grad


# ---------------------------------------------------------------------------
# Kernels: one per-entry text, bound to numpy arrays or rendered on floats
# ---------------------------------------------------------------------------

# Kernel record content -> its numpy function, shared by every system of
# the process that holds an equal record; and a term's source -> its maker.
_KERNELS: dict = {}
_TERMS: dict = {}


def _compile(spec: dict) -> Callable:
    """The numpy function of a kernel record, compiled once per process.

    spec holds "args", the names of the columns of each array argument
    (..., n_i); "subs", [name, text] pairs computed in order; "shape", the
    tail of the value; and "entries", the text of each of its row-major
    entries, or None for a zero.  Every other name the texts use is bound
    to numpy's attribute of that name (sin, arctan, pi, e), so a record
    carries all it needs; a name numpy lacks raises InvalidArgument here,
    not NameError at the first call.  The function reads the columns the
    texts use as x[..., j] and writes each entry into a zeroed output, so
    a zero entry stays +0.0.  Its `spec` attribute is a read-only copy of
    the record, of tuples, which `assemble_hp_fields` renders as a float
    lane.  Equal records give the one function, and a record that fails
    is not kept.
    """
    key = (tuple(map(tuple, spec["args"])), tuple(map(tuple, spec["subs"])),
           tuple(spec["shape"]), tuple(spec["entries"]))
    kernel = _KERNELS.get(key)
    if kernel is not None:
        return kernel
    groups, subs, shape, entries = key
    used = {node.id for text in [t for _, t in subs] + list(entries)
            if text is not None
            for node in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(node, ast.Name)}
    free = used - {x for g in groups for x in g} - {x for x, _ in subs}
    lacking = sorted(name for name in free if not hasattr(np, name))
    if lacking:
        raise InvalidArgument(f"spec={spec!r} names {lacking}: not columns, "
                              f"subs or numpy names")
    body = [f"{x} = _x{i}[..., {j}]" for i, group in enumerate(groups)
            for j, x in enumerate(group) if x in used]
    body += [f"{x} = {t}" for x, t in subs]
    body.append(f"_out = _zeros(_x0.shape[:-1] + {shape!r})")
    for index, e in zip(np.ndindex(*shape), entries):
        if e is not None:
            at = ", ".join(("...",) + tuple(map(str, index)))
            body.append(f"_out[{at}] = {e}")
    source = "".join(f"    {line}\n" for line in body)
    args = ", ".join(f"_x{i}" for i in range(len(groups)))
    namespace = {"_zeros": np.zeros, **{x: getattr(np, x) for x in free}}
    exec(f"def kernel({args}):\n{source}    return _out\n", namespace)
    kernel = namespace["kernel"]
    kernel.spec = MappingProxyType(dict(zip(
        ("args", "subs", "shape", "entries"), key)))
    _KERNELS[key] = kernel
    return kernel


def _builtin(args, shape, *entries) -> Callable:
    """A built-in kernel of arguments `args`, such as ["q1"], ["p1"]."""
    return _compile({"args": list(args), "subs": [], "shape": list(shape),
                     "entries": list(entries)})


# numpy's float64 sin, cos and sqrt give math's bits on the CPUs measured
# (the tests' TestLaneFunctions checks the one they run on); + - * / are
# correctly rounded in both, and pi and e are the same doubles.
_LANE_CALLS = frozenset(("sin", "cos", "sqrt"))
_LANE_CONSTANTS = {"pi": math.pi, "e": math.e}


def _lane_node(node, names: dict):
    """An entry's parsed text on float lanes, its names renamed by `names`
    and x**2 written x*x, as numpy's square computes it; None if it uses
    anything but numbers, names, + - * /, the power 2 and one-argument
    sin, cos and sqrt."""
    if isinstance(node, ast.BinOp):
        left, right = (_lane_node(a, names) for a in (node.left, node.right))
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Pow):
            two = isinstance(right, ast.Constant) and right.value == 2
            return ast.BinOp(left, ast.Mult(), left) if two else None
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            return ast.BinOp(left, node.op, right)
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        operand = _lane_node(node.operand, names)
        return None if operand is None else ast.UnaryOp(node.op, operand)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _LANE_CALLS and len(node.args) == 1
            and not node.keywords):
        arg = _lane_node(node.args[0], names)
        return None if arg is None else ast.Call(node.func, [arg], [])
    if isinstance(node, ast.Name) and node.id in names:
        return ast.Name(names[node.id])
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node
    return None


# Lane record (n, the templates and each kernel's record) -> the maker
# lanes(P) of its batch functions, or None where a kernel has no lane
# form; a maker compiles each P once.
_LANES: dict = {}

_LANE_STEP = """\
def lanes(q, x, h, damp, coef, inc):
    {state} = *q, *x
    rows = []
    push = rows.extend
    if inc is None:
        for d in damp:
{drift}
            push(({state}))
    else:
        for d, c, ({w},) in zip(damp, coef, inc):
{driven}
            push(({state}))
    return rows
"""


def _lane_path(i: int, n: int, velocity: str, force: str, specs: dict,
               parsed: dict):
    """Path i of a batch on float lanes: its q and x names, and the lines
    of the drift-only and of the driven loop that set them to the step's
    new (q, x) from w{i}, its increment; None if a kernel has no lane form.

    Each kernel's lane names map renames its columns to path i's q{i}_j
    and x{i}_j and its subs to {K}{i}_name, and `_lane_node` renders its
    parsed texts through that map.  The lines unroll the n components in
    the step's term order: q + h (velocity), then x + h (force), then
    + (c (column)) w, with a zero entry as 0.0.
    """
    qs, xs = [f"q{i}_{j}" for j in range(n)], [f"x{i}_{j}" for j in range(n)]
    entries, subs = {}, {}
    for role, spec in specs.items():
        names = {c: c for c in _LANE_CONSTANTS}
        for group, lane in zip(spec["args"], (qs, xs)):  # C reads q only
            names.update(zip(group, lane))
        names.update((name, f"{role}{i}_{name}") for name, _ in spec["subs"])
        nodes = [_lane_node(node, names) for node in parsed[role]]
        if None in nodes:
            return None
        lane = [ast.unparse(node) for node in nodes]
        subs[role] = [f"{names[name]} = {text}"
                      for (name, _), text in zip(spec["subs"], lane)]
        entries[role] = lane[len(spec["subs"]):]

    def branch(roles) -> list:
        """The lines of the loop that evaluates the kernels `roles` (C
        only where increments drive the step); an entry text used twice
        or more, such as the pendulum's -sin(q{i}_0) in F and C, is
        computed once into a temporary."""
        used = [e for role in roles for e in entries[role]]
        shared = {e: f"t{i}_{k}" for k, e in enumerate(dict.fromkeys(
            e for e in used if used.count(e) > 1 and not isinstance(
                ast.parse(e, mode="eval").body, (ast.Name, ast.Constant))))}
        lines = [line for role in roles for line in subs[role]]
        lines += [f"{t} = {e}" for e, t in shared.items()]
        terms = [{"y": x, **{role: shared.get(entries[role][j],
                                               entries[role][j])
                             for role in roles}} for j, x in enumerate(xs)]
        state = [f"{q} + h * ({velocity.format(**t)})"
                 for q, t in zip(qs, terms)]
        state += [f"{x} + h * ({force.format(**t)})"
                  + (f" + (c * ({t['C']})) * w{i}" if "C" in roles else "")
                  for x, t in zip(xs, terms)]
        return lines + [f"{', '.join(qs + xs)} = {', '.join(state)}"]

    return (qs, xs, branch([role for role in entries if role != "C"]),
            branch(list(entries)))


def _lane_step(n: int, velocity: str, force: str, kernels: dict):
    """The maker lanes(P) of the Euler step of `SdeFields.step` on the
    Python floats of a batch of P paths, for rows of coefficients, or None
    if a kernel has no lane form.

    velocity and force are the formulation record's templates, rendered
    for entry j with {y} as x_j (y is x wherever lanes run) and {K} as
    entry j of kernel K; kernels maps them and C, the noise column, to the
    callables.  lanes(P) is one loop over the rows that in each row
    advances every path, each by `_lane_path`'s lines, and pushes all
    their new (q, x) together.  It is compiled once per process for each
    lane record and P, and an equal record gives the one maker.
    lanes(P)(q, x, h, damp, coef, inc) takes the P paths' q and x as
    P * n floats each, path by path, h, lists of damp and coef, and rows
    of the P paths' increments (inc=None: drift-only), and returns the
    flat list of each row's q of every path, then x of every path: 2nP
    floats a row, 256 x 2n x P over one of the integrator's blocks.
    """
    specs = {role: getattr(kernel, "spec", None)
             for role, kernel in kernels.items()}
    if any(spec is None or len(spec["args"]) != (1 if role == "C" else 2)
           or any(len(a) != n for a in (spec["entries"], *spec["args"]))
           for role, spec in specs.items()):
        return None
    record = (n, velocity, force, tuple((role, tuple(spec.values()))
                                        for role, spec in specs.items()))
    if record in _LANES:
        return _LANES[record]
    parsed = {role: [ast.parse(text or "0.0", mode="eval").body
                     for text in [*(t for _, t in spec["subs"]),
                                  *spec["entries"]]]
              for role, spec in specs.items()}
    path = partial(_lane_path, n=n, velocity=velocity, force=force,
                   specs=specs, parsed=parsed)

    @cache
    def lanes(P: int) -> Callable:
        paths = [path(i) for i in range(P)]
        text = _LANE_STEP.format(
            state=", ".join([v for qs, *_ in paths for v in qs]
                            + [v for _, xs, *_ in paths for v in xs]),
            w=", ".join(f"w{i}" for i in range(P)),
            drift="\n".join(f"            {line}"
                            for *_, drift, _ in paths for line in drift),
            driven="\n".join(f"            {line}"
                             for *_, driven in paths for line in driven))
        namespace = {**_LANE_CONSTANTS,
                     **{name: getattr(math, name) for name in _LANE_CALLS}}
        exec(text, namespace)
        return namespace["lanes"]

    _LANES[record] = None if path(0) is None else lanes
    return _LANES[record]


# ---------------------------------------------------------------------------
# Noise couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseCoupling:
    """m scalar couplings gamma_a(q) with their gradients."""

    gamma: tuple
    gamma_grad: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(self.gamma))
        grads = self.gamma_grad
        if grads is None:
            grads = (partial(central_gradient, g) for g in self.gamma)
        object.__setattr__(self, "gamma_grad", tuple(grads))
        if len(self.gamma) != len(self.gamma_grad) or len(self.gamma) == 0:
            raise InvalidArgument(
                f"gamma={len(self.gamma)} couplings, {len(self.gamma_grad)} "
                f"gradients: need as many, and at least one")

    @property
    def m(self) -> int:
        return len(self.gamma)

    def values(self, q) -> np.ndarray:
        """All m couplings on configurations of shape (..., n), as (..., m)."""
        q = np.asarray(q, dtype=float)
        return np.stack([_call_batched(g, f"gamma[{a}]", q.shape[:-1], (),
                                       q)
                         for a, g in enumerate(self.gamma)], axis=-1)

    def grad_matrix(self, q: np.ndarray) -> np.ndarray:
        """(..., n, m) array whose column a is the gradient of gamma_a."""
        return np.stack([g(q) for g in self.gamma_grad], axis=-1)

    @classmethod
    def constant(cls, values, dim: Optional[int] = None) -> "NoiseCoupling":
        """Constant couplings; gradients vanish, so the noise drops out.

        Given dim, each gradient is the kernel of dim zero entries, which
        float lanes render; else it is zero on q of any dimension.
        """
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        zero = ((lambda q: np.zeros(np.shape(q))) if dim is None else
                _builtin([[f"q{i + 1}" for i in range(dim)]], [dim],
                         *[None] * dim))
        return cls(tuple((lambda q, c=c: np.full(np.shape(q)[:-1], c))
                         for c in vals), (zero,) * len(vals))

    @classmethod
    def cos_q(cls) -> "NoiseCoupling":
        """The pendulum coupling gamma(q) = cos q on a 1-d configuration."""
        return cls((_builtin([["q1"]], [], "cos(q1)"),),
                   (_builtin([["q1"]], [1], "-sin(q1)"),))


# ---------------------------------------------------------------------------
# System variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSystem:
    """Explicit Hamiltonian H(q, p) with analytic or fallback gradients."""

    dim: int
    hamiltonian: Callable
    noise: NoiseCoupling
    grad_q: Optional[Callable] = None
    grad_p: Optional[Callable] = None
    lagrangian: Optional[Callable] = None  # optional analytic L(q, v)

    def __post_init__(self):
        if self.grad_q is None:
            object.__setattr__(self, "grad_q",
                               _fd_partial(self.hamiltonian, 0))
        if self.grad_p is None:
            object.__setattr__(self, "grad_p",
                               _fd_partial(self.hamiltonian, 1))


@dataclass(frozen=True)
class LagrangianSystem:
    """Hyperregular Lagrangian L(q, v); the velocity Hessian must be invertible."""

    dim: int
    lagrangian: Callable
    noise: NoiseCoupling
    grad_q: Optional[Callable] = None
    grad_v: Optional[Callable] = None
    v_hessian: Optional[Callable] = None

    def __post_init__(self):
        if self.grad_q is None:
            object.__setattr__(self, "grad_q",
                               _fd_partial(self.lagrangian, 0))
        if self.grad_v is None:
            object.__setattr__(self, "grad_v",
                               _fd_partial(self.lagrangian, 1))
        if self.v_hessian is None:
            object.__setattr__(self, "v_hessian",
                               _fd_partial(self.grad_v, 1))


@dataclass(frozen=True)
class MetricSystem:
    """Kinetic Lagrangian L = (1/2) g_ij(q) v^i v^j.

    metric_grad(q)[i, j, k] = d g_ij / d q^k.  geodesic(q, v) is the
    geodesic force -Gamma^i_jk(q) v^j v^k, and noise_matrix(q) the
    (..., n, m) array g^-1(q) grad gamma_a(q) whose columns the noise
    drives; a system may give both in closed form, and otherwise they are
    taken numerically, from the Christoffel symbols and from g^-1 times
    `NoiseCoupling.grad_matrix`.  Neither form checks g: `metric_at` is
    the one owner of that rule, and `integrate_paths` checks every
    configuration a run visits in one `metric_at` call.
    """

    dim: int
    metric: Callable
    noise: NoiseCoupling
    metric_grad: Optional[Callable] = None
    geodesic: Optional[Callable] = field(default=None, repr=False,
                                         compare=False)
    noise_matrix: Optional[Callable] = field(default=None, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self.metric_grad is None:
            object.__setattr__(self, "metric_grad",
                               partial(central_gradient, self.metric))
        if self.geodesic is None:
            def geodesic(q, v):
                q = np.asarray(q, dtype=float)
                gamma = _christoffel(np.linalg.inv(self.metric(q)),
                                     self.metric_grad(q))
                return -np.einsum("...ijk,...j,...k->...i", gamma, v, v)

            object.__setattr__(self, "geodesic", geodesic)
        if self.noise_matrix is None:
            def noise_matrix(q):
                q = np.asarray(q, dtype=float)
                return (np.linalg.inv(self.metric(q))
                        @ self.noise.grad_matrix(q))

            object.__setattr__(self, "noise_matrix", noise_matrix)

    def metric_at(self, q: np.ndarray) -> np.ndarray:
        """The metric on configurations (..., n), as a read-only
        (..., n, n) array.

        Each sample must be symmetric, to 1e-12 of its largest entry (or
        of 1), and positive definite; the error names the first that is
        not, with its flat batch index.
        """
        q = np.asarray(q, dtype=float)
        n = self.dim
        g = _call_batched(self.metric, "metric", q.shape[:-1], (n, n), q)
        g_t = np.swapaxes(g, -1, -2)
        if not (g == g_t).all():  # only then can the tolerance matter
            asym = np.abs(g - g_t).max(axis=(-2, -1))
            bad = asym > 1e-12 * np.maximum(np.abs(g).max(axis=(-2, -1)), 1.0)
            if bad.any():
                raise NotPositiveDefinite(
                    f"metric is not symmetric at q={q[bad][0]}",
                    int(np.flatnonzero(bad)[0]))
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            # Name the first sample that fails on its own.
            for i, (x, gx) in enumerate(zip(q.reshape(-1, n),
                                            g.reshape(-1, n, n))):
                try:
                    np.linalg.cholesky(gx)
                except np.linalg.LinAlgError:
                    raise NotPositiveDefinite(
                        f"metric not positive definite at q={x}", i) from None
        g = g.view()  # read-only without freezing the callable's own array
        g.setflags(write=False)
        return g

    def lagrangian(self, q, v):
        """(1/2) g(q)(v, v) on samples of shape (..., n), g checked as
        `metric_at` checks it."""
        v, g = np.asarray(v, dtype=float), self.metric_at(q)
        return 0.5 * np.einsum("...i,...ij,...j->...", v, g, v)


SystemSpec = Union[HamiltonianSystem, LagrangianSystem, MetricSystem]


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

_HESS_DET_TOL = 1e-12
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


def _invertible(jac, q, x, what: str, rows=None) -> np.ndarray:
    """jac, if every sample has |det| > 1e-12; else SingularHessian naming
    the first sample's q and x (the velocity or iterate jac was taken at).

    Its sample is that sample's flat index, or its entry in rows: the
    flat indices in the caller's batch of the samples given.
    """
    jac = np.asarray(jac, dtype=float)
    singular = np.abs(np.linalg.det(jac)) <= _HESS_DET_TOL
    if singular.any():
        first = int(np.flatnonzero(singular)[0])
        raise SingularHessian(
            f"{what} singular at q={q[singular][0]}, x={x[singular][0]}",
            first if rows is None else int(rows[first]))
    return jac


def _newton(fn, jac, q, y, what: str) -> np.ndarray:
    """Solve fn(q, x) = y for x by Newton iteration from x = y.

    q and y have shape (..., n), and jac(q, x) is the (..., n, n) Jacobian
    of fn in x.  A row stops once its residual is within _NEWTON_TOL: the
    Jacobian is taken and the step made on the other rows only, so every
    row takes the iterates it takes alone.  A failure's sample is the flat
    index of the row it names.
    """
    x = np.array(y, dtype=float)
    for it in range(_NEWTON_MAX_ITER + 1):
        res = np.asarray(fn(q, x), dtype=float) - y
        if np.abs(res).max() <= _NEWTON_TOL:  # every row has converged
            return x
        todo = ~(np.abs(res).max(axis=-1) <= _NEWTON_TOL)
        if it == _NEWTON_MAX_ITER:
            break
        qt, xt = q[todo], x[todo]
        step = np.linalg.solve(_invertible(jac(qt, xt), qt, xt, what,
                                           np.flatnonzero(todo)),
                               res[todo][..., None])
        x[todo] = xt - step[..., 0]
    raise NoConvergence(
        f"Newton iteration on the {what}: residual "
        f"{np.abs(res[todo]).max():.3g} after {_NEWTON_MAX_ITER} iterations "
        f"at q={q[todo][0]}", int(np.flatnonzero(todo)[0]))


def legendre_transform(sys: LagrangianSystem, q, v):
    """(p, H) with p = dL/dv and H = <p, v> - L(q, v) on samples (..., n)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _invertible(sys.v_hessian(q, v), q, v, "velocity Hessian")
    p = np.asarray(sys.grad_v(q, v), dtype=float)
    return p, np.einsum("...i,...i->...", p, v) - sys.lagrangian(q, v)


def invert_legendre(sys: LagrangianSystem, q, p) -> np.ndarray:
    """Solve dL/dv(q, v) = p for v by Newton iteration from v0 = p.

    q and p have shape (..., n); each row converges on its own.
    """
    return _newton(sys.grad_v, sys.v_hessian, np.asarray(q, dtype=float),
                   np.asarray(p, dtype=float), "velocity Hessian")


def complete_state(sys: SystemSpec, q, x) -> tuple[np.ndarray, np.ndarray]:
    """(v, p) at configurations q (..., n) from x, the variable the noise
    drives: p, giving v = dH/dp or the v solving dL/dv(q, v) = p, or for a
    metric system v, giving p = g(q) v.  x is returned as it is."""
    return _formulation(sys).complete(q, x)


def system_lagrangian(sys: SystemSpec, q, v):
    """L(q, v) for any variant on samples of shape (..., n).

    The result has shape (...), and is a float for a single sample.  A
    Hamiltonian system without an analytic L goes through the Legendre
    map: grad_p H(q, p) = v is solved for p by Newton iteration with a
    central-difference Jacobian, and L = <p, v> - H(q, p).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = q.shape[:-1]
    if sys.lagrangian is not None:
        out = _call_batched(sys.lagrangian, "lagrangian", batch, (), q, v)
    else:
        def grad_p(q, p):
            return _call_batched(sys.grad_p, "grad_p", q.shape[:-1],
                                 (sys.dim,), q, p)

        p = _newton(grad_p, _fd_partial(grad_p, 1), q, v,
                    "Jacobian of grad_p H")
        out = (np.einsum("...i,...i->...", p, v)
               - _call_batched(sys.hamiltonian, "hamiltonian", batch, (),
                               q, p))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def christoffel(sys: MetricSystem, q) -> np.ndarray:
    """Gamma^i_jk = (1/2) g^il (dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l).

    q has shape (..., n); the result has shape (..., n, n, n).  g is
    checked as `metric_at` checks it.
    """
    q = np.asarray(q, dtype=float)
    return _christoffel(np.linalg.inv(sys.metric_at(q)), sys.metric_grad(q))


def _christoffel(g_inv, dg) -> np.ndarray:
    """`christoffel` from g^-1 and dg_ij/dq^k, unchecked."""
    dg = np.asarray(dg, dtype=float)
    # lower[..., l, j, k] = dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l
    # The last term moves the last axis of dg to the front: two swapaxes
    # do that ~5 us faster per call than np.moveaxis.
    lower = (dg + np.swapaxes(dg, -1, -2)
             - np.swapaxes(np.swapaxes(dg, -1, -3), -1, -2))
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", g_inv, lower)
    # Symmetrize in (j, k) so the symmetry holds exactly as computed.
    return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))


# ---------------------------------------------------------------------------
# Formulations
# ---------------------------------------------------------------------------

def _second(q, x):  # y_of or from_p where it returns x
    return x


@dataclass(frozen=True)
class _Formulation:
    """The rules of one system type: the components (q, x) `SdeFields.step`
    carries, x being the variable the noise drives; y_of(q, x), the y the
    terms read (p for a Hamiltonian system, else v, which a Lagrangian one
    solves for from p); velocity and force, the one statement of its Euler
    terms, as templates over {y}, the damping d and the value {K} of
    kernels[K] at (q, y), which `assemble_hp_fields` renders on arrays and
    `_lane_step` on floats; kernels, whose C is the noise column (..., n)
    that the step reads when m = 1; noise_matrix(q); the completion
    (q, x) -> (v, p) of `complete_state`; and from_p(q, p), the x of a
    state of momentum p."""

    carried: str
    y_of: Callable
    velocity: str
    force: str
    kernels: dict
    noise_matrix: Callable
    complete: Callable
    from_p: Callable


def _formulation(sys: SystemSpec) -> _Formulation:
    """The formulation record of a system, by its type."""
    if isinstance(sys, HamiltonianSystem):
        def complete(q, p):
            return np.asarray(sys.grad_p(q, p), dtype=float), p

        return _Formulation("qp", _second, "{V}", "d * {y} - ({F})",
                            {"V": sys.grad_p, "F": sys.grad_q,
                             "C": sys.noise.gamma_grad[0]},
                            sys.noise.grad_matrix, complete, _second)
    if isinstance(sys, LagrangianSystem):
        def complete(q, p):
            return invert_legendre(sys, q, p), p

        return _Formulation("qp", partial(invert_legendre, sys), "{y}",
                            "({F}) + d * ({P})",
                            {"F": sys.grad_q, "P": sys.grad_v,
                             "C": sys.noise.gamma_grad[0]},
                            sys.noise.grad_matrix, complete, _second)
    if isinstance(sys, MetricSystem):
        def complete(q, v):
            return v, (sys.metric_at(q) @ v[..., None])[..., 0]

        def from_p(q, p):
            return np.linalg.solve(sys.metric_at(q), p)

        spec = getattr(sys.noise_matrix, "spec", {"shape": ()})
        column = (_compile({**spec, "shape": spec["shape"][:1]})
                  if spec["shape"][1:] == (1,)  # m = 1: column 0's record
                  else lambda q: sys.noise_matrix(q)[..., 0])
        return _Formulation("qv", _second, "{y}", "({F}) - d * {y}",
                            {"F": sys.geodesic, "C": column},
                            sys.noise_matrix, complete, from_p)
    raise TypeError(f"unsupported system type {type(sys)!r}")


def _on_arrays(template: str, kernels: dict, args: str) -> Callable:
    """A term's template as a numpy function of `args`: {y} is the array
    y, and a kernel K is the call K(q, y).  Each text compiles once per
    process, into a maker that binds the kernels."""
    text = template.format(y="y", **{k: f"{k}(q, y)" for k in kernels})
    source = f"lambda {', '.join(kernels)}: lambda {args}: {text}"
    make = _TERMS.get(source) or _TERMS.setdefault(source, eval(source))
    return make(*kernels.values())


# ---------------------------------------------------------------------------
# Drift / diffusion assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeFields:
    """Assembled Ito-form right-hand sides for one system and parameter set.

    step(q, x, h, damp, coef, inc) is one explicit Euler step from float
    arrays (..., n) on increments (..., m), returning the new (q, x)
    (increments of another last axis raise GridMismatch): x is the
    variable the noise drives, p, or v for a metric system, and `carried`
    names the two.  The step reads y = y_of(q, x) of the formulation
    record (x itself, or for a Lagrangian system the v that solves
    dL/dv(q, v) = p); q moves by h drift_q(q, y) and x by
    h drift_p(q, y, damp) plus the noise term: for one channel (m = 1) the
    product of coef times the noise matrix's one column with inc, and for
    m > 1 (coef diffusion_p(q)) @ inc.  The product has the bits of the
    one-term matmul except where x + h drift_p and the product are both
    -0.0: the matmul adds the term to +0.0 and so gives 0.0 there, the
    product -0.0.  inc=None stands for increments that are all zero: x
    moves by h drift_p alone, and the noise matrix is not evaluated.  That
    gives the bits of zero increments, except where the noise matrix is
    not finite (zero increments give NaN there) or x + h drift_p is -0.0
    and the noise term of zero increments +0.0 (the sum is 0.0).  The
    other component (v, or p = g(q) v) is the one `complete_state` gives,
    and no step reads it.  damp and coef are damping(s) and noise_scale(s)
    at the left endpoint s; both take arrays of s, so a caller takes them
    once over a grid.

    drift_q(q, y) and drift_p(q, y, damp), which step composes, are the
    record's velocity and force templates rendered on numpy arrays, and
    return (..., n); diffusion_p is its (..., n, m) noise matrix, and q
    never carries noise.  None checks g; a run checks every q it visits.

    step.unchecked is the same step without the width check, which
    `integrate_paths` calls once `EulerRun` has checked the path.  lanes,
    if not None, makes lanes(P), that step on the Python floats of a batch
    of P paths over a block of rows, one loop over the rows that advances
    every path in each, rendered from the same templates (see
    `_lane_step`) and compiled once per process for each P, with `step`'s
    bits wherever no float operation raises.  A system gets lanes
    when its y is x (Hamiltonian or metric), it has one channel, and its
    templates' kernels and noise column are kernel records that use only
    numbers, + - * /, the power 2, sin, cos and sqrt: the built-in
    pendulum and polar metric, and such expression systems.
    """

    step: Callable
    drift_q: Callable
    drift_p: Callable
    diffusion_p: Callable
    damping: Callable
    noise_scale: Callable
    system: SystemSpec = field(repr=False)
    params: FractionalParams
    lanes: Optional[Callable] = field(default=None, repr=False)

    @property
    def carried(self) -> str:
        """The components step takes and returns, in its order."""
        return _formulation(self.system).carried


def _alpha_drift_factor(params: FractionalParams, s):
    """(alpha - 1)/(t_eval - s); s may be a float or an array of times."""
    if params.alpha == 1.0:
        return 0.0
    return (params.alpha - 1.0) / (params.t_eval - s)


def assemble_hp_fields(sys: SystemSpec, params: FractionalParams,
                       eq15_literal: bool = False) -> SdeFields:
    """Build the Euler step and the Ito drift and diffusion for a system.

    eq15_literal switches the metric-velocity noise coefficient to the
    printed variant Gamma(beta)/Gamma(alpha) (t-s)^(beta-1) instead of the
    one obtained from the Hamiltonian form through the Legendre map; for
    another system it raises InvalidArgument.
    """
    form, damping = _formulation(sys), partial(_alpha_drift_factor, params)
    y_of, noise_matrix = form.y_of, form.noise_matrix
    velocity = _on_arrays(form.velocity, form.kernels, "q, y")
    force = _on_arrays(form.force, form.kernels, "q, y, d")
    if eq15_literal:
        if form.carried != "qv":  # not the metric-velocity form
            raise InvalidArgument(
                f"eq15_literal=True applies to a MetricSystem only, not to "
                f"a {type(sys).__name__}")

        def noise_scale(s):
            return (gamma(params.beta) / gamma(params.alpha)
                    * power_kernel(params.t_eval, s, params.beta - 1.0))
    else:
        def noise_scale(s):
            return hp_noise_coefficient(params, s)

    channels = (sys.noise.m,)  # the last axis of the increments
    lanes = (_lane_step(sys.dim, form.velocity, form.force, form.kernels)
             if sys.noise.m == 1 and y_of is _second else None)
    if sys.noise.m == 1:  # one term: a product, not a matmul
        column = form.kernels["C"]

        def noise_term(q, coef, inc):
            return (coef * column(q)) * inc
    else:  # m terms, summed as BLAS sums them
        def noise_term(q, coef, inc):
            return ((coef * noise_matrix(q)) @ inc[..., None])[..., 0]

    def unchecked(q, x, h, damp, coef, inc):
        y = y_of(q, x)
        q_new, x_new = q + h * velocity(q, y), x + h * force(q, y, damp)
        if inc is None:  # no increment drives the step: the noise is 0
            return q_new, x_new
        return q_new, x_new + noise_term(q, coef, inc)

    def step(q, x, h, damp, coef, inc):
        if inc is not None and inc.shape[-1:] != channels:
            raise GridMismatch(f"increments of shape {inc.shape}: system "
                               f"expects {sys.noise.m} channels")
        return unchecked(q, x, h, damp, coef, inc)

    step.unchecked = unchecked
    return SdeFields(step, velocity, force, noise_matrix, damping,
                     noise_scale, sys, params, lanes)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def _builtin_coupling(name: str, cos: Callable[[], NoiseCoupling],
                      dim: int) -> NoiseCoupling:
    """The "cos" coupling that cos() builds, or the noise-free "const" one
    on q of dimension dim; only the coupling named is built."""
    if name == "cos":
        return cos()
    if name == "const":
        return NoiseCoupling.constant([1.0], dim)
    raise InvalidArgument(f"gamma_coupling={name!r} is not 'cos' or 'const'")


def _pendulum_parts(gamma_coupling: str):
    """(L, coupling) shared by both pendulum builders: L(q, v) = v^2/2 -
    cos q."""
    return (_builtin([["q1"], ["v1"]], [], "0.5*v1**2 - cos(q1)"),
            _builtin_coupling(gamma_coupling, NoiseCoupling.cos_q, 1))


def pendulum_system(gamma_coupling: str = "cos") -> HamiltonianSystem:
    """Noisy pendulum: H = p^2/2 + cos q on the line, gamma(q) = cos q.

    gamma_coupling: "cos" or "const" (constant coupling turns the noise
    off).
    """
    lagrangian, noise = _pendulum_parts(gamma_coupling)
    qp = [["q1"], ["p1"]]
    return HamiltonianSystem(1, _builtin(qp, [], "0.5*p1**2 + cos(q1)"),
                             noise, grad_q=_builtin(qp, [1], "-sin(q1)"),
                             grad_p=_builtin(qp, [1], "p1"),
                             lagrangian=lagrangian)


def pendulum_lagrangian_system(gamma_coupling: str = "cos"
                               ) -> LagrangianSystem:
    """The pendulum as a Lagrangian system, L = v^2/2 - cos q; the coupling
    as for `pendulum_system`."""
    lagrangian, noise = _pendulum_parts(gamma_coupling)
    qv = [["q1"], ["v1"]]
    return LagrangianSystem(1, lagrangian, noise,
                            grad_q=_builtin(qv, [1], "sin(q1)"),
                            grad_v=_builtin(qv, [1], "v1"),
                            v_hessian=_builtin(qv, [1, 1], "1"))


def polar_metric_system(gamma_coupling: str = "cos") -> MetricSystem:
    """Plane in polar coordinates (r, theta): g = diag(1, r^2), r > 0.

    Its geodesic force and its cos(theta) noise matrix are given in closed
    form, in the arithmetic of the generated `metric_from_expressions`
    forms, so the two systems step alike to the bit.
    """
    qs, qv = [["q1", "q2"]], [["q1", "q2"], ["v1", "v2"]]
    metric = _builtin(qs, [2, 2], "1", None, None, "q1**2")
    metric_grad = _builtin(qs, [2, 2, 2], *[None] * 6, "2*q1", None)
    # Gamma^1_22 = -r, Gamma^2_12 = Gamma^2_21 = 1/r
    geodesic = _builtin(qv, [2], "q1*v2**2", "-2*v1*v2/q1")
    noise = _builtin_coupling(gamma_coupling, lambda: NoiseCoupling(
        (_builtin(qs, [], "cos(q2)"),),
        (_builtin(qs, [2], None, "-sin(q2)"),)), 2)
    return MetricSystem(
        2, metric, noise, metric_grad=metric_grad, geodesic=geodesic,
        noise_matrix=(_builtin(qs, [2, 1], None,  # g^-1 grad cos(theta)
                               "-sin(q2)/q1**2")
                      if gamma_coupling == "cos" else None))
