"""Horizontal calculus: jets, exact derivative propagation, and the operator.

A :class:`Jet` carries value, full spatial gradient, full spatial Hessian and
time derivative of a scalar field at one space-time point, or at a batch of
P points given as a (P, n) array, where each entry gains a leading axis of
length P.  Closed-form fields are small expression trees
(:class:`ScalarField`) that propagate second-order derivatives exactly over
a whole batch at once; one point is a batch of one.

From a jet, the horizontal gradient and Hessian are

    Xu  = grad . sigma(x)            (a length-m row vector)
    X2u = t(sigma) hess sigma        (an m x m symmetric matrix)

which is valid in step two: sigma depends only on x_h and the first-order
correction terms cancel in the symmetrization.  The level-set curvature
operator is F(q, A) = -tr[(I - qq/|q|^2) A]; at q = 0 it is replaced by its
semicontinuous envelopes  -tr A + lambda_min(A)  and  -tr A + lambda_max(A).
:func:`operator_bounds` evaluates F and both envelopes over a batch (singular
where |q|^2 <= eps_sing^2); the solver's envelope schemes run the same code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .groups import GroupSpec, sigma

__all__ = [
    "Jet",
    "Expr",
    "Const",
    "Coord",
    "TimeVar",
    "Sum",
    "Product",
    "Power",
    "sqrt",
    "sq_norm",
    "ScalarField",
    "horizontal_gradient",
    "horizontal_hessian",
    "OperatorBounds",
    "operator_bounds",
]

HESS_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Jet:
    """Second-order data of a scalar field at one point or a batch of points.

    Attributes:
        value: field value; float, or shape (P,) for a batch.
        grad: full spatial gradient, shape (n,) or (P, n).
        hess: full spatial Hessian, symmetric, shape (n, n) or (P, n, n).
        dt: time derivative, float or shape (P,).
    """

    value: float | npt.NDArray[np.float64]
    grad: npt.NDArray[np.float64]
    hess: npt.NDArray[np.float64]
    dt: float | npt.NDArray[np.float64]

    def __post_init__(self):
        defect = np.abs(self.hess - np.swapaxes(self.hess, -1, -2)).max() if self.hess.size else 0.0
        if defect > HESS_SYMMETRY_TOL:
            raise ValueError(f"Hessian must be symmetric; defect {defect:.3e}")


# --------------------------------------------------------------------------
# Expression trees with exact second-order forward propagation.
#
# Each node evaluates at points x of shape (P, n) and time t (a number or
# one per point) to (value, grad, hess, dt), broadcastable to (P,), (P, n),
# (P, n, n) and (P,).  Only the handful of forms the closed-form fields need
# is implemented: constants, coordinates, time, sums, products, powers.
# --------------------------------------------------------------------------


class Expr:
    """Base expression node; combine with +, -, *, ** and sqrt()."""

    def eval(self, x: npt.NDArray, t) -> tuple:
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other) -> "Expr":
        return Sum(self, _wrap(other))

    def __radd__(self, other) -> "Expr":
        return Sum(_wrap(other), self)

    def __sub__(self, other) -> "Expr":
        return Sum(self, Product(Const(-1.0), _wrap(other)))

    def __rsub__(self, other) -> "Expr":
        return Sum(_wrap(other), Product(Const(-1.0), self))

    def __mul__(self, other) -> "Expr":
        return Product(self, _wrap(other))

    def __rmul__(self, other) -> "Expr":
        return Product(_wrap(other), self)

    def __neg__(self) -> "Expr":
        return Product(Const(-1.0), self)

    def __pow__(self, p) -> "Expr":
        return Power(self, float(p))


def _wrap(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, np.floating)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


def _zeros(x: npt.NDArray):
    """Zero gradient and Hessian, broadcastable over the batch of x."""
    n = x.shape[-1]
    return np.zeros((1, n)), np.zeros((1, n, n))


class Const(Expr):
    """A constant: one number, or one value per point of a batch, shape (P,)."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def eval(self, x, t):
        return (self.c, *_zeros(x), 0.0)


class Coord(Expr):
    """The i-th spatial coordinate function x_i."""

    def __init__(self, i: int):
        self.i = int(i)

    def eval(self, x, t):
        g, H = _zeros(x)
        g[0, self.i] = 1.0
        return x[:, self.i], g, H, 0.0


class TimeVar(Expr):
    """The time variable t."""

    def eval(self, x, t):
        return (t, *_zeros(x), 1.0)


class Sum(Expr):
    def __init__(self, *terms: Expr):
        self.terms = terms

    def eval(self, x, t):
        v, g, H, dt = (0.0, *_zeros(x), 0.0)
        for term in self.terms:
            tv, tg, tH, tdt = term.eval(x, t)
            v, g, H, dt = v + tv, g + tg, H + tH, dt + tdt
        return v, g, H, dt


def _outer(a: npt.NDArray, b: npt.NDArray) -> npt.NDArray:
    return a[..., :, None] * b[..., None, :]


class Product(Expr):
    """a * b by the product rule.

    When a factor is a Const c (one number or one per point), the jet is c
    times the other factor's value, gradient, Hessian and dt: the product
    rule's other terms carry the Const's zero derivatives, and skipping them
    leaves every value as it was but possibly the sign of a zero.
    """

    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def eval(self, x, t):
        if isinstance(self.a, Const) or isinstance(self.b, Const):
            const, other = (self.a, self.b) if isinstance(self.a, Const) else (self.b, self.a)
            c = const.c
            v, g, H, dt = other.eval(x, t)
            return c * v, c[..., None] * g, c[..., None, None] * H, c * dt
        av, ag, aH, adt = self.a.eval(x, t)
        bv, bg, bH, bdt = self.b.eval(x, t)
        v = av * bv
        av, bv = np.asarray(av)[..., None], np.asarray(bv)[..., None]
        g = av * bg + bv * ag
        H = av[..., None] * bH + bv[..., None] * aH + _outer(ag, bg) + _outer(bg, ag)
        dt = av[..., 0] * bdt + bv[..., 0] * adt
        return v, g, H, dt


def refuse_points(x: npt.NDArray, bad, message: str) -> None:
    """Raise ValueError naming the first point of x (shape (n,) or (P, n)) where bad holds."""
    points = np.reshape(x, (-1, np.shape(x)[-1]))
    bad = np.broadcast_to(bad, points.shape[:1])
    if np.any(bad):
        raise ValueError(f"{message} at point {points[np.argmax(bad)]}")


class Power(Expr):
    """base**p for real p; non-integer p requires a positive base."""

    def __init__(self, base: Expr, p: float):
        self.base, self.p = base, float(p)

    def eval(self, x, t):
        p = self.p
        if p == 0.0:
            return (1.0, *_zeros(x), 0.0)
        uv, ug, uH, udt = self.base.eval(x, t)
        uv = np.asarray(uv)
        if p != round(p):
            refuse_points(x, uv <= 0.0, f"fractional power {p} of a non-positive base")
        elif p < 2 and p != 1.0:
            refuse_points(x, uv == 0.0, f"power {p} undefined at base 0")
        v = uv ** p
        du = p * uv ** (p - 1)
        d2u = p * (p - 1) * uv ** (p - 2) if p != 1.0 else np.zeros_like(uv)
        g = du[..., None] * ug
        H = du[..., None, None] * uH + d2u[..., None, None] * _outer(ug, ug)
        return v, g, H, du * udt


def sqrt(e: Expr) -> Expr:
    """Square root node; defined where the argument is positive."""
    return Power(_wrap(e), 0.5)


def sq_norm(indices) -> Expr:
    """Sum of squared coordinates over the given index range."""
    return Sum(*(Coord(i) ** 2 for i in indices))


class ScalarField:
    """A closed-form space-time scalar field with exact jets.

    Args:
        expr: expression tree in the coordinates Coord(0..n-1) and TimeVar().
        group: the ambient group (fixes n and the horizontal split).
        domain: optional predicate marking where jets are trustworthy; it gets
            the points as passed to :meth:`jet`, (n,) or (P, n), indexes them
            as x[..., i] and returns one bool per point.  Evaluation at a
            point outside raises ValueError.
    """

    def __init__(self, expr: Expr, group: GroupSpec, domain=None):
        self.expr = expr
        self.group = group
        self.domain = domain

    def jet(self, x: npt.NDArray, t=0.0) -> Jet:
        """Exact jet at one point x (n,), a batch of one, or at a batch (P, n).

        t is a number or, for a batch, one time per point."""
        x = np.asarray(x, dtype=float)
        n = self.group.n
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise ValueError(f"point has shape {x.shape}, expected ({n},) or (P, {n})")
        if self.domain is not None:
            refuse_points(x, ~np.asarray(self.domain(x)), "outside the field's validity region")
        X = x.reshape(-1, n)
        shapes = ((len(X),), (len(X), n), (len(X), n, n), (len(X),))
        out = self.expr.eval(X, np.asarray(t, dtype=float))
        v, g, H, dt = (np.array(np.broadcast_to(a, s)) for a, s in zip(out, shapes))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        if x.ndim == 1:
            return Jet(value=float(v[0]), grad=g[0], hess=H[0], dt=float(dt[0]))
        return Jet(value=v, grad=g, hess=H, dt=dt)

    def __call__(self, x: npt.NDArray, t=0.0):
        return self.jet(x, t).value


# --------------------------------------------------------------------------
# Horizontal projections and the curvature operator.
# --------------------------------------------------------------------------


def horizontal_gradient(g: GroupSpec, j: Jet, x: npt.NDArray) -> npt.NDArray:
    """Horizontal gradient Xu = grad . sigma(x), shape (m,) or (P, m)."""
    return np.einsum("...a,...ai->...i", j.grad, sigma(g, x))


def horizontal_hessian(g: GroupSpec, j: Jet, x: npt.NDArray) -> npt.NDArray:
    """Horizontal Hessian X2u = t(sigma) hess sigma, symmetrized, (m, m) or (P, m, m)."""
    s = sigma(g, x)
    A = np.swapaxes(s, -1, -2) @ j.hess @ s
    return 0.5 * (A + np.swapaxes(A, -1, -2))


class OperatorBounds(NamedTuple):
    """F and its envelopes at each point of a batch; see :func:`operator_bounds`."""

    lower: npt.NDArray
    upper: npt.NDArray
    regular: npt.NDArray
    spectral: npt.NDArray


def _sum(out, terms):
    """sum(terms) written into out, in sum()'s order 0 + t0 + t1 + ...

    The leading 0 + turns a -0.0 into +0.0, as sum() does.  Each term is
    added before the next is drawn, so terms may share one scratch array.
    """
    terms = iter(terms)
    np.add(next(terms), 0, out=out)
    for term in terms:
        np.add(out, term, out=out)
    return out


def _contract(q, A, out=None):
    """tr A, |q|^2 and q^T A q from components q[j] and all A[j, l], in one order.

    out, if given, holds four arrays of the shape of q[0]: the first three
    receive the results and the fourth is scratch.
    """
    m = len(q)
    trA, qq, qAq, work = out if out is not None else [np.empty(np.shape(q[0])) for _ in range(4)]
    _sum(trA, (A[j, j] for j in range(m)))
    np.square(q[0], out=qq)  # no leading 0 +: a square is never -0.0
    for qj in q[1:]:
        np.add(qq, np.square(qj, out=work), out=qq)
    _sum(qAq, (
        np.multiply(np.multiply(q[j], A[j, l], out=work), q[l], out=work)
        for j in range(m)
        for l in range(m)
    ))
    return trA, qq, qAq


def _bounds(trA, qq, qAq, A, eps2: float, out=None) -> OperatorBounds:
    """:func:`operator_bounds` from the output and the components A of
    :func:`_contract` (at least 1-d); one eigvalsh covers the singular points.

    out, if given, holds the four arrays of the result, in its field order
    (regular is boolean), with the shape of qq.
    """
    if out is None:
        shape = np.shape(qq)
        out = (np.empty(shape, bool), np.empty(shape), np.empty(shape), np.empty(shape))
    regular, lower, upper, spectral = out
    np.greater(qq, eps2, out=regular)
    np.copyto(upper, 1.0)
    np.copyto(upper, qq, where=regular)
    np.negative(trA, out=lower)
    np.add(lower, np.divide(qAq, upper, out=upper), out=lower)
    np.copyto(upper, lower)
    spectral[...] = 0.0
    if not regular.all():
        sing = np.flatnonzero(~regular)  # flat C-order indices, for take and put
        m = round(len(A) ** 0.5)  # A holds all m * m components, sorted(A) is row-major
        Asing = np.stack([np.take(A[jl], sing) for jl in sorted(A)], axis=-1).reshape(-1, m, m)
        eig = np.linalg.eigvalsh(Asing)
        trA_sing = np.take(trA, sing)
        np.put(lower, sing, -trA_sing + eig[:, 0])
        np.put(upper, sing, -trA_sing + eig[:, -1])
        np.put(spectral, sing, np.maximum(np.abs(eig[:, 0]), np.abs(eig[:, -1])))
    return OperatorBounds(lower, upper, regular, spectral)


def operator_bounds(q: npt.NDArray, A: npt.NDArray, eps_sing: float = 0.0) -> OperatorBounds:
    """The curvature operator F(q, A) and its envelopes, over a batch.

    q has shape (..., m) and A (..., m, m).  Where |q|^2 > eps_sing^2
    (regular), lower and upper both hold F(q, A) = -tr A + q.A.q/|q|^2;
    elsewhere they hold the envelopes -tr A + lambda_min(A) and -tr A +
    lambda_max(A), and spectral holds max |lambda(A)| (0 at regular points).
    For one point (q of shape (m,)) every entry is a scalar.
    """
    shape, m = np.shape(q)[:-1], np.shape(q)[-1]
    q = np.reshape(np.asarray(q, dtype=float), (-1, m)).T
    A = np.reshape(np.asarray(A, dtype=float), (-1, m, m))
    A = {(j, l): A[:, j, l] for j in range(m) for l in range(m)}
    bounds = _bounds(*_contract(q, A), A, eps_sing ** 2)
    return OperatorBounds(*(a.reshape(shape)[()] for a in bounds))
