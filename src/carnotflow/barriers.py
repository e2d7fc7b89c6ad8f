"""Closed-form barrier catalog for the horizontal mean curvature flow.

Each barrier is a space-time field u(x, t) = c t + (spatial profile) + r
whose operator value  u_t + F(Xu, X2u)  has a closed form wherever the
horizontal gradient is nonzero.  The catalog records, per barrier, that
closed form, the sub/supersolution classification as a function of the
drift c, the spatial region on which the classification is valid, and the
extinction-time formula where the zero level set is forced to disappear.

The gauge-based barriers require a Heisenberg-like group (n = m+1 with a
single orthogonal skew B), which gives the algebraic identities
B x_h . x_h = 0 and |B x_h| = |x_h| that the closed forms rely on.  Note
the profile gauge used here is G = |x_h|^4 + 4 |x_v|^2, with coefficient 4
on the vertical part (not the coefficient 1 of the norm gauge N); the
printed operator constants belong to this normalization.

Closed forms and region predicates act on one point (shape (n,)) or on a
batch (shape (P, n)), returning one value, vector or matrix per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.typing as npt

from .calculus import (
    Const,
    ScalarField,
    TimeVar,
    horizontal_gradient,
    horizontal_hessian,
    operator_bounds,
    refuse_points,
    sq_norm,
    sqrt,
)
from .groups import GroupSpec, homogeneous_norm, require_heisenberg_like, sigma

__all__ = [
    "BARRIER_KINDS",
    "SQRT_GAUGE_EXCLUSION",
    "BarrierSpec",
    "BarrierEval",
    "make_cylinder",
    "make_gauge",
    "make_euclid_ball",
    "make_sqrt_gauge",
    "make_barrier",
    "extinction_time",
    "SmoothMap1D",
    "psi_identity",
    "psi_square",
    "psi_sqrt",
    "psi_s_plus_s3",
    "change_of_variables_check",
    "v_convexity_witness",
    "gauge_profile_value",
    "gauge_profile_hgrad",
    "gauge_profile_hhess",
]

BARRIER_KINDS = ("cylinder", "gauge", "euclid_ball", "sqrt_gauge")

# Jets of the square-root gauge are refused this close (in homogeneous norm)
# to the origin, where the field is genuinely nonsmooth.
SQRT_GAUGE_EXCLUSION = 1e-8


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier identity: kind, drift c, offset r, and the ambient group."""

    kind: str
    c: float
    r: float
    group: GroupSpec

    def __post_init__(self):
        if self.kind not in BARRIER_KINDS:
            raise ValueError(f"unknown barrier kind {self.kind!r}")


@dataclass(frozen=True)
class BarrierEval:
    """A barrier with its closed-form calculus.

    Attributes:
        spec: the defining parameters.
        field: exact space-time evaluator for u(x, t).
        classification: "solution", "supersolution", "subsolution", or
            "none" when the drift c certifies neither inequality.
        region: predicate marking where the classification applies, one bool
            per point (the characteristic set x_h = 0 is handled separately
            by the point-verdict layer).
        closed_form_operator: x -> u_t + F(Xu, X2u), defined for x_h != 0.
        closed_hgrad: x -> Xu, the closed-form horizontal gradient.
        closed_hhess: x -> X2u, the closed-form horizontal Hessian.
    """

    spec: BarrierSpec
    field: ScalarField
    classification: str
    region: Callable[[npt.NDArray], bool]
    closed_form_operator: Callable[[npt.NDArray], float]
    closed_hgrad: Callable[[npt.NDArray], npt.NDArray]
    closed_hhess: Callable[[npt.NDArray], npt.NDArray]


def _sq(v: npt.NDArray) -> npt.NDArray:
    """Squared Euclidean length along the trailing axis."""
    return np.sum(v * v, axis=-1)


def _everywhere(x) -> npt.NDArray:
    return np.ones(np.shape(x)[:-1], dtype=bool)[()]


def _horizontal_sq(g: GroupSpec, x) -> npt.NDArray:
    """|x_h|^2, refusing points on the axis x_h = 0 where F is undefined."""
    hsq = _sq(g.split(x)[0])
    refuse_points(x, hsq == 0.0, "closed-form operator is undefined on the axis x_h = 0")
    return hsq


# ------------------------------------------------------------- cylinder ---


def make_cylinder(g: GroupSpec, c: float, r: float) -> BarrierEval:
    """Cylinder barrier w = c t - |x_h|^2 + r on any step-two group.

    Xw = -2 x_h and X2w = -2 I, so the operator value is c + 2(m-1) at
    every x with x_h != 0.  The field is an exact solution iff
    c = -2(m-1), a supersolution for c >= -2(m-1) and a subsolution for
    c <= -2(m-1).
    """
    m = g.m
    expr = Const(c) * TimeVar() - sq_norm(range(m)) + Const(r)
    field = ScalarField(expr, g)
    level = -2.0 * (m - 1)

    if c == level:
        classification = "solution"
    elif c > level:
        classification = "supersolution"
    else:
        classification = "subsolution"

    def operator(x):
        return np.full(np.shape(_horizontal_sq(g, x)), c + 2.0 * (m - 1))[()]

    def hgrad(x) -> npt.NDArray:
        return -2.0 * g.split(x)[0]

    def hhess(x) -> npt.NDArray:
        return np.broadcast_to(-2.0 * np.eye(m), np.shape(x)[:-1] + (m, m)).copy()

    return BarrierEval(
        spec=BarrierSpec("cylinder", c, r, g),
        field=field,
        classification=classification,
        region=_everywhere,
        closed_form_operator=operator,
        closed_hgrad=hgrad,
        closed_hhess=hhess,
    )


# ---------------------------------------------------------------- gauge ---


def _gauge_expr(g: GroupSpec):
    """Profile gauge G = |x_h|^4 + 4 |x_v|^2 as an expression tree."""
    return sq_norm(range(g.m)) ** 2 + 4.0 * sq_norm(range(g.m, g.n))


def gauge_profile_value(g: GroupSpec, x):
    """G(x) = |x_h|^4 + 4 |x_v|^2."""
    xh, xv = g.split(x)
    return _sq(xh) ** 2 + 4.0 * _sq(xv)


def gauge_profile_hgrad(g: GroupSpec, x, weight: float = 4.0) -> npt.NDArray:
    """XG = 4 |x_h|^2 x_h + 8 sum_k (x_v)_k B^(k) x_h.

    With weight w, the horizontal gradient of |x_h|^4 + w |x_v|^2 (the
    vertical term becomes 2 w sum_k ...); w = 1 gives the norm gauge N.
    """
    xh, xv = g.split(x)
    b = sigma(g, x)[..., g.m:, :]
    return 4.0 * _sq(xh)[..., None] * xh + 2.0 * weight * np.einsum("...k,...ki->...i", xv, b)


def gauge_profile_hhess(g: GroupSpec, x, weight: float = 4.0) -> npt.NDArray:
    """X2G = 4 |x_h|^2 I + 8 x_h (x) x_h + 8 sum_k (B^(k) x_h) (x) (B^(k) x_h).

    With weight w, the horizontal Hessian of |x_h|^4 + w |x_v|^2 (the last
    term becomes 2 w sum_k ...); w = 1 gives the norm gauge N.
    """
    xh, _ = g.split(x)
    b = sigma(g, x)[..., g.m:, :]
    return (
        4.0 * _sq(xh)[..., None, None] * np.eye(g.m)
        + 8.0 * np.einsum("...i,...j->...ij", xh, xh)
        + 2.0 * weight * np.einsum("...ki,...kj->...ij", b, b)
    )


def make_gauge(g: GroupSpec, c: float, r: float) -> BarrierEval:
    """Gauge barrier u = c t - G + r with G = |x_h|^4 + 4 |x_v|^2.

    On a Heisenberg-like group the closed forms are

        |XG|^2       = 16 |x_h|^2 G,
        X2G          = 4 |x_h|^2 I + 8 x_h (x) x_h + 8 (B x_h) (x) (B x_h),
        XG.X2G.XG    = 192 |x_h|^4 G,

    giving the operator value c + 4 n |x_h|^2 for x_h != 0.  The field is a
    global supersolution for c >= 0 and a subsolution for c < 0 only on the
    cylinder |x_h| < sqrt(-c / (4 n)).
    """
    require_heisenberg_like(g)
    n = g.n
    field = ScalarField(Const(c) * TimeVar() - _gauge_expr(g) + Const(r), g)

    if c >= 0:
        classification = "supersolution"
        region = _everywhere
    else:
        classification = "subsolution"
        radius_sq = -c / (4.0 * n)

        def region(x):
            return _sq(g.split(x)[0]) < radius_sq

    def operator(x):
        return c + 4.0 * n * _horizontal_sq(g, x)

    return BarrierEval(
        spec=BarrierSpec("gauge", c, r, g),
        field=field,
        classification=classification,
        region=region,
        closed_form_operator=operator,
        closed_hgrad=lambda x: -gauge_profile_hgrad(g, x),
        closed_hhess=lambda x: -gauge_profile_hhess(g, x),
    )


# ---------------------------------------------------------- euclid ball ---


def make_euclid_ball(g: GroupSpec, c: float, r: float) -> BarrierEval:
    """Euclidean-ball barrier w = c t - |x|^2 + r on a Heisenberg-like group.

    Here Xw = -2 (x_h + x_v B x_h), |Xw|^2 = 4 |x_h|^2 (1 + x_v^2) and
    X2w = -2 (I + (B x_h) (x) (B x_h)): the full Euclidean Hessian -2 I
    picks up the frame term t(sigma) sigma = I + (B x_h)(x)(B x_h).  The
    operator value is c + 2(m-1) + 2 |x_h|^2 / (1 + x_v^2): supersolution
    for c >= -2(m-1); subsolution for c < -2(m-1), but only on the region
    |x_h|^2 < eps (1 + x_v^2) with eps = (-c - 2(m-1)) / 2, so no global
    extinction argument is available from this barrier.
    """
    require_heisenberg_like(g)
    m = g.m
    field = ScalarField(Const(c) * TimeVar() - sq_norm(range(g.n)) + Const(r), g)
    level = -2.0 * (m - 1)

    if c >= level:
        classification = "supersolution"
        region = _everywhere
    else:
        classification = "subsolution"
        eps = (-c - 2.0 * (m - 1)) / 2.0

        def region(x):
            xh, xv = g.split(x)
            return _sq(xh) < eps * (1.0 + _sq(xv))

    def operator(x):
        hsq = _horizontal_sq(g, x)
        return c + 2.0 * (m - 1) + 2.0 * hsq / (1.0 + _sq(g.split(x)[1]))

    def hgrad(x) -> npt.NDArray:
        xh, xv = g.split(x)
        return -2.0 * (xh + xv[..., :1] * (xh @ g.B[0].T))

    def hhess(x) -> npt.NDArray:
        b = g.split(x)[0] @ g.B[0].T
        return -2.0 * (np.eye(m) + np.einsum("...i,...j->...ij", b, b))

    return BarrierEval(
        spec=BarrierSpec("euclid_ball", c, r, g),
        field=field,
        classification=classification,
        region=region,
        closed_form_operator=operator,
        closed_hgrad=hgrad,
        closed_hhess=hhess,
    )


# ----------------------------------------------------------- sqrt gauge ---


def make_sqrt_gauge(g: GroupSpec, c: float, r: float) -> BarrierEval:
    """Square-root gauge barrier v = c t - G^(1/2) + r (Heisenberg-like).

    The operator value is c + 2 n |x_h|^2 / G^(1/2) for x_h != 0.  Since
    |x_h|^2 <= G^(1/2) everywhere, the field is a global subsolution for
    c <= -2n, and a supersolution for c >= 0.  The field is not smooth at
    the origin; jets are refused within homogeneous-norm distance 1e-8
    of it.
    """
    require_heisenberg_like(g)
    n = g.n

    def domain(x):
        return homogeneous_norm(g, x) > SQRT_GAUGE_EXCLUSION

    field = ScalarField(
        Const(c) * TimeVar() - sqrt(_gauge_expr(g)) + Const(r), g, domain=domain
    )

    if c >= 0:
        classification = "supersolution"
    elif c <= -2.0 * n:
        classification = "subsolution"
    else:
        classification = "none"

    def operator(x):
        return c + 2.0 * n * _horizontal_sq(g, x) / np.sqrt(gauge_profile_value(g, x))

    def hgrad(x) -> npt.NDArray:
        G = gauge_profile_value(g, x)[..., None]
        return -gauge_profile_hgrad(g, x) / (2.0 * np.sqrt(G))

    def hhess(x) -> npt.NDArray:
        G = gauge_profile_value(g, x)[..., None, None]
        XG = gauge_profile_hgrad(g, x)
        X2G = gauge_profile_hhess(g, x)
        return -(X2G / (2.0 * np.sqrt(G)) - np.einsum("...i,...j->...ij", XG, XG) / (4.0 * G ** 1.5))

    return BarrierEval(
        spec=BarrierSpec("sqrt_gauge", c, r, g),
        field=field,
        classification=classification,
        region=domain,
        closed_form_operator=operator,
        closed_hgrad=hgrad,
        closed_hhess=hhess,
    )


_MAKERS = {
    "cylinder": make_cylinder,
    "gauge": make_gauge,
    "euclid_ball": make_euclid_ball,
    "sqrt_gauge": make_sqrt_gauge,
}


def make_barrier(kind: str, g: GroupSpec, c: float, r: float) -> BarrierEval:
    """Build a catalog barrier by name."""
    if kind not in _MAKERS:
        raise ValueError(f"unknown barrier kind {kind!r}; choose from {BARRIER_KINDS}")
    return _MAKERS[kind](g, c, r)


# ------------------------------------------------------ extinction times ---


def extinction_time(b: BarrierSpec) -> float:
    """Time by which the zero level set of the barrier is forced to vanish.

    The level set {u(., t) = 0} of u = c t + profile + r empties once
    c t + r < min profile decay; for the kinds with a global (or
    level-set-covering) subsolution certificate the bound is -r / c:

        cylinder   (c <= -2(m-1)):  -r/c, equal to r / (2(m-1)) at equality;
        gauge      (c < 0 and -c > 4 n sqrt(r)): -r/c — the subsolution
                   cylinder |x_h| < sqrt(-c/(4n)) must cover the initial
                   gauge ball, whose horizontal extent is r^(1/4);
        sqrt_gauge (c <= -2n): -r/c, equal to r / (2n) at equality.

    Raises:
        ValueError: for non-extinguishing parameters, and for the
            euclid_ball kind (its subsolution region never certifies
            extinction).
    """
    if b.r <= 0:
        raise ValueError(f"offset r must be positive, got {b.r}")
    g, c, r = b.group, b.c, b.r
    if b.kind == "cylinder":
        if c > -2.0 * (g.m - 1):
            raise ValueError(
                f"cylinder needs c <= -2(m-1) = {-2.0 * (g.m - 1)} to extinguish, got c={c}"
            )
        return -r / c
    if b.kind == "gauge":
        if c >= 0 or -c <= 4.0 * g.n * np.sqrt(r):
            raise ValueError(
                f"gauge needs -c > 4 n sqrt(r) = {4.0 * g.n * np.sqrt(r):g} "
                f"so the subsolution region covers the shrinking ball, got c={c}"
            )
        return -r / c
    if b.kind == "sqrt_gauge":
        if c > -2.0 * g.n:
            raise ValueError(
                f"sqrt_gauge needs c <= -2n = {-2.0 * g.n} to extinguish, got c={c}"
            )
        return -r / c
    raise ValueError(f"no extinction certificate for barrier kind {b.kind!r}")


# --------------------------------------------- change of variables in F ---


@dataclass(frozen=True)
class SmoothMap1D:
    """A scalar map s -> psi(s) with first and second derivatives."""

    fun: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    name: str = "psi"


psi_identity = SmoothMap1D(lambda s: s, lambda s: 1.0, lambda s: 0.0, "id")
psi_square = SmoothMap1D(lambda s: s * s, lambda s: 2.0 * s, lambda s: 2.0, "s^2")
psi_sqrt = SmoothMap1D(
    lambda s: np.sqrt(s),
    lambda s: 0.5 / np.sqrt(s),
    lambda s: -0.25 * s ** -1.5,
    "s^(1/2)",
)
psi_s_plus_s3 = SmoothMap1D(
    lambda s: s + s ** 3, lambda s: 1.0 + 3.0 * s * s, lambda s: 6.0 * s, "s+s^3"
)


def change_of_variables_check(
    g: GroupSpec, U: ScalarField, psi: SmoothMap1D, x, t: float = 0.0
):
    """Relative residual of curv_op(psi(U)) = psi'(U) curv_op(U) at x.

    curv_op is the curvature part -tr[(I - qq/|q|^2) X2(.)]; the identity
    expresses that relabeling the level-set function rescales the operator
    by psi'(U) — the geometric invariance the flow relies on.  x is one
    point (a float is returned) or a batch (one residual per point).

    Raises:
        ValueError: at points where XU = 0, or when psi is not increasing
            at U(x); the message names the first such point.
    """
    x = np.asarray(x, dtype=float)
    j = U.jet(x, t)
    q = horizontal_gradient(g, j, x)
    A = horizontal_hessian(g, j, x)
    F = operator_bounds(q, A)
    refuse_points(x, ~F.regular, "change-of-variables check needs a noncharacteristic point")
    zero = np.zeros(np.shape(j.value))
    d1 = psi.d1(j.value) + zero
    refuse_points(x, ~(d1 > 0.0), "psi must be increasing at U(x)")
    d2 = (psi.d2(j.value) + zero)[..., None, None]
    # second-order propagation through psi o U
    AW = d1[..., None, None] * A + d2 * np.einsum("...i,...j->...ij", q, q)
    lhs = operator_bounds(d1[..., None] * q, AW).lower
    rhs = d1 * F.lower
    return (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))[()]


def v_convexity_witness(g: GroupSpec, U: ScalarField, samples) -> float:
    """Estimate the v-convexity constant alpha = min lambda_min(X2U).

    For a smooth field the returned value lower-bounds the usable alpha on
    the sampled region; a strictly positive alpha certifies that
    c t + U + r is a supersolution for every c >= -(m-1) alpha, and bounds
    the extinction time of {U < r} by r / ((m-1) alpha).
    """
    x = np.asarray(samples, dtype=float).reshape(-1, g.n)
    A = horizontal_hessian(g, U.jet(x, 0.0), x)
    return float(np.min(np.linalg.eigvalsh(A)[:, 0], initial=np.inf))
