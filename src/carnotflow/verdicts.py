"""Pointwise viscosity verdicts for smooth space-time fields.

A smooth field f is tested against the level-set flow equation
f_t + F(Xf, X2f) = 0 with the sign conventions

    subsolution:   residual <= 0,    supersolution: residual >= 0.

At points where the horizontal gradient vanishes F is not defined, and the
equation is interpreted through the semicontinuous envelopes of F: when the
horizontal Hessian also vanishes both envelopes collapse and the residual
is just f_t; otherwise the envelope residuals are necessary bounds
(f_t + F_* for the subsolution side, f_t + F^* for the supersolution side)
rather than a full two-sided test, and the verdict records that regime.

Every residual check is one check_point call (one jet, projection and
operator batch over (P, n) points) plus array reductions, and
classification_holds is the one rule for which residual a class bounds.

The module also provides the homogeneous-norm lemma checks (closed-form
horizontal derivatives of N = |x_h|^4 + |x_v|^2 and the x/y symmetry of the
derivatives of the gauge distance to the fourth power) and the admissibility
filter for the restricted class of test functions whose first and second
horizontal derivatives both vanish wherever the gradient does.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .calculus import (
    Coord,
    Const,
    Expr,
    ScalarField,
    horizontal_gradient,
    horizontal_hessian,
    operator_bounds,
    sq_norm,
)
from .barriers import gauge_profile_hgrad, gauge_profile_hhess
from .groups import GroupSpec, compose, gauge, inverse

__all__ = [
    "REGIME_REGULAR",
    "REGIME_CHAR_NULL",
    "REGIME_CHAR_ENVELOPE",
    "PointVerdict",
    "check_point",
    "classification_holds",
    "SweepReport",
    "sweep",
    "NormLemmaReport",
    "check_norm_lemma",
    "restricted_test_class_filter",
]

REGIME_REGULAR = "regular"
REGIME_CHAR_NULL = "characteristic-null-hessian"
REGIME_CHAR_ENVELOPE = "characteristic-nonnull-hessian"

DEFAULT_EPS_SING = 1e-10


@dataclass(frozen=True)
class PointVerdict:
    """Residuals of the flow equation for one field at one point or a batch.

    sub_residual passes (as a subsolution) when <= tolerance; super_residual
    passes (as a supersolution) when >= -tolerance.  In the regular regime
    the two coincide; in the characteristic-nonnull-hessian regime they are
    envelope bounds, not equivalent conditions; hgrad and hhess hold Xf and
    X2f.  For a batch, x is (P, n) and every other entry has P leading rows.
    """

    x: npt.NDArray
    t: float | npt.NDArray
    regime: str | npt.NDArray
    sub_residual: float | npt.NDArray
    super_residual: float | npt.NDArray
    hgrad: npt.NDArray
    hhess: npt.NDArray


def check_point(
    g: GroupSpec,
    f: ScalarField,
    x,
    t=0.0,
    eps_sing: float = DEFAULT_EPS_SING,
) -> PointVerdict:
    """Classify the point(s) and evaluate the one-sided residuals of f there.

    x is one point (n,) or a batch (P, n); t a number or one time per point.
    """
    x = np.asarray(x, dtype=float)
    j = f.jet(x, t)
    q, A = horizontal_gradient(g, j, x), horizontal_hessian(g, j, x)
    ops = operator_bounds(q, A, eps_sing)
    null = ~ops.regular & (ops.spectral <= eps_sing)
    regime = np.where(
        ops.regular, REGIME_REGULAR, np.where(null, REGIME_CHAR_NULL, REGIME_CHAR_ENVELOPE)
    )
    sub = j.dt + np.where(null, 0.0, ops.lower)
    sup = j.dt + np.where(null, 0.0, ops.upper)
    return PointVerdict(x, t, regime[()], sub[()], sup[()], q, A)


def classification_holds(expect: str, sub_residual, super_residual, tolerance: float):
    """Elementwise: a sub- or solution needs sub_residual <= tolerance, a
    super- or solution super_residual >= -tolerance; other classes neither."""
    sub_ok = expect not in ("subsolution", "solution") or np.asarray(sub_residual) <= tolerance
    sup_ok = expect not in ("supersolution", "solution") or np.asarray(super_residual) >= -tolerance
    return sub_ok & sup_ok


@dataclass
class SweepReport:
    """Aggregate of point verdicts against an expected classification."""

    expect: str
    tolerance: float
    n_points: int = 0
    regime_counts: dict = field(default_factory=dict)
    worst_sub: float = -np.inf
    worst_super: float = np.inf
    worst_sub_at: npt.NDArray | None = None
    worst_super_at: npt.NDArray | None = None

    def add(self, v: PointVerdict) -> None:
        """Fold in one verdict or a batch; ties keep the earliest point."""
        x, regime = np.atleast_2d(v.x), np.atleast_1d(v.regime)
        sub, sup = np.atleast_1d(v.sub_residual), np.atleast_1d(v.super_residual)
        self.n_points += len(regime)
        names, first, counts = np.unique(regime, return_index=True, return_counts=True)
        for _, name, count in sorted(zip(first.tolist(), names.tolist(), counts.tolist())):
            self.regime_counts[name] = self.regime_counts.get(name, 0) + count
        i, k = int(np.argmax(sub)), int(np.argmin(sup))
        if sub[i] > self.worst_sub:
            self.worst_sub, self.worst_sub_at = float(sub[i]), x[i]
        if sup[k] < self.worst_super:
            self.worst_super, self.worst_super_at = float(sup[k]), x[k]

    @property
    def passed(self) -> bool:
        return bool(classification_holds(self.expect, self.worst_sub, self.worst_super, self.tolerance))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} expected={self.expect} n={self.n_points} "
            f"regimes={self.regime_counts} worst_sub={self.worst_sub:.3e} "
            f"worst_super={self.worst_super:.3e} tol={self.tolerance:.1e}"
        )


def sweep(
    g: GroupSpec,
    f: ScalarField,
    x,
    expect: str,
    tolerance: float = 1e-12,
    eps_sing: float = DEFAULT_EPS_SING,
    region=None,
    t=0.0,
) -> SweepReport:
    """Run check_point over the points x, (P, n) or (n,), and summarize.

    t is a number or one time per point.  Points where the optional region
    predicate (called once on the (P, n) batch) is False are skipped
    (barriers with a region-restricted classification use this to stay on
    their own turf).  All kept points are checked as one batch.
    """
    if expect not in ("subsolution", "supersolution", "solution"):
        raise ValueError(f"expect must be a classification, got {expect!r}")
    x = np.asarray(x, dtype=float).reshape(-1, g.n)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
    if region is not None:
        keep = np.broadcast_to(region(x), t.shape)
        x, t = x[keep], t[keep]
    report = SweepReport(expect=expect, tolerance=tolerance)
    if len(x):
        report.add(check_point(g, f, x, t, eps_sing))
    return report


# -------------------------------------------------- homogeneous-norm lemma ---


def _norm_expr(g: GroupSpec):
    """N = |x_h|^4 + |x_v|^2 as an expression tree."""
    return sq_norm(range(g.m)) ** 2 + sq_norm(range(g.m, g.n))


def _quartic_distance_expr(g: GroupSpec, base: npt.NDArray, vary: str) -> Expr:
    """d^4(x, y) = N(x^-1 o y) as an expression in one argument.

    vary="x": base plays y and the expression varies the first argument;
    vary="y": base plays x and the expression varies the second.  base is
    one point (n,) or a batch (P, n); a batch gives one tree whose constants
    hold one value per point, to be evaluated at a batch of the same P.
    Writing z = x^-1 o y out in coordinates gives z_h = y_h - x_h and
    z_v,k = y_v,k - x_v,k - (B^(k) x_h) . y_h, and each component is affine
    in the varying argument.
    """
    m, nv = g.m, g.nv
    bh, bv = g.split(base)
    sign = 1.0 if vary == "y" else -1.0
    hsq = None
    for j in range(m):
        diff = (Coord(j) - Const(bh[..., j])) if vary == "y" else (Const(bh[..., j]) - Coord(j))
        hsq = diff * diff if hsq is None else hsq + diff * diff
    expr = hsq * hsq
    for k in range(nv):
        # vary="y": z_v,k = y_v,k - bv_k - (B^(k) bh) . y_h
        # vary="x": z_v,k = bv_k - x_v,k - (B^(k) x_h) . bh = bv_k - x_v,k + x_h . (B^(k) bh)
        Bbh = bh @ g.B[k].T
        inner = sign * (Coord(m + k) - Const(bv[..., k]))
        for j in range(m):
            inner = inner - sign * Const(Bbh[..., j]) * Coord(j)
        expr = expr + inner * inner
    return expr


@dataclass
class NormLemmaReport:
    """Worst-case deviations of the homogeneous-norm derivative identities."""

    n_points: int
    n_pairs: int
    worst_grad: float
    worst_hess: float
    worst_lower_bound: float  # max of 16|x_h|^6 - |XN|^2 (should be <= 0)
    worst_axis: float
    worst_pair_grad: float
    worst_pair_hess: float

    def max_deviation(self) -> float:
        return max(
            self.worst_grad,
            self.worst_hess,
            self.worst_lower_bound,
            self.worst_axis,
            self.worst_pair_grad,
            self.worst_pair_hess,
        )


def _worst(a) -> float:
    """Largest entry of |a|, 0 for an empty array."""
    return float(np.max(np.abs(a), initial=0.0))


def check_norm_lemma(
    g: GroupSpec,
    n_points: int = 400,
    n_pairs: int = 200,
    rng: np.random.Generator | None = None,
    scale: float = 2.0,
) -> NormLemmaReport:
    """Verify the closed-form horizontal derivatives of N = |x_h|^4 + |x_v|^2.

    Checks, at random points: XN and X2N against their closed forms; the
    lower bound |XN|^2 >= 16 |x_h|^6; exact vanishing of both on the axis
    x_h = 0.  At random pairs: the x/y symmetry of the quartic distance
    d^4(x, y) = N(x^-1 o y), namely |X_x d^4| = |X_y d^4| (the gradients
    themselves differ) and X2_x d^4 = X2_y d^4, which follows from XN
    being odd and X2N even under x -> -x.
    """
    rng = np.random.default_rng(rng)
    N_field = ScalarField(_norm_expr(g), g)

    # drawn in the order of one point at a time: x_i, then x_i, y_i per pair
    x = rng.uniform(-scale, scale, size=(n_points, g.n))
    j = N_field.jet(x)
    q, A = horizontal_gradient(g, j, x), horizontal_hessian(g, j, x)
    xh, xv = g.split(x)
    axis_pt = np.concatenate([np.zeros_like(xh), xv], axis=-1)
    ja = N_field.jet(axis_pt)
    qa, Aa = horizontal_gradient(g, ja, axis_pt), horizontal_hessian(g, ja, axis_pt)

    pairs = rng.uniform(-scale, scale, size=(n_pairs, 2, g.n))
    px, py = pairs[:, 0], pairs[:, 1]
    jx = ScalarField(_quartic_distance_expr(g, py, vary="x"), g).jet(px)
    jy = ScalarField(_quartic_distance_expr(g, px, vary="y"), g).jet(py)
    qx, qy = horizontal_gradient(g, jx, px), horizontal_gradient(g, jy, py)
    # cross-check the expression trees really encode N(x^-1 o y)
    ref = gauge(g, compose(g, inverse(px), py))
    pair_grad = np.abs(np.sqrt(np.sum(qx * qx, axis=-1)) - np.sqrt(np.sum(qy * qy, axis=-1)))
    return NormLemmaReport(
        n_points=n_points,
        n_pairs=n_pairs,
        worst_grad=_worst(q - gauge_profile_hgrad(g, x, weight=1.0)),
        worst_hess=_worst(A - gauge_profile_hhess(g, x, weight=1.0)),
        worst_lower_bound=float(
            np.max(16.0 * np.sum(xh * xh, axis=-1) ** 3 - np.sum(q * q, axis=-1), initial=0.0)
        ),
        worst_axis=max(_worst(qa), _worst(Aa)),
        worst_pair_grad=max(_worst(jx.value - ref), _worst(jy.value - ref), _worst(pair_grad)),
        worst_pair_hess=_worst(horizontal_hessian(g, jx, px) - horizontal_hessian(g, jy, py)),
    )


# ------------------------------------------- restricted test-function class ---


def restricted_test_class_filter(
    g: GroupSpec,
    f: ScalarField,
    x,
    t: float = 0.0,
    rho: float = 1e-2,
    eps_sing: float = DEFAULT_EPS_SING,
) -> bool:
    """Admissibility of f for the restricted comparison class near x.

    Samples the lattice x + {-rho, 0, rho}^n and requires that no sampled
    point is in the envelope regime: where |Xf| <= eps_sing, the horizontal
    Hessian vanishes too (spectral norm <= eps_sing).  For fields in this
    class the pointwise verdicts are two-sided everywhere on the lattice.
    """
    offsets = np.array([-rho, 0.0, rho])
    grids = np.meshgrid(*([offsets] * g.n), indexing="ij")
    pts = np.asarray(x, dtype=float) + np.stack([a.ravel() for a in grids], axis=-1)
    return not np.any(check_point(g, f, pts, t, eps_sing).regime == REGIME_CHAR_ENVELOPE)
