"""Step-two Carnot group algebra.

A step-two Carnot group is R^n = R^m x R^(n-m) equipped with the product

    x o y = (x_h + y_h,  x_v + y_v + <B x_h, y_h>),

where the bracket has components <B x_h, y_h>_k = (B^(k) x_h) . y_h for a
family of skew-symmetric, linearly independent m x m matrices B^(1..n-m).
The horizontal frame is encoded by the n x m matrix

    sigma(x) = [ I_m ; t(B x_h) ],

whose k-th bottom row is t(B^(k) x_h).  Dilations delta_lam(x_h, x_v) =
(lam x_h, lam^2 x_v) are group automorphisms, and the quartic gauge
N(x) = |x_h|^4 + |x_v|^2 induces the homogeneous norm and the
left-invariant gauge distance.

Points are float arrays whose trailing axis has length n; a single point is
shape (n,), a batch of P points shape (P, n), and every operation below
acts on each point of a batch.  The (m, n-m) split lives on the
:class:`GroupSpec`.  Everything here is immutable and pure, so all
operations are safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

__all__ = [
    "GroupSpec",
    "validate_spec",
    "heisenberg",
    "m3n5",
    "is_heisenberg_like",
    "require_heisenberg_like",
    "compose",
    "inverse",
    "dilate",
    "sigma",
    "bracket",
    "gauge",
    "homogeneous_norm",
    "gauge_distance",
]

SKEW_TOL = 1e-12
INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class GroupSpec:
    """A validated step-two Carnot group.

    Attributes:
        m: horizontal dimension (>= 2).
        n: total dimension (> m).
        B: stacked bracket matrices, shape (n - m, m, m), each skew-symmetric.

    Instances are immutable; build them through :func:`validate_spec`.
    """

    m: int
    n: int
    B: npt.NDArray[np.float64] = field(repr=False)

    @property
    def nv(self) -> int:
        """Number of vertical coordinates, n - m."""
        return self.n - self.m

    def split(self, x: npt.NDArray) -> tuple[npt.NDArray, npt.NDArray]:
        """Split points (..., n) into horizontal (..., m) and vertical (..., n-m) parts."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(f"point has shape {x.shape}, expected (..., {self.n})")
        return x[..., : self.m], x[..., self.m:]

    def __repr__(self) -> str:  # B omitted: matrices are noisy in test output
        return f"GroupSpec(m={self.m}, n={self.n})"


def validate_spec(m: int, n: int, B_list) -> GroupSpec:
    """Validate dimensions and bracket matrices and build a GroupSpec.

    Args:
        m: horizontal dimension, at least 2.
        n: total dimension, strictly greater than m.
        B_list: iterable of n - m matrices of shape (m, m); each must be
            skew-symmetric to within 1e-12 and the family must be linearly
            independent when flattened to vectors of length m^2.

    Returns:
        A frozen :class:`GroupSpec`.

    Raises:
        ValueError: on wrong dimensions, NaN or infinite entries, non-skew
            matrices, or a linearly dependent family.
    """
    if m < 2:
        raise ValueError(f"horizontal dimension m must be >= 2, got {m}")
    if n <= m:
        raise ValueError(f"total dimension n must exceed m, got n={n}, m={m}")
    B = np.array([np.asarray(Bk, dtype=float) for Bk in B_list])
    if B.shape != (n - m, m, m):
        raise ValueError(
            f"expected {n - m} matrices of shape ({m},{m}), got array shape {B.shape}"
        )
    if not np.all(np.isfinite(B)):
        raise ValueError("bracket matrices B must have finite entries (NaN or inf found)")
    skew_defect = np.abs(B + np.transpose(B, (0, 2, 1))).max()
    if skew_defect > SKEW_TOL:
        raise ValueError(
            f"bracket matrices must be skew-symmetric; defect {skew_defect:.3e}"
        )
    # Linear independence of the flattened family: normalize each matrix and
    # require the smallest eigenvalue of the Gram matrix to stay positive.
    flat = B.reshape(n - m, m * m)
    norms = np.linalg.norm(flat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("bracket matrices must be nonzero")
    gram = (flat / norms[:, None]) @ (flat / norms[:, None]).T
    lam_min = np.linalg.eigvalsh(gram)[0]
    if lam_min <= INDEPENDENCE_TOL:
        raise ValueError(
            f"bracket matrices are linearly dependent (Gram min eigenvalue {lam_min:.3e})"
        )
    B.setflags(write=False)
    return GroupSpec(m=m, n=n, B=B)


def heisenberg() -> GroupSpec:
    """The first Heisenberg group: m=2, n=3, B = [[0,1],[-1,0]]."""
    return validate_spec(2, 3, [[[0.0, 1.0], [-1.0, 0.0]]])


def m3n5() -> GroupSpec:
    """A step-two group beyond the Heisenberg family: m=3, n=5, two brackets."""
    return validate_spec(
        3, 5, [[[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]]]
    )


def is_heisenberg_like(g: GroupSpec) -> bool:
    """True when n = m+1 and the single B is orthogonal as well as skew.

    Such groups satisfy B^2 = -I, |B x_h| = |x_h| and B x_h . x_h = 0,
    which is exactly what the closed-form barrier computations use.
    """
    if g.nv != 1:
        return False
    B = g.B[0]
    return bool(np.abs(B @ B.T - np.eye(g.m)).max() <= SKEW_TOL * 10)


def require_heisenberg_like(g: GroupSpec) -> GroupSpec:
    """Return g unchanged, or raise if it is not Heisenberg-like."""
    if not is_heisenberg_like(g):
        raise ValueError(
            "group must have n = m+1 with a single orthogonal skew matrix B"
        )
    return g


def bracket(g: GroupSpec, xh: npt.NDArray, yh: npt.NDArray) -> npt.NDArray:
    """Vertical bracket <B x_h, y_h>, component k = (B^(k) x_h) . y_h."""
    return np.einsum("kij,...j,...i->...k", g.B, xh, yh)


def compose(g: GroupSpec, x: npt.NDArray, y: npt.NDArray) -> npt.NDArray:
    """Group product x o y.

    Args:
        g: ambient group.
        x, y: points of shape (..., n); leading axes broadcast.

    Returns:
        The product (x_h + y_h, x_v + y_v + <B x_h, y_h>).
    """
    xh, xv = g.split(x)
    yh, yv = g.split(y)
    return np.concatenate([xh + yh, xv + yv + bracket(g, xh, yh)], axis=-1)


def inverse(x: npt.NDArray) -> npt.NDArray:
    """Group inverse; in these coordinates simply -x."""
    return -np.asarray(x, dtype=float)


def dilate(g: GroupSpec, lam, x: npt.NDArray) -> npt.NDArray:
    """Dilation delta_lam(x) = (lam x_h, lam^2 x_v); lam > 0, a number or one per point."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError(f"dilation factor must be positive, got {lam}")
    xh, xv = g.split(x)
    lam = lam[..., None]
    return np.concatenate([lam * xh, lam * lam * xv], axis=-1)


def sigma(g: GroupSpec, x: npt.NDArray) -> npt.NDArray:
    """Horizontal frame matrix sigma(x), shape (..., n, m).

    The top block is I_m; row m+k is t(B^(k) x_h).  Its columns are the
    generating vector fields evaluated at x.
    """
    xh, _ = g.split(x)
    out = np.zeros(xh.shape[:-1] + (g.n, g.m))
    out[..., : g.m, :] = np.eye(g.m)
    out[..., g.m:, :] = np.einsum("kij,...j->...ki", g.B, xh)
    return out


def gauge(g: GroupSpec, x: npt.NDArray):
    """Quartic gauge N(x) = |x_h|^4 + |x_v|^2, one value per point."""
    xh, xv = g.split(x)
    return np.sum(xh * xh, axis=-1) ** 2 + np.sum(xv * xv, axis=-1)


def homogeneous_norm(g: GroupSpec, x: npt.NDArray):
    """Homogeneous norm ||x|| = N(x)^(1/4); degree-1 under dilations."""
    return gauge(g, x) ** 0.25


def gauge_distance(g: GroupSpec, x: npt.NDArray, y: npt.NDArray):
    """Left-invariant gauge distance d(x, y) = ||x^{-1} o y||.

    Symmetric although the group is non-commutative: y^{-1} o x is
    -(x^{-1} o y) and the gauge is even.
    """
    return homogeneous_norm(g, compose(g, inverse(x), y))
