"""Explicit finite-difference evolution of u_t + F(Xu, X2u) = 0 on a box.

The scheme is forward Euler on a cell-centered grid: node i along an axis
sits at lo + (i + 1/2) h, so faces of the box fall between nodes and the
grid is symmetric about the box center.  Spatial derivatives are central
differences (four-point stencils for mixed terms), composed into horizontal
quantities through the frame columns sigma(x) = [I; B x_h], which only
requires the per-node coefficient rows b_k(x) = B^(k) x_h.

Singular nodes (|Xu| below a threshold) are where F is undefined; three
interchangeable schemes handle them:

    regularized   F with |Xu|^2 -> |Xu|^2 + delta_reg^2 in the projection,
    envelope_min  F where |Xu| > eps_sing, else -tr(X2u) + lambda_min(X2u),
    envelope_max  same with lambda_max.

The envelope pair brackets every reasonable choice at singular nodes, so
running all three measures — rather than hides — the ambiguity of the
continuum equation there.

Boundary nodes copy their nearest interior neighbor after each step.  The
time step is dt = cfl * 2 / Lambda, with Lambda the largest von Neumann
symbol of the stencil of tr(a D^2), a = sigma t(sigma), over the interior
nodes with the coefficients frozen at each node.  This is the operator
where |Xu| << delta_reg, and every projected a(I - q^ q^T) has a smaller
symbol, so for cfl in (0, 1] forward Euler amplifies no Fourier mode of the
frozen-coefficient stencil (at cfl = 1 the worst mode keeps its modulus and
flips sign): cfl is the fraction of that stability bound that a step uses.
Lambda comes from a branch-and-bound search that returns an upper bound on
the supremum, so a missed maximum cannot push dt past the stability bound.

Updates at distinct nodes are independent (one immutable input slab, one
fresh output slab), so the interior is computed in chunks of rows along
axis 0, each small enough for its temporaries to stay in cache.  Per chunk,
one derivative pass computes the central differences and the horizontal
quantities tr A, |q|^2, q^T A q and A, and a short tail per scheme turns them
into operator values, so a step that needs all three schemes differentiates
once.  Chunks run in order in the calling thread; the arithmetic per node is
fixed, so outputs are bit-identical from run to run and across processes.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from .barriers import BarrierEval, psi_s_plus_s3
from .groups import GroupSpec, sigma

__all__ = [
    "GridField",
    "InitialSpec",
    "SolverConfig",
    "init",
    "Engine",
    "RunResult",
    "run",
    "FrontCloud",
    "extract_front",
    "residual_on_exact",
    "write_snapshot_csv",
    "write_front_csv",
]

SCHEMES = ("regularized", "envelope_min", "envelope_max")
INITIAL_PRESETS = ("cylinder", "gauge_ball", "euclid_ball", "sqrt_gauge_ball")
RELABELS = {"cubic": psi_s_plus_s3.fun}

_TIME_SLOP = 1e-12


@dataclass(frozen=True)
class GridField:
    """One time slab of the discrete level-set function."""

    box: tuple[tuple[float, float], ...]
    values: npt.NDArray
    time: float = 0.0

    def __post_init__(self):
        if len(self.box) != self.values.ndim:
            raise ValueError("box and values dimensionality disagree")
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError(f"degenerate box side ({lo}, {hi})")

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> npt.NDArray:
        return _spacing(self.box, self.resolution)

    def axis_coords(self, a: int) -> npt.NDArray:
        return _cell_centers(*self.box[a], self.resolution[a])


def _spacing(box, resolution) -> npt.NDArray:
    """Cell width (hi - lo) / r along each axis."""
    return np.array([(hi - lo) / r for (lo, hi), r in zip(box, resolution)])


def _cell_centers(lo: float, hi: float, count: int) -> npt.NDArray:
    """Node coordinates lo + (i + 1/2) h along one axis, h = (hi - lo) / count."""
    h = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * h


def _require_finite(name: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class InitialSpec:
    """Named initial profile u0 = r - profile, optionally relabeled.

    Presets: cylinder (|x_h|^2), gauge_ball (|x_h|^4 + 4|x_v|^2),
    euclid_ball (|x|^2), sqrt_gauge_ball (sqrt of the gauge).  The relabel
    "cubic" applies s -> s + s^3 pointwise, which preserves the zero level
    set and its sign.
    """

    preset: str = "cylinder"
    r: float = 1.0
    relabel: str | None = None

    def __post_init__(self):
        _require_finite("initial.r", self.r)
        if self.preset not in INITIAL_PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {INITIAL_PRESETS}"
            )
        if self.relabel is not None and self.relabel not in RELABELS:
            raise ValueError(
                f"unknown relabel {self.relabel!r}; choose from {tuple(RELABELS)}"
            )


@dataclass(frozen=True)
class SolverConfig:
    group: GroupSpec
    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    initial: InitialSpec = field(default_factory=InitialSpec)
    scheme: str = "regularized"
    delta_reg: float | None = None  # default: 1e-6 * box diameter
    eps_sing: float | None = None  # default: h_min^2
    cfl: float = 0.25
    t_end: float = 0.5
    snapshot_every: float = 0.0  # 0: only initial and final slabs

    def __post_init__(self):
        n = self.group.n
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        try:
            res = tuple(operator.index(r) for r in self.resolution)
        except TypeError:
            raise ValueError(
                f"resolution must be a sequence of integers, got {self.resolution!r}"
            ) from None
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)
        if len(box) != n or len(res) != n:
            raise ValueError(f"box and resolution must have {n} axes")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"box side ({lo}, {hi}) must be finite")
            if not hi > lo:
                raise ValueError(f"degenerate box side ({lo}, {hi})")
        for r in res:
            if r < 4:
                raise ValueError(
                    f"resolution needs at least 4 cells per axis for the stencils, got {r}"
                )
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        for name in ("t_end", "snapshot_every", "delta_reg", "eps_sing"):
            _require_finite(name, getattr(self, name))
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.snapshot_every < 0.0:
            raise ValueError("snapshot_every must be nonnegative")
        if self.delta_reg is not None and self.delta_reg <= 0.0:
            raise ValueError("delta_reg must be positive")
        if self.eps_sing is not None and self.eps_sing <= 0.0:
            raise ValueError("eps_sing must be positive")

    @property
    def spacing(self) -> npt.NDArray:
        return _spacing(self.box, self.resolution)

    @property
    def delta_reg_effective(self) -> float:
        if self.delta_reg is not None:
            return self.delta_reg
        diam = float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.box)))
        return 1e-6 * diam

    @property
    def eps_sing_effective(self) -> float:
        if self.eps_sing is not None:
            return self.eps_sing
        return float(np.min(self.spacing)) ** 2


def _axis_coords(config: SolverConfig) -> list[npt.NDArray]:
    return [
        _cell_centers(lo, hi, r) for (lo, hi), r in zip(config.box, config.resolution)
    ]


def _sample_initial(config: SolverConfig) -> npt.NDArray:
    g = config.group
    coords = np.meshgrid(*_axis_coords(config), indexing="ij", sparse=True)
    rh2 = sum(coords[i] ** 2 for i in range(g.m))
    preset = config.initial.preset
    if preset == "cylinder":
        vals = config.initial.r - rh2
    elif preset == "euclid_ball":
        vals = config.initial.r - rh2 - sum(coords[i] ** 2 for i in range(g.m, g.n))
    else:
        gauge = rh2 ** 2 + 4.0 * sum(coords[i] ** 2 for i in range(g.m, g.n))
        if preset == "gauge_ball":
            vals = config.initial.r - gauge
        else:  # sqrt_gauge_ball
            vals = config.initial.r - np.sqrt(gauge)
    vals = np.ascontiguousarray(np.broadcast_to(vals, config.resolution)).astype(float)
    if config.initial.relabel is not None:
        vals = RELABELS[config.initial.relabel](vals)
    return vals


def init(config: SolverConfig) -> GridField:
    """Sample the configured initial condition at t = 0.

    Raises:
        ValueError: if the nonnegative set {u0 >= 0} touches a boundary
            face along an axis the field actually varies in (faces along
            invariant axes — e.g. the vertical faces for the cylinder — are
            exempt, since the nearest-neighbor boundary rule is exact
            there).
    """
    vals = _sample_initial(config)
    for a in range(vals.ndim):
        lo_face = vals[tuple(0 if ax == a else slice(None) for ax in range(vals.ndim))]
        hi_face = vals[tuple(-1 if ax == a else slice(None) for ax in range(vals.ndim))]
        varies = bool(np.any(np.diff(vals, axis=a) != 0.0))
        if varies and (np.any(lo_face >= 0.0) or np.any(hi_face >= 0.0)):
            raise ValueError(
                f"initial front touches the boundary along axis {a}; "
                "enlarge the box or shrink r"
            )
    return GridField(config.box, vals, 0.0)


# ----------------------------------------------------------------- engine ---

# Cells of the first grid over the vertical angles, per node, and the most
# cells the symbol search splits at once
_SYMBOL_SAMPLES = 1024
_SYMBOL_CELLS = 1 << 18


def _symbol_sup(rows: npt.NDArray, h: npt.NDArray, rtol: float = 1e-9) -> float:
    """Upper bound on the supremum over theta and over the nodes of the symbol
    of the stencil of -tr(a D^2), within rtol of it.

    rows has shape (P, nv, m), with rows[p, k] = B^(k) x_h at node p, so that
    a = sigma t(sigma) with sigma = [I; rows[p]].  Central second differences
    and four-point mixed terms multiply the mode exp(i theta . index) by
    -P(theta), where

        P(theta) = sum_a a_aa 2 (1 - cos theta_a) / h_a^2
                   + sum_(a != c) a_ac sin theta_a sin theta_c / (h_a h_c)
                 = sum_a a_aa (1 - cos theta_a)^2 / h_a^2 + |t(sigma) (sin theta / h)|^2.

    A horizontal angle theta_j enters only through (1 - cos theta_j)^2 / h_j^2
    + (sin theta_j / h_j + beta_j)^2, with beta = sum_k rows[k] sin phi_k /
    h_(m+k) set by the vertical angles phi, and its maximum over theta_j is
    g(beta_j) = (1 + s_j)^2 / h_j^2, s_j = sqrt(1 + h_j^2 beta_j^2).  What
    remains, f(phi), is maximized by branch and bound over cells of
    [-pi, pi]^nv.  On a cell of half-width w about c,

        f <= f(c) + w |grad f(c)|_1 + M w^2 / 2,
        M = 9/4 sum_k a_(m+k, m+k) / h_(m+k)^2
            + 8 sum_j (sum_k |rows[k, j]| / h_(m+k))^2,

    since 0 < g'' = 2 + 2 / s^3 <= 4, |g'| <= 4 |beta| and the second
    derivative of (1 - cos phi)^2 is at most 9/4.  A cell whose bound is
    within rtol of the best value found is settled and keeps its bound, the
    others are halved along every axis, until no cell is left or the next
    split would exceed _SYMBOL_CELLS cells.  The largest bound kept is
    returned, so it never falls below the supremum; at the cell budget it
    can lie well above it.
    """
    count, nv, m = rows.shape
    hh, hv = h[:m], h[m:]
    coef = rows / hv[:, None]  # beta_j = sum_k coef[k, j] sin phi_k
    vertical = np.sum(rows * rows, axis=2) / hv ** 2  # a_(m+k, m+k) / h_(m+k)^2
    reach = np.sum(np.abs(coef), axis=1)  # bounds |beta_j|
    curvature = 2.25 * np.sum(vertical, axis=1) + 8.0 * np.sum(reach ** 2, axis=1)
    side = max(2, round(_SYMBOL_SAMPLES ** (1.0 / nv)))
    half = np.pi / side
    axis = -np.pi + half * (2 * np.arange(side) + 1)
    cells = np.stack(np.meshgrid(*[axis] * nv, indexing="ij"), axis=-1).reshape(-1, nv)
    node = np.repeat(np.arange(count), len(cells))
    phi = np.tile(cells, (count, 1))
    signs = np.array(list(itertools.product((-0.5, 0.5), repeat=nv)))
    best = bound = -np.inf
    while True:
        sin, cos = np.sin(phi), np.cos(phi)
        beta = sum(sin[:, k, None] * coef[node, k] for k in range(nv))
        root = np.sqrt(1.0 + (hh * beta) ** 2)
        value = np.sum(vertical[node] * (1.0 - cos) ** 2, axis=1) + np.sum(
            (1.0 + root) ** 2 / hh ** 2, axis=1
        )
        dg = 2.0 * beta * (1.0 + 1.0 / root)  # g'(beta)
        slope = 2.0 * vertical[node] * (1.0 - cos) * sin + cos * np.stack(
            [np.sum(coef[node, k] * dg, axis=1) for k in range(nv)], axis=1
        )
        upper = value + half * np.sum(np.abs(slope), axis=1) + 0.5 * curvature[node] * half ** 2
        best = max(best, float(np.max(value)))
        live = upper > best * (1.0 + rtol)
        bound = max(bound, best, float(np.max(upper[~live], initial=-np.inf)))
        if not np.any(live):
            return bound
        if np.count_nonzero(live) * len(signs) > _SYMBOL_CELLS:
            return max(bound, float(np.max(upper)))
        node = np.repeat(node[live], len(signs))
        phi = (phi[live][:, None, :] + half * signs).reshape(-1, nv)
        half /= 2.0


# Interior nodes per row chunk of the operator pass, from a sweep over chunk
# sizes at 32^3 and 64^3 (BENCH_3.json): in three dimensions a chunk's twenty
# or so live derivative temporaries then take about a 2 MB L2 cache.  Larger
# chunks spill out of it; smaller ones pay numpy's per-call overhead more
# often.
_CHUNK_NODES = 16384


class Engine:
    """Precomputed stencil data for one (group, grid, scheme) combination.

    Reusable across steps and holds no resources; `run` builds one
    internally.  `close` is a no-op that remains only for the benchmark's
    callers in perfbench/.
    """

    def __init__(self, config: SolverConfig):
        self.config = config
        g = config.group
        self.m, self.n = g.m, g.n
        self.h = config.spacing
        self.delta2 = config.delta_reg_effective ** 2
        self.eps2 = config.eps_sing_effective ** 2

        axes = _axis_coords(config)
        coords = np.meshgrid(*axes, indexing="ij", sparse=True)
        # b[k][j] = (B^(k) x_h)_j on the horizontal sub-grid: shape
        # (r_0, ..., r_(m-1), 1, ..., 1), broadcast against the vertical axes
        self.b = [
            [sum(g.B[k, j, i] * coords[i] for i in range(g.m)) for j in range(g.m)]
            for k in range(g.nv)
        ]

        # For fixed theta the symbol is a sum of squares of functions affine
        # in x_h, so its supremum is convex in x_h and peaks at a corner of
        # the interior horizontal sub-grid.
        corners = np.zeros((2 ** g.m, g.n))
        corners[:, : g.m] = list(itertools.product(*[(c[1], c[-2]) for c in axes[: g.m]]))
        self.symbol_bound = _symbol_sup(sigma(g, corners)[:, g.m :], self.h)
        self.dt = config.cfl * 2.0 / self.symbol_bound

        # interior rows 1..rows of axis 0 in near-equal chunks of at most
        # _CHUNK_NODES interior nodes each (one row if a row is larger)
        rows = config.resolution[0] - 2
        row_nodes = int(np.prod([r - 2 for r in config.resolution[1:]]))
        nchunks = -(-rows // max(1, _CHUNK_NODES // row_nodes))
        bounds = np.linspace(1, rows + 1, nchunks + 1).astype(int)
        self.chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        self._stages: dict = {}

    def close(self) -> None:
        pass

    # -- spatial operator ---------------------------------------------------

    def _stage(self, r0: int, r1: int):
        """Index tuples and frame coefficients of the derivative pass at rows
        r0..r1-1, built on the first pass over that row range.

        idx[()] selects the interior of the block u[r0-1 : r1+1], idx[a, s]
        shifts it by s along axis a and idx[a, s, c, t] by s along a and t
        along c.  bb[k][j] holds b_k[j] and bbbb[k, j, k2, l] the product
        bb[k][j] * bb[k2][l] (j <= l) on those rows, in the horizontal-only
        shape of self.b.
        """
        stage = self._stages.get((r0, r1))
        if stage is None:
            n, m, nv = self.n, self.m, self.n - self.m
            lens = (r1 - r0 + 2,) + self.config.resolution[1:]

            def index(shifts: dict) -> tuple:
                return tuple(
                    slice(1 + shifts.get(a, 0), lens[a] - 1 + shifts.get(a, 0)) for a in range(n)
                )

            idx = {(): index({})}
            for a in range(n):
                for s in (1, -1):
                    idx[a, s] = index({a: s})
                    for c in range(a + 1, n):
                        for t in (1, -1):
                            idx[a, s, c, t] = index({a: s, c: t})
            rows = (slice(r0, r1),) + (slice(1, -1),) * (m - 1)
            bb = [[self.b[k][j][rows] for j in range(m)] for k in range(nv)]
            bbbb = {
                (k, j, k2, l): bb[k][j] * bb[k2][l]
                for j in range(m)
                for l in range(j, m)
                for k in range(nv)
                for k2 in range(nv)
            }
            stage = self._stages[r0, r1] = (idx, bb, bbbb)
        return stage

    def _derivatives(self, u: npt.NDArray, r0: int, r1: int):
        """trA, |q|^2, q^T A q and A[j, l] at global rows r0..r1-1 (q = Xu, A = X2u)."""
        n, m = self.n, self.m
        idx, bb, bbbb = self._stage(r0, r1)
        ub = u[r0 - 1 : r1 + 1]
        h = self.h

        center = ub[idx[()]]
        d1 = [(ub[idx[a, 1]] - ub[idx[a, -1]]) / (2.0 * h[a]) for a in range(n)]
        d2 = {}
        for a in range(n):
            d2[a, a] = (ub[idx[a, 1]] - 2.0 * center + ub[idx[a, -1]]) / h[a] ** 2
            for c in range(a + 1, n):
                d2[a, c] = d2[c, a] = (
                    ub[idx[a, 1, c, 1]]
                    - ub[idx[a, 1, c, -1]]
                    - ub[idx[a, -1, c, 1]]
                    + ub[idx[a, -1, c, -1]]
                ) / (4.0 * h[a] * h[c])

        nv = self.n - m
        q = [
            d1[j] + sum(bb[k][j] * d1[m + k] for k in range(nv)) for j in range(m)
        ]
        A = {}
        for j in range(m):
            for l in range(j, m):
                entry = d2[j, l]
                for k in range(nv):
                    entry = entry + bb[k][l] * d2[j, m + k] + bb[k][j] * d2[l, m + k]
                for k in range(nv):
                    for k2 in range(nv):
                        entry = entry + bbbb[k, j, k2, l] * d2[m + k, m + k2]
                A[j, l] = A[l, j] = entry

        trA = sum(A[j, j] for j in range(m))
        qq = sum(qj ** 2 for qj in q)
        qAq = sum(q[j] * A[j, l] * q[l] for j in range(m) for l in range(m))
        return trA, qq, qAq, A

    def _envelope_stage(self, trA, qq, qAq, A):
        """Envelope F off the singular nodes, their indices, and eigvalsh(X2u) there (or None)."""
        mask = qq > self.eps2
        sing = np.nonzero(~mask)
        eig = None
        if sing[0].size:
            Amat = np.empty((sing[0].size, self.m, self.m))
            for j, l in A:
                Amat[:, j, l] = A[j, l][sing]
            eig = np.linalg.eigvalsh(Amat)
        return -trA + qAq / np.where(mask, qq, 1.0), sing, eig

    def operators(
        self, u: npt.NDArray, schemes: Sequence[str], gap: bool = False
    ) -> list[npt.NDArray]:
        """Op(u) on the interior for each scheme, from one derivative pass per chunk.

        With gap, one more array follows from the same derivative pass: F -
        F_delta = delta^2 q^T A q / (|q|^2 (|q|^2 + delta^2)), by which the
        regularized operator falls short of its delta -> 0 limit F(q, A) (0
        where q = 0).
        """
        for scheme in schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        outs = [np.empty(tuple(r - 2 for r in u.shape)) for _ in range(len(schemes) + gap)]
        envelopes = any(scheme != "regularized" for scheme in schemes)
        for r0, r1 in self.chunks:
            trA, qq, qAq, A = self._derivatives(u, r0, r1)
            if gap:
                block = outs[-1][r0 - 1 : r1 - 1]
                block[...] = 0.0
                np.divide(self.delta2 * qAq, qq * (qq + self.delta2), out=block, where=qq > 0.0)
            if envelopes:
                env, sing, eig = self._envelope_stage(trA, qq, qAq, A)
            for out, scheme in zip(outs, schemes):
                block = out[r0 - 1 : r1 - 1]
                if scheme == "regularized":
                    block[...] = -trA + qAq / (qq + self.delta2)
                    continue
                block[...] = env
                if eig is not None:
                    lam = eig[:, 0] if scheme == "envelope_min" else eig[:, -1]
                    block[sing] = -trA[sing] + lam
        return outs

    def operator(self, u: npt.NDArray, scheme: str | None = None) -> npt.NDArray:
        """Spatial operator Op(u) on the interior (shape resolution - 2)."""
        scheme = self.config.scheme if scheme is None else scheme
        return self.operators(u, (scheme,))[0]

    def advance(
        self, u: npt.NDArray, dt: float, scheme: str | None = None
    ) -> npt.NDArray:
        """One forward-Euler update with nearest-interior boundary fill."""
        return self._euler(u, dt, self.operator(u, scheme))

    def _euler(self, u: npt.NDArray, dt: float, op: npt.NDArray) -> npt.NDArray:
        """u - dt * op on the interior; boundary nodes copy their neighbor."""
        n = u.ndim
        inner = (slice(1, -1),) * n
        new = np.empty_like(u)
        new[inner] = u[inner] - dt * op
        for a in range(n):
            idx_lo = [slice(None)] * n
            idx_hi = [slice(None)] * n
            idx_lo[a], idx_hi[a] = 0, 1
            new[tuple(idx_lo)] = new[tuple(idx_hi)]
            idx_lo[a], idx_hi[a] = -1, -2
            new[tuple(idx_lo)] = new[tuple(idx_hi)]
        return new


# -------------------------------------------------------------- evolution ---


@dataclass
class RunResult:
    snapshots: list[GridField]
    extinction_time: float | None
    dt: float
    n_steps: int
    sandwich_max_violation: float | None = None
    regularization_gap: float | None = None


def _has_positive_interior(values: npt.NDArray) -> bool:
    inner = (slice(1, -1),) * values.ndim
    return bool(np.max(values[inner]) > 0.0)


def run(
    config: SolverConfig,
    record_sandwich: bool = False,
    on_snapshot: Callable[[GridField], None] | None = None,
) -> RunResult:
    """Evolve to t_end or extinction, collecting snapshots at the cadence.

    The initial slab is always the first snapshot, the final slab (at
    t_end, or at the extinction step) the last.  With record_sandwich, the
    envelope_min / envelope_max updates are computed from the same slab as
    every regularized update, and two numbers are recorded.  The
    regularized operator falls short of its delta -> 0 limit F by the known
    gap delta^2 q^T A q / (|q|^2 (|q|^2 + delta^2)), so its update differs
    from the limit's by dt times that; regularization_gap is the worst
    |difference|.  sandwich_max_violation is the worst node-wise amount by
    which the regularized update, with that difference taken out, leaves the
    envelope bracket (max-update <= update <= min-update: the larger
    operator value shrinks u faster).  F lies in the bracket, so this is
    rounding at any delta unless the schemes are out of order, or q = 0
    exactly where X2u is definite.

    Raises:
        RuntimeError: if values become nonfinite (CFL violated or data
            outside the scheme's stability envelope).
    """
    if record_sandwich and config.scheme != "regularized":
        raise ValueError("sandwich recording reads the regularized trajectory")
    snapshots: list[GridField] = []

    def emit(snap: GridField) -> None:
        snapshots.append(snap)
        if on_snapshot is not None:
            on_snapshot(snap)

    grid = init(config)
    emit(grid)
    extinct: float | None = None
    violation = gap = 0.0
    steps = 0
    inner = (slice(1, -1),) * len(config.resolution)

    if not _has_positive_interior(grid.values):
        sandwich = (violation, gap) if record_sandwich else (None, None)
        return RunResult(snapshots, 0.0, 0.0, 0, *sandwich)

    eng = Engine(config)
    t = 0.0
    u = grid.values
    se = config.snapshot_every
    next_snap = se if se > 0 else np.inf
    while t < config.t_end - _TIME_SLOP * max(1.0, config.t_end):
        dt = min(eng.dt, config.t_end - t)
        if record_sandwich:
            op_reg, op_min, op_max, op_gap = eng.operators(u, SCHEMES, gap=True)
            new = eng._euler(u, dt, op_reg)
            base = u[inner]
            shift = dt * op_gap
            limit = new[inner] - shift  # the update with delta -> 0
            hi = base - dt * op_min  # smallest operator -> largest update
            lo = base - dt * op_max
            violation = max(
                violation,
                float(np.max(lo - limit, initial=0.0)),
                float(np.max(limit - hi, initial=0.0)),
            )
            gap = max(gap, float(np.max(np.abs(shift), initial=0.0)))
            u = new
        else:
            u = eng.advance(u, dt)
        t += dt
        steps += 1
        if not np.all(np.isfinite(u)):
            raise RuntimeError(
                f"nonfinite values after step {steps} (t={t:.6g}); "
                "reduce cfl or check the initial data"
            )
        if se > 0 and next_snap <= t + _TIME_SLOP:
            next_snap += se
            if next_snap <= t + _TIME_SLOP:  # cadence below dt: skip the passed marks at once
                next_snap += se * np.floor((t + _TIME_SLOP - next_snap) / se + 1.0)
            emit(GridField(config.box, u.copy(), t))
        if not _has_positive_interior(u):
            extinct = t
            break
    if snapshots[-1].time < t:  # the final slab, unless the cadence just emitted it
        emit(GridField(config.box, u.copy(), t))

    sandwich = (violation, gap) if record_sandwich else (None, None)
    return RunResult(snapshots, extinct, eng.dt, steps, *sandwich)


# --------------------------------------------------------- front geometry ---


@dataclass(frozen=True)
class FrontCloud:
    """Points of the zero level set, linearly interpolated along grid edges."""

    time: float
    points: npt.NDArray  # (k, n)


def extract_front(grid: GridField, level: float = 0.0) -> FrontCloud:
    """Edge-interpolated zero level set of values - level."""
    v = grid.values - level
    n = v.ndim
    coords = [grid.axis_coords(a) for a in range(n)]
    h = grid.spacing
    pieces = []

    exact = np.nonzero(v == 0.0)
    if exact[0].size:
        pieces.append(
            np.stack([coords[a][exact[a]] for a in range(n)], axis=-1)
        )

    for a in range(n):
        lo = v[tuple(slice(0, -1) if ax == a else slice(None) for ax in range(n))]
        hi = v[tuple(slice(1, None) if ax == a else slice(None) for ax in range(n))]
        crossing = np.nonzero(lo * hi < 0.0)
        if not crossing[0].size:
            continue
        lo_vals = lo[crossing]
        theta = lo_vals / (lo_vals - hi[crossing])
        cols = []
        for ax in range(n):
            base = coords[ax][crossing[ax]]
            if ax == a:
                base = base + theta * h[a]
            cols.append(base)
        pieces.append(np.stack(cols, axis=-1))

    if pieces:
        points = np.concatenate(pieces, axis=0)
    else:
        points = np.empty((0, n))
    return FrontCloud(grid.time, points)


# ------------------------------------------------ exact-solution residual ---


def residual_on_exact(
    barrier: BarrierEval,
    config: SolverConfig,
    times: Sequence[float] = (0.0,),
    exclude_horizontal_radius: float = 0.3,
) -> float:
    """Max |u_t + Op_numeric(u)| for the exact-solution cylinder barrier.

    The exact field is sampled on the grid (including boundary nodes, so
    stencils see exact data), the numeric spatial operator of the
    configured scheme is applied, and the exact time derivative c is added.
    Nodes with |x_h| <= exclude_horizontal_radius are excluded: the
    operator is singular on the axis and the regularization error blows up
    as 1/|x_h|^2 towards it, so consistency is only claimed on the
    complement.
    """
    spec = barrier.spec
    if spec.kind != "cylinder" or barrier.classification != "solution":
        raise ValueError(
            "residual_on_exact needs the exact-solution cylinder "
            "(kind='cylinder' with c = -2(m-1))"
        )
    g = config.group
    coords = np.meshgrid(*_axis_coords(config), indexing="ij", sparse=True)
    rh2 = np.ascontiguousarray(
        np.broadcast_to(sum(coords[i] ** 2 for i in range(g.m)), config.resolution)
    )
    inner = (slice(1, -1),) * len(config.resolution)
    mask = rh2[inner] > exclude_horizontal_radius ** 2
    if not np.any(mask):
        raise ValueError("exclusion radius removes every interior node")
    worst = 0.0
    eng = Engine(config)
    for t in times:
        u = spec.c * t - rh2 + spec.r
        op = eng.operator(u)
        worst = max(worst, float(np.max(np.abs(spec.c + op)[mask])))
    return worst


# ------------------------------------------------------------- CSV output ---


def write_snapshot_csv(grid: GridField, path) -> None:
    """Rows t,x1,...,xn,u in row-major node order, 17 significant digits.

    The bytes are those of np.savetxt with fmt="%.17g" over the stacked
    columns.  t and each axis's coordinates are formatted once; per axis-0
    slab, one format string holding those prefixes formats the u values.
    Formatted floats hold no '%', so the prefixes pass through unchanged.
    """
    values = grid.values
    n = values.ndim
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",u"
    t = "%.17g," % grid.time
    axes = [["%.17g," % x for x in grid.axis_coords(a).tolist()] for a in range(n)]
    tails = ["".join(p) + "%.17g\n" for p in itertools.product(*axes[1:])]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for x0, slab in zip(axes[0], values):
            fh.write("".join([t + x0 + tail for tail in tails]) % tuple(slab.ravel().tolist()))


def write_front_csv(cloud: FrontCloud, path) -> None:
    """Rows t,x1,...,xn for each front point, 17 significant digits."""
    n = cloud.points.shape[1] if cloud.points.size else cloud.points.shape[-1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n))
    data = np.concatenate(
        [np.full((cloud.points.shape[0], 1), cloud.time), cloud.points], axis=1
    )
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
