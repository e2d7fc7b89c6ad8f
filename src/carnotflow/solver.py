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
time step is cfl * h_min^2 / (2 m S^2), where S^2 bounds the largest
eigenvalue of t(sigma) sigma over the grid; crude, but stability is what is
wanted at these grid sizes.

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

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from .barriers import BarrierEval, psi_s_plus_s3
from .groups import GroupSpec

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

        coords = np.meshgrid(*_axis_coords(config), indexing="ij", sparse=True)
        # b[k][j] = (B^(k) x_h)_j, broadcast (stride-0) to the full grid shape
        self.b = [
            [
                np.broadcast_to(
                    sum(g.B[k, j, i] * coords[i] for i in range(g.m)),
                    config.resolution,
                )
                for j in range(g.m)
            ]
            for k in range(g.nv)
        ]

        # S^2 = max over nodes of lambda_max(t(sigma) sigma) = 1 + lambda_max(C C^t),
        # C the (n-m) x m block with rows b_k.
        nv = g.nv
        if nv == 1:
            gram_max = float(np.max(sum(bj ** 2 for bj in self.b[0])))
        else:
            gram = np.empty(config.resolution + (nv, nv))
            for k in range(nv):
                for l in range(k, nv):
                    entry = sum(self.b[k][j] * self.b[l][j] for j in range(g.m))
                    gram[..., k, l] = entry
                    gram[..., l, k] = entry
            eig = np.linalg.eigvalsh(gram.reshape(-1, nv, nv))
            gram_max = float(np.max(eig[:, -1]))
        self.S2 = 1.0 + gram_max
        self.dt = config.cfl * float(np.min(self.h)) ** 2 / (2.0 * g.m * self.S2)

        # interior rows 1..rows of axis 0 in near-equal chunks of at most
        # _CHUNK_NODES interior nodes each (one row if a row is larger)
        rows = config.resolution[0] - 2
        row_nodes = int(np.prod([r - 2 for r in config.resolution[1:]]))
        nchunks = -(-rows // max(1, _CHUNK_NODES // row_nodes))
        bounds = np.linspace(1, rows + 1, nchunks + 1).astype(int)
        self.chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def close(self) -> None:
        pass

    # -- spatial operator ---------------------------------------------------

    def _derivatives(self, u: npt.NDArray, r0: int, r1: int):
        """trA, |q|^2, q^T A q and A[j, l] at global rows r0..r1-1 (q = Xu, A = X2u)."""
        n, m = self.n, self.m
        sl0 = slice(r0 - 1, r1 + 1)
        ub = u[sl0]
        h = self.h
        inner = (slice(1, -1),) * n

        def shifted(shifts: dict) -> npt.NDArray:
            index = tuple(
                slice(1 + shifts.get(a, 0), ub.shape[a] - 1 + shifts.get(a, 0))
                for a in range(n)
            )
            return ub[index]

        center = ub[inner]
        d1 = [
            (shifted({a: 1}) - shifted({a: -1})) / (2.0 * h[a]) for a in range(n)
        ]
        d2 = {}
        for a in range(n):
            d2[a, a] = (shifted({a: 1}) - 2.0 * center + shifted({a: -1})) / h[a] ** 2
            for c in range(a + 1, n):
                d2[a, c] = d2[c, a] = (
                    shifted({a: 1, c: 1})
                    - shifted({a: 1, c: -1})
                    - shifted({a: -1, c: 1})
                    + shifted({a: -1, c: -1})
                ) / (4.0 * h[a] * h[c])

        bb = [[self.b[k][j][sl0][inner] for j in range(m)] for k in range(self.n - m)]
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
                        entry = entry + bb[k][j] * bb[k2][l] * d2[m + k, m + k2]
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

    def operators(self, u: npt.NDArray, schemes: Sequence[str]) -> list[npt.NDArray]:
        """Op(u) on the interior for each scheme, from one derivative pass per chunk."""
        for scheme in schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        outs = [np.empty(tuple(r - 2 for r in u.shape)) for _ in schemes]
        envelopes = any(scheme != "regularized" for scheme in schemes)
        for r0, r1 in self.chunks:
            trA, qq, qAq, A = self._derivatives(u, r0, r1)
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
    every regularized update and the worst node-wise violation of
    (min-update >= regularized >= max-update ordering flipped: the larger
    operator value shrinks u faster) is recorded.

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
    violation = 0.0
    steps = 0
    inner = (slice(1, -1),) * len(config.resolution)

    if not _has_positive_interior(grid.values):
        extinct = 0.0
        return RunResult(snapshots, extinct, 0.0, 0, violation if record_sandwich else None)

    eng = Engine(config)
    t = 0.0
    u = grid.values
    se = config.snapshot_every
    next_snap = se if se > 0 else np.inf
    while t < config.t_end - _TIME_SLOP * max(1.0, config.t_end):
        dt = min(eng.dt, config.t_end - t)
        if record_sandwich:
            op_reg, op_min, op_max = eng.operators(u, SCHEMES)
            new = eng._euler(u, dt, op_reg)
            base = u[inner]
            upd = new[inner]
            hi = base - dt * op_min  # smallest operator -> largest update
            lo = base - dt * op_max
            violation = max(
                violation,
                float(np.max(lo - upd, initial=0.0)),
                float(np.max(upd - hi, initial=0.0)),
            )
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

    return RunResult(
        snapshots,
        extinct,
        eng.dt,
        steps,
        violation if record_sandwich else None,
    )


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


def _node_coordinate_columns(grid: GridField) -> list[npt.NDArray]:
    mesh = np.meshgrid(
        *[grid.axis_coords(a) for a in range(grid.values.ndim)], indexing="ij"
    )
    return [m.ravel() for m in mesh]


def write_snapshot_csv(grid: GridField, path) -> None:
    """Rows t,x1,...,xn,u in row-major node order, 17 significant digits."""
    n = grid.values.ndim
    cols = [np.full(grid.values.size, grid.time)]
    cols.extend(_node_coordinate_columns(grid))
    cols.append(grid.values.ravel())
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",u"
    np.savetxt(path, np.stack(cols, axis=-1), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_front_csv(cloud: FrontCloud, path) -> None:
    """Rows t,x1,...,xn for each front point, 17 significant digits."""
    n = cloud.points.shape[1] if cloud.points.size else cloud.points.shape[-1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n))
    data = np.concatenate(
        [np.full((cloud.points.shape[0], 1), cloud.time), cloud.points], axis=1
    )
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
