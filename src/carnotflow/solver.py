"""Explicit finite-difference evolution of u_t + F(Xu, X2u) = 0 on a box.

The scheme is forward Euler on a cell-centered grid: node i along an axis
sits at lo + (i + 1/2) h, so faces of the box fall between nodes and the
grid is symmetric about the box center.  Spatial derivatives are central
differences (four-point stencils for mixed terms), composed into horizontal
quantities through the frame columns sigma(x) = [I; B x_h], which only
requires the per-node coefficient rows b_k(x) = B^(k) x_h.

Singular nodes (|Xu|^2 <= eps_sing^2) are where F is undefined; three
interchangeable schemes handle them:

    regularized   F with |Xu|^2 -> |Xu|^2 + delta_reg^2 in the projection,
    envelope_min  F at regular nodes, else -tr(X2u) + lambda_min(X2u),
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

Updates at distinct nodes are independent (one input slab that the step
only reads, one output slab), so the interior is computed in chunks of rows
along axis 0, each small enough for its temporaries to stay in cache.  Per
chunk, one derivative pass gives q = Xu, A = X2u and, by
calculus._contract, tr A, |q|^2 and q^T A q; the regularized scheme is one
line on those and the envelope pair is calculus._bounds, the code of
operator_bounds, so a step with all three schemes differentiates once.
Each difference reads u contiguously, over a flat window of whole rows
(boundary columns included), and only its interior nodes are divided into
the chunk's workspace.  A step runs chunk by chunk: the pass, the Euler
update over a flat window of the chunk's whole rows, whose boundary
columns the fill then overwrites, so `run` takes extinction from the row
maxima of its finiteness check, and with the sandwich the envelope bracket
from the chunk's workspace.  The Engine builds each chunk's stencil
windows, frame operands (see Engine._stage) and workspace once, and `run`
steps between a pair of slabs that it allocates once, so a step allocates
no arrays of a chunk's size: every ufunc writes into a held buffer (out=),
in the order the expressions state.  Held arrays start on 64-byte
boundaries, so that step time does not depend on where malloc put them.

On a grid of two or more chunks, `run` forks one worker process that
steps the later rows of axis 0, about half the interior nodes, while the
parent steps the earlier ones.  Each process runs Engine.step on its rows,
which fills the boundary faces on them too (row 0 is the parent's, row
N_0 - 1 the worker's); the worker writes its own copy of the engine's
workspace.  The two slabs live in one anonymous shared mapping, so each
process writes its rows where the other reads them at the next step.  Each
step tells the worker which slab is u and dt, and the worker replies with
its rows' max u, min u, violation and gap, from which the parent decides
finiteness, extinction and the sandwich maxima.  The worker is a _Child,
the package's one fork primitive (cli's snapshot writer is the other):
_Child owns the pipes, the fork, the child's exit and the reaping.  The
arithmetic per node is fixed, whichever process runs it, so outputs are
bit-identical from run to run, with or without the worker, and across
processes.
"""
from __future__ import annotations

import itertools
import math
import mmap
import operator
import os
import select
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .barriers import BarrierEval, psi_s_plus_s3
from .calculus import _bounds, _contract
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
        if self.delta_reg_effective ** 2 == 0.0:  # q^T A q / (|q|^2 + delta^2) would be 0/0 at q = 0
            raise ValueError(f"delta_reg {self.delta_reg_effective:g} is too small: its square is 0")

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
    vals = np.array(np.broadcast_to(vals, config.resolution), dtype=float, order="C")
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

# Cells of the first grid over the vertical angles, per node, the most cells
# the symbol search splits at once, and the tolerance that settles a cell
_SYMBOL_SAMPLES = 1024
_SYMBOL_CELLS = 1 << 18
_SYMBOL_RTOL = 1e-9


def _symbol_sup(rows: npt.NDArray, h: npt.NDArray) -> float:
    """Upper bound on the supremum over theta and over the nodes of the symbol
    of the stencil of -tr(a D^2), within _SYMBOL_RTOL of it.

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
    within _SYMBOL_RTOL of the best value found is settled and keeps its
    bound, the others are halved along every axis, until no cell is left or
    the next split would exceed _SYMBOL_CELLS cells.  The largest bound kept
    is returned, so it never falls below the supremum; at the cell budget it
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
        live = upper > best * (1.0 + _SYMBOL_RTOL)
        bound = max(bound, best, float(np.max(upper[~live], initial=-np.inf)))
        if not np.any(live):
            return bound
        if np.count_nonzero(live) * len(signs) > _SYMBOL_CELLS:
            return max(bound, float(np.max(upper)))
        node = np.repeat(node[live], len(signs))
        phi = (phi[live][:, None, :] + half * signs).reshape(-1, nv)
        half /= 2.0


def _aligned(shape, dtype=float, zero: bool = False, lead: int = 0) -> npt.NDArray:
    """A C-ordered array whose flat element lead starts on a 64-byte boundary,
    zeroed if zero.  malloc aligns to 16 bytes only, and a held array at 16 or
    48 mod 64 made a step 7-12% slower than at 0 (BENCH_13.json)."""
    itemsize = np.dtype(dtype).itemsize
    nbytes = math.prod(shape) * itemsize
    raw = (np.zeros if zero else np.empty)(nbytes + 64, np.uint8)
    skip = -(raw.ctypes.data + lead * itemsize) % 64
    return raw[skip : skip + nbytes].view(dtype).reshape(shape)


# Interior nodes per row chunk of the operator pass, from a sweep over chunk
# sizes at 32^3 and 64^3 (BENCH_3.json): in three dimensions a chunk's
# seventeen interior-shaped workspace arrays and two full-width window
# buffers (2.35 MB at 64^3) then about fill a 2 MB L2 cache.  Larger chunks
# spill out of it; smaller ones pay numpy's per-call overhead more often.
_CHUNK_NODES = 16384


class _Workspace(NamedTuple):
    """Views of an engine's chunk buffers for one chunk."""

    d1: list  # first differences by axis; q[j] in place for j < m
    d2: dict  # second differences d2[a, c] = d2[c, a]; A[j, l] in place for j, l < m
    acc: npt.NDArray  # scratch
    tmp: npt.NDArray  # scratch
    flags: npt.NDArray  # boolean scratch
    contract: tuple  # tr A, |q|^2, q^T A q and tmp: the out of calculus._contract
    bounds: tuple  # flags, lower and upper: the out of calculus._bounds, spectral aside
    shifted: npt.NDArray  # |q|^2 + delta^2
    gap: npt.NDArray  # F - F_delta, for the sandwich bracket
    diff: npt.NDArray  # flat window of a full-width scratch: each difference
    twice: npt.NDArray  # flat window of a second one: 2 u on the window
    inner: npt.NDArray  # the interior nodes of diff's full-width buffer


class Engine:
    """Stencil data and step buffers for one (group, grid, scheme) combination.

    Reusable across steps; `run` builds one internally.  A step is `step`:
    chunk by chunk, the operator pass into the interior of the next slab,
    `_euler` on the chunk's rows and, with the sandwich, the envelope
    bracket.  The constructor builds each chunk's plan: its stencil windows,
    its frame operands and its views of one workspace sized to the longest
    chunk, so that a step allocates no chunk temporaries; calls on one
    engine must therefore not overlap in time.  The frame coefficients with
    no x_0 term, and their products, are blocks of that chunk's interior
    shape (two at Heisenberg) that every plan reads.  `run`'s worker process
    writes its own copy of the workspace.  The arrays the engine allocates
    start on 64-byte boundaries.  It holds no other resources: `close` is a
    no-op that remains only for the benchmark's callers in perfbench/.
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
        # b[k][j] = (B^(k) x_h)_j on the horizontal sub-grid, shape (r_0, ...,
        # r_(m-1), 1, ..., 1): 0 + its nonzero B[k, j, i] x_i, since the others'
        # +-0 would change no bit of a sum that is never -0.0
        shape = config.resolution[: g.m] + (1,) * g.nv
        self.b = [
            [np.broadcast_to(sum((g.B[k, j, i] * coords[i] for i in range(g.m) if g.B[k, j, i]), 0.0), shape)
             for j in range(g.m)]
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
        # nodes per row of axis 0, and how far a chunk's flat window (win[()],
        # see _stage) lies inside its first and last row
        self._row = math.prod(config.resolution[1:])
        self._rim = sum(math.prod(config.resolution[a + 1 :]) for a in range(1, g.n))
        # each chunk's plan: its stencil windows, frame operands and workspace views
        self._plans = {chunk: (*stage, views) for chunk, stage, views
                       in zip(self.chunks, self._stage(), self._workspace())}

    def close(self) -> None:
        pass

    # -- spatial operator ---------------------------------------------------

    def _stage(self) -> list[tuple]:
        """Flat stencil windows and frame coefficients of the derivative pass
        of each chunk, in the order of self.chunks.

        For the chunk of rows r0..r1-1, win[()] slices u.reshape(-1) from
        node (r0, 1, ..., 1) to node (r1 - 1, N_1 - 2, ..., N_(n-1) - 2):
        whole rows, boundary columns included.  win[a, s] shifts it by s
        along axis a (the offset s times a's C-order stride) and win[a, s, c,
        t] by s along a and t along c; every window lies in rows r0-1..r1 of
        u.  bb[k, j] holds b_k[j] and bbbb[k, j, k2, l] the product bb[k, j]
        * bb[k2, l] (j <= l) on those rows, by its class in B.  With no x_0
        term (and a product of two): the leading rows of a contiguous block
        of equal rows, one block per operand for the longest chunk, which
        every chunk shares; else the horizontal-only shape of self.b,
        broadcast along the vertical axes.
        """
        n, m, nv = self.n, self.m, self.n - self.m
        res, B = self.config.resolution, self.config.group.B
        stride = [math.prod(res[a + 1 :]) for a in range(n)]
        keys = list(itertools.product(range(nv), range(m)))
        invariant = {key for key in keys if not B[key][0]}  # no x_0 term
        pairs = [p + q for p, q in itertools.product(keys, keys) if q[1] >= p[1]]  # (k, j, k2, l), j <= l
        shape = (max(r1 - r0 for r0, r1 in self.chunks),) + tuple(r - 2 for r in res[1:])
        held = {}
        for key in sorted(invariant):
            held[key] = _aligned(shape)
            held[key][...] = self.b[key[0]][key[1]][(slice(0, 1),) + (slice(1, -1),) * (m - 1)]
        for key in pairs:
            if {key[:2], key[2:]} <= invariant:
                held[key] = np.multiply(held[key[:2]], held[key[2:]], out=_aligned(shape))
        stages = []
        for r0, r1 in self.chunks:
            start, stop = r0 * stride[0] + sum(stride[1:]), r1 * stride[0] - sum(stride[1:])
            win = {(): slice(start, stop)}
            for a in range(n):
                for s in (1, -1):
                    win[a, s] = slice(start + s * stride[a], stop + s * stride[a])
                    for c in range(a + 1, n):
                        for t in (1, -1):
                            shift = s * stride[a] + t * stride[c]
                            win[a, s, c, t] = slice(start + shift, stop + shift)
            rows, count = (slice(r0, r1),) + (slice(1, -1),) * (m - 1), r1 - r0
            wide = {(k, j): self.b[k][j][rows] for k, j in keys}
            bb = {key: held[key][:count] if key in held else wide[key] for key in keys}
            bbbb = {key: held[key][:count] if key in held else wide[key[:2]] * wide[key[2:]] for key in pairs}
            stages.append((win, bb, bbbb))
        return stages

    def _workspace(self) -> list[_Workspace]:
        """Each chunk's views of the chunk buffers, in the order of self.chunks.

        The buffers are allocated once, for the longest chunk, and a chunk's
        views lie on their first rows along axis 0.  Each view is a
        contiguous prefix of its buffer, or the window (see _stage) or
        interior of a prefix of one of two zero-filled full-width buffers.
        Padded to whole 64-byte lines, every buffer starts a view or a window
        on a 64-byte boundary.
        """
        n, res, rim = self.n, self.config.resolution, self._rim
        pairs = [(a, c) for a in range(n) for c in range(a, n)]
        inner = tuple(r - 2 for r in res[1:])
        cap = max(r1 - r0 for r0, r1 in self.chunks)
        lines = [-(-cap * math.prod(s) // 8) * 8 for s in (inner, res[1:])]
        floats = _aligned((n + len(pairs) + 9, lines[0]))
        flags = _aligned((cap,) + inner, bool)
        wide = _aligned((2, lines[1]), zero=True, lead=rim)
        views = []
        for r0, r1 in self.chunks:
            shape = (r1 - r0,) + inner
            buffers = (b[: math.prod(shape)].reshape(shape) for b in floats)
            d1 = [next(buffers) for _ in range(n)]
            d2 = {}
            for a, c in pairs:
                d2[a, c] = d2[c, a] = next(buffers)
            acc, tmp, trA, qq, qAq, lower, upper, shifted, gap = buffers
            size = (r1 - r0) * self._row
            diff, twice = (b[rim : size - rim] for b in wide)
            window = wide[0, :size].reshape((r1 - r0,) + res[1:])
            views.append(_Workspace(
                d1, d2, acc, tmp, flags[: r1 - r0],
                (trA, qq, qAq, tmp), (flags[: r1 - r0], lower, upper), shifted, gap,
                diff, twice, window[(slice(None),) + (slice(1, -1),) * (n - 1)],
            ))
        return views

    def _derivatives(self, u: npt.NDArray, r0: int, r1: int):
        """trA, |q|^2, q^T A q and A[j, l] on the chunk of rows r0..r1-1 (q = Xu, A = X2u).

        u is C-contiguous.  The arrays are views of the engine's chunk
        workspace: they stay valid until the next call on this engine.
        """
        n, m, nv = self.n, self.m, self.n - self.m
        win, bb, bbbb, w = self._plans[r0, r1]
        d1, d2, tmp, diff = w.d1, w.d2, w.tmp, w.diff
        flat = u.reshape(-1)
        h = self.h

        # differences span the window; only their interior nodes are divided
        for a in range(n):
            np.subtract(flat[win[a, 1]], flat[win[a, -1]], out=diff)
            np.divide(w.inner, 2.0 * h[a], out=d1[a])
        np.multiply(flat[win[()]], 2.0, out=w.twice)
        for a in range(n):
            np.subtract(flat[win[a, 1]], w.twice, out=diff)
            np.add(diff, flat[win[a, -1]], out=diff)
            np.divide(w.inner, h[a] ** 2, out=d2[a, a])
            for c in range(a + 1, n):
                np.subtract(flat[win[a, 1, c, 1]], flat[win[a, 1, c, -1]], out=diff)
                np.subtract(diff, flat[win[a, -1, c, 1]], out=diff)
                np.add(diff, flat[win[a, -1, c, -1]], out=diff)
                np.divide(w.inner, 4.0 * h[a] * h[c], out=d2[a, c])

        # q[j] and A[j, l] overwrite d1[j] and d2[j, l], which nothing else reads;
        # q[j] has no leading 0 +, as the sign of a zero q reaches no output
        q = d1[:m]
        for j in range(m):
            np.multiply(bb[0, j], d1[m], out=w.acc)
            for k in range(1, nv):
                np.add(w.acc, np.multiply(bb[k, j], d1[m + k], out=tmp), out=w.acc)
            np.add(d1[j], w.acc, out=d1[j])
        A = {}
        for j in range(m):
            for l in range(j, m):
                entry = d2[j, l]
                for k in range(nv):
                    product = np.multiply(bb[k, l], d2[j, m + k], out=tmp)
                    np.add(entry, product, out=entry)
                    if l != j:  # else the second product is the first
                        product = np.multiply(bb[k, j], d2[l, m + k], out=tmp)
                    np.add(entry, product, out=entry)
                for k in range(nv):
                    for k2 in range(nv):
                        term = np.multiply(bbbb[k, j, k2, l], d2[m + k, m + k2], out=tmp)
                        np.add(entry, term, out=entry)
                A[j, l] = A[l, j] = entry

        return (*_contract(q, A, out=w.contract), A)

    def operators(self, u: npt.NDArray, schemes: Sequence[str], gap: bool = False) -> list[npt.NDArray]:
        """Op(u) on the interior for each scheme, from one derivative pass per
        chunk, in new arrays.

        With gap, one more array follows from the same derivative pass: F -
        F_delta = delta^2 q^T A q / (|q|^2 (|q|^2 + delta^2)), by which the
        regularized operator falls short of its delta -> 0 limit F(q, A) (0
        where q = 0).
        """
        for scheme in schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        if np.shape(u) != self.config.resolution:
            raise ValueError(f"u has shape {np.shape(u)}, expected {self.config.resolution}")
        u = np.ascontiguousarray(u)  # the stencil windows slice it flat
        out = [_aligned(tuple(r - 2 for r in u.shape)) for _ in range(len(schemes) + gap)]
        for r0, r1 in self.chunks:
            self._pass(u, r0, r1, schemes, gap, [values[r0 - 1 : r1 - 1] for values in out])
        return out

    def _pass(self, u: npt.NDArray, r0: int, r1: int, schemes: Sequence[str], gap: bool, blocks: list):
        """The pass of `operators` on the chunk of rows r0..r1-1 of u (C-contiguous), one block per result."""
        trA, qq, qAq, A = self._derivatives(u, r0, r1)
        w, results = self._plans[r0, r1][-1], {}
        if gap or "regularized" in schemes:
            np.add(qq, self.delta2, out=w.shifted)
        if gap:
            blocks[-1][...] = 0.0
            np.multiply(qAq, self.delta2, out=w.acc)
            np.multiply(qq, w.shifted, out=w.tmp)
            np.divide(w.acc, w.tmp, out=blocks[-1], where=np.greater(qq, 0.0, out=w.flags))
        if set(schemes) - {"regularized"}:
            # with both envelopes requested, _bounds writes into their blocks
            both = set(SCHEMES[1:]) <= set(schemes)
            bounds = [blocks[schemes.index(s)] for s in SCHEMES[1:]] if both else w.bounds[1:]
            bounds = _bounds(trA, qq, qAq, A, self.eps2, out=(w.flags, *bounds, None))
            results = dict(zip(SCHEMES[1:], bounds))  # envelope_min: lower, envelope_max: upper
        for block, scheme in zip(blocks, schemes):
            if scheme not in results:  # regularized
                np.divide(qAq, w.shifted, out=w.tmp)
                results[scheme] = np.add(np.negative(trA, out=w.acc), w.tmp, out=block)
            elif results[scheme] is not block:
                block[...] = results[scheme]

    def _euler(self, u: npt.NDArray, dt: float, new: npt.NDArray, rows) -> npt.NDArray:
        """Turn new (C-contiguous), which holds op = Op(u) on its interior,
        into u - dt * op there, in place, over whole rows r0..r1-1 of axis 0
        (rows = (r0, r1)).  Boundary nodes on those rows, columns passed over
        included, then copy their neighbor: row 0 or row N_0 - 1 if the
        range holds it, then the faces of the other axes.  Ranges that tile
        the rows give the bits of one call over all rows."""
        n, size = u.ndim, u.shape[0]
        r0, r1 = rows
        window = slice(max(r0, 1) * self._row + self._rim, min(r1, size - 1) * self._row - self._rim)
        step = new.reshape(-1)[window]
        np.subtract(u.reshape(-1)[window], np.multiply(step, dt, out=step), out=step)
        if r0 == 0:
            new[0] = new[1]
        if r1 == size:
            new[-1] = new[-2]
        part = new[r0:r1]
        for a in range(1, n):
            idx_lo = [slice(None)] * n
            idx_hi = [slice(None)] * n
            idx_lo[a], idx_hi[a] = 0, 1
            part[tuple(idx_lo)] = part[tuple(idx_hi)]
            idx_lo[a], idx_hi[a] = -1, -2
            part[tuple(idx_lo)] = part[tuple(idx_hi)]
        return new

    def step(self, u: npt.NDArray, new: npt.NDArray, dt: float, rows, sandwich: bool = False):
        """The step from u (C-contiguous) into new (C-contiguous) on rows
        r0..r1-1 of axis 0, rows = (r0, r1) with each end 0, N_0 or the first
        row of a later chunk.  For each chunk that starts there, in order: the
        pass of `operators` into the chunk's interior rows of new, `_euler`
        over the chunk's rows (from r0 for the first chunk, to r1 for the
        last) and, with sandwich, the envelope bracket on the chunk, from its
        workspace.  Returns the rows' max u and min u and the bracket's
        violation and gap (0.0 without it); calls over a tiling of the rows
        write the bits of one call over all rows.

        The sandwich computes the envelope_min / envelope_max updates from
        the same u as the regularized one.  The regularized operator falls
        short of its delta -> 0 limit F by the known gap delta^2 q^T A q /
        (|q|^2 (|q|^2 + delta^2)), so its update differs from the limit's by
        dt times that; the gap returned is the worst |difference|.  The
        violation is the worst node-wise amount by which the regularized
        update, with that difference taken out, leaves the envelope bracket
        (max-update <= update <= min-update: the larger operator value
        shrinks u faster).  F lies in the bracket, so this is rounding at any
        delta unless the schemes are out of order, or q = 0 exactly where X2u
        is definite.
        """
        if not np.shape(u) == np.shape(new) == self.config.resolution or np.may_share_memory(u, new):
            raise ValueError(f"u and new must not overlap and must have shape {self.config.resolution}")
        r0, r1 = rows
        inner = (slice(1, -1),) * self.n
        base, update = u[inner], new[inner]
        schemes = SCHEMES if sandwich else (self.config.scheme,)
        chunks = [chunk for chunk in self.chunks if r0 <= chunk[0] < r1]
        ends = [r0, *(c0 for c0, _ in chunks[1:]), r1]  # the rows of each _euler call
        violation = gap = 0.0
        for (c0, c1), part in zip(chunks, zip(ends, ends[1:])):
            w, own = self._plans[c0, c1][-1], slice(c0 - 1, c1 - 1)  # own: the chunk's interior rows
            self._pass(u, c0, c1, schemes, sandwich, [update[own], *w.bounds[1:], w.gap][: 1 + 3 * sandwich])
            self._euler(u, dt, new, part)
            if sandwich:
                low, high, shift, limit = *w.bounds[1:], w.gap, w.tmp
                np.multiply(shift, dt, out=shift)
                np.subtract(update[own], shift, out=limit)  # the update with delta -> 0
                # smallest operator -> largest update
                hi = np.subtract(base[own], np.multiply(low, dt, out=low), out=low)
                lo = np.subtract(base[own], np.multiply(high, dt, out=high), out=high)
                violation = max(violation, float(np.max(np.subtract(lo, limit, out=lo), initial=0.0)),
                                float(np.max(np.subtract(limit, hi, out=hi), initial=0.0)))
                gap = max(gap, float(np.max(np.abs(shift, out=shift), initial=0.0)))
        return float(np.max(new[r0:r1])), float(np.min(new[r0:r1])), violation, gap


# -------------------------------------------------------------- evolution ---


@dataclass
class RunResult:
    """What run returns; its snapshots go to run's on_snapshot.

    extinction_time: the time after the step at which no interior node was
        positive any more (0.0 if none was at the start), or None if the
        run reached t_end first.
    dt: the engine's stable step (0.0 if the initial data had no positive
        interior node); a last step may be shorter, to end at t_end.
    n_steps: the number of steps taken.
    sandwich_max_violation, regularization_gap: with record_sandwich, the
        sandwich's worst violation and gap over the run; else None.
    """

    extinction_time: float | None
    dt: float
    n_steps: int
    sandwich_max_violation: float | None = None
    regularization_gap: float | None = None


def _has_positive_interior(values: npt.NDArray) -> bool:
    inner = (slice(1, -1),) * values.ndim
    return bool(np.max(values[inner]) > 0.0)


def _mapped(shape, count: int) -> list[npt.NDArray]:
    """count zero-filled float arrays of the given shape in one anonymous
    shared mapping, which a forked child reads and writes in common with its
    parent.  The mapping starts on a page boundary and each array on a
    64-byte one, as the arrays of _aligned do."""
    nodes, size = math.prod(shape), -(-math.prod(shape) // 8) * 64
    mem = mmap.mmap(-1, count * size, flags=mmap.MAP_SHARED)
    return [np.frombuffer(mem, float, nodes, k * size).reshape(shape) for k in range(count)]


class _Child:
    """One forked process that runs steps in turn, each as step(go, reply)
    with its ends of two pipes: it reads the go pipe and writes the reply
    pipe, whose other ends, .go and .reply, stay with the parent.

    The child leaves only through os._exit, never through its parent's code:
    with 0 when every step returned, or with k when step k raised, after it
    writes "Type: message" of the exception to the reply pipe, in one write
    of at most PIPE_BUF bytes that the pipe delivers whole, and prints its
    traceback.  If os.fork raises, the four ends are closed and the error
    propagates.  reap() must be called once, after which the ends are closed.
    """

    def __init__(self, *steps: Callable[[int, int], object]):
        go, self.go = os.pipe()
        self.reply, reply = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (go, self.go, self.reply, reply):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.go)
                os.close(self.reply)
                for code, step in enumerate(steps, 1):
                    step(go, reply)
                code = 0
            except BaseException as exc:
                try:
                    os.write(reply, f"{type(exc).__name__}: {exc}".encode(errors="replace")[: select.PIPE_BUF])
                except OSError:
                    pass  # the parent no longer reads
                import traceback  # only a failed child needs it

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(go)
        os.close(reply)

    def reap(self) -> tuple[int, str]:
        """Wait for the child to end, close this process's ends of the pipes,
        and return the child's exit code (-N for signal N) and what is left
        in the reply pipe: its report, if it failed and no reply read it."""
        try:
            _, status = os.waitpid(self.pid, 0)
            report = os.read(self.reply, select.PIPE_BUF)
        finally:
            os.close(self.go)
            os.close(self.reply)
        return os.waitstatus_to_exitcode(status), report.decode(errors="replace")


_QUIT = b"q"
_GO = struct.Struct("=Bd")  # the slab that is u, and dt
_REPLY = struct.Struct("=c4d")  # a zero byte, then the step's max u, min u, violation, gap


def run(
    config: SolverConfig,
    record_sandwich: bool = False,
    on_snapshot: Callable[[GridField], None] | None = None,
) -> RunResult:
    """Evolve to t_end or extinction, handing each snapshot to on_snapshot.

    The snapshots are the initial slab, the slab after each step that
    reaches a mark of the cadence snapshot_every, and the final slab (at
    t_end, or at the extinction step), in time order; each is a GridField
    that owns its values.  run keeps none of them, and drops snapshot 0
    once the first slab holds its values, so with a callback that keeps
    nothing run holds one snapshot copy at a time, however many it emits.
    Without on_snapshot, run copies no slab.  Every step is `Engine.step`,
    with the sandwich if record_sandwich: then sandwich_max_violation and
    regularization_gap are its worst violation and gap over the run.

    On a grid of two or more chunks, one worker (a _Child) forked here
    steps the later rows of axis 0 while this process steps the earlier
    ones (see the module docstring): each updates, fills and brackets its
    own rows and returns their max u, min u, violation and gap.  A
    one-chunk grid runs the same step over all rows and forks nothing.  The
    slab is finite if each part's max and min are, and has gone extinct if
    the larger max is not positive.  The worker is stopped and reaped
    before run returns or raises.

    Raises:
        RuntimeError: if values become nonfinite (CFL violated or data
            outside the scheme's stability envelope), or if the worker
            fails or ends; the message then carries the type and message
            of the worker's exception.
        OSError: if the worker cannot be forked.
    """
    if record_sandwich and config.scheme != "regularized":
        raise ValueError("sandwich recording reads the regularized trajectory")
    grid = init(config)
    if on_snapshot is not None:
        on_snapshot(grid)
    if not _has_positive_interior(grid.values):
        return RunResult(0.0, 0.0, 0, *((0.0, 0.0) if record_sandwich else (None, None)))

    eng = Engine(config)
    emitted = t = 0.0  # emitted: the time of the last snapshot emitted
    extinct: float | None = None
    violation = gap = 0.0
    steps = 0
    # each step writes the slab of the pair that u is not; step 0 reads a
    # copy of grid.values, which snapshot 0 holds and no step writes
    slabs = _mapped(grid.values.shape, 2)
    slabs[1][...] = grid.values
    u = slabs[1]
    del grid  # on_snapshot holds snapshot 0 if anything does
    size = config.resolution[0]
    # the parent's rows and the worker's, split at the chunk start where the
    # interior nodes (as many per row in every chunk) come closest to halves
    rows = [r1 - r0 for r0, r1 in eng.chunks]
    split = min(range(1, len(rows) + 1), key=lambda k: abs(2 * sum(rows[:k]) - sum(rows)))
    cut = eng.chunks[split][0] if split < len(rows) else size

    def serve(go: int, reply: int) -> None:  # the worker's body: a reply per go message, until the quit byte
        while len(message := os.read(go, _GO.size)) == _GO.size:
            i, dt = _GO.unpack(message)
            part = eng.step(slabs[i], slabs[1 - i], dt, (cut, size), record_sandwich)
            os.write(reply, _REPLY.pack(b"\0", *part))

    worker = _Child(serve) if cut < size else None
    se = config.snapshot_every if on_snapshot is not None else 0.0  # no callback, no cadence
    next_snap = se if se > 0 else np.inf
    try:
        while t < config.t_end - _TIME_SLOP * max(1.0, config.t_end):
            dt = min(eng.dt, config.t_end - t)
            i = 1 - steps % 2  # the slab that is u
            if worker is not None:
                try:
                    os.write(worker.go, _GO.pack(i, dt))
                except BrokenPipeError:  # the worker has ended: its reply pipe is at end of file
                    pass
            parts = [eng.step(slabs[i], slabs[1 - i], dt, (0, cut), record_sandwich)]
            if worker is not None:
                reply = os.read(worker.reply, select.PIPE_BUF)
                if len(reply) != _REPLY.size or reply[:1] != b"\0":
                    code, report = worker.reap()
                    worker = None
                    why = reply.decode(errors="replace") + report or f"it ended with status {code} and no reply"
                    raise RuntimeError(f"solver worker failed: {why}")
                parts.append(_REPLY.unpack(reply)[1:])
            u = slabs[1 - i]
            t += dt
            steps += 1
            # each part's own max and min: max() over a nan depends on the order
            tops, bottoms, violations, gaps = zip(*parts)
            if not all(map(math.isfinite, tops + bottoms)):
                raise RuntimeError(
                    f"nonfinite values after step {steps} (t={t:.6g}); "
                    "reduce cfl or check the initial data"
                )
            violation, gap = max(violation, *violations), max(gap, *gaps)
            if se > 0 and next_snap <= t + _TIME_SLOP:
                next_snap += se
                if next_snap <= t + _TIME_SLOP:  # cadence below dt: skip the passed marks at once
                    next_snap += se * np.floor((t + _TIME_SLOP - next_snap) / se + 1.0)
                on_snapshot(GridField(config.box, u.copy(), t))
                emitted = t
            # the fill copied interior nodes onto the boundary: the tops are their max
            if not max(tops) > 0.0:
                extinct = t
                break
    finally:
        if worker is not None:
            # a quit byte: end of file alone would not stop the worker, since
            # a snapshot writer forked meanwhile holds a copy of the go pipe
            try:
                os.write(worker.go, _QUIT)
            except BrokenPipeError:  # the worker has ended
                pass
            worker.reap()
    if on_snapshot is not None and emitted < t:  # the final slab, unless the cadence just emitted it
        on_snapshot(GridField(config.box, u.copy(), t))

    sandwich = (violation, gap) if record_sandwich else (None, None)
    return RunResult(extinct, eng.dt, steps, *sandwich)


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
        op = eng.operators(u, (config.scheme,))[0]
        worst = max(worst, float(np.max(np.abs(spec.c + op)[mask])))
    return worst


# ------------------------------------------------------------- CSV output ---


def write_snapshot_csv(grid: GridField, path) -> None:
    """Rows t,x1,...,xn,u in row-major node order, 17 significant digits.

    The bytes are those of np.savetxt with fmt="%.17g" over the stacked
    columns.  t and each axis's coordinates are formatted once; per axis-0
    slab, one format string holding those prefixes formats the u values,
    built as P + P.join(tails) with P the slab's prefix of t and x_1.
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
            prefix = t + x0
            fh.write((prefix + prefix.join(tails)) % tuple(slab.ravel().tolist()))


def write_front_csv(cloud: FrontCloud, path) -> None:
    """Rows t,x1,...,xn for each front point, 17 significant digits: the bytes
    of np.savetxt with fmt="%.17g", through one row template holding t."""
    n = cloud.points.shape[-1]
    row = "%.17g," % float(cloud.time) + ",".join(["%.17g"] * n) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
        fh.write((row * len(cloud.points)) % tuple(cloud.points.ravel().tolist()))
