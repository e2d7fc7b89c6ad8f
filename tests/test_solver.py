"""Grid solver: stencils, schemes, stability, fronts, and CSV output."""

import contextlib
import dataclasses
import functools
import json
import math
import operator
import os
import signal
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import carnotflow.cli as cli
import carnotflow.solver as solver
from carnotflow import (
    Coord,
    Engine,
    GridField,
    InitialSpec,
    ScalarField,
    SolverConfig,
    extract_front,
    heisenberg,
    horizontal_gradient,
    horizontal_hessian,
    init,
    make_barrier,
    operator_bounds,
    residual_on_exact,
    run,
    validate_spec,
    write_front_csv,
    write_snapshot_csv,
)
from carnotflow.calculus import _bounds
from carnotflow.groups import sigma

HEIS = heisenberg()
BOX = ((-2.0, 2.0),) * 3
# b_0 = (x_1 + 2 x_2, -x_0 + 3 x_2, -2 x_0 - 3 x_1): coefficients that mix x_0
# with another coordinate, which neither heisenberg nor m3n5 has
MIXED = validate_spec(3, 4, [[[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]])


def config(res=12, **kw):
    kw.setdefault("t_end", 0.02)
    return SolverConfig(HEIS, BOX, (res,) * 3, **kw)


def stencil_symbol(a, theta):
    """-1 times the factor by which the tr(a D2) stencil multiplies the mode
    exp(i theta . index): 2 a_aa (1 - cos theta_a) / h_a^2 from the second
    differences plus a_ac sin theta_a sin theta_c / (h_a h_c) (a != c) from the
    four-point mixed terms, with a already scaled by 1 / (h_a h_c)."""
    s = np.sin(theta)
    off = a - np.diag(np.diag(a))
    return 2.0 * (1.0 - np.cos(theta)) @ np.diag(a) + np.einsum("pa,ab,pb->p", s, off, s)


def reference_derivatives(cfg, u):
    """tr X2u, |Xu|^2, Xu.X2u.Xu and X2u on the whole interior of u, by plain
    slicing, in the order of operations the derivative pass keeps.

    Differences: (u+ - u-) / 2h, ((u+ - 2 u) + u-) / h^2 and
    (((u++ - u+-) - u-+) + u--) / (4 h_a h_c).  Then q_j = d_j + (t_0 + t_1 +
    ...) with t_k = b_k[j] d_(m+k); A_jl = d_jl + b_k[l] d_(j, m+k) + b_k[j]
    d_(l, m+k) over k, then + (b_k[j] b_k2[l]) d_(m+k, m+k2) over k, k2; and
    tr A, |q|^2 and q^T A q by sum().
    """
    g, h = cfg.group, cfg.spacing
    n, m, nv = g.n, g.m, g.nv

    def at(shift):
        return u[tuple(slice(1 + shift.get(a, 0), u.shape[a] - 1 + shift.get(a, 0)) for a in range(n))]

    d1 = [(at({a: 1}) - at({a: -1})) / (2.0 * h[a]) for a in range(n)]
    d2 = {}
    for a in range(n):
        d2[a, a] = (at({a: 1}) - 2.0 * at({}) + at({a: -1})) / h[a] ** 2
        for c in range(a + 1, n):
            d2[a, c] = d2[c, a] = (
                at({a: 1, c: 1}) - at({a: 1, c: -1}) - at({a: -1, c: 1}) + at({a: -1, c: -1})
            ) / (4.0 * h[a] * h[c])
    grid = GridField(cfg.box, u)
    xs = np.meshgrid(*[grid.axis_coords(a)[1:-1] for a in range(n)], indexing="ij", sparse=True)
    b = [[sum(g.B[k, j, i] * xs[i] for i in range(m)) for j in range(m)] for k in range(nv)]
    q = [
        d1[j] + functools.reduce(operator.add, [b[k][j] * d1[m + k] for k in range(nv)])
        for j in range(m)
    ]
    A = {}
    for j in range(m):
        for l in range(j, m):
            entry = d2[j, l]
            for k in range(nv):
                entry = entry + b[k][l] * d2[j, m + k]
                entry = entry + b[k][j] * d2[l, m + k]
            for k in range(nv):
                for k2 in range(nv):
                    entry = entry + (b[k][j] * b[k2][l]) * d2[m + k, m + k2]
            A[j, l] = A[l, j] = entry
    trA = sum(A[j, j] for j in range(m))
    qq = sum(q[j] * q[j] for j in range(m))
    qAq = sum(q[j] * A[j, l] * q[l] for j in range(m) for l in range(m))
    return trA, qq, qAq, A


def interior_view_euler(u, dt, new):
    """The forward-Euler update on the interior view of new, then the
    nearest-interior boundary fill, axis by axis."""
    n = u.ndim
    inner = (slice(1, -1),) * n
    step = new[inner]
    np.subtract(u[inner], np.multiply(step, dt, out=step), out=step)
    for a in range(n):
        lo, hi = [slice(None)] * n, [slice(None)] * n
        lo[a], hi[a] = 0, 1
        new[tuple(lo)] = new[tuple(hi)]
        lo[a], hi[a] = -1, -2
        new[tuple(lo)] = new[tuple(hi)]
    return new


def euler_step(eng, u, dt, scheme=None, out=None):
    """One step the way run takes it: the operator pass of scheme (the
    config's by default) into the interior of out (new zeros unless given),
    then the Euler update and boundary fill in place."""
    new = np.zeros(u.shape) if out is None else out
    scheme = eng.config.scheme if scheme is None else scheme
    eng.operators(u, (scheme,), out=[new[(slice(1, -1),) * u.ndim]])
    return eng._euler(u, dt, new, (0, len(new)))


def gauge_config(request, group):
    """The gauge ball on Heisenberg 32^3 (two chunks) or on a non-cubic
    m3n5 grid, whose rows are no whole number of 64-byte lines."""
    if group == "heisenberg":
        return config(res=32, initial=InitialSpec(preset="gauge_ball"))
    g = request.getfixturevalue("m3n5")
    return SolverConfig(g, ((-2.0, 2.0),) * 5, (7, 6, 9, 6, 7),
                        initial=InitialSpec(preset="gauge_ball"))


def exact_cylinder_values(grid, t, r=1.0):
    xs = np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij")
    return r - 2.0 * t - xs[0] ** 2 - xs[1] ** 2


class TestGridField:
    def test_cell_centers_avoid_box_faces(self):
        grid = GridField(BOX, np.zeros((8, 8, 8)))
        for a in range(3):
            c = grid.axis_coords(a)
            h = grid.spacing[a]
            assert c[0] == pytest.approx(-2.0 + h / 2)
            assert c[-1] == pytest.approx(2.0 - h / 2)
            np.testing.assert_allclose(np.diff(c), h)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensionality"):
            GridField(BOX[:2], np.zeros((4, 4, 4)))

    def test_degenerate_box(self):
        with pytest.raises(ValueError, match="degenerate"):
            GridField(((0.0, 0.0), (-1.0, 1.0)), np.zeros((4, 4)))


class TestSolverConfig:
    @pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5])
    def test_cfl_range(self, cfl):
        with pytest.raises(ValueError, match="cfl"):
            config(cfl=cfl)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="at least 4"):
            SolverConfig(HEIS, BOX, (12, 3, 12))

    @pytest.mark.parametrize("bad", [8.7, 8.0, "8"])
    def test_non_integer_resolution_refused(self, bad):
        with pytest.raises(ValueError, match="resolution must be a sequence of integers"):
            SolverConfig(HEIS, BOX, (8, bad, 8))

    def test_numpy_integer_resolution_accepted(self):
        cfg = SolverConfig(HEIS, BOX, tuple(np.array([8, 9, 10])))
        assert cfg.resolution == (8, 9, 10)
        assert all(type(r) is int for r in cfg.resolution)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            config(scheme="upwind")

    @pytest.mark.parametrize(
        "field, build",
        [
            ("t_end", lambda: config(t_end=math.inf)),
            ("snapshot_every", lambda: config(snapshot_every=math.inf)),
            ("eps_sing", lambda: config(eps_sing=math.nan)),
            ("delta_reg", lambda: config(delta_reg=-math.inf)),
            ("box side", lambda: SolverConfig(HEIS, BOX[:2] + ((math.nan, 2.0),), (12,) * 3)),
            ("initial.r", lambda: InitialSpec(r=math.inf)),
        ],
    )
    def test_nonfinite_values_rejected(self, field, build):
        with pytest.raises(ValueError, match=f"{field}.* must be finite"):
            build()

    def test_default_regularization_scales_with_box(self):
        cfg = config()
        assert cfg.delta_reg_effective == pytest.approx(1e-6 * np.sqrt(48.0))
        assert cfg.eps_sing_effective == pytest.approx((4.0 / 12) ** 2)
        assert config(delta_reg=0.1).delta_reg_effective == 0.1


class TestInit:
    def test_cylinder_signs(self):
        grid = init(config())
        xs = np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij")
        rh2 = xs[0] ** 2 + xs[1] ** 2
        np.testing.assert_array_equal(grid.values > 0, rh2 < 1.0)

    def test_vertical_faces_exempt_for_cylinder(self):
        # the cylinder set {u0 >= 0} runs through the x3 faces, but u0 is
        # constant along x3, where the nearest-interior copy is exact
        grid = init(config())
        assert np.any(grid.values[:, :, 0] > 0)

    def test_front_through_a_varying_face_rejected(self):
        cfg = config(initial=InitialSpec(preset="gauge_ball", r=20.0))
        with pytest.raises(ValueError, match="touches the boundary"):
            init(cfg)

    def test_all_negative_data_allowed(self):
        grid = init(config(initial=InitialSpec(r=-0.5)))
        assert np.all(grid.values < 0)

    def test_cubic_relabel(self):
        plain = init(config()).values
        relabeled = init(config(initial=InitialSpec(relabel="cubic"))).values
        np.testing.assert_allclose(relabeled, plain + plain**3, rtol=1e-15)

    @pytest.mark.parametrize("preset", solver.INITIAL_PRESETS)
    def test_presets_positive_at_center_cells(self, preset):
        grid = init(config(initial=InitialSpec(preset=preset, r=1.0)))
        assert np.max(grid.values) > 0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            config(initial=InitialSpec(preset="torus"))


class TestEngine:
    def test_dt_respects_parabolic_bound(self):
        cfg = config()
        eng = Engine(cfg)
        h2 = float(np.min(cfg.spacing)) ** 2
        assert 0 < eng.dt <= cfg.cfl * h2 / (2 * HEIS.m)

    def test_dt_scales_with_cfl(self):
        a, b = Engine(config(cfl=0.2)), Engine(config(cfl=0.4))
        assert b.dt == pytest.approx(2 * a.dt)

    @pytest.mark.parametrize("group, res", [("heisenberg", 12), ("m3n5", 6)])
    def test_checkerboard_grows_above_the_bound_and_decays_below(self, request, group, res):
        # on a constant background a checkerboard has zero central first
        # differences, so q = 0 and one regularized step multiplies it at each
        # node by 1 - dt sum_a 4 a_aa / h_a^2.  At cfl = 1, dt is the derived
        # stability bound: 10% beyond it some node amplifies the checkerboard,
        # 10% below it every node damps it.  The former dt = h^2 / (2 m S^2),
        # about half the bound, would damp it at 1.1x as well.
        g = HEIS if group == "heisenberg" else request.getfixturevalue("m3n5")
        cfg = SolverConfig(g, ((-2.0, 2.0),) * g.n, (res,) * g.n, cfl=1.0)
        eng = Engine(cfg)
        sign = np.where(np.indices(cfg.resolution).sum(axis=0) % 2 == 0, 1.0, -1.0)
        inner = (slice(1, -1),) * g.n
        for factor, grows in ((1.1, True), (0.9, False)):
            u = euler_step(eng, -1.0 + 1e-3 * sign, factor * eng.dt)
            gain = float(np.max(np.abs(u[inner] + 1.0))) / 1e-3
            assert (gain > 1.0) == grows, (factor, gain)

    @pytest.mark.parametrize("group, res, side", [("heisenberg", 12, 121), ("m3n5", 6, 21)])
    def test_symbol_bound_is_the_worst_interior_supremum(self, request, group, res, side):
        # the per-node supremum over all interior nodes peaks at the corner
        # nodes the engine searches; at the worst node, the symbol written out
        # from the stencil and sampled on a dense theta grid stays below the
        # bound and comes within 1% of it
        g = HEIS if group == "heisenberg" else request.getfixturevalue("m3n5")
        cfg = SolverConfig(g, ((-2.0, 2.0),) * g.n, (res,) * g.n)
        eng = Engine(cfg)
        h = cfg.spacing
        grid = GridField(cfg.box, np.zeros(cfg.resolution))
        inner = [grid.axis_coords(a)[1:-1] for a in range(g.m)]
        pts = np.zeros(((res - 2) ** g.m, g.n))
        pts[:, : g.m] = np.stack(np.meshgrid(*inner, indexing="ij"), axis=-1).reshape(-1, g.m)
        frames = sigma(g, pts)
        per_node = [solver._symbol_sup(frame[None, g.m :], h) for frame in frames]
        assert max(per_node) == pytest.approx(eng.symbol_bound, rel=2e-9)

        worst = frames[np.argmax(per_node)]
        a = worst @ worst.T / np.outer(h, h)
        angles = np.linspace(-np.pi, np.pi, side)
        rest = np.stack(np.meshgrid(*[angles] * (g.n - 1), indexing="ij"), axis=-1).reshape(-1, g.n - 1)
        dense = 0.0
        for first in angles:  # one slab of the theta grid at a time
            theta = np.concatenate([np.full((len(rest), 1), first), rest], axis=1)
            dense = max(dense, float(np.max(stencil_symbol(a, theta))))
        assert dense <= eng.symbol_bound * (1.0 + 1e-12)
        assert eng.symbol_bound <= 1.01 * dense

    @pytest.mark.parametrize("nv", [1, 3, 4, 5, 6])
    def test_symbol_search_bounds_every_local_maximum(self, nv):
        # the first nv brackets of the free step-two group on 4 generators;
        # L-BFGS-B started from 40 angles per node finds local maxima of the
        # symbol written out from the stencil.  The bound lies above all of
        # them, and for nv <= 4, where the search ends by its tolerance and
        # not by its cell budget, within 1e-8 of the best
        m, pairs = 4, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        B = np.zeros((nv, m, m))
        for k, (i, j) in enumerate(pairs[:nv]):
            B[k, i, j], B[k, j, i] = 1.0, -1.0
        rng = np.random.default_rng(nv)
        xh = rng.uniform(-2.0, 2.0, size=(2, m))
        h = rng.uniform(0.1, 0.3, size=m + nv)
        rows = np.einsum("kji,pi->pkj", B, xh)

        def too_slow(signum, frame):
            raise TimeoutError("the symbol search did not end within 20 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        try:
            bound = solver._symbol_sup(rows, h)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        found = 0.0
        for p in range(2):
            frame = np.vstack([np.eye(m), rows[p]])
            a = frame @ frame.T / np.outer(h, h)
            found = max(found, float(stencil_symbol(a, np.full((1, m + nv), np.pi))[0]))
            for start in rng.uniform(-np.pi, np.pi, size=(40, m + nv)):
                res = minimize(lambda t: -stencil_symbol(a, t[None])[0], start, method="L-BFGS-B")
                found = max(found, -res.fun)
        assert found <= bound * (1.0 + 1e-12)
        if nv <= 4:
            assert bound <= found * (1.0 + 1e-8)

    @pytest.mark.parametrize("chunk_nodes", [solver._CHUNK_NODES, 1000])
    @pytest.mark.parametrize("fields", [1, 3])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_shared_pass_matches_single_schemes(
        self, request, monkeypatch, group, fields, chunk_nodes
    ):
        # gauge_ball at 32^3 with this eps_sing has singular nodes near the
        # poles; m3n5 has two vertical directions (nv = 2).
        # A budget of 1000 nodes is below one row, so chunks are single rows.
        # The fields are the initial one and then Euler steps of it, all
        # through one reused engine.
        monkeypatch.setattr(solver, "_CHUNK_NODES", chunk_nodes)
        if group == "heisenberg":
            cfg = config(res=32, eps_sing=0.05, initial=InitialSpec(preset="gauge_ball"))
        else:
            g = request.getfixturevalue("m3n5")
            cfg = SolverConfig(g, ((-2.0, 2.0),) * 5, (10,) * 5,
                               initial=InitialSpec(preset="gauge_ball"))
        u = init(cfg).values
        eng = Engine(cfg)
        assert len(eng.chunks) > 1
        if group == "heisenberg":
            qq = [eng._derivatives(u, *chunk)[1].copy() for chunk in eng.chunks]
            assert sum(np.count_nonzero(q <= eng.eps2) for q in qq) > 0
        for _ in range(fields):
            shared = eng.operators(u, solver.SCHEMES)
            for scheme, op in zip(solver.SCHEMES, shared):
                np.testing.assert_array_equal(op, eng.operators(u, (scheme,))[0])
            u = euler_step(eng, u, eng.dt, "regularized")

    @pytest.mark.parametrize("schemes", [
        ("envelope_max",),
        ("envelope_min", "envelope_min"),
        ("envelope_max", "regularized", "envelope_min", "envelope_max", "regularized"),
    ])
    def test_every_listed_scheme_is_written(self, monkeypatch, schemes):
        # both envelopes go straight into their outputs, and each other
        # output, a lone envelope and a repeated scheme included, gets every
        # interior node: into nan-filled outputs, over one-row chunks
        monkeypatch.setattr(solver, "_CHUNK_NODES", 1)
        cfg = SolverConfig(HEIS, BOX, (11, 9, 7), eps_sing=1.0)
        u = np.random.default_rng(9).standard_normal(cfg.resolution)
        eng = Engine(cfg)
        qq = [eng._derivatives(u, *chunk)[1].copy() for chunk in eng.chunks]
        assert sum(np.count_nonzero(q <= eng.eps2) for q in qq) > 0
        for gap in (False, True):
            out = [np.full((9, 7, 5), np.nan) for _ in range(len(schemes) + gap)]
            got = eng.operators(u, schemes, gap=gap, out=out)
            assert all(a is b for a, b in zip(got, out))
            for scheme, op in zip(schemes, got):
                np.testing.assert_array_equal(op, eng.operators(u, (scheme,))[0])
            if gap:
                np.testing.assert_array_equal(got[-1], eng.operators(u, ("regularized",), gap=True)[1])

    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_envelopes_are_operator_bounds_of_the_solver_jets(self, request, monkeypatch, group):
        # the envelope schemes and the jet layer's operator_bounds are one
        # operator: fed the solver's own Xu and X2u at every interior node,
        # operator_bounds gives both envelopes bit for bit.  Both grids have
        # singular nodes (32 on m3n5 with this eps_sing).
        if group == "heisenberg":
            cfg = config(res=32, eps_sing=0.05, initial=InitialSpec(preset="gauge_ball"))
        else:
            g = request.getfixturevalue("m3n5")
            cfg = SolverConfig(g, ((-2.0, 2.0),) * 5, (10,) * 5, eps_sing=1.0,
                               initial=InitialSpec(preset="gauge_ball"))
        m = cfg.group.m
        jets = []
        contract = solver._contract

        def recorded(q, A, **kwargs):
            jets.append((
                np.array([qj.ravel() for qj in q]).T,
                np.array([[A[j, l].ravel() for l in range(m)] for j in range(m)]).transpose(2, 0, 1),
            ))
            return contract(q, A, **kwargs)

        monkeypatch.setattr(solver, "_contract", recorded)
        u = init(cfg).values
        eng = Engine(cfg)
        lower, upper = eng.operators(u, ("envelope_min", "envelope_max"))
        assert len(jets) == len(eng.chunks) > 1
        q, A = (np.concatenate(parts) for parts in zip(*jets))
        assert q.shape == (lower.size, m) and A.shape == (lower.size, m, m)
        bounds = operator_bounds(q, A, cfg.eps_sing_effective)
        assert np.count_nonzero(~bounds.regular) > 0
        np.testing.assert_array_equal(bounds.lower, lower.ravel())
        np.testing.assert_array_equal(bounds.upper, upper.ravel())

    def test_sandwich_run_differentiates_once_per_step(self, monkeypatch):
        rows = []
        derivatives = Engine._derivatives

        def counted(self, u, r0, r1):
            rows.extend(range(r0, r1))
            return derivatives(self, u, r0, r1)

        monkeypatch.setattr(Engine, "_derivatives", counted)
        res = run(config(res=12), record_sandwich=True)
        assert res.n_steps > 1
        assert sorted(rows) == sorted(list(range(1, 11)) * res.n_steps)

    def test_envelopes_share_one_eigvalsh_per_chunk(self, monkeypatch):
        # one sandwich step on the gauge ball: every chunk pass with singular
        # nodes decomposes their X2u once, for both envelope schemes
        cfg = config(res=32, eps_sing=0.05, initial=InitialSpec(preset="gauge_ball"))
        singular_chunks, eig_calls = [], []
        derivatives, eigvalsh = Engine._derivatives, np.linalg.eigvalsh

        def counted_derivatives(self, u, r0, r1):
            out = derivatives(self, u, r0, r1)
            singular_chunks.append(bool(np.any(out[1] <= self.eps2)))
            return out

        def counted_eigvalsh(a, *args, **kwargs):
            eig_calls.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(Engine, "_derivatives", counted_derivatives)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        u = init(cfg).values
        eng = Engine(cfg)
        eng.operators(u, solver.SCHEMES)
        assert len(singular_chunks) == len(eng.chunks) > 1
        assert sum(singular_chunks) > 0
        assert len(eig_calls) == sum(singular_chunks)

    def test_successive_calls_return_arrays_they_own(self):
        # the engine reuses its chunk workspace, never the arrays it returns
        cfg = config(res=10, eps_sing=0.1, initial=InitialSpec(preset="gauge_ball"))
        u = init(cfg).values
        eng = Engine(cfg)
        first = eng.operators(u, solver.SCHEMES, gap=True)
        second = eng.operators(u, solver.SCHEMES, gap=True)
        arrays = [u] + first + second
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("chunk_nodes", [solver._CHUNK_NODES, 1])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5", "mixed"])
    def test_derivatives_match_the_whole_interior_reference(
        self, request, monkeypatch, group, chunk_nodes
    ):
        # bit for bit, on non-cubic grids and random u, in one chunk and in
        # one-row chunks (a budget of 1 node is below one row), so the first
        # and last stencil windows and the order of operations are pinned.
        # eps_sing leaves both regular and singular nodes.  Between them the
        # groups hold every class of frame coefficient: no x_0 term (zero
        # ones included), x_0 alone (heisenberg, m3n5) and x_0 with another
        # coordinate (mixed).
        monkeypatch.setattr(solver, "_CHUNK_NODES", chunk_nodes)
        if group == "heisenberg":
            cfg = SolverConfig(HEIS, BOX, (11, 9, 7), eps_sing=1.0)
        elif group == "m3n5":
            g = request.getfixturevalue("m3n5")
            cfg = SolverConfig(g, ((-2.0, 2.0),) * 5, (6, 7, 5, 6, 8), eps_sing=3.0)
        else:
            cfg = SolverConfig(MIXED, ((-2.0, 2.0),) * 4, (7, 6, 5, 6), eps_sing=3.0)
        u = np.random.default_rng(7).standard_normal(cfg.resolution)
        eng = Engine(cfg)
        assert len(eng.chunks) == (1 if chunk_nodes > 1000 else cfg.resolution[0] - 2)
        trA, qq, qAq, A = reference_derivatives(cfg, u)
        for r0, r1 in eng.chunks:
            rows = slice(r0 - 1, r1 - 1)
            got = eng._derivatives(u, r0, r1)
            for ref, value in zip((trA, qq, qAq), got):
                np.testing.assert_array_equal(value, ref[rows])
            assert got[3].keys() == A.keys()
            for key in A:
                np.testing.assert_array_equal(got[3][key], A[key][rows])

        singular = qq <= eng.eps2
        assert 0 < np.count_nonzero(singular) < singular.size
        delta2 = eng.delta2
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(qq > 0.0, (qAq * delta2) / (qq * (qq + delta2)), 0.0)
        bounds = _bounds(trA, qq, qAq, A, eng.eps2)
        expected = [-trA + qAq / (qq + delta2), bounds.lower, bounds.upper, gap]
        for value, ref in zip(eng.operators(u, solver.SCHEMES, gap=True), expected):
            np.testing.assert_array_equal(value, ref)

    @pytest.mark.parametrize("group", ["heisenberg", "mixed"])
    def test_frame_operands_take_the_shape_of_their_class(self, monkeypatch, group):
        # b_k[j] without an x_0 term, and the product of two, are prefixes of
        # the blocks that the plan of a longest chunk holds whole, in every
        # chunk's plan; any other, the horizontal-only broadcast shape
        monkeypatch.setattr(solver, "_CHUNK_NODES", 105)  # chunks of two lengths
        g, res = (HEIS, (12, 9, 7)) if group == "heisenberg" else (MIXED, (7, 6, 5, 6))
        eng = Engine(SolverConfig(g, ((-2.0, 2.0),) * g.n, res))
        inner = tuple(r - 2 for r in res[1:])
        cap = max(r1 - r0 for r0, r1 in eng.chunks)
        assert len({r1 - r0 for r0, r1 in eng.chunks}) == 2
        _, bb, bbbb, _ = eng._plans[next(c for c in eng.chunks if c[1] - c[0] == cap)]
        held = {key: a for key, a in {**bb, **bbbb}.items() if a.shape == (cap,) + inner}
        assert sorted(held) == [(0, 0), (0, 0, 0, 0)]
        assert all(block.flags.c_contiguous for block in held.values())
        for (r0, r1), (_, bb, bbbb, _) in eng._plans.items():
            rows = r1 - r0
            wide = (rows,) + inner[: g.m - 1] + (1,) * g.nv
            for a, block in ((bb[0, 0], held[0, 0]), (bbbb[0, 0, 0, 0], held[0, 0, 0, 0])):
                assert np.shares_memory(a, block) and a.shape == (rows,) + inner
                assert a.ctypes.data == block.ctypes.data
            assert bbbb[0, 0, 0, 1].shape == wide
            if group == "heisenberg":
                assert bb[0, 1].shape == bbbb[0, 1, 0, 1].shape == wide
            else:
                assert bb[0, 1].shape == bb[0, 2].shape == bbbb[0, 1, 0, 2].shape == wide

    def test_operators_give_the_same_bits_on_any_memory_layout(self):
        # the stencil windows slice u flat, so operators reads a Fortran-ordered
        # u or a negative-stride view through one C-ordered copy
        cfg = SolverConfig(HEIS, BOX, (11, 9, 7), eps_sing=1.0)
        u = np.random.default_rng(8).standard_normal(cfg.resolution)
        eng = Engine(cfg)
        expected = eng.operators(u, solver.SCHEMES, gap=True)
        for layout in (np.asfortranarray(u), np.flip(np.flip(u).copy())):
            assert not layout.flags.c_contiguous
            np.testing.assert_array_equal(layout, u)
            for value, ref in zip(eng.operators(layout, solver.SCHEMES, gap=True), expected):
                np.testing.assert_array_equal(value, ref)

    def test_operators_refuse_a_grid_of_another_shape(self):
        eng = Engine(SolverConfig(HEIS, BOX, (11, 9, 7)))
        for shape in ((11, 9, 8), (9, 11, 7), (11 * 9 * 7,)):
            with pytest.raises(ValueError, match="shape"):
                eng.operators(np.zeros(shape), ("regularized",))

    def test_operators_refuse_an_out_that_overlaps_u(self):
        # later chunks read rows of u that an aliased out would already hold
        # results in; u stays untouched by the refused call
        cfg = SolverConfig(HEIS, BOX, (11, 9, 7))
        u = np.random.default_rng(4).standard_normal(cfg.resolution)
        before = u.copy()
        eng = Engine(cfg)
        inner = u[1:-1, 1:-1, 1:-1]
        apart = np.zeros(inner.shape)
        for out in ([inner], [apart, inner], [u.reshape(-1)[: inner.size].reshape(inner.shape)]):
            with pytest.raises(ValueError, match="overlap"):
                eng.operators(u, solver.SCHEMES[: len(out)], out=out)
        assert u.tobytes() == before.tobytes()
        eng.operators(u, ("regularized",), out=[apart])

    def test_step_refuses_another_shape_and_a_new_that_overlaps_u(self):
        # later chunks read rows of u that an aliased new would already hold
        cfg = SolverConfig(HEIS, BOX, (11, 9, 7))
        eng, u = Engine(cfg), np.zeros(cfg.resolution)
        for pair in ((np.zeros((11, 9, 8)), u), (u, np.zeros((9, 11, 7))), (u, u), (u, u[:, ::-1])):
            with pytest.raises(ValueError, match="overlap"):
                eng.step(*pair, eng.dt, (0, 11))

    def test_operator_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            Engine(config()).operators(init(config()).values, ("godunov",))

    def test_derivatives_exact_on_quadratics(self):
        # the one finite-difference stencil against the exact-jet oracle:
        # central differences, four-point mixed terms included, are exact on
        # quadratics, so tr X2u, |Xu|^2 and Xu.X2u.Xu agree at every node
        x0, x1, x2 = Coord(0), Coord(1), Coord(2)
        field = ScalarField(2.0 * x0 ** 2 - x0 * x1 + 3.0 * x2 - x1 * x2 + 1.0, HEIS)
        cfg = SolverConfig(HEIS, ((-1.0, 1.0),) * 3, (8,) * 3)
        grid = GridField(cfg.box, np.zeros(cfg.resolution))
        xs = np.stack(np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij"), axis=-1)
        u = field(xs.reshape(-1, 3)).reshape(cfg.resolution)
        trA, qq, qAq, _ = Engine(cfg)._derivatives(u, 1, cfg.resolution[0] - 1)

        pts = xs[1:-1, 1:-1, 1:-1].reshape(-1, 3)
        j = field.jet(pts)
        q = horizontal_gradient(HEIS, j, pts)
        A = horizontal_hessian(HEIS, j, pts)
        shape = trA.shape
        np.testing.assert_allclose(trA, np.trace(A, axis1=1, axis2=2).reshape(shape), rtol=0, atol=1e-11)
        np.testing.assert_allclose(qq, np.einsum("pi,pi->p", q, q).reshape(shape), rtol=0, atol=1e-11)
        np.testing.assert_allclose(
            qAq, np.einsum("pi,pij,pj->p", q, A, q).reshape(shape), rtol=0, atol=1e-11
        )

    @pytest.mark.parametrize("sandwich", [False, True])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_a_step_split_at_a_chunk_start_equals_one_step(self, request, monkeypatch, group, sandwich):
        # step over rows (0, cut) and then (cut, N_0), as run's parent and
        # worker take them, writes the bytes of one step over all rows into a
        # slab that starts as nan, so a skipped face row shows.  Each part
        # returns the figures of its own rows, nonzero gap included, so a
        # skipped bracket shows, and combined they are the single step's
        cfg = dataclasses.replace(gauge_config(request, group), delta_reg=1e-8 * math.sqrt(48.0))
        if group == "m3n5":
            monkeypatch.setattr(solver, "_CHUNK_NODES", 1120)  # two rows of 560 nodes
        eng = Engine(cfg)
        assert len(eng.chunks) == (2 if group == "heisenberg" else 3)
        u, size, dt, inner = init(cfg).values, cfg.resolution[0], eng.dt, (slice(1, -1),) * cfg.group.n
        whole = np.full(cfg.resolution, np.nan)
        single = eng.step(u, whole, dt, (0, size), sandwich)
        _, low, high, gap = eng.operators(u, solver.SCHEMES, gap=True)
        shift = gap * dt
        limit = whole[inner] - shift
        below, above = (u[inner] - high * dt) - limit, limit - (u[inner] - low * dt)

        def figures(r0, r1):
            own = slice(max(r0, 1) - 1, min(r1, size - 1) - 1)
            bracket = (max(float(np.max(below[own], initial=0.0)), float(np.max(above[own], initial=0.0))),
                       float(np.max(np.abs(shift[own]), initial=0.0))) if sandwich else (0.0, 0.0)
            return (float(np.max(whole[r0:r1])), float(np.min(whole[r0:r1])), *bracket)

        assert single == figures(0, size)
        for cut in [r0 for r0, _ in eng.chunks[1:]]:
            new = np.full(cfg.resolution, np.nan)
            parts = [eng.step(u, new, dt, (0, cut), sandwich), eng.step(u, new, dt, (cut, size), sandwich)]
            assert new.tobytes() == whole.tobytes()
            assert parts == [figures(0, cut), figures(cut, size)]
            assert all(part[3] > 0.0 for part in parts) == sandwich
            tops, bottoms, violations, gaps = zip(*parts)
            assert (max(tops), min(bottoms), max(violations), max(gaps)) == single


class TestStepExactness:
    def test_one_step_tracks_exact_cylinder(self):
        cfg = config(res=16)
        grid = init(cfg)
        eng = Engine(cfg)
        new = GridField(grid.box, euler_step(eng, grid.values, eng.dt), eng.dt)
        inner = (slice(1, -1),) * 3
        exact = exact_cylinder_values(new, new.time)
        assert np.max(np.abs(new.values[inner] - exact[inner])) < 1e-10

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    def test_additive_constant_invariance(self, scheme):
        cfg = config(scheme=scheme)
        u = init(cfg).values
        eng = Engine(cfg)
        a = euler_step(eng, u, eng.dt)
        b = euler_step(eng, u + 5.0, eng.dt)
        assert np.max(np.abs(b - (a + 5.0))) < 1e-12

    def test_linear_data_is_stationary(self):
        cfg = config()
        grid = init(cfg)
        xs = np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij")
        u = 0.3 * xs[0] + 0.1 * xs[1]
        eng = Engine(cfg)
        new = euler_step(eng, u, eng.dt)
        inner = (slice(1, -1),) * 3
        np.testing.assert_allclose(new[inner], u[inner], atol=1e-15)

    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_flat_euler_update_matches_the_interior_view_update(self, request, group):
        # _euler forms u - dt op over whole rows, boundary columns included;
        # after the fill that must leave the bits of the interior-view update,
        # from init's array and from a slab, into a zero-filled out and into
        # an out whose nodes hold nan and +-inf, warning-free
        cfg = gauge_config(request, group)
        eng = Engine(cfg)
        inner = (slice(1, -1),) * len(cfg.resolution)
        first = init(cfg).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (first, euler_step(eng, first, eng.dt)):
                expected = np.zeros(cfg.resolution)
                eng.operators(u, (cfg.scheme,), out=[expected[inner]])
                interior_view_euler(u, eng.dt, expected)
                out = np.full(cfg.resolution, np.nan)
                out.reshape(-1)[::3] = np.inf
                out.reshape(-1)[1::3] = -np.inf
                for got in (euler_step(eng, u, eng.dt), euler_step(eng, u, eng.dt, out=out)):
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()


class TestSchemeSandwich:
    def test_regularized_update_between_envelopes(self):
        res = run(config(t_end=0.05), record_sandwich=True)
        assert res.sandwich_max_violation is not None
        assert res.sandwich_max_violation < 1e-12
        assert res.n_steps > 10

    def test_regularization_gap_is_reported_apart_and_scales_with_delta_squared(self):
        # the regularized update leaves the envelope bracket by dt delta^2
        # |qAq| / (|q|^2 (|q|^2 + delta^2)) per step; that is the recorded
        # gap, while the violation of the widened bracket stays rounding
        delta = 1e-6 * math.sqrt(48.0)
        small = run(config(t_end=0.05, delta_reg=delta), record_sandwich=True)
        large = run(config(t_end=0.05, delta_reg=10.0 * delta), record_sandwich=True)
        assert small.sandwich_max_violation < 1e-14 and large.sandwich_max_violation < 1e-14
        assert small.regularization_gap > 0.0
        assert large.regularization_gap / small.regularization_gap == pytest.approx(100.0, rel=1e-3)
        assert run(config(), record_sandwich=False).regularization_gap is None

    @pytest.mark.parametrize("fault", ["regular", "singular"])
    def test_violation_shows_envelopes_out_of_order(self, monkeypatch, fault):
        # taking the known gap out must not hide a fault in the schemes, also
        # at singular nodes, where the gap is largest: envelope values off by
        # 1e-6 at regular nodes, or eigenvalues scaled by 0.9 at singular ones
        cfg = config(res=32, t_end=0.005, eps_sing=0.05, initial=InitialSpec(preset="gauge_ball"))
        assert run(cfg, record_sandwich=True).sandwich_max_violation < 1e-13
        if fault == "regular":
            bounds = solver._bounds

            def faulty(*args, **kwargs):
                b = bounds(*args, **kwargs)
                off = np.where(b.regular, 1e-6, 0.0)
                return b._replace(lower=b.lower + off, upper=b.upper + off)

            monkeypatch.setattr(solver, "_bounds", faulty)
        else:
            eigvalsh = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: 0.9 * eigvalsh(a))
        res = run(cfg, record_sandwich=True)
        if fault == "regular":
            assert res.sandwich_max_violation == pytest.approx(1e-6 * res.dt, rel=1e-3)
        else:
            assert res.sandwich_max_violation > 1e-8

    def test_recording_requires_regularized_trajectory(self):
        with pytest.raises(ValueError, match="regularized"):
            run(config(scheme="envelope_min"), record_sandwich=True)


class TestRun:
    def test_snapshot_cadence(self):
        res = run(config(res=10, t_end=0.3, snapshot_every=0.1))
        assert len(res.snapshots) == 4
        assert res.snapshots[0].time == 0.0
        for snap, target in zip(res.snapshots[1:], (0.1, 0.2, 0.3)):
            assert abs(snap.time - target) <= res.dt
        assert res.snapshots[-1].time == pytest.approx(0.3, abs=1e-9)

    def test_cadence_below_dt_snapshots_every_step(self):
        # a cadence far below dt must not walk through its marks one by one
        def too_slow(signum, frame):
            raise TimeoutError("run did not return within 20 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        try:
            res = run(config(res=6, t_end=0.03, snapshot_every=1e-20))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.n_steps > 1
        assert len(res.snapshots) == res.n_steps + 1
        np.testing.assert_allclose(
            [s.time for s in res.snapshots[1:-1]], res.dt * np.arange(1, res.n_steps), rtol=1e-12
        )

    def test_final_slab_without_cadence(self):
        res = run(config(res=10, t_end=0.05))
        assert len(res.snapshots) == 2
        assert res.snapshots[-1].time == pytest.approx(0.05, abs=1e-9)

    def test_stationary_negative_data_extinct_at_zero(self):
        res = run(config(initial=InitialSpec(r=-0.5)))
        assert res.extinction_time == 0.0
        assert res.n_steps == 0 and len(res.snapshots) == 1

    def test_extinction_emits_final_slab(self):
        cfg = config(res=12, t_end=1.0)
        res = run(cfg)
        assert res.extinction_time is not None
        assert 0.3 < res.extinction_time < 0.6  # exact value is 0.5
        assert res.snapshots[-1].time == pytest.approx(res.extinction_time)
        inner = res.snapshots[-1].values[1:-1, 1:-1, 1:-1]
        assert not np.any(inner > 0)

    def test_on_snapshot_callback_sees_every_snapshot(self):
        # each snapshot goes to the callback alone: the times and bits of a
        # run without one, and run keeps none of them
        cfg = config(res=10, t_end=0.05)
        seen = []
        res = run(cfg, on_snapshot=seen.append)
        assert res.snapshots == []
        reference = run(cfg).snapshots
        assert [g.time for g in seen] == [s.time for s in reference]
        for g, snap in zip(seen, reference, strict=True):
            np.testing.assert_array_equal(g.values, snap.values)

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_snapshots_own_their_values(self, sandwich):
        # steps write a reused pair of slabs (run's u at the end of a step);
        # what on_snapshot saw (copied then) is what its snapshots hold when
        # the run has returned, no snapshot shares memory with another or
        # with a slab, and snapshot 0 keeps the initial data
        slabs, seen, snapshots = {}, [], []

        def recorded(snap):
            seen.append(snap.values.copy())
            snapshots.append(snap)
            u = run_locals().get("u")  # unbound before the first step
            if u is not None:
                slabs[id(u)] = u

        cfg = config(res=10, t_end=0.01, snapshot_every=1e-9)
        res = run(cfg, record_sandwich=sandwich, on_snapshot=recorded)
        assert res.n_steps > 2 and len(snapshots) == res.n_steps + 1 == len(seen)
        assert len(slabs) == 2
        for values, snap in zip(seen, snapshots):
            np.testing.assert_array_equal(values, snap.values)
        np.testing.assert_array_equal(snapshots[0].values, init(cfg).values)
        arrays = [snap.values for snap in snapshots] + list(slabs.values())
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_a_step_allocates_no_full_grids(self, sandwich):
        # with a snapshot after every step, one step and one snapshot copy
        # (1.3 interior grids here) lie between two calls of on_snapshot.
        # After the first two steps, which build the engine, its workspace
        # and its stencil data, that must allocate less than three interior
        # grids at its peak.
        cfg = config(res=24, t_end=0.006, snapshot_every=1e-9, initial=InitialSpec(preset="gauge_ball"))
        grid = 22 ** 3 * 8
        rises, start = [], []

        def measure(snap):
            rises.append(tracemalloc.get_traced_memory()[1] - start[-1])
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            start.append(tracemalloc.get_traced_memory()[0])
            res = run(cfg, record_sandwich=sandwich, on_snapshot=measure)
        finally:
            tracemalloc.stop()
        assert res.n_steps >= 6 and len(rises) == res.n_steps + 1
        assert max(rises[3:]) < 3 * grid, [round(r / grid, 2) for r in rises]

    def test_memory_stays_flat_as_snapshots_are_added(self):
        # with on_snapshot, run keeps no snapshot: its traced peak on a 16^3
        # gauge ball with a snapshot after every step moves by less than
        # one grid between 5 and 40 steps
        grid = 16 ** 3 * 8
        cfg = config(res=16, snapshot_every=1e-9, initial=InitialSpec(preset="gauge_ball"))
        dt, peaks = Engine(cfg).dt, []
        for steps in (5, 40):
            tracemalloc.start()
            try:
                res = run(dataclasses.replace(cfg, t_end=steps * dt), on_snapshot=lambda snap: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.n_steps == steps and res.extinction_time is None
        assert abs(peaks[1] - peaks[0]) < grid, [round(p / grid, 1) for p in peaks]

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_a_fresh_engines_first_step_allocates_no_workspace(self, request, sandwich):
        # the engine builds every chunk's plan, workspace and frame blocks
        # when it is made, so that its first step peaks below one float
        # array of the longest chunk's interior shape
        cfg = gauge_config(request, "heisenberg")
        u, new = init(cfg).values, np.zeros(cfg.resolution)
        eng = Engine(cfg)
        rows = max(r1 - r0 for r0, r1 in eng.chunks)
        chunk = rows * math.prod(r - 2 for r in cfg.resolution[1:]) * 8
        tracemalloc.start()
        try:
            eng.step(u, new, eng.dt, (0, cfg.resolution[0]), sandwich)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk, peak / chunk

    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_held_arrays_start_on_64_byte_boundaries(self, request, group):
        # after a plain and a sandwich step: both slabs (read from run's frame
        # at the end of each step), every float view of each chunk's
        # workspace, the gap buffer included, the held frame blocks and the
        # first element of each flat window lie on a 64-byte boundary,
        # wherever malloc put them
        held = {}

        def recorded(snap):
            frame = run_locals()
            if "u" in frame:  # after a step: u is the slab it wrote
                held[id(frame["u"])] = frame["u"]
                held["engine"] = frame["eng"]

        cfg = gauge_config(request, group)
        cfg = dataclasses.replace(cfg, t_end=2.5 * Engine(cfg).dt, snapshot_every=1e-9)
        for sandwich in (False, True):
            held.clear()
            assert run(cfg, record_sandwich=sandwich, on_snapshot=recorded).n_steps == 3
            eng = held.pop("engine")
            views = {}
            for chunk, (_, bb, bbbb, w) in eng._plans.items():
                views.update({f"d1[{a}] at {chunk}": d for a, d in enumerate(w.d1)})
                views.update({f"d2{key} at {chunk}": d for key, d in w.d2.items()})
                for name in ("acc", "tmp", "flags", "diff", "twice", "shifted", "gap"):
                    views[f"{name} at {chunk}"] = getattr(w, name)
                views.update({f"contract[{i}] at {chunk}": a for i, a in enumerate(w.contract)})
                views.update({f"bounds[{i}] at {chunk}": a for i, a in enumerate(w.bounds)})
                views.update({f"frame block {key} at {chunk}": a for key, a in {**bb, **bbbb}.items()
                              if a.shape == w.acc.shape})
            assert len(held) == 2
            assert any(name.startswith("frame block") for name in views)
            for name, a in list(held.items()) + list(views.items()):
                assert a.ctypes.data % 64 == 0, name

    @pytest.mark.parametrize("preset, res", [("gauge_ball", 24), ("cylinder", 12)])
    def test_extinction_reads_the_finiteness_max(self, preset, res):
        # run decides extinction from the slab's max, which its finiteness
        # check takes: after the boundary fill it is the interior max, bit
        # for bit, at every step of a run to extinction
        steps = []
        cfg = config(res=res, t_end=1.0, snapshot_every=1e-9, initial=InitialSpec(preset=preset))

        def check(grid):
            v = grid.values
            top = np.max(v)
            assert top.tobytes() == np.max(v[1:-1, 1:-1, 1:-1]).tobytes()
            steps.append((grid.time, bool(top > 0.0), solver._has_positive_interior(v)))

        result = run(cfg, on_snapshot=check)
        assert result.extinction_time is not None and len(steps) == result.n_steps + 1
        positive = [interior for _, _, interior in steps]
        assert [full for _, full, _ in steps] == positive
        assert all(positive[:-1]) and not positive[-1]
        assert result.extinction_time == steps[-1][0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_step_raises(self, monkeypatch):
        make_unstable(monkeypatch)
        cfg = config(initial=InitialSpec(r=-1.0), t_end=500.0)
        with pytest.raises(RuntimeError, match="nonfinite"):
            with np.errstate(all="ignore"):
                run(cfg)


def make_unstable(monkeypatch):
    """A step 1000 times the stable dt on data with a checkerboard bump of
    1e3, so that a run turns nonfinite within a few steps."""
    orig_engine_init = Engine.__init__
    orig_sample = solver._sample_initial

    def oversized_dt(self, cfg):
        orig_engine_init(self, cfg)
        self.dt *= 1000.0

    def seeded(cfg):
        vals = orig_sample(cfg)
        idx = np.indices(vals.shape).sum(axis=0)
        bump = 1e3 * np.where(idx % 2 == 0, 1.0, -1.0)
        vals[1:-1, 1:-1, 1:-1] += bump[1:-1, 1:-1, 1:-1]
        return vals

    monkeypatch.setattr(Engine, "__init__", oversized_dt)
    monkeypatch.setattr(solver, "_sample_initial", seeded)


def off_center_ball(cfg):
    """0.25 - |x - (1, 0, ..., 0)|^2 on the grid: a ball whose nodes all lie in
    the later half of the rows of axis 0."""
    x = np.meshgrid(*solver._axis_coords(cfg), indexing="ij")
    u = 0.25 - (x[0] - 1.0) ** 2
    for xa in x[1:]:
        u = u - xa ** 2
    return u


def run_locals():
    """The local variables of the innermost run call on the caller's stack:
    from on_snapshot, what run holds at the end of a step."""
    frame = sys._getframe(1)
    while frame.f_code.co_name != "run":
        frame = frame.f_back
    return frame.f_locals


@contextlib.contextmanager
def deadline(seconds=20):
    """Raise TimeoutError in this process if the block runs for longer."""
    def too_slow(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def counted_forks(monkeypatch):
    """The pids that os.fork returns in this process from now on."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_steps(cfg, sandwich, euler=Engine._euler):
    """run's steps in this process, each an operators pass over every chunk
    and an _euler update (the method as defined, whatever a test patches):
    yields (t, slab) per step and returns what run returns besides its
    snapshots."""
    eng = Engine(cfg)
    inner = (slice(1, -1),) * len(cfg.resolution)
    schemes = solver.SCHEMES if sandwich else (cfg.scheme,)
    u = init(cfg).values
    t, steps, violation, gap, extinct = 0.0, 0, 0.0, 0.0, None
    while t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        dt = min(eng.dt, cfg.t_end - t)
        ops = eng.operators(u, schemes, gap=sandwich)
        new = np.zeros(cfg.resolution)
        new[inner] = ops[0]
        euler(eng, u, dt, new, (0, len(new)))
        if sandwich:
            shift = ops[3] * dt
            limit = new[inner] - shift
            hi, lo = u[inner] - ops[1] * dt, u[inner] - ops[2] * dt
            violation = max(violation, float(np.max(lo - limit, initial=0.0)),
                            float(np.max(limit - hi, initial=0.0)))
            gap = max(gap, float(np.max(np.abs(shift), initial=0.0)))
        u, t, steps = new, t + dt, steps + 1
        yield t, u
        if not np.max(u) > 0.0:
            extinct = t
            break
    return (extinct, eng.dt, steps) + ((violation, gap) if sandwich else (None, None))


def run_against_serial_steps(monkeypatch, cfg, sandwich):
    """run cfg with a snapshot after every step, which must equal the slab of
    serial_steps bit for bit, with one worker forked; every result field
    must equal serial_steps' too.  Returns the result, the step times, the
    last slab of serial_steps and the snapshots that run emitted."""
    reference = serial_steps(cfg, sandwich)
    times, slabs, snapshots = [], [], []

    def compared(snap):
        snapshots.append(snap)
        if snap.time > 0.0:
            t, slab = next(reference)
            np.testing.assert_array_equal(snap.values, slab)
            assert snap.time == t
            times.append(t)
            slabs[:] = [slab]

    pids = counted_forks(monkeypatch)
    res = run(dataclasses.replace(cfg, snapshot_every=1e-9), record_sandwich=sandwich,
              on_snapshot=compared)
    with pytest.raises(StopIteration) as stop:
        next(reference)
    assert len(pids) == 1
    assert (res.extinction_time, res.dt, res.n_steps,
            res.sandwich_max_violation, res.regularization_gap) == stop.value.value
    return res, times, slabs[0], snapshots


class TestWorker:
    """run on grids of two or more chunks, where a forked worker steps the
    later rows of every step in shared slabs."""

    @pytest.mark.parametrize("sandwich", [False, True])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_run_equals_the_serial_steps_bit_for_bit(self, request, monkeypatch, group, sandwich):
        # every slab the run's steps write, and every field of the result,
        # equal those of one process stepping through all chunks: the 32^3
        # gauge ball to extinction, and m3n5 in an odd number of chunks
        cfg = dataclasses.replace(gauge_config(request, group), cfl=0.5, t_end=0.6,
                                  delta_reg=1e-8 * math.sqrt(48.0))
        if group == "m3n5":
            monkeypatch.setattr(solver, "_CHUNK_NODES", 1120)  # two rows of 560 nodes
        chunks = len(Engine(cfg).chunks)
        assert chunks == (2 if group == "heisenberg" else 3)
        res, times, slab, snapshots = run_against_serial_steps(monkeypatch, cfg, sandwich)
        assert res.n_steps == len(times) > 5
        assert res.extinction_time == times[-1]
        assert [snap.time for snap in snapshots] == [0.0, *times]
        np.testing.assert_array_equal(snapshots[0].values, init(cfg).values)
        np.testing.assert_array_equal(snapshots[-1].values, slab)

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_a_final_shorter_step_equals_the_serial_steps_bit_for_bit(self, request, monkeypatch, sandwich):
        # t_end off the dt lattice: the last step is half as long, and the
        # worker must take its dt from the step, not from the engine
        cfg = gauge_config(request, "heisenberg")
        dt = Engine(cfg).dt
        cfg = dataclasses.replace(cfg, t_end=5.5 * dt)
        res, times, slab, snapshots = run_against_serial_steps(monkeypatch, cfg, sandwich)
        assert res.n_steps == len(times) == 6 and res.extinction_time is None
        assert times[-1] - times[-2] == pytest.approx(0.5 * dt, rel=1e-9)
        assert [snap.time for snap in snapshots] == [0.0, *times]
        np.testing.assert_array_equal(snapshots[-1].values, slab)

    def test_a_grid_of_one_chunk_forks_nothing(self, monkeypatch):
        cfg = config(res=12)
        assert len(Engine(cfg).chunks) == 1
        pids = counted_forks(monkeypatch)
        for sandwich in (False, True):
            assert run(cfg, record_sandwich=sandwich).n_steps > 1
        assert pids == []

    def test_a_killed_worker_makes_run_raise(self, monkeypatch):
        pids = counted_forks(monkeypatch)

        def kill(snap):
            if snap.time > 0.0 and len(pids) == 1:
                os.kill(pids.pop(), signal.SIGKILL)

        with deadline(20):
            with pytest.raises(RuntimeError, match="worker failed: .* status -9"):
                run(config(res=32, t_end=1.0, snapshot_every=1e-9), on_snapshot=kill)
        assert pids == []
        assert_no_child()

    def test_the_workers_exception_reaches_run(self, monkeypatch):
        parent, chunk_pass = os.getpid(), Engine._pass

        def failing(self, *args, **kwargs):
            if os.getpid() != parent:
                raise ZeroDivisionError("the worker's share")
            return chunk_pass(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "_pass", failing)
        with deadline(20):
            with pytest.raises(RuntimeError, match="ZeroDivisionError: the worker's share"):
                run(config(res=32))
        assert_no_child()

    @pytest.mark.parametrize("process", ["worker", "parent"])
    def test_a_nan_in_one_process_rows_makes_run_raise(self, monkeypatch, process):
        # one nan at the first step, written by one process into the operator
        # value of a node in its own rows, fails the finiteness check that
        # combines the two processes' maxima and minima
        parent, chunk_pass = os.getpid(), Engine._pass

        def poisoned(self, u, r0, r1, schemes, gap, blocks):
            chunk_pass(self, u, r0, r1, schemes, gap, blocks)
            if (os.getpid() == parent) == (process == "parent"):
                blocks[0][(r1 - r0) // 2, 5, 5] = np.nan

        monkeypatch.setattr(Engine, "_pass", poisoned)
        pids = counted_forks(monkeypatch)
        with deadline(20):
            with pytest.raises(RuntimeError, match="nonfinite values after step 1 "):
                run(config(res=32))
        assert len(pids) == 1
        assert_no_child()

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_extinction_in_the_workers_rows_only(self, monkeypatch, sandwich):
        # a ball whose nodes are all in the worker's rows: the run goes
        # extinct when the serial steps do, not when the parent's rows are,
        # and the sandwich maxima, taken where the ball is, are serial's
        monkeypatch.setattr(solver, "_sample_initial", off_center_ball)
        cfg = config(res=32, cfl=0.5, t_end=1.0)
        cut = Engine(cfg).chunks[1][0]
        res, times, _, snapshots = run_against_serial_steps(monkeypatch, cfg, sandwich)
        assert res.extinction_time == times[-1] and res.n_steps > 5
        assert max(np.max(snap.values[:cut]) for snap in snapshots) < 0.0

    @pytest.mark.parametrize("sandwich", [False, True])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_several_chunks_per_process_equal_the_serial_steps_bit_for_bit(
        self, request, monkeypatch, group, sandwich
    ):
        # each process steps three or more chunks: its step combines every
        # chunk's violation and gap, and its first and last chunk's Euler
        # rows reach row 0 and row N_0 - 1.  The off-centre ball puts the
        # largest violation and gap in the worker's middle chunks, away from
        # either process's last chunk
        monkeypatch.setattr(solver, "_sample_initial", off_center_ball)
        if group == "heisenberg":
            monkeypatch.setattr(solver, "_CHUNK_NODES", 3600)  # four rows of 900 nodes
            cfg = config(res=32, cfl=0.5, t_end=1.0)
        else:
            monkeypatch.setattr(solver, "_CHUNK_NODES", 1250)  # two rows of 625 nodes
            cfg = SolverConfig(request.getfixturevalue("m3n5"), ((-2.0, 2.0),) * 5,
                               (14, 7, 7, 7, 7), cfl=0.5, t_end=1.0)
        # chunks of near-equal rows, which run halves between the processes
        assert len(Engine(cfg).chunks) == (8 if group == "heisenberg" else 6)
        res, times, _, _ = run_against_serial_steps(monkeypatch, cfg, sandwich)
        assert res.extinction_time == times[-1] and res.n_steps > 5
        if sandwich:
            assert res.sandwich_max_violation > 0.0 and res.regularization_gap > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_step_leaves_no_child(self, monkeypatch):
        make_unstable(monkeypatch)
        cfg = config(res=32, initial=InitialSpec(r=-1.0), t_end=500.0)
        assert len(Engine(cfg).chunks) == 2
        pids = counted_forks(monkeypatch)
        with deadline(20):
            with pytest.raises(RuntimeError, match="nonfinite"):
                with np.errstate(all="ignore"):
                    run(cfg)
        assert len(pids) == 1
        assert_no_child()

    def test_evolve_writes_every_step_alongside_the_worker(self, tmp_path, capsys, monkeypatch):
        # a snapshot writer forked at every step, while the worker runs:
        # evolve returns with no child left, and writes the run's bytes
        doc = {"domain": {"box": [[-2, 2]] * 3, "resolution": [32] * 3},
               "run": {"t_end": 0.001, "snapshot_every": 1e-9}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        pids = counted_forks(monkeypatch)
        with deadline(20):
            assert cli.main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        monkeypatch.undo()
        assert_no_child()
        snapshots = run(cli.build_solver_config(doc, heisenberg())).snapshots
        assert len(pids) == 1 + len(snapshots) > 5
        for i, snap in enumerate(snapshots):
            write_snapshot_csv(snap, tmp_path / "ref.csv")
            written = tmp_path / "run" / f"snap_{i:04d}.csv"
            assert written.read_bytes() == (tmp_path / "ref.csv").read_bytes()



class TestFront:
    def test_cylinder_front_radius(self):
        cloud = extract_front(init(config(res=32)))
        r = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
        h = 4.0 / 32
        assert cloud.points.shape[1] == 3 and len(r) > 100
        assert np.max(np.abs(r - 1.0)) <= h**2 / 4

    def test_gauge_front_on_level_set(self):
        cfg = config(res=24, initial=InitialSpec(preset="gauge_ball"))
        cloud = extract_front(init(cfg))
        pts = cloud.points
        G = (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 2 + 4.0 * pts[:, 2] ** 2
        assert np.max(np.abs(G - 1.0)) <= 0.5 * (4.0 / 24)

    def test_no_front_in_one_phase_data(self):
        grid = GridField(BOX, np.full((6, 6, 6), -3.0))
        assert extract_front(grid).points.shape == (0, 3)

    def test_exact_zero_node_is_a_front_point(self):
        vals = np.full((6, 6, 6), -1.0)
        vals[2, 3, 1] = 0.0
        grid = GridField(BOX, vals)
        cloud = extract_front(grid)
        want = [grid.axis_coords(a)[i] for a, i in enumerate((2, 3, 1))]
        assert any(np.allclose(p, want) for p in cloud.points)

    def test_nonzero_level(self):
        grid = init(config(res=24))
        cloud = extract_front(grid, level=0.75)  # cylinder of radius 1/2
        r = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
        assert np.max(np.abs(r - 0.5)) <= (4.0 / 24) ** 2


class TestIndicators:
    def test_no_gap_along_a_generic_run(self):
        # the indicators of {u >= 0} and {u > 0} differ exactly on nodes
        # where u == 0; after t = 0 a generic run has none
        res = run(config(res=10, t_end=0.05, snapshot_every=0.02))
        assert len(res.snapshots) > 2
        for snap in res.snapshots[1:]:
            assert np.count_nonzero(snap.values == 0.0) == 0, snap.time


class TestResidualOnExact:
    def test_requires_exact_cylinder(self):
        gauge = make_barrier("gauge", HEIS, c=0.0, r=1.0)
        with pytest.raises(ValueError, match="cylinder"):
            residual_on_exact(gauge, config())
        off = make_barrier("cylinder", HEIS, c=-1.0, r=1.0)
        with pytest.raises(ValueError, match="cylinder"):
            residual_on_exact(off, config())

    def test_regularization_error_formula(self):
        # with delta = 0.5 on a 16^3 grid the worst surviving node has
        # |x_h|^2 = 0.15625, so the residual is 2 d^2/(4|x_h|^2 + d^2) = 4/7
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        worst = residual_on_exact(bar, config(res=16, delta_reg=0.5))
        assert worst == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_tiny_default_regularization(self):
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        assert residual_on_exact(bar, config(res=16), times=(0.0, 0.2)) < 1e-9

    def test_exclusion_cannot_remove_everything(self):
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        with pytest.raises(ValueError, match="every interior node"):
            residual_on_exact(bar, config(), exclude_horizontal_radius=10.0)


class TestCsv:
    def test_snapshot_round_trip(self, tmp_path):
        grid = init(config(res=6))
        path = tmp_path / "snap.csv"
        write_snapshot_csv(grid, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,u"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (216, 5)
        np.testing.assert_array_equal(data[:, 4].reshape(6, 6, 6), grid.values)
        assert np.all(data[:, 0] == grid.time)

    def test_snapshot_bytes_match_savetxt(self, tmp_path):
        # the former writer, np.savetxt over stacked (t, x1..xn, u) columns,
        # on signed zeros, subnormal-range values, integers and a negative t
        values = np.arange(60, dtype=float).reshape(3, 4, 5) - 30.0
        values.flat[:4] = [-0.0, 1e-300, -1e-300, 1.0 / 3.0]
        grid = GridField(((-0.5, 2.5), (-2.0, 2.0), (0.1, 0.6)), values, -0.25)
        write_snapshot_csv(grid, tmp_path / "snap.csv")
        mesh = np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij")
        cols = [np.full(values.size, grid.time)] + [x.ravel() for x in mesh] + [values.ravel()]
        np.savetxt(tmp_path / "savetxt.csv", np.stack(cols, axis=-1), fmt="%.17g",
                   delimiter=",", header="t,x1,x2,x3,u", comments="")
        assert (tmp_path / "snap.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    @pytest.mark.parametrize("count", [0, 1, 200])
    @pytest.mark.parametrize("n", [3, 5])
    def test_front_bytes_match_savetxt(self, tmp_path, count, n):
        # the former writer, np.savetxt over stacked (t, x1..xn) columns, on
        # signed zeros, subnormal-range values and a t with a long repr
        rng = np.random.default_rng(count + n)
        points = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-300, 300, (count, n))
        points.flat[:3] = [-0.0, 1e-310, 1.0 / 3.0][: points.size]
        cloud = solver.FrontCloud(0.1 + count, points)
        write_front_csv(cloud, tmp_path / "front.csv")
        data = np.concatenate([np.full((count, 1), cloud.time), points], axis=1)
        np.savetxt(tmp_path / "savetxt.csv", data, fmt="%.17g", delimiter=",",
                   header="t," + ",".join(f"x{i + 1}" for i in range(n)), comments="")
        assert (tmp_path / "front.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_front_round_trip(self, tmp_path):
        cloud = extract_front(init(config(res=8)))
        path = tmp_path / "front.csv"
        write_front_csv(cloud, path)
        assert path.read_text().splitlines()[0] == "t,x1,x2,x3"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1:], cloud.points)
