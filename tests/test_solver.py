"""Grid solver: stencils, schemes, stability, fronts, and CSV output."""

import math
import warnings

import numpy as np
import pytest

import carnotflow.solver as solver
from carnotflow import (
    Engine,
    GridField,
    InitialSpec,
    SolverConfig,
    extinction_time_numeric,
    extract_front,
    heisenberg,
    indicator_fields,
    init,
    make_barrier,
    residual_on_exact,
    run,
    step,
    write_front_csv,
    write_snapshot_csv,
)

HEIS = heisenberg()
BOX = ((-2.0, 2.0),) * 3


def config(res=12, **kw):
    kw.setdefault("t_end", 0.02)
    return SolverConfig(HEIS, BOX, (res,) * 3, **kw)


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
        with Engine(cfg) as eng:
            h2 = float(np.min(cfg.spacing)) ** 2
            assert 0 < eng.dt <= cfg.cfl * h2 / (2 * HEIS.m)

    def test_dt_scales_with_cfl(self):
        with Engine(config(cfl=0.2)) as a, Engine(config(cfl=0.4)) as b:
            assert b.dt == pytest.approx(2 * a.dt)

    def test_workers_from_environment(self, monkeypatch):
        monkeypatch.setenv(solver.WORKERS_ENV_VAR, "5")
        with Engine(config()) as eng:
            assert eng.workers == 5

    def test_workers_default_to_one(self, monkeypatch):
        monkeypatch.delenv(solver.WORKERS_ENV_VAR, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Engine(config()) as eng:
                assert eng.workers == 1

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_invalid_worker_count_warns(self, monkeypatch, raw):
        monkeypatch.setenv(solver.WORKERS_ENV_VAR, raw)
        with pytest.warns(RuntimeWarning, match=solver.WORKERS_ENV_VAR):
            with Engine(config()) as eng:
                assert eng.workers == 1

    def test_operator_independent_of_worker_count(self):
        u = init(config(res=16)).values
        with Engine(config(res=16), workers=1) as one, Engine(
            config(res=16), workers=5
        ) as five:
            for scheme in solver.SCHEMES:
                np.testing.assert_array_equal(
                    one.operator(u, scheme), five.operator(u, scheme)
                )

    @pytest.mark.parametrize("chunk_nodes", [solver._CHUNK_NODES, 1000])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("group", ["heisenberg", "m3n5"])
    def test_shared_pass_matches_single_schemes(
        self, request, monkeypatch, group, workers, chunk_nodes
    ):
        # gauge_ball at 32^3 with this eps_sing has singular nodes near the
        # poles; m3n5 has two vertical directions (nv = 2).
        # A budget of 1000 nodes is below one row, so chunks are single rows.
        monkeypatch.setattr(solver, "_CHUNK_NODES", chunk_nodes)
        if group == "heisenberg":
            cfg = config(res=32, eps_sing=0.05, initial=InitialSpec(preset="gauge_ball"))
        else:
            g = request.getfixturevalue("m3n5")
            cfg = SolverConfig(g, ((-2.0, 2.0),) * 5, (10,) * 5,
                               initial=InitialSpec(preset="gauge_ball"))
        u = init(cfg).values
        with Engine(cfg, workers=workers) as eng:
            assert len(eng.chunks) > 1
            shared = eng.operators(u, solver.SCHEMES)
            for scheme, op in zip(solver.SCHEMES, shared):
                np.testing.assert_array_equal(op, eng.operator(u, scheme))
            if group == "heisenberg":
                qq = eng._derivatives(u, 1, cfg.resolution[0] - 1)[1]
                assert np.count_nonzero(qq <= eng.eps2) > 0

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
        with Engine(cfg) as eng:
            eng.operators(u, solver.SCHEMES)
            assert len(singular_chunks) == len(eng.chunks) > 1
        assert sum(singular_chunks) > 0
        assert len(eig_calls) == sum(singular_chunks)

    def test_operator_rejects_unknown_scheme(self):
        with Engine(config()) as eng:
            with pytest.raises(ValueError, match="scheme"):
                eng.operator(init(config()).values, "godunov")


class TestStepExactness:
    def test_one_step_tracks_exact_cylinder(self):
        cfg = config(res=16)
        new = step(init(cfg), cfg)
        inner = (slice(1, -1),) * 3
        exact = exact_cylinder_values(new, new.time)
        assert np.max(np.abs(new.values[inner] - exact[inner])) < 1e-10

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    def test_additive_constant_invariance(self, scheme):
        cfg = config(scheme=scheme)
        u = init(cfg).values
        with Engine(cfg) as eng:
            a = eng.advance(u, eng.dt)
            b = eng.advance(u + 5.0, eng.dt)
        assert np.max(np.abs(b - (a + 5.0))) < 1e-12

    def test_linear_data_is_stationary(self):
        cfg = config()
        grid = init(cfg)
        xs = np.meshgrid(*[grid.axis_coords(a) for a in range(3)], indexing="ij")
        u = 0.3 * xs[0] + 0.1 * xs[1]
        with Engine(cfg) as eng:
            new = eng.advance(u, eng.dt)
        inner = (slice(1, -1),) * 3
        np.testing.assert_allclose(new[inner], u[inner], atol=1e-15)


class TestSchemeSandwich:
    def test_regularized_update_between_envelopes(self):
        res = run(config(), record_sandwich=True)
        assert res.sandwich_max_violation is not None
        assert res.sandwich_max_violation < 1e-12
        assert res.n_steps > 10

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

    def test_extinction_time_numeric_matches_run(self):
        cfg = config(res=12, t_end=1.0)
        assert extinction_time_numeric(cfg) == pytest.approx(run(cfg).extinction_time)

    def test_on_snapshot_callback_sees_every_snapshot(self):
        seen = []
        res = run(config(res=10, t_end=0.05), on_snapshot=lambda g: seen.append(g.time))
        assert seen == [s.time for s in res.snapshots]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_step_raises(self, monkeypatch):
        orig_engine_init = Engine.__init__
        orig_sample = solver._sample_initial

        def oversized_dt(self, cfg, workers=None):
            orig_engine_init(self, cfg, workers)
            self.dt *= 1000.0

        def seeded(cfg):
            vals = orig_sample(cfg)
            idx = np.indices(vals.shape).sum(axis=0)
            bump = 1e3 * np.where(idx % 2 == 0, 1.0, -1.0)
            vals[1:-1, 1:-1, 1:-1] += bump[1:-1, 1:-1, 1:-1]
            return vals

        monkeypatch.setattr(Engine, "__init__", oversized_dt)
        monkeypatch.setattr(solver, "_sample_initial", seeded)
        cfg = config(initial=InitialSpec(r=-1.0), t_end=500.0)
        with pytest.raises(RuntimeError, match="nonfinite"):
            with np.errstate(all="ignore"):
                run(cfg)

    def test_deterministic_across_worker_counts(self, monkeypatch):
        results = {}
        for w in ("1", "7"):
            monkeypatch.setenv(solver.WORKERS_ENV_VAR, w)
            results[w] = run(config(res=12, t_end=0.01)).snapshots[-1].values
        np.testing.assert_array_equal(results["1"], results["7"])


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
    def test_strict_and_weak_indicators_disagree_only_on_zeros(self):
        vals = np.full((5, 5, 5), -1.0)
        vals[2, 2, 2] = 0.0
        vals[1, 1, 1] = 0.7
        pair = indicator_fields([GridField(BOX, vals)])[0]
        assert pair.chi_upper[2, 2, 2] == 1 and pair.chi_lower[2, 2, 2] == -1
        assert pair.chi_upper[1, 1, 1] == 1 and pair.chi_lower[1, 1, 1] == 1
        assert pair.gap_fraction == pytest.approx(1.0 / 125.0)

    def test_no_gap_along_a_generic_run(self):
        res = run(config(res=10, t_end=0.05, snapshot_every=0.02))
        pairs = indicator_fields(res.snapshots)
        assert [p.time for p in pairs] == [s.time for s in res.snapshots]
        assert all(p.gap_fraction == 0.0 for p in pairs[1:])


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

    def test_front_round_trip(self, tmp_path):
        cloud = extract_front(init(config(res=8)))
        path = tmp_path / "front.csv"
        write_front_csv(cloud, path)
        assert path.read_text().splitlines()[0] == "t,x1,x2,x3"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1:], cloud.points)
