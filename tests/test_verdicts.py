"""Pointwise viscosity verdicts, sweeps, and the norm-lemma harness."""

import numpy as np
import pytest

from carnotflow import (
    Const,
    PointVerdict,
    REGIME_CHAR_ENVELOPE,
    REGIME_CHAR_NULL,
    REGIME_REGULAR,
    ScalarField,
    SweepReport,
    TimeVar,
    check_norm_lemma,
    check_point,
    classification_holds,
    heisenberg,
    make_barrier,
    restricted_test_class_filter,
    sq_norm,
    sweep,
)

HEIS = heisenberg()

AXIS_POINT = np.array([0.0, 0.0, 0.5])


def cylinder_field(c):
    return make_barrier("cylinder", HEIS, c=c, r=1.0).field


def norm_field():
    return ScalarField(sq_norm(range(2)) ** 2 + sq_norm([2]), HEIS)


class TestRegimes:
    def test_regular_point_of_exact_cylinder(self):
        v = check_point(HEIS, cylinder_field(-2.0), np.array([1.0, 0.3, -0.4]), t=0.2)
        assert v.regime == REGIME_REGULAR
        assert v.sub_residual == pytest.approx(0.0, abs=1e-12)
        assert v.super_residual == v.sub_residual
        # the verdict carries the projections it came from: Xw = -2 x_h, X2w = -2 I
        np.testing.assert_array_equal(v.hgrad, [-2.0, -0.6])
        np.testing.assert_array_equal(v.hhess, -2.0 * np.eye(2))

    def test_regular_residual_tracks_drift(self):
        v = check_point(HEIS, cylinder_field(1.5), np.array([0.8, 0.0, 0.0]))
        assert v.sub_residual == pytest.approx(1.5 + 2.0, abs=1e-12)

    def test_cylinder_axis_hits_envelope_regime(self):
        """On the axis Xw = 0 but X2w = -2I != 0; with m = 2 both envelope
        values collapse to +2, so the residuals are c + 2 on either side."""
        for c in (-2.0, 0.0, 3.0):
            v = check_point(HEIS, cylinder_field(c), AXIS_POINT)
            assert v.regime == REGIME_CHAR_ENVELOPE
            assert v.sub_residual == pytest.approx(c + 2.0, abs=1e-12)
            assert v.super_residual == pytest.approx(c + 2.0, abs=1e-12)

    def test_norm_power_axis_is_null_regime(self):
        v = check_point(HEIS, norm_field(), AXIS_POINT)
        assert v.regime == REGIME_CHAR_NULL
        assert v.sub_residual == 0.0
        assert v.super_residual == 0.0

    def test_null_regime_keeps_time_drift(self):
        f = ScalarField(
            Const(-3.0) * TimeVar() + sq_norm(range(2)) ** 2 + sq_norm([2]), HEIS
        )
        v = check_point(HEIS, f, AXIS_POINT, t=1.0)
        assert v.regime == REGIME_CHAR_NULL
        assert v.sub_residual == pytest.approx(-3.0)

    def test_envelope_residuals_shrink_with_hessian(self):
        # q = 0 and A = 2 eps I at the origin: residuals are O(eps)
        for eps in (1e-3, 1e-6):
            f = ScalarField(Const(eps) * sq_norm(range(2)), HEIS)
            v = check_point(HEIS, f, np.zeros(3))
            assert v.regime == REGIME_CHAR_ENVELOPE
            assert abs(v.sub_residual) <= 3 * eps
            assert abs(v.super_residual) <= 3 * eps

    def test_eps_sing_reclassifies(self):
        f = ScalarField(Const(1e-6) * sq_norm(range(2)), HEIS)
        wide = check_point(HEIS, f, np.zeros(3), eps_sing=1e-3)
        assert wide.regime == REGIME_CHAR_NULL


def test_classification_rule_bounds_one_side_per_class():
    sub, sup = np.array([-1.0, 0.5, 0.0]), np.array([-0.5, 1.0, 0.0])
    expected = {
        "subsolution": [True, False, True],
        "supersolution": [False, True, True],
        "solution": [False, False, True],
    }
    for expect, holds in expected.items():
        np.testing.assert_array_equal(classification_holds(expect, sub, sup, 0.1), holds)
    assert classification_holds("none", sub, sup, 0.1) is True


class TestSweep:
    def _lattice(self, k=5, lim=1.2):
        axes = [np.linspace(-lim, lim, k)] * 3
        return [np.array(p) for p in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 3)]

    def test_exact_cylinder_passes_as_solution(self):
        rep = sweep(HEIS, cylinder_field(-2.0), self._lattice(), expect="solution")
        assert rep.passed
        assert rep.n_points == 125
        assert REGIME_REGULAR in rep.regime_counts
        assert REGIME_CHAR_ENVELOPE in rep.regime_counts  # the axis samples
        assert "PASS" in rep.summary()

    def test_supersolution_cylinder(self):
        rep = sweep(HEIS, cylinder_field(0.0), self._lattice(), expect="supersolution")
        assert rep.passed
        assert rep.worst_super == pytest.approx(2.0, abs=1e-12)

    def test_misclassified_field_fails_with_location(self):
        rep = sweep(HEIS, cylinder_field(0.0), self._lattice(), expect="subsolution")
        assert not rep.passed
        assert rep.worst_sub == pytest.approx(2.0, abs=1e-12)
        assert rep.worst_sub_at is not None
        assert "FAIL" in rep.summary()

    def test_region_filter_skips_points(self):
        bar = make_barrier("gauge", HEIS, c=-12.0, r=1.0)
        pts = self._lattice()
        rep = sweep(HEIS, bar.field, pts, expect="subsolution", region=bar.region)
        assert rep.passed
        assert 0 < rep.n_points < len(pts)

    def test_timed_samples(self):
        x = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 1.0]])
        rep = sweep(HEIS, cylinder_field(-2.0), x, expect="solution", t=np.array([0.0, 0.7]))
        assert rep.n_points == 2 and rep.passed

    @pytest.mark.parametrize("which", ["norm", "weighted-cylinder"])
    def test_batch_agrees_with_per_point_verdicts(self, which):
        # random samples, every fifth on the axis x_h = 0: N is null-Hessian
        # there, -(1 + x_v^2)|x_h|^2 has X2u = -2(1 + x_v^2) I != 0
        rng = np.random.default_rng(12)
        x = rng.uniform(-1.5, 1.5, size=(60, 3))
        x[::5, :2] = 0.0
        t = rng.uniform(0.0, 1.0, size=60)
        if which == "norm":
            f, axis_regime = norm_field(), REGIME_CHAR_NULL
        else:
            weight = Const(1.0) + sq_norm([2])
            f = ScalarField(Const(-0.7) * TimeVar() - weight * sq_norm(range(2)), HEIS)
            axis_regime = REGIME_CHAR_ENVELOPE
        rep = sweep(HEIS, f, x, expect="solution", tolerance=np.inf, t=t)
        single = [check_point(HEIS, f, p, s) for p, s in zip(x, t)]
        counts = {}
        for v in single:
            counts[v.regime] = counts.get(v.regime, 0) + 1
        assert list(rep.regime_counts.items()) == list(counts.items())
        assert counts[axis_regime] == 12 and counts[REGIME_REGULAR] == 48
        subs = [v.sub_residual for v in single]
        sups = [v.super_residual for v in single]
        i, k = int(np.argmax(subs)), int(np.argmin(sups))
        assert rep.worst_sub == pytest.approx(subs[i], rel=1e-13, abs=1e-13)
        assert rep.worst_super == pytest.approx(sups[k], rel=1e-13, abs=1e-13)
        np.testing.assert_array_equal(rep.worst_sub_at, x[i])
        np.testing.assert_array_equal(rep.worst_super_at, x[k])
        batch = check_point(HEIS, f, x, t)
        np.testing.assert_array_equal(batch.regime, [v.regime for v in single])
        np.testing.assert_allclose(batch.sub_residual, subs, rtol=1e-13, atol=1e-13)

    def test_regime_counts_follow_first_appearance_across_adds(self):
        # the first batch meets R before N, against their sorted order; the
        # second meets them the other way round and brings E; the last
        # verdict is a batch of one
        rng = np.random.default_rng(21)
        E, N, R = REGIME_CHAR_ENVELOPE, REGIME_CHAR_NULL, REGIME_REGULAR

        def verdict(regimes):
            P = len(regimes)
            return PointVerdict(rng.uniform(-1.5, 1.5, size=(P, 3)), 0.0, np.array(regimes),
                                rng.normal(size=P), rng.normal(size=P), None, None)

        verdicts = [verdict([R, N, R, N, R]), verdict([N, E, R, N, E, R]),
                    PointVerdict(np.zeros(3), 0.0, R, 0.5, -0.5, None, None)]
        rep, per_point, counts = SweepReport("solution", 1e-9), SweepReport("solution", 1e-9), {}
        for v in verdicts:
            rep.add(v)
            for x, name, sub, sup in zip(np.atleast_2d(v.x), np.atleast_1d(v.regime).tolist(),
                                         np.atleast_1d(v.sub_residual), np.atleast_1d(v.super_residual)):
                counts[name] = counts.get(name, 0) + 1
                per_point.add(PointVerdict(x, 0.0, name, float(sub), float(sup), None, None))
        assert list(counts.items()) == [(R, 6), (N, 4), (E, 2)]
        assert list(rep.regime_counts.items()) == list(counts.items())
        assert list(per_point.regime_counts.items()) == list(counts.items())
        assert all(type(name) is str and type(c) is int for name, c in rep.regime_counts.items())
        assert rep.summary() == per_point.summary() and rep.n_points == 12

    def test_expect_validated(self):
        with pytest.raises(ValueError, match="classification"):
            sweep(HEIS, cylinder_field(0.0), self._lattice(), expect="barrier")


class TestNormLemma:
    @pytest.mark.parametrize("group_fixture", ["heis", "m3n5"])
    def test_identities_hold(self, group_fixture, request):
        g = request.getfixturevalue(group_fixture)
        rep = check_norm_lemma(g, rng=np.random.default_rng(5))
        assert rep.max_deviation() < 1e-10
        assert rep.n_points == 400 and rep.n_pairs == 200

    def test_gradient_lower_bound_is_signed(self, heis):
        # worst_lower_bound tracks max(16|x_h|^6 - |XN|^2) which can only
        # push the report negative-to-zero; a positive value is a failure
        rep = check_norm_lemma(heis, rng=np.random.default_rng(8))
        assert rep.worst_lower_bound <= 1e-10

    def test_reproducible_for_seed(self, heis):
        a = check_norm_lemma(heis, rng=np.random.default_rng(99))
        b = check_norm_lemma(heis, rng=np.random.default_rng(99))
        assert a == b


class TestRestrictedClass:
    def test_norm_power_admissible_at_axis(self):
        assert restricted_test_class_filter(HEIS, norm_field(), AXIS_POINT)

    def test_cylinder_profile_not_admissible(self):
        f = ScalarField(Const(-1.0) * sq_norm(range(2)), HEIS)
        assert not restricted_test_class_filter(HEIS, f, AXIS_POINT)

    def test_euclidean_square_not_admissible(self):
        f = ScalarField(sq_norm(range(3)), HEIS)
        assert not restricted_test_class_filter(HEIS, f, AXIS_POINT)

    def test_admissible_away_from_axis(self):
        f = ScalarField(Const(-1.0) * sq_norm(range(2)), HEIS)
        assert restricted_test_class_filter(HEIS, f, np.array([2.0, 2.0, 0.0]), rho=1e-3)

    def test_admissible_field_avoids_envelope_regime(self):
        f = norm_field()
        pts = [AXIS_POINT + d for d in np.eye(3) * 1e-2] + [AXIS_POINT]
        assert restricted_test_class_filter(HEIS, f, AXIS_POINT)
        rep = sweep(HEIS, f, pts, expect="subsolution", tolerance=np.inf)
        assert REGIME_CHAR_ENVELOPE not in rep.regime_counts
