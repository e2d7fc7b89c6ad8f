"""Barrier catalog: closed forms vs exact jets, classifications, extinction."""

import numpy as np
import pytest

from carnotflow import (
    BARRIER_KINDS,
    REGIME_REGULAR,
    change_of_variables_check,
    check_point,
    extinction_time,
    gauge_profile_hgrad,
    gauge_profile_hhess,
    gauge_profile_value,
    heisenberg,
    homogeneous_norm,
    horizontal_gradient,
    horizontal_hessian,
    make_barrier,
    operator_bounds,
    psi_identity,
    psi_s_plus_s3,
    psi_sqrt,
    psi_square,
    sq_norm,
    ScalarField,
    v_convexity_witness,
)

HEIS = heisenberg()


def sample_points(rng, count=40, scale=1.5, min_horizontal=1e-2):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-scale, scale, size=3)
        if np.hypot(x[0], x[1]) > min_horizontal:
            pts.append(x)
    return pts


class TestClosedFormsAgainstJets:
    """The hand-written gradient/Hessian/operator of each kind must agree
    with what the exact jet machinery produces from the field expression."""

    @pytest.mark.parametrize("kind", BARRIER_KINDS)
    def test_horizontal_jet_agrees(self, kind):
        bar = make_barrier(kind, HEIS, c=-1.3, r=0.8)
        rng = np.random.default_rng(7)
        for x in sample_points(rng):
            j = bar.field.jet(x, t=0.25)
            q = horizontal_gradient(HEIS, j, x)
            A = horizontal_hessian(HEIS, j, x)
            np.testing.assert_allclose(bar.closed_hgrad(x), q, atol=1e-10)
            np.testing.assert_allclose(bar.closed_hhess(x), A, atol=1e-10)
            bounds = operator_bounds(q, A)
            assert bounds.regular
            assert bar.closed_form_operator(x) == pytest.approx(j.dt + bounds.lower, abs=1e-9)

    @pytest.mark.parametrize("kind", BARRIER_KINDS)
    def test_operator_ignores_time_and_vertical_slot(self, kind):
        bar = make_barrier(kind, HEIS, c=2.0, r=1.0)
        x = np.array([0.9, -0.4, 0.6])
        assert bar.closed_form_operator(x) == bar.closed_form_operator(x)

    def test_closed_operator_refuses_characteristic_points(self):
        for kind in BARRIER_KINDS:
            bar = make_barrier(kind, HEIS, c=0.0, r=1.0)
            with pytest.raises(ValueError):
                bar.closed_form_operator(np.array([0.0, 0.0, 0.3]))


class TestCylinder:
    def test_exact_solution_residual_is_zero(self):
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        assert bar.classification == "solution"
        rng = np.random.default_rng(11)
        for x in sample_points(rng):
            j = bar.field.jet(x, t=0.4)
            q = horizontal_gradient(HEIS, j, x)
            A = horizontal_hessian(HEIS, j, x)
            bounds = operator_bounds(q, A)
            assert bounds.regular
            assert j.dt + bounds.lower == pytest.approx(0.0, abs=1e-12)

    def test_operator_is_constant(self):
        bar = make_barrier("cylinder", HEIS, c=0.5, r=2.0)
        assert bar.closed_form_operator(np.array([1.0, 0.0, 0.0])) == pytest.approx(2.5)
        assert bar.closed_form_operator(np.array([0.1, -2.0, 5.0])) == pytest.approx(2.5)


@pytest.mark.parametrize(
    "kind, c, expected",
    [
        ("cylinder", -2.0, "solution"),
        ("cylinder", 0.0, "supersolution"),
        ("cylinder", -3.0, "subsolution"),
        ("gauge", 0.0, "supersolution"),
        ("gauge", -1.0, "subsolution"),
        ("euclid_ball", -2.0, "supersolution"),
        ("euclid_ball", -6.0, "subsolution"),
        ("sqrt_gauge", 0.0, "supersolution"),
        ("sqrt_gauge", -6.0, "subsolution"),
        ("sqrt_gauge", -1.0, "none"),
    ],
)
def test_classification_table(kind, c, expected):
    assert make_barrier(kind, HEIS, c=c, r=1.0).classification == expected


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        make_barrier("paraboloid", HEIS, c=0.0, r=1.0)


def test_heisenberg_like_required_for_gauge_family(m3n5):
    make_barrier("cylinder", m3n5, c=0.0, r=1.0)  # fine: any step-two group
    for kind in ("gauge", "euclid_ball", "sqrt_gauge"):
        with pytest.raises(ValueError, match="n = m\\+1"):
            make_barrier(kind, m3n5, c=0.0, r=1.0)


class TestRegions:
    def test_gauge_subsolution_cylinder(self):
        bar = make_barrier("gauge", HEIS, c=-12.0, r=1.0)
        # valid on |x_h| < sqrt(12 / (4*3)) = 1
        assert bar.region(np.array([0.7, 0.7, 9.0]))
        assert not bar.region(np.array([1.0, 0.1, 0.0]))

    def test_gauge_supersolution_is_global(self):
        bar = make_barrier("gauge", HEIS, c=0.0, r=1.0)
        assert bar.region(np.array([50.0, 50.0, 50.0]))

    def test_euclid_ball_region_grows_with_vertical(self):
        bar = make_barrier("euclid_ball", HEIS, c=-4.0, r=1.0)
        # eps = (4 - 2)/2 = 1: need |x_h|^2 < 1 + x_v^2
        assert not bar.region(np.array([1.2, 0.0, 0.0]))
        assert bar.region(np.array([1.2, 0.0, 2.0]))

    def test_sqrt_gauge_region_excludes_origin(self):
        bar = make_barrier("sqrt_gauge", HEIS, c=-6.0, r=1.0)
        assert bar.region(np.array([0.5, 0.0, 0.0]))
        assert not bar.region(np.zeros(3))


class TestSqrtGaugeDomain:
    def test_jet_refused_near_origin(self):
        bar = make_barrier("sqrt_gauge", HEIS, c=-6.0, r=1.0)
        x = np.array([1e-9, 0.0, 0.0])
        assert homogeneous_norm(HEIS, x) <= 1e-8
        with pytest.raises(ValueError):
            bar.field.jet(x)

    def test_jet_fine_just_outside(self):
        bar = make_barrier("sqrt_gauge", HEIS, c=-6.0, r=1.0)
        j = bar.field.jet(np.array([1e-3, 0.0, 0.0]))
        assert np.isfinite(j.value)


class TestExtinction:
    def test_cylinder_value(self):
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        assert extinction_time(bar.spec) == pytest.approx(0.5)

    def test_cylinder_needs_subsolution_drift(self):
        bar = make_barrier("cylinder", HEIS, c=-1.0, r=1.0)
        with pytest.raises(ValueError, match="c <= -2"):
            extinction_time(bar.spec)

    def test_sqrt_gauge_value(self):
        bar = make_barrier("sqrt_gauge", HEIS, c=-6.0, r=1.0)
        assert extinction_time(bar.spec) == pytest.approx(1.0 / 6.0)

    def test_gauge_covering_condition(self):
        # needs -c > 4 n sqrt(r) = 12: boundary fails, beyond passes
        bad = make_barrier("gauge", HEIS, c=-12.0, r=1.0)
        with pytest.raises(ValueError, match="covers"):
            extinction_time(bad.spec)
        good = make_barrier("gauge", HEIS, c=-13.0, r=1.0)
        assert extinction_time(good.spec) == pytest.approx(1.0 / 13.0)

    def test_euclid_ball_never_certifies(self):
        bar = make_barrier("euclid_ball", HEIS, c=-50.0, r=1.0)
        with pytest.raises(ValueError, match="euclid_ball"):
            extinction_time(bar.spec)

    def test_offset_must_be_positive(self):
        bar = make_barrier("cylinder", HEIS, c=-2.0, r=1.0)
        spec = bar.spec.__class__("cylinder", -2.0, 0.0, HEIS)
        with pytest.raises(ValueError, match="positive"):
            extinction_time(spec)


class TestGaugeProfileIdentities:
    """Algebraic relations between G, XG and X2G used by the sqrt barrier."""

    def setup_method(self):
        self.rng = np.random.default_rng(23)

    def test_gradient_norm(self):
        for x in sample_points(self.rng):
            G = gauge_profile_value(HEIS, x)
            XG = gauge_profile_hgrad(HEIS, x)
            xh2 = float(x[:2] @ x[:2])
            assert float(XG @ XG) == pytest.approx(16.0 * xh2 * G, rel=1e-11)

    def test_gradient_is_hessian_eigenvector(self):
        for x in sample_points(self.rng):
            XG = gauge_profile_hgrad(HEIS, x)
            X2G = gauge_profile_hhess(HEIS, x)
            xh2 = float(x[:2] @ x[:2])
            np.testing.assert_allclose(X2G @ XG, 12.0 * xh2 * XG, rtol=1e-10, atol=1e-10)

    def test_hessian_quadratic_form(self):
        for x in sample_points(self.rng):
            G = gauge_profile_value(HEIS, x)
            XG = gauge_profile_hgrad(HEIS, x)
            X2G = gauge_profile_hhess(HEIS, x)
            xh2 = float(x[:2] @ x[:2])
            assert float(XG @ X2G @ XG) == pytest.approx(192.0 * xh2**2 * G, rel=1e-10)


class TestChangeOfVariables:
    """Relabeling the level-set function rescales the curvature operator."""

    GAUGE = ScalarField(sq_norm(range(2)) ** 2 + 4.0 * sq_norm([2]), HEIS)

    @pytest.mark.parametrize("psi", [psi_identity, psi_square, psi_sqrt, psi_s_plus_s3])
    def test_residual_vanishes(self, psi):
        rng = np.random.default_rng(31)
        for x in sample_points(rng, count=25, min_horizontal=0.1):
            assert change_of_variables_check(HEIS, self.GAUGE, psi, x) < 1e-10

    def test_characteristic_point_rejected(self):
        with pytest.raises(ValueError, match="noncharacteristic"):
            change_of_variables_check(HEIS, self.GAUGE, psi_identity, np.array([0.0, 0.0, 1.0]))

    def test_decreasing_relabel_rejected(self):
        # psi(s) = s^2 decreases where U < 0
        shifted = ScalarField(sq_norm(range(2)) ** 2 + 4.0 * sq_norm([2]) - 10.0, HEIS)
        with pytest.raises(ValueError, match="increasing"):
            change_of_variables_check(HEIS, shifted, psi_square, np.array([1.0, 0.0, 0.0]))


class TestConvexityWitness:
    def test_horizontal_square_has_constant_two(self):
        f = ScalarField(sq_norm(range(2)), HEIS)
        rng = np.random.default_rng(41)
        alpha = v_convexity_witness(HEIS, f, sample_points(rng))
        assert alpha == pytest.approx(2.0, abs=1e-12)

    def test_gauge_degenerates_at_axis(self):
        f = ScalarField(sq_norm(range(2)) ** 2 + 4.0 * sq_norm([2]), HEIS)
        samples = [np.array([t, 0.0, 0.5]) for t in np.linspace(0.001, 1.0, 10)]
        alpha = v_convexity_witness(HEIS, f, samples)
        assert 0.0 <= alpha < 1e-4


def test_full_operator_matches_closed_form_for_gauge():
    bar = make_barrier("gauge", HEIS, c=0.0, r=1.0)
    x = np.array([0.5, 0.5, -0.2])
    v = check_point(HEIS, bar.field, x, t=0.1)
    # with drift c = 0 the residual u_t + F is exactly F, the closed value at x
    assert v.regime == REGIME_REGULAR
    assert v.sub_residual == pytest.approx(bar.closed_form_operator(x), abs=1e-10)
    assert v.super_residual == v.sub_residual
