"""Group algebra: law axioms, dilations, gauge, frame, translation Jacobians.

Closed-form Jacobians are checked against a central-difference oracle; the
group law is quadratic, so the only FD error is roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from carnotflow import (
    bracket,
    compose,
    dilate,
    gauge,
    gauge_distance,
    heisenberg,
    homogeneous_norm,
    inverse,
    is_heisenberg_like,
    left_translation_jacobian,
    m3n5,
    right_translation_jacobian,
    sigma,
    validate_spec,
)

coord = st.floats(-3.0, 3.0, allow_nan=False)
vec3 = arrays(np.float64, 3, elements=coord)
vec5 = arrays(np.float64, 5, elements=coord)
# multiples of 2^-10 in [-3, 3]: sums and bracket products of these are exact
dyadic3 = arrays(np.float64, 3, elements=st.integers(-3072, 3072).map(lambda k: k / 1024))
scale = st.floats(0.05, 4.0, allow_nan=False)

HEIS = heisenberg()
M3N5 = m3n5()


def fd_jacobian(f, x, h=1e-5):
    n = len(x)
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (f(x + e) - f(x - e)) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


class TestValidateSpec:
    def test_heisenberg_matrices(self):
        g = heisenberg()
        assert g.m == 2 and g.n == 3
        np.testing.assert_array_equal(g.B[0], [[0.0, 1.0], [-1.0, 0.0]])
        assert is_heisenberg_like(g)

    def test_m3n5_matrices(self):
        assert M3N5.m == 3 and M3N5.n == 5
        np.testing.assert_array_equal(M3N5.B[0], [[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        np.testing.assert_array_equal(M3N5.B[1], [[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]])

    def test_m3n5_is_not_heisenberg_like(self):
        assert not is_heisenberg_like(M3N5)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            validate_spec(2, 3, [np.array([[0.0, 1.0], [1.0, 0.0]])])

    def test_rejects_dependent_brackets(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="dependent"):
            validate_spec(2, 4, [B, 2.0 * B])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_brackets(self, bad):
        with pytest.raises(ValueError, match="bracket matrices B") as info:
            validate_spec(2, 3, [[[0.0, bad], [-bad, 0.0]]])
        assert "finite" in str(info.value)

    def test_rejects_zero_bracket(self):
        with pytest.raises(ValueError):
            validate_spec(2, 3, [np.zeros((2, 2))])

    def test_rejects_bad_dimensions(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            validate_spec(1, 2, [B])  # m must be >= 2
        with pytest.raises(ValueError):
            validate_spec(2, 2, [B])  # no vertical layer
        with pytest.raises(ValueError):
            validate_spec(2, 4, [B])  # bracket count != n - m

    def test_b_matrices_frozen(self):
        g = heisenberg()
        with pytest.raises(ValueError):
            g.B[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------


def test_compose_frozen_value():
    # (1,0,0) o (0,1,0): vertical picks up <B x_h, y_h> = -x1 y2 ... sign fixed
    out = compose(HEIS, np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    np.testing.assert_allclose(out, [1.0, 1.0, -1.0], atol=0)


def test_bracket_skew_in_arguments():
    xh, yh = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
    assert bracket(HEIS, xh, yh) == pytest.approx(-bracket(HEIS, yh, xh))


@given(x=vec3, y=vec3, z=vec3)
@settings(max_examples=100, deadline=None)
def test_associativity(x, y, z):
    left = compose(HEIS, compose(HEIS, x, y), z)
    right = compose(HEIS, x, compose(HEIS, y, z))
    np.testing.assert_allclose(left, right, atol=1e-12)


@given(x=vec5, y=vec5, z=vec5)
@settings(max_examples=100, deadline=None)
def test_associativity_m3n5(x, y, z):
    left = compose(M3N5, compose(M3N5, x, y), z)
    right = compose(M3N5, x, compose(M3N5, y, z))
    np.testing.assert_allclose(left, right, atol=1e-12)


@given(x=vec3)
@settings(max_examples=100, deadline=None)
def test_identity_and_inverse(x):
    e = np.zeros(3)
    np.testing.assert_array_equal(compose(HEIS, x, e), x)
    np.testing.assert_array_equal(compose(HEIS, e, x), x)
    np.testing.assert_allclose(compose(HEIS, x, inverse(x)), e, atol=1e-12)
    np.testing.assert_allclose(compose(HEIS, inverse(x), x), e, atol=1e-12)


@given(x=vec3, y=vec3, lam=scale)
@settings(max_examples=100, deadline=None)
def test_dilation_is_homomorphism(x, y, lam):
    a = dilate(HEIS, lam, compose(HEIS, x, y))
    b = compose(HEIS, dilate(HEIS, lam, x), dilate(HEIS, lam, y))
    np.testing.assert_allclose(a, b, atol=1e-11)


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(HEIS, 0.0, np.ones(3))
    with pytest.raises(ValueError):
        dilate(HEIS, -1.0, np.ones(3))


# ---------------------------------------------------------------------------
# gauge, norm, distance
# ---------------------------------------------------------------------------


def test_gauge_frozen_value():
    assert gauge(HEIS, np.array([1.0, 1.0, 1.0])) == pytest.approx(5.0, abs=0)
    assert homogeneous_norm(HEIS, np.array([1.0, 1.0, 1.0])) == pytest.approx(5.0 ** 0.25)


@given(x=vec3, lam=scale)
@settings(max_examples=100, deadline=None)
def test_norm_homogeneous_degree_one(x, lam):
    lhs = homogeneous_norm(HEIS, dilate(HEIS, lam, x))
    rhs = lam * homogeneous_norm(HEIS, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(x=dyadic3, y=dyadic3, z=dyadic3)
@settings(max_examples=100, deadline=None)
def test_distance_left_invariant(x, y, z):
    # The distance is only 1/2-Hoelder in the points near the diagonal: a
    # roundoff of 1e-16 in a vertical coordinate of z o x moves d by 1e-8.
    # On dyadic points the group law is exact in double precision, so the
    # identity is checked here as stated; the next test covers all floats.
    d = gauge_distance(HEIS, x, y)
    d_translated = gauge_distance(HEIS, compose(HEIS, z, x), compose(HEIS, z, y))
    assert d_translated == pytest.approx(d, abs=1e-12)


@given(x=vec3, y=vec3, z=vec3)
@settings(max_examples=100, deadline=None)
def test_difference_element_left_invariant(x, y, z):
    # (z o x)^-1 o (z o y) = x^-1 o y; this element is Lipschitz in the points
    zx, zy = compose(HEIS, z, x), compose(HEIS, z, y)
    np.testing.assert_allclose(
        compose(HEIS, inverse(zx), zy), compose(HEIS, inverse(x), y), rtol=0, atol=1e-12
    )


def test_distance_vanishes_on_diagonal():
    x = np.array([0.3, -1.2, 0.7])
    assert gauge_distance(HEIS, x, x) == 0.0


@given(x=vec3, y=vec3)
@settings(max_examples=100, deadline=None)
def test_distance_symmetric(x, y):
    # y^-1 o x = -(x^-1 o y) and the gauge is even, so d is symmetric here
    assert gauge_distance(HEIS, x, y) == pytest.approx(
        gauge_distance(HEIS, y, x), rel=1e-12, abs=1e-12
    )


# ---------------------------------------------------------------------------
# frame and translation Jacobians
# ---------------------------------------------------------------------------


def test_sigma_frozen_value():
    s = sigma(HEIS, np.array([1.0, 2.0, 0.3]))
    np.testing.assert_allclose(s, [[1, 0], [0, 1], [2, -1]], atol=0)


def test_sigma_m3n5_shape_and_rows():
    x = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
    s = sigma(M3N5, x)
    assert s.shape == (5, 3)
    np.testing.assert_allclose(s[:3], np.eye(3), atol=0)
    np.testing.assert_allclose(s[3], M3N5.B[0] @ x[:3], atol=0)
    np.testing.assert_allclose(s[4], M3N5.B[1] @ x[:3], atol=0)


@pytest.mark.parametrize("g", [HEIS, M3N5], ids=["heis", "m3n5"])
def test_translation_jacobians_match_fd(g):
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(-2, 2, size=g.n)
        x = rng.uniform(-2, 2, size=g.n)
        J_left = fd_jacobian(lambda p: compose(g, a, p), x)
        np.testing.assert_allclose(left_translation_jacobian(g, a), J_left, atol=1e-8)
        J_right = fd_jacobian(lambda p: compose(g, p, a), x)
        np.testing.assert_allclose(right_translation_jacobian(g, a), J_right, atol=1e-8)


@given(a=vec3, x=vec3)
@settings(max_examples=100, deadline=None)
def test_left_translation_maps_frame_to_frame(a, x):
    # D tau_a . sigma(x) = sigma(a o x): the frame is left-invariant
    lhs = left_translation_jacobian(HEIS, a) @ sigma(HEIS, x)
    rhs = sigma(HEIS, compose(HEIS, a, x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@given(a=vec3, x=vec3)
@settings(max_examples=100, deadline=None)
def test_right_translation_frame_depends_on_x_only(a, x):
    # D tilde-tau_a . sigma(x) has the sigma form with horizontal part x_h - a_h
    lhs = right_translation_jacobian(HEIS, a) @ sigma(HEIS, x)
    shifted = x.copy()
    shifted[:2] = x[:2] - a[:2]
    rhs = sigma(HEIS, shifted)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
