"""Exact jets, horizontal projections, the operator F and its envelopes.

Jets from the expression layer are cross-checked against a plain
central-difference oracle (independent of the propagation rules), and the
horizontal quantities against hand values for the homogeneous-norm field
N = |x_h|^4 + |x_v|^2.  Batched evaluation over (P, n) arrays is checked
row by row against the single-point path for every closed-form family the
suites use.  The evaluator, which skips identically zero derivatives, is
checked against a dense reference evaluator that carries every zero, on
random trees and on the bytes that `verify` and `barrier` write.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from carnotflow import (
    BARRIER_KINDS,
    Const,
    Coord,
    Jet,
    Power,
    Product,
    ScalarField,
    Sum,
    TimeVar,
    heisenberg,
    horizontal_gradient,
    horizontal_hessian,
    m3n5,
    make_barrier,
    operator_bounds,
    sq_norm,
    sqrt,
)
from carnotflow.calculus import refuse_points
from carnotflow.cli import _cov_families, main
from carnotflow.verdicts import _norm_expr, _quartic_distance_expr

HEIS = heisenberg()

coord = st.floats(-2.0, 2.0, allow_nan=False)
vec2 = arrays(np.float64, 2, elements=coord)
sym2 = arrays(np.float64, (2, 2), elements=coord).map(lambda M: (M + M.T) / 2)


def fd_jet(fun, x, t, h=1e-4):
    """Central-difference value/gradient/Hessian oracle (space only)."""
    n = len(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    val = fun(x, t)
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        grad[a] = (fun(x + ea, t) - fun(x - ea, t)) / (2 * h)
        hess[a, a] = (fun(x + ea, t) - 2 * val + fun(x - ea, t)) / h**2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h
            mixed = (
                fun(x + ea + eb, t)
                - fun(x + ea - eb, t)
                - fun(x - ea + eb, t)
                + fun(x - ea - eb, t)
            ) / (4 * h * h)
            hess[a, b] = hess[b, a] = mixed
    return val, grad, hess


def norm_field(g):
    return ScalarField(sq_norm(range(g.m)) ** 2 + sq_norm(range(g.m, g.n)), g)


# ---------------------------------------------------------------------------
# expression layer
# ---------------------------------------------------------------------------


def test_jet_rejects_asymmetric_hessian():
    with pytest.raises(ValueError, match="symmetric"):
        Jet(0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


class TestExpressions:
    def test_polynomial_jet_matches_fd(self):
        expr = (Coord(0) * Coord(1) - 2.0) * Coord(2) + Coord(0) ** 3
        f = ScalarField(expr, HEIS)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            j = f.jet(x)
            val, grad, hess = fd_jet(lambda p, t: f(p, t), x, 0.0)
            assert j.value == pytest.approx(val, abs=1e-12)
            np.testing.assert_allclose(j.grad, grad, atol=1e-6)
            np.testing.assert_allclose(j.hess, hess, atol=1e-4)

    def test_sqrt_and_powers_match_fd(self):
        expr = sqrt(sq_norm(range(3)) + Const(0.5)) + sq_norm(range(2)) ** 1.5
        f = ScalarField(expr, HEIS)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0.2, 2, size=3)
            j = f.jet(x)
            val, grad, hess = fd_jet(lambda p, t: f(p, t), x, 0.0)
            np.testing.assert_allclose(j.grad, grad, atol=1e-6)
            np.testing.assert_allclose(j.hess, hess, atol=1e-4)

    def test_time_derivative_propagates(self):
        f = ScalarField(Const(-3.0) * TimeVar() + sq_norm(range(2)), HEIS)
        j = f.jet(np.array([1.0, 1.0, 0.0]), t=0.7)
        assert j.dt == pytest.approx(-3.0)
        assert j.value == pytest.approx(-2.1 + 2.0)

    def test_power_zero_is_constant_one(self):
        f = ScalarField(sq_norm(range(2)) ** 0, HEIS)
        j = f.jet(np.array([0.0, 0.0, 1.0]))
        assert j.value == 1.0
        assert not j.grad.any() and not j.hess.any()

    def test_fractional_power_needs_positive_base(self):
        f = ScalarField(sq_norm(range(2)) ** 0.5, HEIS)
        with pytest.raises(ValueError):
            f.jet(np.array([0.0, 0.0, 1.0]))

    def test_negative_power_at_zero_base_rejected(self):
        f = ScalarField(Coord(0) ** -1, HEIS)
        with pytest.raises(ValueError):
            f.jet(np.zeros(3))

    def test_domain_predicate_refuses_jet(self):
        f = ScalarField(sq_norm(range(3)), HEIS, domain=lambda x: x[0] > 0)
        f.jet(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="validity region"):
            f.jet(np.array([-0.5, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# horizontal projections: hand values for N = |x_h|^4 + |x_v|^2
# ---------------------------------------------------------------------------


class TestHorizontal:
    def test_norm_gradient_and_hessian_at_unit_point(self):
        f = norm_field(HEIS)
        x = np.array([1.0, 0.0, 0.0])
        j = f.jet(x)
        np.testing.assert_allclose(horizontal_gradient(HEIS, j, x), [4.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(
            horizontal_hessian(HEIS, j, x), [[12.0, 0.0], [0.0, 6.0]], atol=1e-13
        )

    def test_vertical_coordinate_enters_through_frame(self):
        f = norm_field(HEIS)
        x = np.array([1.0, 0.0, 2.0])
        j = f.jet(x)
        # XN = 4|x_h|^2 x_h + 2 x_v B x_h = (4, 0) + 2*2*(0, -1)
        np.testing.assert_allclose(horizontal_gradient(HEIS, j, x), [4.0, -4.0], atol=1e-13)

    def test_hessian_symmetrized(self):
        f = norm_field(HEIS)
        x = np.array([0.7, -0.3, 0.4])
        A = horizontal_hessian(HEIS, f.jet(x), x)
        np.testing.assert_array_equal(A, A.T)


# ---------------------------------------------------------------------------
# the operator and its envelopes
# ---------------------------------------------------------------------------


def F(q, A):
    """F(q, A) at a regular point; the envelopes stand in for it elsewhere."""
    bounds = operator_bounds(q, A)
    assert bounds.regular and bounds.lower == bounds.upper
    return bounds.lower


def envelopes(A):
    bounds = operator_bounds(np.zeros(len(A)), A)
    return bounds.lower, bounds.upper


def test_operator_frozen_value():
    assert F(np.array([1.0, 0.0]), np.diag([3.0, 5.0])) == pytest.approx(-5.0)


def test_operator_rejects_zero_gradient():
    """F is undefined at q = 0: the point is not regular, and the envelopes
    of A stand in for F there."""
    bounds = operator_bounds(np.zeros(2), np.diag([1.0, 3.0]))
    assert not bounds.regular
    assert (bounds.lower, bounds.upper) == pytest.approx((-3.0, -1.0))


def test_envelopes_frozen_value():
    lower, upper = envelopes(np.diag([1.0, -1.0]))
    assert lower == pytest.approx(-1.0)
    assert upper == pytest.approx(1.0)


@given(q=vec2, A=sym2, lam=st.floats(0.1, 3.0), mu=st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_operator_geometric(q, A, lam, mu):
    """F(lam q, lam A + mu q x q) = lam F(q, A): the level-set labeling drops out."""
    if float(q @ q) < 1e-8:
        return
    lhs = F(lam * q, lam * A + mu * np.outer(q, q))
    assert lhs == pytest.approx(lam * F(q, A), rel=1e-9, abs=1e-9)


@given(q=vec2, A=sym2, P=arrays(np.float64, (2, 2), elements=coord))
@settings(max_examples=100, deadline=None)
def test_operator_degenerate_elliptic(q, A, P):
    """Adding a PSD increment to the Hessian argument never raises F."""
    if float(q @ q) < 1e-8:
        return
    psd = P @ P.T
    assert F(q, A + psd) <= F(q, A) + 1e-10


@given(q=vec2, A=sym2)
@settings(max_examples=100, deadline=None)
def test_envelopes_bound_operator(q, A):
    if float(q @ q) < 1e-8:
        return
    val = F(q, A)
    lower, upper = envelopes(A)
    assert lower - 1e-11 <= val <= upper + 1e-11


# ---------------------------------------------------------------------------
# batches: one (P, n) evaluation equals P single-point evaluations
# ---------------------------------------------------------------------------


M3N5 = m3n5()


def batch_fields(g):
    """Every closed-form family the suites evaluate, on group g."""
    kinds = BARRIER_KINDS if g.n == g.m + 1 else ("cylinder",)
    fields = {f"barrier:{k}": make_barrier(k, g, c=-1.3, r=0.8).field for k in kinds}
    fields["N"] = ScalarField(_norm_expr(g), g)
    for i, U in enumerate(_cov_families(g)):
        fields[f"cov:{i}"] = U
    return fields


def assert_rel_close(batch, single):
    """|batch - single| <= 1e-13 relative to the largest entry of single."""
    batch, single = np.asarray(batch), np.asarray(single)
    assert np.max(np.abs(batch - single), initial=0.0) <= 1e-13 * np.max(np.abs(single), initial=0.0)


def assert_jets_match(g, jb, row, single, x):
    assert_rel_close(jb.value[row], single.value)
    assert_rel_close(jb.grad[row], single.grad)
    assert_rel_close(jb.hess[row], single.hess)
    assert_rel_close(jb.dt[row], single.dt)
    assert_rel_close(horizontal_gradient(g, jb, x)[row], horizontal_gradient(g, single, x[row]))
    assert_rel_close(horizontal_hessian(g, jb, x)[row], horizontal_hessian(g, single, x[row]))


@pytest.mark.parametrize("g", [HEIS, M3N5], ids=["heis", "m3n5"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_batched_jets_equal_per_point_jets(g, data):
    P = data.draw(st.integers(1, 6))
    box = arrays(np.float64, (P, g.n), elements=st.floats(-1.5, 1.5, allow_nan=False))
    x, base = data.draw(box), data.draw(box)
    t = data.draw(arrays(np.float64, P, elements=st.floats(0.0, 1.0)))
    # stay clear of the sqrt gauge's excluded origin and of sqrt(0)
    x[np.linalg.norm(x[:, : g.m], axis=-1) < 1e-3, 0] = 0.5
    for name, f in batch_fields(g).items():
        jb = f.jet(x, t)
        assert jb.value.shape == (P,) and jb.hess.shape == (P, g.n, g.n), name
        for row in range(P):
            assert_jets_match(g, jb, row, f.jet(x[row], t[row]), x)
    for vary, at in (("x", x), ("y", base)):
        other = base if vary == "x" else x
        jb = ScalarField(_quartic_distance_expr(g, other, vary), g).jet(at)
        for row in range(P):
            single = ScalarField(_quartic_distance_expr(g, other[row], vary), g).jet(at[row])
            assert_jets_match(g, jb, row, single, at)


@pytest.mark.parametrize("g", [HEIS, M3N5], ids=["heis", "m3n5"])
def test_norm_projections_vanish_exactly_on_axis(g):
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, g.n))
    x[:, : g.m] = 0.0
    j = ScalarField(_norm_expr(g), g).jet(x)
    assert np.max(np.abs(horizontal_gradient(g, j, x))) == 0.0
    assert np.max(np.abs(horizontal_hessian(g, j, x))) == 0.0


def test_batch_refusal_names_the_point_outside_domain():
    f = ScalarField(sq_norm(range(3)), HEIS, domain=lambda x: x[..., 0] > 0)
    x = np.array([[0.5, 0.0, 0.0], [-0.5, 1.0, 2.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="validity region") as info:
        f.jet(x)
    assert str(x[1]) in str(info.value)
    np.testing.assert_array_equal(f.jet(x[[0, 2]]).value, [0.25, 3.0])


def test_batch_refusal_names_the_nonpositive_base():
    f = ScalarField(sq_norm(range(2)) ** 0.5, HEIS)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.7]])
    with pytest.raises(ValueError, match="non-positive base") as info:
        f.jet(x)
    assert str(x[1]) in str(info.value)


def test_batched_regions_match_per_point():
    x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(40, 3))
    for kind in BARRIER_KINDS:
        for c in (-13.0, -6.0, 0.0):
            region = make_barrier(kind, HEIS, c=c, r=1.0).region
            np.testing.assert_array_equal(region(x), [bool(region(p)) for p in x])


def general_product(a, b):
    """The product rule with every term, on the (value, grad, Hessian, dt)
    tuples of two evaluated factors; a None derivative is made zeros first."""
    av, ag, aH, adt = a
    bv, bg, bH, bdt = b
    n = (bg if ag is None else ag).shape[-1]
    ag, bg = (np.zeros((1, n)) if d is None else d for d in (ag, bg))
    aH, bH = (np.zeros((1, n, n)) if d is None else d for d in (aH, bH))
    v = av * bv
    av, bv = np.asarray(av)[..., None], np.asarray(bv)[..., None]
    g = av * bg + bv * ag
    outer = ag[..., :, None] * bg[..., None, :], bg[..., :, None] * ag[..., None, :]
    H = av[..., None] * bH + bv[..., None] * aH + outer[0] + outer[1]
    dt = av[..., 0] * bdt + bv[..., 0] * adt
    return v, g, H, dt


def product_factors(g, P, seed):
    """Catalog barrier expressions and quartic-distance expressions (whose
    constants hold one value per point) over P points."""
    base = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(P, g.n))
    kinds = BARRIER_KINDS if g.n == g.m + 1 else ("cylinder",)
    exprs = [make_barrier(k, g, c=-1.3, r=0.8).field.expr for k in kinds]
    return exprs + [_quartic_distance_expr(g, base, vary) for vary in ("x", "y")]


@pytest.mark.parametrize("g", [HEIS, M3N5], ids=["heis", "m3n5"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_product_with_a_const_equals_the_general_product_rule(g, data):
    P = data.draw(st.integers(1, 5))
    x = data.draw(arrays(np.float64, (P, g.n), elements=st.floats(-1.5, 1.5, allow_nan=False)))
    # stay clear of the sqrt gauge's excluded origin
    x[np.linalg.norm(x[:, : g.m], axis=-1) < 1e-3, 0] = 0.5
    t = data.draw(st.floats(0.0, 1.0) | arrays(np.float64, P, elements=st.floats(0.0, 1.0)))
    scalar = st.floats(-3.0, 3.0, allow_nan=False)
    c = data.draw(scalar | arrays(np.float64, P, elements=scalar))
    shapes = ((P,), (P, g.n), (P, g.n, g.n), (P,))
    k = Const(c)
    for e in product_factors(g, P, data.draw(st.integers(0, 3))):
        for product, want in (
            (Product(k, e), general_product(k.eval(x, t), e.eval(x, t))),
            (Product(e, k), general_product(e.eval(x, t), k.eval(x, t))),
        ):
            for got, ref, shape in zip(product.eval(x, t), want, shapes):
                assert np.array_equal(np.broadcast_to(got, shape), np.broadcast_to(ref, shape))


# ---------------------------------------------------------------------------
# the reference evaluator: every derivative a dense array, zeros included
# ---------------------------------------------------------------------------


def dense_zeros(x):
    n = x.shape[-1]
    return np.zeros((1, n)), np.zeros((1, n, n))


def dense_outer(a, b):
    return a[..., :, None] * b[..., None, :]


def dense_const(self, x, t):
    return (self.c, *dense_zeros(x), 0.0)


def dense_coord(self, x, t):
    g, H = dense_zeros(x)
    g[0, self.i] = 1.0
    return x[:, self.i], g, H, 0.0


def dense_time(self, x, t):
    return (t, *dense_zeros(x), 1.0)


def dense_sum(self, x, t):
    v, g, H, dt = (0.0, *dense_zeros(x), 0.0)
    for term in self.terms:
        tv, tg, tH, tdt = term.eval(x, t)
        v, g, H, dt = v + tv, g + tg, H + tH, dt + tdt
    return v, g, H, dt


def dense_product(self, x, t):
    if isinstance(self.a, Const) or isinstance(self.b, Const):
        const, other = (self.a, self.b) if isinstance(self.a, Const) else (self.b, self.a)
        c = const.c
        v, g, H, dt = other.eval(x, t)
        return c * v, c[..., None] * g, c[..., None, None] * H, c * dt
    av, ag, aH, adt = self.a.eval(x, t)
    bv, bg, bH, bdt = self.b.eval(x, t)
    v = av * bv
    av, bv = np.asarray(av)[..., None], np.asarray(bv)[..., None]
    g = av * bg + bv * ag
    H = av[..., None] * bH + bv[..., None] * aH + dense_outer(ag, bg) + dense_outer(bg, ag)
    dt = av[..., 0] * bdt + bv[..., 0] * adt
    return v, g, H, dt


def dense_power(self, x, t):
    p = self.p
    if p == 0.0:
        return (1.0, *dense_zeros(x), 0.0)
    uv, ug, uH, udt = self.base.eval(x, t)
    uv = np.asarray(uv)
    if p != round(p):
        refuse_points(x, uv <= 0.0, f"fractional power {p} of a non-positive base")
    elif p < 2 and p != 1.0:
        refuse_points(x, uv == 0.0, f"power {p} undefined at base 0")
    v = uv ** p
    du = p * uv ** (p - 1)
    d2u = p * (p - 1) * uv ** (p - 2) if p != 1.0 else np.zeros_like(uv)
    g = du[..., None] * ug
    H = du[..., None, None] * uH + d2u[..., None, None] * dense_outer(ug, ug)
    return v, g, H, du * udt


DENSE_EVAL = {
    Const: dense_const, Coord: dense_coord, TimeVar: dense_time,
    Sum: dense_sum, Product: dense_product, Power: dense_power,
}


@contextlib.contextmanager
def reference_evaluator():
    """Every expression node evaluates through DENSE_EVAL while open."""
    with pytest.MonkeyPatch.context() as patch:
        for node, dense in DENSE_EVAL.items():
            patch.setattr(node, "eval", dense)
        assert Const(0.0).eval(np.zeros((1, 3)), 0.0)[1] is not None
        yield


def expr_trees(n, P):
    """Trees of every node type over n coordinates, with per-point Consts of length P."""
    number = st.floats(-2.0, 2.0, allow_nan=False)
    leaves = st.one_of(
        number.map(Const),
        arrays(np.float64, P, elements=number).map(Const),
        st.integers(0, n - 1).map(Coord),
        st.builds(TimeVar),
    )

    def nodes(children):
        return st.one_of(
            st.lists(children, max_size=3).map(lambda terms: Sum(*terms)),
            st.tuples(children, children).map(lambda ab: Product(*ab)),
            st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5])).map(lambda bp: Power(*bp)),
        )

    return st.recursive(leaves, nodes, max_leaves=8)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_jets_equal_the_dense_reference_evaluators(data):
    """Skipping zero derivatives changes no jet entry but possibly the sign of
    a zero, which np.array_equal does not see; each part is a full-shape,
    writable array that owns its memory."""
    P = data.draw(st.integers(1, 4))
    field = ScalarField(data.draw(expr_trees(HEIS.n, P)), HEIS)
    x = data.draw(arrays(np.float64, (P, HEIS.n), elements=coord))
    t = data.draw(st.floats(0.0, 1.0) | arrays(np.float64, P, elements=st.floats(0.0, 1.0)))
    try:
        with reference_evaluator(), np.errstate(all="ignore"):
            want = field.jet(x, t)
    except ValueError:
        with pytest.raises(ValueError):
            field.jet(x, t)
        return
    parts = ("value", "grad", "hess", "dt")
    # a dense zero term is nan where its factor overflows, and a skipped one is not
    assume(all(np.isfinite(getattr(want, part)).all() for part in parts))
    got = field.jet(x, t)
    for part, shape in zip(parts, ((P,), (P, HEIS.n), (P, HEIS.n, HEIS.n), (P,))):
        a = getattr(got, part)
        assert a.shape == shape and a.flags.writeable and a.flags.owndata, part
        assert np.array_equal(a, getattr(want, part)), part


def test_outputs_are_the_dense_reference_evaluators_bytes(tmp_path, capsys):
    """verify (Heisenberg and m3n5, two seeds) and barrier (every kind) print
    and write the same bytes as under the reference evaluator."""
    for preset in ("heisenberg", "m3n5"):
        for seed in (0, 1):
            doc = {"group": {"preset": preset}, "verify": {"seed": seed, "samples": 40}}
            (tmp_path / f"{preset}{seed}.json").write_text(json.dumps(doc))

    def outputs():
        got = []
        for preset in ("heisenberg", "m3n5"):
            for seed in (0, 1):
                assert main(["verify", "--config", str(tmp_path / f"{preset}{seed}.json")]) == 0
                got.append(capsys.readouterr().out)
        out = tmp_path / "out"
        for kind in BARRIER_KINDS:
            assert main(["barrier", "--kind", kind, "--lattice", "5", "--out", str(out)]) == 0
            got += [capsys.readouterr().out, (out / f"barrier_{kind}.csv").read_bytes()]
        return got

    shipped = outputs()
    with reference_evaluator():
        reference = outputs()
    assert shipped == reference
