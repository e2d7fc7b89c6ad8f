"""Batch front-end: verification suites and evolution runs from a config.

One JSON document describes an experiment; the subcommands read it and
write static outputs (text report, CSV files, an effective-config echo).

    carnotflow verify     --config cfg.json [--suite NAME ...]
    carnotflow barrier    --config cfg.json --kind gauge [--lattice N]
    carnotflow evolve     --config cfg.json [--out DIR]
    carnotflow extinction --config cfg.json

Config sections (all optional, defaults in parentheses):

    group   {"preset": "heisenberg" | "m3n5"} or {"m", "n", "B": [matrix, ...]}
    domain  {"box": [[lo, hi], ...] ([-2,2]^n), "resolution": [...] (32^n)}
    initial {"preset" ("cylinder"), "r" (1.0), "c" (kind default),
             "relabel" (null)}
    scheme  {"kind" ("regularized"), "delta_reg" (1e-6 diam),
             "eps_sing" (h_min^2), "cfl" (0.25)}
    run     {"t_end" (0.5), "snapshot_every" (0.0), "out_dir" ("out"),
             "sandwich" (false)}
    verify  {"suites" (all), "samples" (500), "tolerance" (1e-9),
             "seed" (0), "barrier_drifts" ({})}

A section or key not listed above is refused, as is a section that is
read and is not a JSON object.  verify.suites must be a non-empty list of
suite names.  verify.barrier_drifts overrides the drift constant c used for
a kind's classified fixture (e.g. {"sqrt_gauge": 4.0}); it exists so a
deliberately broken fixture demonstrably fails the suite.  Each key must
name a fixture, each drift must be a finite number and its region must
admit the samples.
Numeric fields, group.m, group.n and the entries of group.B included, take
JSON numbers only: booleans and numeric strings are refused, and m and n
must be integers with n > m >= 2.  run.out_dir must be a non-empty string,
even where --out overrides it; an output directory that cannot be created
is refused under --out or run.out_dir.  barrier --lattice must be >= 1.
evolve and extinction refuse initial data whose front touches the box or
that puts no interior node inside {u0 > 0}.  evolve echoes the verify
section into config_effective.json, so it refuses a verify field that
verify would refuse.  A refused command writes nothing.

evolve writes each snapshot's CSVs in one child process, a solver._Child
like the run's worker, while the run keeps stepping; at most one such
child is alive, and the last is reaped before evolve returns or raises.
The writer is the run's on_snapshot, and the run keeps no snapshot: evolve
holds one snapshot copy at a time, the one it forks a writer for.
extinction passes no callback, so its run copies no slab.  The run's own
worker steps half of each step's rows (see solver.run), so at most two
children are alive at a time.

Exit codes: 0 all checks pass / run completed; 1 scientific failure or
instability; 2 unusable config or arguments.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .barriers import (
    BarrierEval,
    SmoothMap1D,
    _relabel_residuals,
    make_barrier,
    psi_s_plus_s3,
    psi_sqrt,
    psi_square,
)
from .calculus import ScalarField, operator_bounds, sq_norm
from .groups import (
    GroupSpec,
    compose,
    dilate,
    gauge_distance,
    heisenberg,
    homogeneous_norm,
    inverse,
    is_heisenberg_like,
    m3n5,
    validate_spec,
)
from .solver import (
    InitialSpec,
    SolverConfig,
    _Child,
    _has_positive_interior,
    extract_front,
    init,
    run,
    write_front_csv,
    write_snapshot_csv,
)
from .verdicts import SweepReport, check_norm_lemma, check_point, classification_holds

__all__ = [
    "main",
    "ConfigError",
    "load_config",
    "build_group",
    "build_solver_config",
    "SUITES",
    "suite_group_axioms",
    "suite_norm_lemma",
    "suite_barriers",
    "suite_envelopes",
    "suite_change_of_variables",
]


class ConfigError(Exception):
    """Config rejected; the message carries the offending field path."""


# the keys of each config section, as the module docstring lists them
_KEYS = {
    "group": ("preset", "m", "n", "B"),
    "domain": ("box", "resolution"),
    "initial": ("preset", "r", "c", "relabel"),
    "scheme": ("kind", "delta_reg", "eps_sing", "cfl"),
    "run": ("t_end", "snapshot_every", "out_dir", "sandwich"),
    "verify": ("suites", "samples", "tolerance", "seed", "barrier_drifts"),
}


def _section(parent: dict, path: str) -> dict:
    """The object at the last key of a dotted path under parent; {} when absent."""
    value = parent.get(path.rsplit(".", 1)[-1], {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    return value


def _get(section: dict, path: str, key: str, default, caster=None):
    if key not in section:
        return default
    value = section[key]
    if caster is not None:
        try:
            return caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.{key}: {exc}") from exc
    return value


def _number(least: float = -math.inf, integer: bool = False):
    """Caster for _get: a finite JSON number >= least, as a float; with
    integer, an int.  Booleans and strings are refused, numeric or not."""

    def cast(value):
        ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
        if ok and not integer:
            value = float(value)
            ok = math.isfinite(value)
        if not ok or value < least:
            bound = f" >= {least:g}" if least > -math.inf else ""
            raise ValueError(f"must be {'an integer' if integer else 'a finite number'}{bound}, got {value!r}")
        return value

    return cast


def _box_side(side) -> tuple[float, float]:
    """One domain.box entry: a pair of finite JSON numbers."""
    lo, hi = side
    try:
        return _number()(lo), _number()(hi)
    except ValueError:
        raise ValueError(f"box side {side!r} must be two finite numbers") from None


def _matrices(value) -> list:
    """group.B: a list of matrices whose entries are finite JSON numbers."""

    def entries(v):
        return [entries(x) for x in v] if isinstance(v, list) else _number()(v)

    if not isinstance(value, list):
        raise ValueError(f"must be a list of matrices, got {value!r}")
    return [np.array(entries(mat)) for mat in value]


def _json(kind: type, what: str):
    """Caster for _get: a value of the given JSON type; a string must not be empty."""

    def cast(value):
        if not isinstance(value, kind) or value == "":
            raise ValueError(f"must be {what}, got {value!r}")
        return value

    return cast


def _out_dir(doc: dict, override: str | None = None) -> str:
    """run.out_dir, checked even where an override replaces it."""
    configured = _get(_section(doc, "run"), "run", "out_dir", "out", _json(str, "a non-empty string"))
    return override or configured


def _make_dirs(paths, source: str) -> None:
    """Create each output directory, or refuse it under source, the option or key that named it."""
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{source}: cannot create {path}: {exc.strerror}") from exc


def load_config(path: str | None) -> dict:
    """Parse the JSON config document; {} when no path is given."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    for name, section in doc.items():
        if name not in _KEYS:
            raise ConfigError(f"{name}: unknown section (choose from {tuple(_KEYS)})")
        # a section that is not an object is refused where a command reads it
        for key in section if isinstance(section, dict) else ():
            if key not in _KEYS[name]:
                raise ConfigError(f"{name}.{key}: unknown key (choose from {_KEYS[name]})")
    return doc


def build_group(doc: dict) -> GroupSpec:
    section = _section(doc, "group") if "group" in doc else {"preset": "heisenberg"}
    preset = section.get("preset")
    if preset is not None:
        if preset == "heisenberg":
            return heisenberg()
        if preset == "m3n5":
            return m3n5()
        raise ConfigError(f"group.preset: unknown preset {preset!r}")
    for key in ("m", "n", "B"):
        if key not in section:
            raise ConfigError(f"group.{key}: missing")
    m = _get(section, "group", "m", None, _number(2, integer=True))
    n = _get(section, "group", "n", None, _number(m + 1, integer=True))
    B = _get(section, "group", "B", None, _matrices)
    try:
        return validate_spec(m, n, B)
    except ValueError as exc:
        raise ConfigError(f"group.B: {exc}") from exc


def _fields(doc: dict, path: str, casters: dict) -> dict:
    """The keys of section path that the document holds, each read through its caster."""
    section = _section(doc, path)
    return {key: _get(section, path, key, None, cast) for key, cast in casters.items() if key in section}


def build_solver_config(doc: dict, group: GroupSpec) -> SolverConfig:
    """The document's solver config; InitialSpec and SolverConfig supply
    every default but the box ([-2, 2]^n) and the resolution (32^n)."""
    n = group.n
    domain = _section(doc, "domain")
    box = _get(domain, "domain", "box", [[-2.0, 2.0]] * n, lambda v: tuple(map(_box_side, v)))
    resolution = _get(domain, "domain", "resolution", [32] * n)
    number = _number()

    def optional(cast):  # null keeps the default
        return lambda v: v if v is None else cast(v)

    initial = _fields(doc, "initial", {"preset": str, "r": number, "relabel": optional(str)})
    scheme = _fields(
        doc, "scheme", {"kind": str, "delta_reg": optional(number), "eps_sing": optional(number), "cfl": number}
    )
    timing = _fields(doc, "run", {"t_end": number, "snapshot_every": number})
    if "kind" in scheme:
        scheme["scheme"] = scheme.pop("kind")
    try:
        return SolverConfig(group, box, resolution, InitialSpec(**initial), **scheme, **timing)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def effective_config_dict(doc: dict, cfg: SolverConfig, sandwich: bool) -> dict:
    """Defaults-filled config that reproduces the run exactly."""
    group = cfg.group
    # the verify section is echoed as given, so verify must accept it
    samples, _, seed, drifts, _ = _verify_fields(doc, group)
    if drifts:
        _fixture_samples(group, samples, seed, drifts)
    return {
        "group": {"m": group.m, "n": group.n, "B": group.B.tolist()},
        "domain": {
            "box": [list(side) for side in cfg.box],
            "resolution": list(cfg.resolution),
        },
        "initial": asdict(cfg.initial),
        "scheme": {
            "kind": cfg.scheme,
            "delta_reg": cfg.delta_reg_effective,
            "eps_sing": cfg.eps_sing_effective,
            "cfl": cfg.cfl,
        },
        "run": {
            "t_end": cfg.t_end,
            "snapshot_every": cfg.snapshot_every,
            "out_dir": _out_dir(doc),
            "sandwich": sandwich,
        },
        "verify": _section(doc, "verify"),
    }


# -------------------------------------------------------------- suites ----


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str]

    def report(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        return "\n".join([head] + [f"    {line}" for line in self.lines])


def suite_group_axioms(
    g: GroupSpec, samples: int = 1000, tol: float = 1e-12, seed: int = 0
) -> SuiteResult:
    """Group law axioms, dilation homomorphism, norm homogeneity,
    left-invariance of the gauge distance."""
    rng = np.random.default_rng(seed)
    # one row per draw, in the order x, y, z, lam of one draw at a time
    u = rng.random((samples, 3 * g.n + 1))
    x, y, z = (-2.0 + 4.0 * u[:, i * g.n : (i + 1) * g.n] for i in range(3))
    lam = 0.1 + (3.0 - 0.1) * u[:, -1]
    e = np.zeros(g.n)

    def largest(a):
        return float(np.max(np.abs(a), initial=0.0))

    hn = homogeneous_norm(g, x)
    worst = {
        "associativity": largest(compose(g, compose(g, x, y), z) - compose(g, x, compose(g, y, z))),
        "identity": max(largest(compose(g, x, e) - x), largest(compose(g, e, x) - x)),
        "inverse": max(largest(compose(g, x, inverse(x))), largest(compose(g, inverse(x), x))),
        "dilation-homomorphism": largest(
            dilate(g, lam, compose(g, x, y)) - compose(g, dilate(g, lam, x), dilate(g, lam, y))
        ),
        "norm-homogeneity": largest(
            (homogeneous_norm(g, dilate(g, lam, x)) - lam * hn) / np.maximum(1.0, lam * hn)
        ),
        "distance-left-invariance": largest(
            gauge_distance(g, compose(g, z, x), compose(g, z, y)) - gauge_distance(g, x, y)
        ),
    }
    lines = [f"{name}: worst deviation {dev:.3e}" for name, dev in worst.items()]
    return SuiteResult(
        f"group-axioms (m={g.m}, n={g.n}, {samples} draws, tol {tol:.0e})",
        max(worst.values()) <= tol,
        lines,
    )


def suite_norm_lemma(
    g: GroupSpec, samples: int = 1000, tol: float = 1e-10, seed: int = 0
) -> SuiteResult:
    rep = check_norm_lemma(g, n_points=samples, n_pairs=max(1, samples // 2), rng=np.random.default_rng(seed))
    lines = [
        f"closed-form XN: worst {rep.worst_grad:.3e}",
        f"closed-form X2N: worst {rep.worst_hess:.3e}",
        f"|XN|^2 >= 16|x_h|^6 margin: worst {rep.worst_lower_bound:.3e}",
        f"axis x_h=0 zero set: worst {rep.worst_axis:.3e}",
        f"quartic-distance |X_x| vs |X_y|: worst {rep.worst_pair_grad:.3e}",
        f"quartic-distance X2_x vs X2_y: worst {rep.worst_pair_hess:.3e}",
    ]
    return SuiteResult(
        f"norm-lemma (m={g.m}, n={g.n}, {rep.n_points} points, tol {tol:.0e})",
        rep.max_deviation() <= tol,
        lines,
    )


def _barrier_fixtures(g: GroupSpec, drifts: dict[str, float]) -> list[tuple[BarrierEval, str, str]]:
    """Catalog instances with classified drifts, each with its drift key."""
    m, n = g.m, g.n
    table = [
        ("cylinder", "cylinder", -2.0 * (m - 1), "solution"),
        ("gauge", "gauge_super", 1.0, "supersolution"),
        ("gauge", "gauge", -4.0 * n, "subsolution"),
        ("euclid_ball", "euclid_ball_super", 0.0, "supersolution"),
        ("euclid_ball", "euclid_ball", -2.0 * (m - 1) - 4.0, "subsolution"),
        ("sqrt_gauge", "sqrt_gauge_super", 0.0, "supersolution"),
        ("sqrt_gauge", "sqrt_gauge", -2.0 * n, "subsolution"),
    ]
    return [
        (make_barrier(kind, g, drifts.get(key, c), 1.0), expect, key)
        for kind, key, c, expect in table
        if kind == "cylinder" or is_heisenberg_like(g)
    ]


# blocks of 2 * count candidates that _sample_points draws at most
_SAMPLE_BLOCKS = 500
_ENVELOPE_BLOCK = 4  # matrices per product in _sampled_envelopes


def _sample_points(g: GroupSpec, rng, count: int, region=None, scale: float = 1.4):
    """count uniform draws in [-scale, scale]^n with |x_h| >= 1e-3 inside region.

    Candidates are filtered in blocks, and fewer points come back when
    _SAMPLE_BLOCKS blocks hold too few; the generator is then left just past
    the last candidate used, as drawing one candidate at a time would.
    """
    state = rng.bit_generator.state
    kept, drawn = np.empty((0, g.n)), 0
    while len(kept) < count and drawn < _SAMPLE_BLOCKS * 2 * count:
        x = rng.uniform(-scale, scale, size=(2 * count, g.n))
        ok = np.linalg.norm(x[:, : g.m], axis=-1) >= 1e-3
        if region is not None:
            ok &= np.broadcast_to(region(x), ok.shape)
        idx = np.flatnonzero(ok)[: count - len(kept)]
        kept, drawn = np.concatenate([kept, x[idx]]), drawn + len(x)
    if len(kept) == count:
        rng.bit_generator.state = state
        rng.uniform(-scale, scale, size=(drawn - len(x) + int(idx[-1]) + 1, g.n))
    return kept


def _fixture_samples(
    g: GroupSpec, samples: int, seed: int, drifts: dict[str, float]
) -> list[tuple[BarrierEval, str, np.ndarray]]:
    """Each catalog fixture of :func:`_barrier_fixtures` with its expected
    classification and its sample points, drawn in fixture order from one
    generator seeded with seed.

    A drift whose region admits fewer than samples points is refused with
    its field path, so every command that echoes the drifts can check them.
    """
    rng = np.random.default_rng(seed)
    fixtures = []
    for barrier, expect, key in _barrier_fixtures(g, drifts):
        pts = _sample_points(g, rng, samples, region=barrier.region)
        if len(pts) < samples:
            raise ConfigError(f"verify.barrier_drifts.{key}: region admits {len(pts)} of {samples} points")
        fixtures.append((barrier, expect, pts))
    return fixtures


def suite_barriers(
    g: GroupSpec,
    samples: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
    drifts: dict[str, float] | None = None,
) -> SuiteResult:
    """Closed forms vs jet recomputation, exactness of the solution
    cylinder, and the classified sign of every catalog fixture."""
    lines: list[str] = []
    ok = True

    for barrier, expect, pts in _fixture_samples(g, samples, seed, drifts or {}):
        spec = barrier.spec
        label = f"{spec.kind}(c={spec.c:g})"
        # one jet batch; at these regular points sub_residual is u_t + F(Xu, X2u)
        v = check_point(g, barrier.field, pts, 0.25)
        op_closed = barrier.closed_form_operator(pts)
        worst_op = float(np.max(np.abs(v.sub_residual - op_closed) / np.maximum(1.0, np.abs(op_closed))))
        worst_grad = float(np.max(np.abs(v.hgrad - barrier.closed_hgrad(pts))))
        worst_hess = float(np.max(np.abs(v.hhess - barrier.closed_hhess(pts))))
        match_ok = max(worst_op, worst_grad, worst_hess) <= tol
        ok = ok and match_ok
        lines.append(
            f"{label}: closed-vs-jet op {worst_op:.3e}, Xu {worst_grad:.3e}, "
            f"X2u {worst_hess:.3e} ({'ok' if match_ok else 'MISMATCH'})"
        )

        if spec.kind == "cylinder" and expect == "solution":
            worst_exact = float(np.max(np.abs(op_closed)))
            exact_ok = worst_exact <= 1e-12
            ok = ok and exact_ok
            lines.append(
                f"{label}: exact-solution residual {worst_exact:.3e} "
                f"({'ok' if exact_ok else 'NOT EXACT'})"
            )

        report = SweepReport(expect=expect, tolerance=tol)
        report.add(v)
        ok = ok and report.passed
        lines.append(f"{label}: {report.summary()}")

    return SuiteResult(
        f"barriers (m={g.m}, n={g.n}, {samples} points/fixture, tol {tol:.0e})",
        ok,
        lines,
    )


def _sphere_directions(m: int, count: int) -> np.ndarray:
    if m == 2:
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if m == 3:
        # Fibonacci lattice: near-uniform covering of S^2
        i = np.arange(count) + 0.5
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / count
        rho = np.sqrt(1.0 - z ** 2)
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    raise ValueError("direction lattice implemented for m in {2, 3}")


def _sampled_envelopes(dirs: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min and max of F(q, a) = -tr a + q.a.q over the unit directions q
    (rows of dirs), for each matrix a of A (shape (k, m, m)).

    The direction monomials q_j q_l are formed once, as an (m², directions) array;
    one product serves a block of _ENVELOPE_BLOCK matrices, whose samples alone are live.
    """
    count, m = dirs.shape
    mono = (dirs.T[:, None, :] * dirs.T[None, :, :]).reshape(m * m, count)
    flat, trA = A.reshape(len(A), m * m), np.trace(A, axis1=1, axis2=2)
    lo, hi = np.empty(len(A)), np.empty(len(A))
    for b in (slice(s, s + _ENVELOPE_BLOCK) for s in range(0, len(A), _ENVELOPE_BLOCK)):
        quad = flat[b] @ mono
        lo[b], hi[b] = -trA[b] + quad.min(axis=1), -trA[b] + quad.max(axis=1)
    return lo, hi


def suite_envelopes(
    matrices: int = 100, directions: int = 10_000, tol: float = 1e-3, seed: int = 0
) -> SuiteResult:
    """Eigen-based envelopes vs dense direction sampling of q -> qq-projected F.

    F_*(0, A) = inf over |q|=1 of F(q, A) and F^* the sup; sampling the unit
    sphere bounds both from inside, which pins the eigenvalue formulas.
    Matrices are normalized to unit Frobenius norm so the tolerance is an
    absolute one.  The samples come from :func:`_sampled_envelopes`, one
    product per block of matrices against the directions' monomials.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in (2, 3):
        dirs = _sphere_directions(m, directions)
        raw = rng.normal(size=(matrices, m, m))
        A = (raw + np.swapaxes(raw, 1, 2)) / 2.0
        A /= np.linalg.norm(A, axis=(1, 2))[:, None, None]
        bounds = operator_bounds(np.zeros((matrices, m)), A)
        lo, hi = _sampled_envelopes(dirs, A)
        worst = max(worst, float(np.max(np.abs(lo - bounds.lower))), float(np.max(np.abs(hi - bounds.upper))))
    return SuiteResult(
        f"envelopes ({matrices} matrices x m in {{2,3}}, {directions} directions, tol {tol:.0e})",
        worst <= tol,
        [f"eigen vs sampled envelopes: worst {worst:.3e}"],
    )


def _cov_families(g: GroupSpec) -> list[ScalarField]:
    hsq = sq_norm(range(g.m))
    full = sq_norm(range(g.n))
    gauge_expr = hsq ** 2 + 4.0 * sq_norm(range(g.m, g.n))
    fields = [hsq, full, gauge_expr, hsq + 0.5 * full, gauge_expr + full]
    return [ScalarField(e, g) for e in fields]


def suite_change_of_variables(
    g: GroupSpec, samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> SuiteResult:
    """curv_op(psi(U)) = psi'(U) curv_op(U) over documented (U, psi, x) draws,
    in one jet, projection and operator_bounds pass per field for all maps."""
    rng = np.random.default_rng(seed)
    fields = _cov_families(g)
    maps: list[SmoothMap1D] = [psi_square, psi_sqrt, psi_s_plus_s3]
    # draws (field, map, x) in blocks; x with |x_h| < 1e-3, or with U(x) <= 1e-6
    # under a map that is increasing only for positive arguments, is redrawn
    draws = []
    while sum(len(x) for _, _, x in draws) < samples:
        fi = rng.integers(len(fields), size=samples)
        mi = rng.integers(len(maps), size=samples)
        x = rng.uniform(-1.5, 1.5, size=(samples, g.n))
        ok = np.linalg.norm(x[:, : g.m], axis=-1) >= 1e-3
        for i, U in enumerate(fields):
            sel = ok & (fi == i) & (mi < 2)
            ok[sel] = U(x[sel]) > 1e-6
        draws.append((fi[ok], mi[ok], x[ok]))
    fi, mi, x = (np.concatenate(parts)[:samples] for parts in zip(*draws))
    worst = 0.0
    for i, U in enumerate(fields):
        sel = fi == i
        if np.any(sel):
            worst = max(worst, float(np.max(_relabel_residuals(g, U, maps, mi[sel], x[sel]))))
    return SuiteResult(
        f"change-of-variables ({samples} draws, tol {tol:.0e})",
        worst <= tol,
        [f"relabeling identity: worst relative residual {worst:.3e}"],
    )


SUITES = (
    "group-axioms",
    "norm-lemma",
    "barriers",
    "envelopes",
    "change-of-variables",
)


def _suite_names(value) -> list:
    """Caster for verify.suites: a non-empty JSON list of suite names."""
    if not isinstance(value, list) or not value or any(name not in SUITES for name in value):
        raise ValueError(f"must be a non-empty list of names from {SUITES}, got {value!r}")
    return value


def _verify_fields(doc: dict, g: GroupSpec) -> tuple:
    """The verify section's samples, tolerance, seed, barrier drifts and
    suites (None when it names none), each checked on the group g."""
    vf = _section(doc, "verify")
    samples = _get(vf, "verify", "samples", 500, _number(1, integer=True))
    tol = _get(vf, "verify", "tolerance", 1e-9, _number(0.0))
    seed = _get(vf, "verify", "seed", 0, _number(0, integer=True))
    drift_sec = _section(vf, "verify.barrier_drifts")
    keys = [key for _, _, key in _barrier_fixtures(g, {})]
    for key in drift_sec:
        if key not in keys:
            raise ConfigError(
                f"verify.barrier_drifts.{key}: no such fixture on this group (choose from {keys})"
            )
    drifts = {k: _get(drift_sec, "verify.barrier_drifts", k, None, _number()) for k in drift_sec}
    return samples, tol, seed, drifts, _get(vf, "verify", "suites", None, _suite_names)


def run_verify(doc: dict, suites: list[str] | None = None) -> tuple[bool, str]:
    g = build_group(doc)
    samples, tol, seed, drifts, configured = _verify_fields(doc, g)
    selected = suites or configured or list(SUITES)

    results: list[SuiteResult] = []
    specs = [g, m3n5()] if g.m == 2 else [g]  # also exercise a higher-step-two spec
    for name in selected:
        if name == "group-axioms":
            results += [suite_group_axioms(h, max(samples, 1000), 1e-12, seed) for h in specs]
        elif name == "norm-lemma":
            results += [suite_norm_lemma(h, max(samples, 1000), 1e-10, seed) for h in specs]
        elif name == "barriers":
            results.append(suite_barriers(g, samples, tol, seed, drifts))
        elif name == "envelopes":
            results.append(suite_envelopes(100, 10_000, 1e-3, seed))
        elif name == "change-of-variables":
            results.append(suite_change_of_variables(g, max(samples, 200), tol, seed))
    text = "\n".join(r.report() for r in results)
    return all(r.passed for r in results), text


# -------------------------------------------------------------- commands ---


def cmd_verify(args) -> int:
    doc = load_config(args.config)
    passed, text = run_verify(doc, args.suite or None)
    print(text)
    print("verify:", "all suites passed" if passed else "FAILURES above")
    return 0 if passed else 1


def cmd_barrier(args) -> int:
    doc = load_config(args.config)
    g = build_group(doc)
    kind = args.kind
    default_c = {"cylinder": -2.0 * (g.m - 1), "gauge": 0.0, "euclid_ball": 0.0, "sqrt_gauge": -2.0 * g.n}
    if kind not in default_c:
        raise ConfigError(f"--kind: unknown barrier kind {kind!r}")
    initial = _section(doc, "initial")
    r = _get(initial, "initial", "r", 1.0, _number())
    c = _get(initial, "initial", "c", default_c[kind], _number())
    out_dir = _out_dir(doc, args.out)
    if args.lattice < 1:
        raise ConfigError(f"--lattice: must be at least 1, got {args.lattice}")
    barrier = make_barrier(kind, g, c, r)
    expect = barrier.classification

    axes = [np.linspace(-1.5, 1.5, args.lattice)] * g.n
    points = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)

    # the axis x_h = 0 holds the origin, where sqrt_gauge is not differentiable
    skip = np.linalg.norm(points[:, : g.m], axis=-1) < 1e-6
    skipped_origin = int(np.sum(skip))
    points = points[~skip]
    in_region = barrier.region(points)
    closed = barrier.closed_form_operator(points)
    # one jet batch: at the regular points the residual is u_t + F(Xu, X2u)
    verdict = check_point(g, barrier.field, points, 0.0)
    numeric = verdict.sub_residual
    mismatch = np.abs(closed - numeric) > 1e-9 * np.maximum(1.0, np.abs(closed))
    sign_ok = classification_holds(expect, verdict.sub_residual, verdict.super_residual, 1e-9)
    status = np.where(~in_region, "outside-region", np.where(sign_ok & ~mismatch, "ok", "fail"))
    n_fail = int(np.sum(status == "fail"))

    _make_dirs([out_dir], "--out" if args.out else "run.out_dir")
    path = os.path.join(out_dir, f"barrier_{kind}.csv")
    # one row template over plain-Python columns: x1..xn, closed, numeric at 17 digits
    row = "%.17g," * (g.n + 2) + "%s,%s\n"
    columns = [*points.T.tolist(), closed.tolist(), numeric.tolist(), verdict.regime.tolist(), status.tolist()]
    with open(path, "w") as fh:
        header = ",".join([f"x{i+1}" for i in range(g.n)] + ["closed_op", "numeric_op", "regime", "verdict"])
        fh.write(header + "\n" + "".join([row % r for r in zip(*columns)]))
    print(
        f"{kind}(c={c:g}, r={r:g}) expected {expect}: {len(points)} rows, "
        f"{n_fail} failures, {skipped_origin} points skipped near the axis/origin -> {path}"
    )
    return 0 if n_fail == 0 else 1


def _check_initial(cfg: SolverConfig) -> None:
    """Refuse initial data that cannot start a run: a front that touches the
    box, or no interior node inside {u0 > 0}, which would be extinct at t=0."""
    try:
        grid = init(cfg)
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc
    if not _has_positive_interior(grid.values):
        raise ConfigError("initial: no interior node has u0 > 0; enlarge r or refine the grid")


def _write_outputs(cfg: SolverConfig, out_dir: str, effective: dict, sandwich: bool) -> int:
    """One run with its CSVs and config echo, into out_dir, which exists;
    under run.sandwich, a regularized run also records the sandwich violation.

    Each snapshot's snap/front CSVs are written by one _Child from the slab
    it inherits, while this process keeps stepping: its first step writes
    the snap CSV, its second the front CSV.  At most one child is alive: the
    next snapshot first reaps the previous child, and the last one is
    reaped before this function returns or raises, so every file is
    complete when the summary or the partial-outputs line is printed.  A
    child that exits with k != 0 makes this process raise OSError naming
    the k-th file (the snap CSV if a signal ended it) and carrying the
    child's report, the type and message of its exception.
    """
    record = sandwich and cfg.scheme == "regularized"
    with open(os.path.join(out_dir, "config_effective.json"), "w") as fh:
        json.dump(effective, fh, indent=2)
        fh.write("\n")

    files: list[tuple[str, str]] = []  # each snapshot's snap and front CSV, in order
    alive: list[_Child] = []  # the writer of the last snapshot, until it is reaped

    def reap():
        if alive:
            code, report = alive.pop().reap()
            if code:  # k names the k-th file, a signal the first
                path = files[-1][code - 1 if 0 < code <= 2 else 0]
                raise OSError(errno.EIO, f"snapshot writer exited {code}: {report or 'no report'}", path)

    def writer(snap):
        reap()
        snap_path, front_path = (os.path.join(out_dir, f"{k}_{len(files):04d}.csv") for k in ("snap", "front"))
        files.append((snap_path, front_path))
        alive.append(_Child(lambda go, reply: write_snapshot_csv(snap, snap_path),
                            lambda go, reply: write_front_csv(extract_front(snap), front_path)))

    try:
        try:
            result = run(cfg, record_sandwich=record, on_snapshot=writer)
        finally:
            reap()
    except RuntimeError as exc:
        print(f"evolve: aborted, {exc}", file=sys.stderr)
        print(f"evolve: partial outputs in {out_dir}", file=sys.stderr)
        return 1
    print(f"evolve: {len(files)} snapshots, dt={result.dt:.6g}, steps={result.n_steps}")
    if result.extinction_time is not None:
        print(f"evolve: extinction at t={result.extinction_time:.6g}")
    else:
        print("evolve: no extinction before t_end")
    if record:
        print(f"evolve: sandwich max violation {result.sandwich_max_violation:.3e}")
        print(f"evolve: regularization gap {result.regularization_gap:.3e}")
    return 0


def cmd_evolve(args) -> int:
    doc = load_config(args.config)
    cfg = build_solver_config(doc, build_group(doc))
    out_dir = _out_dir(doc, args.out)
    sandwich = _get(_section(doc, "run"), "run", "sandwich", False, _json(bool, "true or false"))
    runs = [(cfg, out_dir)]
    if sandwich and cfg.scheme == "regularized":  # companion envelope runs for inspection
        runs += [(replace(cfg, scheme=s), os.path.join(out_dir, s)) for s in ("envelope_min", "envelope_max")]
    # the echoes read run.out_dir and the verify section, refused ahead of the initial data
    echoes = [effective_config_dict(doc, sub, sandwich) for sub, _ in runs]
    _check_initial(cfg)
    _make_dirs([path for _, path in runs], "--out" if args.out else "run.out_dir")
    for (sub, path), echo in zip(runs, echoes):
        status = _write_outputs(sub, path, echo, sandwich)
        if status != 0:
            return status
    return 0


def cmd_extinction(args) -> int:
    doc = load_config(args.config)
    cfg = build_solver_config(doc, build_group(doc))
    _check_initial(cfg)
    try:
        result = run(cfg)
    except RuntimeError as exc:
        print(f"extinction: aborted, {exc}", file=sys.stderr)
        return 1
    if result.extinction_time is not None:
        print(f"extinction: t={result.extinction_time:.6g}")
    else:
        print(f"extinction: none before t_end={cfg.t_end:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnotflow",
        description="Step-two Carnot group calculus and horizontal mean curvature flow runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", default=None, help="JSON config path")
    p_verify.add_argument(
        "--suite", action="append", choices=SUITES, help="select a suite (repeatable)"
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_barrier = sub.add_parser("barrier", help="tabulate a catalog barrier on a lattice")
    p_barrier.add_argument("--config", default=None)
    p_barrier.add_argument("--kind", required=True, help="cylinder|gauge|euclid_ball|sqrt_gauge")
    p_barrier.add_argument("--lattice", type=int, default=7, help="lattice points per axis")
    p_barrier.add_argument("--out", default=None, help="output directory override")
    p_barrier.set_defaults(fn=cmd_barrier)

    p_evolve = sub.add_parser("evolve", help="run the level-set evolution, write CSVs")
    p_evolve.add_argument("--config", default=None)
    p_evolve.add_argument("--out", default=None, help="output directory override")
    p_evolve.set_defaults(fn=cmd_evolve)

    p_ext = sub.add_parser("extinction", help="report the numerical extinction time")
    p_ext.add_argument("--config", default=None)
    p_ext.set_defaults(fn=cmd_extinction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"carnotflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
