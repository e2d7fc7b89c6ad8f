"""Command-line interface: configs, exit codes, and output files."""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import carnotflow.cli as cli
import carnotflow.solver as solver
from carnotflow import Engine, ScalarField, heisenberg, make_barrier
from carnotflow.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HEISENBERG = {"m": 2, "n": 3, "B": [[[0, 1], [-1, 0]]]}
SMALL_RUN = {
    "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
    "run": {"t_end": 0.05, "snapshot_every": 0.02},
}


# with make_unstable, a run of this turns nonfinite within a few steps
UNSTABLE = {
    "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
    "initial": {"r": -1.0},
    "run": {"t_end": 500.0},
}


def make_unstable(monkeypatch):
    """A step 1000 times the stable dt on data with a checkerboard bump of 1e3."""
    orig_engine_init = Engine.__init__
    orig_sample = solver._sample_initial

    def oversized_dt(self, cfg):
        orig_engine_init(self, cfg)
        self.dt *= 1000.0

    def seeded(cfg):
        vals = orig_sample(cfg)
        idx = np.indices(vals.shape).sum(axis=0)
        vals[1:-1, 1:-1, 1:-1] += 1e3 * np.where(idx % 2 == 0, 1.0, -1.0)[1:-1, 1:-1, 1:-1]
        return vals

    monkeypatch.setattr(Engine, "__init__", oversized_dt)
    monkeypatch.setattr(solver, "_sample_initial", seeded)


def unmakable_out(tmp_path, doc, flag):
    """A file, and the argv tail and config document that name, through
    --out (flag) or run.out_dir, an output directory at it or under it."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    if flag:
        return blocker, doc, ["--out", str(blocker)]
    return blocker, {**doc, "run": {**doc.get("run", {}), "out_dir": str(blocker / "sub")}}, []


class TestConfigErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"group": }')
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["verify", "--config", str(path)]) == 2
        assert "top level" in capsys.readouterr().err

    def test_unknown_group_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"group": {"preset": "engel"}})
        assert main(["verify", "--config", cfg]) == 2
        assert "group.preset" in capsys.readouterr().err

    def test_bad_field_reports_its_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scheme": {"cfl": "fast"}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "scheme.cfl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("run", "t_end", float("nan"), "t_end"),
            ("initial", "r", float("nan"), "initial.r"),
            ("run", "snapshot_every", float("nan"), "snapshot_every"),
            ("domain", "box", [[-2, float("inf")], [-2, 2], [-2, 2]], "box side"),
            ("scheme", "delta_reg", float("nan"), "delta_reg"),
        ],
    )
    def test_nonfinite_value_refused(self, tmp_path, capsys, section, key, value, field):
        # json writes NaN and Infinity, and json.load accepts them
        doc = {**SMALL_RUN, section: {**SMALL_RUN.get(section, {}), key: value}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("run", "t_end", -0.01, "t_end must be nonnegative"),
            ("run", "snapshot_every", -0.01, "snapshot_every must be nonnegative"),
            ("scheme", "delta_reg", 0.0, "delta_reg must be positive"),
            ("scheme", "delta_reg", -1e-6, "delta_reg must be positive"),
            ("scheme", "delta_reg", 1e-200, "delta_reg 1e-200 is too small: its square is 0"),
            ("scheme", "eps_sing", 0.0, "eps_sing must be positive"),
            ("scheme", "eps_sing", -1.0, "eps_sing must be positive"),
            ("domain", "box", [[-2, 2], [2, -2], [-2, 2]], "degenerate box side (2.0, -2.0)"),
        ],
    )
    def test_out_of_range_value_refused(self, tmp_path, capsys, section, key, value, field):
        doc = {**SMALL_RUN, section: {**SMALL_RUN.get(section, {}), key: value}}
        out = tmp_path / "o"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert f"carnotflow: config: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"sheme": {"kind": "envelope_min"}}, "sheme: unknown section"),
            ({"scheme": {"kindd": "envelope_min"}}, "scheme.kindd: unknown key"),
            ({"initial": {"radius": 0.5}}, "initial.radius: unknown key"),
            ({"verify": {"suite": ["barriers"]}}, "verify.suite: unknown key"),
            ({"group": {"preset": "heisenberg", "m": 2, "dim": 3}}, "group.dim: unknown key"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "barrier", "evolve", "extinction"])
    def test_unknown_section_or_key_refused(self, tmp_path, capsys, command, doc, field):
        # a misspelled key used to leave its default in force and exit 0
        out = tmp_path / "o"
        extra = {
            "barrier": ["--kind", "cylinder", "--lattice", "3", "--out", str(out)],
            "evolve": ["--out", str(out)],
        }.get(command, [])
        cfg = write_config(tmp_path, {**SMALL_RUN, **doc})
        assert main([command, "--config", cfg] + extra) == 2
        assert capsys.readouterr().err.startswith(f"carnotflow: {field}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    def test_nonfinite_group_matrices_refused(self, tmp_path, capsys, command):
        doc = {**SMALL_RUN, "group": {"m": 2, "n": 3, "B": [[[0, float("nan")], [float("nan"), 0]]]}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg] + (["--out", str(out)] if command == "evolve" else [])) == 2
        err = capsys.readouterr().err
        assert "group.B" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["envelope_min", [[-2, 2]], None])
    @pytest.mark.parametrize(
        "command, section",
        [
            ("verify", "group"),
            ("verify", "verify"),
            ("verify", "verify.barrier_drifts"),
            ("barrier", "initial"),
            ("barrier", "run"),
            ("evolve", "domain"),
            ("evolve", "initial"),
            ("evolve", "scheme"),
            ("evolve", "run"),
            ("evolve", "verify"),
            ("extinction", "domain"),
            ("extinction", "initial"),
            ("extinction", "scheme"),
            ("extinction", "run"),
        ],
    )
    def test_section_must_be_object(self, tmp_path, capsys, command, section, value):
        doc = json.loads(json.dumps(SMALL_RUN))
        parent, key = doc, section
        if "." in section:
            head, key = section.split(".")
            parent = doc.setdefault(head, {})
        parent[key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        extra = {
            "barrier": ["--kind", "cylinder", "--lattice", "5", "--out", str(out)],
            "evolve": ["--out", str(out)],
        }.get(command, [])
        assert main([command, "--config", cfg] + extra) == 2
        assert f"carnotflow: {section}: must be an object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "verify, field",
        [
            ({"barrier_drifts": {"sqrt_gauge": "x"}}, "verify.barrier_drifts.sqrt_gauge"),
            ({"suites": 5}, "verify.suites"),
            ({"suites": {"barriers": 1}}, "verify.suites"),
            ({"suites": "barriers"}, "verify.suites"),
            ({"suites": []}, "verify.suites"),
            ({"suites": ["barriers", "nope"]}, "verify.suites"),
            ({"suites": [["barriers"]]}, "verify.suites"),
            ({"barrier_drifts": {"gauge_sup": 3.0}}, "verify.barrier_drifts.gauge_sup"),
            ({"seed": -1, "suites": "x"}, "verify.seed"),
            ({"samples": 0}, "verify.samples"),
            ({"tolerance": -1.0}, "verify.tolerance"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "evolve"])
    def test_bad_verify_field_refused(self, tmp_path, capsys, command, verify, field):
        # evolve echoes the verify section into config_effective.json, so it
        # refuses what verify refuses, before it writes anything
        cfg = write_config(tmp_path, {**SMALL_RUN, "verify": verify})
        out = tmp_path / "o"
        extra = ["--out", str(out)] if command == "evolve" else []
        assert main([command, "--config", cfg] + extra) == 2
        assert f"carnotflow: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gauge", "sqrt_gauge_super", "euclid_ball"])
    def test_drift_for_fixture_absent_on_group_refused(self, tmp_path, capsys, key):
        # on m3n5 the barriers suite runs only the cylinder fixture, so a
        # drift for a gauge-type fixture would otherwise be silently ignored
        doc = {"group": {"preset": "m3n5"}, "verify": {"barrier_drifts": {key: 3.0}}}
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "--config", cfg, "--suite", "barriers"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"carnotflow: verify.barrier_drifts.{key}: no such fixture on this group")
        assert "['cylinder']" in err

    def test_cylinder_drift_still_read_on_m3n5(self, tmp_path, capsys):
        doc = {"group": {"preset": "m3n5"}, "verify": {"barrier_drifts": {"cylinder": 3.0}, "samples": 20}}
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "--config", cfg, "--suite", "barriers"]) == 1

    @pytest.mark.parametrize(
        "verify, field",
        [
            ({"seed": -1}, "verify.seed"),
            ({"seed": 1.5}, "verify.seed"),
            ({"seed": True}, "verify.seed"),
            ({"samples": 0}, "verify.samples"),
            ({"samples": 2.7}, "verify.samples"),
            ({"samples": 3.0}, "verify.samples"),
            ({"samples": False}, "verify.samples"),
        ],
    )
    def test_verify_numbers_refused(self, tmp_path, capsys, verify, field):
        # the barriers suite is where samples = 0 used to end in an IndexError
        cfg = write_config(tmp_path, {"verify": verify})
        assert main(["verify", "--config", cfg, "--suite", "barriers"]) == 2
        assert f"carnotflow: {field}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"verify": {"tolerance": value, "samples": 5}})
        assert main(["verify", "--config", cfg, "--suite", "barriers"]) == 2
        assert "carnotflow: verify.tolerance: must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "drifts, message",
        [
            ({"gauge": float("nan")}, "must be a finite number"),
            ({"sqrt_gauge": float("-inf")}, "must be a finite number"),
            ({"gauge": -1e-300}, "region admits 0 of 500 points"),
            ({"euclid_ball": -2.0000001}, "region admits 0 of 500 points"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "evolve"])
    def test_drift_without_samples_refused_without_hanging(self, tmp_path, capsys, drifts, message, command):
        # a region that admits no sample point once made the sampler loop
        # forever; evolve echoes the drifts, so it draws the same samples
        def too_slow(signum, frame):
            raise TimeoutError(f"{command} did not return within 20 s")

        cfg = write_config(tmp_path, {"verify": {"barrier_drifts": drifts}})
        out = tmp_path / "o"
        extra = {"verify": ["--suite", "barriers"], "evolve": ["--out", str(out)]}[command]
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(20)
        try:
            status = main([command, "--config", cfg] + extra)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert status == 2
        (key,) = drifts
        err = capsys.readouterr().err
        assert err.startswith(f"carnotflow: verify.barrier_drifts.{key}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "barrier"])
    @pytest.mark.parametrize("value", [5, "", None, ["out"]])
    def test_out_dir_must_be_nonempty_string(self, tmp_path, capsys, monkeypatch, command, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {**SMALL_RUN, "run": {**SMALL_RUN["run"], "out_dir": value}})
        extra = ["--kind", "cylinder", "--lattice", "3"] if command == "barrier" else []
        assert main([command, "--config", cfg] + extra) == 2
        assert "carnotflow: run.out_dir: must be a non-empty string" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    @pytest.mark.parametrize("key", ["c", "r"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_barrier_numbers_must_be_finite(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"initial": {key: value}})
        out = tmp_path / "o"
        assert main(["barrier", "--kind", "gauge", "--config", cfg, "--out", str(out)]) == 2
        assert f"carnotflow: initial.{key}: must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False, "0.5", "1"])
    @pytest.mark.parametrize(
        "command, section, key, field",
        [
            ("evolve", "initial", "r", "initial.r: must be a finite number"),
            ("evolve", "scheme", "cfl", "scheme.cfl: must be a finite number"),
            ("evolve", "scheme", "delta_reg", "scheme.delta_reg: must be a finite number"),
            ("evolve", "scheme", "eps_sing", "scheme.eps_sing: must be a finite number"),
            ("evolve", "run", "t_end", "run.t_end: must be a finite number"),
            ("evolve", "run", "snapshot_every", "run.snapshot_every: must be a finite number"),
            ("evolve", "domain", "box", "domain.box: box side"),
            ("barrier", "initial", "r", "initial.r: must be a finite number"),
            ("barrier", "initial", "c", "initial.c: must be a finite number"),
            ("verify", "verify", "tolerance", "verify.tolerance: must be a finite number"),
            ("verify", "verify", "barrier_drifts", "verify.barrier_drifts.gauge: must be a finite number"),
        ]
        + [
            (command, "group", key, f"group.{key}: must be {what}")
            for command in ("evolve", "barrier", "verify")
            for key, what in (("m", "an integer"), ("n", "an integer"), ("B", "a finite number"))
        ],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, capsys, command, section, key, field, value):
        # float() would take a JSON boolean as 0 or 1 and "0.5" as 0.5, int()
        # would take "1" as 1
        doc = json.loads(json.dumps(SMALL_RUN))
        if key == "box":
            value = [[-2, 2], [-2, 2], [-2, value]]
        elif key == "barrier_drifts":
            value = {"gauge": value}
        elif section == "group":
            doc["group"] = json.loads(json.dumps(HEISENBERG))
            if key == "B":
                value = [[[0, value], [-1, 0]]]
        doc.setdefault(section, {})[key] = value
        out = tmp_path / "o"
        extra = {
            "evolve": ["--out", str(out)],
            "barrier": ["--kind", "cylinder", "--lattice", "3", "--out", str(out)],
            "verify": ["--suite", "barriers"],
        }[command]
        assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 2
        assert f"carnotflow: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "barrier", "verify"])
    @pytest.mark.parametrize(
        "key, group",
        [("m", {"m": 2.7}), ("n", {"n": 3.9}), ("m", {"m": 2.0}), ("m", {"m": 1}), ("n", {"n": 2}),
         ("n", {"m": 3, "n": 3})],
    )
    def test_group_dimensions_must_be_integers(self, tmp_path, capsys, command, key, group):
        # int() would truncate 2.7 to 2 and 3.9 to 3, a valid group; n must exceed m
        doc = {**SMALL_RUN, "group": {**HEISENBERG, **group}}
        out = tmp_path / "o"
        extra = {
            "evolve": ["--out", str(out)],
            "barrier": ["--kind", "cylinder", "--lattice", "3", "--out", str(out)],
            "verify": ["--suite", "envelopes"],
        }[command]
        assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 2
        assert f"carnotflow: group.{key}: must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "barrier", "verify"])
    @pytest.mark.parametrize("key", ["m", "n", "B"])
    def test_group_fields_must_all_be_given(self, tmp_path, capsys, command, key):
        doc = {**SMALL_RUN, "group": {k: v for k, v in HEISENBERG.items() if k != key}}
        out = tmp_path / "o"
        extra = {
            "evolve": ["--out", str(out)],
            "barrier": ["--kind", "cylinder", "--lattice", "3", "--out", str(out)],
            "verify": ["--suite", "envelopes"],
        }[command]
        assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 2
        assert f"carnotflow: group.{key}: missing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_sandwich_must_be_boolean(self, tmp_path, capsys, value):
        doc = {**SMALL_RUN, "run": {**SMALL_RUN["run"], "sandwich": value}}
        out = tmp_path / "o"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "carnotflow: run.sandwich: must be true or false" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [8.7, "8"])
    def test_non_integer_resolution_refused(self, tmp_path, capsys, bad):
        doc = {**SMALL_RUN, "domain": {"box": [[-2, 2]] * 3, "resolution": [10, bad, 10]}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        assert "resolution must be a sequence of integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "extinction"])
    def test_front_touching_box_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {**SMALL_RUN, "initial": {"r": 5.0}})
        out = tmp_path / "o"
        extra = ["--out", str(out)] if command == "evolve" else []
        assert main([command, "--config", cfg] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("carnotflow: initial:") and "touches the boundary" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "extinction"])
    @pytest.mark.parametrize("r", [-1.0, 0.0, 0.001])
    def test_initial_set_without_interior_node_refused(self, tmp_path, capsys, command, r):
        # at 8^3 the interior node nearest the axis has |x_h|^2 = 0.125, so
        # these runs used to report extinction at t=0 and exit 0
        doc = {"initial": {"r": r}, "domain": {"resolution": [8, 8, 8]}}
        out = tmp_path / "o"
        extra = ["--out", str(out)] if command == "evolve" else []
        assert main([command, "--config", write_config(tmp_path, doc)] + extra) == 2
        assert capsys.readouterr().err.startswith("carnotflow: initial: no interior node has u0 > 0")
        assert not out.exists()

    def test_invalid_group_matrices(self, tmp_path, capsys):
        doc = {"group": {"m": 2, "n": 3, "B": [[[0, 1], [1, 0]]]}}
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "--config", cfg]) == 2
        assert "group.B" in capsys.readouterr().err


class TestVerify:
    def test_default_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for suite in cli.SUITES:
            assert suite in out
        assert "all suites passed" in out
        assert "FAIL" not in out

    def test_suite_selection(self, capsys):
        assert main(["verify", "--suite", "group-axioms"]) == 0
        out = capsys.readouterr().out
        assert "group-axioms" in out and "barriers" not in out

    def test_broken_drift_fixture_fails(self, tmp_path, capsys):
        # +6 drift turns the sqrt_gauge subsolution fixture into garbage
        cfg = write_config(tmp_path, {"verify": {"barrier_drifts": {"sqrt_gauge": 6.0}}})
        assert main(["verify", "--suite", "barriers", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "FAILURES above" in out

    def test_barriers_suite_evaluates_one_jet_batch_per_fixture(self, monkeypatch):
        calls = []
        jet = ScalarField.jet

        def counted(self, x, t=0.0):
            calls.append(np.shape(x))
            return jet(self, x, t)

        monkeypatch.setattr(ScalarField, "jet", counted)
        g = heisenberg()
        assert cli.suite_barriers(g, samples=20).passed
        assert calls == [(20, 3)] * len(cli._barrier_fixtures(g, {}))

    def test_sample_points_match_one_at_a_time_draws(self):
        g = heisenberg()
        region = make_barrier("gauge", g, -3.0, 1.0).region
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        pts = cli._sample_points(g, rng, 25, region=region)
        want = []
        while len(want) < 25:
            x = ref.uniform(-1.4, 1.4, size=g.n)
            if np.linalg.norm(x[:2]) >= 1e-3 and region(x):
                want.append(x)
        np.testing.assert_array_equal(pts, want)
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_envelopes_match_the_einsum_reference(self, monkeypatch, seed):
        calls = []
        sampled = cli._sampled_envelopes

        def recorded(dirs, A):
            calls.append((dirs, A, *sampled(dirs, A)))
            return calls[-1][2:]

        monkeypatch.setattr(cli, "_sampled_envelopes", recorded)
        assert cli.suite_envelopes(seed=seed).passed
        assert [A.shape for _, A, _, _ in calls] == [(100, 2, 2), (100, 3, 3)]
        for dirs, A, lo, hi in calls:
            for a, low, high in zip(A, lo, hi):
                quad, trA = np.einsum("ij,jk,ik->i", dirs, a, dirs), np.trace(a)
                assert abs(low - (-trA + np.min(quad))) <= 1e-15
                assert abs(high - (-trA + np.max(quad))) <= 1e-15

    def test_m3n5_group_runs_group_suites(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"group": {"preset": "m3n5"}})
        rc = main(["verify", "--suite", "group-axioms", "--suite", "norm-lemma",
                   "--config", cfg])
        assert rc == 0


def write_inline(snapshots, directory):
    """The reference outputs: the writers called in this process, in order."""
    directory.mkdir(parents=True)
    for i, snap in enumerate(snapshots):
        solver.write_snapshot_csv(snap, directory / f"snap_{i:04d}.csv")
        solver.write_front_csv(solver.extract_front(snap), directory / f"front_{i:04d}.csv")


def snapshots_of(cfg):
    """Every snapshot of a run of cfg, as its on_snapshot receives them."""
    snaps = []
    solver.run(cfg, on_snapshot=snaps.append)
    return snaps


def csv_bytes(directory, pattern="*.csv"):
    """{path relative to directory: bytes} of every file under it that
    matches pattern (every CSV file by default)."""
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob(pattern)) if p.is_file()}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEvolve:
    def test_outputs_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_RUN)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0

        snaps = sorted(out.glob("snap_*.csv"))
        fronts = sorted(out.glob("front_*.csv"))
        assert len(snaps) == 4 and len(fronts) == 4  # t = 0, .02, .04, .05
        assert (out / "config_effective.json").exists()
        stdout = capsys.readouterr().out
        assert "4 snapshots" in stdout

        # the effective config reproduces the run byte-for-byte
        out2 = tmp_path / "rerun"
        assert main(["evolve", "--config", str(out / "config_effective.json"),
                     "--out", str(out2)]) == 0
        for a, b in zip(snaps, sorted(out2.glob("snap_*.csv"))):
            assert a.read_bytes() == b.read_bytes()

    def test_echo_accepted_by_verify(self, tmp_path, capsys):
        doc = {**SMALL_RUN, "verify": {"seed": 3, "samples": 20, "suites": ["group-axioms"]}}
        out = tmp_path / "run"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", str(out / "config_effective.json")]) == 0
        assert "[PASS] group-axioms" in capsys.readouterr().out

    def test_snapshot_headers(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SMALL_RUN)
        main(["evolve", "--config", cfg, "--out", str(out)])
        assert (out / "snap_0000.csv").read_text().splitlines()[0] == "t,x1,x2,x3,u"
        assert (out / "front_0000.csv").read_text().splitlines()[0] == "t,x1,x2,x3"

    def test_sandwich_writes_companion_runs(self, tmp_path, capsys):
        doc = dict(SMALL_RUN)
        doc["run"] = {**SMALL_RUN["run"], "sandwich": True}
        out = tmp_path / "run"
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snap_0000.csv").exists()
        assert (out / "envelope_min" / "snap_0000.csv").exists()
        assert (out / "envelope_max" / "snap_0000.csv").exists()
        stdout = capsys.readouterr().out
        line = [l for l in stdout.splitlines() if "sandwich max violation" in l]
        assert len(line) == 1
        assert float(line[0].rsplit(" ", 1)[1]) < 1e-12
        line = [l for l in stdout.splitlines() if "regularization gap" in l]
        assert len(line) == 1
        assert 0.0 < float(line[0].rsplit(" ", 1)[1]) < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_exits_one_with_partial_outputs(self, tmp_path, capsys, monkeypatch):
        make_unstable(monkeypatch)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, UNSTABLE)
        with np.errstate(all="ignore"):
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "aborted" in err and "partial outputs" in err
        assert (out / "snap_0000.csv").exists()

    @pytest.mark.parametrize("sandwich", [False, True])
    def test_outputs_equal_the_writers_called_inline(self, tmp_path, capsys, sandwich):
        doc = {**SMALL_RUN, "run": {**SMALL_RUN["run"], "sandwich": sandwich}}
        out = tmp_path / "run"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        cfg = cli.build_solver_config(doc, cli.build_group(doc))
        ref = tmp_path / "ref"
        write_inline(snapshots_of(cfg), ref)
        if sandwich:
            for scheme in ("envelope_min", "envelope_max"):
                write_inline(snapshots_of(replace(cfg, scheme=scheme)), ref / scheme)
        expected = csv_bytes(ref)
        assert len(expected) == (24 if sandwich else 8)
        assert csv_bytes(out) == expected

    def test_one_writer_child_at_a_time_and_none_after_the_run(self, tmp_path, capsys, monkeypatch):
        # each snapshot forks one writer; when it does, no earlier writer may
        # be left, alive or unreaped
        fork = os.fork
        others = []

        def checked_fork():
            try:
                os.waitpid(-1, os.WNOHANG)
                others.append(True)
            except ChildProcessError:
                others.append(False)
            return fork()

        monkeypatch.setattr(os, "fork", checked_fork)
        out = tmp_path / "run"
        assert main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(out)]) == 0
        monkeypatch.undo()
        assert others == [False] * 4
        assert_no_child()
        assert len(csv_bytes(out)) == 8

    def test_failed_write_names_its_file_and_leaves_no_child(self, tmp_path, capfd):
        out = tmp_path / "run"
        (out / "snap_0001.csv").mkdir(parents=True)
        with pytest.raises(OSError, match="snap_0001.csv") as info:
            main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(out)])
        assert info.value.filename == str(out / "snap_0001.csv")
        assert_no_child()
        assert "IsADirectoryError" in capfd.readouterr().err  # the writer's traceback
        ref = tmp_path / "ref"
        write_inline(snapshots_of(cli.build_solver_config(SMALL_RUN, heisenberg()))[:1], ref)
        assert {k: v for k, v in csv_bytes(out).items() if k.endswith("_0000.csv")} == csv_bytes(ref)

    def test_failed_write_carries_the_writers_error(self, tmp_path, monkeypatch):
        # with sys.stderr no file, the child's traceback goes nowhere: the
        # parent's OSError must carry the child's exception itself
        out = tmp_path / "run"
        (out / "snap_0001.csv").mkdir(parents=True)
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        with pytest.raises(OSError, match="exited 1: IsADirectoryError: .*snap_0001.csv") as info:
            main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(out)])
        assert info.value.filename == str(out / "snap_0001.csv")
        assert_no_child()

    @pytest.mark.parametrize("fault", ["front", "kill"])
    def test_a_failed_front_or_a_killed_writer_names_its_file(self, tmp_path, monkeypatch, capfd, fault):
        # the writer's exit code names the file: 2 the front CSV that its
        # second step could not write, a signal the snapshot CSV
        if fault == "front":
            extract = cli.extract_front

            def broken(snap):
                if snap.time > 0.0:
                    raise MemoryError("no room for the front")
                return extract(snap)

            monkeypatch.setattr(cli, "extract_front", broken)
            path, error = "front_0001.csv", "exited 2: MemoryError: no room for the front"
        else:
            write = cli.write_snapshot_csv

            def killed(snap, path):
                if snap.time > 0.0:
                    os.kill(os.getpid(), signal.SIGKILL)
                write(snap, path)

            monkeypatch.setattr(cli, "write_snapshot_csv", killed)
            path, error = "snap_0001.csv", "exited -9: no report"
        out = tmp_path / "run"
        with pytest.raises(OSError, match=error) as info:
            main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(out)])
        assert info.value.filename == str(out / path)
        assert_no_child()
        if fault == "front":
            assert "MemoryError: no room for the front" in capfd.readouterr().err  # the writer's traceback

    def test_a_failed_fork_propagates_and_leaves_nothing_open(self, tmp_path, monkeypatch):
        # the first fork is snapshot 0's writer; no descriptor is left open
        # either, which the no_descriptor_left fixture checks
        def failing():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", failing)
        with pytest.raises(OSError, match="no process to spare"):
            main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(tmp_path / "run")])
        assert_no_child()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_reports_partial_outputs_once_they_are_complete(self, tmp_path, monkeypatch):
        # the step after snapshot 1 turns nonfinite; the front writer, which
        # runs in the child, is slowed, so a line printed before the last
        # child was reaped would find front_0001.csv missing
        emitted, on_disk = [], {}
        run_ = cli.run
        write_front = cli.write_front_csv
        euler = Engine._euler

        def recorded_run(cfg, record_sandwich=False, on_snapshot=None):
            def emit(snap):
                emitted.append(snap)
                on_snapshot(snap)

            return run_(cfg, record_sandwich, emit)

        def poisoned(self, u, dt, new, rows):
            new = euler(self, u, dt, new, rows)
            if len(emitted) == 2:
                new[rows[0] : rows[1]] = np.nan
            return new

        def slow_front(cloud, path):
            time.sleep(0.3)
            write_front(cloud, path)

        class Stderr(io.StringIO):
            def write(self, text):
                if "partial outputs" in text:
                    on_disk.update(csv_bytes(out))
                return super().write(text)

        out = tmp_path / "run"
        monkeypatch.setattr(cli, "run", recorded_run)
        monkeypatch.setattr(Engine, "_euler", poisoned)
        monkeypatch.setattr(cli, "write_front_csv", slow_front)
        monkeypatch.setattr(sys, "stderr", Stderr())
        assert main(["evolve", "--config", write_config(tmp_path, SMALL_RUN), "--out", str(out)]) == 1
        assert "aborted" in sys.stderr.getvalue()
        monkeypatch.undo()
        assert_no_child()
        assert len(emitted) == 2
        write_inline(emitted, tmp_path / "ref")
        assert on_disk == csv_bytes(tmp_path / "ref")

    def test_extinction_reported(self, tmp_path, capsys):
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [12, 12, 12]},
            "run": {"t_end": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "extinction at t=" in out

    @pytest.mark.parametrize("flag", [True, False], ids=["--out", "run.out_dir"])
    def test_an_out_dir_that_cannot_be_created_is_refused(self, tmp_path, capsys, flag):
        blocker, doc, tail = unmakable_out(tmp_path, SMALL_RUN, flag)
        assert main(["evolve", "--config", write_config(tmp_path, doc)] + tail) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"carnotflow: {'--out' if flag else 'run.out_dir'}: cannot create")
        assert "Traceback" not in err
        assert blocker.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]

    def test_every_run_directory_is_created_before_the_first_run(self, tmp_path, capsys):
        # with the sandwich, a companion directory that cannot be created is
        # refused before the first run writes a file
        doc = {**SMALL_RUN, "run": {**SMALL_RUN["run"], "sandwich": True}}
        out = tmp_path / "run"
        out.mkdir()
        (out / "envelope_max").write_text("kept")
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert "carnotflow: --out: cannot create" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["envelope_max", "envelope_min"]
        assert not any((out / "envelope_min").iterdir())


class TestBarrier:
    def test_table_written_with_verdicts(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["barrier", "--kind", "gauge", "--lattice", "5",
                     "--out", str(out)]) == 0
        path = out / "barrier_gauge.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,closed_op,numeric_op,regime,verdict"
        assert all(line.endswith(",ok") or ",outside-region" in line for line in lines[1:])
        assert "0 failures" in capsys.readouterr().out

    def test_axis_points_skipped_and_counted(self, tmp_path, capsys):
        out = tmp_path / "o"
        for kind in ("cylinder", "sqrt_gauge"):
            assert main(["barrier", "--kind", kind, "--lattice", "5",
                         "--out", str(out)]) == 0
            # the 5-lattice has one x_h = 0 column of 5 points; it holds the
            # origin, where sqrt_gauge is not differentiable
            assert "5 points skipped" in capsys.readouterr().out
            rows = np.loadtxt(out / f"barrier_{kind}.csv", delimiter=",", skiprows=1, usecols=range(5))
            assert rows.shape == (120, 5)
            assert np.all(np.hypot(rows[:, 0], rows[:, 1]) > 0.5) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("kind", ["cylinder", "gauge", "euclid_ball", "sqrt_gauge"])
    def test_table_bytes_match_the_per_row_loop(self, tmp_path, capsys, monkeypatch, kind):
        # the former writer formatted each row with f-strings, one row at a time
        seen = []
        check = cli.check_point

        def recorded(g, field, points, t):
            seen.append((points, check(g, field, points, t)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "check_point", recorded)
        out = tmp_path / "o"
        assert main(["barrier", "--kind", kind, "--lattice", "7", "--out", str(out)]) == 0
        (points, verdict), = seen
        g = heisenberg()
        c = {"cylinder": -2.0, "gauge": 0.0, "euclid_ball": 0.0, "sqrt_gauge": -6.0}[kind]
        closed = make_barrier(kind, g, c, 1.0).closed_form_operator(points)
        table = (out / f"barrier_{kind}.csv").read_text()
        status = [line.rsplit(",", 1)[1] for line in table.splitlines()[1:]]
        want = "x1,x2,x3,closed_op,numeric_op,regime,verdict\n"
        for x, cl, nu, rg, word in zip(points, closed, verdict.sub_residual, verdict.regime, status):
            coords = ",".join(f"{v:.17g}" for v in (*x, cl, nu))
            want += f"{coords},{rg},{word}\n"
        assert table == want and len(status) == len(points)

    def test_unknown_kind(self, capsys):
        assert main(["barrier", "--kind", "cone"]) == 2
        assert "--kind" in capsys.readouterr().err

    @pytest.mark.parametrize("lattice", ["-1", "0"])
    def test_lattice_below_one_refused(self, tmp_path, capsys, lattice):
        out = tmp_path / "o"
        assert main(["barrier", "--kind", "gauge", "--lattice", lattice, "--out", str(out)]) == 2
        assert f"carnotflow: --lattice: must be at least 1, got {lattice}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [True, False], ids=["--out", "run.out_dir"])
    def test_an_out_dir_that_cannot_be_created_is_refused(self, tmp_path, capsys, flag):
        blocker, doc, tail = unmakable_out(tmp_path, {}, flag)
        argv = ["barrier", "--kind", "gauge", "--lattice", "3", "--config", write_config(tmp_path, doc)]
        assert main(argv + tail) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"carnotflow: {'--out' if flag else 'run.out_dir'}: cannot create")
        assert "Traceback" not in err
        assert blocker.read_text() == "kept"

    def test_one_point_lattice(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["barrier", "--kind", "gauge", "--lattice", "1", "--out", str(out)]) == 0
        assert len((out / "barrier_gauge.csv").read_text().splitlines()) == 2

    def test_drift_override_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"initial": {"c": 0.0, "r": 2.0}})
        out = tmp_path / "o"
        assert main(["barrier", "--kind", "cylinder", "--lattice", "5",
                     "--config", cfg, "--out", str(out)]) == 0
        assert "cylinder(c=0, r=2) expected supersolution" in capsys.readouterr().out


class TestExtinction:
    def test_reports_time(self, tmp_path, capsys):
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [12, 12, 12]},
            "run": {"t_end": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["extinction", "--config", cfg]) == 0
        out = capsys.readouterr().out
        t = float(out.split("t=")[1])
        assert 0.3 < t < 0.6

    def test_reports_absence(self, tmp_path, capsys):
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
            "run": {"t_end": 0.02},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["extinction", "--config", cfg]) == 0
        assert "none before t_end" in capsys.readouterr().out

    def test_runs_without_snapshots(self, tmp_path, capsys, monkeypatch):
        # the command reads only the extinction time, so it passes the
        # configured cadence and no callback, and run copies no slab: at a
        # cadence below dt every step would hold a copy of the slab.
        # Snapshots never change the steps, so the printed line is the one a
        # run that hands out every snapshot gives.
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
            "run": {"t_end": 1.0, "snapshot_every": 1e-9},
        }
        results = []

        def spy(cfg, *args, **kwargs):
            results.append((cfg, args, kwargs, solver.run(cfg, *args, **kwargs)))
            return results[-1][-1]

        monkeypatch.setattr(cli, "run", spy)
        assert main(["extinction", "--config", write_config(tmp_path, doc)]) == 0
        [(cfg, args, kwargs, result)] = results
        assert cfg.snapshot_every == 1e-9 and args == () and kwargs == {}
        snaps = []
        configured = solver.run(cfg, on_snapshot=snaps.append)
        assert len(snaps) == configured.n_steps + 1
        assert result == configured and result.extinction_time is not None
        assert capsys.readouterr().out == f"extinction: t={configured.extinction_time:.6g}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_exits_one_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        make_unstable(monkeypatch)
        with np.errstate(all="ignore"):
            assert main(["extinction", "--config", write_config(tmp_path, UNSTABLE)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("extinction: aborted, nonfinite values after step")
        assert captured.out == ""


def test_console_entry_point_subprocess(tmp_path):
    """One end-to-end check through the real interpreter and argv plumbing."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    proc = subprocess.run(
        [sys.executable, "-m", "carnotflow", "evolve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "snap_0003.csv").exists()


# ------------------------------------------------- config-boundary property ---

NONFINITE = [float("nan"), float("inf"), float("-inf")]
NOT_NUMBERS = ["fast", "", [0.5], {"v": 0.5}, True, "0.5"]
NOT_OBJECTS = ["envelope_min", [[-2, 2]], 3.0, None]
# the barriers suite's drifts on the Heisenberg group when none is overridden;
# any other drift may turn a fixture's verdict to FAIL
CLASSIFIED_DRIFTS = {
    "cylinder": -2.0, "gauge_super": 1.0, "gauge": -12.0, "euclid_ball_super": 0.0,
    "euclid_ball": -6.0, "sqrt_gauge_super": 0.0, "sqrt_gauge": -6.0,
}

# (section, key) -> (valid values, bad values, a word every refusal of a bad
# value names); the grid stays at most 8^3, the runs at most 0.01 long and the
# barriers suite at most 12 points per fixture, so resolution, t_end and
# samples are never left to their defaults; the group is always given by m, n
# and B, so that a fault in one of them is checked and not hidden by a preset
FIELDS = {
    ("group", "m"): (st.sampled_from([2]), st.sampled_from([2.7, 2.0, 1, "2", True, None, [2]]), "group.m"),
    ("group", "n"): (st.sampled_from([3]), st.sampled_from([3.9, 3.0, 2, "3", False, None]), "group.n"),
    ("group", "B"): (
        st.sampled_from([HEISENBERG["B"], [[[0.0, 1.0], [-1.0, 0.0]]]]),
        st.sampled_from(
            ["B", 5, [[[0, 1], [1, 0]]], [[[0, 1], [-1]]]]
            + [[[[0, v], [-1, 0]]] for v in NONFINITE + [True, False, "1", None]]
        ),
        "group.B",
    ),
    ("domain", "box"): (
        st.floats(1.5, 3.0).map(lambda a: [[-a, a]] * 3),
        st.sampled_from(
            [[[-2, 2]] * 2, [[-2, 2]] * 4, "box", 5, [1, 2, 3]]
            + [[[-2, 2], [-2, 2], [-2, v]] for v in NONFINITE + NOT_NUMBERS]
        ),
        "box",
    ),
    ("domain", "resolution"): (
        st.lists(st.integers(4, 8), min_size=3, max_size=3),
        st.sampled_from([[8, 8], [8, 8, 8, 8], [8, 8.7, 8], [8, "8", 8], "abc", 8, [8, None, 8]]),
        "resolution",
    ),
    ("initial", "preset"): (
        st.sampled_from(["cylinder", "gauge_ball", "euclid_ball", "sqrt_gauge_ball"]),
        st.sampled_from(["torus", ["cylinder"], 1.0]),
        "preset",
    ),
    ("initial", "r"): (st.floats(0.05, 5.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "initial.r"),
    ("initial", "c"): (st.floats(-4.0, 2.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "initial.c"),
    ("initial", "relabel"): (
        st.sampled_from([None, "cubic"]),
        st.sampled_from(["quintic", ["cubic"], 3.0]),
        "relabel",
    ),
    ("scheme", "kind"): (
        st.sampled_from(["regularized", "envelope_min", "envelope_max"]),
        st.sampled_from(["upwind", ["regularized"], 0.0]),
        "scheme",
    ),
    ("scheme", "delta_reg"): (
        st.floats(1e-8, 1.0),
        st.sampled_from(NONFINITE + NOT_NUMBERS + [1e-200]),
        "delta_reg",
    ),
    ("scheme", "eps_sing"): (st.floats(1e-8, 1.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "eps_sing"),
    ("scheme", "cfl"): (st.floats(0.1, 1.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "cfl"),
    # dt is 0.002-0.36 on these grids: runs of up to ~130 steps, most of
    # several, with cadence marks between steps and a shortened last step
    ("run", "t_end"): (st.floats(0.05, 0.25), st.sampled_from(NONFINITE + NOT_NUMBERS), "t_end"),
    ("run", "snapshot_every"): (
        st.sampled_from([0.0, 1e-20]) | st.floats(0.0, 0.1),
        st.sampled_from(NONFINITE + NOT_NUMBERS),
        "snapshot_every",
    ),
    ("run", "out_dir"): (
        st.sampled_from(["out", "runs/a"]),
        st.sampled_from([5, "", None, ["out"], 0.5]),
        "run.out_dir",
    ),
    ("run", "sandwich"): (
        st.booleans(),
        st.sampled_from(["false", "true", 0, 1, None, [True]]),
        "run.sandwich",
    ),
    ("verify", "seed"): (
        st.integers(0, 2**32),
        st.sampled_from([-1, 1.5, 2.0, True, "0", None, [0]]),
        "verify.seed",
    ),
    ("verify", "samples"): (
        st.integers(1, 12),
        st.sampled_from([0, -3, 2.7, 3.0, False, "5", None]),
        "verify.samples",
    ),
    ("verify", "tolerance"): (
        st.floats(1e-9, 1.0),
        st.sampled_from(NONFINITE + NOT_NUMBERS + [-1.0, -1e-12]),
        "verify.tolerance",
    ),
    ("verify", "barrier_drifts"): (
        st.lists(st.sampled_from(sorted(CLASSIFIED_DRIFTS)), unique=True).map(
            lambda keys: {key: CLASSIFIED_DRIFTS[key] for key in keys}
        ),
        st.sampled_from(
            [{"gauge": v} for v in NONFINITE + NOT_NUMBERS + [-1e-300]]
            + [{"euclid_ball": -2.0000001}, {"gauge_sup": 3.0}]
        ),
        "verify.barrier_drifts",
    ),
}
SECTIONS = ("group", "domain", "initial", "scheme", "run", "verify")
GROUP = {f for f in FIELDS if f[0] == "group"}
# command -> (sections it requires to be objects, (section, key) fields it reads)
READS = {
    # evolve checks the verify fields it echoes, and draws a drift's samples
    "evolve": (set(SECTIONS), set(FIELDS) - {("initial", "c")}),
    "verify": ({"group", "verify"}, GROUP | {f for f in FIELDS if f[0] == "verify"}),
    "barrier": (
        {"group", "initial", "run"},
        GROUP | {("initial", "r"), ("initial", "c"), ("run", "out_dir")},
    ),
}


@st.composite
def valid_documents(draw):
    """A config document of valid values, some fields left to their defaults."""
    doc = {}
    for (section, key), (valid, _, _) in FIELDS.items():
        if section == "group" or key in ("resolution", "t_end", "samples") or draw(st.booleans()):
            doc.setdefault(section, {})[key] = draw(valid)
    return doc


@st.composite
def config_documents(draw):
    """A config document and its faults as (section, key or None, word a
    refusal names, whether the whole section is bad); no faults: valid."""
    doc, faults = draw(valid_documents()), set()
    for section, key in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2)):
        _, bad, word = FIELDS[section, key]
        doc.setdefault(section, {})[key] = draw(bad)
        faults.add((section, key, word, False))
    for section in draw(st.lists(st.sampled_from(SECTIONS), max_size=1)):
        doc[section] = draw(st.sampled_from(NOT_OBJECTS))
        faults.add((section, None, f"{section}: must be an object", True))
    # an unknown section, or an unknown key in an object section, which every
    # command refuses
    for section in draw(st.lists(st.sampled_from(SECTIONS + ("",)), max_size=1)):
        parent, path = (doc.setdefault(section, {}), f"{section}.kindd") if section else (doc, "sheme")
        if isinstance(parent, dict):
            parent[path.rsplit(".", 1)[-1]] = draw(st.sampled_from([1, {}]))
            faults.add((None, None, f"{path}: unknown", False))
    return doc, faults


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_documents())
def test_config_boundary_runs_or_refuses(case):
    doc, faults = case
    for command, (objects, fields) in READS.items():
        named = {
            word
            for section, key, word, whole in faults
            if section is None or (section in objects if whole else (section, key) in fields)
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            out = ["--out", os.path.join(tmp, "out")]
            extra = {
                "evolve": out,
                "verify": ["--suite", "barriers"],
                "barrier": ["--kind", "cylinder", "--lattice", "3"] + out,
            }[command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([command, "--config", cfg] + extra)
        message = err.getvalue()
        if named:
            assert status == 2, (command, doc, message)
        assert status in (0, 2), (command, doc, message)
        if status == 2:
            assert message.startswith("carnotflow: ")
            if named:
                assert any(word in message for word in named), (command, doc, message)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_documents(), st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1.5))
def test_every_evolve_echo_reproduces_its_run(doc, steps, cadence):
    # config_effective.json promises a config that reproduces the run: run
    # from it, evolve writes the same bytes, its own echo and the companion
    # directories included, and every other command accepts it.  t_end and
    # the cadence are drawn in units of dt here: up to four steps, the last
    # one shorter, with snapshots at every step, between steps or only at
    # the ends.
    dt = Engine(cli.build_solver_config(doc, cli.build_group(doc))).dt
    doc["run"].update(t_end=steps * dt, snapshot_every=cadence * dt)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(doc))
        echo = str(tmp / "first" / "config_effective.json")
        commands = [
            ["evolve", "--out", str(tmp / "second")],
            ["extinction"],
            ["verify", "--suite", "group-axioms"],
            ["barrier", "--kind", "cylinder", "--lattice", "3", "--out", str(tmp / "barrier")],
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["evolve", "--config", str(tmp / "config.json"), "--out", str(tmp / "first")])
            assert status in (0, 2), (doc, err.getvalue())
            assume(status == 0)  # valid fields may describe no run, e.g. a front that touches the box
            for command in commands:
                assert main([command[0], "--config", echo] + command[1:]) == 0, (command, doc, err.getvalue())
        assert csv_bytes(tmp / "first", "*") == csv_bytes(tmp / "second", "*")
