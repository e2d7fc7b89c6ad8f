"""Command-line interface: configs, exit codes, and output files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import carnotflow.cli as cli
import carnotflow.solver as solver
from carnotflow import Engine
from carnotflow.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_RUN = {
    "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
    "run": {"t_end": 0.05, "snapshot_every": 0.02},
}


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
        ],
    )
    def test_bad_verify_field_refused(self, tmp_path, capsys, verify, field):
        cfg = write_config(tmp_path, {"verify": verify})
        assert main(["verify", "--config", cfg]) == 2
        assert f"carnotflow: {field}:" in capsys.readouterr().err

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
        extra = ["--out", str(tmp_path / "o")] if command == "evolve" else []
        assert main([command, "--config", cfg] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("carnotflow: initial:") and "touches the boundary" in err

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

    def test_m3n5_group_runs_group_suites(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"group": {"preset": "m3n5"}})
        rc = main(["verify", "--suite", "group-axioms", "--suite", "norm-lemma",
                   "--config", cfg])
        assert rc == 0


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_exits_one_with_partial_outputs(self, tmp_path, capsys, monkeypatch):
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
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [10, 10, 10]},
            "initial": {"r": -1.0},
            "run": {"t_end": 500.0},
        }
        out = tmp_path / "run"
        cfg = write_config(tmp_path, doc)
        with np.errstate(all="ignore"):
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "aborted" in err and "partial outputs" in err
        assert (out / "snap_0000.csv").exists()

    def test_extinction_reported(self, tmp_path, capsys):
        doc = {
            "domain": {"box": [[-2, 2]] * 3, "resolution": [12, 12, 12]},
            "run": {"t_end": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "extinction at t=" in out


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
        assert main(["barrier", "--kind", "cylinder", "--lattice", "5",
                     "--out", str(out)]) == 0
        # the 5-lattice has one x_h = 0 column of 5 points
        assert "5 points skipped" in capsys.readouterr().out
        assert len((out / "barrier_cylinder.csv").read_text().splitlines()) == 121

    def test_unknown_kind(self, capsys):
        assert main(["barrier", "--kind", "cone"]) == 2
        assert "--kind" in capsys.readouterr().err

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
NOT_NUMBERS = ["fast", "", [0.5], {"v": 0.5}]
NOT_OBJECTS = ["envelope_min", [[-2, 2]], 3.0, None]

# (section, key) -> (valid values, bad values, a word every refusal of a bad
# value names); the grid stays at most 8^3, the runs at most 0.01 long and the
# barriers suite at most 12 points per fixture, so resolution, t_end and
# samples are never left to their defaults
FIELDS = {
    ("domain", "box"): (
        st.floats(1.5, 3.0).map(lambda a: [[-a, a]] * 3),
        st.sampled_from(
            [[[-2, 2]] * 2, [[-2, 2]] * 4, "box", 5, [1, 2, 3]]
            + [[[-2, 2], [-2, 2], [-2, v]] for v in NONFINITE + ["fast"]]
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
    ("scheme", "delta_reg"): (st.floats(1e-8, 1.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "delta_reg"),
    ("scheme", "eps_sing"): (st.floats(1e-8, 1.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "eps_sing"),
    ("scheme", "cfl"): (st.floats(0.1, 1.0), st.sampled_from(NONFINITE + NOT_NUMBERS), "cfl"),
    ("run", "t_end"): (st.floats(0.0, 0.01), st.sampled_from(NONFINITE + NOT_NUMBERS), "t_end"),
    ("run", "snapshot_every"): (
        st.sampled_from([0.0, 1e-20]) | st.floats(0.0, 0.01),
        st.sampled_from(NONFINITE + NOT_NUMBERS),
        "snapshot_every",
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
}
SECTIONS = ("domain", "initial", "scheme", "run", "verify")
# command -> (sections it requires to be objects, sections whose fields it reads)
READS = {
    "evolve": (set(SECTIONS), {"domain", "initial", "scheme", "run"}),
    "verify": ({"verify"}, {"verify"}),
}


@st.composite
def config_documents(draw):
    """A config document and its faults as (section, word a refusal names,
    whether the whole section is bad); no faults: valid."""
    doc, faults = {}, set()
    for (section, key), (valid, _, _) in FIELDS.items():
        if key in ("resolution", "t_end", "samples") or draw(st.booleans()):
            doc.setdefault(section, {})[key] = draw(valid)
    for section, key in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2)):
        _, bad, word = FIELDS[section, key]
        doc.setdefault(section, {})[key] = draw(bad)
        faults.add((section, word, False))
    for section in draw(st.lists(st.sampled_from(SECTIONS), max_size=1)):
        doc[section] = draw(st.sampled_from(NOT_OBJECTS))
        faults.add((section, f"{section}: must be an object", True))
    return doc, faults


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_documents())
def test_config_boundary_runs_or_refuses(case):
    doc, faults = case
    for command, (objects, fields) in READS.items():
        named = {word for section, word, whole in faults if section in (objects if whole else fields)}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            extra = ["--out", os.path.join(tmp, "out")] if command == "evolve" else ["--suite", "barriers"]
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
