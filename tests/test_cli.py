"""End-to-end command-line checks."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf, workdps

import tsu11
import tsu11.optimize
import tsu11.sweep
from tsu11 import lodi_db, make_params, report
from tsu11.circuits import FORCED, NUMERIC_FIELDS
from tsu11.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_UNDEFINED,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLodCommand:
    def test_classical_benchmark(self, capsys):
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--preset", "paper-start")
        assert code == EXIT_OK
        assert "lod_db         : -68.3369" in out

    def test_eta_flag_overrides_preset(self, capsys):
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--preset", "paper-start", "--eta", "0.8")
        assert code == EXIT_OK
        assert "-67.8524" in out

    def test_vacuum_lod_exit_3_with_variance(self, capsys):
        # the vacuum circuit drops the preset seeds automatically
        code, out, _ = run_cli(capsys, "lod", "--circuit", "vacuum",
                               "--preset", "paper-start")
        assert code == EXIT_UNDEFINED
        assert "undefined" in out
        assert "variance" in out

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "lod", "--preset", "nope")
        assert code == EXIT_CONFIG

    def test_unwritable_out_of_undefined_lod_exit_2(self, capsys):
        # the failed write outranks the undefined LOD
        code, _, err = run_cli(capsys, "lod", "--circuit", "vacuum", "--preset",
                               "paper-start", "--out", "/nonexistent-dir/x.csv")
        assert code == EXIT_CONFIG
        assert "error: cannot write" in err


class TestBadInput:
    def test_non_finite_parameter_exit_2(self, capsys):
        for flag, value in (("--r", "nan"), ("--alpha", "inf")):
            code, _, err = run_cli(capsys, "lod", "--preset", "paper-start", flag, value)
            assert code == EXIT_CONFIG
            assert "is not finite" in err

    def test_empty_optimize_grid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--preset", "paper-start", "--grid", "0")
        assert code == EXIT_CONFIG
        assert "--grid must be >= 1" in err


#: axes each command needs to get as far as reading its circuit and target
GOOD_AXES = {
    "sweep": ["--axis", "r:0:1:2"],
    "vacuum": ["--axis", "phi:-0.01:0.01:2", "--axis", "phi_p:0:0.01:2"],
}
BAD_VALUES = {"axis": "foo:0:1:2", "target": "foo", "circuit": "warp"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind", sorted(BAD_VALUES))
@pytest.mark.parametrize("command", ["lod", "lodi", "optimize", "sweep", "vacuum"])
def test_bad_axis_target_or_circuit_exit_2(capsys, tmp_path, command, kind, source):
    # a command that does not read the option refuses it; one that does
    # refuses the bad value; neither ends in a traceback
    argv = [command, "--preset", "paper-start"]
    axes = GOOD_AXES.get(command, [])
    bad = BAD_VALUES[kind]
    if source == "config":
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{kind} = {bad}\n")
        argv += ["--config", str(conf)] + axes
    elif kind == "axis":
        argv += ["--axis", bad] + axes[2:]
    else:
        argv += [f"--{kind}", bad] + axes
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "error:" in err
    assert "Traceback" not in err


#: axis pairs that set one field twice, directly or through a shorthand
OVERLAPPING_AXES = [
    ("vacuum", "phi:-0.05:0.05:3", "phi:-0.05:0.05:2"),
    ("sweep", "r:0:1:2", "r:0:1:2"),
    ("sweep", "eta:0.5:1:2", "eta_p1:0.5:1:2"),
    ("sweep", "phi:-0.05:0.05:2", "theta_f:-0.05:0.05:2"),
    ("sweep", "gamma_kappa:0.5:1:2", "gamma:0.5:1:2"),
]


@pytest.mark.parametrize("command,first,second", OVERLAPPING_AXES)
def test_overlapping_axes_exit_2(capsys, command, first, second):
    # the inner axis would overwrite the outer one's field, so the rows
    # would repeat settings under distinct labels
    code, out, err = run_cli(capsys, command, "--preset", "paper-start",
                             "--axis", first, "--axis", second)
    assert code == EXIT_CONFIG
    assert "both set" in err
    assert out == ""


#: command lines and the circuit each runs
FORCING_COMMANDS = [
    (["lod"], "tsu11"),
    (["lod", "--circuit", "classical"], "classical"),
    (["lod", "--circuit", "vacuum"], "vacuum"),
    (["lodi"], "tsu11"),
    (["optimize", "--grid", "2"], "tsu11"),
    (["optimize", "--grid", "2", "--circuit", "classical", "--target", "lod"], "classical"),
    (["optimize", "--grid", "2", "--circuit", "vacuum", "--target", "lod"], "vacuum"),
    (["sweep", "--axis", "r:0:1:2"], "tsu11"),
    (["sweep", "--axis", "r:0:1:2", "--circuit", "classical"], "classical"),
    (["sweep", "--axis", "r:0:1:2", "--circuit", "vacuum"], "vacuum"),
    (["vacuum"], "vacuum"),
]


class TestForcedFields:
    """A base value that sets a field the command's circuit forces, by
    flag or by config file, exits 2 as a sweep axis over it does; the
    builder would drop it and the sidecar would record it."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("field", sorted(FORCED["tsu11"]))
    @pytest.mark.parametrize("argv,circuit", FORCING_COMMANDS)
    def test_other_value_exit_2(self, capsys, tmp_path, argv, circuit, field, source):
        if source == "flag":
            given = [f"--{field}", "0.7"]
        else:
            conf = tmp_path / "forced.conf"
            conf.write_text(f"{field} = 0.7\n")
            given = ["--config", str(conf)]
        code, out, err = run_cli(capsys, *argv, "--preset", "paper-start", *given)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (f"error: the {circuit} circuit forces {field} = "
                       f"{FORCED[circuit][field]}: {field} = 0.7 would not move it\n")

    @pytest.mark.parametrize("command", ["lod", "lodi"])
    def test_the_forced_value_is_accepted(self, capsys, command):
        _, expected, _ = run_cli(capsys, command, "--preset", "paper-start")
        for field, value in FORCED["tsu11"].items():
            code, out, _ = run_cli(capsys, command, "--preset", "paper-start",
                                   f"--{field}", str(value))
            assert code == EXIT_OK
            assert out == expected

    @pytest.mark.parametrize("field", sorted(FORCED["tsu11"]))
    def test_su11_takes_every_field(self, capsys, field):
        code, out, _ = run_cli(capsys, "lod", "--circuit", "su11", "--preset", "paper-start",
                               f"--{field}", "0.7")
        assert code == EXIT_OK
        assert f'"{field}": "0.7' in out
        code, _, _ = run_cli(capsys, "sweep", "--circuit", "su11", "--preset", "paper-start",
                             "--axis", "r:0:1:2", f"--{field}", "0.7")
        assert code == EXIT_OK


class TestVacuumSeeds:
    """The vacuum circuit is unseeded by definition: it drops the preset
    seeds, and a nonzero seed by flag or config file exits 2 as a value
    for a forced field does."""

    VACUUM_COMMANDS = [argv for argv, circuit in FORCING_COMMANDS if circuit == "vacuum"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("argv", VACUUM_COMMANDS)
    def test_seed_exit_2(self, capsys, tmp_path, argv, field, source):
        if source == "flag":
            given = [f"--{field}", "3"]
        else:
            conf = tmp_path / "seeded.conf"
            conf.write_text(f"{field} = 3\n")
            given = ["--config", str(conf)]
        code, out, err = run_cli(capsys, *argv, "--preset", "paper-start", *given)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (f"error: the vacuum circuit forces {field} = 0: "
                       f"{field} = 3 would not move it\n")

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("argv", VACUUM_COMMANDS)
    def test_zero_seed_is_accepted(self, capsys, argv, field):
        dropped = run_cli(capsys, *argv, "--preset", "paper-start")
        assert dropped[0] != EXIT_CONFIG
        assert run_cli(capsys, *argv, "--preset", "paper-start", f"--{field}", "0") == dropped


class TestOptimizeEndsCleanly:
    """optimize exits 2 or 3 where it would end in a traceback or +inf."""

    def test_vacuum_circuit_drops_preset_seeds(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--circuit", "vacuum",
                               "--preset", "paper-start", "--grid", "2")
        assert code == EXIT_UNDEFINED
        assert "classical reference" in err

    def test_variance_target_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "optimize", "--preset", "paper-start",
                             "--target", "variance", "--grid", "2")
        assert code == EXIT_CONFIG
        conf = tmp_path / "run.conf"
        conf.write_text("preset = paper-start\ntarget = variance\n")
        code, _, err = run_cli(capsys, "optimize", "--config", str(conf), "--grid", "2")
        assert code == EXIT_CONFIG
        assert "optimize target" in err

    def test_unseeded_lodi_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--preset", "paper-start",
                               "--alpha", "0", "--grid", "2")
        assert code == EXIT_UNDEFINED
        assert "classical reference LOD undefined" in err

    def test_unseeded_vacuum_lod_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--circuit", "vacuum", "--alpha", "0",
                                 "--target", "lod", "--grid", "2")
        assert code == EXIT_UNDEFINED
        assert "inf" not in out
        assert "best grid cell" in err


class TestUnseededClassicalReference:
    """A conjugate seed alone leaves the classical reference unseeded, so
    every LODI is undefined."""

    ARGS = ("--preset", "paper-start", "--alpha", "0", "--beta", "1e6")
    MESSAGE = ("classical reference LOD undefined: "
               "the phase derivative of its <J> vanishes")

    def test_lodi_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "lodi", *self.ARGS)
        assert code == EXIT_UNDEFINED
        assert err.splitlines() == [f"undefined result: {self.MESSAGE}"]
        assert out == ""

    def test_lodi_sweep_records_every_row(self, capsys, tmp_path):
        out = tmp_path / "lodi.csv"
        code, _, _ = run_cli(capsys, "sweep", *self.ARGS, "--target", "lodi",
                             "--axis", "r:0.5:1:2", "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert all(row["lodi"] == "" and row["error"] == self.MESSAGE for row in rows)


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment line\npreset = paper-start\neta = 0.8\n")
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--config", str(conf))
        assert code == EXIT_OK
        assert "-67.8524" in out
        # flag wins over the file
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--config", str(conf), "--eta", "1")
        assert "-68.3369" in out

    def test_preset_flag_overrides_file_preset(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("preset = g15\n")
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--config", str(conf))
        assert code == EXIT_OK
        assert "-74.8077" in out
        code, out, _ = run_cli(capsys, "lod", "--circuit", "classical",
                               "--preset", "paper-start", "--config", str(conf))
        assert code == EXIT_OK
        assert "-68.3369" in out

    def test_arms_probe_spelled_as_the_flag(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("preset = paper-start\narms = probe\n")
        code, from_file, _ = run_cli(capsys, "lodi", "--config", str(conf))
        assert code == EXIT_OK
        code, from_flag, _ = run_cli(capsys, "lodi", "--preset", "paper-start",
                                     "--arms", "probe")
        assert from_file == from_flag
        assert '"arms": "probe-only"' in from_file

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        # no line order decides a value
        conf = tmp_path / "twice.conf"
        conf.write_text("preset = paper-start\nr = 0.5\nr = 0.9\n")
        code, out, err = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {conf}:3: key 'r' given twice\n"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("volume = 11\n")
        code, _, err = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "lod", "--config", "/nonexistent/x.conf")
        assert code == EXIT_CONFIG

    def test_precision_from_file_matches_flag(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("preset = paper-start\nprecision = 40\n")
        code, from_file, _ = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_OK
        code, from_flag, _ = run_cli(capsys, "lod", "--preset", "paper-start",
                                     "--precision", "40")
        assert from_file == from_flag
        assert '"precision": 40' in from_file

    def test_non_integer_precision_exit_2(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = paper-start\nprecision = forty\n")
        code, _, err = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_CONFIG
        assert "error:" in err and "Traceback" not in err

    def test_malformed_line(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("r 0.5\n")
        code, _, err = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_CONFIG


class TestShorthands:
    """A shorthand and a field it sets, from one source, exit 2 in either
    order; between the file and the flags, a flag overrides the file
    field by field."""

    def test_flag_and_its_field_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "lod", "--preset", "paper-start",
                                 "--eta", "0.5", "--eta_p1", "0.9")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "both set eta_p1" in err

    @pytest.mark.parametrize("lines", [["eta = 0.5", "eta_c1 = 0.9"],
                                       ["eta_c1 = 0.9", "eta = 0.5"]])
    def test_file_with_both_exit_2(self, capsys, tmp_path, lines):
        conf = tmp_path / "both.conf"
        conf.write_text("\n".join(["preset = paper-start", *lines]) + "\n")
        code, out, err = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "both set eta_c1" in err

    @pytest.mark.parametrize("in_file,flag,fields", [
        ("eta_p1 = 0.9", ["--eta", "0.8"], ["--eta_p1", "0.8", "--eta_c1", "0.8"]),
        ("eta = 0.8", ["--eta_p1", "0.9"], ["--eta_p1", "0.9", "--eta_c1", "0.8"]),
    ])
    def test_flag_overrides_file_field_by_field(self, capsys, tmp_path, in_file, flag,
                                                fields):
        conf = tmp_path / "run.conf"
        conf.write_text(f"preset = paper-start\n{in_file}\n")
        code, merged, _ = run_cli(capsys, "lodi", "--config", str(conf), *flag)
        assert code == EXIT_OK
        assert run_cli(capsys, "lodi", "--preset", "paper-start", *fields) == (
            EXIT_OK, merged, "")

    def test_make_params_refuses_both(self):
        with pytest.raises(ValueError, match="both set eta_p1"):
            make_params("paper-start", eta="0.5", eta_p1="0.9")


class TestSweepCommand:
    def test_requires_axis(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "paper-start")
        assert code == EXIT_CONFIG

    def test_bad_axis_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "paper-start",
                               "--axis", "r:0:1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("hi", ["inf", "nan", "-inf"])
    def test_non_finite_axis_bound_exit_2(self, capsys, hi):
        code, out, err = run_cli(capsys, "sweep", "--preset", "paper-start",
                                 "--axis", f"r:0:{hi}:5")
        assert code == EXIT_CONFIG
        assert "axis bounds must be finite" in err
        assert out == ""

    def test_axis_bounds_beyond_float_range_stay_exact(self, capsys):
        # 1e400 and 1e-400 overflow and underflow a float but not an mpf
        code, out, _ = run_cli(capsys, "sweep", "--preset", "paper-start",
                               "--axis", "r:0:1e400:5")
        assert code == EXIT_OK
        rows = out.splitlines()[1:6]
        assert [row.split(",")[0] for row in rows] == [
            "0.0", "2.5e+399", "5.0e+399", "7.5e+399", "1.0e+400"]
        assert all(row.endswith(",") for row in rows)
        code, out, _ = run_cli(capsys, "sweep", "--preset", "paper-start",
                               "--axis", "r:1e-400:1:3")
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("1.0e-400,")
        assert '"lo": "1e-400"' in out

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_vacuum_seed_axis_exit_2(self, capsys, field):
        # the vacuum circuit pins its seeds at 0 as it pins its forced
        # fields, so an axis over one exits 2 and writes no error rows
        code, out, err = run_cli(capsys, "sweep", "--preset", "paper-start",
                                 "--circuit", "vacuum", "--axis", f"{field}:0:1:3")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (f"error: the vacuum circuit forces {field} = 0: "
                       f"sweep axis '{field}' would not move it\n")

    @pytest.mark.parametrize("circuit", ["tsu11", "vacuum", "classical"])
    @pytest.mark.parametrize("field", ["s", "eta_p2", "eta_c2", "eta_p3", "eta_c3"])
    def test_axis_over_a_forced_field_exit_2(self, capsys, circuit, field):
        # the builder forces the field, so the sweep would write a constant
        # column; su11 keeps it
        code, out, err = run_cli(capsys, "sweep", "--preset", "paper-start",
                                 "--circuit", circuit, "--axis", f"{field}:0.1:0.9:3")
        assert code == EXIT_CONFIG
        assert f"the {circuit} circuit forces {field}" in err
        assert out == ""
        code, out, _ = run_cli(capsys, "sweep", "--preset", "paper-start", "--circuit", "su11",
                               "--axis", f"{field}:0.1:0.9:3")
        assert code == EXIT_OK
        assert len({row.split(",")[1] for row in out.splitlines()[1:4]}) == 3

    def test_axis_bound_keeps_every_typed_digit(self, capsys):
        r = "0.1234567890123456789012345"
        code, out, _ = run_cli(capsys, "sweep", "--preset", "paper-start",
                               "--axis", f"r:{r}:0.5:2", "--target", "variance")
        assert code == EXIT_OK
        axis_cell, variance_cell, _ = out.splitlines()[1].split(",")
        assert axis_cell == r
        assert f'"lo": "{r}"' in out
        code, lod_out, _ = run_cli(capsys, "lod", "--preset", "paper-start", "--r", r)
        assert code == EXIT_OK
        assert lod_out.splitlines()[6].split(",")[1] == variance_cell

    def test_csv_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", "paper-start", "--precision", "40",
            "--phi_p", "0.001", "--phi_c", "0.001",
            "--axis", "r:0:1.5:4", "--target", "lodi", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "r,lodi,error"
        assert len(lines) == 5
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["command"] == "sweep"
        assert sidecar["engine_version"]
        assert sidecar["parameters"]["gamma"] == "200000000.0"

    def test_r_sweep_61_rows(self, capsys, tmp_path):
        # LODI deepens with r until the seed shot noise takes over near
        # r = 2.65, then shallows again
        out = tmp_path / "rsweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", "paper-start", "--precision", "40",
            "--phi_p", "0.001", "--phi_c", "0.001",
            "--axis", "r:0:3:61", "--target", "lodi", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 62
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v <= 1e-10 for v in vals)
        assert abs(vals.index(min(vals)) * 0.05 - 2.65) < 0.101
        # monotone fall on the low-r side
        low = vals[:49]
        assert all(b <= a + 1e-12 for a, b in zip(low, low[1:]))

    def test_config_can_carry_command_options(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("preset = paper-start\ncircuit = classical\n")
        code, out, _ = run_cli(capsys, "lod", "--config", str(conf))
        assert code == EXIT_OK
        assert "circuit        : classical" in out

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_out_of_domain_point_is_an_error_row(self, capsys, tmp_path, field):
        # each point's parameters are built in its own row, so a value
        # outside the field's domain fills that row's error cell; su11 is
        # the circuit that forces no field
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--preset", "paper-start", "--circuit", "su11",
                               "--axis", f"{field}:-1:2:2", "--out", str(out))
        assert code == EXIT_OK
        assert "Traceback" not in err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        errors = []
        for row, value in zip(rows, (-1, 2)):
            try:
                make_params("paper-start").replace(**{field: value})
                expected = ""
            except ValueError as exc:
                expected = str(exc)
                errors.append(expected)
            assert row["error"] == expected
            assert (row["lod"] == "") == bool(expected)
        assert bool(errors) == (field in ("r", "s") or field.startswith("eta"))

    def test_lodi_target_compares_the_named_circuit(self, capsys, tmp_path):
        out = tmp_path / "su11.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "paper-start", "--s", "0.3",
                             "--circuit", "su11", "--target", "lodi",
                             "--axis", "r:0.5:1:2", "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        for row in rows:
            p = make_params("paper-start", s="0.3", r=row["r"])
            su11, tsu11 = (mp.nstr(lodi_db(p, c).lodi_db, p.precision)
                           for c in ("su11", "tsu11"))
            assert row["lodi"] == su11 != tsu11
            assert row["error"] == ""

    def test_unwritable_out(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", "paper-start", "--precision", "40",
            "--axis", "r:0:1:2", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == EXIT_CONFIG

    def test_vacuum_circuit_drops_preset_seeds(self, capsys, tmp_path):
        out = tmp_path / "vac.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "paper-start", "--circuit",
                             "vacuum", "--target", "variance", "--axis", "r:0:1:2",
                             "--out", str(out))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert all(row["variance"] and not row["error"] for row in rows)
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["parameters"]["alpha"] == "0.0"

    @pytest.mark.parametrize("axis,route,digits", [
        ("r:0:3:13", "interpolant", 40.0),
        ("eta:0.5:1.0:13", "engine", None),
    ])
    def test_sidecar_records_route(self, capsys, tmp_path, axis, route, digits):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "paper-start",
                             "--precision", "40", "--axis", axis, "--target", "lodi",
                             "--out", str(out))
        assert code == EXIT_OK
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["route"] == route
        assert sidecar["check_digits"] == digits

    def test_bitwise_determinism(self, capsys, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sweep", "--preset", "paper-start", "--precision", "40",
                "--phi_p", "0.001", "--phi_c", "0.001",
                "--axis", "eta:0.5:1.0:3", "--target", "lodi", "--out", str(out),
            )
            assert code == EXIT_OK
            texts.append(out.read_bytes() + out.with_suffix(".csv.json").read_bytes())
        assert texts[0] == texts[1]


class TestOptimizeCommand:
    def test_sidecar_keys(self, capsys, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, stdout, _ = run_cli(
                capsys, "optimize", "--preset", "paper-start", "--precision", "40",
                "--grid", "8", "--out", str(out),
            )
            assert code == EXIT_OK
            blobs.append(out.read_bytes() + out.with_suffix(".csv.json").read_bytes())
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        for key in ("phi_p", "phi_c", "lodi_db", "converged", "stop_reason", "grad_norm"):
            assert key in sidecar
        assert "converged" in stdout
        assert f"stop_reason    : {sidecar['stop_reason']}" in stdout
        # how the optimum was found, deterministic like every sidecar value
        assert sidecar["route"] == "interpolant"
        assert 25 <= sidecar["check_digits"] <= 40
        assert sidecar["converged"] and sidecar["stop_reason"] in ("step", "flat")
        assert isinstance(sidecar["grad_norm"], str) and float(sidecar["grad_norm"]) < 1e-25
        assert blobs[0] == blobs[1]


class TestReportSidecars:
    """The lod and lodi sidecars hold the report's fields: an mpf as a
    decimal string, an mpc as {"re", "im"}, an undefined LOD as null."""

    PARAMETERS = set(NUMERIC_FIELDS) | {"arms", "precision"}

    def _run(self, capsys, tmp_path, *argv):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--preset", "paper-start", "--out", str(out))
        rows = list(csv.reader(out.read_text().splitlines()))
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert set(sidecar["parameters"]) == self.PARAMETERS
        assert sidecar["parameters"]["arms"] == "both"
        assert sidecar["parameters"]["precision"] == 60
        assert all(isinstance(sidecar["parameters"][name], str) for name in NUMERIC_FIELDS)
        return code, rows, sidecar

    @pytest.mark.parametrize("circuit", ["tsu11", "vacuum"])
    def test_lod(self, capsys, tmp_path, circuit):
        code, rows, sidecar = self._run(capsys, tmp_path, "lod", "--circuit", circuit)
        assert set(sidecar) == {"command", "circuit", "report", "engine_version",
                                "parameters"}
        assert (sidecar["command"], sidecar["circuit"]) == ("lod", circuit)
        rep = sidecar["report"]
        assert set(rep) == {"mean_j", "second_moment", "variance", "dj_dphi_sq",
                            "lod_db", "source", "precision"}
        for key in ("mean_j", "second_moment", "variance"):
            assert set(rep[key]) == {"re", "im"}
            assert all(isinstance(v, str) for v in rep[key].values())
        assert (rep["source"], rep["precision"]) == ("engine", 60)
        assert rows[0] == ["circuit", "variance", "dj_dphi_sq", "lod_db"]
        assert rows[1][:3] == [circuit, rep["variance"]["re"], rep["dj_dphi_sq"]]
        if circuit == "vacuum":
            # the undefined LOD still writes both files
            assert code == EXIT_UNDEFINED
            assert rep["lod_db"] is None and rows[1][3] == "undefined"
        else:
            assert code == EXIT_OK
            want = report(circuit, make_params("paper-start")).lod_db
            assert rep["lod_db"] == rows[1][3] == mp.nstr(want, 60)

    def test_lodi(self, capsys, tmp_path):
        code, rows, sidecar = self._run(capsys, tmp_path, "lodi")
        assert code == EXIT_OK
        header = ["lod_tsu11_db", "lod_classical_db", "lodi_db"]
        assert set(sidecar) == {"command", "precision", "engine_version", "parameters",
                                *header}
        assert (sidecar["command"], sidecar["precision"]) == ("lodi", 60)
        assert rows == [header, [sidecar[key] for key in header]]
        assert sidecar["lodi_db"] == mp.nstr(lodi_db(make_params("paper-start")).lodi_db, 60)


class TestVacuumCommand:
    def test_map_written(self, capsys, tmp_path):
        out = tmp_path / "vac.csv"
        code, _, _ = run_cli(
            capsys, "vacuum", "--preset", "paper-start", "--precision", "40",
            "--axis", "phi:-0.02:0.02:9", "--axis", "phi_p:-0.02:0.02:3",
            "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,phi_p,variance,error"
        assert len(lines) == 1 + 9 * 3
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert len(sidecar["minima"]) == 3


#: each command at its cheapest
COMMANDS = {
    "lod": ["lod"],
    "lodi": ["lodi"],
    "optimize": ["optimize", "--grid", "2"],
    "sweep": ["sweep", *GOOD_AXES["sweep"]],
    "vacuum": ["vacuum", *GOOD_AXES["vacuum"]],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_through_main(capsys, tmp_path, command):
    # one writer: an unwritable --out exits 2 and every sidecar is stamped
    argv = [*COMMANDS[command], "--preset", "paper-start"]
    code, _, err = run_cli(capsys, *argv, "--out", "/nonexistent-dir/x.csv")
    assert code == EXIT_CONFIG
    assert "error: cannot write" in err
    out = tmp_path / "x.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_OK
    sidecar = json.loads(out.with_suffix(".csv.json").read_text())
    assert sidecar["command"] == command
    assert sidecar["engine_version"] == tsu11.__version__
    assert sidecar["parameters"]["alpha"] == ("0.0" if command == "vacuum" else "2000000.0")


@pytest.mark.parametrize("argv", [
    ["lod", "--preset", "paper-start"],
    ["sweep", "--preset", "paper-start", "--axis", "r:0:1:3"],
])
def test_closed_stdout_exits_1_quietly(argv):
    # the reader of the pipe is gone before the command writes a byte
    env = {**os.environ, "PYTHONPATH": str(Path(tsu11.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "tsu11.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 1
    assert err == b""


@pytest.mark.parametrize("module,argv", [
    (tsu11.optimize, ["optimize", "--preset", "paper-start", "--grid", "4"]),
    (tsu11.sweep, ["sweep", "--preset", "paper-start", "--axis", "r:0:3:13",
                   "--target", "lodi"]),
])
def test_failed_cross_check_exit_4(capsys, monkeypatch, module, argv):
    # the first report (a node of the sweep, the optimizer's one check)
    # is off by 1e-20: the interpolant's off-node check fails and the
    # command ends with one error line, no traceback
    calls = []

    def perturbed_once(circuit, q):
        rep = report(circuit, q)
        if not calls:
            with workdps(q.precision):
                rep.variance *= 1 + mpf("1e-20")
        calls.append(q)
        return rep

    monkeypatch.setattr(module, "report", perturbed_once)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONSISTENCY == 4
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "interpolant misses the engine" in line


def test_version(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "tsu11" in capsys.readouterr().out


def test_public_names_resolve_once():
    # a stale __all__ entry makes `from tsu11 import *` raise
    assert len(set(tsu11.__all__)) == len(tsu11.__all__)
    namespace = {}
    exec("from tsu11 import *", namespace)
    assert set(tsu11.__all__) <= namespace.keys()


def test_usage_error_exit_code(capsys):
    assert main(["lod", "--circuit", "warp-drive"]) == EXIT_CONFIG


def _readme_examples():
    """(argv, comment) of each ``tsu11`` line in the README's examples block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("tsu11 "):
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


def test_readme_examples(capsys, tmp_path):
    # each README example exits 0 and writes the same bytes twice, and the
    # first prints the LOD its comment states
    examples = _readme_examples()
    assert examples
    stdouts = []
    for argv, _ in examples:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK, argv
            files = sorted(tmp_path.iterdir())
            runs.append((out, [path.read_bytes() for path in files]))
            for path in files:
                path.unlink()
        assert runs[0] == runs[1], argv
        stdouts.append(runs[0][0])
    stated = re.search(r"-?\d+\.\d+", examples[0][1]).group()
    assert f"lod_db         : {stated}\n" in stdouts[0]
