"""The run settings: flags, the INI round trip and one-line usage errors."""
from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import pytest

from pwldyn.cli import COMMANDS, RunConfig, dump_config, load_config, main

ANCHOR = ["--dim", "2", "--tl", "2.2", "--dl", "0.4", "--tr", "-1.3", "--dr", "-0.3"]

GOLDEN_3D = """\
[map]
dim = 3
tl = 1.6
dl = 0.0
sl = 0.8
tr = -1.5
dr = 1.0
sr = 0.0

[orbit]
transient = 10
keep = 20
escape_radius = inf
x0 = 0.1,0.2,0.3

[tolerances]
tol = 1e-08

[sampling]
grid = 0:1:5,0:1:5
param = tl
values = 1.5,1.6

[output]
format = json

"""

GOLDEN_MATRIX_FILE = """\
[map]
matrix_file = {path}

[orbit]
transient = 1000
keep = 3000
escape_radius = 1000000000000.0

[tolerances]
tol = 1e-09

[sampling]

[output]
format = json

"""

IDENTITY_MAP = "2\n1 0\n0 1\n1 0\n0 1\n1 0\n1 0\n"


def test_dump_config_golden_every_section(tmp_path):
    # scan reads every setting but the grid, which comes from a config file
    dump = tmp_path / "run.ini"
    cfg = tmp_path / "grid.ini"
    cfg.write_text("[sampling]\ngrid = 0:1:5,0:1:5\n")
    argv = ["scan", "--config", str(cfg), "--dim", "3", "--tl", "1.6", "--dl", "0.0",
            "--sl", "0.8", "--tr", "-1.5", "--dr", "1.0", "--sr", "0.0", "--x0", "0.1,0.2,0.3",
            "--escape-radius", "inf", "--tol", "1e-8",
            "--param", "tl", "--values", "1.5,1.6", "--format", "json",
            "--transient", "10", "--keep", "20", "--dump-config", str(dump),
            "--out", str(tmp_path / "scan.json")]
    assert main(argv) == 0
    assert dump.read_text() == GOLDEN_3D


def test_dump_config_golden_matrix_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(IDENTITY_MAP)
    dump = tmp_path / "run.ini"
    assert main(["analyze", "--matrix-file", str(path), "--dump-config", str(dump),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert dump.read_text() == GOLDEN_MATRIX_FILE.format(path=path)


# One value per setting that differs from its default and that a lossy
# text form would change.
SAMPLES = {
    "dim": 3,
    "tl": 0.1 + 0.2,
    "dl": -1e-300,
    "sl": 2.0 / 3.0,
    "tr": -0.0,
    "dr": 1e300,
    "sr": math.pi,
    "matrix_file": "maps/a b.txt",
    "transient": 7,
    "keep": 123456,
    "escape_radius": math.inf,
    "x0": (1.0 / 3.0, -2.5e-300, 4.0),
    "tol": 1e-13,
    "grid": "-1:1:5,0:2.5:3",
    "param": "sr",
    "values": (0.1, 0.30000000000000004, -7.0),
    "format": "csv",
}


def test_round_trip_samples_cover_every_setting():
    assert set(SAMPLES) == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_dump_load_round_trip(tmp_path, name):
    cfg = RunConfig(**{name: SAMPLES[name]})
    path = tmp_path / "run.ini"
    path.write_text(dump_config(cfg))
    loaded = load_config(str(path))
    assert loaded == cfg
    assert repr(getattr(loaded, name)) == repr(SAMPLES[name])


def one_error_line(err: str) -> bool:
    return err.count("\n") == 1 and err.startswith("error: ") and "usage:" not in err


def test_malformed_inline_number(capsys):
    assert main(["analyze", "--dim", "2", "--tl", "abc", "--dl", "0.4",
                 "--tr", "-1.3", "--dr", "-0.3"]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and err.startswith("error: could not parse tl: ")


@pytest.mark.parametrize("option, value", [("--transient", "1.5"), ("--x0", "1,a"),
                                           ("--values", "2.2,x")])
def test_malformed_inline_setting(capsys, option, value):
    code = main(["scan", *ANCHOR, "--param", "tl", "--values", "2.2", option, value])
    err = capsys.readouterr().err
    assert code == 2
    assert one_error_line(err) and err.startswith(f"error: could not parse {option[2:]}: ")


def test_config_file_with_both_map_sources_rejected(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text(IDENTITY_MAP)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[map]\nmatrix_file = {path}\ndim = 2\ntl = 1.0\n")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert one_error_line(capsys.readouterr().err)


def test_inline_map_source_replaces_the_config_one(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text(IDENTITY_MAP)
    cfg = tmp_path / "run.ini"
    assert main(["analyze", *ANCHOR, "--dump-config", str(cfg),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["analyze", "--config", str(cfg), "--matrix-file", str(path),
                 "--out", str(tmp_path / "b.json")]) == 0
    cfg.write_text(f"[map]\nmatrix_file = {path}\n")
    assert main(["analyze", "--config", str(cfg), *ANCHOR,
                 "--out", str(tmp_path / "c.json")]) == 0
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "a.json").read_bytes()


@pytest.mark.parametrize("text, named", [
    ("[orbit]\nkeeps = 5\n", "'keeps'"),
    ("[orbit]\ntol = 1e-8\n", "'tol'"),
    ("[orbits]\nkeep = 5\n", "[orbits]"),
    ("[DEFAULT]\nkeep = 5\n", "[DEFAULT]"),
], ids=["key", "key-of-another-section", "section", "default-section"])
def test_unknown_config_section_or_key_rejected(tmp_path, capsys, text, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[map]\ndim = 2\ntl = 2.2\ndl = 0.4\ntr = -1.3\ndr = -0.3\n\n" + text)
    assert main(["portrait", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and named in err
    assert not (tmp_path / "p.csv").exists()


def test_dumped_config_loads_back(tmp_path):
    dump = tmp_path / "run.ini"
    argv = ["scan", "--dim", "3", "--tl", "1.6", "--dl", "0.0", "--sl", "0.8",
            "--tr", "-1.5", "--dr", "1.0", "--sr", "0.0", "--x0", "0.1,0.2,0.3",
            "--tol", "1e-8", "--param", "tl", "--values", "1.5,1.6",
            "--transient", "10", "--keep", "20"]
    assert main(argv + ["--dump-config", str(dump), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["scan", "--config", str(dump), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["analyze", "--dim", "4"],
    ["analyze", *ANCHOR, "--seed", "1"],
    ["analyze", *ANCHOR, "--format", "xml"],
    [],
    ["nosuchcommand"],
])
def test_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_error_line(captured.err)


def test_unread_flags_are_usage_errors(capsys):
    # analyze writes only JSON and reads no grid or scan parameter
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *ANCHOR, "--format", "csv", "--grid=garbage", "--param", "tl"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and "unrecognized arguments" in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_settings_it_reads(capsys, command):
    settings = COMMANDS[command].settings
    for f in fields(RunConfig):
        if f.name in settings:
            continue
        with pytest.raises(SystemExit) as exc:
            main([command, "--" + f.name.replace("_", "-"), "1"])
        assert exc.value.code == 2
        assert one_error_line(capsys.readouterr().err)


def test_every_setting_is_read_by_some_command():
    read = {name for command in COMMANDS.values() for name in command.settings}
    assert read == {f.name for f in fields(RunConfig)}


def test_config_file_is_shared_across_commands(tmp_path):
    # keys a command does not read stay valid in its config file
    dump = tmp_path / "run.ini"
    assert main(["scan", *ANCHOR, "--param", "tl", "--values", "2.2", "--keep", "20",
                 "--transient", "10", "--dump-config", str(dump),
                 "--out", str(tmp_path / "scan.csv")]) == 0
    assert main(["analyze", *ANCHOR, "--out", str(tmp_path / "a.json")]) == 0
    assert main(["analyze", "--config", str(dump), "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


@pytest.mark.parametrize("command, text, golden", [
    ("analyze", "[orbit]\nescape_radius = 0\n", "analyze_shared_2d.json"),
    ("analyze", "[orbit]\nx0 = nan,1\n", "analyze_shared_2d.json"),
    ("portrait", "[tolerances]\ntol = -1\n", "portrait_shared_2d.csv"),
], ids=["analyze escape_radius", "analyze x0", "portrait tol"])
def test_unread_keys_are_not_range_checked(tmp_path, capsys, command, text, golden):
    # a value out of range under a key the command does not read is ignored
    # like any other value there
    config = tmp_path / "run.ini"
    config.write_text(text)
    short = ["--transient", "100", "--keep", "100"] if command == "portrait" else []
    assert main([command, *ANCHOR, *short, "--config", str(config)]) == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
