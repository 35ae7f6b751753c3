import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import memlogic

from memlogic import analysis, cli
from memlogic.array import CellAddress, TopologyKind
from memlogic.cli import main
from memlogic.config import ConfigError, build_config, load_config
from memlogic.device import VariabilityParams
from memlogic.logic1t1r import InitFailureError
from memlogic.scouting import OverlapError


# ------------------------------------------------------------------- config

def test_parse_config_scalars_and_lists(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "device.v_set_th_median = 2.0\n"
        "device.hrs_sigma_c2c = 0.5   # inline comment\n"
        "device.r_on = 25.0\n"
        "array.kind = pseudo-crossbar\n"
        "array.rows = 4\n"
        "array.cols = 6\n"
        "experiment.seed = 99\n"
        "experiment.cycles = 7\n"
        "experiment.gates = OR, XOR\n"
        "experiment.rotate_cells = true\n"
        "experiment.output_dir = results\n"
        "experiment.format = json\n")
    app = load_config(cfg)
    assert app.experiment.device.v_set_th_median == 2.0
    assert app.experiment.device.hrs_sigma_c2c == 0.5
    assert app.experiment.device.r_on == 25.0
    assert app.experiment.topology.kind == TopologyKind.PSEUDO_CROSSBAR
    assert (app.experiment.topology.rows, app.experiment.topology.cols) == (4, 6)
    assert app.experiment.seed == 99
    assert app.experiment.cycles == 7
    assert app.experiment.gates == ("OR", "XOR")
    assert app.experiment.rotate_cells is True
    assert app.output_dir == "results"
    assert app.format == "json"


def test_config_error_diagnostics(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("device.lrs_median\n")
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert "bad.cfg:1" in str(info.value)

    cfg.write_text("device.not_a_field = 1\n")
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert "device.not_a_field" in str(info.value)

    cfg.write_text("device.preset = table3-logic\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg: unknown key device\.preset$"):
        load_config(cfg)

    cfg.write_text("nosection = 1\n")
    with pytest.raises(ConfigError):
        load_config(cfg)

    # ArrayTopology checks the wiring, so its message names no file, as no
    # other model value error does.
    for kind in ("hexagon", "standard1t1r", "pseudo_crossbar"):
        cfg.write_text(f"array.kind = {kind}\n")
        with pytest.raises(ValueError) as info:
            load_config(cfg)
        assert str(info.value) == ("array kind must be one of ['standard', 'pseudo-crossbar'], "
                                   f"in any case, got '{kind}'")
    cfg.write_text("array.kind = Pseudo-Crossbar\n")
    assert load_config(cfg).experiment.topology.kind == TopologyKind.PSEUDO_CROSSBAR


def test_build_config_defaults():
    app = build_config({})
    assert app.experiment.device == VariabilityParams()
    assert app.experiment.topology.rows == 8
    assert app.format == "csv"


# ---------------------------------------------------------------------- cli

def test_cli_cases_table(tmp_path, capsys):
    assert main(["cases", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit() or l.startswith("  ")]
    table = (tmp_path / "cases.csv").read_text().splitlines()
    assert len(table) == 1 + 16
    yes_rows = [row for row in table[1:] if row.endswith(",1")]
    assert sorted(int(r.split(",")[0]) for r in yes_rows) == [4, 5]


def test_cli_gate_exit_codes(tmp_path, capsys):
    assert main(["gate", "OR", "--cycles", "10", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "OR p=0 q=1 -> 1" in out
    assert (tmp_path / "traces.csv").exists()
    assert main(["gate", "NOPE", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown gate" in err and "XOR" in err


def test_cli_gate_from_a_library_name_with_a_slash(tmp_path, capsys):
    library = tmp_path / "lib.csv"
    library.write_text("name,g,te,be,i\nA/B,1,q,0,p\n")
    assert main(["gate", "A/B", "--library", str(library), "--cycles", "2",
                 "-o", str(tmp_path)]) == 0
    assert "A/B p=0 q=1 -> 1" in capsys.readouterr().out


#: sha256 of the tables a gate named ``Q"R`` writes beside OR: its name and
#: labels are quoted.  First recorded while every CSV row still went through
#: ``csv.writer``; re-recorded once, when the draws moved to one stream pair
#: per bucket.
QUOTED_GATE_SHA256 = {
    "traces.csv": "b100ce473a632e243fabf89d1c44142adc77705e6dc0f8eed1b7938ecda89306",
    "summary.csv": "cca50187ee2ff3a649a7b2e7bf6137644fae7b38bbe8a5ca2532673774b91116",
}


def test_cli_gate_from_a_library_name_with_a_quote(tmp_path, capsys):
    library = tmp_path / "lib.csv"
    library.write_text('name,g,te,be,i\nQ"R,1,q,0,p\n')
    out = tmp_path / "out"
    assert main(["gate", 'Q"R', "OR", "--library", str(library), "--cycles", "5",
                 "-o", str(out)]) == 0
    assert 'Q"R p=0 q=1 -> 1' in capsys.readouterr().out
    assert (out / "traces.csv").read_text().splitlines()[1].startswith('"Q""R",0,0,')
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in QUOTED_GATE_SHA256} == QUOTED_GATE_SHA256


def test_cli_gate_notp(tmp_path, capsys):
    assert main(["gate", "NOTP", "--cycles", "5", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "NOTP p=0 q=0 -> 1" in out
    assert "NOTP p=1 q=1 -> 0" in out
    # NOTP reaches cases 15, 13, 16 and 14; none of them switches.
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("non-switching")] == [
        f"non-switching case {k}" for k in (13, 14, 15, 16)]


def test_cli_gate_custom_library(tmp_path, capsys):
    lib = tmp_path / "lib.csv"
    lib.write_text("name,g,te,be,i\nMYOR,1,q,0,p\n")
    assert main(["gate", "MYOR", "--cycles", "5", "--library", str(lib),
                 "-o", str(tmp_path)]) == 0
    assert "MYOR p=1 q=0 -> 1" in capsys.readouterr().out


def test_cli_an_exact_library_name_wins_over_its_upper_case(tmp_path, capsys):
    """A library row named ``or`` is what ``or`` selects; ``OR`` stays the
    built-in gate, so the two are no repeat.  Without that row they are."""
    lib = tmp_path / "lib.csv"
    lib.write_text("name,g,te,be,i\nor,1,0,0,0\n")
    assert main(["gate", "or", "OR", "--cycles", "3", "--library", str(lib),
                 "-o", str(tmp_path / "lib")]) == 0
    out = capsys.readouterr().out
    assert "or p=1 q=0 -> 0" in out and "OR p=1 q=0 -> 1" in out
    assert main(["gate", "or", "OR", "--cycles", "3", "-o", str(tmp_path / "default")]) == 2
    assert _one_line_error(capsys).strip() == "gate 'OR' repeats 'or'"


def test_cli_synthesize(tmp_path, capsys):
    assert main(["synthesize", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 16
    rows = (tmp_path / "gates_synthesized.csv").read_text().splitlines()
    assert len(rows) == 1 + 16


def test_cli_synthesize_deterministic(tmp_path):
    main(["synthesize", "-o", str(tmp_path / "a")])
    main(["synthesize", "-o", str(tmp_path / "b")])
    assert (tmp_path / "a" / "gates_synthesized.csv").read_bytes() == \
           (tmp_path / "b" / "gates_synthesized.csv").read_bytes()


def test_cli_synthesize_takes_no_format(tmp_path, capsys):
    """The library file has one format, the CSV that ``--library`` reads."""
    assert main(["synthesize", "--format", "json", "-o", str(tmp_path / "out")]) == 2
    assert "--format" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_scouting_paper_refs(tmp_path, capsys):
    assert main(["scouting", "read", "and", "or", "xor", "--refs", "paper-refs",
                 "--cycles", "30", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "7.25 µA" in out or "7.25" in out
    refs = (tmp_path / "refs.csv").read_text().splitlines()
    assert refs[1].startswith("7.25e-06,1.155e-05,")


@pytest.mark.parametrize("typed, value", [("PLACED", "placed"), ("Paper-Refs", "paper-refs")])
def test_cli_refs_in_any_case(tmp_path, capsys, typed, value):
    runs = []
    for refs in (typed, value):
        out = tmp_path / refs
        code = main(["scouting", "--refs", refs, "--cycles", "6", "-o", str(out)])
        stdout = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("wrote:")]
        runs.append((code, stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1] and runs[0][0] == 0 and len(runs[0][2]) == 5


def test_cli_rejects_an_unknown_refs_value_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "sample_scouting_currents", None)
    assert main(["scouting", "--refs", "nope", "--cycles", "4", "-o", str(tmp_path)]) == 2
    assert _one_line_error(capsys) == "refs must be 'placed' or 'paper-refs', got 'nope'\n"


def test_cli_scouting_three_cells(tmp_path, capsys):
    assert main(["scouting", "or", "and", "--n", "3", "--cycles", "15",
                 "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "popcount thresholds (n=3)" in out


def test_cli_scouting_three_cells_every_op(tmp_path, capsys):
    assert main(["scouting", "read", "or", "and", "xor", "--n", "3", "--cycles", "6",
                 "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    trials = {b["label"]: b["trials"] for b in report["buckets"]}
    assert {label.split("/")[0] for label in trials} == {"read", "or", "and", "xor"}
    assert len(trials) == 2 + 3 * 8
    assert all(count > 0 for count in trials.values())


#: The one stderr line of each rejected setting, by its flags.
REJECTED_BEFORE_SAMPLING = {
    ("nand", "--n", "3"):
        "unknown scouting op 'nand'; expected one of ('read', 'or', 'and', 'xor')\n",
    ("--refs", "paper-refs", "--n", "3"):
        "refs 'paper-refs' has 2 levels; a 3-input read needs 3\n",
    # An empty --refs is a value, as ``experiment.refs =`` in a config file is.
    ("--refs", ""): "refs must be 'placed' or 'paper-refs', got ''\n",
}


@pytest.mark.parametrize("args", [list(args) for args in REJECTED_BEFORE_SAMPLING])
def test_cli_scouting_rejects_before_sampling(tmp_path, capsys, monkeypatch, args):
    def no_sampling(*a, **k):
        raise AssertionError("sampled before rejecting the setting")

    monkeypatch.setattr(analysis, "sample_scouting_currents", no_sampling)
    assert main(["scouting", *args, "--cycles", "4", "-o", str(tmp_path)]) == 2
    assert _one_line_error(capsys) == REJECTED_BEFORE_SAMPLING[tuple(args)]


@pytest.mark.parametrize("command", [["gate", "OR"], ["characterize"], ["cases"],
                                     ["synthesize"], ["sweep", "hrs_sigma_c2c", "--values", "1"],
                                     ["scouting", "nand"]],
                         ids=["gate", "characterize", "cases", "synthesize", "sweep", "scouting"])
def test_every_command_rejects_a_bad_refs_value(tmp_path, capsys, command):
    # The config rejects it as it is built, before any command runs (so before
    # scouting names its unknown op, too).
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.refs = bogus\n")
    assert main([str(cfg), *command, "-o", str(tmp_path / "out")]) == 2
    assert _one_line_error(capsys) == "refs must be 'placed' or 'paper-refs', got 'bogus'\n"
    assert not (tmp_path / "out").exists()


def test_a_collapsed_gap_fails_every_classified_cycle(tmp_path, capsys):
    # The report alone sets the exit code: a gap that leaves no place for a
    # reference fails every trial, in a scouting run and in a sweep point.
    cfg = tmp_path / "collapsed.cfg"
    cfg.write_text("device.lrs_sigma_c2c = 1.0\n")
    run = ["--seed", "9", "--cycles", "30"]
    assert main([str(cfg), "scouting", *run, "-o", str(tmp_path / "scouting")]) == 1
    report = json.loads((tmp_path / "scouting" / "report.json").read_text())
    assert report["overlap"] is not None
    assert report["failures"] == report["trials"] == 210
    assert main([str(cfg), "sweep", "lrs_sigma_c2c", "--values", "1.0", *run,
                 "-o", str(tmp_path / "sweep")]) == 1
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    point = dict(zip(header.split(","), row.split(",")))
    assert (point["scouting_failures"], point["scouting_trials"], point["overlap"]) == \
        ("210", "210", "1")


def test_cli_scouting_rejects_single_cell(tmp_path, capsys):
    assert main(["scouting", "or", "--n", "1", "--cycles", "5",
                 "-o", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_characterize_row_count(tmp_path, capsys):
    assert main(["characterize", "--cycles", "1", "-o", str(tmp_path)]) == 0
    rows = (tmp_path / "characterize.csv").read_text().splitlines()
    assert len(rows) == 1 + 10
    assert "mean HRS/LRS ratio" in capsys.readouterr().out


def test_cli_characterize_deterministic(tmp_path):
    main(["characterize", "--cycles", "5", "--seed", "3", "-o", str(tmp_path / "a")])
    main(["characterize", "--cycles", "5", "--seed", "3", "-o", str(tmp_path / "b")])
    for name in ("characterize.csv", "summary.csv", "characterize_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "hrs_sigma_c2c", "--values", "0.32,1.3",
                 "--cycles", "15", "-o", str(tmp_path)])
    out = capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    first_fail = int(lines[1].split(",")[3])
    last_fail = int(lines[2].split(",")[3])
    assert last_fail >= first_fail
    if last_fail > 0:
        assert code == 1


def test_cli_sweep_range_equals_its_values(tmp_path, capsys):
    run = ["--cycles", "4", "-o"]
    codes = [main(["sweep", "hrs_sigma_c2c", *span, *run, str(tmp_path / name)])
             for name, span in (("range", ["--start", "0.32", "--stop", "0.5", "--steps", "2"]),
                                ("values", ["--values", "0.32,0.5"]))]
    assert codes[0] == codes[1]
    assert ((tmp_path / "range" / "sweep.csv").read_bytes()
            == (tmp_path / "values" / "sweep.csv").read_bytes())
    capsys.readouterr()


def test_cli_sweep_bad_usage(tmp_path, capsys):
    usage = "sweep needs --values or --start/--stop/--steps\n"
    assert main(["sweep", "hrs_sigma_c2c", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == usage
    assert main(["sweep", "hrs_sigma_c2c", "--values", "", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == usage
    assert main(["sweep", "hrs_sigma_c2c", "--values", ",", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "sweep range is empty\n"
    assert main(["sweep", "not_a_param", "--values", "0.1", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unknown device parameter 'not_a_param'; one of ['hrs_median', ")
    assert err.count("\n") == 1
    # Attributes of the parameter object that are not its fields are unknown,
    # too, and so are the deleted pulse minimums.
    for name in ("replace", "__class__", "min_pulse_set", "min_pulse_reset"):
        assert main(["sweep", name, "--values", "1", "-o", str(tmp_path)]) == 2
        err = _one_line_error(capsys)
        assert err.startswith(f"unknown device parameter {name!r}; one of ['hrs_median', ")
    # --steps 0 is given, so it is named rather than taken for a missing flag.
    assert main(["sweep", "hrs_sigma_c2c", "--start", "0.1", "--stop", "1.2", "--steps",
                 "0", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "sweep needs --steps >= 1\n"
    # A range given next to --values is named, not dropped.
    both = "sweep takes --values or --start/--stop/--steps, not both\n"
    for span in (["--start", "0.1"], ["--stop", "0.5"], ["--steps", "2"],
                 ["--start", "0.1", "--stop", "0.5", "--steps", "2"]):
        assert main(["sweep", "hrs_sigma_c2c", *span, "--values", "0.2",
                     "-o", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", both)


def test_cli_config_positional_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment.seed = 5\n"
                   "experiment.cycles = 4\n"
                   f"experiment.output_dir = {tmp_path / 'from_cfg'}\n")
    assert main([str(cfg), "gate", "OR"]) == 0
    assert (tmp_path / "from_cfg" / "traces.csv").exists()
    # Flag overrides win over the config file.
    assert main([str(cfg), "gate", "OR", "-o", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "traces.csv").exists()
    capsys.readouterr()


class _Ran(Exception):
    """Raised by a stubbed runner, with the experiment config it was given."""


#: One config file that sets every experiment field a flag also sets.
EVERY_OVERRIDDEN_FIELD = ("experiment.seed = 5\n"
                          "experiment.cycles = 5\n"
                          "experiment.n_inputs = 3\n"
                          "experiment.refs = paper-refs\n"
                          "experiment.gates = OR,AND\n"
                          "experiment.scouting_ops = read,or\n")


@pytest.mark.parametrize("argv, changes", [
    (["scouting", "--seed", "6"], {"seed": 6}),
    (["scouting", "--cycles", "6"], {"cycles": 6}),
    (["scouting", "--n", "2"], {"n_inputs": 2}),
    (["scouting", "--refs", "PLACED"], {"refs": "PLACED"}),
    (["scouting", "and", "XOR"], {"scouting_ops": ("and", "XOR")}),
    (["gate", "XOR"], {"gates": ("XOR",)}),
], ids=["seed", "cycles", "n", "refs", "ops", "names"])
def test_cli_flags_win_over_the_config(tmp_path, monkeypatch, argv, changes):
    """Each flag sets its own field of the config the runner receives, and no other."""
    def capture(config, **kwargs):
        raise _Ran(config)

    monkeypatch.setattr(cli, "run_1t1r_experiment", capture)
    monkeypatch.setattr(cli, "run_scouting_experiment", capture)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVERY_OVERRIDDEN_FIELD)
    from_file = load_config(cfg).experiment
    with pytest.raises(_Ran) as ran:
        main([str(cfg), *argv, "-o", str(tmp_path / "out")])
    assert ran.value.args[0] == from_file.replace(**changes) != from_file


@pytest.mark.parametrize("env, argv, lands", [
    (False, [], "cfg/cases.json"),
    (True, [], "env/cases.json"),
    (True, ["-o", "{tmp}/flag"], "flag/cases.json"),
    (False, ["-o", ""], "cfg/cases.json"),  # an empty directory is left out
    (False, ["--format", "csv"], "cfg/cases.csv"),
], ids=["file", "env-over-file", "flag-over-env", "empty-flag", "format-flag-over-file"])
def test_cli_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch, env, argv, lands):
    """experiment.output_dir < MEMLOGIC_OUTPUT_DIR < -o; experiment.format < --format."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment.output_dir = {tmp_path / 'cfg'}\nexperiment.format = json\n")
    if env:
        monkeypatch.setenv("MEMLOGIC_OUTPUT_DIR", str(tmp_path / "env"))
    else:
        monkeypatch.delenv("MEMLOGIC_OUTPUT_DIR", raising=False)
    assert main([str(cfg), "cases", *(arg.format(tmp=tmp_path) for arg in argv)]) == 0
    assert [str(p.relative_to(tmp_path)) for p in sorted(tmp_path.glob("*/*"))] == [lands]
    capsys.readouterr()


def test_cli_missing_config_file(capsys):
    assert main(["/nonexistent/path.cfg", "cases"]) == 2
    capsys.readouterr()


def test_cli_env_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEMLOGIC_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["cases"]) == 0
    assert (tmp_path / "env_out" / "cases.csv").exists()
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    assert main(["gate", "OR", "--cycles", "3", "--format", "json",
                 "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "traces.json").read_text())
    assert len(payload) == 12
    assert set(payload[0]) == {"gate", "p", "q", "case_id", "cycle", "r_init_ohm",
                               "r_final_ohm", "out_bit", "expected_bit"}
    capsys.readouterr()


def test_cli_byte_identical_reruns(tmp_path):
    for sub in ("a", "b"):
        main(["gate", "OR", "AND", "--cycles", "8", "--seed", "21",
              "-o", str(tmp_path / sub)])
    for name in ("traces.csv", "summary.csv", "non_switching.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ------------------------------------------------- rejected settings, exit 2

def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    return err


@pytest.mark.parametrize("argv, names", [
    (["gate"], "memlogic gate: error: the following arguments are required: names"),
    (["gate", "OR", "--bogus"], "memlogic: error: unrecognized arguments: --bogus"),
    (["gatee", "OR"], "'gatee'"),  # taken for a config file, and named as one
    (["gate", "OR", "--cycles", "2", "--preset", "table3-logic"],
     "memlogic: error: unrecognized arguments: --preset table3-logic"),
    (["cases", "--seed", "1"], "memlogic: error: unrecognized arguments: --seed 1"),
    (["synthesize", "--cycles", "3"], "memlogic: error: unrecognized arguments: --cycles 3"),
    # The file is checked alone first: a flag cannot rescue its value, and
    # its error comes before a usage error.
    (["{bad_cfg}", "gate", "OR", "--cycles", "5"], "cycles must be >= 1, got 0"),
    (["{bad_cfg}", "gate", "OR", "--bogus"], "cycles must be >= 1, got 0"),
], ids=["missing-argument", "unknown-flag", "misspelled-subcommand", "preset",
        "cases-seed", "synthesize-cycles", "flag-under-a-bad-file", "usage-under-a-bad-file"])
def test_cli_usage_errors_exit_2_in_one_line(tmp_path, capsys, argv, names):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("experiment.cycles = 0\n")
    argv = [arg.format(bad_cfg=bad_cfg) for arg in argv]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert names in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gate", "--help"])
    assert info.value.code == 0
    assert "usage: memlogic gate" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["device.hrs_sigma_c2c = nan",
                                  "device.hrs_sigma_c2c = inf",
                                  "device.hrs_sigma_c2c = -1",
                                  "device.r_on = nan",
                                  "transistor.r_on = nan",
                                  "transistor.i_sat_slope = 1e-4",
                                  "experiment.parallel = true",
                                  "experiment.cycles = many",
                                  "experiment.cycles = 2.5",
                                  "experiment.seed = -1",
                                  "array.rows = 2.5",
                                  "array.rows = true",
                                  "array.cols = 0",
                                  "array.cols = eight",
                                  "array.kind = standard1t1r",
                                  "array.kind = pseudo_crossbar",
                                  "device.preset = nope",
                                  "device.preset = table3-logic",
                                  "experiment.device = 1",
                                  "experiment.transistor = 1",
                                  "experiment.topology = x",
                                  "transistor.v_g_on_threshold = 5",
                                  "device.min_pulse_set = 1",
                                  "device.min_pulse_set = 1e-7",
                                  "device.hrs_sigma_c2c = 471",
                                  "device.hrs_sigma_c2c = true",
                                  "device.r_on = false",
                                  "transistor.r_on = false",
                                  "experiment.refs = 0",
                                  "experiment.rotate_cells = maybe",
                                  "experiment.format = xml",
                                  "experiment.split = halves",
                                  "device.hrs_median = 9000",
                                  "device.r_on = 1" + "0" * 400])
def test_cli_rejects_bad_config_values(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main([str(cfg), "gate", "OR", "--cycles", "2", "-o", str(tmp_path)]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("lines, err", [
    (["device.hrs_median = -1"], "hrs_median must be > 0"),
    (["device.v_form_th_sigma = -1"], "v_form_th_sigma must be >= 0"),
    (["device.read_noise_hrs = -1"], "read_noise_hrs must be >= 0"),
    (["device.read_noise_hrs = 11"], "read_noise_hrs must be <= 10.0"),
    (["device.lrs_median = inf"], "lrs_median must be a finite number, got inf"),
    (["device.r_on = 1" + "0" * 400],
     "r_on must be a finite number, got 1" + "0" * 400),
    # Two faults: every field's > 0 check runs before any field's >= 0 check.
    (["device.lrs_sigma_c2c = -1", "device.hrs_median = -1"], "hrs_median must be > 0"),
])
def test_cli_names_the_first_broken_device_bound(tmp_path, capsys, lines, err):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([str(cfg), "gate", "OR", "--cycles", "2", "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", err + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines", [
    # Ordered so that every single line is a valid step on its own, too.
    ["device.hrs_median = 1e307", "device.lrs_median = 1e306"],  # product is inf
    ["device.lrs_median = 1e-200", "device.hrs_median = 1e-199"],  # product is 0
])
@pytest.mark.parametrize("args", [["gate", "OR", "--cycles", "2"],
                                  ["scouting", "--cycles", "4"]])
def test_cli_extreme_medians_keep_a_finite_boundary(tmp_path, lines, args):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([str(cfg), *args, "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("lines, args", [
    # A subnormal LRS median reads an infinite current and an infinite ratio.
    (["device.lrs_median = 1e-320", "device.hrs_median = 1"],
     ["characterize", "--cells", "2", "--cycles", "4"]),
    (["device.lrs_median = 1e-320", "device.hrs_median = 1"],
     ["scouting", "--cycles", "4"]),
    # A normal median whose wide spread draws subnormal LRS states.
    (["device.lrs_median = 1e-300", "device.hrs_median = 1",
      "device.lrs_sigma_c2c = 10"], ["scouting", "--cycles", "20"]),
    # The smallest subnormal median reads 0 Ohm.
    (["device.lrs_median = 5e-324", "device.hrs_median = 1",
      "device.lrs_sigma_c2c = 10"], ["scouting", "--cycles", "20"]),
    (["device.lrs_median = 5e-324", "device.hrs_median = 1",
      "device.lrs_sigma_c2c = 10"], ["characterize", "--cells", "2", "--cycles", "20"]),
    *[(["device.lrs_median = 5e-324", "device.hrs_median = 1", "device.lrs_sigma_c2c = 10"],
       ["gate", "OR", "AND", "NIMP", "XOR", "--cycles", "20", "--seed", seed])
      for seed in ("1", "2", "3")],
])
def test_cli_non_finite_results_exit_2(tmp_path, capsys, lines, args):
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([str(cfg), *args, "-o", str(tmp_path / "out")]) == 2
    err = _one_line_error(capsys)
    assert "device.lrs_median" in err and "device.hrs_median" in err


@pytest.mark.parametrize("lines", [
    # Tiny LRS medians whose reads stay above 0 Ohm still simulate.
    ["device.lrs_median = 1e-320", "device.hrs_median = 1"],
    ["device.lrs_median = 1e-300", "device.hrs_median = 1", "device.lrs_sigma_c2c = 10"],
])
def test_cli_gate_runs_while_reads_stay_above_0_ohm(tmp_path, capsys, lines):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([str(cfg), "gate", "OR", "AND", "NIMP", "XOR", "--cycles", "20",
                 "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def _a_file(tmp_path) -> Path:
    path = tmp_path / "a_file"
    path.write_text("")
    return path


@pytest.mark.parametrize("args", [["gate", "OR", "--cycles", "2"], ["synthesize"], ["cases"]])
@pytest.mark.parametrize("below", [False, True])
def test_cli_unusable_output_dir_exits_2(tmp_path, capsys, args, below):
    # An existing file, or a path below one, cannot be an output directory.
    out = _a_file(tmp_path) / "x" if below else _a_file(tmp_path)
    assert main([*args, "-o", str(out)]) == 2
    assert str(out) in _one_line_error(capsys)


def test_cli_unusable_env_output_dir_exits_2(tmp_path, capsys, monkeypatch):
    out = _a_file(tmp_path) / "x"
    monkeypatch.setenv("MEMLOGIC_OUTPUT_DIR", str(out))
    assert main(["cases"]) == 2
    assert str(out) in _one_line_error(capsys)


def test_cli_missing_library_exits_2(tmp_path, capsys):
    library = tmp_path / "missing.csv"
    assert main(["gate", "OR", "--library", str(library), "-o", str(tmp_path)]) == 2
    assert str(library) in _one_line_error(capsys)


def test_cli_device_keys_apply_in_any_order(tmp_path, capsys):
    lines = ["device.lrs_median = 2e5", "device.hrs_median = 2e6"]
    exports = []
    for index, order in enumerate((lines, lines[::-1])):
        cfg = tmp_path / f"order{index}.cfg"
        cfg.write_text("\n".join(order) + "\n")
        out = tmp_path / f"out{index}"
        assert main([str(cfg), "gate", "OR", "--cycles", "3", "-o", str(out)]) == 0
        exports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert exports[0] == exports[1] and len(exports[0]) == 4
    capsys.readouterr()
    cfg = tmp_path / "inverted.cfg"
    cfg.write_text("device.hrs_median = 2e5\ndevice.lrs_median = 2e6\n")
    assert main([str(cfg), "gate", "OR", "--cycles", "3", "-o", str(tmp_path)]) == 2
    assert "hrs_median must exceed lrs_median" in _one_line_error(capsys)


def test_cli_scouting_split_needs_two_cycles(tmp_path, capsys):
    assert main(["scouting", "--cycles", "1", "-o", str(tmp_path)]) == 2
    assert "cycles >= 2" in _one_line_error(capsys)


def test_cli_scouting_reads_n_inputs_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("experiment.n_inputs = 3\n")
    assert main([str(cfg), "scouting", "or", "--cycles", "4", "-o", str(tmp_path)]) == 0
    assert "popcount thresholds (n=3)" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert [b["label"] for b in report["buckets"]][-1] == "or/111"
    # An explicit --n still wins over the config.
    assert main([str(cfg), "scouting", "or", "--n", "2", "--cycles", "4",
                 "-o", str(tmp_path)]) == 0
    assert "or/11: failures" in capsys.readouterr().out


def test_cli_scouting_rejects_n_above_the_row_count_at_once(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["scouting", "or", "--n", "9", "-o", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "n=9" in _one_line_error(capsys)
    with pytest.raises(ValueError, match="n=9"):
        analysis.find_overlap_sigma(analysis.ExperimentConfig(cycles=2), 9)


def test_cli_no_trials_is_not_a_pass(tmp_path, capsys):
    assert cli._exit_code(failures=0, errors=0, trials=0) == 1
    # An empty op list would evaluate nothing, so it is rejected before sampling.
    cfg = tmp_path / "no_ops.cfg"
    cfg.write_text("experiment.scouting_ops =\n")
    assert main([str(cfg), "scouting", "--cycles", "4", "-o", str(tmp_path)]) == 2
    assert _one_line_error(capsys) == "scouting_ops must name at least one entry\n"
    assert not (tmp_path / "report.json").exists()


SWEEP = ["sweep", "hrs_sigma_c2c", "--values", "0.32"]


@pytest.mark.parametrize("key, command", [("gates", SWEEP), ("gates", ["gate", "OR"]),
                                          ("scouting_ops", SWEEP)])
def test_cli_rejects_an_empty_gate_or_op_list(tmp_path, capsys, key, command):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"experiment.{key} =\n")
    assert main([str(cfg), *command, "--cycles", "2", "-o", str(tmp_path)]) == 2
    assert _one_line_error(capsys) == f"{key} must name at least one entry\n"
    with pytest.raises(ValueError, match=key):
        analysis.ExperimentConfig(**{key: ()})


@pytest.mark.parametrize("error", [
    InitFailureError(CellAddress(0, 0), 1, 3),
    OverlapError("00", "01|10", 2e-6, 1e-6),
])
def test_cli_experiment_errors_exit_2(tmp_path, capsys, monkeypatch, error):
    def failing_run(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_1t1r_experiment", failing_run)
    assert main(["gate", "OR", "--cycles", "2", "-o", str(tmp_path)]) == 2
    assert str(error) in _one_line_error(capsys)


@pytest.mark.parametrize("seed, line", [
    (2, "seed 2, class '00', cycle 80: cell (1, 0) failed to initialize to 0 after 3 retries"),
    (3, "seed 3, class '01', cycle 52: cell (1, 0) failed to initialize to 1 after 3 retries"),
])
def test_a_scouting_write_that_gives_up_names_where_to_replay_it(tmp_path, capsys, seed,
                                                                 line):
    # Reads noisy enough to straddle the boundary four times running.
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("device.read_noise_hrs = 1.5\ndevice.read_noise_lrs = 1.5\n")
    assert main([str(cfg), "scouting", "--seed", str(seed), "-o", str(tmp_path)]) == 2
    assert _one_line_error(capsys) == line + "\n"


@pytest.mark.parametrize("args, name", [(["gate", "OR", "--seed", "-1"], "seed"),
                                        (["scouting", "--seed", "-1"], "seed"),
                                        (["characterize", "--cells", "0"], "cells"),
                                        (["characterize", "--cells", "-3"], "cells")])
def test_cli_rejects_bad_counts_by_name(tmp_path, capsys, args, name):
    assert main(args + ["-o", str(tmp_path)]) == 2
    assert name in _one_line_error(capsys)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(memlogic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "memlogic", "gate", "OR", "--cycles", "2",
                           "-o", str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "OR p=1 q=1 -> 1" in proc.stdout
    assert (tmp_path / "traces.csv").exists()


def test_one_process_runs_each_command_as_a_fresh_process_would(tmp_path, capsys):
    """One parser and one gate-library search serve every call of a process:
    a call's exit code, output and exports equal a fresh process's, whatever
    ran before it (an empty op list, an argparse error, a library that
    redefines OR)."""
    lib = tmp_path / "lib.csv"
    lib.write_text("name,g,te,be,i\nOR,p,q,0,0\n")  # OR redefined as AND
    runs = [["scouting", "xor", "--cycles", "4"],
            ["scouting", "--cycles", "4"],  # no ops: the config's ops
            ["gate"],  # no names: an argparse error
            ["gate", "OR", "--cycles", "3", "--library", str(lib)],
            ["gate", "OR", "--cycles", "3"],
            ["cases"]]
    env = dict(os.environ, PYTHONPATH=str(Path(memlogic.__file__).parents[1]))
    fresh = [subprocess.Popen([sys.executable, "-m", "memlogic", *argv,
                               "-o", str(tmp_path / "fresh" / str(k))],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env)
             for k, argv in enumerate(runs)]

    def outcome(code, out, err, out_dir):
        kept = [line for line in out.splitlines() if not line.startswith("wrote:")]
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
        return code, kept, err, files

    for k, (argv, proc) in enumerate(zip(runs, fresh)):
        out_dir = tmp_path / "here" / str(k)
        code = main([*argv, "-o", str(out_dir)])
        here = outcome(code, *capsys.readouterr(), out_dir)
        out, err = proc.communicate(timeout=120)
        assert here == outcome(proc.returncode, out, err, tmp_path / "fresh" / str(k)), argv
        assert (code == 2) == (argv == ["gate"])


@pytest.mark.parametrize("config_line, err", [
    ("device.v_set_th_median = 2.0\n",
     "cell 0 is HRS after the 1.3 V SET pulse of cycle 1: its drawn v_set_th = "
     "1.962114834707387, with device.v_set_th_median = 2.0 and "
     "device.v_set_th_sigma = 0.05\n"),
    ("device.v_reset_th_median = 1.7\n",
     "cell 0 is LRS after the 1.6 V RESET pulse of cycle 0: its drawn v_reset_th = "
     "1.73773621858717, with device.v_reset_th_median = 1.7 and "
     "device.v_reset_th_sigma = 0.05\n"),
    ("device.v_set_th_sigma = 0.2\nexperiment.seed = 0\n",
     "cell 0 is HRS after the 1.3 V SET pulse of cycle 1: its drawn v_set_th = "
     "1.347899804085343, with device.v_set_th_median = 1.0 and "
     "device.v_set_th_sigma = 0.2\n"),
], ids=["set", "config", "sigma"])
def test_cli_characterize_that_cannot_switch_exits_2(tmp_path, capsys, config_line, err):
    """A cell the operating point cannot SET or RESET would export one state's
    reads as the other's.  The message names the cell's drawn threshold: a wide
    spread (``sigma``) puts it out of reach with the median at its default."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    argv = [str(cfg), "characterize", "--cells", "2", "--cycles", "3",
            "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out" / "characterize.csv").exists()


def test_cli_characterize_whose_reads_cannot_tell_the_states_apart_exits_2(tmp_path, capsys):
    """A series resistance that absorbs every cell resistance in its float sum
    reads LRS and HRS alike: a mean HRS/LRS ratio of 1 characterizes nothing."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("device.r_on = 1e300\n")
    argv = [str(cfg), "characterize", "--cells", "2", "--cycles", "4",
            "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "device.r_on = 1e+300" in _one_line_error(capsys)
    assert not (tmp_path / "out" / "characterize.csv").exists()


def test_cli_gate_pulse_error_names_its_cell(tmp_path, capsys):
    """A library gate whose pulse drives both electrodes above their thresholds
    exits 2 with the pulse error, prefixed by the cell it was applied to."""
    cfg, library = tmp_path / "run.cfg", tmp_path / "lib.csv"
    cfg.write_text("device.v_reset_th_median = 0.2\ndevice.v_reset_th_sigma = 0\n")
    library.write_text("SAME,1,q,q,p\n")
    argv = [str(cfg), "gate", "SAME", "--library", str(library), "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "at cell (0, 0): ambiguous drive on r0c0: v_te=1.3, v_be=1.6\n")


@pytest.mark.parametrize("config_line, args, err", [
    ("", ["scouting", "or", "or"], "scouting op 'or' repeats 'or'"),
    ("", ["scouting", "xor", "OR", "or"], "scouting op 'or' repeats 'OR'"),
    ("", ["gate", "OR", "OR"], "gate 'OR' repeats 'OR'"),
    ("", ["gate", "or", "AND", "OR"], "gate 'OR' repeats 'or'"),
    ("experiment.scouting_ops = and,XOR,xor\n", ["scouting"], "scouting op 'xor' repeats 'XOR'"),
    ("experiment.gates = XOR,xor\n", ["sweep", "hrs_sigma_c2c", "--values", "0.32"],
     "gate 'xor' repeats 'XOR'"),
])
def test_cli_rejects_a_repeated_gate_or_op(tmp_path, capsys, monkeypatch, config_line, args,
                                           err):
    """A repeated gate or op would run twice and count its trials twice."""
    monkeypatch.setattr(analysis, "CellArray", None)  # rejected before any array
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    assert main([str(cfg), *args, "--cycles", "4", "-o", str(tmp_path / "out")]) == 2
    assert _one_line_error(capsys).startswith(err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_line, err", [
    ("device.min_pulse_reset = 3e-06\n", "unknown key device.min_pulse_reset"),
    ("device.min_pulse_set = 2e-6\n", "unknown key device.min_pulse_set"),
    ("device.min_pulse_reset = 1.5e-6\n", "unknown key device.min_pulse_reset"),
], ids=["reset-3e-06", "set", "reset"])
@pytest.mark.parametrize("args", [["gate", "OR", "AND"], ["scouting"]])
def test_cli_gate_and_scouting_that_cannot_switch_exit_2(tmp_path, capsys, monkeypatch,
                                                         config_line, err, args):
    """The model has no pulse timing: a pulse minimum is an unknown key,
    rejected before any array is built."""
    monkeypatch.setattr(analysis, "CellArray", None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    argv = [str(cfg), *args, "--cycles", "2", "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert _one_line_error(capsys) == f"{cfg}: {err}\n"
    assert not (tmp_path / "out").exists()


def test_cli_json_exports_hold_no_bare_nan(tmp_path, capsys):
    """Overlapping classes leave the margins without references: JSON null."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("device.hrs_median = 10000\ndevice.hrs_sigma_c2c = 1.0\n")
    out = tmp_path / "out"
    argv = [str(cfg), "scouting", "--cycles", "30", "--seed", "9"]
    assert main([*argv, "--format", "json", "-o", str(out)]) == 1
    assert main([*argv, "-o", str(tmp_path / "csv")]) == 1

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    for path in sorted(out.glob("*.json")):
        json.loads(path.read_text(), parse_constant=reject)
    margins = json.loads((out / "margins.json").read_text())
    assert [m["reference_a"] for m in margins] == [None, None, None]
    # CSV keeps writing the float as Python does.
    assert (tmp_path / "csv" / "margins.csv").read_text().count(",nan\n") == 3
