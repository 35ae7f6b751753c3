import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import memlogic

from memlogic import analysis, cli
from memlogic.array import TopologyKind
from memlogic.cli import main
from memlogic.config import ConfigError, build_config, load_config
from memlogic.device import VariabilityParams


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
    built-in gate, so the two are no repeat.  Without that row they are
    (``CONTRACT``'s ``gate or OR``)."""
    lib = tmp_path / "lib.csv"
    lib.write_text("name,g,te,be,i\nor,1,0,0,0\n")
    assert main(["gate", "or", "OR", "--cycles", "3", "--library", str(lib),
                 "-o", str(tmp_path / "lib")]) == 0
    out = capsys.readouterr().out
    assert "or p=1 q=0 -> 0" in out and "OR p=1 q=0 -> 1" in out


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


# ------------------------------------------------ the exit-code contract

class Row(NamedTuple):
    """One run of ``memlogic [CONFIG] ARGV`` and what the contract says it gives.

    ``config`` lines, if any, go to ``{tmp}/run.cfg``, whose path leads the
    arguments, and ``files`` are written in ``{tmp}``, the test's temporary
    directory; ``{tmp}`` in ``argv``, ``env`` and ``err`` stands for it.  The
    arguments end in ``-o {tmp}/out`` unless the row names its own output
    directory (``-o`` or ``MEMLOGIC_OUTPUT_DIR``).  ``err`` is the one stderr
    line of an exit 2, exact, or its prefix when it ends in ``...``; a run
    that exits 0 or 1 writes nothing to stderr.  ``early``: the setting is
    rejected before any ``CellArray`` is built.
    """

    id: str
    config: list[str]
    argv: list[str]
    err: str = ""
    code: int = 2
    early: bool = True
    env: dict[str, str] | None = None
    files: dict[str, str] | None = None


GATE = ["gate", "OR", "--cycles", "2"]
GATES = ["gate", "OR", "AND", "NIMP", "XOR", "--cycles", "20"]
SCOUTING = ["scouting", "--cycles", "4"]
SWEEP = ["sweep", "hrs_sigma_c2c", "--values", "0.32"]
CHARACTERIZE = ["characterize", "--cells", "2", "--cycles"]
A_FILE = {"a_file": ""}
#: Device medians whose reads leave the float range: a subnormal LRS median
#: reads an infinite current, a normal one with a wide spread draws subnormal
#: LRS states, and the smallest subnormal reads 0 Ohm.
SUBNORMAL = ["device.lrs_median = 1e-320", "device.hrs_median = 1"]
WIDE = ["device.lrs_median = 1e-300", "device.hrs_median = 1", "device.lrs_sigma_c2c = 10"]
TINY = ["device.lrs_median = 5e-324", "device.hrs_median = 1", "device.lrs_sigma_c2c = 10"]
NOT_FINITE = ("{} is inf, not finite: reads at device.lrs_median = {} and "
              "device.hrs_median = 1 leave the float range")
#: Each model type and ``ExperimentConfig`` check their own values; only
#: ``build_config``'s own errors (a key no section or field holds, an export
#: format) name the file.
UNKNOWN = "{tmp}/run.cfg: unknown "

#: One config line under ``gate OR``: its stderr line.
BAD_LINES = {
    "device.hrs_sigma_c2c = nan": "hrs_sigma_c2c must be a finite number, got nan",
    "device.hrs_sigma_c2c = inf": "hrs_sigma_c2c must be a finite number, got inf",
    "device.hrs_sigma_c2c = -1": "hrs_sigma_c2c must be >= 0",
    "device.hrs_sigma_c2c = 471": "hrs_sigma_c2c must be <= 10.0",
    "device.hrs_sigma_c2c = true": "hrs_sigma_c2c must be a finite number, got True",
    "device.lrs_sigma_c2c = 471": "lrs_sigma_c2c must be <= 10.0",
    "device.hrs_median = -1": "hrs_median must be > 0",
    "device.hrs_median = 9000": "hrs_median / lrs_median must be >= 2",
    "device.lrs_median = inf": "lrs_median must be a finite number, got inf",
    "device.v_form_th_sigma = -1": "v_form_th_sigma must be >= 0",
    "device.read_noise_hrs = -1": "read_noise_hrs must be >= 0",
    "device.read_noise_hrs = 11": "read_noise_hrs must be <= 10.0",
    "device.r_on = nan": "r_on must be a finite number, got nan",
    "device.r_on = false": "r_on must be a finite number, got False",
    "device.preset = nope": UNKNOWN + "key device.preset",
    "device.preset = table3-logic": UNKNOWN + "key device.preset",
    "device.min_pulse_set = 1": UNKNOWN + "key device.min_pulse_set",
    "device.min_pulse_set = 1e-7": UNKNOWN + "key device.min_pulse_set",
    "transistor.r_on = nan": UNKNOWN + "section in keys ['transistor.r_on']",
    "transistor.r_on = false": UNKNOWN + "section in keys ['transistor.r_on']",
    "transistor.r_on = 0": UNKNOWN + "section in keys ['transistor.r_on']",
    "transistor.i_sat_slope = 1e-4": UNKNOWN + "section in keys ['transistor.i_sat_slope']",
    "transistor.v_g_on_threshold = 5":
        UNKNOWN + "section in keys ['transistor.v_g_on_threshold']",
    "array.rows = 2.5": "array rows must be an integer, got 2.5",
    "array.rows = true": "array rows must be an integer, got True",
    "array.cols = 0": "array cols must be >= 1, got 0",
    "array.cols = eight": "array cols must be an integer, got 'eight'",
    "array.kind = standard1t1r": "array kind must be one of ['standard', 'pseudo-crossbar'], "
                                 "in any case, got 'standard1t1r'",
    "array.kind = pseudo_crossbar": "array kind must be one of ['standard', "
                                    "'pseudo-crossbar'], in any case, got 'pseudo_crossbar'",
    "experiment.parallel = true": UNKNOWN + "key experiment.parallel",
    "experiment.device = 1": UNKNOWN + "key experiment.device",
    "experiment.transistor = 1": UNKNOWN + "key experiment.transistor",
    "experiment.topology = x": UNKNOWN + "key experiment.topology",
    "experiment.format = xml": "{tmp}/run.cfg: experiment.format must be csv or json",
    "experiment.cycles = many": "cycles must be an integer, got 'many'",
    "experiment.cycles = 2.5": "cycles must be an integer, got 2.5",
    "experiment.seed = -1": "seed must be >= 0, got -1",
    "experiment.refs = 0": "refs must be 'placed' or 'paper-refs', got 0",
    "experiment.rotate_cells = maybe": "rotate_cells must be true or false, got 'maybe'",
    "experiment.split = halves": "split must be 'split' or 'insample'",
}

#: Scouting settings in the config: their stderr line, under ``scouting`` and
#: under ``sweep``, which checks them before its first point runs.
SCOUTING_SETTINGS = {
    ("experiment.scouting_ops = nand",):
        "unknown scouting op 'nand'; expected one of ('read', 'or', 'and', 'xor')",
    ("experiment.scouting_ops = or,OR",): "scouting op 'OR' repeats 'or'",
    ("experiment.scouting_ops = and,XOR,xor",): "scouting op 'xor' repeats 'XOR'",
    ("experiment.scouting_ops =",): "scouting_ops must name at least one entry",
    ("experiment.n_inputs = 1",): "scouting needs at least two input cells",
    ("experiment.n_inputs = 9",): "n=9 input cells do not fit in one column of 8 rows",
    ("experiment.cycles = 1",): "split mode needs cycles >= 2 (one half places the "
                                "references, the other is classified)",
    ("experiment.refs = paper-refs", "experiment.n_inputs = 3"):
        "refs 'paper-refs' has 2 levels; a 3-input read needs 3",
}

CONTRACT = (
    # The settings: a bad value in the file exits 2 whatever the command.
    *(Row(line, [line], GATE, err) for line, err in BAD_LINES.items()),
    Row("device.r_on = 1e400", ["device.r_on = 1" + "0" * 400], GATE,
        "r_on must be a finite number, got 1" + "0" * 400),
    # Every field's > 0 check runs before any field's >= 0 check.
    Row("two broken bounds", ["device.lrs_sigma_c2c = -1", "device.hrs_median = -1"], GATE,
        "hrs_median must be > 0"),
    Row("inverted medians", ["device.hrs_median = 2e5", "device.lrs_median = 2e6"], GATE,
        "hrs_median must exceed lrs_median"),
    # The model has no pulse timing: a pulse minimum is an unknown key.
    *(Row(f"{command[0]} {key} = {value}", [f"device.{key} = {value}"], [*command, "--cycles", "2"],
          UNKNOWN + f"key device.{key}")
      for key, value in (("min_pulse_reset", "3e-06"), ("min_pulse_set", "2e-6"),
                         ("min_pulse_reset", "1.5e-6"))
      for command in (["gate", "OR", "AND"], ["scouting"])),
    # The config is built before any command runs (so before scouting names
    # its unknown op, too).
    *(Row(f"{command[0]} refs = bogus", ["experiment.refs = bogus"], command,
          "refs must be 'placed' or 'paper-refs', got 'bogus'")
      for command in (["gate", "OR"], ["characterize"], ["cases"], ["synthesize"],
                      ["sweep", "hrs_sigma_c2c", "--values", "1"], ["scouting", "nand"])),
    *(Row(f"{command[0]} {'; '.join(line.removeprefix('experiment.') for line in lines)}",
          list(lines), command, err)
      for lines, err in SCOUTING_SETTINGS.items() for command in (["scouting"], SWEEP)),
    Row("sweep gates =", ["experiment.gates ="], SWEEP, "gates must name at least one entry"),
    Row("sweep gates = XOR,xor", ["experiment.gates = XOR,xor"], SWEEP,
        "gate 'xor' repeats 'XOR'"),
    Row("gate gates =", ["experiment.gates ="], GATE, "gates must name at least one entry"),

    # Usage: argparse's line, or the file's.  The file is checked alone first:
    # a flag cannot rescue its value, and its error comes before a usage error.
    Row("missing argument", [], ["gate"],
        "memlogic gate: error: the following arguments are required: names"),
    Row("unknown flag", [], ["gate", "OR", "--bogus"],
        "memlogic: error: unrecognized arguments: --bogus"),
    Row("preset flag", [], [*GATE, "--preset", "table3-logic"],
        "memlogic: error: unrecognized arguments: --preset table3-logic"),
    Row("cases --seed", [], ["cases", "--seed", "1"],
        "memlogic: error: unrecognized arguments: --seed 1"),
    Row("synthesize --cycles", [], ["synthesize", "--cycles", "3"],
        "memlogic: error: unrecognized arguments: --cycles 3"),
    # The library file has one format, the CSV that --library reads.
    Row("synthesize --format", [], ["synthesize", "--format", "json"],
        "memlogic: error: unrecognized arguments: --format json"),
    Row("a flag under a bad file", ["experiment.cycles = 0"], ["gate", "OR", "--cycles", "5"],
        "cycles must be >= 1, got 0"),
    Row("a usage error under a bad file", ["experiment.cycles = 0"], ["gate", "OR", "--bogus"],
        "cycles must be >= 1, got 0"),
    # A leading word that is no subcommand is the config file.
    Row("misspelled subcommand", [], ["gatee", "OR"],
        "[Errno 2] No such file or directory: 'gatee'"),
    Row("missing config file", [], ["/nonexistent/path.cfg", "cases"],
        "[Errno 2] No such file or directory: '/nonexistent/path.cfg'"),
    Row("gate --seed -1", [], ["gate", "OR", "--seed", "-1"], "seed must be >= 0, got -1"),
    Row("scouting --seed -1", [], ["scouting", "--seed", "-1"], "seed must be >= 0, got -1"),
    Row("characterize --cells 0", [], ["characterize", "--cells", "0"],
        "cells must be >= 1, got 0"),
    Row("characterize --cells -3", [], ["characterize", "--cells", "-3"],
        "cells must be >= 1, got -3"),

    # sweep's span and parameter.
    Row("sweep without values", [], ["sweep", "hrs_sigma_c2c"],
        "sweep needs --values or --start/--stop/--steps"),
    Row("sweep --values ''", [], ["sweep", "hrs_sigma_c2c", "--values", ""],
        "sweep needs --values or --start/--stop/--steps"),
    Row("sweep --values ,", [], ["sweep", "hrs_sigma_c2c", "--values", ","],
        "sweep range is empty"),
    # --steps 0 is given, so it is named rather than taken for a missing flag.
    Row("sweep --steps 0", [], ["sweep", "hrs_sigma_c2c", "--start", "0.1", "--stop", "1.2",
                                "--steps", "0"], "sweep needs --steps >= 1"),
    # A range given next to --values is named, not dropped.
    *(Row(f"sweep --values {' '.join(span)}", [], [*SWEEP, *span],
          "sweep takes --values or --start/--stop/--steps, not both")
      for span in (["--start", "0.1"], ["--stop", "0.5"], ["--steps", "2"],
                   ["--start", "0.1", "--stop", "0.5", "--steps", "2"])),
    # Attributes of the parameter object that are not its fields are unknown,
    # and so are the deleted pulse minimums.
    *(Row(f"sweep {name}", [], ["sweep", name, "--values", "1"],
          f"unknown device parameter {name!r}; one of ['hrs_median', ...")
      for name in ("not_a_param", "replace", "__class__", "min_pulse_set", "min_pulse_reset")),

    # Gates and ops: a repeat would run twice and count its trials twice.  A
    # name is case-folded (an op) or looked up (a gate) before it is compared.
    Row("gate NOPE", [], ["gate", "NOPE"],
        "unknown gate 'NOPE'; available: AND, F0000, F0001, F0010, F0011, F0100, F0101, "
        "F0110, F0111, F1000, F1001, F1010, F1011, F1100, F1101, F1110, F1111, NIMP, NOTP, "
        "OR, XOR"),
    Row("gate OR OR", [], ["gate", "OR", "OR"], "gate 'OR' repeats 'OR'"),
    Row("gate or AND OR", [], ["gate", "or", "AND", "OR"], "gate 'OR' repeats 'or'"),
    Row("gate or OR", [], ["gate", "or", "OR", "--cycles", "3"], "gate 'OR' repeats 'or'"),
    Row("scouting or or", [], ["scouting", "or", "or"], "scouting op 'or' repeats 'or'"),
    Row("scouting or OR", [], ["scouting", "or", "OR"], "scouting op 'OR' repeats 'or'"),
    Row("scouting xor OR or", [], ["scouting", "xor", "OR", "or"],
        "scouting op 'or' repeats 'OR'"),
    Row("scouting nand --n 3", [], ["scouting", "nand", "--n", "3"],
        "unknown scouting op 'nand'; expected one of ('read', 'or', 'and', 'xor')"),
    Row("scouting --refs nope", [], [*SCOUTING, "--refs", "nope"],
        "refs must be 'placed' or 'paper-refs', got 'nope'"),
    # An empty --refs is a value, as ``experiment.refs =`` in a config file is.
    Row("scouting --refs ''", [], [*SCOUTING, "--refs", ""],
        "refs must be 'placed' or 'paper-refs', got ''"),
    Row("scouting --refs paper-refs --n 3", [], [*SCOUTING, "--refs", "paper-refs", "--n", "3"],
        "refs 'paper-refs' has 2 levels; a 3-input read needs 3"),
    Row("scouting --n 1", [], ["scouting", "or", "--n", "1", "--cycles", "5"],
        "scouting needs at least two input cells"),
    Row("scouting --n 9", [], ["scouting", "or", "--n", "9"],
        "n=9 input cells do not fit in one column of 8 rows"),
    Row("scouting --cycles 1", [], ["scouting", "--cycles", "1"],
        "split mode needs cycles >= 2 (one half places the references, the other is "
        "classified)"),

    # Files: an existing file, or a path below one, is no output directory.
    *(Row(f"{command[0]} -o {out}", [], [*command, "-o", "{tmp}/" + out], err,
          early=command[0] != "gate", files=A_FILE)
      for command in (GATE, ["synthesize"], ["cases"])
      for out, err in (("a_file", "[Errno 17] File exists: '{tmp}/a_file'"),
                       ("a_file/x", "[Errno 20] Not a directory: '{tmp}/a_file/x'"))),
    Row("cases MEMLOGIC_OUTPUT_DIR=a_file/x", [], ["cases"],
        "[Errno 20] Not a directory: '{tmp}/a_file/x'",
        env={"MEMLOGIC_OUTPUT_DIR": "{tmp}/a_file/x"}, files=A_FILE),
    Row("gate --library missing", [], ["gate", "OR", "--library", "{tmp}/missing.csv"],
        "[Errno 2] No such file or directory: '{tmp}/missing.csv'"),

    # Rejected as they simulate.  A pulse that drives both electrodes above
    # their thresholds names the cell it was applied to.
    Row("ambiguous library drive", ["device.v_reset_th_median = 0.2",
                                    "device.v_reset_th_sigma = 0"],
        ["gate", "SAME", "--library", "{tmp}/lib.csv"],
        "at cell (0, 0): ambiguous drive on r0c0: v_te=1.3, v_be=1.6",
        early=False, files={"lib.csv": "SAME,1,q,q,p\n"}),
    Row("device.v_form_th_median = 6", ["device.v_form_th_median = 6"], GATE,
        "r0c0 did not form up to 4.8 V (pulses at a 1.1 V gate)", early=False),
    # A scouting write that gives up says where to replay it: reads noisy
    # enough to straddle the boundary four times running.
    *(Row(f"scouting write gives up at seed {seed}",
          ["device.read_noise_hrs = 1.5", "device.read_noise_lrs = 1.5"],
          ["scouting", "--seed", str(seed)],
          f"seed {seed}, class {bits!r}, cycle {cycle}: cell (1, 0) failed to initialize "
          f"to {bit} after 3 retries", early=False)
      for seed, bits, cycle, bit in ((2, "00", 80, 0), (3, "01", 52, 1))),
    # A cell the operating point cannot SET or RESET would export one state's
    # reads as the other's; the line names its drawn threshold, which a wide
    # spread (sigma) puts out of reach with the median at its default.
    Row("characterize cannot set", ["device.v_set_th_median = 2.0"], [*CHARACTERIZE, "3"],
        "cell 0 is HRS after the 1.3 V SET pulse of cycle 1: its drawn v_set_th = "
        "1.962114834707387, with device.v_set_th_median = 2.0 and "
        "device.v_set_th_sigma = 0.05", early=False),
    Row("characterize cannot reset", ["device.v_reset_th_median = 1.7"], [*CHARACTERIZE, "3"],
        "cell 0 is LRS after the 1.6 V RESET pulse of cycle 0: its drawn v_reset_th = "
        "1.73773621858717, with device.v_reset_th_median = 1.7 and "
        "device.v_reset_th_sigma = 0.05", early=False),
    Row("characterize cannot set at sigma 0.2",
        ["device.v_set_th_sigma = 0.2", "experiment.seed = 0"], [*CHARACTERIZE, "3"],
        "cell 0 is HRS after the 1.3 V SET pulse of cycle 1: its drawn v_set_th = "
        "1.347899804085343, with device.v_set_th_median = 1.0 and "
        "device.v_set_th_sigma = 0.2", early=False),
    # A series resistance that absorbs every cell resistance reads LRS and HRS
    # alike: a mean HRS/LRS ratio of 1 characterizes nothing.
    Row("characterize r_on = 1e300", ["device.r_on = 1e300"], [*CHARACTERIZE, "4"],
        "mean HRS/LRS ratio is 1.0: the reads cannot tell HRS from LRS at "
        "device.r_on = 1e+300", early=False),
    Row("characterize lrs 1e-320", SUBNORMAL, [*CHARACTERIZE, "4"],
        NOT_FINITE.format("mean HRS/LRS ratio", "1e-320"), early=False),
    Row("scouting lrs 1e-320", SUBNORMAL, SCOUTING,
        NOT_FINITE.format("read current", "1e-320"), early=False),
    Row("scouting lrs 1e-300 wide", WIDE, ["scouting", "--cycles", "20"],
        NOT_FINITE.format("read current", "1e-300"), early=False),
    Row("scouting lrs 5e-324", TINY, ["scouting", "--cycles", "20"],
        NOT_FINITE.format("read current", "5e-324"), early=False),
    Row("characterize lrs 5e-324", TINY, [*CHARACTERIZE, "20"],
        NOT_FINITE.format("read conductance", "5e-324"), early=False),
    *(Row(f"gate lrs 5e-324 seed {seed}", TINY, [*GATES, "--seed", seed],
          NOT_FINITE.format("read conductance", "5e-324"), early=False) for seed in "123"),

    # Extreme settings that still simulate: tiny LRS medians whose reads stay
    # above 0 Ohm, and medians whose boundary (their geometric mean) would
    # overflow or underflow in a product.  Each line alone is valid, too.
    Row("gate lrs 1e-320", SUBNORMAL, GATES, code=0, early=False),
    Row("gate lrs 1e-300 wide", WIDE, GATES, code=0, early=False),
    *(Row(f"{command[0]} medians {product}", lines, command, code=0, early=False)
      for product, lines in (("product inf", ["device.hrs_median = 1e307",
                                              "device.lrs_median = 1e306"]),
                             ("product 0", ["device.lrs_median = 1e-200",
                                            "device.hrs_median = 1e-199"]))
      for command in (GATE, SCOUTING)),
)

#: Rows that name the first broken bound of the device when more than one is.
FIRST_BROKEN = {
    "lines0-hrs_median must be > 0": "device.hrs_median = -1",
    "lines1-v_form_th_sigma must be >= 0": "device.v_form_th_sigma = -1",
    "lines2-read_noise_hrs must be >= 0": "device.read_noise_hrs = -1",
    "lines3-read_noise_hrs must be <= 10.0": "device.read_noise_hrs = 11",
    "lines4-lrs_median must be a finite number, got inf": "device.lrs_median = inf",
    "lines5-r_on must be a finite number, got 1" + "0" * 400: "device.r_on = 1e400",
    "lines6-hrs_median must be > 0": "two broken bounds",
}

#: Rows that were tests of their own before the contract became one table
#: keep those tests' ids: a test name with its one row, or with its case ids
#: and the row of each.  Every other row runs as ``test_cli_contract[ID]``.
OWN_TESTS: dict[str, str | dict[str, str]] = {
    "test_cli_rejects_bad_config_values": {
        **{line: line for line in BAD_LINES if line not in FIRST_BROKEN.values()},
        "device.r_on = 1" + "0" * 400: "device.r_on = 1e400"},
    "test_cli_names_the_first_broken_device_bound": FIRST_BROKEN,
    "test_cli_gate_and_scouting_that_cannot_switch_exit_2": {
        f"args{i}-{case}": f"{command} {setting}"
        for i, command in enumerate(("gate", "scouting"))
        for case, setting in (("reset-3e-06", "min_pulse_reset = 3e-06"),
                              ("set", "min_pulse_set = 2e-6"),
                              ("reset", "min_pulse_reset = 1.5e-6"))},
    "test_every_command_rejects_a_bad_refs_value": {
        command: f"{command} refs = bogus"
        for command in ("gate", "characterize", "cases", "synthesize", "sweep", "scouting")},
    "test_cli_rejects_an_empty_gate_or_op_list": {
        "gates-command0": "sweep gates =", "gates-command1": "gate gates =",
        "scouting_ops-command2": "sweep scouting_ops ="},
    "test_cli_usage_errors_exit_2_in_one_line": {
        "missing-argument": "missing argument", "unknown-flag": "unknown flag",
        "misspelled-subcommand": "misspelled subcommand", "preset": "preset flag",
        "cases-seed": "cases --seed", "synthesize-cycles": "synthesize --cycles",
        "flag-under-a-bad-file": "a flag under a bad file",
        "usage-under-a-bad-file": "a usage error under a bad file"},
    "test_cli_synthesize_takes_no_format": "synthesize --format",
    "test_cli_missing_config_file": "missing config file",
    "test_cli_rejects_bad_counts_by_name": {
        "args0-seed": "gate --seed -1", "args1-seed": "scouting --seed -1",
        "args2-cells": "characterize --cells 0", "args3-cells": "characterize --cells -3"},
    "test_cli_sweep_bad_usage": "sweep without values",
    "test_cli_rejects_a_repeated_gate_or_op": {
        "-args0-scouting op 'or' repeats 'or'": "scouting or or",
        "-args1-scouting op 'or' repeats 'OR'": "scouting xor OR or",
        "-args2-gate 'OR' repeats 'OR'": "gate OR OR",
        "-args3-gate 'OR' repeats 'or'": "gate or AND OR",
        "experiment.scouting_ops = and,XOR,xor\n-args4-scouting op 'xor' repeats 'XOR'":
            "scouting scouting_ops = and,XOR,xor",
        "experiment.gates = XOR,xor\n-args5-gate 'xor' repeats 'XOR'": "sweep gates = XOR,xor"},
    "test_cli_scouting_rejects_before_sampling": {
        "args0": "scouting nand --n 3", "args1": "scouting --refs paper-refs --n 3",
        "args2": "scouting --refs ''"},
    "test_cli_rejects_an_unknown_refs_value_before_sampling": "scouting --refs nope",
    "test_cli_scouting_rejects_single_cell": "scouting --n 1",
    "test_cli_scouting_rejects_n_above_the_row_count_at_once": "scouting --n 9",
    "test_cli_scouting_split_needs_two_cycles": "scouting --cycles 1",
    "test_cli_unusable_output_dir_exits_2": {
        f"{below}-args{i}": f"{command} -o {out}"
        for i, command in enumerate(("gate", "synthesize", "cases"))
        for below, out in (("False", "a_file"), ("True", "a_file/x"))},
    "test_cli_unusable_env_output_dir_exits_2": "cases MEMLOGIC_OUTPUT_DIR=a_file/x",
    "test_cli_missing_library_exits_2": "gate --library missing",
    "test_cli_gate_pulse_error_names_its_cell": "ambiguous library drive",
    "test_a_scouting_write_that_gives_up_names_where_to_replay_it": {
        f"{seed}-seed {seed}, class {bits!r}, cycle {cycle}: cell (1, 0) failed to initialize "
        f"to {bit} after 3 retries": f"scouting write gives up at seed {seed}"
        for seed, bits, cycle, bit in ((2, "00", 80, 0), (3, "01", 52, 1))},
    # A write that gives up is the error a runner raises past its trials.
    "test_cli_experiment_errors_exit_2": {"error0": "scouting write gives up at seed 2"},
    "test_cli_characterize_that_cannot_switch_exits_2": {
        "set": "characterize cannot set", "config": "characterize cannot reset",
        "sigma": "characterize cannot set at sigma 0.2"},
    "test_cli_characterize_whose_reads_cannot_tell_the_states_apart_exits_2":
        "characterize r_on = 1e300",
    "test_cli_non_finite_results_exit_2": {
        f"lines{i}-args{i}": row_id for i, row_id in enumerate((
            "characterize lrs 1e-320", "scouting lrs 1e-320", "scouting lrs 1e-300 wide",
            "scouting lrs 5e-324", "characterize lrs 5e-324", "gate lrs 5e-324 seed 1",
            "gate lrs 5e-324 seed 2", "gate lrs 5e-324 seed 3"))},
    "test_cli_gate_runs_while_reads_stay_above_0_ohm": {
        "lines0": "gate lrs 1e-320", "lines1": "gate lrs 1e-300 wide"},
    "test_cli_extreme_medians_keep_a_finite_boundary": {
        f"args{i}-lines{j}": f"{command} medians product {product}"
        for i, command in enumerate(("gate", "scouting"))
        for j, product in enumerate(("inf", "0"))},
}
ROWS = {row.id: row for row in CONTRACT}
OWN_ROWS = {row_id for rows in OWN_TESTS.values()
            for row_id in ([rows] if isinstance(rows, str) else rows.values())}


@pytest.mark.parametrize("row", [row for row in CONTRACT if row.id not in OWN_ROWS],
                         ids=lambda row: row.id)
def test_cli_contract(tmp_path, capsys, monkeypatch, row):
    """The row's exit code and its one stderr line.  An exit 2 creates no output
    directory and, unless the directory is the fault, prints nothing; an exit
    0 or 1 writes its exports.  An early row builds no cell array."""
    def at_tmp(text: str) -> str:
        return text.replace("{tmp}", str(tmp_path))

    for name, text in (row.files or {}).items():
        (tmp_path / name).write_text(text)
    argv = [at_tmp(arg) for arg in row.argv]
    if row.config:
        (tmp_path / "run.cfg").write_text("".join(line + "\n" for line in row.config))
        argv.insert(0, str(tmp_path / "run.cfg"))
    monkeypatch.delenv("MEMLOGIC_OUTPUT_DIR", raising=False)
    for name, value in (row.env or {}).items():
        monkeypatch.setenv(name, at_tmp(value))
    own_output = "-o" in argv or bool(row.env)
    if not own_output:
        argv += ["-o", str(tmp_path / "out")]
    out = Path(argv[argv.index("-o") + 1] if "-o" in argv else os.environ["MEMLOGIC_OUTPUT_DIR"])
    built, real = [], analysis.CellArray
    monkeypatch.setattr(analysis, "CellArray",
                        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))

    code = main(argv)
    stdout, stderr = capsys.readouterr()
    assert code == row.code
    assert stderr.count("\n") == (code == 2) and "Traceback" not in stderr, stderr
    line, err = stderr.removesuffix("\n"), at_tmp(row.err)
    assert line.startswith(err[:-3]) if err.endswith("...") else line == err
    assert out.is_dir() == (code != 2)
    assert code != 2 or own_output or stdout == ""
    assert bool(built) != row.early


def _own_test(rows: str | dict[str, str]):
    """`test_cli_contract` on one row, or on each of ``rows`` under its case id."""
    if isinstance(rows, str):
        def test(tmp_path, capsys, monkeypatch):
            test_cli_contract(tmp_path, capsys, monkeypatch, ROWS[rows])
        return test

    @pytest.mark.parametrize("row", [ROWS[row_id] for row_id in rows.values()], ids=list(rows))
    def test(tmp_path, capsys, monkeypatch, row):
        test_cli_contract(tmp_path, capsys, monkeypatch, row)
    return test


globals().update((name, _own_test(rows)) for name, rows in OWN_TESTS.items())


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gate", "--help"])
    assert info.value.code == 0
    assert "usage: memlogic gate" in capsys.readouterr().out


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


def test_cli_no_trials_is_not_a_pass():
    # An empty op list would evaluate nothing too: CONTRACT rejects it early.
    assert cli._exit_code(failures=0, errors=0, trials=0) == 1


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
