"""Every config value either simulates or is rejected with exit 2 and one line.

Each example writes a config file of one to three ``section.field = value``
lines, drawn over every key of every section, and runs ``gate OR`` or
``scouting`` on it for two cycles.  Sizes (rows, columns, input width, cycles)
are drawn from small integers so each run stays short; the other keys get any
integer, float (nan and inf included), bool or short string.
"""

import contextlib
import io
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlogic import cli
from memlogic.analysis import ExperimentConfig
from memlogic.device import TransistorModel, VariabilityParams

KEYS = ([f"device.{f.name}" for f in fields(VariabilityParams)] + ["device.preset"]
        + [f"transistor.{f.name}" for f in fields(TransistorModel)]
        + ["array.kind", "array.rows", "array.cols"]
        + [f"experiment.{f.name}" for f in fields(ExperimentConfig)]
        + ["experiment.output_dir", "experiment.format"])

SIZE_KEYS = {"array.rows", "array.cols", "experiment.n_inputs", "experiment.cycles"}


@st.composite
def config_lines(draw):
    key = draw(st.sampled_from(KEYS))
    ints = st.integers(-3, 4) if key in SIZE_KEYS else st.integers()
    value = draw(st.one_of(ints, st.floats(), st.booleans(),
                           st.text("abcxyzAZ019-_.,+ ", max_size=6)))
    return f"{key} = {value}"


def run_cli(lines, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(cfg), *command, "--cycles", "2", "-o", tmp])
    return code, err.getvalue()


@pytest.mark.parametrize("command", [["gate", "OR"], ["scouting"]], ids=["gate", "scouting"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(config_lines(), min_size=1, max_size=3))
@example(lines=["device.preset = nope"])
@example(lines=["experiment.device = 1"])
@example(lines=["experiment.transistor = 1"])
@example(lines=["experiment.topology = x"])
@example(lines=["transistor.v_g_on_threshold = 5"])
@example(lines=["device.min_pulse_set = 1"])
@example(lines=["device.lrs_sigma_c2c = 471"])
@example(lines=["experiment.refs = 0"])
def test_config_values_simulate_or_exit_2_with_one_line(command, lines):
    code, err = run_cli(lines, command)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err
