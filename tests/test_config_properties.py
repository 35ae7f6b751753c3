"""Every config value either simulates or is rejected with exit 2 and one line.

Each example writes a config file of one to three ``section.field = value``
lines, drawn over every key of every section of the config table
(``config._MODELS`` and the experiment section) and over dead keys that must
be rejected, and runs ``gate OR``, ``scouting`` or ``characterize --cells 2``
on it for two cycles.  Sizes (rows, columns, input width, cycles) are drawn
from small integers so each run stays short; the other keys get any integer,
float (nan and inf included), bool or short string.
"""

import contextlib
import io
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic import cli, config
from memlogic.analysis import ExperimentConfig

#: Keys of deleted settings: each one alone exits 2.
DEAD_KEYS = ["device.preset", "transistor.r_on", "transistor.v_g_on_threshold"]

KEYS = ([f"{section}.{f.name}" for section, (cls, _) in config._MODELS.items()
         for f in fields(cls)]
        + [f"experiment.{f.name}" for f in fields(ExperimentConfig)]
        + ["experiment.output_dir", "experiment.format"] + DEAD_KEYS)

SIZE_KEYS = {"array.rows", "array.cols", "experiment.n_inputs", "experiment.cycles"}


@st.composite
def config_lines(draw):
    key = draw(st.sampled_from(KEYS))
    ints = st.integers(-3, 4) if key in SIZE_KEYS else st.integers()
    value = draw(st.one_of(ints, st.floats(), st.booleans(),
                           st.text("abcxyzAZ019-_.,+ ", max_size=6)))
    return f"{key} = {value}"


def run_cli(lines, command):
    """The exit code, the stderr text and the text of every export."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(cfg), *command, "--cycles", "2", "-o", tmp])
        exports = "".join(path.read_text() for path in sorted(Path(tmp).glob("*.*"))
                          if path != cfg)
    return code, err.getvalue(), exports


@pytest.mark.parametrize("command", [["gate", "OR"], ["scouting"],
                                     ["characterize", "--cells", "2"]],
                         ids=["gate", "scouting", "characterize"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(config_lines(), min_size=1, max_size=3))
def test_config_values_simulate_or_exit_2_with_one_line(command, lines):
    code, err, exports = run_cli(lines, command)
    assert code in (0, 1, 2)
    if code == 0:  # a pass exports finite results only
        assert not {"inf", "nan"} & set(re.findall(r"[a-z]+", exports)), exports
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err
    if any(line.partition(" =")[0] in DEAD_KEYS for line in lines):
        assert code == 2
