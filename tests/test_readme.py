"""The README's Python examples run, and print what their comments say; its
config examples load."""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

from memlogic import config
from memlogic.analysis import ExperimentConfig
from memlogic.config import build_config, load_config, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
CONFIGS = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_python_blocks_print_the_commented_values():
    assert BLOCKS
    for block in BLOCKS:
        expected = re.findall(r"^print\(.*\)\s+#\s*(\S+)", block, flags=re.M)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().split() == expected, block


def test_readme_config_blocks_load(tmp_path):
    assert CONFIGS
    for k, block in enumerate(CONFIGS):
        cfg = tmp_path / f"readme{k}.cfg"
        cfg.write_text(block)
        load_config(cfg)


def test_readme_config_block_sets_every_key_at_its_default(tmp_path):
    [block] = CONFIGS
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    models = {name for _, name in config._MODELS.values()}
    accepted = ({f"{section}.{f.name}" for section, (cls, _) in config._MODELS.items()
                 for f in fields(cls)}
                | {f"experiment.{f.name}" for f in fields(ExperimentConfig) if f.name not in models}
                | {"experiment.output_dir", "experiment.format"})
    assert set(parse_config_file(cfg)) == accepted
    assert len(accepted) == len(re.findall(r"^\w+\.\w+ =", block, flags=re.M))  # no repeats
    assert load_config(cfg) == build_config({})
