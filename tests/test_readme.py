"""The README's Python examples run, and print what their comments say; its
config examples load."""

import contextlib
import io
import re
from pathlib import Path

from memlogic.config import load_config

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
