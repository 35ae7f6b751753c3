"""Every name the README and the demos import from memlogic exists, and every
demo runs to completion.

The imports are read from the source with ``ast``, so a dropped name is
reported by name; running the demos also catches a removed attribute or field.
"""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = {path.name: path.read_text() for path in DEMOS}
SOURCES.update({f"README.md block {i}": block for i, block in enumerate(
    re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S))})


def memlogic_imports(source: str) -> list[tuple[str, str]]:
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "memlogic" for alias in node.names]


def test_demos_and_readme_import_from_memlogic():
    assert len(SOURCES) > 5
    assert all(memlogic_imports(source) for source in SOURCES.values())


@pytest.mark.parametrize("where", sorted(SOURCES))
def test_imported_names_resolve(where):
    missing = [f"{module}.{name}" for module, name in memlogic_imports(SOURCES[where])
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, where


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
