"""The public API: every name a module exports resolves in it, and the README's example runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", ["kempner", "kempner.core", "kempner.table", "kempner.census", "kempner.oracle"]
)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is deleted breaks
    # `from kempner import *` and every tool that walks the public API.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_library_example_runs():
    # A trimmed API must not leave a documented call that raises.
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})


def test_no_module_reads_the_environment():
    # Every setting is an argument or an option, so none hides in os.environ.
    package = Path(importlib.import_module("kempner").__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("environ", "environb", "getenv", "getenvb"), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name
