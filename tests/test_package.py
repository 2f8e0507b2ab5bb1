"""The package namespace: public names resolved on first use, and no
module importing a name it never reads."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import igadmm

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(igadmm.__file__).resolve().parent


@pytest.mark.parametrize("name", igadmm.__all__)
def test_every_public_name_is_its_submodules_object(name):
    module = importlib.import_module(f"igadmm.{igadmm._EXPORTS[name]}")
    value = getattr(igadmm, name)
    assert value is getattr(module, name)
    assert value.__module__ == module.__name__  # where it is defined


def test_dir_lists_every_public_name():
    assert set(igadmm.__all__) <= set(dir(igadmm))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        igadmm.nosuch  # noqa: B018
    assert not hasattr(igadmm, "nosuch")


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def _unread_imports(path):
    """Names a module imports but never reads (a docstring mention is not a read)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert _unread_imports(path) == []
