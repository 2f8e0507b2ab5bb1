"""The package namespace: public names resolved on first use, no module
importing a name it never reads, no module defining a name that no
module reads and the package does not export, and every function and
argument the benchmark's layer tracer hooks still there."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import igadmm

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
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


def _unread_definitions():
    """Top-level names of the src modules that no src module reads (a load
    of the name or of an attribute by that name) and that igadmm.__all__
    does not export; dunder names are the interpreter's."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            unread += [(filename, node.lineno, name) for name in names
                       if name not in read and name not in igadmm.__all__
                       and not (name.startswith("__") and name.endswith("__"))]
    return unread


def test_every_definition_is_read_or_exported():
    assert _unread_definitions() == []


def _tracer_hooks():
    """{traced name: argument names its hook reads} for each _HOOKS entry of
    perfbench/layertrace.py whose name is a package function, read by
    parse: a hook reads the bound arguments as args["name"].  The names
    the tracer gives to functions it wraps from outside the package (the
    literal second argument of a _wrap call, as for scipy's eigh) are left
    out."""
    tree = ast.parse(LAYERTRACE.read_text())
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_HOOKS"])
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    outside = {node.args[1].value for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "_wrap" and isinstance(node.args[1], ast.Constant)}
    read = {}
    for key, value in zip(hooks.keys, hooks.values):
        if key.value in outside:
            continue
        hook = functions[value.id]
        args = hook.args.args[1].arg
        read[key.value] = {node.slice.value for node in ast.walk(hook)
                           if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                           and node.value.id == args}
    return read


_TRACED = _tracer_hooks()


@pytest.mark.parametrize("name", sorted(_TRACED))
def test_every_traced_function_has_the_arguments_its_hook_reads(name):
    # the tracer wraps a function under its home module and its own name,
    # and binds the call to its signature before the hook reads it
    layer, attr = name.split(".")
    module = importlib.import_module(f"igadmm.{layer}")
    function = getattr(module, attr, None)
    assert callable(function) and function.__module__ == module.__name__, name
    assert _TRACED[name] <= set(inspect.signature(function).parameters), name
