"""Every module-level private name of the package is read somewhere in the package.

A private name is a function, class or constant bound at the top level of a
module whose name starts with an underscore and is not a dunder.  A read is
a load of the name, an attribute of that name (`module._name`) or a
`from .module import _name`; its own definition is not one, so a helper
left behind when its last caller goes fails here.  Tests do not count as
readers.
"""

import ast
from pathlib import Path

import wavebound

SOURCE = Path(wavebound.__file__).parent


def _private_definitions(tree: ast.Module):
    """(name, line) of each private name bound by a top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_private_names(paths) -> list[str]:
    """`file:line name` of each private name that no module of paths reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = {name for tree in trees.values() for name in _reads(tree)}
    return [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_every_private_name_is_read():
    sources = sorted(SOURCE.glob("*.py"))
    assert len(sources) > 10
    assert unread_private_names(sources) == []


def test_guard_sees_an_unread_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "__all__ = ['f']\n"
        "_LIMIT, _PAIR = 3, 4\n"
        "_table: dict = {}\n"
        "class _Left:\n"
        "    pass\n"
        "def _imported():\n"
        "    return _LIMIT\n"
        "def _by_attribute():\n"
        "    pass\n"
        "def f():\n"
        "    return _PAIR\n"
    )
    b.write_text("from . import a\nfrom .a import _imported\na._by_attribute()\n")
    assert unread_private_names([a, b]) == ["a.py:3 _table", "a.py:4 _Left"]
