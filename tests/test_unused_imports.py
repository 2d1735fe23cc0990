"""Every name a module of the package imports is used in that module.

`__init__.py` re-exports what it imports, so it is left out.  The only
other exceptions are the names `trainer` keeps bound for perfbench/tracing.py
to wrap; the allowlist is checked against that file so it cannot go stale.
"""

import ast
from pathlib import Path

import wavebound

SOURCE = Path(wavebound.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Bound in trainer.py, unused there, for perfbench/tracing.py to wrap.
KEPT_FOR_TRACING = {"mlp_forward_batch", "mlp_backward_batch", "per_element_risk", "objective_value", "objective_mask"}


def _unused_imports(path: Path) -> list[str]:
    """`file:line name` of each imported name that no other node of the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    sources = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(sources) > 10
    found = [
        site
        for path in sources
        for site in _unused_imports(path)
        if not (path.name == "trainer.py" and site.split()[1] in KEPT_FOR_TRACING)
    ]
    assert found == []


def test_names_kept_for_tracing_are_wrapped_there():
    tracing = TRACING.read_text(encoding="utf-8")
    for name in KEPT_FOR_TRACING:
        assert f'"{name}"' in tracing, name
    unused = {site.split()[1] for site in _unused_imports(SOURCE / "trainer.py")}
    assert unused == KEPT_FOR_TRACING


def test_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from .x import y as z\n"
        "def f() -> np.ndarray:\n"
        "    return loads(os.sep)\n"
    )
    assert _unused_imports(path) == ["bad.py:4 dumps", "bad.py:5 z"]
