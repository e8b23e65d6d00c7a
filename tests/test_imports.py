import ast
from pathlib import Path

import staircase_groth

SRC = Path(staircase_groth.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """Names the module imports but never reads as a Name, skipping
    ``from __future__`` imports and lines marked ``# noqa: F401``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_library_modules_use_every_import():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [u for p in modules for u in unused_imports(p)] == []
