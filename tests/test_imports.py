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


# the filling stream, the slow oracle of tests/fillings.py
ORACLE = Path(__file__).with_name("fillings.py")
ORACLE_NAMES = {"SetFilling", "_neighbor", "is_ssyt", "is_rpp", "is_svt",
                "_VALIDATORS", "content_of", "reverse_reading_word",
                "is_lattice", "enumerate_fillings"}
# all the oracle may read of the library: the shapes and the kind names
ORACLE_READS = {"staircase_groth.shapes": None,
                "staircase_groth.tableaux": {"SSYT", "RPP", "SVT", "_check_kind"}}


def identifiers(tree: ast.AST) -> set[str]:
    """Every name the tree defines, imports, binds or reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def test_oracle_reads_only_shapes_and_kind_names():
    tree = ast.parse(ORACLE.read_text())
    assert ORACLE_NAMES <= identifiers(tree)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # a bound package would reach every module through it
            assert all(a.name.split(".")[0] != "staircase_groth"
                       for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "staircase_groth":
            reads += [(node.module, a.name) for a in node.names]
    assert reads, "the oracle reads the library's shapes"
    for module, name in reads:
        assert module in ORACLE_READS, (module, name)
        allowed = ORACLE_READS[module]
        assert allowed is None or name in allowed, (module, name)


def test_library_holds_no_oracle_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: sorted(identifiers(ast.parse(p.read_text())) & ORACLE_NAMES)
             for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
