"""Every name a module or script imports is used in it.

Package modules re-export through ``__init__.py``, which is exempt; every
other file under ``src/grwsim``, ``scripts`` and ``tests`` must use each
imported name at least once outside its import statement.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for folder in (ROOT / "src" / "grwsim", ROOT / "scripts", ROOT / "tests")
    for p in folder.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_finds_unused_names():
    source = "import math\nimport os.path\nfrom typing import Any, List\nx: List[int] = []\n"
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: Any"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
