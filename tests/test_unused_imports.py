"""No top-level import in ``src/repro`` binds a name the module never reads.

An AST scan (stdlib only): a name bound by a module-level ``import`` or
``from ... import`` counts as used when any ``Name`` node in the module
loads it.  ``__init__.py`` files (package re-exports), ``from __future__``
imports and names listed in ``__all__`` are exempt.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of every top-level import that binds a name."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module loads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """(name, line) of each unused top-level import in module ``source``."""
    tree = ast.parse(source)
    used = _read_names(tree) | _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used]


def test_scan_flags_only_the_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys\nfrom typing import List, Optional\n"
              "import json as codec\n__all__ = ['codec']\n"
              "def f(x: Optional[int]) -> List[int]:\n"
              "    return [sys.maxsize]\n")
    assert unused_imports(source) == [("os", 2)]


def test_src_has_no_unused_imports():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for name, line in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
