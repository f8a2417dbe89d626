"""No module in ``src/repro`` imports ``socket`` or ``pickle``.

Every transport runs on one host (serial queue, thread and fork pools),
and the only bytes ``src/repro`` reads back are the store's JSON lines,
parsed as data.  An AST scan (stdlib only) of every import statement,
nested ones included, keeps a socket listener or an unpickler of
outside bytes from coming back unnoticed.
"""

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = {"socket", "pickle"}


def forbidden_imports(source: str) -> List[Tuple[str, int]]:
    """(module, line) of each import of a :data:`FORBIDDEN` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [(module, node.lineno) for module in modules
                  if module.split(".")[0] in FORBIDDEN]
    return found


def test_scan_flags_nested_and_from_imports():
    source = ("import os\n"
              "def serve():\n"
              "    import pickle as codec\n"
              "    from socket import create_connection\n"
              "    from . import socket\n")
    assert forbidden_imports(source) == [("pickle", 3), ("socket", 4)]


def test_src_imports_no_socket_or_pickle():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {module}"
             for path in sorted(SRC.rglob("*.py"))
             for module, line in forbidden_imports(path.read_text())]
    assert not found, "socket/pickle imports:\n" + "\n".join(found)
