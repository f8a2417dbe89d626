"""No module in ``src/repro`` imports ``socket``, ``pickle`` or a
thread pool.

Both transports run on one host (the serial queue and the fork pool),
and the only bytes ``src/repro`` reads back are the store's JSON lines,
parsed as data.  An AST scan (stdlib only) of every import statement,
nested ones included, keeps a socket listener or an unpickler of
outside bytes from coming back unnoticed.  The same scan keeps the
retired thread transport out: ``ThreadPoolExecutor``, imported by name
or reached as an attribute, is flagged too.
"""

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = {"socket", "pickle"}
#: Names no module may import or reach as an attribute.
FORBIDDEN_NAMES = {"ThreadPoolExecutor"}


def forbidden_imports(source: str) -> List[Tuple[str, int]]:
    """(module or name, line) of each import of a :data:`FORBIDDEN`
    module and each use of a :data:`FORBIDDEN_NAMES` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            found.append((node.attr, node.lineno))
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in FORBIDDEN_NAMES]
            modules = [node.module or ""] if node.level == 0 else []
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
              "    from . import socket\n"
              "    from concurrent.futures import ThreadPoolExecutor\n"
              "    import concurrent.futures as cf\n"
              "    cf.ThreadPoolExecutor(2)\n")
    assert sorted(forbidden_imports(source)) == [
        ("ThreadPoolExecutor", 6), ("ThreadPoolExecutor", 8),
        ("pickle", 3), ("socket", 4)]


def test_src_imports_no_socket_or_pickle():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {module}"
             for path in sorted(SRC.rglob("*.py"))
             for module, line in forbidden_imports(path.read_text())]
    assert not found, ("socket/pickle/thread-pool imports:\n"
                       + "\n".join(found))
