"""Static check on the package source: no imported name goes unread."""

import ast
import re
from pathlib import Path

import oodkit

SRC = Path(oodkit.__file__).parent
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the marker, then a reason


def unused_imports(text):
    """(line, name) of each name the module imports and never reads, unless
    it is listed in __all__ or its line keeps it with `# noqa: F401` and a
    reason."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and not KEPT.search(lines[alias.lineno - 1]):
                    unused.append((alias.lineno, name))
    return sorted(unused)


def test_checker_flags_only_unread_imports():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "import sys  # noqa: F401\n"
            "import io  # noqa: F401 - kept for callers that patch it\n"
            "from json import (\n"
            "    dumps,\n"
            "    loads,\n"
            ")\n"
            "from math import pi, tau\n"
            "__all__ = ['pi']\n"
            "print(osp.join('a', dumps(tau)))\n")
    assert unused_imports(text) == [(2, "os"), (4, "sys"), (8, "loads")]


def test_package_has_no_unused_imports():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
