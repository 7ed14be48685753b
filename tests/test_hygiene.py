"""Source hygiene: no module under src/psl2cert keeps an import it never reads."""

import ast
from pathlib import Path

import psl2cert

PACKAGE = Path(psl2cert.__file__).resolve().parent

# perfbench's traced worker wraps these two names in certify's namespace, so
# certify imports them without reading them
KEPT = {("certify", "discriminant"), ("certify", "nth_power_poly")}


def unread_imports(source: str) -> set[str]:
    """Names bound by the module-level imports of source that nothing else
    in it reads; `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nsys.exit(d)"
    assert unread_imports(source) == {"os", "b"}


def test_every_module_reads_its_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unread = {(m.stem, name) for m in modules for name in unread_imports(m.read_text())}
    assert unread == KEPT
