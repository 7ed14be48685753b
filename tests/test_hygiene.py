"""Source hygiene: no module under src/psl2cert keeps an import it never
reads, and src/ reads every module-level function and class it defines but
for a known few."""

import ast
from pathlib import Path

import psl2cert

PACKAGE = Path(psl2cert.__file__).resolve().parent

# perfbench's traced worker wraps these two names in certify's namespace, so
# certify imports them without reading them
KEPT = {("certify", "discriminant"), ("certify", "nth_power_poly")}

UNREAD_DEFS = {
    # read only by perfbench's worker, which calls or wraps them by name
    ("ortho", "cartan_dieudonne"),
    ("qpoly", "discriminant"),
    ("qpoly", "nth_power_poly"),
    # the O(4) and tensor-model library API, which src/ keeps without calling
    ("ortho", "in_omega"),
    ("ortho", "reciprocal_charpoly"),
    ("ortho", "reflection"),
    ("tensor", "kronecker_decompose"),
    ("tensor", "tensor_action"),
}


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


def unread_defs(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each module-level def and class that no module
    reads as a Name or an Attribute; a string in `__all__` is no read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
    }


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nsys.exit(d)"
    assert unread_imports(source) == {"os", "b"}


def test_every_module_reads_its_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unread = {(m.stem, name) for m in modules for name in unread_imports(m.read_text())}
    assert unread == KEPT


def test_unread_defs_are_found():
    sources = {
        "a": "def f(): pass\ndef g(): pass\nclass C: pass\n__all__ = ['f']",
        "b": "from .a import g\ndef h(x): return g(x.C)",
    }
    assert unread_defs(sources) == {("a", "f"), ("b", "h")}


def test_every_definition_is_read_in_src():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_defs(sources) == UNREAD_DEFS
