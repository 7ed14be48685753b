"""The README's library example runs, and the names it and the package
export resolve."""

import re
from pathlib import Path

import psl2cert

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs():
    section = README.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_exported_and_documented_names_resolve():
    documented = set(re.findall(r"\bpsl2cert\.(\w+)\(", README))
    assert documented <= set(psl2cert.__all__)
    assert [name for name in psl2cert.__all__ if not hasattr(psl2cert, name)] == []
