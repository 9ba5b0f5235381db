"""The public surface: every name zqchain exports has a user outside the tests.

A name that ``zqchain/__init__.py`` imports passes when code in another
module of the package refers to it, when a ``bench/*.py`` file refers to
or imports it, or when README.md names it in code. Code references are
read from the syntax tree (``Name`` and ``Attribute`` nodes), so a
docstring or comment that happens to contain the word is not a caller.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zqchain"


def exported():
    """Every name that __init__.py imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def code_references(path, with_imports=False):
    """The names a file's code reads, by bare name or as an attribute."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif with_imports and isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def readme_code_names():
    """Identifiers inside README.md's inline code and code blocks."""
    text = (ROOT / "README.md").read_text()
    spans = [m.group(2) for m in re.finditer(r"(`+)(.+?)\1", text, re.DOTALL)]
    return set(re.findall(r"\w+", " ".join(spans)))


def test_every_export_has_a_user_outside_the_tests():
    used = readme_code_names()
    for path in (ROOT / "bench").glob("*.py"):
        used |= code_references(path, with_imports=True)
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= code_references(path)
    assert sorted(exported() - used) == []
