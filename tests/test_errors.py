"""Every concrete error and warning class is raised or named by the package.

A class that no other module of ``gazelab`` mentions is dead weight in
the taxonomy (it outlives the code that raised it), so this test parses
``errors.py`` and looks for each concrete class, one that no other class
there derives from, among the names the other modules use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gazelab"


def names_used(tree: ast.AST) -> set[str]:
    """Names a module reads as a bare name or an attribute (imports alone do not count)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def concrete_classes(tree: ast.Module) -> set[str]:
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {b.id for node in classes.values() for b in node.bases if isinstance(b, ast.Name)}
    return set(classes) - bases


def orphans(errors_source: str, others: list[str]) -> set[str]:
    used = set().union(*(names_used(ast.parse(src)) for src in others))
    return concrete_classes(ast.parse(errors_source)) - used


def test_every_concrete_error_is_used_elsewhere():
    others = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"]
    assert len(others) >= 9
    assert orphans((SRC / "errors.py").read_text(), others) == set()


def test_an_unused_class_is_reported():
    source = (SRC / "errors.py").read_text() + (
        "\n\nclass EmptyMatrix(PreconditionError):\n    pass\n"
    )
    others = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"]
    assert orphans(source, others) == {"EmptyMatrix"}
    # An import without a use does not count as a reference.
    importer = "from .errors import EmptyMatrix\n"
    assert orphans(source, others + [importer]) == {"EmptyMatrix"}
