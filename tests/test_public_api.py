"""Every public module-level function or class has a caller in the program.

The program is ``src/cubefree`` (its re-exporting ``__init__`` aside) and
``perfbench``; tests do not count, so no public name lives on as a test
oracle only.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "cubefree").glob("*.py") if p.name != "__init__.py") \
    + sorted((ROOT / "perfbench").glob("*.py"))


def _references(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_referenced_outside_its_body():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{path.relative_to(ROOT)}: {node.name}"
              for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and used[node.name] == _references(node)[node.name]]
    assert unused == []
