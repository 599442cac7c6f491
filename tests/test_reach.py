"""Every module-level function and class of the package, and every
non-dunder method and property of its classes, is reached.

The roots are what a user or a release check runs: every definition in
``wfsim/cli.py``, the names the acceptance criteria and the benchmark
(``perfbench/*.py``) reference, the README's code spans, and the package's
own module-level statements (constants, aliases, re-exports).  A definition
is reached when a root, or the body of a reached definition, names it as
a variable, an attribute or an import.  A class's body counts without its
non-dunder methods and properties: each of those is a definition of its
own, reached by its name.  Docstrings and comments do not count.  Code
that only its own unit tests call fails this test: give it a caller or
delete it.

What the guard cannot see: dataclass fields, other class attributes and
function parameters are not definitions here, so a field or a parameter
that only tests read (or that always takes one value) passes.  Names are
matched bare, so a method passes when reached code names the same name
for any other reason: a same-named method of another class, or an
unrelated variable or attribute.  Nor does it see branches: a reached
function passes even when one of its branches (a type dispatch, an
optional argument) is taken only by unit tests.  The QSD power loop's
dense-matrix branch was one; it was deleted with its tests.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wfsim"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def referenced(tree: ast.AST) -> set[str]:
    """Variable, attribute and imported names anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_reached():
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = set(re.findall(r"\w+", " ".join(
        re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text()))))
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        roots |= referenced(ast.parse(path.read_text()))
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                roots |= referenced(node)
                continue
            found = [(path.stem, node)]
            if isinstance(node, ast.ClassDef):
                members = [item for item in node.body if isinstance(item, FUNCTIONS)
                           and not (item.name.startswith("__") and item.name.endswith("__"))]
                node.body = [item for item in node.body if item not in members]
                found += [(f"{path.stem}.{node.name}", item) for item in members]
            for module, definition in found:
                definitions.setdefault(definition.name, []).append((module, definition))
                if path.stem == "cli":
                    roots.add(definition.name)
    reached, todo = set(roots), list(roots)
    while todo:
        for _, node in definitions.get(todo.pop(), []):
            new = referenced(node) - reached
            reached |= new
            todo.extend(new)
    unreached = sorted(f"{module}.{name}" for name, defs in definitions.items()
                       for module, _ in defs if name not in reached)
    assert not unreached, f"reached by no command, criterion or workload: {unreached}"
