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

A second test names every parameter that no reached call passes, or
that every reached call passes as one literal scalar: make the first go
and the second a constant.  Calls are read from the package, the
acceptance criteria and the benchmark (the package is all reached, by the
first test), and matched to definitions by bare name, as above; a call
that unpacks ``*args`` or ``**kwargs`` passes every parameter.  A function that reached code never calls by name (a command
runner behind a registering decorator, a checker in a dispatch table) gets
its arguments from code the scan does not read, so its parameters are not
judged; those in ``UNPASSED_PARAMETERS`` stay, each for the reason given
there.

A third test names every attribute that a method sets on ``self`` and
no code loads outside that method, and every dataclass or NamedTuple
field that no code loads, reading the same files as the second; those in
``UNREAD_FIELDS`` stay, each for the reason given there.

What the guards cannot see: names are matched bare, so a method passes
when reached code names the same name for any other reason (a
same-named method of another class, or an unrelated variable or
attribute), and a field passes when code loads an attribute of the same
name on any other class.  Nor do they see branches: a reached
function passes even when one of its branches (a type dispatch, an
value that only unit tests pass) is taken only by unit tests.  The QSD
power loop's dense-matrix branch was one; it was deleted with its tests.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wfsim"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]

#: Fields no code reads that stay, with the reason.
UNREAD_FIELDS = {
    "extinction._BlockDraws._gens": "keeps alive the Generators whose bitgen_t "
                                    "the block's C draws point into",
    "deviation.LipschitzEstimate.probes": "the README documents it, and a benchmark "
                                          "that reports the probe count will read it",
}

#: Parameters no reached call passes that stay, with the reason.
UNPASSED_PARAMETERS = {
    "cli.main(argv) is never passed": "the in-process entry: the console script and "
                                      "python -m leave it None, so argparse reads "
                                      "sys.argv; criterion 10 passes it through "
                                      "conftest.run_wf, and the CI's wf bounds step "
                                      "passes it",
}


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


def parameters(node: ast.FunctionDef, method: bool) -> tuple[list[str], list[str]]:
    """The positional parameters a call fills in order (without ``self`` or
    ``cls``) and every parameter a call may name."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    return positional, positional + [arg.arg for arg in args.kwonlyargs]


def test_every_parameter_is_passed_more_than_one_value():
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(item): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if (not isinstance(node, FUNCTIONS)
                    or node.name.startswith("__") and node.name != "__init__"):
                continue
            # __init__ is called by its class's name
            sites = calls.get(owner[id(node)] if node.name == "__init__" else node.name, [])
            positional, named = parameters(node, id(node) in owner)
            for param in named if sites else []:
                passed = []                      # unparsed literal scalars, else None
                for call in sites:
                    if (any(isinstance(arg, ast.Starred) for arg in call.args)
                            or any(kw.arg is None for kw in call.keywords)):
                        passed.append(None)
                        continue
                    values = [kw.value for kw in call.keywords if kw.arg == param]
                    if param in positional and positional.index(param) < len(call.args):
                        values.append(call.args[positional.index(param)])
                    passed += [ast.unparse(v) if isinstance(v, ast.Constant) else None
                               for v in values]
                where = f"{path.stem}.{node.name}({param})"
                if not passed:
                    found.append(f"{where} is never passed")
                elif len(passed) == len(sites) and len(set(passed)) == 1 and passed[0]:
                    found.append(f"{where} is always {passed[0]}")
    assert set(found) - set(UNPASSED_PARAMETERS) == set(), \
        f"parameters with one value in reached code: {found}"
    assert set(UNPASSED_PARAMETERS) <= set(found), "allowed parameters that are passed or gone"


def attribute_loads(tree: ast.AST) -> Counter:
    """How often each attribute name is read in ``tree``; an augmented
    assignment reads its target."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and not isinstance(node.ctx, ast.Store)) + Counter(
        node.target.attr for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute))


def is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple class."""
    names = [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list]
    return "dataclass" in names or any(ast.unparse(b) == "NamedTuple" for b in cls.bases)


def test_every_field_is_read():
    loads = sum((attribute_loads(ast.parse(path.read_text())) for path in CALLERS), Counter())
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner = f"{path.stem}.{cls.name}"
            if is_record(cls):
                found |= {f"{owner}.{item.target.id}" for item in cls.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and "ClassVar" not in ast.unparse(item.annotation)
                          and not loads[item.target.id]}
            for method in (item for item in cls.body if isinstance(item, FUNCTIONS)):
                outside = loads - attribute_loads(method)
                found |= {f"{owner}.{node.attr}" for node in ast.walk(method)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                          and ast.unparse(node.value) == "self" and not outside[node.attr]}
    assert found - set(UNREAD_FIELDS) == set(), "fields no code reads"
    assert set(UNREAD_FIELDS) <= found, "allowed fields that are read or gone"
