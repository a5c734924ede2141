"""Code no caller needs goes: every function, class and constant defined
at the top of a `src/protodetect` module, and every method and property
of its classes, must have a caller. One of three counts as one:

- a name or attribute in `src/` that refers to it, outside its own
  definition (so recursion alone does not count);
- `protodetect.__all__`, the public API, lists it;
- the benchmark's traced pass wraps it (`LAYERS` in bench/spans.py).

Dunder methods are exempt: Python itself calls them. Names are matched
by spelling, so a definition whose name some other code uses passes
too; the guard catches a definition whose name nothing reads.
"""

import ast
from pathlib import Path

import protodetect

from test_bench_names import load_layers

SRC = Path(__file__).resolve().parent.parent / "src" / "protodetect"


def _definitions(tree):
    """(qualified name, node) of every module-level function, class and
    constant of a module, and every method and property of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(node):
    """The names that `node` and its descendants read, one per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def uncalled():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for name in _references(tree):
            uses[name] = uses.get(name, 0) + 1
    wrapped = {(module, attr) for module, attr, *_ in load_layers()}
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for n in _references(node) if n == name)
            if (uses.get(name, 0) > own or name in protodetect.__all__
                    or (module, qualname) in wrapped):
                continue
            found.append(f"{module}.{qualname}")
    return found


def test_every_definition_has_a_caller():
    assert uncalled() == []
