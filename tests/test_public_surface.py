"""Every function, class and method of ``src/hqc`` has a caller outside the tests.

Each module of ``src/hqc`` but ``__init__.py`` is parsed with ``ast``.  A
module-level function or class, or a non-dunder method, must be referenced
in ``src/hqc`` outside its own body, in ``demos/`` or in ``perfbench/``:
by a ``Name``, by the attribute of an ``Attribute``, or by a string
constant that is an identifier, as ``perfbench/tracing.py`` names the
sites it wraps.  Imports are no references, so the exports of
``__init__.py`` do not count.  Names are matched, not resolved: a method
that shares its name with an attribute read elsewhere passes unseen, such
as a ``zeros`` or a ``mean`` method beside ``np.zeros`` and ``a.mean()``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def references(tree, skip=None) -> set:
    """The names that ``tree`` references outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(n for n in ast.iter_child_nodes(node) if n is not skip)
    return names


def definitions(tree):
    """(qualified name, node) of each module-level function and class and
    of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                    yield f"{node.name}.{m.name}", m


def unused_names(root) -> list:
    """``module.name`` of each definition in ``root/src/hqc`` that nothing references."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "hqc").glob("*.py"))
             if p.name != "__init__.py"}
    refs = {stem: references(tree) for stem, tree in trees.items()}
    callers = set().union(*(references(ast.parse(p.read_text()))
                            for d in ("demos", "perfbench") for p in (root / d).glob("*.py")))
    return [f"{stem}.{name}" for stem, tree in trees.items() for name, node in definitions(tree)
            if node.name not in callers.union(*(r for s, r in refs.items() if s != stem),
                                             references(tree, skip=node))]


def test_every_name_has_a_caller():
    unused = unused_names(ROOT)
    assert not unused, "only tests call " + ", ".join(unused)
