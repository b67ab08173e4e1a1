"""Every public name has a caller in the package or in perfbench.

A public name that only tests or the bench scripts call either gets a
caller in ``run``, ``sweep`` or ``verify``, or it goes (ROADMAP item 8).
"""

import ast
import importlib
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = (
    "spaces", "dictionaries", "solvers", "algorithms", "analysis", "config", "harness", "acceptance"
)
# The trace schema v2 (ROADMAP item 1) extends read_trace_csv to read both
# header versions, so it stays without a caller until then.
_EXCEPTIONS = {"read_trace_csv"}


def _is_skipped(node) -> bool:
    """A docstring or other bare string statement, or an ``__all__`` list."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _references(tree) -> set[str]:
    """The identifiers a module's code reads, and the words of its string constants.

    Definitions and imports are not references; nor are docstrings and
    ``__all__`` lists, which the walk does not enter.
    """
    words = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_skipped(node):
            continue
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return words


def _caller_words() -> set[str]:
    """References in the .py files under src/ and perfbench/, without __init__.py."""
    words = set()
    for top in ("src", "perfbench"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                words |= _references(ast.parse(path.read_text()))
    return words


def test_references_skip_docstrings_definitions_and_all_lists():
    source = (
        '"""uses doc_only."""\n'
        '__all__ = ["listed_only"]\n'
        "from .x import imported_only\n"
        "def defined_only():\n"
        '    """also_doc_only"""\n'
        "    return called(obj.attribute, 'layer.in_string')\n"
    )
    assert _references(ast.parse(source)) == {"called", "obj", "attribute", "layer", "in_string"}


def test_every_public_name_has_a_caller():
    words = _caller_words()
    uncalled = [
        f"{module}.{name}"
        for module in _MODULES
        for name in importlib.import_module(f"lpgreedy.{module}").__all__
        if name not in words and name not in _EXCEPTIONS
    ]
    assert not uncalled, f"public names without a caller: {uncalled}"
