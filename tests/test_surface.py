"""Every public name, and every defaulted parameter, has a caller in the package or in perfbench.

A public name that only tests or the bench scripts call either gets a
caller in ``run``, ``sweep`` or ``verify``, or it goes (ROADMAP item 8).
A parameter with a default that no such call sets goes too, and the code
keeps its default.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = (
    "spaces", "dictionaries", "solvers", "algorithms", "analysis", "config", "harness", "acceptance"
)
# The trace schema v2 (ROADMAP item 1) extends read_trace_csv to read both
# header versions, so it stays without a caller until then.
_EXCEPTIONS = {"read_trace_csv"}
# "module.function.parameter" -> why the parameter stays without a caller that sets it.
_PARAMETER_EXCEPTIONS = {
    **dict.fromkeys(
        ("dictionaries.weak_select.policy", "dictionaries.eps_select.mode",
         "dictionaries.eps_select.policy", "solvers.minimize_over_line.cfg",
         "solvers.minimize_free_relax.cfg"),
        "only perfbench's layer tracer names the function; ROADMAP item 7's benchmark change "
        "decides whether it stays public",
    ),
}


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


def _caller_trees() -> list:
    """The parsed .py files under src/ and perfbench/, without __init__.py."""
    return [
        ast.parse(path.read_text())
        for top in ("src", "perfbench")
        for path in sorted((_ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]


def _caller_words() -> set[str]:
    """References in the caller files."""
    return set().union(*map(_references, _caller_trees()))


def _calls(tree):
    """(words of the called expression, positional arguments, keywords) of each call in ``tree``.

    ``partial(f, *args, **keywords)`` is also a call of ``f`` with those
    arguments.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = _references(node.func)
            yield callee, node.args, node.keywords
            if "partial" in callee and node.args:
                yield _references(node.args[0]), node.args[1:], node.keywords


def _passed(params: list[str], args, keywords) -> set[str]:
    """The names of ``params`` (in order) that a call with these arguments passes.

    A ``*`` argument passes every parameter from its position on; a ``**``
    argument passes them all.
    """
    passed = set()
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            passed.update(params[i:])
            break
        passed.update(params[i : i + 1])
    for keyword in keywords:
        passed.update(params if keyword.arg is None else [keyword.arg])
    return passed


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


def test_calls_pass_parameters_by_position_keyword_star_and_partial():
    params = ["a", "b", "c", "d"]
    source = (
        "f(1, c=2)\n"
        "m.f(1, *rest)\n"
        "g(**options)\n"
        "partial(pkg.f, 1, 2)\n"
        "h(f)\n"
    )
    got = [(sorted(callee), sorted(_passed(params, args, keywords)))
           for callee, args, keywords in _calls(ast.parse(source))]
    assert got == [
        (["f"], ["a", "c"]),
        (["f", "m"], ["a", "b", "c", "d"]),
        (["g"], ["a", "b", "c", "d"]),
        (["partial"], ["a", "b", "c"]),
        (["f", "pkg"], ["a", "b"]),
        (["h"], ["a"]),
    ]


def test_every_public_name_has_a_caller():
    words = _caller_words()
    uncalled = [
        f"{module}.{name}"
        for module in _MODULES
        for name in importlib.import_module(f"lpgreedy.{module}").__all__
        if name not in words and name not in _EXCEPTIONS
    ]
    assert not uncalled, f"public names without a caller: {uncalled}"


def _uncalled_parameters() -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a public function that no
    call in the caller files passes."""
    calls = [call for tree in _caller_trees() for call in _calls(tree)]
    uncalled = []
    for module in _MODULES:
        mod = importlib.import_module(f"lpgreedy.{module}")
        for name in mod.__all__:
            function = getattr(mod, name)
            if not inspect.isfunction(function):
                continue
            signature = inspect.signature(function).parameters.values()
            params = [p.name for p in signature]
            passed = set().union(*(_passed(params, args, keywords)
                                   for callee, args, keywords in calls if name in callee))
            uncalled += [f"{module}.{name}.{p.name}" for p in signature
                         if p.default is not p.empty and p.name not in passed]
    return uncalled


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    uncalled = _uncalled_parameters()
    unexcused = [name for name in uncalled if name not in _PARAMETER_EXCEPTIONS]
    assert not unexcused, f"defaulted parameters no caller sets: {unexcused}"
    stale = sorted(_PARAMETER_EXCEPTIONS.keys() - set(uncalled))
    assert not stale, f"listed exceptions that a caller now sets, or that are gone: {stale}"
