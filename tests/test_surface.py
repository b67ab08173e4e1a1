"""Every public name has a caller in the package, the bench tools or perfbench.

A public name that only tests call either gets a caller in ``run``, ``sweep``
or ``verify``, or it goes (ROADMAP item 8).
"""

import ast
import collections
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


def _caller_text() -> str:
    """The .py files under src/, bench/ and perfbench/, without __init__.py and __all__ lists."""
    kept = []
    for top in ("src", "bench", "perfbench"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            source = path.read_text()
            dropped = set()
            for node in ast.parse(source).body:
                targets = node.targets if isinstance(node, ast.Assign) else []
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    dropped.update(range(node.lineno, node.end_lineno + 1))
            kept.extend(
                line for lineno, line in enumerate(source.splitlines(), 1) if lineno not in dropped
            )
    return "\n".join(kept)


def test_every_public_name_has_a_caller():
    text = _caller_text()
    words = collections.Counter(re.findall(r"\w+", text))
    definitions = collections.Counter(re.findall(r"\b(?:def|class) (\w+)", text))
    uncalled = [
        f"{module}.{name}"
        for module in _MODULES
        for name in importlib.import_module(f"lpgreedy.{module}").__all__
        if words[name] == definitions[name] and name not in _EXCEPTIONS
    ]
    assert not uncalled, f"public names without a caller: {uncalled}"
