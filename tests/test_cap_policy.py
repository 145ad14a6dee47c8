"""One cap policy: a ResourceLimitError always propagates to ``cli.main``.

Every ``except`` clause in the package that can catch ResourceLimitError
(naming it, one of its bases, or bare) must end in a bare ``raise`` and
contain no ``return``, ``break`` or ``continue``: it may annotate the error,
never swallow it and hand back a partial result.  ``cli.main`` is the one
place that turns the error into exit code 3.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arithdyn"
CATCHES_CAP = {"ResourceLimitError", "RuntimeError", "Exception", "BaseException"}


def _names(node) -> set:
    if node is None:
        return {"BaseException"}  # bare except
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _cap_handlers(tree):
    """(enclosing function name, handler) for each handler that catches the cap error."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler) and _names(node.type) & CATCHES_CAP:
            yield func, node
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def _reraises(handler: ast.ExceptHandler) -> bool:
    last = handler.body[-1]
    if not (isinstance(last, ast.Raise) and last.exc is None):
        return False
    escapes = (ast.Return, ast.Break, ast.Continue)
    return not any(isinstance(n, escapes) for s in handler.body for n in ast.walk(s))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_except_swallows_resource_limit_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for func, handler in _cap_handlers(tree):
        if path.name == "cli.py" and func == "main":
            continue
        assert _reraises(handler), (
            f"{path.name}:{handler.lineno} in {func}() catches ResourceLimitError "
            "without re-raising it; only cli.main may handle it"
        )


def test_guard_flags_a_swallowing_handler():
    swallowing = ast.parse(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except ResourceLimitError:\n"
        "        return []\n"
    )
    annotating = ast.parse(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except ResourceLimitError as err:\n"
        "        err.metadata['last_safe_n'] = 1\n"
        "        raise\n"
    )
    assert [_reraises(h) for _, h in _cap_handlers(swallowing)] == [False]
    assert [_reraises(h) for _, h in _cap_handlers(annotating)] == [True]
