"""Every public function and class in arithdyn is reached by the program.

A public top-level ``def`` or ``class`` in ``src/arithdyn/*.py`` must be
referenced outside its own definition somewhere in ``src/arithdyn`` or in
``bench/*.py``, or be named as a trace target in ``bench/tracing.py``'s
``TARGETS``.  Re-exports in ``__init__.py`` do not count, and neither do
tests: a name that only its unit tests call is surface no pipeline, CLI
command or benchmark uses.  ``KEPT`` names the exceptions, each with the
reason it stays.
"""

import ast
from pathlib import Path

from test_bench_targets import _load_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arithdyn"

KEPT = {
    "spectral_radius_maxroot": "acceptance check 3 compares it with the exact dynamical degree",
    "alpha_bounds": "the two-sided certificate of ROADMAP item 2 replaces it",
}


def _names(node) -> set:
    """Every name, attribute or imported name that appears under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _unreached(modules: dict, bench: list, traced: set) -> list:
    """``module.name`` for each public top-level def or class of ``modules``
    that no other top-level statement of ``modules`` or ``bench`` refers to
    and that ``traced`` does not name."""
    trees = list(modules.values()) + bench
    unreached = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in traced:
                continue
            if not any(
                node.name in _names(other)
                for t in trees
                for other in t.body
                if other is not node
            ):
                unreached.append(f"{module}.{node.name}")
    return unreached


def test_every_public_name_is_reached():
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "bench").glob("*.py"))]
    traced = {attribute.split(".")[0] for _, _, attribute in _load_targets()}
    unreached = _unreached(modules, bench, traced)
    orphans = [name for name in unreached if name.split(".")[1] not in KEPT]
    assert orphans == [], (
        f"{orphans} are reached by no pipeline, CLI command or benchmark; "
        "delete them, or name them in KEPT with the reason they stay"
    )
    stale = set(KEPT) - {name.split(".")[1] for name in unreached}
    assert not stale, f"KEPT names {sorted(stale)}, which are reached or no longer defined"


def test_guard_flags_a_planted_orphan():
    modules = {
        "a": ast.parse(
            "def used(x):\n"
            "    return x\n"
            "def orphan(x):\n"
            "    return orphan(x - 1)\n"
            "def traced():\n"
            "    pass\n"
            "class Helper:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "b": ast.parse("from .a import Helper\ndef main():\n    return used(1)\n"),
    }
    bench = [ast.parse("import arithdyn.b\narithdyn.b.main()\n")]
    assert _unreached(modules, bench, {"traced"}) == ["a.orphan"]
