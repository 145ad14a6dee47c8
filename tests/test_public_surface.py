"""Every public function, class and method in arithdyn is reached by the program.

A public top-level ``def`` or ``class`` in ``src/arithdyn/*.py`` must be
referenced outside its own definition somewhere in ``src/arithdyn`` or in
``bench/*.py``, or be named as a trace target in ``bench/tracing.py``'s
``TARGETS``.  So must each public method of those classes (dunders and
``_private`` methods are left out), where a reference from another method
of its class counts.  A method is reached only through an attribute
(``x.name``): a bare name, such as a local function of the same name in
another module, does not reach it.  Re-exports in ``__init__.py`` do not
count, and neither do tests: a name that only its unit tests call is surface
no pipeline, CLI command or benchmark uses.  A private top-level ``def`` or
``class`` (``_name``, not a dunder) must be referenced by another top-level
statement of ``src/arithdyn``: a helper that its last caller dropped is dead
code, whatever a test or a benchmark still calls.

The package itself exports only what a caller imports from it: each name in
``arithdyn.__all__`` is imported from ``arithdyn`` (``from arithdyn import
name`` or ``arithdyn.name``) by a ``python`` block of ``README.md``, by
``bench/*.py`` or by another ``tests/*.py``, each read with ``ast``.  Every
other name has one import path, its module.
"""

import ast
import inspect
import re
from pathlib import Path

import arithdyn
from corpus import trace_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arithdyn"


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


def _attributes(node) -> set:
    """Every attribute name that appears under ``node``."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreached(modules: dict, bench: list, traced: set) -> list:
    """``module.name`` for each public top-level def or class of ``modules``
    that no other top-level statement of ``modules`` or ``bench`` refers to,
    and ``module.Class.method`` for each public method that neither another
    top-level statement nor another statement of its class reaches through
    an attribute; less the names in ``traced``."""
    top = [node for tree in list(modules.values()) + bench for node in tree.body]
    unreached = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (*FUNCS, ast.ClassDef)):
                continue
            others = [s for s in top if s is not node]
            found = [(node.name, node, others, _names)]
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{m.name}", m, others + [s for s in node.body if s is not m],
                     _attributes)
                    for m in node.body
                    if isinstance(m, FUNCS)
                ]
            for name, definition, pool, references in found:
                if definition.name.startswith("_") or name in traced:
                    continue
                if not any(definition.name in references(s) for s in pool):
                    unreached.append(f"{module}.{name}")
    return unreached


def _orphaned_helpers(modules: dict) -> list:
    """``module.name`` for each private top-level def or class of
    ``modules``, dunders left out, that no other top-level statement of
    ``modules`` refers to."""
    top = [node for tree in modules.values() for node in tree.body]
    return [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (*FUNCS, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and not any(node.name in _names(s) for s in top if s is not node)
    ]


def _src_modules() -> dict:
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }


def test_every_public_name_is_reached():
    modules = _src_modules()
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "bench").glob("*.py"))]
    # a traced method, and the class that owns it
    traced = {name for _, _, attribute in trace_targets() for name in (attribute, attribute.split(".")[0])}
    orphans = [name.split(".", 1)[1] for name in _unreached(modules, bench, traced)]
    assert orphans == [], (
        f"{orphans} are reached by no pipeline, CLI command or benchmark; delete them"
    )


def test_every_private_helper_is_reached():
    orphans = _orphaned_helpers(_src_modules())
    assert orphans == [], f"{orphans} are called by nothing in src/arithdyn; delete them"


def test_all_names_exactly_the_public_exports():
    # a stale entry breaks ``from arithdyn import *``; a missing one hides an export
    public = {
        name
        for name, value in vars(arithdyn).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(arithdyn.__all__) == sorted(public)


def _package_imports(tree) -> set:
    """The names ``tree`` imports from the package: ``from arithdyn import
    name``, or ``arithdyn.name`` on a name bound to the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "arithdyn" and not node.level:
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "arithdyn":
            found.add(node.attr)
    return found


def test_every_package_export_is_imported_from_the_package():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
        if path.resolve() != Path(__file__).resolve()
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    used = set().union(*(_package_imports(ast.parse(source)) for source in sources))
    unused = sorted(set(arithdyn.__all__) - used)
    assert unused == [], (
        f"{unused} are exported by arithdyn but imported from their modules only; "
        "drop them from __init__.py"
    )


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


def test_guard_flags_a_planted_orphan_helper():
    modules = {
        "a": ast.parse(
            "def _used(x):\n"
            "    return x\n"
            "def _orphan(x):\n"
            "    return _orphan(x - 1)\n"
            "class _Kept:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "def main():\n"
            "    return _used(1)\n"
        ),
        "b": ast.parse("from .a import _Kept\n"),
    }
    assert _orphaned_helpers(modules) == ["a._orphan"]


def test_guard_flags_a_planted_orphan_method():
    modules = {
        "a": ast.parse(
            "class Helper:\n"
            "    def __init__(self):\n"
            "        self.inner()\n"
            "    def inner(self):\n"
            "        pass\n"
            "    def used(self):\n"
            "        pass\n"
            "    def orphan(self):\n"
            "        return self.orphan()\n"
            "    def traced(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "    def power(self):\n"
            "        pass\n"
            "def main():\n"
            "    return Helper().used()\n"
        ),
        # a local function named like the method is not a reference to it
        "b": ast.parse("def run():\n    def power(e):\n        return e\n    return power(2)\n"),
    }
    bench = [ast.parse("import arithdyn.a\narithdyn.a.main()\narithdyn.b.run()\n")]
    assert _unreached(modules, bench, {"Helper.traced"}) == ["a.Helper.orphan", "a.Helper.power"]
