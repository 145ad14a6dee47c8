"""One cap policy: ``ResourceCaps.check`` alone raises ResourceLimitError,
and the error always propagates to ``cli.main``.

Every call that constructs ResourceLimitError in the package sits inside
``ResourceCaps.check``, so every cap error has one metadata schema.  Every
``except`` clause in the package that can catch ResourceLimitError
(naming it, one of its bases, or bare) must end in a bare ``raise`` and
contain no ``return``, ``break`` or ``continue``: it may annotate the error,
never swallow it and hand back a partial result.  ``cli.main`` is the one
place that turns the error into exit code 3.
"""

import ast
from pathlib import Path

import pytest

from arithdyn.degrees import dynamical_degree_sequence
from arithdyn.density import density_check
from arithdyn.experiments import run_experiment
from arithdyn.maps import ResourceCaps, iterate_symbolic, orbit, triangular_map
from arithdyn.qpoly import ResourceLimitError
from corpus import first_case_cfg

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


def _cap_raises(tree):
    """(enclosing Class.function path, line) for each call that constructs the cap error."""
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and _names(node.func) == {"ResourceLimitError"}:
            yield where, node.lineno
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def test_only_resource_caps_check_raises_the_cap_error():
    sites = [
        (path.name, where, line)
        for path in sorted(SRC.glob("*.py"))
        for where, line in _cap_raises(ast.parse(path.read_text(encoding="utf-8")))
    ]
    stray = [
        f"{name}:{line} in {where}" for name, where, line in sites if where != "ResourceCaps.check"
    ]
    assert stray == [], f"{stray} construct ResourceLimitError; call ResourceCaps.check instead"
    assert {(name, where) for name, where, _ in sites} == {("qpoly.py", "ResourceCaps.check")}


def test_guard_flags_a_planted_cap_error():
    planted = ast.parse(
        "class ResourceCaps:\n"
        "    def check(self, stage):\n"
        "        raise ResourceLimitError(stage)\n"
        "def orbit(caps):\n"
        "    def step():\n"
        "        raise qpoly.ResourceLimitError('step 1', bits=9)\n"
    )
    assert sorted(where for where, _ in _cap_raises(planted)) == ["ResourceCaps.check", "orbit.step"]


def _substitute(tmp_path):
    f = triangular_map(["x1^3+x2^2+x2+1", "x2^3+x2^2+x2+1"])
    iterate_symbolic(f, 6, ResourceCaps(max_terms=30))


def _certificate(tmp_path):
    # degrees 3, 9, 27: running bit-length sum 2 + 4 + 5 = 11 at n = 3
    f = triangular_map(["x1^3+x2^2+x2+1", "x2^3+x2^2+x2+1"])
    dynamical_degree_sequence(f, 6, ResourceCaps(max_coeff_bits=10))


def _certificate_rows(tmp_path):
    # every degree has at least one bit, so 101 rows exceed a 100-bit cap
    # before either path runs, the symbolic fallback this drop would take too
    dynamical_degree_sequence(triangular_map(["x1+x2^3", "-x2"]), 101, ResourceCaps(max_coeff_bits=100))


def _orbit(tmp_path):
    orbit(triangular_map(["x1^2"]), [2], 20, ResourceCaps(max_coeff_bits=100))


def _sample_precheck(tmp_path):
    run_experiment(first_case_cfg(degree_sequence_depth=1), tmp_path, ResourceCaps(max_coeff_bits=10))


def _density(tmp_path):
    density_check([(1, 2), (3, 1), (5, 7)], 2000)


def _density_run(tmp_path):
    # six monomials of degree <= 2 in two variables, under the run's caps
    run_experiment(first_case_cfg(samples=6, density_degree=2), tmp_path, ResourceCaps(max_terms=5))


@pytest.mark.parametrize(
    "site, metadata",
    [
        (_substitute, {"stage": "substitute:power", "term_count": 49, "max_terms": 30, "last_safe_n": 2}),
        (_certificate, {"stage": "degrees:certificate", "bits": 11, "max_coeff_bits": 10, "last_safe_n": 2}),
        (
            _certificate_rows,
            {"stage": "degrees:certificate", "bits": 101, "max_coeff_bits": 100, "last_safe_n": 0},
        ),
        (_orbit, {"stage": "orbit step 7", "bits": 134, "max_coeff_bits": 100, "last_safe_n": 6}),
        (_sample_precheck, {"stage": "sample_U", "bits": 20, "max_coeff_bits": 10, "last_safe_n": 0}),
        (_density, {"stage": "density:monomials", "term_count": 2003001, "max_terms": 10**6}),
        (_density_run, {"stage": "density:monomials", "term_count": 6, "max_terms": 5}),
    ],
    ids=["substitute", "certificate", "certificate_rows", "orbit", "sample_U", "density", "density_run"],
)
def test_every_cap_error_has_one_metadata_schema(tmp_path, site, metadata):
    """Each cap error names its stage, the size (``term_count`` or ``bits``)
    and that size's cap (``max_terms`` or ``max_coeff_bits``), and, where
    steps are counted, the last safe step ``last_safe_n``."""
    with pytest.raises(ResourceLimitError) as err:
        site(tmp_path)
    assert err.value.metadata == metadata
