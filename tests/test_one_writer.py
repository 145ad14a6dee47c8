"""One report writer: ``experiments.write_reports`` alone touches the disk.

Every run mode and CLI command builds all of its report texts first and
hands them to ``write_reports``, which makes the output directory and writes
the files.  So a run that raises (exit 3 or 4) leaves no directory and no
file.  This guard keeps it so: no other function in the package may call
``write_text``, ``write_bytes``, ``mkdir`` or ``makedirs``, or ``open`` a
file in a mode that writes (``w``, ``a``, ``x`` or ``+``).  A read-only
``open``, such as ``read_json``'s, is allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arithdyn"
WRITERS = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call may write: its mode is not a literal read-only mode.

    The builtin takes the mode second, ``Path.open`` first."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        positional = call.args[1:] if isinstance(call.func, ast.Name) else call.args
        modes = positional[:1]
    if not modes:
        return False  # default mode "r"
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode computed at run time may write
    return bool(set(mode.value) & set("wax+"))


def _disk_writes(tree):
    """(enclosing function path, line) for each call that writes a file or makes a directory."""
    stack = [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            name = _callee(node)
            if name in WRITERS or (name == "open" and _opens_for_writing(node)):
                yield where, node.lineno
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def test_only_write_reports_touches_the_disk():
    sites = [
        (path.name, where, line)
        for path in sorted(SRC.glob("*.py"))
        for where, line in _disk_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    stray = [f"{name}:{line} in {where}" for name, where, line in sites if where != "write_reports"]
    assert stray == [], f"{stray} write to disk; build the text and call write_reports instead"
    assert {(name, where) for name, where, _ in sites} == {("experiments.py", "write_reports")}


def test_guard_flags_a_planted_writer():
    planted = ast.parse(
        "import os\n"
        "def write_reports(out_dir, reports):\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "def read_json(path):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        return fh.read()\n"
        "def read_twice(path):\n"
        "    return open(path, 'rb').read() + path.open('rt').read()\n"
        "class Report:\n"
        "    def save(self, path):\n"
        "        path.write_text(self.text)\n"
        "def dump(path, mode):\n"
        "    os.makedirs(path)\n"
        "    with open(path / 'a.csv', 'w') as fh:\n"
        "        fh.write('x')\n"
        "    with (path / 'b.csv').open(mode='a') as fh:\n"
        "        fh.write('x')\n"
        "    open(path / 'c.csv', mode).close()\n"
        "    (path / 'd.bin').write_bytes(b'')\n"
        "    def log():\n"
        "        return open('log.txt', 'x')\n"
    )
    flagged = sorted(_disk_writes(planted), key=lambda site: site[1])
    assert flagged == [
        ("write_reports", 3),
        ("Report.save", 11),
        ("dump", 13),
        ("dump", 14),
        ("dump", 16),
        ("dump", 18),
        ("dump", 19),
        ("dump.log", 21),
    ]
