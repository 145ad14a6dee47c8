"""The README's Python examples run against the installed package.

Every fenced ``python`` block of ``README.md`` is executed in a fresh
namespace, so a change to the public API cannot leave an example stale.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
