"""The line counter in tools/src_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return math.sqrt(x) + len(text)


class C:
    """Class docstring."""

    y = 1
'''


def test_line_counter_rules():
    # code: import, def, the two string lines, return, class, y = 1
    assert src_lines.count_lines(SNIPPET) == (19, 7)


def test_line_counter_lists_every_module_and_the_total(capsys):
    assert src_lines.main([]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    src = _PATH.parent.parent / "src" / "goursatfd"
    assert [r[0] for r in rows] == sorted(p.name for p in src.glob("*.py")) + ["total"]
    assert [sum(int(r[i]) for r in rows[:-1]) for i in (1, 2)] == [int(v) for v in rows[-1][1:]]
