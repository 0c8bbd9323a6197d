"""The rule of ``tests/code_lines.py`` on a small module."""

import code_lines

SOURCE = '''"""Module docstring,
two lines."""

# a comment-only line
import math


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring."""
        text = """not a docstring,
        but a string over two lines"""
        return (side *  # a trailing comment
                side + len(text) + math.pi)
'''


def test_a_line_counts_where_it_holds_code_outside_a_docstring():
    # import, class, def, the string's two lines, and return with its
    # continuation line
    assert code_lines.code_lines(SOURCE) == 7


def test_every_module_of_the_package_is_counted(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert [line.split()[1] for line in lines] == [*names, "total"]
    counts = [int(line.split()[0]) for line in lines]
    assert sum(counts[:-1]) == counts[-1] > 0
