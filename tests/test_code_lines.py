"""The rule of ``tests/code_lines.py`` on a small module, and the package
directory it counts."""

import subprocess
import sys

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


def test_a_package_directory_given_is_counted_in_place_of_src(tmp_path, capsys):
    # CI counts a pull request's base commit this way, from a git archive
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("import math\n\n# a comment\nx = math.pi\n",
                                   encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     2  a.py\n     7  b.py\n     9  total\n"
    # as a script, with no argument it counts src/qi_rangekit as main() does
    script = subprocess.run([sys.executable, code_lines.__file__], capture_output=True,
                            text=True, check=True)
    assert code_lines.main() == 0
    assert script.stdout == capsys.readouterr().out


def test_a_missing_directory_or_a_second_argument_exits_2(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err == f"no such directory: {tmp_path / 'missing'}\n"
    assert code_lines.main([str(tmp_path), str(tmp_path)]) == 2
    assert capsys.readouterr().err == "usage: code_lines.py [PACKAGE_DIR]\n"
