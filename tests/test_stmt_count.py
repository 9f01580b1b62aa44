"""The statement-count rule of ``stmt_count.py``: distinct statement lines
of a named top-level definition, docstrings excluded."""

import pytest

import stmt_count

SOURCE = '''
class Kept:
    """A docstring, which counts 0."""

    def f(self, x):
        """So does this one."""
        y = (
            x + 1
        )
        if y: return y
        return 0


def other():
    pass
'''


def test_docstrings_count_zero_and_each_statement_one_line():
    # class, def, the three-line assignment, the one-line if and its
    # return, and the last return
    assert stmt_count.counts(SOURCE, ["Kept"]) == {"Kept": 5}
    assert stmt_count.counts(SOURCE, ["Kept", "other"]) == {"Kept": 5, "other": 2}
    with pytest.raises(KeyError):
        stmt_count.counts(SOURCE, ["missing"])


def test_module_counts_every_statement_but_docstrings(tmp_path, capsys):
    # the module docstring counts 0; the assignment 1, Kept 5 and other 2
    path = tmp_path / "mod.py"
    path.write_text('"""Module docstring."""\nX = 1\n' + SOURCE)
    assert stmt_count.module_count(path.read_text()) == 8
    other = tmp_path / "other.py"
    other.write_text(SOURCE)
    assert stmt_count.main(["--module", str(path), str(other)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{path} 8", f"{other} 7", "total 15"]
