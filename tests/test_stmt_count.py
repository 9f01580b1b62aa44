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
