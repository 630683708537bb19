"""Shared pytest hooks and helpers: one summary line per acceptance
criterion, and ``raises_exit`` for errors judged by their exit code."""

import contextlib

import pytest

from confvol.errors import ConfvolError

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@contextlib.contextmanager
def raises_exit(code, match):
    """Expect a confvol error with CLI exit code ``code`` whose message
    matches the regular expression ``match``."""
    with pytest.raises(ConfvolError, match=match) as err:
        yield err
    assert err.value.exit_code == code, err.value
