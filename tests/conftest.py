"""Shared pytest hooks and helpers: one summary line per acceptance
criterion, ``raises_exit`` for errors judged by their exit code, and
``grid_dir_gram``, the member-closure oracle of a basis's Dir/Gram pair."""

import contextlib

import numpy as np
import pytest

from confvol.errors import ConfvolError
from confvol.models import metric_values
from confvol.quadrature import grid_with_weights
from confvol.spectral import field_gradients, field_values

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


def grid_dir_gram(m, basis, resolution):
    """Dirichlet and Gram matrices of the basis members, their closures
    evaluated on the quadrature grid of m: a route independent of the
    assembly each basis kind brings."""
    pts, w = grid_with_weights(m, resolution)
    vals = np.stack([field_values(f, pts) for f in basis.members])
    grads = np.stack([field_gradients(f, pts) for f in basis.members])
    wginv = np.linalg.inv(metric_values(m, pts)) * w[:, None, None]
    dir_ = np.einsum("ipa,pab,jpb->ij", grads, wginv, grads, optimize=True)
    return dir_, np.einsum("ip,jp,p->ij", vals, vals, w)
