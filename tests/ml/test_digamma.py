"""``online_lda._digamma`` against references it cannot be wrong about.

Closed forms, the defining recurrence and the leading asymptote need no
other implementation of the function; the last case compares with one
where the machine has it. Tolerance everywhere:
``1e-12 * max(1, |psi|)`` (the measured error is ~2e-14 relative).
"""

import numpy as np
import pytest

from repro.ml.online_lda import _digamma

EULER_GAMMA = 0.5772156649015328606
GRID = np.logspace(-3, 4, 2001)


def assert_close(got, want):
    want = np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_closed_forms():
    assert_close(_digamma(1.0), -EULER_GAMMA)
    assert_close(_digamma(0.5), -EULER_GAMMA - 2.0 * np.log(2.0))
    n = np.arange(1, 51)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / n[:-1])])
    assert_close(_digamma(n), harmonic - EULER_GAMMA)


def test_recurrence_and_monotonicity_on_a_log_grid():
    psi = _digamma(GRID)
    assert_close(_digamma(GRID + 1.0) - psi, 1.0 / GRID)
    assert np.all(np.diff(psi) > 0)


def test_leading_asymptote_at_a_million():
    x = 1e6   # the next term, 1/12x^2, is 8e-14
    assert_close(_digamma(x), np.log(x) - 0.5 / x)


def test_shapes_as_fit_uses_them():
    lam = np.random.default_rng(3).gamma(100.0, 1.0 / 100.0, (4, 30))
    original = lam.copy()
    psi_rows = _digamma(lam.sum(axis=1, keepdims=True))
    e_log_beta = _digamma(lam) - psi_rows
    assert e_log_beta.shape == (4, 30) and psi_rows.shape == (4, 1)
    assert np.array_equal(lam, original)   # the argument is not written to
    for i in range(4):
        assert_close(e_log_beta[i], _digamma(lam[i]) - _digamma(lam[i].sum()))
    assert np.all(e_log_beta < 0)   # psi increases and lam[i, j] < row sum


def test_matches_scipy_where_installed():
    special = pytest.importorskip("scipy.special")
    draws = np.random.default_rng(0).gamma(100.0, 1.0 / 100.0, 5000)
    for x in (GRID, draws):
        assert_close(_digamma(x), special.digamma(x))
