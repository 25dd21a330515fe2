"""Resonance functions and bare multipliers."""

import numpy as np

from nlslab.multipliers import alpha_n, bare_m6, omega, sigma_product
from nlslab.smoothing import SmoothingSymbol, m_value

RNG = np.random.default_rng(3)


def random_gamma_tuples(n, count, lo=-20, hi=20, d=1, rng=RNG):
    if d == 1:
        free = rng.integers(lo, hi + 1, size=(count, n - 1)).astype(float)
        last = -free.sum(axis=1, keepdims=True)
        return np.concatenate([free, last], axis=1)
    free = rng.integers(lo, hi + 1, size=(count, n - 1, 2)).astype(float)
    last = -free.sum(axis=1, keepdims=True)
    return np.concatenate([free, last], axis=1)


def test_omega_examples():
    assert omega(np.array([5.0, -3, 6, -2, 1, -7])) == 0.0
    assert omega(np.array([1.0, -1, 1, -1, 1, -1])) == 0.0
    assert omega(np.array([64.0, -32, -16, -16, 0, 0])) == 3072.0


def test_sohinger_family():
    for K in range(1, 10):
        arr = K * np.array([5.0, -3, 6, -2, 1, -7])
        assert arr.sum() == 0.0
        assert omega(arr) == 0.0


def test_alpha_is_minus_i_omega():
    tups = random_gamma_tuples(6, 500)
    assert np.max(np.abs(alpha_n(tups) + 1j * omega(tups))) == 0.0
    tups2 = random_gamma_tuples(4, 200, d=2)
    assert np.max(np.abs(alpha_n(tups2, d=2) + 1j * omega(tups2, d=2))) == 0.0


def test_m_multiplier_reduces_to_omega_below_threshold():
    sym = SmoothingSymbol(N=64.0, alpha=0.5)
    tups = random_gamma_tuples(6, 300, lo=-12, hi=12)
    assert np.max(np.abs(bare_m6(tups, sym) - omega(tups))) == 0.0
    # Sohinger tuples scaled so everything fits below threshold
    t = 9 * np.array([5.0, -3, 6, -2, 1, -7])
    assert bare_m6(t[None, :], SmoothingSymbol(N=64.0, alpha=0.5))[0] == 0.0


def test_m_multiplier_matches_termwise_composition():
    sym = SmoothingSymbol(N=4.0, alpha=0.4)
    tups = random_gamma_tuples(6, 200)
    expected = np.zeros(len(tups))
    for j in range(6):
        expected += (-1) ** j * m_value(np.abs(tups[:, j]), sym) ** 2 * tups[:, j] ** 2
    assert np.max(np.abs(bare_m6(tups, sym) - expected)) < 1e-12


def test_sigma_product_bounded_by_one():
    sym = SmoothingSymbol(N=2.0, alpha=0.5)
    tups = random_gamma_tuples(6, 500, lo=-64, hi=64)
    vals = sigma_product(tups, sym)
    assert np.all(vals <= 1.0 + 1e-15)
    assert np.all(vals > 0.0)
