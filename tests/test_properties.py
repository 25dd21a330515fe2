"""Property-based invariants for the spectral and combinatorial kernels."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nlslab.classify import Thresholds, classify_batch_1d, is_nonresonant, is_resonant
from nlslab.geometry import build_geometry, free_evolve, norm, sharp_shell_index, zero_field
from nlslab.multipliers import alpha_n, bare_m6, omega
from nlslab.smoothing import ALPHA_MAX, SmoothingSymbol, m_value

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def field_from_list(values, lam=2.0):
    g = build_geometry(1, (), lam)
    K = (len(values) - 1) // 2
    f = zero_field(g, K)
    return f.with_coeffs(np.array(values, dtype=complex))


@given(st.lists(st.tuples(finite, finite), min_size=5, max_size=15).filter(
    lambda v: len(v) % 2 == 1))
@settings(max_examples=60, deadline=None)
def test_free_evolution_preserves_every_sobolev_norm(vals):
    f = field_from_list([complex(a, b) for a, b in vals])
    g = free_evolve(f, 0.37)
    for s in (0.0, 0.5, 1.0):
        assert norm(g, "hs", s=s) == pytest.approx(norm(f, "hs", s=s), rel=1e-12, abs=1e-12)


@given(st.lists(st.tuples(finite, finite), min_size=5, max_size=15).filter(
    lambda v: len(v) % 2 == 1))
@settings(max_examples=40, deadline=None)
def test_sharp_shells_decompose_norm(vals):
    f = field_from_list([complex(a, b) for a, b in vals])
    shell = sharp_shell_index(f.kabs())
    levels = [1, 2, 4, 8, 16]
    total = sum(norm(f.with_coeffs(np.where(shell == n, f.coeffs, 0.0)), "l2") ** 2
                for n in levels)
    assert total == pytest.approx(norm(f, "l2") ** 2, rel=1e-12, abs=1e-12)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_alpha_omega_identity_and_parity_swap(k1, k2, k3, k4, k5):
    k6 = -(k1 + k2 + k3 + k4 + k5)
    tup = np.array([k1, k2, k3, k4, k5, k6], dtype=float)
    assert complex(alpha_n(tup)) == -1j * float(omega(tup))
    swapped = -tup[[1, 0, 3, 2, 5, 4]]
    assert float(omega(swapped)) == pytest.approx(-float(omega(tup)))


@given(st.integers(-24, 24), st.integers(-24, 24), st.integers(-24, 24),
       st.integers(-24, 24), st.integers(-24, 24),
       st.sampled_from([2.0, 3.0, 4.0, 6.0]))
@settings(max_examples=200, deadline=None)
def test_classifier_total_and_certified(k1, k2, k3, k4, k5, gap):
    k6 = -(k1 + k2 + k3 + k4 + k5)
    if abs(k6) > 24:
        return
    tup = np.array([[k1, k2, k3, k4, k5, k6]], dtype=float)
    th = Thresholds(gap=gap)
    codes, _ = classify_batch_1d(tup, N=4.0, thresholds=th)
    code = int(codes[0])
    assert (code == 0) or is_resonant(code) or is_nonresonant(code)
    if is_nonresonant(code):
        assert float(omega(tup[0])) != 0.0


@given(st.floats(min_value=1.0, max_value=64.0),
       st.floats(min_value=0.05, max_value=ALPHA_MAX))
@settings(max_examples=60, deadline=None)
def test_symbol_profile_invariants(N, alpha):
    sym = SmoothingSymbol(N, alpha)
    xi = np.exp(np.linspace(np.log(0.5), np.log(300.0 * N), 400))
    vals = m_value(xi, sym)
    assert np.all(vals <= 1.0 + 1e-15)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(np.diff(vals * xi) >= -1e-9 * N)
    inner = xi <= N
    assert np.all(vals[inner] == 1.0)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_smoothed_resonance_matches_omega_below_threshold(k1, k2, k3, k4, k5):
    k6 = -(k1 + k2 + k3 + k4 + k5)
    tup = np.array([k1, k2, k3, k4, k5, k6], dtype=float)
    big = float(np.max(np.abs(tup)))
    sym = SmoothingSymbol(N=max(big, 1.0), alpha=0.5)
    assert float(bare_m6(tup[None, :], sym)[0]) == float(omega(tup))
