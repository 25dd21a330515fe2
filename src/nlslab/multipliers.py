"""Frequency tuples on the zero-sum hyperplane and the multilinear symbols.

A tuple (k_1, ..., k_n) lives on Gamma_n = {sum k_i = 0}; odd slots are
unconjugated, even slots conjugated.  Frequencies are scalars in one
dimension and 2-vectors in two.  Vectorized evaluators act on arrays of
shape (..., n) (1d) or (..., n, 2) (2d), last axes being slot / component.

Normalization: symbols here are the *bare* objects

    omega_n = sum_i (-1)^(i+1) |k_i|^2          (resonance function)
    alpha_n = i sum_j (-1)^j |k_j|^2 = -i omega_n
    M_n     = sum_i (-1)^(i+1) m^2(k_i) |k_i|^2  (smoothed resonance)
    sigma_n = prod_i m(k_i)

Prefactors (1/2, 1/6, 1/4, the i of the derivative formulas, and the
focusing/defocusing sign) belong to the energy-functional layer, which owns
a single constants table; see ``energies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .smoothing import SmoothingSymbol, m_value


def as_tuple_array(k, d: int) -> np.ndarray:
    """Coerce to (..., n) for d=1 or (..., n, d) for d=2, dtype float."""
    arr = np.asarray(k, dtype=float)
    if d == 1:
        if arr.ndim == 0:
            raise ValueError("a frequency tuple needs a slot axis")
        return arr
    if arr.ndim < 2 or arr.shape[-1] != d:
        raise ValueError(f"2d tuples need trailing component axis of size {d}")
    return arr


def squared_mags(k, d: int) -> np.ndarray:
    """|k_i|^2 per slot; shape (..., n)."""
    arr = as_tuple_array(k, d)
    # two components added directly: the same sum as np.sum over the last
    # axis, without numpy's slow reduction over an axis of length 2
    return arr**2 if d == 1 else arr[..., 0] ** 2 + arr[..., 1] ** 2


def mags(k, d: int) -> np.ndarray:
    return np.sqrt(squared_mags(k, d))


def _alt_signs(n: int) -> np.ndarray:
    """(+1, -1, +1, ...): sign (-1)^(i+1) for 1-indexed slot i."""
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def omega(k, d: int = 1) -> np.ndarray:
    """Resonance function sum (-1)^(i+1) |k_i|^2 (exact for integer input)."""
    sq = squared_mags(k, d)
    return np.sum(sq * _alt_signs(sq.shape[-1]), axis=-1)


def alpha_n(k, d: int = 1) -> np.ndarray:
    """i sum (-1)^j |k_j|^2; identically -i * omega."""
    return -1j * omega(k, d)


def bare_m6(k, sym: SmoothingSymbol, d: int = 1) -> np.ndarray:
    """sum (-1)^(i+1) m^2(k_i)|k_i|^2 for any even slot count."""
    # |k_i|^2 is formed again after m, so that no squared copy of the
    # tuples is alive while m is evaluated (the peak memory of verify)
    m2 = m_value(mags(k, d), sym) ** 2
    return np.sum(m2 * squared_mags(k, d) * _alt_signs(m2.shape[-1]), axis=-1)


def sigma_product(k, sym: SmoothingSymbol, d: int = 1) -> np.ndarray:
    """prod_i m(k_i)."""
    r = mags(k, d)
    return np.prod(m_value(r, sym), axis=-1)


# -- generic symbol wrapper -----------------------------------------------------


@dataclass(frozen=True)
class SymbolSpec:
    """A named multilinear symbol with a vectorized evaluator on Gamma_n.

    ``structure`` tags how the evaluator factors over slots:
    'sum' (sum of per-slot terms), 'product' (product of per-slot factors),
    or 'general'.  Box expansion exploits the first two.
    """

    name: str
    n: int
    d: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    structure: str = "general"
    slot_terms: tuple = ()  # per-slot callables for 'sum'/'product' structure

    def __call__(self, k) -> np.ndarray:
        arr = as_tuple_array(k, self.d)
        return self.evaluator(arr)


def slot_sq(k, d: int) -> np.ndarray:
    """|k|^2 of a single-slot frequency array ((...,) in 1d, (..., 2) in 2d)."""
    arr = np.asarray(k, dtype=float)
    return arr**2 if d == 1 else np.sum(arr**2, axis=-1)


def m_multiplier_symbol(n: int, sym: SmoothingSymbol, d: int = 1) -> SymbolSpec:
    signs = _alt_signs(n)

    def term(i):
        s = signs[i]

        def f(k):
            sq = slot_sq(k, d)
            return s * m_value(np.sqrt(sq), sym) ** 2 * sq

        return f

    return SymbolSpec(f"M{n}", n, d, lambda k: bare_m6(k, sym, d), "sum",
                      tuple(term(i) for i in range(n)))


def sigma_symbol(n: int, sym: SmoothingSymbol, d: int = 1) -> SymbolSpec:
    def factor(k):
        return m_value(np.sqrt(slot_sq(k, d)), sym)

    return SymbolSpec(f"Sigma{n}", n, d, lambda k: sigma_product(k, sym, d),
                      "product", tuple(factor for _ in range(n)))


def constant_symbol(value: complex, n: int) -> SymbolSpec:
    """The constant symbol ``value`` on 1-D n-tuples."""
    def ev(k):
        sq = squared_mags(k, 1)
        return np.full(sq.shape[:-1], value, dtype=complex)

    def lead(k):
        return np.full(np.shape(slot_sq(k, 1)), value, dtype=complex)

    def one(k):
        return np.ones(np.shape(slot_sq(k, 1)))

    return SymbolSpec(f"Const({value})", n, 1, ev, "product",
                      (lead,) + tuple(one for _ in range(n - 1)))
