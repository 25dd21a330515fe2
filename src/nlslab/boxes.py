"""Fourier expansion of box-localized multipliers with seam correction.

A multiplier restricted to a product of frequency intervals is expanded in
the periodic Fourier basis of the box.  A smooth symbol restricted to an
interval is generically not periodic, so the raw series would decay like
1/xi; to recover the rapid decay the localization argument needs, each axis
first subtracts the seam-matching Bernoulli tail

    corr(u) = sum_{q<order} d_q * B_{q+1}(u) / (q+1)!,
    d_q = L^q * (g^(q) at right end - g^(q) at left end),

which removes the derivative jumps of the periodization up to ``order``; the
remaining Fourier coefficients decay like xi^-(order+1).  The Bernoulli
polynomials have zero mean, so the zero coefficient stays the box average
and a constant symbol expands to that single coefficient exactly.

Only symbols that factor across slots are supported (sums like the smoothed
resonance multipliers, products like sigma_n); the expansion is then a sum
or product of per-slot coefficient tensors and reconstruction is exact up to
the truncated tails.  A slot of d variables is expanded as a tensor product:
one linear map per axis, applied in turn, so d = 1 is the one-axis case.
Coefficients here follow the unit-box convention
c_xi = integral_0^1 g(u) exp(-2 pi i xi u) du; multiply by prod L_i for the
box-measure normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import sharp_shell_index
from .multipliers import SymbolSpec


class QuadratureError(RuntimeError):
    """Two quadrature resolutions disagreed beyond tolerance."""


@lru_cache(maxsize=32)
def bernoulli_poly_coeffs(n: int) -> tuple:
    """Power-basis coefficients (ascending) of the Bernoulli polynomial B_n."""
    # B_n(x) = sum_k C(n,k) B_k x^(n-k) with Bernoulli numbers from the
    # standard recurrence.
    from math import comb

    numbers = [1.0]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, k) * numbers[k] for k in range(m))
        numbers.append(-acc / (m + 1))
    coeffs = np.zeros(n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * numbers[k]
    return tuple(coeffs)


def bernoulli_phi(q: int, u) -> np.ndarray:
    """B_q(u)/q!; its q-1 order derivative jump over [0,1] is 1, lower zero."""
    c = np.array(bernoulli_poly_coeffs(q)) / factorial(q)
    return np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), c)


@dataclass(frozen=True)
class MultiplierBox:
    """Per-slot frequency intervals (pairs of (center, length) per axis)."""

    intervals: tuple  # 1d: ((c, L), ...) ; 2d: (((cx, Lx), (cy, Ly)), ...)
    d: int = 1

    def __post_init__(self):
        for slot in self.intervals:
            axes = (slot,) if self.d == 1 else slot
            for c, L in axes:
                if not L > 0:
                    raise ValueError(f"interval length {L} must be positive")
                shell = float(sharp_shell_index(abs(c)))
                if L > 4.0 * shell + 1e-9:
                    raise ValueError(
                        f"interval length {L} exceeds 4x the enclosing shell {shell}")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def slot_axes(self, i: int):
        return (self.intervals[i],) if self.d == 1 else self.intervals[i]

    def lengths(self) -> np.ndarray:
        out = []
        for i in range(self.n):
            for c, L in self.slot_axes(i):
                out.append(L)
        return np.array(out)

    def volume(self) -> float:
        return float(np.prod(self.lengths()))


def _tail_frequencies(trunc: int, order: int) -> np.ndarray:
    hi = trunc + 2 * order + 6
    pos = np.arange(trunc + 1, hi + 1)
    return np.concatenate([pos, -pos])


@lru_cache(maxsize=32)
def _unit_gauss_legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes mapped to [0, 1] and halved weights (read-only)."""
    x, w = leggauss(nodes)
    u, half_w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = half_w.flags.writeable = False
    return u, half_w


@lru_cache(maxsize=32)
def _unit_phases(trunc: int, order: int, nodes: int) -> np.ndarray:
    """exp(-2 pi i xi u) at the ``nodes`` unit Gauss-Legendre nodes u, one
    row per xi in -trunc..trunc and then the ``_tail_frequencies``
    (read-only)."""
    xi = np.concatenate([np.arange(-trunc, trunc + 1), _tail_frequencies(trunc, order)])
    phases = np.exp(-2j * np.pi * np.outer(xi, _unit_gauss_legendre(nodes)[0]))
    phases.flags.writeable = False
    return phases


def _node_count(trunc: int, order: int) -> int:
    """Six nodes per unit of the highest tail frequency, at least 160."""
    return max(160, 6 * (trunc + 2 * order + 6))


def _axis_samples(center: float, length: float, nodes: int) -> np.ndarray:
    """Sample points of one axis: ``nodes`` and ``nodes + 32`` Gauss-Legendre
    nodes, then the right and the left end of the interval."""
    a = center - length / 2
    return np.concatenate([a + length * _unit_gauss_legendre(nodes)[0],
                           a + length * _unit_gauss_legendre(nodes + 32)[0],
                           [center + length / 2, a]])


def _axis_map(samples: np.ndarray, interval, trunc: int, order: int,
              rtol: float) -> np.ndarray:
    """One-axis expansion of each column of real ``samples`` (rows at the
    ``_axis_samples`` points): raw coefficients by Gauss-Legendre quadrature,
    seam jumps d_q from the exact tail asymptotics

        c_raw(xi) = - sum_q d_q / (2 pi i xi)^(q+1) + O(xi^-(order+1)),

    with d_0 taken from exact endpoint values and d_1.. fitted on frequencies
    just above the truncation.  Corrected coefficients then follow from the
    closed-form Bernoulli spectra, so no derivative estimation is needed.
    Returns (order + 2 trunc + 1, columns): the jumps d_q, then c_xi for xi
    in [-trunc, trunc].  The two node counts must agree to ``rtol`` of the
    largest raw coefficient of the whole batch.
    """
    center, length = interval
    tail = _tail_frequencies(trunc, order)
    xi_lo = np.arange(-trunc, trunc + 1)
    nodes = _node_count(trunc, order)
    raw, start = [], 0
    for count in (nodes, nodes + 32):
        half_w = _unit_gauss_legendre(count)[1]
        raw.append(_unit_phases(trunc, order, count)
                   @ (samples[start:start + count] * half_w[:, None]))
        start += count
    c1, c2 = raw
    scale = max(float(np.max(np.abs(c2))), 1e-300)
    gap = float(np.max(np.abs(c1 - c2)))
    if gap > rtol * scale:
        raise QuadratureError(
            f"axis quadrature disagreement {gap:.2e} exceeds {rtol:.0e} relative "
            f"on [{center - length / 2}, {center + length / 2}]")
    raw_lo = c2[: len(xi_lo)]
    raw_tail = c2[len(xi_lo):]

    jumps = np.zeros((order, samples.shape[1]))
    jumps[0] = samples[-2] - samples[-1]
    zt = 1.0 / (2j * np.pi * tail)
    rhs = raw_tail + jumps[0] * zt[:, None]
    fit = np.max(np.abs(rhs), axis=0) > 1e-13 * scale
    if order > 1 and fit.any():
        # row weights equalize magnitudes, column scaling conditions the fit
        row_w = 1.0 / np.abs(zt)
        cols = np.stack([zt ** (q + 1) for q in range(1, order)], axis=1)
        cols = cols * row_w[:, None]
        col_scale = np.max(np.abs(cols), axis=0)
        sol, *_ = np.linalg.lstsq(cols / col_scale, -rhs[:, fit] * row_w[:, None],
                                  rcond=None)
        jumps[1:, fit] = np.real(sol / col_scale[:, None])

    four = raw_lo.copy()
    nz = xi_lo != 0
    z = 1.0 / (2j * np.pi * xi_lo[nz])
    for q in range(order):
        four[nz] += jumps[q] * z[:, None] ** (q + 1)
    return np.concatenate([jumps, four])


def _axis_basis(x, interval, trunc: int, order: int) -> np.ndarray:
    """The per-axis basis at ``x``: B_{q+1}(u)/(q+1)! for q < order, then
    exp(2 pi i xi u) for xi in [-trunc, trunc]; shape (..., order + 2T+1)."""
    center, length = interval
    u = (np.asarray(x, dtype=float) - (center - length / 2)) / length
    poly = np.stack([bernoulli_phi(q + 1, u) for q in range(order)], axis=-1)
    phases = np.exp(2j * np.pi * np.multiply.outer(u, np.arange(-trunc, trunc + 1)))
    return np.concatenate([poly, phases], axis=-1)


@dataclass(frozen=True)
class BoxExpansion:
    """Per-slot coefficient tensors of shape (order + 2T+1,) * d: along each
    axis the seam jumps d_q, then the Fourier coefficients c_xi."""

    symbol_name: str
    structure: str  # 'sum' | 'product'
    box: MultiplierBox
    slots: tuple  # per-slot coefficient tensor
    trunc: int
    order: int

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=float)
        if self.box.d == 1:
            arr = arr[..., None]  # one axis per slot
        letters = "abcdefgh"[: self.box.d]
        spec = letters + "," + ",".join("..." + c for c in letters) + "->..."
        vals = []
        for i, coef in enumerate(self.slots):
            bases = [_axis_basis(arr[..., i, a], interval, self.trunc, self.order)
                     for a, interval in enumerate(self.box.slot_axes(i))]
            vals.append(np.einsum(spec, coef, *bases))
        out = vals[0]
        for v in vals[1:]:
            out = out + v if self.structure == "sum" else out * v
        return out

    # -- reports -------------------------------------------------------------

    def _fourier(self, coef) -> np.ndarray:
        """The Fourier block of a slot tensor, (2T+1,) * d."""
        return coef[(slice(self.order, None),) * coef.ndim]

    def _slot_dc(self, coef) -> complex:
        return complex(coef[(self.order + self.trunc,) * coef.ndim])

    def dc_unit(self) -> complex:
        """Tensor zero coefficient in the unit-box convention."""
        parts = [self._slot_dc(coef) for coef in self.slots]
        if self.structure == "sum":
            return sum(parts)
        out = 1.0 + 0.0j
        for p in parts:
            out *= p
        return out

    def dc(self) -> complex:
        """Zero coefficient with the box measure: prod L_i times the average."""
        return self.dc_unit() * self.box.volume()

    def max_offdc(self) -> float:
        """Largest non-zero-frequency coefficient magnitude (unit convention)."""
        out = 0.0
        for coef in self.slots:
            mags = np.abs(self._fourier(coef))
            mags[(self.trunc,) * coef.ndim] = 0.0
            out = max(out, float(np.max(mags)))
        return out

    def coefficient_l1_unit(self) -> float:
        """sum over the full tensor of |coefficient| (Fourier part)."""
        l1 = [float(np.sum(np.abs(self._fourier(coef)))) for coef in self.slots]
        if self.structure == "sum":
            return abs(self.dc_unit()) + sum(
                s - abs(self._slot_dc(coef)) for s, coef in zip(l1, self.slots))
        return float(np.prod(l1))

    def decay_report(self) -> dict:
        """Fit |c_xi| ~ <xi>^-p per axis, pooled over axes; the magnitude on
        an axis is the max over every other axis's full basis."""
        xs, ys = [], []
        floor_scale = max(abs(self.dc_unit()), self.max_offdc(), 1e-300)
        T = self.trunc
        for coef in self.slots:
            for a in range(coef.ndim):
                along = np.moveaxis(np.abs(coef), a, 0)[self.order:]
                mags = np.max(along.reshape(2 * T + 1, -1), axis=1)
                for x in range(1, T + 1):
                    m = max(mags[T + x], mags[T - x])
                    if m > 1e-14 * floor_scale:
                        xs.append(np.log(x))
                        ys.append(np.log(m))
        if len(xs) < 3:
            return {"slope": float("inf"), "points": len(xs)}
        slope, _ = np.polyfit(xs, ys, 1)
        return {"slope": float(-slope), "points": len(xs)}


def fourier_expand(sym: SymbolSpec, box: MultiplierBox, trunc: int,
                   order: int = 6, rtol: float = 1e-6) -> BoxExpansion:
    """Expand a slot-factorizable symbol over a frequency box.

    The symbol must carry per-slot terms ('sum' or 'product' structure); the
    classifier gates which multipliers are smooth enough on which boxes, and
    only those reach this routine in the verification flows.  Each slot term
    is sampled once on the tensor grid of its axes' sample points, and
    ``_axis_map`` is applied along axis 0, then along axis 1: the first axis
    sees the real samples, later axes the real and imaginary parts of the
    previous stage stacked as columns of one batch.
    """
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    if order < 1:
        raise ValueError(f"order={order} must be >= 1")
    if sym.structure not in ("sum", "product") or not sym.slot_terms:
        raise ValueError(
            f"symbol {sym.name!r} does not expose per-slot factors; "
            "only slot-factorizable symbols are expandable")
    if len(sym.slot_terms) != box.n or sym.n != box.n:
        raise ValueError("slot count mismatch between symbol and box")
    if box.d != sym.d:
        raise ValueError("dimension mismatch between symbol and box")
    nodes = _node_count(trunc, order)
    slots = []
    for i, term in enumerate(sym.slot_terms):
        axes = box.slot_axes(i)
        mesh = np.meshgrid(*(_axis_samples(c, L, nodes) for c, L in axes), indexing="ij")
        coef = np.real(term(np.stack(mesh, axis=-1) if box.d > 1 else mesh[0]))
        for a, interval in enumerate(axes):
            batch = np.moveaxis(coef, a, 0)
            cols = batch.reshape(len(batch), -1)
            if a == 0:
                out = _axis_map(cols, interval, trunc, order, rtol)
            else:
                parts = _axis_map(np.concatenate([cols.real, cols.imag], axis=1),
                                  interval, trunc, order, rtol)
                out = parts[:, : cols.shape[1]] + 1j * parts[:, cols.shape[1]:]
            coef = np.moveaxis(out.reshape((len(out),) + batch.shape[1:]), 0, a)
        slots.append(coef)
    return BoxExpansion(sym.name, sym.structure, box, tuple(slots), trunc, order)
