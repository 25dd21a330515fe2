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
or product of per-slot tables and reconstruction is exact up to the
truncated tails.  Coefficients here follow the unit-box convention
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


@dataclass(frozen=True)
class AxisTable:
    """Seam-corrected expansion of one scalar factor on one interval."""

    center: float
    length: float
    order: int
    trunc: int
    poly: np.ndarray  # scaled seam jumps d_q, q < order
    four: np.ndarray  # c_xi for xi in [-trunc, trunc], unit-box convention

    def xi_range(self) -> np.ndarray:
        return np.arange(-self.trunc, self.trunc + 1)

    def evaluate(self, x) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - (self.center - self.length / 2)) / self.length
        val = np.zeros(np.shape(u), dtype=complex)
        for q in range(self.order):
            if self.poly[q] != 0.0:
                val = val + self.poly[q] * bernoulli_phi(q + 1, u)
        phases = np.exp(2j * np.pi * np.multiply.outer(u, self.xi_range()))
        val = val + phases @ self.four
        return val


@lru_cache(maxsize=32)
def _unit_gauss_legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes mapped to [0, 1] and halved weights (read-only)."""
    x, w = leggauss(nodes)
    u, half_w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = half_w.flags.writeable = False
    return u, half_w


def _axis_expand(g, center: float, length: float, trunc: int, order: int,
                 rtol: float = 1e-6) -> AxisTable:
    """One-axis expansion: raw coefficients by Gauss-Legendre quadrature,
    seam jumps d_q from the exact tail asymptotics

        c_raw(xi) = - sum_q d_q / (2 pi i xi)^(q+1) + O(xi^-(order+1)),

    with d_0 taken from exact endpoint values and d_1.. fitted on frequencies
    just above the truncation.  Corrected coefficients then follow from the
    closed-form Bernoulli spectra, so no derivative estimation is needed.
    """
    a = center - length / 2
    b = center + length / 2
    tail = _tail_frequencies(trunc, order)
    xi_lo = np.arange(-trunc, trunc + 1)
    xi_all = np.concatenate([xi_lo, tail])

    def raw_coefficients(nodes):
        u, half_w = _unit_gauss_legendre(nodes)
        vals = np.real(np.asarray(g(a + length * u))) * half_w
        phases = np.exp(-2j * np.pi * np.outer(xi_all, u))
        return phases @ vals

    nodes = max(160, 6 * int(np.max(np.abs(xi_all))))
    c1 = raw_coefficients(nodes)
    c2 = raw_coefficients(nodes + 32)
    scale = max(float(np.max(np.abs(c2))), 1e-300)
    if np.max(np.abs(c1 - c2)) > rtol * scale:
        raise QuadratureError(
            f"axis quadrature disagreement {np.max(np.abs(c1 - c2)):.2e} "
            f"exceeds {rtol:.0e} relative on [{a}, {b}]")
    raw_lo = c2[: len(xi_lo)]
    raw_tail = c2[len(xi_lo):]

    jumps = np.zeros(order)
    jumps[0] = float(np.real(g(np.array([b]))[0] - g(np.array([a]))[0]))
    zt = 1.0 / (2j * np.pi * tail)
    rhs = raw_tail + jumps[0] * zt
    if order > 1 and float(np.max(np.abs(rhs))) > 1e-13 * scale:
        # row weights equalize magnitudes, column scaling conditions the fit
        row_w = 1.0 / np.abs(zt)
        cols = np.stack([zt ** (q + 1) for q in range(1, order)], axis=1)
        cols = cols * row_w[:, None]
        col_scale = np.max(np.abs(cols), axis=0)
        sol, *_ = np.linalg.lstsq(cols / col_scale, -rhs * row_w, rcond=None)
        jumps[1:] = np.real(sol / col_scale)

    four = np.array(raw_lo, dtype=complex)
    nz = xi_lo != 0
    z = np.zeros_like(four)
    z[nz] = 1.0 / (2j * np.pi * xi_lo[nz])
    for q in range(order):
        four[nz] += jumps[q] * z[nz] ** (q + 1)
    return AxisTable(center, length, order, trunc, jumps, four)


@dataclass(frozen=True)
class SlotTable:
    """Expansion of a one-variable slot factor."""

    axes: tuple  # a single AxisTable

    def evaluate(self, k) -> np.ndarray:
        return self.axes[0].evaluate(k)

    def dc_unit(self) -> complex:
        ax = self.axes[0]
        return complex(ax.four[ax.trunc])

    def fourier_l1(self) -> float:
        return float(np.sum(np.abs(self.axes[0].four)))

    def max_offdc(self) -> float:
        ax = self.axes[0]
        mags = np.abs(ax.four).copy()
        mags[ax.trunc] = 0.0
        return float(np.max(mags))


@dataclass(frozen=True)
class BoxExpansion:
    symbol_name: str
    structure: str  # 'sum' | 'product'
    box: MultiplierBox
    slots: tuple  # per-slot SlotTable (1d) or TensorSlot (2d)
    trunc: int
    order: int

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=float)
        vals = [self.slots[i].evaluate(arr[..., i] if self.box.d == 1 else arr[..., i, :])
                for i in range(self.box.n)]
        out = vals[0]
        for v in vals[1:]:
            out = out + v if self.structure == "sum" else out * v
        return out

    # -- reports -------------------------------------------------------------

    def axis_tables(self):
        for slot in self.slots:
            for ax in slot.axes:
                yield ax

    def dc_unit(self) -> complex:
        """Tensor zero coefficient in the unit-box convention."""
        parts = [slot.dc_unit() for slot in self.slots]
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
        return max(slot.max_offdc() for slot in self.slots)

    def coefficient_l1_unit(self) -> float:
        """sum over the full tensor of |coefficient| (Fourier part)."""
        if self.structure == "sum":
            total = abs(self.dc_unit())
            for slot in self.slots:
                total += slot.fourier_l1() - abs(slot.dc_unit())
            return total
        out = 1.0
        for slot in self.slots:
            out *= slot.fourier_l1()
        return out

    def decay_report(self) -> dict:
        """Fit |c_xi| ~ <xi>^-p per axis, pooled over axes."""
        xs, ys = [], []
        floor_scale = max(abs(self.dc_unit()), self.max_offdc(), 1e-300)
        for ax in self.axis_tables():
            xi = ax.xi_range()
            mags = np.abs(ax.four)
            for x in range(1, ax.trunc + 1):
                m = max(mags[ax.trunc + x], mags[ax.trunc - x])
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
    only those reach this routine in the verification flows.
    """
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    if sym.structure not in ("sum", "product") or not sym.slot_terms:
        raise ValueError(
            f"symbol {sym.name!r} does not expose per-slot factors; "
            "only slot-factorizable symbols are expandable")
    if len(sym.slot_terms) != box.n or sym.n != box.n:
        raise ValueError("slot count mismatch between symbol and box")
    if box.d != sym.d:
        raise ValueError("dimension mismatch between symbol and box")
    slots = []
    for i in range(box.n):
        axes = box.slot_axes(i)
        if box.d == 1:
            (c, L), = axes
            table = _axis_expand(sym.slot_terms[i], c, L, trunc, order, rtol)
            slots.append(SlotTable(axes=(table,)))
        else:
            slots.append(_expand_2d_slot(sym.slot_terms[i], axes, trunc, order, rtol))
    return BoxExpansion(sym.name, sym.structure, box, tuple(slots), trunc, order)


# -- two-dimensional slot factors ----------------------------------------------


@dataclass(frozen=True)
class TensorSlot:
    """Expansion of a slot factor of two variables on a rectangle.

    Blocks of the mixed representation: poly x poly, poly x Fourier,
    Fourier x poly, Fourier x Fourier, produced by applying the 1d seam
    correction in x (with y-dependent jump functions) and then in y.
    """

    rect: tuple  # ((cx, Lx), (cy, Ly))
    order: int
    trunc: int
    pp: np.ndarray  # (order, order)
    pf: np.ndarray  # (order, 2T+1)
    fp: np.ndarray  # (2T+1, order)
    ff: np.ndarray  # (2T+1, 2T+1)

    @property
    def axes(self):
        # per-axis marginal Fourier magnitudes; used for decay pooling only
        (cx, Lx), (cy, Ly) = self.rect
        margin_x = np.max(np.abs(np.concatenate([self.ff, self.fp], axis=1)), axis=1)
        margin_y = np.max(np.abs(np.concatenate([self.ff.T, self.pf.T], axis=1)), axis=1)
        return (
            AxisTable(cx, Lx, self.order, self.trunc, np.zeros(self.order), margin_x),
            AxisTable(cy, Ly, self.order, self.trunc, np.zeros(self.order), margin_y),
        )

    def dc_unit(self) -> complex:
        return complex(self.ff[self.trunc, self.trunc])

    def fourier_l1(self) -> float:
        return float(np.sum(np.abs(self.ff)))

    def max_offdc(self) -> float:
        mags = np.abs(self.ff).copy()
        mags[self.trunc, self.trunc] = 0.0
        return float(np.max(mags))

    def evaluate(self, k) -> np.ndarray:
        (cx, Lx), (cy, Ly) = self.rect
        kx = np.asarray(k, dtype=float)[..., 0]
        ky = np.asarray(k, dtype=float)[..., 1]
        ux = (kx - (cx - Lx / 2)) / Lx
        uy = (ky - (cy - Ly / 2)) / Ly
        xi = np.arange(-self.trunc, self.trunc + 1)
        ex = np.exp(2j * np.pi * np.multiply.outer(ux, xi))
        ey = np.exp(2j * np.pi * np.multiply.outer(uy, xi))
        bx = np.stack([bernoulli_phi(q + 1, ux) for q in range(self.order)], axis=-1)
        by = np.stack([bernoulli_phi(q + 1, uy) for q in range(self.order)], axis=-1)
        out = np.einsum("...i,ij,...j->...", bx, self.pp, by)
        out = out + np.einsum("...i,ij,...j->...", bx, self.pf, ey)
        out = out + np.einsum("...i,ij,...j->...", ex, self.fp, by)
        out = out + np.einsum("...i,ij,...j->...", ex, self.ff, ey)
        return out


def _expand_2d_slot(term, axes, trunc: int, order: int, rtol: float) -> TensorSlot:
    (cx, Lx), (cy, Ly) = axes

    def g_of_y(y_scalar):
        return lambda xs: np.real(term(np.stack(
            [np.asarray(xs, float), np.full(np.shape(xs), y_scalar)], axis=-1)))

    # the x-transform is queried repeatedly at the same y nodes by the
    # y-stage expansions; memoize it
    cache: dict = {}

    def x_transform_at(y_scalar: float):
        key = float(y_scalar)
        if key not in cache:
            t = _axis_expand(g_of_y(key), cx, Lx, trunc, order, rtol)
            cache[key] = (t.poly, t.four)
        return cache[key]

    def expand_y(samples_fn):
        return _axis_expand(samples_fn, cy, Ly, trunc, order, rtol)

    def vectorized(extract):
        def fn(yv):
            flat = np.atleast_1d(np.asarray(yv, dtype=float)).ravel()
            out = np.array([extract(*x_transform_at(y)) for y in flat])
            return out.reshape(np.shape(yv))
        return fn

    pp = np.zeros((order, order))
    pf = np.zeros((order, 2 * trunc + 1), dtype=complex)
    for q in range(order):
        t = expand_y(vectorized(lambda p, f, q=q: p[q]))
        pp[q] = t.poly
        pf[q] = t.four

    fp = np.zeros((2 * trunc + 1, order), dtype=complex)
    ff = np.zeros((2 * trunc + 1, 2 * trunc + 1), dtype=complex)
    for j in range(2 * trunc + 1):
        for part, unit in ((np.real, 1.0), (np.imag, 1j)):
            t = expand_y(vectorized(lambda p, f, j=j, part=part: part(f[j])))
            fp[j] = fp[j] + unit * t.poly
            ff[j] = ff[j] + unit * t.four
    return TensorSlot(rect=tuple(axes), order=order, trunc=trunc,
                      pp=pp, pf=pf, fp=fp, ff=ff)
