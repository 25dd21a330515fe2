"""Torus lattices, spectral fields, norms, grid transforms, and the free flow.

Conventions
-----------
The torus has one axis of circumference ``2*pi*lam`` and, in two dimensions, a
second axis of circumference ``2*pi*gamma*lam`` with anisotropy
``gamma in (1/2, 1]``.  A field is stored by its Fourier coefficients

    fhat(k) = integral exp(-i k.x) f(x) dx

on integer mode vectors ``n in [-K, K]^d``; the physical frequency on axis j is
``k_j = n_j / scale_j`` with ``scale = (lam, gamma*lam)``.  Inversion carries
the normalized measure weight

    w = prod_j (2*pi*scale_j)**-1,
    f(x) = w * sum_k fhat(k) exp(i k.x),

which makes Plancherel an identity rather than an estimate:

    ||f||_L2^2 = w * sum_k |fhat(k)|^2.

(The usual torus convention drops the 2*pi factors; we keep them so every norm
below is exact, and document the discrepancy here once.)

Fields are immutable values: coefficient arrays are copied on construction and
marked read-only, and every operation returns a new field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_gamma_tuple(gamma) -> tuple[float, ...]:
    if gamma is None:
        return ()
    if np.isscalar(gamma):
        return (float(gamma),)
    return tuple(float(g) for g in gamma)


@dataclass(frozen=True)
class TorusGeometry:
    """Dimension, anisotropy ratios and scale of a rescaled torus."""

    dimension: int
    gamma: tuple[float, ...]
    lam: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension={self.dimension} must be 1 or 2")
        object.__setattr__(self, "gamma", _as_gamma_tuple(self.gamma))
        if len(self.gamma) != self.dimension - 1:
            raise ValueError(
                f"gamma={self.gamma} must have {self.dimension - 1} entries"
            )
        for i, g in enumerate(self.gamma):
            if not (0.5 < g <= 1.0):
                raise ValueError(f"gamma[{i}]={g} outside (1/2, 1]")
        if not (self.lam >= 1.0):
            raise ValueError(f"lambda={self.lam} must be >= 1")

    @property
    def axis_scales(self) -> tuple[float, ...]:
        """Per-axis period scale; side lengths are 2*pi times these."""
        return (self.lam,) + tuple(g * self.lam for g in self.gamma)

    @property
    def side_lengths(self) -> tuple[float, ...]:
        return tuple(TWO_PI * s for s in self.axis_scales)

    @property
    def volume(self) -> float:
        return float(np.prod(self.side_lengths))

    @property
    def measure_weight(self) -> float:
        """Weight w with ||f||_L2^2 = w * sum |fhat|^2, i.e. 1/volume."""
        return 1.0 / self.volume

    @property
    def nonlinearity_degree(self) -> int:
        """Power 1 + 4/d of the mass-critical nonlinearity |u|^(4/d) u."""
        return 1 + 4 // self.dimension


def build_geometry(d: int, gamma=(), lam: float = 1.0) -> TorusGeometry:
    return TorusGeometry(d, gamma, lam)


def _cutoff_tuple(cutoff, d: int) -> tuple[int, ...]:
    if np.isscalar(cutoff):
        return (int(cutoff),) * d
    t = tuple(int(c) for c in cutoff)
    if len(t) != d:
        raise ValueError(f"cutoff={cutoff} must have {d} entries")
    return t


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on a truncated mode lattice.

    ``coeffs[i0]`` (1d) or ``coeffs[i0, i1]`` (2d) stores fhat at mode
    ``n_j = i_j - K_j``; no Hermitian symmetry is imposed.
    """

    geometry: TorusGeometry
    cutoff: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _cutoff_tuple(self.cutoff, self.geometry.dimension))
        expected = tuple(2 * k + 1 for k in self.cutoff)
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.shape != expected:
            raise ValueError(f"coeffs shape {arr.shape} != {expected} for cutoff {self.cutoff}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- lattice helpers ---------------------------------------------------

    def mode_range(self, axis: int) -> np.ndarray:
        k = self.cutoff[axis]
        return np.arange(-k, k + 1)

    def freq_axis(self, axis: int) -> np.ndarray:
        return self.mode_range(axis) / self.geometry.axis_scales[axis]

    def freq_grids(self) -> tuple[np.ndarray, ...]:
        axes = [self.freq_axis(a) for a in range(self.geometry.dimension)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if len(axes) > 1 else (axes[0],)

    def kabs(self) -> np.ndarray:
        """|k| on the lattice; cached per (geometry, cutoff), read-only."""
        return _kabs(self.geometry, self.cutoff)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.geometry, self.cutoff, coeffs)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, scalar: complex) -> "SpectralField":
        return self.with_coeffs(self.coeffs * scalar)

    __rmul__ = __mul__


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def _kabs(geometry: TorusGeometry, cutoff: tuple[int, ...]) -> np.ndarray:
    grids = zero_field(geometry, cutoff).freq_grids()
    return _read_only(np.sqrt(sum(g * g for g in grids)))


def zero_field(geometry: TorusGeometry, cutoff) -> SpectralField:
    shape = tuple(2 * k + 1 for k in _cutoff_tuple(cutoff, geometry.dimension))
    return SpectralField(geometry, cutoff, np.zeros(shape, dtype=np.complex128))


def field_from_modes(geometry: TorusGeometry, cutoff, modes: dict) -> SpectralField:
    """Build a field from {mode index (int or tuple): fhat amplitude}."""
    f = zero_field(geometry, cutoff)
    arr = np.array(f.coeffs)
    for n, amp in modes.items():
        idx = (n,) if np.isscalar(n) else tuple(n)
        if len(idx) != geometry.dimension:
            raise ValueError(f"mode {n} has wrong dimension")
        pos = tuple(int(i) + k for i, k in zip(idx, f.cutoff))
        for p, k in zip(pos, f.cutoff):
            if not (0 <= p <= 2 * k):
                raise ValueError(f"mode {n} outside cutoff {f.cutoff}")
        arr[pos] = amp
    return f.with_coeffs(arr)


def random_field(geometry: TorusGeometry, cutoff, rng, profile_s: float | None = None,
                 mass: float | None = None) -> SpectralField:
    """Random complex field; with ``profile_s`` decay |fhat| ~ <k>^(-s-d/2-0.01).

    With ``mass`` given the field is normalized so ||u||_L2^2 = mass.
    """
    f = zero_field(geometry, cutoff)
    shape = f.coeffs.shape
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if profile_s is not None:
        d = geometry.dimension
        decay = (1.0 + f.kabs() ** 2) ** (-(profile_s + d / 2 + 0.01) / 2.0)
        amp = amp * decay
    f = f.with_coeffs(amp)
    if mass is not None:
        m0 = norm(f, "l2") ** 2
        if m0 > 0:
            f = f * np.sqrt(mass / m0)
    return f


# -- norms -------------------------------------------------------------------


def norm(f: SpectralField, kind: str = "l2", s: float = 0.0) -> float:
    """L2 / Hs / dotHs norm from the coefficients (exact Plancherel)."""
    w = f.geometry.measure_weight
    a2 = np.abs(f.coeffs) ** 2
    if kind == "l2":
        weight = 1.0
    elif kind == "hs":
        weight = (1.0 + f.kabs() ** 2) ** s
    elif kind == "dot_hs":
        weight = f.kabs() ** (2.0 * s)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return float(np.sqrt(w * np.sum(weight * a2)))


def mass(f: SpectralField) -> float:
    return norm(f, "l2") ** 2


# -- physical grid transforms -------------------------------------------------


def grid_sizes(f: SpectralField, oversample: int = 1) -> tuple[int, ...]:
    return tuple((2 * k + 1) * oversample for k in f.cutoff)


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """What every transform between a mode lattice and a uniform grid reuses.

    Cached per (geometry, cutoff, grid sizes) by ``transform_plan``; its
    arrays are read-only.  ``index[j]`` holds the grid slots of the modes
    -K_j..K_j on axis j (negative modes wrap), ``weight`` is w = 1/volume,
    ``points`` is prod(sizes), and ``generator`` is -i|k|^2 on the lattice.
    """

    geometry: TorusGeometry
    sizes: tuple[int, ...]
    index: tuple[np.ndarray, ...]
    weight: float
    points: int
    generator: np.ndarray


@lru_cache(maxsize=32)
def transform_plan(geometry: TorusGeometry, cutoff: tuple[int, ...],
                   sizes: tuple[int, ...]) -> TransformPlan:
    """The plan of the grid ``sizes`` for the lattice of ``cutoff``."""
    index = tuple(_read_only(np.arange(-k, k + 1) % m) for k, m in zip(cutoff, sizes))
    return TransformPlan(geometry, sizes, index, geometry.measure_weight,
                         int(np.prod(sizes)),
                         _read_only(-1j * _kabs(geometry, cutoff) ** 2))


def _smooth5_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1): a length pocketfft runs fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p235 = p35
            while p235 < n:
                p235 *= 2
            best = min(best, p235)
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=32)
def dealiasing_plan(geometry: TorusGeometry, cutoff: tuple[int, ...]) -> TransformPlan:
    """The plan of the grid on which |u|^(4/d) u is alias-free: per axis the
    smallest 5-smooth length M >= (p+1)K+1 for the degree p = 1 + 4/d.

    The product of p factors holds modes up to pK, and a mode m lands on the
    lattice of M points as m - jM, so M > (p+1)K keeps every alias j != 0 off
    [-K, K]; the grid also integrates |u|^(p+1), whose modes reach
    (p+1)K < M, exactly.  Cached per (geometry, cutoff).
    """
    p = geometry.nonlinearity_degree
    return transform_plan(geometry, cutoff, tuple(_smooth5_length((p + 1) * k + 1)
                                                  for k in cutoff))


def grid_values(plan: TransformPlan, coeffs: np.ndarray) -> np.ndarray:
    """Grid samples of the coefficient array ``coeffs`` (see ``to_physical``).

    The weighted coefficients go into the grid slots of their modes and the
    unnormalised inverse FFTs (``norm="forward"``) write into that scratch
    buffer, so no pass rescales the grid.
    """
    sizes = plan.sizes
    vals = plan.weight * coeffs
    for axis in reversed(range(len(sizes))):
        buf = np.zeros(vals.shape[:axis] + (sizes[axis],) + vals.shape[axis + 1:],
                       dtype=np.complex128)
        buf[(slice(None),) * axis + (plan.index[axis],)] = vals
        vals = np.fft.ifft(buf, axis=axis, norm="forward", out=buf)
    return vals


def lattice_coeffs(plan: TransformPlan, values: np.ndarray) -> np.ndarray:
    """Coefficient array of the grid samples ``values`` (see ``from_physical``):
    unnormalised FFTs, then 1/(points * weight) in place on the kept modes."""
    spec = values
    for axis in reversed(range(len(plan.sizes))):
        spec = np.fft.fft(spec, axis=axis).take(plan.index[axis], axis=axis)
    spec *= 1.0 / (plan.points * plan.weight)
    return spec


def modulus_squared(values: np.ndarray) -> np.ndarray:
    """|values|^2 as re^2 + im^2, in one new real array."""
    out = np.square(values.real)
    out += np.square(values.imag)
    return out


def dealiased_map(plan: TransformPlan, coeffs: np.ndarray, pointwise) -> np.ndarray:
    """Coefficients of a pointwise map of a field and its |u|^(4/d).

    The coefficient array goes to ``plan``'s grid, ``pointwise(values,
    |values|^(4/d))`` maps the samples, and the result comes back to the
    lattice.  Both arrays are scratch that ``pointwise`` may overwrite and
    return.  On the ``dealiasing_plan`` grid this is exact for the projected
    nonlinearity |u|^(4/d) u.
    """
    vals = grid_values(plan, coeffs)
    potential = modulus_squared(vals)
    power = (plan.geometry.nonlinearity_degree - 1) // 2
    if power > 1:
        potential **= power
    return lattice_coeffs(plan, pointwise(vals, potential))


def to_physical(f: SpectralField, oversample: int = 1) -> np.ndarray:
    """Evaluate the trigonometric polynomial on a uniform grid.

    Grid on axis j has (2K_j+1)*oversample points at x_m = m*side/M.  The
    inverse FFT runs axis by axis, last axis first as ``np.fft.ifftn`` does,
    and each pass transforms only the lines that carry modes: in 2-D the
    axis-1 pass sees the 2K_0+1 occupied rows, not all M_0.
    """
    if oversample < 1:
        raise ValueError(f"oversample={oversample} must be >= 1")
    return grid_values(transform_plan(f.geometry, f.cutoff, grid_sizes(f, oversample)),
                       f.coeffs)


def from_physical(values: np.ndarray, geometry: TorusGeometry, cutoff) -> SpectralField:
    """Recover coefficients from grid samples (grid must resolve the cutoff).

    The forward FFT runs last axis first, as ``np.fft.fftn`` does, and keeps
    only the resolved modes after each pass: in 2-D the axis-0 pass sees the
    2K_1+1 kept columns, not all M_1.
    """
    cut = _cutoff_tuple(cutoff, geometry.dimension)
    if values.ndim != len(cut):
        raise ValueError(f"grid of shape {values.shape} for cutoff {cut}")
    for m, k in zip(values.shape, cut):
        if m < 2 * k + 1:
            raise ValueError(f"grid size {m} too small for cutoff {k}")
    plan = transform_plan(geometry, cut, values.shape)
    return SpectralField(geometry, cut, lattice_coeffs(plan, values))


def grid_points(f: SpectralField, oversample: int = 1) -> tuple[np.ndarray, ...]:
    sizes = grid_sizes(f, oversample)
    return tuple(
        np.arange(m) * (side / m)
        for m, side in zip(sizes, f.geometry.side_lengths)
    )


def pointwise_product(fields: Sequence[SpectralField], conjugate: Sequence[bool]) -> np.ndarray:
    """Grid values of prod_i u_i (or conj u_i), on a grid that avoids aliasing."""
    oversample = (len(fields) + 2) // 2
    vals = None
    for u, c in zip(fields, conjugate):
        v = to_physical(u, oversample)
        v = np.conj(v) if c else v
        vals = v if vals is None else vals * v
    return vals


def integrate_grid(values: np.ndarray, geometry: TorusGeometry) -> complex:
    """Torus integral of grid samples: volume times the mean."""
    return complex(np.mean(values) * geometry.volume)


# -- dyadic shells --------------------------------------------------------------


def sharp_shell_index(kabs) -> np.ndarray:
    """Sharp dyadic level: 1 for |k| < 2, else 2^floor(log2 |k|)."""
    kabs = np.asarray(kabs, dtype=float)
    out = np.ones_like(kabs)
    big = kabs >= 2.0
    out[big] = 2.0 ** np.floor(np.log2(kabs[big]))
    return out


# -- free evolution and space-time norms --------------------------------------


@lru_cache(maxsize=64)
def _free_propagator(geometry: TorusGeometry, cutoff: tuple[int, ...],
                     t: float) -> np.ndarray:
    return _read_only(np.exp(-1j * t * _kabs(geometry, cutoff) ** 2))


def free_evolve(f: SpectralField, t: float) -> SpectralField:
    """Apply the free propagator: each coefficient gains exp(-i t |k|^2).

    The propagator is cached per (geometry, cutoff, t), read-only.
    """
    return f.with_coeffs(_free_propagator(f.geometry, f.cutoff, float(t)) * f.coeffs)


def lp_spacetime_norm(fields: Sequence[SpectralField], p: float, t_end: float) -> float:
    """(int_0^T int |u|^p dx dt)^(1/p) by trapezoid in time over the samples.

    The samples must be uniform on [0, T]; fewer than 4 samples is an error.
    """
    if len(fields) < 4:
        raise ValueError("need at least 4 time samples")
    if p < 2:
        raise ValueError(f"p={p} must be >= 2")
    oversample = max(3, (int(np.ceil(p)) + 2) // 2)
    geometry = fields[0].geometry
    space = np.array([
        np.mean(np.abs(to_physical(u, oversample)) ** p) * geometry.volume
        for u in fields
    ])
    dt = t_end / (len(fields) - 1)
    total = float(np.trapezoid(space, dx=dt))
    return total ** (1.0 / p)


# -- serialization -------------------------------------------------------------

_MAGIC = b"NLSLABF1"


def save_field(path, f: SpectralField) -> None:
    """Little-endian complex128 array prefixed by a JSON header line."""
    header = {
        "dimension": f.geometry.dimension,
        "gamma": list(f.geometry.gamma),
        "lambda": f.geometry.lam,
        "cutoff": list(f.cutoff),
        "dtype": "complex128",
        "layout": "C-order, mode n stored at index n+K per axis",
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(f.coeffs.astype("<c16")).tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a nlslab field file")
        header = json.loads(fh.readline().decode())
        geometry = TorusGeometry(header["dimension"], tuple(header["gamma"]), header["lambda"])
        cutoff = tuple(header["cutoff"])
        le = "<c8" if header["dtype"] == "complex64" else "<c16"
        shape = tuple(2 * k + 1 for k in cutoff)
        data = np.frombuffer(fh.read(), dtype=le).reshape(shape).astype(np.complex128)
    return SpectralField(geometry, cutoff, data)
