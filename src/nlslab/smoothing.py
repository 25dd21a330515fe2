"""Smoothing multiplier and the well-posedness iteration arithmetic.

The smoothing symbol of threshold N and order alpha is

    m(xi) = 1                   for |xi| <= N,
    m(xi) = (N/|xi|)**alpha      for |xi| >= 2N,

joined on N < |xi| < 2N by a C^infinity radial interpolant: in the variable
t = log2(|xi|/N) in [0, 1] we set m = 2**(-alpha * phi(t)) with

    phi(t) = t * ramp(sqrt(t)),    ramp(x) = z(x) / (z(x) + z(1-x)),
    z(x) = exp(-1/x) for x > 0,

which is flat to all orders at both junctions.  phi is nondecreasing with
max phi' ~= 1.39, so xi -> m(xi)|xi| is nondecreasing for alpha <= ~0.72;
construction rejects larger orders by default (the regimes of interest have
alpha = 1 - s < 2/3).  Derivative-growth constants of the interpolant are
implementation defined; nothing here assumes their values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SpectralField

# max slope of phi on [0,1]; measured on a fine grid, rounded up.
PHI_MAX_SLOPE = 1.40
ALPHA_MAX = 1.0 / PHI_MAX_SLOPE


def _ramp(x):
    """C^infinity monotone ramp: 0 for x<=0, 1 for x>=1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    za = np.exp(-1.0 / xm)
    zb = np.exp(-1.0 / (1.0 - xm))
    out[mid] = za / (za + zb)
    return out


def transition_exponent(t):
    """phi(t): 0 below 0, t above 1, C^infinity-flat at both junctions."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, t, 0.0)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    out[mid] = tm * _ramp(np.sqrt(tm))
    return out


@dataclass(frozen=True)
class SmoothingSymbol:
    """Threshold N >= 1 and order alpha >= 0 of the smoothing multiplier."""

    N: float
    alpha: float

    def __post_init__(self):
        if not self.N >= 1.0:
            raise ValueError(f"N={self.N} must be >= 1")
        if not 0.0 <= self.alpha <= ALPHA_MAX:
            raise ValueError(
                f"alpha={self.alpha} outside [0, {ALPHA_MAX:.3f}] "
                "(larger orders would break monotonicity of m(xi)*|xi|)"
            )

    def __call__(self, xi):
        return m_value(xi, self)


def m_value(xi, sym: SmoothingSymbol):
    """Symbol value at physical frequency xi (scalar, array, or d-vector)."""
    r = np.abs(np.asarray(xi, dtype=float))
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.ones_like(r)
    above = r > sym.N
    if np.any(above):
        t = np.log2(r[above] / sym.N)
        out[above] = 2.0 ** (-sym.alpha * transition_exponent(t))
    return float(out[0]) if scalar else out


def apply_I(f: SpectralField, sym: SmoothingSymbol) -> SpectralField:
    """Coefficientwise multiplication by the smoothing symbol."""
    return f.with_coeffs(m_value(f.kabs(), sym) * f.coeffs)


# -- iteration arithmetic ------------------------------------------------------


@dataclass(frozen=True)
class ScalingPlan:
    """Exponent bookkeeping of the rescale-and-iterate argument.

    ``ideal_exponent`` is the closed-form unit-torus existence exponent with
    epsilon and slack sent to zero (3 - 1/s in 1d, 5/2 - 3/(2s) in 2d);
    ``total_existence_exponent`` keeps the configured losses.
    """

    d: int
    s: float
    epsilon: float
    delta: float
    slack: float
    N: float
    lam: float
    per_step_time: float
    step_count_exponent: float
    rescaled_time_exponents: tuple[float, float]  # (N-exponent, lam-exponent)
    ideal_exponent: float
    total_existence_exponent: float
    globally_iterable: bool


def gwp_budget(d: int, s: float, N: float, epsilon: float = 0.01,
               delta: float = 0.1, slack: float = 0.0) -> ScalingPlan:
    """Concrete numbers for the iteration at threshold N and regularity s.

    1d: lam = N^((1-s)/s + eps), local steps of length lam/N, N^(3-slack)
    of them; scaling back divides time by lam^2, so the unit-torus horizon
    is N^(3 - 1/s - eps - slack).  2d: lam = N^((1-s)/s), steps of lam^(-delta),
    total rescaled horizon N^(1-slack) lam^(1/2), i.e. N^(5/2 - 3/(2s) - slack)
    on the unit torus.  ``slack`` stands in for the unquantified loss in the
    step-count exponent.
    """
    if d not in (1, 2):
        raise ValueError(f"d={d} must be 1 or 2")
    if not (0.0 < s < 1.0):
        raise ValueError(f"s={s} outside (0, 1)")
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    rel = (1.0 - s) / s
    if d == 1:
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0 in one dimension")
        lam_exp = rel + epsilon
        lam = N ** lam_exp
        per_step = lam / N
        step_exp = 3.0 - slack
        # rescaled horizon: per_step * N^step_exp = lam * N^(2-slack)
        rescaled = (2.0 - slack, 1.0)
        total = 2.0 - slack + lam_exp - 2.0 * lam_exp  # divide by lam^2
        ideal = 3.0 - 1.0 / s
    else:
        lam_exp = rel
        lam = N ** lam_exp
        per_step = lam ** (-delta)
        # total rescaled horizon N^(1-slack) lam^(1/2); step count follows
        rescaled = (1.0 - slack, 0.5)
        step_exp = 1.0 - slack + (0.5 + delta) * lam_exp
        total = 1.0 - slack + 0.5 * lam_exp - 2.0 * lam_exp
        ideal = 2.5 - 1.5 / s
    return ScalingPlan(
        d=d, s=s, epsilon=epsilon if d == 1 else 0.0, delta=delta if d == 2 else 0.0,
        slack=slack, N=N, lam=lam, per_step_time=per_step,
        step_count_exponent=step_exp, rescaled_time_exponents=rescaled,
        ideal_exponent=ideal, total_existence_exponent=total,
        globally_iterable=total > 0,
    )


def total_exponent(d: int, s: float) -> float:
    """Closed-form unit-torus existence exponent (epsilon, slack -> 0)."""
    if d == 1:
        return 3.0 - 1.0 / s
    if d == 2:
        return 2.5 - 1.5 / s
    raise ValueError(f"d={d} must be 1 or 2")
