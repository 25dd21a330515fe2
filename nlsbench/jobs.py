"""Workload job lists and the output checks that decide whether a job failed.

A workload is a fixed list of jobs run back to back in one process.  Most
jobs are ``nlslab`` CLI invocations (config dict + subcommand); the box job
calls ``nlslab.boxes.fourier_expand`` directly, because box expansion has no
subcommand.  Every job carries a check that reads what the job produced and
returns the problems it found; an empty list means the output is correct.

Inputs depend only on the workload name, the seed and the size ("full" for
the measured runs, "tiny" for the smoke test).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nlslab import boxes
from nlslab.config import validate
from nlslab.multipliers import m_multiplier_symbol, sigma_symbol
from nlslab.smoothing import SmoothingSymbol

WORKLOADS = ("identity-1d", "identity-2d", "spectral", "verification")

# The identity tolerance is this many times the a-posteriori error estimate
# (quadrature + integrator + rounding); see check_energy_track.
IDENTITY_SAFETY = 4.0


@dataclass
class Job:
    name: str
    command: str                  # CLI subcommand, or "boxes"
    config: dict = field(default_factory=dict)
    check: Callable = None        # (out_dir, exit_code, result) -> (problems, facts)
    run: Callable = None          # direct library call for non-CLI jobs


# -- config generation ------------------------------------------------------------


def default_dt(d: int, kcut: int, gamma: float = 1.0) -> float:
    """The program's default step, 0.1 / max|k|^2 on the unit-scale lattice."""
    kmax_sq = kcut ** 2 + ((kcut / gamma) ** 2 if d == 2 else 0.0)
    return 0.1 / kmax_sq


def sampled_horizon(dt: float, stride: int, intervals: int) -> float:
    """t_end that is a whole number of dt steps and a whole number of strides.

    ``evolve`` rejects a t_end that is not a whole number of steps, and it
    always samples the final step, so a step count that is not a multiple of
    the stride leaves a short last interval that the energy identity rejects
    as non-uniform sampling (e.g. kcut=8, default t_end, stride 10).
    """
    if stride < 1 or intervals < 2:
        raise ValueError("need stride >= 1 and at least two sample intervals")
    steps = stride * intervals
    t_end = steps * dt
    if round(t_end / dt) != steps:
        raise ValueError(f"t_end={t_end} is not {steps} steps of dt={dt}")
    return t_end


def track_config(d: int, kcut: int, stride: int, intervals: int,
                 gamma: float = 1.0, **extra) -> dict:
    if d == 2 and not 0.5 < gamma <= 1.0:
        raise ValueError(f"gamma={gamma} must lie in (1/2, 1] for d=2")
    dt = default_dt(d, kcut, gamma)
    cfg = {"d": d, "kcut": kcut, "integrator": "rk4-galerkin", "dt": dt,
           "t_end": sampled_horizon(dt, stride, intervals), "stride": stride}
    if d == 2:
        cfg["gamma"] = gamma
    cfg.update(extra)
    return cfg


def simulate_job(name: str, d: int, kcut: int, integrator: str, steps: int,
                 samples: int, gamma: float = 0.75) -> Job:
    dt = default_dt(d, kcut, gamma)
    cfg = {"d": d, "kcut": kcut, "integrator": integrator, "dt": dt,
           "t_end": sampled_horizon(dt, steps // samples, samples),
           "stride": steps // samples}
    if d == 2:
        cfg["gamma"] = gamma
    return Job(name, "simulate", cfg, check_simulate(cfg))


# -- output checks ----------------------------------------------------------------


def read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in (rows[0] if rows else {})}


def _floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def _exit_problems(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def check_energy_track(out_dir: Path, code: int, _result=None):
    """The modified-energy identity residual is within its error estimate.

    ``energy-track`` exits 0 whatever the residual, so the exit code alone
    proves nothing.  The residual is time-integration plus quadrature error:

    * quadrature: the cumulative integral is Simpson on even prefixes
      (panel error h^5/90 |y''''| ~ h |D4 y| / 90 per panel) with one
      trapezoid step on odd prefixes (h^3/12 |y''| ~ h |D2 y| / 12), where
      y = Lambda(Mbar_n) + Lambda(Mbar_n+4) and D2, D4 are its finite
      differences on the sample grid;
    * integrator: RK4 error in the state moves E_I^1 by as much as it moves
      the truncated energy, whose drift the run records;
    * rounding: about 1e-13 per sample of the largest |E_I^1|.
    """
    problems = _exit_problems(code)
    path = out_dir / "energy_track.csv"
    if not path.exists():
        return problems + ["energy_track.csv missing"], {}
    c = {k: _floats(v) for k, v in read_csv(path).items()}
    t, y = c["t"], c["lambda_mbar_n"] + c["lambda_mbar_n4"]
    h = float(t[1] - t[0])
    d2 = np.abs(np.diff(y, 2))
    d4 = np.abs(np.diff(y, 4)) if len(y) > 4 else np.zeros(1)
    quadrature = h * d2.max() / 12 + (len(y) // 2) * h * d4.max() / 90
    integrator = float(np.max(np.abs(c["energy"] - c["energy"][0])))
    rounding = 1e-13 * len(y) * float(np.max(np.abs(c["e_i1"])))
    tol = IDENTITY_SAFETY * (quadrature + integrator + rounding)
    rmax = float(np.max(np.abs(c["residual"])))
    if not np.isfinite(rmax) or rmax > tol:
        problems.append(f"identity residual {rmax:.3e} exceeds tolerance {tol:.3e}")
    return problems, {"residual_max": rmax, "residual_tol": tol}


# Drift bounds for ``simulate``.  The step is the program's default,
# dt = 0.1/max|k|^2, so the fastest linear phase turns 0.1 rad per step.
#  * rk4-galerkin: |R(i z)|^2 = 1 - z^6/72 + O(z^8) for RK4, so each step
#    loses at most (0.1)^6/72 of the fastest mode's mass and kinetic
#    energy; the bound is that loss times the step count, times 4.
#  * strang: the free flight and the nonlinear phase are exact and unitary,
#    so mass changes only through re-truncation (below 1e-12 per step at
#    these masses, 4e-12 allowed); the energy error is O(dt^2) times the
#    nonlinear share of the energy, which is below 1e-4 at the default
#    data.mass = 0.01, so (0.1)^2 * 1e-4 = 1e-6 relative.
RK4_STEP_LOSS = 0.1 ** 6 / 72


def simulate_bounds(integrator: str, steps: int) -> tuple[float, float]:
    if integrator == "rk4-galerkin":
        b = 4 * steps * RK4_STEP_LOSS
        return b, b
    return 4e-12 * steps, 1e-6


def check_simulate(cfg: dict):
    steps = round(cfg["t_end"] / cfg["dt"])
    mass_bound, energy_bound = simulate_bounds(cfg["integrator"], steps)

    def check(out_dir: Path, code: int, _result=None):
        problems = _exit_problems(code)
        path = out_dir / "monitor.csv"
        if not path.exists():
            return problems + ["monitor.csv missing"], {}
        guards = json.loads((out_dir / "manifest.json").read_text())["guards"]
        if guards.get("aborted"):
            problems.append("trajectory aborted")
        c = {k: _floats(v) for k, v in read_csv(path).items()}
        m_drift = float(np.max(np.abs(c["mass"] - c["mass"][0])) / abs(c["mass"][0]))
        e_drift = float(np.max(np.abs(c["energy"] - c["energy"][0])) / abs(c["energy"][0]))
        if not m_drift <= mass_bound:
            problems.append(f"relative mass drift {m_drift:.3e} > {mass_bound:.1e}")
        if not e_drift <= energy_bound:
            problems.append(f"relative energy drift {e_drift:.3e} > {energy_bound:.1e}")
        return problems, {"mass_drift": m_drift, "energy_drift": e_drift}
    return check


def check_strichartz(out_dir: Path, code: int, _result=None):
    problems = _exit_problems(code)
    path = out_dir / "strichartz.csv"
    if not path.exists():
        return problems + ["strichartz.csv missing"], {}
    c = read_csv(path)
    flags = [f for k, f in zip(c["kind"], c["flag"]) if k.startswith("calibration")]
    if len(flags) != 2 or any(flags):
        problems.append(f"calibration flags {flags}")
    return problems, {}


def check_census(out_dir: Path, code: int, _result=None):
    problems = _exit_problems(code)
    manifest = out_dir / "manifest.json"
    if not manifest.exists():
        return problems + ["manifest.json missing"], {}
    violations = json.loads(manifest.read_text())["guards"].get("violations")
    if violations != 0:
        problems.append(f"census violations {violations}")
    return problems, {}


def check_verify(out_dir: Path, code: int, _result=None):
    return _exit_problems(code), {}


def check_boxes(_out_dir: Path, _code: int, errors):
    """Reconstruction at random interior points is within the expansion's rtol."""
    problems = [f"expansion {i}: relative error {err:.3e} > rtol {BOX_RTOL:.0e}"
                for i, err in enumerate(errors) if not err <= BOX_RTOL]
    return problems, {"box_error_max": max(errors)}


# -- the box job --------------------------------------------------------------------

# One-dimensional six-slot boxes: a near-collision box crossing the
# transition annulus of m, a full-shell box, and a high-frequency box of
# unit cells.  Two-dimensional slot boxes are not in the job list: at this
# commit any of them costs 14-18 s (about 1400 quadrature rebuilds per box,
# whatever the truncation), six times the rest of the workload; the 1-D
# boxes run the same per-axis expansion kernel.
BOXES_1D = (
    ((6.0, 3.0), (-6.0, 3.0), (5.5, 2.5), (-5.5, 2.5), (1.0, 2.0), (0.0, 2.0)),
    ((12.0, 8.0), (-12.0, 8.0), (10.0, 4.0), (-10.0, 4.0), (1.0, 2.0), (-1.0, 2.0)),
    ((60.0, 1.0), (-61.0, 1.0), (40.0, 1.0), (-40.0, 1.0), (30.5, 1.0), (-29.5, 1.0)),
)
BOX_RTOL = 1e-6
BOX_TRUNC = 8


def box_job(seed: int, box_specs, points: int) -> Job:
    sym = SmoothingSymbol(N=4.0, alpha=0.5)
    symbols = (m_multiplier_symbol(6, sym), sigma_symbol(6, sym))
    specs = [boxes.MultiplierBox(b) for b in box_specs]

    def run():
        rng = np.random.default_rng(seed)
        out = []
        for box in specs:
            for s in symbols:
                exp = boxes.fourier_expand(s, box, trunc=BOX_TRUNC, order=6,
                                           rtol=BOX_RTOL)
                pts = np.stack([c + rng.uniform(-0.48, 0.48, points) * L
                                for c, L in box.intervals], axis=-1)
                exact = s(pts)
                err = np.max(np.abs(exp.reconstruct(pts) - exact)) / np.max(np.abs(exact))
                out.append(float(err))
        return out

    return Job("boxes-1d", "boxes", check=check_boxes, run=run)


# -- workloads ----------------------------------------------------------------------


def build_jobs(workload: str, seed: int, size: str = "full") -> list:
    """The job list of one workload.  ``size='tiny'`` shrinks every job."""
    tiny = size == "tiny"
    if workload == "identity-1d":
        k, stride, intervals = (4, 2, 4) if tiny else (7, 8, 8)
        return [Job("energy-track-1d", "energy-track",
                    track_config(1, k, stride, intervals), check_energy_track)]
    if workload == "identity-2d":
        k, stride, intervals = (2, 2, 2) if tiny else (5, 4, 4)
        return [Job("energy-track-2d", "energy-track",
                    track_config(2, k, stride, intervals, gamma=0.75,
                                 **{"energy.n_cut": 2.0}),
                    check_energy_track)]
    if workload == "spectral":
        k2, s2, k1, s1 = (8, 18, 8, 20) if tiny else (32, 600, 32, 400)
        m_grid, samples = ("4", 2) if tiny else ("4,8,16", 10)
        return [
            simulate_job("simulate-2d-strang", 2, k2, "strang", s2, 6),
            simulate_job("simulate-1d-rk4", 1, k1, "rk4-galerkin", s1, 10),
            Job("strichartz", "strichartz", {"m_grid": m_grid, "samples": samples},
                check_strichartz),
        ]
    if workload == "verification":
        kmax = 6 if tiny else 13
        verify = ({"cases": "ii", "n_grid": "4", "kmax_per_n": 1} if tiny else
                  {"cases": "ii,nonresonant", "n_grid": "4,6", "kmax_per_n": 2})
        return [
            Job("census-1d", "census",
                {"d": 1, "kmax": kmax, "n_grid": "4,8", "gap_grid": "4"}, check_census),
            Job("verify", "verify", dict(verify, gap_grid="4"), check_verify),
            box_job(seed, BOXES_1D[:1] if tiny else BOXES_1D, 50 if tiny else 300),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def validate_jobs(jobs) -> None:
    """What set-up covers: every CLI config passes the program's schema."""
    for job in jobs:
        if job.run is None:
            validate(job.command, dict(job.config))
