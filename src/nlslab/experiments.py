"""Batch experiment runners behind the command-line interface.

Every runner takes a validated config, writes one run directory (manifest,
CSV tables with fixed schemas, a human-readable summary) and returns a
process exit code: 0 on success, 2 when an invariant check failed (the
summary names the witness).  Identical config and seed reproduce identical
CSV bytes; Monte-Carlo fallbacks and capped horizons are flagged in the
rows they affect.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .census import (DEFAULT_S, VERIFY_CASES, _key_width, resonance_census_1d,
                     resonance_census_2d, sohinger_presence, verify_multiplier_bounds)
from .classify import Thresholds, is_nonresonant
from .config import write_csv, write_manifest
from .dynamics import EvolutionConfig, default_dt, evolve, initial_data, step_grid
from .energies import _Lattice, energy_identity_residual
from .geometry import (_smooth5_length, build_geometry, field_from_modes, free_evolve,
                       lp_spacetime_norm, norm, save_field)
from .smoothing import SmoothingSymbol, apply_I, gwp_budget, total_exponent

CENSUS_COLUMNS = ["class", "count", "min_abs_omega", "min_omega_ratio",
                  "max_ratio", "witness_tuple"]
TRACK_COLUMNS = ["t", "mass", "energy", "e_i1", "correction", "e_i2",
                 "lambda_mbar_n", "lambda_mbar_n4", "residual"]


# energy-track and almost-conservation fail when max|residual| at some N
# exceeds this many times its a-posteriori error estimate (identity_tolerance).
IDENTITY_SAFETY = 4.0


def _geometry(cfg):
    d = cfg["d"]
    gamma = (cfg["gamma"],) if d == 2 else ()
    return build_geometry(d, gamma, cfg["lambda"])


def _summary(out_dir: Path, lines):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


# -- simulate / energy-track ----------------------------------------------------


def run_simulate(cfg: dict, out_dir: Path) -> int:
    g = _geometry(cfg)
    rng = np.random.default_rng(cfg["seed"])
    u0 = initial_data(g, cfg["kcut"], kind=cfg["data.kind"], rng=rng,
                      s=cfg["data.s"], mass_target=cfg["data.mass"])
    dt = cfg["dt"] or None
    evo = EvolutionConfig(g, cfg["kcut"], sign=cfg["sign"],
                          integrator=cfg["integrator"], dt=dt,
                          t_end=cfg["t_end"], sample_stride=cfg["stride"])
    traj = evolve(evo, u0)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [{"t": r["t"], "mass": r["mass"], "energy": r["energy"]}
            for r in traj.reports]
    write_csv(out_dir / "monitor.csv", ["t", "mass", "energy"], rows)
    if cfg["checkpoint"]:
        save_field(out_dir / "final_state.nlsf", traj.final)
    guards = {"aborted": traj.aborted, **traj.diagnostics}
    write_manifest(out_dir, "simulate", cfg, {"seed": cfg["seed"]}, guards)
    _summary(out_dir, [
        f"simulate: {len(traj.times)} samples to t={traj.times[-1]}",
        f"mass drift: {abs(rows[-1]['mass'] - rows[0]['mass']):.3e}",
        f"energy drift: {abs(rows[-1]['energy'] - rows[0]['energy']):.3e}",
        f"aborted: {traj.aborted}",
    ])
    return 2 if traj.aborted else 0


def _abort_lines(traj) -> list[str]:
    """The summary line that names the step at which ``traj`` aborted."""
    if not traj.aborted:
        return []
    d = traj.diagnostics
    return [f"TRAJECTORY ABORTED at step {d['failed_step']} (t={d['t']!r}): {d['reason']}"]


def identity_tolerance(t, y, energy, e_i1) -> float:
    """IDENTITY_SAFETY times the error estimate of the identity residual.

    The residual is time-integration plus quadrature error:

    * quadrature: the cumulative integral is Simpson on even prefixes
      (panel error h^5/90 |y''''| ~ h |D4 y| / 90 per panel) with one
      trapezoid step on odd prefixes (h^3/12 |y''| ~ h |D2 y| / 12), where
      y = Lambda(Mbar_n) + Lambda(Mbar_n+4) and D2, D4 are its finite
      differences on the sample grid;
    * integrator: RK4 error in the state moves E_I^1 by as much as it moves
      the truncated energy, whose drift the run records;
    * rounding: about 1e-13 per sample of the largest |E_I^1|.
    """
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    energy = np.asarray(energy, dtype=float)
    h = float(t[1] - t[0])
    d2 = np.abs(np.diff(y, 2))
    d4 = np.abs(np.diff(y, 4)) if len(y) > 4 else np.zeros(1)
    quadrature = h * d2.max() / 12 + (len(y) // 2) * h * d4.max() / 90
    integrator = float(np.max(np.abs(energy - energy[0])))
    rounding = 1e-13 * len(y) * float(np.max(np.abs(e_i1)))
    return float(IDENTITY_SAFETY * (quadrature + integrator + rounding))


def _identity_run(u0, evo, Ns, s, sign, gap, budget):
    """The trajectory of ``evo`` from ``u0``, refused before integrating on
    an over-budget lattice or on samples the identity cannot use, and
    ``energy_identity_residual`` along it at every N of ``Ns``, with
    max|residual| and its ``identity_tolerance`` per N (a NaN residual
    fails); the residual's dict also holds ``evolve_s``, the integration's
    wall seconds.  A trajectory that aborts before its third sample leaves no
    identity to check: the three are then None."""
    _Lattice.check_budget(u0, u0.geometry.nonlinearity_degree + 1, budget)
    dt, steps = step_grid(evo, u0)
    stride = evo.sample_stride
    if steps % stride or steps < 2 * stride:
        raise ValueError(f"sample stride {stride} over {steps} steps (t_end={evo.t_end}, dt={dt})"
                         ": it must divide them (uniform samples) and leave at least three "
                         "samples; choose stride/samples to fit")
    start = time.perf_counter()
    traj = evolve(evo, u0)
    evolve_s = time.perf_counter() - start
    if len(traj.samples) < 3:
        return traj, None, None, None
    out = energy_identity_residual(traj.samples, traj.times, Ns, s, sign=sign,
                                   thresholds=Thresholds(gap=gap), budget=budget)
    out["evolve_s"] = evolve_s
    energy = [r["energy"] for r in traj.reports]
    tol = [identity_tolerance(out["t"], y, energy, e1)
           for y, e1 in zip(out["lambda_mbar"] + out["lambda_mbar_big"], out["e_i1"])]
    return traj, out, np.max(np.abs(out["residual"]), axis=1), np.array(tol)


def _early_abort(out_dir: Path, command: str, cfg: dict, traj) -> int:
    """Manifest and summary of a run whose trajectory aborted before its
    third sample; exit code 2."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, command, cfg, {"seed": cfg["seed"]},
                   {"aborted": traj.aborted, **traj.diagnostics})
    _summary(out_dir, [f"{command}: {len(traj.samples)} samples, too few for the identity",
                       *_abort_lines(traj)])
    return 2


def run_energy_track(cfg: dict, out_dir: Path) -> int:
    g = _geometry(cfg)
    rng = np.random.default_rng(cfg["seed"])
    if cfg["data.kind"] == "hs_random" and cfg["data.modes"]:
        # sparse random data: a few excited modes, drawn as composite indices
        K = cfg["kcut"]
        shape = (2 * K + 1,) * g.dimension
        count = int(np.prod(shape))
        if cfg["data.modes"] > count:
            raise ValueError(f"data.modes={cfg['data.modes']} exceeds the {count} modes at kcut={K}")
        modes = {}
        for q in rng.choice(count, size=cfg["data.modes"], replace=False):
            mode = tuple(int(i) - K for i in np.unravel_index(q, shape))
            modes[mode] = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
        u0 = field_from_modes(g, K, modes)
    else:
        u0 = initial_data(g, cfg["kcut"], kind=cfg["data.kind"], rng=rng,
                          s=cfg["data.s"], mass_target=cfg["data.mass"])
    dt = cfg["dt"] or None
    evo = EvolutionConfig(g, cfg["kcut"], sign=cfg["sign"],
                          integrator=cfg["integrator"], dt=dt,
                          t_end=cfg["t_end"], sample_stride=cfg["stride"])
    N, s = cfg["energy.n_cut"], cfg["energy.s"]
    traj, out, rmax, tol = _identity_run(u0, evo, [N], s, cfg["sign"],
                                         cfg["gap_factor"], cfg["budget"])
    if out is None:
        return _early_abort(out_dir, "energy-track", cfg, traj)
    (rmax,), (tol,) = rmax, tol
    keys = ("e_i1", "correction", "e_i2", "lambda_mbar", "lambda_mbar_big", "residual")
    rows = [{"t": float(t), "mass": rep["mass"], "energy": rep["energy"],
             **{col: float(out[key][0, i]) for col, key in zip(TRACK_COLUMNS[3:], keys)}}
            for i, (t, rep) in enumerate(zip(out["t"], traj.reports))]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "energy_track.csv", TRACK_COLUMNS, rows)
    identity_ok = rmax <= tol
    write_manifest(out_dir, "energy-track", cfg, {"seed": cfg["seed"]},
                   {"aborted": traj.aborted, "imag_leak": float(out["imag_leak"][0]),
                    "residual_max": rmax, "residual_tol": tol,
                    "walk_tuples": out["walk_tuples"], "budget_tuples": out["budget_tuples"],
                    "evolve_s": out["evolve_s"], "walk_s": out["walk_s"]})
    e1, e2 = out["e_i1"][0], out["e_i2"][0]
    _summary(out_dir, [
        f"energy-track: N={N} s={s} residual max {rmax:.3e} (tolerance {tol:.3e})",
        f"E_I^2 increment: {float(np.max(np.abs(e2 - e2[0]))):.3e}",
        f"E_I^1 increment: {float(np.max(np.abs(e1 - e1[0]))):.3e}",
        "identity ok" if identity_ok else "IDENTITY RESIDUAL ABOVE TOLERANCE",
        *_abort_lines(traj),
    ])
    return 0 if identity_ok and not traj.aborted else 2


# -- strichartz probes -----------------------------------------------------------


def _interval_modes(lo: float, hi: float, lam: float) -> np.ndarray:
    return np.arange(int(np.ceil(lo * lam)), int(np.floor(hi * lam)) + 1) / lam


# Bytes per block of time rows that a packet draw transforms at once, counted
# at 16 B per padded complex entry: each of the block's complex64 FFT outputs
# takes about half of it, whatever the number of rows.
_DRAW_CHUNK_BYTES = 1 << 20


class PacketNorms(np.ndarray):
    """The norms of a packet draw's samples, a float array, carrying
    ``quad_gap``: per draw, |I_h - I_2h| / I_h for the trapezoid integrals
    I_h and I_2h of the squared norm over [0, t_m] at the time step h and at
    2h, where t_m is the last sample of even index."""

    quad_gap = None


def bilinear_packet_norms(M: float, n_freq: float, lam: float, draws: int,
                          rng, coherent: bool = True,
                          dtype=np.complex64) -> PacketNorms:
    """||P_I1 e^{it dxx} f1 . P_I2 e^{it dxx} f2||_{L2_tx} over random draws.

    Frequency intervals [-3M/2, -M/2] and [M/2, 3M/2] (separation M inside
    [-10M, 10M]); the product norm is computed in coefficient space.  Per
    time row the product's coefficients are the linear convolution of the
    two packets, of length len1+len2-1; zero-padded to a 5-smooth length
    ``pad`` >= that, its squared l2 norm is pad * sum|fa.fb|^2 by Parseval,
    where fa, fb are the padded packets' orthonormal DFTs, so a draw costs
    two batched FFTs and no inverse.  The orthonormal factor is a real of
    the packets' precision, which keeps numpy's FFT of complex64 packets in
    single precision; the row sums accumulate in double.  The second
    interval's modes are the first's negated and reversed, so one phase
    array serves both: the second packet multiplies a contiguous copy of
    each block's reversed phases, as numpy's complex64 product with a
    reversed view of one or two rows can round differently.  Every step is
    row by row, so the phases and each draw run in blocks of time rows
    (``_DRAW_CHUNK_BYTES``), with the same arithmetic as on all rows at
    once.  Coherent draws are amplitude-jittered co-located wave packets
    (the extremizing class); incoherent draws are random-phase.
    """
    T = lam / n_freq
    k1 = _interval_modes(-1.5 * M, -0.5 * M, lam)
    k2 = _interval_modes(0.5 * M, 1.5 * M, lam)
    L = 2 * np.pi * lam
    n_t = int(min(4096, max(96, np.ceil(5 * M * M * T))))
    t = np.linspace(0.0, T, n_t)
    h = T / (n_t - 1)
    even = n_t - 1 - (n_t - 1) % 2  # last even row: the end of both rules
    pad = _smooth5_length(len(k1) + len(k2) - 1)
    rows = max(1, _DRAW_CHUNK_BYTES // (pad * 16))
    chunks = [slice(lo, lo + rows) for lo in range(0, n_t, rows)]
    phase = np.empty((n_t, len(k1)), dtype=dtype)  # of k1; k2's is phase[:, ::-1]
    for c in chunks:
        phase[c] = np.exp(-1j * np.outer(t[c], k1**2))
    sq = np.empty(n_t)
    out = np.empty(draws).view(PacketNorms)
    out.quad_gap = np.empty(draws)
    for i in range(draws):
        if coherent:
            a = 1 + 0.2 * (rng.standard_normal(len(k1)) + 1j * rng.standard_normal(len(k1)))
            b = 1 + 0.2 * (rng.standard_normal(len(k2)) + 1j * rng.standard_normal(len(k2)))
        else:
            a = np.exp(2j * np.pi * rng.random(len(k1)))
            b = np.exp(2j * np.pi * rng.random(len(k2)))
        a = (a / np.sqrt(L * np.sum(np.abs(a) ** 2))).astype(dtype)
        b = (b / np.sqrt(L * np.sum(np.abs(b) ** 2))).astype(dtype)
        for c in chunks:
            fa = np.fft.fft(a[None, :] * phase[c], n=pad, axis=1, norm="ortho")
            fb = np.fft.fft(b[None, :] * np.ascontiguousarray(phase[c, ::-1]), n=pad, axis=1,
                            norm="ortho")
            fa *= fb
            prod = fa.view(fa.real.dtype)  # (re, im) pairs: sum of squares = |.|^2
            sq[c] = (L * pad) * np.einsum("ij,ij->i", prod, prod, dtype=np.float64)
        out[i] = np.sqrt(np.trapezoid(sq, dx=h))
        fine = np.trapezoid(sq[:even + 1], dx=h)
        out.quad_gap[i] = abs(fine - np.trapezoid(sq[:even + 1:2], dx=2 * h)) / fine
    return out


def bilinear_plane_wave_check(n_freq: float, lam: float) -> dict:
    """Single-mode calibration: product modulus is constant, norm closed form."""
    T = lam / n_freq
    c1, c2 = 0.7 - 0.2j, 0.4 + 0.9j
    k1 = np.array([3.0 / lam])
    k2 = np.array([11.0 / lam])
    L = 2 * np.pi * lam
    n_t = 128
    t = np.linspace(0, T, n_t)
    prod = (c1 * np.exp(-1j * np.outer(t, k1**2))) * (c2 * np.exp(-1j * np.outer(t, k2**2)))
    sq = L * np.sum(np.abs(prod) ** 2, axis=1)
    measured = float(np.sqrt(np.trapezoid(sq, dx=T / (n_t - 1))))
    expected = abs(c1) * abs(c2) * np.sqrt(L * T)
    return {"measured": measured, "expected": float(expected),
            "error": abs(measured - expected)}


def linear_l6_plane_wave_check(n_freq: float, lam: float) -> dict:
    """Single-mode calibration of ``lp_spacetime_norm`` on the free flow:
    |e^{it dxx} u| = |c| everywhere, so ||u||_{L6([0,T] x torus)} has the
    closed form |c| (L T)^(1/6)."""
    T = lam / n_freq
    c = 0.8 + 0.1j
    g = build_geometry(1, (), lam)
    L = g.side_lengths[0]
    u0 = field_from_modes(g, 3, {3: c * g.volume})  # physical amplitude c
    samples = [free_evolve(u0, t) for t in np.linspace(0.0, T, 5)]
    measured = lp_spacetime_norm(samples, 6, T)
    expected = abs(c) * (L * T) ** (1 / 6)
    return {"measured": measured, "expected": float(expected),
            "error": abs(measured - expected)}


def run_strichartz(cfg: dict, out_dir: Path) -> int:
    lam, n_freq = cfg["lambda"], cfg["n_freq"]
    for key in ("lambda", "n_freq"):
        if not cfg[key] > 0:
            raise ValueError(f"{key}={cfg[key]} must be > 0")
    if cfg["samples"] < 1:
        raise ValueError(f"samples={cfg['samples']} must be >= 1")
    _need("m_grid", cfg["m_grid"], "M")
    if min(cfg["m_grid"]) < 1:
        raise ValueError(f"m_grid={cfg['m_grid']} needs every M >= 1")
    rows = []
    cal = bilinear_plane_wave_check(n_freq, lam)
    rows.append({"kind": "calibration-bilinear", "M": 0, "N": n_freq,
                 "lambda": lam, "T": lam / n_freq, "samples": 1,
                 "max_norm": cal["measured"], "mean_norm": cal["expected"],
                 "flag": "" if cal["error"] < 1e-10 else "calibration-error"})
    l6 = linear_l6_plane_wave_check(n_freq, lam)
    rows.append({"kind": "calibration-l6", "M": 0, "N": n_freq, "lambda": lam,
                 "T": lam / n_freq, "samples": 1, "max_norm": l6["measured"],
                 "mean_norm": l6["expected"],
                 "flag": "" if l6["error"] < 1e-10 else "calibration-error"})

    def one(args):
        M, coherent = args
        rng = np.random.default_rng((cfg["seed"], int(M), int(coherent)))
        vals = bilinear_packet_norms(M, n_freq, lam, cfg["samples"], rng, coherent)
        return {"kind": "packet" if coherent else "random-phase", "M": int(M),
                "N": n_freq, "lambda": lam, "T": lam / n_freq,
                "samples": cfg["samples"], "max_norm": float(np.max(vals)),
                "mean_norm": float(np.mean(vals)),
                "quad_gap": float(np.max(vals.quad_gap)), "flag": ""}

    jobs = [(M, coh) for coh in (True, False) for M in cfg["m_grid"]]
    if cfg["threads"] > 1:
        with ThreadPoolExecutor(cfg["threads"]) as ex:
            rows.extend(ex.map(one, jobs))
    else:
        rows.extend(map(one, jobs))

    packets = [r for r in rows if r["kind"] == "packet"]
    fit = {"slope": None}
    if len(packets) >= 2:
        xs = np.log([r["M"] for r in packets])
        ys = np.log([r["max_norm"] for r in packets])
        fit["slope"] = float(np.polyfit(xs, ys, 1)[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = ["kind", "M", "N", "lambda", "T", "samples", "max_norm", "mean_norm", "quad_gap",
            "flag"]
    write_csv(out_dir / "strichartz.csv", cols, rows)
    write_manifest(out_dir, "strichartz", cfg, {"seed": cfg["seed"]},
                   {"fit_slope": fit["slope"]})
    ok = cal["error"] < 1e-10 and l6["error"] < 1e-10
    _summary(out_dir, [
        f"bilinear packet slope vs M: {fit['slope']}",
        f"plane-wave calibration error: {cal['error']:.2e}",
        f"L6 plane-wave calibration error: {l6['error']:.2e}",
        "calibration ok" if ok else "CALIBRATION FAILED",
    ])
    return 0 if ok else 2


# -- census / verify -------------------------------------------------------------


def _need(key: str, values, what: str) -> None:
    """Refuse an empty list, with which a run would exit 0 having checked nothing."""
    if not values:
        raise ValueError(f"{key} is empty: it needs at least one {what}")


def run_census(cfg: dict, out_dir: Path) -> int:
    if cfg["d"] not in (1, 2):
        raise ValueError(f"d={cfg['d']} must be 1 or 2")
    _need("n_grid", cfg["n_grid"], "N")
    _need("gap_grid", cfg["gap_grid"], "gap")
    th_grid = [Thresholds(gap=g) for g in cfg["gap_grid"]]
    rows, walks = [], []
    violations = 0
    witness = None
    census = resonance_census_1d if cfg["d"] == 1 else resonance_census_2d
    if not cfg["s"]:  # 0: the census's own default for the dimension
        cfg = dict(cfg, s=DEFAULT_S[cfg["d"]])
    for th in th_grid:
        reports = census(cfg["n_grid"], cfg["kmax"], s=cfg["s"], thresholds=th,
                         budget=cfg["budget"])
        # one walk per gap serves every N
        walk = next(iter(reports.values()))
        walks.append({"gap": th.gap, "representatives": walk.representatives,
                      "tuples": walk.total})
        for N, rep in sorted(reports.items()):
            fams = rep.counts_by_family()
            for row in rep.rows():
                row.update({"N": N, "gap": th.gap, "kmax": cfg["kmax"]})
                rows.append(row)
            violations += rep.violations
            if rep.violations and witness is None:
                # a violating non-resonant class's witness is its first
                # zero-|Omega| tuple; resonant classes may reach 0 legitimately
                witness = next(st.witness for code, st in sorted(rep.classes.items())
                               if is_nonresonant(code) and st.min_abs_omega == 0.0)
            total_check = sum(fams.values()) == rep.total
            if not total_check:
                violations += 1
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "census.csv",
              ["N", "gap", "kmax"] + CENSUS_COLUMNS, rows)
    soh = sohinger_presence(cfg["kmax"], N=min(cfg["n_grid"])) if cfg["d"] == 1 else []
    guards = {"violations": violations,
              "sohinger": [s_["K"] for s_ in soh if s_["resonant"] and s_["omega"] == 0],
              "walks": walks}
    write_manifest(out_dir, "census", cfg, {"seed": cfg["seed"]}, guards)
    lines = [f"census d={cfg['d']} kmax={cfg['kmax']}: {len(rows)} class rows",
             f"violations: {violations}"]
    if witness is not None:
        lines.append(f"witness tuple: {witness}")
    _summary(out_dir, lines)
    return 2 if violations else 0


def run_verify(cfg: dict, out_dir: Path) -> int:
    cases = [c.strip() for c in cfg["cases"].split(",") if c.strip()]
    _need("cases", cases, "case")
    for c in cases:
        if c not in VERIFY_CASES:
            raise ValueError(f"unknown verify case {c!r}")
    _need("n_grid", cfg["n_grid"], "N")
    _need("gap_grid", cfg["gap_grid"], "gap")
    if cfg["kmax_per_n"] < 1:
        raise ValueError(f"kmax_per_n={cfg['kmax_per_n']} must be at least 1")
    if any(not c.startswith("2d") for c in cases):
        # a family cutoff past the keys' limit is refused before any N runs
        for N in cfg["n_grid"]:
            _key_width(int(cfg["kmax_per_n"] * N))
    # one call per N and cutoff, one pass per gap in it: the family cases
    # share their tuples, and every gap the call's random draws
    reports = {}
    gaps = tuple(Thresholds(gap=gap) for gap in cfg["gap_grid"])
    for N in cfg["n_grid"]:
        by_kmax = {}
        for case in cases:
            kmax = (int(cfg["kmax_per_n"] * N) if not case.startswith("2d")
                    else max(8, int(N)))
            by_kmax.setdefault(kmax, {})[case] = None
        for kmax, group in by_kmax.items():
            for (case, gap), rep in verify_multiplier_bounds(
                    tuple(group), N, kmax, s=cfg["s"], thresholds=gaps, seed=cfg["seed"]).items():
                reports[case, N, gap] = rep
    rows = []
    for case in cases:
        for N in cfg["n_grid"]:
            for gap in cfg["gap_grid"]:
                rep = reports[case, N, gap]
                rows.append({"case": case, "N": N, "gap": gap, "kmax": rep.kmax,
                             "count": rep.count, "sup_ratio": rep.sup_ratio,
                             "witness_tuple": rep.witness,
                             "flag": "empty-region" if rep.count == 0 else ""})
    # stability table: spread of sups around the per-case grid median
    stability = []
    unbounded = 0
    for case in cases:
        sups = [r["sup_ratio"] for r in rows if r["case"] == case and r["count"] > 0]
        if not sups:
            continue
        med = float(np.median(sups))
        spread_hi = max(sups) / med if med else float("inf")
        spread_lo = med / min(sups) if min(sups) else float("inf")
        flag = spread_hi > 2.0 or spread_lo > 2.0
        unbounded += int(flag)
        stability.append({"case": case, "median": med, "max": max(sups),
                          "min": min(sups), "spread_hi": spread_hi,
                          "spread_lo": spread_lo,
                          "flag": "unstable" if flag else ""})
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "verify.csv",
              ["case", "N", "gap", "kmax", "count", "sup_ratio",
               "witness_tuple", "flag"], rows)
    write_csv(out_dir / "verify_stability.csv",
              ["case", "median", "max", "min", "spread_hi", "spread_lo", "flag"],
              stability)
    write_manifest(out_dir, "verify", cfg, {"seed": cfg["seed"]},
                   {"unstable_cases": unbounded})
    _summary(out_dir, [f"verify: {len(rows)} cells, {unbounded} unstable cases"]
             + [f"  {st['case']}: median={st['median']:.3f} "
                f"spread=({st['spread_lo']:.2f}, {st['spread_hi']:.2f}) {st['flag']}"
                for st in stability])
    return 2 if unbounded else 0


# -- budget sweep ---------------------------------------------------------------


def run_budget(cfg: dict, out_dir: Path) -> int:
    s_grid = cfg["s_grid"] or list(np.round(np.linspace(0.2, 0.95, 16), 6))
    rows = []
    for s in s_grid:
        plan = gwp_budget(cfg["d"], s, cfg["n_ref"], epsilon=cfg["epsilon"],
                          delta=cfg["delta"], slack=cfg["slack"])
        rows.append({
            "s": s, "lambda": plan.lam, "per_step_time": plan.per_step_time,
            "step_count_exponent": plan.step_count_exponent,
            "ideal_exponent": plan.ideal_exponent,
            "total_exponent": plan.total_existence_exponent,
            "global": plan.globally_iterable,
        })
    # closed-form zero crossing by bisection on the ideal exponent
    lo, hi = 0.05, 0.999
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total_exponent(cfg["d"], mid) < 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "budget.csv",
              ["s", "lambda", "per_step_time", "step_count_exponent",
               "ideal_exponent", "total_exponent", "global"], rows)
    write_manifest(out_dir, "budget", cfg, {}, {"zero_crossing": crossing})
    _summary(out_dir, [f"budget d={cfg['d']}: zero crossing at s={crossing!r}"])
    return 0


# -- almost conservation ----------------------------------------------------------


def run_almost_conservation(cfg: dict, out_dir: Path) -> int:
    _need("n_grid", cfg["n_grid"], "N")
    if any(b <= a for a, b in zip(cfg["n_grid"], cfg["n_grid"][1:])):  # gates read it in N order
        raise ValueError(f"n_grid={cfg['n_grid']} must be strictly increasing")
    if cfg["samples"] < 1:
        raise ValueError(f"samples={cfg['samples']} must be >= 1")
    g = _geometry(cfg)
    rng = np.random.default_rng(cfg["seed"])
    u0 = initial_data(g, cfg["kcut"], kind="hs_random", rng=rng,
                      s=cfg["s"], mass_target=cfg["mass"])
    dt = cfg["dt"] or default_dt(u0)
    steps = max(1, int(round(cfg["t_end"] / dt)))
    stride = max(1, steps // cfg["samples"])
    # whole strides only: evolve samples the final step too, and the
    # identity needs uniformly spaced samples
    steps -= steps % stride
    evo = EvolutionConfig(g, cfg["kcut"], sign=cfg["sign"],
                          integrator="rk4-galerkin", dt=dt, t_end=steps * dt,
                          sample_stride=stride)
    # E_I^2 = E_I^1 + kappa Lambda_deg(sigma~)
    traj, out, rmax, tol = _identity_run(u0, evo, cfg["n_grid"], cfg["s"], cfg["sign"],
                                         cfg["gap_factor"], cfg["budget"])
    if out is None:
        return _early_abort(out_dir, "almost-conservation", cfg, traj)
    deg = g.nonlinearity_degree + 1
    rows = []
    for i, N in enumerate(cfg["n_grid"]):
        e1, corr, e2 = out["e_i1"][i], out["correction"][i], out["e_i2"][i]
        sym = SmoothingSymbol(N, 1 - cfg["s"])
        h1_six = norm(apply_I(traj.samples[0], sym), "hs", s=1.0) ** deg
        rows.append({
            "N": N,
            "sup_increment_e_i2": float(np.max(np.abs(e2 - e2[0]))),
            "sup_increment_e_i1": float(np.max(np.abs(e1 - e1[0]))),
            "correction_magnitude": float(np.max(np.abs(corr))),
            "boundary_ratio": float(abs(corr[0]) / h1_six),
            "residual_max": float(rmax[i]),
            "residual_tol": float(tol[i]),
            "horizon": float(traj.times[-1]),
            "flag": "capped" if traj.aborted else "",
        })
    incs = [r["sup_increment_e_i2"] for r in rows]
    monotone = all(incs[i + 1] < incs[i] for i in range(len(incs) - 1))
    final_better = rows[-1]["sup_increment_e_i2"] < rows[-1]["sup_increment_e_i1"]
    identity_ok = bool(np.all(rmax <= tol))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "almost_conservation.csv",
              ["N", "sup_increment_e_i2", "sup_increment_e_i1", "correction_magnitude",
               "boundary_ratio", "residual_max", "residual_tol", "horizon", "flag"], rows)
    write_manifest(out_dir, "almost-conservation", cfg, {"seed": cfg["seed"]},
                   {"aborted": traj.aborted, "monotone": monotone,
                    "corrected_below_raw": final_better,
                    "identity_ok": identity_ok, "walk_tuples": out["walk_tuples"],
                    "budget_tuples": out["budget_tuples"], "evolve_s": out["evolve_s"],
                    "walk_s": out["walk_s"]})
    _summary(out_dir, [
        f"almost-conservation d={cfg['d']} N grid {cfg['n_grid']}",
        f"E_I^2 increments: {incs}",
        f"monotone decreasing in N: {monotone}",
        f"corrected below raw at N={cfg['n_grid'][-1]}: {final_better}",
        "identity ok" if identity_ok else "IDENTITY RESIDUAL ABOVE TOLERANCE",
        *_abort_lines(traj),
    ])
    return 0 if (monotone and final_better and identity_ok and not traj.aborted) else 2
