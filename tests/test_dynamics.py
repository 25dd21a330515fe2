"""Integrators: exactness, conservation, convergence orders, reversibility."""

import numpy as np
import pytest

from nlslab.dynamics import (EvolutionConfig, default_dt, evolve, galerkin_rhs,
                             initial_data, rk4_step, strang_step)
from nlslab.energies import energy, mass
from nlslab.geometry import build_geometry, field_from_modes, norm, random_field, to_physical

RNG = np.random.default_rng(23)
G1 = build_geometry(1, (), 1.0)


def perturbed_plane_wave(K=8, eps=0.05, seed=1):
    rng = np.random.default_rng(seed)
    modes = {1: 2 * np.pi}
    for n in (-3, 0, 2, 4):
        modes[n] = modes.get(n, 0) + eps * (rng.standard_normal() + 1j * rng.standard_normal())
    return field_from_modes(G1, K, modes)


def _assert_aborts_at(g, integrator, amplitude, failed_step):
    """Focusing flow from two modes of ``amplitude`` at dt 0.1 aborts at
    ``failed_step``, keeping the state after the last finite step.
    Finiteness is checked once per step, after its last stage."""
    u0 = field_from_modes(g, 4, {0: amplitude, 1: amplitude})
    cfg = EvolutionConfig(g, 4, sign="focusing", integrator=integrator,
                          dt=0.1, t_end=10.0, sample_stride=1)
    with np.errstate(over="ignore"):  # the energy report of a huge u0 overflows
        traj = evolve(cfg, u0)
    assert traj.aborted
    assert traj.diagnostics == {"failed_step": failed_step, "t": failed_step * 0.1,
                                "reason": "non-finite coefficients"}
    assert np.all(np.isfinite(traj.final.coeffs))
    assert len(traj.samples) == failed_step
    step = rk4_step if integrator == "rk4-galerkin" else strang_step
    last = u0
    for _ in range(failed_step - 1):
        last = step(last, 0.1, "focusing")
    assert traj.final.coeffs.tobytes() == last.coeffs.tobytes()


class TestStrang:
    def test_plane_wave_exact(self):
        # c e^{ikx} evolves to c e^{i(kx - (k^2 + |c|^4) t)} in the defocusing case
        c_phys = 0.9 - 0.4j
        k = 2
        u0 = field_from_modes(G1, 6, {k: c_phys / G1.measure_weight})
        u = u0
        dt, T = 1e-3, 1.0
        for _ in range(int(round(T / dt))):
            u = strang_step(u, dt, "defocusing")
        phase = np.exp(-1j * (k**2 + abs(c_phys) ** 4) * T)
        expected = c_phys * phase / G1.measure_weight
        assert abs(u.coeffs[k + 6] - expected) < 1e-10
        others = np.abs(u.coeffs[np.arange(13) != k + 6])
        assert np.max(others) < 1e-12

    def test_mass_conserved_per_step(self):
        # small-mass operating point: the re-truncated tail is below 1e-12
        u = random_field(G1, 10, RNG, profile_s=0.5, mass=0.01)
        m0 = mass(u)
        for _ in range(20):
            u = strang_step(u, 5e-3, "focusing")
            assert mass(u) == pytest.approx(m0, abs=1e-12)

    def test_energy_drift_refines(self):
        u0 = perturbed_plane_wave()
        drifts = []
        for dt in (2e-3, 1e-3, 5e-4):
            u = u0
            for _ in range(int(round(0.5 / dt))):
                u = strang_step(u, dt, "defocusing")
            drifts.append(abs(energy(u) - energy(u0)))
        assert drifts[0] / drifts[1] >= 3.5
        assert drifts[1] / drifts[2] >= 3.5


class TestGalerkinRhs:
    def test_single_mode_rotation(self):
        c_phys = 1.1 + 0.3j
        k = 3
        u = field_from_modes(G1, 5, {k: c_phys / G1.measure_weight})
        for sign, kappa in (("defocusing", 1.0), ("focusing", -1.0)):
            rhs = galerkin_rhs(u, sign)
            expected = -1j * (k**2 + kappa * abs(c_phys) ** 4) * u.coeffs
            assert np.max(np.abs(rhs.coeffs - expected)) < 1e-12

    def test_real_data_symmetries(self):
        # real-valued u: uhat Hermitian; |u|^4 u stays real, so the projected
        # nonlinear coefficients stay Hermitian and the rhs is anti-Hermitian
        K = 6
        u = random_field(G1, K, RNG)
        herm = u.with_coeffs(0.5 * (u.coeffs + np.conj(u.coeffs[::-1])))
        rhs = galerkin_rhs(herm, "defocusing")
        flipped = np.conj(rhs.coeffs[::-1])
        assert np.max(np.abs(rhs.coeffs + flipped)) < 1e-12

    def test_projected_quintic_matches_brute_force(self):
        K = 3  # brute force is 7^4 pairs per output mode
        u = random_field(G1, K, RNG)
        rhs = galerkin_rhs(u, "defocusing")
        w = G1.measure_weight
        c = u.coeffs
        P = 2 * K + 1
        for n in range(-K, K + 1):
            acc = 0.0 + 0.0j
            for a in range(-K, K + 1):
                for b in range(-K, K + 1):
                    for cc in range(-K, K + 1):
                        for dd in range(-K, K + 1):
                            e = n - a + b - cc + dd
                            if -K <= e <= K:
                                acc += (c[a + K] * np.conj(c[b + K]) * c[cc + K]
                                        * np.conj(c[dd + K]) * c[e + K])
            expected = -1j * (n**2) * c[n + K] - 1j * w**4 * acc
            assert abs(rhs.coeffs[n + K] - expected) < 1e-12


class TestEvolve:
    def test_rk4_truncated_energy_drift_order4(self):
        u0 = perturbed_plane_wave(K=6, eps=0.3)
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = EvolutionConfig(G1, 6, integrator="rk4-galerkin", dt=dt,
                                  t_end=0.4, sample_stride=10**9)
            traj = evolve(cfg, u0)
            drifts.append(abs(traj.reports[-1]["energy"] - traj.reports[0]["energy"]))
        slopes = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
        assert all(s > 3.0 for s in slopes), slopes

    def test_strang_and_rk4_agree_to_second_order(self):
        u0 = perturbed_plane_wave(K=6, eps=0.1)
        diffs = []
        for dt in (2e-3, 1e-3):
            out = []
            for integ in ("strang", "rk4-galerkin"):
                cfg = EvolutionConfig(G1, 6, integrator=integ, dt=dt, t_end=0.2,
                                      sample_stride=10**9)
                out.append(evolve(cfg, u0).final.coeffs)
            diffs.append(np.max(np.abs(out[0] - out[1])))
        assert 3.0 < diffs[0] / diffs[1] < 5.5

    def test_time_reversal(self):
        u0 = perturbed_plane_wave(K=6, eps=0.2)
        dt, T = 1e-3, 0.2
        cfg_f = EvolutionConfig(G1, 6, integrator="rk4-galerkin", dt=dt, t_end=T,
                                sample_stride=10**9)
        fwd = evolve(cfg_f, u0).final
        back = fwd
        for _ in range(int(round(T / dt))):
            back = rk4_step(back, -dt, "defocusing")
        assert np.max(np.abs(back.coeffs - u0.coeffs)) < 1e-9

    def test_abort_on_blowup(self):
        # focusing with huge amplitude and a crude step blows up fast
        _assert_aborts_at(G1, "rk4-galerkin", 1e4, failed_step=1)

    @pytest.mark.parametrize("integrator, amplitude, failed_step", [
        ("rk4-galerkin", 5.0, 4), ("strang", 1e78, 1),
    ], ids=["rk4-fourth-step", "strang-phase-overflow"])
    def test_abort_keeps_last_finite_step(self, integrator, amplitude, failed_step):
        # a later blow-up, and the Strang phase |u|^4 overflowing at once
        _assert_aborts_at(G1, integrator, amplitude, failed_step)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("integrator", ["strang", "rk4-galerkin"])
    def test_evolve_samples_are_the_public_steps(self, d, integrator):
        # one code path: evolve's samples are the public steps, iterated
        g = G1 if d == 1 else build_geometry(2, (0.75,), 1.3)
        u0 = random_field(g, 5, np.random.default_rng(d), profile_s=0.5, mass=0.05)
        dt, stride = 2e-3, 3
        cfg = EvolutionConfig(g, 5, sign="focusing", integrator=integrator, dt=dt,
                              t_end=12 * dt, sample_stride=stride)
        traj = evolve(cfg, u0)
        step = rk4_step if integrator == "rk4-galerkin" else strang_step
        u, expected = u0, [u0.coeffs.tobytes()]
        for i in range(1, 13):
            u = step(u, dt, "focusing")
            if i % stride == 0:
                expected.append(u.coeffs.tobytes())
        assert [s.coeffs.tobytes() for s in traj.samples] == expected

    def test_default_dt_and_initial_data(self):
        u = initial_data(G1, 8, kind="hs_random", rng=RNG, s=0.5, mass_target=0.01)
        assert mass(u) == pytest.approx(0.01, rel=1e-12)
        assert default_dt(u) == pytest.approx(0.1 / 64.0)
        for kind in ("nope", "modes"):
            with pytest.raises(ValueError, match="initial data"):
                initial_data(G1, 4, kind=kind)
