"""Energies, Lambda functionals, correction tables, and the identity residual."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab.classify import (BELOW, Thresholds, classify_batch_1d, is_nonresonant,
                             is_resonant)
from nlslab.dynamics import EvolutionConfig, evolve
from nlslab import energies
from nlslab.energies import (_TABLE_TUPLES, CORRECTION_SYMBOLS, BudgetError, ConsistencyError,
                             _Lattice, _Orbits, correction_sums, correction_tables,
                             cumulative_simpson, e_i1, energy,
                             energy_identity_residual, gamma_sums, lambda_eval,
                             mass, nonlinear_coefficient_field)
from nlslab.geometry import (build_geometry, field_from_modes, free_evolve, random_field,
                             to_physical, zero_field)
from nlslab.multipliers import bare_m6, omega, sigma_product
from nlslab.smoothing import SmoothingSymbol, m_value

RNG = np.random.default_rng(17)


def plane_wave(g, K, mode=1, amp=None):
    amp = 2 * np.pi * g.lam if amp is None else amp
    return field_from_modes(g, K, {mode: amp})


class TestPointEnergies:
    def test_mass_examples(self):
        g = build_geometry(1)
        assert mass(zero_field(g, 4)) == 0.0
        u = plane_wave(g, 4)
        assert mass(u) == pytest.approx(2 * np.pi, rel=1e-14)
        assert mass(free_evolve(u, 0.7)) == pytest.approx(mass(u), rel=1e-12)

    def test_energy_single_mode_closed_form(self):
        g = build_geometry(1)
        u = plane_wave(g, 4)
        assert energy(u, "defocusing") == pytest.approx(np.pi + np.pi / 3, rel=1e-13)
        assert energy(u, "focusing") == pytest.approx(np.pi - np.pi / 3, rel=1e-13)

    def test_energy_2d_quartic(self):
        g = build_geometry(2, (1.0,), 1.0)
        u = field_from_modes(g, 3, {(1, 0): g.volume})
        # |u| = 1: E = vol*(1/2*|k|^2 + kappa/4)
        assert energy(u, "defocusing") == pytest.approx(g.volume * (0.5 + 0.25), rel=1e-13)

    @pytest.mark.parametrize("d, gamma, cutoff", [(1, (), 7), (1, (), 32), (2, (0.75,), 5),
                                                  (2, (0.75,), 32), (2, (0.6,), (3, 8))])
    @pytest.mark.parametrize("sign", ["defocusing", "focusing"])
    def test_energy_matches_the_oversampled_grid(self, d, gamma, cutoff, sign):
        # |u|^(p+1) has modes up to (p+1)K: the dealiasing grid (> (p+1)K
        # points per axis) and the (2K+1)(p+3)//2 grid both integrate it exactly
        g = build_geometry(d, gamma, 1.4)
        u = random_field(g, cutoff, np.random.default_rng(23), profile_s=0.5, mass=0.5)
        deg = g.nonlinearity_degree + 1
        kinetic = 0.5 * g.measure_weight * float(np.sum(u.kabs() ** 2 * np.abs(u.coeffs) ** 2))
        vals = to_physical(u, (deg + 2) // 2)
        mod2 = vals.real ** 2 + vals.imag ** 2
        potential = float(np.mean(mod2 ** (deg // 2))) * g.volume / deg
        ref = kinetic + energies.SIGN[sign] * potential
        assert energy(u, sign) == pytest.approx(ref, rel=1e-14)


class TestLambdaEval:
    def test_lambda2_kinetic_pair(self):
        g = build_geometry(1)
        u = plane_wave(g, 4)
        sym = SmoothingSymbol(4.0, 0.5)

        def sigma2(k):
            return -0.5 * (m_value(np.abs(k[..., 0]), sym) * k[..., 0]
                           * m_value(np.abs(k[..., 1]), sym) * k[..., 1])

        val = lambda_eval(sigma2, [u, u], "direct")
        assert complex(val).real == pytest.approx(np.pi, rel=1e-13)
        assert abs(complex(val).imag) < 1e-13

    def test_lambda6_zero_field(self):
        g = build_geometry(1)
        z = zero_field(g, 3)
        sym = SmoothingSymbol(2.0, 0.5)
        val = lambda_eval(lambda k: sigma_product(k, sym), [z] * 6, "direct")
        assert val == 0.0

    def test_direct_equals_physical_on_factorizable(self):
        g = build_geometry(1, (), 2.0)
        u = random_field(g, 4, RNG)  # 9-mode field
        sym = SmoothingSymbol(2.0, 0.5)

        def factor(k):
            return m_value(np.abs(k), sym)

        direct = lambda_eval(lambda k: sigma_product(k, sym), [u] * 6, "direct")
        phys = lambda_eval(None, [u] * 6, "physical", slot_factors=[factor] * 6)
        assert abs(direct - phys) <= 1e-9 * max(abs(direct), 1e-30)

    def test_physical_needs_factors(self):
        g = build_geometry(1)
        u = random_field(g, 3, RNG)
        with pytest.raises(ValueError, match="factors"):
            lambda_eval(None, [u] * 6, "physical")


def brute_gamma_sum(table, fields):
    """Reference Gamma_n sum: a Python loop over slots 1..n-1 of the lattice,
    slot n fixed by the constraint, odd slots uhat(k), even slots conj(uhat(-k))."""
    cut = np.array(fields[0].cutoff)
    modes = list(itertools.product(*(range(-k, k + 1) for k in cut)))
    n = len(fields)
    total = 0.0 + 0.0j
    for ks in itertools.product(range(len(modes)), repeat=n - 1):
        tup = [np.array(modes[i]) for i in ks]
        tup.append(-sum(tup))
        if np.any(np.abs(tup[-1]) > cut):
            continue
        val = table[ks]
        for j, (f, k) in enumerate(zip(fields, tup)):
            val *= f.coeffs[tuple(k + cut)] if j % 2 == 0 else np.conj(f.coeffs[tuple(-k + cut)])
        total += val
    return total


def lattice_table(fields, symbol, off_lattice=np.nan):
    """``symbol`` materialized over slots 1..n-1, ``off_lattice`` where slot n
    falls off the lattice."""
    g = fields[0].geometry
    cut = np.array(fields[0].cutoff)
    modes = np.array(list(itertools.product(*(range(-k, k + 1) for k in cut))))
    n = len(fields)
    idx = np.array(list(itertools.product(range(len(modes)), repeat=n - 1)))
    tup = modes[idx]
    tup = np.concatenate([tup, -tup.sum(axis=1, keepdims=True)], axis=1)
    vals = symbol(tup[..., 0] / g.lam if g.dimension == 1 else tup / np.array(g.axis_scales))
    vals = np.where(np.all(np.abs(tup[:, -1]) <= cut, axis=-1), vals, off_lattice)
    return vals.reshape((len(modes),) * (n - 1))


def smooth_symbol(d):
    """A complex symbol that is no product of per-slot factors and is
    defined off the lattice too."""
    def symbol(k):
        k = k[..., None] if d == 1 else k
        w = np.arange(1, k.shape[-2] + 1)[:, None]
        return (np.exp(-0.1 * np.sum(w * k**2, axis=(-2, -1)))
                * (1 + 0.5j * np.sum(k[..., 0], axis=-1)))
    return symbol


LATTICES = [(1, (), 3, 2), (1, (), 3, 4), (1, (), 2, 6), (2, (0.75,), (2, 1), 2),
            (2, (0.75,), (2, 1), 4)]


class TestGammaSums:
    @pytest.mark.parametrize("d, gamma, cutoff, n", LATTICES)
    def test_matches_brute_force(self, d, gamma, cutoff, n):
        rng = np.random.default_rng(n)
        g = build_geometry(d, gamma, 1.3)
        sets = [[random_field(g, cutoff, rng) for _ in range(n)] for _ in range(3)]
        table = lattice_table(sets[0], lambda k: rng.standard_normal(k.shape[:-1 if d == 1 else -2]))
        got = gamma_sums(table, sets)
        ref = np.array([brute_gamma_sum(table, fs) for fs in sets])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d, gamma, cutoff, n", LATTICES)
    def test_callable_agrees_with_its_table(self, d, gamma, cutoff, n):
        g = build_geometry(d, gamma, 1.3)
        sets = [[random_field(g, cutoff, RNG) for _ in range(n)] for _ in range(2)]
        table = lattice_table(sets[0], smooth_symbol(d))
        got = gamma_sums(smooth_symbol(d), sets)
        ref = gamma_sums(table, sets)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_off_lattice_entries_ignored(self):
        g = build_geometry(1, (), 1.0)
        fields = [random_field(g, 3, RNG) for _ in range(4)]
        with_nan = lattice_table(fields, smooth_symbol(1), off_lattice=np.nan)
        with_junk = lattice_table(fields, smooth_symbol(1), off_lattice=1e300)
        a, b = gamma_sums(with_nan, [fields]), gamma_sums(with_junk, [fields])
        assert np.isfinite(a).all() and np.array_equal(a, b)

    def test_float32_table(self):
        g = build_geometry(1, (), 1.0)
        fields = [random_field(g, 3, RNG) for _ in range(6)]
        table = lattice_table(fields, lambda k: np.cos(k.sum(axis=-1) + k[..., 0]), 0.0)
        t32 = table.astype(np.float32)
        got = gamma_sums(t32, [fields])
        ref = gamma_sums(t32.astype(np.float64), [fields])
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_budget_guard(self):
        g = build_geometry(2, (0.75,), 1.0)
        fields = [random_field(g, (2, 1), RNG) for _ in range(4)]
        gamma_sums(smooth_symbol(2), [fields], budget=15 ** 3)
        with pytest.raises(ValueError, match="budget"):
            gamma_sums(smooth_symbol(2), [fields], budget=15 ** 3 - 1)

    def test_refused_before_building_sets(self, monkeypatch):
        # both walks check the budget from the cutoff alone, before any slot
        # set exists
        def no_sets(self, h):
            raise AssertionError("built the slot sets of an over-budget lattice")

        monkeypatch.setattr(_Lattice, "_sets", no_sets)
        monkeypatch.setattr(_Orbits, "_sets", no_sets)
        f = zero_field(build_geometry(1), 3)  # 7^5 tuples
        with pytest.raises(BudgetError):
            gamma_sums(lambda tup: np.ones(tup.shape[:-1]), [[f] * 6], budget=7 ** 5 - 1)
        with pytest.raises(BudgetError):
            correction_sums(f, [1.0], 0.5, [([[f] * 6], ("sigma_tilde",))], budget=7 ** 5 - 1)

    def test_odd_n_refused(self):
        f = zero_field(build_geometry(1), 3)
        with pytest.raises(ValueError, match="odd"):
            gamma_sums(lambda tup: np.ones(tup.shape[:-1]), [[f] * 3])


class TestTwoPathIdentity:
    def test_1d_random_fields(self):
        g = build_geometry(1, (), 1.5)
        for _ in range(20):
            u = random_field(g, 4, RNG)
            for sign in ("defocusing", "focusing"):
                e_i1(u, N=2.0, s=0.5, sign=sign, check="direct")  # raises on mismatch

    def test_2d_random_fields(self):
        g = build_geometry(2, (0.8,), 1.0)
        for _ in range(10):
            u = random_field(g, 2, RNG)
            e_i1(u, N=2.0, s=0.6, sign="defocusing", check="direct")

    def test_below_threshold_identity_with_plain_energy(self):
        # every mode below N: E_I^1 is the plain energy and the correction
        # of E_I^2 vanishes
        g = build_geometry(1)
        u = random_field(g, 3, RNG)
        assert e_i1(u, N=8.0, s=0.5, check="direct") == pytest.approx(
            energy(u, "defocusing"), rel=1e-12)
        st, = correction_sums(u, [8.0], 0.5, [([[u] * 6], ("sigma_tilde",))])
        assert np.all(st == 0.0)


def table_digest(tabs):
    h = hashlib.sha256()
    for t in (tabs.sigma_tilde, tabs.mbar_imag, tabs.combined):
        h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


class TestCorrectionTables:
    @pytest.mark.parametrize("d, gamma, cutoff, N, digest", [
        (1, (), 5, 2.0, "594d27089ea3fd1a7beb46778a77bc2c3924b834b1998432254d04a102509956"),
        (2, (0.75,), (3, 2), 1.5,
         "98df5365ea21c290616a770d4c35e128e16f7e234c3fc3d76721cba2e5fa0343"),
    ])
    def test_tables_pinned(self, d, gamma, cutoff, N, digest):
        # sha256 of the three float64 tables; the pinned values come from an
        # independent earlier enumeration, and every entry is computed per
        # tuple, so any correct enumeration order reproduces them bit for bit
        tabs = correction_tables(zero_field(build_geometry(d, gamma, 1.0), cutoff), N, 0.5)
        assert table_digest(tabs) == digest

    def test_sigma_tilde_vanishes_below_threshold(self):
        g = build_geometry(1)
        u = zero_field(g, 3)
        tabs = correction_tables(u, N=16.0, s=0.5)
        assert np.all(tabs.sigma_tilde == 0.0)
        assert np.all(tabs.mbar_imag == 0.0)

    def test_two_path_sigma_tilde_identity(self):
        # sigma~ * alpha + (correctable part) = 0, recomputed independently
        g = build_geometry(1)
        K, N, s = 6, 4.0, 0.5
        u = zero_field(g, K)
        tabs = correction_tables(u, N, s)
        sym = SmoothingSymbol(N, 1 - s)
        th = Thresholds()
        rng = np.random.default_rng(2)
        free = rng.integers(-K, K + 1, size=(4000, 5)).astype(float)
        tups = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        tups = tups[np.abs(tups[:, 5]) <= K]
        codes, _ = classify_batch_1d(tups, N, th)
        om = omega(tups)
        bare = bare_m6(tups, sym)
        sig = sigma_product(tups, sym) / 6.0
        alpha = -1j * om
        ups = codes != 0
        nr = is_nonresonant(codes)
        m_tilde = np.where(ups, sig * alpha, 0.0) + np.where(nr, 1j / 6.0 * bare, 0.0)
        # gather table values at the same tuples
        P = 2 * K + 1
        idx = tuple((tups[:, j] + K).astype(int) for j in range(5))
        st = tabs.sigma_tilde[idx]
        resid = st * alpha + m_tilde
        assert np.max(np.abs(resid)) < 1e-12

    def test_full_multiplier_vanishes_below_threshold(self):
        # (i/6) bare + sigma*alpha = 0 exactly when every slot is below N
        sym = SmoothingSymbol(8.0, 0.5)
        rng = np.random.default_rng(4)
        free = rng.integers(-2, 3, size=(500, 5)).astype(float)
        tups = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        tups = tups[np.max(np.abs(tups), axis=1) <= 8.0]
        full = 1j / 6.0 * bare_m6(tups, sym) + (sigma_product(tups, sym) / 6.0) * (-1j * omega(tups))
        assert np.max(np.abs(full)) == 0.0


def slots_1_to_n_minus_1(field, n):
    """Every (n-1)-tuple of composite mode indices, in table order, and
    whether its slot n lies on the lattice."""
    cut = np.array(field.cutoff)
    modes = np.array(list(itertools.product(*(range(-k, k + 1) for k in cut))))
    free = np.array(list(itertools.product(range(len(modes)), repeat=n - 1)))
    last = -modes[free].sum(axis=1)
    on = np.all(np.abs(last) <= cut, axis=-1)
    last_idx = np.ravel_multi_index(tuple((last[on] + cut).T), tuple(2 * cut + 1))
    return free, on, last_idx


def convolution_count(cutoff, n):
    """On-lattice Gamma_n tuples: per axis, a window of the (n-1)-fold
    convolution of the box indicator (axes are independent)."""
    count = 1
    for K in cutoff:
        acc = np.ones(1, dtype=np.int64)
        for _ in range(n - 1):
            acc = np.convolve(acc, np.ones(2 * K + 1, dtype=np.int64))
        centre = (n - 1) * K
        count *= int(acc[centre - K:centre + K + 1].sum())
    return count


ENUMERATED = [(1, (), (3,), 6), (2, (0.75,), (3, 2), 4)]


class TestOnLatticeEnumeration:
    @pytest.mark.parametrize("block", [1, 7, _TABLE_TUPLES])
    @pytest.mark.parametrize("d, gamma, cutoff, n", ENUMERATED)
    def test_every_on_lattice_tuple_once(self, d, gamma, cutoff, n, block):
        field = zero_field(build_geometry(d, gamma, 1.0), cutoff)
        lat = _Lattice(field, n)
        blocks = list(lat.on_lattice(block))
        assert all(0 < len(p) == len(i) <= block for p, i in blocks)
        pos = np.concatenate([p for p, _ in blocks])
        idx = np.concatenate([i for _, i in blocks])
        free, on, last_idx = slots_1_to_n_minus_1(field, n)
        expected = np.concatenate([free[on], last_idx[:, None]], axis=1)
        assert len(idx) == len(expected) == convolution_count(cutoff, n)
        seen = {tuple(r) for r in idx}
        assert len(seen) == len(idx) and seen == {tuple(r) for r in expected}
        assert np.array_equal(pos, np.ravel_multi_index(tuple(idx[:, :-1].T),
                                                        (lat.Q,) * (n - 1)))

    @pytest.mark.parametrize("block", [1, 7, _TABLE_TUPLES])
    @pytest.mark.parametrize("d, gamma, cutoff, n", ENUMERATED)
    def test_groups_hold_at_most_max_tuples(self, d, gamma, cutoff, n, block):
        # every block holds at most ``block`` tuples, and the blocks visit
        # every on-lattice tuple once; at 1 and 7 tuples the widest groups
        # have more columns than that, so they are cut into column slices
        field = zero_field(build_geometry(d, gamma, 1.0), cutoff)
        lat = _Lattice(field, n)
        count = np.diff(lat.bounds)
        blocks = list(lat.groups(block))
        sizes = [(odd.stop - odd.start, even.stop - even.start) for odd, even in blocks]
        assert all(0 < R * C <= block for R, C in sizes)
        # a block's group has as many columns as its sum -sigma has sets
        group = np.searchsorted(lat.bounds, [odd.start for odd, _ in blocks], side="right") - 1
        sliced = [C < count[len(count) - 1 - g] for (_, C), g in zip(sizes, group)]
        assert any(sliced) == (block < count.max())
        # rows_follow names each block that the next one continues with later
        # rows against the same columns
        for b, after in zip(blocks, blocks[1:] + [(None, None)]):
            assert lat.rows_follow(b) == (after[1] == b[1] and after[0].start == b[0].stop)
        idx = np.concatenate([lat.slots(b).reshape(-1, n) for b in blocks])
        free, on, last_idx = slots_1_to_n_minus_1(field, n)
        expected = np.concatenate([free[on], last_idx[:, None]], axis=1)
        assert len(idx) == len(expected) == lat.tuples
        assert {tuple(r) for r in idx} == {tuple(r) for r in expected}

    @pytest.mark.parametrize("d, gamma, cutoff, n", ENUMERATED)
    def test_off_lattice_entries_zero(self, d, gamma, cutoff, n):
        field = zero_field(build_geometry(d, gamma, 1.0), cutoff)
        tabs = correction_tables(field, 1.0, 0.5)
        _, on, _ = slots_1_to_n_minus_1(field, n)
        for t in (tabs.sigma_tilde, tabs.mbar_imag, tabs.combined):
            flat = t.reshape(-1)
            assert np.all(flat[~on] == 0.0) and np.any(flat[on] != 0.0)


WALK_LATTICES = [(1, (), 4, 2.0), (2, (0.75,), (3, 2), 1.5)]


class TestCorrectionWalk:
    @pytest.mark.parametrize("d, gamma, cutoff, N", WALK_LATTICES)
    def test_collapsed_substitution_equals_full_sum(self, d, gamma, cutoff, N):
        # sigma + sigma~ is symmetric within each slot parity, so the
        # alternating sum over all deg substituted slots is (deg/2) times
        # the slot-2 term minus the slot-1 term
        f = random_field(build_geometry(d, gamma, 1.0), cutoff, RNG)
        nl = nonlinear_coefficient_field(f)
        deg = f.geometry.nonlinearity_degree + 1
        sets = [[nl if i == j else f for i in range(deg)] for j in range(deg)]
        (full,), = correction_sums(f, [N], 0.5, [(sets, ("combined",))])[0]
        scale = np.max(np.abs(full))
        assert scale > 0
        alternating = np.sum(full * (-1.0) ** np.arange(1, deg + 1))
        assert abs(alternating - (deg // 2) * (full[1] - full[0])) <= 1e-12 * scale
        assert np.max(np.abs(full[0::2] - full[0])) <= 1e-12 * scale
        assert np.max(np.abs(full[1::2] - full[1])) <= 1e-12 * scale

    # five tuples per block cut every sigma-group into rows, and a group of
    # more than five columns into column slices too; 2^30 holds the whole
    # lattice in one block
    @pytest.mark.parametrize("tuples", [5, 1 << 30])
    @pytest.mark.parametrize("d, gamma, cutoff, N", [(1, (), 3, 1.0),
                                                     (2, (0.75,), (3, 2), 1.5)])
    def test_streamed_sums_equal_table_path(self, d, gamma, cutoff, N, tuples, monkeypatch):
        g = build_geometry(d, gamma, 1.0)
        deg = g.nonlinearity_degree + 1
        fs = [random_field(g, cutoff, RNG) for _ in range(3)]
        plain = [[f] * deg for f in fs]
        mixed = [[fs[(i + j) % 3] for i in range(deg)] for j in range(3)]
        tabs = correction_tables(fs[0], N, 0.5)
        table = dict(zip(CORRECTION_SYMBOLS, (tabs.sigma_tilde, tabs.mbar_imag, tabs.combined)))
        monkeypatch.setattr(energies, "_TABLE_TUPLES", tuples)
        passes = [(plain, ("sigma_tilde", "mbar")), (mixed, ("combined", "sigma_tilde"))]
        got = [sums[0] for sums in correction_sums(fs[0], [N], 0.5, passes)]
        monkeypatch.undo()
        for (sets, names), sums in zip(passes, got):
            assert sums.shape == (len(names), len(sets))
            for name, row in zip(names, sums):
                ref = gamma_sums(table[name], sets)
                assert np.max(np.abs(ref)) > 0
                assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("d, gamma, cutoff, N", WALK_LATTICES)
    def test_streamed_values_are_the_table_values(self, d, gamma, cutoff, N):
        # each representative's values are the table's entries at its tuple,
        # bit for bit (same evaluator, same slot order); the orbit sums
        # regroup the table sums, so they agree to rounding
        g = build_geometry(d, gamma, 1.0)
        deg = g.nonlinearity_degree + 1
        fs = [random_field(g, cutoff, RNG) for _ in range(2)]
        sets = [[f] * deg for f in fs]
        tabs = correction_tables(fs[0], N, 0.5)
        tables = (tabs.sigma_tilde, tabs.mbar_imag, tabs.combined)
        orbits = _Orbits(fs[0], deg)
        evaluate = energies._correction_evaluator(orbits, [N], 0.5, Thresholds())
        for blocks, idx in orbits.batches(1 << 30):
            for table, vals in zip(tables, evaluate(blocks, idx)):
                assert np.array_equal(vals, table.reshape(-1)[orbits.position(idx)])
        streamed, = correction_sums(fs[0], [N], 0.5, [(sets, CORRECTION_SYMBOLS)])
        for name, table, row in zip(CORRECTION_SYMBOLS, tables, streamed[0]):
            ref = gamma_sums(table, sets)
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("d, gamma, cutoff, N", WALK_LATTICES)
    def test_n_grid_is_each_n_alone(self, d, gamma, cutoff, N):
        # one walk over a grid of N: per run, each N's values are those of a
        # walk at that N alone, bit for bit, and so are its sums up to the
        # grouping of the contraction
        g = build_geometry(d, gamma, 1.0)
        deg = g.nonlinearity_degree + 1
        fs = [random_field(g, cutoff, RNG) for _ in range(2)]
        Ns = [N, 1.0, 1.5 * N]  # in no order
        orbits = _Orbits(fs[0], deg)
        grid = energies._correction_evaluator(orbits, Ns, 0.5, Thresholds())
        alone = [energies._correction_evaluator(orbits, [n], 0.5, Thresholds()) for n in Ns]
        for blocks, idx in orbits.batches(1 << 12):
            assert all(np.array_equal(a, b) for a, b in zip(
                grid(blocks, idx), [v for evaluate in alone for v in evaluate(blocks, idx)]))
        passes = [([[f] * deg for f in fs], ("sigma_tilde", "mbar")),
                  ([fs * (deg // 2)], ("combined",))]
        got = correction_sums(fs[0], Ns, 0.5, passes)
        for i, n in enumerate(Ns):
            for sums, ref in zip(got, correction_sums(fs[0], [n], 0.5, passes)):
                assert sums.shape[0] == len(Ns) and np.max(np.abs(ref)) > 0
                assert np.max(np.abs(sums[i] - ref[0])) <= 1e-13 * np.max(np.abs(ref)), n

    def test_residual_over_n_grid_is_each_n_alone(self):
        g = build_geometry(1)
        u0 = field_from_modes(g, 4, {-3: 0.5, 1: 0.4j, 2: 0.3, 4: 0.2})
        traj = evolve(EvolutionConfig(g, 4, integrator="rk4-galerkin", dt=0.005,
                                      t_end=0.04, sample_stride=2), u0)
        Ns = [1.0, 2.0, 3.0]
        out = energy_identity_residual(traj.samples, traj.times, Ns, 0.5)
        assert np.array_equal(out["t"], traj.times)
        for i, N in enumerate(Ns):
            ref = energy_identity_residual(traj.samples, traj.times, [N], 0.5)
            assert out["walk_tuples"] == ref["walk_tuples"]
            for key in ("e_i1", "correction", "e_i2", "lambda_mbar", "lambda_mbar_big",
                        "residual", "imag_leak"):
                scale = np.max(np.abs(ref[key][0]))
                assert out[key].shape[0] == len(Ns)
                assert np.max(np.abs(out[key][i] - ref[key][0])) <= 1e-13 * scale, (N, key)
            assert np.max(np.abs(ref["correction"][0])) > 0

    def test_residual_stores_no_table(self, monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("table built")

        g = build_geometry(1)
        u0 = field_from_modes(g, 4, {-3: 0.5, 1: 0.4j, 2: 0.3})
        traj = evolve(EvolutionConfig(g, 4, integrator="rk4-galerkin", dt=0.005,
                                      t_end=0.04, sample_stride=2), u0)
        # reference: the same Lambda terms gathered from the stored tables
        # (defocusing, kappa = 1)
        tabs = correction_tables(u0, 2.0, 0.5)
        w = g.measure_weight ** 5
        plain = [[f] * 6 for f in traj.samples]
        slot1, slot2 = ([[nonlinear_coefficient_field(f) if i == j else f for i in range(6)]
                         for f in traj.samples] for j in (0, 1))
        ref = {"correction": np.real(w * gamma_sums(tabs.sigma_tilde, plain)),
               "lambda_mbar": np.real(1j * w * gamma_sums(tabs.mbar_imag, plain)),
               "lambda_mbar_big": np.real(3j * (w * gamma_sums(tabs.combined, slot2)
                                                - w * gamma_sums(tabs.combined, slot1)))}
        monkeypatch.setattr(energies, "correction_tables", no_tables)
        out = energy_identity_residual(traj.samples, traj.times, [2.0], 0.5)
        for key in ("correction", "lambda_mbar", "lambda_mbar_big"):
            scale = np.max(np.abs(ref[key]))
            assert scale > 0 and np.max(np.abs(out[key][0] - ref[key])) <= 1e-13 * scale, key


# lattices of the orbit walk's reference checks: (d, gamma, lambda, cutoff, N,
# gap); lambda = 3 and gamma = 1/sqrt(2) put the physical frequencies off
# every dyadic grid
ORBIT_LATTICES = [(1, (), 1.0, 3, 1.0, 4.0), (1, (), 3.0, 6, 1.0, 2.0),
                  (2, (0.75,), 1.0, (3, 2), 1.5, 4.0),
                  (2, (1 / np.sqrt(2),), 1.0, (2, 2), 1.0, 2.0)]


def cut_verdicts(lat, idx, N, gap):
    """The walk's verdicts of ``idx``, cut below N as at that N."""
    codes, top, _ = energies._lattice_verdicts(lat, idx, gap)
    return np.where(top <= N, BELOW, codes)


def within_parity_permutations(n):
    """Every slot permutation that maps odd slots to odd and even to even."""
    odd, even = range(0, n, 2), range(1, n, 2)
    for po in itertools.permutations(odd):
        for pe in itertools.permutations(even):
            perm = np.empty(n, dtype=int)
            perm[list(odd)], perm[list(even)] = po, pe
            yield perm


class TestOrbitWalk:
    @pytest.mark.parametrize("d, gamma, lam, cutoff, N, gap", ORBIT_LATTICES)
    def test_matches_sigma_group_reference(self, d, gamma, lam, cutoff, N, gap):
        # plain, substituted and fully mixed sets (a different field in every
        # slot) against the tables summed by the sigma-group walk
        g = build_geometry(d, gamma, lam)
        deg = g.nonlinearity_degree + 1
        th = Thresholds(gap)
        fs = [random_field(g, cutoff, RNG) for _ in range(deg)]
        nl = nonlinear_coefficient_field(fs[0])
        families = {
            "plain": [[f] * deg for f in fs[:2]],
            "substituted": [[nl if i == j else fs[0] for i in range(deg)] for j in range(deg)],
            "mixed": [[fs[(i + j) % deg] for i in range(deg)] for j in range(2)],
        }
        tabs = correction_tables(fs[0], N, 0.5, th)
        table = dict(zip(CORRECTION_SYMBOLS, (tabs.sigma_tilde, tabs.mbar_imag, tabs.combined)))
        passes = [(sets, CORRECTION_SYMBOLS) for sets in families.values()]
        got = correction_sums(fs[0], [N], 0.5, passes, th)
        for family, (sets, names), sums in zip(families, passes, got):
            for name, row in zip(names, sums[0]):
                ref = gamma_sums(table[name], sets)
                assert np.max(np.abs(ref)) > 0
                assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref)), (family, name)

    @pytest.mark.parametrize("d, gamma, cutoff, expected", [(1, (), 7, 8514),
                                                            (2, (0.75,), 5, 64666)])
    def test_classifies_each_representative_once(self, d, gamma, cutoff, expected,
                                                 monkeypatch):
        # the representatives of one sigma-block per symmetry class, each
        # once; the walked classes, each counted once per distinct image,
        # hold every representative
        g = build_geometry(d, gamma, 1.0)
        deg = g.nonlinearity_degree + 1
        fs = [random_field(g, cutoff, RNG) for _ in range(3)]
        classified = []
        verdicts = energies._lattice_verdicts

        def counting(lat, idx, G, blocks=None):
            classified.append(len(idx))
            return verdicts(lat, idx, G, blocks)

        monkeypatch.setattr(energies, "_lattice_verdicts", counting)
        lat = _Orbits(fs[0], deg)
        _, walked = energies._correction_walk(
            lat, [2.0], 0.5, [([[f] * deg for f in fs], ("sigma_tilde", "mbar")),
                              ([fs[:1] * deg], ("combined",))], Thresholds())
        assert sum(classified) == expected == walked
        _, _, size = energies._symmetries(lat)
        count = np.diff(lat.bounds)
        assert np.sum(size * count * count[::-1]) == lat.tuples > expected
        assert lat.tuples < sum(len(p) for p, _ in _Lattice(fs[0], deg).on_lattice(1 << 14))

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("lam, gap", [(1.0, 4.0), (3.3, 2.0)])
    @pytest.mark.parametrize("cutoff", range(1, 10))
    def test_per_set_verdicts_are_per_row_verdicts(self, cutoff, lam, gap, cut, monkeypatch):
        # every run of the 1-D orbit walk, classified from its row and
        # column sets, against the per-row rules on the run's tuples: the
        # same codes, Parts1D values and largest |k|, also when blocks of
        # at most seven tuples cut the sigma-groups
        if cut:
            monkeypatch.setattr(energies, "_TABLE_TUPLES", 7)
        lat = _Orbits(zero_field(build_geometry(1, (), lam), cutoff), 6)
        _, walked, _ = energies._symmetries(lat)
        seen, multi = set(), 0
        for blocks, idx in lat.batches(energies._TABLE_TUPLES, walked):
            multi += len(blocks) > 1
            codes, top, parts = energies._lattice_verdicts(lat, idx, gap, blocks)
            ref_codes, ref_parts = energies._verdicts_1d(lat.modes[idx, 0], gap)
            assert np.array_equal(codes, ref_codes)
            for name, field, ref in zip(parts._fields, parts, ref_parts):
                for a, b in zip(field, ref) if isinstance(field, tuple) else [(field, ref)]:
                    assert np.array_equal(a, b), name
            assert np.array_equal(top, np.max(lat.kabs[idx], axis=1))
            seen.update(np.unique(codes).tolist())
        assert multi > 0 and len(seen) > (1 if cutoff < 3 else 4)

    @pytest.mark.parametrize("d, gamma, lam, cutoff, N, gap", [
        (1, (), 3.0, 4, 1.0, 2.0), (2, (1 / np.sqrt(2),), 1.0, (3, 2), 1.0, 2.0)])
    def test_verdicts_invariant_within_parity(self, d, gamma, lam, cutoff, N, gap):
        # every on-lattice tuple in every within-parity slot order; on the
        # physical floats n/3, exact ties read differently in some orders
        lat = _Lattice(zero_field(build_geometry(d, gamma, lam), cutoff), 6 if d == 1 else 4)
        idx = np.concatenate([i for _, i in lat.on_lattice(1 << 14)])
        codes = cut_verdicts(lat, idx, N, gap)
        assert np.any(is_resonant(codes)) and np.any(is_nonresonant(codes))
        for perm in within_parity_permutations(lat.n):
            assert np.array_equal(cut_verdicts(lat, idx[:, perm], N, gap), codes)

    def test_collapse_identity_off_the_dyadic_grid(self):
        # (deg/2) [Lambda(nl in slot 2) - Lambda(nl in slot 1)] of sigma + sigma~
        # equals the full alternating sum over every substituted slot, the
        # latter summed over every tuple from the stored table
        g = build_geometry(1, (), 3.0)
        th = Thresholds(2.0)
        f = random_field(g, 6, RNG)
        nl = nonlinear_coefficient_field(f)
        sets = [[nl if i == j else f for i in range(6)] for j in range(6)]
        full = gamma_sums(correction_tables(f, 1.5, 0.5, th).combined, sets)
        alternating = np.sum(full * (-1.0) ** np.arange(1, 7))
        (collapsed,), = correction_sums(f, [1.5], 0.5, [(sets[:2], ("combined",))], th)[0]
        assert abs(3 * (collapsed[1] - collapsed[0]) - alternating) \
            <= 1e-13 * np.max(np.abs(full))


def representative_terms(f, N, th, sets):
    """Per symbol, set and orbit representative, the term value x A x B of
    an orbit walk's sums (symbols, sets, representatives), from
    ``_correction_values`` and the arrangement sums of each block."""
    deg = f.geometry.nonlinearity_degree + 1
    lat = _Orbits(f, deg)
    evaluate = energies._correction_evaluator(lat, [N], 0.5, th)
    vecs = energies._slot_stack(sets)
    terms = []
    for blocks, idx in lat.batches(1 << 30):
        values = np.stack(evaluate(blocks, idx))
        t = 0
        for (odd, even), (R, C) in blocks:
            A = lat._arrangements(vecs[0::2], np.arange(odd.start, odd.stop))
            B = lat._arrangements(vecs[1::2], np.arange(even.start, even.stop))
            weight = (A[:, :, None] * B[:, None, :]).reshape(len(A), R * C)
            terms.append(values[:, None, t:t + R * C] * weight[None])
            t += R * C
    return np.concatenate(terms, axis=2)


# the orbit walk's accuracy lattices: (d, gamma, lambda, cutoff, N)
ACCURACY_LATTICES = [(1, (), 1.0, 5, 1.0), (1, (), 3.0, 5, 1.0),
                     (2, (0.75,), 1.0, (3, 2), 1.5), (2, (1 / np.sqrt(2),), 1.0, (3, 3), 1.0)]


class TestOrbitWalkSums:
    # the default buffer, and one so small that every block is contracted
    # on its own
    @pytest.mark.parametrize("contract_bytes", [energies._CONTRACT_BYTES, 1])
    @pytest.mark.parametrize("d, gamma, lam, cutoff, N", ACCURACY_LATTICES)
    def test_sums_within_ulps_of_exact_resummation(self, d, gamma, lam, cutoff, N,
                                                   contract_bytes, monkeypatch):
        # the walk groups its float sums by block, run and buffer; whatever
        # the grouping, each sum is within a few ulps of sum |term| of the
        # exactly rounded (math.fsum) sum of its per-representative terms
        g = build_geometry(d, gamma, lam)
        deg = g.nonlinearity_degree + 1
        th = Thresholds(2.0)
        fs = [random_field(g, cutoff, RNG) for _ in range(deg)]
        nl = nonlinear_coefficient_field(fs[0])
        families = {
            "plain": [[f] * deg for f in fs[:2]],
            "substituted": [[nl if i == j else fs[0] for i in range(deg)] for j in range(2)],
            "mixed": [[fs[(i + j) % deg] for i in range(deg)] for j in range(2)],
        }
        monkeypatch.setattr(energies, "_CONTRACT_BYTES", contract_bytes)
        got = correction_sums(fs[0], [N], 0.5, [(sets, CORRECTION_SYMBOLS)
                                                for sets in families.values()], th)
        for (family, sets), sums in zip(families.items(), (sums[0] for sums in got)):
            terms = representative_terms(fs[0], N, th, sets)
            exact = np.array([[complex(math.fsum(t.real), math.fsum(t.imag)) for t in row]
                              for row in terms])
            scale = np.sum(np.abs(terms), axis=2)
            assert np.all(scale > 0)
            assert np.all(np.abs(sums - exact) <= 4 * np.finfo(float).eps * scale), family

    @pytest.mark.parametrize("d, gamma, lam, cutoff, N", ACCURACY_LATTICES)
    def test_cut_groups_within_ulps_of_exact_resummation(self, d, gamma, lam, cutoff, N,
                                                          monkeypatch):
        # blocks of at most seven tuples cut the sigma-groups into rows and
        # column slices; the sums keep the 4-ulp bound of the uncut walk
        monkeypatch.setattr(energies, "_TABLE_TUPLES", 7)
        self.test_sums_within_ulps_of_exact_resummation(d, gamma, lam, cutoff, N,
                                                        energies._CONTRACT_BYTES, monkeypatch)

    def test_walk_memory_is_flat_in_the_cutoff(self):
        # at 1-D kcut 32 the widest sigma-group pairs 545 x 545
        # representatives; cut at _TABLE_TUPLES tuples its blocks keep the
        # walk near the interpreter's import footprint (98-112 MB when a
        # block held up to 4,096 rows against every column).  The peak is
        # the child's own VmHWM: Linux carries ru_maxrss over from the
        # forking process
        script = ("import numpy as np\n"
                  "from nlslab.energies import CORRECTION_SYMBOLS, correction_sums\n"
                  "from nlslab.geometry import build_geometry, random_field\n"
                  "rng = np.random.default_rng(0)\n"
                  "fs = [random_field(build_geometry(1), 32, rng) for _ in range(3)]\n"
                  "correction_sums(fs[0], [4.0, 8.0], 0.5,\n"
                  "                [([[f] * 6 for f in fs], CORRECTION_SYMBOLS)], budget=10 ** 10)\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(status.split('VmHWM:')[1].split()[0])\n")
        src = str(Path(nlslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=True)
        assert int(proc.stdout) / 1024 < 65

    def test_contraction_memory_bounded(self, monkeypatch):
        # 640 sets on a lattice walked as one run of 35 blocks, one per
        # symmetry class, contracted once per element of its group of four.
        # Above its inputs, each contraction holds [Re A; Im A] (A.nbytes)
        # and two buffer-sized arrays, the buffer and its product with B,
        # each at most max(_CONTRACT_BYTES, one block's product), and
        # numpy's casting buffers (512 KiB of slack): nothing grows with the
        # run's blocks x sets
        f = random_field(build_geometry(2, (0.75,), 1.0), (3, 2), RNG)
        contract, calls = energies._contract, []

        def traced(acc, A, B, V, shapes):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            contract(acc, A, B, V, shapes)
            column = len(V) * 2 * len(A) * 8  # buffer bytes per column
            buffer = max(energies._CONTRACT_BYTES, column * max(C for _, C in shapes))
            calls.append((tracemalloc.get_traced_memory()[1] - before,
                          A.nbytes + 2 * buffer + (1 << 19), len(shapes), column * B.shape[1]))

        monkeypatch.setattr(energies, "_contract", traced)
        tracemalloc.start()
        try:
            correction_sums(f, [1.5], 0.5, [([[f] * 4] * 640, CORRECTION_SYMBOLS)])
        finally:
            tracemalloc.stop()
        assert len(calls) == 4
        walked = energies._symmetries(_Orbits(f, 4))[1]
        # the identity's call holds every walked block, and an unbounded
        # buffer would not fit
        _, bound, blocks, products = calls[0]
        assert blocks == len(walked) > 30 and products > bound
        for peak, bound, _, _ in calls:
            assert peak <= bound


# the quotient walk's lattices: ORBIT_LATTICES and the unit square with
# equal cutoffs, whose group has all eight signed axis permutations
QUOTIENT_LATTICES = ORBIT_LATTICES + [(2, (1.0,), 1.0, (2, 2), 1.0, 2.0)]


class TestQuotientWalk:
    """The correction walk classifies one sigma-block per class of the
    lattice's symmetry group and contracts it against the weights of every
    distinct image of the block."""

    @pytest.mark.parametrize("d, gamma, cutoff, size", [
        (1, (), 3, 2), (2, (0.75,), (3, 2), 4), (2, (1 / np.sqrt(2),), (2, 2), 4),
        (2, (1.0,), (3, 3), 8), (2, (1.0,), (3, 2), 4)])
    def test_group_sizes(self, d, gamma, cutoff, size):
        # the signed axis permutations that keep the box and every |k|; the
        # walked classes, each counted once per distinct image, hold every
        # representative
        lat = _Orbits(zero_field(build_geometry(d, gamma, 1.0), cutoff), 6 if d == 1 else 4)
        maps, walked, per_sum = energies._symmetries(lat)
        assert len(maps) == size and np.array_equal(maps[0], np.arange(lat.Q))
        count = np.diff(lat.bounds)
        new = energies._new_images(lat, maps)[:, lat.bounds[walked]]
        assert np.array_equal(new.sum(axis=0), per_sum[walked])
        assert np.sum(per_sum[walked] * count[walked] * count[::-1][walked]) == lat.tuples

    @pytest.mark.parametrize("d, gamma, lam, cutoff, N, gap", QUOTIENT_LATTICES)
    def test_equals_trivial_group_walk(self, d, gamma, lam, cutoff, N, gap):
        # the same _walk with the identity alone, which walks every block:
        # within the 4-ulp bound of the exact resummation test, over plain,
        # substituted and mixed families and an N grid of two values; the
        # quotient walk classifies only the walked blocks' representatives
        g = build_geometry(d, gamma, lam)
        deg = g.nonlinearity_degree + 1
        th, Ns = Thresholds(gap), (N, 1.5 * N)
        fs = [random_field(g, cutoff, RNG) for _ in range(deg)]
        nl = nonlinear_coefficient_field(fs[0])
        families = {
            "plain": [[f] * deg for f in fs[:2]],
            "substituted": [[nl if i == j else fs[0] for i in range(deg)] for j in range(2)],
            "mixed": [[fs[(i + j) % deg] for i in range(deg)] for j in range(2)],
        }
        lat = _Orbits(fs[0], deg)
        evaluate = energies._correction_evaluator(lat, Ns, 0.5, th)
        passes = [(energies._slot_stack(sets), tuple(range(3 * len(Ns))))
                  for sets in families.values()]
        maps, walked, _ = energies._symmetries(lat)
        classified = []

        def counting(blocks, idx):
            classified.append(len(idx))
            return evaluate(blocks, idx)

        quotient = energies._walk(lat, counting, passes, (maps, walked))
        count = np.diff(lat.bounds)
        assert sum(classified) == np.sum(count[walked] * count[::-1][walked]) < lat.tuples
        trivial = energies._walk(lat, evaluate, passes, ([np.arange(lat.Q)], None))
        for (family, sets), q, t in zip(families.items(), quotient, trivial):
            scale = np.concatenate([np.sum(np.abs(representative_terms(fs[0], n, th, sets)),
                                           axis=2) for n in Ns])
            assert np.all(scale > 0)
            assert np.all(np.abs(q - t) <= 4 * np.finfo(float).eps * scale), family


class TestMemoryGuard:
    def test_tables_past_half_of_memory_refused(self, monkeypatch):
        field = zero_field(build_geometry(1), 3)
        tables = 3 * 7 ** 5 * np.dtype(np.float64).itemsize
        monkeypatch.setattr(energies, "_physical_memory", lambda: 2 * tables)
        correction_tables(field, 1.0, 0.5)
        monkeypatch.setattr(energies, "_physical_memory", lambda: 2 * tables - 1)
        with pytest.raises(ValueError, match="physical memory"):
            correction_tables(field, 1.0, 0.5)

    def test_refused_before_enumerating(self, monkeypatch):
        def no_enumeration(self, max_tuples):
            raise AssertionError("enumerated past the memory guard")

        monkeypatch.setattr(energies, "_physical_memory", lambda: 0)
        monkeypatch.setattr(energies._Lattice, "on_lattice", no_enumeration)
        with pytest.raises(ValueError, match="physical memory"):
            correction_tables(zero_field(build_geometry(1), 3), 1.0, 0.5)

    def test_physical_memory_positive(self):
        assert energies._physical_memory() > 0


def test_cumulative_simpson_polynomials():
    x = np.linspace(0.0, 2.0, 21)
    y = 3 * x**2
    out = cumulative_simpson(y, x[1] - x[0])
    assert out[-1] == pytest.approx(8.0, rel=1e-12)
    assert out[10] == pytest.approx(1.0, rel=1e-12)


class TestResidual:
    def test_zero_field(self):
        g = build_geometry(1)
        z = zero_field(g, 4)
        out = energy_identity_residual([z] * 5, np.linspace(0, 0.1, 5), [2.0], s=0.5)
        assert np.max(np.abs(out["residual"][0])) == 0.0
        assert out["imag_leak"][0] == 0.0

    def test_plane_wave_residual_negligible(self):
        g = build_geometry(1)
        K = 6
        u0 = plane_wave(g, K, mode=3, amp=1.0)
        cfg = EvolutionConfig(g, K, integrator="strang", dt=1e-3, t_end=0.05,
                              sample_stride=10)
        traj = evolve(cfg, u0)
        out = energy_identity_residual(traj.samples, traj.times, [2.0], s=0.5)
        assert np.max(np.abs(out["residual"][0])) < 1e-10
        assert np.max(np.abs(np.diff(out["e_i1"][0]))) < 1e-12
        assert out["imag_leak"][0] < 1e-12

    def test_refinement_small_lattice(self):
        g = build_geometry(1)
        K = 4
        rng = np.random.default_rng(9)
        modes = {int(n): 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
                 for n in (-4, -2, 0, 1, 3)}
        u0 = field_from_modes(g, K, modes)
        prev = None
        for n_steps in (20, 40, 80):
            cfg = EvolutionConfig(g, K, integrator="rk4-galerkin",
                                  dt=0.08 / n_steps, t_end=0.08, sample_stride=4)
            traj = evolve(cfg, u0)
            out = energy_identity_residual(traj.samples, traj.times, [2.0], 0.5)
            r = abs(out["residual"][0][-1])
            if prev is not None:
                assert prev / max(r, 1e-300) >= 3.5
            prev = r
