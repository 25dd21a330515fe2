"""Lattice, norm, dyadic-shell, and free-flow behavior of spectral fields."""

import numpy as np
import pytest

from nlslab import geometry
from nlslab.energies import nonlinear_coefficient_field, nonlinear_coefficients
from nlslab.geometry import (TorusGeometry, build_geometry, field_from_modes,
                             free_evolve, from_physical, grid_points, load_field,
                             lp_spacetime_norm, norm, pointwise_product,
                             random_field, save_field, sharp_shell_index,
                             to_physical, zero_field)

RNG = np.random.default_rng(7)


def test_build_geometry_examples():
    g = build_geometry(1, (), 1.0)
    assert g.measure_weight == pytest.approx(1.0 / (2 * np.pi))

    g2 = build_geometry(2, (0.75,), 4.0)
    assert g2.axis_scales == (4.0, 3.0)
    assert g2.measure_weight == pytest.approx(1.0 / (2 * np.pi * 4) / (2 * np.pi * 3))


def test_build_geometry_rejects_bad_fields():
    with pytest.raises(ValueError, match="gamma"):
        build_geometry(2, (0.4,), 2.0)
    with pytest.raises(ValueError, match="lambda"):
        build_geometry(1, (), 0.5)
    with pytest.raises(ValueError, match="dimension"):
        build_geometry(3, (1.0, 1.0), 1.0)


def test_single_mode_norms():
    # u = e^{ix} on the unit torus: fhat(1) = 2*pi
    g = build_geometry(1)
    u = field_from_modes(g, 4, {1: 2 * np.pi})
    assert norm(u, "l2") ** 2 == pytest.approx(2 * np.pi, rel=1e-14)
    assert norm(u, "hs", s=1.0) ** 2 == pytest.approx(4 * np.pi, rel=1e-14)
    assert norm(u, "dot_hs", s=1.0) ** 2 == pytest.approx(2 * np.pi, rel=1e-14)
    assert norm(zero_field(g, 4), "l2") == 0.0


def test_plancherel_matches_grid_quadrature():
    for d, gamma in ((1, ()), (2, (0.8,))):
        g = build_geometry(d, gamma, 2.0)
        u = random_field(g, 6, RNG)
        vals = to_physical(u, 3)
        quad = np.mean(np.abs(vals) ** 2) * g.volume
        assert quad == pytest.approx(norm(u, "l2") ** 2, rel=1e-10)


def test_roundtrip_and_interpolation():
    g = build_geometry(1, (), 2.0)
    u = random_field(g, 8, RNG)
    back = from_physical(to_physical(u, 2), g, 8)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    # single-mode field evaluated on the grid matches the plane wave
    v = field_from_modes(g, 8, {3: 1.7 + 0.2j})
    x = grid_points(v, 4)[0]
    k = 3 / g.axis_scales[0]
    expected = (1.7 + 0.2j) * g.measure_weight * np.exp(1j * k * x)
    assert np.max(np.abs(to_physical(v, 4) - expected)) < 1e-13


def test_grid_too_small_rejected():
    g = build_geometry(1)
    vals = np.zeros(5, dtype=complex)
    with pytest.raises(ValueError, match="too small"):
        from_physical(vals, g, 4)


def test_product_matches_brute_force_convolution():
    g = build_geometry(1, (), 1.0)
    K = 4
    u = random_field(g, K, RNG)
    v = random_field(g, K, RNG)
    prod_vals = pointwise_product([u, v], [False, False])
    w = from_physical(prod_vals, g, 2 * K)
    # direct convolution: (uv)hat(n) = w_measure * sum_a uhat(a) vhat(n-a)
    wm = g.measure_weight
    for n in range(-2 * K, 2 * K + 1):
        acc = 0.0 + 0.0j
        for a in range(-K, K + 1):
            b = n - a
            if -K <= b <= K:
                acc += u.coeffs[a + K] * v.coeffs[b + K]
        assert w.coeffs[n + 2 * K] == pytest.approx(wm * acc, abs=1e-12)


def test_sharp_shells_partition_and_count():
    assert np.all(sharp_shell_index([0.5, 1.5, 2.0, 3.9, 4.0]) == [1, 1, 2, 2, 4])
    # the levels 1, 2, 4, 8 take every mode of a K = 30 field exactly once;
    # level 1 on the lambda = 4 lattice holds |k| < 2, i.e. modes |n| <= 7
    f = zero_field(build_geometry(1, (), 4.0), 30)
    shell = sharp_shell_index(f.kabs())
    masks = [shell == N for N in (1, 2, 4, 8)]
    assert np.array_equal(sum(m.astype(int) for m in masks), np.ones(shell.shape, dtype=int))
    assert np.array_equal(masks[0], np.abs(f.mode_range(0)) <= 7)


def test_free_evolution_is_unitary_group():
    g = build_geometry(1, (), 3.0)
    u = random_field(g, 10, RNG)
    assert np.array_equal(free_evolve(u, 0.0).coeffs, u.coeffs)
    w = free_evolve(free_evolve(u, 0.3), 0.45)
    assert np.max(np.abs(w.coeffs - free_evolve(u, 0.75).coeffs)) < 1e-12
    assert np.max(np.abs(np.abs(w.coeffs) - np.abs(u.coeffs))) < 1e-12


def test_free_evolution_matches_plane_wave_sum():
    g = build_geometry(1, (), 2.0)
    u = field_from_modes(g, 6, {2: 1.0, -3: 0.5j})
    t = 0.37
    ut = free_evolve(u, t)
    w = g.measure_weight
    k2, k3 = 2 / 2.0, -3 / 2.0
    vals = to_physical(ut, 5)
    xs = grid_points(ut, 5)[0]
    exact = w * (np.exp(1j * (k2 * xs - k2**2 * t))
                 + 0.5j * np.exp(1j * (k3 * xs - k3**2 * t)))
    assert np.max(np.abs(vals - exact)) < 1e-12


def test_spacetime_norm_plane_wave_and_refinement():
    g = build_geometry(1, (), 2.0)
    c = 0.8 - 0.3j
    u0 = field_from_modes(g, 4, {1: c / g.measure_weight})
    T = 0.5
    samples = [free_evolve(u0, t) for t in np.linspace(0, T, 9)]
    val = lp_spacetime_norm(samples, 6.0, T)
    expected = abs(c) * (g.side_lengths[0] * T) ** (1 / 6)
    assert val == pytest.approx(expected, rel=1e-12)

    with pytest.raises(ValueError, match="4 time samples"):
        lp_spacetime_norm(samples[:3], 6.0, T)

    u1 = field_from_modes(g, 4, {1: 1.0, 3: 0.5})
    coarse = [free_evolve(u1, t) for t in np.linspace(0, T, 33)]
    fine = [free_evolve(u1, t) for t in np.linspace(0, T, 129)]
    ref = lp_spacetime_norm(fine, 6.0, T)
    assert abs(lp_spacetime_norm(coarse, 6.0, T) - ref) / ref < 1e-3

    z = zero_field(g, 4)
    assert lp_spacetime_norm([z] * 5, 4.0, T) == 0.0


def test_field_serialization_roundtrip(tmp_path):
    g = build_geometry(2, (0.75,), 2.0)
    u = random_field(g, 3, RNG)
    path = tmp_path / "field.nlsf"
    save_field(path, u)
    v = load_field(path)
    assert v.geometry == u.geometry
    assert np.array_equal(v.coeffs, u.coeffs)


def test_fields_are_immutable():
    g = build_geometry(1)
    u = zero_field(g, 3)
    with pytest.raises(ValueError):
        u.coeffs[0] = 1.0


# -- the pruned transforms against numpy's n-D FFTs ---------------------------


def _ifftn_reference(f, sizes):
    buf = np.zeros(sizes, dtype=np.complex128)
    slots = tuple(np.arange(-k, k + 1) % m for k, m in zip(f.cutoff, sizes))
    buf[np.ix_(*slots)] = f.geometry.measure_weight * f.coeffs
    return np.fft.ifftn(buf, norm="forward")


def _fftn_reference(values, geometry, cutoff):
    slots = tuple(np.arange(-k, k + 1) % m for k, m in zip(cutoff, values.shape))
    spec = np.fft.fftn(values)[np.ix_(*slots)]
    return spec * (1.0 / (np.prod(values.shape) * geometry.measure_weight))


TRANSFORM_CASES = [(1, (), 7), (1, (), 32), (2, (0.75,), 7), (2, (0.75,), (5, 3)),
                   (2, (0.6,), (3, 8)), (2, (1.0,), (32, 32)), (2, (0.75,), 0)]


@pytest.mark.parametrize("d, gamma, cutoff", TRANSFORM_CASES)
@pytest.mark.parametrize("oversample", [1, 2, 3])
def test_transforms_bit_identical_to_numpy_nd(d, gamma, cutoff, oversample):
    g = build_geometry(d, gamma, 1.7)
    u = random_field(g, cutoff, np.random.default_rng(11))
    vals = to_physical(u, oversample)
    sizes = tuple((2 * k + 1) * oversample for k in u.cutoff)
    assert vals.tobytes() == _ifftn_reference(u, sizes).tobytes()
    back = from_physical(vals, g, u.cutoff)
    assert back.coeffs.tobytes() == _fftn_reference(vals, g, u.cutoff).tobytes()
    # a grid finer than the cutoff needs, and a smaller cutoff on it
    small = tuple(max(0, k - 1) for k in u.cutoff)
    assert (from_physical(vals, g, small).coeffs.tobytes()
            == _fftn_reference(vals, g, small).tobytes())


@pytest.mark.parametrize("d, gamma, cutoff", TRANSFORM_CASES)
def test_free_evolve_bit_identical_to_phase_product(d, gamma, cutoff):
    g = build_geometry(d, gamma, 1.3)
    u = random_field(g, cutoff, np.random.default_rng(5))
    kabs = np.sqrt(sum(x * x for x in u.freq_grids()))
    assert u.kabs().tobytes() == kabs.tobytes()
    for t in (0.0, 0.013, 0.013, np.float64(2.5)):
        expected = np.exp(-1j * t * kabs ** 2) * u.coeffs
        assert free_evolve(u, t).coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d, gamma, cutoff", TRANSFORM_CASES)
def test_nonlinear_coefficients_bit_identical_to_numpy_nd(d, gamma, cutoff):
    # |u|^(4/d) u through the dealiased kernel against the n-D references
    g = build_geometry(d, gamma, 1.7)
    u = random_field(g, cutoff, np.random.default_rng(13))
    p = g.nonlinearity_degree
    vals = _ifftn_reference(u, geometry.dealiasing_plan(g, u.cutoff).sizes)
    mod2 = vals.real ** 2 + vals.imag ** 2
    expected = _fftn_reference(vals * mod2 ** ((p - 1) // 2), g, u.cutoff)
    assert nonlinear_coefficient_field(u).coeffs.tobytes() == expected.tobytes()


def _is_smooth5(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


@pytest.mark.parametrize("d, gamma", [(1, ()), (2, (0.75,))])
def test_dealiasing_sizes_are_the_smallest_smooth_alias_free(d, gamma):
    # per axis the smallest 2^a 3^b 5^c >= (p+1)K+1: a product of p factors
    # holds modes up to pK, whose aliases m - M stay off [-K, K] once M > (p+1)K
    g = build_geometry(d, gamma, 1.0)
    p = g.nonlinearity_degree
    for K in range(0, 70):
        cutoff = (K,) * d if d == 1 else (K, max(0, K - 3))
        for k, m in zip(cutoff, geometry.dealiasing_plan(g, cutoff).sizes):
            low = (p + 1) * k + 1
            assert m >= low and _is_smooth5(m), (k, m)
            assert not any(_is_smooth5(n) for n in range(low, m)), (k, m)
    # 1-D kcut 64 and the bench's 2-D K = 32, where (2K+1)(p+2)//2 read 387 and 130
    assert geometry.dealiasing_plan(g, (64,) * d).sizes == ((400,) if d == 1 else (270, 270))
    assert geometry.dealiasing_plan(g, (32,) * d).sizes == ((200,) if d == 1 else (135, 135))


@pytest.mark.parametrize("d, gamma, cutoff", TRANSFORM_CASES)
def test_nonlinear_coefficients_match_the_oversampled_grid(d, gamma, cutoff):
    # the (2K+1)(p+2)//2 grid is alias-free too: both grids give the same
    # projected |u|^(4/d) u up to rounding
    g = build_geometry(d, gamma, 1.7)
    u = random_field(g, cutoff, np.random.default_rng(17))
    p = g.nonlinearity_degree
    wide = geometry.transform_plan(g, u.cutoff,
                                   tuple((2 * k + 1) * ((p + 2) // 2) for k in u.cutoff))
    ref = nonlinear_coefficients(wide, u.coeffs)
    got = nonlinear_coefficient_field(u).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _full_convolution(a, b):
    out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)), dtype=np.complex128)
    for idx in np.ndindex(a.shape):
        out[tuple(slice(i, i + n) for i, n in zip(idx, b.shape))] += a[idx] * b
    return out


@pytest.mark.parametrize("d, gamma, cutoff", [(1, (), 3), (2, (0.75,), (2, 1))])
def test_nonlinear_coefficients_match_brute_force_convolution(d, gamma, cutoff):
    # |u|^(4/d) u = u ubar u ... (p factors); ubar has coefficient
    # conj(uhat(-n)) at n, and a product's coefficients are w^(p-1) times
    # the lattice convolution of its factors'
    g = build_geometry(d, gamma, 1.3)
    u = random_field(g, cutoff, np.random.default_rng(19))
    p = g.nonlinearity_degree
    factors = [u.coeffs if j % 2 == 0 else np.conj(np.flip(u.coeffs)) for j in range(p)]
    full = factors[0]
    for f in factors[1:]:
        full = _full_convolution(full, f)
    centre = tuple(slice((p - 1) * k, (p + 1) * k + 1) for k in u.cutoff)
    ref = g.measure_weight ** (p - 1) * full[centre]
    got = nonlinear_coefficient_field(u).coeffs
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cached_lattice_arrays_are_read_only():
    import nlslab.geometry as geometry

    g = build_geometry(2, (0.75,), 1.0)
    u = random_field(g, (4, 3), RNG)
    free_evolve(u, 0.1)
    assert u.kabs() is u.kabs()
    plan = geometry.transform_plan(g, u.cutoff, (18, 14))
    assert geometry.transform_plan(g, u.cutoff, (18, 14)) is plan
    assert geometry.dealiasing_plan(g, u.cutoff) is geometry.dealiasing_plan(g, u.cutoff)
    with pytest.raises(AttributeError):
        plan.weight = 1.0
    cached = [u.kabs(), geometry._free_propagator(g, u.cutoff, 0.1),
              *plan.index, plan.generator]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
