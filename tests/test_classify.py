"""Resonance classifier: verdicts, witnesses, totality, and symmetry."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab.classify import (BELOW, NR_2D, NR_BILINEAR, NR_PAIR, NR_SIGNS, NR_TRIPLE,
                             RES_I, RES_III, Thresholds, classify_batch_1d,
                             classify_batch_2d, is_nonresonant, is_resonant,
                             omega_lower_bound)
from nlslab.energies import _Lattice, _lattice_verdicts
from nlslab.geometry import build_geometry, zero_field
from nlslab.multipliers import omega
from reference import classify

RNG = np.random.default_rng(5)


def gamma6(count, lo=-32, hi=32):
    free = RNG.integers(lo, hi + 1, size=(count, 5)).astype(float)
    last = -free.sum(axis=1, keepdims=True)
    return np.concatenate([free, last], axis=1)


def test_near_collision_pair_is_resonant_case_i():
    t = (64.0, -63.0, 16.0, -16.0, -1.0, 0.0)
    v = classify(t, N=16.0)
    assert v.code == RES_I
    assert v.resonant
    assert v.witness["pair_sum"] == pytest.approx(1.0)
    assert v.witness["collision_scale"] == pytest.approx(16.0**2 / 64.0)


def test_separated_pair_is_nonresonant():
    t = (64.0, -32.0, -16.0, -16.0, 0.0, 0.0)
    om = abs(omega(np.array(t)))
    assert om == 3072.0
    # tight gap factor: the conjugated maximum is half the top -> pair rule
    v2 = classify(t, N=16.0, thresholds=Thresholds(gap=2.0))
    assert v2.code == NR_PAIR
    assert om >= v2.witness["omega_lower_bound"] > 0
    # default gap: same verdict through the bilinear separation rule
    v4 = classify(t, N=16.0)
    assert v4.code == NR_BILINEAR
    assert om >= v4.witness["omega_lower_bound"] > 0


def test_sohinger_is_resonant_case_iii():
    t = 8 * np.array([5.0, -3, 6, -2, 1, -7])
    v = classify(t, N=8.0)
    assert v.code == RES_III
    assert omega(t) == 0.0


def test_below_threshold():
    v = classify((2.0, -1.0, 1.0, -2.0, 1.0, -1.0), N=16.0)
    assert v.code == BELOW
    assert not v.resonant and not v.nonresonant


def test_totality_and_determinism():
    tups = gamma6(5000)
    codes, _ = classify_batch_1d(tups, N=8.0)
    again, _ = classify_batch_1d(tups, N=8.0)
    assert np.array_equal(codes, again)
    # every tuple gets exactly one of the three families
    below = codes == BELOW
    assert np.all(below | is_resonant(codes) | is_nonresonant(codes))


def test_verdict_invariance_under_slot_symmetries():
    tups = gamma6(2000)
    codes, _ = classify_batch_1d(tups, N=8.0)

    # permute unconjugated slots (1,3,5) -> (3,5,1)
    perm = tups[:, [2, 1, 4, 3, 0, 5]]
    codes_p, _ = classify_batch_1d(perm, N=8.0)
    assert np.array_equal(codes, codes_p)

    # permute conjugated slots (2,4,6) -> (6,2,4)
    perm2 = tups[:, [0, 5, 2, 1, 4, 3]]
    codes_p2, _ = classify_batch_1d(perm2, N=8.0)
    assert np.array_equal(codes, codes_p2)

    # conjugation symmetry: swap parities and negate
    swapped = -tups[:, [1, 0, 3, 2, 5, 4]]
    codes_s, _ = classify_batch_1d(swapped, N=8.0)
    assert np.array_equal(codes, codes_s)

    # global negation
    codes_n, _ = classify_batch_1d(-tups, N=8.0)
    assert np.array_equal(codes, codes_n)

    # lattice indices vs physical frequencies m / lambda: a power-of-two
    # rescaling of the tuples and N is exact in float
    codes_r, _ = classify_batch_1d(tups / 8.0, N=8.0 / 8.0)
    assert np.array_equal(codes, codes_r)


def gamma4(count):
    """Zero-sum 2-D four-slot tuples on an anisotropic lattice: half of them
    random, half with slots 1, 3 large and nearly opposite (the pair that
    can dominate), slots 2, 4 small."""
    free = RNG.integers(-16, 17, size=(count, 3, 2)).astype(float)
    big = RNG.integers(-24, 25, size=(count, 2)).astype(float)
    small = RNG.integers(-3, 4, size=(count, 2, 2)).astype(float)
    paired = np.stack([big, small[:, 0], -(big + small[:, 0] + small[:, 1]),
                       small[:, 1]], axis=1)
    tups = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
    return np.concatenate([tups, paired]) / np.array([1.0, 0.75])


def test_2d_verdict_invariance_under_slot_symmetries():
    # the premise of collapsing the substituted Lambda sums: swapping slots
    # (1 3) or (2 4) never changes a verdict
    tups = gamma4(3000)
    codes, _ = classify_batch_2d(tups, N=4.0)
    assert {BELOW, NR_2D} <= set(np.unique(codes)) and np.any(is_resonant(codes))
    for perm in ([2, 1, 0, 3], [0, 3, 2, 1], [2, 3, 0, 1]):
        swapped, _ = classify_batch_2d(tups[:, perm], N=4.0)
        assert np.array_equal(codes, swapped), perm


def assert_same_verdicts(got, ref):
    """(codes, Parts1D) pairs equal as values, field by field and slot by
    slot, whatever their dtypes."""
    (codes, parts), (ref_codes, ref_parts) = got, ref
    assert np.array_equal(codes, ref_codes)
    for name, field, ref_field in zip(parts._fields, parts, ref_parts):
        for a, b in (zip(field, ref_field) if isinstance(field, tuple) else [(field, ref_field)]):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("top, dtypes", [(127, (np.int8, np.int16, np.int32, np.int64)),
                                         (32767, (np.int16, np.int32, np.int64))])
def test_integer_input_is_dtype_invariant(top, dtypes):
    # the same tuples as integer rows of every dtype that holds them and as
    # float64 rows: the same codes and Parts1D values.  |k| up to the
    # dtype's bound, where a pair sum such as s12 = 127 + 120 leaves the
    # dtype; equal-|k| ties of opposite signs in either parity; zero slots;
    # and the vanishing-resonance (Sohinger) family
    big = top - 7
    special = [(top, big, -top, -big, 0, 0), (-top, -big, top, big, 0, 0),
               (top, -top, big, -big, 0, 0), (big, top, -big, -top, 7, -7),
               (5, 2, -5, -2, 3, -3), (-5, 2, 5, -2, 3, -3), (2, 5, 3, -5, -5, 0),
               (2, -5, 3, 5, -5, 0), (0, 0, 0, 0, 0, 0), (top, 0, 0, top, 0, 0),
               (0, top, -top, 0, 0, 0)]
    sohinger = [K * np.array([5, -3, 6, -2, 1, -7]) for K in range(1, top // 7 + 1)]
    rng = np.random.default_rng(29)
    drawn = []
    for hi in (3, 24, top // 5):
        free = rng.integers(-hi, hi + 1, size=(4000, 5))
        drawn.append(np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1))
    tups = np.concatenate([np.array(special), np.array(sohinger)] + drawn)
    assert np.abs(tups).max() == top
    th = Thresholds(gap=3.0)
    ref = classify_batch_1d(tups.astype(np.float64), 2.0, th)
    assert len(np.unique(ref[0])) > 5
    for dtype in dtypes:
        assert_same_verdicts(classify_batch_1d(tups.astype(dtype), 2.0, th), ref)
    # some pair sum leaves the narrowest dtype of the rows
    assert np.abs(ref[1].s12).max() > top


def test_lattice_verdicts_equal_batch_codes():
    # the Lambda walk classifies integer modes (1-D) or per-mode |k| (2-D);
    # at lambda = 1 or a power of two, and on any 2-D lattice, that gives the
    # batch classifier's codes on the physical tuples, bit for bit
    th = Thresholds(gap=3.0)
    for d, gamma, lam, cutoff in ((1, (), 1.0, 5), (1, (), 2.0, 6), (2, (0.75,), 1.0, (3, 2)),
                                  (2, (1 / np.sqrt(2),), 1.0, (3, 3))):
        lat = _Lattice(zero_field(build_geometry(d, gamma, lam), cutoff), 6 if d == 1 else 4)
        idx = np.concatenate([i for _, i in lat.on_lattice(1 << 14)])
        batch = classify_batch_1d if d == 1 else classify_batch_2d
        for N in (1.0, 1.5, 2.0):
            codes, _ = batch(lat.physical(idx), N, th)
            assert len(np.unique(codes)) > 2
            uncut, top, _ = _lattice_verdicts(lat, idx, th.gap)
            got = np.where(top <= N, BELOW, uncut)
            assert got.dtype == codes.dtype and np.array_equal(got, codes)


def test_omega_lower_bound_per_rule():
    # one claimed bound per non-resonant rule, NaN for every other verdict
    G = 4.0
    codes = np.array([NR_PAIR, NR_TRIPLE, NR_BILINEAR, NR_SIGNS, NR_2D, RES_I, BELOW])
    n1, n3, s12, lo_sq = (np.arange(7.0) + c for c in (8.0, 2.0, -3.0, 5.0))
    got = omega_lower_bound(codes, G, n1=n1, n3=n3, s12=s12, lo_sq=lo_sq)
    assert np.array_equal(got[:5], [(1 - 3 / G**2) * 8.0**2, 9.0 * 3.0 / G, 10.0 * 1.0 / G,
                                    11.0**2 / G, 2 * (1 - 1 / G**2) * 9.0])
    assert np.all(np.isnan(got[5:]))


def test_nonresonant_never_sees_zero_resonance_small_sweep():
    # exhaustive over a small lattice: no nonresonant verdict with omega = 0
    K = 6
    rng = np.arange(-K, K + 1)
    grids = np.meshgrid(*([rng] * 5), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    last = -free.sum(axis=1, keepdims=True)
    tups = np.concatenate([free, last], axis=1)
    tups = tups[np.abs(tups[:, 5]) <= K]
    for G in (3.0, 4.0, 6.0):
        codes, _ = classify_batch_1d(tups, N=2.0, thresholds=Thresholds(gap=G))
        om = omega(tups)
        bad = is_nonresonant(codes) & (om == 0.0)
        assert not np.any(bad), tups[bad][:5]


class Test2d:
    def test_dominant_unconjugated_pair(self):
        t = ((16.0, 1.0), (-1.0, 0.0), (-16.0, -2.0), (1.0, 1.0))
        v = classify(t, N=4.0, d=2)
        assert v.code == NR_2D
        om = abs(omega(np.array(t), d=2))
        assert om >= v.witness["omega_lower_bound"] > 0

    def test_attained_bound_reads_exactly(self):
        # |Omega| = 60 = 2(1 - 1/16)|k2|^2 with |k2|^2 = 32: the bound is
        # attained, so it must not read above |Omega|
        t = ((-4, -4), (-1, -1), (4, 4), (1, 1))
        v = classify(t, 1.0, Thresholds(4.0), d=2)
        assert v.code == NR_2D
        assert abs(omega(np.array(t, dtype=float), d=2)) == 60.0
        assert v.witness["omega_lower_bound"] == 60.0

    def test_mixed_pair_is_resonant(self):
        t = ((16.0, 0.0), (-16.0, -1.0), (1.0, 1.0), (-1.0, 0.0))
        v = classify(t, N=4.0, d=2)
        assert v.resonant

    def test_below(self):
        t = ((2.0, 0.0), (-2.0, -1.0), (1.0, 1.0), (-1.0, 0.0))
        assert classify(t, N=8.0, d=2).code == BELOW

    def test_2d_nonresonant_bound_provable(self):
        count = 4000
        free = RNG.integers(-16, 17, size=(count, 3, 2)).astype(float)
        last = -free.sum(axis=1, keepdims=True)
        tups = np.concatenate([free, last], axis=1)
        codes, _ = classify_batch_2d(tups, N=4.0)
        om = np.abs(omega(tups, d=2))
        nr = is_nonresonant(codes)
        assert not np.any(nr & (om == 0.0))


def test_wrong_slot_count_rejected():
    with pytest.raises(ValueError, match="slots"):
        classify((1.0, -1.0, 2.0, -2.0), N=2.0, d=1)


def test_rules_reached_only_through_public_entries():
    # physical tuples go through classify_batch_1d/_2d and lattice tuples
    # through energies._lattice_verdicts: no other package module names the
    # private rule functions
    private = re.compile(r"_(verdicts|classify)_")
    found = []
    for path in sorted(Path(nlslab.__file__).parent.glob("*.py")):
        if path.name in ("classify.py", "energies.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if private.match(name)]
    assert found == []
