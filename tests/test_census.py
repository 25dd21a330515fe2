"""Census kernel: partition, exactness, cross-validation, bound sweeps."""

import numpy as np
import pytest

from nlslab import census
from nlslab.census import (BudgetError, BoundReport, resonance_census_1d,
                           resonance_census_2d, sohinger_presence,
                           verify_multiplier_bounds)
from nlslab.classify import (BELOW, Thresholds, classify_batch_1d,
                             is_nonresonant, is_resonant)
from nlslab.multipliers import omega
from nlslab.smoothing import SmoothingSymbol, m_value


def reference_counts(N, kmax, s, th):
    """Direct ordered enumeration through the general classifier."""
    modes = np.arange(-kmax, kmax + 1)
    grids = np.meshgrid(*([modes] * 5), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=-1)
    tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
    tup = tup[np.abs(tup[:, 5]) <= kmax].astype(float)
    codes, _ = classify_batch_1d(tup, N, th)
    om = np.abs(omega(tup))
    sym = SmoothingSymbol(N, 1 - s)
    m2 = m_value(np.abs(tup), sym) ** 2
    M = np.abs(np.sum(m2 * tup**2 * np.array([1, -1, 1, -1, 1, -1]), axis=-1))
    stats = {}
    for c in np.unique(codes):
        sel = codes == c
        d = {"count": int(sel.sum())}
        if is_nonresonant(c):
            d["min_om"] = float(om[sel].min())
            d["max_ratio"] = float((M[sel] / om[sel]).max())
        stats[int(c)] = d
    return stats, len(tup)


@pytest.mark.parametrize("gap", [3.0, 4.0, 6.0])
def test_kernel_matches_reference_enumeration(gap):
    th = Thresholds(gap=gap)
    kmax = 4
    ref4, total = reference_counts(4.0, kmax, 0.5, th)
    reports = resonance_census_1d([4.0], kmax, 0.5, th)
    rep = reports[4.0]
    assert rep.total == total
    for c, d in ref4.items():
        st = rep.classes[c]
        assert st.count == d["count"]
        if "min_om" in d:
            assert st.min_abs_omega == d["min_om"]
            assert st.max_ratio == pytest.approx(d["max_ratio"], rel=1e-12)


def test_partition_property():
    reports = resonance_census_1d([4.0], kmax=8, s=0.5)
    rep = reports[4.0]
    fams = rep.counts_by_family()
    assert sum(fams.values()) == rep.total
    assert fams["below"] > 0 and fams["resonant"] > 0 and fams["nonresonant"] > 0
    assert rep.violations == 0


def test_nonresonant_rules_have_positive_omega_floor():
    reports = resonance_census_1d([4.0, 8.0], kmax=10, s=0.5)
    for rep in reports.values():
        for code, st in rep.classes.items():
            if is_nonresonant(code) and st.count:
                assert st.min_abs_omega > 0
                assert st.min_omega_ratio > 0


def test_sohinger_family_in_census():
    # every multiple with 7K <= kmax: zero resonance, classified resonant at N=4
    rows = sohinger_presence(16, N=4.0)
    assert [r["K"] for r in rows] == [1, 2]
    assert all(r["omega"] == 0 for r in rows)
    assert all(r["resonant"] for r in rows)


def test_budget_guard():
    with pytest.raises(BudgetError, match="budget"):
        resonance_census_1d([4.0], kmax=32, budget=10 ** 6)


def test_2d_census_partitions_and_sound():
    reports = resonance_census_2d([2.0, 4.0], kmax=3, s=0.6)
    for rep in reports.values():
        fams = rep.counts_by_family()
        assert sum(fams.values()) == rep.total
        assert rep.violations == 0
        for code, st in rep.classes.items():
            if is_nonresonant(code) and st.count:
                assert st.min_abs_omega > 0


class TestVerify:
    def test_sigma_bounds_exact(self):
        r6 = verify_multiplier_bounds("sigma6", N=4.0, kmax=16, s=0.5)
        assert r6.sup_ratio <= 1.0 + 1e-12
        r4 = verify_multiplier_bounds("sigma4", N=4.0, kmax=8, s=0.5)
        assert r4.sup_ratio <= 1.0 + 1e-12

    def test_nonresonant_ratio_bounded(self):
        r = verify_multiplier_bounds("nonresonant", N=8.0, kmax=32, s=0.5)
        assert r.count > 0
        assert np.isfinite(r.sup_ratio)
        assert r.sup_ratio < 10.0

    def test_resonant_cases_bounded(self):
        for case in ("i", "ii", "iii", "iv"):
            r = verify_multiplier_bounds(case, N=8.0, kmax=32, s=0.5)
            assert r.count > 0, case
            assert np.isfinite(r.sup_ratio), case
            assert r.sup_ratio < 50.0, case

    def test_2d_cases(self):
        res = verify_multiplier_bounds("2d-resonant", N=4.0, kmax=8, s=0.5)
        non = verify_multiplier_bounds("2d-nonresonant", N=4.0, kmax=8, s=0.5)
        assert res.count > 0 and non.count > 0
        assert non.sup_ratio <= 1.5

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv", "nonresonant"])
    def test_chunked_equals_one_shot(self, case, monkeypatch):
        family = census._family_tuples_1d

        def subset(*args):
            rows = family(*args)
            keep = np.random.default_rng(2).choice(len(rows), 3000, replace=False)
            return rows[np.sort(keep)]

        monkeypatch.setattr(census, "_family_tuples_1d", subset)
        monkeypatch.setattr(census, "_VERIFY_ROWS", 1 << 30)
        whole = verify_multiplier_bounds(case, N=4.0, kmax=10, s=0.5)
        monkeypatch.setattr(census, "_VERIFY_ROWS", 7)
        chunked = verify_multiplier_bounds(case, N=4.0, kmax=10, s=0.5)
        assert whole.count > 0, case
        assert chunked == whole

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            verify_multiplier_bounds("v", N=4.0, kmax=8)


class TestFamilyTuples:
    @pytest.mark.parametrize("case", ["ii", "nonresonant"])
    def test_equals_unique_of_concatenated_families(self, case, monkeypatch):
        seen = []
        unique_rows = census._unique_rows

        def capture(blocks, kmax):
            seen.append([b.copy() for b in blocks])
            return unique_rows(blocks, kmax)

        monkeypatch.setattr(census, "_unique_rows", capture)
        got = census._family_tuples_1d(case, 6.0, 12, 4.0, np.random.default_rng(0))
        ref = np.unique(np.concatenate(seen[0]), axis=0).astype(np.float64)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_unique_rows_at_the_int64_key_limit(self):
        # (2*723+1)^6 fits an int64 key, (2*724+1)^6 does not: the packed
        # keys and the row sort on either side of the limit
        rng = np.random.default_rng(3)
        tup = rng.integers(-723, 724, size=(500, 6))
        blocks = [tup, tup[:50], np.full((2, 6), 723), np.full((1, 6), -723)]
        ref = np.unique(np.concatenate(blocks), axis=0).astype(np.float64)
        for kmax in (723, 724):
            consumed = list(blocks)
            assert np.array_equal(census._unique_rows(consumed, kmax), ref)
            assert consumed == []
