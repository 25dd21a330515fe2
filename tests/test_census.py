"""Census kernel: partition, exactness, cross-validation, bound sweeps."""

import importlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab import census, energies
from nlslab.census import (BudgetError, BoundReport, resonance_census_1d,
                           resonance_census_2d, sohinger_presence,
                           verify_multiplier_bounds)
from nlslab.classify import (BELOW, NR_2D, NR_BILINEAR, NR_PAIR, NR_SIGNS, NR_TRIPLE,
                             RES_I, RES_II, Thresholds, classify_batch_1d,
                             classify_batch_2d, is_nonresonant, is_resonant,
                             omega_lower_bound)
from nlslab.cli import main
from nlslab.geometry import build_geometry, zero_field
from nlslab.multipliers import bare_m6, omega, sigma_product
from nlslab.smoothing import SmoothingSymbol, m_value

# the package exports the function ``classify`` under the module's name
classify = importlib.import_module("nlslab.classify")


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


def reference_census_1d(N, kmax, s, th):
    """The 1-D census by direct enumeration in its documented order: odd
    triples sorted by descending values, in lexicographic order, each with
    its permutation count; then (k2, k4) in C order, k6 fixed by the
    constraint.  M sums the odd slots by descending |k| (ties by descending
    value), minus k2 + k4 + k6.  Per class the census row."""
    vals = range(kmax, -kmax - 1, -1)
    tri = list(itertools.combinations_with_replacement(vals, 3))
    odd = np.array([sorted(t, key=abs, reverse=True) for t in tri])
    mult = np.array([len(set(itertools.permutations(t))) for t in tri])
    side = np.arange(-kmax, kmax + 1)
    t, k2, k4 = (g.ravel() for g in np.meshgrid(np.arange(len(tri)), side, side,
                                                 indexing="ij"))
    k6 = -(odd[t].sum(axis=1) + k2 + k4)
    keep = np.abs(k6) <= kmax
    t, k2, k4, k6 = t[keep], k2[keep], k4[keep], k6[keep]
    tup = np.stack([odd[t, 0], k2, odd[t, 1], k4, odd[t, 2], k6], axis=1)
    codes, parts = classify_batch_1d(tup.astype(float), N, th)
    om = np.abs(omega(tup.astype(float)))
    sym = SmoothingSymbol(N, 1 - s)
    b = m_value(np.abs(tup), sym) ** 2 * tup.astype(float) ** 2
    M = np.abs(b[:, 0::2].sum(axis=1) - (b[:, 1] + b[:, 3] + b[:, 5]))
    n1, n3 = parts.mags[0], parts.mags[2]
    n3c = np.maximum(n3, 1.0)
    G = th.gap
    claimed = {NR_PAIR: (1 - 3 / G**2) * n1**2, NR_TRIPLE: n1 * n3 / G,
               NR_BILINEAR: n1 * np.abs(parts.s12) / G, NR_SIGNS: n1**2 / G}
    rows = {}
    for code in np.unique(codes):
        sel = codes == code
        row = {"count": int(mult[t][sel].sum()), "min_abs_omega": None,
               "min_omega_ratio": None, "max_ratio": 0.0, "witness_tuple": []}
        if code != BELOW:
            row["min_abs_omega"] = float(om[sel].min())
            if is_nonresonant(code):
                row["min_omega_ratio"] = float((om[sel] / claimed[code][sel]).min())
                ratios = M[sel] / om[sel]
            else:
                ratios = M[sel] / (m_value(n1[sel], sym) * n1[sel]
                                   * m_value(n3c[sel], sym) * n3c[sel])
            row["max_ratio"] = float(ratios.max())
            row["witness_tuple"] = [int(x) for x in tup[sel][int(ratios.argmax())]]
        rows[int(code)] = row
    return rows, int(mult[t].sum())


# configs where M's float sum differs within an orbit and moves the first
# maximizer off the orbit representative's own slot order
@pytest.mark.parametrize("kmax, gap, s, N", [(5, 3.0, 0.3, 2.0), (7, 2.0, 0.7, 1.0),
                                             (9, 4.0, 0.5, 1.0), (4, 4.0, 0.5, 4.0)])
def test_1d_census_matches_reference_enumeration(kmax, gap, s, N):
    th = Thresholds(gap=gap)
    rows, total = reference_census_1d(N, kmax, s, th)
    rep = resonance_census_1d([N], kmax, s, th)[N]
    assert rep.total == total and rep.violations == 0
    assert sorted(rep.classes) == sorted(rows)
    for code, row in rows.items():
        got = rep.classes[code].row(None)
        del got["class"]
        assert got == row, code


def _count_searches(monkeypatch):
    """Wrap the census's witness search; the list of its calls' held rows."""
    calls, search = [], census._first_maximizer

    def counted(walk, held, mx, b):
        calls.append(sum(len(idx) for idx, _ in held))
        return search(walk, held, mx, b)

    monkeypatch.setattr(census, "_first_maximizer", counted)
    return calls


def test_witness_search_runs_once_per_class(monkeypatch):
    # the bench's census: the image search runs once per (N, class) with a
    # positive supremum, after the walk; searching as the walk went, at
    # every block that tied the running supremum, took 83 searches
    calls = _count_searches(monkeypatch)
    reports = resonance_census_1d([4.0, 8.0], 13, thresholds=Thresholds(gap=4.0))
    stats = [st for rep in reports.values() for st in rep.classes.values()]
    assert all(bool(st.witness) == (st.max_ratio > 0) for st in stats)
    assert len(calls) == sum(st.max_ratio > 0 for st in stats) == 14


def test_held_ties_resolve_past_the_bound(monkeypatch):
    # a bound of one tuple walks one tuple per block and resolves a class's
    # held ties whenever a second row joins them; the rows still equal the
    # reference enumeration's
    calls = _count_searches(monkeypatch)
    monkeypatch.setattr(census, "_TABLE_TUPLES", 1)
    N, kmax, s, th = 2.0, 5, 0.3, Thresholds(gap=3.0)
    rows, total = reference_census_1d(N, kmax, s, th)
    rep = resonance_census_1d([N], kmax, s, th)[N]
    assert rep.total == total and sorted(rep.classes) == sorted(rows)
    for code, row in rows.items():
        got = rep.classes[code].row(None)
        del got["class"]
        assert got == row, code
    positive = sum(st.max_ratio > 0 for st in rep.classes.values())
    assert len(calls) > positive and max(calls) == 2


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


@pytest.mark.parametrize("d", [1, 2])
def test_kmax_zero_counts_the_zero_tuple(d, tmp_path):
    # one tuple, all slots at mode 0, below every threshold
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"d = {d}\nkmax = 0\nn_grid = 2\n")
    assert main(["census", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c" / "census.csv").read_text().splitlines()
    assert [r.split(",")[3:5] for r in rows[1:]] == [["below-threshold", "1"]]


def test_2d_census_partitions_and_sound():
    reports = resonance_census_2d([2.0, 4.0], kmax=3, s=0.6)
    for rep in reports.values():
        fams = rep.counts_by_family()
        assert sum(fams.values()) == rep.total
        assert rep.violations == 0
        for code, st in rep.classes.items():
            if is_nonresonant(code) and st.count:
                assert st.min_abs_omega > 0


def reference_census_2d(N_values, kmax, s, th):
    """The 2-D census by ordered enumeration of all Q^3 (k1, k2, k3), C order,
    in one shot: per class the count, min |omega|, min |omega|/claimed, the
    supremum ratio and its first maximizer."""
    side = np.arange(-kmax, kmax + 1)
    pts = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    i1, i2, i3 = (g.ravel() for g in np.meshgrid(*[np.arange(len(pts))] * 3,
                                                 indexing="ij"))
    k4 = -(pts[i1] + pts[i2] + pts[i3])
    valid = np.all(np.abs(k4) <= kmax, axis=-1)
    tup = np.stack([pts[i1], pts[i2], pts[i3], k4], axis=1)[valid].astype(float)
    sqs = np.sum(tup**2, axis=-1)
    om = np.abs(sqs[:, 0] - sqs[:, 1] + sqs[:, 2] - sqs[:, 3])
    base, parts = classify_batch_2d(tup, N=0.0, thresholds=th)
    mags = np.sort(parts.mags, axis=-1)[..., ::-1]
    n1, n3 = mags[:, 0], np.maximum(mags[:, 2], 1.0)
    out = {}
    for N in N_values:
        sym = SmoothingSymbol(N, 1.0 - s)
        codes = np.where(n1 <= N, BELOW, base)
        M = np.abs(np.sum(m_value(np.sqrt(sqs), sym) ** 2 * sqs
                          * np.array([1.0, -1.0, 1.0, -1.0]), axis=-1))
        rows = {}
        for code in np.unique(codes):
            sel = codes == code
            row = {"count": int(sel.sum()), "min_abs_omega": None,
                   "min_omega_ratio": None, "max_ratio": 0.0, "witness_tuple": []}
            if code != BELOW:
                row["min_abs_omega"] = float(om[sel].min())
                if is_nonresonant(code):
                    # from the integer |k|^2 of the second largest slot
                    lo_sq = np.maximum(np.sort(sqs[sel], axis=-1)[:, 2], 1.0)
                    claimed = 2.0 * (1 - 1 / th.gap**2) * lo_sq
                    row["min_omega_ratio"] = float((om[sel] / claimed).min())
                    ratios = M[sel] / om[sel]
                else:
                    ratios = M[sel] / (m_value(n1[sel], sym) * n1[sel]
                                       * m_value(n3[sel], sym) * n3[sel])
                row["max_ratio"] = float(ratios.max())
                row["witness_tuple"] = [float(x) for x in tup[sel][int(ratios.argmax())].ravel()]
            rows[int(code)] = row
        out[float(N)] = (rows, len(tup))
    return out


# blocks of about 1000 tuples split the lattice into many out-of-order
# sigma-group blocks; 2^20 keeps it in one block: witness ties are then
# decided across blocks and within a block respectively.  At kmax 3, gaps 2
# and 3, the first maximizer of NonResonant(2d-Atilde) at N 3.5 lies in a
# sigma-block the census skips, as an image of a walked one
@pytest.mark.parametrize("block", [1000, 1 << 20])
@pytest.mark.parametrize("kmax", [2, 3, 4])
@pytest.mark.parametrize("gap", [2.0, 3.0, 4.0, 6.0])
def test_2d_census_matches_reference_enumeration(kmax, gap, block, monkeypatch):
    monkeypatch.setattr(census, "_TABLE_TUPLES", block)
    th = Thresholds(gap=gap)
    N_values = (1.0, 2.0, 3.5, 5.0)
    ref = reference_census_2d(N_values, kmax, 0.6, th)
    reports = resonance_census_2d(N_values, kmax, s=0.6, thresholds=th)
    for N, (rows, total) in ref.items():
        rep = reports[N]
        assert rep.total == total
        assert rep.violations == 0
        assert sorted(rep.classes) == sorted(rows)
        for code, row in rows.items():
            got = rep.classes[code].row(None)
            del got["class"]
            assert got == row, (N, code)


def test_2d_attained_claimed_bound_reads_exactly_one():
    # at kmax 4, gap 4 the claimed bound 2(1 - 1/G^2)|k|^2 of NonResonant
    # (2d-Atilde) is attained with equality; formed from sqrt(|k|^2)^2 it
    # rounded above the integer |k|^2 and read as 0.9999999999999998
    rep = resonance_census_2d([1.0], 4, thresholds=Thresholds(gap=4.0))[1.0]
    assert rep.classes[NR_2D].min_omega_ratio == 1.0
    assert rep.violations == 0


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_2d_census_memory_is_bounded():
    # the whole-lattice enumeration peaked near 660 MB; the on-lattice blocks
    # keep the interpreter close to its import footprint.  The peak is the
    # child's own VmHWM: Linux carries ru_maxrss over from the forking
    # process, so that would count this test process too.
    script = ("from nlslab.census import resonance_census_2d\n"
              "resonance_census_2d([4.0, 8.0], 6)\n"
              "status = open('/proc/self/status').read()\n"
              "print(status.split('VmHWM:')[1].split()[0])\n")
    src = str(Path(nlslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) / 1024 < 150


class TestLatticeSymmetry:
    """The census walks one sigma-block per class of the lattice's symmetry
    group (``census._symmetries``).  Its premise: on every orbit
    representative, under every element, the statistics it reads are
    unchanged, and the walked classes count every representative once."""

    @staticmethod
    def statistics(lat, idx, gap, Ns, s):
        """Verdict code, largest |k|, |Omega|, claimed bound and per N the
        sorted row of M over the census's arrangements, as the census reads
        them."""
        sq = np.sum(lat.modes ** 2, axis=1)
        ksq = sq[idx]
        codes, n1, parts = energies._lattice_verdicts(lat, idx, gap)
        om = np.abs(ksq[:, 0::2].sum(axis=1) - ksq[:, 1::2].sum(axis=1))
        ranked = np.sort(ksq, axis=1)
        if lat.d == 1:
            claimed = omega_lower_bound(codes, gap, n1=n1, s12=parts.s12,
                                        n3=np.sqrt(np.maximum(ranked[:, -3], 1)))
        else:
            claimed = omega_lower_bound(codes, gap, lo_sq=np.maximum(ranked[:, -2], 1))
        out = [codes, n1, om, claimed]
        for N in Ns:
            b = census._mode_table(int(sq.max()), N, s).bare
            t = b[ksq]
            if lat.d == 1:
                o = b[np.sort(ksq[:, 0::2], axis=1)[:, ::-1]].sum(axis=1)
                M = [o - (t[:, a[1]] + t[:, a[3]] + t[:, a[5]]) for a in census._ARRANGEMENTS[1]]
            else:
                M = [t[:, a[0]] - t[:, a[1]] + t[:, a[2]] - t[:, a[3]]
                     for a in census._ARRANGEMENTS[2]]
            out.append(np.sort(np.abs(np.stack(M, axis=1)), axis=1))
        return out

    @pytest.mark.parametrize("gap", [2.0, 4.0])
    @pytest.mark.parametrize("d, kmax, group", [(1, 9, 2), (2, 4, 8)])
    def test_statistics_are_invariant(self, d, kmax, group, gap):
        n, s, Ns = (6, 0.5, (1.0, 4.0)) if d == 1 else (4, 0.6, (1.0, 2.0, 3.5))
        lat = energies._Orbits(zero_field(build_geometry(d, (1.0,) * (d - 1)), kmax), n)
        maps, walked, size = census._symmetries(lat)
        assert len(maps) == group and np.array_equal(maps[0], np.arange(lat.Q))
        count = np.diff(lat.bounds)
        assert np.sum(size * count * count[::-1]) == lat.tuples
        assert np.array_equal(walked, np.flatnonzero(size))
        idx = np.concatenate([i for _, i in lat.batches(1 << 30)])
        assert len(idx) == lat.tuples
        ref = self.statistics(lat, idx, gap, Ns, s)
        assert np.any(is_nonresonant(ref[0])) and np.any(is_resonant(ref[0]))
        for to in maps[1:]:
            img = to[idx]
            img[:, 0::2].sort(axis=1)
            img[:, 1::2].sort(axis=1)
            assert not np.array_equal(img, idx)
            for a, b in zip(ref, self.statistics(lat, img, gap, Ns, s)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d, kmax", [(1, 3), (2, 2)])
    def test_manifest_records_the_walk(self, d, kmax, tmp_path):
        # per gap, the representatives classified and the tuples they stand
        # for; in 1-D the sigma = 0 block is its own image and every other
        # block stands for itself and its negation
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"d = {d}\nkmax = {kmax}\ngap_grid = 3,4\n")
        assert main(["census", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        walks = json.loads((tmp_path / "c" / "manifest.json").read_text())["guards"]["walks"]
        census_fn = resonance_census_1d if d == 1 else resonance_census_2d
        rep = census_fn([4.0], kmax)[4.0]
        assert walks == [{"gap": g, "representatives": rep.representatives, "tuples": rep.total}
                         for g in (3.0, 4.0)]
        n, group = (6, 2) if d == 1 else (4, 8)
        lat = energies._Orbits(zero_field(build_geometry(d, (1.0,) * (d - 1)), kmax), n)
        assert lat.tuples / group < rep.representatives < lat.tuples < rep.total
        if d == 1:
            zero = np.diff(lat.bounds)[len(lat.bounds) // 2 - 1] ** 2
            assert 2 * rep.representatives - zero == lat.tuples


class TestSoundnessGate:
    """The census exits 2 and names a zero-|Omega| witness when a
    non-resonant verdict meets a vanishing resonance function.  Only part of
    the zero-|Omega| tuples are made non-resonant, so resonant classes still
    reach |Omega| = 0, as they legitimately do."""

    @staticmethod
    def run(tmp_path, d):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"d = {d}\nkmax = {3 if d == 1 else 2}\nn_grid = 1\n")
        code = main(["census", "--config", str(cfg), "--out", str(tmp_path / "r")])
        guards = json.loads((tmp_path / "r" / "manifest.json").read_text())["guards"]
        lines = (tmp_path / "r" / "summary.txt").read_text().splitlines()
        witness = [ln.split(": ", 1)[1] for ln in lines if ln.startswith("witness tuple")]
        rows = (tmp_path / "r" / "census.csv").read_text().splitlines()
        resonant_zero = [r for r in rows if ",Resonant(" in r and r.split(",")[5] == "0.0"]
        return code, guards, witness, resonant_zero

    def test_d1(self, tmp_path, monkeypatch):
        cascade = classify._cascade_1d

        def unsound(odd, even, aom, G):
            codes, parts = cascade(odd, even, aom, G)
            codes[(aom == 0.0) & is_resonant(codes) & (parts.mags[0] % 2 == 0)] = NR_SIGNS
            return codes, parts

        monkeypatch.setattr(classify, "_cascade_1d", unsound)
        code, guards, witness, resonant_zero = self.run(tmp_path, 1)
        assert code == 2 and guards["violations"] > 0 and resonant_zero
        k = np.array(eval(witness[0]), dtype=np.int64)
        assert k.sum() == 0 and np.max(np.abs(k)) % 2 == 0
        assert int(np.sum(k**2 * np.array([1, -1, 1, -1, 1, -1]))) == 0

    def test_d2(self, tmp_path, monkeypatch):
        verdicts = energies._verdicts_2d

        def unsound(m, G):
            codes, pairs = verdicts(m, G)
            sq = np.rint(m**2)  # exact |k|^2 on the unit lattice
            zero = sq[:, 0] - sq[:, 1] + sq[:, 2] - sq[:, 3] == 0
            codes[zero & is_resonant(codes) & (sq[:, 0] % 2 == 0)] = NR_2D
            return codes, pairs

        monkeypatch.setattr(energies, "_verdicts_2d", unsound)
        code, guards, witness, resonant_zero = self.run(tmp_path, 2)
        assert code == 2 and guards["violations"] > 0 and resonant_zero
        k = np.array(eval(witness[0]), dtype=float).reshape(4, 2)
        assert np.all(k.sum(axis=0) == 0) and np.sum(k[0] ** 2) % 2 == 0
        assert np.sum(np.sum(k**2, axis=1) * np.array([1, -1, 1, -1])) == 0.0


def _reference_bound(case, tup, N, th):
    """(count, sup_ratio, witness) of a case over its own set ``tup`` (float
    rows): the kept region and bound of each case, classified in one block,
    with M, sigma, m and Omega from the per-tuple functions."""
    sym = SmoothingSymbol(N, 0.5)
    gap = th.gap
    if case.startswith("2d"):
        codes, parts = classify_batch_2d(tup, N, th)
        M = np.abs(bare_m6(tup, sym, 2))
        if case == "2d-nonresonant":
            sel = is_nonresonant(codes)
            ratios = M[sel] / np.abs(omega(tup[sel], 2))
        else:
            sel = is_resonant(codes)
            mags = np.sort(parts.mags[sel], axis=-1)[:, ::-1]
            n1, n3 = mags[:, 0], np.maximum(mags[:, 2], 1.0)
            ratios = M[sel] / (m_value(n1, sym) * n1 * m_value(n3, sym) * n3)
    else:
        codes, parts = classify_batch_1d(tup, N, th)
        mags, om = parts.mags, parts.abs_omega
        M = np.abs(bare_m6(tup, sym))
        o, e = parts.odd, parts.even
        pair12 = np.abs(o[0] + e[0])
        pair34 = np.abs(o[1] + e[1])
        n1 = mags[0]
        n3 = np.maximum(mags[2], 1.0)
        n5 = np.maximum(mags[4], 1.0)
        n12 = np.maximum(pair12, 1.0)
        sel, bound = {
            "i": (is_resonant(codes) & (mags[2] * gap >= n1),
                  m_value(n1, sym) * n1 * m_value(n3, sym) * n3),
            "ii": (codes == RES_I, n3**2),
            "iii": ((codes == RES_II) & (pair12 <= gap * n5) & (pair34 <= gap * n5),
                    m_value(n1, sym) * n1 * n5),
            "iv": ((codes == RES_II) & (pair12 > gap * n5) & (pair34 <= gap * n12)
                   & (pair34 * gap >= n12), m_value(n1, sym) * n1 * n12),
            "nonresonant": (is_nonresonant(codes), np.where(om > 0, om, np.inf)),
        }[case]
        ratios = (M / bound)[sel]
    if not len(ratios):
        return 0, 0.0, ()
    i = int(np.argmax(ratios))
    kind = float if case.startswith("2d") else int
    return len(ratios), float(ratios[i]), tuple(kind(x) for x in tup[sel][i].ravel())


def _background(kmax):
    """The family cases' background at seed 0, as rows and as the sorted
    ``_keys`` that verify passes to the family union."""
    rows = census._zero_sum_draws(np.random.default_rng(0), kmax, *census._DRAW_BACKGROUND)
    return rows, np.sort(census._keys(rows, census._BACKGROUND, kmax))


def _row_blocks(blocks, keys, rows):
    """``blocks`` as ``_family_blocks`` yielded them, the background's
    ``keys`` (its last block) replaced by its ``rows``."""
    (bit, last), = blocks[-1:]
    assert bit == census._BACKGROUND and last is keys
    return blocks[:-1] + [(bit, rows)]


class TestVerify:
    def test_nonresonant_ratio_bounded(self):
        r, = verify_multiplier_bounds(("nonresonant",), N=8.0, kmax=32, s=0.5).values()
        assert r.count > 0
        assert np.isfinite(r.sup_ratio)
        assert r.sup_ratio < 10.0

    def test_resonant_cases_bounded(self):
        for case in ("i", "ii", "iii", "iv"):
            r, = verify_multiplier_bounds((case,), N=8.0, kmax=32, s=0.5).values()
            assert r.count > 0, case
            assert np.isfinite(r.sup_ratio), case
            assert r.sup_ratio < 50.0, case

    def test_2d_cases(self):
        res, = verify_multiplier_bounds(("2d-resonant",), N=4.0, kmax=8, s=0.5).values()
        non, = verify_multiplier_bounds(("2d-nonresonant",), N=4.0, kmax=8, s=0.5).values()
        assert res.count > 0 and non.count > 0
        assert non.sup_ratio <= 1.5

    @pytest.mark.parametrize("case", census.VERIFY_CASES)
    def test_chunked_equals_one_shot(self, case, monkeypatch):
        # 3000 of the case's tuples, so that 7-row blocks stay fast; a family
        # case is read from the pass over every family case
        if case.startswith("2d"):
            def subset(*args):
                rows = draws(*args)
                return rows[np.sort(np.random.default_rng(2).choice(len(rows), 3000,
                                                                    replace=False))]

            draws = census._zero_sum_draws
            monkeypatch.setattr(census, "_zero_sum_draws", subset)
            cases = (case,)
        else:
            def subset(*args):
                rows, bits = family(*args)
                keep = np.sort(np.random.default_rng(2).choice(len(rows), 3000,
                                                               replace=False))
                return rows[keep], bits[keep]

            family = census._family_tuples_1d
            monkeypatch.setattr(census, "_family_tuples_1d", subset)
            cases = tuple(census._SOURCES)
        monkeypatch.setattr(census, "_VERIFY_ROWS", 1 << 30)
        whole = verify_multiplier_bounds(cases, N=4.0, kmax=10, s=0.5)
        monkeypatch.setattr(census, "_VERIFY_ROWS", 7)
        chunked = verify_multiplier_bounds(cases, N=4.0, kmax=10, s=0.5)
        assert all(rep.count > 0 for rep in whole.values()), case
        assert chunked == whole

    @pytest.mark.parametrize("N, gap", [(4.0, 4.0), (5.0, 3.0), (6.5, 4.0)])
    def test_shared_pass_equals_per_case_sets(self, N, gap, monkeypatch):
        # each family case of the shared pass against its own definition:
        # np.unique of that case's family blocks plus the background,
        # classified alone, with m from m_value.  At N 6.5 (kmax 12) the
        # int8 rows' squares pass 127
        kmax = 2 * int(N)
        th = Thresholds(gap=gap)
        shared = verify_multiplier_bounds(tuple(census._SOURCES), N, kmax, s=0.5,
                                          thresholds=(th,))
        seen = []
        unique_rows = census._unique_rows

        def capture(blocks, kmax):
            seen.append(list(blocks))
            return unique_rows(seen[-1], kmax)

        monkeypatch.setattr(census, "_unique_rows", capture)
        rows, keys = _background(kmax)
        for rep in shared.values():
            census._family_tuples_1d((rep.case,), N, kmax, gap, keys)
            blocks = _row_blocks(seen.pop(), keys, rows)
            tup = np.unique(np.concatenate([b for _, b in blocks]), axis=0).astype(float)
            count, sup, witness = _reference_bound(rep.case, tup, N, th)
            assert count > 0, rep.case
            assert (rep.count, rep.sup_ratio, rep.witness) == (count, sup, witness), rep.case

    def test_drawn_cases_equal_per_tuple_functions(self):
        # the 2-D cases, sharing one draw, against that draw classified
        # alone with bare_m6, m_value and omega, at a non-integer N whose
        # transition annulus (5.5, 11) and beyond the draws reach
        # (|k| <= 9 sqrt 2)
        N, kmax, th = 5.5, 9, Thresholds()
        draws = census._zero_sum_draws(np.random.default_rng(0), kmax,
                                       *census._DRAW_2D).astype(float)
        for rep in verify_multiplier_bounds(("2d-resonant", "2d-nonresonant"), N, kmax,
                                            s=0.5, thresholds=(th,)).values():
            count, sup, witness = _reference_bound(rep.case, draws, N, th)
            assert count > 0, rep.case
            assert (rep.count, rep.sup_ratio, rep.witness) == (count, sup, witness), rep.case

    def test_unknown_case_rejected(self):
        for case in ("v", "sigma6", "sigma4"):
            with pytest.raises(ValueError, match=f"case '{case}'"):
                verify_multiplier_bounds((case,), N=4.0, kmax=8)


class TestFamilyTuples:
    @pytest.mark.parametrize("N, kmax, dtype", [(6.0, 12, np.int8), (96.0, 128, np.int16)])
    @pytest.mark.parametrize("case", ["ii", "nonresonant"])
    def test_equals_unique_of_concatenated_families(self, case, N, kmax, dtype, monkeypatch):
        seen = []
        unique_rows = census._unique_rows

        def capture(blocks, kmax):
            seen.append(list(blocks))
            return unique_rows(seen[-1], kmax)

        monkeypatch.setattr(census, "_unique_rows", capture)
        rows, keys = _background(kmax)
        got, bits = census._family_tuples_1d((case,), N, kmax, 4.0, keys)
        blocks = _row_blocks(seen[0], keys, rows)
        ref = np.unique(np.concatenate([b for _, b in blocks]), axis=0)
        assert got.dtype == dtype and np.array_equal(got, ref)
        # every row's bits name exactly the sources that hold it
        for bit in {bit for bit, _ in blocks}:
            held = np.unique(np.concatenate([b for t, b in blocks if t == bit]), axis=0)
            assert np.array_equal(got[(bits & bit) != 0], held)

    def test_unique_rows_at_the_int8_limit(self):
        # zero-sum rows at kmax 127 (int8 rows, 8-bit key fields) and 128
        # (int16, 9 bits), and a row held by several blocks carries the OR
        # of their origin bits
        tup = census._zero_sum_draws(np.random.default_rng(3), 127, 1000, 6, 1)[:500]
        top = np.array([127, -127] * 3)
        blocks = [(1, tup), (2, tup[:50]), (4, np.tile(top, (2, 1))), (2, -top[None]),
                  (4, tup[40:60])]
        ref = np.unique(np.concatenate([b for _, b in blocks]), axis=0)
        ref_bits = np.array([np.bitwise_or.reduce([bit for bit, b in blocks
                                                   if (b == row).all(axis=1).any()])
                             for row in ref], dtype=np.uint8)
        assert set(ref_bits) == {1, 2, 3, 4, 5, 7}
        for kmax, dtype in ((127, np.int8), (128, np.int16)):
            stream = iter(blocks)
            rows, bits = census._unique_rows(stream, kmax)
            assert rows.dtype == dtype and np.array_equal(rows, ref)
            assert bits.dtype == np.uint8 and np.array_equal(bits, ref_bits)
            assert next(stream, None) is None

    def test_unique_rows_at_the_key_limit(self):
        # zero-sum int16 rows at kmax 2047, five 12-bit fields and three
        # origin bits in 63 bits, against np.unique of the blocks; at 2048 a
        # key would take 68 bits, and the blocks are refused unread
        kmax = 2047
        rng = np.random.default_rng(6)
        free = rng.integers(-kmax, kmax + 1, size=(6000, 5))
        free[:, ::2] //= 1000  # runs of equal leading columns
        tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        tup = tup[np.abs(tup[:, 5]) <= kmax][:3000]
        top = np.array([kmax, -kmax] * 3)
        blocks = [(1, tup), (2, tup[::7]), (4, np.tile(-top, (3, 1))), (4, tup[100:150]),
                  (2, top[None])]
        rows, bits = census._unique_rows(iter(blocks), kmax)
        ref, inverse = np.unique(np.concatenate([b for _, b in blocks]), axis=0,
                                 return_inverse=True)
        ref_bits = np.zeros(len(ref), dtype=np.uint8)
        np.bitwise_or.at(ref_bits, inverse.ravel(),
                         np.concatenate([np.full(len(b), bit) for bit, b in blocks]))
        assert set(ref_bits) == {1, 2, 3, 4, 5, 7}
        assert rows.dtype == np.int16 and np.array_equal(rows, ref)
        assert bits.dtype == np.uint8 and np.array_equal(bits, ref_bits)
        stream = iter(blocks)
        with pytest.raises(ValueError, match="past 2047"):
            census._unique_rows(stream, kmax + 1)
        assert next(stream, None) is not None

    def test_verify_refuses_family_keys_past_64_bits(self, monkeypatch):
        # a family case at kmax 2048 is refused before the mode table and
        # any draw; the 2-D cases pack no keys and go on at that kmax
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(census, "_zero_sum_draws", reached)
        monkeypatch.setattr(census, "_mode_table", reached)
        for cases in (("ii",), ("nonresonant", "2d-resonant")):
            with pytest.raises(ValueError, match="kmax=2048 is past 2047"):
                verify_multiplier_bounds(cases, 4.0, 2048)
        with pytest.raises(Reached):
            verify_multiplier_bounds(("2d-resonant", "2d-nonresonant"), 4.0, 2048)
        with pytest.raises(Reached):
            verify_multiplier_bounds(("ii",), 4.0, 2047)

    def test_union_memory_is_bounded(self):
        # the family union at N 16, kmax 64, gap 4 (828,397 block rows),
        # with the background's keys held as verify holds them; narrowed
        # rows, their lexsort order and its permuted copies traced 19.9 MB,
        # the keys 15.7 MB
        background = _background(64)[1]
        cases, need = tuple(census._SOURCES), census._SOURCES["nonresonant"]
        blocks = census._family_blocks(need, 16.0, 64, 4.0, background)
        assert sum(len(b) for _, b in blocks) == 828397
        (union, _), peak = _traced_peak(census._family_tuples_1d, cases, 16.0, 64, 4.0,
                                        background)
        assert len(union) == 820302
        assert peak <= 17.2e6, peak

    def test_mode_table_equals_m_value(self):
        # integer tuples over |k| <= N, the transition annulus N < |k| < 2N
        # and |k| >= 2N, in 1-D and 2-D: |k|, M, sigma and the mean-value
        # bounds read from the table by |k|^2 equal the per-tuple functions
        # bit for bit
        N, kmax = 8.0, 40
        sym = SmoothingSymbol(N, 0.5)
        for d, n in ((1, 6), (2, 4)):
            tab = census._mode_table(d * kmax ** 2, N, 0.5)
            # widened: the draw's int8 squares wrap at kmax 40
            rows = census._zero_sum_draws(np.random.default_rng(5), kmax, 20000, n,
                                          d).astype(np.int64)
            ksq = np.sum(rows.reshape(len(rows), n, -1) ** 2, axis=-1)
            tup = rows.astype(float)
            mags = tab.root[ksq]
            assert mags.min() == 0 and mags.max() >= kmax
            assert np.any((mags > N) & (mags < 2 * N))
            assert np.array_equal(mags, np.sqrt(np.sum(tup.reshape(len(tup), n, -1) ** 2,
                                                       axis=-1)))
            assert np.array_equal(np.sum(tab.bare[ksq] * np.array([1.0, -1.0] * (n // 2)),
                                         axis=-1), bare_m6(tup, sym, d))
            assert np.array_equal(np.prod(tab.m[ksq], axis=-1), sigma_product(tup, sym, d))
            ranked = np.sort(ksq, axis=1)
            r1, r3 = ranked[:, -1], np.maximum(ranked[:, -3], 1)
            n1, n3 = np.sqrt(r1), np.sqrt(r3)
            assert np.array_equal(census._mean_value(tab, r1, r3),
                                  m_value(n1, sym) * n1 * m_value(n3, sym) * n3)


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_draw(free, kmax):
    """The free slots closed to zero-sum rows in int64, without the rows
    whose last slot leaves [-kmax, kmax]^d: the one-shot draw."""
    tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
    return tup[np.abs(tup[:, -1]).reshape(len(tup), -1).max(axis=1) <= kmax]


class _Stream:
    """A generator stand-in that deals the rows of ``free`` in order, its
    stream carrying across ``integers`` calls as a Generator's does."""

    def __init__(self, free):
        self.free, self.at = free, 0

    def integers(self, low, high, size):
        out = self.free[self.at:self.at + size[0]]
        self.at += size[0]
        assert out.shape == size and low == -high + 1 and np.abs(out).max() < high
        return out


class TestZeroSumDraws:
    @pytest.mark.parametrize("block", [7, 16384, 1 << 30])
    @pytest.mark.parametrize("n, d", [(6, 1), (4, 2)])
    def test_blocks_equal_one_draw(self, n, d, block, monkeypatch):
        # the one-shot int64 draw of every row at once: a block that
        # re-seeds, or draws another shape or dtype, changes the rows or
        # their order; the rows are held as int8
        kmax, count = 8, 20000
        rng = np.random.default_rng(4)
        ref = _one_draw(rng.integers(-kmax, kmax + 1,
                                     size=(count, n - 1) + ((d,) if d > 1 else ())), kmax)
        monkeypatch.setattr(census, "_TABLE_TUPLES", block)
        got = census._zero_sum_draws(np.random.default_rng(4), kmax, count, n, d)
        assert got.dtype == np.int8 and ref.dtype == np.int64 and got.shape == ref.shape
        assert 0 < len(got) < count and np.array_equal(got, ref)

    # the closing sum of n - 1 slots passes int8 at kmax 26 for n = 6 and 43
    # for the 2-D draw; the rows pass int8 at kmax 128
    @pytest.mark.parametrize("n, d, kmax", [(6, 1, 25), (6, 1, 26), (4, 2, 42), (4, 2, 43),
                                            (6, 1, 127), (6, 1, 128), (6, 1, 2047)])
    def test_closing_dtype_edges(self, n, d, kmax):
        # random rows, then rows whose free slots reach every sum in
        # [-(n-1) kmax, (n-1) kmax] on each axis, which a closing dtype too
        # narrow for that sum wraps into the box, against the one-shot int64
        # draw
        tail = (d,) if d > 1 else ()
        sums = np.arange(-(n - 1) * kmax, (n - 1) * kmax + 1)
        base, extra = np.divmod(sums, n - 1)
        edge = base[:, None] + (np.arange(n - 1) < extra[:, None])
        if d > 1:
            edge = np.stack([edge, edge[::-1]], axis=-1)
        rng = np.random.default_rng(7)
        free = np.concatenate([rng.integers(-kmax, kmax + 1, size=(3000, n - 1) + tail), edge])
        ref = _one_draw(free, kmax)
        got = census._zero_sum_draws(_Stream(free), kmax, len(free), n, d)
        assert got.dtype == np.min_scalar_type(-kmax - 1) and got.shape == ref.shape
        assert np.array_equal(got, ref)
        # the edge rows kept are those whose sums lie in [-kmax, kmax]
        assert len(ref) - len(_one_draw(free[:3000], kmax)) == 2 * kmax + 1

    @pytest.mark.parametrize("n, d, shape", [(6, 1, (0, 6)), (4, 2, (0, 4, 2))])
    def test_no_draws(self, n, d, shape):
        got = census._zero_sum_draws(np.random.default_rng(0), 8, 0, n, d)
        assert got.shape == shape and got.dtype == np.int8

    def test_draw_memory_is_kept_rows_plus_one_block(self):
        # the 2-D verify draw at kmax 8 holds its kept int8 rows twice (the
        # blocks and their concatenation) and the last block's temporaries,
        # 73 KB traced past the rows; int64 rows traced 23.3 MB
        rows, peak = _traced_peak(census._zero_sum_draws, np.random.default_rng(0), 8,
                                  *census._DRAW_2D)
        assert rows.dtype == np.int8
        assert peak <= 2 * rows.size + (96 << 10), (peak, rows.size)

    def test_background_draw_memory_is_kept_rows_plus_one_block(self):
        # the 1-D background at kmax 12, as the 2-D draw: 52 KB traced past
        # twice its int8 rows; int64 rows and their concatenation traced
        # 10.7 MB
        rows, peak = _traced_peak(census._zero_sum_draws, np.random.default_rng(0), 12,
                                  *census._DRAW_BACKGROUND)
        assert rows.dtype == np.int8
        assert peak <= 2 * rows.size + (96 << 10), (peak, rows.size)

    def test_verify_memory_is_bounded(self):
        # the family union at kmax 12 and its 200,000-row background draw;
        # the whole-draw background and 65,536-row blocks traced 25.9 MB,
        # int64 blocks 10.7 MB, the narrow blocks 4.40 MB.  The call is
        # traced the second time: the first imports numpy.random and
        # numpy.ma, which traced 1.75 MB more in a fresh process
        verify_multiplier_bounds(("ii", "nonresonant"), 6.0, 12)
        reps, peak = _traced_peak(verify_multiplier_bounds, ("ii", "nonresonant"), 6.0, 12)
        assert all(rep.count > 0 for rep in reps.values())
        assert peak <= 4.85e6, peak
