"""Exhaustive resonance censuses and multiplier-bound verification sweeps.

The census enumerates every zero-sum tuple on the integer lattice up to a
cutoff (chunked, integer-exact resonance function), classifies it at each
requested threshold, and accumulates per-class counts, the minimum
|omega| per non-resonant rule against its claimed lower bound, the
non-resonant supremum |M|/|omega|, the resonant supremum against the
mean-value bound m(N1*)N1* m(N3*)N3*, and the worst witnesses.  The rules
themselves are threshold-free apart from the below-threshold cut, so one
pass serves every N.  The 1-D rules live in ``classify``: the kernel brings
each integer block to the classifier's canonical form and runs its rule
cascade, so the census and ``classify_batch_1d`` cannot drift apart.

Bound verification enumerates structured families tailored to each kept
region (near-collision pairs, paired quadruples, comparable shells) plus a
strided background sweep, and reports the supremum of |multiplier| / bound
with its witness; `<n>` denotes max(n, 1) so degenerate zero slots use the
unit shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (BELOW, NR_BILINEAR, NR_PAIR, NR_SIGNS, NR_TRIPLE, RES_I,
                       RES_II, RES_III, Thresholds, _cascade_1d, classify_batch_1d,
                       classify_batch_2d, code_label, is_nonresonant,
                       is_resonant)
from .multipliers import omega
from .smoothing import SmoothingSymbol, m_value


# enumeration block sizes: odd triples per 1-D block, (k1, k2) rows (in
# units of the lattice size) per 2-D block
_TRIPLE_CHUNK = 48
_PAIR_CHUNK_2D = 64
# family tuples per classifier block in 1-D bound verification
_VERIFY_ROWS = 1 << 16


class BudgetError(RuntimeError):
    """The enumeration would exceed the configured tuple budget."""


def _m_table(kmax: int, N: float, s: float) -> np.ndarray:
    sym = SmoothingSymbol(N, 1.0 - s)
    return m_value(np.arange(kmax + 1, dtype=float), sym)


@dataclass
class ClassStat:
    count: int = 0
    min_abs_omega: float = np.inf
    min_omega_ratio: float = np.inf  # |omega| / claimed lower bound
    max_ratio: float = 0.0           # class-specific supremum
    witness: tuple = ()

    def row(self, label):
        return {
            "class": label,
            "count": self.count,
            "min_abs_omega": None if np.isinf(self.min_abs_omega) else self.min_abs_omega,
            "min_omega_ratio": None if np.isinf(self.min_omega_ratio) else self.min_omega_ratio,
            "max_ratio": self.max_ratio,
            "witness_tuple": list(self.witness),
        }


@dataclass
class CensusReport:
    d: int
    N: float
    kmax: int
    s: float
    gap: float
    total: int = 0
    classes: dict = field(default_factory=dict)
    violations: int = 0

    def stat(self, code: int) -> ClassStat:
        return self.classes.setdefault(int(code), ClassStat())

    @property
    def nonresonant_sup(self) -> float:
        return max((st.max_ratio for c, st in self.classes.items()
                    if is_nonresonant(c)), default=0.0)

    @property
    def resonant_sup(self) -> float:
        return max((st.max_ratio for c, st in self.classes.items()
                    if is_resonant(c)), default=0.0)

    def counts_by_family(self) -> dict:
        out = {"below": 0, "resonant": 0, "nonresonant": 0}
        for c, st in self.classes.items():
            key = ("below" if c == BELOW else
                   "resonant" if is_resonant(c) else "nonresonant")
            out[key] += st.count
        return out

    def rows(self):
        for code in sorted(self.classes):
            yield self.classes[code].row(code_label(code))


def _odd_triples(kmax: int):
    """Value-sorted triples (v0 >= v1 >= v2) with permutation multiplicities,
    abs-desc reordered columns, and slot-sum/square-sum invariants."""
    from itertools import combinations_with_replacement

    vals = np.arange(kmax, -kmax - 1, -1, dtype=np.int64)
    idx = np.array(list(combinations_with_replacement(range(len(vals)), 3)))
    v = vals[idx]  # (T, 3), nonincreasing values
    weight = np.select([(v[:, 0] == v[:, 1]) & (v[:, 1] == v[:, 2]),
                        (v[:, 0] == v[:, 1]) | (v[:, 1] == v[:, 2])],
                       [1, 3], default=6)
    order = np.argsort(-np.abs(v), axis=1, kind="stable")
    sorted_abs_desc = np.take_along_axis(v, order, axis=1)
    return sorted_abs_desc, weight.astype(np.int64)


def resonance_census_1d(N_values, kmax: int, s: float = 0.5,
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9, progress=None) -> dict:
    """Exhaustive census over Gamma_6 on the integer lattice |k_i| <= kmax.

    One pass serves every threshold N (the rules depend on N only through
    the below-threshold cut).  Unconjugated slots are enumerated as sorted
    triples with multiplicity weights (the classification is invariant under
    slot permutations within a parity), cutting the raw (2K+1)^5 count by
    about six; counts reported are for the full ordered lattice.
    """
    P = 2 * kmax + 1
    total_raw = P ** 5
    if total_raw > budget:
        raise BudgetError(f"would enumerate {total_raw} tuples > budget {budget}")
    G = thresholds.gap
    reports = {float(N): CensusReport(1, float(N), kmax, s, thresholds.gap)
               for N in N_values}
    msq = {N: _m_table(kmax, N, s) ** 2 for N in reports}
    mtab = {N: _m_table(6 * kmax + 1, N, s) for N in reports}

    odd, weight = _odd_triples(kmax)
    o_sum = odd.sum(axis=1)
    o_sq = np.sum(odd.astype(np.int64) ** 2, axis=1)
    o_m = {N: msq[N][np.abs(odd)] * odd.astype(np.float64) ** 2 for N in reports}
    o_msum = {N: o_m[N].sum(axis=1) for N in reports}

    modes = np.arange(-kmax, kmax + 1, dtype=np.int64)
    g2, g4 = np.meshgrid(modes, modes, indexing="ij")
    k2 = g2.reshape(1, -1)
    k4 = g4.reshape(1, -1)
    ke_sq = k2 ** 2 + k4 ** 2
    done = 0
    for start in range(0, len(odd), _TRIPLE_CHUNK):
        stop = min(start + _TRIPLE_CHUNK, len(odd))
        done += _census_chunk_1d(
            reports, odd[start:stop], weight[start:stop], o_sum[start:stop],
            o_sq[start:stop],
            {N: o_msum[N][start:stop] for N in reports},
            k2, k4, ke_sq, kmax, G, msq, mtab)
        if progress is not None:
            progress(done)
    for rep in reports.values():
        rep.total = done
    return reports


def _census_chunk_1d(reports, odd, weight, o_sum, o_sq, o_msum,
                     k2, k4, ke_sq, kmax, G, msq, mtab) -> int:
    k6 = -(o_sum[:, None] + k2 + k4)  # (triples, I)
    valid = np.abs(k6) <= kmax
    k6c = np.where(valid, k6, 0)
    a_k6 = np.abs(k6c)

    # even side sorted by absolute value (three compare-exchanges)
    e = [np.broadcast_to(k2, k6.shape), np.broadcast_to(k4, k6.shape), k6c]
    ae = [np.abs(e[0]), np.abs(e[1]), a_k6]

    def cmpx(i, j):
        swap = ae[i] < ae[j]
        ae[i], ae[j] = np.where(swap, ae[j], ae[i]), np.where(swap, ae[i], ae[j])
        e[i], e[j] = np.where(swap, e[j], e[i]), np.where(swap, e[i], e[j])

    cmpx(0, 1); cmpx(1, 2); cmpx(0, 1)

    o0 = np.broadcast_to(odd[:, 0:1], k6.shape)
    o1 = np.broadcast_to(odd[:, 1:2], k6.shape)
    o2 = np.broadcast_to(odd[:, 2:3], k6.shape)
    ao = (np.abs(o0), np.abs(o1), np.abs(o2))

    flip = ae[0] > ao[0]
    A0 = np.where(flip, e[0], o0); aA0 = np.where(flip, ae[0], ao[0])
    A1 = np.where(flip, e[1], o1); aA1 = np.where(flip, ae[1], ao[1])
    A2 = np.where(flip, e[2], o2); aA2 = np.where(flip, ae[2], ao[2])
    B0 = np.where(flip, o0, e[0]); aB0 = np.where(flip, ao[0], ae[0])
    B1 = np.where(flip, o1, e[1]); aB1 = np.where(flip, ao[1], ae[1])
    B2 = np.where(flip, o2, e[2]); aB2 = np.where(flip, ao[2], ae[2])

    om = np.abs(o_sq[:, None] - (ke_sq + k6c ** 2)).astype(np.float64)
    codes, ns, s12, _ = _cascade_1d((A0, A1, A2), (B0, B1, B2),
                                    (aA0, aA1, aA2), (aB0, aB1, aB2), om, G)
    n1, n3 = ns[0], ns[2]
    codes[~valid] = -1

    w = np.broadcast_to(weight[:, None], k6.shape)
    absk2 = np.abs(k2)
    absk4 = np.abs(k4)
    for N, rep in reports.items():
        below = n1 <= N
        codes_N = np.where(below & valid, BELOW, codes)
        me = msq[N][absk2] * (k2.astype(np.float64) ** 2) \
            + msq[N][absk4] * (k4.astype(np.float64) ** 2) \
            + msq[N][a_k6] * (k6c.astype(np.float64) ** 2)
        M = np.abs(o_msum[N][:, None] - me)
        _kernel_accumulate(rep, codes_N, valid, om, M, n1, n3, s12, w,
                           mtab[N], G, odd, k2, k4, k6c)
    return int((valid * w).sum())


def _kernel_accumulate(rep, codes, valid, om, M, n1, n3, s12, w,
                       mtab, G, odd, k2, k4, k6c):
    n1f = n1.astype(np.float64)
    n3c = np.maximum(n3, 1)
    for code in (BELOW, RES_I, RES_II, RES_III,
                 NR_PAIR, NR_TRIPLE, NR_BILINEAR, NR_SIGNS):
        sel = valid & (codes == code)
        cnt = int(w[sel].sum()) if np.any(sel) else 0
        if cnt == 0:
            continue
        st = rep.stat(code)
        st.count += cnt
        if code == BELOW:
            continue

        def witness_at(flat_bool, flat_pos):
            rows, cols = np.nonzero(flat_bool)
            r, c = int(rows[flat_pos]), int(cols[flat_pos])
            return (int(odd[r, 0]), int(k2[0, c]), int(odd[r, 1]),
                    int(k4[0, c]), int(odd[r, 2]), int(k6c[r, c]))

        if code >= NR_PAIR:
            om_sel = om[sel]
            if np.any(om_sel == 0.0):
                bad = int(np.flatnonzero(om_sel == 0.0)[0])
                rep.violations += int(np.sum(om_sel == 0.0))
                st.min_abs_omega = 0.0
                st.min_omega_ratio = 0.0
                st.witness = witness_at(sel, bad)
                continue
            if code == NR_PAIR:
                claimed = (1 - 3 / G**2) * n1f[sel] ** 2
            elif code == NR_TRIPLE:
                claimed = n1f[sel] * n3[sel] / G
            elif code == NR_BILINEAR:
                claimed = n1f[sel] * np.abs(s12[sel]) / G
            else:
                claimed = n1f[sel] ** 2 / G
            st.min_abs_omega = min(st.min_abs_omega, float(om_sel.min()))
            st.min_omega_ratio = min(st.min_omega_ratio,
                                     float((om_sel / claimed).min()))
            ratios = M[sel] / om_sel
        else:
            bound = mtab[n1[sel]] * n1f[sel] * mtab[n3c[sel]] * n3c[sel]
            st.min_abs_omega = min(st.min_abs_omega, float(om[sel].min()))
            ratios = M[sel] / bound
        mx = float(ratios.max())
        if mx > st.max_ratio:
            st.max_ratio = mx
            st.witness = witness_at(sel, int(ratios.argmax()))


def resonance_census_2d(N_values, kmax: int, s: float = 0.6,
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9) -> dict:
    """Census over Gamma_4 with 2-vector integer frequencies, |k_i|_inf <= kmax."""
    side = np.arange(-kmax, kmax + 1, dtype=np.int64)
    pts = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    Q = len(pts)
    if Q ** 3 > budget:
        raise BudgetError(f"would enumerate {Q**3} tuples > budget {budget}")
    reports = {float(N): CensusReport(2, float(N), kmax, s, thresholds.gap)
               for N in N_values}
    sym = {float(N): SmoothingSymbol(N, 1.0 - s) for N in N_values}

    pair = np.stack(np.meshgrid(np.arange(Q), np.arange(Q), indexing="ij"),
                    axis=-1).reshape(-1, 2)
    done = 0
    for start in range(0, len(pair), _PAIR_CHUNK_2D * Q):
        stop = min(start + _PAIR_CHUNK_2D * Q, len(pair))
        i12 = pair[start:stop]
        k1 = pts[i12[:, 0]]
        k2 = pts[i12[:, 1]]
        k3 = pts[None, :, :]
        k4 = -(k1[:, None, :] + k2[:, None, :] + k3)
        valid = np.all(np.abs(k4) <= kmax, axis=-1)
        tup = np.stack([np.broadcast_to(k1[:, None, :], k4.shape),
                        np.broadcast_to(k2[:, None, :], k4.shape),
                        np.broadcast_to(k3, k4.shape), k4], axis=-2)
        tupv = tup[valid].astype(np.float64)
        if len(tupv) == 0:
            continue
        sqs = np.sum(tup[valid] ** 2, axis=-1)  # integer |k_i|^2
        om = np.abs(sqs[:, 0] - sqs[:, 1] + sqs[:, 2] - sqs[:, 3]).astype(float)
        base_codes, info = classify_batch_2d(tupv, N=0.0, thresholds=thresholds)
        mags = np.sort(info["mags"], axis=-1)[..., ::-1]
        n1 = mags[..., 0]
        for N in reports:
            rep = reports[N]
            codes = np.where(n1 <= N, BELOW, base_codes)
            m2 = m_value(np.sqrt(sqs.astype(float)), sym[N]) ** 2
            M = np.abs(np.sum(m2 * sqs * np.array([1.0, -1.0, 1.0, -1.0]), axis=-1))
            _accumulate_2d(rep, codes, om, M, mags, tupv, sym[N], thresholds.gap)
        done += int(valid.sum())
    for rep in reports.values():
        rep.total = done
    return reports


def _accumulate_2d(rep, codes, om, M, mags, tup, sym, gap):
    n1 = mags[..., 0]
    n3 = np.maximum(mags[..., 2], 1.0)
    res_bound = m_value(n1, sym) * n1 * m_value(n3, sym) * n3
    for code in np.unique(codes):
        sel = codes == code
        st = rep.stat(code)
        st.count += int(sel.sum())
        if code == BELOW:
            continue
        if is_nonresonant(code):
            om_sel = om[sel]
            if np.any(om_sel == 0.0):
                rep.violations += int(np.sum(om_sel == 0.0))
                st.min_abs_omega = 0.0
                st.min_omega_ratio = 0.0
                continue
            lo = np.maximum(mags[sel][..., 1], 1.0)
            claimed = 2.0 * (1 - 1 / gap**2) * lo**2
            st.min_abs_omega = min(st.min_abs_omega, float(om_sel.min()))
            st.min_omega_ratio = min(st.min_omega_ratio,
                                     float((om_sel / claimed).min()))
            ratios = M[sel] / om_sel
            mx = float(ratios.max())
            if mx > st.max_ratio:
                st.max_ratio = mx
                st.witness = tuple(float(x) for x in tup[sel][int(ratios.argmax())].ravel())
        else:
            ratios = M[sel] / res_bound[sel]
            mx = float(ratios.max())
            if mx > st.max_ratio:
                st.max_ratio = mx
                st.witness = tuple(float(x) for x in tup[sel][int(ratios.argmax())].ravel())


def sohinger_presence(report_or_kmax, thresholds: Thresholds = Thresholds(),
                      N: float = 8.0):
    """All multiples of the vanishing-resonance family up to the cutoff must
    be classified resonant with exactly zero resonance function."""
    kmax = report_or_kmax if isinstance(report_or_kmax, int) else report_or_kmax.kmax
    base = np.array([5, -3, 6, -2, 1, -7], dtype=np.int64)
    out = []
    K = 1
    while 7 * K <= kmax:
        t = (K * base).astype(np.float64)
        codes, _ = classify_batch_1d(t[None, :], N, thresholds)
        out.append({
            "K": K,
            "omega": int(np.sum((K * base) ** 2 * np.array([1, -1, 1, -1, 1, -1]))),
            "resonant": bool(is_resonant(codes[0])),
        })
        K += 1
    return out


# -- multiplier bound verification ----------------------------------------------

VERIFY_CASES = ("i", "ii", "iii", "iv", "nonresonant", "sigma6",
                "2d-resonant", "2d-nonresonant", "sigma4")


@dataclass
class BoundReport:
    case: str
    N: float
    kmax: int
    s: float
    gap: float
    sup_ratio: float = 0.0
    count: int = 0
    witness: tuple = ()
    empty: bool = False

    def row(self):
        return {
            "class": f"case-{self.case}",
            "count": self.count,
            "min_abs_omega": None,
            "min_omega_ratio": None,
            "max_ratio": self.sup_ratio,
            "witness_tuple": list(self.witness),
        }


def _family_tuples_1d(case: str, N: float, kmax: int, gap: float, rng) -> np.ndarray:
    """Structured worst-case families for each kept region, plus background."""
    out = []
    tops = np.arange(max(2, int(N)), kmax + 1)
    q = 8
    if case in ("ii", "nonresonant"):
        # near-collision pair with a small opposite pair
        for t in tops:
            c = max(1, int(np.ceil(gap * min(t, q) ** 2 / t)) + 2)
            j = np.arange(-c, c + 1)
            m3 = np.arange(0, min(q, t) + 1)
            r = np.arange(-min(q, t), min(q, t) + 1)
            J, M3, R = np.meshgrid(j, m3, r, indexing="ij")
            k1 = np.full_like(J, t)
            k2 = -t + J
            k3 = M3
            k4 = -M3 + R
            k5 = np.zeros_like(J)
            k6 = -(k1 + k2 + k3 + k4 + k5)
            tup = np.stack([k1, k2, k3, k4, k5, k6], axis=-1).reshape(-1, 6)
            out.append(tup[np.max(np.abs(tup), axis=1) <= kmax])
    if case in ("iii", "iv", "nonresonant"):
        # two high pairs with small coupling offsets
        for t in tops:
            bs = np.unique(np.maximum(1, np.linspace(t / gap, t, 6).astype(int)))
            for b in bs:
                e = np.arange(-q, q + 1)
                E1, E2, R = np.meshgrid(e, e, np.arange(-3, 4), indexing="ij")
                k1 = np.full_like(E1, t)
                k2 = -t + E1
                k3 = np.full_like(E1, b)
                k4 = -b + E2
                k5 = R
                k6 = -(k1 + k2 + k3 + k4 + k5)
                tup = np.stack([k1, k2, k3, k4, k5, k6], axis=-1).reshape(-1, 6)
                out.append(tup[np.max(np.abs(tup), axis=1) <= kmax])
    # background: random zero-sum tuples over the box (deterministic seed)
    free = rng.integers(-kmax, kmax + 1, size=(200000, 5))
    last = -free.sum(axis=1, keepdims=True)
    tup = np.concatenate([free, last], axis=1)
    out.append(tup[np.abs(tup[:, 5]) <= kmax])
    return _unique_rows(out, kmax)


def _unique_rows(blocks: list, kmax: int) -> np.ndarray:
    """``np.unique(np.concatenate(blocks), axis=0)`` as float64, for integer
    rows with entries in [-kmax, kmax]; empties ``blocks``.

    Each row packs into one int64 key with digits k_i + kmax in base
    2 kmax + 1; key order is the rows' lexicographic order, so sorting the
    keys and unpacking them gives the same rows in the same order, without
    concatenating the rows or sorting over a structured dtype.  The blocks
    are released once packed, before the sort, which keeps the peak memory
    at that of the keys.
    """
    base = 2 * int(kmax) + 1
    width = blocks[0].shape[1]
    if base ** width > np.iinfo(np.int64).max:
        tup = np.concatenate(blocks)
        blocks.clear()
        return np.unique(tup, axis=0).astype(np.float64)
    keys = np.zeros(sum(len(b) for b in blocks), dtype=np.int64)
    start = 0
    for b in blocks:
        part = keys[start:start + len(b)]
        for col in b.T:
            part *= base
            part += col
            part += kmax
        start += len(b)
    blocks.clear()
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    rows = np.empty((len(keys), width), dtype=np.float64)
    digit = np.empty_like(keys)
    for j in range(width - 1, -1, -1):
        np.divmod(keys, base, out=(keys, digit))
        np.subtract(digit, kmax, out=rows[:, j])
    return rows


def verify_multiplier_bounds(case: str, N: float, kmax: int, s: float = 0.5,
                             thresholds: Thresholds = Thresholds(),
                             seed: int = 0) -> BoundReport:
    """Supremum of |multiplier| / claimed bound over the enumerated region."""
    if case not in VERIFY_CASES:
        raise ValueError(f"case {case!r} not one of {VERIFY_CASES}")
    gap = thresholds.gap
    rep = BoundReport(case, N, kmax, s, gap)
    rng = np.random.default_rng(seed)
    sym = SmoothingSymbol(N, 1.0 - s)

    if case in ("sigma6", "sigma4"):
        n = 6 if case == "sigma6" else 4
        d = 1 if case == "sigma6" else 2
        if d == 1:
            free = rng.integers(-kmax, kmax + 1, size=(20000, n - 1))
            tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
            tup = tup[np.abs(tup[:, -1]) <= kmax].astype(float)
        else:
            free = rng.integers(-kmax, kmax + 1, size=(20000, n - 1, 2))
            tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
            tup = tup[np.max(np.abs(tup[:, -1]), axis=-1) <= kmax].astype(float)
        from .multipliers import sigma_product
        vals = sigma_product(tup, sym, d)
        rep.count = len(tup)
        rep.sup_ratio = float(np.max(vals))
        rep.witness = tuple(tup[int(np.argmax(vals))].ravel())
        return rep

    if case.startswith("2d"):
        side = np.arange(-kmax, kmax + 1)
        free = rng.integers(-kmax, kmax + 1, size=(400000, 3, 2))
        tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
        tup = tup[np.max(np.abs(tup[:, -1]), axis=-1) <= kmax].astype(float)
        codes, info = classify_batch_2d(tup, N, thresholds)
        sqs = np.sum(tup**2, axis=-1)
        M = np.abs(np.sum(m_value(np.sqrt(sqs), sym) ** 2 * sqs
                          * np.array([1.0, -1.0, 1.0, -1.0]), axis=-1))
        om = np.abs(sqs[:, 0] - sqs[:, 1] + sqs[:, 2] - sqs[:, 3])
        mags = np.sort(info["mags"], axis=-1)[..., ::-1]
        if case == "2d-resonant":
            sel = is_resonant(codes)
            n1 = mags[sel][..., 0]
            n3 = np.maximum(mags[sel][..., 2], 1.0)
            bound = m_value(n1, sym) * n1 * m_value(n3, sym) * n3
            ratios = M[sel] / bound
        else:
            sel = is_nonresonant(codes)
            ratios = M[sel] / om[sel]
        rep.count = int(sel.sum())
        rep.empty = rep.count == 0
        if rep.count:
            rep.sup_ratio = float(ratios.max())
            rep.witness = tuple(tup[sel][int(ratios.argmax())].ravel())
        return rep

    # classified in blocks of _VERIFY_ROWS family tuples, which bounds the
    # classifier's temporaries; count, supremum and the first maximizing
    # witness carry across blocks exactly as in one pass over all rows
    tup = _family_tuples_1d(case, N, kmax, gap, rng)
    for start in range(0, len(tup), _VERIFY_ROWS):
        block = tup[start:start + _VERIFY_ROWS]
        sel, ratios = _kept_ratios_1d(case, block, N, gap, sym, thresholds)
        if not len(ratios):
            continue
        i = int(np.argmax(ratios))
        if rep.count == 0 or ratios[i] > rep.sup_ratio:
            rep.sup_ratio = float(ratios[i])
            rep.witness = tuple(int(x) for x in block[sel][i])
        rep.count += len(ratios)
    rep.empty = rep.count == 0
    return rep


def _kept_ratios_1d(case: str, tup: np.ndarray, N: float, gap: float,
                    sym: SmoothingSymbol, thresholds: Thresholds):
    """Rows of ``tup`` in the case's kept region, and |multiplier| / bound on
    those rows."""
    codes, info = classify_batch_1d(tup, N, thresholds)
    mags = info["mags"]
    om = np.abs(omega(tup))
    m2 = m_value(np.abs(tup), sym) ** 2
    M = np.abs(np.sum(m2 * tup**2 * np.array([1, -1, 1, -1, 1, -1]), axis=-1))
    # cross-parity pair sums in canonical order: these are the separations
    # the mean-value telescoping of the kept region controls
    o, e = info["odd"], info["even"]
    pair12 = np.abs(o[:, 0] + e[:, 0])
    pair34 = np.abs(o[:, 1] + e[:, 1])
    n1 = mags[..., 0]
    n3 = np.maximum(mags[..., 2], 1.0)
    n5 = np.maximum(mags[..., 4], 1.0)

    if case == "i":
        sel = is_resonant(codes) & (mags[..., 2] * gap >= n1)
        bound = m_value(n1, sym) * n1 * m_value(n3, sym) * n3
    elif case == "ii":
        sel = codes == RES_I
        bound = n3**2
    elif case == "iii":
        sel = (codes == RES_II) & (pair12 <= gap * n5) & (pair34 <= gap * n5)
        bound = m_value(n1, sym) * n1 * n5
    elif case == "iv":
        n12 = np.maximum(pair12, 1.0)
        sel = ((codes == RES_II) & (pair12 > gap * n5)
               & (pair34 <= gap * n12) & (pair34 * gap >= n12))
        bound = m_value(n1, sym) * n1 * n12
    elif case == "nonresonant":
        sel = is_nonresonant(codes)
        bound = np.where(om > 0, om, np.inf)
    else:  # pragma: no cover
        raise AssertionError(case)
    return sel, (M / bound)[sel]
