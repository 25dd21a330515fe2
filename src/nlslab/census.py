"""Exhaustive resonance censuses and multiplier-bound verification sweeps.

The census enumerates every zero-sum tuple on the integer lattice up to a
cutoff (in blocks, integer-exact resonance function), classifies it at each
requested threshold, and accumulates per-class counts, the minimum
|omega| per non-resonant rule against its claimed lower bound, the
non-resonant supremum |M|/|omega|, the resonant supremum against the
mean-value bound m(N1*)N1* m(N3*)N3*, and the worst witnesses.  The rules
themselves are threshold-free apart from the below-threshold cut, so one
pass serves every N.  1-D tuples come as orbit-reduced odd triples with
multiplicities, brought to the canonical form of ``classify``'s rule
cascade (so the census and ``classify_batch_1d`` cannot drift apart); 2-D
tuples come from the Gamma_n lattice enumerator of ``energies``.  Both
dimensions fold their blocks into the same class accumulator.

Bound verification enumerates structured 1-D families tailored to each
kept region (near-collision pairs, paired quadruples, comparable shells)
plus a random background, or draws random zero-sum tuples (the sigma and
2-D cases), classifies them in blocks and reports the supremum of
|multiplier| / bound with its witness; `<n>` denotes max(n, 1) so
degenerate zero slots use the unit shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (BELOW, NR_BILINEAR, NR_PAIR, NR_TRIPLE, RES_I, RES_II,
                       Thresholds, _cascade_1d, _sort3_abs_desc, classify_batch_1d,
                       classify_batch_2d, code_label, is_nonresonant, is_resonant)
from .energies import _TABLE_TUPLES, BudgetError, _Lattice
from .geometry import build_geometry, zero_field
from .multipliers import bare_m6, omega, sigma_product
from .smoothing import SmoothingSymbol, m_value


# odd triples per 1-D census block
_TRIPLE_CHUNK = 48
# tuples per classifier block in bound verification
_VERIFY_ROWS = 1 << 16


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
    witness_pos: int = -1            # enumeration position of the witness

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
    reports = {float(N): CensusReport(1, float(N), kmax, s, thresholds.gap)
               for N in N_values}
    mtab = {N: _m_table(kmax, N, s) for N in reports}
    msq = {N: m ** 2 for N, m in mtab.items()}

    odd, weight = _odd_triples(kmax)
    o_sum = odd.sum(axis=1)
    o_sq = np.sum(odd.astype(np.int64) ** 2, axis=1)
    o_msum = {N: (msq[N][np.abs(odd)] * odd.astype(np.float64) ** 2).sum(axis=1)
              for N in reports}

    modes = np.arange(-kmax, kmax + 1, dtype=np.int64)
    k2, k4 = (g.reshape(-1) for g in np.meshgrid(modes, modes, indexing="ij"))
    done = 0
    for start in range(0, len(odd), _TRIPLE_CHUNK):
        tri = np.arange(start, min(start + _TRIPLE_CHUNK, len(odd)))
        done += _census_chunk_1d(reports, tri, odd, weight, o_sum, o_sq, o_msum,
                                 k2, k4, kmax, thresholds.gap, msq, mtab)
        if progress is not None:
            progress(done)
    for rep in reports.values():
        rep.total = done
    return reports


def _census_chunk_1d(reports, tri, odd, weight, o_sum, o_sq, o_msum,
                     k2, k4, kmax, G, msq, mtab) -> int:
    """Census of the tuples with odd slots ``odd[tri]`` and even slots k2, k4;
    k6 is fixed by the constraint.  Returns the weighted tuple count."""
    k6 = -(o_sum[tri, None] + k2 + k4)  # (triples, I)
    rows, cols = np.nonzero(np.abs(k6) <= kmax)
    t, k6 = tri[rows], k6[rows, cols]
    k2, k4 = k2[cols], k4[cols]
    pos = t * (2 * kmax + 1) ** 2 + cols  # enumeration order: triple, then (k2, k4)

    # canonical form: each parity |.|-sorted (the triples already are), the
    # parity holding the largest magnitude first
    e = _sort3_abs_desc(k2, k4, k6)
    o = (odd[t, 0], odd[t, 1], odd[t, 2])
    flip = np.abs(e[0]) > np.abs(o[0])
    A = tuple(np.where(flip, x, y) for x, y in zip(e, o))
    B = tuple(np.where(flip, y, x) for x, y in zip(e, o))
    om = np.abs(o_sq[t] - (k2 ** 2 + k4 ** 2 + k6 ** 2)).astype(np.float64)
    codes, ns, s12, _ = _cascade_1d(A, B, tuple(map(np.abs, A)),
                                    tuple(map(np.abs, B)), om, G)
    n1, n3 = ns[0], ns[2]
    n1f = n1.astype(np.float64)
    n3c = np.maximum(n3, 1)
    w = weight[t]

    def claimed(code, i):
        if code == NR_PAIR:
            return (1 - 3 / G**2) * n1f[i] ** 2
        if code == NR_TRIPLE:
            return n1f[i] * n3[i] / G
        if code == NR_BILINEAR:
            return n1f[i] * np.abs(s12[i]) / G
        return n1f[i] ** 2 / G

    def witness(i):
        r = t[i]
        return (int(odd[r, 0]), int(k2[i]), int(odd[r, 1]), int(k4[i]),
                int(odd[r, 2]), int(k6[i]))

    for N, rep in reports.items():
        me = msq[N][np.abs(k2)] * (k2.astype(np.float64) ** 2) \
            + msq[N][np.abs(k4)] * (k4.astype(np.float64) ** 2) \
            + msq[N][np.abs(k6)] * (k6.astype(np.float64) ** 2)
        M = np.abs(o_msum[N][t] - me)
        _accumulate(rep, np.where(n1 <= N, BELOW, codes), w, om, M, pos, claimed,
                    lambda i, m=mtab[N]: m[n1[i]] * n1f[i] * m[n3c[i]] * n3c[i],
                    witness)
    return int(w.sum())


def resonance_census_2d(N_values, kmax: int, s: float = 0.6,
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9) -> dict:
    """Census over Gamma_4 with 2-vector integer frequencies, |k_i|_inf <= kmax.

    Walks the on-lattice tuples of the unit square torus (physical
    frequencies are the integer modes) in ``_Lattice.on_lattice`` blocks, so
    memory stays bounded whatever kmax is.  Each block is classified once;
    the below-threshold cut, |Omega| and M come per N from per-mode lookups
    of |k|^2 and m^2, summed in slot order.
    """
    lat = _Lattice(zero_field(build_geometry(2, (1.0,), 1.0), kmax), 4)
    lat.check_budget(budget)
    G = thresholds.gap
    reports = {float(N): CensusReport(2, float(N), kmax, s, G) for N in N_values}
    sq = np.sum(lat.modes ** 2, axis=1)  # |k|^2 per mode
    root = np.sqrt(np.arange(sq.max() + 1, dtype=np.float64))  # |k| by |k|^2
    mtab = {N: m_value(root, SmoothingSymbol(N, 1.0 - s)) for N in reports}
    bare = {N: mtab[N][sq] ** 2 * sq for N in reports}
    done = 0
    for pos, idx in lat.on_lattice(_TABLE_TUPLES):
        base, _ = classify_batch_2d(lat.physical(idx), N=0.0, thresholds=thresholds)
        s4 = sq[idx]
        om = np.abs(s4[:, 0] - s4[:, 1] + s4[:, 2] - s4[:, 3]).astype(np.float64)
        # |k|^2 of the largest slot, and of the second and third largest
        # clipped below at 1; the claimed bound takes the integer |k|^2 of
        # the second largest, since sqrt(|k|^2)^2 can round above it
        ranked = np.sort(s4, axis=1)
        r1, r2, r3 = ranked[:, 3], np.maximum(ranked[:, 2], 1), np.maximum(ranked[:, 1], 1)
        n1, n3 = root[r1], root[r3]
        weight = np.ones(len(pos), dtype=np.int64)
        for N, rep in reports.items():
            b = bare[N][idx]
            M = np.abs(b[:, 0] - b[:, 1] + b[:, 2] - b[:, 3])
            _accumulate(rep, np.where(n1 <= N, BELOW, base), weight, om, M, pos,
                        lambda code, i: 2.0 * (1 - 1 / G**2) * r2[i],
                        lambda i, m=mtab[N]: m[r1[i]] * n1[i] * m[r3[i]] * n3[i],
                        lambda i: tuple(float(x) for x in lat.modes[idx[i]].ravel()))
        done += len(pos)
    for rep in reports.values():
        rep.total = done
    return reports


def _accumulate(rep, codes, weight, om, M, pos, claimed, bound, witness):
    """Fold a block of on-lattice tuples into ``rep``'s class statistics.

    Flat arrays over the block: verdict codes, tuple weights, |Omega|, M and
    the tuples' enumeration positions.  ``claimed(code, i)`` is the lower
    bound a non-resonant rule claims for |Omega| at block indices i,
    ``bound(i)`` the resonant mean-value bound m(N1*)N1* m(N3*)N3* and
    ``witness(i)`` the tuple at index i.  Per class: the count, min |Omega|,
    min |Omega|/claimed, and the supremum of M/|Omega| (non-resonant; a zero
    |Omega| there is a violation, ratio inf) or of M/bound (resonant) with
    its witness, the earliest maximizer in enumeration order.
    """
    for code in np.flatnonzero(np.bincount(codes)):
        i = np.flatnonzero(codes == code)
        st = rep.stat(code)
        st.count += int(weight[i].sum())
        if code == BELOW:
            continue
        om_i = om[i]
        st.min_abs_omega = min(st.min_abs_omega, float(om_i.min()))
        if is_nonresonant(code):
            zero = om_i == 0.0
            rep.violations += int(zero.sum())
            st.min_omega_ratio = min(st.min_omega_ratio,
                                     float((om_i / claimed(code, i)).min()))
            ratios = np.full(len(i), np.inf)
            np.divide(M[i], om_i, out=ratios, where=~zero)
        else:
            ratios = M[i] / bound(i)
        mx = float(ratios.max())
        top = i[ratios == mx]
        at = top[np.argmin(pos[top])]
        if mx > st.max_ratio or (st.witness and mx == st.max_ratio
                                 and pos[at] < st.witness_pos):
            st.max_ratio, st.witness_pos = mx, int(pos[at])
            st.witness = witness(at)


def sohinger_presence(kmax: int, thresholds: Thresholds = Thresholds(),
                      N: float = 8.0):
    """All multiples of the vanishing-resonance family up to the cutoff must
    be classified resonant with exactly zero resonance function."""
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


# drawn cases: (draws, slots n, dimension d)
_DRAWS = {"sigma6": (20000, 6, 1), "sigma4": (20000, 4, 2),
          "2d-resonant": (400000, 4, 2), "2d-nonresonant": (400000, 4, 2)}


def _zero_sum_draws(rng, kmax: int, count: int, n: int, d: int) -> np.ndarray:
    """``count`` uniform draws of slots 1..n-1 in [-kmax, kmax]^d, closed to
    zero-sum n-tuples by slot n; draws whose slot n leaves the box are
    dropped.  Integer rows of shape (n,) in 1-D and (n, d) otherwise."""
    free = rng.integers(-kmax, kmax + 1, size=(count, n - 1) + ((d,) if d > 1 else ()))
    tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
    return tup[np.abs(tup[:, -1]).reshape(len(tup), -1).max(axis=1) <= kmax]


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
    out.append(_zero_sum_draws(rng, kmax, 200000, 6, 1))
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
    """Supremum of |multiplier| / claimed bound over the case's tuples.

    Cases i-iv and nonresonant enumerate their 1-D families; sigma6, sigma4
    and the 2-D cases draw zero-sum tuples (``_DRAWS``).  Either set is
    classified in blocks of ``_VERIFY_ROWS`` rows, which bounds the
    classifier's temporaries; count, supremum and the first maximizing
    witness carry across blocks exactly as in one pass over all rows.
    Witnesses are ints for the families, floats for the drawn tuples.
    """
    if case not in VERIFY_CASES:
        raise ValueError(f"case {case!r} not one of {VERIFY_CASES}")
    rep = BoundReport(case, N, kmax, s, thresholds.gap)
    rng = np.random.default_rng(seed)
    sym = SmoothingSymbol(N, 1.0 - s)
    if case in _DRAWS:
        count, n, d = _DRAWS[case]
        tup, kind = _zero_sum_draws(rng, kmax, count, n, d).astype(float), float
    else:
        tup, d, kind = _family_tuples_1d(case, N, kmax, thresholds.gap, rng), 1, int
    for start in range(0, len(tup), _VERIFY_ROWS):
        block = tup[start:start + _VERIFY_ROWS]
        sel, ratios = _kept_ratios(case, block, d, sym, thresholds)
        if not len(ratios):
            continue
        i = int(np.argmax(ratios))
        if rep.count == 0 or ratios[i] > rep.sup_ratio:
            rep.sup_ratio = float(ratios[i])
            rep.witness = tuple(kind(x) for x in block[sel][i].ravel())
        rep.count += len(ratios)
    rep.empty = rep.count == 0
    return rep


def _kept_ratios(case: str, tup: np.ndarray, d: int, sym: SmoothingSymbol,
                 thresholds: Thresholds):
    """Rows of ``tup`` in the case's kept region, and |multiplier| / bound on
    those rows.  The sigma cases keep every row and bound the product by 1."""
    if case.startswith("sigma"):
        return np.ones(len(tup), dtype=bool), sigma_product(tup, sym, d)
    if d == 2:
        codes, info = classify_batch_2d(tup, sym.N, thresholds)
        M = np.abs(bare_m6(tup, sym, 2))
        if case == "2d-nonresonant":
            sel = is_nonresonant(codes)
            return sel, M[sel] / np.abs(omega(tup[sel], 2))
        sel = is_resonant(codes)
        mags = np.sort(info["mags"][sel], axis=-1)[..., ::-1]
        n1 = mags[..., 0]
        n3 = np.maximum(mags[..., 2], 1.0)
        return sel, M[sel] / (m_value(n1, sym) * n1 * m_value(n3, sym) * n3)

    gap = thresholds.gap
    codes, info = classify_batch_1d(tup, sym.N, thresholds)
    mags = info["mags"]
    om = info["abs_omega"]
    M = np.abs(bare_m6(tup, sym))
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
