"""Exhaustive resonance censuses and multiplier-bound verification sweeps.

The census walks every zero-sum tuple on the integer lattice up to a
cutoff, one representative per slot-parity orbit (``energies._Orbits``)
weighted by its orbit's size, classifies it at each requested threshold
with ``classify``'s per-mode verdicts (the integer modes in 1-D, |k| in
2-D), and accumulates per-class counts, the minimum |omega| per
non-resonant rule against its claimed lower bound, the non-resonant
supremum |M|/|omega|, the resonant supremum against the mean-value bound
m(N1*)N1* m(N3*)N3*, and the worst witnesses.  The rules themselves are
threshold-free apart from the below-threshold cut, so one pass serves
every N.  One body serves both dimensions.

Bound verification enumerates structured 1-D families tailored to each
kept region (near-collision pairs, paired quadruples, comparable shells)
plus a random background, or draws random zero-sum tuples (the sigma and
2-D cases), classifies them in blocks and reports the supremum of
|multiplier| / bound with its witness; `<n>` denotes max(n, 1) so
degenerate zero slots use the unit shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (BELOW, RES_I, RES_II, Thresholds, classify_batch_1d,
                       classify_batch_2d, code_label, is_nonresonant, is_resonant,
                       omega_lower_bound)
from .energies import _GROUP_ROWS, _TABLE_TUPLES, BudgetError, _lattice_verdicts, _Orbits
from .geometry import build_geometry, zero_field
from .multipliers import _alt_signs, bare_m6, omega, sigma_product
from .smoothing import SmoothingSymbol, m_value


# tuples per classifier block in bound verification
_VERIFY_ROWS = 1 << 16


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


def resonance_census_1d(N_values, kmax: int, s: float = 0.5,
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9) -> dict:
    """Exhaustive census over Gamma_6 on the integer lattice |k_i| <= kmax
    (``_census``)."""
    return _census(1, N_values, kmax, s, thresholds, budget)


def resonance_census_2d(N_values, kmax: int, s: float = 0.6,
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9) -> dict:
    """Census over Gamma_4 with 2-vector integer frequencies, |k_i|_inf <= kmax,
    on the unit square torus (``_census``)."""
    return _census(2, N_values, kmax, s, thresholds, budget)


# Per dimension, the slot orders of a representative over which M's float
# sum can differ within its orbit, each the first of its tuples in
# enumeration order.  In 1-D M sums the odd triple in one order and the even
# slots as (k2 + k4) + k6, which depends only on which mode is k6: k6 runs
# over the even multiset e1 <= e2 <= e3, with k2 <= k4 the other two.  In
# 2-D M sums ((b1 - b2) + b3) - b4, over every tuple of the orbit.
_ARRANGEMENTS = {1: [(0, 1, 2, 3, 4, 5), (0, 1, 2, 5, 4, 3), (0, 3, 2, 5, 4, 1)],
                 2: [(0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1)]}


def _census(d: int, N_values, kmax: int, s: float, thresholds: Thresholds,
            budget: int) -> dict:
    """The census of Gamma_n (n = 6 in 1-D, 4 in 2-D) on the integer modes
    |k_i|_inf <= kmax, one report per threshold N.

    Walks one representative per slot-parity orbit (``_Orbits``), weighted
    by its orbit's size: the distinct arrangements of its odd multiset times
    those of its even one.  Verdicts, |Omega| and the bounds are symmetric
    within each slot parity, so they are read once per representative: the
    verdicts as the Lambda walk reads them (``energies._lattice_verdicts``:
    the integer modes in 1-D, the per-mode |k| in 2-D), the rest per N from
    per-mode lookups by |k|^2.  M is summed in the order of the enumeration
    the witnesses are documented in (1-D: odd triples by descending values,
    then (k2, k4) ascending; 2-D: (k1, k2, k3) in C order), over the
    ``_ARRANGEMENTS`` whose float sums can differ, each at the position of
    its first tuple in that order; so the supremum and its witness, the
    first maximizer, are those of a walk over every tuple.
    """
    n = 6 if d == 1 else 4
    lat = _Orbits(zero_field(build_geometry(d, (1.0,) * (d - 1)), kmax), n, budget)
    G = thresholds.gap
    reports = {float(N): CensusReport(d, float(N), kmax, s, G) for N in N_values}
    sq = np.sum(lat.modes ** 2, axis=1)  # |k|^2 per mode
    # |k| by |k|^2, up to at least 1, where r2 and r3 are clipped below
    root = np.sqrt(np.arange(max(sq.max(), 1) + 1, dtype=np.float64))
    mtab = {N: m_value(root, SmoothingSymbol(N, 1.0 - s)) for N in reports}
    bare = {N: m ** 2 * np.arange(len(m)) for N, m in mtab.items()}  # m^2 |k|^2 by |k|^2
    orbit = np.rint(math.factorial(n // 2) * lat.share).astype(np.int64)
    arrangements = _ARRANGEMENTS[d]
    done = 0
    for blocks, idx in lat.batches(_GROUP_ROWS, _TABLE_TUPLES):
        weight = np.concatenate([np.outer(orbit[odd], orbit[even]).ravel()
                                 for (odd, even), _ in blocks])
        ksq = sq[idx]
        om = np.abs(ksq[:, 0::2].sum(axis=1) - ksq[:, 1::2].sum(axis=1)).astype(np.float64)
        # |k|^2 of the largest slot, and of the second and third largest
        # clipped below at 1
        ranked = np.sort(ksq, axis=1)
        r1, r2, r3 = ranked[:, -1], np.maximum(ranked[:, -2], 1), np.maximum(ranked[:, -3], 1)
        # n1, the largest |k|, is root[r1]: each |k| is the sqrt of an integer
        codes, n1, parts = _lattice_verdicts(lat, idx, G)
        n3 = root[r3]
        if d == 1:
            # the representative's odd modes ascend: its triple's position
            # orders them by descending values
            P = lat.Q
            odd = (P - 1 - idx[:, 4]) * P ** 2 + (P - 1 - idx[:, 2]) * P + P - 1 - idx[:, 0]
            pos = np.stack([odd * P ** 2 + idx[:, a[1]] * P + idx[:, a[3]] for a in arrangements],
                           axis=1)
            odd_sq = np.sort(ksq[:, 0::2], axis=1)[:, ::-1]  # odd slots by descending |k|

            def M(b):
                o, t = b[odd_sq].sum(axis=1), b[ksq]
                return np.abs(np.stack([o - (t[:, a[1]] + t[:, a[3]] + t[:, a[5]])
                                        for a in arrangements], axis=1))

            claimed = omega_lower_bound(codes, G, n1=n1, n3=n3, s12=parts.s12)

            def witness(i, j):
                k = lat.modes[idx[i, arrangements[j]], 0].tolist()
                # odds by descending |k|, ties by descending value
                o = sorted(k[4::-2], key=abs, reverse=True)
                return (o[0], k[1], o[1], k[3], o[2], k[5])
        else:
            pos = np.stack([lat.position(idx[:, a]) for a in arrangements], axis=1)

            def M(b):
                t = b[ksq]
                return np.abs(np.stack([t[:, a[0]] - t[:, a[1]] + t[:, a[2]] - t[:, a[3]]
                                        for a in arrangements], axis=1))

            claimed = omega_lower_bound(codes, G, lo_sq=r2)
            witness = lambda i, j: tuple(float(x) for x in
                                         lat.modes[idx[i, arrangements[j]]].ravel())
        for N, rep in reports.items():
            _accumulate(rep, np.where(n1 <= N, BELOW, codes), weight, om, M(bare[N]), pos,
                        claimed, lambda i, m=mtab[N]: m[r1[i]] * n1[i] * m[r3[i]] * n3[i],
                        witness)
        done += int(weight.sum())
    for rep in reports.values():
        rep.total = done
    return reports


def _accumulate(rep, codes, weight, om, M, pos, claimed, bound, witness):
    """Fold a block of orbit representatives into ``rep``'s class statistics.

    Per representative: verdict code, weight (its orbit's size) and |Omega|;
    per representative and arrangement (T, A): M and the enumeration
    position.  ``claimed`` holds the lower bound on |Omega| that each
    non-resonant verdict claims (``omega_lower_bound``), ``bound(i)`` the
    resonant mean-value bound m(N1*)N1* m(N3*)N3* and ``witness(i, j)`` the tuple of
    representative i in arrangement j.  Per class: the weighted count, min
    |Omega|, min |Omega|/claimed, and the supremum of M/|Omega| (non-resonant;
    a zero |Omega| there is a violation for each tuple of the orbit, ratio
    inf) or of M/bound (resonant) with its witness, the earliest maximizer in
    enumeration order.
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
            rep.violations += int(weight[i][zero].sum())
            st.min_omega_ratio = min(st.min_omega_ratio,
                                     float((om_i / claimed[i]).min()))
            ratios = np.full(M[i].shape, np.inf)
            np.divide(M[i], om_i[:, None], out=ratios, where=~zero[:, None])
        else:
            ratios = M[i] / bound(i)[:, None]
        mx = float(ratios.max())
        rows, arr = np.nonzero(ratios == mx)
        first = np.argmin(pos[i[rows], arr])
        at, j = i[rows[first]], arr[first]
        if mx > st.max_ratio or (st.witness and mx == st.max_ratio
                                 and pos[at, j] < st.witness_pos):
            st.max_ratio, st.witness_pos = mx, int(pos[at, j])
            st.witness = witness(at, j)


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

# Origin bits of the 1-D family tuples: the random background, the
# near-collision family and the two-high-pair family.  Each family case's
# set is the union of the sources it names; every case holds the background.
_BACKGROUND, _COLLISION, _TWO_PAIRS = 1, 2, 4
_SOURCES = {"i": _BACKGROUND, "ii": _BACKGROUND | _COLLISION,
            "iii": _BACKGROUND | _TWO_PAIRS, "iv": _BACKGROUND | _TWO_PAIRS,
            "nonresonant": _BACKGROUND | _COLLISION | _TWO_PAIRS}


def _zero_sum_draws(rng, kmax: int, count: int, n: int, d: int) -> np.ndarray:
    """``count`` uniform draws of slots 1..n-1 in [-kmax, kmax]^d, closed to
    zero-sum n-tuples by slot n; draws whose slot n leaves the box are
    dropped.  Integer rows of shape (n,) in 1-D and (n, d) otherwise."""
    free = rng.integers(-kmax, kmax + 1, size=(count, n - 1) + ((d,) if d > 1 else ()))
    tup = np.concatenate([free, -free.sum(axis=1, keepdims=True)], axis=1)
    return tup[np.abs(tup[:, -1]).reshape(len(tup), -1).max(axis=1) <= kmax]


def _family_tuples_1d(cases, N: float, kmax: int, gap: float, rng):
    """The union of the family cases' sets, as ``_unique_rows`` (sorted rows
    and their origin bits) of ``_family_blocks``."""
    need = 0
    for case in cases:
        need |= _SOURCES[case]
    return _unique_rows(_family_blocks(need, N, kmax, gap, rng), kmax)


def _family_blocks(need: int, N: float, kmax: int, gap: float, rng):
    """(origin bit, integer rows) blocks: the structured worst-case families
    of the kept regions whose bits are in ``need``, then the random
    background, which every family case holds."""
    tops = np.arange(max(2, int(N)), kmax + 1)
    q = 8
    if need & _COLLISION:
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
            yield _COLLISION, tup[np.max(np.abs(tup), axis=1) <= kmax]
    if need & _TWO_PAIRS:
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
                yield _TWO_PAIRS, tup[np.max(np.abs(tup), axis=1) <= kmax]
    # background: random zero-sum tuples over the box (deterministic seed)
    yield _BACKGROUND, _zero_sum_draws(rng, kmax, 200000, 6, 1)


def _unique_rows(blocks, kmax: int):
    """The distinct rows of an iterable of ``(bit, rows)`` blocks of n-slot
    integer rows with entries in [-kmax, kmax], and each one's origin bits,
    the OR of the bits of the blocks that hold it: ``np.unique`` of the
    concatenated rows, in the smallest signed integer dtype that holds
    +-kmax, and a uint8 mask per row.

    Each row packs into one int64 key with digits k_i + kmax in base
    2 kmax + 1; key order is the rows' lexicographic order, so sorting the
    keys and unpacking them gives the same rows in the same order, without
    concatenating the rows or sorting over a structured dtype.  Each block
    is packed as it arrives and then released, so the blocks are never all
    held at once.  Rows too wide for an int64 key are gathered whole and
    sorted by ``np.unique``.
    """
    base = 2 * int(kmax) + 1
    dtype = np.min_scalar_type(-int(kmax) - 1)
    keys, tags = [], []
    for bit, b in blocks:
        width = b.shape[1]
        if base ** width > np.iinfo(np.int64).max:
            keys.append(b)  # too wide for a key: kept whole for np.unique
        else:
            key = np.zeros(len(b), dtype=np.int64)
            for col in b.T:
                key *= base
                key += col
                key += kmax
            keys.append(key)
        tags.append(np.full(len(b), bit, dtype=np.uint8))
    keys, tags = np.concatenate(keys), np.concatenate(tags)
    if keys.ndim == 2:
        rows, inverse = np.unique(keys, axis=0, return_inverse=True)
        bits = np.zeros(len(rows), dtype=np.uint8)
        np.bitwise_or.at(bits, inverse.reshape(-1), tags)
        return rows.astype(dtype), bits
    order = np.argsort(keys)
    keys, tags = keys[order], tags[order]
    del order
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    bits = np.bitwise_or.reduceat(tags, np.flatnonzero(first))
    keys = keys[first]
    rows = np.empty((len(keys), width), dtype=dtype)
    digit = np.empty_like(keys)
    for j in range(width - 1, -1, -1):
        np.divmod(keys, base, out=(keys, digit))
        np.subtract(digit, kmax, out=rows[:, j])
    return rows, bits


def verify_multiplier_bounds(case, N: float, kmax: int, s: float = 0.5,
                             thresholds: Thresholds = Thresholds(), seed: int = 0):
    """Supremum of |multiplier| / claimed bound over each case's tuples.

    ``case`` is one case name, whose ``BoundReport`` is returned, or a tuple
    of names evaluated in one pass, whose reports are returned in its order.
    The family cases (i-iv and nonresonant) share one set: the union of
    their 1-D families and the background (``_family_tuples_1d``), built and
    classified once.  A case reads the rows whose origin bits meet its
    sources; those are its own set, in its own sorted order.  sigma6, sigma4
    and the 2-D cases draw their own zero-sum tuples (``_DRAWS``).  Every set
    is classified in blocks of ``_VERIFY_ROWS`` rows, which bounds the
    classifier's temporaries; count, supremum and the first maximizing
    witness carry across blocks exactly as in one pass over all rows.  The
    integer 1-D modes read m from one per-mode table, m_value(0..kmax),
    indexed by |k|: m_value is elementwise, so the values are bit-equal.
    Witnesses are ints for the families, floats for the drawn tuples.
    """
    if isinstance(case, str):
        return verify_multiplier_bounds((case,), N, kmax, s, thresholds, seed)[0]
    for c in case:
        if c not in VERIFY_CASES:
            raise ValueError(f"case {c!r} not one of {VERIFY_CASES}")
    reports = {c: BoundReport(c, N, kmax, s, thresholds.gap) for c in case}
    sym = SmoothingSymbol(N, 1.0 - s)
    m = m_value(np.arange(kmax + 1, dtype=np.float64), sym)  # m(|k|) by |k|
    family = [c for c in reports if c in _SOURCES]
    if family:
        tup, bits = _family_tuples_1d(family, N, kmax, thresholds.gap,
                                      np.random.default_rng(seed))
        for rows in _blocks(len(tup)):
            block = tup[rows].astype(np.float64)
            _fold(reports, block, int,
                  _family_ratios(family, block, bits[rows], m, N, thresholds))
    for c in reports:
        if c in _DRAWS:
            count, n, d = _DRAWS[c]
            tup = _zero_sum_draws(np.random.default_rng(seed), kmax, count, n, d).astype(float)
            for rows in _blocks(len(tup)):
                _fold(reports, tup[rows], float,
                      {c: _drawn_ratios(c, tup[rows], sym, m, thresholds)})
    for rep in reports.values():
        rep.empty = rep.count == 0
    return tuple(reports[c] for c in case)


def _blocks(n: int):
    """Row slices of ``_VERIFY_ROWS`` rows covering n rows."""
    return [slice(a, a + _VERIFY_ROWS) for a in range(0, n, _VERIFY_ROWS)]


def _fold(reports: dict, block: np.ndarray, kind, kept: dict) -> None:
    """Fold a block's kept rows, per case (sel, ratios), into that case's
    count, supremum and first maximizing witness."""
    for case, (sel, ratios) in kept.items():
        if not len(ratios):
            continue
        rep = reports[case]
        i = int(np.argmax(ratios))
        if rep.count == 0 or ratios[i] > rep.sup_ratio:
            rep.sup_ratio = float(ratios[i])
            rep.witness = tuple(kind(x) for x in block[np.flatnonzero(sel)[i]].ravel())
        rep.count += len(ratios)


def _lookup(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """m(|k|) of integer-valued modes k from the per-mode table m."""
    return m[np.abs(k).astype(np.intp)]


def _table_m6(tup: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``bare_m6`` of integer-valued 1-D tuples, its m from the per-mode
    table m, in ``bare_m6``'s order of operations."""
    return np.sum(_lookup(m, tup) ** 2 * tup ** 2 * _alt_signs(tup.shape[-1]), axis=-1)


def _family_ratios(cases, tup: np.ndarray, bits: np.ndarray, m: np.ndarray,
                   N: float, thresholds: Thresholds) -> dict:
    """Per family case, the rows of ``tup`` in its set (origin ``bits`` meet
    its sources) and its kept region, and |M| / bound on those rows."""
    codes, parts = classify_batch_1d(tup, N, thresholds)
    ns, om, gap = parts.mags, parts.abs_omega, thresholds.gap
    M = np.abs(_table_m6(tup, m))
    # cross-parity pair sums in canonical order: these are the separations
    # the mean-value telescoping of the kept region controls
    pair12 = np.abs(parts.odd[0] + parts.even[0])
    pair34 = np.abs(parts.odd[1] + parts.even[1])
    n1 = ns[0]
    n3 = np.maximum(ns[2], 1.0)
    n5 = np.maximum(ns[4], 1.0)
    out = {}
    for case in cases:
        held = (bits & _SOURCES[case]) != 0
        if case == "i":
            sel = held & is_resonant(codes) & (ns[2] * gap >= n1)
            x1, x3 = n1[sel], n3[sel]
            bound = _lookup(m, x1) * x1 * _lookup(m, x3) * x3
        elif case == "ii":
            sel = held & (codes == RES_I)
            bound = n3[sel] ** 2
        elif case == "iii":
            sel = held & (codes == RES_II) & (pair12 <= gap * n5) & (pair34 <= gap * n5)
            x1 = n1[sel]
            bound = _lookup(m, x1) * x1 * n5[sel]
        elif case == "iv":
            n12 = np.maximum(pair12, 1.0)
            sel = (held & (codes == RES_II) & (pair12 > gap * n5)
                   & (pair34 <= gap * n12) & (pair34 * gap >= n12))
            x1 = n1[sel]
            bound = _lookup(m, x1) * x1 * n12[sel]
        else:
            sel = held & is_nonresonant(codes)
            bound = np.where(om[sel] > 0, om[sel], np.inf)
        out[case] = sel, M[sel] / bound
    return out


def _drawn_ratios(case: str, tup: np.ndarray, sym: SmoothingSymbol, m: np.ndarray,
                  thresholds: Thresholds):
    """Rows of drawn ``tup`` in the case's kept region, and |multiplier| /
    bound on those rows.  The sigma cases keep every row and bound the
    product by 1; sigma6's integer modes read m from the per-mode table m."""
    if case == "sigma6":
        return np.ones(len(tup), dtype=bool), np.prod(_lookup(m, tup), axis=-1)
    if case == "sigma4":
        return np.ones(len(tup), dtype=bool), sigma_product(tup, sym, 2)
    codes, parts = classify_batch_2d(tup, sym.N, thresholds)
    M = np.abs(bare_m6(tup, sym, 2))
    if case == "2d-nonresonant":
        sel = is_nonresonant(codes)
        return sel, M[sel] / np.abs(omega(tup[sel], 2))
    sel = is_resonant(codes)
    mags = np.sort(parts.mags[sel], axis=-1)[..., ::-1]
    n1 = mags[..., 0]
    n3 = np.maximum(mags[..., 2], 1.0)
    return sel, M[sel] / (m_value(n1, sym) * n1 * m_value(n3, sym) * n3)
