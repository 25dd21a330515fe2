"""Exhaustive resonance censuses and multiplier-bound verification sweeps.

The census walks every zero-sum tuple on the integer lattice up to a
cutoff, one representative per slot-parity orbit (``energies._Orbits``) in
one sigma-block per class of the lattice's symmetry group (k -> +-k in 1-D,
the eight signed axis permutations of the unit square in 2-D), weighted by
the tuples it stands for.  It classifies each at every requested threshold
with ``classify``'s per-mode verdicts (the integer modes in 1-D, |k| in
2-D) and accumulates per-class counts, the minimum |omega| per
non-resonant rule against its claimed lower bound, the non-resonant
supremum |M|/|omega|, the resonant supremum against the mean-value bound
m(N1*)N1* m(N3*)N3*, and the worst witnesses, the first maximizers,
searched once per class after the walk among the representatives that tie
its supremum and their images, those of the skipped blocks too.  The rules
themselves are threshold-free apart from the below-threshold cut, so one
pass serves every N.  One body serves both dimensions.

Bound verification enumerates structured 1-D families tailored to each
kept region (near-collision pairs, paired quadruples, comparable shells)
plus a random background, or draws random zero-sum tuples (the 2-D
cases), each random set drawn block by block and held as narrow integers,
classifies them in blocks and reports the supremum of
|multiplier| / bound with its witness; `<n>` denotes max(n, 1) so
degenerate zero slots use the unit shell.  Both read m, m^2|k|^2 and |k|
from one per-mode table indexed by the integer |k|^2 (``_mode_table``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classify import (BELOW, RES_I, RES_II, Thresholds, classify_batch_1d,
                       classify_batch_2d, code_label, is_nonresonant, is_resonant,
                       omega_lower_bound)
from .energies import _TABLE_TUPLES, BudgetError, _lattice_verdicts, _Orbits, _symmetries
from .geometry import build_geometry, zero_field
from .multipliers import _alt_signs
from .smoothing import SmoothingSymbol, m_value


# tuples per classifier block in bound verification: the census's and the
# Lambda walk's run size
_VERIFY_ROWS = _TABLE_TUPLES


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
    representatives: int = 0  # orbit representatives classified
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


# each dimension's smoothing order s, when a census is given none
DEFAULT_S = {1: 0.5, 2: 0.6}


def resonance_census_1d(N_values, kmax: int, s: float = DEFAULT_S[1],
                        thresholds: Thresholds = Thresholds(),
                        budget: int = 10 ** 9) -> dict:
    """Exhaustive census over Gamma_6 on the integer lattice |k_i| <= kmax
    (``_census``)."""
    return _census(1, N_values, kmax, s, thresholds, budget)


def resonance_census_2d(N_values, kmax: int, s: float = DEFAULT_S[2],
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

    Walks one representative per slot-parity orbit (``_Orbits``) in one
    sigma-block per class of the lattice's symmetry group
    (``energies._symmetries``, the group the Lambda walk quotients by too),
    weighted by its orbit's size, the distinct arrangements of its odd
    multiset times those of its even one, times its class's size.  Every
    statistic is invariant under the group and within each slot parity, so
    it is read once per walked representative: the verdicts as the Lambda
    walk reads them (``energies._lattice_verdicts``: the integer modes in
    1-D, the per-mode |k| in 2-D), the rest per N from one ``_mode_table``
    by |k|^2.  M is summed in the order of the enumeration the witnesses are
    documented in (1-D: odd triples by descending values, then (k2, k4)
    ascending; 2-D: (k1, k2, k3) in C order), over the ``_ARRANGEMENTS``
    whose float sums can differ, each at the position of its first tuple in
    that order.  Per N and class, the representatives that tie the running
    supremum are held (``_accumulate``), and once the walk is done the held
    rows are read in their images under the group, each canonicalized to
    the sorted multisets of its own representative (``_first_maximizer``),
    so the supremum and its witness, the first maximizer, are those of a
    walk over every tuple.
    """
    n = 6 if d == 1 else 4
    lat = _Orbits(zero_field(build_geometry(d, (1.0,) * (d - 1)), kmax), n, budget)
    G = thresholds.gap
    reports = {float(N): CensusReport(d, float(N), kmax, s, G) for N in N_values}
    sq = np.sum(lat.modes ** 2, axis=1)  # |k|^2 per mode
    tabs = {N: _mode_table(int(sq.max()), N, s) for N in reports}
    maps, walked, size = _symmetries(lat)
    orbit = np.rint(math.factorial(n // 2) * lat.share).astype(np.int64)
    odd_weight = orbit * np.repeat(size, np.diff(lat.bounds))
    arrangements = np.array(_ARRANGEMENTS[d])
    if d == 1:
        P = lat.Q

        def place(t):
            # the odd modes ascend: the triple's position orders them by
            # descending values
            odd = (P - 1 - t[:, 4]) * P ** 2 + (P - 1 - t[:, 2]) * P + P - 1 - t[:, 0]
            return odd * P ** 2 + t[:, 1] * P + t[:, 3]

        def slot_sq(t):
            # the odd slots by descending |k|, the order M sums them in
            q = sq[t]
            q[:, 0], q[:, 2], q[:, 4] = _descending([q[:, 0], q[:, 2], q[:, 4]])
            return q

        def M(b, q):
            t = b[q]
            o = t[:, 0] + t[:, 2] + t[:, 4]
            return np.abs(np.stack([o - (t[:, a[1]] + t[:, a[3]] + t[:, a[5]])
                                    for a in arrangements]))

        def witness(t):
            k = lat.modes[t, 0].tolist()
            # odds by descending |k|, ties by descending value
            o = sorted(k[4::-2], key=abs, reverse=True)
            return (o[0], k[1], o[1], k[3], o[2], k[5])
    else:
        place, slot_sq = lat.position, sq.__getitem__

        def M(b, q):
            t = b[q]
            return np.abs(np.stack([t[:, a[0]] - t[:, a[1]] + t[:, a[2]] - t[:, a[3]]
                                    for a in arrangements]))

        witness = lambda t: tuple(float(x) for x in lat.modes[t].ravel())

    walk = (maps, arrangements, slot_sq, M, place, witness)
    search = {N: functools.partial(_first_maximizer, walk, b=tabs[N].bare) for N in reports}
    ties = {N: {} for N in reports}  # class -> held ties of the running supremum
    done = classified = 0
    for blocks, idx in lat.batches(_TABLE_TUPLES, walked):
        weight = np.concatenate([np.outer(odd_weight[odd], orbit[even]).ravel()
                                 for (odd, even), _ in blocks])
        ksq = slot_sq(idx)
        # n1, the largest |k|, is the tables' root[r1]: each |k| is the sqrt
        # of an integer, so N1*^2 and N3*^2 (clipped below at 1) give the
        # mean-value bound
        codes, n1, parts = _lattice_verdicts(lat, idx, G, blocks)
        if d == 1:
            om = parts.abs_omega  # the rules' exact integer |Omega|
            # widened: the merged magnitudes keep the narrow mode dtype
            r1, r3 = (np.square(parts.mags[j], dtype=np.intp) for j in (0, 2))
            r3 = np.maximum(r3, 1)
            claimed = omega_lower_bound(codes, G, n1=n1, n3=np.sqrt(r3), s12=parts.s12)
        else:
            om = np.abs(ksq @ _alt_signs(n))  # exact: integers far below 2^53
            r1, r2, r3 = _descending(list(ksq.T))[:3]
            r3 = np.maximum(r3, 1)
            claimed = omega_lower_bound(codes, G, lo_sq=np.maximum(r2, 1))
        for N, rep in reports.items():
            tab, cut = tabs[N], np.where(n1 <= N, BELOW, codes)
            # M/|Omega| on the non-resonant rows, M over the mean-value
            # bound on the resonant ones
            den = np.where(is_nonresonant(cut), om, _mean_value(tab, r1, r3))
            _accumulate(rep, cut, weight, om, _ratios(M(tab.bare, ksq), den).max(axis=0),
                        claimed, (idx, den), ties[N], search[N])
        done += int(weight.sum())
        classified += len(idx)
    for N, rep in reports.items():
        rep.total, rep.representatives = done, classified
        for code, held in ties[N].items():
            st = rep.classes[code]
            st.witness = search[N](held, st.max_ratio)[1]
    return reports


def _first_maximizer(walk, held, mx, b):
    """The first maximizer, in enumeration order, of ratio ``mx`` among the
    representatives ``held`` ((slot indices, denominators) blocks) and their
    images under the group, each image canonicalized to the sorted
    multisets of its representative and read in the ``walk``'s arrangements
    (maps, arrangements, slot |k|^2, M, position, witness tuple) by the
    m^2|k|^2 table ``b``.  Returns the held row it is an image of, as a
    one-row ``held``, and the maximizer's witness tuple."""
    maps, arrangements, slot_sq, M, place, witness = walk
    idx, den = (np.concatenate(part) for part in zip(*held))
    cand = np.concatenate([to[idx] for to in maps])
    cand[:, 0::2].sort(axis=1)
    cand[:, 1::2].sort(axis=1)
    j, r = np.nonzero(_ratios(M(b, slot_sq(cand)), np.tile(den, len(maps))) == mx)
    t = np.take_along_axis(cand[r], arrangements[j], axis=1)
    k = int(np.argmin(place(t)))
    row = slice(r[k] % len(idx), r[k] % len(idx) + 1)
    return [(idx[row], den[row])], witness(t[k])


def _ratios(M, den):
    """M / den per arrangement and representative (A, T), inf where the
    representative's denominator is 0."""
    out = np.full(M.shape, np.inf)
    np.divide(M, den, out=out, where=den != 0)
    return out


def _descending(cols):
    """Equal-length arrays sorted into descending order elementwise, by
    odd-even transposition: numpy's sort over a short axis is several times
    slower."""
    for r in range(len(cols)):
        for j in range(r % 2, len(cols) - 1, 2):
            cols[j], cols[j + 1] = (np.maximum(cols[j], cols[j + 1]),
                                    np.minimum(cols[j], cols[j + 1]))
    return cols


def _accumulate(rep, codes, weight, om, ratio, claimed, rows, ties, search):
    """Fold a block of orbit representatives into ``rep``'s class statistics.

    Per representative: verdict code, weight (the tuples it stands for),
    |Omega| and ``ratio``, the largest over its arrangements of M/|Omega|
    (non-resonant; inf where |Omega| is 0) or of M over the mean-value bound
    m(N1*)N1* m(N3*)N3* (resonant), and in ``rows`` its slot indices and
    the ratio's denominator.  ``claimed`` holds the lower bound on |Omega|
    that each non-resonant verdict claims (``omega_lower_bound``).  Per
    class: the weighted count, min |Omega|, min |Omega|/claimed, and the
    supremum ratio; a non-resonant zero |Omega| is a violation for each
    tuple it stands for.  ``ties[class]`` holds the ``rows`` blocks of the
    representatives that tie a positive supremum, dropped when it rises;
    the caller reads the witness, the earliest maximizer in enumeration
    order, from them (``_first_maximizer``).  Past ``_TABLE_TUPLES`` held
    rows, ``search(held, mx)`` reduces them to the row of their first
    maximizer, so what is held stays bounded.
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
            rep.violations += int(weight[i][om_i == 0.0].sum())
            st.min_omega_ratio = min(st.min_omega_ratio,
                                     float((om_i / claimed[i]).min()))
        ratio_i = ratio[i]
        mx = float(ratio_i.max())
        if mx < st.max_ratio or mx == 0.0:
            continue
        if mx > st.max_ratio:
            st.max_ratio, ties[code] = mx, []
        tied = i[ratio_i == mx]
        ties[code].append(tuple(part[tied] for part in rows))
        if sum(len(t) for t, _ in ties[code]) > _TABLE_TUPLES:
            ties[code] = search(ties[code], mx)[0]


def sohinger_presence(kmax: int, N: float = 8.0):
    """All multiples of the vanishing-resonance family up to the cutoff must
    be classified resonant with exactly zero resonance function, at the
    default thresholds."""
    base = np.array([5, -3, 6, -2, 1, -7], dtype=np.int64)
    out = []
    K = 1
    while 7 * K <= kmax:
        t = (K * base).astype(np.float64)
        codes, _ = classify_batch_1d(t[None, :], N, Thresholds())
        out.append({
            "K": K,
            "omega": int(np.sum((K * base) ** 2 * np.array([1, -1, 1, -1, 1, -1]))),
            "resonant": bool(is_resonant(codes[0])),
        })
        K += 1
    return out


# -- multiplier bound verification ----------------------------------------------

VERIFY_CASES = ("i", "ii", "iii", "iv", "nonresonant", "2d-resonant", "2d-nonresonant")


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


# slots of the 1-D family tuples, and the origin bits below their slots in a
# family key (``_keys``)
_FAMILY_SLOTS, _ORIGIN_BITS = 6, 3

# the zero-sum draws of bound verification, (draws, slots n, dimension d):
# the 2-D cases' shared draw and the 1-D families' random background
_DRAW_2D = (400000, 4, 2)
_DRAW_BACKGROUND = (200000, _FAMILY_SLOTS, 1)

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
    dropped.  Integer rows of shape (n,) in 1-D and (n, d) otherwise, in the
    smallest signed integer dtype that holds +-kmax (int8 up to kmax 127).

    The draws are made in blocks of ``_TABLE_TUPLES`` rows, each closed and
    filtered before the next in the smallest signed dtype that holds the
    sum of n - 1 slots, so only the kept rows, narrow, outlive their block.
    The generator draws int64, and its stream carries across ``integers``
    calls, so the rows and their order are those of one int64 draw of all
    ``count`` at once: a narrower draw dtype draws another stream."""
    tail = (d,) if d > 1 else ()
    closing = np.min_scalar_type(-(n - 1) * int(kmax) - 1)
    narrow = np.min_scalar_type(-int(kmax) - 1)
    kept = [np.empty((0, n) + tail, dtype=narrow)]
    for at in range(0, count, _TABLE_TUPLES):
        size = min(_TABLE_TUPLES, count - at)
        # slot-major, so that each slot is summed and filtered contiguously
        # (numpy's reductions over a short trailing axis are several times
        # slower); the int64 draw is released once it is copied
        cols = np.empty((n,) + tail + (size,), dtype=closing)
        cols[:-1] = np.moveaxis(rng.integers(-kmax, kmax + 1, size=(size, n - 1) + tail), 0, -1)
        np.negative(functools.reduce(np.add, cols[:-1]), out=cols[-1])
        inside = functools.reduce(np.logical_and, (np.abs(cols[-1]) <= kmax).reshape(-1, size))
        kept.append(np.ascontiguousarray(np.moveaxis(np.compress(inside, cols, axis=-1), -1, 0),
                                         dtype=narrow))
    return np.concatenate(kept)


def _family_tuples_1d(cases, N: float, kmax: int, gap: float, background):
    """The union of the family cases' sets, as ``_unique_rows`` (sorted rows
    and their origin bits) of ``_family_blocks``.  ``background`` holds the
    background's sorted ``_keys``, packed once for every gap.  Every row is
    zero-sum, as the keys need, and kmax is at most 2047 (``_key_width``)."""
    need = 0
    for case in cases:
        need |= _SOURCES[case]
    return _unique_rows(_family_blocks(need, N, kmax, gap, background), kmax)


def _family_blocks(need: int, N: float, kmax: int, gap: float, background):
    """(origin bit, rows) blocks: the structured worst-case families of the
    kept regions whose bits are in ``need``, one block per top mode t, then
    the random background, which every family case holds: its sorted
    ``_keys`` ``background``, packed once for every gap.

    A family block holds int16 zero-sum rows with every entry in [-kmax,
    kmax] (``_closed_rows``).  The near-collision offsets are clipped to
    those that keep slot 2 in [-kmax, kmax], so no entry passes 2 kmax + 19
    before the filter, which int16 holds at every kmax the keys allow
    (``_key_width``).  Each family's grid axes follow its slots and t
    ascends, so its rows come in ``_keys`` order: with the sorted
    background, the union's sort merges one sorted run per source."""
    tops = np.arange(max(2, int(N)), kmax + 1)
    q = 8
    if need & _COLLISION:
        # near-collision pair (t, j - t) with a small opposite pair
        for t in tops:
            c = max(1, int(np.ceil(gap * min(t, q) ** 2 / t)) + 2)
            j = np.arange(max(-c, t - kmax), min(c, t + kmax) + 1)
            m3 = np.arange(0, min(q, t) + 1)[:, None]
            r = np.arange(-min(q, t), min(q, t) + 1)
            yield _COLLISION, _closed_rows(kmax, t, (j - t)[:, None, None], m3, r - m3, 0)
    if need & _TWO_PAIRS:
        # two high pairs (t, e1 - t), (b, e2 - b) with small coupling offsets
        e = np.arange(-q, q + 1)
        for t in tops:
            bs = np.unique(np.maximum(1, np.linspace(t / gap, t, 6).astype(int)))[:, None, None]
            yield _TWO_PAIRS, _closed_rows(kmax, t, (e - t)[:, None, None, None], bs,
                                           e[:, None] - bs, np.arange(-3, 4))
    yield _BACKGROUND, background


def _closed_rows(kmax: int, *slots) -> np.ndarray:
    """The int16 rows over the broadcast grid of slots 1..n-1 (integers or
    integer arrays), closed to zero sum by slot n, without those with an
    entry past kmax: a (rows, n) view of the kept (n, rows) columns."""
    cols = np.empty((len(slots) + 1,) + np.broadcast_shapes(*map(np.shape, slots)), np.int16)
    for col, s in zip(cols, slots):
        col[...] = s
    np.negative(functools.reduce(np.add, cols[:-1]), out=cols[-1])
    cols = cols.reshape(len(cols), -1)
    return cols[:, np.abs(cols).max(axis=0) <= kmax].T


def _key_width(kmax: int) -> int:
    """Bits per slot field of a family key, (2 kmax).bit_length(); a
    ValueError, naming the limit, when slots 1..n-1 and the origin bits pass
    64 bits: kmax > 2047 at n = 6."""
    w = (2 * int(kmax)).bit_length()
    fields = _FAMILY_SLOTS - 1
    if fields * w + _ORIGIN_BITS > 64:
        top = (1 << (64 - _ORIGIN_BITS) // fields) // 2 - 1
        raise ValueError(f"kmax={kmax} is past {top}, the largest cutoff of the 1-D family "
                         f"cases: {fields} slots of {w} bits and {_ORIGIN_BITS} origin bits "
                         f"pass a 64-bit key")
    return w


def _keys(rows: np.ndarray, bit: int, kmax: int) -> np.ndarray:
    """One uint64 key per zero-sum ``_FAMILY_SLOTS``-slot integer row with
    entries in [-kmax, kmax]: slots 1..n-1, each offset by kmax into a field
    of ``_key_width`` bits, most significant slot first, above
    ``_ORIGIN_BITS`` bits that hold ``bit``.  Slot n is not stored: the row
    is zero-sum, so it is minus the sum of the others."""
    w = _key_width(kmax)
    # a negative slot wraps as uint64 and the offset wraps it back: exact
    key = np.add(rows[:, 0], kmax, dtype=np.uint64, casting="unsafe")
    for j in range(1, _FAMILY_SLOTS - 1):
        key <<= w
        key |= np.add(rows[:, j], kmax, dtype=np.uint64, casting="unsafe")
    key <<= _ORIGIN_BITS
    key |= bit
    return key


def _unique_rows(blocks, kmax: int):
    """The distinct rows of an iterable of ``(bit, rows)`` blocks of
    zero-sum ``_FAMILY_SLOTS``-slot integer rows with entries in [-kmax,
    kmax], and each one's origin bits, the OR of the bits of the blocks that
    hold it: ``np.unique`` of the concatenated rows, in the smallest signed
    integer dtype that holds +-kmax (stored slot-major), and a uint8 mask
    per row.  A block may hold its rows' ``_keys`` (a 1-D array) instead.

    Each block is packed into ``_keys`` as it arrives and then released, so
    the rows are never all held at once; the keys are concatenated once and
    sorted in place by a merge sort, which joins sorted runs in about one
    pass.  Offset, most significant slot first, the keys order as the rows
    do, and rows equal on slots 1..n-1 are equal, being zero-sum: each run
    of keys equal above the origin bits is one row, whose bits OR the run's.
    Only the distinct keys are decoded, slot n as minus the sum of the
    others, so a row that is not zero-sum comes back closed: the
    precondition is the caller's.  kmax is at most 2047 (``_key_width``).
    """
    w = _key_width(kmax)
    keys = np.concatenate([b if b.ndim == 1 else _keys(b, bit, kmax) for bit, b in blocks])
    keys.sort(kind="stable")
    tags = keys.astype(np.uint8)  # the low byte
    tags &= (1 << _ORIGIN_BITS) - 1
    keys >>= _ORIGIN_BITS
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    bits = np.bitwise_or.reduceat(tags, starts)
    del tags
    # the distinct keys to the front, a block at a time: starts[i] >= i, so
    # no block overwrites a key a later block reads
    count = len(starts)
    for at in range(0, count, _TABLE_TUPLES):
        end = min(at + _TABLE_TUPLES, count)
        keys[at:end] = keys[starts[at:end]]
    del starts
    distinct = keys[:count]
    # slot-major, so that each slot is written and summed contiguously
    cols = np.empty((_FAMILY_SLOTS, count), dtype=np.min_scalar_type(-int(kmax) - 1))
    field = np.empty(count, dtype=np.int16)  # 2 kmax < 2^12
    for j in reversed(range(_FAMILY_SLOTS - 1)):
        np.bitwise_and(distinct, (1 << w) - 1, out=field, casting="unsafe")
        distinct >>= w
        field -= kmax
        cols[j] = field
    # the narrow sum may wrap, but slot n of a zero-sum row fits the dtype,
    # and so does the wrapped sum's negative
    np.negative(functools.reduce(np.add, cols[:-1]), out=cols[-1])
    return cols.T, bits


def verify_multiplier_bounds(cases: tuple, N: float, kmax: int, s: float = 0.5,
                             thresholds: tuple = (Thresholds(),), seed: int = 0) -> dict:
    """Supremum of |multiplier| / claimed bound over each case's tuples.

    ``cases`` are case names evaluated in one pass per entry of
    ``thresholds``; returns {(case, gap): BoundReport}.  The cases share sets
    (``_verify_sets``), each built and classified once per gap; a family
    case reads the union's rows whose origin bits meet its sources, its own
    set in its own sorted order.  One loop runs every set in blocks of
    ``_VERIFY_ROWS`` rows (the Lambda walk's run size), which bounds the
    classifier's temporaries, and folds each block into its cases' count,
    supremum and first maximizing witness exactly as one pass over all rows
    would.  The random sets do not depend on the gap: each is drawn once per
    call from a fresh generator of ``seed``, in blocks of that size, each
    closed and filtered in a narrow dtype (``_zero_sum_draws``), so that no
    draw's temporaries outgrow one block and no int64 copy of a draw
    exists, and is held for every gap: the 2-D draw as drawn, in the
    smallest signed integer dtype that holds +-kmax, the 1-D background as
    its sorted ``_keys``.
    The family cases pack their zero-sum rows into 64-bit keys, so they
    refuse kmax past 2047 with a ValueError before any draw
    (``_key_width``); the 2-D cases take any kmax.  Every multiplier and
    bound reads one ``_mode_table``.  Witnesses are ints for the families,
    floats for the drawn tuples.
    """
    for c in cases:
        if c not in VERIFY_CASES:
            raise ValueError(f"case {c!r} not one of {VERIFY_CASES}")
    if any(c in _SOURCES for c in cases):
        _key_width(kmax)
    d = 2 if any(c.startswith("2d") for c in cases) else 1
    tab = _mode_table(d * kmax ** 2, N, s)
    drawn = {}

    def draw(spec):
        if spec not in drawn:
            rows = _zero_sum_draws(np.random.default_rng(seed), kmax, *spec)
            drawn[spec] = (np.sort(_keys(rows, _BACKGROUND, kmax)) if spec == _DRAW_BACKGROUND
                           else rows)
        return drawn[spec]

    return {(c, th.gap): rep for th in thresholds
            for c, rep in _gap_reports(cases, N, kmax, s, th, tab, draw).items()}


def _gap_reports(cases, N: float, kmax: int, s: float, thresholds: Thresholds,
                 tab: _ModeTable, draw) -> dict:
    """Case -> ``BoundReport`` at one gap, from the shared sets of
    ``_verify_sets``; a set's rows are released on return, before the next
    gap builds its own."""
    reports = {c: BoundReport(c, N, kmax, s, thresholds.gap) for c in cases}
    for shared, tup, bits, kind in _verify_sets(list(reports), N, kmax, thresholds.gap, draw):
        for at in range(0, len(tup), _VERIFY_ROWS):
            rows = slice(at, at + _VERIFY_ROWS)
            _fold(reports, tup[rows], kind, _block_ratios(
                shared, tup[rows], None if bits is None else bits[rows], tab, N, thresholds))
    return reports


def _verify_sets(cases, N: float, kmax: int, gap: float, draw):
    """(cases, integer rows, origin bits or None, witness type) per shared
    set, built as the loop reaches it: the family cases' union
    (``_family_tuples_1d`` on the background's keys ``draw(_DRAW_BACKGROUND)``),
    then the 2-D cases' one draw (``draw(_DRAW_2D)``)."""
    family = [c for c in cases if c in _SOURCES]
    if family:
        yield family, *_family_tuples_1d(family, N, kmax, gap, draw(_DRAW_BACKGROUND)), int
    drawn = [c for c in cases if c.startswith("2d")]
    if drawn:
        yield drawn, draw(_DRAW_2D), None, float


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


class _ModeTable(NamedTuple):
    """|k|, m(|k|) and m^2 |k|^2, indexed by the integer |k|^2."""
    root: np.ndarray
    m: np.ndarray
    bare: np.ndarray


def _mode_table(top: int, N: float, s: float) -> _ModeTable:
    """The ``_ModeTable`` for |k|^2 = 0..max(top, 1) at threshold N, from one
    m_value call.  m_value is elementwise and sqrt is exact on squares, so a
    lookup is bit-equal to m_value on the float |k| of an integer mode."""
    root = np.sqrt(np.arange(max(top, 1) + 1, dtype=np.float64))
    m = m_value(root, SmoothingSymbol(N, 1.0 - s))
    return _ModeTable(root, m, m ** 2 * np.arange(len(m)))


def _mean_value(tab: _ModeTable, r1, r3):
    """The resonant bound m(N1*)N1* m(N3*)N3* from N1*^2 and N3*^2."""
    return tab.m[r1] * tab.root[r1] * tab.m[r3] * tab.root[r3]


def _block_ratios(cases, tup: np.ndarray, bits, tab: _ModeTable, N: float,
                  thresholds: Thresholds) -> dict:
    """Per case of a set, the rows of the integer block ``tup`` in its set
    (origin ``bits`` meet its sources; a draw's ``bits`` are None) and kept
    region, and |multiplier| / bound on them: M and m(N1*)N1* from ``tab``
    by each slot's |k|^2, |Omega| and N3*^2 exact, each in the per-tuple
    functions' order of operations."""
    classify = classify_batch_1d if tup.ndim == 2 else classify_batch_2d
    codes, parts = classify(tup, N, thresholds)
    sq = np.square(tup, dtype=np.intp)  # widened: int8 squares overflow
    ksq = sq if tup.ndim == 2 else sq[..., 0] + sq[..., 1]
    gap = thresholds.gap
    if tup.ndim == 2:
        # cross-parity pair sums in canonical order: these are the
        # separations the mean-value telescoping of the kept region controls
        pair12 = np.abs(parts.odd[0] + parts.even[0])
        pair34 = np.abs(parts.odd[1] + parts.even[1])
        n5, n12 = np.maximum(parts.mags[4], 1.0), np.maximum(pair12, 1.0)
    out = {}
    for case in cases:
        held = True if bits is None else (bits & _SOURCES[case]) != 0
        if case.endswith("nonresonant"):
            sel = held & is_nonresonant(codes)
            om = np.abs(_alternating(ksq[sel]))
            bound = np.where(om > 0, om, np.inf)
        elif case in ("i", "2d-resonant"):
            sel = held & is_resonant(codes)
            if case == "i":
                sel &= parts.mags[2] * gap >= parts.mags[0]
            r = _descending(list(ksq[sel].T))  # N1*^2 first
            bound = _mean_value(tab, r[0], np.maximum(r[2], 1))
        elif case == "ii":
            sel = held & (codes == RES_I)
            bound = np.maximum(_descending(list(ksq[sel].T))[2], 1)  # <N3*>^2
        elif case == "iii":
            sel = held & (codes == RES_II) & (pair12 <= gap * n5) & (pair34 <= gap * n5)
            r1 = functools.reduce(np.maximum, ksq[sel].T)
            bound = tab.m[r1] * tab.root[r1] * n5[sel]
        else:
            sel = (held & (codes == RES_II) & (pair12 > gap * n5)
                   & (pair34 <= gap * n12) & (pair34 * gap >= n12))
            r1 = functools.reduce(np.maximum, ksq[sel].T)
            bound = tab.m[r1] * tab.root[r1] * n12[sel]
        out[case] = sel, np.abs(_alternating(tab.bare[ksq[sel]])) / bound
    return out


def _alternating(x):
    """x[:, 0] - x[:, 1] + x[:, 2] - ... per row, the columns added in
    order: the same float operations as np.sum(x * _alt_signs(n), axis=1),
    which is several times slower over the short slot axis."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        (np.subtract if j % 2 else np.add)(out, x[:, j], out=out)
    return out
