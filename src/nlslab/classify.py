"""Resonant / non-resonant classification of zero-sum frequency tuples.

The classifier is a total, deterministic decision tree over a tuple's sorted
magnitudes, slot parities (odd slots unconjugated, even conjugated), and
signs.  Asymptotic comparisons are made concrete through a gap factor G:

    A << B  iff  A <= B / G,        A ~ B  iff  B/G < A <= G*B,

applied to raw magnitudes.  Every non-resonant verdict carries the claimed
lower bound for the resonance function so sweeps can measure the implied
constant; resonant verdicts record which part of the kept region fired.

One-dimensional rules, in order (six slots):
  1. all magnitudes <= N: below threshold (the smoothed resonance vanishes
     identically there, by exact cancellation);
  2. largest conjugated magnitude << largest magnitude  -> non-resonant;
  3. third largest >> fourth largest                    -> non-resonant;
  4. two dominant slots (N1* >> N3*): non-resonant when |k1*+k2*| >> N3*^2/N1*,
     else the near-collision resonant case (i);
  5. four dominant slots (N4* >> N5*): non-resonant when the three same-parity
     high slots share a sign, or one of them nearly collides with the
     opposite-parity high slot; else resonant case (ii);
  6. five comparable slots: resonant case (iii).

Rule 2 is sound outright (|Omega| >= (1 - 3/G^2) N1*^2 > 0 for G >= 2).  The
asymptotic proofs behind rules 3-5 hide constants that a finite gap factor
cannot honor: at G = 4 there are integer tuples meeting the structural
hypothesis of rule 3 (or 5) with vanishing resonance.  Those rules therefore
also require the tuple to witness the claimed bound numerically,

    |Omega_6| >= (claimed scale) / G,

and fall through to the resonant side otherwise.  A certified non-resonant
verdict always has the division by the resonance function under control.

Two dimensions (four slots): non-resonant exactly when one parity pair
dominates the other (then |Omega4| >= 2*(1-1/G^2)*min(pair)^2 > 0 follows
from the definition alone); otherwise resonant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .multipliers import as_tuple_array

# verdict codes (stable, used in census arrays and CSV output)
BELOW = 0
RES_I = 1
RES_II = 2
RES_III = 3
RES_2D = 4
NR_PAIR = 10
NR_TRIPLE = 11
NR_BILINEAR = 12
NR_SIGNS = 13
NR_2D = 14

RULE_NAMES = {
    NR_PAIR: "Lemma41-N2llN1",
    NR_TRIPLE: "Lemma41-N3ggN4",
    NR_BILINEAR: "Lemma42-bilinear",
    NR_SIGNS: "Lemma43-signs",
    NR_2D: "2d-Atilde",
}

CASE_NAMES = {RES_I: "i", RES_II: "ii", RES_III: "iii", RES_2D: "2d"}


def is_resonant(codes) -> np.ndarray:
    codes = np.asarray(codes)
    return (codes >= RES_I) & (codes <= RES_2D)


def is_nonresonant(codes) -> np.ndarray:
    return np.asarray(codes) >= NR_PAIR


def code_label(code: int) -> str:
    if code == BELOW:
        return "below-threshold"
    if code in RULE_NAMES:
        return f"NonResonant({RULE_NAMES[code]})"
    return f"Resonant(case {CASE_NAMES[code]})"


@dataclass(frozen=True)
class Thresholds:
    """Gap factor for << / ~ comparisons; the same G enters every rule."""

    gap: float = 4.0

    def __post_init__(self):
        if not self.gap > 1.0:
            raise ValueError(f"gap={self.gap} must exceed 1")


@dataclass(frozen=True)
class ResonanceClassification:
    code: int
    label: str
    witness: dict = field(default_factory=dict)

    @property
    def resonant(self) -> bool:
        return bool(is_resonant(self.code))

    @property
    def nonresonant(self) -> bool:
        return bool(is_nonresonant(self.code))


def _exchange(swap, a, b):
    """(where(swap, b, a), where(swap, a, b)): branch-free on integers, by
    xor under an all-ones mask.  np.where branches per element, which costs
    several ns each when ``swap`` is irregular."""
    if a.dtype.kind == "f":
        return np.where(swap, b, a), np.where(swap, a, b)
    flips = (a ^ b) & -swap.view(np.int8)
    return a ^ flips, b ^ flips


def _sort3_abs_desc(v0, v1, v2):
    """Three-element compare-exchange network on |.|, keeping signed values;
    equal |.| keep their slot order."""
    def ce(a, b):
        return _exchange(np.abs(a) < np.abs(b), a, b)

    v0, v1 = ce(v0, v1)
    v1, v2 = ce(v1, v2)
    v0, v1 = ce(v0, v1)
    return v0, v1, v2


def _merge_sorted_triples(a, b):
    """Descending merge of two descending triples (selection formulas)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    n1 = np.maximum(a0, b0)
    n2 = np.maximum(np.minimum(a0, b0), np.maximum(a1, b1))
    n3 = np.maximum.reduce([np.minimum(a0, b1), np.minimum(a1, b0), a2, b2])
    n4 = np.maximum.reduce([np.minimum(a0, b2), np.minimum(a1, b1),
                            np.minimum(a2, b0)])
    n5 = np.maximum(np.minimum(a1, b2), np.minimum(a2, b1))
    n6 = np.minimum(a2, b2)
    return n1, n2, n3, n4, n5, n6


class Parts1D(NamedTuple):
    """The per-slot arrays the 1-D rules compare.  ``odd``, ``even``: the
    canonical triples, signed and by descending |.|, after the parity flip
    that puts the largest slot among the odd ones."""

    odd: tuple
    even: tuple
    mags: tuple  # the six merged magnitudes N1* >= ... >= N6*
    s12: np.ndarray  # top cross-parity pair sum
    L: np.ndarray  # near-collision scale N3*^2/N1*
    abs_omega: np.ndarray


def _cascade_1d(odd, even, aom, G):
    """Rules 2-6 on canonical six-slot tuples; the below-threshold cut is the
    caller's.

    ``odd`` and ``even`` are the two parity triples, each signed and sorted
    by descending |.| with ties in slot order (``_sort3_abs_desc``): float,
    or integer in a signed dtype that holds twice the largest |k|, so that
    pair sums and differences stay exact.  ``aom`` is |Omega| (int64 or
    float64).  Every product with G, and N1* N3*, N1*^2 and N1* |s12|, is
    formed in float64.  The parity holding the largest magnitude becomes
    ``A``, the other ``B``.  Returns (codes, ``Parts1D``): the merged
    magnitudes, the flipped triples and s12 in the input dtype.
    """
    flip = np.abs(even[0]) > np.abs(odd[0])
    A, B = zip(*(_exchange(flip, o, e) for o, e in zip(odd, even)))
    aA, aB = tuple(map(np.abs, A)), tuple(map(np.abs, B))
    ns = _merge_sorted_triples(aA, aB)
    n1, n2, n3, n4, n5 = ns[:5]
    n1f = n1.astype(np.float64)
    n3f = n3.astype(np.float64)

    codes = np.full(n1.shape, RES_III, dtype=np.int8)
    undecided = np.ones(n1.shape, dtype=bool)

    def settle(mask, code):
        hit = undecided & mask
        codes[hit] = code
        undecided[hit] = False

    aom_G = aom * G
    settle(aB[0] * G <= n1, NR_PAIR)
    settle((n3 > 0) & (n3 >= G * n4) & (aom_G >= n1f * n3f), NR_TRIPLE)

    two_high = undecided & (n1 >= G * n3)
    s12 = A[0] + B[0]
    abs_s12 = np.abs(s12)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(n1 > 0, n3f**2 / np.maximum(n1f, 1e-300), 0.0)
    settle(two_high & (abs_s12 > G * L) & (aom_G >= n1f * abs_s12), NR_BILINEAR)
    settle(two_high, RES_I)

    four_high = undecided & (n4 >= G * n5) & (n4 > 0)
    cert = aom_G >= n1f**2
    # high slots in A: |A0| = N1* >= N4* always counts
    c_odd = 1 + (aA[1] >= n4).astype(np.int8) + (aA[2] >= n4).astype(np.int8)
    settle(four_high & (c_odd == 2), RES_II)

    # distribution (II): one high slot in A, trio = B; (III): mirrored
    for c, trio, mags, u in ((1, B, aB, aA[0]), (3, A, aA, aB[0])):
        sel = four_high & undecided & (c_odd == c)
        if not np.any(sel):
            continue
        same_sign_trio = ((np.sign(trio[0]) == np.sign(trio[1]))
                          & (np.sign(trio[1]) == np.sign(trio[2])))
        # |v - u| for v of the high slot's sign, else |v + u|: either way
        # ||v| - |u||
        near = np.zeros_like(sel)
        for m in mags:
            near |= np.abs(m - u) * G <= n1
        settle(sel & (same_sign_trio | near) & cert, NR_SIGNS)
        settle(sel, RES_II)
    # remaining: five comparable magnitudes, RES_III
    return codes, Parts1D(A, B, ns, s12, L, aom)


def _integer_slots(slots):
    """Integer slot arrays (slots, ...) as contiguous rows in the smallest
    signed dtype that holds twice their largest |k|, so that the sums and
    differences of two modes stay exact, and their int64 squares."""
    top = max(int(slots.max(initial=0)), -int(slots.min(initial=0)))
    slots = np.ascontiguousarray(slots, dtype=np.min_scalar_type(-2 * top - 1))
    return slots, np.square(slots, dtype=np.int64)


def _verdicts_1d(arr, G: float):
    """Per-row producer of the rule cascade: the verdicts of six-slot tuples
    (..., 6), float or integer; the below-threshold cut is the caller's.

    Integer tuples stay integers (``_integer_slots``), and |Omega| is formed
    from their int64 squares.  Returns (codes, ``Parts1D``).  Every rule
    compares products of magnitudes of equal degree, so integer modes give
    the verdicts of the physical tuples they scale to, exactly.
    """
    slots = np.moveaxis(arr, -1, 0)
    if arr.dtype.kind == "f":
        slots = np.ascontiguousarray(slots)
        sq = slots * slots
    else:
        slots, sq = _integer_slots(slots)
    aom = np.abs(sq[0] - sq[1] + sq[2] - sq[3] + sq[4] - sq[5])
    return _cascade_1d(_sort3_abs_desc(slots[0], slots[2], slots[4]),
                       _sort3_abs_desc(slots[1], slots[3], slots[5]), aom, G)


def _set_verdicts_1d(odd_sets, even_sets, rows, cols, G: float):
    """Per-set producer of the rule cascade: the verdicts of the tuples that
    put row set ``odd_sets[rows[t]]`` in the odd slots and column set
    ``even_sets[cols[t]]`` in the even ones, each set a row of three integer
    modes in slot order; the below-threshold cut is the caller's.

    Each set's triple is sorted and its sum of k^2 formed once
    (``_integer_slots``) and gathered for its tuples, with |Omega| = |odd
    sum - even sum|: the cascade reads what ``_verdicts_1d`` reads on the
    tuples' rows, so it returns the same codes and ``Parts1D``.
    """
    slots, sq = _integer_slots(np.concatenate([odd_sets, even_sets]).T)
    triples, sums = _sort3_abs_desc(*slots), sq[0] + sq[1] + sq[2]
    R = len(odd_sets)
    aom = np.abs(sums[:R][rows] - sums[R:][cols])
    return _cascade_1d(tuple(v[:R][rows] for v in triples),
                       tuple(v[R:][cols] for v in triples), aom, G)


def classify_batch_1d(k, N: float, thresholds: Thresholds = Thresholds()):
    """Vectorized six-slot classifier: the verdicts of physical tuples
    (..., 6), cut below N.  Integer tuples are classified as integers
    (``_verdicts_1d``), others as float64.  Returns (codes, ``Parts1D``)."""
    arr = np.asarray(k)
    if arr.dtype.kind not in "iu":
        arr = as_tuple_array(arr, 1)
    if arr.ndim == 0 or arr.shape[-1] != 6:
        raise ValueError("1d classifier expects six slots")
    codes, parts = _verdicts_1d(arr, thresholds.gap)
    codes[parts.mags[0] <= N] = BELOW
    return codes, parts


class Parts2D(NamedTuple):
    """The per-slot arrays the 2-D rules compare."""

    mags: np.ndarray  # |k_i|, (..., 4)
    odd_pair: tuple  # (dominant, lo) of slots 1, 3: dominates the other pair; smaller |k|
    even_pair: tuple  # (dominant, lo) of slots 2, 4


def _verdicts_2d(m, G: float):
    """Four-slot verdicts from the slot magnitudes |k_i| (..., 4); the
    below-threshold cut is the caller's.  Returns (codes, ``Parts2D``)."""
    codes = np.full(m.shape[:-1], RES_2D, dtype=np.int8)
    pairs = []
    for (a, b), other in (((0, 2), (1, 3)), ((1, 3), (0, 2))):
        lo = np.minimum(m[..., a], m[..., b])
        hi = np.maximum(m[..., a], m[..., b])
        rest = np.maximum(m[..., other[0]], m[..., other[1]])
        dominant = (lo >= G * rest) & (lo > 0) & (hi <= G * lo)
        pairs.append((dominant, lo))
        codes[dominant] = NR_2D
    return codes, Parts2D(m, *pairs)


def classify_batch_2d(k, N: float, thresholds: Thresholds = Thresholds()):
    """Vectorized four-slot classifier with 2-vector frequencies: the
    verdicts of physical tuples (..., 4, 2), cut below N.  Returns (codes,
    ``Parts2D``)."""
    arr = as_tuple_array(k, 2)
    if arr.shape[-2] != 4:
        raise ValueError("2d classifier expects four slots")
    sq = arr**2
    codes, parts = _verdicts_2d(np.sqrt(sq[..., 0] + sq[..., 1]), thresholds.gap)
    codes[np.max(parts.mags, axis=-1) <= N] = BELOW
    return codes, parts


def omega_lower_bound(codes, G: float, n1=0.0, n3=0.0, s12=0.0, lo_sq=0.0) -> np.ndarray:
    """The |Omega| lower bound that each non-resonant verdict claims, NaN
    for other codes.  1-D, from the merged magnitudes N1* >= N3* and the top
    cross-parity pair sum s12: NR_PAIR (1 - 3/G^2) N1*^2, NR_TRIPLE
    N1* N3*/G, NR_BILINEAR N1* |s12|/G, NR_SIGNS N1*^2/G.  2-D: NR_2D
    2(1 - 1/G^2) lo_sq, from the integer |k|^2 of the second largest slot
    (the square of a rounded |k| can land above an attained bound)."""
    codes = np.asarray(codes)
    return np.select([codes == NR_PAIR, codes == NR_TRIPLE, codes == NR_BILINEAR,
                      codes == NR_SIGNS, codes == NR_2D],
                     [(1 - 3 / G**2) * n1 ** 2, n1 * n3 / G, n1 * np.abs(s12) / G,
                      n1 ** 2 / G, 2 * (1 - 1 / G**2) * lo_sq], np.nan)


def classify(entries, N: float, thresholds: Thresholds = Thresholds(),
             d: int = 1) -> ResonanceClassification:
    """Classify one tuple and report the compared quantities as a witness."""
    arr = as_tuple_array(np.array(entries, dtype=float), d)
    n_slots = arr.shape[0]
    if (d, n_slots) not in ((1, 6), (2, 4)):
        raise ValueError(f"classification defined for 6 slots (1d) / 4 slots (2d), got {n_slots}")
    G = thresholds.gap
    if d == 1:
        codes, parts = classify_batch_1d(arr[None, :], N, thresholds)
        mags = [float(x[0]) for x in parts.mags]
        bound = omega_lower_bound(codes, G, n1=parts.mags[0], n3=parts.mags[2],
                                  s12=parts.s12)
    else:
        codes, parts = classify_batch_2d(arr[None, ...], N, thresholds)
        mags = [float(x) for x in np.sort(parts.mags[0])[::-1]]
        bound = omega_lower_bound(codes, G, lo_sq=np.sort(np.sum(arr**2, axis=-1))[-2])
    code = int(codes[0])
    witness = {"sorted_mags": mags, "N": float(N), "gap": G}
    if code == RES_I or code == NR_BILINEAR:  # 1-D only
        witness["pair_sum"] = float(abs(parts.s12[0]))
        witness["collision_scale"] = float(parts.L[0])
    if is_nonresonant(code):
        witness["omega_lower_bound"] = float(bound[0])
    return ResonanceClassification(code, code_label(code), witness)
