"""Reference computations that the tests check the program against: plain
loops over definitions, kept apart from the program's faster paths."""

from dataclasses import dataclass, field

import numpy as np

from nlslab.classify import (NR_BILINEAR, RES_I, Thresholds, classify_batch_1d,
                             classify_batch_2d, code_label, is_nonresonant, is_resonant,
                             omega_lower_bound)
from nlslab.dynamics import _galerkin
from nlslab.energies import SIGN
from nlslab.geometry import dealiasing_plan, grid_sizes, to_physical
from nlslab.multipliers import SymbolSpec, as_tuple_array, slot_sq, squared_mags


def arrangement_weights(lat, vecs, rows, to=None):
    """Per field set (row of each ``vecs[i]``), the sum over every slot
    permutation p in ``lat.perms`` of each set ``lat.sets[rows]`` (or its
    image ``to[lat.sets[rows]]``) of prod_i vecs[i] at the mode in place
    p(i), times 1 / (the permutations that leave the set unchanged): each
    distinct arrangement once."""
    sets = lat.sets[rows] if to is None else to[lat.sets[rows]]
    total = np.zeros((len(vecs[0]), len(sets)), dtype=np.complex128)
    stabiliser = np.zeros(len(sets))
    for p in lat.perms:
        term = np.ones_like(total)
        for v, j in zip(vecs, p):
            term *= v[:, sets[:, j]]
        total += term
        stabiliser += np.all(sets[:, list(p)] == sets, axis=1)
    return total / stabiliser


# -- one tuple's verdict with its witness -------------------------------------


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


def classify(entries, N: float, thresholds: Thresholds = Thresholds(),
             d: int = 1) -> ResonanceClassification:
    """Classify one tuple and report the compared quantities as a witness,
    read from the batch classifier's parts and ``omega_lower_bound``."""
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


# -- fields on the grid ---------------------------------------------------------


def grid_points(f, oversample: int = 1) -> tuple:
    """Per axis, the points of the grid that ``to_physical(f, oversample)``
    samples."""
    return tuple(np.arange(m) * (side / m)
                 for m, side in zip(grid_sizes(f, oversample), f.geometry.side_lengths))


def pointwise_product(fields, conjugate) -> np.ndarray:
    """Grid values of prod_i u_i (or conj u_i), on a grid that avoids aliasing."""
    oversample = (len(fields) + 2) // 2
    vals = None
    for u, c in zip(fields, conjugate):
        v = to_physical(u, oversample)
        v = np.conj(v) if c else v
        vals = v if vals is None else vals * v
    return vals


def lambda_physical(fields, slot_factors) -> complex:
    """Lambda_n of a symbol that factors as prod_i g_i(k_i): each field
    weighted coefficientwise by its factor ``slot_factors[i]``, the
    pointwise product (even slots conjugated) integrated on an alias-free
    grid as volume times the mean."""
    g = fields[0].geometry
    weighted = []
    for f, factor in zip(fields, slot_factors):
        grids = f.freq_grids()
        fk = factor(grids[0]) if g.dimension == 1 else factor(np.stack(grids, axis=-1))
        weighted.append(f.with_coeffs(fk * f.coeffs))
    vals = pointwise_product(weighted, [(j + 1) % 2 == 0 for j in range(len(fields))])
    return complex(np.mean(vals) * g.volume)


# -- the equation's right-hand side ----------------------------------------------


def galerkin_rhs(f, sign: str = "defocusing"):
    """du/dt = -i|k|^2 uhat -i kappa * (projected coefficients of |u|^(4/d) u),
    through the integrators' own kernel."""
    return f.with_coeffs(_galerkin(dealiasing_plan(f.geometry, f.cutoff), f.coeffs,
                                   SIGN[sign]))


# -- symbols ----------------------------------------------------------------------


def constant_symbol(value: complex, n: int) -> SymbolSpec:
    """The constant symbol ``value`` on 1-D n-tuples."""
    def ev(k):
        sq = squared_mags(k, 1)
        return np.full(sq.shape[:-1], value, dtype=complex)

    def lead(k):
        return np.full(np.shape(slot_sq(k, 1)), value, dtype=complex)

    def one(k):
        return np.ones(np.shape(slot_sq(k, 1)))

    return SymbolSpec(f"Const({value})", n, 1, ev, "product",
                      (lead,) + tuple(one for _ in range(n - 1)))
