"""Mass, energy, modified energies, multilinear functionals, and the residual.

Constants table
---------------
All prefactors and the focusing/defocusing sign live in this layer; the
symbol layer (``multipliers``) is bare.  With kappa = +1 (defocusing) or
-1 (focusing) and deg = 2 + 4/d:

    E(u)        = 1/2 ||grad u||_2^2 + kappa * (1/deg) ||u||_deg^deg
    E_I^1       = E(I u) = Lambda_2(sigma_2) + kappa * Lambda_deg(sigma_deg)
    sigma_2     = -1/2 m(k_1) k_1 . m(k_2) k_2      (= +1/2 m^2|k|^2 on Gamma_2)
    sigma_deg   = (1/deg) prod m(k_i)
    M_full      = (i/deg) * bareM_deg + sigma_deg * alpha_deg
                  (the Lambda_deg production rate of E_I^1; vanishes exactly
                   when every slot has m = 1, i.e. below threshold)
    d/dt E_I^1  = kappa * Lambda_deg(M_full) + Lambda_(deg+4)(M1)
    sigma~_deg  = -(correctable part of M_full) / alpha_deg
                  1d: sigma part on all of max|k_i| > N, ratio part on the
                      non-resonant verdicts:
                      sigma~_6 = -sigma_6 X_{Ups} + (1/6)(bareM_6/omega_6) X_NR
                  2d: whole multiplier on the non-resonant region:
                      sigma~_4 = ((1/4) bareM_4/omega_4 - sigma_4) X_NR
    E_I^2       = E_I^1 + kappa * Lambda_deg(sigma~_deg)
    d/dt E_I^2  = kappa * Lambda_deg(Mbar_deg) + Lambda_(deg+4)(Mbar_(deg+4))
    Mbar_deg    = M_full restricted to the resonant verdicts (= i * R, R real)
    Mbar_(deg+4)= i sum_j (-1)^j X_j(sigma_deg + sigma~_deg)

For the truncated flow every Lambda sum runs over tuples whose slots lie on
the mode lattice, and the substituted slot of an X_j term is itself a lattice
mode (the projected nonlinearity enforces this), so the displayed identities
are exact for the discrete system; the only residual left in

    r(t) = E_I^1(t) - [E_I^1(0) - kappa (Lambda(sigma~)(t) - Lambda(sigma~)(0))
           + int_0^t (kappa Lambda(Mbar_deg) + Lambda(Mbar_(deg+4))) ds]

is time-integration error, which must vanish at the integrator's order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .classify import (BELOW, Thresholds, _set_verdicts_1d, _verdicts_1d, _verdicts_2d,
                       is_nonresonant, is_resonant)
# ``mass`` is imported from here by ``dynamics``, the package and the bench's hooks
from .geometry import (SpectralField, TransformPlan, dealiased_map, dealiasing_plan,
                       grid_values, mass, modulus_squared)
from .smoothing import SmoothingSymbol, apply_I, m_value

SIGN = {"defocusing": 1.0, "focusing": -1.0}

DEFAULT_TUPLE_BUDGET = 2 ** 27

# block sizes of the Gamma_n walk: ``_Lattice.groups`` cuts every sigma-group
# into blocks of at most _TABLE_TUPLES on-lattice tuples, which bounds a
# block's slot indices and the classifier's temporaries; symbol values (and
# the census) are evaluated on runs of blocks holding at most that many
# together; a run's block products wait for their column weights in a
# buffer of at most _CONTRACT_BYTES (or one block's product).  The two fix
# a sum's summation order, hence the last bits of every Lambda value
_TABLE_TUPLES = 1 << 14
_CONTRACT_BYTES = 1 << 20


class ConsistencyError(RuntimeError):
    """Two independently computed values of the same quantity disagree."""


class BudgetError(ValueError):
    """The enumeration would exceed the configured tuple budget."""


def _kappa(sign: str) -> float:
    try:
        return SIGN[sign]
    except KeyError:
        raise ValueError(f"sign={sign!r} must be 'defocusing' or 'focusing'")


def energy(f: SpectralField, sign: str = "defocusing") -> float:
    """Kinetic part by Plancherel, potential by grid quadrature on the
    ``dealiasing_plan`` grid, which integrates |u|^(2+4/d) exactly."""
    kappa = _kappa(sign)
    g = f.geometry
    deg = g.nonlinearity_degree + 1  # |u|^(2+4/d)
    kinetic = 0.5 * g.measure_weight * float(np.sum(f.kabs() ** 2 * np.abs(f.coeffs) ** 2))
    mod2 = modulus_squared(grid_values(dealiasing_plan(g, f.cutoff), f.coeffs))
    potential = float(np.mean(mod2 ** (deg // 2))) * g.volume / deg
    return kinetic + kappa * potential


# -- Gamma_n lattice sums ------------------------------------------------------


def slot_vectors(fields) -> list[np.ndarray]:
    """Per-slot coefficient vectors v_j with v_j[m] = uhat_j at mode m for odd
    slots and conj(uhat_j(-m)) for even slots (1-indexed parity), flattened
    over the composite mode index."""
    return [np.conj(np.flip(f.coeffs)).reshape(-1) if (j + 1) % 2 == 0
            else np.ascontiguousarray(f.coeffs).reshape(-1)
            for j, f in enumerate(fields)]


class _Lattice:
    """Every on-lattice Gamma_n tuple of a field once (n even, h = n/2 slots
    per parity), as pairs of slot sets whose mode sums cancel.

    Each slot carries a composite mode index in [0, Q): C order over the
    axes, Q = prod(2 K_a + 1), so d = 1 is the one-axis case.  A tuple holds
    a set of h odd-slot modes in slots 1, 3, ... and a set of h even-slot
    modes in slots 2, 4, ...; the sets are sorted by mode sum sigma, and
    blocks pair the sets of sum sigma (rows) with those of sum -sigma
    (columns), at most ``max_tuples`` tuples a block (``groups``).  Here the
    sets are the ordered h-tuples, each its own one arrangement, so any
    symbol can be summed; ``_Orbits`` walks fewer sets with more
    arrangements.  Tables over slots 1..n-1 are stored as (rows, Q) and
    addressed by ``position``.  An over-budget lattice is refused before any
    set is built; ``tuples`` counts the tuples walked.
    """

    def __init__(self, field: SpectralField, n: int, budget: int = DEFAULT_TUPLE_BUDGET):
        if n % 2:
            raise ValueError(f"n={n} is odd: a Gamma_n walk pairs n/2 odd with n/2 even slots")
        g = field.geometry
        self.n, self.d = n, g.dimension
        self.raw_tuples = self.check_budget(field, n, budget)
        self.K = np.array(field.cutoff)
        shape = tuple(int(p) for p in 2 * self.K + 1)
        self.Q = int(np.prod(shape))
        self.rows = self.Q ** (n - 2)
        # integer and physical modes of every composite index, (Q, d), and
        # the physical |k| of each (the floats the classifiers compute)
        self.modes = np.stack(np.unravel_index(np.arange(self.Q), shape), axis=-1) - self.K
        self.freqs = self.modes / np.array(g.axis_scales)
        self.kabs = np.sqrt(np.sum(self.freqs ** 2, axis=-1))
        h = n // 2
        sets, self.perms = self._sets(h)
        reach = h * self.K
        # mode sum of each set as a C-order index of the box |sigma_a| <=
        # reach_a, in which -sigma has index (size - 1) - index(sigma)
        key = np.ravel_multi_index(tuple((self.modes[sets].sum(axis=1) + reach).T),
                                   tuple(2 * reach + 1))
        order = np.argsort(key, kind="stable")
        self.sets = sets[order]
        self.bounds = np.searchsorted(key[order], np.arange(np.prod(2 * reach + 1) + 1))
        count = np.diff(self.bounds)
        self.tuples = int(np.sum(count * count[::-1]))
        # a set's distinct arrangements are the permutations of its slots
        # divided by its stabiliser, the permutations that leave it unchanged
        self.share = 1.0 / sum(np.all(self.sets[:, p] == self.sets, axis=1)
                               for p in self.perms)

    @staticmethod
    def check_budget(field: SpectralField, n: int, budget: int) -> int:
        """The Q^(n-1) tuples of slots 1..n-1 that a tuple budget counts,
        from the cutoff alone; raises BudgetError past ``budget``."""
        raw = int(np.prod(2 * np.array(field.cutoff) + 1)) ** (n - 1)
        if raw > budget:
            raise BudgetError(f"tuple count {raw} exceeds budget {budget}")
        return raw

    def _sets(self, h: int):
        """Every ordered h-tuple of [0, Q), one per row in lexicographic
        order, and the slot permutations that arrange one: the identity."""
        return (np.stack(np.unravel_index(np.arange(self.Q ** h), (self.Q,) * h), axis=-1),
                [tuple(range(h))])

    def position(self, idx):
        """Flat table position row * Q + column of slot indices (T, n)."""
        return idx[:, :-1] @ self.Q ** np.arange(self.n - 2, -1, -1, dtype=np.int64)

    def physical(self, idx):
        """Physical tuples of slot indices: (..., n) in 1d, (..., n, d) otherwise."""
        tup = np.take(self.freqs, idx, axis=0)
        return tup[..., 0] if self.d == 1 else tup

    def groups(self, max_tuples: int, sums=None):
        """Yields (odd, even): slices of ``sets`` holding sets of sums sigma
        (rows) and -sigma (columns), for every sigma or only for the sum
        indices ``sums``, at most ``max_tuples`` tuples per block: each
        sigma-group of C columns is cut into blocks of floor(max_tuples / C)
        rows against all C, or of one row against slices of ``max_tuples``
        columns when C is larger."""
        size = len(self.bounds) - 1
        for g in range(size) if sums is None else sums:
            lo, hi = self.bounds[g], self.bounds[g + 1]
            first, end = self.bounds[size - 1 - g], self.bounds[size - g]
            if first == end:
                continue
            rows, cols = max(max_tuples // (end - first), 1), min(end - first, max_tuples)
            for start in range(lo, hi, rows):
                for at in range(first, end, cols):
                    yield slice(start, min(start + rows, hi)), slice(at, min(at + cols, end))

    def rows_follow(self, block) -> bool:
        """Whether ``groups`` follows ``block`` with later rows of its
        sigma-group against the same columns: ``block`` is a row block of a
        group cut into row blocks, and not its last."""
        odd, even = block
        size = len(self.bounds) - 1
        g = int(np.searchsorted(self.bounds, odd.start, side="right")) - 1
        return (odd.stop < self.bounds[g + 1]
                and even == slice(self.bounds[size - 1 - g], self.bounds[size - g]))

    def slots(self, block):
        """Composite slot indices (R, C, n) of one block from ``groups``."""
        odd, even = self.sets[block[0]], self.sets[block[1]]
        idx = np.empty((len(odd), len(even), self.n), dtype=np.int64)
        idx[:, :, 0::2] = odd[:, None, :]
        idx[:, :, 1::2] = even[None, :, :]
        return idx

    def batches(self, max_tuples: int, sums=None):
        """Runs of consecutive ``groups(max_tuples, sums)`` blocks holding at
        most ``max_tuples`` tuples together.

        Yields (blocks, idx): the run's (block, (rows, cols)) pairs and the
        composite slot indices (T, n) of their tuples, block after block and
        row-major within a block.  The sets of a block cancel in their mode
        sums, so every tuple is on the lattice and no tuple off it is ever
        visited.
        """
        run, count = [], 0
        for block in self.groups(max_tuples, sums):
            idx = self.slots(block)
            size = idx.shape[0] * idx.shape[1]
            if count + size > max_tuples:
                yield self._gather(run)
                run, count = [], 0
            run.append((block, idx))
            count += size
        if run:
            yield self._gather(run)

    def _gather(self, run):
        """A run's blocks and their slot indices, a view of a one-block run's."""
        flat = [idx.reshape(-1, self.n) for _, idx in run]
        return ([(block, idx.shape[:2]) for block, idx in run],
                flat[0] if len(flat) == 1 else np.concatenate(flat))

    def on_lattice(self, max_tuples: int):
        """The on-lattice tuples, each once, in runs of at most
        ``max_tuples`` tuples: (flat table positions, slot indices)."""
        for _, idx in self.batches(max_tuples):
            yield self.position(idx), idx

    def weight_kinds(self, vecs):
        """Runs of consecutive field sets that ``_arrangements`` weighs
        alike, as (sets, kind) for the slot vectors ``vecs``: here one run,
        every set by its arrangements (kind -1, ``_Orbits.weight_kinds``)."""
        return [(slice(0, len(vecs[0])), -1)]

    def _arrangements(self, vecs, kinds, rows, to=None) -> np.ndarray:
        """Per field set, the sum over the distinct arrangements of each set
        ``sets[rows]`` (or its image ``to[sets[rows]]`` under a mode map) of
        the product of ``vecs[i]`` at the mode in place i, each arrangement
        weighted by ``share``.  A bijection of the modes keeps each set's
        stabiliser, so an image set has its set's share.

        ``kinds`` (``weight_kinds``) says how each run of field sets is
        summed: kind -1 over ``perms``; the kinds of ``_Orbits``, whose
        ``perms`` are every slot permutation, from the slot vectors' structure:
        kind h (one vector v in every slot) as h! share prod_i v[x_i], and
        kind j < h (v in every slot but slot j, which holds w) as (h-1)!
        share sum_i w[x_i] prod_(k != i) v[x_k], h gathers and h - 1
        products or 2h gathers and 3h - 4 products against the loop's h! h
        gathers.  Both sums are symmetric in the set's order, as every
        arrangement sum is."""
        sets = self.sets[rows] if to is None else to[self.sets[rows]]
        h, share = sets.shape[1], self.share[rows]
        cols = list(np.ascontiguousarray(sets.T))
        total = np.empty((len(vecs[0]), len(sets)), dtype=np.complex128)
        width = max(at.stop - at.start for at, _ in kinds)
        buf = np.empty((3, width, len(sets)), dtype=np.complex128)
        for at, kind in kinds:
            out = total[at]
            term, factor, extra = buf[:, :len(out)]
            if kind == h:
                _product([vecs[0][at]] * h, cols, out, factor)
                out *= math.factorial(h) * share
            elif kind >= 0:
                w, v = vecs[kind][at], vecs[1 if kind == 0 else 0][at]
                # slot by slot: out sums, over the slots seen so far, w at
                # one of them times v at the others; term is v at all of them
                np.take(w, cols[0], axis=1, out=out, mode="clip")
                np.take(v, cols[0], axis=1, out=term, mode="clip")
                for j in range(1, h):
                    out *= np.take(v, cols[j], axis=1, out=factor, mode="clip")
                    np.take(w, cols[j], axis=1, out=extra, mode="clip")
                    extra *= term
                    out += extra
                    if j < h - 1:
                        term *= factor
                out *= math.factorial(h - 1) * share
            else:
                out[...] = 0.0
                run = [v[at] for v in vecs]
                for p in self.perms:
                    _product(run, [cols[j] for j in p], term, factor)
                    out += term
                out *= share
        return total


def _product(vecs, cols, out, factor) -> None:
    """Per field set (row of each ``vecs[i]``) and set, the product over i
    of ``vecs[i]`` at the modes ``cols[i]``, into ``out``; ``factor`` is
    scratch of its shape."""
    # the indices are in range; mode "clip" lets take write into out
    # directly, where "raise" gathers into a temporary first
    np.take(vecs[0], cols[0], axis=1, out=out, mode="clip")
    for v, c in zip(vecs[1:], cols[1:]):
        out *= np.take(v, c, axis=1, out=factor, mode="clip")


def _multisets(Q: int, h: int) -> np.ndarray:
    """Every sorted h-multiset of [0, Q), one per row, in lexicographic order."""
    sets = np.arange(Q)[:, None]
    for _ in range(h - 1):
        reps = Q - sets[:, -1]
        rows = np.repeat(np.arange(len(sets)), reps)
        first = np.repeat(np.cumsum(reps) - reps, reps)
        sets = np.column_stack([sets[rows], np.arange(len(rows)) - first + sets[rows, -1]])
    return sets


class _Orbits(_Lattice):
    """One representative per slot-parity orbit of the on-lattice Gamma_n
    tuples: the sets are the sorted h-multisets, and a multiset's
    arrangements are its distinct permutations.

    For a symbol symmetric within each slot parity, a sum over every tuple
    is the sum over representatives of the symbol times the row weight (the
    ``_arrangements`` of the odd slot vectors) times the column weight (of
    the even ones), exactly, for any field sets; ``tuples`` counts the
    representatives.  ``correction_sums`` evaluates only those of one
    sigma-block per class of the lattice's symmetry group (``_symmetries``).
    """

    def _sets(self, h: int):
        return _multisets(self.Q, h), list(itertools.permutations(range(h)))

    def weight_kinds(self, vecs):
        """The runs of ``_Lattice.weight_kinds`` from the structure of each
        field set's slot vectors, compared exactly: kind h where every slot
        holds one vector, j < h where every slot but slot j does, else -1.
        At h = 2 every set is summed over its two arrangements, which cost
        what the structured sums cost."""
        h, S = len(vecs), len(vecs[0])
        kind = np.full(S, -1)
        if h > 2:
            same = [[np.all(a == b, axis=1) for b in vecs] for a in vecs]
            for j in range(h):
                # every slot but j equals slot ref, and slot j does not
                ref = 1 if j == 0 else 0
                kind[np.logical_and.reduce([same[ref][i] for i in range(h) if i != j]
                                           + [~same[ref][j]])] = j
            kind[np.logical_and.reduce(same[0])] = h
        ends = [*(np.flatnonzero(np.diff(kind)) + 1).tolist(), S]
        return [(slice(a, b), int(kind[a])) for a, b in zip([0] + ends[:-1], ends)]


def _symmetries(lat: _Lattice):
    """The lattice's symmetry group and its classes of mode sums.

    The group is every signed axis permutation k -> A k that maps the box
    of modes onto itself and keeps each mode's physical |k| exactly: k ->
    +-k in 1-D, and the eight of the square on an equal-cutoff unit square.
    Applied slot by slot, it maps the tuples of sum sigma (the odd slots'
    mode sum) one to one onto those of sum A sigma and keeps every slot's
    |k|^2 (and in 1-D the signed modes up to one sign), so a tuple and its
    image share their verdicts and their values of every symbol that reads
    only these (the correction symbols, the census's statistics).

    Returns (maps, walked, size): per element, the identity first, the
    image of each composite mode index (Q,); the ascending sum indices that
    are the smallest of their class; and per sum index its class's size if
    walked, else 0.
    """
    d, reach = lat.d, lat.n // 2 * lat.K
    box = tuple(int(b) for b in 2 * reach + 1)
    sums = np.stack(np.unravel_index(np.arange(int(np.prod(box))), box), axis=-1) - reach
    maps, images = [], []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            A = np.zeros((d, d), dtype=np.int64)
            A[np.arange(d), perm] = signs
            img = lat.modes @ A.T
            if np.any(np.abs(img) > lat.K):
                continue
            to = np.ravel_multi_index(tuple((img + lat.K).T), tuple(2 * lat.K + 1))
            if np.array_equal(lat.kabs[to], lat.kabs):
                maps.append(to)
                images.append(np.ravel_multi_index(tuple((sums @ A.T + reach).T), box))
    images = np.stack(images)
    walked = images.min(axis=0) == np.arange(images.shape[1])
    distinct = np.count_nonzero(np.diff(np.sort(images, axis=0), axis=0), axis=0) + 1
    return maps, np.flatnonzero(walked), np.where(walked, distinct, 0)


def _new_images(lat: _Lattice, maps) -> np.ndarray:
    """Per element of ``maps`` (the identity first), a flag per set of
    ``lat.sets``: whether the element maps the set's mode sum onto a sum
    that no earlier element maps it onto.  Every sum of the box holds a set
    (each axis of a sum splits into h modes of the box), so the first set of
    each sum stands for it."""
    first = lat.sets[lat.bounds[:-1]]
    images = [lat.modes[to[first]].sum(axis=1) for to in maps]
    new = np.ones((len(maps), len(first)), dtype=bool)
    for e, img in enumerate(images):
        for prior in images[:e]:
            new[e] &= np.any(img != prior, axis=1)
    return np.repeat(new, np.diff(lat.bounds), axis=1)


def _indices(slices) -> np.ndarray:
    """The indices of consecutive slices, concatenated."""
    return np.concatenate([np.arange(b.start, b.stop) for b in slices])


def _walk(lat: _Lattice, evaluate, passes, group) -> list:
    """Gamma_n sums of several symbols against several families of field
    sets, in one walk over the blocks of ``lat`` (``_Lattice`` for every
    tuple, ``_Orbits`` for one per slot-parity orbit).

    ``group`` is (maps, walked): mode maps, the identity first, under which
    every symbol is invariant, and the sum indices whose blocks are walked,
    one per class of sums under the maps (None for every sum).
    ``gamma_sums`` passes the identity alone and None, ``correction_sums``
    the lattice's ``_symmetries``.  ``evaluate(blocks, idx)`` returns the
    symbol values on a run of walked tuples, as ``lat.batches`` yields it,
    one flat array per symbol; each run is contracted and dropped before
    the next is evaluated.  ``passes`` lists (vecs, symbols): per slot the
    (sets, Q) arrays of ``slot_vectors`` and the indices of the symbols
    summed against them.  Returns per pass an array (len(symbols), sets) of
    plain sums.

    A map carries the tuples of a block one to one onto those of its image
    block, with the same values, and an arrangement sum does not depend on
    the order of its set.  So per run and element, the row weights A (sets
    x rows) of the odd slot vectors and the column weights B (sets x cols)
    of the even ones, over the element's images of the run's blocks side by
    side and for every pass's sets at once (``lat._arrangements``, by the
    sets' ``lat.weight_kinds``), and per
    pass ``_contract`` sums the run's values against its sets' rows of
    them, for each block whose image no earlier element gave
    (``_new_images``): every block of a class once.  A run's values are
    gathered for an element only when it skips a block of the run (one with
    a nontrivial stabiliser).  Row weights are dropped after each run.  An
    element's one-block runs that pair the same columns, as the row blocks
    of a cut sigma-group do, share one B: their block products
    (``_block_product``) are added up and folded against B (``_fold``) once,
    at the group's last row block (``lat.rows_follow``).  Every other
    one-block run is folded as it ends, so a walk that cuts no group adds
    its terms in the order of ``_contract`` run by run.
    """
    maps, walked = group
    new = _new_images(lat, maps)
    sums = [np.zeros((len(symbols), len(vecs[0])), dtype=np.complex128)
            for vecs, symbols in passes]
    # every pass's sets stacked, one arrangement sum for all of them, each
    # side's sets told apart by kind once per walk
    stacked = [np.concatenate(v) for v in zip(*(vecs for vecs, _ in passes))]
    odd, even = stacked[0::2], stacked[1::2]
    odd_kinds, even_kinds = lat.weight_kinds(odd), lat.weight_kinds(even)
    ends = np.cumsum([len(vecs[0]) for vecs, _ in passes])
    sets = [slice(end - len(vecs[0]), end) for (vecs, _), end in zip(passes, ends)]
    # per element: the columns of its last one-block run, their B, and per
    # pass the block products on them that wait for B
    held = [None] * len(maps)

    def fold(e):
        if held[e] is not None:
            _, B, products = held[e]
            for acc, at, G in zip(sums, sets, products):
                acc += _fold(G, B[at])
            held[e] = None

    for blocks, idx in lat.batches(_TABLE_TUPLES, walked):
        values = evaluate(blocks, idx)
        starts = np.cumsum([0] + [R * C for _, (R, C) in blocks])
        for e, (to, fresh) in enumerate(zip(maps, new)):
            kept = [i for i, ((odd, _), _) in enumerate(blocks) if fresh[odd.start]]
            if not kept:
                continue
            cols = slice(None) if len(kept) == len(blocks) else _indices(
                [slice(starts[i], starts[i + 1]) for i in kept])
            columns = [blocks[i][0][1] for i in kept]
            if held[e] is not None and held[e][0] == columns:
                B = held[e][1]
            else:
                fold(e)
                B = lat._arrangements(even, even_kinds, _indices(columns), to)
            A = lat._arrangements(odd, odd_kinds, _indices([blocks[i][0][0] for i in kept]), to)
            shapes = [blocks[i][1] for i in kept]
            V = lambda symbols: np.stack([values[k][cols] for k in symbols])
            if len(kept) > 1:
                for (_, symbols), acc, at in zip(passes, sums, sets):
                    _contract(acc, A[at], B[at], V(symbols), shapes)
                continue
            if held[e] is None:
                held[e] = (columns, B, [None] * len(passes))
            products = held[e][2]
            # pass by pass, so that one pass's new product is alive at a time
            for p, ((_, symbols), at) in enumerate(zip(passes, sets)):
                product = _block_product(A[at], V(symbols), *shapes[0])
                if products[p] is None:
                    products[p] = product
                else:
                    products[p] += product
            if not lat.rows_follow(blocks[kept[0]][0]):
                fold(e)
        # release this run before batches builds the next
        idx = values = None
    for e in range(len(maps)):
        fold(e)
    return sums


def _lhs(A, V):
    """The left factor of a block product: [Re A; Im A] for real values
    ``V`` (one real matrix product), A for complex ones."""
    return A if np.iscomplexobj(V) else np.concatenate([A.real, A.imag])


def _block_product(A, V, R, C):
    """``_lhs`` @ V of one block: row weights A (sets, R) and values V
    (symbols, R * C), row-major; (symbols, rows of the left factor, C)."""
    return np.matmul(_lhs(A, V), V.reshape(len(V), R, C))


def _fold(G, B):
    """Per symbol and set, the sum over the columns c of block products G
    (``_block_product``) times the column weights B[s, c], pairwise as
    ``np.sum`` adds: of [Re G; Im G] B for real values."""
    if np.iscomplexobj(G):
        return np.sum(G * B, axis=2)
    S = len(B)
    return np.sum(G[:, :S] * B, axis=2) + 1j * np.sum(G[:, S:] * B, axis=2)


def _contract(acc, A, B, V, shapes) -> None:
    """Add to ``acc`` (symbols, sets) the sums over a run's blocks of
    A[s, r] V[k, r, c] B[s, c]: A and B hold the run's row and column
    weights, ``V`` (symbols, run tuples) its values, each block's (R, C)
    of them block after block and row-major within a block.

    Each block costs one matrix product for all symbols (``_lhs`` @ V),
    written into its columns of a buffer.  The buffer is folded against its
    columns of B (``_fold``) once it is full and at the end of the run; it
    holds at most ``_CONTRACT_BYTES`` or one block's product.
    """
    lhs = _lhs(A, V)
    k = len(V)
    column = k * len(lhs) * lhs.itemsize  # buffer bytes per column
    width = min(B.shape[1], max(max(C for _, C in shapes), _CONTRACT_BYTES // max(column, 1)))
    buf = np.empty((k, len(lhs), width), dtype=lhs.dtype)
    r = t = c = lo = 0  # offsets of the block's rows, tuples, columns; first buffered column
    for R, C in shapes:
        if c + C - lo > width:
            acc += _fold(buf[:, :, :c - lo], B[:, lo:c])
            lo = c
        np.matmul(lhs[:, r:r + R], V[:, t:t + R * C].reshape(k, R, C),
                  out=buf[:, :, c - lo:c - lo + C])
        r, t, c = r + R, t + R * C, c + C
    acc += _fold(buf[:, :, :c - lo], B[:, lo:c])


def _slot_stack(field_sets) -> list[np.ndarray]:
    """Per slot, the (sets, Q) stack of the sets' ``slot_vectors``."""
    return [np.stack(v) for v in zip(*map(slot_vectors, field_sets))]


def gamma_sums(symbol, field_sets, budget: int = DEFAULT_TUPLE_BUDGET) -> np.ndarray:
    """Constrained Gamma_n sums of symbol * slot values, one per field set.

    ``field_sets`` holds n-field sequences on one mode lattice.  ``symbol``
    is a callable on physical tuples ((..., n) in 1d, (..., n, d) otherwise)
    or a table of shape (Q,)*(n-1) over slots 1..n-1 (slot n is fixed by the
    constraint; entries at tuples whose slot n is off the lattice are
    ignored).  Returns the plain sums; the caller applies the measure weight
    w^(n-1).  This is the one-symbol case of ``_walk``, on the trivial group:
    the symbol is arbitrary, so every sum's block is walked.
    """
    field_sets = [list(fs) for fs in field_sets]
    lat = _Lattice(field_sets[0][0], len(field_sets[0]), budget)
    if callable(symbol):
        evaluate = lambda blocks, idx: [symbol(lat.physical(idx))]
    else:
        flat = np.asarray(symbol).reshape(lat.rows * lat.Q)
        evaluate = lambda blocks, idx: [flat[lat.position(idx)]]
    return _walk(lat, evaluate, [(_slot_stack(field_sets), (0,))],
                 ([np.arange(lat.Q)], None))[0][0]


def gamma_sum_1d(fields, symbol_values) -> complex:
    """Gamma_n sum of one field set on the 1d mode lattice (``gamma_sums``)."""
    return complex(gamma_sums(symbol_values, [fields])[0])


def gamma_sum_2d(fields, symbol_values) -> complex:
    """Gamma_n sum of one field set on the 2d mode lattice (``gamma_sums``)."""
    return complex(gamma_sums(symbol_values, [fields])[0])


def lambda_eval(symbol_values, fields) -> complex:
    """Multilinear functional Lambda_n over the truncated lattice: the exact
    constrained sum with measure weight w^(n-1)."""
    g = fields[0].geometry
    s = gamma_sum_1d(fields, symbol_values) if g.dimension == 1 \
        else gamma_sum_2d(fields, symbol_values)
    return g.measure_weight ** (len(fields) - 1) * s


# -- symbol tables on the lattice ---------------------------------------------


CORRECTION_SYMBOLS = ("sigma_tilde", "mbar", "combined")


@dataclass
class CorrectionTables:
    """Symbol tables over Gamma_deg on a fixed lattice, the reference
    scatter of what ``correction_sums`` streams.

    Tables have shape (points,)*(deg-1) over slots 1..deg-1; entries at
    tuples whose determined last slot falls off the lattice are zero (they
    are masked out of every sum anyway).
    """

    d: int
    deg: int
    N: float
    s: float
    thresholds: Thresholds
    sigma_tilde: np.ndarray
    mbar_imag: np.ndarray  # Mbar_deg = i * mbar_imag (real table)
    combined: np.ndarray   # sigma_deg + sigma_tilde (real table)


def _lattice_verdicts(lat: _Lattice, idx, G: float, blocks=None):
    """Verdict codes of on-lattice tuples (composite slot indices (T, n))
    from per-mode lookups, uncut; each tuple's largest physical |k|, where
    the below-threshold cut at N sets code BELOW if it is at most N; and the
    rules' parts (``Parts1D`` of the integer modes, ``Parts2D``).

    The 1-D rules run on the integer modes, where they are exact and hence
    the same for every slot order within a parity (on the physical floats
    n/lambda an exact tie can read differently in two slot orders); the
    2-D rules run on the physical |k| of each slot.  With ``blocks``, the
    run's blocks as ``lat.batches`` yields them with ``idx``, the 1-D rules
    read each row and column set once (``classify._set_verdicts_1d``);
    without, they read the slots of each tuple (``classify._verdicts_1d``),
    which need not form blocks.  A 1-D tuple's largest |k| is that of the
    mode N1*, |k| being |n|/lambda.
    """
    if lat.d == 1:
        if blocks is None:
            codes, parts = _verdicts_1d(lat.modes[idx, 0], G)
        else:
            odd, even, rows, cols = _run_sets(blocks)
            codes, parts = _set_verdicts_1d(lat.modes[lat.sets[odd], 0],
                                            lat.modes[lat.sets[even], 0], rows, cols, G)
        return codes, np.take(lat.kabs[lat.K[0]:], parts.mags[0]), parts
    codes, parts = _verdicts_2d(lat.kabs[idx], G)
    # the largest |k| of each tuple, slot by slot: numpy's max over the
    # short slot axis is several times slower
    top = np.maximum(parts.mags[:, 0], parts.mags[:, 1])
    for j in range(2, lat.n):
        np.maximum(top, parts.mags[:, j], out=top)
    return codes, top, parts


def _run_sets(blocks):
    """The row and column sets of a run's ``blocks`` (indices into
    ``sets``, block after block) and, per tuple of the run, block after
    block and row-major within a block, the place of its row set and of its
    column set among them."""
    R, C = np.array([shape for _, shape in blocks]).T
    width = np.repeat(C, R)  # per row set: its block's columns
    rows = np.repeat(np.arange(len(width)), width)
    # per row set: its first tuple, less its block's first column
    shift = np.cumsum(width) - width - np.repeat(np.cumsum(C) - C, R)
    cols = np.arange(len(rows)) - np.repeat(shift, width)
    return (_indices([odd for (odd, _), _ in blocks]),
            _indices([even for (_, even), _ in blocks]), rows, cols)


def _correction_values(idx, codes, d, deg, slots):
    """sigma~, R (with Mbar = iR), and sigma+sigma~ on a block of on-lattice
    tuples.

    ``idx`` holds the composite slot indices of the tuples (T, n), ``codes``
    their verdicts; ``slots`` are per-mode lookups of |k|^2, m^2|k|^2 and m,
    so every symbol value is a gather per slot, summed (or multiplied) in
    slot order.
    """
    sq, msq_sq, m = slots["sq"], slots["msq_sq"], slots["m"]
    first = idx[:, 0]
    om, bare, sig = sq[first], msq_sq[first], m[first]
    for j in range(1, deg):
        col = idx[:, j]
        if j % 2:
            om = om - sq[col]
            bare = bare - msq_sq[col]
        else:
            om = om + sq[col]
            bare = bare + msq_sq[col]
        sig = sig * m[col]
    sig = sig / deg
    nr = is_nonresonant(codes)
    res = is_resonant(codes)
    if np.any(nr & (om == 0.0)):
        raise ConsistencyError(
            "non-resonant verdict with vanishing resonance function; "
            "classifier thresholds are unsound on this lattice"
        )
    ratio = np.zeros_like(om)
    np.divide(bare, om, out=ratio, where=nr)
    if d == 1:
        sigma_tilde = np.where(codes != 0, -sig, 0.0) + np.where(nr, ratio / deg, 0.0)
        r_imag = np.where(res, bare / deg, 0.0)
    else:
        sigma_tilde = np.where(nr, ratio / deg - sig, 0.0)
        # M4_full = i*(bare/4) + sigma*(-i*omega) = i*(bare/4 - sigma*omega)
        r_imag = np.where(res, bare / deg - sig * om, 0.0)
    combined = sig + sigma_tilde
    return sigma_tilde, r_imag, combined


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    import os

    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _correction_evaluator(lat: _Lattice, Ns, s: float, thresholds: Thresholds):
    """Evaluator for ``_walk`` of sigma~, R and sigma+sigma~ on the lattice
    ``lat`` of Gamma_deg at every N of ``Ns``, N-major: the three at Ns[0],
    then at Ns[1], ...  Each run is classified once, from its blocks, or
    tuple by tuple where they are None (``_lattice_verdicts``), and cut
    below each N."""
    sq = np.sum(lat.freqs ** 2, axis=-1)
    ms = [m_value(np.sqrt(sq), SmoothingSymbol(N, 1.0 - s)) for N in Ns]
    slots = [{"sq": sq, "m": m, "msq_sq": m**2 * sq} for m in ms]

    def evaluate(blocks, idx):
        codes, top, _ = _lattice_verdicts(lat, idx, thresholds.gap, blocks)
        return [v for N, per_mode in zip(Ns, slots) for v in _correction_values(
            idx, np.where(top <= N, BELOW, codes), lat.d, lat.n, per_mode)]
    return evaluate


def correction_tables(template: SpectralField, N: float, s: float,
                      thresholds: Thresholds = Thresholds()) -> CorrectionTables:
    """Build the sigma~/Mbar/combined tables for the lattice of ``template``.

    A reference for tests: the evaluator that ``correction_sums`` streams is
    scattered onto the on-lattice entries; the others stay zero.  Raises
    ValueError, before allocating, when the three float64 tables would take
    more than half of physical memory.
    """
    g = template.geometry
    deg = g.nonlinearity_degree + 1
    raw = _Lattice.check_budget(template, deg, DEFAULT_TUPLE_BUDGET)
    nbytes = len(CORRECTION_SYMBOLS) * raw * np.dtype(np.float64).itemsize
    if nbytes > _physical_memory() // 2:
        raise ValueError(f"tables of {nbytes} bytes exceed half of physical memory "
                         f"({_physical_memory()} bytes)")
    lat = _Lattice(template, deg)
    evaluate = _correction_evaluator(lat, [N], s, thresholds)
    tables = [np.zeros(lat.rows * lat.Q) for _ in CORRECTION_SYMBOLS]
    for pos, idx in lat.on_lattice(_TABLE_TUPLES):
        # no blocks: the 1-D rules read each tuple's slots, a check on the
        # walk's per-set reading
        for table, vals in zip(tables, evaluate(None, idx)):
            table[pos] = vals
    st, mb, cm = (t.reshape((lat.Q,) * (deg - 1)) for t in tables)
    return CorrectionTables(g.dimension, deg, N, s, thresholds, st, mb, cm)


def correction_sums(template: SpectralField, Ns, s: float, passes,
                    thresholds: Thresholds = Thresholds(),
                    budget: int = DEFAULT_TUPLE_BUDGET):
    """Gamma_deg sums of sigma~, R (Mbar = iR) and sigma+sigma~ at every N
    of ``Ns`` in one walk over the lattice of ``template``, with no stored
    table.

    ``passes`` lists (field_sets, names), the names drawn from
    ``CORRECTION_SYMBOLS``.  The three symbols are symmetric within each
    slot parity and invariant under the lattice's symmetry group, so the
    walk visits one representative per orbit (``_Orbits``) in one
    sigma-block per class of the group (``_symmetries``): each run of
    representatives is classified once for every N, evaluated by
    ``_correction_values`` at each N, contracted against every pass's
    weights over each distinct image of its blocks and dropped.  This is exact for any field sets.  Returns (sums, walked,
    raw): per pass an array (len(Ns), len(names), sets) of plain sums, to
    which the caller applies the measure weight w^(deg-1); the count of
    representatives classified, those of the walked blocks; and the raw
    Q^(deg-1) tuples that the budget checks, as for every walk.
    """
    lat = _Orbits(template, template.geometry.nonlinearity_degree + 1, budget)
    k = len(CORRECTION_SYMBOLS)
    maps, walked, _ = _symmetries(lat)
    sums = _walk(lat, _correction_evaluator(lat, Ns, s, thresholds),
                 [(_slot_stack([list(fs) for fs in sets]),
                   tuple(k * i + CORRECTION_SYMBOLS.index(nm)
                         for i in range(len(Ns)) for nm in names))
                  for sets, names in passes], (maps, walked))
    count = np.diff(lat.bounds)
    return ([acc.reshape(len(Ns), -1, acc.shape[1]) for acc in sums],
            int(np.sum(count[walked] * count[::-1][walked])), lat.raw_tuples)


# -- modified energies ---------------------------------------------------------


def e_i1(f: SpectralField, N: float, s: float, sign: str = "defocusing") -> float:
    """E(I u): the energy of I u (``apply_I``)."""
    return energy(apply_I(f, SmoothingSymbol(N, 1.0 - s)), sign)


# -- the d/dt Lambda machinery and the end-to-end residual ---------------------


def nonlinear_coefficients(plan: TransformPlan, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of |u|^(4/d) u for the coefficient array ``coeffs`` of
    u, through the dealiased kernel on ``plan`` (a ``dealiasing_plan``)."""
    return dealiased_map(plan, coeffs,
                         lambda vals, potential: np.multiply(vals, potential, out=vals))


def nonlinear_coefficient_field(f: SpectralField) -> SpectralField:
    """Coefficients of |u|^(4/d) u on the lattice, dealiased (exact)."""
    return f.with_coeffs(nonlinear_coefficients(dealiasing_plan(f.geometry, f.cutoff),
                                                f.coeffs))


def lambda_with_substitution(table, fields, j: int, nl_field: SpectralField) -> complex:
    """Lambda_deg with slot j's field replaced by the nonlinear coefficients.

    This evaluates the Lambda_(deg+4) term produced by substituting the
    equation into slot j, with the collapsed five-slot group automatically
    restricted to the lattice (the group sum is a lattice mode).
    """
    fields = list(fields)
    fields[j - 1] = nl_field
    g = fields[0].geometry
    w = g.measure_weight
    s = gamma_sum_1d(fields, table) if g.dimension == 1 else gamma_sum_2d(fields, table)
    return w ** (len(fields) - 1) * s


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral at the sample points; Simpson on even prefixes,
    one trapezoid correction on odd ones."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for i in range(1, len(y)):
        if i % 2 == 0:
            out[i] = out[i - 2] + dx / 3.0 * (y[i - 2] + 4 * y[i - 1] + y[i])
        else:
            out[i] = out[i - 1] + dx / 2.0 * (y[i - 1] + y[i])
    return out


def energy_identity_residual(samples, times, Ns, s: float,
                             sign: str = "defocusing",
                             thresholds: Thresholds = Thresholds(),
                             budget: int = DEFAULT_TUPLE_BUDGET) -> dict:
    """Residual series of the modified-energy identity along a trajectory,
    at every N of ``Ns``.

    ``samples`` are uniformly spaced fields, ``times`` their times.  Returns
    the times ``t`` and, with a leading axis over ``Ns``, the per-sample
    pieces, the residual r(t) and ``imag_leak``, the largest |Im| of
    Lambda(Mbar_deg) and Lambda(Mbar_(deg+4)) (both are real in exact
    arithmetic); exactness of the discrete identity makes r vanish at the
    integrator/quadrature order under dt refinement.  Every Lambda term at
    every N comes from one orbit walk (``correction_sums``);
    ``walk_tuples`` counts the representatives it classifies, one
    sigma-block per symmetry class, ``walk_s`` its wall seconds (the orbit
    lattice's build included), and ``budget_tuples`` the Q^(deg-1) tuples
    that the budget checks.
    """
    times = np.asarray(times, dtype=float)
    if len(samples) < 3 or len(samples) != len(times):
        raise ValueError("need at least three aligned samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("samples must be uniform in time")
    kappa = _kappa(sign)
    f0 = samples[0]
    deg = f0.geometry.nonlinearity_degree + 1
    w = f0.geometry.measure_weight ** (deg - 1)

    e1 = np.array([[e_i1(f, N, s, sign) for f in samples] for N in Ns])
    plain = [[f] * deg for f in samples]
    # Lambda_(deg+4)(Mbar_(deg+4)) = i kappa sum_j (-1)^j Lambda(nl in slot j)
    # of sigma + sigma~, the equation substituted into slot j (the collapsed
    # group is a lattice mode).  sigma + sigma~ is symmetric within each slot
    # parity, so every odd j gives the same sum and so does every even j:
    # the sum over j is (deg/2) [Lambda(nl in slot 2) - Lambda(nl in slot 1)].
    # Every sample's nl in slot 1, then every sample's nl in slot 2: each
    # side's sets of one kind are consecutive, one run of the walk's weights
    nls = [nonlinear_coefficient_field(f) for f in samples]
    substituted = ([[nl] + [f] * (deg - 1) for f, nl in zip(samples, nls)]
                   + [[f, nl] + [f] * (deg - 2) for f, nl in zip(samples, nls)])
    start = time.perf_counter()
    (sums, cm), walked, raw = correction_sums(f0, Ns, s, [(plain, ("sigma_tilde", "mbar")),
                                                          (substituted, ("combined",))],
                                              thresholds, budget)
    walk_s = time.perf_counter() - start
    corr = kappa * np.real(w * sums[:, 0])
    lam_mbar = 1j * w * sums[:, 1]
    sub = w * cm.reshape(len(Ns), 2, len(samples))
    lam_big = 1j * kappa * (deg // 2) * (sub[:, 1] - sub[:, 0])
    mbar = kappa * np.real(lam_mbar)
    mbar_big = np.real(lam_big)
    integral = np.array([cumulative_simpson(y, float(dts[0])) for y in mbar + mbar_big])
    predicted = e1[:, :1] - (corr - corr[:, :1]) + integral
    residual = e1 - predicted
    return {"t": times, "e_i1": e1, "correction": corr, "e_i2": e1 + corr,
            "lambda_mbar": mbar, "lambda_mbar_big": mbar_big, "residual": residual,
            "imag_leak": np.maximum(np.max(np.abs(np.imag(lam_mbar)), axis=1),
                                    np.max(np.abs(np.imag(lam_big)), axis=1)),
            "walk_tuples": walked, "budget_tuples": raw, "walk_s": walk_s}
