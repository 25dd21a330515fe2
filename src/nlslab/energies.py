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

from dataclasses import dataclass

import numpy as np

from .classify import Thresholds, classify_batch_1d, classify_batch_2d, is_nonresonant, is_resonant
from .geometry import SpectralField, from_physical, integrate_grid, mass, to_physical
from .multipliers import sigma_product
from .smoothing import SmoothingSymbol, apply_I, m_value

SIGN = {"defocusing": 1.0, "focusing": -1.0}

DEFAULT_TUPLE_BUDGET = 2 ** 27

# block sizes of the Gamma_n enumerations: a lattice sum cuts each
# equal-sigma row group into blocks of at most _GROUP_ROWS rows, which fixes
# its summation order (hence the last bits of every Lambda value) and bounds
# a block's working set; a table build (and the 2-D census) classifies about
# _TABLE_TUPLES on-lattice tuples at a time, which bounds its temporaries
_GROUP_ROWS = 1 << 12
_TABLE_TUPLES = 1 << 14


class ConsistencyError(RuntimeError):
    """Two independently computed values of the same quantity disagree."""


def _kappa(sign: str) -> float:
    try:
        return SIGN[sign]
    except KeyError:
        raise ValueError(f"sign={sign!r} must be 'defocusing' or 'focusing'")


def energy(f: SpectralField, sign: str = "defocusing") -> float:
    """Kinetic part by Plancherel, potential by dealiased grid quadrature."""
    kappa = _kappa(sign)
    g = f.geometry
    deg = g.nonlinearity_degree + 1  # |u|^(2+4/d)
    kinetic = 0.5 * g.measure_weight * float(np.sum(f.kabs() ** 2 * np.abs(f.coeffs) ** 2))
    oversample = (deg + 2) // 2
    vals = to_physical(f, oversample)
    mod2 = vals.real ** 2 + vals.imag ** 2
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
    """Gamma_n tuples on the mode lattice of a field, addressed as (row, column).

    Each slot carries a composite mode index in [0, Q): C order over the
    axes, Q = prod(2 K_a + 1), so d = 1 is the one-axis case.  A row is the
    C-order index of slots 1..n-2, a column is slot n-1, and slot n is fixed
    by the constraint to -(k_1 + ... + k_(n-1)); it lies on the lattice only
    when every axis of it lies in [-K_a, K_a].  Tables over slots 1..n-1
    are stored as (rows, Q).
    """

    def __init__(self, field: SpectralField, n: int):
        g = field.geometry
        self.n, self.d = n, g.dimension
        self.K = np.array(field.cutoff)
        self.shape = tuple(int(p) for p in 2 * self.K + 1)
        self.Q = int(np.prod(self.shape))
        self.rows = self.Q ** (n - 2)
        # integer and physical modes of every composite index, (Q, d)
        self.modes = np.stack(np.unravel_index(np.arange(self.Q), self.shape), axis=-1) - self.K
        self.freqs = self.modes / np.array(g.axis_scales)
        self.strides = np.cumprod((1,) + self.shape[:0:-1])[::-1]

    def index(self, m):
        """Composite index of integer modes (..., d), clipped onto the
        lattice, and whether each mode lies on it."""
        valid = np.all(np.abs(m) <= self.K, axis=-1)
        return np.clip(m + self.K, 0, 2 * self.K) @ self.strides, valid

    def groups(self, max_rows: int):
        """Blocks of at most ``max_rows`` rows that share the mode sum sigma
        of slots 1..n-2, hence slot n = -(sigma + k_(n-1)) in every column.

        Yields (rows, outer, cols, last): the row numbers, the composite
        indices of their slots 1..n-2, the columns with slot n on the
        lattice and slot n's index per column.  A sum with |sigma_a| > 2 K_a
        on some axis leaves no column on the lattice and is skipped.
        """
        n_out = self.n - 2
        if n_out == 0:
            yield (np.zeros(1, dtype=np.int64), [], np.arange(self.Q),
                   self.index(-self.modes)[0])
            return
        # rows = prefix (slots 1..n-3) x tail (slot n-2, fixed by sigma)
        prefix = list(np.unravel_index(np.arange(self.Q ** (n_out - 1)),
                                       (self.Q,) * (n_out - 1))) if n_out > 1 else []
        psum = sum((self.modes[p] for p in prefix), np.zeros((1, self.d), dtype=np.int64))
        reach = min(n_out, 2) * self.K
        for offset in np.ndindex(*(2 * reach + 1)):
            sigma = np.array(offset) - reach
            last, ok = self.index(-(sigma + self.modes))
            cols = np.flatnonzero(ok)
            tail, ok = self.index(sigma - psum)
            keep = np.flatnonzero(ok)
            for start in range(0, len(keep), max_rows):
                sel = keep[start:start + max_rows]
                yield (sel * self.Q + tail[sel], [p[sel] for p in prefix] + [tail[sel]],
                       cols, last[cols])

    def slots(self, outer, cols, last):
        """Composite slot indices (R, C, n) of one block from ``groups``."""
        idx = np.empty((len(outer[0]) if outer else 1, len(cols), self.n), dtype=np.int64)
        for j, o in enumerate(outer):
            idx[:, :, j] = o[:, None]
        idx[:, :, self.n - 2] = cols
        idx[:, :, self.n - 1] = last
        return idx

    def physical(self, idx):
        """Physical tuples of slot indices: (..., n) in 1d, (..., n, d) otherwise."""
        tup = np.take(self.freqs, idx, axis=0)
        return tup[..., 0] if self.d == 1 else tup

    def on_lattice(self, max_tuples: int):
        """The on-lattice tuples, each once, in blocks of at most
        max(``max_tuples``, Q) tuples.

        Gathers the blocks of ``groups`` and yields (pos, idx): the flat
        table positions row * Q + column and the composite slot indices
        (T, n).  Slot n comes from ``groups``, so every tuple is on the
        lattice and tuples with slot n off it are never visited.
        """
        pos, idx, count = [], [], 0
        for rows, outer, cols, last in self.groups(max(1, max_tuples // self.Q)):
            size = len(rows) * len(cols)
            if count and count + size > max_tuples:
                yield np.concatenate(pos), np.concatenate(idx)
                pos, idx, count = [], [], 0
            pos.append((rows[:, None] * self.Q + cols).reshape(-1))
            idx.append(self.slots(outer, cols, last).reshape(-1, self.n))
            count += size
        if pos:
            yield np.concatenate(pos), np.concatenate(idx)


def gamma_sums(symbol, field_sets, budget: int = DEFAULT_TUPLE_BUDGET) -> np.ndarray:
    """Constrained Gamma_n sums of symbol * slot values, one per field set.

    ``field_sets`` holds n-field sequences on one mode lattice.  ``symbol``
    is a callable on physical tuples ((..., n) in 1d, (..., n, d) otherwise)
    or a table of shape (Q,)*(n-1) over slots 1..n-1 (slot n is fixed by the
    constraint; entries at tuples whose slot n is off the lattice are
    ignored).  Returns the plain sums; the caller applies the measure weight
    w^(n-1).

    Rows with equal mode sum sigma of slots 1..n-2 share slot n in every
    column, so each block of them costs one matrix product of the outer slot
    products O (sets x rows) with the table block, [Re O; Im O] @ T, which
    is then contracted against v_(n-1)[c] v_n[-(sigma + c)].
    """
    field_sets = [list(fs) for fs in field_sets]
    n = len(field_sets[0])
    lat = _Lattice(field_sets[0][0], n)
    if lat.Q ** (n - 1) > budget:
        raise ValueError(f"tuple count {lat.Q ** (n - 1)} exceeds budget {budget}")
    vecs = [np.stack(v) for v in zip(*map(slot_vectors, field_sets))]  # per slot (sets, Q)
    table = None if callable(symbol) else np.asarray(symbol).reshape(lat.rows, lat.Q)
    S = len(field_sets)
    out = np.zeros(S, dtype=np.complex128)
    for rows, outer, cols, last in lat.groups(_GROUP_ROWS):
        T = (symbol(lat.physical(lat.slots(outer, cols, last))) if table is None
             else table[rows[:, None], cols])
        O = np.ones((S, len(rows)), dtype=np.complex128)
        for v, idx in zip(vecs, outer):
            O *= v[:, idx]
        if np.iscomplexobj(T):
            G = O @ T
        else:
            G = np.concatenate([O.real, O.imag]) @ T
            G = G[:S] + 1j * G[S:]
        out += np.sum(G * vecs[n - 2][:, cols] * vecs[n - 1][:, last], axis=1)
    return out


def gamma_sum_1d(fields, symbol_values,
                 budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Gamma_n sum of one field set on the 1d mode lattice (``gamma_sums``)."""
    return complex(gamma_sums(symbol_values, [fields], budget)[0])


def gamma_sum_2d(fields, symbol_values,
                 budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Gamma_n sum of one field set on the 2d mode lattice (``gamma_sums``)."""
    return complex(gamma_sums(symbol_values, [fields], budget)[0])


def lambda_eval(symbol_values, fields, strategy: str = "direct",
                slot_factors=None, budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Multilinear functional Lambda_n over the truncated lattice.

    direct: exact constrained sum with measure weight w^(n-1).
    physical: only for symbols factoring as prod_i g_i(k_i); each field is
    weighted coefficientwise by its factor and the pointwise product is
    integrated on an alias-free grid (agrees with direct exactly).
    """
    n = len(fields)
    g = fields[0].geometry
    w = g.measure_weight
    if strategy == "direct":
        s = gamma_sum_1d(fields, symbol_values, budget=budget) if g.dimension == 1 \
            else gamma_sum_2d(fields, symbol_values, budget=budget)
        return w ** (n - 1) * s
    if strategy == "physical":
        if slot_factors is None:
            raise ValueError("physical strategy needs per-slot factors g_i(k_i)")
        vals = None
        oversample = (n + 2) // 2
        for j, (f, factor) in enumerate(zip(fields, slot_factors)):
            grids = f.freq_grids()
            fk = factor(grids[0]) if g.dimension == 1 else factor(np.stack(grids, axis=-1))
            weighted = f.with_coeffs(fk * f.coeffs)
            v = to_physical(weighted, oversample)
            v = np.conj(v) if (j + 1) % 2 == 0 else v
            vals = v if vals is None else vals * v
        return integrate_grid(vals, g)
    raise ValueError(f"unknown strategy {strategy!r}")


# -- symbol tables on the lattice ---------------------------------------------


@dataclass
class CorrectionTables:
    """Precomputed symbol tables over Gamma_deg on a fixed lattice.

    Tables have shape (points,)*(deg-1) over slots 1..deg-1; entries at
    tuples whose determined last slot falls off the lattice are zero (they
    are masked out of every sum anyway).
    """

    d: int
    deg: int
    N: float
    s: float
    thresholds: Thresholds
    sigma_tilde: np.ndarray | None
    mbar_imag: np.ndarray | None  # Mbar_deg = i * mbar_imag (real table)
    combined: np.ndarray | None   # sigma_deg + sigma_tilde (real table)


def _correction_values(idx, tup, d, deg, slots, thresholds, N):
    """sigma~, R (with Mbar = iR), and sigma+sigma~ on a block of on-lattice
    tuples.

    ``idx`` holds the composite slot indices of the tuples (T, n), ``tup``
    their physical values; ``slots`` are per-mode lookups of |k|^2, m^2|k|^2
    and m, so every symbol value is a gather per slot, summed (or
    multiplied) in slot order.
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
    if d == 1:
        codes, _ = classify_batch_1d(tup, N, thresholds)
    else:
        codes, _ = classify_batch_2d(tup, N, thresholds)
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


def correction_tables(template: SpectralField, N: float, s: float,
                      thresholds: Thresholds = Thresholds(),
                      dtype=np.float64, budget: int = DEFAULT_TUPLE_BUDGET,
                      which: tuple = ("sigma_tilde", "mbar", "combined")) -> CorrectionTables:
    """Build sigma~/Mbar/combined tables for the lattice of ``template``.

    ``which`` selects the tables to materialize (large lattices may only
    afford the correction table).  Only on-lattice tuples are classified;
    the other entries stay zero.  Raises ValueError, before allocating,
    when the tables would take more than half of physical memory.
    """
    g = template.geometry
    deg = g.nonlinearity_degree + 1
    lat = _Lattice(template, deg)
    if lat.Q ** (deg - 1) > budget:
        raise ValueError(f"table size {lat.Q ** (deg - 1)} exceeds budget {budget}")
    names = ("sigma_tilde", "mbar", "combined")
    nbytes = sum(name in which for name in names) * lat.Q ** (deg - 1) * np.dtype(dtype).itemsize
    if nbytes > _physical_memory() // 2:
        raise ValueError(f"tables of {nbytes} bytes exceed half of physical memory "
                         f"({_physical_memory()} bytes)")
    sq = np.sum(lat.freqs ** 2, axis=-1)
    m = m_value(np.sqrt(sq), SmoothingSymbol(N, 1.0 - s))
    slots = {"sq": sq, "m": m, "msq_sq": m**2 * sq}
    tables = [np.zeros(lat.rows * lat.Q, dtype=dtype) if name in which else None
              for name in names]
    for pos, idx in lat.on_lattice(_TABLE_TUPLES):
        values = _correction_values(idx, lat.physical(idx), g.dimension, deg, slots,
                                    thresholds, N)
        for table, vals in zip(tables, values):
            if table is not None:
                table[pos] = vals
    st, mb, cm = (t.reshape((lat.Q,) * (deg - 1)) if t is not None else None
                  for t in tables)
    return CorrectionTables(g.dimension, deg, N, s, thresholds, st, mb, cm)


# -- modified energies ---------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    t: float
    mass: float
    energy: float
    e_i1: float
    correction: float
    e_i2: float
    sign: str


def e_i1(f: SpectralField, N: float, s: float, sign: str = "defocusing",
         check: str | None = None, budget: int = DEFAULT_TUPLE_BUDGET,
         rtol: float = 1e-8) -> float:
    """E(I u), optionally cross-checked against the Lambda decomposition.

    check='direct' recomputes the potential part as the exact constrained
    Gamma_deg sum of sigma_deg and raises ConsistencyError on disagreement
    beyond ``rtol`` relative.
    """
    sym = SmoothingSymbol(N, 1.0 - s)
    iu = apply_I(f, sym)
    value = energy(iu, sign)
    if check == "direct":
        kappa = _kappa(sign)
        g = f.geometry
        deg = g.nonlinearity_degree + 1
        kinetic = 0.5 * g.measure_weight * float(
            np.sum(f.kabs() ** 2 * m_value(f.kabs(), sym) ** 2 * np.abs(f.coeffs) ** 2))
        sig = lambda tup: sigma_product(tup, sym, g.dimension) / deg
        pot = lambda_eval(sig, [f] * deg, "direct", budget=budget)
        alt = kinetic + kappa * float(np.real(pot))
        scale = max(abs(value), abs(alt), 1e-300)
        if abs(value - alt) > rtol * scale:
            raise ConsistencyError(
                f"E(Iu) two-path mismatch: physical {value!r} vs direct {alt!r}")
    return value


def modified_energy(f: SpectralField, level: int, N: float, s: float,
                    sign: str = "defocusing", tables: CorrectionTables | None = None,
                    thresholds: Thresholds = Thresholds(), t: float = 0.0,
                    check: str | None = "direct",
                    budget: int = DEFAULT_TUPLE_BUDGET) -> EnergyReport:
    """EnergyReport at levels 1 (E(Iu)) or 2 (with the resonant correction)."""
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    kappa = _kappa(sign)
    base = e_i1(f, N, s, sign, check=check, budget=budget)
    correction = 0.0
    if level == 2:
        deg = f.geometry.nonlinearity_degree + 1
        if tables is None:
            tables = correction_tables(f, N, s, thresholds, budget=budget,
                                       which=("sigma_tilde",))
        val = lambda_eval(tables.sigma_tilde, [f] * deg, "direct", budget=budget)
        correction = kappa * float(np.real(val))
    return EnergyReport(t=t, mass=mass(f), energy=energy(f, sign), e_i1=base,
                        correction=correction, e_i2=base + correction, sign=sign)


# -- the d/dt Lambda machinery and the end-to-end residual ---------------------


def nonlinear_coefficient_field(f: SpectralField) -> SpectralField:
    """Coefficients of |u|^(4/d) u on the lattice, dealiased (exact)."""
    g = f.geometry
    p = g.nonlinearity_degree  # 5 or 3
    oversample = (p + 2) // 2
    vals = to_physical(f, oversample)
    mod2 = vals.real ** 2 + vals.imag ** 2
    return from_physical(mod2 ** ((p - 1) // 2) * vals, g, f.cutoff)


def lambda_with_substitution(table, fields, j: int, nl_field: SpectralField,
                             budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Lambda_deg with slot j's field replaced by the nonlinear coefficients.

    This evaluates the Lambda_(deg+4) term produced by substituting the
    equation into slot j, with the collapsed five-slot group automatically
    restricted to the lattice (the group sum is a lattice mode).
    """
    fields = list(fields)
    fields[j - 1] = nl_field
    g = fields[0].geometry
    w = g.measure_weight
    s = gamma_sum_1d(fields, table, budget=budget) if g.dimension == 1 \
        else gamma_sum_2d(fields, table, budget=budget)
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


def energy_identity_residual(samples, times, N: float, s: float,
                             sign: str = "defocusing",
                             thresholds: Thresholds = Thresholds(),
                             tables: CorrectionTables | None = None,
                             budget: int = DEFAULT_TUPLE_BUDGET) -> dict:
    """Residual series of the modified-energy identity along a trajectory.

    ``samples`` are uniformly spaced fields, ``times`` their times.  Returns
    the per-sample pieces, the residual r(t) and ``imag_leak``, the largest
    |Im| of Lambda(Mbar_deg) and Lambda(Mbar_(deg+4)) (both are real in exact
    arithmetic); exactness of the discrete identity makes r vanish at the
    integrator/quadrature order under dt refinement.  Each Lambda term is one
    ``gamma_sums`` call over all samples.
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
    if tables is None:
        tables = correction_tables(f0, N, s, thresholds, budget=budget)
    w = f0.geometry.measure_weight ** (deg - 1)

    e1 = np.array([e_i1(f, N, s, sign, check=None) for f in samples])
    plain = [[f] * deg for f in samples]
    corr = kappa * np.real(w * gamma_sums(tables.sigma_tilde, plain, budget))
    lam_mbar = 1j * w * gamma_sums(tables.mbar_imag, plain, budget)
    # Lambda_(deg+4)(Mbar_(deg+4)): the equation substituted into slot j of
    # sigma + sigma~, the collapsed group being a lattice mode
    substituted = []
    for f in samples:
        nl = nonlinear_coefficient_field(f)
        substituted += [[nl if i == j else f for i in range(deg)] for j in range(deg)]
    sub = w * gamma_sums(tables.combined, substituted, budget).reshape(len(samples), deg)
    lam_big = 1j * kappa * (sub @ (-1.0) ** np.arange(1, deg + 1))
    mbar = kappa * np.real(lam_mbar)
    mbar_big = np.real(lam_big)
    integral = cumulative_simpson(mbar + mbar_big, float(dts[0]))
    predicted = e1[0] - (corr - corr[0]) + integral
    residual = e1 - predicted
    return {
        "t": times,
        "e_i1": e1,
        "correction": corr,
        "e_i2": e1 + corr,
        "lambda_mbar": mbar,
        "lambda_mbar_big": mbar_big,
        "residual": residual,
        "imag_leak": float(max(np.max(np.abs(np.imag(lam_mbar))),
                               np.max(np.abs(np.imag(lam_big))))),
    }
