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
from .multipliers import bare_m6, omega, sigma_product
from .smoothing import SmoothingSymbol, apply_I, m_value

SIGN = {"defocusing": 1.0, "focusing": -1.0}

DEFAULT_TUPLE_BUDGET = 2 ** 27

# outer-slot rows per block of the Gamma_n enumerations; the block size of
# the lattice sums fixes their summation order, hence the last bits of every
# Lambda value
_SUM_ROWS_1D = 1 << 14
_SUM_ROWS_2D = 1 << 12
_TABLE_ROWS = 1 << 12


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
    potential = float(np.mean(np.abs(vals) ** deg)) * g.volume / deg
    return kinetic + kappa * potential


# -- Gamma_n lattice sums ------------------------------------------------------


def slot_vectors(fields, d: int) -> list[np.ndarray]:
    """Per-slot coefficient vectors v_j with v_j[m] = uhat_j at mode m for odd
    slots and conj(uhat_j(-m)) for even slots (1-indexed parity)."""
    vecs = []
    for j, f in enumerate(fields):
        if (j + 1) % 2 == 0:
            rev = f.coeffs[::-1] if d == 1 else f.coeffs[::-1, ::-1]
            vecs.append(np.conj(np.ascontiguousarray(rev)).reshape(-1))
        else:
            vecs.append(np.ascontiguousarray(f.coeffs).reshape(-1))
    return vecs


def _lattice_1d(field: SpectralField):
    K = field.cutoff[0]
    scale = field.geometry.axis_scales[0]
    return K, scale


def gamma_sum_1d(fields, symbol_values,
                 budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Sum over Gamma_n tuples on the 1d mode lattice of symbol * slot values.

    ``symbol_values`` is either a callable on physical tuples (..., n) or a
    precomputed table of shape (P,)*(n-1) over slots 1..n-1 (slot n is fixed
    by the constraint; entries at invalid tuples are ignored).  Returns the
    plain constrained sum; the caller applies the measure weight w^(n-1).
    """
    n = len(fields)
    K, scale = _lattice_1d(fields[0])
    P = 2 * K + 1
    if P ** (n - 1) > budget:
        raise ValueError(f"tuple count {P**(n-1)} exceeds budget {budget}")
    vecs = slot_vectors(fields, 1)
    modes = np.arange(-K, K + 1)

    if n == 2:
        tup = np.stack([modes / scale, -modes / scale], axis=-1)
        sym = symbol_values(tup) if callable(symbol_values) else np.asarray(symbol_values)
        return complex(np.sum(sym * vecs[0] * vecs[1][::-1]))

    table = None if callable(symbol_values) else np.asarray(symbol_values).reshape(P ** (n - 2), P)
    outer_shape = (P,) * (n - 2)
    outer_total = P ** (n - 2)

    # product of slot vectors over the outer slots, flattened in C order
    total = 0.0 + 0.0j
    for start in range(0, outer_total, _SUM_ROWS_1D):
        stop = min(start + _SUM_ROWS_1D, outer_total)
        idx = np.unravel_index(np.arange(start, stop), outer_shape)
        prod_outer = np.ones(stop - start, dtype=np.complex128)
        sum_outer = np.zeros(stop - start, dtype=np.int64)
        for j in range(n - 2):
            prod_outer *= vecs[j][idx[j]]
            sum_outer += modes[idx[j]]
        m_pen = modes  # slot n-1, full axis
        m_last = -(sum_outer[:, None] + m_pen[None, :])
        valid = np.abs(m_last) <= K
        vals = prod_outer[:, None] * vecs[n - 2][None, :]
        gathered = np.where(valid, vecs[n - 1][np.clip(m_last + K, 0, P - 1)], 0.0)
        vals = vals * gathered
        if table is not None:
            sym = table[start:stop]
        else:
            tup = np.empty((stop - start, P, n))
            for j in range(n - 2):
                tup[..., j] = (modes[idx[j]] / scale)[:, None]
            tup[..., n - 2] = (m_pen / scale)[None, :]
            tup[..., n - 1] = m_last / scale
            sym = symbol_values(tup)
        total += np.sum(np.where(valid, sym * vals, 0.0))
    return complex(total)


def gamma_sum_2d(fields, symbol_values,
                 budget: int = DEFAULT_TUPLE_BUDGET) -> complex:
    """Gamma_n sum on the 2d mode lattice (composite slot index per slot)."""
    n = len(fields)
    f0 = fields[0]
    K0, K1 = f0.cutoff
    P0, P1 = 2 * K0 + 1, 2 * K1 + 1
    Q = P0 * P1
    if Q ** (n - 1) > budget:
        raise ValueError(f"tuple count {Q**(n-1)} exceeds budget {budget}")
    s0, s1 = f0.geometry.axis_scales
    vecs = slot_vectors(fields, 2)
    m0 = np.repeat(np.arange(-K0, K0 + 1), P1)
    m1 = np.tile(np.arange(-K1, K1 + 1), P0)

    if n == 2:
        tup = np.stack([
            np.stack([m0 / s0, m1 / s1], axis=-1),
            np.stack([-m0 / s0, -m1 / s1], axis=-1),
        ], axis=-2)
        sym = symbol_values(tup) if callable(symbol_values) else np.asarray(symbol_values)
        lin2 = (-m0 + K0) * P1 + (-m1 + K1)
        return complex(np.sum(sym * vecs[0] * vecs[1][lin2]))

    table = None if callable(symbol_values) else np.asarray(symbol_values).reshape(Q ** (n - 2), Q)
    outer_total = Q ** (n - 2)
    outer_shape = (Q,) * (n - 2)

    total = 0.0 + 0.0j
    for start in range(0, outer_total, _SUM_ROWS_2D):
        stop = min(start + _SUM_ROWS_2D, outer_total)
        idx = np.unravel_index(np.arange(start, stop), outer_shape)
        prod_outer = np.ones(stop - start, dtype=np.complex128)
        sum0 = np.zeros(stop - start, dtype=np.int64)
        sum1 = np.zeros(stop - start, dtype=np.int64)
        for j in range(n - 2):
            prod_outer *= vecs[j][idx[j]]
            sum0 += m0[idx[j]]
            sum1 += m1[idx[j]]
        last0 = -(sum0[:, None] + m0[None, :])
        last1 = -(sum1[:, None] + m1[None, :])
        valid = (np.abs(last0) <= K0) & (np.abs(last1) <= K1)
        lin = np.clip((last0 + K0) * P1 + (last1 + K1), 0, Q - 1)
        vals = prod_outer[:, None] * vecs[n - 2][None, :]
        vals = vals * np.where(valid, vecs[n - 1][lin], 0.0)
        if table is not None:
            sym = table[start:stop]
        else:
            tup = np.empty((stop - start, Q, n, 2))
            for j in range(n - 2):
                tup[..., j, 0] = (m0[idx[j]] / s0)[:, None]
                tup[..., j, 1] = (m1[idx[j]] / s1)[:, None]
            tup[..., n - 2, 0] = (m0 / s0)[None, :]
            tup[..., n - 2, 1] = (m1 / s1)[None, :]
            tup[..., n - 1, 0] = last0 / s0
            tup[..., n - 1, 1] = last1 / s1
            sym = symbol_values(tup)
        total += np.sum(np.where(valid, sym * vals, 0.0))
    return complex(total)


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


def _tuple_blocks_1d(K: int, scale: float, n: int, chunk_rows: int):
    P = 2 * K + 1
    modes = np.arange(-K, K + 1)
    outer_total = P ** (n - 2)
    outer_shape = (P,) * (n - 2)
    for start in range(0, outer_total, chunk_rows):
        stop = min(start + chunk_rows, outer_total)
        idx = np.unravel_index(np.arange(start, stop), outer_shape)
        sum_outer = np.zeros(stop - start, dtype=np.int64)
        cols = []
        for j in range(n - 2):
            cols.append(np.broadcast_to(modes[idx[j]][:, None], (stop - start, P)))
            sum_outer += modes[idx[j]]
        m_pen = np.broadcast_to(modes[None, :], (stop - start, P))
        m_last = -(sum_outer[:, None] + modes[None, :])
        tup = np.stack(cols + [m_pen, m_last], axis=-1) / scale
        valid = np.abs(m_last) <= K
        yield start, stop, tup, valid


def _tuple_blocks_2d(K0: int, K1: int, s0: float, s1: float, n: int, chunk_rows: int):
    P0, P1 = 2 * K0 + 1, 2 * K1 + 1
    Q = P0 * P1
    m0 = np.repeat(np.arange(-K0, K0 + 1), P1)
    m1 = np.tile(np.arange(-K1, K1 + 1), P0)
    outer_total = Q ** (n - 2)
    outer_shape = (Q,) * (n - 2)
    for start in range(0, outer_total, chunk_rows):
        stop = min(start + chunk_rows, outer_total)
        idx = np.unravel_index(np.arange(start, stop), outer_shape)
        B = stop - start
        sum0 = np.zeros(B, dtype=np.int64)
        sum1 = np.zeros(B, dtype=np.int64)
        comps = []
        for j in range(n - 2):
            comps.append((np.broadcast_to(m0[idx[j]][:, None], (B, Q)),
                          np.broadcast_to(m1[idx[j]][:, None], (B, Q))))
            sum0 += m0[idx[j]]
            sum1 += m1[idx[j]]
        comps.append((np.broadcast_to(m0[None, :], (B, Q)),
                      np.broadcast_to(m1[None, :], (B, Q))))
        last0 = -(sum0[:, None] + m0[None, :])
        last1 = -(sum1[:, None] + m1[None, :])
        comps.append((last0, last1))
        tup = np.stack([np.stack([c0 / s0, c1 / s1], axis=-1) for c0, c1 in comps], axis=-2)
        valid = (np.abs(last0) <= K0) & (np.abs(last1) <= K1)
        yield start, stop, tup, valid


def _correction_values(tup, valid, d, deg, sym, thresholds, N, slot_tables=None):
    """sigma~, R (with Mbar = iR), and sigma+sigma~ on a block of tuples.

    ``slot_tables`` (per-mode lookup of |k|^2, m^2|k|^2, m) short-circuits
    the symbol evaluation on lattice-valued tuples.
    """
    if slot_tables is not None:
        idx = slot_tables["index"](tup)
        sq = slot_tables["sq"][idx]
        om = np.sum(sq * slot_tables["signs"], axis=-1)
        bare = np.sum(slot_tables["msq_sq"][idx] * slot_tables["signs"], axis=-1)
        sig = np.prod(slot_tables["m"][idx], axis=-1) / deg
    else:
        om = omega(tup, d)
        bare = bare_m6(tup, sym, d)
        sig = sigma_product(tup, sym, d) / deg
    if d == 1:
        codes, _ = classify_batch_1d(tup, N, thresholds)
    else:
        codes, _ = classify_batch_2d(tup, N, thresholds)
    nr = is_nonresonant(codes) & valid
    res = is_resonant(codes) & valid
    if np.any(nr & (om == 0.0)):
        raise ConsistencyError(
            "non-resonant verdict with vanishing resonance function; "
            "classifier thresholds are unsound on this lattice"
        )
    ratio = np.zeros_like(om)
    np.divide(bare, om, out=ratio, where=nr)
    if d == 1:
        ups = valid & (codes != 0)
        sigma_tilde = np.where(ups, -sig, 0.0) + np.where(nr, ratio / deg, 0.0)
        r_imag = np.where(res, bare / deg, 0.0)
    else:
        sigma_tilde = np.where(nr, ratio / deg - sig, 0.0)
        # M4_full = i*(bare/4) + sigma*(-i*omega) = i*(bare/4 - sigma*omega)
        r_imag = np.where(res, bare / deg - sig * om, 0.0)
    combined = sig + sigma_tilde
    return sigma_tilde, r_imag, combined


def correction_tables(template: SpectralField, N: float, s: float,
                      thresholds: Thresholds = Thresholds(),
                      dtype=np.float64, budget: int = DEFAULT_TUPLE_BUDGET,
                      which: tuple = ("sigma_tilde", "mbar", "combined")) -> CorrectionTables:
    """Build sigma~/Mbar/combined tables for the lattice of ``template``.

    ``which`` selects the tables to materialize (large lattices may only
    afford the correction table).
    """
    g = template.geometry
    d = g.dimension
    deg = g.nonlinearity_degree + 1
    sym = SmoothingSymbol(N, 1.0 - s)
    if d == 1:
        K, scale = _lattice_1d(template)
        P = 2 * K + 1
        blocks = _tuple_blocks_1d(K, scale, deg, _TABLE_ROWS)
        points = P
    else:
        K0, K1 = template.cutoff
        s0, s1 = g.axis_scales
        blocks = _tuple_blocks_2d(K0, K1, s0, s1, deg, _TABLE_ROWS)
        points = (2 * K0 + 1) * (2 * K1 + 1)
    if points ** (deg - 1) > budget:
        raise ValueError(f"table size {points**(deg-1)} exceeds budget {budget}")
    shape = (points,) * (deg - 1)
    rows = points ** (deg - 2)

    def alloc(name):
        return np.zeros((rows, points), dtype=dtype) if name in which else None

    # per-mode symbol lookups: tuples live on the lattice, so every slot
    # value reduces to a table gather
    signs = np.array([1.0, -1.0] * (deg // 2))
    if d == 1:
        modes = np.arange(-K, K + 1) / scale
        mvals = m_value(np.abs(modes), sym)
        slot_tables = {
            "index": lambda t: np.clip(np.rint(t * scale).astype(np.int64) + K, 0, P - 1),
            "sq": modes**2, "m": mvals, "msq_sq": mvals**2 * modes**2,
            "signs": signs,
        }
    else:
        P1 = 2 * K1 + 1
        g0, g1 = np.meshgrid(np.arange(-K0, K0 + 1) / s0,
                             np.arange(-K1, K1 + 1) / s1, indexing="ij")
        sqgrid = (g0**2 + g1**2).reshape(-1)
        mgrid = m_value(np.sqrt(sqgrid), sym)

        def index2(t):
            i0 = np.clip(np.rint(t[..., 0] * s0).astype(np.int64) + K0, 0, 2 * K0)
            i1 = np.clip(np.rint(t[..., 1] * s1).astype(np.int64) + K1, 0, 2 * K1)
            return i0 * P1 + i1

        slot_tables = {"index": index2, "sq": sqgrid, "m": mgrid,
                       "msq_sq": mgrid**2 * sqgrid, "signs": signs}

    st, mb, cm = alloc("sigma_tilde"), alloc("mbar"), alloc("combined")
    for start, stop, tup, valid in blocks:
        a, b, c = _correction_values(tup, valid, d, deg, sym, thresholds, N,
                                     slot_tables)
        if st is not None:
            st[start:stop] = np.where(valid, a, 0.0)
        if mb is not None:
            mb[start:stop] = np.where(valid, b, 0.0)
        if cm is not None:
            cm[start:stop] = np.where(valid, c, 0.0)
    reshape = lambda t: t.reshape(shape) if t is not None else None
    return CorrectionTables(d, deg, N, s, thresholds, reshape(st), reshape(mb), reshape(cm))


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
    return from_physical(np.abs(vals) ** (p - 1) * vals, g, f.cutoff)


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


def energy_derivative_terms(f: SpectralField, tables: CorrectionTables,
                            sign: str = "defocusing",
                            budget: int = DEFAULT_TUPLE_BUDGET) -> dict:
    """kappa*Lambda_deg(Mbar_deg) and Lambda_(deg+4)(Mbar_(deg+4)) at one state."""
    kappa = _kappa(sign)
    deg = tables.deg
    fields = [f] * deg
    lam_mbar = 1j * lambda_eval(tables.mbar_imag, fields, "direct", budget=budget)
    nl = nonlinear_coefficient_field(f)
    total_sub = 0.0 + 0.0j
    for j in range(1, deg + 1):
        term = lambda_with_substitution(tables.combined, fields, j, nl, budget=budget)
        total_sub += (-1) ** j * term
    lam_big = 1j * kappa * total_sub
    return {
        "lambda_mbar": kappa * float(np.real(lam_mbar)),
        "lambda_mbar_big": float(np.real(lam_big)),
        "imag_leak": max(abs(float(np.imag(lam_mbar))), abs(float(np.imag(lam_big)))),
    }


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
    the per-sample pieces and the residual r(t); exactness of the discrete
    identity makes r vanish at the integrator/quadrature order under dt
    refinement.
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

    e1 = np.empty(len(samples))
    corr = np.empty(len(samples))
    mbar = np.empty(len(samples))
    mbar_big = np.empty(len(samples))
    for i, f in enumerate(samples):
        e1[i] = e_i1(f, N, s, sign, check=None)
        corr[i] = kappa * float(np.real(
            lambda_eval(tables.sigma_tilde, [f] * deg, "direct", budget=budget)))
        terms = energy_derivative_terms(f, tables, sign, budget=budget)
        mbar[i] = terms["lambda_mbar"]
        mbar_big[i] = terms["lambda_mbar_big"]
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
    }
