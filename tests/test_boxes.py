"""Box-localized Fourier expansion: delta property, decay, reconstruction."""

import hashlib

import numpy as np
import pytest

from nlslab.boxes import MultiplierBox, QuadratureError, fourier_expand
from nlslab.multipliers import SymbolSpec, m_multiplier_symbol, sigma_symbol
from nlslab.smoothing import SmoothingSymbol
from reference import constant_symbol

RNG = np.random.default_rng(31)
SYM = SmoothingSymbol(N=4.0, alpha=0.5)
M6 = m_multiplier_symbol(6, SYM)


def interior_points(box, count=300, margin=0.48):
    """Random tuples inside the box: (count, n) in 1-D, (count, n, d) otherwise."""
    pts = np.stack([np.stack([c + RNG.uniform(-margin, margin, count) * L
                              for c, L in box.slot_axes(i)], axis=-1)
                    for i in range(box.n)], axis=-2)
    return pts[..., 0] if box.d == 1 else pts


def test_box_validation():
    with pytest.raises(ValueError, match="length"):
        MultiplierBox(((4.0, -1.0),) * 6)
    with pytest.raises(ValueError, match="exceeds"):
        MultiplierBox(((4.0, 100.0),) * 6)


@pytest.mark.parametrize("order", [0, -1])
def test_order_below_one_rejected(order):
    box = MultiplierBox(((6.0, 3.0), (-6.0, 3.0), (5.5, 2.5), (-5.5, 2.5),
                         (1.0, 2.0), (0.0, 2.0)))
    with pytest.raises(ValueError, match="order"):
        fourier_expand(M6, box, trunc=4, order=order)


def test_constant_symbol_is_a_delta():
    box = MultiplierBox(((24.0, 8.0), (-25.0, 8.0), (6.0, 4.0), (-6.0, 4.0),
                         (1.0, 2.0), (0.0, 2.0)))
    exp = fourier_expand(constant_symbol(3.0, 6), box, trunc=8)
    assert abs(exp.dc() - 3.0 * box.volume()) < 1e-12 * abs(exp.dc())
    assert exp.max_offdc() < 1e-12


def test_smoothed_resonance_decay_and_reconstruction():
    # near-collision box crossing the transition annulus: curved symbol
    box = MultiplierBox(((6.0, 3.0), (-6.0, 3.0), (5.5, 2.5), (-5.5, 2.5),
                         (1.0, 2.0), (0.0, 2.0)))
    exp = fourier_expand(M6, box, trunc=8, order=6)
    assert exp.decay_report()["slope"] >= 6.0
    tup = interior_points(box)
    exact = M6(tup)
    err = np.max(np.abs(exp.reconstruct(tup) - exact))
    assert err <= 1e-6 * np.max(np.abs(exact))


def test_full_shell_box_reconstruction():
    box = MultiplierBox(((12.0, 8.0), (-12.0, 8.0), (10.0, 4.0), (-10.0, 4.0),
                         (1.0, 2.0), (-1.0, 2.0)))
    exp = fourier_expand(M6, box, trunc=8, order=6)
    tup = interior_points(box)
    exact = M6(tup)
    assert np.max(np.abs(exp.reconstruct(tup) - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_coefficient_sum_tracks_sup_on_slow_boxes():
    sig = sigma_symbol(6, SYM)
    box = MultiplierBox(((60.0, 1.0), (-61.0, 1.0), (40.0, 1.0), (-40.0, 1.0),
                         (30.5, 1.0), (-29.5, 1.0)))
    exp = fourier_expand(sig, box, trunc=8)
    tup = interior_points(box, count=500, margin=0.49)
    exact = sig(tup)
    sup = np.max(np.abs(exact))
    l1 = exp.coefficient_l1_unit()
    assert abs(l1 - sup) <= 0.05 * sup
    # inversion at random points reproduces the symbol there
    assert np.max(np.abs(exp.reconstruct(tup) - exact)) <= 1e-8 * sup


def test_rejects_non_factorizable_symbols():
    bad = SymbolSpec("ratio", 6, 1, lambda k: np.sum(k, axis=-1), "general")
    box = MultiplierBox(((4.0, 2.0),) * 6)
    with pytest.raises(ValueError, match="factor"):
        fourier_expand(bad, box, trunc=4)


SYM_2D = SmoothingSymbol(N=2.0, alpha=0.4)
BOX_2D = MultiplierBox((
    ((5.0, 2.0), (4.0, 2.0)),
    ((-5.0, 2.0), (-4.0, 2.0)),
    ((1.0, 1.0), (0.0, 1.0)),
    ((-1.0, 1.0), (0.0, 1.0)),
), d=2)


def test_2d_slot_expansion_reconstructs():
    s4 = sigma_symbol(4, SYM_2D, d=2)
    exp = fourier_expand(s4, BOX_2D, trunc=2, order=3)
    tup = interior_points(BOX_2D, count=150, margin=0.45)
    exact = s4(tup)
    err = np.max(np.abs(exp.reconstruct(tup) - exact))
    assert err <= 1e-5 * np.max(np.abs(exact))


@pytest.mark.parametrize("name, trunc, order", [
    ("m4", 4, 4), ("m4", 8, 6), ("sigma4", 8, 6)])
def test_2d_expansion_at_finer_truncations(name, trunc, order):
    sym = (m_multiplier_symbol(4, SYM_2D, d=2) if name == "m4"
           else sigma_symbol(4, SYM_2D, d=2))
    exp = fourier_expand(sym, BOX_2D, trunc=trunc, order=order)
    tup = interior_points(BOX_2D)
    exact = sym(tup)
    assert np.max(np.abs(exp.reconstruct(tup) - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_1d_slot_tables_pinned():
    # per-slot complex128 bytes of (seam jumps d_q, then c_xi) on the
    # benchmark's three six-slot boxes, M6 then Sigma6, in slot order
    boxes = (
        ((6.0, 3.0), (-6.0, 3.0), (5.5, 2.5), (-5.5, 2.5), (1.0, 2.0), (0.0, 2.0)),
        ((12.0, 8.0), (-12.0, 8.0), (10.0, 4.0), (-10.0, 4.0), (1.0, 2.0), (-1.0, 2.0)),
        ((60.0, 1.0), (-61.0, 1.0), (40.0, 1.0), (-40.0, 1.0), (30.5, 1.0), (-29.5, 1.0)),
    )
    sym = SmoothingSymbol(N=4.0, alpha=0.5)
    digest = hashlib.sha256()
    for intervals in boxes:
        for s in (m_multiplier_symbol(6, sym), sigma_symbol(6, sym)):
            exp = fourier_expand(s, MultiplierBox(intervals), trunc=8, order=6)
            for coef in exp.slots:
                digest.update(np.asarray(coef, dtype=np.complex128).tobytes())
    assert digest.hexdigest() == (
        "eeca605b77d87be4c86f49a72fbe6192650670386af2db4a1c7460720b9749a3")


@pytest.mark.parametrize("d", [1, 2])
def test_quadrature_gate_fires(d):
    # cos(400 k) oscillates about 127 times over a length-2 interval, more
    # than the quadrature at trunc 4, order 3 resolves
    def term(k):
        return np.cos(400.0 * (k if d == 1 else np.sum(k, axis=-1)))

    osc = SymbolSpec("osc", 1, d, term, "sum", (term,))
    axis = (4.0, 2.0)
    box = MultiplierBox((axis if d == 1 else (axis, axis),), d=d)
    with pytest.raises(QuadratureError, match="disagreement"):
        fourier_expand(osc, box, trunc=4, order=3)
