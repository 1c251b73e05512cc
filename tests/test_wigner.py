import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from susyjc.errors import SupportExceeded
from susyjc.hilbert import HilbertConfig, ModelParams
from susyjc.jc import DressedLabel, reduced_density
from susyjc.wigner import (_displacement, _generator_eig, laguerre_pair,
                           numeric_evaluator, wigner_closed_jc, wigner_grid)

TWO_OVER_PI = 2.0 / math.pi


def _fock_rho(n_fock, n):
    rho = np.zeros((n_fock, n_fock), dtype=complex)
    rho[n, n] = 1.0
    return rho


def test_laguerre_recurrence_matches_scipy():
    x = np.linspace(0.0, 30.0, 40)
    for order in range(1, 9):
        pair = laguerre_pair(order, x)
        for got, n in zip(pair, (order - 1, order)):
            ref = eval_laguerre(n, x)
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(got - ref).max() < 1e-13 * scale
    with pytest.raises(ValueError):
        laguerre_pair(0, x)


def test_displacement_operator():
    d0 = _displacement(_generator_eig(30), 0.0)
    assert np.abs(d0 - np.eye(30)).max() == 0.0
    eig = _generator_eig(60)
    d = _displacement(eig, 1.2 - 0.4j)
    assert np.abs(d @ d.conj().T - np.eye(60)).max() < 1e-12
    # displacing the vacuum gives Poisson photon statistics
    alpha = 0.9 + 0.7j
    d = _displacement(eig, alpha)
    coherent = d[:, 0]
    nbar = abs(alpha) ** 2
    expected = np.empty(60)
    expected[0] = math.exp(-nbar)
    for k in range(1, 60):
        expected[k] = expected[k - 1] * nbar / k
    assert np.abs(np.abs(coherent) ** 2 - expected).max() < 1e-12


def test_vacuum_and_fock_one_wigner():
    vacuum = numeric_evaluator(_fock_rho(40, 0))
    assert abs(vacuum(0.0) - TWO_OVER_PI) < 1e-14
    r = 0.8
    assert abs(vacuum(r) - TWO_OVER_PI * math.exp(-2 * r * r)) < 1e-12
    # one photon: negative at the origin
    assert abs(numeric_evaluator(_fock_rho(40, 1))(0.0) + TWO_OVER_PI) < 1e-14


def test_density_matrix_validation():
    bad_trace = np.diag([0.5, 0.3]).astype(complex)
    with pytest.raises(ValueError):
        numeric_evaluator(bad_trace)
    not_herm = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        numeric_evaluator(not_herm)
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        numeric_evaluator(not_psd)
    # NaN fails every comparison above, and inf - inf is NaN, so either
    # passed them
    for bad in (np.nan, np.inf):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="^rho must be finite$"):
            numeric_evaluator(rho)


def test_support_guard_fires_on_large_displacement():
    evaluate = numeric_evaluator(_fock_rho(12, 0))
    with pytest.raises(SupportExceeded):
        evaluate(4.0)


def test_closed_form_anchors():
    params = ModelParams(omega=1.0, omega0=1.0, lam=0.5)
    ground = DressedLabel("minus", 0)
    assert wigner_closed_jc(ground, params, 0.0) == TWO_OVER_PI
    a = 0.3 + 1.1j
    assert abs(wigner_closed_jc(ground, params, a)
               - TWO_OVER_PI * math.exp(-2 * abs(a) ** 2)) < 1e-14
    # on resonance the N=1 doublet mixes |0> and |1> evenly: W(0) = 0
    for branch in ("plus", "minus"):
        assert abs(wigner_closed_jc(DressedLabel(branch, 1), params, 0.0)) < 1e-15


def test_closed_form_is_rotation_symmetric():
    # the photon reduced state is Fock-diagonal, so W depends on |alpha| only
    label = DressedLabel("plus", 3)
    params = ModelParams(omega=1.0, omega0=1.4, lam=0.8)
    r = 1.3
    vals = [wigner_closed_jc(label, params, r * np.exp(1j * t))
            for t in np.linspace(0.0, 2 * math.pi, 9)]
    assert np.ptp(vals) < 1e-13


def test_closed_vs_numeric_cross_check():
    params = ModelParams(omega=1.0, omega0=1.3, lam=0.8)
    cfg = HilbertConfig(70)
    for label in [DressedLabel("minus", 0), DressedLabel("minus", 2),
                  DressedLabel("plus", 2)]:
        rho = reduced_density(label, params, "boson", cfg)
        numeric = numeric_evaluator(rho)
        for alpha in [0.0, 0.4, 1.0 - 0.5j, -1.7 + 0.2j, 2.5j]:
            assert abs(numeric(alpha)
                       - wigner_closed_jc(label, params, alpha)) < 1e-9


def test_mixed_state_linearity():
    rho = 0.5 * _fock_rho(40, 0) + 0.5 * _fock_rho(40, 2)
    w0 = numeric_evaluator(_fock_rho(40, 0))
    w2 = numeric_evaluator(_fock_rho(40, 2))
    wm = numeric_evaluator(rho)
    for alpha in [0.2, 0.9 + 0.3j, 1.4j]:
        assert abs(wm(alpha) - 0.5 * (w0(alpha) + w2(alpha))) < 1e-12


def test_grid_normalization_and_layout():
    params = ModelParams()
    grid = wigner_grid(lambda alpha: wigner_closed_jc(DressedLabel("minus", 0),
                                                      params, alpha),
                       window=4.0, points=128)
    assert abs(grid.normalization_integral - 1.0) < 1e-6
    assert grid.values.shape == (128, 128)
    assert np.array_equal(grid.axis, np.linspace(-4.0, 4.0, 128))
    i = j = np.abs(grid.axis).argmin()
    assert abs(grid.values.max() - grid.values[i, j]) < 1e-12
    # vacuum Wigner peaks at the origin with value 2/pi
    assert abs(grid.values[i, j] - TWO_OVER_PI * math.exp(-2 * (grid.axis[i] ** 2
                                                                + grid.axis[j] ** 2))) < 1e-12


def test_numeric_evaluator_fills_a_grid_in_one_call():
    evaluate = numeric_evaluator(_fock_rho(50, 1))
    grid = wigner_grid(evaluate, window=2.0, points=17)
    assert grid.values.shape == (17, 17)
    mid = 8
    assert abs(grid.values[mid, mid] + TWO_OVER_PI) < 1e-12
    # the array path runs the pointwise arithmetic: values are bit-identical
    for i, j in [(0, 0), (3, 11), (mid, mid), (16, 5)]:
        alpha = complex(grid.axis[i], grid.axis[j])
        assert grid.values[i, j] == evaluate(alpha)


def test_grid_argument_guards():
    ev = numeric_evaluator(_fock_rho(20, 0))
    with pytest.raises(ValueError):
        wigner_grid(ev, window=2.0, points=8)
    with pytest.raises(ValueError):
        wigner_grid(ev, window=-1.0, points=32)
