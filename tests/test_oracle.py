import numpy as np
import pytest

from susyjc.errors import NoConvergence, NotHermitian
from susyjc.far import far_chains, far_from_alphas, far_hamiltonian
from susyjc.hilbert import (HilbertConfig, ModelParams, build_hamiltonian,
                            excitation_number, parity_chains)
from susyjc.jc import DressedLabel
from susyjc.oracle import (certify_cutoff, certify_truncation, diagonalize,
                           eigenvalues, find_crossings)


def _jc_builder(params):
    return lambda n_max: build_hamiltonian(HilbertConfig(n_max), params, "jc")


def test_diagonalize_basic_contract():
    cfg = HilbertConfig(20)
    h = build_hamiltonian(cfg, ModelParams(omega=1.0, omega0=0.8, lam=0.4), "jc")
    sol = diagonalize(h)
    assert np.all(np.diff(sol.eigenvalues) >= 0)
    assert sol.converged_levels == 0
    assert sol.n_max_used == 20
    v = sol.eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(cfg.dim)).max() < 1e-12
    recon = v @ np.diag(sol.eigenvalues) @ v.conj().T
    assert np.abs(recon - h).max() < 1e-12
    # phase convention: the anchor amplitude is real positive
    anchors = np.abs(v).argmax(axis=0)
    pivots = v[anchors, np.arange(cfg.dim)]
    assert np.abs(pivots.imag).max() < 1e-12
    assert pivots.real.min() > 0


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_diagonalize_is_deterministic_under_degeneracy():
    # sigma_z x 1 has two flat bands; ordering and phases must still be fixed
    cfg = HilbertConfig(9)
    from susyjc.hilbert import spin_op
    h = spin_op(cfg, "sigma_z")
    a = diagonalize(h)
    b = diagonalize(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_certify_truncation_on_decoupled_model():
    params = ModelParams(omega=1.0, omega0=0.6, lam=0.0)
    sol = certify_truncation(_jc_builder(params), k_levels=6)
    assert sol.converged_levels >= 6
    expected = sorted([n - 0.3 for n in range(4)] + [n + 0.3 for n in range(4)])[:6]
    assert np.abs(sol.eigenvalues[:6] - np.array(expected)).max() < 1e-12


def test_certify_truncation_gives_up_at_the_cap():
    # a builder whose lowest eigenvalue keeps drifting with the cutoff
    builder = lambda n_max: np.diag([-float(n_max)]).astype(complex)
    with pytest.raises(NoConvergence):
        certify_truncation(builder, k_levels=1, cap_n_max=64)
    with pytest.raises(ValueError):
        certify_truncation(builder, k_levels=0)


def test_eigenvalues_gate_dense_input():
    with pytest.raises(NotHermitian):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("chain, dense, k_levels", [
    (lambda n: parity_chains(HilbertConfig(n), ModelParams(omega=0.5, lam=0.8), "jc"),
     lambda n: build_hamiltonian(HilbertConfig(n), ModelParams(omega=0.5, lam=0.8), "jc"),
     8),
    (lambda n: far_chains(HilbertConfig(n), far_from_alphas(0.01, 1.0, 2.8), 1e-11),
     lambda n: far_hamiltonian(HilbertConfig(n), far_from_alphas(0.01, 1.0, 2.8), 1e-11),
     11),
], ids=["jc", "far"])
def test_chain_and_dense_builders_certify_alike(chain, dense, k_levels):
    a = certify_truncation(chain, k_levels=k_levels)
    b = certify_truncation(dense, k_levels=k_levels)
    assert a.n_max_used == b.n_max_used > 32
    assert a.converged_levels == b.converged_levels >= k_levels
    assert a.eigenvectors is None and b.eigenvectors is None
    assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-11
    pinned = certify_cutoff(chain, a.n_max_used)
    assert pinned.n_max_used == a.n_max_used
    assert pinned.converged_levels >= k_levels


def test_find_crossings_ground_mode():
    params_fn = lambda lam: ModelParams(omega=1.0, omega0=1.0, lam=lam)
    cfg = HilbertConfig(40)
    builder = lambda lam: build_hamiltonian(cfg, params_fn(lam), "jc")
    sector = excitation_number(cfg, "plus")
    recs = find_crossings(builder, (0.5, 1.5), mode="ground",
                          grid_points=60, sector_op=sector)
    assert len(recs) == 1
    assert abs(recs[0].coupling - 1.0) < 1e-6
    assert recs[0].left == DressedLabel("minus", 0)
    assert recs[0].right == DressedLabel("minus", 1)
    # no sector operator, no labels
    recs = find_crossings(builder, (0.5, 1.5), mode="ground", grid_points=60)
    assert recs[0].left is None and recs[0].right is None
    # a window below the first critical coupling is empty
    assert find_crossings(builder, (0.2, 0.8), mode="ground", grid_points=40) == []


def test_find_crossings_pair_mode():
    cfg = HilbertConfig(40)
    builder = lambda lam: build_hamiltonian(
        cfg, ModelParams(omega=1.0, omega0=1.0, lam=lam), "jc")
    sector = excitation_number(cfg, "plus")
    recs = find_crossings(builder, (0.5, 1.5), mode="pair", pair=(0, 1),
                          grid_points=40, sector_op=sector)
    assert len(recs) == 1
    assert abs(recs[0].coupling - 1.0) < 1e-6
    assert recs[0].left == DressedLabel("minus", 0)
    assert recs[0].right == DressedLabel("minus", 1)
    # an avoided crossing (finite minimum gap) is rejected by min_gap
    avoided = lambda x: np.array([[x, 0.1], [0.1, -x]], dtype=complex)
    assert find_crossings(avoided, (-1.0, 1.0), mode="pair", pair=(0, 1),
                          grid_points=41) == []
    # while a true two-level crossing is kept
    crossing = lambda x: np.array([[x, 0.0], [0.0, -x]], dtype=complex)
    recs = find_crossings(crossing, (-1.0, 1.0), mode="pair", pair=(0, 1),
                          grid_points=41)
    assert len(recs) == 1
    assert abs(recs[0].coupling) < 1e-6


def test_find_crossings_argument_guards():
    builder = lambda lam: np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        find_crossings(builder, (1.0, 0.5))
    with pytest.raises(ValueError):
        find_crossings(builder, (0.0, 1.0), grid_points=2)
    with pytest.raises(ValueError):
        find_crossings(builder, (0.0, 1.0), mode="pair")
    with pytest.raises(ValueError):
        find_crossings(builder, (0.0, 1.0), mode="walk")
