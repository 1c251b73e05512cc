import math

import numpy as np
import pytest

from susyjc.errors import (DegenerateAngle, InvalidLabel, InvalidN,
                           TruncationTooSmall)
from susyjc.hilbert import HilbertConfig, ModelParams, build_hamiltonian
from susyjc.jc import (DressedLabel, coupling_for, crossing_pair,
                       dressed_energy, dressed_state, ground_state_critical,
                       lowest_closed_levels, mixing_angle, rabi_frequency,
                       reduced_density, von_neumann_entropy)
from susyjc.oracle import diagonalize


def test_label_validation():
    DressedLabel("minus", 0)
    with pytest.raises(InvalidLabel):
        DressedLabel("plus", 0)
    with pytest.raises(InvalidLabel):
        DressedLabel("up", 1)
    with pytest.raises(InvalidLabel):
        DressedLabel("minus", -1)
    with pytest.raises(InvalidLabel):
        DressedLabel("minus", 1, "rabi")


def test_coupling_for_picks_the_model_knob():
    params = ModelParams(lam=0.3, mu=0.8)
    assert coupling_for("jc", params) == 0.3
    assert coupling_for("ajc", params) == 0.8
    with pytest.raises(InvalidLabel):
        coupling_for("ar", params)


def test_rabi_frequency_anchors():
    # 3-4-5 triangle: delta = 3, 2 lam sqrt(N) = 4
    params = ModelParams(omega=1.0, omega0=4.0, lam=2.0)
    assert rabi_frequency(1, params) == 5.0
    on_res = ModelParams(lam=0.7)
    assert abs(rabi_frequency(4, on_res) - 2 * 0.7 * 2.0) < 1e-15
    with pytest.raises(InvalidN):
        rabi_frequency(0, params)


def test_mixing_angle():
    assert mixing_angle(3, ModelParams(lam=0.5)) == math.pi / 2
    assert mixing_angle(1, ModelParams(omega0=2.0, lam=0.0)) == 0.0
    with pytest.raises(DegenerateAngle):
        mixing_angle(1, ModelParams(lam=0.0))


def test_singlet_energy():
    assert dressed_energy(DressedLabel("minus", 0), ModelParams(omega0=1.7)) == -0.85


def test_closed_energies_match_oracle():
    params = ModelParams(omega=1.0, omega0=1.3, lam=0.7)
    cfg = HilbertConfig(60)
    for model in ("jc", "ajc"):
        p = params if model == "jc" else ModelParams(omega=1.0, omega0=1.3, mu=0.7)
        sol = diagonalize(build_hamiltonian(cfg, p, model))
        closed = [e for e, _ in lowest_closed_levels(p, 10, model)]
        assert np.abs(sol.eigenvalues[:10] - np.array(closed)).max() < 1e-10


def test_dressed_states_are_eigenvectors():
    cfg = HilbertConfig(30)
    params = ModelParams(omega=0.9, omega0=1.4, lam=0.6, theta=0.8)
    h = build_hamiltonian(cfg, params, "jc")
    for label in [DressedLabel("minus", 0), DressedLabel("minus", 3),
                  DressedLabel("plus", 3), DressedLabel("plus", 7)]:
        st = dressed_state(label, params, cfg)
        e = dressed_energy(label, params)
        assert np.linalg.norm(h @ st.amplitudes - e * st.amplitudes) < 1e-12
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-14
    # the twin model, with its own phase convention
    pa = ModelParams(omega=0.9, omega0=1.4, mu=0.6, theta=0.8)
    ha = build_hamiltonian(cfg, pa, "ajc")
    for label in [DressedLabel("minus", 0, "ajc"), DressedLabel("plus", 2, "ajc")]:
        st = dressed_state(label, pa, cfg)
        e = dressed_energy(label, pa)
        assert np.linalg.norm(ha @ st.amplitudes - e * st.amplitudes) < 1e-12


def test_dressed_state_needs_room():
    with pytest.raises(TruncationTooSmall):
        dressed_state(DressedLabel("minus", 9), ModelParams(lam=1.0), HilbertConfig(5))


def test_lowest_levels_sorted_and_ground_tracks_coupling():
    weak = lowest_closed_levels(ModelParams(lam=0.2), 8)
    energies = [e for e, _ in weak]
    assert energies == sorted(energies)
    assert weak[0][1] == DressedLabel("minus", 0)
    # past the first critical coupling the singlet is no longer lowest
    strong = lowest_closed_levels(ModelParams(lam=2.0), 8)
    assert strong[0][1] == DressedLabel("minus", 1)
    with pytest.raises(InvalidN):
        lowest_closed_levels(ModelParams(), 0)


def test_crossing_pair_anchor():
    rec = crossing_pair(1, 2, "minus", ModelParams())
    assert rec is not None
    assert abs(rec.coupling - (1.0 + math.sqrt(2.0))) < 1e-12
    assert rec.left == DressedLabel("minus", 1)
    assert rec.right == DressedLabel("minus", 2)
    # the crossing really is a degeneracy of the two closed energies
    at = ModelParams(lam=rec.coupling)
    assert abs(dressed_energy(rec.left, at) - dressed_energy(rec.right, at)) < 1e-12
    assert crossing_pair(0, 1, "plus", ModelParams()) is None
    with pytest.raises(InvalidN):
        crossing_pair(2, 1, "minus", ModelParams())


def test_ground_state_critical():
    params = ModelParams(omega=1.0, omega0=1.5)
    assert abs(ground_state_critical(1, params) - math.sqrt(1.5)) < 1e-14
    for n in range(1, 6):
        lam_n = ground_state_critical(n, ModelParams())
        assert abs(lam_n - (math.sqrt(n) + math.sqrt(n - 1.0))) < 1e-12
    with pytest.raises(InvalidN):
        ground_state_critical(0, params)
    # below resonance the singlet still hands over at sqrt(omega*omega0):
    # Omega(0) is the signed detuning
    below = ModelParams(omega=1.0, omega0=0.5)
    assert abs(ground_state_critical(1, below) - math.sqrt(0.5)) < 1e-14
    with pytest.raises(InvalidN):
        ground_state_critical(1, ModelParams(omega=1.0, omega0=-0.5))


def test_reduced_density_fermion_weights():
    # 3-4-5 sector: spin populations (Omega -/+ delta)/(2 Omega) = 0.2, 0.8
    params = ModelParams(omega=1.0, omega0=4.0, lam=2.0)
    for branch in ("plus", "minus"):
        rho = reduced_density(DressedLabel(branch, 1), params, "fermion")
        evals = np.sort(np.linalg.eigvalsh(rho))
        assert np.abs(evals - np.array([0.2, 0.8])).max() < 1e-14
        assert abs(np.trace(rho).real - 1.0) < 1e-14


def test_reduced_density_boson_support():
    params = ModelParams(lam=0.5)
    rho = reduced_density(DressedLabel("plus", 3), params, "boson", HilbertConfig(8))
    pops = np.real(np.diag(rho))
    assert abs(pops[2] + pops[3] - 1.0) < 1e-14
    assert np.abs(np.delete(pops, [2, 3])).max() < 1e-15
    with pytest.raises(ValueError):
        reduced_density(DressedLabel("minus", 1), params, "spin")


def test_entropies():
    pure = np.diag([1.0, 0.0])
    assert von_neumann_entropy(pure) == 0.0
    # resonance mixes the two slots evenly: entropy ln 2
    rho = reduced_density(DressedLabel("minus", 2), ModelParams(lam=0.9), "fermion")
    assert abs(von_neumann_entropy(rho) - math.log(2.0)) < 1e-12
