import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susyjc.anisotropic import (approx_spectrum, effective_hamiltonian,
                                frame_unitary, jc_approximation,
                                lab_frame_offset, quadrature_weights,
                                squeeze_parameter)
from susyjc.errors import DegenerateCouplings, InvalidLabel
from susyjc.hilbert import (HilbertConfig, ModelParams, jc_to_ajc_rotation,
                            parity_chains, su11_generator)
from susyjc.jc import DressedLabel, dressed_energy, lowest_closed_levels


def test_squeeze_parameter_anchor():
    assert squeeze_parameter(3.0, 1.0) == math.log(2.0)
    assert squeeze_parameter(1.0, 3.0) == math.log(2.0)
    with pytest.raises(DegenerateCouplings):
        squeeze_parameter(0.4, 0.4)
    with pytest.raises(ValueError):
        squeeze_parameter(-0.1, 0.3)


def test_frame_unitary_is_unitary_and_records_flip():
    cfg = HilbertConfig(40)
    nf = cfg.n_fock
    fr = frame_unitary(cfg, ModelParams(lam=0.3, mu=0.1))
    assert fr.sign == 1
    # no spin flip: each spin keeps its own block
    assert not fr.unitary[:nf, nf:].any() and not fr.unitary[nf:, :nf].any()
    assert np.abs(fr.unitary.conj().T @ fr.unitary - np.eye(cfg.dim)).max() < 1e-12
    fr2 = frame_unitary(cfg, ModelParams(lam=0.1, mu=0.3))
    assert fr2.sign == -1
    # the spin flip: the two spins' blocks trade places
    assert not fr2.unitary[:nf, :nf].any() and not fr2.unitary[nf:, nf:].any()


@pytest.mark.parametrize("params", [ModelParams(lam=0.3, mu=0.1),
                                    ModelParams(lam=0.1, mu=0.3),
                                    ModelParams(omega=0.5, omega0=0.2, lam=1.1,
                                                mu=0.25)])
def test_frame_unitary_matches_the_composite_space_operators(params):
    # the squeeze from the boson block of Ky = 1 (x) ky and the flip from the
    # jc-to-ajc rotation on a one-state boson space give the same floats
    for n_max in (0, 1, 2, 3, 17, 64, 150):
        cfg = HilbertConfig(n_max)
        fr = frame_unitary(cfg, params)
        w, u = np.linalg.eigh(
            su11_generator(cfg, "y").dense()[:cfg.n_fock, :cfg.n_fock])
        block = (u * np.exp(-1j * fr.xi * w)[None, :]) @ u.conj().T
        spin = (jc_to_ajc_rotation(HilbertConfig(0)).dense()
                if params.mu > params.lam else np.eye(2))
        assert np.array_equal(fr.unitary, np.kron(spin, block)), n_max


def test_frame_unitary_loads_no_scipy():
    # the squeeze is exponentiated through numpy's eigh; the test session
    # itself imports SciPy, so this runs in a fresh interpreter
    code = ("import sys\n"
            "from susyjc import HilbertConfig, ModelParams, frame_unitary\n"
            "frame_unitary(HilbertConfig(40), ModelParams(lam=0.1, mu=0.3))\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.decode().split() == ["False"]


def _frame_defect(params, n_max=140, keep=40):
    """Entrywise defect of V^dag H_lab V = H_eff + offset on low Fock rows.

    The squeeze stretches a level-n state out to roughly e^xi * n quanta, so
    rows within reach of the cutoff are corrupted by the truncated squeeze
    generator and only the low block tests the identity itself.
    """
    cfg = HilbertConfig(n_max)
    h_lab = parity_chains(cfg, params, "ar").dense()
    v = frame_unitary(cfg, params).unitary
    h_rot = v.conj().T @ h_lab @ v
    h_eff = effective_hamiltonian(cfg, params) + lab_frame_offset(params) * np.eye(cfg.dim)
    mask = cfg.boson_index() <= keep
    return float(np.abs((h_rot - h_eff)[np.ix_(mask, mask)]).max())


def test_conjugation_reproduces_effective_hamiltonian():
    assert _frame_defect(ModelParams(lam=0.3, mu=0.1)) < 1e-12
    # counter-rotating-dominated branch goes through the extra spin flip
    assert _frame_defect(ModelParams(lam=0.1, mu=0.3)) < 1e-12
    assert _frame_defect(ModelParams(omega=0.5, omega0=0.2, lam=1.1, mu=0.25)) < 1e-12


def test_effective_hamiltonian_exactly_hermitian():
    cfg = HilbertConfig(25)
    h = effective_hamiltonian(cfg, ModelParams(lam=0.8, mu=0.2))
    assert np.abs(h - h.conj().T).max() == 0.0


def test_spectra_agree_up_to_the_constant():
    params = ModelParams(lam=0.4, mu=0.15)
    cfg = HilbertConfig(140)
    lab = np.linalg.eigh(parity_chains(cfg, params, "ar").dense()).eigenvalues[:12]
    sq = np.linalg.eigh(effective_hamiltonian(cfg, params)).eigenvalues[:12]
    shifts = lab - sq
    assert np.abs(shifts - lab_frame_offset(params)).max() < 1e-8


def test_jc_approximation_parameters():
    ap = jc_approximation(ModelParams(omega=1.0, omega0=1.0, lam=0.1, mu=0.02))
    assert abs(ap.validity - 2.0 * 0.1 * 0.02 / (0.01 + 0.0004)) < 1e-15
    assert abs(ap.params.omega - (0.01 + 0.0004) / (0.01 - 0.0004)) < 1e-15
    assert abs(ap.params.lam - math.sqrt(0.01 - 0.0004)) < 1e-15
    assert (ap.params.omega0, ap.params.mu) == (1.0, 0.0)
    # validity is symmetric in the two couplings; the coupling and the spin
    # splitting take the sign of lam - mu
    swapped = jc_approximation(ModelParams(lam=0.02, mu=0.1))
    assert abs(swapped.validity - ap.validity) < 1e-15
    assert swapped.params.lam < 0 < ap.params.lam
    assert swapped.params.omega0 == -1.0
    # the effective detuning is delta_ar = sgn(lam - mu) omega0 - omega_scaled
    for p in (ModelParams(omega=1.0, omega0=1.0, lam=0.1, mu=0.02),
              ModelParams(omega=0.7, omega0=-0.3, lam=0.2, mu=1.3),
              ModelParams(omega=2.9, omega0=1.7, lam=0.0, mu=0.45)):
        l2, m2 = p.lam ** 2, p.mu ** 2
        sign = 1 if p.lam > p.mu else -1
        delta_ar = sign * p.omega0 - p.omega * (l2 + m2) / abs(l2 - m2)
        assert jc_approximation(p).params.delta == delta_ar


def _swapped(label, params):
    """The label with the branches of an N >= 1 pair swapped when mu > lam:
    approx_spectrum's label of a JC-convention label, and back."""
    if params.mu > params.lam and label.n_total:
        return DressedLabel("plus" if label.branch == "minus" else "minus",
                            label.n_total)
    return label


_COUPLINGS = st.one_of(st.just(0.0), st.floats(0.01, 2.5))
_OMEGA0S = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(omega=st.floats(0.05, 3.0), omega0=_OMEGA0S, lam=_COUPLINGS,
       mu=_COUPLINGS, n=st.one_of(st.integers(0, 8), st.integers(0, 10 ** 6)),
       plus=st.booleans())
@example(omega=1.0, omega0=-0.8, lam=0.3, mu=1.1, n=3, plus=True)
@example(omega=0.4, omega0=-2.0, lam=0.0, mu=0.7, n=5, plus=False)
@example(omega=1.3, omega0=0.6, lam=0.9, mu=0.0, n=0, plus=False)
def test_approx_spectrum_is_the_effective_jc_energy(omega, omega0, lam, mu, n,
                                                    plus):
    assume(lam != mu)
    params = ModelParams(omega=omega, omega0=omega0, lam=lam, mu=mu)
    jc = jc_approximation(params).params
    label = DressedLabel("plus" if plus and n else "minus", n)
    energy = approx_spectrum(label, params)
    assert energy == dressed_energy(_swapped(label, params), jc) + jc.omega / 2
    # the paper's closed form: omega_scaled N +/- sgn(lam - mu) split / 2,
    # and -delta_ar / 2 for the singlet. Rounding reached 2.2 eps times the
    # terms' size on 200000 wider draws (omega 1e-3..1e2, couplings up to
    # 1e3, N up to 1e6)
    split = math.hypot(jc.delta, 2.0 * jc.lam * math.sqrt(n))
    sign = (1.0 if label.branch == "plus" else -1.0) * (1.0 if lam > mu else -1.0)
    closed = jc.omega * n + 0.5 * sign * split if n else -0.5 * jc.delta
    bound = 4 * np.finfo(float).eps * (jc.omega * n + 0.5 * split)
    assert abs(energy - closed) <= bound


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(0.05, 3.0), omega0=_OMEGA0S, lam=_COUPLINGS,
       mu=_COUPLINGS, count=st.integers(1, 12))
# the minus branch bottoms out at N* = 438 here, past a 400-sector window
@example(omega=0.054, omega0=-2.25, lam=0.255, mu=2.33, count=8)
def test_lowest_closed_levels_rank_the_approximate_levels(omega, omega0, lam,
                                                          mu, count):
    assume(lam != mu)
    params = ModelParams(omega=omega, omega0=omega0, lam=lam, mu=mu)
    jc = jc_approximation(params).params
    # every label up to twice past the minus branch's minimum N*: the plus
    # branch rises with N and the minus branch is convex in N
    x, y = jc.lam / jc.omega, jc.delta / jc.lam
    top = 2 * math.ceil(max((x * x - y * y) / 4.0, 0.0)) + count + 1
    labels = [DressedLabel("minus", 0)] + [
        DressedLabel(b, n) for n in range(1, top + 1) for b in ("minus", "plus")]
    window = sorted(approx_spectrum(label, params) for label in labels)[:count]
    ranked = lowest_closed_levels(jc, count)
    assert [e + jc.omega / 2 for e, _ in ranked] == window
    # the ranked labels come in the JC convention of jc
    for e, label in ranked:
        assert approx_spectrum(_swapped(label, params), params) == e + jc.omega / 2


def test_approx_spectrum_tracks_oracle_when_validity_small():
    params = ModelParams(omega=1.0, omega0=1.0, lam=0.1, mu=0.00125)
    ap = jc_approximation(params)
    assert ap.validity < 0.05
    cfg = HilbertConfig(160)
    lab = np.linalg.eigh(parity_chains(cfg, params, "ar").dense()).eigenvalues[:8]
    approx = np.array([e for e, _ in lowest_closed_levels(ap.params, 8)])
    approx = approx + ap.params.omega / 2 + lab_frame_offset(params)
    rel = np.abs(approx - lab) / np.maximum(np.abs(lab), 1e-12)
    assert rel.max() < 0.02
    with pytest.raises(InvalidLabel):
        approx_spectrum("minus:0", params)


def test_quadrature_weights():
    w = quadrature_weights(ModelParams(lam=0.3, mu=0.1))
    assert abs(w["q_squared"] - 0.5) < 1e-15
    assert abs(w["p_squared"] - 2.0) < 1e-15
    # squeeze preserves the phase-space area: the product is always 1
    w2 = quadrature_weights(ModelParams(lam=1.3, mu=0.45))
    assert abs(w2["q_squared"] * w2["p_squared"] - 1.0) < 1e-14
    assert w2["q_squared"] > 0 and w2["p_squared"] > 0
