import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyjc.errors import DegenerateCouplings, NoConvergence
from susyjc.far import (FarParams, constraint_check, far_chains,
                        far_from_alphas, far_spectrum_shape)
from susyjc.hilbert import (HilbertConfig, ModelParams, exchange_op,
                            parity_chains, spin_op)
from susyjc.oracle import EigenSolution, certify_truncation, eigenvalues

# largest interior difference between the far chains and the ar chains at
# the derived parameters plus omega_c, per unit of the largest interior
# entry (at least 1)
FACTORIZATION_TOL = 1e-12


def _interior_defect(chains, fp):
    """Largest interior (boson level < n_max) difference between far chains
    and the ar chains at fp's derived (omega, omega0, lam, mu) plus
    omega_c, and the largest interior entry of the latter (at least 1)."""
    n = chains.n_max
    expl = parity_chains(HilbertConfig(n),
                         ModelParams(fp.omega, fp.omega0, fp.lam, fp.mu), "ar")
    pairs = [(chains.diag[:, :n], expl.diag[:, :n] + fp.omega_c),
             (chains.off[:, :n - 1], expl.off[:, :n - 1])]
    defect = max(np.abs(f - e).max(initial=0.0) for f, e in pairs)
    scale = max(1.0, *(np.abs(e).max(initial=0.0) for _, e in pairs))
    return defect, scale


def test_parameter_map_anchor():
    fp = far_from_alphas(1.0, 2.0, 1.0)
    assert fp.omega == 2.5
    assert fp.omega0 == 1.5
    assert fp.lam == 2.0
    assert fp.mu == 1.0
    assert fp.omega_c == 1.0 + 1.25
    assert fp.phi_lambda == 0.0 and fp.phi_mu == 0.0
    # the detuning the map enforces
    assert fp.omega0 - fp.omega == -abs(fp.alpha_r) ** 2


def test_parameter_map_phases():
    fp = far_from_alphas(0.01 * cmath.exp(0.3j), cmath.exp(-0.9j),
                         0.5 * cmath.exp(1.2j))
    assert abs(fp.phi_lambda - 1.2) < 1e-15
    assert abs(fp.phi_mu - (-0.9)) < 1e-15
    assert abs(fp.lam - 0.01) < 1e-17
    assert abs(fp.mu - 0.005) < 1e-17


def test_equal_magnitudes_refused():
    with pytest.raises(DegenerateCouplings):
        far_from_alphas(0.5, 1.0, -1.0)
    with pytest.raises(DegenerateCouplings):
        far_from_alphas(0.5, 1.0, cmath.exp(0.4j))


def test_all_couplings_zero_is_a_constant():
    fp = far_from_alphas(0.7, 0.0, 0.0)
    cfg = HilbertConfig(6)
    h = far_chains(cfg, fp).dense()
    assert np.abs(h - 0.49 * np.eye(cfg.dim)).max() < 1e-15


def test_factorized_and_explicit_forms_agree():
    rng = np.random.default_rng(11)
    cfg = HilbertConfig(40)
    for _ in range(10):
        mags = rng.uniform(0.05, 1.5, size=3)
        phases = rng.uniform(-math.pi, math.pi, size=3)
        if abs(mags[1] - mags[2]) < 1e-3:
            mags[2] *= 1.5
        a0, aq, ar = (m * cmath.exp(1j * p) for m, p in zip(mags, phases))
        fp = far_from_alphas(a0, aq, ar)
        chains = far_chains(cfg, fp)
        defect, scale = _interior_defect(chains, fp)
        assert defect <= FACTORIZATION_TOL * scale
        h = chains.dense()
        # anticommutator of an operator with its adjoint: nonnegative
        assert np.linalg.eigvalsh(h).min() > -1e-10
        assert np.abs(h - h.conj().T).max() < 1e-14


def test_hand_built_params_are_caught():
    fp = far_from_alphas(0.3, 1.0, 0.4)
    # a derived parameter cannot be set apart from the coefficients
    with pytest.raises(TypeError):
        FarParams(alpha0=fp.alpha0, alpha_q=fp.alpha_q, alpha_r=fp.alpha_r,
                  omega=fp.omega)
    # replacing a coefficient re-derives every parameter
    moved = dataclasses.replace(fp, alpha_r=0.7)
    ref = far_from_alphas(0.3, 1.0, 0.7)
    for name in ("omega", "omega0", "lam", "mu", "phi_lambda", "phi_mu",
                 "omega_c"):
        assert getattr(moved, name) == getattr(ref, name), name
    assert moved.omega != fp.omega
    checks = constraint_check(moved)
    assert checks["detuning_residual"] < 1e-15
    assert checks["exceptional_residual"] < 1e-15
    good = constraint_check(fp)
    assert good["detuning_residual"] < 1e-15
    assert good["exceptional_residual"] < 1e-15


def test_gate_scales_with_the_entries():
    # entries grow like omega n_max (3.4e4 here), and so does their rounding:
    # a correct build at the cutoff cap differs from the explicit model by
    # 1.46e-11, which an absolute 1e-11 bound would refuse
    fp = far_from_alphas(0.01, 1.0, 5.7)
    bad = dataclasses.replace(fp, alpha_r=fp.alpha_r + 1e-6)
    for n_max in (16, 2048):
        cfg = HilbertConfig(n_max)
        defect, scale = _interior_defect(far_chains(cfg, fp), fp)
        assert defect <= FACTORIZATION_TOL * scale, n_max
        # the comparison sees a wrong build, small cutoff or large
        defect, scale = _interior_defect(far_chains(cfg, bad), fp)
        assert defect > FACTORIZATION_TOL * scale, n_max


_alpha = st.builds(lambda m, p: m * cmath.exp(1j * p),
                   st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))


def _anticommutator(a_op):
    return 0.5 * (a_op @ a_op.conj().T + a_op.conj().T @ a_op)


@settings(max_examples=60, deadline=None)
@given(a0=_alpha, aq=_alpha, ar=_alpha, n_max=st.integers(0, 60))
def test_far_chains_match_the_dense_anticommutator(a0, aq, ar, n_max):
    try:
        fp = far_from_alphas(a0, aq, ar)
    except DegenerateCouplings:
        assume(False)
    cfg = HilbertConfig(n_max)
    q_minus = exchange_op(cfg, "Q", "minus").dense()
    r_minus = exchange_op(cfg, "R", "minus").dense()
    chains = far_chains(cfg, fp)
    # the chains are built real, with nonnegative steps, whatever the phases
    assert chains.off.dtype == np.float64 and (chains.off >= 0.0).all()
    h = chains.dense()
    real = _anticommutator(abs(a0) * np.eye(cfg.dim) + abs(aq) * q_minus
                           + abs(ar) * r_minus)
    scale = max(1.0, float(np.abs(real).max()))
    # every entry, the truncation edge included
    assert np.abs(h - real).max() < 1e-14 * scale
    assert np.array_equal(h, h.conj().T)
    # the phases change no level
    ref = _anticommutator(a0 * np.eye(cfg.dim) + aq * q_minus + ar * r_minus)
    evals = eigenvalues(chains)
    assert np.abs(evals - np.linalg.eigh(ref)[0]).max() < 1e-12 * scale
    # away from the edge, the phased anticommutator is the coupled model
    # that the report prints, phi_lambda and phi_mu included
    q = fp.lam * cmath.exp(-1j * fp.phi_lambda) * q_minus
    r = fp.mu * cmath.exp(-1j * fp.phi_mu) * r_minus
    model = (fp.omega * np.diag(cfg.boson_index().astype(complex))
             + fp.omega0 * spin_op(cfg, "s_z").dense()
             + q + q.conj().T + r + r.conj().T + fp.omega_c * np.eye(cfg.dim))
    inner = cfg.boson_index() < cfg.n_max
    assert np.abs((ref - model)[np.ix_(inner, inner)]).max(initial=0.0) < 1e-14 * scale


@settings(max_examples=300, deadline=None)
@given(aq=st.builds(lambda m, p: m * cmath.exp(1j * p),
                    st.floats(0.01, 2.0), st.floats(-math.pi, math.pi)),
       ar=st.builds(lambda m, p: m * cmath.exp(1j * p),
                    st.floats(0.01, 2.0), st.floats(-math.pi, math.pi)),
       k_levels=st.integers(1, 11))
def test_alpha0_zero_spectrum_is_pinned(aq, ar, k_levels):
    # at alpha0 = 0 both chains are diagonal, and every certified level is
    # one of (|aQ|^2 (n+1) + |aR|^2 n)/2 for (e, n) and
    # (|aQ|^2 n + |aR|^2 (n+1))/2 for (g, n), exactly. The one other
    # outcome is NoConvergence: the truncation-edge levels |aQ|^2 n_max/2
    # and |aR|^2 n_max/2 move with the cutoff, and for |aQ| << |aR| the
    # first stays among the lowest k_levels up to the cap.
    try:
        fp = far_from_alphas(0.0, aq, ar)
    except DegenerateCouplings:
        assume(False)
    try:
        sol = certify_truncation(lambda n: far_chains(HilbertConfig(n), fp),
                                 k_levels=k_levels)
    except NoConvergence:
        return
    aq2, ar2 = abs(fp.alpha_q) ** 2, abs(fp.alpha_r) ** 2
    n = np.arange(sol.n_max_used + 1.0)
    exact = np.sort(np.concatenate([0.5 * (aq2 * (n + 1) + ar2 * n),
                                    0.5 * (aq2 * n + ar2 * (n + 1))]))
    k = sol.converged_levels
    assert np.array_equal(sol.eigenvalues[:k], exact[:k])


def test_pure_rotating_limit_is_a_shifted_resonant_jc():
    # alphaR = 0 collapses the model onto a JC Hamiltonian at resonance,
    # displaced by the constant omega_c
    fp = far_from_alphas(0.4, 1.2, 0.0)
    cfg = HilbertConfig(40)
    assert fp.omega == fp.omega0 and fp.mu == 0.0
    h = far_chains(cfg, fp).dense()
    jc_params = ModelParams(omega=fp.omega, omega0=fp.omega, lam=fp.lam)
    h_jc = parity_chains(cfg, jc_params, "jc").dense() + fp.omega_c * np.eye(cfg.dim)
    # entrywise identical away from the cutoff edge, where the factorized
    # ladder product loses its top diagonal entry
    keep = cfg.boson_index() < cfg.n_max
    assert np.abs((h - h_jc)[np.ix_(keep, keep)]).max() < 1e-13


def test_spectrum_shape_on_synthetic_ladders():
    ideal = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    sol = EigenSolution(ideal, 7, 99)
    shape = far_spectrum_shape(sol)
    assert shape.has_unique_ground
    assert shape.is_equidistant
    assert shape.degeneracies == (1, 2, 2, 2)
    assert abs(shape.spacing - 1.0) < 1e-15
    assert shape.ground_energy == 0.0
    # a split pair is not silently merged
    split = np.array([0.0, 1.0, 1.2, 2.0, 2.2, 3.0, 3.2])
    shape = far_spectrum_shape(EigenSolution(split, 7, 99))
    assert shape.degeneracies == (1, 1, 1, 1, 1, 1, 1)
    assert not shape.is_equidistant
    flat = np.zeros(5)
    shape = far_spectrum_shape(EigenSolution(flat, 5, 99))
    assert not shape.has_unique_ground
    assert shape.spacing == 0.0


def test_spectrum_shape_requires_certification():
    h = far_chains(HilbertConfig(30), far_from_alphas(0.1, 1.0, 0.2)).dense()
    sol = EigenSolution(np.linalg.eigh(h).eigenvalues, 0, 30)
    with pytest.raises(NoConvergence, match="n_max 30 certifies 0$"):
        far_spectrum_shape(sol)


def test_certified_shape_of_a_weakly_coupled_model():
    fp = far_from_alphas(0.01, 1.0, 3.0)
    builder = lambda n: far_chains(HilbertConfig(n), fp)
    sol = certify_truncation(builder, k_levels=9)
    shape = far_spectrum_shape(sol)
    assert shape.has_unique_ground
    assert shape.ground_energy > 0.0
    # excited levels come in near-degenerate pairs whose internal gap is
    # |alphaQ|^2, far above the detector tolerance, so they are reported as
    # split singlets rather than merged pairs
    assert shape.degeneracies[0] == 1
    assert not shape.is_equidistant
    evs = sol.eigenvalues[:9]
    pair_gaps = evs[2::2] - evs[1::2]
    assert np.abs(pair_gaps - 1.0).max() < 0.05
    mids = 0.5 * (evs[2::2] + evs[1::2])
    spac = np.diff(mids)
    assert np.ptp(spac) / spac.mean() < 1e-10
