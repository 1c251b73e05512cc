import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyjc.errors import (DegenerateAngle, InvalidLabel, InvalidN,
                           TruncationTooSmall)
from susyjc.hilbert import (HilbertConfig, ModelParams, excitation_number,
                            parity_chains)
from susyjc.jc import (DressedLabel, coupling_for, crossing_pair,
                       dressed_energy, dressed_state, ground_state_critical,
                       lowest_closed_levels, rabi_frequency,
                       reduced_density, von_neumann_entropy)


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


def test_singlet_energy():
    assert dressed_energy(DressedLabel("minus", 0), ModelParams(omega0=1.7)) == -0.85


def test_closed_energies_match_oracle():
    params = ModelParams(omega=1.0, omega0=1.3, lam=0.7)
    cfg = HilbertConfig(60)
    for model in ("jc", "ajc"):
        p = params if model == "jc" else ModelParams(omega=1.0, omega0=1.3, mu=0.7)
        evals = np.linalg.eigh(parity_chains(cfg, p, model).dense()).eigenvalues
        closed = [e for e, _ in lowest_closed_levels(p, 10, model)]
        assert np.abs(evals[:10] - np.array(closed)).max() < 1e-10


def test_dressed_states_are_eigenvectors():
    # and of the excitation number the model conserves, with eigenvalue N
    cfg = HilbertConfig(30)
    for model, knob, sector in (("jc", "lam", "plus"), ("ajc", "mu", "minus")):
        params = ModelParams(omega=0.9, omega0=1.4, **{knob: 0.6})
        h = parity_chains(cfg, params, model).dense()
        number = excitation_number(cfg, sector).diags[0]
        for branch, n in [("minus", 0), ("minus", 1), ("plus", 2), ("minus", 3),
                          ("plus", 3), ("plus", 7)]:
            label = DressedLabel(branch, n, model)
            st = dressed_state(label, params, cfg)
            e = dressed_energy(label, params)
            assert np.linalg.norm(h @ st - e * st) < 1e-12, label
            assert np.array_equal(number * st, n * st), label
            assert abs(np.linalg.norm(st) - 1.0) < 1e-14, label
            if label.n_total:
                # the phase convention: the |g> amplitude, at the lowest
                # composite index, is real and nonnegative
                g_row = st.reshape(2, cfg.n_fock)[0]
                (g_amp,) = g_row[g_row != 0]
                assert g_amp.imag == 0.0 and g_amp.real >= 0.0, label


def test_dressed_states_are_pinned_bitwise():
    # sha256 of the amplitudes over the four (model, branch) slot cases, above
    # and below resonance and at omega < 0. The amplitudes are real: their
    # imaginary parts are zero and their real parts are hashed
    cfg = HilbertConfig(12)
    digest = hashlib.sha256()
    for model, branch, n, (omega, omega0, g) in itertools.product(
            ("jc", "ajc"), ("plus", "minus"), (1, 2, 5, 11),
            ((0.9, 1.4, 0.6), (1.0, 0.5, 0.3), (1.0, 1.0, 0.7), (-0.4, 1.7, 1.9))):
        knob = {"lam": g} if model == "jc" else {"mu": g}
        params = ModelParams(omega=omega, omega0=omega0, **knob)
        amp = dressed_state(DressedLabel(branch, n, model), params, cfg)
        assert not amp.imag.any()
        digest.update(amp.real.tobytes())
    assert digest.hexdigest() == \
        "1ac0590123ffe51de4da7c60a5550b070364458dcc20de8ef1cfb8525c219cf6"


def test_dressed_state_needs_room():
    with pytest.raises(TruncationTooSmall):
        dressed_state(DressedLabel("minus", 9), ModelParams(lam=1.0), HilbertConfig(5))


def test_dressed_state_of_a_degenerate_sector():
    # on resonance with zero coupling both slots of a sector are degenerate
    for model in ("jc", "ajc"):
        with pytest.raises(DegenerateAngle):
            dressed_state(DressedLabel("plus", 1, model), ModelParams(), HilbertConfig(4))


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


def _enumerated_levels(params, count, model):
    """Reference ranking: every sector up to N = 2 (g/omega)^2 + 2 count + 8,
    stably sorted by energy."""
    g = coupling_for(model, params)
    n_cap = 2 * count + 8
    if params.omega > 0:
        n_cap += int(2.0 * (g / params.omega) ** 2)
    out = [(dressed_energy(DressedLabel("minus", 0, model), params),
            DressedLabel("minus", 0, model))]
    for n in range(1, n_cap + 1):
        for branch in ("plus", "minus"):
            lab = DressedLabel(branch, n, model)
            out.append((dressed_energy(lab, params), lab))
    out.sort(key=lambda t: t[0])
    return out[:count]


@st.composite
def _closed_params(draw):
    omega = draw(st.floats(0.02, 3.0))
    # omega0 = k omega puts the model on resonance (k = 1) or, at g = 0,
    # ties (plus, N) with (minus, N + k - 1)
    omega0 = draw(st.one_of(st.floats(-2.0, 3.0),
                            st.integers(-2, 3).map(lambda k: k * omega)))
    g = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0),
                       st.integers(1, 4).map(lambda k: k * omega)))
    return omega, omega0, g


@settings(max_examples=300, deadline=None)
@given(_closed_params(), st.sampled_from(["jc", "ajc"]), st.integers(1, 25))
@example((0.03, 1.0, 1.0), "jc", 11)
@example((1.0, 1.0, 0.0), "ajc", 25)
@example((1.0, 3.0, 0.0), "jc", 7)
def test_lowest_levels_match_full_enumeration(values, model, count):
    omega, omega0, g = values
    knob = {"lam": g} if model == "jc" else {"mu": g}
    params = ModelParams(omega=omega, omega0=omega0, **knob)
    assert lowest_closed_levels(params, count, model) == \
        _enumerated_levels(params, count, model)


def test_lowest_levels_rank_a_bounded_window(monkeypatch):
    from susyjc import jc
    calls = []

    def counted(label, params):
        calls.append(label)
        return dressed_energy(label, params)

    monkeypatch.setattr(jc, "dressed_energy", counted)
    # jc_1024 of the benchmark: the minimum of the minus branch near N = 278
    lowest_closed_levels(ModelParams(omega=0.03, lam=1.0), 11)
    assert len(calls) <= 3 * 11 + 2
    # at omega <= 0 the levels fall without bound, so none is lowest
    for omega in (-1.0, 0.0):
        with pytest.raises(InvalidN):
            lowest_closed_levels(ModelParams(omega=omega, lam=1.0), 4)
    with pytest.raises(InvalidN):
        lowest_closed_levels(ModelParams(omega=1e-200, lam=1.0), 3)
    with pytest.raises(InvalidN):
        lowest_closed_levels(ModelParams(lam=1e154), 3)


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
    # below resonance the singlet root is the signed detuning
    below = ModelParams(omega=1.0, omega0=0.5)
    rec = crossing_pair(0, 1, "minus", below)
    assert rec.coupling == math.sqrt(0.5) == ground_state_critical(1, below)
    assert rec.left == DressedLabel("minus", 0)


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
    with pytest.raises(InvalidN):  # no hop at all for omega < 0
        ground_state_critical(20, ModelParams(omega=-0.5, omega0=-1.0))


def _hop_radical(n, params):
    # lam_N^2 = omega [ (2N-1) omega + Omega ], Omega = sqrt(delta^2 +
    # 4 N (N-1) omega^2) for N >= 2 and the signed delta for N = 1
    omega = params.omega
    root = params.delta if n == 1 else math.sqrt(
        params.delta ** 2 + 4.0 * n * (n - 1) * omega ** 2)
    return math.sqrt(omega * ((2 * n - 1) * omega + root))


@settings(max_examples=300, deadline=None)
@given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.booleans(),
       st.integers(1, 10 ** 6))
@example(math.log10(47539467.35093621), math.log10(0.00040504841421872814),
         True, 1)
def test_ground_state_critical_is_the_hop_radical(log_omega, log_omega0,
                                                  positive, n):
    # the hop radical, bitwise, wherever it has a positive root; the
    # example cancels omega + delta = omega0 down to 1e-11 of omega
    params = ModelParams(omega=10.0 ** log_omega,
                         omega0=(1.0 if positive else -1.0) * 10.0 ** log_omega0)
    try:
        expected = _hop_radical(n, params)
    except ValueError:  # negative radicand: no hop
        expected = None
    if expected is None or expected == 0.0:
        with pytest.raises(InvalidN):
            ground_state_critical(n, params)
    else:
        assert ground_state_critical(n, params) == expected


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
