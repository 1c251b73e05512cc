import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyjc.algebra import commutator
from susyjc.errors import DimensionMismatch
from susyjc.far import far_chains, far_from_alphas
from susyjc.constants import LABEL_MODELS
from susyjc.hilbert import (JC_AJC, BandedOp, HilbertConfig, ModelParams,
                            _ladder, exchange_op, excitation_number,
                            jc_to_ajc_rotation, parity_chains, parity_op,
                            spin_op, su11_generator)
from susyjc.oracle import eigenvalues

CFG = HilbertConfig(12)


def test_config_rejects_bad_n_max():
    with pytest.raises(ValueError):
        HilbertConfig(-1)
    with pytest.raises(ValueError):
        HilbertConfig(2.5)


def test_config_sizes_and_indexing():
    cfg = HilbertConfig(5)
    assert cfg.n_fock == 6
    assert cfg.dim == 12
    assert cfg.index("g", 0) == 0
    assert cfg.index("e", 0) == 6
    assert cfg.index(1, 3) == 9
    v = cfg.basis_state("e", 2)
    assert v[cfg.index("e", 2)] == 1.0
    assert np.count_nonzero(v) == 1
    with pytest.raises(ValueError):
        cfg.index("g", 6)
    with pytest.raises(ValueError):
        cfg.index("x", 0)


def test_boson_index_layout():
    cfg = HilbertConfig(3)
    assert list(cfg.boson_index()) == [0, 1, 2, 3, 0, 1, 2, 3]


def test_ladder_matrix_elements():
    nf = CFG.n_fock
    a = _ladder(nf, 1).dense()
    adag = _ladder(nf, -1).dense()
    a2 = _ladder(nf, 2).dense()
    for n in range(1, nf):
        ket = np.eye(nf)[n]
        assert abs((a @ ket)[n - 1] - np.sqrt(n)) < 1e-15
    # a^2 holds single-rounded sqrt(n (n-1)), a @ a up to rounding
    for n in range(2, nf):
        assert a2[n - 2, n] == np.sqrt(n * (n - 1.0))
    assert np.abs(a2 - a @ a).max() < 1e-14
    assert np.array_equal(adag, a.T)
    assert np.array_equal(_ladder(nf, -2).dense(), a2.T)
    # creation drops out of the top level
    assert np.allclose(adag @ np.eye(nf)[CFG.n_max], 0.0)
    assert np.allclose(np.diag(adag @ a).real, np.arange(nf))


def test_spin_ops():
    sz = spin_op(CFG, "sigma_z").dense()
    assert np.allclose(np.diag(sz).real, [-1.0] * CFG.n_fock + [1.0] * CFG.n_fock)
    sp = spin_op(CFG, "sigma_plus").dense()
    g0 = CFG.basis_state("g", 0)
    assert np.allclose(sp @ g0, CFG.basis_state("e", 0))
    sx = spin_op(CFG, "sigma_x").dense()
    sy = spin_op(CFG, "sigma_y").dense()
    assert np.abs(sx @ sx - np.eye(CFG.dim)).max() == 0.0
    assert np.abs(sx @ sy + sy @ sx).max() == 0.0
    assert np.abs(spin_op(CFG, "s_z").dense() - sz / 2).max() == 0.0
    with pytest.raises(ValueError):
        spin_op(CFG, "sigma_w")


def test_exchange_actions():
    # rotating family moves one quantum between boson and spin
    qp = exchange_op(CFG, "Q", "plus").dense()
    qm = exchange_op(CFG, "Q", "minus").dense()
    out = qp @ CFG.basis_state("g", 3)
    assert abs(out[CFG.index("e", 2)] - np.sqrt(3)) < 1e-15
    out = qm @ CFG.basis_state("e", 2)
    assert abs(out[CFG.index("g", 3)] - np.sqrt(3)) < 1e-15
    # counter-rotating family moves them the other way round
    rp = exchange_op(CFG, "R", "plus").dense()
    rm = exchange_op(CFG, "R", "minus").dense()
    out = rp @ CFG.basis_state("e", 3)
    assert abs(out[CFG.index("g", 2)] - np.sqrt(3)) < 1e-15
    out = rm @ CFG.basis_state("g", 2)
    assert abs(out[CFG.index("e", 3)] - np.sqrt(3)) < 1e-15
    # adjoint pairing and the x/y combinations
    assert np.abs(qm - qp.conj().T).max() == 0.0
    qx = exchange_op(CFG, "Q", "x").dense()
    qy = exchange_op(CFG, "Q", "y").dense()
    assert np.abs(qx - (qp + qm)).max() == 0.0
    assert np.abs(qy - (-1j) * (qp - qm)).max() == 0.0


def test_excitation_numbers_are_exact_diagonals():
    nplus = excitation_number(CFG, "plus").dense()
    nminus = excitation_number(CFG, "minus").dense()
    for n in range(CFG.n_fock):
        assert nplus[CFG.index("g", n), CFG.index("g", n)] == n
        assert nplus[CFG.index("e", n), CFG.index("e", n)] == n + 1
        assert nminus[CFG.index("g", n), CFG.index("g", n)] == n + 1
        assert nminus[CFG.index("e", n), CFG.index("e", n)] == n
    h = parity_chains(CFG, ModelParams(lam=0.7), "jc").dense()
    assert np.abs(h @ nplus - nplus @ h).max() < 1e-14
    # the jc-to-ajc rotation carries the jc number to the ajc one
    u = jc_to_ajc_rotation(CFG).dense()
    assert np.array_equal(u.conj().T @ nplus @ u, nminus)
    with pytest.raises(ValueError):
        excitation_number(CFG, "jc")
    # the label models' two facts: the coupling read, and the spin (1 = e)
    # whose level adds an excitation
    assert JC_AJC == {"jc": ("lam", 1), "ajc": ("mu", 0)}
    assert tuple(JC_AJC) == LABEL_MODELS


def test_su11_generators():
    kz = su11_generator(CFG, "z").dense()
    assert np.allclose(np.diag(kz).real[:CFG.n_fock],
                       (2 * np.arange(CFG.n_fock) + 1) / 4.0)
    kp = su11_generator(CFG, "plus").dense()
    ket = CFG.basis_state("g", 2)
    out = kp @ ket
    assert abs(out[CFG.index("g", 4)] - 0.5 * np.sqrt(4 * 3)) < 1e-15
    kx = su11_generator(CFG, "x").dense()
    ky = su11_generator(CFG, "y").dense()
    assert np.abs(kp - (kx + 1j * ky)).max() == 0.0
    with pytest.raises(ValueError):
        su11_generator(CFG, "w")


def test_parity_conserved_by_full_coupled_model():
    par = parity_op(CFG).dense()
    assert np.abs(par @ par - np.eye(CFG.dim)).max() == 0.0
    h = parity_chains(CFG, ModelParams(lam=0.6, mu=0.2), "ar").dense()
    assert np.abs(h @ par - par @ h).max() < 1e-14


def test_jc_to_ajc_rotation_is_exact():
    u = jc_to_ajc_rotation(CFG).dense()
    assert np.abs(u.conj().T @ u - np.eye(CFG.dim)).max() == 0.0
    params = ModelParams(omega=1.1, omega0=0.8, lam=0.5, mu=0.5)
    h_jc = parity_chains(CFG, params, "jc").dense()
    h_ajc = parity_chains(CFG, params, "ajc").dense()
    assert np.abs(u.conj().T @ h_jc @ u - h_ajc).max() < 1e-15


def test_hamiltonians_exactly_hermitian():
    for model, params in [("jc", ModelParams(lam=0.9)),
                          ("ajc", ModelParams(mu=0.4)),
                          ("ar", ModelParams(lam=0.9, mu=0.2))]:
        h = parity_chains(CFG, params, model).dense()
        assert np.abs(h - h.conj().T).max() == 0.0


@pytest.mark.parametrize("model", ["jc", "ajc", "ar", "far"])
def test_every_model_builds_real_chains(model):
    # far's coupling phases, like a coupling sign, change no level: its
    # chains are built real too, so dense() mirrors each step unconjugated
    if model == "far":
        chains = far_chains(CFG, far_from_alphas(0.3 * cmath.exp(0.7j),
                                                 cmath.exp(-2.1j),
                                                 0.4 * cmath.exp(1.3j)))
    else:
        chains = parity_chains(CFG, ModelParams(lam=0.9, mu=-0.2), model)
    assert chains.diag.dtype == np.float64 and chains.off.dtype == np.float64
    assert (chains.off != 0.0).any()


def test_model_guards():
    with pytest.raises(ValueError):
        parity_chains(CFG, ModelParams(), "rabi")
    # jc ignores mu, ajc ignores lam
    h1 = parity_chains(CFG, ModelParams(lam=0.5, mu=0.0), "jc").dense()
    h2 = parity_chains(CFG, ModelParams(lam=0.5, mu=9.0), "jc").dense()
    assert np.abs(h1 - h2).max() == 0.0


def test_delta_is_derived():
    assert ModelParams(omega=0.75, omega0=2.0).delta == 1.25


def _kron_reference(cfg, p, model):
    """The Hamiltonian as a sum of lifted operators, term by term."""
    h = p.omega * np.diag(cfg.boson_index().astype(complex))
    sz = spin_op(cfg, "sigma_z").dense()
    q = p.lam * (exchange_op(cfg, "Q", "plus").dense()
                 + exchange_op(cfg, "Q", "minus").dense())
    r = p.mu * (exchange_op(cfg, "R", "minus").dense()
                + exchange_op(cfg, "R", "plus").dense())
    if model == "jc":
        return h + 0.5 * p.omega0 * sz + q
    if model == "ajc":
        return h - 0.5 * p.omega0 * sz - r
    return h + 0.5 * p.omega0 * sz + q + r


_coupling = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["jc", "ajc", "ar"]), n_max=st.integers(0, 60),
       omega=_coupling, omega0=_coupling, lam=_coupling, mu=_coupling)
# a coupling whose square is subnormal, next to O(1) entries: eigenvalue-only
# LAPACK paths that square couplings (numpy's eigvalsh among them) lose 5e-4
@example(model="ar", n_max=16, omega=0.0, omega0=0.0, lam=1.0,
         mu=3.098750209914305e-160)
# lam == mu: the quantum Rabi model, regular in the lab frame
@example(model="ar", n_max=30, omega=1.0, omega0=1.0, lam=0.3, mu=0.3)
def test_parity_chains_match_the_kron_sum(model, n_max, omega, omega0, lam,
                                          mu):
    cfg = HilbertConfig(n_max)
    params = ModelParams(omega=omega, omega0=omega0, lam=lam, mu=mu)
    h = parity_chains(cfg, params, model).dense()
    # the chains assemble the same products of the same floats
    assert np.array_equal(h, _kron_reference(cfg, params, model))
    assert np.array_equal(h, h.conj().T)
    evals = eigenvalues(parity_chains(cfg, params, model))
    scale = max(1.0, float(np.abs(h).max()))
    assert np.abs(evals - np.linalg.eigh(h)[0]).max() < 1e-12 * scale


def test_parity_chain_layout():
    cfg = HilbertConfig(3)
    chains = parity_chains(cfg, ModelParams(omega=1.0, omega0=0.5, lam=0.2,
                                            mu=0.1), "ar")
    # chain 0 is |g,0>, |e,1>, |g,2>, |e,3>; chain 1 its mirror
    assert cfg.chain_spin().tolist() == [[0, 1, 0, 1], [1, 0, 1, 0]]
    assert chains.diag.tolist() == [[-0.25, 1.25, 1.75, 3.25],
                                    [0.25, 0.75, 2.25, 2.75]]
    h = chains.dense()
    for c, spins in enumerate(cfg.chain_spin()):
        for k in range(cfg.n_max):
            row = cfg.index(int(spins[k + 1]), k + 1)
            col = cfg.index(int(spins[k]), k)
            assert h[row, col] == chains.off[c, k]


# ---------------------------------------------------------------------------
# banded storage against dense arithmetic


def _small_ints(n):
    # Gaussian integers keep every dense product exact in any summation order
    part = st.integers(-3, 3)
    return st.lists(st.builds(complex, part, part), min_size=n, max_size=n)


@st.composite
def _banded_pair(draw):
    dim = draw(st.integers(1, 12))
    ops = []
    for _ in range(2):
        op = BandedOp(dim)
        offsets = draw(st.sets(st.integers(1 - dim, dim - 1), max_size=5))
        for k in sorted(offsets):
            values = draw(_small_ints(dim - abs(k)))
            op = op + BandedOp.diagonal(dim, values, k)
        ops.append(op)
    return ops


_scalar = st.one_of(st.floats(-1e3, 1e3),
                    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))


@settings(max_examples=300, deadline=None)
@given(pair=_banded_pair(), c=_scalar, data=st.data())
def test_banded_arithmetic_matches_dense(pair, c, data):
    a, b = pair
    da, db = a.dense(), b.dense()
    assert np.array_equal((a @ b).dense(), da @ db)
    assert np.array_equal((a + b).dense(), da + db)
    assert np.array_equal((a - b).dense(), da - db)
    assert np.array_equal((-a).dense(), -da)
    assert np.array_equal((c * a).dense(), c * da)
    assert np.array_equal((a / 4.0).dense(), da / 4.0)
    assert np.array_equal(commutator(a, b).dense(), da @ db - db @ da)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=a.dim,
                                       max_size=a.dim)), dtype=bool)
    assert a.masked_max(mask) == np.abs(da[np.ix_(mask, mask)]).max(initial=0.0)
    assert a.masked_max() == np.abs(da).max(initial=0.0)


def test_banded_dimension_guard():
    a = BandedOp.diagonal(3, 1.0)
    b = BandedOp.diagonal(4, 1.0)
    for op in (lambda: a @ b, lambda: a + b, lambda: a - b,
               lambda: commutator(a, b)):
        with pytest.raises(DimensionMismatch):
            op()
    with pytest.raises(TypeError):
        a @ np.eye(3)


# The dense kron constructions that the banded factories replace, kept as an
# independent reference: np.kron(spin matrix, boson matrix). Below two Fock
# levels its np.diag(..., 2) is larger than the Fock space, so the su(1,1)
# generators came out 4-square at n_max = 0; it is compared from n_max = 1.
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SM = _SP.T.copy()


def _kron_factory(cfg, name, *args):
    nf = cfg.n_fock
    a = np.diag(np.sqrt(np.arange(1.0, nf)), 1).astype(complex)
    adag = a.conj().T
    n2 = np.arange(2.0, nf)
    a2 = np.diag(np.sqrt(n2 * (n2 - 1.0)), 2).astype(complex)
    a2dag = a2.conj().T
    kz = np.diag((2.0 * np.arange(nf) + 1.0) / 4.0).astype(complex)
    boson = lambda b: np.kron(np.eye(2), b)
    spin = lambda s: np.kron(s, np.eye(nf))
    if name == "spin":
        return spin({"sigma_z": _SZ, "sigma_plus": _SP, "sigma_minus": _SM,
                     "sigma_x": _SP + _SM, "sigma_y": -1j * (_SP - _SM),
                     "s_z": _SZ / 2.0}[args[0]])
    if name == "exchange":
        family, sign = args
        plus, minus = ((np.kron(_SP, a), np.kron(_SM, adag)) if family == "Q"
                       else (np.kron(_SM, a), np.kron(_SP, adag)))
        return {"plus": plus, "minus": minus, "x": plus + minus,
                "y": -1j * (plus - minus)}[sign]
    if name == "excitation":
        n = np.arange(nf, dtype=float)
        diag = (np.concatenate([n, n + 1.0]) if args[0] == "plus"
                else np.concatenate([n + 1.0, n]))
        return np.diag(diag).astype(complex)
    if name == "su11":
        kp, km = a2dag / 2.0, a2 / 2.0
        return boson({
            "x": (a2 + a2dag) / 4.0, "y": -1j * (a2dag - a2) / 4.0, "z": kz,
            "plus": kp, "minus": km,
            "casimir": kz @ kz - 0.5 * (kp @ km + km @ kp)}[args[0]])
    if name == "parity":
        return np.kron(_SZ, np.diag((-1.0) ** np.arange(nf)).astype(complex))
    return spin(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))


_FACTORIES = (
    [("spin", spin_op, (k,)) for k in
     ("sigma_z", "sigma_plus", "sigma_minus", "sigma_x", "sigma_y", "s_z")]
    + [("exchange", exchange_op, (f, s)) for f in "QR"
       for s in ("plus", "minus", "x", "y")]
    + [("excitation", excitation_number, (s,)) for s in ("plus", "minus")]
    + [("su11", su11_generator, (k,)) for k in
       ("x", "y", "z", "plus", "minus", "casimir")]
    + [("parity", parity_op, ()), ("rotation", jc_to_ajc_rotation, ())])


@settings(max_examples=200, deadline=None)
@given(n_max=st.integers(1, 40), which=st.sampled_from(_FACTORIES))
def test_factories_match_the_kron_construction(n_max, which):
    name, factory, args = which
    cfg = HilbertConfig(n_max)
    dense = factory(cfg, *args).dense()
    assert dense.shape == (cfg.dim, cfg.dim)
    assert np.array_equal(dense, _kron_factory(cfg, name, *args))

