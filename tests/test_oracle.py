import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from susyjc import oracle
from susyjc.errors import NoConvergence
from susyjc.far import far_chains, far_from_alphas
from susyjc.hilbert import (HilbertConfig, ModelParams, ParityChains,
                            excitation_number, parity_chains)
from susyjc.jc import DressedLabel, ground_state_critical
from susyjc.oracle import (_ground_label, _real_chain, _sectors,
                           certify_cutoff, certify_truncation, eigenvalues,
                           find_crossings)


def test_certify_truncation_on_decoupled_model():
    params = ModelParams(omega=1.0, omega0=0.6, lam=0.0)
    sol = certify_truncation(
        lambda n_max: parity_chains(HilbertConfig(n_max), params, "jc"), k_levels=6)
    assert sol.converged_levels >= 6
    expected = sorted([n - 0.3 for n in range(4)] + [n + 0.3 for n in range(4)])[:6]
    assert np.abs(sol.eigenvalues[:6] - np.array(expected)).max() < 1e-12


def test_certify_truncation_gives_up_at_the_cap():
    # a builder whose lowest eigenvalue keeps drifting with the cutoff
    builder = lambda n: ParityChains(np.full((2, n + 1), -float(n)), np.zeros((2, n)))
    with pytest.raises(NoConvergence, match="n_max=2048"):
        certify_truncation(builder, k_levels=1)
    with pytest.raises(ValueError):
        certify_truncation(builder, k_levels=0)


@pytest.mark.parametrize("chain, k_levels", [
    (lambda n: parity_chains(HilbertConfig(n), ModelParams(omega=0.5, lam=0.8), "jc"), 8),
    (lambda n: far_chains(HilbertConfig(n), far_from_alphas(0.01, 1.0, 2.8)), 11),
], ids=["jc", "far"])
def test_chain_and_dense_builders_certify_alike(chain, k_levels):
    a = certify_truncation(chain, k_levels=k_levels)
    assert a.n_max_used > 32
    assert a.converged_levels >= k_levels
    # the dense reference at the certifying cutoff
    dense = np.linalg.eigh(chain(a.n_max_used).dense()).eigenvalues
    assert np.abs(a.eigenvalues - dense).max() < 1e-11
    pinned = certify_cutoff(chain, a.n_max_used)
    assert pinned.n_max_used == a.n_max_used
    assert pinned.converged_levels >= k_levels


def _jc_chains(n_max, model="jc", **params):
    cfg = HilbertConfig(n_max)
    knob = "lam" if model == "jc" else "mu"
    return lambda x: parity_chains(cfg, ModelParams(**params, **{knob: x}), model)


def test_find_crossings_jc_ground_hop():
    builder = _jc_chains(40, omega=1.0, omega0=1.0)
    recs = find_crossings(builder, (0.5, 1.5), grid_points=60, label_model="jc")
    assert len(recs) == 1
    assert abs(recs[0].coupling - 1.0) < 1e-9
    assert recs[0].left == DressedLabel("minus", 0)
    assert recs[0].right == DressedLabel("minus", 1)
    # ajc conserves N-, and its ground state hops at the same coupling
    recs_ajc = find_crossings(_jc_chains(40, "ajc", omega=1.0, omega0=1.0),
                              (0.5, 1.5), grid_points=60, label_model="ajc")
    assert [(r.left, r.right) for r in recs_ajc] == [
        (DressedLabel("minus", 0, "ajc"), DressedLabel("minus", 1, "ajc"))]
    assert abs(recs_ajc[0].coupling - 1.0) < 1e-9
    # no label model, no labels
    recs = find_crossings(builder, (0.5, 1.5), grid_points=60)
    assert recs[0].left is None and recs[0].right is None
    # a window below the first critical coupling is empty
    assert find_crossings(builder, (0.2, 0.8), grid_points=40) == []


def _chains(diag0, diag1, off0=()):
    """ParityChains with the given diagonals; only chain 0 is coupled."""
    diag = np.array([diag0, diag1], dtype=float)
    off = np.array([off0, np.zeros(len(off0))], dtype=complex)
    return ParityChains(diag, off.reshape(2, -1))


def test_find_crossings_between_chains_only():
    # two levels coupled inside one chain avoid each other: no crossing
    avoided = lambda x: _chains([x, -x], [10.0, 10.0], [0.1])
    assert find_crossings(avoided, (-1.0, 1.0), grid_points=41) == []
    # two decoupled chains cross where their levels meet; at 41 points the
    # gap is exactly 0 on the grid point x = 0, which is the crossing
    crossing = lambda x: _chains([x], [-x])
    recs = find_crossings(crossing, (-1.0, 1.0), grid_points=41)
    assert len(recs) == 1 and recs[0].coupling == 0.0
    assert recs[0].left is None and recs[0].right is None
    # off the grid the sign change is refined to xtol
    recs = find_crossings(crossing, (-1.0, 1.0), grid_points=40, xtol=1e-9)
    assert len(recs) == 1 and abs(recs[0].coupling) <= 1e-9
    # a gap that touches 0 without changing sign is no crossing
    touch = lambda x: _chains([x * x], [0.0])
    assert find_crossings(touch, (-1.0, 1.0), grid_points=41) == []


@settings(max_examples=80, deadline=None)
@given(model=st.sampled_from(["jc", "ajc"]),
       omega=st.floats(0.3, 2.0), omega0=st.floats(0.1, 3.0),
       ends=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2, unique=True),
       grid_points=st.integers(3, 80))
def test_sector_crossings_match_the_closed_critical_couplings(model, omega, omega0,
                                                              ends, grid_points):
    # every hop +-ground_state_critical(N) inside the range, and not within
    # the refinement's reach of an end, is found once: N - 1 -> N at
    # positive coupling, N -> N - 1 at negative. A coarse grid hides
    # several hops in one cell, and a cell across 0 hides pairs of them
    # (the ground N falls toward 0 and rises again). At |coupling| <= 4
    # and omega >= 0.3 the ground sector is below N = 45, and the sectors
    # up to N = 80 are exact at a cutoff of 80
    lo, hi = sorted(ends)
    params = ModelParams(omega=omega, omega0=omega0)
    hops, n = [], 1
    while (x := ground_state_critical(n, params)) < max(-lo, hi) + 1e-6:
        assume(min(abs(abs(end) - x) for end in ends) > 1e-6)
        hops += [hop for hop in ((-x, n, n - 1), (x, n - 1, n)) if lo < hop[0] < hi]
        n += 1
    xtol = 1e-9
    recs = find_crossings(_jc_chains(80, model, omega=omega, omega0=omega0),
                          (lo, hi), grid_points=grid_points, xtol=xtol,
                          label_model=model)
    assert len(recs) == len(hops)
    for (x, left, right), rec in zip(sorted(hops), recs):
        assert abs(rec.coupling - x) <= xtol
        assert rec.left == DressedLabel("minus", left, model)
        assert rec.right == DressedLabel("minus", right, model)


def test_find_crossings_argument_guards():
    builder = _jc_chains(4)
    with pytest.raises(ValueError):
        find_crossings(builder, (1.0, 0.5))
    with pytest.raises(ValueError):
        find_crossings(builder, (0.0, 1.0), grid_points=2)
    with pytest.raises(ValueError):
        find_crossings(builder, (0.0, 1.0), label_model="ar")


def _chain_excitations(cfg, model):
    """The conserved excitation number of each chain level, (2, n_fock),
    read off the excitation_number operator's diagonal through chain_spin."""
    diag = excitation_number(cfg, {"jc": "plus", "ajc": "minus"}[model]).diags[0].real
    return diag[cfg.chain_spin() * cfg.n_fock + np.arange(cfg.n_fock)]


@pytest.mark.parametrize("model", ["jc", "ajc"])
def test_ground_labels_read_the_excitation_operator(model):
    # sink each chain level in turn far below the rest: the ground label is
    # then that level's own excitation number
    cfg = HilbertConfig(9)
    knob = "lam" if model == "jc" else "mu"
    h = parity_chains(cfg, ModelParams(omega0=1.3, **{knob: 0.4}), model)
    n_k = _chain_excitations(cfg, model)
    for chain in (0, 1):
        for k in range(cfg.n_fock):
            d, e = _real_chain(h.diag[chain].copy(), h.off[chain])
            d[k] -= 100.0
            label = _ground_label(_sectors(d, e), chain, model)
            assert label == DressedLabel("minus", int(n_k[chain, k]), model)


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(["jc", "ajc"]),
       omega=st.floats(-3.0, 3.0), omega0=st.floats(-3.0, 3.0),
       coupling=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       n_max=st.integers(0, 300))
@example(model="jc", omega=0.0, omega0=2.2250738585e-313,
         coupling=2.2250738585e-313, n_max=259)
def test_sector_solve_matches_the_tridiagonal_solver(model, omega, omega0,
                                                     coupling, n_max):
    # jc/ajc chains split into excitation-number sectors, which label their
    # ground states; their spectra are solved by dstev like any other chain,
    # and the reference is SciPy's tridiagonal solver on the same chain
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
    knob = "lam" if model == "jc" else "mu"
    h = parity_chains(HilbertConfig(n_max), ModelParams(
        omega=omega, omega0=omega0, **{knob: coupling}), model)
    ref = []
    for chain in (0, 1):
        d, e = _real_chain(h.diag[chain], h.off[chain])
        assert _sectors(d, e) is not None
        ref.append(eigvalsh_tridiagonal(d, e))
        chain_scale = max(np.abs(d).max(), e.max(initial=0.0))
        # the old label: sum_k |v_k|^2 N_k over the ground eigenvector,
        # rounded, where the ground state is not degenerate
        if d.size > 1 and ref[-1][1] - ref[-1][0] > 1e-9 * (1.0 + chain_scale):
            _, vec = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
            n_k = _chain_excitations(HilbertConfig(n_max), model)[chain]
            old = int(round(float(np.abs(vec[:, 0]) ** 2 @ n_k)))
            assert _ground_label(_sectors(d, e), chain, model) == DressedLabel("minus", old, model)
    ref = np.sort(np.concatenate(ref))
    scale = max(np.abs(h.diag).max(), np.abs(h.off).max(initial=0.0))
    # floored at one subnormal step: with subnormal entries 4 eps scale
    # underflows to 0, while the routes may still differ by one step
    bound = max(4 * np.finfo(float).eps * scale, np.nextafter(0.0, 1.0))
    assert np.abs(eigenvalues(h) - ref).max() <= bound


def _stacked_sector_eigenvalues(diag, off):
    """The reference spectrum of a real chain that splits into blocks of <= 2
    states: every 2x2 block in one stacked numpy eigvalsh, each singlet as
    its diagonal entry, in ascending order."""
    pairs = np.flatnonzero(off)
    blocks = np.zeros((pairs.size, 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = diag[pairs], diag[pairs + 1]
    blocks[:, 0, 1] = blocks[:, 1, 0] = off[pairs]
    single = np.ones(diag.size, bool)
    single[pairs] = single[pairs + 1] = False
    return np.sort(np.concatenate([np.linalg.eigvalsh(blocks).ravel(), diag[single]]))


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from([("jc", "lam"), ("ajc", "mu"), ("ar", "lam"), ("ar", "mu")]),
       exponent=st.one_of(st.floats(-140.0, 140.0), st.floats(-323.0, 302.0)),
       omega=st.floats(-3.0, 3.0), omega0=st.floats(-3.0, 3.0),
       coupling=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       n_max=st.integers(0, 599))
def test_split_chains_solve_as_the_stacked_sector_route(model, exponent, omega, omega0,
                                                        coupling, n_max):
    # dstev runs dsterf, which splits a chain at its zero couplings and
    # solves each 2x2 block as numpy's eigvalsh solves a stacked one: the
    # bits are the same unless dstev or numpy rescales, which they do
    # where the chain's (dstev) or the block's (numpy) largest entry is
    # outside about [1.5e-146, 6.7e145]. There the routes differ by at
    # most 3.9 (eps scale + one subnormal step) on 72000 random chains
    # (ar with one coupling only: the other is 0, so its chains split)
    (name, knob), scale = model, 10.0 ** exponent
    h = parity_chains(HilbertConfig(n_max), ModelParams(
        omega=scale * omega, omega0=scale * omega0, **{knob: scale * coupling}), name)
    ref, smallest_block = [], np.inf
    for chain in (0, 1):
        d, e = _real_chain(h.diag[chain], h.off[chain])
        assert _sectors(d, e) is not None
        ref.append(_stacked_sector_eigenvalues(d, e))
        pairs = np.flatnonzero(e)
        block_max = np.maximum.reduce([np.abs(d[pairs]), np.abs(d[pairs + 1]), e[pairs]])
        smallest_block = min(smallest_block, block_max.min(initial=np.abs(d).max()))
    ref = np.sort(np.concatenate(ref))
    got = eigenvalues(h)
    largest = max(np.abs(h.diag).max(), np.abs(h.off).max(initial=0.0))
    if 1e-145 <= smallest_block and largest <= 1e145:
        assert np.array_equal(got, ref)
    else:
        tiny = np.nextafter(0.0, 1.0)
        assert np.abs(got - ref).max() <= 8 * (np.finfo(float).eps * largest + tiny)


@st.composite
def _real_chains(draw):
    """A chain of 1..600 states at an entry scale in 1e-150..1e150, with
    couplings of either sign or zero, made real by `_real_chain`."""
    m = draw(st.integers(1, 600))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    off = rng.uniform(-1.0, 1.0, m - 1)
    off[rng.random(m - 1) < draw(st.floats(0.0, 1.0))] = 0.0
    return _real_chain(scale * rng.uniform(-1.0, 1.0, m), scale * off)


def _dense_eigvalsh(diag, off):
    """numpy's eigvalsh of the chain (diag, off) as a dense symmetric matrix."""
    n = diag.size
    a = np.diag(diag)
    a.flat[n::n + 1] = off
    return np.linalg.eigvalsh(a, UPLO="L")


@settings(max_examples=300, deadline=None)
@given(chain=_real_chains())
def test_chain_solve_equals_dense_eigvalsh_and_the_tridiagonal_solver(chain):
    # dstev scales the chain and runs dsterf, as numpy's dense eigvalsh does
    # after a reduction that leaves a tridiagonal input unchanged, and as
    # SciPy's tridiagonal solver does: the routes agree bitwise, also through
    # SciPy's dstev where numpy's LAPACK has none
    from scipy.linalg import eigvalsh_tridiagonal
    got = oracle._tridiagonal_eigenvalues(*chain)
    assert np.array_equal(got, _dense_eigvalsh(*chain))
    assert np.array_equal(got, eigvalsh_tridiagonal(*chain))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_numpy_dstev", lambda: None)
        assert np.array_equal(oracle._tridiagonal_eigenvalues(*chain), got)


@st.composite
def _lowest_chains(draw):
    """A real chain for the lowest-level solver: an ar or far chain from the
    builders, or a random one of 1..600 states at an entry scale in
    1e-150..1e150 with zero couplings (a reducible chain), couplings at
    eps times the scale (dropped by `_real_chain`) and, if drawn, two equal
    uncoupled blocks (an exactly degenerate lowest level)."""
    kind = draw(st.sampled_from(["random", "ar", "far"]))
    if kind != "random":
        cfg = HilbertConfig(draw(st.integers(0, 300)))
        if kind == "ar":
            h = parity_chains(cfg, ModelParams(
                omega=draw(st.floats(0.05, 2.0)), omega0=draw(st.floats(-3.0, 3.0)),
                lam=draw(st.floats(-3.0, 3.0)), mu=draw(st.floats(-3.0, 3.0))), "ar")
        else:
            alpha_r = draw(st.floats(1.05, 5.0))
            h = far_chains(cfg, far_from_alphas(draw(st.floats(0.0, 1.0)), 1.0, alpha_r))
        chain = draw(st.integers(0, 1))
        return _real_chain(h.diag[chain], h.off[chain])
    m = draw(st.integers(1, 600))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diag, off = rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
    off[rng.random(m - 1) < draw(st.floats(0.0, 1.0))] = 0.0
    off[rng.random(m - 1) < draw(st.floats(0.0, 0.5))] *= np.finfo(float).eps
    if m >= 2 and draw(st.booleans()):
        k = m // 2
        diag[k:2 * k], off[k:2 * k - 1] = diag[:k], off[:k - 1]
        off[k - 1] = 0.0
        off[2 * k - 1:] = 0.0
        diag[2 * k:] = 1.0
    return _real_chain(scale * diag, scale * off)


@settings(max_examples=300, deadline=None)
@given(chain=_lowest_chains())
def test_lowest_level_matches_the_dense_and_tridiagonal_solvers(chain):
    # Laguerre's method on the chain's pivots against numpy's dense eigvalsh
    # and SciPy's selective bisection, within the bound the dense and SciPy
    # lowest levels were held to; without the scaling step the squared
    # couplings overflow or underflow at the scale ends and this fails
    from scipy.linalg import eigvalsh_tridiagonal
    diag, off = chain
    got = oracle._lowest(diag, off)
    scale = max(np.abs(diag).max(), off.max(initial=0.0))
    bound = 2 * (diag.size + 8) * np.finfo(float).eps * scale
    assert abs(got - _dense_eigvalsh(diag, off)[0]) <= bound
    ref = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    assert abs(got - ref[0]) <= bound


def _spy_on_chain_solves(monkeypatch):
    """The row counts of the full-spectrum chain solves from here on."""
    sizes = []
    solve = oracle._tridiagonal_eigenvalues
    monkeypatch.setattr(oracle, "_tridiagonal_eigenvalues",
                        lambda d, e: sizes.append(d.size) or solve(d, e))
    return sizes


def test_results_do_not_depend_on_the_lapack_route(monkeypatch):
    # every chain, split (jc) or not (ar/far), goes to dstev in numpy's
    # LAPACK, or in SciPy's where numpy's has none: the same solution either
    # way, every chain solved on its two vectors, both chains of each rung
    sizes = _spy_on_chain_solves(monkeypatch)
    jc = ModelParams(omega=0.5, lam=0.8)
    ar = ModelParams(omega=1.0, omega0=1.0, lam=0.7, mu=0.2)
    for builder in (lambda n: parity_chains(HilbertConfig(n), jc, "jc"),
                    lambda n: parity_chains(HilbertConfig(n), ar, "ar"),
                    lambda n: far_chains(HilbertConfig(n), far_from_alphas(0.01, 1.0, 2.8))):
        runs = {}
        for route, resolver in (("numpy", oracle._numpy_dstev), ("scipy", lambda: None)):
            monkeypatch.setattr(oracle, "_numpy_dstev", resolver)
            sizes.clear()
            runs[route] = (certify_truncation(builder, k_levels=8),
                           certify_cutoff(builder, 64), sorted(sizes))
        truncation, cutoff, solved = runs["numpy"]
        assert truncation.n_max_used >= 64
        rungs = [n + 1 for n in (32, 64, 128, 256, 512, 1024) if n <= truncation.n_max_used]
        assert solved == sorted(2 * rungs + [65, 65, 129, 129])
        for got_truncation, got_cutoff, got_solved in runs.values():
            assert got_solved == solved
            for got, ref in ((got_truncation, truncation), (got_cutoff, cutoff)):
                assert np.array_equal(got.eigenvalues, ref.eigenvalues)
                assert (got.converged_levels, got.n_max_used) == (ref.converged_levels,
                                                                  ref.n_max_used)


def test_crossings_run_no_full_spectrum_solve(monkeypatch):
    # a crossing search solves lowest levels only, by the sector solve or
    # by _lowest: no chain goes to dstev, on either LAPACK route, and the
    # couplings and labels are the same on both
    sizes = _spy_on_chain_solves(monkeypatch)
    ar = lambda x: parity_chains(HilbertConfig(40),
                                 ModelParams(omega=1.0, omega0=1.0, lam=x, mu=0.2), "ar")
    far = lambda x: far_chains(HilbertConfig(40), far_from_alphas(0.01, 1.0, x))
    jc = _jc_chains(40, omega=1.0, omega0=1.0)
    for builder, coupling_range, label_model in ((ar, (0.0, 1.5), None),
                                                 (far, (0.1, 8.0), None),
                                                 (jc, (0.5, 1.5), "jc")):
        runs = []
        for resolver in (oracle._numpy_dstev, lambda: None):
            monkeypatch.setattr(oracle, "_numpy_dstev", resolver)
            records = find_crossings(builder, coupling_range, grid_points=20,
                                     label_model=label_model)
            runs.append([(rec.coupling, rec.left, rec.right) for rec in records])
        assert len(runs[0]) == 1 and runs[0] == runs[1]
    assert runs[0][0][1:] == (DressedLabel("minus", 0), DressedLabel("minus", 1))
    assert sizes == []


def test_full_spectra_run_no_stacked_sector_solve(monkeypatch):
    # every full spectrum, split chain or not, is solved by dstev: numpy's
    # eigvalsh runs only where a crossing search reads a chain's sectors
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args, **kw: calls.append(args) or eigvalsh(*args, **kw))
    chains = lambda model, **p: lambda n: parity_chains(HilbertConfig(n), ModelParams(**p),
                                                        model)
    for builder in (chains("jc", lam=0.8), chains("ajc", mu=0.8),
                    chains("ar", lam=0.7, mu=0.2), chains("ar", lam=0.7), chains("ar", mu=0.7),
                    lambda n: far_chains(HilbertConfig(n), far_from_alphas(0.01, 1.0, 2.8))):
        assert eigenvalues(builder(8)).size == 18
        certify_truncation(builder, k_levels=4)
        certify_cutoff(builder, 16)
    assert calls == []
    find_crossings(_jc_chains(8), (0.5, 1.5), grid_points=3)
    assert calls


def test_the_chain_solver_is_numpys_own_lapack():
    # numpy's wheels link scipy-openblas, which exports dstev as
    # scipy_dstev_64_; a numpy that renames it fails here instead of
    # quietly loading SciPy for every ar/far spectrum
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack["name"] != "scipy-openblas":
        pytest.skip(f"numpy links {lapack['name']}, not scipy-openblas")
    assert oracle._numpy_dstev() is not None


def test_a_chain_solve_at_the_cap_runs_in_linear_memory():
    # the 2049-row far chains at CAP_N_MAX, solved in a fresh interpreter
    # under tracemalloc on their two vectors: a dense matrix of one chain
    # would take 33.6 MB, and importing SciPy alone some 15 MB
    code = (
        "import tracemalloc\n"
        "from susyjc.far import far_chains, far_from_alphas\n"
        "from susyjc.hilbert import HilbertConfig\n"
        "from susyjc.oracle import CAP_N_MAX, eigenvalues\n"
        "h = far_chains(HilbertConfig(CAP_N_MAX), far_from_alphas(0.01, 1.0, 2.8))\n"
        "tracemalloc.start()\n"
        "assert eigenvalues(h).size == 2 * (CAP_N_MAX + 1)\n"
        "print(tracemalloc.get_traced_memory()[1])\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert int(cp.stdout) < 1e6, int(cp.stdout)


def _gap_builder(gap, calls):
    """A builder of two one-state chains whose gap is gap(x), counting its
    calls."""
    return lambda x: calls.append(x) or _chains([gap(x)], [0.0])


def test_false_position_returns_an_exact_zero():
    # the grid cell [0.5, 1.5] of a linear gap: the first false-position
    # step lands on its zero, 1.0, where the gap is exactly 0
    calls = []
    recs = find_crossings(_gap_builder(lambda x: x - 1.0, calls), (0.5, 2.5),
                          grid_points=3)
    assert [rec.coupling for rec in recs] == [1.0]
    assert len(calls) == 3 + 1


@settings(max_examples=300, deadline=None)
@given(root=st.floats(0.0, 1.0), noise=st.floats(0.0, 0.5), step=st.booleans(),
       height=st.floats(1e-3, 1e6), xtol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
def test_false_position_needs_at_most_twice_bisections_count(root, noise, step,
                                                             height, xtol):
    # a step gap gives false position no slope to use (a lopsided one keeps
    # it on one side), and a noisy one (pseudo-random at the xtol scale) a
    # misleading one: each still ends on a sign bracket <= xtol within
    # 2 x bisection's count + 2 evaluations
    calls = []

    def gap(x):
        calls.append(x)
        if step:
            return -1.0 if x < root else height
        return x - root + noise * math.sin(1e12 * x)

    a, b = -0.5, 1.5
    g_a, g_b = gap(a), gap(b)
    assume((g_a < 0) != (g_b < 0))
    calls.clear()
    a, b = oracle._false_position(gap, a, b, g_a, g_b, xtol)
    assert len(calls) <= 2 * math.ceil(math.log2(2.0 / xtol)) + 2
    assert b - a <= xtol
    assert a == b and gap(a) == 0.0 or (gap(a) < 0) != (gap(b) < 0)


def test_false_position_stops_at_adjacent_floats():
    # xtol below the float spacing: the bracket can shrink no further once
    # its ends are adjacent floats, and the search must stop there. The
    # evaluation budget stands in for a timeout: a search that loops on the
    # adjacent pair spends it and fails
    c = 1.2599210498948732
    calls = []

    def gap(x):
        calls.append(x)
        if len(calls) > 1000:
            raise RuntimeError("false position did not stop")
        return 1.0 if x >= c else -1.0

    a, b = oracle._false_position(gap, 1.0, 2.0, -1.0, 1.0, 1e-300)
    assert math.nextafter(a, b) == b
    assert a < c <= b
    # within 2 x the 52 bisections that reach adjacent floats in [1, 2], + 2
    assert len(calls) <= 2 * 52 + 2


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(0.3, 2.0), omega0=st.floats(0.1, 3.0), mu=st.floats(0.0, 0.6))
def test_ar_first_hop_law(omega, omega0, mu):
    # the ar ground state first hops between the chains at lam^2 - mu^2 =
    # omega omega0. Over 360 draws, the corners of this box included, the
    # first crossing matched the law within 4.9e-10: the xtol/2 of the
    # refinement, plus rounding that grows where the gap flattens (1.1e-10
    # at omega 0.3, omega0 3, mu 0.6, where a cutoff of 192 does no better)
    xtol = 1e-9
    law = math.sqrt(omega * omega0 + mu * mu)
    builder = lambda x: parity_chains(HilbertConfig(96), ModelParams(
        omega=omega, omega0=omega0, lam=x, mu=mu), "ar")
    recs = find_crossings(builder, (0.5 * law, 1.05 * law), grid_points=20, xtol=xtol)
    assert abs(recs[0].coupling - law) <= xtol


def test_labels_need_a_conserved_excitation_number():
    # an ar chain with mu != 0 does not split: N+ is not conserved there
    ar = lambda x: parity_chains(HilbertConfig(40),
                                 ModelParams(omega=1.0, omega0=1.0, lam=x, mu=0.2), "ar")
    assert len(find_crossings(ar, (0.3, 1.5), grid_points=40)) == 1
    with pytest.raises(ValueError):
        find_crossings(ar, (0.3, 1.5), grid_points=40, label_model="jc")
    # an ajc chain splits, but its sectors mix N+ values
    ajc = parity_chains(HilbertConfig(8), ModelParams(mu=0.5), "ajc")
    with pytest.raises(ValueError):
        _ground_label(_sectors(*oracle._chains(ajc)[0]), 0, "jc")
    # an ar chain whose mu deflates to zero is a jc chain
    params = ModelParams(omega0=0.7, lam=1.3)
    jc = parity_chains(HilbertConfig(40), params, "jc")
    ar = parity_chains(HilbertConfig(40), ModelParams(omega0=0.7, lam=1.3, mu=1e-300), "ar")
    assert np.array_equal(eigenvalues(ar), eigenvalues(jc))
    for chain in (0, 1):
        assert (_ground_label(_sectors(*oracle._chains(ar)[chain]), chain, "jc")
                == _ground_label(_sectors(*oracle._chains(jc)[chain]), chain, "jc"))


def test_a_labeled_search_builds_each_point_once():
    # the labels come from the sector split the gap was read from, so a
    # 40-point jc search with two crossings builds 40 grid points and the
    # 3 points its refinement evaluates, each once
    calls = []
    jc = _jc_chains(64)
    recs = find_crossings(lambda x: calls.append(x) or jc(x), (0.5, 3.0),
                          grid_points=40, label_model="jc")
    assert [(r.left.n_total, r.right.n_total) for r in recs] == [(0, 1), (1, 2)]
    assert len(calls) == len(set(calls)) == 43
    # a chain that does not conserve N is refused at the first point
    calls.clear()
    ar = lambda x: calls.append(x) or parity_chains(
        HilbertConfig(40), ModelParams(omega=1.0, omega0=1.0, lam=x, mu=0.2), "ar")
    with pytest.raises(ValueError):
        find_crossings(ar, (0.3, 1.5), grid_points=40, label_model="jc")
    assert calls == [0.3]
