"""End-to-end acceptance gate.

Each test prints one [criterion NN] PASS/FAIL line with the measured numbers
before asserting, so the transcript always records the outcome of every
criterion. Tolerances are asserted as stated, not at what the code happens
to achieve.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from susyjc.algebra import BITWISE_ZERO, interior_mask, run_all_checks
from susyjc.anisotropic import (effective_hamiltonian, frame_unitary,
                                jc_approximation, lab_frame_offset)
from susyjc.errors import DegenerateCouplings
from susyjc.far import far_chains, far_from_alphas, far_spectrum_shape
from susyjc.hilbert import HilbertConfig, ModelParams, parity_chains, su11_generator
from susyjc.jc import (DressedLabel, dressed_state, ground_state_critical,
                       lowest_closed_levels, rabi_frequency, reduced_density,
                       von_neumann_entropy)
from susyjc.oracle import certify_truncation, find_crossings
from susyjc.wigner import numeric_evaluator, wigner_closed_jc, wigner_grid


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_algebra_suite():
    t0 = time.monotonic()
    worst = 0.0
    exact_violations = []
    for n_max in (16, 64):
        for rep in run_all_checks(HilbertConfig(n_max)):
            worst = max(worst, rep.residual)
            if rep.identity_name in BITWISE_ZERO and rep.residual != 0.0:
                exact_violations.append((n_max, rep.identity_name))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and not exact_violations and elapsed < 5.0
    _line(1, ok, f"worst residual {worst:.3e}, "
                 f"{len(exact_violations)} exact-identity violations, {elapsed:.2f}s")
    assert worst < 1e-12
    assert exact_violations == []
    assert elapsed < 5.0


def test_criterion_02_casimir_interior_value():
    cfg = HilbertConfig(16)
    cas = su11_generator(cfg, "casimir").dense()
    mask = interior_mask(cfg, 2)
    sub = cas[np.ix_(mask, mask)] + (3.0 / 16.0) * np.eye(int(mask.sum()))
    dev = float(np.abs(sub).max())
    ok = dev < 1e-14
    _line(2, ok, f"max |K^2 + 3/16| on interior = {dev:.3e}")
    assert dev < 1e-14


def _chains_eigh(h, cfg):
    """Eigenvalues and composite-basis eigenvectors of a ParityChains, from
    its two tridiagonal chains; chain vectors land as in ParityChains.dense."""
    evals, blocks = [], []
    for c, spin in enumerate(cfg.chain_spin()):
        chain = (np.diag(h.diag[c]) + np.diag(h.off[c], -1)
                 + np.diag(np.conj(h.off[c]), 1))
        w, u = np.linalg.eigh(chain)
        block = np.zeros((cfg.dim, cfg.n_fock), dtype=complex)
        block[spin * cfg.n_fock + np.arange(cfg.n_fock)] = u
        evals.append(w)
        blocks.append(block)
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")
    return evals[order], np.hstack(blocks)[:, order]


def test_criterion_03_closed_forms_match_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260813)
    cfg = HilbertConfig(150)
    worst_energy = 0.0
    worst_fidelity = 1.0
    for trial in range(50):
        omega = rng.uniform(0.5, 2.0)
        omega0 = rng.uniform(0.5, 2.0)
        g = rng.uniform(0.0, 5.0)
        model = "jc" if trial % 2 == 0 else "ajc"
        params = (ModelParams(omega=omega, omega0=omega0, lam=g) if model == "jc"
                  else ModelParams(omega=omega, omega0=omega0, mu=g))
        evals, evecs = _chains_eigh(parity_chains(cfg, params, model), cfg)
        closed = lowest_closed_levels(params, 12, model)
        for k, (e_closed, label) in enumerate(closed):
            e_num = evals[k]
            worst_energy = max(worst_energy,
                               abs(e_closed - e_num) / max(1.0, abs(e_num)))
            vec = dressed_state(label, params, cfg)
            # project on the (possibly degenerate) numeric eigenspace
            scale = max(1.0, abs(e_num))
            idx = np.abs(evals - e_num) <= 1e-8 * scale
            overlaps = evecs[:, idx].conj().T @ vec
            worst_fidelity = min(worst_fidelity,
                                 float((np.abs(overlaps) ** 2).sum()))
    elapsed = time.monotonic() - t0
    ok = worst_energy < 1e-9 and worst_fidelity > 1 - 1e-10 and elapsed < 30.0
    _line(3, ok, f"50 random sets: worst relative energy error {worst_energy:.3e}, "
                 f"worst fidelity 1-{1 - worst_fidelity:.3e}, {elapsed:.2f}s")
    assert worst_energy < 1e-9
    assert worst_fidelity > 1 - 1e-10
    assert elapsed < 30.0


def test_criterion_04_critical_couplings():
    # detuned: the ground state hops exactly at sqrt(omega*omega0)
    params = ModelParams(omega=1.0, omega0=1.5)
    assert abs(ground_state_critical(1, params) - math.sqrt(1.5)) < 1e-14
    cfg = HilbertConfig(64)
    builder = lambda lam: parity_chains(
        cfg, ModelParams(omega=1.0, omega0=1.5, lam=lam), "jc")
    recs = find_crossings(builder, (1.0, 1.5), grid_points=80)
    dev_first = abs(recs[0].coupling - math.sqrt(1.5)) if recs else float("inf")

    # resonance ladder of ground-state changes
    res = ModelParams(omega=1.0, omega0=1.0)
    cfg_r = HilbertConfig(90)
    builder_r = lambda lam: parity_chains(
        cfg_r, ModelParams(omega=1.0, omega0=1.0, lam=lam), "jc")
    recs_r = find_crossings(builder_r, (0.5, 4.5),
                            grid_points=160,
                            label_model="jc")
    dev_closed = 0.0
    dev_numeric = float("inf")
    if len(recs_r) == 5:
        dev_numeric = 0.0
        for n, rec in enumerate(recs_r, start=1):
            target = 1.0 * (math.sqrt(n) + math.sqrt(n - 1.0))
            dev_closed = max(dev_closed,
                             abs(ground_state_critical(n, res) - target))
            dev_numeric = max(dev_numeric, abs(rec.coupling - target))
            assert rec.right == DressedLabel("minus", n)
    ok = dev_first < 1e-6 and len(recs_r) == 5 and dev_closed < 1e-6 and dev_numeric < 1e-6
    _line(4, ok, f"first crossing off sqrt(omega*omega0) by {dev_first:.3e}; "
                 f"{len(recs_r)} resonance crossings, closed dev {dev_closed:.3e}, "
                 f"numeric dev {dev_numeric:.3e}")
    assert len(recs) == 1
    assert dev_first < 1e-6
    assert len(recs_r) == 5
    assert dev_closed < 1e-6
    assert dev_numeric < 1e-6


def test_criterion_05_squared_spectrum_gap():
    worst = 0.0
    for params in (ModelParams(omega=1.0, omega0=1.3, lam=0.7),
                   ModelParams(omega=0.8, omega0=0.8, lam=1.9)):
        lam2 = params.lam ** 2
        for n in range(1, 21):
            e_lo = 0.5 * rabi_frequency(n, params)
            e_hi = 0.5 * rabi_frequency(n + 1, params)
            worst = max(worst, abs((e_hi ** 2 - e_lo ** 2) - lam2))
    ok = worst < 1e-12
    _line(5, ok, f"max |e^2 gap - lambda^2| over N=1..20 = {worst:.3e}")
    assert worst < 1e-12


def test_criterion_06_ajc_spectrum_equals_jc():
    cfg = HilbertConfig(100)
    jc = np.linalg.eigh(parity_chains(
        cfg, ModelParams(omega=1.0, omega0=1.3, lam=0.9), "jc").dense()).eigenvalues
    ajc = np.linalg.eigh(parity_chains(
        cfg, ModelParams(omega=1.0, omega0=1.3, mu=0.9), "ajc").dense()).eigenvalues
    dev = float(np.abs(jc[:20] - ajc[:20]).max())
    ok = dev < 1e-10
    _line(6, ok, f"lowest 20 levels differ by at most {dev:.3e}")
    assert dev < 1e-10


def test_criterion_07_squeezed_frame_equivalence():
    t0 = time.monotonic()
    params = ModelParams(omega=1.0, omega0=1.0, lam=0.3, mu=0.1)
    cfg = HilbertConfig(200)
    h_s = effective_hamiltonian(cfg, params)
    v = frame_unitary(cfg, params).unitary
    h_rot = v.conj().T @ parity_chains(cfg, params, "ar").dense() @ v
    # the rotated Hamiltonian is Hermitian up to rounding in the products
    assert np.abs(h_rot - h_rot.conj().T).max() <= 1e-12 * max(1.0, np.abs(h_rot).max())
    e_s = np.linalg.eigh(h_s).eigenvalues[:15]
    e_rot = np.linalg.eigh(h_rot).eigenvalues[:15]
    shifts = e_rot - e_s
    const = float(shifts.mean())
    dev = float(np.abs(shifts - const).max())
    mag_dev = abs(abs(const) - 0.5 * params.omega)
    elapsed = time.monotonic() - t0
    ok = dev < 1e-6 and mag_dev < 1e-6 and elapsed < 60.0
    _line(7, ok, f"constant offset {const:+.9f} (sign {'-' if const < 0 else '+'}, "
                 f"magnitude off omega/2 by {mag_dev:.3e}), per-level spread "
                 f"{dev:.3e}, {elapsed:.2f}s")
    assert dev < 1e-6
    assert mag_dev < 1e-6
    assert const < 0  # lab-frame levels sit omega/2 below the squeezed frame
    assert abs(const - lab_frame_offset(params)) < 1e-6
    assert elapsed < 60.0


def test_criterion_08_jc_approximation_error_scaling():
    cfg = HilbertConfig(200)
    errors = []
    validities = []
    for mu in (0.0025, 0.00125, 0.000625):
        params = ModelParams(omega=1.0, omega0=1.0, lam=0.1, mu=mu)
        ap = jc_approximation(params)
        assert ap.validity <= 0.05
        validities.append(ap.validity)
        lab = np.linalg.eigh(parity_chains(cfg, params, "ar").dense()).eigenvalues[:8]
        approx = np.array([e for e, _ in lowest_closed_levels(ap.params, 8)])
        approx = approx + ap.params.omega / 2 + lab_frame_offset(params)
        errors.append(float((np.abs(approx - lab)
                             / np.maximum(np.abs(lab), 1e-12)).max()))
    monotone = errors[0] > errors[1] > errors[2]
    ok = max(errors) < 0.02 and monotone
    _line(8, ok, "relative errors "
          + ", ".join(f"{e:.3e} (validity {v:.4f})"
                      for e, v in zip(errors, validities))
          + f"; monotone decreasing: {monotone}")
    assert max(errors) < 0.02
    assert monotone


def test_criterion_09_far_factorization():
    rng = np.random.default_rng(4096)
    cfg = HilbertConfig(60)
    inner = cfg.n_max
    min_eig = float("inf")
    worst = 0.0  # interior defect per unit of the largest interior entry
    built = 0
    while built < 100:
        mags = rng.uniform(0.05, 1.5, size=3)
        if abs(mags[1] ** 2 - mags[2] ** 2) < 1e-4:
            continue
        phases = rng.uniform(-math.pi, math.pi, size=3)
        fp = far_from_alphas(*(m * np.exp(1j * p) for m, p in zip(mags, phases)))
        fact = far_chains(cfg, fp)
        expl = parity_chains(cfg, ModelParams(fp.omega, fp.omega0, fp.lam, fp.mu),
                             "ar")
        pairs = [(fact.diag[:, :inner], expl.diag[:, :inner] + fp.omega_c),
                 (fact.off[:, :inner - 1], expl.off[:, :inner - 1])]
        defect = max(np.abs(f - e).max() for f, e in pairs)
        scale = max(1.0, *(np.abs(e).max() for _, e in pairs))
        worst = max(worst, defect / scale)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(fact.dense()).min()))
        built += 1
    ok = worst <= 1e-12 and min_eig >= -1e-10
    _line(9, ok, f"100 random alpha-triples: both forms agree within 1e-12; "
                 f"lowest eigenvalue {min_eig:.3e}")
    assert built == 100
    assert worst <= 1e-12
    assert min_eig >= -1e-10


def test_criterion_10_far_spectrum_shape():
    # the integer-1 member puts |alphaQ| = |alphaR| and is refused upstream
    with pytest.raises(DegenerateCouplings):
        far_from_alphas(0.01, 1.0, 1.0)

    unique_ground = True
    pair_ratio = {}
    mid_spread = {}
    for k in (2, 3, 4, 5):
        fp = far_from_alphas(0.01, 1.0, float(k))
        builder = lambda n: far_chains(HilbertConfig(n), fp)
        sol = certify_truncation(builder, k_levels=11)
        shape = far_spectrum_shape(sol, tol=1e-8)
        unique_ground = unique_ground and shape.has_unique_ground
        evs = sol.eigenvalues[:11]
        lo, hi = evs[1::2], evs[2::2]
        gaps = hi - lo
        mids = 0.5 * (hi + lo)
        spacing = np.diff(mids)
        pair_ratio[k] = float(gaps.max() / spacing.mean())
        mid_spread[k] = float(spacing.std() / spacing.mean())

    cfg = HilbertConfig(220)
    sweep_builder = lambda ar: far_chains(cfg, far_from_alphas(0.01, 1.0, ar))
    crossings = find_crossings(sweep_builder, (1.25, 5.0),
                               grid_points=150)

    worst_ratio = max(pair_ratio.values())
    worst_spread = max(mid_spread.values())
    ok = (unique_ground and not crossings and worst_spread < 1e-8
          and worst_ratio < 1e-8)
    _line(10, ok, f"unique ground {unique_ground}, {len(crossings)} ground-state "
          f"crossings, pair-center spacing spread {worst_spread:.3e}; "
          f"excited pair gap / spacing = "
          + ", ".join(f"{v:.4f}" for v in pair_ratio.values())
          + " (each pair is split by |alphaQ|^2, so the < 1e-8 degeneracy "
            "bound is out of reach for this family)")
    assert unique_ground
    assert crossings == []
    assert worst_spread < 1e-8
    # the double-degeneracy clause: measured pair gaps sit at |alphaQ|^2,
    # four orders of magnitude above the pair-center spacing times 1e-8
    assert worst_ratio < 1e-8, (
        f"excited 'pairs' are split by |alphaQ|^2 = 1: gap/spacing ratios "
        f"{pair_ratio}; a sub-1e-8 pair gap cannot occur for any valid "
        f"coefficient triple (the splitting equals |alphaQ|^2 whenever "
        f"|alphaQ| != |alphaR|)")


def test_criterion_11_wigner_cross_validation():
    params = ModelParams(omega=1.0, omega0=1.0)
    labels = [(DressedLabel("minus", 0), ground_state_critical(1, params))]
    for n in range(1, 6):
        lam_n = ground_state_critical(n, params)
        labels.append((DressedLabel("minus", n), lam_n))
        labels.append((DressedLabel("plus", n), lam_n))

    worst_agree = 0.0
    worst_norm = 0.0
    worst_entropy = 0.0
    axis = np.linspace(-3.0, 3.0, 25)
    for label, lam in labels:
        p = ModelParams(omega=1.0, omega0=1.0, lam=lam)
        n_fock_needed = label.n_total + 75
        rho = reduced_density(label, p, "boson", HilbertConfig(n_fock_needed))
        numeric = numeric_evaluator(rho)
        for re_a in axis:
            for im_a in axis:
                alpha = complex(re_a, im_a)
                if abs(alpha) > 3.0:
                    continue
                worst_agree = max(worst_agree,
                                  abs(wigner_closed_jc(label, p, alpha)
                                      - numeric(alpha)))
        grid = wigner_grid(lambda alpha: wigner_closed_jc(label, p, alpha),
                           window=4.5, points=181)
        worst_norm = max(worst_norm, abs(grid.normalization_integral - 1.0))
        if label.n_total >= 1:
            s = von_neumann_entropy(reduced_density(label, p, "fermion"))
            worst_entropy = max(worst_entropy, abs(s - math.log(2.0)))

    ok = worst_agree < 1e-8 and worst_norm < 1e-6 and worst_entropy < 1e-10
    _line(11, ok, f"closed vs numeric max |dW| = {worst_agree:.3e}, "
                  f"worst |norm - 1| = {worst_norm:.3e}, "
                  f"worst |S - ln 2| = {worst_entropy:.3e}")
    assert worst_agree < 1e-8
    assert worst_norm < 1e-6
    assert worst_entropy < 1e-10


CLI_CASES = [
    ("spectrum", ["spectrum", "--model", "jc", "--lambda", "0:2:9",
                  "--levels", "4", "--n-max", "40"]),
    ("crossings", ["crossings", "--model", "jc", "--lambda", "0.5:1.5:16",
                   "--n-max", "40"]),
    ("ar_crossings", ["crossings", "--model", "ar", "--lambda", "0.3:1.5:20",
                      "--mu", "0.2", "--n-max", "40"]),
    ("far_crossings", ["crossings", "--model", "far", "--alpha0", "1",
                       "--alphaR", "1.05:4:10", "--n-max", "40"]),
    ("wigner", ["wigner", "--label", "minus:1", "--lambda", "1.0",
                "--window", "2", "--points", "21"]),
    ("verify", ["verify", "--n-max", "16"]),
    ("far", ["far", "--alpha0", "0.01", "--alphaQ", "1.0", "--alphaR", "0.5",
             "--n-max", "60", "--format", "json"]),
]


def test_criterion_12_cli_determinism():
    outcomes = []
    identical = True
    for name, args in CLI_CASES:
        def run(extra_env=None):
            env = dict(os.environ)
            if extra_env:
                env.update(extra_env)
            return subprocess.run([sys.executable, "-m", "susyjc", *args],
                                  capture_output=True, env=env)
        # the CLI runs BLAS on one thread by default; the threaded run sets two
        first = run()
        second = run()
        threaded = run({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"})
        same = (first.stdout == second.stdout == threaded.stdout
                and first.returncode == second.returncode == threaded.returncode)
        identical = identical and same and first.returncode == 0
        outcomes.append(f"{name}:{'=' if same else '!='}")
    _line(12, identical, "byte-identical reruns " + " ".join(outcomes))
    assert identical
