"""Map the anisotropic model onto an effective rotating model by squeezing.

The two-coupling Hamiltonian has no closed spectrum of its own, but a
Bogoliubov frame built from the su(1,1) generators turns it into a rotating
model plus a parametric term. This script measures how faithful that frame
is, where the truncated conjugation identity holds, and how good the final
rotating-model approximation gets as the counter-rotating coupling shrinks.
"""

import numpy as np

from susyjc import (HilbertConfig, ModelParams, effective_hamiltonian,
                    eigenvalues, frame_unitary, jc_approximation,
                    lab_frame_offset, lowest_closed_levels, parity_chains,
                    quadrature_weights, squeeze_parameter)

params = ModelParams(omega=1.0, omega0=1.0, lam=0.4, mu=0.15)
xi = squeeze_parameter(params.lam, params.mu)
print(f"couplings (lam, mu) = ({params.lam}, {params.mu})"
      f"  ->  squeeze parameter xi = {xi:.6f}")
print("stretch factor e^xi =", np.exp(xi))

# The conjugated lab Hamiltonian matches the effective one entry by entry,
# but only on low Fock rows: squeezing a level-n state spreads it out to
# about e^xi * n quanta, so rows near the cutoff are corrupted by design.
cfg = HilbertConfig(140)
frame = frame_unitary(cfg, params)
chains = parity_chains(cfg, params, "ar")
h_lab = chains.dense()
h_eff = effective_hamiltonian(cfg, params)
conj = frame.unitary.conj().T @ h_lab @ frame.unitary
delta = conj - h_eff - lab_frame_offset(params) * np.eye(cfg.dim)
keep = cfg.boson_index() <= 40
low = np.abs(delta[np.ix_(keep, keep)]).max()
print(f"\nconjugation defect, rows n <= 40 of n_max = {cfg.n_max}: {low:.3e}")
print(f"conjugation defect, all rows:                  "
      f"{np.abs(delta).max():.3e}   (edge corruption, expected)")

# Spectra do not care about the frame, so lab and effective eigenvalues
# agree up to the constant offset for every converged level.
e_lab = eigenvalues(chains)[:12]
e_eff = np.linalg.eigh(h_eff).eigenvalues[:12]
shift = e_lab - e_eff
print(f"\nlab - effective offset: {shift.mean():+.12f}"
      f"  (lab_frame_offset = {lab_frame_offset(params):+.12f},"
      f"  spread {np.ptp(shift):.2e})")

# Dropping the parametric term leaves a plain rotating model with shifted
# detuning and coupling. The validity figure 2*lam*mu/(lam^2+mu^2) tracks
# the size of what was dropped; halving mu roughly quarters the error.
print("\nmu        validity   worst relative error (lowest 8 levels)")
for mu in (0.0025, 0.00125, 0.000625):
    p = ModelParams(omega=1.0, omega0=1.0, lam=0.1, mu=mu)
    approx = jc_approximation(p)
    exact = eigenvalues(parity_chains(HilbertConfig(200), p, "ar"))
    # the effective JC model's lowest 8 levels, moved by omega_scaled/2 into
    # the squeezed frame and by lab_frame_offset into the lab frame
    est = np.array([e for e, _ in lowest_closed_levels(approx.params, 8)])
    est = est + approx.params.omega / 2 + lab_frame_offset(p)
    err = np.abs(est - exact[:8]) / np.abs(exact[:8])
    print(f"{mu:<9} {approx.validity:<10.4f} {err.max():.3e}")

w = quadrature_weights(params)
print("\nparametric-term quadrature weights:", w,
      "\n(the product is 1: the drive squeezes one quadrature and stretches"
      "\nthe other by the same factor)")
