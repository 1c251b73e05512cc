"""Wigner functions of dressed eigenstates, closed form against numeric.

The boson part of any rotating-model eigenstate lives on at most two Fock
levels, so its Wigner function has a short closed form. The numeric route
traces the spin out of the full dressed state and evaluates the displaced
parity expectation. They agree to near machine precision, which is the
point: two independent pipelines, one answer.
"""

import numpy as np

from susyjc import (DressedLabel, HilbertConfig, ModelParams, dressed_state,
                    numeric_evaluator, reduced_density, von_neumann_entropy,
                    wigner_closed_jc, wigner_grid)

params = ModelParams(omega=1.0, omega0=1.0, lam=0.6)
label = DressedLabel("minus", 2)
cfg = HilbertConfig(70)

rho = reduced_density(label, params, "boson", cfg=cfg)
print(f"dressed state ({label.branch},{label.n_total}), resonance:")
print("  boson density matrix support:",
      [int(n) for n in np.flatnonzero(np.abs(np.diag(rho)) > 1e-12)])

numeric = numeric_evaluator(rho)
probe = [0.0, 0.3 + 0.4j, -1.2j, 2.0]
print("\n  alpha          closed            numeric           |diff|")
for alpha in probe:
    wc = wigner_closed_jc(label, params, alpha)
    wn = numeric(alpha)
    print(f"  {alpha!s:<12}  {wc:+.12f}   {wn:+.12f}   {abs(wc - wn):.1e}")

# At phase-space zero every odd Fock component contributes -2/pi and every
# even one +2/pi; the resonant N=1 doublet weights them equally, so the
# value pins to zero for both branches.
for branch in ("minus", "plus"):
    w0 = wigner_closed_jc(DressedLabel(branch, 1), params, 0.0)
    print(f"  W(0) for ({branch},1):", w0)

# Integrating a sampled grid recovers unit norm, a global sanity check on
# the closed form and on the quadrature window.
def closed(alpha):
    return wigner_closed_jc(label, params, alpha)


grid = wigner_grid(closed, window=4.5, points=161)
print(f"\ngrid normalization over |Re|,|Im| <= 4.5:"
      f" {grid.normalization_integral:.9f}")

num = wigner_grid(numeric, window=2.0, points=41)
ref = wigner_grid(closed, window=2.0, points=41)
print("closed vs numeric on a 41x41 grid, max |diff|:",
      np.abs(num.values - ref.values).max())

# The spin side of the same eigenstate: maximally mixed at resonance, hence
# exactly ln 2 of entanglement entropy between spin and field.
rho_f = reduced_density(label, params, "fermion")
s = von_neumann_entropy(rho_f)
print(f"\nspin entropy: {s:.12f}   (ln 2 = {np.log(2.0):.12f})")
state = dressed_state(label, params, cfg=cfg)
print("dressed-state norm:", np.linalg.norm(state))
