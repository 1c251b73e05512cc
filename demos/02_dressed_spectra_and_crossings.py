"""Closed-form dressed spectra cross-checked against the parity-chain oracle.

Covers the rotating (jc) and counter-rotating (ajc) models: energy ladders,
the critical couplings where the ground state changes character, and the
numerically tracked level crossings that confirm the closed formulas.
"""

import numpy as np

from susyjc import (DressedLabel, HilbertConfig, ModelParams, crossing_pair,
                    dressed_energy, eigenvalues, find_crossings,
                    ground_state_critical, lowest_closed_levels,
                    parity_chains)

params = ModelParams(omega=1.0, omega0=1.5, lam=0.4)
cfg = HilbertConfig(120)

print("== closed ladder vs oracle (jc, detuned) ==")
closed = lowest_closed_levels(params, 8, model="jc")
evals = eigenvalues(parity_chains(cfg, params, "jc"))
for (energy, label), numeric in zip(closed, evals[:8]):
    print(f"  ({label.branch:>5},{label.n_total})   closed {energy:+.12f}"
          f"   oracle {numeric:+.12f}   diff {abs(energy - numeric):.2e}")

# The counter-rotating model is the same spectrum in disguise: a fixed spin
# rotation maps one Hamiltonian onto the other, so matched couplings give
# matched ladders.
params_ajc = ModelParams(omega=1.0, omega0=1.5, mu=0.4)
evals_ajc = eigenvalues(parity_chains(cfg, params_ajc, "ajc"))
print("\n== jc vs ajc at matched coupling ==")
print("  lowest-8 spread:",
      np.abs(evals[:8] - evals_ajc[:8]).max())

print("\n== ground-state critical couplings ==")
# Past lambda_N the uncoupled ground state is overtaken by the lower branch
# of the N-th doublet. At resonance the closed form collapses to
# sqrt(N) + sqrt(N - 1) in units of the shared frequency.
res = ModelParams(omega=1.0, omega0=1.0)
for n in range(1, 6):
    lam_n = ground_state_critical(n, res)
    print(f"  N={n}:  lambda_N = {lam_n:.12f}"
          f"   (sqrt{n}+sqrt{n - 1} = {np.sqrt(n) + np.sqrt(n - 1):.12f})")

# Confirm the first of those numerically by sweeping the coupling and
# watching the oracle ground state move between the two parity chains
# (sectors N and N+1 lie on different chains).
cfg90 = HilbertConfig(90)


def builder(lam):
    return parity_chains(cfg90, ModelParams(1.0, 1.0, lam=lam), "jc")


hits = find_crossings(builder, (0.5, 1.5), grid_points=80, label_model="jc")
for rec in hits:
    print(f"  numeric ground crossing at lambda = {rec.coupling:.9f}"
          f"   {rec.left} -> {rec.right}")

print("\n== excited-pair crossing ==")
# Within one excitation doublet the two branches never meet, but branches of
# different doublets do. crossing_pair re-verifies the degeneracy before
# reporting it.
rec = crossing_pair(0, 1, "minus", ModelParams(omega=1.0, omega0=3.0))
print(f"  (minus,0)-(minus,1) cross at lambda = {rec.coupling:.12f}")
e0 = dressed_energy(DressedLabel("minus", 0), params)
print(f"  sanity: E(minus,0) at lam=0.4 detuned = {e0:+.12f}")
