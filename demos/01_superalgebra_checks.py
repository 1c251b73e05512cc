"""Walk through the operator-algebra verification layer.

Builds the exchange charges on a truncated Fock space, shows which of their
identities survive truncation exactly, which need an interior projector, and
evaluates the su(1,1) Casimir that pins the single-mode representation.
"""

import numpy as np

from susyjc import (HilbertConfig, anticommutator, exchange_op,
                    excitation_number, interior_mask, run_all_checks,
                    su11_generator)
from susyjc.algebra import BITWISE_ZERO

cfg = HilbertConfig(24)
print(f"composite space: 2 x {cfg.n_max + 1} = {cfg.dim} states")

# The rotating charge annihilates a photon while exciting the spin; applying
# it twice is structurally zero because sigma_+^2 = 0.
q_plus = exchange_op(cfg, "Q", "plus")
print("Q+^2 max entry:", (q_plus @ q_plus).masked_max())

# The anticommutator {Q+, Q-} closes on the rotating excitation counter, but
# only away from the truncation edge: the last Fock level has no partner to
# exchange with, so the defect lives entirely on the edge rows.
q_minus = exchange_op(cfg, "Q", "minus")
n_plus = excitation_number(cfg, "plus")
defect = anticommutator(q_plus, q_minus) - n_plus
print("full-space defect:", defect.masked_max())
print("interior defect:  ", defect.masked_max(interior_mask(cfg, margin=1)))

# The full report covers the charge algebra, the su(1,1) sector, and the
# deformed su(2) block structure. Identities in BITWISE_ZERO come out as
# literal 0.0 because both sides are assembled from the same floats.
reports = run_all_checks(cfg)
print(f"\n{len(reports)} identities checked at n_max={cfg.n_max}:")
width = max(len(r.identity_name) for r in reports)
for r in reports:
    tag = "interior" if r.truncation_sensitive else "full"
    star = " (bitwise)" if r.identity_name in BITWISE_ZERO else ""
    print(f"  {r.identity_name:<{width}}  {tag:<8}  {r.residual:.3e}{star}")

# The quadratic Casimir of the K_x, K_y, K_z triple is a fixed multiple of
# the identity in this representation: K^2 = -3/16. That number is what
# makes the squeezing construction in the anisotropic model work.
kx = su11_generator(cfg, "x").dense()
ky = su11_generator(cfg, "y").dense()
kz = su11_generator(cfg, "z").dense()
casimir = kz @ kz - kx @ kx - ky @ ky
inner = interior_mask(cfg, margin=2)
values = np.diag(casimir)[inner].real
print(f"\nCasimir on interior: {values.min():.15f} .. {values.max():.15f}")
print("expected:            -0.1875 exactly (-3/16)")
