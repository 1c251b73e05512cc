"""Residual checks for the operator algebras behind the dressed spectra.

One ordered table holds every identity: the u(1|1) charges and their
closures, su(1,1), and the deformed su(2). Each row names both sides of an
identity, built from the hilbert factories, and the projector on which it
survives the hard Fock cutoff; `run_all_checks` reports the largest entry of
the difference there, together with the largest entry of either side.
Identities that never move population through the cutoff are reported on
the full space and come out exactly zero.

Every operator here has at most a few nonzero diagonals, so the checks run
on `hilbert.BandedOp` in O(n_max) time and memory; no (2 n_max + 2)-square
matrix is formed. Each entry of each product has a single nonzero term, so
residuals and scales are the same floats as with dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import BandedOp, HilbertConfig

__all__ = [
    "IdentityReport",
    "BITWISE_ZERO",
    "commutator",
    "anticommutator",
    "interior_mask",
    "run_all_checks",
]

PROJ_FULL = "full"
PROJ_IN1 = "n<n_max"
PROJ_IN2 = "n<n_max-1"
PROJ_EXC = "excited & n<n_max"

_SIGNS = ("plus", "minus", "x", "y")

# Identities whose two sides are assembled from bitwise-identical floats
# (structural zeros, integer diagonals, power-of-two rescalings), so the
# residual is exactly 0.0, not merely small. [Kz,K+-] = +-K+- is also exact
# on the truncated space, but it multiplies quarter-integer diagonals into
# irrational entries and rounds at the last bit, so it stays out.
BITWISE_ZERO = frozenset([
    "Q+^2 = 0", "Q-^2 = 0", "R+^2 = 0", "R-^2 = 0",
    "Qx^2 = Qy^2",
    "[N+,Q+] = 0", "[N+,Q-] = 0", "[N-,R+] = 0", "[N-,R-] = 0",
    "Q- Hf = Hb Q-", "Hf Q+ = Q+ Hb", "R- Hf' = Hb' R-", "Hf' R+ = R+ Hb'",
    "{Q+,R-} = 0", "{Q-,R+} = 0",
    "K+ = Kx + i Ky", "K- = Kx - i Ky",
    "[Sz,Q+] = Q+", "[Sz,Q-] = -Q-",
])


@dataclass
class IdentityReport:
    """Residual of one operator identity on its stated projector; scale is
    the largest entry magnitude of either side there (or of a term summed
    into a side, where the terms cancel)."""

    identity_name: str
    residual: float
    projector: str
    scale: float

    @property
    def truncation_sensitive(self) -> bool:
        return self.projector != PROJ_FULL

    def passes(self, tol: float) -> bool:
        """residual < tol relative to the entry scale (at least 1): rounding
        grows with the entries, which grow like n_max^2 for the su(1,1)
        identities."""
        return self.residual < tol * max(1.0, self.scale)


def commutator(a: BandedOp, b: BandedOp) -> BandedOp:
    """a b - b a (DimensionMismatch unless a and b have the same shape)."""
    return a @ b - b @ a


def anticommutator(a: BandedOp, b: BandedOp) -> BandedOp:
    """a b + b a (DimensionMismatch unless a and b have the same shape)."""
    return a @ b + b @ a


def interior_mask(cfg: HilbertConfig, margin: int = 1) -> np.ndarray:
    """Boolean mask keeping |s, n> with n <= n_max - margin (both spins)."""
    return cfg.boson_index() <= cfg.n_max - margin


def _pinv_sqrt_diag(diag_op: BandedOp) -> BandedOp:
    """Pseudo-inverse square root of a nonnegative diagonal operator
    (zero stays zero, so the kernel is annihilated, not inverted)."""
    d = np.real(diag_op.diags[0])
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = 1.0 / np.sqrt(d[pos])
    return BandedOp.diagonal(diag_op.dim, out)


def _identities(cfg: HilbertConfig):
    """The identity table, row by row: (name, lhs, rhs, projector, *terms),
    where terms are operators summed into a side whose entries cancel on the
    projector; they join the entry scale, since rounding follows them. Each
    operator is built once, and each row's products only when it is read."""
    qp, qm, qx, qy = (hilbert.exchange_op(cfg, "Q", s) for s in _SIGNS)
    rp, rm, rx, ry = (hilbert.exchange_op(cfg, "R", s) for s in _SIGNS)
    nplus = hilbert.excitation_number(cfg, "plus")
    nminus = hilbert.excitation_number(cfg, "minus")
    kx, ky, kz, kp, km, cas = (hilbert.su11_generator(cfg, axis) for axis in
                               ("x", "y", "z", "plus", "minus", "casimir"))
    sz = hilbert.spin_op(cfg, "s_z")
    zero = BandedOp(cfg.dim)
    eye = BandedOp.diagonal(cfg.dim, 1.0)

    # u(1|1): nilpotent charges, their closures, and the mixed anticommutators.
    # The sector Hamiltonians are exact diagonals: the Q ladder acts on
    # (|e,n> -> n+1 ; |g,n> -> n) pairs, the R ladder on the mirror
    n = np.arange(cfg.n_fock, dtype=float)
    hf_q = BandedOp.diagonal(cfg.dim, np.concatenate([np.zeros_like(n), n + 1.0]))
    hb_q = BandedOp.diagonal(cfg.dim, np.concatenate([n, np.zeros_like(n)]))
    hf_r = BandedOp.diagonal(cfg.dim, np.concatenate([n + 1.0, np.zeros_like(n)]))
    hb_r = BandedOp.diagonal(cfg.dim, np.concatenate([np.zeros_like(n), n]))
    qx2, qy2 = qx @ qx, qy @ qy
    yield "Q+^2 = 0", qp @ qp, zero, PROJ_FULL
    yield "Q-^2 = 0", qm @ qm, zero, PROJ_FULL
    yield "R+^2 = 0", rp @ rp, zero, PROJ_FULL
    yield "R-^2 = 0", rm @ rm, zero, PROJ_FULL
    yield "{Q+,Q-} = N+", anticommutator(qp, qm), nplus, PROJ_IN1
    yield "{R+,R-} = N-", anticommutator(rp, rm), nminus, PROJ_IN1
    yield "Qx^2 = N+", qx2, nplus, PROJ_IN1
    yield "Qy^2 = N+", qy2, nplus, PROJ_IN1
    yield "Rx^2 = N-", rx @ rx, nminus, PROJ_IN1
    yield "Ry^2 = N-", ry @ ry, nminus, PROJ_IN1
    yield "Qx^2 = Qy^2", qx2, qy2, PROJ_FULL
    yield "[N+,Q+] = 0", commutator(nplus, qp), zero, PROJ_FULL
    yield "[N+,Q-] = 0", commutator(nplus, qm), zero, PROJ_FULL
    yield "[N-,R+] = 0", commutator(nminus, rp), zero, PROJ_FULL
    yield "[N-,R-] = 0", commutator(nminus, rm), zero, PROJ_FULL
    yield "Q- Hf = Hb Q-", qm @ hf_q, hb_q @ qm, PROJ_FULL
    yield "Hf Q+ = Q+ Hb", hf_q @ qp, qp @ hb_q, PROJ_FULL
    yield "R- Hf' = Hb' R-", rm @ hf_r, hb_r @ rm, PROJ_FULL
    yield "Hf' R+ = R+ Hb'", hf_r @ rp, rp @ hb_r, PROJ_FULL
    yield "{Q+,R+} = 2K-", anticommutator(qp, rp), 2.0 * km, PROJ_IN1
    yield "{Q-,R-} = 2K+", anticommutator(qm, rm), 2.0 * kp, PROJ_IN1
    yield "{Q+,R-} = 0", anticommutator(qp, rm), zero, PROJ_FULL
    yield "{Q-,R+} = 0", anticommutator(qm, rp), zero, PROJ_FULL

    # su(1,1) closure and Casimir of the two-boson realization; Kz^2 is the
    # term the Casimir cancels
    yield "K+ = Kx + i Ky", kp, kx + 1j * ky, PROJ_FULL
    yield "K- = Kx - i Ky", km, kx - 1j * ky, PROJ_FULL
    yield "[Kz,K+] = K+", commutator(kz, kp), kp, PROJ_FULL
    yield "[Kz,K-] = -K-", commutator(kz, km), -km, PROJ_FULL
    yield "[K+,K-] = -2Kz", commutator(kp, km), -2.0 * kz, PROJ_IN2
    yield "K^2 = -3/16", cas, (-3.0 / 16.0) * eye, PROJ_IN2, kz @ kz

    # deformed su(2) closed by the charges, and the rescaled spin that is a
    # standard su(2) on the excited subspace (N+ kernel |g,0> annihilated)
    inv_sqrt = _pinv_sqrt_diag(nplus)
    sxq = 0.5 * inv_sqrt @ qx
    syq = 0.5 * inv_sqrt @ qy
    yield "[Sz,Q+] = Q+", commutator(sz, qp), qp, PROJ_FULL
    yield "[Sz,Q-] = -Q-", commutator(sz, qm), -qm, PROJ_FULL
    yield "[Q+,Q-] = 2 Hq Sz", commutator(qp, qm), 2.0 * nplus @ sz, PROJ_IN1
    yield "[Sx,Sy] = i Sz (excited)", commutator(sxq, syq), 1j * sz, PROJ_EXC
    yield ("Sx^2 + Sy^2 = 1/2 (excited)", sxq @ sxq + syq @ syq, 0.5 * eye,
           PROJ_EXC)


def run_all_checks(cfg: HilbertConfig) -> list[IdentityReport]:
    """One report per row of the identity table, in its order."""
    inner = interior_mask(cfg, 1)
    excited = inner.copy()
    excited[cfg.index("g", 0)] = False  # N+ kernel
    masks = {PROJ_FULL: None, PROJ_IN1: inner, PROJ_IN2: interior_mask(cfg, 2),
             PROJ_EXC: excited}
    reports = []
    for name, lhs, rhs, projector, *terms in _identities(cfg):
        mask = masks[projector]
        reports.append(IdentityReport(
            name, (lhs - rhs).masked_max(mask), projector,
            max(op.masked_max(mask) for op in (lhs, rhs, *terms))))
    return reports
