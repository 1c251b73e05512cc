"""Residual checks for the operator algebras behind the dressed spectra.

Each check builds both sides of an identity from the hilbert factories and
reports the largest entry of the difference, restricted to the projector on
which the identity survives the hard Fock cutoff, together with the largest
entry of either side there. Identities that never move population through
the cutoff are reported on the full space and come out exactly zero.

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
    "check_susy_u11",
    "check_su11",
    "check_deformed_su2",
    "run_all_checks",
    "all_pass",
]

PROJ_FULL = "full"
PROJ_IN1 = "n<n_max"
PROJ_IN2 = "n<n_max-1"
PROJ_EXC = "excited & n<n_max"

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
    truncation_sensitive: bool
    projector: str
    scale: float

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


def _excited_interior_mask(cfg: HilbertConfig) -> np.ndarray:
    mask = interior_mask(cfg, 1)
    mask = mask.copy()
    mask[cfg.index("g", 0)] = False  # N+ kernel
    return mask


def _report(name: str, lhs: BandedOp, rhs: BandedOp, projector: str,
            cfg: HilbertConfig, sensitive: bool, terms=()) -> IdentityReport:
    """terms are operators summed into a side whose entries cancel there;
    they join the entry scale, since rounding follows them."""
    if projector == PROJ_FULL:
        mask = None
    elif projector == PROJ_IN1:
        mask = interior_mask(cfg, 1)
    elif projector == PROJ_IN2:
        mask = interior_mask(cfg, 2)
    elif projector == PROJ_EXC:
        mask = _excited_interior_mask(cfg)
    else:
        raise ValueError(f"unknown projector {projector!r}")
    return IdentityReport(name, (lhs - rhs).masked_max(mask), sensitive, projector,
                          max(op.masked_max(mask) for op in (lhs, rhs, *terms)))


def _pinv_sqrt_diag(diag_op: BandedOp) -> BandedOp:
    """Pseudo-inverse square root of a nonnegative diagonal operator
    (zero stays zero, so the kernel is annihilated, not inverted)."""
    d = np.real(diag_op.diags[0])
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = 1.0 / np.sqrt(d[pos])
    return BandedOp.diagonal(diag_op.dim, out)


def check_susy_u11(cfg: HilbertConfig) -> list[IdentityReport]:
    """Nilpotent charges, their closures, and the mixed anticommutators."""
    zero = BandedOp(cfg.dim)
    qp = hilbert.exchange_op(cfg, "Q", "plus")
    qm = hilbert.exchange_op(cfg, "Q", "minus")
    qx = hilbert.exchange_op(cfg, "Q", "x")
    qy = hilbert.exchange_op(cfg, "Q", "y")
    rp = hilbert.exchange_op(cfg, "R", "plus")
    rm = hilbert.exchange_op(cfg, "R", "minus")
    rx = hilbert.exchange_op(cfg, "R", "x")
    ry = hilbert.exchange_op(cfg, "R", "y")
    nplus = hilbert.excitation_number(cfg, "plus")
    nminus = hilbert.excitation_number(cfg, "minus")
    kp = hilbert.su11_generator(cfg, "plus")
    km = hilbert.su11_generator(cfg, "minus")

    # sector Hamiltonians as exact diagonals: the Q ladder acts on
    # (|e,n> -> n+1 ; |g,n> -> n) pairs, the R ladder on the mirror
    n = np.arange(cfg.n_fock, dtype=float)
    hf_q = BandedOp.diagonal(cfg.dim, np.concatenate([np.zeros_like(n), n + 1.0]))
    hb_q = BandedOp.diagonal(cfg.dim, np.concatenate([n, np.zeros_like(n)]))
    hf_r = BandedOp.diagonal(cfg.dim, np.concatenate([n + 1.0, np.zeros_like(n)]))
    hb_r = BandedOp.diagonal(cfg.dim, np.concatenate([np.zeros_like(n), n]))

    reports = [
        _report("Q+^2 = 0", qp @ qp, zero, PROJ_FULL, cfg, False),
        _report("Q-^2 = 0", qm @ qm, zero, PROJ_FULL, cfg, False),
        _report("R+^2 = 0", rp @ rp, zero, PROJ_FULL, cfg, False),
        _report("R-^2 = 0", rm @ rm, zero, PROJ_FULL, cfg, False),
        _report("{Q+,Q-} = N+", anticommutator(qp, qm), nplus, PROJ_IN1, cfg, True),
        _report("{R+,R-} = N-", anticommutator(rp, rm), nminus, PROJ_IN1, cfg, True),
        _report("Qx^2 = N+", qx @ qx, nplus, PROJ_IN1, cfg, True),
        _report("Qy^2 = N+", qy @ qy, nplus, PROJ_IN1, cfg, True),
        _report("Rx^2 = N-", rx @ rx, nminus, PROJ_IN1, cfg, True),
        _report("Ry^2 = N-", ry @ ry, nminus, PROJ_IN1, cfg, True),
        _report("Qx^2 = Qy^2", qx @ qx, qy @ qy, PROJ_FULL, cfg, False),
        _report("[N+,Q+] = 0", commutator(nplus, qp), zero, PROJ_FULL, cfg, False),
        _report("[N+,Q-] = 0", commutator(nplus, qm), zero, PROJ_FULL, cfg, False),
        _report("[N-,R+] = 0", commutator(nminus, rp), zero, PROJ_FULL, cfg, False),
        _report("[N-,R-] = 0", commutator(nminus, rm), zero, PROJ_FULL, cfg, False),
        _report("Q- Hf = Hb Q-", qm @ hf_q, hb_q @ qm, PROJ_FULL, cfg, False),
        _report("Hf Q+ = Q+ Hb", hf_q @ qp, qp @ hb_q, PROJ_FULL, cfg, False),
        _report("R- Hf' = Hb' R-", rm @ hf_r, hb_r @ rm, PROJ_FULL, cfg, False),
        _report("Hf' R+ = R+ Hb'", hf_r @ rp, rp @ hb_r, PROJ_FULL, cfg, False),
        _report("{Q+,R+} = 2K-", anticommutator(qp, rp), 2.0 * km, PROJ_IN1, cfg, True),
        _report("{Q-,R-} = 2K+", anticommutator(qm, rm), 2.0 * kp, PROJ_IN1, cfg, True),
        _report("{Q+,R-} = 0", anticommutator(qp, rm), zero, PROJ_FULL, cfg, False),
        _report("{Q-,R+} = 0", anticommutator(qm, rp), zero, PROJ_FULL, cfg, False),
    ]
    return reports


def check_su11(cfg: HilbertConfig) -> list[IdentityReport]:
    """su(1,1) closure and Casimir of the two-boson realization."""
    kx = hilbert.su11_generator(cfg, "x")
    ky = hilbert.su11_generator(cfg, "y")
    kz = hilbert.su11_generator(cfg, "z")
    kp = hilbert.su11_generator(cfg, "plus")
    km = hilbert.su11_generator(cfg, "minus")
    cas = hilbert.su11_generator(cfg, "casimir")
    eye = BandedOp.diagonal(cfg.dim, 1.0)
    return [
        _report("K+ = Kx + i Ky", kp, kx + 1j * ky, PROJ_FULL, cfg, False),
        _report("K- = Kx - i Ky", km, kx - 1j * ky, PROJ_FULL, cfg, False),
        _report("[Kz,K+] = K+", commutator(kz, kp), kp, PROJ_FULL, cfg, False),
        _report("[Kz,K-] = -K-", commutator(kz, km), -km, PROJ_FULL, cfg, False),
        _report("[K+,K-] = -2Kz", commutator(kp, km), -2.0 * kz, PROJ_IN2, cfg, True),
        # Kz^2 is the term the Casimir cancels
        _report("K^2 = -3/16", cas, (-3.0 / 16.0) * eye, PROJ_IN2, cfg, True,
                terms=(kz @ kz,)),
    ]


def check_deformed_su2(cfg: HilbertConfig) -> list[IdentityReport]:
    """Deformed su(2) closed by the charges, and the rescaled spin that is a
    standard su(2) on the excited subspace (N+ kernel |g,0> annihilated)."""
    qp = hilbert.exchange_op(cfg, "Q", "plus")
    qm = hilbert.exchange_op(cfg, "Q", "minus")
    qx = hilbert.exchange_op(cfg, "Q", "x")
    qy = hilbert.exchange_op(cfg, "Q", "y")
    sz = hilbert.spin_op(cfg, "s_z")
    nplus = hilbert.excitation_number(cfg, "plus")

    inv_sqrt = _pinv_sqrt_diag(nplus)
    sxq = 0.5 * inv_sqrt @ qx
    syq = 0.5 * inv_sqrt @ qy
    eye = BandedOp.diagonal(cfg.dim, 1.0)

    return [
        _report("[Sz,Q+] = Q+", commutator(sz, qp), qp, PROJ_FULL, cfg, False),
        _report("[Sz,Q-] = -Q-", commutator(sz, qm), -qm, PROJ_FULL, cfg, False),
        _report("[Q+,Q-] = 2 Hq Sz", commutator(qp, qm), 2.0 * nplus @ sz,
                PROJ_IN1, cfg, True),
        _report("[Sx,Sy] = i Sz (excited)", commutator(sxq, syq), 1j * sz,
                PROJ_EXC, cfg, True),
        _report("Sx^2 + Sy^2 = 1/2 (excited)", sxq @ sxq + syq @ syq, 0.5 * eye,
                PROJ_EXC, cfg, True),
    ]


def run_all_checks(cfg: HilbertConfig) -> list[IdentityReport]:
    return check_susy_u11(cfg) + check_su11(cfg) + check_deformed_su2(cfg)


def all_pass(reports: list[IdentityReport], tol: float = 1e-12) -> bool:
    return all(r.passes(tol) for r in reports)
