"""Factorizable anisotropic Rabi model.

A coupled model built as half the anticommutator of A = alpha0 + alphaQ Q-
+ alphaR R- with its adjoint. Expanding the anticommutator (the mixed
{Q, R} terms vanish identically) gives an anisotropic Rabi Hamiltonian with
effective parameters

    omega   = (|alphaQ|^2 + |alphaR|^2) / 2
    omega0  = (|alphaQ|^2 - |alphaR|^2) / 2
    lam     = |alpha0 alphaQ|,  phi_lambda = phi0 - phiQ
    mu      = |alpha0 alphaR|,  phi_mu     = phi0 - phiR
    omega_c = |alpha0|^2 + omega / 2   (constant offset)

The construction forces omega0 - omega = -|alphaR|^2, so the detuning
magnitude always equals the squared counter-rotating weight. Because the
model is an anticommutator of an operator with its adjoint, its spectrum is
nonnegative. It is not a doubly degenerate SUSY spectrum in general: A is
not nilpotent, since (alphaQ Q- + alphaR R-)^2 = 2 alphaQ alphaR K+, and a
nonzero alpha0 breaks nilpotency in any case. Measured on the chains:

- at alpha0 = 0 the levels are (|aQ|^2 (n+1) + |aR|^2 n)/2 and
  (|aQ|^2 n + |aR|^2 (n+1))/2, so the excited levels come in pairs
  (g, n) and (e, n+1) split by exactly |alphaQ|^2, with pair centres
  spaced by omega;
- a nonzero alpha0 widens the splitting with the pair index (by about
  2 |alpha0 alphaR|^2 per pair when that is small): for alphaQ = 1 and
  alphaR = 5, over the first five pairs it grows from 1.0050 to 1.0247 at
  alpha0 = 0.01 and from 1.41 to 2.45 at alpha0 = 0.1;
- exact double degeneracy above a unique ground state occurs only at
  alpha0 = 0 with alphaQ = 0 or alphaR = 0, both the uncoupled model, where
  the two families above coincide one level apart (alpha0 = 0 alone
  already gives lam = mu = 0, but the pairs stay split by |alphaQ|^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCouplings, NoConvergence
from .hilbert import HilbertConfig, ParityChains
from .oracle import EigenSolution

__all__ = [
    "FarParams",
    "SpectrumShape",
    "far_from_alphas",
    "far_chains",
    "constraint_check",
    "far_spectrum_shape",
]


def _phase(z: complex) -> float:
    # a signed zero has phase 0 here, not cmath's +-pi
    return cmath.phase(z) if z != 0 else 0.0


@dataclass(frozen=True)
class FarParams:
    """The factorization coefficients. Every model parameter is a property
    derived from them, so none can disagree with them; `far_from_alphas`
    builds the ones the model accepts."""

    alpha0: complex
    alpha_q: complex
    alpha_r: complex

    @property
    def omega(self) -> float:
        return 0.5 * (abs(self.alpha_q) ** 2 + abs(self.alpha_r) ** 2)

    @property
    def omega0(self) -> float:
        return 0.5 * (abs(self.alpha_q) ** 2 - abs(self.alpha_r) ** 2)

    @property
    def lam(self) -> float:
        return abs(self.alpha0 * self.alpha_q)

    @property
    def mu(self) -> float:
        return abs(self.alpha0 * self.alpha_r)

    @property
    def phi_lambda(self) -> float:
        return _phase(self.alpha0) - _phase(self.alpha_q)

    @property
    def phi_mu(self) -> float:
        return _phase(self.alpha0) - _phase(self.alpha_r)

    @property
    def omega_c(self) -> float:
        return abs(self.alpha0) ** 2 + 0.5 * self.omega


def far_from_alphas(alpha0: complex, alpha_q: complex,
                    alpha_r: complex) -> FarParams:
    """Map factorization coefficients to effective model parameters.

    |alphaQ| == |alphaR| is refused (the derived couplings would sit on the
    isotropic line where the SUSY structure degenerates), with one
    exception: when both vanish the model is a harmless constant. A
    coefficient whose |alpha|^2, or whose product with another, is not a
    finite float raises ValueError.
    """
    fp = FarParams(complex(alpha0), complex(alpha_q), complex(alpha_r))
    try:
        finite = all(map(math.isfinite, (fp.omega_c, fp.lam, fp.mu)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("alpha0, alphaQ or alphaR is not finite or too large: "
                         "a |alpha|^2 or a product of two of them overflows")
    aq2, ar2 = abs(fp.alpha_q) ** 2, abs(fp.alpha_r) ** 2
    if aq2 == ar2 and aq2 != 0.0:
        raise DegenerateCouplings(
            "|alphaQ| == |alphaR| puts the derived couplings on the "
            "isotropic line")
    return fp


def far_chains(cfg: HilbertConfig, fp: FarParams) -> ParityChains:
    """Build (A A^dag + A^dag A)/2 on the two parity chains.

    On a chain, A = alpha0 + alphaQ Q- + alphaR R- is lower bidiagonal: alpha0
    on the diagonal and b_k = alpha sqrt(k+1) below it, with alpha = alphaQ
    where level k holds |e> and alphaR where it holds |g>. So the factorized
    form has diagonal |alpha0|^2 + (|b_{k-1}|^2 + |b_k|^2)/2 and
    off-diagonal conj(alpha0) b_k, whose phases a diagonal unitary removes
    from every level: the chains are built real, off-diagonal |alpha0| |b_k|.
    Raising out of the top level is dropped, which removes |b_{n_max}|^2 from
    the edge diagonal only: on the interior (boson level < n_max) the chains
    are the ar chains at the derived (omega, omega0, lam, mu) plus omega_c.
    The spectrum is nonnegative by construction.
    """
    spin = cfg.chain_spin()
    from_e = spin[:, :-1] == 1
    steps = np.arange(1.0, cfg.n_fock)
    b = np.where(from_e, abs(fp.alpha_q), abs(fp.alpha_r)) * np.sqrt(steps)
    b2 = np.where(from_e, abs(fp.alpha_q) ** 2, abs(fp.alpha_r) ** 2) * steps
    diag = abs(fp.alpha0) ** 2 + 0.5 * (np.pad(b2, ((0, 0), (1, 0)))
                                        + np.pad(b2, ((0, 0), (0, 1))))
    return ParityChains(diag, abs(fp.alpha0) * b)


def constraint_check(fp: FarParams) -> dict:
    """Residuals of the two structural identities of the parameter map:
    detuning magnitude |omega0 - omega| = |alphaR|^2, and the product rule
    2 omega omega0 = (|alphaQ|^4 - |alphaR|^4)/2. Both are zero up to
    rounding for every FarParams, since its parameters derive from its
    coefficients.
    """
    aq2, ar2 = abs(fp.alpha_q) ** 2, abs(fp.alpha_r) ** 2
    return {
        "detuning_residual": abs(abs(fp.omega0 - fp.omega) - ar2),
        "exceptional_residual": abs(2.0 * fp.omega * fp.omega0
                                    - 0.5 * (aq2 ** 2 - ar2 ** 2)),
    }


@dataclass(frozen=True)
class SpectrumShape:
    """Degeneracy and spacing structure of a converged low spectrum."""

    ground_energy: float
    spacing: float
    degeneracies: tuple
    is_equidistant: bool

    @property
    def has_unique_ground(self) -> bool:
        return self.degeneracies[0] == 1


def far_spectrum_shape(eigs: EigenSolution, tol: float = 1e-8) -> SpectrumShape:
    """Cluster the certified eigenvalues into degenerate groups and measure
    the spacing of the cluster centers.

    Clustering is two-pass: a coarse pass (gaps above half the mean level
    spacing split clusters) estimates the spacing; the final pass merges
    only eigenvalues within tol*spacing, so near-degenerate-but-split pairs
    do not silently count as degenerate. The trailing cluster can be an
    artifact of the certification cutting a pair in half; callers should
    ignore it when asserting pair structure.
    """
    k = int(eigs.converged_levels)
    if k < 3:
        raise NoConvergence("the spectrum shape needs 3 certified levels and "
                            f"n_max {eigs.n_max_used} certifies {k}")
    evs = np.asarray(eigs.eigenvalues[:k], dtype=float)
    span = evs[-1] - evs[0]
    if span <= 0.0:
        return SpectrumShape(ground_energy=float(evs[0]), spacing=0.0,
                             degeneracies=(k,), is_equidistant=True)

    def clusters(threshold):
        bounds = np.where(np.diff(evs) > threshold)[0]
        return np.split(evs, bounds + 1)

    coarse = clusters(0.5 * span / (k - 1))
    mids = np.array([c.mean() for c in coarse])
    spacing_guess = float(np.diff(mids).mean()) if len(mids) > 1 else span
    final = clusters(tol * spacing_guess)
    mids = np.array([c.mean() for c in final])
    gaps = np.diff(mids)
    spacing = float(gaps.mean()) if gaps.size else 0.0
    equidistant = bool(gaps.size >= 2 and spacing > 0.0
                       and float(gaps.std()) <= tol * spacing)
    return SpectrumShape(
        ground_energy=float(evs[0]),
        spacing=spacing,
        degeneracies=tuple(len(c) for c in final),
        is_equidistant=equidistant,
    )
