"""Squeezed-frame analysis of the anisotropic Rabi model.

The lab Hamiltonian with both rotating (strength lam) and counter-rotating
(strength mu) couplings, lam != mu, is unitarily equivalent to a JC model
with a parametric two-photon drive. The equivalence holds level by level up
to one global constant; comparing sorted spectra of `effective_hamiltonian`
and of V^dag H V fixes the constant empirically to

    E_lab[k] = E_squeezed[k] - omega/2

i.e. `lab_frame_offset` returns -omega/2 (checked at n_max=200 over the
lowest levels; see tests). Dropping the drive term leaves the JC model
`jc_approximation`, evaluated by the `jc` closed forms and trustworthy when
`validity` = 2*lam*mu/(lam^2+mu^2) is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCouplings, InvalidLabel
from .hilbert import (HilbertConfig, ModelParams, exchange_op, jc_to_ajc_rotation,
                      spin_op, su11_generator)
from .jc import DressedLabel, dressed_energy

__all__ = [
    "SqueezedFrame",
    "JCApproximation",
    "squeeze_parameter",
    "frame_unitary",
    "effective_hamiltonian",
    "jc_approximation",
    "approx_spectrum",
    "lab_frame_offset",
    "quadrature_weights",
]


@dataclass(frozen=True)
class SqueezedFrame:
    """Time-independent part of the transformation to the squeezed frame.

    sign is sgn(lam - mu); the unitary carries the spin flip exactly when
    sign == -1, i.e. when the counter-rotating coupling dominates.
    """

    xi: float
    sign: int
    unitary: np.ndarray


@dataclass(frozen=True)
class JCApproximation:
    """The JC model left after dropping the parametric drive (params.omega,
    .delta and .lam are omega_scaled, delta_ar and lambda_ar) and the
    validity ratio of the drive (small = good)."""

    params: ModelParams
    validity: float


def _guard_couplings(lam: float, mu: float) -> int:
    if lam < 0 or mu < 0:
        raise ValueError("couplings must be nonnegative")
    if lam == mu:
        raise DegenerateCouplings(
            "lam == mu: squeeze parameter diverges at the isotropic point")
    return 1 if lam > mu else -1


def squeeze_parameter(lam: float, mu: float) -> float:
    """xi = ln((lam + mu) / |lam - mu|) >= 0; diverges as lam -> mu."""
    _guard_couplings(lam, mu)
    return math.log((lam + mu) / abs(lam - mu))


def frame_unitary(cfg: HilbertConfig, params: ModelParams) -> SqueezedFrame:
    """The unitary (spin flip) (x) (squeeze): the pi/2 spin flip of
    `jc_to_ajc_rotation` when mu > lam (else the spin identity), and the
    two-photon squeeze exp(-i xi ky) on the boson block ky of
    `su11_generator`'s Ky = 1 (x) ky, from numpy's eigh of ky.

    The squeeze angle is atanh(min/max of the couplings) = xi/2, the unique
    amount for which conjugation maps the lab Hamiltonian onto
    `effective_hamiltonian` entrywise (plus the `lab_frame_offset` constant);
    doubling it preserves the spectrum, being unitary, but not the matrix
    identity.
    """
    sign = _guard_couplings(params.lam, params.mu)
    xi = squeeze_parameter(params.lam, params.mu)
    n_fock = cfg.n_fock
    block = np.eye(n_fock, dtype=complex)
    if xi != 0.0:
        w, u = np.linalg.eigh(su11_generator(cfg, "y").dense()[:n_fock, :n_fock])
        block = (u * np.exp(-1j * xi * w)[None, :]) @ u.conj().T
    spin = jc_to_ajc_rotation(HilbertConfig(0)).dense() if sign == -1 else np.eye(2)
    return SqueezedFrame(xi=xi, sign=sign, unitary=np.kron(spin, block))


def effective_hamiltonian(cfg: HilbertConfig, params: ModelParams) -> np.ndarray:
    """Squeezed-frame Hamiltonian: JC part plus the parametric Kx drive,

        (omega/|lam^2-mu^2|) [2(lam^2+mu^2) Kz - 4 lam mu Kx]
            + sgn(lam-mu) [omega0 Sz + sqrt(|lam^2-mu^2|) Qx]

    All four operator pieces are exactly Hermitian, so the sum is too.
    """
    sign = _guard_couplings(params.lam, params.mu)
    l2, m2 = params.lam ** 2, params.mu ** 2
    dif = abs(l2 - m2)
    h = (params.omega / dif) * (
        2.0 * (l2 + m2) * su11_generator(cfg, "z")
        - 4.0 * params.lam * params.mu * su11_generator(cfg, "x"))
    h += sign * (params.omega0 * spin_op(cfg, "s_z")
                 + math.sqrt(dif) * exchange_op(cfg, "Q", "x"))
    return h.dense()


def jc_approximation(params: ModelParams) -> JCApproximation:
    """The drive-free JC model of the squeezed frame: boson frequency
    omega_scaled = omega (lam^2 + mu^2)/|lam^2 - mu^2|, spin splitting
    sgn(lam - mu) omega0 and coupling sgn(lam - mu) sqrt|lam^2 - mu^2|."""
    sign = _guard_couplings(params.lam, params.mu)
    l2, m2 = params.lam ** 2, params.mu ** 2
    dif = abs(l2 - m2)
    jc = ModelParams(omega=params.omega * (l2 + m2) / dif,
                     omega0=sign * params.omega0, lam=sign * math.sqrt(dif))
    return JCApproximation(jc, validity=2.0 * params.lam * params.mu / (l2 + m2))


def approx_spectrum(label: DressedLabel, params: ModelParams) -> float:
    """Approximate squeezed-frame eigenvalue of a dressed label: the
    `dressed_energy` of `jc_approximation(params).params` plus
    omega_scaled/2, with the branches swapped for mu > lam (the plus branch
    is then the lower member of each pair); label.model is ignored.
    Subtract omega/2 (`lab_frame_offset`) to compare against lab-frame
    eigenvalues."""
    if not isinstance(label, DressedLabel):
        raise InvalidLabel("label must be a DressedLabel")
    jc = jc_approximation(params).params
    branch = label.branch
    if params.mu > params.lam and label.n_total:
        branch = "plus" if branch == "minus" else "minus"
    return dressed_energy(DressedLabel(branch, label.n_total), jc) + 0.5 * jc.omega


def lab_frame_offset(params: ModelParams) -> float:
    """Constant added to squeezed-frame energies to land in the lab frame:
    -omega/2, with the sign fixed by direct spectral comparison (see module
    docstring) rather than assumed."""
    return -0.5 * params.omega


def quadrature_weights(params: ModelParams) -> dict:
    """Coefficients of q^2 and p^2 in the boson part of the squeezed-frame
    Hamiltonian, in units of omega/2. Both are strictly positive whenever
    lam != mu, so the quadratic form never loses confinement."""
    _guard_couplings(params.lam, params.mu)
    ratio = (params.lam + params.mu) / abs(params.lam - params.mu)
    return {"q_squared": 1.0 / ratio, "p_squared": ratio}
