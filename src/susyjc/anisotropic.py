"""Squeezed-frame analysis of the anisotropic Rabi model.

The lab Hamiltonian with both rotating (strength lam) and counter-rotating
(strength mu) couplings, lam != mu, is unitarily equivalent to a JC model
with a parametric two-photon drive. The equivalence holds level by level up
to one global constant; comparing sorted spectra of `effective_hamiltonian`
and of V^dag H V fixes the constant empirically to

    E_lab[k] = E_squeezed[k] - omega/2

i.e. `lab_frame_offset` returns -omega/2 (checked at n_max=200 over the
lowest levels; see tests). Dropping the drive term yields closed approximate
levels via `jc_approximation` / `approx_spectrum`, trustworthy when
`validity` = 2*lam*mu/(lam^2+mu^2) is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCouplings, InvalidLabel
from .hilbert import (HilbertConfig, ModelParams, _ladder, exchange_op, spin_op,
                      su11_generator)
from .jc import DressedLabel

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

    theta_rotation_applied records the Heaviside-step spin flip that fires
    when the counter-rotating coupling dominates; sign is sgn(lam - mu).
    """

    xi: float
    theta_rotation_applied: bool
    sign: int
    unitary: np.ndarray


@dataclass(frozen=True)
class JCApproximation:
    """Effective JC parameters after dropping the parametric drive."""

    delta_ar: float
    lambda_ar: float
    omega_scaled: float
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
    """The three-factor unitary: boson phase rotation by theta, conditional
    pi/2 spin flip when mu > lam, then the two-photon squeeze exp(-i xi Ky).

    The squeeze angle is atanh(min/max of the couplings) = xi/2, the unique
    amount for which conjugation maps the lab Hamiltonian onto
    `effective_hamiltonian` entrywise (plus the `lab_frame_offset` constant);
    doubling it preserves the spectrum, being unitary, but not the matrix
    identity. The first factor is diagonal, the second is [[0, 1], [-1, 0]]
    on the spin, and the squeeze is 1 (x) exp(-i xi ky), since Ky = 1 (x) ky
    on the spin-major basis; exp(-i xi ky) is u diag(exp(-i xi w)) u^dag from
    numpy's eigh of the boson block ky = u diag(w) u^dag, Hermitian also when
    truncated. So the whole unitary is (spin factor) (x) (boson block).
    """
    sign = _guard_couplings(params.lam, params.mu)
    xi = squeeze_parameter(params.lam, params.mu)
    n_fock = cfg.n_fock
    phase = np.exp(-1j * params.theta * np.arange(n_fock))
    block = np.diag(phase)
    if xi != 0.0:
        ky = -1j * (_ladder(n_fock, -2) - _ladder(n_fock, 2)) / 4.0
        w, u = np.linalg.eigh(ky.dense())
        block = phase[:, None] * ((u * np.exp(-1j * xi * w)[None, :]) @ u.conj().T)
    flipped = params.mu > params.lam
    # the spin factor of hilbert.jc_to_ajc_rotation, exp(-i pi/2 sigma_y)
    spin = np.array([[0.0, 1.0], [-1.0, 0.0]]) if flipped else np.eye(2)
    v = np.kron(spin, block)
    return SqueezedFrame(xi=xi, theta_rotation_applied=flipped, sign=sign,
                         unitary=v)


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
    """Effective detuning, coupling, and scaled boson frequency of the
    drive-free JC model, plus the validity ratio (small = good)."""
    sign = _guard_couplings(params.lam, params.mu)
    l2, m2 = params.lam ** 2, params.mu ** 2
    dif = abs(l2 - m2)
    omega_scaled = params.omega * (l2 + m2) / dif
    return JCApproximation(
        delta_ar=sign * params.omega0 - omega_scaled,
        lambda_ar=sign * math.sqrt(dif),
        omega_scaled=omega_scaled,
        validity=2.0 * params.lam * params.mu / (l2 + m2),
    )


def approx_spectrum(label: DressedLabel, params: ModelParams) -> float:
    """Approximate squeezed-frame eigenvalue for a dressed label:

        ground (minus, 0):  -delta_ar / 2
        (plus/minus, N):    omega_scaled*N +/- (1/2) sgn(lam-mu)
                                * sqrt(delta_ar^2 + 4 lambda_ar^2 N)

    The branch sign multiplies sgn(lam-mu), so for mu > lam the plus branch
    is the lower member of each pair. Subtract omega/2 (`lab_frame_offset`)
    to compare against lab-frame eigenvalues.
    """
    if not isinstance(label, DressedLabel):
        raise InvalidLabel("label must be a DressedLabel")
    ap = jc_approximation(params)
    n = label.n_total
    if n == 0:
        return -0.5 * ap.delta_ar
    split = math.hypot(ap.delta_ar, 2.0 * ap.lambda_ar * math.sqrt(n))
    branch = 1.0 if label.branch == "plus" else -1.0
    sign = 1.0 if params.lam > params.mu else -1.0
    return ap.omega_scaled * n + 0.5 * branch * sign * split


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
