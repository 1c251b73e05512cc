"""Wigner functions of dressed-level photon states.

Two independent evaluation routes: a closed Laguerre form for the dressed
levels, and a numeric displaced-parity trace W(alpha) = (2/pi)
tr[rho D(alpha) P D(alpha)^dag] with the displacement built from the matrix
exponential of alpha a^dag - alpha* a on the truncated Fock space. Agreement
between the two is a cross-check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateAngle, SupportExceeded
from .hilbert import ModelParams, _ladder
from .jc import DressedLabel, rabi_frequency

__all__ = [
    "WignerGrid",
    "laguerre_pair",
    "wigner_closed_jc",
    "numeric_evaluator",
    "wigner_grid",
]

# largest population in the top two Fock levels, where the cutoff corrupts W
LEAK_TOL = 1e-8


@dataclass
class WignerGrid:
    """Samples on a square phase-space grid; values[i, j] is W at
    axis[i] + 1j * axis[j]."""

    axis: np.ndarray
    values: np.ndarray

    @property
    def normalization_integral(self) -> float:
        """Trapezoid integral of W (1 for a window that holds the support)."""
        inner = np.trapezoid(self.values, self.axis, axis=1)
        return float(np.trapezoid(inner, self.axis))


def laguerre_pair(order: int, x):
    """(L_{order-1}(x), L_order(x)) for order >= 1, by the three-term
    recurrence (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}; stable for the
    moderate orders used here, unlike the factorial sum. Only the last two
    orders are held, so memory does not grow with the order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), 1.0 - x
    for n in range(1, order):
        prev, cur = cur, ((2.0 * n + 1.0 - x) * cur - n * prev) / (n + 1.0)
    return prev, cur


# one eigendecomposition (w, u) of the generator i(a^dag - a), Hermitian also
# when truncated, serves every displacement and keeps it exactly unitary:
# D(r e^{i phi}) = R_phi u diag(exp(-i r w)) u^dag R_phi^dag, R_phi diagonal
def _generator_eig(n_fock: int) -> tuple[np.ndarray, np.ndarray]:
    a = _ladder(n_fock, 1).dense()
    return np.linalg.eigh(1j * (a.conj().T - a))


def _displacement(eig: tuple[np.ndarray, np.ndarray], alpha: complex) -> np.ndarray:
    w, u = eig
    if alpha == 0:
        return np.eye(w.size, dtype=complex)
    core = (u * np.exp(-1j * abs(alpha) * w)[None, :]) @ u.conj().T
    phi = np.angle(alpha)
    if phi != 0.0:
        rot = np.exp(1j * phi * np.arange(w.size))
        core = rot[:, None] * core * np.conj(rot)[None, :]
    return core


def _check_density(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho must be a square matrix")
    if not np.isfinite(rho).all():  # NaN fails every test below
        raise ValueError("rho must be finite")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    if float(np.abs(rho - rho.conj().T).max()) > 1e-10:
        raise ValueError("rho must be Hermitian")
    if float(np.linalg.eigvalsh(rho).min()) < -1e-10:
        raise ValueError("rho must be positive semidefinite")


def _parity_trace(rho: np.ndarray, d: np.ndarray) -> float:
    displaced = d.conj().T @ rho @ d
    pops = np.real(np.diag(displaced))
    if pops[-2:].sum() > LEAK_TOL:
        raise SupportExceeded(
            f"displaced state holds {pops[-2:].sum():.3e} population at the cutoff; "
            "increase n_max")
    signs = (-1.0) ** np.arange(rho.shape[0])
    val = (2.0 / math.pi) * complex(np.diag(displaced) @ signs)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ValueError(f"parity trace has imaginary residue {val.imag:.3e}")
    return float(val.real)


def wigner_closed_jc(label: DressedLabel, params: ModelParams, alpha):
    """Closed Wigner function of the photon state of a dressed level.

    Ground label: (2/pi) exp(-2|alpha|^2), unit-normalized. For N >= 1 both
    branches mix the Fock states N and N-1 with weights (Omega -/+ delta)/
    (2 Omega), giving

        W(alpha) = (-1)^N exp(-2|alpha|^2) / (pi Omega)
                   * [ (Omega -/+ delta) L_N(4|alpha|^2)
                       - (Omega +/- delta) L_{N-1}(4|alpha|^2) ]

    (upper signs: plus branch). Accepts a scalar or ndarray alpha.
    """
    alpha = np.asarray(alpha, dtype=complex)
    # W depends on |alpha|^2 alone: evaluate each distinct value once
    r2, where = np.unique(np.abs(alpha).ravel() ** 2, return_inverse=True)
    gauss = np.exp(-2.0 * r2)
    n = label.n_total
    if n == 0:
        out = (2.0 / math.pi) * gauss
    else:
        omega_n = rabi_frequency(n, params, label.model)
        if omega_n == 0.0:
            raise DegenerateAngle("Wigner form undefined in a degenerate sector")
        lag_below, lag_n = laguerre_pair(n, 4.0 * r2)
        sign = 1.0 if label.branch == "plus" else -1.0
        # the scalar weights (Omega -/+ delta)/Omega are formed first, so a
        # subnormal Omega (weights 1 on resonance) does not overflow
        bracket = ((omega_n - sign * params.delta) / omega_n) * lag_n \
            - ((omega_n + sign * params.delta) / omega_n) * lag_below
        out = ((-1.0) ** n) * gauss / math.pi * bracket
    out = out[where].reshape(alpha.shape)
    return float(out) if out.ndim == 0 else out


def numeric_evaluator(rho: np.ndarray) -> Callable:
    """Evaluator alpha -> (2/pi) tr[rho D P D^dag] of a photon density
    matrix, validated once (ValueError), at a scalar or an array of alphas;
    each point runs the same arithmetic, so array and scalar calls agree
    bitwise. SupportExceeded when a displaced state puts more than LEAK_TOL
    population in the top two Fock levels."""
    rho = np.asarray(rho, dtype=complex)
    _check_density(rho)
    eig = _generator_eig(rho.shape[0])

    def evaluate(alpha):
        alpha = np.asarray(alpha, dtype=complex)
        values = np.array([_parity_trace(rho, _displacement(eig, complex(a)))
                           for a in alpha.ravel()])
        return float(values[0]) if alpha.ndim == 0 else values.reshape(alpha.shape)

    evaluate(0.0)  # refuse a state that already reaches the cutoff
    return evaluate


def wigner_grid(evaluator: Callable, window: float, points: int) -> WignerGrid:
    """Sample W on the square [-window, window]^2. The evaluator maps an
    array of alphas to W, e.g. numeric_evaluator(rho) or
    lambda alpha: wigner_closed_jc(label, params, alpha)."""
    if points < 16:
        raise ValueError("points must be >= 16")
    if not (np.isfinite(window) and window > 0):
        raise ValueError("window must be positive and finite")
    axis = np.linspace(-window, window, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    values = np.asarray(evaluator(re + 1j * im), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("the Wigner function overflows at these parameters")
    return WignerGrid(axis, values)
