"""Closed-form dressed spectrum of the Jaynes-Cummings model and its
counter-rotating twin.

Level labels are (branch, N) where N is the conserved total excitation number
of the sector and branch is 'plus' or 'minus'; (minus, 0) is the unique
singlet ground label and (plus, 0) does not exist. The two models are
related by an exact pi/2 spin rotation, and differ only as `hilbert.JC_AJC`
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import LABEL_MODELS
from .errors import (
    DegenerateAngle,
    InvalidLabel,
    InvalidN,
    TruncationTooSmall,
)
from .hilbert import JC_AJC, HilbertConfig, ModelParams

__all__ = [
    "DressedLabel",
    "CrossingRecord",
    "coupling_for",
    "rabi_frequency",
    "dressed_energy",
    "dressed_state",
    "lowest_closed_levels",
    "crossing_pair",
    "ground_state_critical",
    "reduced_density",
    "von_neumann_entropy",
]

BRANCHES = ("plus", "minus")


@dataclass(frozen=True)
class DressedLabel:
    """(branch, N) label of a dressed level of the jc or ajc model."""

    branch: str
    n_total: int
    model: str = "jc"

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise InvalidLabel(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        if self.model not in LABEL_MODELS:
            raise InvalidLabel(f"model must be one of {LABEL_MODELS}, got {self.model!r}")
        if int(self.n_total) != self.n_total or self.n_total < 0:
            raise InvalidLabel("n_total must be a nonnegative integer")
        if self.n_total == 0 and self.branch == "plus":
            raise InvalidLabel("(plus, 0) is not a level; the N=0 sector is a singlet")


@dataclass(frozen=True)
class CrossingRecord:
    """Two labels that become degenerate at the recorded coupling."""

    left: DressedLabel | None
    right: DressedLabel | None
    coupling: float


def coupling_for(model: str, params: ModelParams) -> float:
    """Coupling amplitude the closed forms use for the given model."""
    if model not in JC_AJC:
        raise InvalidLabel(f"closed forms cover 'jc' and 'ajc', got {model!r}")
    return getattr(params, JC_AJC[model].coupling)


def _omega_n(n_total: int, delta: float, g: float) -> float:
    # generalized Rabi splitting of the N-th sector
    return math.hypot(delta, 2.0 * g * math.sqrt(n_total))


def rabi_frequency(n_total: int, params: ModelParams, model: str = "jc") -> float:
    """Sector splitting Omega(N) = sqrt(delta^2 + 4 g^2 N), N >= 1."""
    if int(n_total) != n_total or n_total < 1:
        raise InvalidN("rabi_frequency needs a positive integer N")
    return _omega_n(n_total, params.delta, coupling_for(model, params))


def dressed_energy(label: DressedLabel, params: ModelParams) -> float:
    """Closed-form eigenvalue of the labeled level.

    E(minus, 0) = -omega0/2 and, for N >= 1,
    E(+/-, N) = omega (N - 1/2) +/- Omega(N)/2.
    """
    if label.n_total == 0:
        return 0.0 - 0.5 * params.omega0  # +0.0, not -0.0, at omega0 = 0
    omega_n = _omega_n(label.n_total, params.delta, coupling_for(label.model, params))
    sign = 1.0 if label.branch == "plus" else -1.0
    return params.omega * (label.n_total - 0.5) + 0.5 * sign * omega_n


def dressed_state(label: DressedLabel, params: ModelParams,
                  cfg: HilbertConfig) -> np.ndarray:
    """Closed-form eigenvector on the composite space, as amplitudes.

    The amplitudes are real (in a complex array), the first nonzero one
    positive. Sector N holds the other spin's |N> and |s, N - 1>, s the spin
    adding an excitation; the plus branch weighs the latter more at delta > 0.
    """
    n = label.n_total
    if cfg.n_max < n:
        raise TruncationTooSmall(f"n_max={cfg.n_max} cannot hold a level with N={n}")
    amp = np.zeros(cfg.dim, dtype=complex)
    spin = JC_AJC[label.model].spin
    if n == 0:
        amp[cfg.index(1 - spin, 0)] = 1.0
        return amp

    delta = params.delta
    omega_n = _omega_n(n, delta, coupling_for(label.model, params))
    if omega_n == 0.0:
        raise DegenerateAngle("dressed state undefined in a degenerate sector "
                              "(delta = 0 with zero coupling)")
    c_hi = math.sqrt((omega_n + delta) / (2.0 * omega_n))
    c_lo = math.sqrt((omega_n - delta) / (2.0 * omega_n))
    heavy = spin if label.branch == "plus" else 1 - spin  # holds c_hi
    for s, a in zip((0, 1), (c_lo, c_hi) if heavy else (c_hi, -c_lo)):
        amp[cfg.index(s, n - (s == spin))] = a
    return amp


def lowest_closed_levels(params: ModelParams, count: int,
                         model: str = "jc") -> list[tuple[float, DressedLabel]]:
    """Lowest `count` closed-form levels, sorted ascending by energy; ties
    keep the order (minus, 0), (plus, 1), (minus, 1), (plus, 2), ... The
    plus branch rises with N and the minus branch is convex in N with its
    minimum at N* = (g^4/omega^2 - delta^2)/(4 g^2), so only the singlet,
    (plus, 1..count) and (minus, N* +/- count) are ranked. InvalidN when no
    closed level is lowest: at omega <= 0, where the levels fall without
    bound as N grows, and at N* > 2^53."""
    if count < 1:
        raise InvalidN("count must be >= 1")
    if not params.omega > 0:
        raise InvalidN(f"no closed level is lowest at omega = {params.omega!r} <= 0")
    g = coupling_for(model, params)
    # (g/omega)^2 - (delta/g)^2, with no square that overflows on its own
    x, y = (g / params.omega, params.delta / g) if g else (0.0, 0.0)
    n_star = (x - y) * (x + y) / 4.0
    if not n_star <= 2.0 ** 53:
        raise InvalidN(f"the lowest minus level sits at N = {n_star!r} > 2^53")
    centre = round(max(n_star, 0.0))
    sectors = [("plus", n) for n in range(1, count + 1)] + [
        ("minus", n) for n in range(max(1, centre - count), centre + count + 1)]
    labels = [DressedLabel(b, n, model) for b, n in [("minus", 0)] + sectors]
    ranked = sorted((dressed_energy(lab, params),
                     2 * lab.n_total - (lab.branch == "plus"), lab) for lab in labels)
    return [(energy, lab) for energy, _, lab in ranked[:count]]


def crossing_pair(m: int, n: int, branch: str,
                  params: ModelParams) -> CrossingRecord | None:
    """Coupling where the (branch, M) level meets the (minus, N) level,
    N > M >= 0, from the closed radical

        lam^2 = omega [ (M+N) omega -/+ sqrt(delta^2 + 4 M N omega^2) ]

    with the minus sign for branch 'plus'; for M = 0 the root is the
    singlet's Omega(0), the signed delta (E(minus, 0) = -omega/2 - delta/2).
    Returns None when no positive finite root exists (none does for
    omega <= 0) or when the root fails re-verification against
    dressed_energy.
    """
    if int(m) != m or int(n) != n or m < 0 or n <= m:
        raise InvalidN("crossing_pair needs integers N > M >= 0")
    if branch not in BRANCHES:
        raise InvalidLabel(f"branch must be one of {BRANCHES}")
    if m == 0 and branch == "plus":
        return None  # no (plus, 0) level exists
    omega = params.omega
    root = params.delta if m == 0 else math.sqrt(params.delta ** 2
                                                 + 4.0 * m * n * omega ** 2)
    bracket = (m + n) * omega - root if branch == "plus" else (m + n) * omega + root
    if omega <= 0.0 or not 0.0 < omega * bracket < math.inf:
        return None
    lam_c = math.sqrt(omega * bracket)
    at_crossing = replace(params, lam=lam_c)
    left = DressedLabel(branch, m, "jc")
    right = DressedLabel("minus", n, "jc")
    e_left = dressed_energy(left, at_crossing)
    e_right = dressed_energy(right, at_crossing)
    # rounding scales with the energies' terms, up to about N omega + |delta|
    scale = max(1.0, abs(e_left), abs(e_right), n * omega + abs(params.delta))
    if abs(e_left - e_right) > 1e-9 * scale:
        return None
    return CrossingRecord(left, right, lam_c)


def ground_state_critical(n: int, params: ModelParams) -> float:
    """Coupling where the ground state hops from sector N-1 to sector N
    (Omega(N) - Omega(N-1) = 2 omega): the crossing_pair of (minus, N-1) and
    (minus, N), so lam_1^2 = omega omega0. InvalidN when no positive
    coupling makes the hop (omega omega0 <= 0 for N = 1, any N at omega <= 0).
    """
    rec = crossing_pair(n - 1, n, "minus", params)
    if rec is None:
        raise InvalidN(f"no positive coupling moves the ground state to N={n}")
    return rec.coupling


def reduced_density(label: DressedLabel, params: ModelParams, subsystem: str,
                    cfg: HilbertConfig | None = None) -> np.ndarray:
    """Reduced density matrix of a dressed level.

    subsystem 'fermion' gives the 2x2 spin state (basis g, e), 'boson' the
    Fock-diagonal photon state; cfg defaults to the smallest truncation that
    holds the level. Eigenvalues of the N >= 1 fermion state are
    (Omega -/+ delta)/(2 Omega) independent of the branch ordering.
    """
    if subsystem not in ("fermion", "boson"):
        raise ValueError(f"subsystem must be 'fermion' or 'boson', got {subsystem!r}")
    if cfg is None:
        cfg = HilbertConfig(max(label.n_total, 1))
    state = dressed_state(label, params, cfg)
    mat = state.reshape(2, cfg.n_fock)
    if subsystem == "fermion":
        return mat @ mat.conj().T
    return mat.T @ mat.conj()


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -tr(rho ln rho) in nats."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-18]
    return float(-(evals * np.log(evals)).sum())
