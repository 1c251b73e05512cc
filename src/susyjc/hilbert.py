"""Dense operator factories on the truncated boson (x) spin space.

Composite basis convention: index i = s * (n_max + 1) + n, where s = 0 is the
spin ground state |g> (sigma_z eigenvalue -1), s = 1 the excited state |e>
(eigenvalue +1), and n = 0..n_max the Fock level. Raising out of the top Fock
level is dropped (hard cutoff), so identities that transport population upward
hold on the interior projector only; see the algebra module.

All operators are dense complex ndarrays of shape (2*(n_max+1), 2*(n_max+1))
and all energies assume hbar = 1. Constructors that promise a Hermitian
result build mirrored entries from identical floats, so ``H - H.conj().T``
is exactly zero, not merely small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EqualCouplings

__all__ = [
    "HilbertConfig",
    "ModelParams",
    "boson_op",
    "spin_op",
    "exchange_op",
    "excitation_number",
    "su11_generator",
    "parity_op",
    "jc_to_ajc_rotation",
    "ParityChains",
    "parity_chains",
    "build_hamiltonian",
    "MODELS",
]

MODELS = ("jc", "ajc", "ar")

_SPIN_OF = {"g": 0, "e": 1, 0: 0, 1: 1}

# Pauli matrices in the (|g>, |e>) ordering used throughout.
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SX = _SP + _SM
_SY = -1j * (_SP - _SM)


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation of the composite space C^2 (x) C^(n_max+1)."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError("n_max must be a nonnegative integer")

    @property
    def n_fock(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    def index(self, spin, n: int) -> int:
        """Composite index of |spin, n>; spin is 0/1 or 'g'/'e'."""
        s = _SPIN_OF.get(spin)
        if s is None:
            raise ValueError(f"unknown spin label {spin!r}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"Fock level {n} outside 0..{self.n_max}")
        return s * self.n_fock + n

    def basis_state(self, spin, n: int) -> np.ndarray:
        """Unit vector |spin, n> in the composite space."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(spin, n)] = 1.0
        return v

    def chain_spin(self) -> np.ndarray:
        """Spin (0 = g, 1 = e) of level k = 0..n_max on parity chain c, as a
        (2, n_fock) array: chain c holds |(c + k) mod 2, k>."""
        return (np.arange(2)[:, None] + np.arange(self.n_fock)) % 2

    def boson_index(self) -> np.ndarray:
        """Fock level of each composite basis index, in basis order; the
        shared helper behind every interior (edge-excluding) projector."""
        n = np.arange(self.n_fock)
        return np.concatenate([n, n])


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: boson frequency omega, spin splitting omega0,
    rotating coupling lam, counter-rotating coupling mu, coupling phase theta.

    The detuning is always derived, never stored independently.
    """

    omega: float = 1.0
    omega0: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    theta: float = 0.0

    @property
    def delta(self) -> float:
        return self.omega0 - self.omega


# ---------------------------------------------------------------------------
# boson-only primitives (size n_fock); public factories lift them to the
# composite space with np.kron(spin_matrix, boson_matrix)


def _destroy(n_fock: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_fock)), 1).astype(complex)


def _lower_two(n_fock: int) -> np.ndarray:
    # a^2 with single-rounded entries sqrt(n(n-1)); sharper than squaring a
    n = np.arange(2.0, n_fock)
    return np.diag(np.sqrt(n * (n - 1.0)), 2).astype(complex)


def _number(n_fock: int) -> np.ndarray:
    return np.diag(np.arange(n_fock, dtype=float)).astype(complex)


def _fock_parity(n_fock: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(n_fock)).astype(complex)


def _lift_boson(cfg: HilbertConfig, b: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(2), b)


def _lift_spin(cfg: HilbertConfig, s: np.ndarray) -> np.ndarray:
    return np.kron(s, np.eye(cfg.n_fock))


# ---------------------------------------------------------------------------
# public factories


def boson_op(cfg: HilbertConfig, kind: str) -> np.ndarray:
    """Boson operator tensored with the spin identity.

    kind: 'annihilate', 'create', 'number', 'position_q', 'momentum_p'.
    Quadratures are q = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2).
    """
    a = _destroy(cfg.n_fock)
    if kind == "annihilate":
        b = a
    elif kind == "create":
        b = a.conj().T
    elif kind == "number":
        b = _number(cfg.n_fock)
    elif kind == "position_q":
        b = (a.conj().T + a) / np.sqrt(2.0)
    elif kind == "momentum_p":
        b = 1j * (a.conj().T - a) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown boson operator kind {kind!r}")
    return _lift_boson(cfg, b)


def spin_op(cfg: HilbertConfig, kind: str) -> np.ndarray:
    """Spin operator tensored with the boson identity.

    kind: 'sigma_z', 'sigma_plus', 'sigma_minus', 'sigma_x', 'sigma_y', 's_z'
    where s_z = sigma_z / 2.
    """
    table = {
        "sigma_z": _SZ,
        "sigma_plus": _SP,
        "sigma_minus": _SM,
        "sigma_x": _SX,
        "sigma_y": _SY,
        "s_z": _SZ / 2.0,
    }
    if kind not in table:
        raise ValueError(f"unknown spin operator kind {kind!r}")
    return _lift_spin(cfg, table[kind])


def exchange_op(cfg: HilbertConfig, family: str, sign: str) -> np.ndarray:
    """Excitation-exchange operators.

    Family 'Q' (rotating): Q+ = a sigma+, Q- = a^dag sigma-.
    Family 'R' (counter-rotating): R+ = a sigma-, R- = a^dag sigma+.
    sign 'x' gives plus+minus, 'y' gives -i(plus-minus).
    """
    a = _destroy(cfg.n_fock)
    adag = a.conj().T
    if family == "Q":
        plus = np.kron(_SP, a)
        minus = np.kron(_SM, adag)
    elif family == "R":
        plus = np.kron(_SM, a)
        minus = np.kron(_SP, adag)
    else:
        raise ValueError(f"unknown exchange family {family!r}")
    if sign == "plus":
        return plus
    if sign == "minus":
        return minus
    if sign == "x":
        return plus + minus
    if sign == "y":
        return -1j * (plus - minus)
    raise ValueError(f"unknown exchange sign {sign!r}")


def excitation_number(cfg: HilbertConfig, sector: str) -> np.ndarray:
    """Total excitation number, built as an exact diagonal.

    sector 'plus':  N+ = a^dag a + (1 + sigma_z)/2  (|g,n> -> n, |e,n> -> n+1)
    sector 'minus': N- = a^dag a + (1 - sigma_z)/2  (|g,n> -> n+1, |e,n> -> n)
    """
    n = np.arange(cfg.n_fock, dtype=float)
    if sector == "plus":
        diag = np.concatenate([n, n + 1.0])
    elif sector == "minus":
        diag = np.concatenate([n + 1.0, n])
    else:
        raise ValueError(f"unknown excitation sector {sector!r}")
    return np.diag(diag).astype(complex)


def su11_generator(cfg: HilbertConfig, axis: str) -> np.ndarray:
    """Two-boson su(1,1) generators, tensored with the spin identity.

    Kx = (a^2 + a^dag^2)/4, Ky = -i(a^dag^2 - a^2)/4, Kz = (2n+1)/4 (exact
    diagonal, equal to {a^dag, a}/4 away from the cutoff), K- = a^2/2,
    K+ = a^dag^2/2, and 'casimir' returns Kz^2 - (K+K- + K-K+)/2 by matrix
    arithmetic (interior eigenvalue -3/16).
    """
    a2 = _lower_two(cfg.n_fock)
    a2dag = a2.conj().T
    if axis == "x":
        b = (a2 + a2dag) / 4.0
    elif axis == "y":
        b = -1j * (a2dag - a2) / 4.0
    elif axis == "z":
        b = np.diag((2.0 * np.arange(cfg.n_fock) + 1.0) / 4.0).astype(complex)
    elif axis == "plus":
        b = a2dag / 2.0
    elif axis == "minus":
        b = a2 / 2.0
    elif axis == "casimir":
        kz = np.diag((2.0 * np.arange(cfg.n_fock) + 1.0) / 4.0).astype(complex)
        kp = a2dag / 2.0
        km = a2 / 2.0
        b = kz @ kz - 0.5 * (kp @ km + km @ kp)
    else:
        raise ValueError(f"unknown su(1,1) axis {axis!r}")
    return _lift_boson(cfg, b)


def parity_op(cfg: HilbertConfig) -> np.ndarray:
    """Conserved parity sigma_z (x) (-1)^n."""
    return np.kron(_SZ, _fock_parity(cfg.n_fock))


def jc_to_ajc_rotation(cfg: HilbertConfig) -> np.ndarray:
    """Exact pi/2 spin rotation U = exp(-i pi/2 sigma_y) lifted to the
    composite space; U^dag H_jc(coupling c) U equals H_ajc(coupling c)."""
    u2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return _lift_spin(cfg, u2)


@dataclass(frozen=True)
class ParityChains:
    """A Hamiltonian that conserves parity sigma_z (-1)^n, stored as its two
    tridiagonal parity chains.

    Chain c holds the states |s_k, k>, k = 0..n_max, with spin
    s_k = (c + k) mod 2: chain 0 is |g,0>, |e,1>, |g,2>, ... and chain 1 its
    mirror |e,0>, |g,1>, |e,2>, .... diag[c, k] is the real energy of
    |s_k, k>, and off[c, k] = <s_{k+1}, k+1|H|s_k, k> is complex. Storage and
    assembly are O(n_max).
    """

    n_max: int
    diag: np.ndarray  # (2, n_max + 1), real
    off: np.ndarray   # (2, n_max), complex

    def dense(self) -> np.ndarray:
        """The same operator in the spin-major composite basis. Each upper
        entry is the conjugate of its lower mirror, so H - H^dag is exactly
        zero."""
        cfg = HilbertConfig(self.n_max)
        h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        k = np.arange(cfg.n_fock)
        spin = cfg.chain_spin()
        for c in (0, 1):
            idx = spin[c] * cfg.n_fock + k
            h[idx, idx] = self.diag[c]
            h[idx[1:], idx[:-1]] = self.off[c]
            h[idx[:-1], idx[1:]] = np.conj(self.off[c])
        return h


def parity_chains(cfg: HilbertConfig, params: ModelParams, model: str) -> ParityChains:
    """Hamiltonian of the requested model as its two parity chains.

    'jc'  : omega n + omega0 sigma_z/2 + lam (e^{i theta} Q+ + e^{-i theta} Q-)
    'ajc' : omega n - omega0 sigma_z/2 - mu (e^{-i theta} R- + e^{i theta} R+)
    'ar'  : jc plus  mu (e^{-i theta} R- + e^{i theta} R+), requires lam != mu

    The jc model ignores mu and the ajc model ignores lam. On a chain,
    Q- = a^dag sigma- takes |e,k> to sqrt(k+1) |g,k+1> and R- = a^dag sigma+
    takes |g,k> to sqrt(k+1) |e,k+1>, so each step down the chain is one
    exchange term.
    """
    model = model.lower()
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if model == "ar" and params.lam == params.mu:
        raise EqualCouplings(
            "anisotropic model requires lam != mu (exactly equal couplings "
            "are the isotropic singular point)"
        )
    spin = cfg.chain_spin()
    sz = 2.0 * spin - 1.0
    n = np.arange(cfg.n_fock, dtype=float)
    half = 0.5 * params.omega0
    diag = params.omega * n - half * sz if model == "ajc" else params.omega * n + half * sz
    step = np.conj(np.exp(1j * params.theta)) * np.sqrt(np.arange(1.0, cfg.n_fock))
    zero = np.zeros_like(step)
    q_minus = params.lam * step if model != "ajc" else zero
    r_minus = {"jc": zero, "ajc": -(params.mu * step), "ar": params.mu * step}[model]
    off = np.where(spin[:, :-1] == 1, q_minus, r_minus)
    return ParityChains(cfg.n_max, diag, off)


def build_hamiltonian(cfg: HilbertConfig, params: ModelParams, model: str) -> np.ndarray:
    """Dense Hamiltonian of the requested model (see `parity_chains`); the
    result is exactly Hermitian entrywise."""
    return parity_chains(cfg, params, model).dense()
