"""Operator factories on the truncated boson (x) spin space.

Composite basis convention: index i = s * (n_max + 1) + n, where s = 0 is the
spin ground state |g> (sigma_z eigenvalue -1), s = 1 the excited state |e>
(eigenvalue +1), and n = 0..n_max the Fock level. Raising out of the top Fock
level is dropped (hard cutoff), so identities that transport population upward
hold on the interior projector only; see the algebra module.

Every operator factory returns a `BandedOp`, the few nonzero diagonals of
the (2*(n_max+1))-square matrix, built in O(n_max); its sums and products
stay O(n_max). Every Hamiltonian is a `ParityChains`, two real chains.
The `.dense()` of either is the only way to a matrix. All energies assume
hbar = 1. Constructors that promise a Hermitian result build mirrored
entries from identical floats, so ``H - H.conj().T`` is exactly zero, not
merely small.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "HilbertConfig",
    "ModelParams",
    "BandedOp",
    "spin_op",
    "exchange_op",
    "excitation_number",
    "su11_generator",
    "parity_op",
    "jc_to_ajc_rotation",
    "JC_AJC",
    "ParityChains",
    "parity_chains",
    "MODELS",
]

MODELS = ("jc", "ajc", "ar")

_SPIN_OF = {"g": 0, "e": 1, 0: 0, 1: 1}

# Pauli matrices in the (|g>, |e>) ordering used throughout.
_I2 = np.eye(2, dtype=complex)
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
    rotating coupling lam, counter-rotating coupling mu.

    The detuning is always derived, never stored independently.
    """

    omega: float = 1.0
    omega0: float = 1.0
    lam: float = 0.0
    mu: float = 0.0

    @property
    def delta(self) -> float:
        return self.omega0 - self.omega


# ---------------------------------------------------------------------------
# banded storage


def _shift(d: np.ndarray, k: int) -> np.ndarray:
    """d[r + k] at index r, zero where r + k falls outside d."""
    out = np.zeros_like(d)
    if k >= 0:
        out[:max(d.size - k, 0)] = d[k:]
    else:
        out[-k:] = d[:k]
    return out


class BandedOp:
    """Square operator stored by its nonzero diagonals.

    ``diags`` maps an offset k to a length-``dim`` complex array whose index
    r holds the entry (r, r + k); indices where r + k falls outside
    0..dim-1 hold 0. Sums, differences and scalar multiples act on the
    diagonals entry by entry, so they round exactly as the dense operations
    do. A product runs over pairs of diagonals in O(offsets^2 dim); where an
    entry of the product has a single nonzero term, as in every identity the
    algebra module checks, it is the same float as the dense product's.
    """

    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, dim: int, diags: dict[int, np.ndarray] | None = None):
        self.dim = dim
        self.diags = {} if diags is None else diags

    @classmethod
    def diagonal(cls, dim: int, values, offset: int = 0) -> "BandedOp":
        """``values`` along diagonal ``offset``, in row order."""
        d = np.zeros(dim, dtype=complex)
        d[max(0, -offset):dim - max(0, offset)] = values
        return cls(dim, {offset: d})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def _same_dim(self, other: "BandedOp") -> None:
        if other.dim != self.dim:
            raise DimensionMismatch(
                f"incompatible shapes {self.shape} and {other.shape}")

    def _entrywise(self, other, op) -> "BandedOp":
        if not isinstance(other, BandedOp):
            return NotImplemented
        self._same_dim(other)
        zero = np.zeros(self.dim, dtype=complex)
        return BandedOp(self.dim, {
            k: op(self.diags.get(k, zero), other.diags.get(k, zero))
            for k in sorted(self.diags.keys() | other.diags.keys())})

    def __add__(self, other):
        return self._entrywise(other, np.add)

    def __sub__(self, other):
        return self._entrywise(other, np.subtract)

    def __neg__(self) -> "BandedOp":
        return BandedOp(self.dim, {k: -d for k, d in self.diags.items()})

    # scalar-first, as in the dense code: numpy can round c * x and x * c
    # differently in the last bit of a complex product
    def __rmul__(self, scalar) -> "BandedOp":
        return BandedOp(self.dim, {k: scalar * d for k, d in self.diags.items()})

    def __truediv__(self, scalar) -> "BandedOp":
        return BandedOp(self.dim, {k: d / scalar for k, d in self.diags.items()})

    def __matmul__(self, other):
        if not isinstance(other, BandedOp):
            return NotImplemented
        self._same_dim(other)
        out: dict[int, np.ndarray] = {}
        for k1, a in sorted(self.diags.items()):
            for k2, b in sorted(other.diags.items()):
                k = k1 + k2
                if abs(k) < self.dim:
                    term = a * _shift(b, k1)
                    out[k] = out[k] + term if k in out else term
        return BandedOp(self.dim, out)

    def masked_max(self, mask: np.ndarray | None = None) -> float:
        """Largest entry magnitude on the rows and columns that the boolean
        ``mask`` keeps (everywhere when it is None)."""
        best = 0.0
        for k, d in self.diags.items():
            if mask is not None:
                d = d[mask & _shift(mask, k)]
            best = max(best, float(np.abs(d).max(initial=0.0)))
        return best

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        r = np.arange(self.dim)
        for k, d in self.diags.items():
            rows = r[max(0, -k):self.dim - max(0, k)]
            out[rows, rows + k] = d[rows]
        return out


# ---------------------------------------------------------------------------
# boson-only primitives (size n_fock), lifted to the composite space by _kron


def _ladder(n_fock: int, offset: int) -> BandedOp:
    """a (offset 1), a^2 (2), a^dag (-1) or a^dag^2 (-2). The entries of a^2
    are single-rounded sqrt(n (n-1)), sharper than squaring a."""
    n = np.arange(float(abs(offset)), n_fock)
    values = np.sqrt(n) if abs(offset) == 1 else np.sqrt(n * (n - 1.0))
    return BandedOp.diagonal(n_fock, values, offset)


def _kron(cfg: HilbertConfig, s: np.ndarray, b: BandedOp) -> BandedOp:
    """s (x) b for a 2x2 spin matrix s: block (i, j) of the spin-major basis
    is s[i, j] b, so diagonal k of b lands on offset (j - i) n_fock + k."""
    nf = cfg.n_fock
    out = BandedOp(cfg.dim)
    for (i, j), sij in np.ndenumerate(s):
        if sij != 0:
            for k, d in b.diags.items():
                block = np.zeros(cfg.dim, dtype=complex)
                block[i * nf:(i + 1) * nf] = sij * d
                out = out + BandedOp(cfg.dim, {(j - i) * nf + k: block})
    return out


# ---------------------------------------------------------------------------
# public factories


def spin_op(cfg: HilbertConfig, kind: str) -> BandedOp:
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
    return _kron(cfg, table[kind], BandedOp.diagonal(cfg.n_fock, 1.0))


def exchange_op(cfg: HilbertConfig, family: str, sign: str) -> BandedOp:
    """Excitation-exchange operators.

    Family 'Q' (rotating): Q+ = a sigma+, Q- = a^dag sigma-.
    Family 'R' (counter-rotating): R+ = a sigma-, R- = a^dag sigma+.
    sign 'x' gives plus+minus, 'y' gives -i(plus-minus).
    """
    a = _ladder(cfg.n_fock, 1)
    adag = _ladder(cfg.n_fock, -1)
    if family == "Q":
        plus = _kron(cfg, _SP, a)
        minus = _kron(cfg, _SM, adag)
    elif family == "R":
        plus = _kron(cfg, _SM, a)
        minus = _kron(cfg, _SP, adag)
    else:
        raise ValueError(f"unknown exchange family {family!r}")
    if sign == "plus":
        op = plus
    elif sign == "minus":
        op = minus
    elif sign == "x":
        op = plus + minus
    elif sign == "y":
        op = -1j * (plus - minus)
    else:
        raise ValueError(f"unknown exchange sign {sign!r}")
    return op


def excitation_number(cfg: HilbertConfig, sector: str) -> BandedOp:
    """Total excitation number, built as an exact diagonal: N+ = a^dag a +
    (1 + sigma_z)/2 for sector 'plus', the number jc conserves, and
    N- = a^dag a + (1 - sigma_z)/2 for 'minus', the one ajc conserves."""
    model = {"plus": "jc", "minus": "ajc"}.get(sector)
    if model is None:
        raise ValueError(f"unknown excitation sector {sector!r}")
    excited = np.repeat(np.arange(2) == JC_AJC[model].spin, cfg.n_fock)
    return BandedOp.diagonal(cfg.dim, cfg.boson_index() + excited)


def su11_generator(cfg: HilbertConfig, axis: str) -> BandedOp:
    """Two-boson su(1,1) generators, tensored with the spin identity.

    Kx = (a^2 + a^dag^2)/4, Ky = -i(a^dag^2 - a^2)/4, Kz = (2n+1)/4 (exact
    diagonal, equal to {a^dag, a}/4 away from the cutoff), K- = a^2/2,
    K+ = a^dag^2/2, and 'casimir' returns Kz^2 - (K+K- + K-K+)/2 by matrix
    arithmetic (interior eigenvalue -3/16).
    """
    a2 = _ladder(cfg.n_fock, 2)
    a2dag = _ladder(cfg.n_fock, -2)
    kz = BandedOp.diagonal(cfg.n_fock, (2.0 * np.arange(cfg.n_fock) + 1.0) / 4.0)
    if axis == "x":
        b = (a2 + a2dag) / 4.0
    elif axis == "y":
        b = -1j * (a2dag - a2) / 4.0
    elif axis == "z":
        b = kz
    elif axis == "plus":
        b = a2dag / 2.0
    elif axis == "minus":
        b = a2 / 2.0
    elif axis == "casimir":
        kp = a2dag / 2.0
        km = a2 / 2.0
        b = kz @ kz - 0.5 * (kp @ km + km @ kp)
    else:
        raise ValueError(f"unknown su(1,1) axis {axis!r}")
    return _kron(cfg, _I2, b)


def parity_op(cfg: HilbertConfig) -> BandedOp:
    """Conserved parity sigma_z (x) (-1)^n."""
    fock_parity = BandedOp.diagonal(cfg.n_fock, (-1.0) ** np.arange(cfg.n_fock))
    return _kron(cfg, _SZ, fock_parity)


def jc_to_ajc_rotation(cfg: HilbertConfig) -> BandedOp:
    """Exact pi/2 spin rotation U = exp(-i pi/2 sigma_y) lifted to the
    composite space; U^dag H_jc(coupling c) U equals H_ajc(coupling c)."""
    u2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return _kron(cfg, u2, BandedOp.diagonal(cfg.n_fock, 1.0))


# ajc is jc under jc_to_ajc_rotation (R+- in place of Q+-), so the two differ
# in two facts alone: the ModelParams coupling each reads, and the spin s whose
# level adds one excitation to the number it conserves, n + [spin == s]
LabelModel = namedtuple("LabelModel", "coupling spin")
JC_AJC = {"jc": LabelModel("lam", _SPIN_OF["e"]),
          "ajc": LabelModel("mu", _SPIN_OF["g"])}


@dataclass(frozen=True)
class ParityChains:
    """A Hamiltonian that conserves parity sigma_z (-1)^n, stored as its two
    tridiagonal parity chains.

    Chain c holds the states |s_k, k>, k = 0..n_max, with spin
    s_k = (c + k) mod 2: chain 0 is |g,0>, |e,1>, |g,2>, ... and chain 1 its
    mirror |e,0>, |g,1>, |e,2>, .... diag[c, k] is the energy of |s_k, k>,
    and off[c, k] = <s_{k+1}, k+1|H|s_k, k>, both real for every model.
    Storage and assembly are O(n_max).
    """

    diag: np.ndarray  # (2, n_max + 1), real
    off: np.ndarray   # (2, n_max), real

    @property
    def n_max(self) -> int:
        return self.diag.shape[1] - 1

    def dense(self) -> np.ndarray:
        """The same operator in the spin-major composite basis. Each upper
        entry is its lower mirror, so H - H^dag is exactly zero."""
        cfg = HilbertConfig(self.n_max)
        h = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        k = np.arange(cfg.n_fock)
        spin = cfg.chain_spin()
        for c in (0, 1):
            idx = spin[c] * cfg.n_fock + k
            h[idx, idx] = self.diag[c]
            h[idx[1:], idx[:-1]] = h[idx[:-1], idx[1:]] = self.off[c]
        return h


def parity_chains(cfg: HilbertConfig, params: ModelParams, model: str) -> ParityChains:
    """Hamiltonian of the requested model as its two parity chains.

    'jc'  : omega n + omega0 sigma_z/2 + lam (Q+ + Q-)
    'ajc' : omega n - omega0 sigma_z/2 - mu (R- + R+)
    'ar'  : jc plus  mu (R- + R+); at lam == mu this is the quantum Rabi
            model, regular in this lab frame

    The jc model ignores mu and the ajc model ignores lam. On a chain,
    Q- = a^dag sigma- takes |e,k> to sqrt(k+1) |g,k+1> and R- = a^dag sigma+
    takes |g,k> to sqrt(k+1) |e,k+1>, so each step down the chain is one
    exchange term.
    """
    model = model.lower()
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    spin = cfg.chain_spin()
    sz = 2.0 * spin - 1.0
    n = np.arange(cfg.n_fock, dtype=float)
    half = 0.5 * params.omega0
    diag = params.omega * n - half * sz if model == "ajc" else params.omega * n + half * sz
    step = np.sqrt(np.arange(1.0, cfg.n_fock))
    zero = np.zeros_like(step)
    q_minus = params.lam * step if model != "ajc" else zero
    r_minus = {"jc": zero, "ajc": -params.mu * step, "ar": params.mu * step}[model]
    off = np.where(spin[:, :-1] == 1, q_minus, r_minus)
    return ParityChains(diag, off)
