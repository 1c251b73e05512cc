"""Diagonalization oracle with truncation certification and a
level-crossing finder.

The oracle never uses the closed forms: it diagonalizes the truncated
Hamiltonian, certifies convergence by doubling the Fock cutoff, and locates
ground-state crossings between the two parity chains by scanning and
bisecting their ground-energy gap, so closed-form results can be validated
against it. Every solve takes parity chains, by one of three routes:
chains that split into excitation-number sectors (jc/ajc) sector by sector
in numpy; a Hamiltonian's other chains (ar/far), full spectrum or lowest
level alike, as dense symmetric matrices by numpy's LAPACK while the
process's dense work stays within DENSE_BUDGET; past the budget by SciPy's
tridiagonal solver, imported on first use. A crossing search takes its
route once, before its grid: the grid goes to SciPy whole unless all of
it fits in the budget. Both full-spectrum routes end in the same LAPACK
dsterf, so their eigenvalues are bitwise equal; a lowest level differs by
rounding only. So importing the package, solving jc/ajc, or certifying or
searching an ar/far run within the budget loads no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import CAP_N_MAX
from .errors import NoConvergence
from .hilbert import HilbertConfig, ParityChains
from .jc import CrossingRecord, DressedLabel

__all__ = [
    "EigenSolution",
    "eigenvalues",
    "certify_truncation",
    "certify_cutoff",
    "find_crossings",
    "CAP_N_MAX",
]

# rows^2 summed over the dense solves of a process, checked before each
# Hamiltonian's (and before each crossing search's grid): about 0.17 s of
# dense solves on a 2-CPU host, half the cost of importing scipy.linalg. A
# short run never pays the import, and a long one pays at most about one
# import more than with SciPy from the start. The count is per process,
# like the import it stands in for; both routes give the same eigenvalues
# (a lowest level to rounding, too little to move any crossing tested), so
# it changes cost only.
DENSE_BUDGET = 2 ** 21
_dense_spent = 0


@dataclass
class EigenSolution:
    """Certified eigenvalues, ascending; converged_levels counts the leading
    eigenvalues certified stable under truncation doubling (0 = uncertified)."""

    eigenvalues: np.ndarray
    converged_levels: int
    n_max_used: int


def _real_chain(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the diagonal phase change that makes every off-diagonal entry real and
    # nonnegative turns a chain into the real symmetric tridiagonal
    # (diag, |off|), with the same eigenvalues and the same |v_k|. Couplings
    # at or below eps times the largest entry are dropped: by Weyl's bound
    # that moves no eigenvalue by more than 2 eps times that entry, and it
    # keeps LAPACK's tridiagonal solvers, which square the couplings, off
    # subnormal squares, where they lose digits (|off| ~ 1e-160 next to O(1)
    # entries cost 5e-4). A non-finite entry means a parameter overflowed,
    # and the threshold would then drop every coupling, so it is refused.
    off = np.abs(off)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("a Hamiltonian entry overflows; the parameters are too large")
    scale = max(float(np.abs(diag).max()), float(off.max(initial=0.0)))
    off[off <= np.finfo(float).eps * scale] = 0.0
    return diag, off


def _sectors(diag: np.ndarray, off: np.ndarray):
    """Blocks of <= 2 states of a real chain with no two consecutive nonzero
    couplings (else None): each block's first state and lowest eigenvalue,
    2x2 blocks first, then their upper eigenvalues, from one stacked eigvalsh."""
    coupled = off != 0
    if (coupled[1:] & coupled[:-1]).any():
        return None
    pairs = np.flatnonzero(off)
    blocks = np.zeros((pairs.size, 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = diag[pairs], diag[pairs + 1]
    blocks[:, 0, 1] = blocks[:, 1, 0] = off[pairs]
    pair_evals = np.linalg.eigvalsh(blocks)
    single = np.ones(diag.size, bool)  # a mask: np.setdiff1d loads numpy.ma
    single[pairs] = single[pairs + 1] = False
    singles = np.flatnonzero(single)
    return (np.concatenate([pairs, singles]),
            np.concatenate([pair_evals[:, 0], diag[singles]]), pair_evals[:, 1])


def _dense_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the real chain (diag, off >= 0) as a dense
    symmetric matrix. numpy's eigvalsh runs LAPACK dsyevd, whose reduction
    to tridiagonal form leaves a tridiagonal input unchanged (every reflector
    is the identity), and then dsterf: the solver behind SciPy's
    eigvalsh_tridiagonal, so the two agree bitwise."""
    n = diag.size
    a = np.diag(diag)
    a.flat[n::n + 1] = off
    return np.linalg.eigvalsh(a, UPLO="L")


def _chain_eigenvalues(diag: np.ndarray, off: np.ndarray, split,
                       dense: bool = False, lowest: bool = False) -> np.ndarray:
    """Eigenvalues of one real chain (only the lowest if lowest), given its
    _sectors split: unsorted when the chain splits; a chain that does not
    split is solved dense if dense, else by SciPy."""
    if split is not None:
        _, lows, highs = split
        return lows.min(keepdims=True) if lowest else np.concatenate([lows, highs])
    if dense:
        return _dense_eigenvalues(diag, off)[:1 if lowest else None]
    from scipy.linalg import eigvalsh_tridiagonal
    if lowest:
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return eigvalsh_tridiagonal(diag, off)


def _routed_chains(h: ParityChains, dense: bool = True) -> tuple[list, bool]:
    """The real chains of h as (diag, off, sectors or None), and whether
    those that do not split are solved dense: if dense and their rows^2
    still fit in DENSE_BUDGET, which is then charged with them. One check
    covers them all, so they take one route."""
    global _dense_spent
    chains = [(d, e, _sectors(d, e))
              for d, e in (_real_chain(d, e) for d, e in zip(h.diag, h.off))]
    work = sum(d.size ** 2 for d, _, split in chains if split is None)
    dense = dense and _dense_spent + work <= DENSE_BUDGET
    _dense_spent += work if dense else 0
    return chains, dense


def eigenvalues(h: ParityChains) -> np.ndarray:
    """All eigenvalues, ascending, solved one chain (or sector) at a time
    and merged."""
    chains, dense = _routed_chains(h)
    return np.sort(np.concatenate([_chain_eigenvalues(*chain, dense) for chain in chains]))


def _converged_count(evals: np.ndarray, ref: np.ndarray, tol: float) -> int:
    """Number of leading eigenvalues of evals that move < tol against ref."""
    m = min(evals.size, ref.size)
    moved = np.abs(evals[:m] - ref[:m]) >= tol
    return int(np.argmax(moved)) if moved.any() else m


def certify_truncation(builder: Callable[[int], ParityChains],
                       k_levels: int, tol: float = 1e-10,
                       start_n_max: int = 32) -> EigenSolution:
    """Double n_max until the lowest k_levels eigenvalues move < tol.

    builder(n_max) must return the same physical Hamiltonian at any cutoff.
    Raises NoConvergence once CAP_N_MAX is passed.
    """
    if k_levels < 1:
        raise ValueError("k_levels must be >= 1")
    prev = None
    n_max = start_n_max
    while n_max <= CAP_N_MAX:
        evals = eigenvalues(builder(n_max))
        if prev is not None:
            k = min(k_levels, prev.size, evals.size)
            if k == k_levels and np.abs(evals[:k] - prev[:k]).max() < tol:
                return EigenSolution(evals, _converged_count(evals, prev, tol), n_max)
        prev = evals
        n_max *= 2
    raise NoConvergence(f"lowest {k_levels} eigenvalues not stable below n_max={CAP_N_MAX}")


def certify_cutoff(builder: Callable[[int], ParityChains], n_max: int,
                   tol: float = 1e-10) -> EigenSolution:
    """Eigenvalues at a pinned n_max, certified against the cutoff 2 n_max:
    converged_levels counts the leading eigenvalues that move < tol."""
    evals = eigenvalues(builder(n_max))
    ref = eigenvalues(builder(2 * n_max))
    return EigenSolution(evals, _converged_count(evals, ref, tol), n_max)


# the excitation number each label model conserves: N+ = n + (1 + sigma_z)/2
# for jc, N- = n + (1 - sigma_z)/2 for ajc
_EXCITATION = {"jc": lambda spin, n: n + spin, "ajc": lambda spin, n: n + 1 - spin}


def _ground_label(h: ParityChains, chain: int, model: str) -> DressedLabel:
    """(minus, N) label of the chain's ground state, read from the sector
    that holds it: both states of a sector have the same excitation number.
    Raises ValueError unless the chain splits into sectors of the model's N."""
    split = _sectors(*_real_chain(h.diag[chain], h.off[chain]))
    spin = HilbertConfig(h.n_max).chain_spin()[chain]
    n_k = _EXCITATION[model](spin, np.arange(spin.size))
    if split is not None:
        starts, lows, highs = split
        pairs = starts[:highs.size]
        if (n_k[pairs] == n_k[pairs + 1]).all():
            ground = starts[np.lexsort((starts, lows))[0]]
            return DressedLabel("minus", int(n_k[ground]), model)
    raise ValueError(f"the chain does not conserve the {model} excitation number")


def find_crossings(builder: Callable[[float], ParityChains],
                   coupling_range: tuple[float, float], *,
                   grid_points: int = 400,
                   xtol: float = 1e-9,
                   label_model: str | None = None) -> list[CrossingRecord]:
    """Couplings inside coupling_range where the ground state moves from one
    parity chain of builder(x) to the other.

    The sector gap g(x) = E0(chain 0) - E0(chain 1) is sampled on a uniform
    grid, and every sign change between grid points is a crossing: it is
    bisected to xtol on the sign of g, and a midpoint where g is exactly 0
    is the crossing itself, as is a grid point where g is exactly 0 between
    samples of opposite sign. Levels of one chain never cross (the chain
    couples them) unless the chain splits into blocks, as the jc/ajc chains
    do into excitation-number sectors; their ground state steps N -> N + 1,
    and sectors N and N + 1 lie on different chains.

    label_model 'jc' or 'ajc' labels each side (minus, N) by the conserved
    excitation number (N+ for jc, N- for ajc) of the sector holding the
    ground state at its bracket end (ValueError if the chain does not split
    into sectors of that number); otherwise labels are None.
    """
    lo, hi = float(coupling_range[0]), float(coupling_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError("coupling_range must be a finite increasing pair")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if label_model not in (None, *_EXCITATION):
        raise ValueError(f"label_model must be None or one of {tuple(_EXCITATION)}")
    grid = np.linspace(lo, hi, grid_points)
    # the search takes its route once: the grid goes dense only if
    # grid_points solves of every chain fit in the budget (a chain that
    # splits at one coupling may not at the next), else the whole search
    # goes to SciPy, so no search pays for dense solves and the import on
    # one grid. Each solve is then charged, and past the grid each
    # bisection step is checked like any other Hamiltonian
    first = builder(grid[0])
    rows = sum(d.size ** 2 for d in first.diag)
    dense = _dense_spent + grid_points * rows <= DENSE_BUDGET

    def gap(h):
        chains, routed = _routed_chains(h, dense)
        e0, e1 = (_chain_eigenvalues(*chain, routed, lowest=True)[0] for chain in chains)
        return float(e0 - e1)

    gaps = np.array([gap(first)] + [gap(builder(x)) for x in grid[1:]])

    def label(x, g):
        # the ground state lies on chain 0 where g < 0, on chain 1 where g > 0
        if label_model is None:
            return None
        return _ground_label(builder(x), 0 if g < 0 else 1, label_model)

    records: list[CrossingRecord] = []
    signed = np.flatnonzero(gaps)
    for i, j in zip(signed[:-1], signed[1:]):
        if (gaps[i] < 0) == (gaps[j] < 0):
            continue
        a, b, g_a, g_b = grid[i], grid[j], gaps[i], gaps[j]
        if j > i + 1:  # g is exactly 0 on the grid in between
            a = b = grid[i + 1]
        while b - a > xtol:
            mid = 0.5 * (a + b)
            g_mid = gap(builder(mid))
            if g_mid == 0.0:
                a = b = mid
            elif (g_mid < 0) == (g_a < 0):
                a, g_a = mid, g_mid
            else:
                b, g_b = mid, g_mid
        records.append(CrossingRecord(label(a, g_a), label(b, g_b), 0.5 * (a + b)))
    return records
