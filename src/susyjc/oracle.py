"""Diagonalization oracle with truncation certification and a
level-crossing finder.

The oracle never uses the closed forms: it diagonalizes the truncated
Hamiltonian, certifies convergence by doubling the Fock cutoff, and locates
crossings by scanning and bisecting, so closed-form results can be validated
against it. Eigenvalue-only paths take a Hamiltonian as parity chains (a
tridiagonal solve per chain) or as a dense matrix; eigenvector paths are
dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import minimize_scalar

from .errors import NoConvergence, NotHermitian
from .hilbert import ParityChains
from .jc import CrossingRecord, DressedLabel

__all__ = [
    "EigenSolution",
    "diagonalize",
    "eigenvalues",
    "certify_truncation",
    "certify_cutoff",
    "find_crossings",
    "CAP_N_MAX",
]

# largest Fock cutoff certification doubles up to
CAP_N_MAX = 2048


@dataclass
class EigenSolution:
    """Eigen-decomposition, ascending; converged_levels counts the leading
    eigenvalues certified stable under truncation doubling (0 = uncertified).
    Certified solutions carry eigenvalues only (eigenvectors None)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    converged_levels: int
    n_max_used: int


def diagonalize(h: np.ndarray, hermiticity_tol: float = 1e-12) -> EigenSolution:
    """Eigh with a Hermiticity gate and deterministic ordering.

    Columns are phase-fixed so the largest-magnitude amplitude is real
    positive; bitwise-equal eigenvalues are ordered by the basis index of
    that amplitude.
    """
    dev = float(np.abs(h - h.conj().T).max())
    scale = max(1.0, float(np.abs(h).max()))
    if dev > hermiticity_tol * scale:
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e} exceeds tolerance")
    evals, evecs = np.linalg.eigh(h)
    anchors = np.abs(evecs).argmax(axis=0)
    order = np.lexsort((anchors, evals))
    evals = evals[order]
    evecs = evecs[:, order]
    anchors = anchors[order]
    cols = np.arange(evecs.shape[1])
    pivots = evecs[anchors, cols]
    phases = np.where(np.abs(pivots) > 0, pivots / np.abs(np.where(pivots == 0, 1, pivots)), 1.0)
    evecs = evecs * np.conj(phases)[None, :]
    return EigenSolution(evals, evecs, 0, h.shape[0] // 2 - 1)


def _chain_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    # the diagonal phase change that makes every off-diagonal entry real and
    # nonnegative turns a chain into the real symmetric tridiagonal
    # (diag, |off|). Couplings at or below eps times the largest entry are
    # dropped: by Weyl's bound that moves no eigenvalue by more than 2 eps
    # times that entry, and it keeps LAPACK's root-free QR (sterf), which
    # works on squared couplings, off subnormal squares, where it loses
    # digits (|off| ~ 1e-160 next to O(1) entries cost 5e-4).
    off = np.abs(off)
    scale = max(float(np.abs(diag).max()), float(off.max(initial=0.0)))
    off[off <= np.finfo(float).eps * scale] = 0.0
    return eigvalsh_tridiagonal(diag, off)


def eigenvalues(h: ParityChains | np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending. Parity chains are solved one tridiagonal
    chain at a time and merged; a dense matrix goes through `diagonalize`."""
    if isinstance(h, ParityChains):
        return np.sort(np.concatenate([_chain_eigenvalues(d, e)
                                       for d, e in zip(h.diag, h.off)]))
    return diagonalize(h).eigenvalues


def _converged_count(evals: np.ndarray, ref: np.ndarray, tol: float) -> int:
    """Number of leading eigenvalues of evals that move < tol against ref."""
    m = min(evals.size, ref.size)
    moved = np.abs(evals[:m] - ref[:m]) >= tol
    return int(np.argmax(moved)) if moved.any() else m


def certify_truncation(builder: Callable[[int], ParityChains | np.ndarray],
                       k_levels: int, tol: float = 1e-10, start_n_max: int = 32,
                       cap_n_max: int = CAP_N_MAX) -> EigenSolution:
    """Double n_max until the lowest k_levels eigenvalues move < tol.

    builder(n_max) must return the same physical Hamiltonian at any cutoff,
    as parity chains or a dense matrix. Raises NoConvergence once the cap is
    passed.
    """
    if k_levels < 1:
        raise ValueError("k_levels must be >= 1")
    prev = None
    n_max = start_n_max
    while n_max <= cap_n_max:
        evals = eigenvalues(builder(n_max))
        if prev is not None:
            k = min(k_levels, prev.size, evals.size)
            if k == k_levels and np.abs(evals[:k] - prev[:k]).max() < tol:
                converged = _converged_count(evals, prev, tol)
                return EigenSolution(evals, None, max(converged, k_levels), n_max)
        prev = evals
        n_max *= 2
    raise NoConvergence(f"lowest {k_levels} eigenvalues not stable below n_max={cap_n_max}")


def certify_cutoff(builder: Callable[[int], ParityChains | np.ndarray], n_max: int,
                   tol: float = 1e-10) -> EigenSolution:
    """Eigenvalues at a pinned n_max, certified against the cutoff 2 n_max:
    converged_levels counts the leading eigenvalues that move < tol."""
    evals = eigenvalues(builder(n_max))
    ref = eigenvalues(builder(2 * n_max))
    return EigenSolution(evals, None, _converged_count(evals, ref, tol), n_max)


def _ground(builder, x) -> tuple[float, float, np.ndarray]:
    sol = diagonalize(builder(x))
    return sol.eigenvalues[0], sol.eigenvalues[1], sol.eigenvectors[:, 0]


def _sector_of(vec: np.ndarray, sector_op: np.ndarray) -> int:
    return int(round(float(np.real(vec.conj() @ sector_op @ vec))))


def _label_of(vec: np.ndarray, energy: float, sol: EigenSolution,
              sector_op: np.ndarray, model: str) -> DressedLabel:
    n_sector = _sector_of(vec, sector_op)
    if n_sector <= 0:
        return DressedLabel("minus", max(n_sector, 0), model)
    partner_energy = None
    for k in range(sol.eigenvalues.size):
        if abs(sol.eigenvalues[k] - energy) < 1e-12 and np.abs(
                np.vdot(sol.eigenvectors[:, k], vec)) > 0.99:
            continue
        if _sector_of(sol.eigenvectors[:, k], sector_op) == n_sector:
            partner_energy = sol.eigenvalues[k]
            break
    branch = "minus"
    if partner_energy is not None and energy > partner_energy:
        branch = "plus"
    return DressedLabel(branch, n_sector, model)


def find_crossings(builder: Callable[[float], np.ndarray],
                   coupling_range: tuple[float, float], *,
                   mode: str = "ground",
                   pair: tuple[int, int] | None = None,
                   grid_points: int = 400,
                   xtol: float = 1e-9,
                   min_gap: float = 1e-8,
                   sector_op: np.ndarray | None = None,
                   label_model: str = "jc") -> list[CrossingRecord]:
    """Locate couplings where eigenvalues cross inside coupling_range.

    mode 'ground' tracks the ground eigenvector by overlap between grid
    points and bisects every interval where its identity changes. mode
    'pair' follows the sorted gap E[j] - E[i] for pair=(i, j), refines each
    grid-local minimum, and keeps it only if the refined gap is below
    min_gap (an avoided crossing stays out).

    When sector_op (a conserved excitation-number matrix) is given, the
    colliding levels are labeled through their sector expectation; otherwise
    labels are None.
    """
    lo, hi = float(coupling_range[0]), float(coupling_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError("coupling_range must be a finite increasing pair")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    grid = np.linspace(lo, hi, grid_points)
    records: list[CrossingRecord] = []

    if mode == "ground":
        _, _, prev_vec = _ground(builder, grid[0])
        for k in range(1, grid.size):
            _, _, vec = _ground(builder, grid[k])
            if np.abs(np.vdot(prev_vec, vec)) ** 2 < 0.5:
                a, b = grid[k - 1], grid[k]
                va, vb = prev_vec, vec
                while b - a > xtol:
                    mid = 0.5 * (a + b)
                    _, _, vm = _ground(builder, mid)
                    if np.abs(np.vdot(vm, va)) ** 2 >= np.abs(np.vdot(vm, vb)) ** 2:
                        a, va = mid, vm
                    else:
                        b, vb = mid, vm
                left = right = None
                if sector_op is not None:
                    left = DressedLabel("minus", _sector_of(va, sector_op), label_model)
                    right = DressedLabel("minus", _sector_of(vb, sector_op), label_model)
                records.append(CrossingRecord(left, right, 0.5 * (a + b)))
            prev_vec = vec
        return records

    if mode == "pair":
        if pair is None:
            raise ValueError("mode='pair' requires pair=(i, j)")
        i, j = pair

        def gap(x: float) -> float:
            w = np.linalg.eigvalsh(builder(x))
            return float(w[j] - w[i])

        gaps = np.array([gap(x) for x in grid])
        for k in range(1, grid.size - 1):
            if gaps[k] <= gaps[k - 1] and gaps[k] <= gaps[k + 1]:
                res = minimize_scalar(gap, bounds=(grid[k - 1], grid[k + 1]),
                                      method="bounded",
                                      options={"xatol": xtol})
                if res.fun >= min_gap:
                    continue
                x_star = float(res.x)
                if any(abs(x_star - r.coupling) < 10 * max(xtol, 1e-12) for r in records):
                    continue
                left = right = None
                if sector_op is not None:
                    sol = diagonalize(builder(grid[k - 1]))
                    left = _label_of(sol.eigenvectors[:, i], sol.eigenvalues[i],
                                     sol, sector_op, label_model)
                    right = _label_of(sol.eigenvectors[:, j], sol.eigenvalues[j],
                                      sol, sector_op, label_model)
                records.append(CrossingRecord(left, right, x_star))
        return records

    raise ValueError(f"unknown mode {mode!r}")
