"""Diagonalization oracle with truncation certification and a
level-crossing finder.

The oracle never uses the closed forms: it diagonalizes the truncated
Hamiltonian, certifies convergence by doubling the Fock cutoff, and locates
ground-state crossings between the two parity chains by scanning their
ground-energy gap and refining each sign change by false position, so
closed-form results can be validated against it. Every solve takes parity
chains. A full spectrum solves each chain, of any model, by LAPACK dstev on
its two vectors, in O(n) memory: in the LAPACK that numpy links, else in
SciPy's, imported on first use. Its eigenvalues are bitwise those of numpy's
dense eigvalsh of the chain, which ends in the same scaled dsterf; dsterf
splits a jc/ajc chain at its zero couplings into excitation-number sectors.
A crossing search needs only lowest levels: a stacked 2x2 solve of a
splitting chain's sectors gives them, and the jc/ajc ground labels, and
Laguerre's method, O(n) per step, gives any other chain's. So SciPy loads
only where numpy's LAPACK has no dstev.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import CAP_N_MAX
from .errors import NoConvergence
from .hilbert import JC_AJC, ParityChains
from .jc import CrossingRecord, DressedLabel

__all__ = [
    "EigenSolution",
    "eigenvalues",
    "certify_truncation",
    "certify_cutoff",
    "find_crossings",
    "CAP_N_MAX",
]


@dataclass
class EigenSolution:
    """Certified eigenvalues, ascending; converged_levels counts the leading
    eigenvalues certified stable under truncation doubling (0 = uncertified)."""

    eigenvalues: np.ndarray
    converged_levels: int
    n_max_used: int


def _real_chain(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every chain is real; the diagonal sign change that makes each
    # off-diagonal entry nonnegative turns it into the symmetric tridiagonal
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
    couplings (else None): each block's first state and lowest eigenvalue, 2x2
    blocks first, from one stacked eigvalsh, and the number of 2x2 blocks."""
    coupled = off != 0
    if (coupled[1:] & coupled[:-1]).any():
        return None
    pairs = np.flatnonzero(off)
    blocks = np.zeros((pairs.size, 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = diag[pairs], diag[pairs + 1]
    blocks[:, 0, 1] = blocks[:, 1, 0] = off[pairs]
    single = np.ones(diag.size, bool)  # a mask: np.setdiff1d loads numpy.ma
    single[pairs] = single[pairs + 1] = False
    singles = np.flatnonzero(single)
    return (np.concatenate([pairs, singles]),
            np.concatenate([np.linalg.eigvalsh(blocks)[:, 0], diag[singles]]), pairs.size)


@functools.cache
def _numpy_dstev():
    """numpy's own LAPACK dstev through ctypes, ILP64 as numpy's
    scipy-openblas wheels export it; None where numpy's LAPACK does not
    export it under that name."""
    from numpy.ctypeslib import ndpointer
    from numpy.linalg import _umath_linalg
    try:
        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dstev_64_
    except (OSError, AttributeError):
        return None
    i64, vector = ctypes.POINTER(ctypes.c_int64), ndpointer(np.float64, flags="C,W")
    # JOBZ, N, D, E, Z, LDZ, WORK, INFO, and the Fortran length of JOBZ
    routine.argtypes = [ctypes.c_char_p, i64, vector, vector, vector, i64, vector, i64,
                        ctypes.c_size_t]
    routine.restype = None
    return routine


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the real chain (diag, off >= 0) by LAPACK
    dstev without vectors: it scales the chain by its largest entry and runs
    dsterf, as numpy's dense eigvalsh does after its reduction to tridiagonal
    form, which leaves a tridiagonal input unchanged; so the two agree
    bitwise. LAPACK overwrites its inputs, so it gets copies; e holds at least
    one entry, as SciPy's wrapper asks."""
    d, e = diag.astype(np.float64), np.zeros(max(diag.size - 1, 1))
    e[:off.size] = off
    routine = _numpy_dstev()
    if routine is None:
        from scipy.linalg.lapack import dstev
        d, _, info = dstev(d, e, compute_v=0)
    else:
        n, one, status = ctypes.c_int64(d.size), ctypes.c_int64(1), ctypes.c_int64()
        scratch = np.zeros(1)  # z and work, unread without vectors
        routine(b"N", ctypes.byref(n), d, e, scratch, ctypes.byref(one), scratch,
                ctypes.byref(status), 1)
        info = status.value
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return d


def _lowest(diag: np.ndarray, off: np.ndarray) -> float:
    """Lowest eigenvalue of the real chain (diag, off >= 0), by Laguerre's
    method on det(T - x) from the Gershgorin lower bound. The LDL^T pivots
    d_k and their x-derivatives give G = p'/p and H = -G' in O(n); below
    the lowest root every pivot is positive, and for a real-rooted p the
    iterates rise to that root monotonically, cubically for a simple one.
    A pivot <= 0 means x has reached it. The chain is scaled by its largest
    entry before the couplings are squared, as LAPACK's dsterf does."""
    scale = max(float(np.abs(diag).max()), float(off.max(initial=0.0)))
    if scale == 0.0:
        return 0.0
    a, b = diag / scale, off / scale
    radius = np.zeros(diag.size)
    radius[1:] = b
    radius[:-1] += b
    x = float((a - radius).min())
    a, c, n = a.tolist(), [0.0, *(b * b).tolist()], diag.size
    tol = 2.0 * np.finfo(float).eps
    while True:
        d, u, w, g, h = 1.0, 0.0, 0.0, 0.0, 0.0  # u = d_k'/d_k, w = d_k''/d_k
        for a_k, c_k in zip(a, c):
            r = c_k / d
            d = a_k - x - r
            if d <= 0.0:
                return x * scale
            u, w = (r * u - 1.0) / d, r * (w - 2.0 * u * u) / d
            g += u
            h += u * u - w
        step = n / (((n - 1) * max(n * h - g * g, 0.0)) ** 0.5 - g)
        # stop where the step falls to rounding (a NaN one stops too)
        if not step > tol * max(abs(x), 1.0):
            return x * scale
        x += step


def _chains(h: ParityChains) -> list:
    """The real chains of h, as (diag, off) pairs."""
    return [_real_chain(d, e) for d, e in zip(h.diag, h.off)]


def eigenvalues(h: ParityChains) -> np.ndarray:
    """All eigenvalues, ascending: each real chain's by dstev, merged."""
    return np.sort(np.concatenate([_tridiagonal_eigenvalues(d, e) for d, e in _chains(h)]))


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


def _ground_label(split, chain: int, model: str) -> DressedLabel:
    """(minus, N) label of the ground state of parity chain `chain`, read
    from its _sectors split: both states of a sector have the same
    excitation number, and chain c holds |(c + k) mod 2, k>. Raises
    ValueError unless the chain splits into sectors of the model's N."""
    if split is not None:
        starts, lows, n_pairs = split
        n_k = lambda k: k + ((chain + k) % 2 == JC_AJC[model].spin)
        pairs = starts[:n_pairs]
        if (n_k(pairs) == n_k(pairs + 1)).all():
            ground = starts[lows == lows.min()].min()
            return DressedLabel("minus", int(n_k(ground)), model)
    raise ValueError(f"the chain does not conserve the {model} excitation number")


def _false_position(f: Callable[[float], float], a: float, b: float,
                    f_a: float, f_b: float, xtol: float) -> tuple[float, float]:
    """Shrink the sign bracket [a, b] of f to width <= xtol, or to two
    adjacent floats where xtol is below their spacing, by Anderson-Bjorck
    false position: when one end is kept twice in a row its value is
    scaled down, and each step lies at least xtol/2 inside the bracket. A
    step bisects when the last two have not halved the bracket, and a
    bisection counts as one of the two only for the step right after it,
    so every two steps after the first two halve it and the count stays
    within twice bisection's plus two. A point where f is exactly 0 closes
    the bracket on itself."""
    kept = "a"  # b counts as the latest point
    # the widths before the last two steps; a bisection sets (0, inf), so
    # the step after it is free and the next must halve the bracket alone
    last, before_last = np.inf, np.inf
    while b - a > xtol and math.nextafter(a, b) < b:
        width = b - a
        bisect = width > 0.5 * max(last, before_last)
        if bisect:
            x = 0.5 * (a + b)
        else:
            x = (a * f_b - b * f_a) / (f_b - f_a)
        x = min(max(x, a + 0.5 * xtol), b - 0.5 * xtol)
        last, before_last = (0.0, np.inf) if bisect else (width, last)
        f_x = f(x)
        if f_x == 0.0:
            return x, x
        if (f_x < 0) == (f_a < 0):
            if kept == "b":
                m = 1.0 - f_x / f_a
                f_b *= m if m > 0 else 0.5
            a, f_a, kept = x, f_x, "b"
        else:
            if kept == "a":
                m = 1.0 - f_x / f_b
                f_a *= m if m > 0 else 0.5
            b, f_b, kept = x, f_x, "a"
    return a, b


def find_crossings(builder: Callable[[float], ParityChains],
                   coupling_range: tuple[float, float], *,
                   grid_points: int = 400,
                   xtol: float = 1e-9,
                   label_model: str | None = None) -> list[CrossingRecord]:
    """Couplings inside coupling_range where the ground state moves from one
    parity chain of builder(x) to the other.

    The sector gap g(x) = E0(chain 0) - E0(chain 1) is sampled on a uniform
    grid, and every sign change between sample points is a crossing: its
    bracket is refined to width xtol (or to two adjacent floats, where xtol
    is below their spacing) by false position on g, and the record is the
    final bracket's midpoint, within xtol/2 of the sign change. An
    evaluated point where g is exactly 0 is the crossing itself, as is a
    sample point where g is exactly 0 between samples of opposite sign. Each
    lowest level comes from the stacked sector solve where the chain
    splits, else from _lowest; neither runs a full-spectrum solve.
    Levels of one chain never cross (the chain couples them) unless the
    chain splits into blocks, as the jc/ajc chains do into excitation-number
    sectors; their ground state steps N -> N + 1, and sectors N and N + 1
    lie on different chains.

    label_model 'jc' or 'ajc' labels each evaluated point (minus, N) by
    the conserved excitation number (N+ for jc, N- for ajc) of the sector
    holding its ground state, read from the sector split its gap came from,
    so every point is built and solved once; ValueError at the first point
    whose ground chain does not split into sectors of that number. The
    ground N moves one sector per hop, monotonically in |x|, so a labeled
    search also splits a grid cell across x = 0 at 0, and halves a cell
    whose ends are more than one sector apart until each part holds at most
    one hop or is xtol wide: hops hidden inside one grid cell are found
    too. A record's labels are those of its bracket ends. Without a label
    model labels are None and the grid is not subdivided.
    """
    lo, hi = float(coupling_range[0]), float(coupling_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError("coupling_range must be a finite increasing pair")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if label_model not in (None, *JC_AJC):
        raise ValueError(f"label_model must be None or one of {tuple(JC_AJC)}")
    grid = np.linspace(lo, hi, grid_points)
    # each evaluated point's gap, and the label of each chain that holds
    # the ground state there: chain 0 where the gap is < 0, chain 1 where
    # it is > 0, both where it is exactly 0
    evaluated = {}

    def gap(x):
        chains = [(d, e, _sectors(d, e)) for d, e in _chains(builder(x))]
        e0, e1 = (_lowest(d, e) if split is None else split[1].min()
                  for d, e, split in chains)
        g = float(e0 - e1)
        holds = (g <= 0.0, g >= 0.0)
        evaluated[x] = g, [_ground_label(split, c, label_model)
                           if label_model is not None and holds[c] else None
                           for c, (_, _, split) in enumerate(chains)]
        return g

    points = list(grid)
    for x in points:
        gap(x)
    # with labels, split a cell across 0 at 0 and halve one whose ends are
    # more than one sector apart, down to xtol (see the docstring)
    i = 0
    while label_model is not None and i < len(points) - 1:
        a, b = points[i], points[i + 1]
        straddles = a < 0.0 < b
        mid = 0.0 if straddles else 0.5 * (a + b)
        if straddles or b - a > xtol and a < mid < b and min(
                abs(p.n_total - q.n_total) for p in evaluated[a][1] if p
                for q in evaluated[b][1] if q) > 1:
            points.insert(i + 1, mid)
            gap(mid)
        else:
            i += 1
    gaps = np.array([evaluated[x][0] for x in points])
    records: list[CrossingRecord] = []
    signed = np.flatnonzero(gaps)
    for i, j in zip(signed[:-1], signed[1:]):
        if (gaps[i] < 0) == (gaps[j] < 0):
            continue
        if j > i + 1:  # g is exactly 0 on a sample point in between
            a = b = points[i + 1]
        else:
            a, b = _false_position(gap, points[i], points[j], gaps[i], gaps[j], xtol)
        records.append(CrossingRecord(evaluated[a][1][int(gaps[i] > 0)],
                                      evaluated[b][1][int(gaps[j] > 0)], 0.5 * (a + b)))
    return records
