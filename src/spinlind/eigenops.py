"""Ladder table of the transverse moment xi^x over the diagonal basis.

xi^x splits into blocks xi^x(n, w) collecting the matrix elements <a|xi^x|b>
whose level pair satisfies eps_b - eps_a = w and M_b - M_a = n; only
n = +1 and n = -1 occur, and xi^x(-1, -w) = xi^x(+1, w)^dag.  Each block
obeys [Z0, xi^x(n, w)] = -w xi^x(n, w) and [Sz, xi^x(n, w)] = -n xi^x(n, w).
The +1-step half is held as a sparse table read off the S- ladder table of
:mod:`spincore`: spin i lowers m_i by one from column k to row k + W_i
wherever that table is nonzero, so M_col - M_row = 1 for every entry.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .spincore import LevelData, SpinSystem, _spin_tables

__all__ = ["LadderTable", "ladder_table"]

# gaps closer than this, relative to max(1, max |eps|), share a frequency
GAP_TOL = 1e-9


@dataclass(frozen=True)
class LadderTable:
    """The +1-step entries of xi^x, sorted by (block, row, col).

    Entry e is xi^x[rows[e], cols[e]] = values[e] (real in this basis), in
    the block of frequency ``omegas[block[e]]``; ``omegas`` is ascending and
    ``gap_atol`` is the absolute tolerance the gaps were binned with.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    block: np.ndarray
    omegas: np.ndarray
    gap_atol: float
    dim: int

    def hermitian(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[..., k] xi^x(+1, omegas[k]) + h.c. as (..., D, D): two scatters."""
        out = np.zeros(weights.shape[:-1] + (self.dim, self.dim), dtype=complex)
        out[..., self.rows, self.cols] = weights[..., self.block] * self.values
        out[..., self.cols, self.rows] = out[..., self.rows, self.cols].conj()
        return out


def ladder_table(system: SpinSystem, levels: LevelData) -> LadderTable:
    """The +1-step ladder table of xi^x = -sum_i gamma_i S_i^x at these levels.

    Entries take the values -gamma_i S-_i / 2 of the S- ladder table of
    :mod:`spincore`, at the nonzeros of that table in (spin, column) order.
    The gaps |eps_col - eps_row| are binned in ascending order: a gap starts
    a new bin when it exceeds the bin's first gap (its anchor) by more than
    the tolerance, and takes the anchor as its frequency, signed after
    binning so that mirrored labels negate exactly; a bin whose anchor lies
    within the tolerance of zero has frequency 0.  S- is the system's kept table.
    """
    s_minus = _spin_tables(system)[1]
    eps = levels.energies
    tol = GAP_TOL * max(1.0, float(np.max(np.abs(eps), initial=0.0)))
    site, cols = np.nonzero(s_minus)
    rows = cols + np.array(system.weights)[site]
    values = -0.5 * np.array(system.gammas)[site] * s_minus[site, cols]
    keep = values != 0          # gamma_i = 0 leaves no entry
    rows, cols, values = rows[keep], cols[keep], values[keep]

    gaps = eps[cols] - eps[rows]
    order = np.argsort(np.abs(gaps))
    ascending = np.abs(gaps[order]).tolist()
    reps = np.empty(len(ascending))
    start = 0
    # the rounded v - anchor never decreases along the sorted gaps, so each
    # bin ends at one bisection on that very subtraction
    while start < len(ascending):
        anchor = ascending[start]
        stop = bisect.bisect_right(ascending, tol, lo=start, key=lambda v: v - anchor)
        reps[start:stop] = anchor
        start = stop
    signed = np.empty_like(reps)
    signed[order] = np.where(reps <= tol, 0.0, np.sign(gaps[order]) * reps)

    omegas, block = np.unique(signed, return_inverse=True)
    entry = np.lexsort((cols, rows, block))
    return LadderTable(rows=rows[entry], cols=cols[entry], values=values[entry],
                       block=block[entry], omegas=omegas, gap_atol=tol, dim=system.dim)
