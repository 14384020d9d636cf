"""Generalized ladder decomposition of observables over the diagonal basis.

A Hermitian operator A splits into blocks A(n, w) collecting the matrix
elements <a|A|b> whose level pair satisfies eps_b - eps_a = w and
M_b - M_a = n.  Each block obeys [Z0, A(n, w)] = -w A(n, w) and
[Sz, A(n, w)] = -n A(n, w), and the adjoint identity
A(n, w)^dag = A(-n, -w).  For the transverse moment operator xi^x only
n = +1 and n = -1 blocks are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spincore import LevelData

__all__ = [
    "EigenOperator",
    "Decomposition",
    "decompose",
    "adjoint_block",
    "plus_blocks",
]

DEFAULT_GAP_TOL = 1e-9


@dataclass(frozen=True)
class EigenOperator:
    """One ladder block: integer magnetization step, frequency gap, matrix."""

    step: int
    omega: float
    matrix: np.ndarray


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple
    gap_atol: float       # absolute frequency tolerance the gaps were binned with

    def labels(self):
        return [(b.step, b.omega) for b in self.blocks]

    def block(self, step: int, omega: float) -> EigenOperator:
        """The block with this step whose frequency is nearest ``omega``.

        KeyError unless that frequency lies within ``gap_atol`` of ``omega``.
        """
        near = min((b for b in self.blocks if b.step == step),
                   key=lambda b: abs(b.omega - omega), default=None)
        if near is None or not abs(near.omega - omega) <= self.gap_atol:
            raise KeyError(f"no block with step {step} at frequency {omega}")
        return near

    def sum(self) -> np.ndarray:
        if not self.blocks:
            raise ValidationError("an empty decomposition has no operator to sum to")
        out = np.zeros_like(self.blocks[0].matrix)
        for b in self.blocks:
            out = out + b.matrix
        return out


def _bin_gaps(values: np.ndarray, tol: float):
    """Map each |gap| to a representative so mirrored labels negate exactly."""
    order = np.argsort(values)
    reps = np.empty_like(values)
    current = None
    for k in order:
        v = values[k]
        if current is None or v - current > tol:
            current = v
        reps[k] = current
    return reps


def decompose(a: np.ndarray, levels: LevelData,
              gap_tol: float = DEFAULT_GAP_TOL) -> Decomposition:
    """Split a Hermitian operator into its (step, frequency) ladder blocks.

    Frequencies closer than ``gap_tol`` (relative to the largest level energy)
    are binned together; binning acts on |gap| so that the labels of mirrored
    blocks are exact negatives and the adjoint identity holds exactly.
    """
    a = np.asarray(a)
    d = levels.dim
    if a.shape != (d, d):
        raise ValidationError(f"operator shape {a.shape} does not match {d} levels")
    eps = levels.energies
    mag = levels.magnetizations

    tol = gap_tol * max(1.0, float(np.max(np.abs(eps), initial=0.0)))
    rows, cols = np.nonzero(a)
    if rows.size == 0:
        return Decomposition(blocks=(), gap_atol=tol)

    gaps = eps[cols] - eps[rows]
    steps = mag[cols] - mag[rows]
    step_int = np.rint(steps).astype(int)
    if np.max(np.abs(steps - step_int)) > 1e-9:
        raise ValidationError("magnetization steps between levels are not integers")

    abs_reps = _bin_gaps(np.abs(gaps), tol)
    signed = np.where(abs_reps <= tol, 0.0, np.sign(gaps) * abs_reps)

    buckets: dict = {}
    for k in range(rows.size):
        key = (int(step_int[k]), float(signed[k]))
        mat = buckets.get(key)
        if mat is None:
            mat = np.zeros_like(a)
            buckets[key] = mat
        mat[rows[k], cols[k]] = a[rows[k], cols[k]]

    blocks = tuple(
        EigenOperator(step=n, omega=w, matrix=buckets[(n, w)])
        for (n, w) in sorted(buckets)
    )
    return Decomposition(blocks=blocks, gap_atol=tol)


def adjoint_block(dec: Decomposition, step: int, omega: float) -> EigenOperator:
    """Conjugate transpose of block (step, omega); asserts it equals block (-step, -omega)."""
    b = dec.block(step, omega)
    dagger = b.matrix.conj().T
    mirror = dec.block(-step, -omega)  # raises KeyError when absent
    if np.max(np.abs(dagger - mirror.matrix)) > 0:
        scale = max(np.max(np.abs(dagger)), 1e-300)
        if np.max(np.abs(dagger - mirror.matrix)) > 1e-12 * scale:
            raise ValidationError(
                f"adjoint identity violated for block ({step}, {omega})"
            )
    return EigenOperator(step=-step, omega=-omega, matrix=dagger)


def plus_blocks(dec: Decomposition):
    """All blocks with magnetization step +1, sorted by frequency."""
    return sorted((b for b in dec.blocks if b.step == 1), key=lambda b: b.omega)
