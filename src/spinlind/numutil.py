"""Small numerical helpers: superoperator vectorization and the Choi matrix, the
matrix exponential (scipy, imported on first use), and the number format and CSV
writer of every written artifact.

Superoperators use the column-stacking convention, vec(A X B) = (B^T (x) A) vec(X).
The matrix of an operator sum rho -> sum_k w_k A_k rho A_k^dag comes from one
stacked product (:func:`sandwich_superop`), not a loop of Kronecker products.
"""

from __future__ import annotations

import csv
from itertools import repeat

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "hermitize",
    "max_abs",
    "sandwich_superop",
    "choi_matrix",
    "fmt12",
    "write_csv",
]

NUMBER_FORMAT = ".12g"
# format spec by cell type in write_csv; "" writes a str verbatim, an int exactly
_CELL_FORMAT = {str: "", int: ""}


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def sandwich_superop(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_k w_k A_k rho A_k^dag for a (K, D, D) stack ``ops``.

    That is sum_k w_k conj(A_k) (x) A_k, formed as one (D^2, K) @ (K, D^2)
    product M[(a b), (c d)] = sum_k w_k conj(A_k)[a, b] A_k[c, d] and a
    reshuffle to the Kronecker order [(a c), (b d)].  An empty stack gives 0.
    """
    k, d = ops.shape[0], ops.shape[-1]
    flat = ops.reshape(k, d * d)
    m = (weights[:, None] * flat.conj()).T @ flat
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def choi_matrix(s: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of the map with superoperator matrix ``s``.

    Block (i, j) of the result is the map applied to |i><j|, reordered so
    that rows/cols are (i, m): C[(i m), (j n)] = E(|i><j|)[m, n].  With
    column stacking that entry is s[n d + m, j d + i], one reshuffle of ``s``.
    """
    return s.reshape(dim, dim, dim, dim).transpose(3, 1, 2, 0).reshape(dim * dim, dim * dim)


def expm(a: np.ndarray) -> np.ndarray:
    import scipy.linalg

    return scipy.linalg.expm(a)


def fmt12(x: float) -> str:
    """Artifact number format: 12 significant digits, shortest %g form."""
    return format(x, NUMBER_FORMAT)


def write_csv(path, header, columns) -> None:
    """Write a header row, then row k from item k of every column.

    The one CSV writer of the package: the ``csv`` module's default dialect
    (comma separated, CRLF line ends).  A cell that is a ``str`` is written
    verbatim, a Python ``int`` exactly, anything else by :func:`fmt12`.
    Columns are sequences, formatted column by column through builtins only,
    with no Python call per cell.
    """
    cells = [map(format, col, map(_CELL_FORMAT.get, map(type, col), repeat(NUMBER_FORMAT)))
             for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))
