"""Small numerical helpers: superoperator vectorization, Kraus factors, the matrix
exponential (scipy, imported on first use) and the number format of every written
artifact.

Superoperators use the column-stacking convention, vec(A X B) = (B^T (x) A) vec(X).
The matrix of an operator sum rho -> sum_k w_k A_k rho A_k^dag comes from one
stacked product (:func:`sandwich_superop`), not a loop of Kronecker products.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError

__all__ = [
    "vec",
    "unvec",
    "hermitize",
    "max_abs",
    "hamiltonian_superop",
    "sandwich_superop",
    "choi_matrix",
    "kraus_from_choi",
    "fmt12",
]


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


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[h, rho] in the column-stacking convention."""
    d = h.shape[0]
    eye = np.eye(d)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


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


def kraus_from_choi(choi: np.ndarray, dim: int, *, psd_tol: float = 1e-10):
    """Kraus factors of a CP map from its (Hermitian) Choi matrix.

    Raises AccuracyError when the Choi matrix has eigenvalues below
    ``-psd_tol * max(1, lam_max)``, i.e. the map is not CP to tolerance.
    """
    evals, evecs = np.linalg.eigh(hermitize(choi))
    scale = max(1.0, float(evals.max(initial=0.0)))
    if evals.min(initial=0.0) < -psd_tol * scale:
        raise AccuracyError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {evals.min():.3e}"
        )
    kraus = []
    for lam, v in zip(evals, evecs.T):
        if lam <= psd_tol * scale * 1e-4:
            continue
        kraus.append(np.sqrt(lam) * v.reshape(dim, dim))
    return kraus


def expm(a: np.ndarray) -> np.ndarray:
    import scipy.linalg

    return scipy.linalg.expm(a)


def fmt12(x: float) -> str:
    """Artifact number format: 12 significant digits, shortest %g form."""
    return f"{x:.12g}"
