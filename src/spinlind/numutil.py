"""Small numerical helpers: superoperator vectorization, the Choi matrix, the
matrix exponential (numpy only, scaling and squaring with a Pade approximant,
of one matrix or a stack) and the connected components of an edge list,
by which :mod:`spinlind.mastereq` splits its block eigensystem.
The number format and the CSV writer of every artifact live in
:mod:`spinlind.artifact`, which loads no numpy.

Superoperators use the column-stacking convention, vec(A X B) = (B^T (x) A) vec(X).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "hermitize",
    "max_abs",
    "choi_matrix",
]

# Higham (2005), Table 2.3 and eq. (2.9): 1-norm bounds and [m/m] Pade coefficients
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160.,
        110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
         129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
         40840800., 960960., 16380., 182., 1.),
}


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


def choi_matrix(s: np.ndarray, dim: int) -> np.ndarray:
    """Choi matrix of the map with superoperator matrix ``s``.

    Block (i, j) of the result is the map applied to |i><j|, reordered so
    that rows/cols are (i, m): C[(i m), (j n)] = E(|i><j|)[m, n].  With
    column stacking that entry is s[n d + m, j d + i], one reshuffle of ``s``.
    """
    return s.reshape(dim, dim, dim, dim).transpose(3, 1, 2, 0).reshape(dim * dim, dim * dim)


def _components(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` indices' connected component under the edges (i, j), by its least index.

    Labels start as the indices.  Each round lowers every label to the least
    label across the edges, taken both ways, then jumps it to its label's
    label, until every edge joins equal labels.  Labels only fall and stay
    inside their component, so the last labels are the components' least
    indices.
    """
    i, j = np.concatenate([i, j]), np.concatenate([j, i])
    label = np.arange(n)
    while True:
        np.minimum.at(label, i, label[j])
        label = label[label]
        if np.array_equal(label[i], label[j]):
            return label


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a diagonal Pade approximant.

    Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179: the order m in
    3, 5, 7, 9, 13 is the lowest whose bound theta_m covers ||a||_1, so the
    approximant's backward error stays below the unit roundoff; above
    theta_13, a / 2^s is exponentiated at order 13 and squared s times.  A
    (..., n, n) stack takes the order and scaling of its largest 1-norm.
    """
    a = np.asarray(a)
    norm = np.abs(a).sum(-2).max()
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            return _pade(a, m)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13])))
    out = _pade(a / 2.0 ** s, 13)
    for _ in range(s):
        out = out @ out
    return out


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant r_m(a) = (V - U)^-1 (V + U), U odd and V even in a."""
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]                  # I, a^2, ..., a^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)
