"""Small numerical helpers: superoperator vectorization and the Choi matrix, the
matrix exponential (numpy only, scaling and squaring with a Pade approximant), and
the number format and CSV writer of every artifact, which streams rows through
one ``%`` template.

Superoperators use the column-stacking convention, vec(A X B) = (B^T (x) A) vec(X).
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "hermitize",
    "max_abs",
    "choi_matrix",
    "fmt12",
    "write_csv",
]

NUMBER_FORMAT = ".12g"
# format spec by cell type in a mixed write_csv column: a str verbatim, an int exactly
_CELL_FORMAT = {str: "", int: ""}
_QUOTE_CHARS = (",", '"', "\r", "\n")     # the csv module quotes a cell holding one
_CHUNK_ROWS = 256       # rows joined per write in _write_text: ~45 kB of SVG sticks
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


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a diagonal Pade approximant.

    Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179: the order m in
    3, 5, 7, 9, 13 is the lowest whose bound theta_m covers ||a||_1, so the
    approximant's backward error stays below the unit roundoff; above
    theta_13, a / 2^s is exponentiated at order 13 and squared s times.
    """
    a = np.asarray(a)
    norm = np.linalg.norm(a, 1)
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
    eye = np.eye(a.shape[0], dtype=a.dtype)
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


def fmt12(x: float) -> str:
    """Artifact number format: 12 significant digits, shortest %g form."""
    return format(x, NUMBER_FORMAT)


# private, so a traced run keeps the time of lazily formatted rows in the caller
def _write_text(path, rows, newline=None) -> None:
    """Stream str rows to a UTF-8 file, ``_CHUNK_ROWS`` of them joined per write."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            fh.write("".join(chunk))


def _quoted(cells, lone: bool):
    """str cells as QUOTE_MINIMAL writes them, a lone empty one too; one scan, joined."""
    text = "".join(cells)
    if not any(c in text for c in _QUOTE_CHARS) and (not lone or all(cells)):
        return cells
    return ['"%s"' % c.replace('"', '""') if (lone and not c)
            or any(q in c for q in _QUOTE_CHARS) else c for c in cells]


def write_csv(path, header, columns) -> None:
    """Write a header row, then row k from item k of every column, as UTF-8.

    The one CSV writer of the package, in the ``csv`` module's default
    dialect (commas, CRLF, :func:`_quoted`).  A ``str`` cell is written
    verbatim, a Python ``int`` exactly, anything else by :func:`fmt12`: each
    column is one conversion of the row template, ``%d``, ``%.12g`` or ``%s``
    (a mixed column is rendered cell by cell first); rows stream via :func:`_write_text`.
    """
    lone, specs, cells = len(header) == 1, [], []
    for col in columns:
        kinds = set(map(type, col))
        if kinds <= {int} or all(issubclass(k, float) for k in kinds):
            specs.append("%d" if kinds <= {int} else "%" + NUMBER_FORMAT)
        else:
            if kinds != {str}:
                col = list(map(format, col, map(_CELL_FORMAT.get, map(type, col),
                                                repeat(NUMBER_FORMAT))))
            specs.append("%s")
            col = _quoted(col, lone)
        cells.append(col)
    row = ",".join(specs) + "\r\n"
    _write_text(path, chain([",".join(_quoted(list(header), lone)) + "\r\n"],
                           map(row.__mod__, zip(*cells))), newline="")
