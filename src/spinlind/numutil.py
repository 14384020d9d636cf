"""Small numerical helpers: superoperator vectorization and the Choi matrix, the
matrix exponential (scipy, imported on first use), and the number format and CSV
writer of every artifact, which streams rows through one ``%`` template.

Superoperators use the column-stacking convention, vec(A X B) = (B^T (x) A) vec(X).
The matrix of an operator sum rho -> sum_k w_k A_k rho A_k^dag comes from one
stacked product (:func:`sandwich_superop`), not a loop of Kronecker products.
"""

from __future__ import annotations

from itertools import chain, islice, repeat

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
# format spec by cell type in a mixed write_csv column: a str verbatim, an int exactly
_CELL_FORMAT = {str: "", int: ""}
_QUOTE_CHARS = (",", '"', "\r", "\n")     # the csv module quotes a cell holding one
_CHUNK_ROWS = 256       # rows joined per write in _write_text: ~45 kB of SVG sticks


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
