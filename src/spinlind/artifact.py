"""The number format of every artifact, the streaming text writer and the one
CSV writer, which formats each row with one ``%`` template; plain Python, no numpy.
"""

from __future__ import annotations

from itertools import chain, islice, repeat

__all__ = ["fmt12", "write_csv"]

NUMBER_FORMAT = ".12g"
# format spec by cell type in a mixed write_csv column: a str verbatim, an int exactly
_CELL_FORMAT = {str: "", int: ""}
_QUOTE_CHARS = (",", '"', "\r", "\n")     # the csv module quotes a cell holding one
_CHUNK_ROWS = 256       # rows joined per write in _write_text: ~45 kB of SVG sticks


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
