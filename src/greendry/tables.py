"""The one CSV reader and the one CSV writer of every file greendry reads
or writes, and `brackets`, the one search behind every linear
interpolation in greendry (`weather.sample`, the forcing of a run,
`greendry validate`).

Beside the package and `cli`, `greendry validate` loads only this
module, `analysis` and `errors`: of this module, the reader and
`brackets` are all it runs.  So it imports only the standard library,
and `csv` only where a chunk of a file needs it (`_csv_blocks`: a quoted
cell, or bytes that are not ASCII); an ASCII file is split as bytes and
never loads it."""

from __future__ import annotations

import bisect
import itertools
import math
from pathlib import Path


def brackets(times, ts):
    """Yield, for each time t of ts, its bracket (i, f) in the increasing
    times: f is None where t is times[i], and otherwise the fraction of
    the way from times[i - 1] to times[i] at which t lies.  A column col
    aligned with times is then col[i] at t, or
    col[i - 1] + f * (col[i] - col[i - 1]); each caller works out only the
    columns it uses.  One forward walk over times: each bisect starts at
    the index of the time before, or at 0 again where ts goes backwards,
    so ts may come in any order; where t lies at or before the time at
    that index, as for a step grid finer than the times, the bisect is
    skipped.  Every t must lie in [times[0], times[-1]]."""
    bisect_left = bisect.bisect_left
    lo, previous = 0, -math.inf
    for t in ts:
        if t < previous:
            lo = 0
        previous = t
        t_i = times[lo]
        if t_i < t:
            lo = bisect_left(times, t, lo + 1)
            t_i = times[lo]
        if t_i == t:
            yield lo, None
        else:
            t0 = times[lo - 1]
            yield lo, (t - t0) / (t_i - t0)


READ_BLOCK = 1 << 15  # bytes of whole lines that read_csv reads at a time
BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark, skipped at the start of a file
# blank to str.isspace and str.strip, but not to bytes.isspace and bytes.strip
STR_ONLY_BLANKS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _skipped(line) -> bool:
    """A blank line, or one whose first non-blank character is "#"."""
    return line.lstrip()[:1] in ("", "#")


def _chunks(fh):
    """The bytes of the open binary file fh, a leading BOM left out, in
    chunks that each end at a line end ("\n", "\r\n" or "\r") or at the end
    of the file: READ_BLOCK bytes are read at a time, and a line that runs
    past them is carried into the next chunk."""
    rest = fh.read(len(BOM))
    if rest == BOM:
        rest = b""
    while data := fh.read(READ_BLOCK):
        rest += data
        # a "\r" that ends the bytes read may be the first half of a "\r\n"
        cut = max(rest.rfind(b"\n"), rest.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


def _text_lines(chunks, n, path):
    """The lines of chunks, the first of which is line n of path, each
    with its end, as a file opened with newline="" gives them, decoded as
    UTF-8; ValueError naming path:line and the byte for one that is not."""
    lines = (line for chunk in chunks for line in chunk.splitlines(keepends=True))
    for n, line in enumerate(lines, n):
        try:
            yield line.decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{n}: byte {line[exc.start]:#04x} at column "
                             f"{exc.start + 1} is not UTF-8 ({exc.reason})") from None


def _csv_blocks(chunks, first, path):
    """The rows that the csv module reads from the lines of chunks (see
    _text_lines), the first of which is line first of path, in blocks of
    READ_BLOCK // 64 + 1 rows (the last one shorter) as _blocks gives
    them, with the end None; a row is numbered by its last line.  A csv
    error, such as a cell past its field size limit, is a ValueError
    naming path and the line.  The rows read before an error, or a byte
    that is not UTF-8, are given first, so that read_csv reports a bad
    row among them first.  The one user of the csv module, which it
    imports when it is first called."""
    import csv

    # a skipped line reaches csv as "", an empty row, so that line_num
    # still counts every line
    reader = csv.reader("" if _skipped(line) else line
                        for line in _text_lines(chunks, first, path))
    numbers, cells, base, size = [], [], first - 1, READ_BLOCK // 64
    error = None
    try:
        for row in reader:
            if row:
                numbers.append(base + reader.line_num)
                cells += row
                cells.append(None)
                if len(numbers) > size:
                    yield numbers, cells, None
                    numbers, cells = [], []
    except csv.Error as exc:
        error = ValueError(f"{path}:{base + reader.line_num}: {exc}")
    except ValueError as exc:  # a byte that is not UTF-8 (_text_lines)
        error = exc
    if numbers:
        yield numbers, cells, None
    if error is not None:
        raise error


def _blocks(fh, path):
    """The rows of the open binary file fh, skipped lines left out, in
    blocks of (line numbers, cells, end): the cells of the rows in one
    list, each row's followed by one cell end, which no row holds.  A
    chunk of lines (see _chunks) that is ASCII and holds no '"' and none
    of STR_ONLY_BLANKS is split on commas as bytes, its cells and end
    (b"\n") bytes, which float and strip read as they read the same str.
    The csv module reads any other chunk, decoded (see _csv_blocks), and
    from a chunk that holds a '"' the rest of the file, since a quoted
    cell may span lines."""
    n, chunks = 1, _chunks(fh)
    for chunk in chunks:
        if b'"' in chunk:
            yield from _csv_blocks(itertools.chain([chunk], chunks), n, path)
            return
        lines = chunk.splitlines()
        if chunk.isascii() and not any(c in chunk for c in STR_ONLY_BLANKS):
            numbers, rows = range(n, n + len(lines)), lines
            # every blank byte, and "#", sorts before "$"
            if min(lines) < b"$":
                # a line is kept unless it is blank or "#" is its first non-blank
                kept = [(c := line.lstrip()[:1]) and c != b"#" for line in lines]
                rows = list(itertools.compress(lines, kept))
                if len(rows) < len(lines):
                    numbers = list(itertools.compress(numbers, kept))
            if rows:
                yield numbers, (b",\n,".join(rows) + b",\n").split(b","), b"\n"
        else:
            yield from _csv_blocks([chunk], n, path)
        n += len(lines)


def _bad_row(path, header, picks, block) -> str:
    """The error of the first bad row of a block: a width that is not the
    header's, or a non-numeric cell of a column picked, in the order
    picked."""
    numbers, cells, end = block
    width, start = len(header), 0
    for n in numbers:
        stop = cells.index(end, start)
        if stop - start != width:
            return f"{path}:{n}: expected {width} cells, got {stop - start}"
        for j, _ in picks:
            cell = cells[start + j]
            try:
                float(cell)
            except ValueError:
                if isinstance(cell, bytes):
                    cell = cell.decode()
                return f"{path}:{n}: non-numeric value {cell!r} in column {header[j]}"
        start = stop + 1


def read_csv(path, columns=None):
    """Read a CSV file: ({name: list of floats}, the line of each row, a
    range where no line after the header was skipped, else a list).
    The file is UTF-8, a byte-order mark at its start skipped.  Blank
    lines and lines whose first non-blank character is "#" are skipped
    before parsing; the first other line is the header, its cells
    stripped.  Lines may end in "\n", "\r\n" or "\r"; a quoted cell
    (a comma or a line end inside) is read as csv reads it, and a row that
    spans lines is numbered by its last line.  columns(header), when
    given, names the columns to convert (default: all).  ValueError,
    naming path and the line, for a column named twice or missing, and
    for the first row, by line, whose width is not the header's or that
    holds a non-numeric cell in a column read, for a byte that is not
    UTF-8 and for a line that csv cannot read, such as one with a cell
    past its field size limit; naming path for no header.

    The file is read in blocks of lines (see _blocks), and only the
    columns named are converted; a block with a bad row is scanned row by
    row for the error."""
    path = Path(path)
    with path.open("rb") as fh:
        blocks = _blocks(fh, path)
        numbers, cells, end = next(blocks, ((), (), None))
        if not numbers:
            raise ValueError(f"{path}: no header row")
        line, width = numbers[0], cells.index(end)
        header = [name.strip() for name in cells[:width]]
        if isinstance(end, bytes):
            header = [name.decode() for name in header]
        for name in header:
            if header.count(name) > 1:
                raise ValueError(f"{path}:{line}: column {name!r} named twice")
        names = header if columns is None else columns(header)
        for name in names:
            if name not in header:
                raise ValueError(f"{path}:{line}: no column {name!r}")
        data = {name: [] for name in names}
        picks = [(header.index(name), column) for name, column in data.items()]
        stride, parts = width + 1, []
        for block in itertools.chain([(numbers[1:], cells[stride:], end)], blocks):
            numbers, cells, end = block
            # no row holds an end, so every row has width cells iff there
            # are stride cells a row and every stride-th is an end
            if (len(cells) == stride * len(numbers)
                    and cells[width::stride].count(end) == len(numbers)):
                try:
                    for j, column in picks:
                        column += map(float, cells[j::stride])
                except ValueError:
                    pass
                else:
                    if numbers:
                        parts.append(numbers)
                    continue
            raise ValueError(_bad_row(path, header, picks, block))
    if not parts:
        return data, range(0)
    # the numbers increase, so they are consecutive iff they span n lines
    first, last, n = parts[0][0], parts[-1][-1], sum(map(len, parts))
    if last - first + 1 == n:
        return data, range(first, last + 1)
    return data, list(itertools.chain.from_iterable(parts))


def open_csv(path, columns, comment=None):
    """Open path for writing as write_csv writes it, with "# comment" (if
    any) and the header written; the caller writes each row, ending it in
    "\r\n", and closes the file."""
    fh = Path(path).open("w", newline="", encoding="utf-8")
    if comment:
        fh.write(f"# {comment}\n")
    fh.write(",".join(columns) + "\r\n")
    return fh


def write_csv(path, columns, lines, comment=None) -> None:
    """Write "# comment" (if any), the header and the rows, each item of
    lines a row joined with ",", as csv.writer would: no cell greendry
    writes needs quoting, and rows end in "\r\n"."""
    with open_csv(path, columns, comment) as fh:
        fh.writelines(line + "\r\n" for line in lines)
