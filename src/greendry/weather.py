"""Weather time series, each held as its five columns: CSV ingestion, a
synthetic diurnal generator (sinusoidal irradiance around solar noon) and
`brackets`, the one search behind every linear interpolation in greendry
(`sample`, the forcing of a run, `greendry validate`).  Also the one CSV
reader and the one CSV writer of every file greendry reads or writes."""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from pathlib import Path

from .core import SATURATION_T_MAX, WeatherRecord
from .errors import WeatherError

CSV_HEADER = ["t_s", "I_t_wm2", "T_am_K", "V_w_ms", "rh_am_pct"]

# Calibration preset for a humid tropical site; explicitly synthetic.
TROPICAL_PRESET = {
    "peak_irradiance": 900.0,   # W m^-2
    "sunrise_h": 6.0,
    "sunset_h": 18.0,
    "T_min": 298.0,             # K, pre-dawn
    "T_max": 308.0,             # K, early afternoon
    "wind_speed": 1.0,          # m s^-1
    "rh_min": 50.0,             # %, afternoon
    "rh_max": 85.0,             # %, pre-dawn
}

PRESETS = {"tropical": TROPICAL_PRESET}

# The most records a synthetic series may have: a year at 60 s has 525 601.
MAX_RECORDS = 600_000


def _problem(row, previous_t: float) -> str | None:
    """What is wrong with one row (t, I_t, T_am, V_w, rh_am) that follows a
    row at previous_t, or None: every value must be finite, I_t >= 0,
    V_w >= 0, 0 <= rh_am <= 100, t > previous_t and 0 < T_am <= 373.15 K,
    the top of the saturation-pressure correlation (which the initial
    state evaluates at the first T_am)."""
    for name, value in zip(WeatherRecord._fields, row):
        if not math.isfinite(value):
            return f"{name} must be finite, got {value}"
    t, I_t, T_am, V_w, rh_am = row
    if I_t < 0:
        return f"irradiance must be >= 0, got {I_t}"
    if not 0 < T_am <= SATURATION_T_MAX:
        return (f"ambient temperature must be in (0, {SATURATION_T_MAX}] K, "
                f"got {T_am}")
    if V_w < 0:
        return f"wind speed must be >= 0, got {V_w}"
    if not 0.0 <= rh_am <= 100.0:
        return f"ambient rh must be in [0, 100] %, got {rh_am}"
    if t <= previous_t:
        return f"timestamp {t} not increasing (previous {previous_t})"
    return None


def _check_records(times, columns, source, lines) -> None:
    """Raise WeatherError unless there are >= 2 records and none, the row
    of times and columns, has a _problem; the message names source:line,
    or record i without lines.  ValueError for columns not as long as times."""
    if len(times) < 2:
        raise WeatherError(f"weather series needs >= 2 records, got {len(times)}")
    for i, row in enumerate(zip(times, *columns, strict=True)):
        problem = _problem(row, times[i - 1] if i else -math.inf)
        if problem:
            where = f"{source}:{lines[i]}" if lines else f"record {i}"
            raise WeatherError(f"{where}: {problem}")


class WeatherSeries:
    """Checked weather records, held column by column: times and columns
    (I_t, T_am, V_w, rh_am), in CSV_HEADER order, as `brackets` and the
    interpolations built on it read them; record i is row i of
    zip(times, *columns).  lines, when given, are the source line of each
    record, so that an error names source:line instead of record i."""

    __slots__ = ("source", "times", "columns")

    def __init__(self, times, I_t, T_am, V_w, rh_am, source: str = "unknown",
                 lines=None):
        self.times, *columns = map(tuple, (times, I_t, T_am, V_w, rh_am))
        self.columns, self.source = tuple(columns), source
        _check_records(self.times, self.columns, source, lines)

    @property
    def t_start(self) -> float:
        return self.times[0]

    @property
    def t_end(self) -> float:
        return self.times[-1]

    def horizon(self, horizon_s: float | None = None) -> float:
        """The run horizon horizon_s, by default to the end of the series;
        WeatherError unless it is >= 0 (so not NaN) and the series covers it."""
        t0, t_end = self.t_start, self.t_end
        if horizon_s is None:
            return t_end - t0
        if not 0 <= horizon_s:
            raise WeatherError(f"horizon must be >= 0 s, got {horizon_s} s")
        if t0 + horizon_s > t_end + 1e-9:
            raise WeatherError(f"weather series ends at {t_end} s but the run needs "
                               f"{t0 + horizon_s} s")
        return horizon_s

    def __len__(self) -> int:
        return len(self.times)


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


def sample(series: WeatherSeries, t: float) -> WeatherRecord:
    """Linear interpolation of all fields at time t (seconds)."""
    times = series.times
    if not times[0] <= t <= times[-1]:
        raise WeatherError(
            f"time {t} s outside weather span [{times[0]}, {times[-1]}] s"
        )
    # unpacking runs the generator to its end: freeing a suspended one
    # would cost a GeneratorExit
    (i, f), = brackets(times, (t,))
    if f is None:
        return WeatherRecord(t, *[col[i] for col in series.columns])
    return WeatherRecord(t, *[col[i - 1] + f * (col[i] - col[i - 1])
                              for col in series.columns])


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
    naming path and the line."""
    # a skipped line reaches csv as "", an empty row, so that line_num
    # still counts every line
    reader = csv.reader("" if _skipped(line) else line
                        for line in _text_lines(chunks, first, path))
    numbers, cells, base, size = [], [], first - 1, READ_BLOCK // 64
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
        raise ValueError(f"{path}:{base + reader.line_num}: {exc}") from None
    if numbers:
        yield numbers, cells, None


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


def load_csv(path) -> WeatherSeries:
    """Load a weather series from a CSV file (see read_csv) with header
    t_s,I_t_wm2,T_am_K,V_w_ms,rh_am_pct.  Errors name the file and line."""
    path = Path(path)
    if not path.exists():
        raise WeatherError(f"weather file not found: {path}")

    def columns(header):
        if header != CSV_HEADER:
            missing = [c for c in CSV_HEADER if c not in header]
            raise WeatherError(f"{path}: bad header {header}; expected {CSV_HEADER}"
                               + (f" (missing {missing})" if missing else ""))
        return CSV_HEADER

    try:
        data, lines = read_csv(path, columns)
    except ValueError as exc:
        raise WeatherError(str(exc)) from None
    return WeatherSeries(*data.values(), source=str(path), lines=lines)


def save_csv(series: WeatherSeries, path, header_comment: str | None = None) -> None:
    rows = zip(series.times, *series.columns)
    write_csv(path, CSV_HEADER, (",".join(map(repr, row)) for row in rows), header_comment)


def synthetic_days(
    n_days: int,
    peak_irradiance: float = TROPICAL_PRESET["peak_irradiance"],
    sunrise_h: float = TROPICAL_PRESET["sunrise_h"],
    sunset_h: float = TROPICAL_PRESET["sunset_h"],
    T_min: float = TROPICAL_PRESET["T_min"],
    T_max: float = TROPICAL_PRESET["T_max"],
    wind_speed: float = TROPICAL_PRESET["wind_speed"],
    rh_min: float = TROPICAL_PRESET["rh_min"],
    rh_max: float = TROPICAL_PRESET["rh_max"],
    interval_s: float = 600.0,
) -> WeatherSeries:
    """Deterministic synthetic diurnal weather.

    Irradiance follows a half-sine between sunrise and sunset peaking at
    solar noon and clipped to zero at night; ambient temperature and
    relative humidity are 24 h sinusoids (temperature minimum pre-dawn,
    maximum at 14:00; rh in anti-phase).  A series holds at most
    MAX_RECORDS records, checked before the first is built.
    """
    if n_days < 1:
        raise WeatherError(f"n_days must be >= 1, got {n_days}")
    if not 0.0 <= sunrise_h < sunset_h <= 24.0:
        raise WeatherError(
            f"need 0 <= sunrise < sunset <= 24, got {sunrise_h}, {sunset_h}"
        )
    if not peak_irradiance >= 0:
        raise WeatherError(f"peak irradiance must be >= 0, got {peak_irradiance}")
    if T_min > T_max or rh_min > rh_max:
        raise WeatherError("need T_min <= T_max and rh_min <= rh_max")
    if not interval_s > 0:
        raise WeatherError(f"interval must be > 0, got {interval_s}")
    # round(span) + 1 records; an int n_days may lie past a float's range
    span = n_days * 86400.0 / interval_s if n_days <= 1e300 else math.inf
    if not span <= MAX_RECORDS - 1:
        raise WeatherError(f"{n_days} days at {interval_s} s intervals make "
                           f"{span + 1:.6g} records, more than the {MAX_RECORDS} "
                           "a series may have")

    day_len = sunset_h - sunrise_h
    times = [i * interval_s for i in range(int(round(span)) + 1)]
    hours = [(t / 3600.0) % 24.0 for t in times]
    I_t = [max(peak_irradiance * math.sin(math.pi * (h - sunrise_h) / day_len), 0.0)
           if sunrise_h <= h <= sunset_h else 0.0 for h in hours]
    # temperature minimum at 02:00, maximum at 14:00
    phases = [math.cos(2.0 * math.pi * (h - 2.0) / 24.0) for h in hours]
    T_am = [0.5 * (T_min + T_max) - 0.5 * (T_max - T_min) * phase for phase in phases]
    rh_am = [0.5 * (rh_min + rh_max) + 0.5 * (rh_max - rh_min) * phase for phase in phases]
    return WeatherSeries(times, I_t, T_am, [wind_speed] * len(times), rh_am,
                         source=f"synthetic:{n_days}d")
