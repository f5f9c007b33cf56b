import bisect
import csv
import gc
import io
import math
import random
import re
import string
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from greendry import tables, weather
from greendry.core import WeatherRecord
from greendry.errors import WeatherError
from greendry.weather import (
    CSV_HEADER,
    WeatherSeries,
    load_csv,
    sample,
    save_csv,
    synthetic_days,
)
from greendry.tables import brackets, read_csv

from conftest import records_of, series_of


def _series():
    return series_of((
        WeatherRecord(t=0.0, I_t=0.0, T_am=298.0, V_w=1.0, rh_am=70.0),
        WeatherRecord(t=600.0, I_t=800.0, T_am=300.0, V_w=2.0, rh_am=60.0),
    ))


class TestSeries:
    def test_needs_two_records(self):
        with pytest.raises(WeatherError):
            series_of((records_of(_series())[0],))

    def test_strictly_increasing(self):
        r = records_of(_series())[0]
        with pytest.raises(WeatherError):
            series_of((r, r))

    @pytest.mark.parametrize("field, value, message", [
        ("I_t", -1.0, "irradiance"),
        ("T_am", 0.0, "ambient temperature"),
        ("V_w", -0.5, "wind speed"),
        ("rh_am", 100.5, "ambient rh"),
        ("I_t", math.nan, "I_t must be finite"),
        ("T_am", math.inf, "T_am must be finite"),
        ("t", math.nan, "t must be finite"),
    ])
    def test_record_checked(self, field, value, message):
        good = records_of(_series())
        bad = good[1]._replace(**{field: value})
        with pytest.raises(WeatherError, match=f"^record 1: {message}"):
            series_of((good[0], bad))

    @pytest.mark.parametrize("T_am, accepted", [
        (373.15, True), (373.16, False), (1e300, False)])
    def test_ambient_temperature_bound(self, T_am, accepted):
        # the top of the saturation-pressure correlation
        good = records_of(_series())
        records = (good[0], good[1]._replace(T_am=T_am))
        if accepted:
            assert records_of(series_of(records))[1].T_am == T_am
        else:
            with pytest.raises(WeatherError, match=(
                    r"^record 1: ambient temperature must be in \(0, 373\.15\] K, "
                    f"got {re.escape(repr(T_am))}$")):
                series_of(records)

    @pytest.mark.parametrize("horizon_s, expected", [
        (None, 600.0), (0.0, 0.0), (600.0, 600.0),
        (-1.0, "horizon must be >= 0 s, got -1.0 s"),
        (math.nan, "horizon must be >= 0 s, got nan s"),
        (601.0, "weather series ends at 600.0 s but the run needs 601.0 s"),
        (math.inf, "weather series ends at 600.0 s but the run needs inf s"),
    ])
    def test_horizon(self, horizon_s, expected):
        if isinstance(expected, float):
            assert _series().horizon(horizon_s) == expected
        else:
            with pytest.raises(WeatherError, match=f"^{re.escape(expected)}$"):
                _series().horizon(horizon_s)

    def test_columns_are_the_only_layout(self):
        s = _series()
        assert not hasattr(s, "records")
        assert s.times == (0.0, 600.0)
        assert s.columns == ((0.0, 800.0), (298.0, 300.0), (1.0, 2.0), (70.0, 60.0))

    def test_columns_as_long_as_the_times(self):
        with pytest.raises(ValueError):
            WeatherSeries((0.0, 600.0), (0.0, 800.0), (298.0, 300.0), (1.0, 2.0), (70.0,))

    def test_record_is_a_plain_tuple(self):
        # records are checked where a series is built, not on construction
        rec = WeatherRecord(t=0.0, I_t=-1.0, T_am=298.0, V_w=1.0, rh_am=70.0)
        assert isinstance(rec, tuple) and rec.I_t == -1.0


class TestSample:
    def test_knot_identity(self):
        s = _series()
        assert sample(s, 600.0) == records_of(s)[1]

    def test_linear_midpoint(self):
        rec = sample(_series(), 300.0)
        assert rec.I_t == pytest.approx(400.0)
        assert rec.T_am == pytest.approx(299.0)

    def test_out_of_span(self):
        with pytest.raises(WeatherError):
            sample(_series(), 601.0)
        with pytest.raises(WeatherError):
            sample(_series(), math.nan)

    def test_returns_a_record(self):
        rec = sample(_series(), 150.0)
        assert type(rec) is WeatherRecord and rec.t == 150.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_within_neighbouring_records(self, data):
        n = data.draw(st.integers(2, 8))
        steps = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=n - 1,
                                   max_size=n - 1))
        t = [data.draw(st.floats(-1e6, 1e6))]
        for dt in steps:
            t.append(t[-1] + dt)
        assume(all(b > a for a, b in zip(t, t[1:])))
        records = tuple(
            WeatherRecord(t=ti,
                          I_t=data.draw(st.floats(0.0, 1500.0)),
                          T_am=data.draw(st.floats(1e-3, 373.15)),
                          V_w=data.draw(st.floats(0.0, 40.0)),
                          rh_am=data.draw(st.floats(0.0, 100.0)))
            for ti in t)
        series = series_of(records)
        at = data.draw(st.floats(t[0], t[-1]))
        rec = sample(series, at)
        assert rec.t == at
        i = next(i for i, ti in enumerate(t) if ti >= at)
        lo, hi = records[max(i - 1, 0)], records[i]
        for name in ("I_t", "T_am", "V_w", "rh_am"):
            a, b = getattr(lo, name), getattr(hi, name)
            assert min(a, b) <= getattr(rec, name) <= max(a, b), name


def _interpolate_at(times, column, t):
    """The per-point bisect and lerp the walk replaced, kept as its
    bit-for-bit reference."""
    i = bisect.bisect_left(times, t)
    if times[i] == t:
        return column[i]
    f = (t - times[i - 1]) / (times[i] - times[i - 1])
    return column[i - 1] + f * (column[i] - column[i - 1])


def _lerp(columns, bracket):
    """Each of columns at the bracket (i, f) that brackets yields, as its
    callers interpolate."""
    i, f = bracket
    if f is None:
        return [col[i] for col in columns]
    return [col[i - 1] + f * (col[i] - col[i - 1]) for col in columns]


class TestInterpolate:
    """The bracket walk, with the lerp its callers apply, is bit for bit
    the per-point bisect and lerp it replaced."""

    def test_walk_equals_per_point_bisect(self):
        rng = random.Random(3)
        times = [0.0]
        for _ in range(300):
            times.append(times[-1] + rng.uniform(1.0, 600.0))
        columns = ([rng.uniform(-1e3, 1e3) for _ in times],
                   [rng.uniform(0.0, 1.0) for _ in times])
        # both ends, every tenth grid point, irregular times, repeats, and
        # the whole set again shuffled, so the walk restarts many times;
        # then a sorted step grid of ten times per knot interval, where most
        # times lie at or before the knot the walk stands on
        ts = [times[0], times[-1], *times[::10],
              *(rng.uniform(times[0], times[-1]) for _ in range(500))]
        ts += ts[:50]
        ts += rng.sample(ts, len(ts))
        ts += [t0 + k / 10 * (t1 - t0) for t0, t1 in zip(times, times[1:])
               for k in range(10)] + [times[-1]]
        assert [_lerp(columns, b) for b in brackets(times, ts)] == [
            [_interpolate_at(times, col, t) for col in columns] for t in ts]

    def test_grid_times_return_the_stored_value(self):
        times, column = [0.0, 0.1, 0.30000000000000004, 1.0], [1.0, 2.0, 4.0, 8.0]
        assert list(brackets(times, times[::-1])) == [(3, None), (2, None),
                                                      (1, None), (0, None)]
        assert [_lerp((column,), b) for b in brackets(times, times[::-1])] == [
            [v] for v in column[::-1]]

    def test_fraction_between_knots(self):
        times = [0.0, 10.0, 30.0]
        assert list(brackets(times, [2.5, 20.0, 30.0, 7.5])) == [
            (1, 0.25), (2, 0.5), (2, None), (1, 0.75)]

    def test_no_times(self):
        assert list(brackets([0.0, 1.0], [])) == []


class TestLoadCsv:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "# comment line\n"
            + ",".join(CSV_HEADER) + "\n"
            + "0,0,298,1,70\n600,800,300,2,60\n"
        )
        s = load_csv(path)
        assert len(s) == 2
        assert records_of(s)[1].I_t == 800.0

    def test_negative_irradiance_names_location(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,298,1,70\n600,-5,300,2,60\n")
        with pytest.raises(WeatherError, match="3"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = tmp_path / "w.csv"
        path.write_text("# comment\n" + ",".join(CSV_HEADER)
                        + f"\n0,0,298,1,70\n600,{cell},300,2,60\n")
        with pytest.raises(WeatherError, match=f"w.csv:4: I_t must be finite"):
            load_csv(path)

    def test_record_error_line_counts_skipped_lines(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,298,1,70\n\n  # note\n"
                        "600,nan,300,2,60\n")
        with pytest.raises(WeatherError, match=r"w\.csv:5: I_t must be finite"):
            load_csv(path)

    def test_huge_ambient_temperature_names_location(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("# comment\n" + ",".join(CSV_HEADER)
                        + "\n0,0,298,1,70\n600,0,1e300,2,60\n")
        with pytest.raises(WeatherError, match=(
                r"w\.csv:4: ambient temperature must be in \(0, 373\.15\] K, "
                r"got 1e\+300$")):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,abc,298,1,70\n600,0,300,2,60\n")
        with pytest.raises(WeatherError, match="I_t_wm2"):
            load_csv(path)

    def test_repeated_timestamp(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,0,298,1,70\n0,0,300,2,60\n")
        with pytest.raises(WeatherError, match="increasing"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("t_s,I_t_wm2,T_am_K,V_w_ms\n0,0,298,1\n")
        with pytest.raises(WeatherError, match="rh_am_pct"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WeatherError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_byte_not_utf8_names_line(self, tmp_path):
        # line 301 comes after many ASCII blocks of 256 bytes: a byte that
        # is not UTF-8 on it, or, after a quoted cell on line 300, a cell
        # past csv's field size limit
        path = tmp_path / "w.csv"
        rows = [f"{600 * i},0,298,1,70" for i in range(400)]
        bad_byte, too_long = list(rows), list(rows)
        bad_byte[299] = "\xe9" + rows[299]
        too_long[298] = f'"{600 * 298}",0,298,1,70'
        too_long[299] = rows[299] + "0" * 140_000
        for edited, error in [(bad_byte, "byte 0xe9 at column 1 is not UTF-8 "
                                         "(invalid continuation byte)"),
                              (too_long, "field larger than field limit (131072)")]:
            path.write_bytes("\n".join([",".join(CSV_HEADER), *edited, ""]).encode("latin-1"))
            with (mock.patch.object(tables, "READ_BLOCK", 256),
                  pytest.raises(WeatherError) as exc):
                load_csv(path)
            assert str(exc.value) == f"{path}:301: {error}"

    def test_save_load_lossless(self, tmp_path):
        s = synthetic_days(1, interval_s=1800.0)
        path = tmp_path / "out.csv"
        save_csv(s, path, header_comment="generated for test")
        back = load_csv(path)
        assert records_of(back) == records_of(s)


def _columns_of_load_csv(path):
    """load_csv's records as _read_states_csv returns columns."""
    return {name: list(col) for name, col in zip(CSV_HEADER, zip(*records_of(load_csv(path))))}


def _read_states_csv(path):
    """The columns of a CSV file as `greendry validate` reads a states or
    an observed file: read_csv's {column: list of floats}."""
    return read_csv(path)[0]


READERS = [pytest.param(_columns_of_load_csv, id="load_csv"),
           pytest.param(_read_states_csv, id="read_states_csv")]


class TestCsvDialect:
    """The weather reader and the states reader read a file by the same
    rules, since both go through tables.read_csv."""

    ROWS = ["0,0,298,1,70", "600,800,300,2,60"]

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_comments_blank_lines_and_line_endings(self, tmp_path, read, eol):
        path = tmp_path / "w.csv"
        lines = ["# a comment", "   # an indented comment",
                 " " + " , ".join(CSV_HEADER) + " ", "", self.ROWS[0],
                 '\t# a comment with a "quote, that opens no field', "   ",
                 self.ROWS[1], "# a trailing comment", ""]
        path.write_bytes(eol.join(lines).encode())
        assert read(path) == {"t_s": [0.0, 600.0], "I_t_wm2": [0.0, 800.0],
                              "T_am_K": [298.0, 300.0], "V_w_ms": [1.0, 2.0],
                              "rh_am_pct": [70.0, 60.0]}

    @pytest.mark.parametrize("read", READERS)
    def test_ragged_row_names_path_and_line(self, tmp_path, read):
        path = tmp_path / "w.csv"
        path.write_text("# comment\n" + ",".join(CSV_HEADER) + "\n\n"
                        + self.ROWS[0] + "\n600,800,300,2\n")
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:5: expected 5 cells, got 4"

    @pytest.mark.parametrize("read", READERS)
    def test_non_numeric_cell_names_path_line_and_column(self, tmp_path, read):
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n# comment\n" + self.ROWS[0]
                        + "\n600,abc,300,2,60\n")
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:4: non-numeric value 'abc' in column I_t_wm2"

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("comment", [["# a comment"], []], ids=["comment", "header"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, read, comment):
        # as a spreadsheet's "CSV UTF-8" export writes it, before the
        # first line, a comment or the header
        lines = [*comment, ",".join(CSV_HEADER), *self.ROWS, ""]
        plain, bommed = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes("\r\n".join(lines).encode())
        bommed.write_bytes(tables.BOM + plain.read_bytes())
        assert read(bommed) == read(plain)
        assert read(plain)["t_s"] == [0.0, 600.0]

    def test_byte_not_utf8_after_a_quoted_cell_names_line(self, tmp_path):
        # csv.reader reads the file from line 3 on, decoded line by line
        path = tmp_path / "w.csv"
        path.write_bytes(b"t_s,T_am_K\n0,298\n\"600\",300\n# note\n1200,3\xff0\n")
        with pytest.raises(ValueError) as exc:
            read_csv(path)
        assert str(exc.value) == (f"{path}:5: byte 0xff at column 7 is not UTF-8 "
                                  "(invalid start byte)")

    @pytest.mark.parametrize("last", [b"180,3\xff", b"180,3" + b"0" * 140_000],
                             ids=["not UTF-8", "field limit"])
    def test_bad_row_before_a_read_error_is_reported_first(self, tmp_path, last):
        # csv reads the file from line 2 on; line 5 cannot be read, but
        # line 3 is the first bad row
        path = tmp_path / "w.csv"
        path.write_bytes(b't_s,T_a_K\n"0",300\n60,30,1\n120,301\n' + last + b"\n")
        with pytest.raises(ValueError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}:3: expected 2 cells, got 3"

    def test_row_spanning_lines_is_numbered_by_its_last_line(self, tmp_path):
        # line 3 opens a quoted t_s that line 4 closes
        path = tmp_path / "w.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + self.ROWS[0]
                        + '\n"600\n",800,300,2,60\n# comment\n600,0,298,1,70\n')
        data, lines = read_csv(path, lambda header: ["t_s", "T_am_K"])
        assert data == {"t_s": [0.0, 600.0, 600.0], "T_am_K": [298.0, 300.0, 298.0]}
        assert lines == [2, 4, 6]
        with pytest.raises(WeatherError, match=re.escape(
                f"{path}:6: timestamp 600.0 not increasing (previous 600.0)")):
            load_csv(path)

    def test_line_numbers_are_a_range_unless_a_line_is_skipped(self, tmp_path):
        # 3000 rows span many read blocks; a skipped line in the last block
        # makes the numbers a list
        path = tmp_path / "w.csv"
        rows = [f"{600 * i},0,298,1,70" for i in range(3000)]
        path.write_text("# comment\n" + ",".join(CSV_HEADER) + "\n"
                        + "\n".join(rows) + "\n")
        data, lines = read_csv(path)
        assert type(lines) is range and lines == range(3, 3003)
        assert len(data["t_s"]) == 3000
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows[:-1])
                        + "\n\n" + rows[-1] + "\n")
        data, lines = read_csv(path)
        assert type(lines) is list and lines == [*range(2, 3001), 3002]
        assert _reference_read_csv(path) == (data, lines)
        path.write_text(",".join(CSV_HEADER) + "\n# no rows\n")
        assert read_csv(path) == ({name: [] for name in CSV_HEADER}, range(0))


def _reference_read_csv(path, columns=None):
    """read_csv as csv.reader reads a file, one row at a time: its
    reference, with each row numbered by its own last line."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        # a skipped line reaches csv as "", an empty row, so that line_num
        # still counts every line
        reader = csv.reader("" if line.lstrip()[:1] in ("", "#") else line
                            for line in fh)
        header = next((row for row in reader if row), None)
        if header is None:
            raise ValueError(f"{path}: no header row")
        header = [name.strip() for name in header]
        for name in header:
            if header.count(name) > 1:
                raise ValueError(f"{path}:{reader.line_num}: column {name!r} named twice")
        names = header if columns is None else columns(header)
        for name in names:
            if name not in header:
                raise ValueError(f"{path}:{reader.line_num}: no column {name!r}")
        data = {name: [] for name in names}
        cells = [(header.index(name), data[name].append) for name in names]
        width, lines = len(header), []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{reader.line_num}: expected {width} "
                                 f"cells, got {len(row)}")
            try:
                for j, append in cells:
                    append(float(row[j]))
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: non-numeric value "
                                 f"{row[j]!r} in column {header[j]}") from None
            lines.append(reader.line_num)
    return data, lines


def _outcome(read, path, columns):
    """(columns, line numbers) that read returns, or its ValueError text."""
    try:
        data, lines = read(path, columns)
    except ValueError as exc:
        return str(exc)
    return data, list(lines)


NUMBERS = st.one_of(st.floats(allow_nan=False).map(repr),
                    st.integers(-10**6, 10**6).map(str))
ODD_CELLS = st.sampled_from(["", " 1 ", "\xa05", "٣", "١.٥", "1e3", "-0.0", "inf",
                             "nan", "1_0", "abc", "n/a", "#1"])
QUOTED_CELLS = st.sampled_from(['"2.5"', '"1,5"', '"1\n5"', '"3\r\n"', '"4\r"',
                                ' "6" ', 'x"y', '"a""b"', '"', '"7', '8"', '"\n#"'])
NAMES = st.sampled_from(["t", "a", " b ", "c", "d"])
QUOTED_NAMES = st.sampled_from(['"a"', '"t,x"', '"e\nf"'])
OTHER_LINES = st.sampled_from(["", "   ", "\t", "\xa0", "# c", "  # a, b", '# "q,', "#"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """A random CSV text: blank and comment lines, a header, then rows,
    most as wide as the header, with mixed line endings; quoted cells in
    some texts."""
    quoting = draw(st.booleans())
    names = st.one_of(NAMES, NAMES, QUOTED_NAMES) if quoting else NAMES
    cells = st.one_of(NUMBERS, NUMBERS, NUMBERS, NUMBERS, NUMBERS, ODD_CELLS,
                      *[QUOTED_CELLS] * quoting)
    header = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    width = len(header)
    aligned = st.lists(cells, min_size=width, max_size=width)
    rows = draw(st.lists(st.integers(0, 15), max_size=12).flatmap(lambda kinds: st.tuples(
        *[st.lists(cells, min_size=max(width - 1, 1), max_size=width + 1) if kind == 0
          else OTHER_LINES.map(lambda line: [line]) if kind < 3 else aligned
          for kind in kinds])))
    lines = [[line] for line in draw(st.lists(OTHER_LINES, max_size=2))]
    text = "".join(",".join(line) + draw(ENDINGS)
                   for line in [*lines, header, *rows])
    return text.rstrip("\r\n") if draw(st.booleans()) else text


# "#", every ASCII blank, and characters that str.isspace calls blank
# but that end no line of a file opened with newline=""
FIRST_CHARACTERS = ["#", *string.whitespace, "\x1c", "\x1d", "\x1e", "\x1f",
                    "\x85", "\xa0", "\u2028", "\u3000"]


def _rows_of(blocks):
    """The rows of _blocks' blocks, each row's cells, as str, joined with ","."""
    rows, row = [], []
    for _, cells, end in blocks:
        for cell in cells:
            if cell == end:
                rows.append(",".join(row))
                row = []
            else:
                row.append(cell.decode() if isinstance(cell, bytes) else cell)
    return rows


class TestBlocks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([*FIRST_CHARACTERS, "a", "1", ","]),
                              st.text(st.sampled_from([*FIRST_CHARACTERS, "a", ","]),
                                      max_size=3),
                              ENDINGS), max_size=30),
           st.sampled_from([1, 7, 40, 1 << 13]))
    def test_lines_skipped_as_skipped_says(self, lines, block):
        text = "".join(first + rest + end for first, rest, end in lines)
        kept = [(n, line.rstrip("\r\n")) for n, line in
                enumerate(io.StringIO(text, newline="").readlines(), 1)
                if not tables._skipped(line)]
        with mock.patch.object(tables, "READ_BLOCK", block):
            blocks = list(tables._blocks(io.BytesIO(text.encode()), "t.csv"))
        assert [n for numbers, _, _ in blocks for n in numbers] == [n for n, _ in kept]
        assert _rows_of(blocks) == [row for _, row in kept]


class TestReadCsvEquivalence:
    """read_csv's blocks give what csv.reader gives row by row."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(csv_texts(), st.sampled_from([1, 7, 40, 128, 1 << 16]),
           st.none() | st.lists(st.integers(0, 4), unique=True))
    # a row with two bad cells: the error names the first column picked
    @example('a,b\nx,y\n', 1 << 16, [1, 0])
    @example('"a",b\r\nx,y\r\n', 1 << 16, None)
    def test_same_columns_lines_or_error(self, tmp_path_factory, text, block, picked):
        path = tmp_path_factory.getbasetemp() / "equivalence.csv"
        path.write_bytes(text.encode())
        columns = None if picked is None else (
            lambda header: [header[i] if i < len(header) else "zz" for i in picked])
        with mock.patch.object(tables, "READ_BLOCK", block):
            got = _outcome(read_csv, path, columns)
        # repr, so that nan equals nan and -0.0 does not equal 0.0
        assert repr(got) == repr(_outcome(_reference_read_csv, path, columns))


class TestAsciiAndUnicodeBlocks:
    def test_same_as_reference_at_the_default_block_size(self, tmp_path):
        # 3000 ASCII rows, with a "\x1c"-led comment among them, which
        # str.lstrip strips and bytes.lstrip does not; then lines that only
        # str reads right: cells that float reads only as str, a
        # "\u2028"-led row and a "\u2028"-led comment
        path = tmp_path / "mixed.csv"
        rows = [f"{600 * i},{i % 7}.5,298" for i in range(3000)]
        rows.insert(100, "\x1c# c")
        odd = ["3000,\u0663,\xa05", "\u20283001,1,2", "\u2028# c", "3002,1,2"]
        path.write_bytes("\r\n".join(["t_s,a,b", *rows, *odd, ""]).encode())
        assert path.stat().st_size > tables.READ_BLOCK
        data, lines = read_csv(path)
        assert (data, lines) == _reference_read_csv(path)
        assert data["a"][3000:] == [3.0, 1.0, 1.0] and data["b"][3000] == 5.0
        assert 102 not in lines and lines[-3:] == [3003, 3004, 3006]

    ROWS = [f"{600 * i},{i % 7}.5,298" for i in range(6000)]

    # csv_reads: for each call of _csv_blocks, whether it starts after line 1
    @pytest.mark.parametrize("lines, csv_reads", [
        # the first chunk is not ASCII, the rest are plain
        pytest.param(["# T_a in \u00b0C", "t_s,a,b", *ROWS[:3000]], [False],
                     id="comment_not_ascii"),
        # a plain chunk, then one with a quote in a comment, read by csv to the end
        pytest.param(["t_s,a,b", *ROWS[:3000], '# "q,', *ROWS[3000:4000]], [True],
                     id="quote_in_a_later_comment"),
        # a chunk that is not ASCII, a plain chunk, then a quoted cell that spans lines
        pytest.param(["t_s,a,b", "0,\u0663,\xa05", *ROWS[1:], f'"{600 * 6000}', '",1,2'],
                     [False, True], id="not_ascii_plain_quoted"),
    ])
    def test_chunks_routed_as_reference_reads_them(self, tmp_path, lines, csv_reads):
        path = tmp_path / "routed.csv"
        path.write_bytes("\r\n".join([*lines, ""]).encode())
        assert path.stat().st_size > tables.READ_BLOCK
        with mock.patch.object(tables, "_csv_blocks", wraps=tables._csv_blocks) as spy:
            data, lines = read_csv(path)
        assert (data, list(lines)) == _reference_read_csv(path)
        assert [call.args[1] > 1 for call in spy.call_args_list] == csv_reads
        assert len(data["t_s"]) >= 3000


class TestSynthetic:
    def test_noon_peak(self):
        s = synthetic_days(1, peak_irradiance=900.0, interval_s=600.0)
        noon = sample(s, 12 * 3600.0)
        assert noon.I_t == pytest.approx(900.0, rel=1e-9)

    def test_midnight_dark(self):
        s = synthetic_days(1)
        assert sample(s, 0.0).I_t == 0.0
        assert sample(s, 23 * 3600.0).I_t == 0.0

    def test_quarter_day_value(self):
        s = synthetic_days(1, peak_irradiance=900.0, sunrise_h=6.0, sunset_h=18.0,
                           interval_s=60.0)
        rec = sample(s, 9 * 3600.0)  # sunrise + quarter of daylight
        assert rec.I_t == pytest.approx(900.0 * math.sin(math.pi / 4), rel=1e-6)
        assert rec.I_t == pytest.approx(636.4, abs=0.1)

    def test_invalid_hours(self):
        with pytest.raises(WeatherError):
            synthetic_days(1, sunrise_h=19.0, sunset_h=6.0)

    @pytest.mark.parametrize("shape, message", [
        ({"interval_s": math.nan}, "interval must be > 0, got nan"),
        ({"peak_irradiance": math.nan}, "peak irradiance must be >= 0, got nan"),
        ({"sunrise_h": math.nan}, "need 0 <= sunrise < sunset <= 24, got nan, 18.0"),
    ])
    def test_nan_shape_is_out_of_range(self, shape, message):
        with pytest.raises(WeatherError, match=f"^{re.escape(message)}$"):
            synthetic_days(1, **shape)

    @pytest.mark.parametrize("shape, message", [
        ({"n_days": 1, "interval_s": 1e-300}, "1 days at 1e-300 s intervals make "
         "8.64e+304 records, more than the 600000 a series may have"),
        ({"n_days": 10**12}, "1000000000000 days at 600.0 s intervals make "
         "1.44e+14 records, more than the 600000 a series may have"),
    ])
    def test_too_many_records_raises_at_once(self, shape, message):
        # the count is checked before the first record is built
        with pytest.raises(WeatherError, match=f"^{re.escape(message)}$"):
            synthetic_days(**shape)

    def test_days_past_a_float(self):
        # an int of days too large for a float makes no float product, and
        # so no OverflowError
        message = (f"{10**400} days at 600.0 s intervals make inf records, "
                   "more than the 600000 a series may have")
        with pytest.raises(WeatherError, match=f"^{re.escape(message)}$"):
            synthetic_days(10**400)

    def test_record_cap(self, monkeypatch):
        # a year at 60 s fits; at the cap, one record more does not
        assert weather.MAX_RECORDS >= 365 * 1440 + 1
        monkeypatch.setattr(weather, "MAX_RECORDS", 145)
        assert len(records_of(synthetic_days(1, interval_s=600.0))) == 145
        with pytest.raises(WeatherError, match="make 146 records, more than the 145 "):
            synthetic_days(1, interval_s=86400.0 / 145)

    def test_daily_integral(self):
        # integral of the half-sine equals peak * daylen * 2/pi
        s = synthetic_days(1, peak_irradiance=900.0, sunrise_h=6.0, sunset_h=18.0,
                           interval_s=60.0)
        integral = 0.0
        for a, b in zip(records_of(s), records_of(s)[1:]):
            integral += 0.5 * (a.I_t + b.I_t) * (b.t - a.t)
        expected = 900.0 * 12 * 3600.0 * 2 / math.pi
        assert integral == pytest.approx(expected, rel=0.005)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3),
        st.floats(0.0, 1200.0),
        st.floats(290.0, 300.0),
        st.floats(0.0, 10.0),
        st.floats(10.0, 50.0),
    )
    def test_records_always_valid(self, n_days, peak, T_min, wind, rh_min):
        s = synthetic_days(n_days, peak_irradiance=peak, T_min=T_min,
                           T_max=T_min + 10.0, wind_speed=wind,
                           rh_min=rh_min, rh_max=rh_min + 30.0,
                           interval_s=1800.0)
        for r in records_of(s):
            assert r.I_t >= 0 and r.V_w >= 0 and 0 <= r.rh_am <= 100
            assert T_min - 1e-9 <= r.T_am <= T_min + 10.0 + 1e-9


def test_memory_held_by_a_month_at_60_s(tmp_path):
    # The memory traced after each build (tracemalloc's current size, the
    # garbage collected, the series alive) for 43 201 records: 5.11 MiB
    # synthetic and 6.59 MiB loaded on CPython 3.11.7, where the layout that
    # also held a WeatherRecord per row held 9.07 and 10.55 MiB.
    path = tmp_path / "month.csv"
    save_csv(synthetic_days(30, interval_s=60.0), path)
    for build in (lambda: synthetic_days(30, interval_s=60.0), lambda: load_csv(path)):
        gc.collect()
        tracemalloc.start()
        try:
            series = build()
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 43201 and not hasattr(series, "records")
        assert held < 8 * 2**20, held
