"""Weather time series, each held as its five columns: CSV ingestion
(`load_csv`, on `tables.read_csv`), linear interpolation (`sample`, on
`tables.brackets`) and a synthetic diurnal generator (sinusoidal
irradiance around solar noon).

Loaded with `core` by `greendry run` and `greendry sweep`, when they
start, and by `gen-weather`; `greendry validate` reads its CSVs with
`tables` alone and loads neither."""

from __future__ import annotations

import math
from pathlib import Path

from .core import SATURATION_T_MAX, WeatherRecord
from .errors import WeatherError
from .tables import brackets, read_csv, write_csv

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
