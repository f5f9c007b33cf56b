"""Weather time series: CSV ingestion, linear interpolation and a synthetic
diurnal generator (sinusoidal irradiance around solar noon)."""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import WeatherRecord
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


@dataclass(frozen=True)
class WeatherSeries:
    records: tuple[WeatherRecord, ...]
    source: str = "unknown"
    interval_s: float | None = None
    _times: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.records) < 2:
            raise WeatherError(f"weather series needs >= 2 records, got {len(self.records)}")
        times = tuple(r.t for r in self.records)
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise WeatherError(
                    f"weather timestamps must be strictly increasing: "
                    f"t={times[i]} at record {i} follows t={times[i - 1]}"
                )
        object.__setattr__(self, "_times", times)

    @property
    def t_start(self) -> float:
        return self.records[0].t

    @property
    def t_end(self) -> float:
        return self.records[-1].t

    def __len__(self) -> int:
        return len(self.records)


def sample(series: WeatherSeries, t: float) -> WeatherRecord:
    """Linear interpolation of all fields at time t (seconds)."""
    times = series._times
    if t < times[0] or t > times[-1]:
        raise WeatherError(
            f"time {t} s outside weather span [{times[0]}, {times[-1]}] s"
        )
    i = bisect.bisect_left(times, t)
    if i < len(times) and times[i] == t:
        return series.records[i]
    lo, hi = series.records[i - 1], series.records[i]
    f = (t - lo.t) / (hi.t - lo.t)
    return WeatherRecord(
        t=t,
        I_t=lo.I_t + f * (hi.I_t - lo.I_t),
        T_am=lo.T_am + f * (hi.T_am - lo.T_am),
        V_w=lo.V_w + f * (hi.V_w - lo.V_w),
        rh_am=lo.rh_am + f * (hi.rh_am - lo.rh_am),
    )


def load_csv(path) -> WeatherSeries:
    """Load a weather series from CSV with header
    t_s,I_t_wm2,T_am_K,V_w_ms,rh_am_pct; '#'-prefixed lines are ignored."""
    path = Path(path)
    if not path.exists():
        raise WeatherError(f"weather file not found: {path}")
    records = []
    with path.open(newline="", encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1)
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise WeatherError(f"{path}: empty weather file")
    reader = csv.reader(io.StringIO("".join(line for _, line in lines)))
    rows = list(reader)
    header = [h.strip() for h in rows[0]]
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        raise WeatherError(
            f"{path}: bad header {header}; expected {CSV_HEADER}"
            + (f" (missing {missing})" if missing else "")
        )
    for (lineno, _), row in zip(lines[1:], rows[1:]):
        if len(row) != len(CSV_HEADER):
            raise WeatherError(f"{path}:{lineno}: expected {len(CSV_HEADER)} cells, got {len(row)}")
        values = {}
        for col, cell in zip(CSV_HEADER, row):
            try:
                values[col] = float(cell)
            except ValueError:
                raise WeatherError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {col}"
                ) from None
        try:
            rec = WeatherRecord(
                t=values["t_s"], I_t=values["I_t_wm2"], T_am=values["T_am_K"],
                V_w=values["V_w_ms"], rh_am=values["rh_am_pct"],
            )
        except ValueError as exc:
            raise WeatherError(f"{path}:{lineno}: {exc}") from None
        if records and rec.t <= records[-1].t:
            raise WeatherError(
                f"{path}:{lineno}: timestamp {rec.t} not increasing "
                f"(previous {records[-1].t})"
            )
        records.append(rec)
    return WeatherSeries(records=tuple(records), source=str(path))


def save_csv(series: WeatherSeries, path, header_comment: str | None = None) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in series.records:
            writer.writerow([repr(r.t), repr(r.I_t), repr(r.T_am),
                             repr(r.V_w), repr(r.rh_am)])


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
    maximum at 14:00; rh in anti-phase).
    """
    if n_days < 1:
        raise WeatherError(f"n_days must be >= 1, got {n_days}")
    if not 0.0 <= sunrise_h < sunset_h <= 24.0:
        raise WeatherError(
            f"need 0 <= sunrise < sunset <= 24, got {sunrise_h}, {sunset_h}"
        )
    if peak_irradiance < 0:
        raise WeatherError(f"peak irradiance must be >= 0, got {peak_irradiance}")
    if T_min > T_max or rh_min > rh_max:
        raise WeatherError("need T_min <= T_max and rh_min <= rh_max")
    if interval_s <= 0:
        raise WeatherError(f"interval must be > 0, got {interval_s}")

    day_len = sunset_h - sunrise_h
    records = []
    n_steps = int(round(n_days * 86400.0 / interval_s))
    for i in range(n_steps + 1):
        t = i * interval_s
        h = (t / 3600.0) % 24.0
        if sunrise_h <= h <= sunset_h:
            I_t = peak_irradiance * math.sin(math.pi * (h - sunrise_h) / day_len)
            I_t = max(I_t, 0.0)
        else:
            I_t = 0.0
        # temperature minimum at 02:00, maximum at 14:00
        phase = math.cos(2.0 * math.pi * (h - 2.0) / 24.0)
        T_am = 0.5 * (T_min + T_max) - 0.5 * (T_max - T_min) * phase
        rh = 0.5 * (rh_min + rh_max) + 0.5 * (rh_max - rh_min) * phase
        records.append(WeatherRecord(t=t, I_t=I_t, T_am=T_am, V_w=wind_speed, rh_am=rh))
    return WeatherSeries(records=tuple(records), source=f"synthetic:{n_days}d",
                         interval_s=interval_s)
