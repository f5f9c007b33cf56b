"""Seeded input generator for the benchmark workloads.

Everything the program reads during a benchmark run is produced here from
the seed: a cloudy variant of the tropical weather, the sweep spec and the
observation campaigns.  The generator uses only the standard library and
its own formulas, so the inputs do not change when the program does.
"""

from __future__ import annotations

import bisect
import math
import random

WEATHER_DAYS = 4
WEATHER_INTERVAL_S = 600.0
WEATHER_HEADER = "t_s,I_t_wm2,T_am_K,V_w_ms,rh_am_pct"

# The tropical preset: half-sine irradiance between sunrise and sunset,
# ambient temperature minimum at 02:00, relative humidity in anti-phase.
PEAK_IRRADIANCE = 900.0
SUNRISE_H, SUNSET_H = 6.0, 18.0
T_MIN, T_MAX = 298.0, 308.0
RH_MIN, RH_MAX = 50.0, 85.0
WIND_SPEED = 1.0

# Cloud factor: AR(1) around CLOUD_MEAN with stationary spread CLOUD_SD and a
# correlation time of about 1.5 h, clipped to [CLOUD_MIN, 1].  The spread is
# kept small so that the total work of a sweep moves little between seeds.
CLOUD_MEAN, CLOUD_SD, CLOUD_PHI, CLOUD_MIN = 0.95, 0.03, 0.9, 0.8

SWEEP_GRID = (
    ("airflow.V_a", (1.0, 3.0)),
    ("product.F_p", (0.3, 0.5, 0.7)),
    ("cover.tau_c", (0.7, 0.85, 0.9)),
)
SWEEP_TARGET_MDB = 0.08
SWEEP_HORIZON_H = 60.0

VALIDATE_COLUMNS = ("T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db")
CAMPAIGN_POINTS = 2500
# Relative noise of each campaign: (kind, scale).  Both keep the mean
# absolute percent difference near 2 %, well inside the 10 % limit.
CAMPAIGNS = (("gauss", 0.02), ("uniform", 0.035))


def cloud_factors(seed: int, n: int) -> list[float]:
    rng = random.Random(f"clouds:{seed}")
    sigma = CLOUD_SD * math.sqrt(1.0 - CLOUD_PHI * CLOUD_PHI)
    c = CLOUD_MEAN
    out = []
    for _ in range(n):
        c = CLOUD_MEAN + CLOUD_PHI * (c - CLOUD_MEAN) + rng.gauss(0.0, sigma)
        out.append(min(max(c, CLOUD_MIN), 1.0))
    return out


def weather_csv(seed: int) -> str:
    """Weather CSV text: the tropical preset with irradiance scaled by a
    seeded cloud factor, WEATHER_DAYS days at WEATHER_INTERVAL_S."""
    n = int(round(WEATHER_DAYS * 86400.0 / WEATHER_INTERVAL_S)) + 1
    clouds = cloud_factors(seed, n)
    day_len = SUNSET_H - SUNRISE_H
    lines = [f"# cloudy tropical weather, seed={seed}", WEATHER_HEADER]
    for i in range(n):
        t = i * WEATHER_INTERVAL_S
        h = (t / 3600.0) % 24.0
        I_t = 0.0
        if SUNRISE_H <= h <= SUNSET_H:
            I_t = max(PEAK_IRRADIANCE * math.sin(math.pi * (h - SUNRISE_H) / day_len), 0.0)
        phase = math.cos(2.0 * math.pi * (h - 2.0) / 24.0)
        T_am = 0.5 * (T_MIN + T_MAX) - 0.5 * (T_MAX - T_MIN) * phase
        rh = 0.5 * (RH_MIN + RH_MAX) + 0.5 * (RH_MAX - RH_MIN) * phase
        lines.append(",".join(repr(v) for v in (t, I_t * clouds[i], T_am, WIND_SPEED, rh)))
    return "\n".join(lines) + "\n"


def sweep_spec_yaml() -> str:
    """The 18-point drying-time grid; the grid itself does not depend on
    the seed, only the weather it is evaluated on."""
    lines = ["objective: drying_time", f"target_mdb: {SWEEP_TARGET_MDB!r}",
             f"horizon_h: {SWEEP_HORIZON_H!r}", "parameters:"]
    for path, values in SWEEP_GRID:
        lines.append(f"  {path}: [{', '.join(repr(v) for v in values)}]")
    return "\n".join(lines) + "\n"


def interpolate(ts: list[float], ys: list[float], t: float) -> float:
    i = bisect.bisect_left(ts, t)
    if ts[i] == t:
        return ys[i]
    f = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
    return ys[i - 1] + f * (ys[i] - ys[i - 1])


def campaign_times(seed: int, campaign: int, t0: float, t1: float) -> list[float]:
    """CAMPAIGN_POINTS distinct, strictly increasing times inside (t0, t1)."""
    rng = random.Random(f"times:{seed}:{campaign}")
    times = sorted({rng.uniform(t0, t1) for _ in range(CAMPAIGN_POINTS)})
    return [t for t in times if t0 < t < t1]


def observation_csvs(seed: int, states: dict[str, list[float]]) -> dict[tuple[int, str], str]:
    """Observed CSV text for each (campaign, column): the simulated trace at
    irregular times, times (1 + seeded relative noise)."""
    ts = states["t_s"]
    out = {}
    for k, (kind, scale) in enumerate(CAMPAIGNS):
        times = campaign_times(seed, k, ts[0], ts[-1])
        for col in VALIDATE_COLUMNS:
            rng = random.Random(f"noise:{seed}:{k}:{col}")
            lines = [f"t_s,{col}"]
            for t in times:
                noise = rng.gauss(0.0, scale) if kind == "gauss" else rng.uniform(-scale, scale)
                y = interpolate(ts, states[col], t) * (1.0 + noise)
                lines.append(f"{t!r},{y!r}")
            out[(k, col)] = "\n".join(lines) + "\n"
    return out
