"""Command-line entry point: reproducible runs with CSV outputs.

Subcommands: run, validate, sweep, gen-weather.  Exit codes for run/sweep:
1 configuration error, 2 weather/input error, 3 numerical failure (for
sweep: of every grid point);
validate exits 1 when the acceptance check fails and 2 on grid or
variable errors.  Every output file embeds a SHA-256 hash of the inputs
so reruns are byte-for-byte reproducible.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import acceptance_check, percent_difference
from .config import apply_overrides, load_config
from .core import relative_humidity
from .errors import (
    ComparisonError,
    ConfigError,
    GreendryError,
    GridSizeError,
    SimulationError,
    WeatherError,
)
from .solver import simulate
from .sweep import grid_search, load_sweep_spec
from .weather import PRESETS, load_csv, save_csv, synthetic_days

STATE_COLUMNS = ["t_s", "T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db", "rh_pct"]
DIAG_COLUMNS = ["t_s", "res_cover_W", "res_air_W", "res_product_W",
                "res_floor_W", "dM_db", "rh_pct", "flags"]


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _input_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _parse_sets(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects dotted.path=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve_weather(weather_path, preset, days):
    if weather_path is not None:
        return load_csv(weather_path), _input_hash(Path(weather_path))
    if preset is None:
        raise WeatherError("need --weather FILE or --preset NAME")
    if preset not in PRESETS:
        raise WeatherError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    series = synthetic_days(n_days=days, **PRESETS[preset])
    return series, _input_hash(f"preset:{preset}:{days}")


def _write_csv(path: Path, columns, rows, inputs_hash: str):
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# inputs_sha256={inputs_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_states_csv(path):
    """Read a states.csv written by `run`, skipping comment lines; returns
    {column: list of floats}."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    data = {col: [] for col in header}
    for row in reader:
        for col, cell in zip(header, row):
            data[col].append(float(cell))
    return data


@click.group()
@click.version_option(__version__)
def main():
    """Solar greenhouse tunnel drier simulator."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="dryer config YAML")
@click.option("--weather", "weather_path", type=click.Path(), help="weather CSV")
@click.option("--preset", help="synthetic weather preset name")
@click.option("--days", default=4, show_default=True, help="days of synthetic weather")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="output directory")
@click.option("--dt", type=float, help="override time step, s")
@click.option("--horizon-h", type=float, help="simulation horizon, hours")
@click.option("--target-mdb", type=float, help="stop when moisture reaches this decimal db")
@click.option("--set", "overrides", multiple=True, help="dotted.path=value config override")
def cmd_run(config_path, weather_path, preset, days, out_dir, dt, horizon_h,
            target_mdb, overrides):
    """Simulate a drying run and write states.csv + diagnostics.csv."""
    try:
        cfg = load_config(config_path)
        sets = _parse_sets(overrides)
        if dt is not None:
            sets["numerics.dt"] = dt
        if sets:
            cfg = apply_overrides(cfg, sets)
    except ConfigError as exc:
        _fail(1, str(exc))
    try:
        weather, weather_hash = _resolve_weather(weather_path, preset, days)
    except WeatherError as exc:
        _fail(2, str(exc))

    inputs_hash = _input_hash(
        Path(config_path), weather_hash, sorted(sets.items()),
        dt, horizon_h, target_mdb,
    )
    horizon_s = None if horizon_h is None else horizon_h * 3600.0
    try:
        series = simulate(cfg, weather, horizon_s=horizon_s, target_mdb=target_mdb)
    except WeatherError as exc:
        _fail(2, str(exc))
    except (SimulationError, GreendryError) as exc:
        _fail(3, str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    P = cfg.numerics.pressure
    state_rows = []
    for s in series.states:
        rh, _ = relative_humidity(s.H, s.T_a, P)
        state_rows.append([repr(s.t), repr(s.T_c), repr(s.T_a), repr(s.T_p),
                           repr(s.T_f), repr(s.H), repr(s.M_p), repr(rh)])
    diag_rows = [
        [repr(d.t), repr(d.residuals[0]), repr(d.residuals[1]),
         repr(d.residuals[2]), repr(d.residuals[3]), repr(d.dM), repr(d.rh),
         ";".join(d.flags)]
        for d in series.diagnostics
    ]
    _write_csv(out / "states.csv", STATE_COLUMNS, state_rows, inputs_hash)
    _write_csv(out / "diagnostics.csv", DIAG_COLUMNS, diag_rows, inputs_hash)
    manifest = {
        "engine_version": __version__,
        "config": str(config_path),
        "weather": str(weather_path) if weather_path else f"preset:{preset}",
        "out": str(out),
        "parameters": {
            "dt": dt, "horizon_h": horizon_h, "target_mdb": target_mdb,
            "overrides": list(overrides), "days": days,
        },
        "inputs_sha256": inputs_hash,
        "n_states": len(series.states),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {len(series.states)} states to {out / 'states.csv'}")


@main.command("validate")
@click.option("--states", "states_path", required=True, type=click.Path())
@click.option("--observed", "observed_path", required=True, type=click.Path())
@click.option("--variable", required=True, help="states.csv column to compare")
@click.option("--limit", default=10.0, show_default=True, help="acceptance limit, %")
def cmd_validate(states_path, observed_path, variable, limit):
    """Compare a simulated trace against observations; exit 0 iff within
    the acceptance limit."""
    try:
        states = read_states_csv(states_path)
    except (OSError, ValueError) as exc:
        _fail(2, f"cannot read states file: {exc}")
    if variable not in states or variable == "t_s":
        _fail(2, f"unknown variable {variable!r}; available: "
                 f"{[c for c in states if c != 't_s']}")
    try:
        observed = read_states_csv(observed_path)
    except (OSError, ValueError) as exc:
        _fail(2, f"cannot read observed file: {exc}")
    obs_cols = [c for c in observed if c != "t_s"]
    if "t_s" not in observed or len(obs_cols) != 1:
        _fail(2, "observed CSV must have exactly columns t_s,<variable>")

    t_pred, y_pred = states["t_s"], states[variable]
    predicted = []
    for t in observed["t_s"]:
        if t < t_pred[0] or t > t_pred[-1]:
            _fail(2, f"observed time {t} s outside simulated span")
        # linear interpolation onto the observed grid
        i = bisect.bisect_left(t_pred, t)
        if i < len(t_pred) and t_pred[i] == t:
            predicted.append(y_pred[i])
        else:
            f = (t - t_pred[i - 1]) / (t_pred[i] - t_pred[i - 1])
            predicted.append(y_pred[i - 1] + f * (y_pred[i] - y_pred[i - 1]))
    try:
        report = percent_difference(predicted, observed[obs_cols[0]], variable)
    except ComparisonError as exc:
        _fail(2, str(exc))
    passed = acceptance_check(report, limit)
    click.echo(
        f"{report.variable}: mean |diff| = {report.mean_abs_pct:.4f} % over "
        f"{report.n} points (max abs diff {report.max_abs_diff:.4g}); "
        f"limit {limit} % -> {'PASS' if passed else 'FAIL'}"
    )
    sys.exit(0 if passed else 1)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--weather", "weather_path", type=click.Path())
@click.option("--preset", help="synthetic weather preset name")
@click.option("--days", default=4, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--workers", default=1, show_default=True)
def cmd_sweep(config_path, spec_path, weather_path, preset, days, out_dir, workers):
    """Evaluate a parameter grid and write sweep.csv ranked by objective.
    A point whose simulation fails is warned about and ranked as not
    reached; the command exits 3 only when every point failed."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _fail(1, str(exc))
    try:
        weather, weather_hash = _resolve_weather(weather_path, preset, days)
        spec = load_sweep_spec(spec_path, weather)
    except WeatherError as exc:
        _fail(2, str(exc))
    except ConfigError as exc:
        _fail(2, str(exc))
    try:
        results = grid_search(cfg, spec, workers=workers)
    except GridSizeError as exc:
        _fail(2, str(exc))
    except WeatherError as exc:
        _fail(2, str(exc))
    except GreendryError as exc:
        _fail(3, str(exc))
    failed = [r for r in results if r.error is not None]
    for r in failed:
        click.echo(f"warning: point {dict(r.point)} failed: {r.error}", err=True)
    if len(failed) == len(results):
        _fail(3, f"all {len(results)} points failed")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inputs_hash = _input_hash(Path(config_path), Path(spec_path), weather_hash)
    paths = [p for p, _ in spec.parameters]
    unit = "hours" if spec.objective == "drying_time" else "years"
    columns = ["rank"] + paths + [f"objective_{unit}", "reached"]
    rows = [
        [rank] + [repr(v) for _, v in r.point] + [repr(r.objective), int(r.reached)]
        for rank, r in enumerate(results, start=1)
    ]
    _write_csv(out / "sweep.csv", columns, rows, inputs_hash)
    best = results[0]
    click.echo(
        f"evaluated {len(results)} points; best objective "
        f"{best.objective:.4g} {unit} at {dict(best.point)}"
    )


@main.command("gen-weather")
@click.option("--preset", default="tropical", show_default=True)
@click.option("--days", default=3, show_default=True)
@click.option("--interval", default=600.0, show_default=True, help="sampling interval, s")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--peak-irradiance", type=float)
@click.option("--sunrise-h", type=float)
@click.option("--sunset-h", type=float)
def cmd_gen_weather(preset, days, interval, out_path, peak_irradiance,
                    sunrise_h, sunset_h):
    """Write a synthetic weather CSV that load_csv round-trips losslessly."""
    if preset not in PRESETS:
        _fail(2, f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    params = dict(PRESETS[preset])
    if peak_irradiance is not None:
        params["peak_irradiance"] = peak_irradiance
    if sunrise_h is not None:
        params["sunrise_h"] = sunrise_h
    if sunset_h is not None:
        params["sunset_h"] = sunset_h
    try:
        series = synthetic_days(n_days=days, interval_s=interval, **params)
    except WeatherError as exc:
        _fail(2, str(exc))
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(series, out, header_comment=f"synthetic preset={preset} days={days}")
    click.echo(f"wrote {len(series)} records to {out}")


if __name__ == "__main__":
    main()
