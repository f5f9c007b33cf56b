"""Command-line entry point: reproducible runs with CSV outputs.

Subcommands: run, validate, sweep, gen-weather.  Exit codes for run/sweep:
1 configuration error; 2 weather/input error (a dt that makes no step or
more than solver.MAX_STEPS; run: a horizon not >= 0 or past the weather,
a non-finite --target-mdb; sweep: a spec error, a grid value that the
config rejects or a grid point's dt, each named by the spec) or an --out
that cannot be written (also for gen-weather); 3 numerical failure (for
sweep: of every grid point, a failed simulation or no payback) or a
worker process that could not start or died; validate exits 1
when the acceptance check fails and 2 on an unreadable or malformed CSV,
a grid or a variable error, or a --limit that is not finite and >= 0.
A usage error, parsed by argparse, exits 2 for every command.
Every output file embeds a SHA-256 hash of the inputs so reruns are
byte-for-byte reproducible.

`run` streams: it writes each state and step row as `solver.steps` yields
it, keeping no run in memory, into temporary names inside --out that are
renamed to states.csv, diagnostics.csv and manifest.json only when the run
succeeds; `sweep` writes sweep.csv and manifest.json so, making --out
before it simulates a point, and `gen-weather` its file.  A failed command
removes them and every directory it made, and leaves what was there before
as it was.  With more than one CPU, `run` is stepped in a worker process
(`sweep.forked_steps`) while this one writes it, into the same bytes.

Importing this module loads, beside argparse, only what `validate` runs:
the package's `analysis`, `errors` and `tables` (the CSV reader and
`brackets`).  What only `run` and `sweep` use (`config`, `solver` and
`sweep`, with `kinetics`, `coefficients` and PyYAML under them; `weather`
with `core`; `writers`, with `hashlib` and `json`) loads in one place,
`_load_run_modules`, when either command starts or when one of RUN_NAMES
is first read from outside this module.  `gen-weather` imports the
`weather` and `writers` it uses itself.
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import sys
from pathlib import Path

from . import __version__
from .analysis import DEFAULT_ACCEPTANCE_LIMIT, acceptance_check, percent_difference
from .errors import ComparisonError, ConfigError, GreendryError, WeatherError
from .tables import brackets, read_csv, write_csv

# what run and sweep call of config, solver, sweep, weather and writers
RUN_NAMES = ("load_config", "apply_overrides", "steps", "forked_steps", "grid_search",
             "load_sweep_spec", "load_csv", "synthetic_days", "PRESETS", "_staged",
             "_write_run", "_write_manifest", "_input_hash", "_sweep_line")


def _load_run_modules() -> None:
    """Import what only `run` and `sweep` use: config, solver and sweep
    (with kinetics and coefficients), weather (with core) and writers
    (with hashlib and json), and bind each of RUN_NAMES as a global of
    this module.  A name of RUN_NAMES already bound is kept, so that a
    wrapper put on it, such as bench/spans.py's `patched` puts, is the one
    the command calls."""
    from .config import apply_overrides, load_config
    from .solver import steps
    from .sweep import forked_steps, grid_search, load_sweep_spec
    from .weather import PRESETS, load_csv, synthetic_days
    from .writers import _input_hash, _staged, _sweep_line, _write_manifest, _write_run
    namespace, loaded = globals(), locals()
    for name in RUN_NAMES:
        namespace.setdefault(name, loaded[name])


def __getattr__(name: str):
    """A name of RUN_NAMES read from outside this module before a command
    bound it: `_load_run_modules` binds it first."""
    if name not in RUN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_run_modules()
    return globals()[name]


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _parse_sets(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects dotted.path=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve_weather(weather_path, preset, days):
    """The weather series, its manifest label and its inputs-hash part."""
    if weather_path is not None:
        return load_csv(weather_path), str(weather_path), _input_hash(Path(weather_path))
    if preset is None:
        raise WeatherError("need --weather FILE or --preset NAME")
    if preset not in PRESETS:
        raise WeatherError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    label = f"preset:{preset}:{days}"
    return synthetic_days(n_days=days, **PRESETS[preset]), label, _input_hash(label)


def cmd_run(config_path, weather_path, preset, days, out_dir, horizon_h,
            target_mdb, overrides):
    """Simulate a drying run and write states.csv + diagnostics.csv."""
    _load_run_modules()
    try:
        cfg = load_config(config_path)
        sets = _parse_sets(overrides)
        if sets:
            cfg = apply_overrides(cfg, sets)
    except ConfigError as exc:
        _fail(1, str(exc))
    try:
        weather, weather_label, weather_hash = _resolve_weather(weather_path, preset, days)
    except WeatherError as exc:
        _fail(2, str(exc))
    if target_mdb is not None and not math.isfinite(target_mdb):
        _fail(2, f"--target-mdb must be finite, got {target_mdb}")

    inputs_hash = _input_hash(
        Path(config_path), weather_hash, sorted(sets.items()), horizon_h, target_mdb,
    )
    horizon_s = None if horizon_h is None else horizon_h * 3600.0
    out = Path(out_dir)
    try:
        with _staged(out, "states.csv", "diagnostics.csv", "manifest.json") as \
                (states_path, diag_path, manifest_path):
            with forked_steps(steps(cfg, weather, horizon_s, target_mdb=target_mdb)) as run:
                n_states = _write_run(states_path, diag_path, run,
                                      f"inputs_sha256={inputs_hash}")
            _write_manifest(manifest_path, out, config_path, weather_label, inputs_hash,
                            parameters={"horizon_h": horizon_h, "target_mdb": target_mdb,
                                        "overrides": list(overrides), "days": days},
                            n_states=n_states)
    except WeatherError as exc:
        _fail(2, str(exc))
    except GreendryError as exc:
        _fail(3, str(exc))
    except OSError as exc:
        _fail(2, f"cannot write {out}: {exc}")
    print(f"wrote {n_states} states to {out / 'states.csv'}")


def cmd_validate(states_path, observed_path, variable, limit):
    """Compare a simulated trace against observations; exit 0 iff within
    the acceptance limit."""
    if not 0.0 <= limit < math.inf:
        _fail(2, f"--limit must be finite and >= 0, got {limit}")

    def states_columns(header):
        if variable not in header or variable == "t_s":
            _fail(2, f"unknown variable {variable!r}; available: "
                     f"{[c for c in header if c != 't_s']}")
        return "t_s", variable

    def observed_columns(header):
        if sorted(header) != sorted(("t_s", variable)):
            _fail(2, "observed CSV must have exactly columns t_s,<variable>")
        return "t_s", variable

    try:
        states, lines = read_csv(states_path, states_columns)
    except (OSError, ValueError) as exc:
        _fail(2, f"cannot read states file: {exc}")
    t_pred = states["t_s"]
    if not t_pred:
        _fail(2, f"cannot read states file: {states_path}: no data rows")
    if not all(map(operator.lt, t_pred, itertools.islice(t_pred, 1, None))):
        i = next(i for i in range(1, len(t_pred)) if not t_pred[i - 1] < t_pred[i])
        _fail(2, f"cannot read states file: {states_path}:{lines[i]}: t_s "
                 f"{t_pred[i]} not increasing (previous {t_pred[i - 1]})")
    try:
        observed, _ = read_csv(observed_path, observed_columns)
    except (OSError, ValueError) as exc:
        _fail(2, f"cannot read observed file: {exc}")

    t_obs = observed["t_s"]
    t_first, t_last = t_pred[0], t_pred[-1]
    outside = [t for t in t_obs if not t_first <= t <= t_last]
    if outside:
        _fail(2, f"observed time {outside[0]} s outside simulated span")
    col = states[variable]
    predicted = [col[i] if f is None else col[i - 1] + f * (col[i] - col[i - 1])
                 for i, f in brackets(t_pred, t_obs)]
    try:
        report = percent_difference(predicted, observed[variable], variable)
    except ComparisonError as exc:
        _fail(2, str(exc))
    passed = acceptance_check(report, limit)
    print(
        f"{report.variable}: mean |diff| = {report.mean_abs_pct:.4f} % over "
        f"{report.n} points (max abs diff {report.max_abs_diff:.4g}); "
        f"limit {limit} % -> {'PASS' if passed else 'FAIL'}"
    )
    sys.exit(0 if passed else 1)


def cmd_sweep(config_path, spec_path, weather_path, preset, days, out_dir):
    """Evaluate a parameter grid; write sweep.csv ranked by objective.
    A point that fails, in its simulation or with no payback, is warned
    about and ranked as not reached; exit 3 only when every point failed
    or a worker process could not start or died."""
    _load_run_modules()
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _fail(1, str(exc))
    try:
        weather, weather_label, weather_hash = _resolve_weather(weather_path, preset, days)
        spec = load_sweep_spec(spec_path, weather)
    except (WeatherError, ConfigError) as exc:
        _fail(2, str(exc))
    out = Path(out_dir)
    inputs_hash = _input_hash(Path(config_path), Path(spec_path), weather_hash)
    paths = [p for p, _ in spec.parameters]
    unit = "hours" if spec.objective == "drying_time" else "years"
    columns = ["rank"] + paths + [f"objective_{unit}", "reached"]
    try:
        with _staged(out, "sweep.csv", "manifest.json") as (sweep_path, manifest_path):
            results = grid_search(cfg, spec)
            failed = [r for r in results if r.error is not None]
            for r in failed:
                print(f"warning: point {dict(r.point)} failed: {r.error}", file=sys.stderr)
            if len(failed) == len(results):
                _fail(3, f"all {len(results)} points failed")
            lines = (_sweep_line(rank, r) for rank, r in enumerate(results, start=1))
            write_csv(sweep_path, columns, lines, f"inputs_sha256={inputs_hash}")
            _write_manifest(manifest_path, out, config_path, weather_label, inputs_hash,
                            spec=str(spec_path), n_points=len(results),
                            n_reached=sum(r.reached for r in results),
                            failed=[{"point": dict(r.point), "error": r.error}
                                    for r in failed])
    except ConfigError as exc:  # a grid value or dt that grid_search rejects
        _fail(2, f"{spec_path}: {exc}")
    except GreendryError as exc:
        _fail(3, str(exc))
    except OSError as exc:
        _fail(2, f"cannot write {out}: {exc}")
    best = results[0]
    print(
        f"evaluated {len(results)} points; best objective "
        f"{best.objective:.4g} {unit} at {dict(best.point)}"
    )


def cmd_gen_weather(preset, days, interval, out_path, **shape):
    """Write a synthetic weather CSV that load_csv round-trips losslessly."""
    from .weather import PRESETS, save_csv, synthetic_days
    from .writers import _staged

    if preset not in PRESETS:
        _fail(2, f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    params = dict(PRESETS[preset])
    params.update((name, value) for name, value in shape.items() if value is not None)
    try:
        series = synthetic_days(n_days=days, interval_s=interval, **params)
    except WeatherError as exc:
        _fail(2, str(exc))
    out = Path(out_path)
    try:
        with _staged(out.parent, out.name) as (path,):
            save_csv(series, path, header_comment=f"synthetic preset={preset} days={days}")
    except OSError as exc:
        _fail(2, f"cannot write {out}: {exc}")
    print(f"wrote {len(series)} records to {out}")


def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of the four commands; each parses into its cmd_ function's
    arguments and `usage_error`, its parser's error.  No abbreviated option
    is taken: --conf is an error."""
    parser = argparse.ArgumentParser(
        prog=prog, description="Solar greenhouse tunnel drier simulator.", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, handler):
        summary = " ".join(handler.__doc__.split(".\n")[0].rstrip(".").split())
        sub = commands.add_parser(name, help=summary, description=handler.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(usage_error=sub.error)
        return sub.add_argument

    option = command("run", cmd_run)
    option("--config", dest="config_path", required=True, help="dryer config YAML")
    option("--weather", dest="weather_path", help="weather CSV")
    option("--preset", help="synthetic weather preset name")
    option("--days", type=int, default=4, help="days of synthetic weather [default: %(default)s]")
    option("--out", dest="out_dir", required=True, help="output directory")
    option("--horizon-h", type=float, help="simulation horizon, hours")
    option("--target-mdb", type=float, help="stop when moisture reaches this decimal db")
    option("--set", dest="overrides", action="append", default=[],
           help="dotted.path=value config override")

    option = command("validate", cmd_validate)
    option("--states", dest="states_path", required=True)
    option("--observed", dest="observed_path", required=True)
    option("--variable", required=True, help="states.csv column to compare")
    option("--limit", type=float, default=DEFAULT_ACCEPTANCE_LIMIT,
           help="acceptance limit, %% [default: %(default)s]")

    option = command("sweep", cmd_sweep)
    option("--config", dest="config_path", required=True)
    option("--spec", dest="spec_path", required=True)
    option("--weather", dest="weather_path")
    option("--preset", help="synthetic weather preset name")
    option("--days", type=int, default=4, help="[default: %(default)s]")
    option("--out", dest="out_dir", required=True)

    option = command("gen-weather", cmd_gen_weather)
    option("--preset", default="tropical", help="[default: %(default)s]")
    option("--days", type=int, default=3, help="[default: %(default)s]")
    option("--interval", type=float, default=600.0,
           help="sampling interval, s [default: %(default)s]")
    option("--out", dest="out_path", required=True)
    option("--peak-irradiance", type=float)
    option("--sunrise-h", type=float)
    option("--sunset-h", type=float)
    return parser


PARSER = _parser("greendry")


def main(args=None, prog_name=None):
    """Run the command that args (by default sys.argv[1:]) name, and end in
    SystemExit with its exit code: 0 on success, 2 on a usage error.
    prog_name names the program in usage and --version lines."""
    parser = PARSER if prog_name in (None, PARSER.prog) else _parser(prog_name)
    options, unknown = parser.parse_known_args(args)
    options = vars(options)
    usage_error = options.pop("usage_error")
    if unknown:  # reported with the usage of the command that did not take them
        usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    # looked up at each call, so that a wrapper put on a cmd_ function is called
    globals()["cmd_" + options.pop("command").replace("-", "_")](**options)
    sys.exit(0)


if __name__ == "__main__":
    main()
