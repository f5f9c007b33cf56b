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

Importing this module loads only what all four commands use: argparse
and the package's `weather`, `core`, `analysis` and `errors`.  What only
`run` and `sweep` use (`config`, `solver` and `sweep`, with `kinetics`,
`coefficients` and PyYAML under them, `hashlib` and `json`) loads in one
place, `_load_run_modules`, when either command starts or when one of
RUN_NAMES is first read from outside this module; `_write_run` imports
`solver.step_record`, the one copy of the step residuals, when it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import math
import operator
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import DEFAULT_ACCEPTANCE_LIMIT, acceptance_check, percent_difference
from .errors import ComparisonError, ConfigError, GreendryError, WeatherError
from .weather import (PRESETS, brackets, load_csv, open_csv, read_csv, save_csv,
                      synthetic_days, write_csv)

# the functions of config, solver and sweep that run and sweep call
RUN_NAMES = ("load_config", "apply_overrides", "steps", "forked_steps", "grid_search",
             "load_sweep_spec")

STATE_COLUMNS = ["t_s", "T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db", "rh_pct"]
DIAG_COLUMNS = ["t_s", "res_cover_W", "res_air_W", "res_product_W",
                "res_floor_W", "dM_db", "rh_pct", "flags"]


def _load_run_modules() -> None:
    """Import what only `run` and `sweep` use: config, solver and sweep
    (with kinetics and coefficients), hashlib and json, and bind hashlib,
    json and each of RUN_NAMES as globals of this module.  A name of
    RUN_NAMES already bound is kept, so that a wrapper put on it, such as
    bench/spans.py's `patched` puts, is the one the command calls."""
    global hashlib, json
    import hashlib
    import json

    from .config import apply_overrides, load_config
    from .solver import steps
    from .sweep import forked_steps, grid_search, load_sweep_spec
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


def _input_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


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


def _write_manifest(path: Path, out: Path, config_path, weather_label: str,
                    inputs_hash: str, **fields) -> None:
    """Write path, out's manifest: the inputs, out and their hash, then fields."""
    manifest = {
        "engine_version": __version__,
        "config": str(config_path),
        "weather": weather_label,
        "out": str(out),
        "inputs_sha256": inputs_hash,
        **fields,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sweep_line(rank: int, result) -> str:
    values = "".join(f"{v!r}," for _, v in result.point)
    return f"{rank},{values}{result.objective!r},{int(result.reached)}"


@contextlib.contextmanager
def _staged(out: Path, *names):
    """Make the directory out and yield one temporary path in it per name;
    rename each to its name when the block succeeds.  When it raises, or
    a name is a directory (which a rename cannot replace, so none is
    renamed), remove the temporary files and every directory made here,
    and leave what was there before."""
    made = []
    parent = out
    while not parent.exists():
        made.append(parent)
        parent = parent.parent
    temporary = [out / f".{name}.tmp" for name in names]
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield temporary
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(out / name))
        for path, name in zip(temporary, names):
            os.replace(path, out / name)
    except BaseException:
        for path in temporary:
            with contextlib.suppress(OSError):
                path.unlink()
        for directory in made:  # innermost first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


RESIDUAL_MEMO_CAP = 256  # the most residual cells _write_run keeps


def _write_run(states_path, diag_path, run, comment) -> int:
    """Write the states and diagnostics CSVs, a row as each (state, work) of
    run comes (work None: no step row), run being `solver.steps` or what it
    yields; return the number of states.  The step row's residuals, dM, rh
    and flags are `solver.step_record(work, T_c, T_a, T_p, T_f)` at the new
    state's temperatures, as `step_diagnostics` records them; this function
    only formats them.  Each cell is a repr, made once where values repeat:
    t for both rows; the previous state's rh when the step's rh equals it,
    as from `advance`; the previous state's M_p when the new state's M_p
    equals it, as a stalled or at-equilibrium step returns it; and the
    first RESIDUAL_MEMO_CAP distinct nonzero residuals (roundoff: 35 in 4
    baseline days).  Values are compared, so that the memo also spares the
    reprs of a run whose floats come from another process as new objects
    (sweep.forked_steps), and zero is left out, as 0.0 == -0.0 but their
    reprs differ; equal nonzero floats have one repr.  A zero residual is
    written "0.0" or "-0.0" by its sign, without a repr."""
    from .solver import step_record

    memo = {}
    get = memo.get

    def residual(r):
        if not r:
            return "-0.0" if math.copysign(1.0, r) < 0.0 else "0.0"
        cell = repr(r)
        if len(memo) < RESIDUAL_MEMO_CAP:
            memo[r] = cell
        return cell

    n_states, rh, rh_cell, M_p, M_cell = 0, None, None, None, None
    with open_csv(states_path, STATE_COLUMNS, comment) as states, \
            open_csv(diag_path, DIAG_COLUMNS, comment) as diagnostics:
        for n_states, ((t, T_c, T_a, T_p, T_f, H, M_new, rh_new), work) in \
                enumerate(run, start=1):
            t_cell = repr(t)
            if work is not None:
                r0, r1, r2, r3, dM, rh_used, flags = step_record(work, T_c, T_a, T_p, T_f)
                diagnostics.write(
                    f"{t_cell},{get(r0) or residual(r0)},{get(r1) or residual(r1)},"
                    f"{get(r2) or residual(r2)},{get(r3) or residual(r3)},{dM!r},"
                    f"{rh_cell if rh_used == rh and rh_used else repr(rh_used)},"
                    f"{';'.join(flags)}\r\n")
            if not (M_new == M_p and M_new):
                M_p, M_cell = M_new, repr(M_new)
            rh, rh_cell = rh_new, repr(rh_new)
            states.write(f"{t_cell},{T_c!r},{T_a!r},{T_p!r},{T_f!r},{H!r},{M_cell},"
                         f"{rh_cell}\r\n")
    return n_states


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
