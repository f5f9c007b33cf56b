"""greendry benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload run_4day --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory and driven only through public entry points: the CLI
(greendry.cli.main, in-process, exit code checked) and public module
functions.  Inputs are generated from the seed into a scratch directory
under .bench_out/, which is removed at the end.

--trace 0 measures the end-to-end metrics with tracing off, each op's
time scaled to a fixed reference machine speed by a calibration kernel
sampled while the op runs (see calib.py).  --trace 1
alternates untraced and traced operations and reports per-layer metrics
from spans recorded around the program's functions at their import sites
(see SITES); the spans of the first traced operation are written to
.bench_out/trace-<workload>.json, replacing the previous run's.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "baseline_copra.yaml"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference" / "seed0.json"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30.0
# Set-up is timed SETUP_FIRST times before the first op, then once after
# each op up to SETUP_MAX in all, so that the samples spread over the run.
SETUP_FIRST = 3
SETUP_MAX = 15
DT = 60.0
RUN_STEPS = 5760

sys.path.insert(0, str(BENCH_DIR))
import calib  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

# Set-up a user pays on each invocation: a fresh interpreter imports the
# CLI and loads the workload's input files.  Timed inside the child, from
# before the first greendry import.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import greendry.cli as cli
config, weather, spec = sys.argv[2:5]
if config:
    cli.load_config(config)
if weather:
    series = cli.load_csv(weather)
if spec:
    cli.load_sweep_spec(spec, series)
print(repr(time.perf_counter() - t0))
"""

CHILD_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
from greendry.cli import main
main(sys.argv[2:], prog_name="greendry")
"""

# Where each layer is looked up, and the layer it is counted under.  Sites
# the program no longer has are skipped, and their time stays in the caller.
SITES = {
    ("greendry.cli", "cmd_run.callback"): "cli.run",
    ("greendry.cli", "cmd_sweep.callback"): "cli.sweep",
    ("greendry.cli", "cmd_validate.callback"): "cli.validate",
    ("greendry.cli", "read_states_csv"): "cli.read_states_csv",
    ("greendry.cli", "load_config"): "config.load_config",
    ("greendry.cli", "apply_overrides"): "config.apply_overrides",
    ("greendry.sweep", "apply_overrides"): "config.apply_overrides",
    ("greendry.cli", "load_csv"): "weather.load_csv",
    ("greendry.cli", "load_sweep_spec"): "sweep.load_sweep_spec",
    ("greendry.cli", "grid_search"): "sweep.grid_search",
    ("greendry.sweep", "drying_time_objective"): "sweep.drying_time_objective",
    ("greendry.cli", "simulate"): "solver.simulate",
    ("greendry.sweep", "simulate"): "solver.simulate",
    ("greendry.solver", "step"): "solver.step",
    ("greendry.solver", "gauss_jordan"): "solver.gauss_jordan",
    ("greendry.solver", "cover_balance"): "solver.balance_rows",
    ("greendry.solver", "air_balance"): "solver.balance_rows",
    ("greendry.solver", "product_balance"): "solver.balance_rows",
    ("greendry.solver", "floor_balance"): "solver.balance_rows",
    ("greendry.solver", "moisture_balance"): "solver.balance_rows",
    ("greendry.solver", "sample"): "weather.sample",
    ("greendry.solver", "assemble_coefficients"): "coefficients.assemble_coefficients",
    ("greendry.solver", "air_properties"): "core.air_properties",
    ("greendry.coefficients", "air_properties"): "core.air_properties",
    ("greendry.solver", "relative_humidity"): "core.relative_humidity",
    ("greendry.solver", "saturation_humidity_ratio"): "core.saturation_humidity_ratio",
    ("greendry.kinetics", "equilibrium_moisture"): "kinetics",
    ("greendry.kinetics", "drying_constants"): "kinetics",
    ("greendry.kinetics", "step_moisture"): "kinetics",
    ("greendry.cli", "percent_difference"): "analysis.percent_difference",
}
ROOT_SPAN = "cli.main"
LAYERS = [ROOT_SPAN] + sorted(set(SITES.values()))

# Work no wrapper can separate from outside the program, and the layer
# whose self time holds it.
FOLDED = {
    "solver.step": "LinearSystem build, row stacking, residual and max-term "
                   "generators, _kinetics_update and kinetics.rate_constant",
    "solver.simulate": "the time loop, list appends and initial_state",
    "sweep.grid_search": "grid expansion, _evaluate and the final sort",
    "cli.run": "CSV formatting incl. the per-row relative_humidity, manifest",
    "cli.sweep": "sweep.csv formatting",
    "cli.validate": "bisect interpolation onto the observed times, acceptance_check",
    "core.relative_humidity": "saturation_pressure",
    "core.saturation_humidity_ratio": "humidity_ratio and saturation_pressure",
    "kinetics": "moisture_ratio (inside step_moisture)",
    ROOT_SPAN: "click argument parsing and dispatch",
}


class Checkout:
    """Paths and the imported program for one benchmark run."""

    def __init__(self, work: Path, seed: int):
        import greendry.cli

        self.cli = greendry.cli
        self.work = work
        self.seed = seed
        self.weather = work / "weather.csv"
        self.weather.write_text(inputs.weather_csv(seed))

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        """Run the CLI in-process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main(args=argv, prog_name="greendry")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, out.getvalue(), err.getvalue()

    def child_cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", CHILD_CLI, str(SRC), *argv],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)

    def run_argv(self, out: Path) -> list[str]:
        return ["run", "--config", str(CONFIG), "--weather", str(self.weather), "--out", str(out)]


class Workload:
    """One op = the workload's timed CLI commands.  Each command carries
    `attempts` operations (runs, grid points or validations)."""

    name = ""
    unit = ""            # the work counted by units_per_ref_s
    units_per_op = 0
    operation = ""       # what failed_frac counts
    attempts = 1         # operations per command

    def __init__(self, co: Checkout):
        self.co = co

    def setup_files(self) -> tuple[str, str, str]:
        """(config, weather, sweep spec) loaded by the set-up probe."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def fingerprint(self, results) -> list[str]:
        """Per-command digest of the outputs, compared across ops."""
        raise NotImplementedError

    def check(self, results) -> list[str]:
        """Deep checks on the outputs of one op."""
        raise NotImplementedError

    def reference(self, results) -> dict:
        """The outputs stored for the default seed."""
        raise NotImplementedError

    def check_reference(self, ref: dict, results) -> list[str]:
        raise NotImplementedError

    def output_bytes(self) -> int:
        return 0

    def points_reached(self) -> int:
        return 0


class Run4Day(Workload):
    name = "run_4day"
    unit = "steps"
    units_per_op = RUN_STEPS
    operation = "runs"

    def __init__(self, co):
        super().__init__(co)
        self.out = co.work / "run"

    def setup_files(self):
        return str(CONFIG), str(self.co.weather), ""

    def commands(self):
        return [self.co.run_argv(self.out)]

    def _files(self):
        return [self.out / n for n in ("states.csv", "diagnostics.csv", "manifest.json")]

    def fingerprint(self, results):
        h = hashlib.sha256()
        for path in self._files():
            h.update(path.read_bytes())
        return [h.hexdigest()]

    def output_bytes(self):
        return sum(p.stat().st_size for p in self._files())

    def check(self, results):
        states = (self.out / "states.csv").read_text()
        errors = gate.check_states(states, RUN_STEPS + 1, DT)
        _, diag = gate.parse_csv((self.out / "diagnostics.csv").read_text())
        if len(diag) != RUN_STEPS:
            errors.append(f"diagnostics.csv: {len(diag)} rows, expected {RUN_STEPS}")
        manifest = json.loads((self.out / "manifest.json").read_text())
        if manifest.get("n_states") != RUN_STEPS + 1:
            errors.append(f"manifest.json: n_states={manifest.get('n_states')}")
        errors += self._check_against_library(states)
        return errors

    def _check_against_library(self, states_text: str) -> list[str]:
        """states.csv holds what the library's simulate returns for the same
        inputs, to REL_TOL."""
        from greendry import load_config, load_csv, relative_humidity, simulate

        cfg = load_config(CONFIG)
        series = simulate(cfg, load_csv(self.co.weather))
        P = cfg.numerics.pressure
        expected = [[s.t, s.T_c, s.T_a, s.T_p, s.T_f, s.H, s.M_p,
                     relative_humidity(s.H, s.T_a, P)[0]] for s in series.states]
        _, rows = gate.parse_csv(states_text)
        actual = [[float(v) for v in row] for row in rows]
        return gate.compare_rows(actual, expected, "states.csv vs library simulate")

    def reference(self, results):
        return {"states": gate.states_reference((self.out / "states.csv").read_text())}

    def check_reference(self, ref, results):
        return gate.check_states_reference((self.out / "states.csv").read_text(), ref["states"])


class SweepGrid18(Workload):
    name = "sweep_grid18"
    unit = "grid_points"
    units_per_op = 18
    operation = "grid points"
    attempts = 18

    def __init__(self, co):
        super().__init__(co)
        self.spec = co.work / "sweep.yaml"
        self.spec.write_text(inputs.sweep_spec_yaml())
        self.out = co.work / "sweep"

    def setup_files(self):
        return str(CONFIG), str(self.co.weather), str(self.spec)

    def commands(self):
        return [["sweep", "--config", str(CONFIG), "--spec", str(self.spec),
                 "--weather", str(self.co.weather), "--out", str(self.out)]]

    def _text(self):
        return (self.out / "sweep.csv").read_text()

    def fingerprint(self, results):
        return [gate.sha256(self._text().encode())]

    def output_bytes(self):
        return (self.out / "sweep.csv").stat().st_size

    def points_reached(self):
        return sum(reached for *_, reached in gate.sweep_table(self._text()))

    def check(self, results):
        text = self._text()
        errors = gate.check_sweep(text, inputs.SWEEP_GRID, inputs.SWEEP_HORIZON_H)
        return errors or self._check_best_point(gate.sweep_table(text)[0])

    def _check_best_point(self, best) -> list[str]:
        """The best point, re-evaluated through the library, has the
        objective sweep.csv ranks it by."""
        from greendry import apply_overrides, drying_time_objective, load_config, load_csv

        _, point, objective, reached = best
        paths = [p for p, _ in inputs.SWEEP_GRID]
        cfg = apply_overrides(load_config(CONFIG), dict(zip(paths, point)))
        hours = drying_time_objective(cfg, load_csv(self.co.weather), inputs.SWEEP_TARGET_MDB,
                                      inputs.SWEEP_HORIZON_H * 3600.0)
        expected = math.inf if hours is None else hours
        if not reached or not gate.close(objective, expected):
            return [f"sweep best point {point}: sweep.csv {objective!r}, "
                    f"drying_time_objective {expected!r}"]
        return []

    def reference(self, results):
        return {"sweep": gate.sweep_reference(self._text())}

    def check_reference(self, ref, results):
        return gate.check_sweep_reference(self._text(), ref["sweep"])


class ValidateTraces(Workload):
    name = "validate_traces"
    unit = "obs_points"
    operation = "validations"

    def __init__(self, co):
        super().__init__(co)
        setup_out = co.work / "setup_run"
        proc = co.child_cli(co.run_argv(setup_out))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited {proc.returncode}: {proc.stderr.strip()}")
        self.states_path = setup_out / "states.csv"
        self.states_text = self.states_path.read_text()
        header, rows = gate.parse_csv(self.states_text)
        self.states = {col: [float(r[j]) for r in rows] for j, col in enumerate(header)}
        self.checks = []  # (key, column, observed path, observed points)
        for (k, col), text in inputs.observation_csvs(co.seed, self.states).items():
            path = co.work / f"observed_{k}_{col}.csv"
            path.write_text(text)
            _, obs = gate.parse_csv(text)
            self.checks.append((f"{k}:{col}", col, path, [(float(t), float(y)) for t, y in obs]))
        self.units_per_op = sum(len(obs) for *_, obs in self.checks)

    def setup_files(self):
        return "", "", ""

    def commands(self):
        return [["validate", "--states", str(self.states_path), "--observed", str(path),
                 "--variable", col] for _, col, path, _ in self.checks]

    def fingerprint(self, results):
        return [out for _, out, _ in results]

    def check(self, results):
        errors = gate.check_states(self.states_text, RUN_STEPS + 1, DT)
        for (_, col, _, obs), (_, out, _) in zip(self.checks, results):
            pct = gate.mean_abs_pct(self.states, obs, col)
            errors += gate.check_validate_line(out, col, pct, len(obs))
        return errors

    def _lines(self, results):
        return {key: out.strip() for (key, *_), (_, out, _) in zip(self.checks, results)}

    def reference(self, results):
        return {"validate": self._lines(results)}

    def check_reference(self, ref, results):
        return (gate.check_states_reference(self.states_text, ref["states"])
                + gate.check_validate_reference(self._lines(results), ref["validate"]))


WORKLOADS = {w.name: w for w in (Run4Day, SweepGrid18, ValidateTraces)}


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of a few standard percentiles with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", percentile(sorted(values), p)
    return None


def setup_time(files: tuple[str, str, str]) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *files],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Session:
    """Runs ops of one workload and keeps the correctness tally."""

    def __init__(self, workload: Workload, check_reference: bool):
        self.w = workload
        self.check_reference = check_reference
        self.first = None     # fingerprint of the first op
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def op(self, tracer=None, probe=None) -> float:
        co, cmds = self.w.co, self.w.commands()
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            if tracer is None:
                results = [co.invoke(argv) for argv in cmds]
            else:
                with spans.patched(tracer, SITES):
                    invoke = tracer.wrap(ROOT_SPAN, co.invoke)
                    results = [invoke(argv) for argv in cmds]
            wall = time.perf_counter() - t0
        if probe is not None:
            wall -= probe.spent
        bad = [i for i, (code, _, err) in enumerate(results) if code != 0]
        for i in bad:
            self.errors.append(f"{cmds[i][0]} exited {results[i][0]}: {results[i][2].strip()}")
        if not bad:
            prints = self.w.fingerprint(results)
            if self.first is None:
                self.first = prints
                self.errors += self.w.check(results)
                if self.check_reference:
                    ref = json.loads(REFERENCE.read_text())
                    self.errors += self.w.check_reference(ref, results)
            bad = [i for i, fp in enumerate(prints) if fp != self.first[i]]
            if bad:
                self.errors.append(f"outputs of commands {bad} differ from the first op")
        self.attempted += len(cmds) * self.w.attempts
        if self.errors:
            bad = range(len(cmds))
        self.failed += len(bad) * self.w.attempts
        return wall


def room_for(op_s: float, t_end: float) -> bool:
    """Start another op only if it would end closer to t_end than not, so
    a run measures about --seconds on average however long an op is."""
    return time.perf_counter() + op_s / 2 < t_end


def measure(session: Session, seconds: float) -> tuple[list[float], list[float], list[float]]:
    """Returns each op's wall time, less the speed samples taken during it;
    the mean speed those samples show (relative to the reference); and the
    set-up times, taken between ops."""
    files = session.w.setup_files()
    setup = [setup_time(files) for _ in range(SETUP_FIRST)]
    probe = calib.SpeedProbe()
    walls, speeds = [], []
    t_end = time.perf_counter() + seconds
    while not walls or room_for(walls[-1], t_end):
        walls.append(session.op(probe=probe))
        speeds.append(statistics.fmean(probe.speeds))
        if len(setup) < SETUP_MAX:
            setup.append(setup_time(files))
    return walls, speeds, setup


def trace_measure(session: Session, seconds: float):
    """Alternate untraced and traced ops; returns (untraced walls, traced
    walls, layer stats per traced op, first tracer)."""
    plain, traced, stats = [], [], []
    first = None
    t_end = time.perf_counter() + seconds
    while not traced or room_for(plain[-1], t_end):
        plain.append(session.op())
        if traced and not room_for(traced[-1], t_end):
            break
        tracer = spans.Tracer()
        traced.append(session.op(tracer))
        stats.append(spans.layer_stats(tracer))
        if first is None:
            first = tracer
    return plain, traced, stats, first


def fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(w: Workload, walls: list[float], speeds: list[float], setup: list[float],
               session: Session) -> dict:
    # At speed v the machine does v times the reference work per second.
    ref = [wall * v for wall, v in zip(walls, speeds)]
    wall = statistics.median(ref)
    metrics = {
        "wall_ref_s": (wall, "s"),
        "units_per_ref_s": (w.units_per_op / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    print(f"end-to-end metrics, tracing off ({w.name}, {len(walls)} ops; machine speed "
          f"{fmt(statistics.median(speeds))} x reference, median over ops):")
    for label, samples, unit, scale in (
        ("wall_ref_s (at reference speed)", ref, "s", lambda x: x),
        (f"{w.unit}_per_ref_s (units_per_ref_s)", ref, "1/s", lambda x: w.units_per_op / x),
        ("wall_s (as measured)", walls, "s", lambda x: x),
        (f"{w.unit}_per_s (as measured)", walls, "1/s", lambda x: w.units_per_op / x),
        ("setup_s (as measured)", setup, "s", lambda x: x),
    ):
        t = tail(samples)
        tail_txt = ("no tail percentile (fewer than 20 samples)" if t is None
                    else f"{t[0]} of time: {fmt(scale(t[1]))} {unit}")
        print(f"  {label:40s} median {fmt(scale(statistics.median(samples)))} {unit}; "
              f"{tail_txt}; n={len(samples)}")
    print(f"  {'peak_rss_mib':40s} {fmt(metrics['peak_rss_mib'][0])} MiB")
    frac = session.failed / session.attempted
    print(f"  {'failed_frac':40s} {fmt(frac)} ({session.failed}/{session.attempted} {w.operation})")
    return metrics


def per_layer(w: Workload, plain, traced, stats, first: spans.Tracer) -> dict:
    wall = statistics.median(traced)
    metrics = {}
    print(f"per-layer metrics, traced ({w.name}, {len(traced)} traced ops, "
          f"{len(plain)} untraced; self_s is the median over traced ops):")
    for layer in LAYERS:
        calls = [s[layer].calls if layer in s else 0 for s in stats]
        self_s = statistics.median(s[layer].self_ns / 1e9 if layer in s else 0.0 for s in stats)
        if len(set(calls)) != 1:
            print(f"  warning: {layer}.calls differs between traced ops: {calls}")
        metrics[f"{layer}.calls"] = (calls[0], "count")
        metrics[f"{layer}.self_share"] = (self_s / wall, "frac")
        note = f"  [includes {FOLDED[layer]}]" if layer in FOLDED else ""
        print(f"  {layer + '.calls':42s} {calls[0]}")
        print(f"  {layer + '.self_s':42s} {fmt(self_s)} s ({fmt(100 * self_s / wall)} %){note}")
    steps = [d / 1e3 for d in spans.durations(first, "solver.step")]
    if steps:
        shown = {"p50": percentile(sorted(steps), 50), "p99": percentile(sorted(steps), 99)}
        if tail(steps) is not None:
            shown.setdefault(*tail(steps))
        for label, value in shown.items():
            print(f"  {'solver.step_us_' + label:42s} {fmt(value)} us (n={len(steps)})")
    else:
        print(f"  {'solver.step_us_p50 / _p99':42s} n/a (no steps on this workload)")
    metrics["sweep.points_reached"] = (w.points_reached(), "count")
    metrics["cli.output_bytes"] = (w.output_bytes(), "B")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / statistics.median(plain) - 1.0, "frac")
    for name in ("sweep.points_reached", "cli.output_bytes", "trace.wall_s", "trace.overhead_frac"):
        value, unit = metrics[name]
        print(f"  {name:42s} {fmt(value)} {unit}")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greendry" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"error: no greendry source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    try:
        co = Checkout(work, args.seed)
        w = WORKLOADS[args.workload](co)
        session = Session(w, check_reference=args.seed == DEFAULT_SEED)
        if args.trace:
            plain, traced, stats, first = trace_measure(session, args.seconds)
            run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time.time())}"
            dump = OUT_DIR / f"trace-{args.workload}.json"
            first.dump(dump, run_id)
            print(f"trace: {len(first)} spans of the first traced op written to {dump} "
                  f"(run id {run_id})")
            metrics = per_layer(w, plain, traced, stats, first)
        else:
            walls, speeds, setup = measure(session, args.seconds)
            metrics = end_to_end(w, walls, speeds, setup, session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in session.errors[:20]:
        print(f"CHECK FAILED: {err}")
    correct = not session.errors and session.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
