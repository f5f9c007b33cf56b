"""What `greendry run` and `greendry sweep` write, and how: the staged
output directory, run's streamed states and diagnostics CSVs, sweep's
rows, each manifest and the hash of the inputs it records.

Loaded by `cli._load_run_modules`, which binds each function the commands
call on `cli`, when run or sweep starts, and by `gen-weather`, which stages
its file with `_staged`; `greendry validate` loads none of it.  `hashlib`
and `json` load with it, and `_write_run` imports `solver.step_record`,
the one copy of the step residuals, when it starts, so that `gen-weather`
loads no solver."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
from pathlib import Path

from . import __version__
from .tables import open_csv

STATE_COLUMNS = ["t_s", "T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db", "rh_pct"]
DIAG_COLUMNS = ["t_s", "res_cover_W", "res_air_W", "res_product_W",
                "res_floor_W", "dM_db", "rh_pct", "flags"]


def _input_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


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
