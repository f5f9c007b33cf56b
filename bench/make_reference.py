"""Write bench/reference/seed0.json: the outputs of every workload for the
default seed, which run.py compares against on that seed.

    python3 bench/make_reference.py

Regenerate only when the program's outputs are meant to change, and say so
where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
    try:
        co = run.Checkout(Path(work), run.DEFAULT_SEED)
        ref = {"seed": run.DEFAULT_SEED}
        for cls in run.WORKLOADS.values():
            w = cls(co)
            results = [co.invoke(argv) for argv in w.commands()]
            errors = [f"exit {code}: {err}" for code, _, err in results if code != 0]
            errors = errors or w.check(results)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            ref.update(w.reference(results))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
