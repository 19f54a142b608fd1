"""Record the SHA-256 of every olog and DOT export for seed 0.

    python3 bench/record_digests.py

Rewrites bench/digests.json.  Desk-rung inputs do not depend on the seed,
so their digests are checked on every seed; the large rung's are checked
on seed 0.  Run this only when an export format changes on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings

import prepare

SEED = 0


def main():
    prepare.import_library()
    warnings.simplefilter("ignore", UserWarning)
    import workloads
    from run import Context

    out = {"seed": SEED, "desk_keys": []}
    for workload in ("lattice", "phase"):
        workdir = os.path.join(prepare.BENCH, ".work", f"digests-{workload}")
        os.makedirs(workdir, exist_ok=True)
        try:
            ctx = Context(workload, prepare.setup(workload, SEED, workdir),
                          workdir, {})
            workloads.DESKS[workload](ctx)
            out["desk_keys"].extend(sorted(ctx.ck.seen))
            workloads.run_pass(ctx)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if ctx.ck.failed:
            raise SystemExit(f"{workload}: {ctx.ck.messages}")
        out[workload] = dict(sorted(ctx.ck.seen.items()))
    with open(os.path.join(prepare.BENCH, "digests.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
