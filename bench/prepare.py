"""Benchmark set-up: find the library source, generate the seeded inputs.

Set-up is what ``setup_s`` measures: interpreter start, ``import phasecat``
and generating the inputs as plain data; for the cli workload also
``phasecat --seed-fixtures`` and writing the generated input files.  Run as
a script it performs one set-up and exits, so the benchmark can time it in
fresh processes:

    python3 bench/prepare.py --workload lattice --seed 0 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
PHASECAT = [sys.executable, "-m", "phasecat.cli"]


def import_library():
    """Import phasecat from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "phasecat", "__init__.py")):
        sys.exit(f"bench: no phasecat source under {SRC}")
    sys.path.insert(0, SRC)
    import phasecat
    if os.path.dirname(os.path.dirname(phasecat.__file__)) != SRC:
        sys.exit(f"bench: phasecat imported from {phasecat.__file__}")
    return phasecat


def setup(workload: str, seed: int, workdir: str) -> dict:
    import gen
    inputs = gen.generate(workload, seed)
    if workload == "cli":
        fixtures_dir = os.path.join(workdir, "fixtures")
        subprocess.run(PHASECAT + ["--seed-fixtures", fixtures_dir],
                       env=ENV, stdout=subprocess.DEVNULL, check=True)
        data_dir = os.path.join(workdir, "inputs")
        os.makedirs(data_dir, exist_ok=True)
        for name, payload in inputs["files"].items():
            with open(os.path.join(data_dir, name), "w") as fh:
                json.dump(payload, fh)
        inputs["dirs"] = {"fixtures": fixtures_dir, "inputs": data_dir}
    return inputs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    import_library()
    setup(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
