"""Defect probes: known-wrong inputs, run once per run outside the timed
passes.  Each probe states the correct answer; a probe fails while the
defect it names is present.  Their outcome is reported on its own
(``probes.attempted`` / ``probes.failed``), so that fixing a defect lowers
``probes.failed`` and the work the fix adds is not counted in ``solve_s``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

from phasecat import germs, singularity

from prepare import ENV
from workloads import bernoulli_rate, run_child

# Isolated germs of degree >= 19, with their weights; at seed the Milnor
# number search reports NonIsolated for them.
MILNOR = (("x^20", ("1/20",)),
          ("x^3 + y^19", ("1/3", "1/19")),
          ("x^2 + y^2 + z^30", ("1/2", "1/2", "1/30")))
# Legendre transform at a point of a very narrow hull; bisection on theta
# never meets its tolerance at seed, so it runs in a child with a limit.
LEGENDRE = ("from phasecat import DiscreteObservable, legendre\n"
            "print(repr(legendre(DiscreteObservable("
            "((0.0, 0.5), (1e-6, 0.5))), 1e-9)))\n")
LEGENDRE_LIMIT_S = 3.0
LEGENDRE_WANT = bernoulli_rate(0.5, 1e-3)
# Malformed CLI inputs: each must exit 1 with a one-line message.
CLI_INPUTS = (("bad_degree", {"degree": "x", "generators": []}, None),
              ("missing_key", {"generators": []}, "degree"))


def milnor_probe(text: str, weights) -> bool:
    want = singularity.weight_milnor([Fraction(w) for w in weights])
    try:
        return singularity.milnor_number(germs.parse_germ(text)) == want
    except (singularity.NonIsolated, ValueError):
        # NonIsolated is the defect; a cap error also leaves mu unknown
        return False


def exact_probes(workdir: str) -> list[tuple[str, bool]]:
    out = [(f"milnor {t}", milnor_probe(t, w)) for t, w in MILNOR]
    code, stdout, _, _ = run_child(
        [sys.executable, "-c", LEGENDRE], ENV,
        os.path.join(workdir, "probe.out"), timeout=LEGENDRE_LIMIT_S)
    ok = code == 0 and math.isclose(float(stdout.decode() or "nan"),
                                    LEGENDRE_WANT, rel_tol=1e-6)
    out.append(("legendre narrow hull", ok))
    return out


def cli_probes(phasecat: list[str], workdir: str) -> list[tuple[str, bool]]:
    out = []
    for name, payload, key in CLI_INPUTS:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code, _, stderr, _ = run_child(
            phasecat + ["group", "info", "-i", path], ENV,
            os.path.join(workdir, "probe.out"), timeout=60)
        lines = stderr.decode(errors="replace").strip().splitlines()
        ok = (code == 1 and len(lines) == 1
              and lines[0].startswith("error:"))
        if key is not None:
            # the message names the key and says that it is missing
            ok = ok and key in lines[0] and "missing" in lines[0].lower()
        out.append((f"cli group info {name}", ok))
    return out


PROBES = {"exact": lambda ctx: exact_probes(ctx.workdir),
          "cli": lambda ctx: cli_probes(ctx.phasecat, ctx.workdir)}
