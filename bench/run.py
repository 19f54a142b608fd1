"""phasecat benchmark: one workload, one run.

    python3 bench/run.py --workload lattice --seed 0 --seconds 28 --trace 0

Load shape: a closed loop in one process, one operation at a time, no
threads; the cli workload runs one child process at a time.  A run

1. generates the seeded inputs (``setup_s`` is the median of
   ``SETUP_SAMPLES`` set-ups timed in fresh processes during the run);
2. runs one untimed desk rung to warm up, then timed passes over the
   whole workload (at least two, more while another fits in
   ``--seconds``), each after ``gc.collect()``, with a round of set-up
   samples and desk-only rungs before every pass and after the last;
3. runs the defect probes once, outside the timed passes.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones, with ``trace.overhead_s`` the difference of the
fastest traced and untraced passes.  Metric names, units and directions come from BENCHMARK.json.
The last line of stdout is one JSON object: correct, attempted, failed
(oracle-checked operations of the timed passes) and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import prepare

SETUP_SAMPLES = 7
MIN_PASSES = 2
DESK_ROUND_S = 0.5
CLI_STARTUP_SAMPLES = 5
BARE = [sys.executable, "-c", "pass"]
IMPORT = [sys.executable, "-c", "import phasecat"]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def load_spec() -> dict:
    with open(os.path.join(prepare.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def time_children(argv: list[str], n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=prepare.ENV, stdout=subprocess.DEVNULL,
                       check=True)
        out.append(time.perf_counter() - t0)
    return out


def setup_sampler(workload: str, seed: int, workdir: str):
    """A function timing one set-up in a fresh process."""
    target = os.path.join(workdir, "setup")
    argv = [sys.executable, os.path.join(prepare.BENCH, "prepare.py"),
            "--workload", workload, "--seed", str(seed), "--dir", target]

    def sample() -> float:
        wall = time_children(argv, 1)[0]
        shutil.rmtree(target, ignore_errors=True)
        return wall
    return sample


class Context:
    """What a pass needs: inputs, checker, recorder and library binding."""

    def __init__(self, workload: str, inputs: dict, workdir: str,
                 expected: dict):
        import workloads
        from spans import NullRecorder
        self.workload, self.inputs = workload, inputs
        self.workdir = workdir
        self.ck = workloads.Checker(expected)
        self.null = NullRecorder()
        self.rec = self.null
        self.lib = workloads.bind(self.null)
        self.phasecat = prepare.PHASECAT
        self.env = prepare.ENV
        self.child_rss = 0
        if workload == "cli":
            self.fixtures_dir = inputs["dirs"]["fixtures"]
            self.out_dir = os.path.join(workdir, "out")
            os.makedirs(self.out_dir, exist_ok=True)
            self.stdout_path = os.path.join(workdir, "child.out")
            self.desk_calls, self.large_calls = workloads.cli_calls(
                inputs, self.fixtures_dir, inputs["dirs"]["inputs"],
                self.out_dir)
            self.desk_refs = workloads.cli_reference(self, self.desk_calls)
            self.large_refs = workloads.cli_reference(self, self.large_calls)
            workloads.check_cli_reference(self, self.desk_refs,
                                          self.large_refs)


def expected_digests(workload: str, seed: int) -> dict:
    """Stored export digests: desk inputs do not depend on the seed, the
    large rung's are stored for seed 0."""
    with open(os.path.join(prepare.BENCH, "digests.json")) as fh:
        stored = json.load(fh)
    return {k: v for k, v in stored.get(workload, {}).items()
            if seed == stored["seed"] or k in stored["desk_keys"]}


def timed(fn) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(ctx, seconds: float, sample_setup, warmup_s: float):
    """Untraced passes, at least ``MIN_PASSES``, while another fits in
    ``seconds``.  A round runs before every pass and after the last: a
    share of the set-up samples, then the desk rung ``k`` times back to
    back, with ``k`` making a round's desk work last about
    ``DESK_ROUND_S``.  Rounds spread the short samples over the whole run
    instead of bunching them at one end of it."""
    import workloads
    k = max(1, round(DESK_ROUND_S / warmup_s))
    plain, desks, setups = [], [], []
    start = time.perf_counter()

    def round_(share: int):
        for _ in range(min(share, SETUP_SAMPLES - len(setups))):
            setups.append(sample_setup())
        desks.extend(timed(lambda: workloads.DESKS[ctx.workload](ctx))
                     for _ in range(k))

    round_(1)
    while True:
        plain.append(timed(lambda: workloads.run_pass(ctx)))
        elapsed = time.perf_counter() - start
        left = max(0, int((seconds - elapsed) // median(plain)))
        round_(-(-(SETUP_SAMPLES - len(setups)) // (left + 1)))
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed + median(plain) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup())
    return plain, desks, setups


def measure_traced(ctx, seconds: float, rec):
    """Alternating untraced and traced passes while another fits."""
    import workloads
    plain, traced, ids = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        gc.collect()
        if i % 2:
            rec.pass_id = i
            workloads.patch_nested(rec)
            ctx.rec, ctx.lib = rec, workloads.bind(rec)
            t0 = time.perf_counter()
            with rec.span("trace.harness_s"):
                workloads.run_pass(ctx)
            traced.append(time.perf_counter() - t0)
            rec.unpatch()
            ctx.rec, ctx.lib = ctx.null, workloads.bind(ctx.null)
            ids.append(i)
        else:
            plain.append(timed(lambda: workloads.run_pass(ctx)))
        i += 1
        elapsed = time.perf_counter() - start
        if traced and elapsed + median(plain + traced) > seconds:
            break
    return plain, traced, ids


def peak_rss_mb(ctx) -> float:
    kib = (ctx.child_rss if ctx.workload == "cli" else
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib / 1024.0


def per_layer(spec: dict, rec, ids, plain, traced_times, extra) -> dict:
    selfs = rec.self_times()
    per_pass = []
    for pid in ids:
        row = dict(rec.counts.get(pid, {}))
        row.update(selfs.get(pid, {}))
        per_pass.append(row)

    def value(name):
        return median([row.get(name, 0.0) for row in per_pass])

    def ratio(num, den, scale=1.0):
        d = value(den)
        return value(num) / d * scale if d else 0.0

    derived = {
        "permgroup.closures_per_subgroup": lambda: ratio(
            "permgroup.subgroup_closure_calls", "permgroup.subgroups"),
        "category.laws_us_per_triple": lambda: ratio(
            "category.check_laws_s", "category.triples", 1e6),
        "phase.arrow_image_us_per_call": lambda: ratio(
            "phase.arrow_image_s", "phase.arrow_image_calls", 1e6),
        "singularity.milnor_us_per_mu": lambda: ratio(
            "singularity.milnor_s", "singularity.mu_sum", 1e6),
        "largedev.legendre_us_per_point": lambda: ratio(
            "largedev.legendre_s", "largedev.points", 1e6),
        "trace.overhead_s": lambda: min(traced_times) - min(plain),
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in extra:
            v = extra[name]
        elif name in derived:
            v = derived[name]()
        elif name.startswith("cli.call_s."):
            v = median(rec.durations(name))
        else:
            v = value(name)
        out[name] = {"value": v, "unit": m["unit"]}
    return out


def cli_extra(ctx) -> dict:
    from phasecat import fixtures
    bare = median(time_children(BARE, CLI_STARTUP_SAMPLES))
    imp = median(time_children(IMPORT, CLI_STARTUP_SAMPLES))
    writes = []
    for k in range(CLI_STARTUP_SAMPLES):
        t0 = time.perf_counter()
        fixtures.write_fixtures(os.path.join(ctx.workdir, f"fx{k}"))
        writes.append(time.perf_counter() - t0)
    return {"cli.interp_s": bare, "cli.import_s": imp - bare,
            "fixtures.write_s": median(writes)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lattice", "phase", "exact", "cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    prepare.import_library()
    spec = load_spec()
    warnings.simplefilter("ignore", UserWarning)
    import probes
    import workloads
    from spans import Recorder

    workdir = os.path.join(prepare.BENCH, ".work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = prepare.setup(args.workload, args.seed, workdir)
        ctx = Context(args.workload, inputs, workdir,
                      expected_digests(args.workload, args.seed))
        warmup_s = timed(lambda: workloads.DESKS[args.workload](ctx))
        if args.trace:
            rec = Recorder()
            plain, traced, ids = measure_traced(ctx, args.seconds, rec)
        else:
            plain, desks, setups = measure(
                ctx, args.seconds,
                setup_sampler(args.workload, args.seed, workdir), warmup_s)
            rss = peak_rss_mb(ctx)
        extra = cli_extra(ctx) if args.trace and args.workload == "cli" \
            else {}
        probe_results = probes.PROBES.get(args.workload, lambda c: [])(ctx)
        extra["probes.attempted"] = len(probe_results)
        extra["probes.failed"] = sum(1 for _, ok in probe_results if not ok)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    q = (statistics.quantiles(plain, n=4) if len(plain) > 1
         else [plain[0]] * 3)
    notes = [f"{args.workload} seed {args.seed}: {len(plain)} untraced "
             f"passes, fastest {min(plain):.4f} s, median "
             f"{median(plain):.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f}",
             "pass_s " + " ".join(f"{t:.4f}" for t in plain)]
    if args.trace:
        metrics = per_layer(spec, rec, ids, plain, traced, extra)
        out_dir = os.path.join(prepare.BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        rec.dump(os.path.join(out_dir,
                              f"spans-{args.workload}-{args.seed}.json"))
        harness = metrics["trace.harness_s"]["value"]
        notes.append(f"{len(traced)} traced passes, median "
                     f"{median(traced):.4f} s: module self times "
                     f"{median(traced) - harness:.4f} s, the benchmark's own "
                     f"checks and glue {harness:.4f} s")
    else:
        # Passes and desk rungs report their fastest run: on a shared host
        # the speed follows the neighbours' load for tens of seconds at a
        # time, which moves a run's median and barely moves its minimum.
        values = {"setup_s": median(setups), "solve_s": min(plain),
                  "desk_s": min(desks), "peak_rss_mb": rss}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        notes.append(f"{len(desks)} desk rungs, fastest {min(desks):.4f} s, "
                     f"median {median(desks):.4f} s")
        notes.append("setup_s " + " ".join(f"{t:.4f}" for t in setups))
    notes += [f"probe {'ok    ' if ok else 'FAILED'} {name}"
              for name, ok in probe_results]
    notes += [f"{name:40s} {m['value']:>14.6g} {m['unit']}"
              for name, m in metrics.items()]
    ck = ctx.ck
    for msg in ck.messages:
        print(f"FAILED: {msg}", file=sys.stderr)
    for line in notes:
        print(f"# {line}")
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
