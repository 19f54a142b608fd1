"""Command-line surface.

Subcommands: group, orbitcat, phase, strata, quiver, sing, ldp.  Exit code
0 on success, 1 on validation errors, 2 on usage errors (argparse's own
convention); diagnostics go to stderr, results to stdout or to -o files
(written atomically).

Each subcommand imports the library modules it uses when it runs, so a
process compiles only those.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from .errors import CapExceededError, PhasecatError, ValidationError

if TYPE_CHECKING:
    from .largedev import DiscreteObservable

#: Most x values one ``ldp --grid`` may ask for.
GRID_CAP = 10_000


def __getattr__(name: str):
    # phasecat.cli.parse_cycles is public; permgroup loads on first use
    if name == "parse_cycles":
        from .permgroup import parse_cycles
        return parse_cycles
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def read_spec(path: str):
    import json
    with open(path) as fh:
        return json.load(fh)


def load_inputs(*inputs):
    """Build each ``(path, from_spec)`` input; later builders also get the
    first result, the group.  With two files, an error names its file."""
    from json import JSONDecodeError
    built = []
    for path, from_spec in inputs:
        try:
            built.append(from_spec(read_spec(path), *built[:1]))
        except (ValidationError, JSONDecodeError) as exc:
            if len(inputs) == 1:
                raise
            raise ValidationError(f"{path}: {exc}") from exc
    return built


def emit(text: str, out: str | None):
    if out:
        from .ologio import atomic_write
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def emit_category(category, phase, out: str | None, fmt: str | None):
    from .ologio import export_dot, export_olog, olog_json
    if fmt is None:
        fmt = "dot" if out and out.endswith(".dot") else "json"
    if fmt == "dot":
        emit(export_dot(category, phase), out)
    else:
        emit(olog_json(export_olog(category, phase)), out)


def cmd_group(args) -> int:
    from .fixtures import group_from_spec
    from .permgroup import conjugacy_classes_of_subgroups
    G, = load_inputs((args.input, group_from_spec))
    if args.action == "info":
        classes = conjugacy_classes_of_subgroups(G)
        subgroups = sum(len(c.orbit_of_subgroups) for c in classes)
        print(f"degree: {G.degree}")
        print(f"order: {G.order}")
        print(f"subgroups: {subgroups}")
        print(f"subgroup conjugacy classes: {len(classes)}")
    return 0


def cmd_orbitcat(args) -> int:
    from .fixtures import group_from_spec
    from .orbitcat import build_orbit_category
    G, = load_inputs((args.input, group_from_spec))
    orbit = build_orbit_category(G)
    emit_category(orbit.category, None, args.output, args.format)
    return 0


def cmd_phase(args) -> int:
    from .fixtures import complex_from_spec, group_from_spec
    from .phase import build_phase_diagram
    G, X = load_inputs((args.group, group_from_spec),
                       (args.complex, complex_from_spec))
    phase = build_phase_diagram(G, X)
    emit_category(phase.category, phase, args.output, args.format)
    return 0


def cmd_strata(args) -> int:
    from .fixtures import strata_from_spec
    from .phase import strata_category
    strat, = load_inputs((args.input, strata_from_spec))
    cat = strata_category(strat)
    emit_category(cat, None, args.output, args.format)
    return 0


def cmd_quiver(args) -> int:
    from .fixtures import group_from_spec, rep_from_spec
    from .linrep import degeneracy_quiver
    from .ologio import olog_json
    _, action = load_inputs((args.group, group_from_spec),
                            (args.rep, rep_from_spec))
    quiver = degeneracy_quiver(action)
    payload = {
        "nodes": [{
            "class": i,
            "subgroupOrder": n.subgroup_class.order,
            "fixDimension": n.fix_dimension,
            "fixBasis": [[str(x) for x in v] for v in n.fix_basis],
        } for i, n in enumerate(quiver.nodes)],
        "arrows": [{
            "source": a.source, "target": a.target, "witness": a.witness,
            "normalDimension": a.normal.dimension,
            "normalBasis": [[str(x) for x in v] for v in a.normal.basis],
            "restrictedAction": {
                str(k): [[str(x) for x in row] for row in mat]
                for k, mat in sorted(a.normal.restricted.items())},
        } for a in quiver.arrows],
    }
    emit(olog_json(payload), args.output)
    return 0


def cmd_sing(args) -> int:
    from fractions import Fraction

    from .germs import parse_germ
    from .singularity import (NonIsolated, QuasihomogeneousGerm,
                              milnor_number, spectrum_grading, stabilize)
    germ = parse_germ(args.germ)
    if args.action == "mu":
        try:
            print(milnor_number(germ))
        except NonIsolated:
            print("NonIsolated")
    elif args.action == "spectrum":
        if not args.weights:
            raise ValidationError("spectrum requires --weights")
        try:
            weights = tuple(Fraction(w) for w in args.weights.split(","))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"--weights: expected rationals such as "
                                  f"1/3,1/4, got {args.weights!r}") from None
        q = QuasihomogeneousGerm(germ, weights)
        print(", ".join(str(v) for v in spectrum_grading(q)))
    elif args.action == "stabilize":
        print(stabilize(germ))
    return 0


def _parse_dist(text: str) -> DiscreteObservable:
    from .largedev import DiscreteObservable
    outcomes = []
    for chunk in text.split(","):
        value, _, prob = chunk.partition(":")
        try:
            outcomes.append((float(value), float(prob)))
        except ValueError:
            raise ValidationError(f"--dist: malformed outcome {chunk!r}; "
                                  "expected value:probability") from None
    try:
        return DiscreteObservable(tuple(outcomes))
    except ValidationError as exc:
        raise ValidationError(f"--dist: {exc}") from None


def _parse_grid(text: str) -> list[float]:
    """start + k*step for k = 0, 1, ... up to stop (within 1e-12)."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValidationError(f"--grid: expected start:stop:step, got "
                              f"{text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise ValidationError(f"--grid: need finite values and a positive "
                              f"step, got {text!r}")
    span = (stop - start + 1e-12) / step
    if span >= GRID_CAP:
        raise CapExceededError(f"--grid asks for {span + 1:.0f} points, "
                               f"more than GRID_CAP={GRID_CAP}")
    return [start + k * step for k in range(max(0, math.floor(span) + 1))]


def cmd_ldp(args) -> int:
    from .largedev import bernoulli, legendre
    if (args.dist is None) == (args.bernoulli is None):
        raise ValidationError("provide exactly one of --dist / --bernoulli")
    obs = (bernoulli(args.bernoulli) if args.bernoulli is not None
           else _parse_dist(args.dist))
    lines = ["x\tGamma*\tC"]
    for x in _parse_grid(args.grid):
        rate = legendre(obs, x)
        lines.append(f"{x:.6g}\t{rate:.12g}\t{-rate:.12g}")
    emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecat",
        description="Phase diagrams of finite transformation groupoids and "
                    "their supporting invariants.")
    parser.add_argument("--seed-fixtures", metavar="DIR",
                        help="write all bundled example inputs to DIR")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("group", help="inspect a permutation group")
    p.add_argument("action", choices=["info"])
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("orbitcat", help="build the orbit category")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["dot", "json"])
    p.set_defaults(func=cmd_orbitcat)

    p = sub.add_parser("phase", help="build the phase diagram of (G, X)")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-x", "--complex", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["dot", "json"])
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("strata", help="category of a stratified complex")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["dot", "json"])
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("quiver", help="degeneracy quiver of a linear action")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-r", "--rep", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("sing", help="singularity invariants of a germ")
    p.add_argument("action", choices=["mu", "spectrum", "stabilize"])
    p.add_argument("--germ", required=True)
    p.add_argument("--weights")
    p.set_defaults(func=cmd_sing)

    p = sub.add_parser("ldp", help="rate-function table of an observable")
    p.add_argument("--dist", help='outcomes as "v:p,v:p,..."')
    p.add_argument("--bernoulli", type=float,
                   help="shortcut for a Bernoulli(p) observable")
    p.add_argument("--grid", default="0.1:0.9:0.1",
                   help="x grid start:stop:step")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_ldp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_fixtures:
        from .fixtures import write_fixtures
        written = write_fixtures(args.seed_fixtures)
        for path in written:
            print(path)
        if not args.command:
            return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (PhasecatError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
