"""Command-line surface.

Subcommands: group, orbitcat, phase, strata, quiver, sing, ldp.  Exit code
0 on success, 1 on validation errors, 2 on usage errors (argparse's own
convention); diagnostics go to stderr, results to stdout or to -o files
(written atomically).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import fixtures
from .errors import PhasecatError, ValidationError
from .germs import parse_germ
from .gspace import GComplex
from .largedev import DiscreteObservable, bernoulli, cgf, cramer, legendre
from .linrep import LinearAction, degeneracy_quiver
from .ologio import atomic_write, export_dot, export_olog, olog_json
from .orbitcat import build_orbit_category
from .permgroup import (FiniteGroup, all_subgroups, closure,
                        conjugacy_classes_of_subgroups)
from .phase import StratifiedComplex, build_phase_diagram, strata_category
from .singularity import (NonIsolated, QuasihomogeneousGerm, milnor_number,
                          spectrum_grading, stabilize)

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> list[int]:
    """Convert cycle notation like "(0 1)(2 3)" to an image array."""
    images = list(range(degree))
    body = text.strip()
    if not body:
        return images
    consumed = "".join(_CYCLE.findall(body))
    if re.sub(r"[()\s,]", "", body) != re.sub(r"[\s,]", "", consumed):
        raise ValidationError(f"malformed cycle notation: {text!r}")
    for cyc in _CYCLE.findall(body):
        points = [int(p) for p in re.split(r"[\s,]+", cyc.strip()) if p]
        for a, b in zip(points, points[1:] + points[:1]):
            if not 0 <= a < degree:
                raise ValidationError(f"cycle point {a} out of range")
            images[a] = b
    if sorted(images) != list(range(degree)):
        raise ValidationError(f"cycles {text!r} do not form a permutation")
    return images


def load_group_file(path: str) -> FiniteGroup:
    with open(path) as fh:
        data = json.load(fh)
    degree = int(data["degree"])
    gens = []
    for i, g in enumerate(data.get("generators", [])):
        try:
            if isinstance(g, str):
                gens.append(parse_cycles(g, degree))
            else:
                from .permgroup import check_perm
                gens.append(list(check_perm(g, degree)))
        except ValidationError as exc:
            raise ValidationError(f"generator {i}: {exc}") from exc
    return closure(degree, gens)


def load_complex_file(path: str, group: FiniteGroup) -> GComplex:
    with open(path) as fh:
        data = json.load(fh)
    return GComplex(group, int(data["vertices"]), data["simplices"],
                    data.get("action", []))


def load_rep_file(path: str, group: FiniteGroup) -> LinearAction:
    with open(path) as fh:
        data = json.load(fh)
    mats = [[[Fraction(x) for x in row] for row in gen]
            for gen in data["generators"]]
    return LinearAction(group, int(data["dim"]), mats)


def load_strata_file(path: str) -> StratifiedComplex:
    with open(path) as fh:
        data = json.load(fh)
    codim = data.get("codim")
    if isinstance(codim, dict):
        codim = {int(k): int(v) for k, v in codim.items()}
    elif isinstance(codim, list):
        codim = dict(enumerate(codim))
    return StratifiedComplex(int(data["vertices"]), data["simplices"],
                             data["assignment"], data["poset"], codim)


def emit(text: str, out: str | None):
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def emit_category(category, phase, out: str | None, fmt: str | None):
    if fmt is None:
        fmt = "dot" if out and out.endswith(".dot") else "json"
    if fmt == "dot":
        emit(export_dot(category, phase), out)
    else:
        emit(olog_json(export_olog(category, phase)), out)


def cmd_group(args) -> int:
    G = load_group_file(args.input)
    if args.action == "info":
        subs = all_subgroups(G)
        classes = conjugacy_classes_of_subgroups(G, subs)
        print(f"degree: {G.degree}")
        print(f"order: {G.order}")
        print(f"subgroups: {len(subs)}")
        print(f"subgroup conjugacy classes: {len(classes)}")
    return 0


def cmd_orbitcat(args) -> int:
    G = load_group_file(args.input)
    orbit = build_orbit_category(G)
    emit_category(orbit.category, None, args.output, args.format)
    return 0


def cmd_phase(args) -> int:
    G = load_group_file(args.group)
    X = load_complex_file(args.complex, G)
    phase = build_phase_diagram(G, X)
    emit_category(phase.category, phase, args.output, args.format)
    return 0


def cmd_strata(args) -> int:
    strat = load_strata_file(args.input)
    cat = strata_category(strat)
    emit_category(cat, None, args.output, args.format)
    return 0


def cmd_quiver(args) -> int:
    G = load_group_file(args.group)
    action = load_rep_file(args.rep, G)
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
    emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def cmd_sing(args) -> int:
    germ = parse_germ(args.germ)
    if args.action == "mu":
        try:
            print(milnor_number(germ))
        except NonIsolated:
            print("NonIsolated")
    elif args.action == "spectrum":
        if not args.weights:
            raise ValidationError("spectrum requires --weights")
        weights = [Fraction(w) for w in args.weights.split(",")]
        q = QuasihomogeneousGerm(germ, tuple(weights))
        print(", ".join(str(v) for v in spectrum_grading(q)))
    elif args.action == "stabilize":
        print(stabilize(germ))
    return 0


def _parse_dist(text: str) -> DiscreteObservable:
    outcomes = []
    for chunk in text.split(","):
        value, _, prob = chunk.partition(":")
        if not prob:
            raise ValidationError(f"malformed outcome {chunk!r}; expected "
                                  "value:probability")
        outcomes.append((float(value), float(prob)))
    return DiscreteObservable(tuple(outcomes))


def cmd_ldp(args) -> int:
    if (args.dist is None) == (args.bernoulli is None):
        raise ValidationError("provide exactly one of --dist / --bernoulli")
    obs = (bernoulli(args.bernoulli) if args.bernoulli is not None
           else _parse_dist(args.dist))
    start, stop, step = (float(v) for v in args.grid.split(":"))
    lines = ["x\tGamma*\tC"]
    x = start
    while x <= stop + 1e-12:
        rate = legendre(obs, x)
        lines.append(f"{x:.6g}\t{rate:.12g}\t{-rate:.12g}")
        x += step
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
        written = fixtures.write_fixtures(args.seed_fixtures)
        for path in written:
            print(path)
        if not args.command:
            return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: input is missing key {exc}", file=sys.stderr)
        return 1
    except (PhasecatError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
