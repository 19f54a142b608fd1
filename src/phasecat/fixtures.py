"""Input specs and the bundled desk-scale fixtures.

The one place that turns a spec (a JSON object from a CLI input file, or a
bundled dict below) into an object: each ``*_from_spec`` checks the spec's
shape, naming the bad field, before building.  Unknown keys are ignored.
``load_*`` build the bundled fixtures through the same functions, and
``write_fixtures`` writes them out as files.  Each builder imports the
module of the object it builds, so importing this module loads no group
code, and reading a group loads no complex, representation or
stratification code."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from .gspace import GComplex
    from .linrep import LinearAction
    from .permgroup import FiniteGroup
    from .phase import StratifiedComplex

GROUPS: dict[str, dict] = {
    "trivial": {"degree": 1, "generators": []},
    "c2": {"degree": 2, "generators": [[1, 0]]},
    "c4": {"degree": 4, "generators": [[1, 2, 3, 0]]},
    "s3": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "d4": {"degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 3, 2]]},
    "a4": {"degree": 4, "generators": [[1, 2, 0, 3], [0, 2, 3, 1]]},
    "s4": {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
}

SQUARE_SIMPLICES = [[0, 1], [1, 2], [2, 3], [3, 0]]

COMPLEXES: dict[str, dict] = {
    # one-point space, usable with any group below via identity action
    "point_trivial": {"group": "trivial", "vertices": 1,
                      "simplices": [[0]], "action": []},
    "point_s3": {"group": "s3", "vertices": 1, "simplices": [[0]],
                 "action": [[0], [0]]},
    # square boundary, C2 by the reflection fixing vertices 0 and 2
    "square_reflection": {"group": "c2", "vertices": 4,
                          "simplices": SQUARE_SIMPLICES,
                          "action": [[0, 3, 2, 1]]},
    # square boundary, C2 by the free half-turn
    "square_halfturn": {"group": "c2", "vertices": 4,
                        "simplices": SQUARE_SIMPLICES,
                        "action": [[2, 3, 0, 1]]},
    # square boundary with the full dihedral symmetry
    "square_d4": {"group": "d4", "vertices": 4,
                  "simplices": SQUARE_SIMPLICES,
                  "action": [[1, 2, 3, 0], [1, 0, 3, 2]]},
}

REPRESENTATIONS: dict[str, dict] = {
    # C2 on the plane by diag(1, -1)
    "c2_plane": {"group": "c2", "dim": 2,
                 "generators": [[["1", "0"], ["0", "-1"]]]},
    # standard 2-dimensional representation of S3, basis e0-e1, e1-e2
    "s3_standard": {"group": "s3", "dim": 2,
                    "generators": [[["-1", "1"], ["0", "1"]],
                                   [["0", "-1"], ["1", "-1"]]]},
}

STRATIFIED: dict[str, dict] = {
    # segment with a marked midpoint: {midpoint} < {the two open edges}
    "segment_midpoint": {
        "vertices": 3,
        "simplices": [[0], [1], [2], [0, 1], [1, 2]],
        "assignment": [1, 0, 1, 1, 1],
        "poset": [[0, 1]],
        "codim": {"0": 1, "1": 0},
    },
    # linear chain of heights: full simplex stratified by max vertex,
    # one component per height, category a linear poset
    "nchain4": {
        "vertices": 4,
        "simplices": [[0], [1], [2], [3],
                      [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
                      [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                      [0, 1, 2, 3]],
        "assignment": [0, 1, 2, 3, 1, 2, 3, 2, 3, 3, 2, 3, 3, 3, 3],
        "poset": [[0, 1], [1, 2], [2, 3]],
    },
}

GERMS: dict[str, dict] = {
    "a2": {"germ": "x^3", "weights": "1/3"},
    "e6": {"germ": "x^3 + y^4", "weights": "1/3,1/4"},
    "nonisolated": {"germ": "x^2*y"},
}

BERNOULLI_PS = (0.1, 0.3, 0.5, 0.7)


def _is_int(x) -> bool:
    return type(x) is int  # JSON true and false load as bool, not int


def _is_entry(x) -> bool:
    """An integer or a rational string such as "-1/2"."""
    from fractions import Fraction
    try:
        return _is_int(x) or isinstance(x, str) and Fraction(x) is not None
    except (ValueError, ZeroDivisionError):
        return False


def _is_codim(value) -> bool:
    """A list of integers, or an object from stratum to integer."""
    if isinstance(value, dict):
        return all(str(k).removeprefix("-").isdecimal() and _is_int(v)
                   for k, v in value.items())
    return _lists(value, 1)


def _lists(value, depth: int, leaf=_is_int) -> bool:
    """Whether ``value`` is lists nested ``depth`` deep around leaves."""
    if depth == 0:
        return leaf(value)
    return isinstance(value, list) and all(
        _lists(v, depth - 1, leaf) for v in value)


def _field(spec, key: str, depth: int, expected: str, leaf=_is_int,
           default=None):
    """``spec[key]`` as ``depth``-deep lists of ``leaf`` values; a key
    without a default is required."""
    if not isinstance(spec, dict):
        raise ValidationError("input: expected a JSON object at top level")
    if key not in spec and default is None:
        raise ValidationError(f"input is missing key {key!r}")
    value = spec.get(key, default)
    if not _lists(value, depth, leaf):
        raise ValidationError(f"{key}: expected {expected}")
    return value


def group_from_spec(spec) -> FiniteGroup:
    """A permutation group; a generator is an image list or cycle string."""
    from .permgroup import check_perm, closure, parse_cycles
    degree = _field(spec, "degree", 0, "an integer")
    gens = _field(spec, "generators", 1,
                  "a list of integer lists or cycle strings",
                  lambda g: isinstance(g, str) or _lists(g, 1), default=[])
    perms = []
    for i, g in enumerate(gens):
        try:
            perms.append(parse_cycles(g, degree) if isinstance(g, str)
                         else check_perm(g, degree))
        except ValidationError as exc:
            raise ValidationError(f"generator {i}: {exc}") from exc
    return closure(degree, perms)


def complex_from_spec(spec, group: FiniteGroup) -> GComplex:
    """A G-complex, with one vertex image list per generator of group."""
    from .gspace import GComplex
    return GComplex(group, _field(spec, "vertices", 0, "an integer"),
                    _field(spec, "simplices", 2, "a list of integer lists"),
                    _field(spec, "action", 2, "a list of integer lists",
                           default=[]))


def rep_from_spec(spec, group: FiniteGroup) -> LinearAction:
    """A linear action, with one matrix per generator of group."""
    from .linrep import LinearAction
    return LinearAction(group, _field(spec, "dim", 0, "an integer"),
                        _field(spec, "generators", 3, "a list of matrices "
                               "of integers or rational strings", _is_entry))


def strata_from_spec(spec) -> StratifiedComplex:
    """A stratified complex; ``codim`` is optional."""
    from .phase import StratifiedComplex
    vertices = _field(spec, "vertices", 0, "an integer")
    codim = _field(spec, "codim", 0, "an object or a list of integers",
                   _is_codim, default={})
    return StratifiedComplex(
        vertices, _field(spec, "simplices", 2, "a list of integer lists"),
        _field(spec, "assignment", 1, "a list of integers"),
        _field(spec, "poset", 1, "a list of integer pairs",
               lambda p: _lists(p, 1) and len(p) == 2),
        dict(enumerate(codim)) if isinstance(codim, list)
        else {int(k): v for k, v in codim.items()})


def load_group(name: str) -> FiniteGroup:
    return group_from_spec(GROUPS[name])


def load_complex(name: str, group: FiniteGroup | None = None) -> GComplex:
    spec = COMPLEXES[name]
    if group is None:
        group = load_group(spec["group"])
    return complex_from_spec(spec, group)


def load_representation(name: str,
                        group: FiniteGroup | None = None) -> LinearAction:
    spec = REPRESENTATIONS[name]
    if group is None:
        group = load_group(spec["group"])
    return rep_from_spec(spec, group)


def load_stratified(name: str) -> StratifiedComplex:
    return strata_from_spec(STRATIFIED[name])


def write_fixtures(directory: str) -> list[str]:
    """Materialize every bundled fixture as a JSON file; returns paths."""
    from .ologio import olog_json
    os.makedirs(directory, exist_ok=True)
    written = []

    def dump(name, payload):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(olog_json(payload))
        written.append(path)

    for name, spec in GROUPS.items():
        dump(f"group_{name}.json", spec)
    for prefix, specs in (("complex", COMPLEXES), ("rep", REPRESENTATIONS)):
        for name, spec in specs.items():
            payload = {k: v for k, v in spec.items() if k != "group"}
            payload["comment"] = f"use with group_{spec['group']}.json"
            dump(f"{prefix}_{name}.json", payload)
    for name, spec in STRATIFIED.items():
        dump(f"strata_{name}.json", spec)
    for name, spec in GERMS.items():
        dump(f"germ_{name}.json", spec)
    dump("bernoulli.json", {"p": list(BERNOULLI_PS)})
    return written
