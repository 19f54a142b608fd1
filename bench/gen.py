"""Seeded input generator for the phasecat benchmark.

Every input is returned as plain data (ints, strings, floats, lists and
dicts in the JSON schemas the CLI reads), so the library only ever sees
generated inputs and no library object is built during set-up.  The same
seed always gives the same inputs.

Desk-rung inputs are the bundled fixtures as README users run them and do
not depend on the seed.  Large-rung inputs are relabelled by seeded
permutations (group points, complex vertices, representation bases,
germ variables), which keeps every structural count fixed -- C2 x S4
keeps 98 subgroups, 33 classes and 907 orbit morphisms under any
relabelling -- so the per-pass cost does not depend on the seed.
"""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

from phasecat import fixtures

# Base generators as image arrays on points 0..degree-1.
D6 = {"degree": 6, "generators": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]}
S4 = {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
D4C2 = {"degree": 6, "generators": [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5],
                                    [0, 1, 2, 3, 5, 4]]}
C2S4 = {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                                    [0, 1, 2, 3, 5, 4]]}

# Boundary complexes whose vertex action is the groups' point action.
TETRAHEDRON = [list(t) for t in itertools.combinations(range(4), 3)]
OCTAHEDRON = [[a, (a + 1) % 4, pole] for a in range(4) for pole in (4, 5)]

# Brieskorn-Pham slots: the largest exponent is fixed per slot because it
# sets the truncation degree (and so the cost); the others are drawn.
BP_SLOTS = (
    (18, [(9, 13)]),
    (12, [(6, 11)]),
    (18, [(6, 12), (2, 2)]),
    (8, [(3, 6), (3, 6)]),
    (6, [(3, 6), (3, 6)]),
)
# Non-diagonal isolated germs with their quasihomogeneous weights; mu is
# the weight-product formula (45, 10, 28 also follow Thom-Sebastiani).
NONDIAGONAL = (
    ("x^3 + y^3 + z^3", ("1/3", "1/3", "1/3")),
    ("x^4 + y^4 + x^2*y^2 + z^6", ("1/4", "1/4", "1/6")),
    ("x^2*y + y^4 + z^3", ("3/8", "1/4", "1/3")),
    ("x^3 + x*y^3 + z^5", ("1/3", "2/9", "1/5")),
)


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _conjugate(images, relabel) -> list[int]:
    """relabel o images o relabel^-1 as an image array."""
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[relabel[i]] = relabel[img]
    return out


def relabel_group(spec: dict, rng: random.Random) -> dict:
    sigma = _perm(rng, spec["degree"])
    return {"degree": spec["degree"],
            "generators": [_conjugate(g, sigma) for g in spec["generators"]]}


def relabel_complex(group: dict, simplices, rng: random.Random) -> dict:
    """Complex on the group's base points with the point action, vertices
    relabelled by a seeded permutation and simplices shuffled."""
    n = group["degree"]
    tau = _perm(rng, n)
    out = [sorted(tau[v] for v in s) for s in simplices]
    rng.shuffle(out)
    return {"vertices": n, "simplices": out,
            "action": [_conjugate(g, tau) for g in group["generators"]]}


def subdivide(cx: dict) -> dict:
    """Barycentric subdivision as plain data: vertices are the faces of
    the complex, simplices the maximal flags, the action induced on faces."""
    faces = {frozenset(c) for s in cx["simplices"]
             for r in range(1, len(s) + 1)
             for c in itertools.combinations(s, r)}
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    where = {f: i for i, f in enumerate(faces)}
    flags = []
    for s in cx["simplices"]:
        for order in itertools.permutations(s):
            flags.append(sorted(where[frozenset(order[:k])]
                                for k in range(1, len(order) + 1)))
    action = [[where[frozenset(vmap[v] for v in f)] for f in faces]
              for vmap in cx["action"]]
    return {"vertices": len(faces), "simplices": flags, "action": action}


def permutation_rep(images_list, dim: int) -> dict:
    """Permutation matrices e_i -> e_p(i), entries as strings."""
    gens = []
    for p in images_list:
        m = [["0"] * dim for _ in range(dim)]
        for i, img in enumerate(p):
            m[img][i] = "1"
        gens.append(m)
    return {"dim": dim, "generators": gens}


def pair_action(group: dict, rng: random.Random) -> list[list[int]]:
    """Action of a group on the 2-subsets of its points, in seeded order."""
    pairs = [frozenset(c) for c in
             itertools.combinations(range(group["degree"]), 2)]
    rng.shuffle(pairs)
    where = {p: i for i, p in enumerate(pairs)}
    return [[where[frozenset(g[v] for v in p)] for p in pairs]
            for g in group["generators"]]


def _unit(rng: random.Random) -> Fraction:
    """A nonzero rational coefficient from a fixed range."""
    return rng.choice((-1, 1)) * Fraction(rng.randint(1, 9),
                                          rng.randint(1, 9))


def _coeff_text(c: Fraction) -> str:
    return str(abs(c)) if c.denominator == 1 else \
        f"{abs(c.numerator)}/{c.denominator}"


def brieskorn_pham(rng: random.Random) -> list[dict]:
    """One seeded germ a_1 x^e_1 + ... per slot, with mu = prod(e_i - 1)."""
    out = []
    for top, ranges in BP_SLOTS:
        exps = [top] + [rng.randint(lo, hi) for lo, hi in ranges]
        rng.shuffle(exps)
        text = ""
        for var, e in zip("xyz", exps):
            c = _unit(rng)
            sign = "-" if c < 0 else ("+" if text else "")
            text += f" {sign} {_coeff_text(c)}*{var}^{e}".rstrip()
        mu = 1
        for e in exps:
            mu *= e - 1
        out.append({"germ": text.strip(), "exponents": exps, "mu": mu})
    return out


def finite_distribution(rng: random.Random, lo: float = -2.0,
                        hi: float = 3.0) -> list[list[float]]:
    """3 to 5 distinct values on a quarter grid, integer-weighted."""
    k = rng.randint(3, 5)
    grid = [lo + 0.25 * i for i in range(int((hi - lo) / 0.25) + 1)]
    values = sorted(rng.sample(grid, k))
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    return [[v, w / total] for v, w in zip(values, weights)]


def lattice(seed: int) -> dict:
    rng = random.Random(f"lattice:{seed}")
    desk = [(name, copy.deepcopy(spec))
            for name, spec in fixtures.GROUPS.items()]
    desk.append(("d6", copy.deepcopy(D6)))
    large = [("d4c2", relabel_group(D4C2, rng)),
             ("c2s4", relabel_group(C2S4, rng))]
    return {"desk": desk, "large": large}


def phase(seed: int) -> dict:
    rng = random.Random(f"phase:{seed}")
    desk = []
    for name, spec in fixtures.COMPLEXES.items():
        group = copy.deepcopy(fixtures.GROUPS[spec["group"]])
        cx = {k: copy.deepcopy(v) for k, v in spec.items() if k != "group"}
        desk.append((name, group, cx))
    strata = [(name, copy.deepcopy(spec))
              for name, spec in fixtures.STRATIFIED.items()]
    large = []
    for name, base, simplices in (("s4_tetra", S4, TETRAHEDRON),
                                  ("d4c2_octa", D4C2, OCTAHEDRON)):
        group = relabel_group(base, rng)
        large.append((name, group, relabel_complex(base, simplices, rng)))
    return {"desk": desk, "strata": strata, "large": large,
            "subdivisions": 3, "sample_seed": rng.randrange(2 ** 32)}


def exact(seed: int) -> dict:
    rng = random.Random(f"exact:{seed}")
    s4 = relabel_group(S4, rng)
    d4c2 = relabel_group(D4C2, rng)
    reps = [("s4_q4", "s4", permutation_rep(s4["generators"], 4)),
            ("s4_pairs_q6", "s4", permutation_rep(pair_action(s4, rng), 6)),
            ("d4c2_q6", "d4c2", permutation_rep(d4c2["generators"], 6))]
    base = finite_distribution(rng)
    a, b = rng.choice((0.5, 0.75, 1.5, 2.0)), rng.choice((-1.0, 0.5, 1.0))
    affine = [[a * v + b, p] for v, p in base]
    return {"germs": brieskorn_pham(rng),
            "nondiagonal": [list(g) for g in NONDIAGONAL],
            "groups": {"s4": s4, "d4c2": d4c2},
            "reps": reps,
            "bernoulli_ps": list(fixtures.BERNOULLI_PS),
            "affine": {"base": base, "image": affine, "a": a, "b": b}}


def cli(seed: int) -> dict:
    """Generated input files (name -> JSON payload) for the large cli
    rung, plus the germ and Bernoulli parameter given on the command line."""
    rng = random.Random(f"cli:{seed}")
    d4c2 = relabel_group(D4C2, rng)
    s4 = relabel_group(S4, rng)
    tetra = subdivide(subdivide(relabel_complex(S4, TETRAHEDRON, rng)))
    germ = brieskorn_pham(rng)[3]
    p = rng.choice((0.15, 0.2, 0.35, 0.4, 0.6, 0.65, 0.8))
    files = {"group_d4c2.json": d4c2, "group_s4.json": s4,
             "complex_tetra_sd2.json": tetra,
             "rep_s4_q4.json": permutation_rep(s4["generators"], 4)}
    return {"files": files, "germ": germ, "bernoulli": p}


GENERATORS = {"lattice": lattice, "phase": phase, "exact": exact, "cli": cli}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
