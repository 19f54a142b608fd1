"""The four benchmark workloads: one timed pass each, oracle-checked.

A pass runs every rung of its workload from generated inputs to checked
results and exports: ``run_pass`` runs the desk rung, the
bundled-fixture-scale inputs README users run (``DESKS``), then the large
rung (``LARGES``).  Library calls go through
``bind(rec)``: untraced, its entries are the library functions themselves;
traced, each is wrapped in a span named after the per-layer metric it
feeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
from fractions import Fraction
from types import SimpleNamespace

from phasecat import (category, cli, germs, gspace, largedev, linrep, ologio,
                      orbitcat, permgroup, phase, ratmat, singularity)

# (subgroups, subgroup classes, orbit-category morphisms); the desk values
# are cross-checked against brute force by selftest.py.
KNOWN_LATTICE = {
    "trivial": (1, 1, 1), "c2": (2, 2, 4), "c4": (3, 3, 11),
    "s3": (6, 4, 18), "d4": (10, 8, 58), "a4": (10, 5, 39),
    "s4": (30, 11, 146), "d6": (16, 10, 91),
    "d4c2": (35, 27, 431), "c2s4": (98, 33, 907),
}
# (phase objects, phase morphisms); subdivision and relabelling keep both.
KNOWN_PHASE = {
    "point_trivial": (1, 1), "point_s3": (4, 18),
    "square_reflection": (3, 6), "square_halfturn": (1, 2),
    "square_d4": (3, 20), "s4_tetra": (10, 130), "d4c2_octa": (22, 312),
}
KNOWN_STRATA = {"segment_midpoint": (2, 3), "nchain4": (4, 10)}
# Olog fields that only a phase diagram export carries.
PHASE_KEYS = ("subgroupClass", "componentId")
SPOT_CHECKS = 64
RATE_TOL = 1e-9


def write_olog(cat, phase_cat=None) -> str:
    return ologio.olog_json(ologio.export_olog(cat, phase_cat))


def read_olog(text: str):
    return ologio.import_olog(json.loads(text))


def bind(rec) -> SimpleNamespace:
    """Library entry points of a pass, wrapped in spans when tracing."""
    w = rec.wrap
    return SimpleNamespace(
        closure=w("permgroup.closure_s", permgroup.closure),
        all_subgroups=w("permgroup.all_subgroups_s", permgroup.all_subgroups),
        classes=w("permgroup.classes_s",
                  permgroup.conjugacy_classes_of_subgroups),
        normalizer=w("permgroup.weyl_s", permgroup.normalizer),
        weyl_group=w("permgroup.weyl_s", permgroup.weyl_group),
        orbit_category=w("orbitcat.build_s", orbitcat.build_orbit_category),
        gcomplex=w("gspace.gcomplex_s", gspace.GComplex),
        subdivide=w("gspace.subdivide_s", gspace.subdivide),
        presheaf=w("gspace.presheaf_s", gspace.pi0_fix_presheaf),
        phase_category=w("phase.build_s", phase.PhaseCategory),
        quotient_functor=w("phase.quotient_functor_s",
                           phase.quotient_functor),
        forgetful=w("phase.forgetful_s", phase.forgetful_functor),
        stratified=w("phase.strata_s", phase.StratifiedComplex),
        strata_category=w("phase.strata_s", phase.strata_category),
        linear_action=w("linrep.action_s", linrep.LinearAction),
        quiver=w("linrep.quiver_s", linrep.degeneracy_quiver),
        isotypic=w("linrep.isotypic_s", linrep.isotypic_decomposition),
        parse_germ=w("germs.parse_s", germs.parse_germ),
        milnor=w("singularity.milnor_s", singularity.milnor_number),
        qh_germ=w("singularity.spectrum_s",
                  singularity.QuasihomogeneousGerm),
        spectrum=w("singularity.spectrum_s", singularity.spectrum_grading),
        corpus=w("singularity.cokernel_s", singularity.corpus_adjacency),
        cokernel=w("singularity.cokernel_s", singularity.relative_cokernel),
        write_olog=w("ologio.export_s", write_olog),
        export_dot=w("ologio.dot_s", ologio.export_dot),
        read_olog=w("ologio.import_s", read_olog),
    )


def patch_nested(rec):
    """Traced run only: wrap the library attributes that other library
    functions call, so their time lands in their own module's span."""
    rec.patch(permgroup, "subgroup_closure",
              "permgroup.subgroup_closure_calls", count_only=True)
    rec.patch(category.FiniteCategory, "check_category_laws",
              "category.check_laws_s")
    rec.patch(orbitcat, "transporter", "permgroup.transporter_s")
    rec.patch(linrep, "transporter", "permgroup.transporter_s")
    rec.patch(phase, "isotropy", "gspace.isotropy_s")
    rec.patch(singularity, "parse_germ", "germs.parse_s")
    proxy = SimpleNamespace(**{
        name: rec.wrap("ratmat.s", rec.counted("ratmat.calls", fn))
        for name, fn in vars(ratmat).items()
        if callable(fn) and not name.startswith("_")
        and getattr(fn, "__module__", None) == ratmat.__name__})
    rec.replace(linrep, "ratmat", proxy)


class Checker:
    """Counts oracle-checked operations and their failures."""

    def __init__(self, expected_digests: dict[str, str]):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.expected = expected_digests
        self.seen: dict[str, str] = {}

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    def error(self, what: str, exc: BaseException):
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")

    def digest(self, key: str, text: str):
        """The export must match the stored digest, where one is stored,
        and must not change between passes."""
        got = hashlib.sha256(text.encode()).hexdigest()
        want = self.expected.get(key) or self.seen.setdefault(key, got)
        self.check(got == want, f"{key}: export digest changed")


def _each(ck: Checker, label: str, items, fn):
    """Run ``fn`` on every item; an exception fails that item only."""
    for item in items:
        try:
            fn(*item)
        except Exception as exc:  # counted as a failed operation
            ck.error(f"{label} {item[0]}", exc)


def composable_triples(cat) -> int:
    """Number of composable triples, from the hom-set sizes."""
    n = len(cat.objects)
    h = [[len(cat.hom(a, b)) for b in range(n)] for a in range(n)]
    into = [sum(h[a][b] for a in range(n)) for b in range(n)]
    out = [sum(h[c][d] for d in range(n)) for c in range(n)]
    return sum(into[b] * h[b][c] * out[c] for b in range(n) for c in range(n))


def check_laws(ctx, cat):
    cat.check_category_laws()
    ctx.rec.add("category.triples", composable_triples(cat))


def export_and_import(ctx, key: str, cat, phase_cat=None):
    """olog + DOT export with digests, then the import round trip, which
    must re-export the same bytes (minus the phase-only object fields)."""
    lib, ck = ctx.lib, ctx.ck
    text = lib.write_olog(cat, phase_cat)
    dot = lib.export_dot(cat, phase_cat)
    ctx.rec.add("ologio.bytes", len(text) + len(dot))
    ck.digest(f"{key}/olog", text)
    ck.digest(f"{key}/dot", dot)
    back = lib.read_olog(text)
    ctx.rec.add("category.triples", composable_triples(back))
    if phase_cat is not None:
        data = json.loads(text)
        for obj in data["objects"]:
            for k in PHASE_KEYS:
                del obj[k]
        text = ologio.olog_json(data)
    ck.check(lib.write_olog(back) == text, f"{key}: olog round trip")


def group_lattice(ctx, G, name: str):
    lib, ck, rec = ctx.lib, ctx.ck, ctx.rec
    subs = lib.all_subgroups(G)
    classes = lib.classes(G, subs)
    rec.add("permgroup.subgroups", len(subs))
    rec.add("permgroup.classes", len(classes))
    if name in KNOWN_LATTICE:
        want = KNOWN_LATTICE[name][:2]
        ck.check((len(subs), len(classes)) == want,
                 f"{name}: subgroups/classes {len(subs)}/{len(classes)}, "
                 f"want {want}")
    return classes


def orbit_category(ctx, G, classes):
    oc = ctx.lib.orbit_category(G, classes)
    ctx.rec.add("orbitcat.morphisms", len(oc.category.morphisms))
    ctx.rec.add("orbitcat.compose_entries", len(oc.category.compose_table))
    return oc


# -- lattice ---------------------------------------------------------------

def lattice_group(ctx, name: str, spec: dict):
    lib, ck, rec = ctx.lib, ctx.ck, ctx.rec
    G = lib.closure(spec["degree"], spec["generators"])
    classes = group_lattice(ctx, G, name)
    weyl_orders = []
    for c in classes:
        H = c.representative
        N = lib.normalizer(G, H)
        W = lib.weyl_group(G, H)
        weyl_orders.append(W.order)
        ck.check(H.member_set <= N.member_set
                 and W.order * H.order == N.order,
                 f"{name}: |W(H)| != |N(H)|/|H| for class {c.class_index}")
    oc = orbit_category(ctx, G, classes)
    cat = oc.category
    ck.check(len(cat.morphisms) == KNOWN_LATTICE[name][2],
             f"{name}: {len(cat.morphisms)} orbit morphisms")
    ck.check([cat.aut_order(i) for i in range(len(classes))] == weyl_orders,
             f"{name}: aut orders differ from Weyl group orders")
    check_laws(ctx, cat)
    export_and_import(ctx, f"lattice/{name}", cat)


def lattice_desk(ctx):
    _each(ctx.ck, "lattice", ctx.inputs["desk"],
          lambda n, s: lattice_group(ctx, n, s))


def lattice_large(ctx):
    _each(ctx.ck, "lattice", ctx.inputs["large"],
          lambda n, s: lattice_group(ctx, n, s))


# -- phase -----------------------------------------------------------------

def functor_spot_checks(ctx, name, G, X, ph, q, images, F):
    ck = ctx.ck
    rng = random.Random(f"{ctx.inputs['sample_seed']}:{name}")
    nv, cat = X.vertex_count, ph.category
    e = G.identity_index
    ok = all(images[e * nv + v] == cat.identity[q.vertex_object[v]]
             for v in range(nv))
    for _ in range(SPOT_CHECKS):
        g, h, v = (rng.randrange(G.order), rng.randrange(G.order),
                   rng.randrange(nv))
        hv = X.element_maps[h][v]
        ok = ok and images[G.mul(g, h) * nv + v] == cat.compose(
            images[g * nv + hv], images[h * nv + v])
    ck.check(ok, f"{name}: quotient functor not functorial")
    orbit = ph.orbit.category
    ok = all(F.object_map[i] == ph.objects[i].subgroup_class
             for i in range(len(ph.objects)))
    pairs = list(cat.compose_table.items())
    for (m2, m1), r in rng.sample(pairs, min(SPOT_CHECKS, len(pairs))):
        fm = F.morphism_map
        ok = ok and fm[r] == orbit.compose(fm[m2], fm[m1]) and \
            orbit.morphisms[fm[m1]].src == F.object_map[cat.morphisms[m1].src]
    ck.check(ok, f"{name}: forgetful functor not functorial")


def phase_complex(ctx, name: str, group: dict, cx: dict, subdivisions: int):
    lib, ck, rec = ctx.lib, ctx.ck, ctx.rec
    G = lib.closure(group["degree"], group["generators"])
    classes = group_lattice(ctx, G, name)
    oc = orbit_category(ctx, G, classes)
    X = lib.gcomplex(G, cx["vertices"], cx["simplices"], cx["action"])
    for _ in range(subdivisions):
        X = lib.subdivide(X)
    ps = lib.presheaf(X, oc.classes)
    ph = lib.phase_category(oc, ps)
    cat = ph.category
    rec.add("gspace.simplices", len(X.simplices))
    rec.add("gspace.components", sum(len(c) for c in ps.comps))
    rec.add("phase.morphisms", len(cat.morphisms))
    rec.add("phase.compose_entries", len(cat.compose_table))
    ck.check(len(ph.objects) == sum(len(c) for c in ps.comps),
             f"{name}: objects != sum of components")
    ck.check((len(ph.objects), len(cat.morphisms)) == KNOWN_PHASE[name],
             f"{name}: {len(ph.objects)} objects, "
             f"{len(cat.morphisms)} morphisms")
    check_laws(ctx, cat)
    q = lib.quotient_functor(ph)
    with rec.span("phase.arrow_image_s"):
        images = [q.arrow_image(g, v) for g in range(G.order)
                  for v in range(X.vertex_count)]
    rec.add("phase.arrow_image_calls", len(images))
    F = lib.forgetful(ph)
    functor_spot_checks(ctx, name, G, X, ph, q, images, F)
    with rec.span("gspace.isotropy_s"):
        stab = [(gspace.isotropy(X, v), gspace.orbit_of(X, v))
                for v in range(X.vertex_count)]
    ck.check(all(iso.order * len(orb) == G.order for iso, orb in stab),
             f"{name}: orbit-stabilizer fails")
    export_and_import(ctx, f"phase/{name}", cat, ph)


def strata_input(ctx, name: str, spec: dict):
    lib, ck = ctx.lib, ctx.ck
    codim = {int(k): v for k, v in spec.get("codim", {}).items()} or None
    S = lib.stratified(spec["vertices"], spec["simplices"],
                       spec["assignment"], spec["poset"], codim)
    cat = lib.strata_category(S)
    n = len(cat.objects)
    ck.check((n, len(cat.morphisms)) == KNOWN_STRATA[name],
             f"{name}: strata category size")
    ck.check(all(len(cat.hom(a, b)) + len(cat.hom(b, a)) <= (2 if a == b
                                                              else 1)
                 for a in range(n) for b in range(n)),
             f"{name}: strata category is not a poset")
    check_laws(ctx, cat)
    export_and_import(ctx, f"strata/{name}", cat)


def phase_desk(ctx):
    _each(ctx.ck, "phase", ctx.inputs["desk"],
          lambda n, g, cx: phase_complex(ctx, n, g, cx, 0))
    _each(ctx.ck, "strata", ctx.inputs["strata"],
          lambda n, s: strata_input(ctx, n, s))


def phase_large(ctx):
    k = ctx.inputs["subdivisions"]
    _each(ctx.ck, "phase", ctx.inputs["large"],
          lambda n, g, cx: phase_complex(ctx, n, g, cx, k))


# -- exact -----------------------------------------------------------------

def spectrum_top(weights) -> Fraction:
    return sum(1 - 2 * Fraction(w) for w in weights)


def corpus_rung(ctx):
    lib, ck, rec = ctx.lib, ctx.ck, ctx.rec
    corpus = lib.corpus()
    mus = {}

    def entry(name, e):
        f = lib.parse_germ(e.normal_form)
        mu = lib.milnor(f)
        rec.add("singularity.mu_sum", mu)
        mus[name] = mu
        ck.check(mu == e.mu == singularity.weight_milnor(e.weights),
                 f"{name}: mu {mu}, corpus {e.mu}")
        spec = lib.spectrum(lib.qh_germ(f, e.weights))
        top = spectrum_top(e.weights)
        ck.check(len(spec) == mu and spec[-1] == top
                 and spec == sorted(top - s for s in spec),
                 f"{name}: spectrum not symmetric with top {top}")

    _each(ck, "corpus", list(corpus.entries.items()), entry)

    def arrow(src, dst):
        rc = lib.cokernel(corpus, src, dst)
        ok = rc.dimension == mus[src] - mus[dst]
        if rc.dimension == 1:
            ok = ok and rc.top_weight == spectrum_top(
                corpus.entries[src].weights)
        ck.check(ok, f"cokernel {src}->{dst}")

    _each(ck, "cokernel", corpus.arrows, arrow)


def germ_mu(ctx, text: str, weights):
    f = ctx.lib.parse_germ(text)
    mu = ctx.lib.milnor(f)
    ctx.rec.add("singularity.mu_sum", mu)
    want = singularity.weight_milnor(weights)
    ctx.ck.check(mu == want, f"{text}: mu {mu}, weight formula {want}")


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def is_cyclic(G, H) -> bool:
    for h in H.members:
        power, k = h, 1
        while power != G.identity_index:
            power, k = G.mul(h, power), k + 1
        if k == H.order:
            return True
    return False


def quiver_rep(ctx, name: str, G, classes, rep: dict):
    lib, ck, rec = ctx.lib, ctx.ck, ctx.rec
    A = lib.linear_action(G, rep["dim"], rep["generators"])
    Q = lib.quiver(A, classes)
    rec.add("linrep.arrows", len(Q.arrows))
    ck.check(len(Q.nodes) == len(classes)
             and all(Q.nodes[a.source].fix_dimension
                     == Q.nodes[a.target].fix_dimension + a.normal.dimension
                     for a in Q.arrows),
             f"{name}: quiver dimension bookkeeping")
    for i, c in enumerate(classes):
        if not is_cyclic(G, c.representative):
            continue
        pieces = lib.isotypic(A, c.representative)
        ck.check(sum(len(b) for b in pieces.values()) == rep["dim"]
                 and all(len(b) % totient(d) == 0 for d, b in pieces.items())
                 and len(pieces.get(1, ())) == Q.nodes[i].fix_dimension,
                 f"{name}: isotypic pieces of class {i}")


def rates(ctx, outcomes, grid):
    obs = largedev.DiscreteObservable(tuple(map(tuple, outcomes)))
    with ctx.rec.span("largedev.legendre_s"):
        conj = [largedev.legendre(obs, x) for x in grid]
        cram = [largedev.cramer(obs, x) for x in grid]
    ctx.rec.add("largedev.points", 2 * len(grid))
    ctx.ck.check(cram == [-r for r in conj], "cramer != -legendre")
    return conj


def interior_grid(lo: float, hi: float, n: int = 99) -> list[float]:
    return [lo + (hi - lo) * k / (n + 1) for k in range(1, n + 1)]


def bernoulli_rate(p: float, x: float) -> float:
    return x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))


def rate_rung(ctx):
    ck = ctx.ck
    grid = interior_grid(0.0, 1.0)
    for p in ctx.inputs["bernoulli_ps"]:
        got = rates(ctx, [[0.0, 1.0 - p], [1.0, p]], grid)
        ck.check(all(abs(r - bernoulli_rate(p, x)) <= RATE_TOL
                     for r, x in zip(got, grid)),
                 f"Bernoulli({p}) rate differs from the closed form")
    aff = ctx.inputs["affine"]
    values = [v for v, _ in aff["base"]]
    base_grid = interior_grid(min(values), max(values))
    base = rates(ctx, aff["base"], base_grid)
    image = rates(ctx, aff["image"],
                  [aff["a"] * x + aff["b"] for x in base_grid])
    ck.check(all(abs(r - s) <= RATE_TOL for r, s in zip(base, image)),
             "rate function not invariant under an affine change")


def exact_desk(ctx):
    corpus_rung(ctx)


def exact_large(ctx):
    lib, ck, inputs = ctx.lib, ctx.ck, ctx.inputs
    _each(ck, "germ", [(g["germ"], g["exponents"]) for g in inputs["germs"]],
          lambda t, e: germ_mu(ctx, t, [Fraction(1, k) for k in e]))
    _each(ck, "germ", inputs["nondiagonal"], lambda t, w: germ_mu(ctx, t, w))
    lattices = {}

    def rep(name, group_name, spec):
        if group_name not in lattices:
            g = inputs["groups"][group_name]
            G = lib.closure(g["degree"], g["generators"])
            lattices[group_name] = (G, group_lattice(ctx, G, group_name))
        quiver_rep(ctx, name, *lattices[group_name], spec)

    _each(ck, "quiver", inputs["reps"], rep)
    try:
        rate_rung(ctx)
    except Exception as exc:
        ck.error("legendre", exc)


# -- cli -------------------------------------------------------------------

def cli_calls(inputs: dict, fx: str, data: str, out: str):
    """{label: (subcommand, argv, output file or None)} for the desk and
    large rungs; ``fx`` holds the bundled fixtures, ``data`` the generated
    files, ``out`` receives -o outputs."""
    desk = {
        "seed-fixtures": ("seed-fixtures",
                          ["--seed-fixtures", os.path.join(out, "fx")], None),
        "group": ("group", ["group", "info", "-i", f"{fx}/group_s3.json"],
                  None),
        "orbitcat": ("orbitcat", ["orbitcat", "-i", f"{fx}/group_s3.json",
                                  "--format", "dot"], None),
        "phase": ("phase", ["phase", "-g", f"{fx}/group_c2.json", "-x",
                            f"{fx}/complex_square_reflection.json"], None),
        "strata": ("strata", ["strata", "-i",
                              f"{fx}/strata_segment_midpoint.json"], None),
        "quiver": ("quiver", ["quiver", "-g", f"{fx}/group_c2.json",
                              "-r", f"{fx}/rep_c2_plane.json"], None),
        "mu": ("sing", ["sing", "mu", "--germ", "x^3 + y^4"], None),
        "spectrum": ("sing", ["sing", "spectrum", "--germ", "x^3 + y^4",
                              "--weights", "1/3,1/4"], None),
        "ldp": ("ldp", ["ldp", "--bernoulli", "0.3", "--grid",
                        "0.1:0.9:0.1"], None),
    }
    large = {
        "orbitcat": ("orbitcat", ["orbitcat", "-i",
                                  f"{data}/group_d4c2.json"], None),
        "phase": ("phase", ["phase", "-g", f"{data}/group_s4.json",
                            "-x", f"{data}/complex_tetra_sd2.json",
                            "-o", f"{out}/phase.dot"], f"{out}/phase.dot"),
        "quiver": ("quiver", ["quiver", "-g", f"{data}/group_s4.json",
                              "-r", f"{data}/rep_s4_q4.json",
                              "-o", f"{out}/quiver.json"],
                   f"{out}/quiver.json"),
        "mu": ("sing", ["sing", "mu", "--germ", inputs["germ"]["germ"]],
               None),
        "ldp": ("ldp", ["ldp", "--bernoulli", str(inputs["bernoulli"]),
                        "--grid", "0.01:0.99:0.01", "-o", f"{out}/ldp.tsv"],
                f"{out}/ldp.tsv"),
    }
    return desk, large


def run_child(argv: list[str], env: dict, stdout_path: str,
              timeout: float | None = None):
    """Run a child process with stdout in a file; returns (exit code,
    stdout, stderr, peak RSS in KiB or 0 under a time limit)."""
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        if timeout is None:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss
        else:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            rss = 0
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, rss


def in_process(argv: list[str]) -> tuple[int, bytes]:
    """phasecat's CLI run in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def cli_reference(ctx, calls: dict) -> dict:
    """Expected output of every call, from the CLI run in-process."""
    refs = {}
    for label, (sub, argv, path) in calls.items():
        if sub == "seed-fixtures":
            continue
        code, text = in_process(argv)
        if path is not None:
            with open(path, "rb") as fh:
                text = fh.read()
            os.unlink(path)
        ctx.ck.check(code == 0, f"in-process {' '.join(argv)} exit {code}")
        refs[label] = text
    return refs


def check_cli_reference(ctx, desk: dict, large: dict):
    """Oracle checks on the values the reference outputs state."""
    ck, inputs = ctx.ck, ctx.inputs

    def lines(ref):
        return ref.decode().splitlines()

    ck.check(lines(desk["group"]) == ["degree: 3", "order: 6", "subgroups: 6",
                                      "subgroup conjugacy classes: 4"],
             "group info s3")
    ck.check(lines(desk["mu"]) == ["6"], "sing mu x^3 + y^4")
    ck.check(lines(large["mu"]) == [str(inputs["germ"]["mu"])],
             "sing mu of the seeded germ")
    spec = [Fraction(s) for s in lines(desk["spectrum"])[0].split(", ")]
    ck.check(len(spec) == 6 and spec == sorted(
        spectrum_top(("1/3", "1/4")) - s for s in spec),
        "sing spectrum x^3 + y^4")
    for p, ref, n in ((0.3, desk["ldp"], 9),
                      (inputs["bernoulli"], large["ldp"], 99)):
        rows = [r.split("\t") for r in lines(ref)[1:]]
        ck.check(len(rows) == n and all(
            abs(float(r[1]) - bernoulli_rate(p, float(r[0]))) <= RATE_TOL
            for r in rows), f"ldp Bernoulli({p}) table")
    for ref in (desk["quiver"], large["quiver"]):
        q = json.loads(ref)
        fix = [n["fixDimension"] for n in q["nodes"]]
        ck.check(all(fix[a["source"]] == fix[a["target"]]
                     + a["normalDimension"] for a in q["arrows"]),
                 "quiver dimension bookkeeping")
    orbit = json.loads(large["orbitcat"])
    ck.check((len(orbit["objects"]), len(orbit["arrows"])) == (27, 431 - 27),
             "orbitcat D4xC2 size")


def cli_rung(ctx, calls: dict, refs: dict):
    ck, rec = ctx.ck, ctx.rec
    for label, (sub, argv, path) in calls.items():
        with rec.span(f"cli.call_s.{sub}"):
            code, out, err, rss = run_child(
                ctx.phasecat + argv, ctx.env, ctx.stdout_path)
        ctx.child_rss = max(ctx.child_rss, rss)
        if path is not None and code == 0:
            with open(path, "rb") as fh:
                out = fh.read()
        if sub == "seed-fixtures":
            ok = code == 0 and same_tree(ctx.fixtures_dir, argv[1])
        else:
            ok = code == 0 and out == refs[label]
        ck.check(ok, f"cli {' '.join(argv)}: exit {code} "
                     f"{err.decode(errors='replace')[-200:]}")


def cli_desk(ctx):
    cli_rung(ctx, ctx.desk_calls, ctx.desk_refs)


def cli_large(ctx):
    cli_rung(ctx, ctx.large_calls, ctx.large_refs)


def same_tree(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for n in names:
        with open(os.path.join(a, n), "rb") as fa, \
                open(os.path.join(b, n), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


LARGES = {"lattice": lattice_large, "phase": phase_large, "exact": exact_large,
          "cli": cli_large}
DESKS = {"lattice": lattice_desk, "phase": phase_desk, "exact": exact_desk,
         "cli": cli_desk}


def run_pass(ctx):
    DESKS[ctx.workload](ctx)
    LARGES[ctx.workload](ctx)
