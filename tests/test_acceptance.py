"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line on success so a -s
run reads as a checklist.
"""

import json
import math
from fractions import Fraction

import pytest

import oracles
from phasecat import (GComplex, NonIsolated, bernoulli, build_orbit_category,
                      build_phase_diagram, category_isomorphic, cgf,
                      corpus_adjacency, degeneracy_quiver, euler_apply,
                      export_dot, export_olog, forgetful_functor,
                      import_olog, legendre, milnor_number, olog_json,
                      quotient_functor, spectrum_grading, stabilize,
                      weight_milnor)
from phasecat import fixtures as fx
from phasecat.linrep import averaging_projector
from phasecat.permgroup import all_subgroups

F = Fraction
GROUP_NAMES = ["trivial", "c2", "c4", "s3", "d4", "a4", "s4"]
COMPLEX_NAMES = ["point_trivial", "point_s3", "square_reflection",
                 "square_halfturn", "square_d4"]
REP_NAMES = ["c2_plane", "s3_standard"]


def _ok(label):
    print(f"PASS {label}")


def _complexes(groups):
    out = {}
    for name in COMPLEX_NAMES:
        gname = fx.COMPLEXES[name]["group"]
        out[name] = (groups[gname], fx.load_complex(name, groups[gname]))
    return out


def test_criterion_1_orbit_category_oracle(groups):
    for name in GROUP_NAMES:
        G = groups[name]
        oc = build_orbit_category(G)
        for c0 in oc.classes:
            for c1 in oc.classes:
                expected = oracles.bf_equivariant_map_count(
                    G.elements,
                    [G.elements[i] for i in c0.representative.members],
                    [G.elements[i] for i in c1.representative.members])
                assert len(oc.hom_set(c0.class_index,
                                      c1.class_index)) == expected
    _ok("criterion 1: orbit-category hom sets match the brute-force "
        "equivariant-map counts for all 7 groups")


def test_criterion_2_point_phase_is_orbit_category(groups):
    for name in GROUP_NAMES:
        G = groups[name]
        X = GComplex(G, 1, [[0]], [[0]] * len(G.generators))
        orbit = build_orbit_category(G)
        phase = build_phase_diagram(G, X, orbit)
        assert category_isomorphic(phase.category,
                                   orbit.category) is not None
    _ok("criterion 2: the phase diagram of a point recovers the orbit "
        "category for all 7 groups")


def test_criterion_3_grothendieck_cardinality(groups):
    for name, (G, X) in _complexes(groups).items():
        phase = build_phase_diagram(G, X)
        assert len(phase.objects) \
            == sum(len(c) for c in phase.presheaf.comps)
        if name == "square_reflection":
            assert len(phase.objects) == 3
            assert sorted(phase.aut_orders, reverse=True) == [2, 1, 1]
    _ok("criterion 3: object counts equal the summed component counts on "
        "all bundled complexes; square fixture has 3 objects with Aut "
        "orders (2,1,1)")


def test_criterion_4_functoriality(groups):
    for name, (G, X) in _complexes(groups).items():
        phase = build_phase_diagram(G, X)
        cat = phase.category
        qf = quotient_functor(phase)
        for v in range(X.vertex_count):
            assert qf.arrow_image(G.identity_index, v) \
                == cat.identity[qf.vertex_object[v]]
            for g1 in range(G.order):
                w = X.element_maps[g1][v]
                for g2 in range(G.order):
                    assert qf.arrow_image(G.mul(g2, g1), v) \
                        == cat.compose(qf.arrow_image(g2, w),
                                       qf.arrow_image(g1, v))
        ff = forgetful_functor(phase)
        base = phase.orbit.category
        for o in range(len(cat.objects)):
            assert ff.morphism_map[cat.identity[o]] \
                == base.identity[ff.object_map[o]]
        for (m2, m1), r in cat.compose_table.items():
            assert base.compose_table[(ff.morphism_map[m2],
                                       ff.morphism_map[m1])] \
                == ff.morphism_map[r]
    _ok("criterion 4: quotient and forgetful functors preserve identities "
        "and all compositions on every fixture")


def test_criterion_5_linear_rep_exactness():
    for name in REP_NAMES:
        action = fx.load_representation(name)
        for H in all_subgroups(action.group):
            P = averaging_projector(action, H)
            assert oracles.bf_mat_mul(P, P) == P
            for h in H.members:
                assert oracles.bf_mat_mul(action.matrix(h), P) == P
        quiver = degeneracy_quiver(action)
        for a in quiver.arrows:
            K = quiver.nodes[a.target].subgroup_class.representative \
                .conjugate(action.group.inv(a.witness))
            from phasecat.linrep import fix_subspace
            assert quiver.nodes[a.source].fix_dimension \
                == len(fix_subspace(action, K)) + a.normal.dimension
    _ok("criterion 5: averaging projectors are exactly idempotent and "
        "equivariant; quiver dimensions are additive on every arrow")


def test_criterion_6_singularity_numbers():
    from phasecat import parse_germ
    corpus = corpus_adjacency()
    for entry in corpus.entries.values():
        mu = milnor_number(entry.germ)
        assert mu == entry.mu
        assert mu == weight_milnor(entry.weights)
        assert milnor_number(stabilize(entry.germ)) == mu
        q = entry.quasihomogeneous
        assert euler_apply(q) == dict(entry.germ.terms)
    for src, dst in corpus.arrows:
        assert corpus.entries[src].mu - corpus.entries[dst].mu == 1
    with pytest.raises(NonIsolated):
        milnor_number(parse_germ("x^2*y"))
    e6 = corpus.entries["E6"].quasihomogeneous
    assert spectrum_grading(e6) == [F(0), F(1, 4), F(1, 3), F(1, 2),
                                    F(7, 12), F(5, 6)]
    _ok("criterion 6: Milnor numbers, the weight-formula oracle, "
        "stabilization, unit arrow drops, the Euler identity and the E6 "
        "spectrum all check exactly; x^2*y reports NonIsolated")


def test_criterion_7_large_deviations():
    for p in (0.1, 0.3, 0.5, 0.7):
        obs = bernoulli(p)
        assert abs(cgf(obs, 0.0)) <= 1e-12
        assert abs(legendre(obs, obs.mean)) <= 1e-12
        for k in range(1, 10):
            x = k / 10.0
            closed = x * math.log(x / p) \
                + (1 - x) * math.log((1 - x) / (1 - p))
            assert abs(legendre(obs, x) - closed) <= 1e-9
        for theta in (-2.0, -1.0, 0.0, 1.0, 2.0):
            closed = math.log(1.0 - p * (1.0 - math.exp(theta)))
            assert abs(cgf(obs, theta) - closed) <= 1e-12
        h = 1e-3
        prev2 = cgf(obs, -10.0)
        prev1 = cgf(obs, -10.0 + h)
        theta = -10.0 + 2 * h
        while theta <= 10.0:
            cur = cgf(obs, theta)
            assert cur - 2 * prev1 + prev2 >= -1e-9
            prev2, prev1 = prev1, cur
            theta += h
    _ok("criterion 7: Bernoulli rate functions match the relative-entropy "
        "form within 1e-9; the cgf matches its closed form within 1e-12, "
        "vanishes at 0, and is convex")


def test_criterion_8_determinism_and_round_trip(groups):
    for name in GROUP_NAMES:
        a = build_orbit_category(groups[name])
        b = build_orbit_category(groups[name])
        assert export_dot(a.category) == export_dot(b.category)
        back = import_olog(json.loads(olog_json(export_olog(a.category))))
        assert category_isomorphic(a.category, back) is not None
    for cname in COMPLEX_NAMES:
        gname = fx.COMPLEXES[cname]["group"]
        G = groups[gname]
        p1 = build_phase_diagram(G, fx.load_complex(cname, G))
        p2 = build_phase_diagram(G, fx.load_complex(cname, G))
        assert export_dot(p1.category, p1) == export_dot(p2.category, p2)
        back = import_olog(export_olog(p1.category, p1))
        assert category_isomorphic(p1.category, back) is not None
    _ok("criterion 8: DOT output is byte-identical across fresh builds; "
        "olog export/import round-trips up to isomorphism")
