"""Tests of the benchmark itself.

    python3 bench/selftest.py

Kept out of pytest's default discovery so the library's test count is
unchanged; runs in a few seconds.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import unittest
import warnings

import prepare

prepare.import_library()
warnings.simplefilter("ignore", UserWarning)

import gen  # noqa: E402
import workloads  # noqa: E402
from phasecat import (all_subgroups, closure,  # noqa: E402
                      conjugacy_classes_of_subgroups)
from phasecat.fixtures import GROUPS  # noqa: E402
from run import Context, expected_digests  # noqa: E402
from spans import Recorder  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.GENERATORS:
            self.assertEqual(gen.generate(workload, 7),
                             gen.generate(workload, 7), workload)

    def test_seed_changes_large_rung_only(self):
        a, b = gen.lattice(1), gen.lattice(2)
        self.assertEqual(a["desk"], b["desk"])
        self.assertNotEqual(a["large"], b["large"])

    def test_relabelling_keeps_lattice_counts(self):
        spec = gen.lattice(3)["large"][1][1]
        G = closure(spec["degree"], spec["generators"])
        subs = all_subgroups(G)
        classes = conjugacy_classes_of_subgroups(G, subs)
        self.assertEqual((G.order, len(subs), len(classes)), (48, 98, 33))

    def test_germ_mu_matches_exponents(self):
        for g in gen.exact(5)["germs"]:
            mu = 1
            for e in g["exponents"]:
                mu *= e - 1
            self.assertEqual(g["mu"], mu)
            self.assertLessEqual(max(g["exponents"]), 18)


class SpanTest(unittest.TestCase):
    def test_self_time_of_synthetic_tree(self):
        rec = Recorder()
        rec.pass_id = 0
        # root [0, 10] with children a [1, 4] and b [5, 9]; a has child
        # c [2, 3]; self times: root 3, a 2, b 4, c 1
        rec.spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
                     ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0],
                     ["a", 11.0, 12.5, -1, 1]]
        self.assertEqual(rec.self_times(),
                         {0: {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0},
                          1: {"a": 1.5}})

    def test_wrap_nests_and_patch_restores(self):
        rec = Recorder()

        def inner():
            return 1

        class Owner:
            f = staticmethod(inner)

        rec.patch(Owner, "f", "inner")
        outer = rec.wrap("outer", lambda: Owner.f() + 1)
        self.assertEqual(outer(), 2)
        self.assertEqual([s[0] for s in rec.spans], ["outer", "inner"])
        self.assertEqual(rec.spans[1][3], 0)
        rec.unpatch()
        self.assertIs(Owner.f, inner)


def brute_force_morphisms(spec: dict) -> int:
    """Equivariant maps G/H0 -> G/H1 over all class pairs, counted as the
    cosets g H1 fixed by H0, with plain permutation arithmetic."""
    G = closure(spec["degree"], spec["generators"])
    reps = [[G.elements[i] for i in c.representative.members]
            for c in conjugacy_classes_of_subgroups(G)]

    def mul(p, q):
        return tuple(p[x] for x in q)

    total = 0
    for h0 in reps:
        for h1 in reps:
            fixed = 0
            for g in G.elements:
                coset = {mul(g, h) for h in h1}
                fixed += all(mul(k, g) in coset for k in h0)
            total += fixed // len(h1)
    return total


class OracleTest(unittest.TestCase):
    def test_desk_morphism_counts_by_brute_force(self):
        for name, spec in list(GROUPS.items()) + [("d6", gen.D6)]:
            self.assertEqual(brute_force_morphisms(spec),
                             workloads.KNOWN_LATTICE[name][2], name)


class DeskSmokeTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(dir=prepare.BENCH, prefix=".selftest-")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def context(self, workload: str, seed: int = 0) -> Context:
        workdir = os.path.join(self.dir, workload)
        os.makedirs(workdir)
        return Context(workload, prepare.setup(workload, seed, workdir),
                       workdir, expected_digests(workload, seed))

    def test_desk_rungs_pass_their_oracles(self):
        for workload in workloads.DESKS:
            ctx = self.context(workload)
            workloads.DESKS[workload](ctx)
            self.assertGreater(ctx.ck.attempted, 0, workload)
            self.assertEqual(ctx.ck.messages, [], workload)

    def test_wrong_oracle_value_counts_as_failure(self):
        ctx = self.context("lattice")
        saved = workloads.KNOWN_LATTICE["s3"]
        workloads.KNOWN_LATTICE["s3"] = (7, 4, 18)
        try:
            workloads.lattice_group(ctx, "s3", GROUPS["s3"])
        finally:
            workloads.KNOWN_LATTICE["s3"] = saved
        self.assertEqual(ctx.ck.failed, 1)
        self.assertIn("s3: subgroups/classes", ctx.ck.messages[0])

    def test_changed_export_counts_as_failure(self):
        ctx = self.context("lattice")
        ctx.ck.expected = {"lattice/c2/olog": "0" * 64}
        workloads.lattice_group(ctx, "c2", GROUPS["c2"])
        self.assertEqual(ctx.ck.failed, 1)


if __name__ == "__main__":
    unittest.main(warnings="ignore")
