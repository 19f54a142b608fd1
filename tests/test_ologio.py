import json

import pytest

from phasecat import (ValidationError, atomic_write, build_orbit_category,
                      build_phase_diagram, category_isomorphic, export_dot,
                      export_olog, import_olog, olog_json, strata_category,
                      subdivide)
from phasecat import fixtures as fx
from phasecat.category import FiniteCategory, Morphism


def one_object_monoid():
    """Single object with one non-identity involution."""
    morphisms = [Morphism(0, 0, "id"), Morphism(0, 0, "s")]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    return FiniteCategory(["pt"], morphisms, [0], table)


@pytest.fixture(scope="module")
def reflection_phase(c2, square_reflection):
    return build_phase_diagram(c2, square_reflection)


class TestExportDot:
    def test_empty_category(self):
        empty = FiniteCategory([], [], [], {})
        assert export_dot(empty) == "digraph phi0 { }\n"

    def test_byte_determinism(self, s3, reflection_phase):
        oc = build_orbit_category(s3)
        for cat, phase in ((oc.category, None),
                           (reflection_phase.category, reflection_phase)):
            a = export_dot(cat, phase)
            b = export_dot(cat, phase)
            assert a == b
            assert isinstance(a, str)

    def test_square_reflection_shape(self, reflection_phase):
        dot = export_dot(reflection_phase.category, reflection_phase)
        lines = dot.splitlines()
        assert lines[0] == "digraph phi0 {"
        assert lines[-1] == "}"
        node_lines = [l for l in lines if "[label=" in l and "->" not in l]
        edge_lines = [l for l in lines if "->" in l]
        assert len(node_lines) == 3
        assert len(edge_lines) == 2
        assert any("|Aut|=2" in l for l in node_lines)

    def test_s3_orbit_category_nodes(self, s3):
        oc = build_orbit_category(s3)
        dot = export_dot(oc.category)
        node_lines = [l for l in dot.splitlines()
                      if "[label=" in l and "->" not in l]
        assert len(node_lines) == 4

    def test_edges_are_sorted(self, s3):
        dot = export_dot(build_orbit_category(s3).category)
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert edge_lines == sorted(edge_lines)


class TestExportOlog:
    def test_one_object_monoid_shape(self):
        data = export_olog(one_object_monoid())
        assert [o["id"] for o in data["objects"]] == ["o0"]
        assert data["objects"][0]["autOrder"] == 2
        assert len(data["arrows"]) == 1
        (arrow,) = data["arrows"]
        assert (arrow["src"], arrow["dst"]) == ("o0", "o0")
        # s . s = identity, recorded explicitly
        assert data["compositions"] == [
            {"left": "m0", "right": "m0", "result": "id:o0"}]

    def test_phase_metadata_present(self, reflection_phase):
        data = export_olog(reflection_phase.category, reflection_phase)
        for o in data["objects"]:
            assert "subgroupClass" in o and "componentId" in o

    def test_identities_not_exported_as_arrows(self, s3):
        cat = build_orbit_category(s3).category
        data = export_olog(cat)
        n_id = len(cat.objects)
        assert len(data["arrows"]) == len(cat.morphisms) - n_id

    def test_json_rendering_deterministic(self, s3):
        cat = build_orbit_category(s3).category
        a = olog_json(export_olog(cat))
        b = olog_json(export_olog(cat))
        assert a == b
        assert a.endswith("\n")
        json.loads(a)  # valid JSON


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["trivial", "c2", "s3", "d4"])
    def test_orbit_categories(self, name, groups):
        cat = build_orbit_category(groups[name]).category
        back = import_olog(json.loads(olog_json(export_olog(cat))))
        assert category_isomorphic(cat, back) is not None

    def test_phase_category(self, reflection_phase):
        cat = reflection_phase.category
        back = import_olog(export_olog(cat, reflection_phase))
        assert category_isomorphic(cat, back) is not None

    def test_monoid(self):
        cat = one_object_monoid()
        back = import_olog(export_olog(cat))
        assert category_isomorphic(cat, back) is not None


class TestKeyedImport:
    """An imported olog is built by keyed_category: each arrow is found by
    its olog id and each identity by ``id:<object id>``."""

    @pytest.fixture(scope="class")
    def round_trips(self, groups, tetrahedron):
        cats = {"orbit_s3": build_orbit_category(groups["s3"]).category,
                "tetra_phase": build_phase_diagram(
                    groups["s4"], subdivide(tetrahedron)).category}
        for name in sorted(fx.STRATIFIED):
            cats[name] = strata_category(fx.load_stratified(name))
        return {name: (export_olog(cat), import_olog(export_olog(cat)))
                for name, cat in cats.items()}

    def test_arrows_found_by_olog_id(self, round_trips):
        for name, (data, back) in round_trips.items():
            assert data["arrows"], name
            for k, arrow in enumerate(data["arrows"]):
                m = back.find(f"m{k}")
                assert m is not None and not back.is_identity(m), name
                mor = back.morphisms[m]
                assert (f"o{mor.src}", f"o{mor.dst}", mor.label) == \
                    (arrow["src"], arrow["dst"], arrow["label"]), name

    def test_identities_found_by_object_id(self, round_trips):
        for name, (_, back) in round_trips.items():
            for o in range(len(back.objects)):
                assert back.find(f"id:o{o}") == back.identity[o], name

    def test_no_morphism_has_none_as_data(self, round_trips):
        for name, (_, back) in round_trips.items():
            assert back.find(None) is None, name


class TestImportErrors:
    def base(self):
        return export_olog(one_object_monoid())

    def test_dangling_arrow(self):
        data = self.base()
        data["arrows"][0]["dst"] = "o9"
        with pytest.raises(ValidationError, match="dangling"):
            import_olog(data)

    def test_unknown_arrow_in_composition(self):
        data = self.base()
        data["compositions"][0]["left"] = "m9"
        with pytest.raises(ValidationError, match="unknown arrow"):
            import_olog(data)

    def test_inconsistent_triple(self):
        oc_data = {"objects": [{"id": "o0"}, {"id": "o1"}],
                   "arrows": [{"id": "m0", "src": "o0", "dst": "o1"}],
                   "compositions": [{"left": "m0", "right": "m0",
                                     "result": "m0"}]}
        with pytest.raises(ValidationError, match="inconsistent"):
            import_olog(oc_data)

    def test_duplicate_arrow_id(self):
        data = self.base()
        data["arrows"].append(dict(data["arrows"][0]))
        with pytest.raises(ValidationError, match="duplicate arrow id m0"):
            import_olog(data)

    def test_identity_of_unknown_object_in_composition(self):
        data = self.base()
        data["compositions"][0]["result"] = "id:o9"
        with pytest.raises(ValidationError,
                           match="identity of unknown object o9"):
            import_olog(data)

    def test_conflicting_triples(self):
        data = self.base()
        data["compositions"].append(
            {"left": "m0", "right": "m0", "result": "m0"})
        with pytest.raises(ValidationError,
                           match=r"conflicting composition triple for "
                                 r"\(m0,m0\)"):
            import_olog(data)

    def test_missing_triple_names_both_arrows(self):
        data = {"objects": [{"id": "o0"}, {"id": "o1"}, {"id": "o2"}],
                "arrows": [{"id": "m0", "src": "o0", "dst": "o1"},
                           {"id": "m1", "src": "o1", "dst": "o2"}],
                "compositions": []}
        with pytest.raises(ValidationError,
                           match=r"missing composition \(m1,m0\)"):
            import_olog(data)

    def test_duplicate_object_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            import_olog({"objects": [{"id": "o0"}, {"id": "o0"}]})

    def test_missing_composition_caught_by_law_check(self):
        # two composable non-identity arrows with no recorded composite
        data = {"objects": [{"id": "o0"}, {"id": "o1"}, {"id": "o2"}],
                "arrows": [{"id": "m0", "src": "o0", "dst": "o1"},
                           {"id": "m1", "src": "o1", "dst": "o2"}],
                "compositions": []}
        with pytest.raises(ValidationError):
            import_olog(data)

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["objects"][0].pop("id"), r"objects\[0\].*'id'"),
        (lambda d: d["arrows"][0].pop("dst"), r"arrows\[0\].*'dst'"),
        (lambda d: d["compositions"][0].pop("result"),
         r"compositions\[0\].*'result'"),
        (lambda d: d["compositions"][0].update(left=0),
         r"compositions\[0\].*'left'"),
        (lambda d: d.update(objects="abc"), "objects: expected a list"),
    ], ids=["object_id", "arrow_dst", "composition_result", "int_left",
            "objects_string"])
    def test_malformed_shape_names_field(self, mutate, field):
        data = self.base()
        mutate(data)
        with pytest.raises(ValidationError, match=field):
            import_olog(data)

    def test_top_level_list(self):
        with pytest.raises(ValidationError, match="top level"):
            import_olog([self.base()])

    def test_non_associative_triples(self):
        # one object, arrows a and b; every triple has the right endpoints
        # but (a a) b = b b = id while a (a b) = a a = b
        data = {"objects": [{"id": "o0"}],
                "arrows": [{"id": "a", "src": "o0", "dst": "o0"},
                           {"id": "b", "src": "o0", "dst": "o0"}],
                "compositions": [
                    {"left": "a", "right": "a", "result": "b"},
                    {"left": "a", "right": "b", "result": "a"},
                    {"left": "b", "right": "a", "result": "id:o0"},
                    {"left": "b", "right": "b", "result": "id:o0"}]}
        with pytest.raises(ValidationError, match="associativity fails"):
            import_olog(data)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.dot"
        atomic_write(str(target), "first\n")
        atomic_write(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []
