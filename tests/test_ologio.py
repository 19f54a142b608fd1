import json
import math
import os
import random
import re
import stat

import pytest

from oracles import (bf_export_olog, bf_import_olog, bf_olog_json,
                     is_identity, table_category)
from phasecat import (ValidationError, atomic_write, build_orbit_category,
                      build_phase_diagram, category_isomorphic, closure,
                      export_dot, export_olog, import_olog, olog_json,
                      strata_category, subdivide)
from phasecat import fixtures as fx
from phasecat.category import Morphism
from phasecat.cli import main


def one_object_monoid():
    """Single object with one non-identity involution."""
    morphisms = [Morphism(0, 0, "id"), Morphism(0, 0, "s")]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    return table_category(["pt"], morphisms, [0], table)


@pytest.fixture(scope="module")
def reflection_phase(c2, square_reflection):
    return build_phase_diagram(c2, square_reflection)


class TestExportDot:
    def test_empty_category(self):
        empty = table_category([], [], [], {})
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

    def test_labels_escaped(self):
        """Each ``label="..."`` read back (a backslash escapes the next
        character) is the category's label."""
        cat = import_olog({
            "objects": [{"id": "o0", "label": 'x"y'},
                        {"id": "o1", "label": "back\\slash\\"}],
            "arrows": [{"id": "m0", "src": "o0", "dst": "o1",
                        "label": 'a"; b'},
                       {"id": "m1", "src": "o0", "dst": "o1",
                        "label": '\\"];'}],
            "compositions": []})
        dot = export_dot(cat)
        quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"\];$', dot, re.M)
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == [
            'x"y |Aut|=1', "back\\slash\\ |Aut|=1", '\\"];', 'a"; b']


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


class TestCompositionsView:
    """``export_olog``'s compositions: a read-only view over the columns,
    written by ``olog_json`` with the bytes of the record-by-record
    export."""

    @pytest.fixture(scope="class")
    def exports(self):
        """(name, category, phase) for every bundled group's orbit
        category, every bundled phase diagram subdivided once, both
        strata fixtures, an imported olog and a category with identities
        only."""
        cats = [(f"orbit_{name}",
                 build_orbit_category(fx.load_group(name)).category, None)
                for name in sorted(fx.GROUPS)]
        with pytest.warns(UserWarning, match="setwise"):
            complexes = {n: fx.load_complex(n) for n in sorted(fx.COMPLEXES)}
        for name, x in complexes.items():
            ph = build_phase_diagram(x.group, subdivide(x))
            cats.append((f"phase_{name}", ph.category, ph))
        for name in sorted(fx.STRATIFIED):
            cats.append((f"strata_{name}",
                         strata_category(fx.load_stratified(name)), None))
        cats.append(("imported", import_olog(json.loads(olog_json(
            export_olog(cats[-1][1])))), None))
        cats.append(("identities_only", table_category(
            ["a", "b"], [Morphism(0, 0, "1a"), Morphism(1, 1, "1b")],
            [0, 1], {(0, 0): 0, (1, 1): 1}), None))
        return cats

    def test_text_equals_the_oracle(self, exports):
        for name, cat, phase in exports:
            assert olog_json(export_olog(cat, phase)) == \
                bf_olog_json(bf_export_olog(cat, phase)), name

    def test_sequence_semantics(self, exports):
        for name, cat, phase in exports:
            view = export_olog(cat, phase)["compositions"]
            want = bf_export_olog(cat, phase)["compositions"]
            assert len(view) == len(want), name
            assert list(view) == want and view == want and want == view, \
                name
            if not want:  # the identities-only category, trivial orbits
                continue
            assert (view[0], view[-1], view[-len(want)]) == \
                (want[0], want[-1], want[0]), name
            k = len(want) // 2
            assert view[k] == want[k], name
            for past in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    view[past]
            assert view != want[:-1] and view != want + want[:1], name

    def test_records_are_fresh(self):
        view = export_olog(one_object_monoid())["compositions"]
        view[0]["left"] = "changed"
        next(iter(view))["result"] = "changed"
        assert view == [{"left": "m0", "right": "m0", "result": "id:o0"}]

    def test_stdlib_encoder_rejects_the_export(self, s3):
        data = export_olog(build_orbit_category(s3).category)
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(data)


def outcome(write, value):
    """The text ``write`` gives for ``value``, or the error it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


CHARS = ["a", "Z", "0", " ", "%", "%s", '"', "\\", "\n", "\t", "\x00",
         "\x7f", "\u00e9", "\u2603", "\U0001f600", "/"]


def random_str(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 5)))


def random_scalar(rng):
    return rng.choice([
        lambda: random_str(rng),
        lambda: rng.randint(-1000, 1000),
        lambda: rng.choice([-1, 1]) * 2 ** rng.randint(60, 300),
        lambda: rng.choice([True, False, None]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([math.inf, -math.inf, math.nan, -0.0, 1e-300]),
    ])()


def random_key(rng):
    """Mostly strings; otherwise one of JSON's coerced key types."""
    if rng.random() < 0.9:
        return random_str(rng)
    return rng.choice([rng.randint(-5, 5), 0.5, True, False, None])


def random_records(rng, depth):
    """A flat record list, sometimes made ragged or non-flat."""
    keys = list({random_str(rng) for _ in range(rng.randint(0, 4))})
    records = [{k: random_scalar(rng) for k in keys}
               for _ in range(rng.randint(1, 6))]
    r = rng.choice(records)
    damage = rng.randrange(10)
    if damage == 0 and keys:
        del r[rng.choice(keys)]                      # missing key
    elif damage == 1:
        r[random_str(rng) + "!"] = random_scalar(rng)  # extra key
    elif damage == 2 and keys:
        r[random_str(rng) + "?"] = r.pop(rng.choice(keys))  # other key
    elif damage == 3:
        records.insert(rng.randrange(len(records) + 1),
                       random_value(rng, depth))     # non-dict element
    elif damage == 4 and keys:
        r[rng.choice(keys)] = random_value(rng, depth)  # nested value
    elif damage == 5:
        r[random_key(rng)] = random_scalar(rng)      # maybe non-str key
    return records


def random_value(rng, depth=0):
    if depth > 3:
        return random_scalar(rng)
    d = depth + 1
    kind = rng.randrange(8)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        return [random_value(rng, d) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return tuple(random_value(rng, d) for _ in range(rng.randint(0, 3)))
    if kind == 3:
        return {random_str(rng): random_value(rng, d)
                for _ in range(rng.randint(0, 4))}
    if kind == 4:
        return {random_key(rng): random_value(rng, d)
                for _ in range(rng.randint(0, 3))}
    if kind == 5:
        return random_records(rng, d)
    if kind == 6:
        return [random_records(rng, d) for _ in range(rng.randint(1, 3))]
    return {random_str(rng): {random_str(rng): random_records(rng, d)}}


class TestOlogJson:
    """``olog_json`` writes exactly the stdlib's indented, key-sorted
    text."""

    def test_random_corpus(self):
        rng = random.Random(20121)
        values = [random_value(rng) for _ in range(6000)]
        for i, value in enumerate(values):
            assert outcome(olog_json, value) == \
                outcome(bf_olog_json, value), i

    def test_flat_and_ragged_records(self):
        flat = [{"a": "x", "b": 1}, {"a": "y\u00e9", "b": None}]
        assert olog_json(flat) == bf_olog_json(flat)
        for ragged in (flat + [{"a": "z"}], flat + [{"a": "z", "c": 2}],
                       flat + [{"a": "z", "b": 2, "c": 3}], flat + [[]],
                       [{1: "x"}, {1: "y"}], [{}, {}]):
            assert olog_json(ragged) == bf_olog_json(ragged)

    def test_circular_reference_raises_like_stdlib(self):
        loop = {"a": 1}
        loop["self"] = {"up": loop}
        with pytest.raises(ValueError, match="Circular reference"):
            olog_json(loop)

    def test_bundled_exports(self):
        exports = []
        for name in sorted(fx.GROUPS):
            exports.append(export_olog(
                build_orbit_category(fx.load_group(name)).category))
        with pytest.warns(UserWarning, match="setwise"):
            complexes = [fx.load_complex(n) for n in sorted(fx.COMPLEXES)]
        for x in complexes:
            ph = build_phase_diagram(x.group, x)
            exports.append(export_olog(ph.category, ph))
        for name in sorted(fx.STRATIFIED):
            exports.append(export_olog(
                strata_category(fx.load_stratified(name))))
        exports = [json.loads(olog_json(data)) for data in exports]
        for data in exports:
            assert olog_json(data) == bf_olog_json(data)

    def test_quiver_and_fixture_files(self, tmp_path, capsys):
        written = fx.write_fixtures(str(tmp_path))
        for name in sorted(fx.REPRESENTATIONS):
            group = fx.REPRESENTATIONS[name]["group"]
            out = tmp_path / f"quiver_{name}.json"
            assert main(["quiver", "-g", str(tmp_path / f"group_{group}.json"),
                         "-r", str(tmp_path / f"rep_{name}.json"),
                         "-o", str(out)]) == 0
            written.append(str(out))
        capsys.readouterr()
        for path in written:
            with open(path) as fh:
                text = fh.read()
            assert text == bf_olog_json(json.loads(text)), path


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

    @pytest.mark.parametrize("name", ["c2s4", "s5"])
    def test_columns_of_large_orbit_categories(self, name, c2s4):
        """The imported columns are the exported category's, relabelled:
        the import lists the identities first, so a second round trip
        gives back the same columns exactly."""
        G = c2s4 if name == "c2s4" else closure(5, [[1, 0, 2, 3, 4],
                                                    [1, 2, 3, 4, 0]])
        cat = build_orbit_category(G).category
        back = import_olog(export_olog(cat))
        # each morphism of cat under its olog name in back
        ids, k, relabel = set(cat.identity), 0, []
        for m, mor in enumerate(cat.morphisms):
            if m in ids:
                relabel.append(back.find(f"id:o{mor.src}"))
            else:
                relabel.append(back.find(f"m{k}"))
                k += 1
        assert sorted(relabel) == list(range(len(cat.morphisms))), name
        for m2, column in enumerate(cat.columns):
            m1s = cat.into[cat.morphisms[m2].src]
            assert [back.compose(relabel[m2], relabel[m1])
                    for m1 in m1s] == [relabel[r] for r in column], name
        assert import_olog(export_olog(back)).columns == back.columns, name


class TestKeyedImport:
    """An imported olog is keyed like every other category: each arrow is
    found by its olog id and each identity by ``id:<object id>``."""

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
                assert m is not None and not is_identity(back, m), name
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
        return json.loads(olog_json(export_olog(one_object_monoid())))

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
        (lambda d: d["objects"][0].update(label=7),
         r"objects\[0\]: expected a string 'label'"),
        (lambda d: d["arrows"][0].update(label=["x"]),
         r"arrows\[0\]: expected a string 'label'"),
    ], ids=["object_id", "arrow_dst", "composition_result", "int_left",
            "objects_string", "int_object_label", "list_arrow_label"])
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


def _copied(data, key, j=None):
    """``data`` with its ``key`` list, and record ``j`` of it, copied, so a
    mutation leaves the source olog as it was."""
    data = dict(data)
    records = data[key] = list(data[key])
    if j is not None:
        records[j] = dict(records[j])
    return data, records


def _drop_triple(rng, data):
    data, comps = _copied(data, "compositions")
    del comps[rng.randrange(len(comps))]
    return data


def _duplicate_triple(rng, data):
    data, comps = _copied(data, "compositions")
    comps.insert(rng.randrange(len(comps) + 1), rng.choice(comps))
    return data


def _conflicting_triple(rng, data):
    """Another triple for a listed pair, with a result of the same
    endpoints (a conflict) or any result."""
    data, comps = _copied(data, "compositions")
    c = rng.choice(comps)
    ends = _olog_ends(data)
    parallel = [m for m, e in ends.items() if e == ends[c["result"]]]
    result = rng.choice(parallel if rng.random() < 0.5 else list(ends))
    comps.insert(rng.randrange(len(comps) + 1), dict(c, result=result))
    return data


def _identity_triple(rng, data):
    """A triple with an identity on one side and a result parallel to the
    arrow on the other: the unit laws, not the triple, decide it."""
    data, comps = _copied(data, "compositions")
    a = rng.choice(data["arrows"])
    ends = _olog_ends(data)
    result = rng.choice([m for m, e in ends.items() if e == ends[a["id"]]])
    left, right = ((f"id:{a['dst']}", a["id"]) if rng.random() < 0.5
                   else (a["id"], f"id:{a['src']}"))
    comps.insert(rng.randrange(len(comps) + 1),
                 {"left": left, "right": right, "result": result})
    return data


def _changed_result(rng, data):
    j = rng.randrange(len(data["compositions"]))
    data, comps = _copied(data, "compositions", j)
    comps[j]["result"] = rng.choice(list(_olog_ends(data)))
    return data


def _unknown_id(rng, data):
    j = rng.randrange(len(data["compositions"]))
    data, comps = _copied(data, "compositions", j)
    comps[j][rng.choice(["left", "right", "result"])] = rng.choice(
        ["m99999", "id:o999", "o0", ""])
    return data


def _bad_arrow(rng, data):
    """A dangling endpoint, or an id another arrow or an identity has."""
    j = rng.randrange(len(data["arrows"]))
    data, arrows = _copied(data, "arrows", j)
    field = rng.choice(["src", "dst", "id"])
    arrows[j][field] = ("o999" if field != "id"
                        else rng.choice(list(_olog_ends(data))))
    return data


def _non_string_field(rng, data):
    key, fields = rng.choice([("objects", ["id", "label"]),
                              ("arrows", ["id", "src", "dst", "label"]),
                              ("compositions", ["left", "right", "result"])])
    j = rng.randrange(len(data[key]))
    data, records = _copied(data, key, j)
    records[j][rng.choice(fields)] = rng.choice([7, 1.5, None, True, ["m0"],
                                                 {"id": "m0"}])
    return data


def _non_dict_record(rng, data):
    key = rng.choice(["objects", "arrows", "compositions"])
    data, records = _copied(data, key)
    records[rng.randrange(len(records))] = rng.choice([7, "m0", None,
                                                       ["m0"]])
    return data


def _missing_field(rng, data):
    j = rng.randrange(len(data["compositions"]))
    data, comps = _copied(data, "compositions", j)
    del comps[j][rng.choice(["left", "right", "result"])]
    return data


def _scalar_field(rng, data):
    """A triple field that is null, a number or a bool: no whole-column
    pass may take it for an id."""
    j = rng.randrange(len(data["compositions"]))
    data, comps = _copied(data, "compositions", j)
    comps[j][rng.choice(["left", "right", "result"])] = rng.choice(
        [None, 0, 1, 2.5, True, False])
    return data


def _list_object(rng, data):
    j = rng.randrange(len(data["objects"]))
    data, records = _copied(data, "objects")
    records[j] = rng.choice([list(records[j].items()),
                             [records[j]["id"]]])
    return data


def _late_inconsistent_triple(rng, data):
    """A triple whose result or right arrow has the wrong endpoints,
    placed after 100 valid triples (after all of them in a smaller
    olog)."""
    data, comps = _copied(data, "compositions")
    c = rng.choice(comps)
    ends = _olog_ends(data)
    if rng.random() < 0.5:
        field = "result"
        wrong = [m for m, e in ends.items() if e != ends[c["result"]]]
    else:
        field = "right"
        wrong = [m for m, e in ends.items() if e[1] != ends[c["left"]][0]]
    comps.insert(rng.randrange(min(100, len(comps)), len(comps) + 1),
                 dict(c, **{field: rng.choice(wrong)}))
    return data


def _olog_ends(data):
    """Each olog id, identities included, with its endpoints."""
    ends = {f"id:{o['id']}": (o["id"], o["id"]) for o in data["objects"]}
    ends.update((a["id"], (a["src"], a["dst"])) for a in data["arrows"])
    return ends


MUTATIONS = [_drop_triple, _duplicate_triple, _conflicting_triple,
             _identity_triple, _changed_result, _unknown_id, _bad_arrow,
             _non_string_field, _non_dict_record, _missing_field,
             _scalar_field, _list_object, _late_inconsistent_triple]
# mutations that always make an olog invalid
REJECTED = {_missing_field, _scalar_field, _list_object,
            _late_inconsistent_triple}


class TestImportOracle:
    """import_olog and export_olog against the record-by-record oracles:
    a mutated olog gives the same message, or re-exports the same bytes."""

    @pytest.fixture(scope="class")
    def sources(self, groups, tetrahedron):
        tetra = build_phase_diagram(groups["s4"], subdivide(tetrahedron))
        return {"orbit_s3": (build_orbit_category(groups["s3"]).category,
                             None),
                "orbit_d4": (build_orbit_category(groups["d4"]).category,
                             None),
                "tetra_phase": (tetra.category, tetra)}

    @staticmethod
    def outcome(import_, export, data):
        try:
            return olog_json(export(import_(data)))
        except ValidationError as exc:
            return f"error: {exc}"

    def test_exports_equal_the_oracle(self, sources):
        for name, (cat, phase) in sources.items():
            assert export_olog(cat, phase) == bf_export_olog(cat, phase), \
                name

    def test_mutated_ologs(self, sources):
        ologs = {name: json.loads(olog_json(export_olog(cat, phase)))
                 for name, (cat, phase) in sources.items()}
        rng = random.Random("mutated ologs")
        seen = []
        for i in range(30 * len(MUTATIONS)):
            name = rng.choice(sorted(ologs))
            mutate = MUTATIONS[i % len(MUTATIONS)]
            data = mutate(rng, ologs[name])
            want = self.outcome(bf_import_olog, bf_export_olog, data)
            got = self.outcome(import_olog, export_olog, data)
            assert got == want, (i, name, mutate.__name__)
            assert want.startswith("error") or mutate not in REJECTED, \
                (i, name, mutate.__name__)
            seen.append(want.split(" ")[1] if want.startswith("error")
                        else "imported")
        # every kind of outcome shows up
        assert {"imported", "missing", "conflicting", "inconsistent",
                "associativity", "composition", "identity", "arrow",
                "duplicate"} <= set(seen)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.dot"
        atomic_write(str(target), "first\n")
        atomic_write(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []

    def test_mode_as_open_leaves_it(self, tmp_path):
        """A new file and an overwritten one get the mode ``open(path,
        "w")`` leaves, not the temporary file's 0o600: the umask's for a
        new file, and an existing file keeps its own."""
        target, private = tmp_path / "out.json", tmp_path / "private.json"
        private.write_text("")
        private.chmod(0o600)
        old = os.umask(0o022)
        try:
            atomic_write(str(target), "first\n")
            new_mode = stat.S_IMODE(target.stat().st_mode)
            atomic_write(str(target), "second\n")
            replaced_mode = stat.S_IMODE(target.stat().st_mode)
            atomic_write(str(private), "kept\n")
            os.umask(0o027)
            atomic_write(str(tmp_path / "group.json"), "")
        finally:
            umask = os.umask(old)
        assert (new_mode, replaced_mode) == (0o644, 0o644)
        assert stat.S_IMODE(private.stat().st_mode) == 0o600
        assert stat.S_IMODE((tmp_path / "group.json").stat().st_mode) == 0o640
        assert umask == 0o027  # restored after reading it
