"""Deterministic exporters: DOT graphs and olog-style database schemas.

The olog schema stores objects, non-identity arrows and explicit
composition triples, so a downstream database needs no category engine:
the category IS the data.  Identity arrows and automorphism counts are
metadata (``autOrder``), keeping the DOT diagrams readable.

Both exporters are byte-stable: identical inputs give identical output.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from .category import FiniteCategory
    from .phase import PhaseCategory


def _object_meta(category, phase: PhaseCategory | None):
    meta = []
    for o in range(len(category.objects)):
        entry = {"id": f"o{o}", "label": category.objects[o],
                 "autOrder": category.aut_order(o)}
        if phase is not None:
            entry["subgroupClass"] = phase.objects[o].subgroup_class
            entry["componentId"] = phase.objects[o].component_id
        meta.append(entry)
    return meta


def export_dot(category: FiniteCategory,
               phase: PhaseCategory | None = None) -> str:
    """Render a finite category as a DOT digraph.

    One node per object annotated with its automorphism count; one edge
    per non-identity, non-automorphism arrow.  Output is sorted and
    byte-deterministic, and labels are escaped.
    """
    escapes = str.maketrans({"\\": "\\\\", '"': '\\"'})
    nodes = []
    for o in range(len(category.objects)):
        label = f"{category.objects[o]} |Aut|={category.aut_order(o)}"
        nodes.append(f'  "o{o}" [label="{label.translate(escapes)}"];')
    edges = sorted((mor.src, mor.dst, mor.label.translate(escapes))
                   for mor in category.morphisms if mor.src != mor.dst)
    edge_lines = [f'  "o{s}" -> "o{d}" [label="{lab}"];'
                  for s, d, lab in edges]
    if not nodes:
        return "digraph phi0 { }\n"
    return "digraph phi0 {\n" + "\n".join(nodes + edge_lines) + "\n}\n"


def export_olog(category: FiniteCategory,
                phase: PhaseCategory | None = None) -> dict:
    """Olog schema: objects, non-identity arrows, and all composition
    triples over composable non-identity pairs.

    Each morphism gets one name, its arrow id or ``id:o<k>`` for the
    identity of object k; a walk over the columns writes the triples in
    ascending (m2, m1)."""
    identities = set(category.identity)
    name = []
    arrows = []
    for m, mor in enumerate(category.morphisms):
        if m in identities:
            name.append(f"id:o{mor.src}")
            continue
        name.append(f"m{len(arrows)}")
        arrows.append({"id": name[m], "src": f"o{mor.src}",
                       "dst": f"o{mor.dst}", "label": mor.label})
    compositions = [{"left": name[m2], "right": name[m1], "result": name[r]}
                    for m2, column in enumerate(category.columns)
                    if m2 not in identities for m1, r in zip(
                        category.into[category.morphisms[m2].src], column)
                    if m1 not in identities]
    return {"objects": _object_meta(category, phase),
            "arrows": arrows,
            "compositions": compositions}


def _records(data, key: str, fields: tuple[str, ...]) -> list[dict]:
    """``data[key]``, default empty, as a list of objects whose ``fields``
    are strings; a malformed one is named with the field."""
    if not isinstance(data, dict):
        raise ValidationError("olog: expected a JSON object at top level")
    records = data.get(key, [])
    if not isinstance(records, list):
        raise ValidationError(f"{key}: expected a list of objects")
    for i, record in enumerate(records):
        for field in fields:
            if not (isinstance(record, dict)
                    and isinstance(record.get(field), str)):
                raise ValidationError(
                    f"{key}[{i}]: expected an object with a string {field!r}")
    return records


def import_olog(data: dict) -> FiniteCategory:
    """Rebuild a finite category from an olog export.

    Objects keep their exported order; identities are re-synthesized.  Each
    morphism's data is its olog id (``id:<object id>`` for an identity), so
    ``find`` returns it.  A record without its string ids, dangling arrow
    endpoints, unknown ids and inconsistent composition triples are
    rejected with the offending field or ids.

    The columns are filled from one dict of id pairs: the listed triples,
    then the unit laws, which decide every pair with an identity.
    """
    from .category import keyed_category
    records = _records(data, "objects", ("id",))
    arrows = _records(data, "arrows", ("id", "src", "dst"))
    compositions = _records(data, "compositions", ("left", "right", "result"))
    objects = {o["id"]: o.get("label", o["id"]) for o in records}
    if len(objects) != len(records):
        raise ValidationError("duplicate object ids")
    identity_keys = [f"id:{oid}" for oid in objects]
    # (src, dst, label, data): the identities in object order, then the arrows
    morphisms = [(oid, oid, key, key)
                 for oid, key in zip(objects, identity_keys)]
    ends = {key: (oid, oid) for oid, key in zip(objects, identity_keys)}
    for a in arrows:
        if a["src"] not in objects or a["dst"] not in objects:
            raise ValidationError(
                f"arrow {a['id']} has dangling endpoint "
                f"{a['src']}->{a['dst']}")
        if a["id"] in ends:
            raise ValidationError(f"duplicate arrow id {a['id']}")
        ends[a["id"]] = a["src"], a["dst"]
        morphisms.append((a["src"], a["dst"], a.get("label", a["id"]),
                          a["id"]))

    composite: dict[tuple[str, str], str] = {}
    for c in compositions:
        left, right, result = c["left"], c["right"], c["result"]
        try:
            (b0, b1), (a0, a1), res = ends[left], ends[right], ends[result]
        except KeyError as exc:
            mid = exc.args[0]
            raise ValidationError(
                f"identity of unknown object {mid[3:]}"
                if mid.startswith("id:")
                else f"composition names unknown arrow {mid}") from None
        if a1 != b0 or res != (a0, b1):
            raise ValidationError(f"inconsistent composition triple "
                                  f"({left},{right})->{result}")
        if composite.setdefault((left, right), result) != result:
            raise ValidationError(
                f"conflicting composition triple for ({left},{right})")
    # the unit laws override a listed triple with an identity in it
    composite.update(((mid, "id:" + s), mid) for mid, (s, _) in ends.items())
    composite.update((("id:" + d, mid), mid) for mid, (_, d) in ends.items())
    try:
        cat = keyed_category(objects, morphisms, identity_keys,
                             composite.__getitem__)
    except KeyError as exc:  # ids and results are known: a pair unlisted
        d2, d1 = exc.args[0]
        raise ValidationError(f"missing composition ({d2},{d1})") from None
    cat.check_category_laws()
    return cat


_SCALARS = {str, int, float, bool, type(None)}


def olog_json(data: dict) -> str:
    """The package's one JSON text form (olog exports, ``quiver`` output,
    fixture files): exactly ``json.dumps(data, indent=2, sort_keys=True)``
    plus a final newline.

    ``json.dumps`` with ``indent`` runs the pure-Python encoder, so the
    two shapes that make up an olog are written here with the C string
    encoder: dicts with ``str`` keys, and lists of flat records (dicts
    sharing one ``str`` key set, scalar values only), encoded column by
    column.  Every other value is handed to ``json.dumps`` and indented,
    which is exact because JSON text holds no raw newline in a string.
    """
    return _json_text(data, "", ()) + "\n"


def _json_text(value, pad: str, path: tuple[int, ...]) -> str:
    """``value`` as JSON text nested at indent ``pad``.  ``path`` holds the
    ids of the dicts being written, so a cycle is left to ``json.dumps``,
    which reports it."""
    inner = pad + "  "
    if (type(value) is dict and id(value) not in path
            and set(map(type, value)) == {str}):
        path += (id(value),)
        return "{\n" + ",\n".join(
            f"{inner}{_encode_str(k)}: {_json_text(value[k], inner, path)}"
            for k in sorted(value)) + f"\n{pad}}}"
    if type(value) is list and set(map(type, value)) == {dict}:
        text = _records_text(value, pad)
        if text is not None:
            return text
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + pad)


def _records_text(records: list[dict], pad: str) -> str | None:
    """A list of flat records, written as one join over a slot per key,
    value and record end, or None if the records do not share one
    non-empty ``str`` key set or hold a non-scalar value."""
    first = records[0]
    if not (set(map(type, first)) == {str}
            and set(map(len, records)) == {len(first)}):
        return None
    inner = pad + "  "
    n, width = len(records), 2 * len(first) + 1
    # Record j owns slots j*width ...: a key prefix and a value per key,
    # then its end.  Every slot starts as an end; the last loses its comma.
    pieces = [f"\n{inner}}},\n{inner}"] * (n * width)
    for i, k in enumerate(sorted(first)):
        try:
            column = list(map(itemgetter(k), records))
        except KeyError:  # same size, another key set
            return None
        kinds = set(map(type, column))
        if kinds == {str}:
            encode = _encode_str
        elif kinds <= _SCALARS:
            encode = json.dumps
        else:
            return None
        head = "," if i else "{"
        pieces[2 * i::width] = [f"{head}\n{inner}  {_encode_str(k)}: "] * n
        pieces[2 * i + 1::width] = map(encode, column)
    pieces[-1] = f"\n{inner}}}"
    return f"[\n{inner}" + "".join(pieces) + f"\n{pad}]"


def atomic_write(path: str, text: str):
    """Write-temp-then-rename so partial output is never observed."""
    import tempfile
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".phasecat-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
