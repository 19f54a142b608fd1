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
import stat
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _encode_str
from itertools import chain
from operator import add, getitem, index, itemgetter
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
    identity of object k.  ``objects`` and ``arrows`` are lists of dicts;
    ``compositions`` is a read-only sequence over the category's columns
    that yields a fresh ``{"left", "right", "result"}`` dict per triple,
    in ascending (m2, m1), and compares equal to the list of those dicts.
    ``olog_json`` is its writer (``json.dumps`` rejects it), and
    ``json.loads(olog_json(...))`` gives plain, mutable data."""
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
    return {"objects": _object_meta(category, phase),
            "arrows": arrows,
            "compositions": _Compositions(category, name)}


class _Compositions(Sequence):
    """The composition triples of an olog export, read from the columns:
    non-identity m2 ascending, then non-identity m1 into its source
    ascending.  It stores the category and the morphism names; reading
    builds one record per triple, and ``_text`` builds none."""

    def __init__(self, category: FiniteCategory, name: list[str]):
        self._cat = category
        self._name = name
        self._len = sum(len(results) for _, _, results in self._rows())

    def _rows(self):
        """(m2, its source x, m2 o m1 for each non-identity m1 into x) for
        each non-identity m2 with such an m1, ascending."""
        cat = self._cat
        identities = set(cat.identity)
        # the identity's place in each object's column
        cut = [cat.position[e] for e in cat.identity]
        for m2, column in enumerate(cat.columns):
            if m2 not in identities and len(column) > 1:
                x = cat.morphisms[m2].src
                yield m2, x, column[:cut[x]] + column[cut[x] + 1:]

    def _arrows_into(self) -> list[list[int]]:
        """The non-identity morphisms into each object, ascending."""
        cat = self._cat
        return [[m for m in into if m != e]
                for into, e in zip(cat.into, cat.identity)]

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        name, arrows_into = self._name, self._arrows_into()
        for m2, x, results in self._rows():
            for m1, r in zip(arrows_into[x], results):
                yield {"left": name[m2], "right": name[m1],
                       "result": name[r]}

    def __getitem__(self, i: int) -> dict:
        i = index(i)
        k = i + self._len if i < 0 else i
        if not 0 <= k < self._len:
            raise IndexError("compositions index out of range")
        name, arrows_into = self._name, self._arrows_into()
        for m2, x, results in self._rows():
            if k < len(results):
                return {"left": name[m2], "right": name[arrows_into[x][k]],
                        "result": name[results[k]]}
            k -= len(results)

    def __eq__(self, other):
        if isinstance(other, (list, _Compositions)):
            return list(self) == list(other)
        return NotImplemented

    def _text(self, pad: str) -> str:
        """The triples as ``json.dumps(list(self), indent=2,
        sort_keys=True)`` writes them nested at indent ``pad``: one block
        per m2 of records that share its prefix, each record ended by its
        m1's suffix, and the blocks and brackets in one join."""
        if not self._len:
            return "[]"
        inner = pad + "  "
        field = inner + "  "
        enc = list(map(_encode_str, self._name))
        prefix = [f'{{\n{field}"left": {e},\n{field}"result": '
                  for e in enc]
        suffix = [f',\n{field}"right": {e}\n{inner}}}' for e in enc]
        suffixes = [list(map(suffix.__getitem__, ms))
                    for ms in self._arrows_into()]
        sep = f",\n{inner}"
        pieces = [f"[\n{inner}"]
        for m2, x, results in self._rows():
            pieces += (prefix[m2], (sep + prefix[m2]).join(
                map(add, map(enc.__getitem__, results), suffixes[x])), sep)
        pieces[-1] = f"\n{pad}]"
        return "".join(pieces)


def _records(data, key: str,
             fields: tuple[str, ...]) -> tuple[list, list[list[str]]]:
    """``data[key]``, default empty, as a list of objects whose ``fields``
    are strings, returned with one column per field; a malformed record
    is named with the field."""
    if not isinstance(data, dict):
        raise ValidationError("olog: expected a JSON object at top level")
    records = data.get(key, [])
    if type(records) is _Compositions:
        records = list(records)
    if not isinstance(records, list):
        raise ValidationError(f"{key}: expected a list of objects")
    try:
        columns = [list(map(itemgetter(f), records)) for f in fields]
        # str.join raises TypeError on any value that is not a str
        "".join(chain.from_iterable(columns))
    except (KeyError, TypeError):
        columns = None
    if columns is None or not set(map(type, records)) <= {dict}:
        for i, record in enumerate(records):
            for field in fields:
                if not (isinstance(record, dict)
                        and isinstance(record.get(field), str)):
                    raise ValidationError(f"{key}[{i}]: expected an object "
                                          f"with a string {field!r}")
    return records, columns


def import_olog(data: dict) -> FiniteCategory:
    """Rebuild a finite category from an olog export.

    Objects keep their exported order; identities are re-synthesized.  Each
    morphism's data is its olog id (``id:<object id>`` for an identity), so
    ``find`` returns it.  A record without its string ids or with a label
    that is not a string, dangling arrow endpoints, unknown ids and
    inconsistent composition triples are rejected with the offending
    field or ids.

    The columns are filled by morphism index: each triple's result goes
    to ``columns[left][position[right]]``, and then the unit laws fill
    every pair with an identity.  The ids and endpoints of all triples
    are checked as whole columns; only when a check fails are the
    triples scanned in order, for the first bad one.
    """
    from .category import FiniteCategory
    records, _ = _records(data, "objects", ("id",))
    arrows, (arrow_ids, srcs, dsts) = _records(data, "arrows",
                                               ("id", "src", "dst"))
    _, triples = _records(data, "compositions", ("left", "right", "result"))
    for key, listed in (("objects", records), ("arrows", arrows)):
        for i, record in enumerate(listed):
            if not isinstance(record.get("label", ""), str):
                raise ValidationError(f"{key}[{i}]: expected a string "
                                      f"'label'")
    objects = {o["id"]: o.get("label", o["id"]) for o in records}
    if len(objects) != len(records):
        raise ValidationError("duplicate object ids")
    identity_keys = [f"id:{oid}" for oid in objects]
    # (src, dst, label, data): the identities in object order, then the arrows
    morphisms = [(oid, oid, key, key)
                 for oid, key in zip(objects, identity_keys)]
    known = set(identity_keys)
    for a, aid, s, d in zip(arrows, arrow_ids, srcs, dsts):
        if s not in objects or d not in objects:
            raise ValidationError(
                f"arrow {aid} has dangling endpoint {s}->{d}")
        if aid in known:
            raise ValidationError(f"duplicate arrow id {aid}")
        known.add(aid)
        morphisms.append((s, d, a.get("label", aid), aid))

    def fill(cat) -> list[list]:
        mors, index, identity = cat.morphisms, cat.morphism_of, cat.identity
        into, position = cat.into, cat.position
        src = [m.src for m in mors]
        dst = [m.dst for m in mors]
        try:
            left, right, result = (list(map(index.__getitem__, ids))
                                   for ids in triples)
        except KeyError:
            _first_bad_triple(triples, index, src, dst)
        # r = m2 o m1 needs dst m1 = src m2, src r = src m1, dst r = dst m2
        at = list(map(position.__getitem__, right))
        if not (list(map(dst.__getitem__, right))
                == list(map(src.__getitem__, left))
                and list(map(src.__getitem__, result))
                == list(map(src.__getitem__, right))
                and list(map(dst.__getitem__, result))
                == list(map(dst.__getitem__, left))):
            _first_bad_triple(triples, index, src, dst)
        columns = [[None] * len(into[x]) for x in src]
        for m2, k, r in zip(left, at, result):
            columns[m2][k] = r
        # a pair listed twice keeps its last result; any other is a conflict
        if list(map(getitem, map(columns.__getitem__, left), at)) != result:
            _first_bad_triple(triples, index, src, dst)
        # the unit laws override a listed triple with an identity in it
        for x, e in enumerate(identity):
            columns[e] = list(into[x])
        for m, x in enumerate(src):
            columns[m][position[identity[x]]] = m
        for m2, column in enumerate(columns):
            if None in column:
                m1 = into[src[m2]][column.index(None)]
                raise ValidationError(f"missing composition "
                                      f"({mors[m2].data},{mors[m1].data})")
        return columns

    cat = FiniteCategory(objects, morphisms, identity_keys, fill)
    cat.check_category_laws()
    return cat


def _first_bad_triple(triples, index, src, dst):
    """Raise for the first triple, in listed order, that names an unknown
    id, has endpoints that do not compose, or conflicts with a triple
    before it."""
    seen: dict[tuple[int, int], int] = {}
    for ids in zip(*triples):
        for mid in ids:
            if mid not in index:
                raise ValidationError(
                    f"identity of unknown object {mid[3:]}"
                    if mid.startswith("id:")
                    else f"composition names unknown arrow {mid}")
        m2, m1, r = map(index.__getitem__, ids)
        if dst[m1] != src[m2] or (src[r], dst[r]) != (src[m1], dst[m2]):
            raise ValidationError("inconsistent composition triple "
                                  "({},{})->{}".format(*ids))
        if seen.setdefault((m2, m1), r) != r:
            raise ValidationError("conflicting composition triple for "
                                  "({},{})".format(*ids[:2]))


_SCALARS = {str, int, float, bool, type(None)}


def olog_json(data: dict) -> str:
    """The package's one JSON text form (olog exports, ``quiver`` output,
    fixture files): exactly ``json.dumps(data, indent=2, sort_keys=True)``
    plus a final newline, where ``export_olog``'s compositions view is
    written as the list of its records.

    ``json.dumps`` with ``indent`` runs the pure-Python encoder, so the
    shapes that make up an olog are written here with the C string
    encoder: dicts with ``str`` keys, an export's compositions straight
    from the category's columns, and lists of flat records (dicts
    sharing one ``str`` key set, scalar values only, such as a loaded
    olog), encoded column by column.  Every other value is handed to
    ``json.dumps`` and indented, which is exact because JSON text holds
    no raw newline in a string.
    """
    return _json_text(data, "", ()) + "\n"


def _json_text(value, pad: str, path: tuple[int, ...]) -> str:
    """``value`` as JSON text nested at indent ``pad``.  ``path`` holds the
    ids of the dicts being written, so a cycle is left to ``json.dumps``,
    which reports it."""
    if type(value) is _Compositions:
        return value._text(pad)
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
            # the triple columns of a loaded olog repeat each id many
            # times: encode each one once; mostly distinct ids and labels
            # are faster one by one.  On the C2xS4 orbit olog's records
            # (minimum of 15 runs, same text either way), the dict on
            # every column slows the arrows from 0.6 to 0.9-1.3 ms, and
            # one encode per value slows the compositions from 21 to
            # 28-30 ms.
            distinct = set(column)
            encode = (dict(zip(distinct, map(_encode_str, distinct)))
                      .__getitem__ if 2 * len(distinct) < n else _encode_str)
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
    """Write-temp-then-rename so partial output is never observed.  The
    file gets the mode ``open(path, "w")`` would leave: an existing
    file's own, else 0o666 less the umask."""
    import tempfile
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".phasecat-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file at 0o600
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            # the umask is read by setting it
            umask = os.umask(0o022)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
