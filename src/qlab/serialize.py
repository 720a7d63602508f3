"""Canonical JSON forms for every value the command line reads or writes.

Formats:
  finite set      {"labels": [...]}
  relation        {"source": set, "target": set, "pairs": [[a, b], ...]}
  valued relation {"source": set, "target": set, "values": [[a, b, v], ...]}
                  each entry a list of exactly two or three items
  quantale        {"elements": [...], "mul": [[...]], "unit": v,
                   "join": [[...]]} or "leq" as a 0/1 matrix, row-major
                  each table a list of one list per element
  quantum set     {"atoms": [{"label": ..., "dim": n}, ...]}
  quantum rel     {"source": qset, "target": qset,
                   "blocks": [{"from": a, "to": b, "basis": [matrix, ...]}]}
                  with each matrix a list of rows of exact scalar strings

Every morphism is read straight into a `MatrMorphism` with `inst.mor` and
written from its blocks.  A relation's sets become biproducts of the tensor
unit, as `matr.set_to_object` builds them, and each pair the unit's identity
cell (`matr.quote_pairs`), in any instance; a valued relation's value is its
quantale element.
`morphism_from_json` and `morphism_to_json` pick the format by the
instance's name.  A reader checks every field it reads and catches nothing,
so a fault in the library is never reported as bad input.  The module
imports neither `finrel` nor `quantale`: `set_from_json` and
`quantale_from_json` load them when first called, and the morphism readers
need neither.

Output iteration orders are canonical (by label), so serialization is
deterministic and roundtrips to an equal value.  `dumps` is the one writer of
output text: it writes the bytes of json.dumps(doc, indent=2, sort_keys=True)
in one pass.
"""

from __future__ import annotations

import operator
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from typing import TYPE_CHECKING, Any

from .errors import QlabError
from .exact import IntRow, OperatorSubspace, format_over, parse_over, span_of_rows
from .matr import MatrInstance, MatrMorphism, MatrObject, quote_pairs

if TYPE_CHECKING:
    from .finrel import FiniteSet
    from .quantale import FiniteQuantale


class SerializeError(QlabError):
    pass


_LABEL_DEPTH = 32


def _label_from_json(x: Any, depth: int = 0):
    """A label is a JSON string, a JSON integer, or a list of labels, nested at
    most _LABEL_DEPTH lists deep."""
    if isinstance(x, list):
        if depth == _LABEL_DEPTH:
            raise SerializeError(f"label nested more than {_LABEL_DEPTH} lists deep")
        return tuple(_label_from_json(y, depth + 1) for y in x)
    if isinstance(x, str) or type(x) is int:
        return x
    raise SerializeError(f"label {x!r} is not a JSON string, integer or list")


def _label_to_json(x: Any):
    if isinstance(x, tuple):
        return [_label_to_json(y) for y in x]
    return x


def _field(doc: Any, key: str, what: str) -> Any:
    """doc[key], for a JSON object doc that has the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise SerializeError(f"malformed {what}: no {key!r} field")
    return doc[key]


def _list(doc: Any, key: str, what: str) -> list:
    """doc[key], checked to be a list: a string must not be read as its
    characters."""
    x = _field(doc, key, what)
    if not isinstance(x, list):
        raise SerializeError(f"malformed {what}: {key!r} must be a list")
    return x


def _entries(doc: Any, key: str, fields: tuple[str, ...], what: str) -> list:
    """doc[key], checked to be a list of lists of len(fields) items each: a
    string entry must not be unpacked as its characters."""
    shape = "[" + ", ".join(fields) + "]"
    entries = _field(doc, key, what)
    if not isinstance(entries, list):
        raise SerializeError(f"malformed {what}: '{key}' must be a list of {shape} lists")
    for e in entries:
        if not isinstance(e, list) or len(e) != len(fields):
            raise SerializeError(f"malformed {what}: entry {e!r} of '{key}' is not a {shape} list")
    return entries


# -- sets, relations and valued relations ----------------------------------------------

def set_to_json(a: FiniteSet | MatrObject) -> dict:
    return {"labels": [_label_to_json(x) for x in a.labels]}


def _set_labels(doc: Any) -> tuple:
    """The labels of a set document, refused when one repeats."""
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise SerializeError("a set needs a 'labels' list")
    labels = tuple(_label_from_json(x) for x in doc["labels"])
    if len(set(labels)) != len(labels):
        raise SerializeError("duplicate labels")
    return labels


def set_from_json(doc: Any) -> FiniteSet:
    from .finrel import FiniteSet  # loaded by the first set document

    return FiniteSet(_set_labels(doc))


def _quoted_sets(inst: MatrInstance, doc: Any, what: str) -> tuple[MatrObject, MatrObject]:
    """The source and target sets of a relation document, quoted in inst as
    biproducts of the tensor unit, with no `FiniteSet` built."""
    unit = inst.base.unit_obj()
    return tuple(inst.obj([(lab, unit) for lab in _set_labels(_field(doc, key, what))])
                 for key in ("source", "target"))


def _pair(src: MatrObject, tgt: MatrObject, a: Any, b: Any) -> tuple:
    pair = (_label_from_json(a), _label_from_json(b))
    if pair[0] not in src.index or pair[1] not in tgt.index:
        raise SerializeError(f"pair {pair!r} outside source x target")
    return pair


def relation_to_json(f: MatrMorphism) -> dict:
    """The pairs of f's blocks, sorted by the repr of their JSON pair."""
    return {
        "source": set_to_json(f.source),
        "target": set_to_json(f.target),
        "pairs": sorted(
            [[_label_to_json(a), _label_to_json(b)] for (a, b), _ in f.blocks], key=repr
        ),
    }


def relation_from_json(inst: MatrInstance, doc: Any) -> MatrMorphism:
    """A boolean relation as a matrix of identity cells of the tensor unit."""
    src, tgt = _quoted_sets(inst, doc, "relation")
    return quote_pairs(inst, src, tgt, [
        _pair(src, tgt, a, b) for a, b in _entries(doc, "pairs", ("source", "target"), "relation")
    ])


def vrelation_to_json(f: MatrMorphism) -> dict:
    """f's values in label order; bottom, which has no block, is left out."""
    cells = f.block_map()
    return {
        "source": set_to_json(f.source),
        "target": set_to_json(f.target),
        "values": [
            [_label_to_json(a), _label_to_json(b), _label_to_json(cells[(a, b)])]
            for a in f.source.labels for b in f.target.labels if (a, b) in cells
        ],
    }


def vrelation_from_json(inst: MatrInstance, doc: Any) -> MatrMorphism:
    """A valued relation as the matrix of its values, in an instance over a
    quantale base."""
    elements = inst.base.quantale.elements
    src, tgt = _quoted_sets(inst, doc, "valued relation")
    blocks = {}
    for a, b, v in _entries(doc, "values", ("source", "target", "value"), "valued relation"):
        v = _label_from_json(v)
        if v not in elements:
            raise SerializeError(f"value {v!r} is not a quantale element")
        blocks[_pair(src, tgt, a, b)] = v
    return inst.mor(src, tgt, blocks)


# -- quantales ---------------------------------------------------------------------

def quantale_to_json(q: FiniteQuantale) -> dict:
    elems = list(q.elements)
    return {
        "elements": elems,
        "mul": [[q.mul(a, b) for b in elems] for a in elems],
        "join": [[q.join(a, b) for b in elems] for a in elems],
        "unit": q.unit,
    }


def quantale_from_json(doc: Any) -> FiniteQuantale:
    from .quantale import quantale_from_tables  # loaded by the first quantale document

    elems = [_label_from_json(x) for x in _list(doc, "elements", "quantale")]
    unit = _label_from_json(_field(doc, "unit", "quantale"))
    mul = _table_from_json(elems, _field(doc, "mul", "quantale"), "mul")
    join = _table_from_json(elems, doc["join"], "join") if "join" in doc else None
    leq = None
    if "leq" in doc:
        rows = _square(doc["leq"], len(elems), "leq")
        leq = set()
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                x = rows[i][j]
                if type(x) is not int or x not in (0, 1):
                    raise SerializeError(f"leq entry {x!r} is not the JSON integer 0 or 1")
                if x:
                    leq.add((a, b))
    return quantale_from_tables(elems, mul, unit, join=join, leq=leq)


def _square(rows: Any, n: int, what: str) -> list:
    """rows, checked to be an n x n list of lists: a string row must not be
    read as its characters."""
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows):
        raise SerializeError(f"{what} table must be a {n}x{n} list of lists")
    return rows


def _table_from_json(elems: list, rows: list, what: str) -> dict:
    _square(rows, len(elems), what)
    table = {}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            v = _label_from_json(rows[i][j])
            if v not in elems:
                raise SerializeError(f"{what} entry {v!r} is not an element")
            table[(a, b)] = v
    return table


# -- quantum sets and quantum relations -----------------------------------------------

def qset_to_json(x: MatrObject) -> dict:
    return {
        "atoms": [
            {"label": _label_to_json(lab), "dim": d} for lab, d in x.components
        ]
    }


def qset_from_json(inst: MatrInstance, doc: Any) -> MatrObject:
    comps = []
    for atom in _list(doc, "atoms", "quantum set"):
        label = _label_from_json(_field(atom, "label", "quantum set atom"))
        d = _field(atom, "dim", "quantum set atom")
        if type(d) is not int:
            raise SerializeError(f"atom dimension {d!r} is not a JSON integer")
        if d <= 0:
            raise SerializeError("atom dimensions must be positive")
        comps.append((label, d))
    return inst.obj(comps)


def _basis_to_json(v: OperatorSubspace) -> list:
    """The unit-pivot basis of v as matrices of scalar strings.  Entry k of the
    matrix of canonical row (re, im) with pivot column pc is
    (re[k] + im[k] i) / re[pc], and "0" where both parts are zero."""
    d = v.domain_dim
    out = []
    for (re, im), pc in zip(v.rows, v.pivots):
        den = re[pc]
        texts = [format_over(x, y, den) if x or y else "0" for x, y in zip(re, im)]
        out.append([texts[i:i + d] for i in range(0, len(texts), d)])
    return out


def _vector_from_json(rows: Any, c: int, d: int, key: tuple) -> IntRow:
    """A c x d basis matrix of scalar strings, as its row-major vectorization
    scaled to Gaussian integers over one common denominator."""
    if (not isinstance(rows, list) or len(rows) != c
            or any(not isinstance(row, list) or len(row) != d for row in rows)):
        raise SerializeError(f"basis matrix for block {key!r} must be {c}x{d}")
    parts = []
    for row in rows:
        for s in row:
            if not isinstance(s, str):
                raise SerializeError(f"scalar {s!r} is not a JSON string")
            parts.append(parse_over(s))
    den = lcm(*(e for _, _, e in parts))
    return [x * (den // e) for x, _, e in parts], [y * (den // e) for _, y, e in parts]


def qrelation_to_json(f: MatrMorphism) -> dict:
    blocks = []
    for (a, b), v in f.blocks:
        blocks.append(
            {
                "from": _label_to_json(a),
                "to": _label_to_json(b),
                "basis": _basis_to_json(v),
            }
        )
    return {
        "source": qset_to_json(f.source),
        "target": qset_to_json(f.target),
        "blocks": blocks,
    }


def qrelation_from_json(inst: MatrInstance, doc: Any) -> MatrMorphism:
    what = "quantum relation"
    src = qset_from_json(inst, _field(doc, "source", what))
    tgt = qset_from_json(inst, _field(doc, "target", what))
    blocks = {}
    for blk in _list(doc, "blocks", what):
        a = _label_from_json(_field(blk, "from", what))
        b = _label_from_json(_field(blk, "to", what))
        da, db = src.base_obj(a), tgt.base_obj(b)
        vecs = [_vector_from_json(rows, db, da, (a, b)) for rows in _list(blk, "basis", what)]
        if vecs:
            blocks[(a, b)] = span_of_rows(da, db, vecs)
    return inst.mor(src, tgt, blocks)


# -- instance dispatch: the format of each instance, by its name ---------------------

_READERS = {"rel": relation_from_json, "vrel": vrelation_from_json, "qrel": qrelation_from_json}
_WRITERS = {"rel": relation_to_json, "vrel": vrelation_to_json, "qrel": qrelation_to_json}


def morphism_from_json(inst: MatrInstance, doc: Any) -> MatrMorphism:
    return _READERS[inst.name](inst, doc)


def morphism_to_json(inst: MatrInstance, f: MatrMorphism) -> dict:
    return _WRITERS[inst.name](f)


# -- output text ---------------------------------------------------------------------

def dumps(doc: Any) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True), for a document
    made of dicts with str keys, lists, str, int, bool and None; any other
    value raises TypeError.  Strings go through the stdlib encoder's own
    escaping function, and a list of strings is written with one join."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(x: Any, nl: str, out: list) -> None:
    """Append the text of x to out; nl is a newline and x's indent."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is list:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        try:
            out.append("[" + inner + sep.join(map(_quote, x)) + nl + "]")
            return
        except TypeError:  # not a list of strings
            pass
        out.append("[" + inner)
        for i, y in enumerate(x):
            if i:
                out.append(sep)
            _write(y, inner, out)
        out.append(nl + "]")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for i, k in enumerate(sorted(x)):
            if i:
                out.append(sep)
            out.append(_quote(k) + ": ")  # TypeError if k is not a str
            _write(x[k], inner, out)
        out.append(nl + "}")
    elif x is None:
        out.append("null")
    elif t is bool:
        out.append("true" if x else "false")
    else:  # an int; operator.index raises TypeError on any other value
        out.append(repr(operator.index(x)))
