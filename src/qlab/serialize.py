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

Output iteration orders are canonical (by label), so serialization is
deterministic and roundtrips to an equal value.  `dumps` is the one writer of
output text: it writes the bytes of json.dumps(doc, indent=2, sort_keys=True)
in one pass.
"""

from __future__ import annotations

import operator
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from typing import Any

from .errors import QlabError
from .exact import IntRow, OperatorSubspace, format_over, parse_over, span_of_rows
from .finrel import BoolRelation, FiniteSet
from .matr import MatrInstance, MatrMorphism, MatrObject
from .quantale import FiniteQuantale, QuantaleError, VRelation, quantale_from_tables


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


# -- sets and boolean relations ---------------------------------------------------

def set_to_json(a: FiniteSet) -> dict:
    return {"labels": [_label_to_json(x) for x in a.labels]}


def set_from_json(doc: dict) -> FiniteSet:
    if not isinstance(doc, dict) or not isinstance(doc.get("labels"), list):
        raise SerializeError("a set needs a 'labels' list")
    return FiniteSet(tuple(_label_from_json(x) for x in doc["labels"]))


def relation_to_json(r: BoolRelation) -> dict:
    return {
        "source": set_to_json(r.source),
        "target": set_to_json(r.target),
        "pairs": sorted(
            [[_label_to_json(a), _label_to_json(b)] for a, b in r.pairs], key=repr
        ),
    }


def _entries(doc: dict, key: str, fields: tuple[str, ...]) -> list:
    """doc[key], checked to be a list of lists of len(fields) items each: a
    string entry must not be unpacked as its characters."""
    shape = "[" + ", ".join(fields) + "]"
    entries = doc[key]
    if not isinstance(entries, list):
        raise SerializeError(f"'{key}' must be a list of {shape} lists")
    for e in entries:
        if not isinstance(e, list) or len(e) != len(fields):
            raise SerializeError(f"entry {e!r} of '{key}' is not a {shape} list")
    return entries


def relation_from_json(doc: dict) -> BoolRelation:
    try:
        src = set_from_json(doc["source"])
        tgt = set_from_json(doc["target"])
        pairs = frozenset(
            (_label_from_json(a), _label_from_json(b))
            for a, b in _entries(doc, "pairs", ("source", "target"))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed relation: {exc}") from exc
    for a, b in pairs:
        if a not in src or b not in tgt:
            raise SerializeError(f"pair {(a, b)!r} outside source x target")
    return BoolRelation(src, tgt, pairs)


# -- quantales and valued relations ---------------------------------------------------

def quantale_to_json(q: FiniteQuantale) -> dict:
    elems = list(q.elements)
    return {
        "elements": elems,
        "mul": [[q.mul(a, b) for b in elems] for a in elems],
        "join": [[q.join(a, b) for b in elems] for a in elems],
        "unit": q.unit,
    }


def quantale_from_json(doc: dict) -> FiniteQuantale:
    try:
        elems = [_label_from_json(x) for x in doc["elements"]]
        unit = _label_from_json(doc["unit"])
        mul = _table_from_json(elems, doc["mul"], "mul")
        join = None
        leq = None
        if "join" in doc:
            join = _table_from_json(elems, doc["join"], "join")
        if "leq" in doc:
            rows = _square(doc["leq"], len(elems), "leq")
            leq = {
                (a, b)
                for i, a in enumerate(elems)
                for j, b in enumerate(elems)
                if rows[i][j]
            }
        return quantale_from_tables(elems, mul, unit, join=join, leq=leq)
    except (KeyError, TypeError, IndexError, QuantaleError) as exc:
        raise SerializeError(f"malformed quantale: {exc}") from exc


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


def vrelation_to_json(r: VRelation) -> dict:
    vals = []
    bottom = r.quantale.bottom
    for a in r.source.labels:
        for b in r.target.labels:
            v = r.at(a, b)
            if v != bottom:
                vals.append([_label_to_json(a), _label_to_json(b), _label_to_json(v)])
    return {
        "source": set_to_json(r.source),
        "target": set_to_json(r.target),
        "values": vals,
    }


def vrelation_from_json(q: FiniteQuantale, doc: dict) -> VRelation:
    try:
        src = set_from_json(doc["source"])
        tgt = set_from_json(doc["target"])
        values = {
            (_label_from_json(a), _label_from_json(b)): _label_from_json(v)
            for a, b, v in _entries(doc, "values", ("source", "target", "value"))
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed valued relation: {exc}") from exc
    for (a, b), v in values.items():
        if a not in src or b not in tgt:
            raise SerializeError(f"pair {(a, b)!r} outside source x target")
        if v not in q.elements:
            raise SerializeError(f"value {v!r} is not a quantale element")
    return VRelation(q, src, tgt, values)


# -- quantum sets and quantum relations -----------------------------------------------

def qset_to_json(x: MatrObject) -> dict:
    return {
        "atoms": [
            {"label": _label_to_json(lab), "dim": d} for lab, d in x.components
        ]
    }


def qset_from_json(inst: MatrInstance, doc: dict) -> MatrObject:
    try:
        comps = [(_label_from_json(a["label"]), a["dim"]) for a in doc["atoms"]]
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed quantum set: {exc}") from exc
    for _, d in comps:
        if type(d) is not int:
            raise SerializeError(f"atom dimension {d!r} is not a JSON integer")
        if d <= 0:
            raise SerializeError("atom dimensions must be positive")
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


def qrelation_from_json(inst: MatrInstance, doc: dict) -> MatrMorphism:
    try:
        src = qset_from_json(inst, doc["source"])
        tgt = qset_from_json(inst, doc["target"])
        blocks = {}
        for blk in doc["blocks"]:
            a = _label_from_json(blk["from"])
            b = _label_from_json(blk["to"])
            da, db = src.base_obj(a), tgt.base_obj(b)
            vecs = [_vector_from_json(rows, db, da, (a, b)) for rows in blk["basis"]]
            if vecs:
                blocks[(a, b)] = span_of_rows(da, db, vecs)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SerializeError):
            raise
        raise SerializeError(f"malformed quantum relation: {exc}") from exc
    return inst.mor(src, tgt, blocks)


# -- instance dispatch -------------------------------------------------------------

def morphism_to_json(kind: str, inst: MatrInstance, f: MatrMorphism) -> dict:
    from .matr import matr_to_relation, matr_to_vrelation

    if kind == "rel":
        return relation_to_json(matr_to_relation(f))
    if kind == "vrel":
        return vrelation_to_json(matr_to_vrelation(inst, f))
    if kind == "qrel":
        return qrelation_to_json(f)
    raise SerializeError(f"unknown instance kind {kind!r}")


def morphism_from_json(kind: str, inst: MatrInstance, doc: dict) -> MatrMorphism:
    from .matr import relation_to_matr, vrelation_to_matr

    if kind == "rel":
        return relation_to_matr(inst, relation_from_json(doc))
    if kind == "vrel":
        return vrelation_to_matr(
            inst, vrelation_from_json(inst.base.quantale, doc)
        )
    if kind == "qrel":
        return qrelation_from_json(inst, doc)
    raise SerializeError(f"unknown instance kind {kind!r}")


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
