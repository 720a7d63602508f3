"""JSON serialization roundtrips for sets, quantales, and all three relation kinds."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab.exact import ExactMatrix, format_scalar, parse_scalar, span_of
from qlab.finrel import BoolRelation, fset
from qlab.matr import qrel_instance, rel_instance, relation_to_matr, vrel_instance, vrelation_to_matr
from qlab.qrel import qmor, qset
from qlab.quantale import BUILTIN_QUANTALES, VRelation, lukasiewicz3_quantale
from qlab.serialize import (
    SerializeError,
    dumps,
    qrelation_from_json,
    qrelation_to_json,
    qset_from_json,
    qset_to_json,
    quantale_from_json,
    quantale_to_json,
    relation_from_json,
    relation_to_json,
    set_from_json,
    set_to_json,
    vrelation_from_json,
    vrelation_to_json,
)

L3 = lukasiewicz3_quantale()
REL = rel_instance()
VREL = vrel_instance(L3)
QREL = qrel_instance()


def test_set_roundtrip():
    s = fset("a", "b", "c")
    assert set_from_json(set_to_json(s)) == s


def test_relation_roundtrip():
    a = fset("a", "b")
    x = fset("x", "y")
    r = relation_to_matr(REL, BoolRelation(a, x, frozenset([("a", "x"), ("b", "y")])))
    doc = relation_to_json(r)
    assert relation_from_json(REL, doc) == r


def test_relation_rejects_foreign_pairs():
    doc = {
        "source": {"labels": ["a"]},
        "target": {"labels": ["x"]},
        "pairs": [["a", "nope"]],
    }
    with pytest.raises(SerializeError):
        relation_from_json(REL, doc)


def test_quantale_roundtrip_all_builtins():
    for name, q in BUILTIN_QUANTALES.items():
        doc = quantale_to_json(q)
        back = quantale_from_json(doc)
        assert back == q, name


def test_quantale_from_leq_matrix():
    doc = quantale_to_json(BUILTIN_QUANTALES["bool"])
    els = doc["elements"]
    doc2 = dict(doc)
    del doc2["join"]
    doc2["leq"] = [
        [1 if BUILTIN_QUANTALES["bool"].leq(a, b) else 0 for b in els] for a in els
    ]
    assert quantale_from_json(doc2) == BUILTIN_QUANTALES["bool"]


def test_vrelation_roundtrip():
    a = fset("a", "b")
    x = fset("x")
    r = vrelation_to_matr(VREL, VRelation(L3, a, x, {("a", "x"): "1/2", ("b", "x"): "0"}))
    doc = vrelation_to_json(r)
    assert vrelation_from_json(VREL, doc) == r


def test_qset_roundtrip():
    x = qset([("u", 2), ("v", 1)])
    assert qset_from_json(QREL, qset_to_json(x)) == x


def test_qrelation_roundtrip():
    x = qset([("u", 2)])
    y = qset([("v", 1)])
    r = qmor(x, y, {("u", "v"): span_of(ExactMatrix.from_ints([[1, 2]]))})
    doc = qrelation_to_json(r)
    assert qrelation_from_json(QREL, doc) == r


def test_qrelation_scalar_entries():
    x = qset([("u", 2)])
    m = ExactMatrix.from_ints([[1, -1], [0, 2]])
    r = qmor(x, x, {("u", "u"): span_of(m)})
    doc = qrelation_to_json(r)
    entries = doc["blocks"][0]["basis"][0]
    assert all(isinstance(e, str) for row in entries for e in row)
    assert qrelation_from_json(QREL, doc) == r


def test_qrelation_rejects_bad_shape():
    doc = {
        "source": {"atoms": [{"label": "u", "dim": 2}]},
        "target": {"atoms": [{"label": "v", "dim": 1}]},
        "blocks": [{"from": "u", "to": "v", "basis": [[["1", "0"], ["0", "1"]]]}],
    }
    with pytest.raises(SerializeError):
        qrelation_from_json(QREL, doc)


def test_dumps_deterministic():
    x = qset([("u", 2)])
    r = qmor(x, x, {("u", "u"): span_of(ExactMatrix.from_ints([[1, 0], [0, 1]]))})
    a = dumps(qrelation_to_json(r))
    b = dumps(qrelation_to_json(r))
    assert a == b
    json.loads(a)


# -- oracles for the integer qRel boundary -----------------------------------------
#
# qrelation_to_json prints each basis matrix straight from the canonical integer
# rows, and qrelation_from_json spans integer rows parsed from the strings.  The
# references are the renderings they replace: format_scalar of every entry of
# the unit-pivot basis, and the span of the matrices of parsed scalars.

def reference_basis_json(v):
    return [
        [[format_scalar(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]
        for m in v.basis
    ]


def reference_block(rows_list):
    return span_of(*[
        ExactMatrix.from_rows([[parse_scalar(t) for t in row] for row in rows])
        for rows in rows_list
    ])


_TEXTS = ("0", "0", "1", "-1", "i", "-i", "1+i", "2/4", "-2/3 i", "3/4-1/5 i",
          " 2 - i ", "+7", "12/8+6/4 i", "-9 i", "5/1")


@st.composite
def qrel_documents(draw):
    """A raw qRel document: atoms of dimension 1-3 and blocks spanned by a few
    matrices of scalar strings, not in canonical form."""
    def atoms(prefix):
        return [(f"{prefix}{k}", draw(st.integers(1, 3))) for k in range(draw(st.integers(1, 2)))]

    src, tgt = atoms("a"), atoms("b")
    blocks = []
    for a, da in src:
        for b, db in tgt:
            if draw(st.booleans()):
                blocks.append({"from": a, "to": b, "basis": [
                    [[draw(st.sampled_from(_TEXTS)) for _ in range(da)] for _ in range(db)]
                    for _ in range(draw(st.integers(1, 3)))
                ]})
    return {
        "source": {"atoms": [{"label": a, "dim": d} for a, d in src]},
        "target": {"atoms": [{"label": b, "dim": d} for b, d in tgt]},
        "blocks": blocks,
    }


@settings(max_examples=150, deadline=None)
@given(qrel_documents())
def test_qrelation_json_matches_the_rational_rendering(doc):
    f = qrelation_from_json(QREL, doc)
    want = {}
    for blk in doc["blocks"]:
        v = reference_block(blk["basis"])
        if not v.is_zero():
            want[(blk["from"], blk["to"])] = v
    assert dict(f.blocks) == want
    out = qrelation_to_json(f)
    assert [blk["basis"] for blk in out["blocks"]] == [reference_basis_json(v) for _, v in f.blocks]
    assert qrelation_from_json(QREL, out) == f


# -- the output writer ---------------------------------------------------------------
#
# dumps writes every command's output.  Its oracle is the stdlib encoder it
# replaces, on documents of the value types qlab emits.

_json_text = st.one_of(
    st.text(),
    # quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té∂\U0001d11e\ud800 ab')),
)
_json_scalars = st.one_of(
    st.none(), st.booleans(), _json_text,
    st.integers(), st.integers(-10**60, 10**60),
)
_json_documents = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_json_text, max_size=5),
        st.dictionaries(_json_text, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_json_documents)
def test_dumps_writes_the_bytes_of_the_stdlib_encoder(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    "", "é\x00\"\\", 0, -(10**80), True, False, None, [], {}, [[]], {"": {}},
    [[["1", "0"], ["-2/3 i", "0"]]], {"b": [1, "x", None], "a": [True, []]},
])
def test_dumps_matches_the_stdlib_encoder_on_edge_documents(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    1.5, [0.0], ["a", 1.5], {"a": {"b": float("nan")}},
    {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {True: 1},
    ("a",), {"a": ("b",)}, {"a"}, b"a",
])
def test_dumps_rejects_values_qlab_never_emits(doc):
    with pytest.raises(TypeError):
        dumps(doc)
