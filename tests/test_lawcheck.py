"""The law-suite runner: registry, determinism, rendering, and mutation sensitivity.

The mutation tests feed deliberately broken structures through the same
checkers the suites use, proving the suites can actually fail.
"""

import hashlib
import itertools
import json
import random
import types

import pytest

from qlab import core, lawcheck, serialize
from qlab.errors import QlabError
from qlab.exact import ExactMatrix, span_of
from qlab.finrel import BoolRelation, fset, relation_to_matr
from qlab.lawcheck import (
    SUITES,
    available_suites,
    make_context,
    render_json,
    render_text,
    run_all,
    run_suite,
)
from qlab.matr import (
    MatrInstance,
    MatrMorphism,
    qrel_instance,
    rel_instance,
    set_to_object,
    vrel_instance,
)
from qlab.quantale import (
    BUILTIN_QUANTALES,
    VRelation,
    quantale_from_tables,
    validate_quantale,
)

REL = rel_instance()
QREL = qrel_instance()


def test_every_kind_has_suites():
    for kind in ("rel", "vrel", "qrel"):
        names = available_suites(kind)
        assert len(names) >= 10, kind
        for n in names:
            assert n in SUITES


def test_run_all_rel_green():
    reports = run_all("rel", seed=0)
    assert all(rep.ok for rep in reports), render_text(
        [rep for rep in reports if not rep.ok]
    )


def test_run_all_vrel_green_all_builtins():
    for name, q in BUILTIN_QUANTALES.items():
        reports = run_all("vrel", seed=0, quantale=q)
        assert all(rep.ok for rep in reports), name


# The chain 0 < m < 1 with unit m: commutative and unital but not integral,
# since its unit is not its top.
_C3 = ("0", "m", "1")
C3_NON_INTEGRAL = quantale_from_tables(
    _C3,
    {(a, b): "0" if "0" in (a, b) else b if a == "m" else a if b == "m" else "1"
     for a in _C3 for b in _C3},
    "m",
    join={(a, b): max(a, b, key=_C3.index) for a in _C3 for b in _C3},
)


def test_run_all_vrel_green_on_a_non_integral_quantale():
    assert validate_quantale(C3_NON_INTEGRAL).ok
    assert not C3_NON_INTEGRAL.is_affine()
    reports = run_all("vrel", seed=0, quantale=C3_NON_INTEGRAL)
    assert all(rep.ok for rep in reports), render_text(
        [rep for rep in reports if not rep.ok]
    )


def test_run_all_qrel_green():
    reports = run_all("qrel", seed=0)
    assert all(rep.ok for rep in reports), render_text(
        [rep for rep in reports if not rep.ok]
    )


def _endorelations():
    """Every rel endorelation on 3 elements, every vrel one on 2 elements over
    chain3 and over the non-integral chain, and the qrel draws on [a:2] and
    [a:2, b:1] at seeds 0-3."""
    three = set_to_object(REL, fset("0", "1", "2"))
    yield from ((REL, r) for r in REL.enum_hom(three, three))
    for q in (BUILTIN_QUANTALES["chain3"], C3_NON_INTEGRAL):
        inst = vrel_instance(q)
        two = set_to_object(inst, fset("0", "1"))
        yield from ((inst, r) for r in inst.enum_hom(two, two))
    for seed in range(4):
        ctx = make_context("qrel", seed)
        for x in ctx.objects[1:]:
            yield from ((QREL, r) for r in ctx.homs(x, x, 120))


def test_flag_predicates_agree_with_endorelation_class():
    counts = {"preorder": 0, "PER": 0}
    total = 0
    for inst, r in _endorelations():
        flags = core.endorelation_class(inst, r)
        assert core.is_preorder(inst, r) == ("preorder" in flags), r
        assert core.is_per(inst, r) == ("PER" in flags), r
        counts["preorder"] += "preorder" in flags
        counts["PER"] += "PER" in flags
        total += 1
    assert total == 512 + 2 * 81 + 4 * 2 * 120
    assert all(counts.values()), counts


def test_flag_predicates_need_an_endomorphism():
    f = REL.enum_hom(set_to_object(REL, fset("0")), set_to_object(REL, fset("0", "1")))[0]
    for predicate in (core.is_preorder, core.is_per, core.endorelation_class):
        with pytest.raises(core.StructureError):
            predicate(REL, f)


def test_run_suite_deterministic():
    a = run_suite("compact", "qrel", seed=5)
    b = run_suite("compact", "qrel", seed=5)
    assert a.as_dict() == b.as_dict()


def test_run_suite_kind_mismatch():
    with pytest.raises(QlabError):
        run_suite("qrel-neg", "rel")
    with pytest.raises(QlabError):
        run_all("rel", suites=["nosuch"])
    # run_all reports a QlabError out of a running suite as a failed law; a
    # suite named for the wrong instance is refused before any suite runs.
    with pytest.raises(QlabError, match="does not apply to instance 'rel'"):
        run_all("rel", suites=["dagger", "qrel-kernel"])


def test_render_text_counts():
    reports = run_all("rel", seed=0, suites=["dagger", "order"])
    text = render_text(reports)
    assert "laws hold" in text
    doc = render_json(reports)
    assert doc["ok"] is True
    assert {s["suite"] for s in doc["suites"]} == {"dagger", "order"}


# -- mutation sensitivity -----------------------------------------------------------

def test_broken_dagger_detected():
    # a non-symmetric relation is not its own dagger: the checker must say no
    a = fset("a", "b")
    r = relation_to_matr(REL, BoolRelation(a, a, frozenset([("a", "b")])))
    assert not REL.equal(REL.dagger(r), r)


def test_map_checker_rejects_non_map():
    a = fset("a", "b")
    r = relation_to_matr(REL, BoolRelation(a, a, frozenset([("a", "a"), ("a", "b")])))
    assert not core.is_map(REL, r)


def test_corrupted_kernel_inclusion_fails_laws():
    from qlab.qrel import dagger_kernel, qmor, qset

    x = qset([("x", 2)])
    e = qmor(x, qset([("u", 1)]), {("x", "u"): span_of(ExactMatrix.from_ints([[1, 0]]))})
    ker, incl = dagger_kernel(QREL, [e])
    # corrupt the inclusion: replace the kernel column with a non-kernel one
    bad = QREL.mor(ker, x, {
        (ker.components[0][0], "x"): span_of(ExactMatrix.from_ints([[1], [0]]))
    })
    assert QREL.equal(QREL.compose(e, incl), QREL.bottom(ker, e.target))
    assert not QREL.equal(QREL.compose(e, bad), QREL.bottom(ker, e.target))


def test_corrupted_snake_detected():
    # dropping the counit from the snake leaves a composite that is not the identity
    x = QREL.obj([("x", 2)])
    xd = QREL.dual_obj(x)
    half = QREL.compose(
        QREL.tensor_mor(QREL.identity(x), QREL.eta(x)),
        QREL.dagger(QREL.runit(x)),
    )
    assert half.source == x
    assert not half.target == x


def test_failure_witnesses_recorded():
    from qlab.lawcheck import LawResult

    res = LawResult("demo", "a law")
    res.record(True, "fine")
    res.record(False, "broken input")
    assert not res.ok
    assert res.checked == 2
    assert "broken input" in res.failures


def test_callable_witness_is_rendered_only_for_kept_failures():
    from qlab.lawcheck import LawResult

    calls = []

    def witness():
        calls.append(1)
        return f"failure {len(calls)}"

    res = LawResult("demo", "a law")
    res.record(True, witness)
    assert calls == []
    for _ in range(7):
        res.record(False, witness)
    assert res.checked == 8 and len(calls) == 5
    assert res.failures == [f"failure {k}" for k in range(1, 6)]
    res.record(False, lambda: "")
    assert res.failures[-1] == "failure 5"


def test_witness_parts_are_joined_by_kind():
    from qlab.lawcheck import LawResult

    a = fset("a", "b")
    f = relation_to_matr(REL, BoolRelation(a, a, frozenset([("a", "b")])))
    res = LawResult("demo", "a law")
    res.record(False, f, "text", lambda: "called", ("a", 1), "'quoted'")
    res.record(False)
    res.record(False, lambda: "")
    assert res.failures == [
        f"{f!r};text;called;('a', 1);'quoted'",
        "unnamed counterexample",
        "unnamed counterexample",
    ]


def test_pad_records_one_pass_only_when_nothing_was_checked(monkeypatch):
    from qlab import lawcheck

    monkeypatch.setattr(lawcheck, "SUITES", {})

    @lawcheck.suite("demo", ("rel",))
    def demo(ctx, law):
        empty = law("padded, never checked", pad=True)
        failed = law("padded, one failed check", pad=True)
        passed = law("padded, one passing check", pad=True)
        bare = law("not padded, never checked")
        failed.record(False, "w")
        passed.record(True)
        assert (empty.checked, bare.checked) == (0, 0)  # padding comes after the body

    assert lawcheck.SUITES == {"demo": (demo, ("rel",))}
    laws = demo(make_context("rel", 0))
    assert [(r.law, r.checked, r.ok, r.failures) for r in laws] == [
        ("padded, never checked", 1, True, []),
        ("padded, one failed check", 1, False, ["w"]),
        ("padded, one passing check", 1, True, []),
        ("not padded, never checked", 0, False, []),
    ]
    assert {r.suite for r in laws} == {"demo"}


@pytest.mark.parametrize("kind", ["rel", "qrel"])
def test_filtered_draws_filter_homs_in_draw_order(kind, monkeypatch):
    ctx, ref = make_context(kind, 1), make_context(kind, 1)
    x, y, _ = ctx.some_objects(3)
    assert ctx.maps(x, y, 30) == [f for f in ref.homs(x, y, 30) if core.is_map(ref.inst, f)]
    found = [r for r in ref.homs(y, y, 60) if core.is_preorder(ref.inst, r)]
    assert [p.order for p in ctx.preorders(y, 60, 2)] == found[:2]
    assert ctx.rng.random() == ref.rng.random()
    monkeypatch.setattr(core, "is_preorder", lambda inst, r: False)
    assert [p.order for p in ctx.preorders(y, 10, 2)] == [ctx.inst.identity(y)]


def test_quote_full_law_compares_the_homset_with_the_image(monkeypatch):
    # Claim three scalars for rel: the quoted image is still the whole homset,
    # so "full exactly when there are two scalars" must now fail.
    scalars = MatrInstance.scalars
    monkeypatch.setattr(MatrInstance, "scalars", lambda self: [*scalars(self)] * 2)
    full = next(r for r in run_suite("quote", "rel").results if r.law.startswith("quoting is full"))
    assert (full.checked, full.failures) == (1, ["unnamed counterexample"])


def test_forced_failure_renders_the_eager_witness(monkeypatch):
    # suite_composition draws some_objects(3), then homs(x, y, 12), and records
    # repr(f) for each f when id o f = f fails.
    monkeypatch.setattr(MatrInstance, "equal", lambda self, f, g: False)
    ctx = make_context("rel", 0)
    x, y, _ = ctx.some_objects(3)
    fs = ctx.homs(x, y, 12)
    unit_l = next(r for r in SUITES["composition"][0](make_context("rel", 0))
                  if r.law == "id o f = f")
    assert unit_l.checked == len(fs)
    assert unit_l.failures == [repr(f) for f in fs[:5]]


# sha256 of the reports of every suite of rel, vrel over chain4 and qrel at seed
# 0, run once with MatrInstance.equal answering False and once with
# MatrInstance.leq and MatrInstance.composite_leq answering False (a suite that
# then raises is recorded by the exception's name).  Lazy witnesses must render
# to the same text as eager ones: 563 failure witnesses.
FORCED_FAILURE_SHA256 = "b31ddc81f15b54b0c168d008027da6eb87cda34f4c0ce384e2e46294a23c7ac1"


def test_forced_failure_reports_are_pinned(monkeypatch):
    out = []
    for broken in (("equal",), ("leq", "composite_leq")):
        with monkeypatch.context() as patch:
            for method in broken:
                patch.setattr(MatrInstance, method, lambda self, *mors: False)
            for kind, q in (("rel", None), ("vrel", BUILTIN_QUANTALES["chain4"]), ("qrel", None)):
                for name in available_suites(kind):
                    try:
                        out.append(run_suite(name, kind, 0, q).as_dict())
                    except Exception as exc:
                        out.append([name, type(exc).__name__])
    text = json.dumps(out, sort_keys=True)
    assert sum(len(law["failures"]) for rep in out if isinstance(rep, dict)
               for law in rep["laws"]) == 563
    assert hashlib.sha256(text.encode()).hexdigest() == FORCED_FAILURE_SHA256


# sha256 of the serialised morphisms `Context.homs(x, y, 60)` draws for every pair of
# the qrel context objects, in order, at seeds 0-3.  The report digests in
# tests/test_cli.py see only counts, so these are what pin the draws themselves.
DRAW_SHA256 = {
    0: (
        "c7a5930233e309094dd78d39e26d5c23ce3524bfc31fbc94fe972e83118b9bee",
        "cbef5410822775d53bd8d529ba858faa1c80c71588329d8810c6112f05ab79bf",
        "eb44255dfdf2756945198df2880d80d6b1233aa9d9b808196f6404be341a5d61",
        "31a5a04ae70148b0184c7927df40222cf759ea645cb485f40883d2484fc9302a",
        "ce5fe49fceac8e9605c42ef02149c07cbda2d1f303ad1c9f1d150afe57cc0523",
        "29cc3c6d857f0790a79665e16a4b868bfca1650859c7bbeb4a3248e46fbc87f6",
        "4961798ae1275af74ca42aa667d6b942918eb329dfe81eee3165e787381a1301",
        "b539d75347bb7f9e92c11db2ce39f5a7112aad32a428ee2fdedf43fd18c01929",
        "a6be55c91697bfefa5980b2a128f3336702eddf6e4f30ae9d6a4fb8f9c16e2ba",
    ),
    1: (
        "c7a5930233e309094dd78d39e26d5c23ce3524bfc31fbc94fe972e83118b9bee",
        "ff742641b84932749daf88310276175ce44f91209dfb2a6a7c86fa9db8ecc36e",
        "92648bd1ea9c373925f81bd23f7075e87ad18e0c8dd08432c7b9eb3d129929d4",
        "a837514561dbc581e9badbb6816e6ea35764120352ccb813c9536582913b590e",
        "073695a84bb7b7e6b2088f54ad7bccd357a2272684928e14712eb3d7c0bef0e1",
        "c05a97ac179c05ce67875cc098c13923fd1a2e2d04b17d1615a91e1aaee6ebe6",
        "33928aaa68dd33b609676ad60f2b034628b123f94a8e72ce7a03ae7e35ffb275",
        "cbabad5a849290b7c9410696c64d0d88a9f004f8a7071efc5e30e20a73159854",
        "d28ac4c1ac5d4db4ffbdfe1abe218e915c96ad10b1aec337f58a0570f599efbe",
    ),
    2: (
        "c7a5930233e309094dd78d39e26d5c23ce3524bfc31fbc94fe972e83118b9bee",
        "58ec798026fa3e03ca0c60e07518aed22faecd0ef96dcc7bd56025b3880fe3b1",
        "f8060d71e9c898cd8ba202706bb771136bf7d316d90e8367d603c2c1cbf29aa4",
        "a9992a5d7c109c652e05399fe97727bf00de0ac27d0a12cfb1851fc0937e928d",
        "46c94e7b4065511d6910414e461fb634939cc966e37d2baa6c7b29f02eaff09f",
        "fc3ff9e9693b8273e155512a1e841a89a5192e760a10f46b71b66983fe7a8e4a",
        "55245f50d3800a630b53216dc118b4df58be94b7b43762ee7be870ce26fca4cd",
        "16f07c8cae94de0890f5c7a17c6d0e2b792e3ed8fb3e7efdf8a7e8b84c1b5960",
        "c8e88319be773541f380db54567be25ed08a3ec55488a5174fee7ad8dc6f58fd",
    ),
    3: (
        "c7a5930233e309094dd78d39e26d5c23ce3524bfc31fbc94fe972e83118b9bee",
        "37198233c569b5e6f2d58e7a14221e39bebed2bc4c4c9628a73415ebe58140db",
        "a8f6c37fbe3b4c70a9eea7da0c0810d8fa714cb4c1196e9354131fda9a54df64",
        "6a3cd0ed9bbb01e5814b57e86b69c21a2d86740db82f827552235fb160c064a4",
        "a58639e7970cfa51b2f3c363c1b4bab08dfdca0deed2b3733621e8dc6bd041f0",
        "51746875df0b3aa0d437fdd402dde91429efd4ea6019a991e197af2132e6af2e",
        "a53c41ed7d30236820d8f85f23bd182b9e2563ffbc459e00747357b5807e5ed4",
        "b89d2e7f0651785629437f74087bb77dc35612747dcd9b4691219d6997b6ef14",
        "c024139f58cab680ac831f42cc12e62e33f0c018f87157b5a4808b363bbf9e15",
    ),
}


@pytest.mark.parametrize("seed", list(DRAW_SHA256))
def test_qrel_draws_are_pinned(seed):
    ctx = make_context("qrel", seed)
    got = []
    for x, y in itertools.product(ctx.objects, repeat=2):
        doc = serialize.dumps([serialize.qrelation_to_json(f) for f in ctx.homs(x, y, 60)])
        got.append(hashlib.sha256(doc.encode()).hexdigest())
    assert tuple(got) == DRAW_SHA256[seed]


# sha256 of the serialised morphisms `Context.homs(x, y, 60)` draws for every pair of
# the context objects, in order, hashed as one stream per instance and seed:
# rel, and vrel over each builtin quantale, at seeds 0-3.
CLASSICAL_DRAW_SHA256 = {
    "rel": (
        "73e4fb00030e9a18ac49c1096eaf0205b62be60e61d41a9a491cb37115724701",
        "5cdc7ffcb2bbaacc92ee5869797b65af58b2a354f07bc60571ac0bc19ba51374",
        "602bcead79314bef2fadf8571682a2840c4d12379653dfcf615c7ad96bf4d904",
        "662e9962416c148caacdec9495d3a4fa6945845b95768eefb4b92a06ed0daac0",
    ),
    "vrel-bool": (
        "b3af6cd1d9f3d224d440e3d08915da8136679e7476889d7216a3274080cf71c3",
        "beaeb52ef9fd33fe139ca2484b65b3a74f6fd52156590fe6ed47a1b2c0933ee2",
        "88a860c81c7e1590ea2fa65c70578ee0c40963b911f8ba826dd6f209d2d83104",
        "ec467f1e7a6de91d5b14801dd147f04313beda82c1dcd174d46bace03f3e0203",
    ),
    "vrel-chain3": (
        "560fa20eab3c27638f77cd30cf34848a4caed970ce56a870d5bf2fa15ba34113",
        "dd069a436e46ccc1dc7dc0d1dc347df2d332bc20eee052434e65f84d94145f17",
        "d03c07a715b2c372ddbc1d7a78464013cad201f206cc1c809b0cfad58a718d84",
        "152c5a1c47ad8b65acd0dabe6da286c6189b2f4e6aa4b049eee1dd0cf4a41195",
    ),
    "vrel-chain4": (
        "967b81fd1e622a207961f73a636148255218477ebffd1335f5d69dc1a4e7f7fd",
        "d56fdbacb172a5350c08595c3bb8edcc1f37d4cbf9530ac104d26bdf81220575",
        "04e8b5ca63db3882b3d935474fa37aaef73a8b474553d1f7b2bf7fb4aa64b116",
        "7fee76722153b1bc380d6598d7a71c584884a72166849eed486fbb11abf4d074",
    ),
    "vrel-lukasiewicz3": (
        "59608a240b21eef97b047b2c9b51e75a53e472042d8b5e454b2149318dde7e24",
        "e63d48b169b89a2a1149ac7cb0a8c9e4f5b80e9e5ac7add498b0ffe130c6054a",
        "4c4e00ebec7a8f3570102487936f2fb5df368de0f73b6e87760912facd1b2a67",
        "f224da5deb3a98078dcf8e592ff9f9c760ea95de2e8970709d561183d2b9e3d8",
    ),
}


@pytest.mark.parametrize("name", list(CLASSICAL_DRAW_SHA256))
def test_classical_draws_are_pinned(name):
    kind, _, qname = name.partition("-")
    quantale = BUILTIN_QUANTALES[qname] if qname else None
    got = []
    for seed in range(4):
        ctx = make_context(kind, seed, quantale)
        h = hashlib.sha256()
        for x, y in itertools.product(ctx.objects, repeat=2):
            docs = [serialize.morphism_to_json(ctx.inst, f) for f in ctx.homs(x, y, 60)]
            h.update(serialize.dumps(docs).encode())
        got.append(h.hexdigest())
    assert tuple(got) == CLASSICAL_DRAW_SHA256[name]


# sha256 of every value that the RNG of each suite returns, suite by suite in
# registry order, at seed 0: rel, vrel over each builtin quantale, and qrel.
# The draw digests above cover `Context.homs` alone; these also pin what the
# suites draw themselves (the `rng.sample` calls of vrel-oracle and v-power,
# the pairs `hom_pairs` samples).
SUITE_DRAW_SHA256 = {
    "rel": "3ff4d5757224af389e0cb7346777a3497c112a0b2d381a8eee9b358879a1ecdd",
    "vrel-bool": "f9b5805719f19dcdb9a37d3566aae12bfbedee2a7594f910f607a935dfaffa23",
    "vrel-chain3": "3441b5f1ae65e7d7e08565c1f3821bcd1c924e59558f123fa0d7b908379fb362",
    "vrel-chain4": "6871c639d09296b63f702a8d2ec8bd25ccb43fe9ecabe9eaa7528c5badf0e742",
    "vrel-lukasiewicz3": "c849ff474ff22c619e87b980bb555728e972ea69b3c386943c6a300956e2c9cd",
    "qrel": "679db816b73e2ff61980ea8dbb2598e0c22b9e98f604a0ff59f328c9575df6d9",
}


def _draw_text(value) -> str:
    """A drawn value as text that shows all of it: a morphism's repr names
    only its shape, a valued relation's repr spells out its quantale."""
    if isinstance(value, MatrMorphism):
        return repr((value.source, value.target, value.blocks))
    if isinstance(value, VRelation):
        return repr((value.source.labels, value.target.labels, tuple(value.values.items())))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_draw_text, value)) + "]"
    return repr(value)


@pytest.mark.parametrize("name", list(SUITE_DRAW_SHA256))
def test_suite_draws_are_pinned(name, monkeypatch):
    draws = []

    class Recording(random.Random):
        """Records what randint, choice and sample return: the only RNG
        calls the suites make."""

        def randint(self, a, b):
            draws.append(super().randint(a, b))
            return draws[-1]

        def choice(self, seq):
            draws.append(super().choice(seq))
            return draws[-1]

        def sample(self, population, k, **kwargs):
            draws.append(super().sample(population, k, **kwargs))
            return draws[-1]

    monkeypatch.setattr(lawcheck, "random", types.SimpleNamespace(Random=Recording))
    kind, _, qname = name.partition("-")
    quantale = BUILTIN_QUANTALES[qname] if qname else None
    h = hashlib.sha256()
    for suite_name in available_suites(kind):
        draws.clear()
        run_suite(suite_name, kind, 0, quantale)
        h.update(f"{suite_name}:{len(draws)}\n".encode())
        for value in draws:
            h.update(_draw_text(value).encode() + b"\n")
    assert h.hexdigest() == SUITE_DRAW_SHA256[name]
