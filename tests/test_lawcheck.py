"""The law-suite runner: registry, determinism, rendering, and mutation sensitivity.

The mutation tests feed deliberately broken structures through the same
checkers the suites use, proving the suites can actually fail.
"""

import pytest

from qlab import core
from qlab.exact import ExactMatrix, span_of
from qlab.finrel import BoolRelation, fset
from qlab.lawcheck import (
    SUITES,
    available_suites,
    render_json,
    render_text,
    run_all,
    run_suite,
)
from qlab.matr import qrel_instance, rel_instance, relation_to_matr, set_to_object
from qlab.quantale import BUILTIN_QUANTALES

REL = rel_instance()
QREL = qrel_instance()


def test_every_kind_has_suites():
    for kind in ("rel", "vrel", "qrel"):
        names = available_suites(kind)
        assert len(names) >= 10, kind
        for n in names:
            assert n in SUITES


def test_run_all_rel_green():
    reports = run_all("rel", seed=0, samples=15)
    assert all(rep.ok for rep in reports), render_text(
        [rep for rep in reports if not rep.ok]
    )


def test_run_all_vrel_green_all_builtins():
    for name, q in BUILTIN_QUANTALES.items():
        reports = run_all("vrel", seed=0, quantale=q, samples=10)
        assert all(rep.ok for rep in reports), name


def test_run_all_qrel_green():
    reports = run_all("qrel", seed=0, samples=12)
    assert all(rep.ok for rep in reports), render_text(
        [rep for rep in reports if not rep.ok]
    )


def test_run_suite_deterministic():
    a = run_suite("compact", "qrel", seed=5, samples=10)
    b = run_suite("compact", "qrel", seed=5, samples=10)
    assert a.as_dict() == b.as_dict()


def test_run_suite_kind_mismatch():
    with pytest.raises(ValueError):
        run_suite("qrel-neg", "rel")
    with pytest.raises(ValueError):
        run_all("rel", suites=["nosuch"])


def test_render_text_counts():
    reports = run_all("rel", seed=0, samples=5, suites=["dagger", "order"])
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
    ker, incl = dagger_kernel([e])
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
