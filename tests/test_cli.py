"""The command-line interface: subcommands, exit codes, and deterministic output."""

import copy
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlab import cli, quantale, serialize
from qlab.cli import main
from qlab.exact import format_scalar, gq, parse_scalar
from qlab.matr import MatrInstance
from qlab.quantale import BUILTIN_QUANTALES

REL_DOC = json.dumps({
    "source": {"labels": ["a", "b"]},
    "target": {"labels": ["x", "y"]},
    "pairs": [["a", "x"], ["b", "y"]],
})

QREL_DOC = json.dumps({
    "source": {"atoms": [{"label": "u", "dim": 2}]},
    "target": {"atoms": [{"label": "v", "dim": 1}]},
    "blocks": [{"from": "u", "to": "v", "basis": [[["1", "0"]]]}],
})


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_rel_passes(capsys):
    code, out, _ = run_cli(["check", "--instance", "rel", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(s["ok"] for s in doc["suites"])


def test_check_suite_filter(capsys):
    code, out, _ = run_cli(
        ["check", "--instance", "rel", "--suite", "dagger", "--format", "text"], capsys
    )
    assert code == 0
    assert "dagger" in out


def test_check_deterministic(capsys):
    args = ["check", "--instance", "qrel", "--suite", "compact", "--seed", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_expression(capsys):
    code, out, _ = run_cli(
        ["compute", "--instance", "rel", "--load", f"r={REL_DOC}",
         "compose(dagger(r), r)"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["pairs"])) == [("a", "a"), ("b", "b")]


def test_compute_infix(capsys):
    code, out, _ = run_cli(
        ["compute", "--instance", "rel", "--load", f"r={REL_DOC}",
         "dagger(r) ∘ r"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["pairs"])) == [("a", "a"), ("b", "b")]


def test_compute_unknown_name_is_input_error(capsys):
    code, _, err = run_cli(
        ["compute", "--instance", "rel", "nosuch"], capsys
    )
    assert code == 2


def test_kernel_subcommand(capsys):
    code, out, _ = run_cli(["kernel", QREL_DOC], capsys)
    assert code == 0
    doc = json.loads(out)
    incl = doc["inclusion"]
    assert doc["kernel"]["atoms"][0]["dim"] == 1
    assert incl["blocks"][0]["basis"] == [[["0"], ["1"]]]


@pytest.mark.parametrize("instance", ["rel", "vrel"])
def test_kernel_rejects_classical_instances(instance, capsys):
    code, out, err = run_cli(["kernel", "--instance", instance, QREL_DOC], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1


def test_neg_boolean(capsys):
    code, out, _ = run_cli(["neg", "--instance", "rel", REL_DOC], capsys)
    assert code == 0
    doc = json.loads(out)
    assert ["a", "y"] in doc["pairs"]
    assert ["a", "x"] not in doc["pairs"]


def test_neg_qrel_involutive(capsys):
    code, out, _ = run_cli(["neg", "--instance", "qrel", QREL_DOC], capsys)
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_cli(["neg", "--instance", "qrel", json.dumps(first)], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(QREL_DOC)


def _one_atom_each_side(dim):
    return json.dumps({
        "source": {"atoms": [{"label": "u", "dim": dim}]},
        "target": {"atoms": [{"label": "v", "dim": dim}]},
        "blocks": [],
    })


@pytest.mark.parametrize("dim", [33, 60])
def test_neg_qrel_refuses_an_oversized_orthocomplement(dim, capsys):
    # The missing block complements to the full subspace, (dim*dim)**2 scalars,
    # above the 2**20 bound from dim 33 on; it must be refused before it is built.
    start = time.perf_counter()
    code, out, err = run_cli(["neg", "--instance", "qrel", _one_atom_each_side(dim)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "1048576" in err


def test_neg_qrel_below_the_bound(capsys):
    code, out, err = run_cli(["neg", "--instance", "qrel", _one_atom_each_side(20)], capsys)
    assert code == 0 and err == ""
    assert len(json.loads(out)["blocks"][0]["basis"]) == 20 * 20


def _identity_each_side(dim):
    eye = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return json.dumps({
        "source": {"atoms": [{"label": "u", "dim": dim}]},
        "target": {"atoms": [{"label": "v", "dim": dim}]},
        "blocks": [{"from": "u", "to": "v", "basis": [eye]}],
    })


def test_star_qrel_refuses_oversized_cells(tmp_path):
    # At dim 20 star's cells would hold 400 * 400 * (400 + 400) scalars, above
    # the 2**20 bound; built, they ran 33 s and peaked at 3.9 GB.
    path = tmp_path / "f.json"
    path.write_text(_identity_each_side(20))
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", "compute", "--instance", "qrel",
         "--load", f"f={path}", "star(f)"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "128000000" in proc.stderr and "1048576" in proc.stderr


def test_star_qrel_below_the_bound(capsys):
    # dim 8: 64 * 64 * (64 + 64) scalars, under the bound; the transpose of
    # span{I} is span{I}.
    code, out, err = run_cli(["compute", "--instance", "qrel", "--load",
                              f"f={_identity_each_side(8)}", "star(f)"], capsys)
    assert code == 0 and err == ""
    (block,) = json.loads(out)["blocks"]
    assert (block["from"], block["to"]) == ("v", "u")
    assert block["basis"] == json.loads(_identity_each_side(8))["blocks"][0]["basis"]


def test_neg_vrel_rejected(capsys):
    code, _, err = run_cli(
        ["neg", "--instance", "vrel", "--quantale", "lukasiewicz3", REL_DOC], capsys
    )
    assert code == 2


def test_power_rel(capsys):
    code, out, _ = run_cli(
        ["power", "--instance", "rel", json.dumps({"labels": ["x", "y"]})], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["power"]["labels"]) == 4


def test_power_vrel(capsys):
    code, out, _ = run_cli(
        ["power", "--instance", "vrel", "--quantale", "chain3",
         json.dumps({"labels": ["x"]})],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["power"]["labels"]) == 3


def test_power_qrel(capsys):
    code, out, _ = run_cli(
        ["power", "--instance", "qrel",
         json.dumps({"atoms": [{"label": "u", "dim": 2}]})],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert "omega" in doc


def test_embed_into_qrel(capsys):
    code, out, _ = run_cli(["embed", "--instance", "qrel", REL_DOC], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {"label": "a", "dim": 1} in doc["source"]["atoms"]


def test_embed_into_vrel(capsys):
    code, out, _ = run_cli(
        ["embed", "--instance", "vrel", "--quantale", "lukasiewicz3", REL_DOC], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert ["a", "x", "1"] in doc["values"]


def test_builtin_quantale_unknown(capsys):
    code, _, _ = run_cli(
        ["check", "--instance", "vrel", "--quantale", "nosuch"], capsys
    )
    assert code == 2


def test_malformed_json_is_input_error(capsys):
    code, _, _ = run_cli(["neg", "--instance", "rel", "{not json"], capsys)
    assert code == 2


def test_unknown_subcommand_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def _load_tracing():
    """bench/tracing.py, loaded by path: it patches `qlab.cli.cmd_*` in place."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qlab_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cached_parser_calls_handlers_patched_after_it_was_built(capsys):
    argv = ["compute", "--instance", "rel", "--load", f"r={REL_DOC}", "dagger(r) ∘ r"]
    first = run_cli(argv, capsys)
    assert first[0] == 0
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert run_cli(argv, capsys) == first
        assert run_cli(argv, capsys) == first
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("cli.cmd_compute") == 2


def test_bad_usage_after_a_good_call_still_exits_2(capsys):
    assert run_cli(["neg", "--instance", "rel", REL_DOC], capsys)[0] == 0
    code, out, err = run_cli(["neg", "--instance", "nosuch", REL_DOC], capsys)
    assert code == 2 and not out and "invalid choice" in err
    assert run_cli(["frobnicate"], capsys)[0] == 2
    assert run_cli(["neg", "--instance", "rel", REL_DOC], capsys)[0] == 0


def test_a_broken_order_fails_laws_instead_of_aborting(monkeypatch, capsys):
    # With leq answering False no order is a preorder, so `orders.preordered`
    # raises inside the order suites; each is reported as one failed law.
    monkeypatch.setattr(MatrInstance, "leq", lambda self, f, g: False)
    expected = {"rel": ["downsets", "orders", "orders-structure"],
                "vrel": ["orders", "orders-structure"],
                "qrel": ["orders", "orders-structure"]}
    for instance, suites in expected.items():
        code, out, err = run_cli(["check", "--instance", instance], capsys)
        assert code == 1 and not err
        aborted = {rep["suite"]: rep["laws"] for rep in json.loads(out)["suites"]
                   if rep["laws"][0]["law"] == "the suite runs to the end"}
        assert sorted(aborted) == suites
        for laws in aborted.values():
            assert laws == [{
                "suite": laws[0]["suite"], "law": "the suite runs to the end",
                "checked": 1, "ok": False,
                "failures": ["OrderError: the order is not a preorder: id <= r and r o r <= r"],
            }]


_SET_DOC = json.dumps({"labels": ["x"]})
_QUANTALE_DOC = json.dumps({"elements": ["0", "1"], "mul": [["0", "0"], ["0", "1"]],
                            "join": [["0", "1"], ["1", "1"]], "unit": "1"})
_COMPUTE_REL = ["compute", "--instance", "rel", "--load", f"f={REL_DOC}", "dagger(f)"]


@pytest.mark.parametrize("error, owner, name, argv", [
    (KeyError, MatrInstance, "dagger", _COMPUTE_REL),
    (ValueError, MatrInstance, "dagger", _COMPUTE_REL),
    # One function each reader calls, for each of the five readers.
    (KeyError, serialize, "_set_labels", ["neg", "--instance", "rel", REL_DOC]),
    (KeyError, serialize, "_set_labels",
     ["compute", "--instance", "vrel", "--load",
      'f={"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "values": []}', "dagger(f)"]),
    (KeyError, serialize, "_label_from_json",
     ["power", "--instance", "qrel", '{"atoms": [{"label": "u", "dim": 2}]}']),
    (KeyError, serialize, "span_of_rows", ["neg", "--instance", "qrel", QREL_DOC]),
    (KeyError, quantale, "quantale_from_tables",
     ["power", "--instance", "vrel", "--quantale", _QUANTALE_DOC, _SET_DOC]),
], ids=["KeyError", "ValueError", "relation", "valued-relation", "quantum-set",
        "quantum-relation", "quantale"])
def test_a_lookup_bug_in_the_library_is_not_reported_as_bad_input(
        error, owner, name, argv, monkeypatch, capsys):
    # The morphism layer indexes label dicts directly, so a KeyError there is
    # a library fault: it must not exit 2 as if the input were malformed.  Nor
    # may a ValueError that is not one of qlab's own refusals, nor a fault
    # inside a reader of input documents.
    def broken(*args, **kwargs):
        raise error("lost label")

    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(error, match="lost label"):
        main(argv)
    assert capsys.readouterr().err == ""


def test_star_refuses_the_full_relation_on_30_elements(capsys):
    # 12 * 30 * 30 * (30 + 900) charged scalars; built, its cells ran for
    # seconds and peaked near 350 MB.
    labels = list(range(30))
    doc = json.dumps({"source": {"labels": labels}, "target": {"labels": labels},
                      "pairs": [[i, j] for i in labels for j in labels]})
    start = time.perf_counter()
    code, out, err = run_cli(["compute", "--instance", "rel", "--load", f"f={doc}",
                              "star(f)"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "10044000" in err and "1048576" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["neg", "--instance", "rel", REL_DOC, "--out", str(target)], capsys
    )
    assert code == 0
    assert json.loads(target.read_text())["pairs"]


def test_zero_denominator_scalar_is_input_error(tmp_path):
    doc = json.loads(QREL_DOC)
    doc["blocks"][0]["basis"] = [[["1/0", "0"]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", "compute", "--instance", "qrel",
         "--load", f"f={bad}", "dagger(f)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "zero denominator" in proc.stderr


def _nested(depth, leaf):
    return "[" * depth + leaf + "]" * depth


@pytest.mark.parametrize("command, doc, message", [
    (["power", "--instance", "rel", "{path}"], '{"labels": [' + _nested(900, '"x"') + "]}",
     "label nested more than 32 lists deep"),
    (["compute", "--instance", "qrel", "--load", "f={path}", "dagger(f)"],
     QREL_DOC.replace('"label": "u"', '"label": ' + _nested(900, '"u"'), 1),
     "label nested more than 32 lists deep"),
    (["neg", "--instance", "rel", "{path}"], _nested(100_000, ""), "nested too deeply"),
], ids=["power-label", "qrel-atom-label", "deep-array"])
def test_deeply_nested_input_is_input_error(tmp_path, command, doc, message):
    path = tmp_path / "deep.json"
    path.write_text(doc)
    argv = [arg.format(path=path) for arg in command]
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and message in proc.stderr


_A = '{"source": {"labels": ["a"]}, "target": {"labels": ["a"]}, "pairs": [["a", "a"]]}'
_TOO_DEEP = "error: expression nested too deeply to evaluate"


def _labels(n):
    return json.dumps({"labels": [f"l{k}" for k in range(n)]})


@pytest.mark.parametrize("argv, message", [
    (["check", "--instance", "rel", "--suite", "nosuch"], "error: unknown suite 'nosuch'"),
    (["check", "--instance", "rel", "--suite", "qrel-kernel"],
     "error: suite 'qrel-kernel' does not apply to instance 'rel'"),
    (["power", "--instance", "rel", "{tmp}/latin1.json"],
     "error: 'utf-8' codec can't decode byte 0xe9"),
    pytest.param(["power", "--instance", "rel", "{tmp}/long-int.json"],
                 "error: Exceeds the limit (4300 digits) for integer string conversion",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer string limit before 3.10.7")),
    pytest.param(["neg", "--instance", "qrel", "{tmp}/long-scalar.json"],
                 "error: scalar numeral longer than 4300 digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer string limit before 3.10.7")),
    (["neg", "--instance", "rel", "--out", "{tmp}/missing/out.json", _A],
     "error: [Errno 2] No such file or directory"),
    (["compute", "--instance", "rel", "--load", f"f={_A}", "(" * 3000 + "f" + ")" * 3000],
     _TOO_DEEP),
    (["compute", "--instance", "rel", "--load", f"f={_A}",
      "dagger(" * 3000 + "f" + ")" * 3000], _TOO_DEEP),
    (["compute", "--instance", "rel", "--load", f"f={_A}", "∘".join(["f"] * 20_000)],
     _TOO_DEEP),
    (["neg", "--instance", "qrel", "{tmp}/unicode-scalar.json"],
     "error: malformed scalar string '\u0663/\u0662'"),
    (["power", "--instance", "rel", _labels(15)],
     "error: power of 15 labels would build 491520 membership cells, above the bound 262144"),
    (["power", "--instance", "vrel", "--quantale", "chain3", _labels(10)],
     "error: power of 10 labels would build 5904900 scalars, above the bound 262144"),
    (["power", "--instance", "vrel", "--quantale", "chain4", _labels(7)],
     "error: power of 7 labels would build 802816 scalars, above the bound 262144"),
    # A relation document's labels are checked without building a FiniteSet,
    # a set document's by building one: a repeat is refused alike.
    (["embed", "--instance", "qrel", _A.replace('["a"]}, "pairs"', '["a", "a"]}, "pairs"')],
     "error: duplicate labels\n"),
    (["compute", "--instance", "vrel", "--load",
      'f={"source": {"labels": [1, 1]}, "target": {"labels": ["b"]}, "values": []}', "f"],
     "error: duplicate labels\n"),
    (["power", "--instance", "rel", '{"labels": [["b"], ["b"]]}'], "error: duplicate labels\n"),
], ids=["unknown-suite", "inapplicable-suite", "not-utf8", "long-integer", "long-scalar",
        "out-in-missing-dir", "deep-parens", "deep-dagger", "long-chain", "unicode-scalar",
        "rel-power-too-large", "vrel-power-too-large", "vrel-chain4-power-too-large",
        "relation-duplicate-labels", "valued-relation-duplicate-labels",
        "set-duplicate-labels"])
def test_refusal_exits_2_with_one_line(tmp_path, argv, message):
    (tmp_path / "latin1.json").write_bytes('{"labels": ["é"]}'.encode("latin-1"))
    (tmp_path / "long-int.json").write_text('{"labels": [' + "1" * 5000 + "]}")
    for name, scalar in (("long-scalar", "1" * 5000), ("unicode-scalar", "\u0663/\u0662")):
        doc = json.loads(QREL_DOC)
        doc["blocks"][0]["basis"] = [[[scalar, "0"]]]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("quantale, largest", [
    (None, 14), ("chain3", 7), ("lukasiewicz3", 7), ("chain4", 6),
], ids=["rel", "vrel-chain3", "vrel-lukasiewicz3", "vrel-chain4"])
def test_power_bound_lets_the_largest_set_through(quantale, largest):
    # |P(X)| |X| is 2^14 14 = 229376 cells on rel; |V^X| |X|^2 is
    # 3^7 49 = 107163 scalars over three values and 4^6 36 = 147456 over
    # four, all within 2^18; one label more is not.
    values = 2 if quantale is None else len(BUILTIN_QUANTALES[quantale].elements)
    doc = json.loads(_labels(largest))
    valued = quantale is not None
    assert len(cli._bounded_power_base(doc, values, valued)) == largest
    with pytest.raises(cli.CliError, match="above the bound 262144"):
        cli._bounded_power_base(json.loads(_labels(largest + 1)), values, valued)


def test_power_rel_runs_at_the_bound(tmp_path):
    out = tmp_path / "power.json"
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", "power", "--instance", "rel",
                           "--out", str(out), _labels(14)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    with out.open() as fh:
        assert fh.read(64).startswith('{\n  "membership"')


@pytest.mark.parametrize("where, value, message", [
    ("scalar", 0.5, "is not a JSON string"),
    ("scalar", 1, "is not a JSON string"),
    ("dim", True, "is not a JSON integer"),
    ("dim", "2", "is not a JSON integer"),
    ("dim", 2.0, "is not a JSON integer"),
    ("dim", 1.5, "is not a JSON integer"),
    ("dim", 0, "must be positive"),
])
def test_mistyped_qrel_field_is_input_error(where, value, message, capsys):
    doc = json.loads(QREL_DOC)
    if where == "scalar":
        doc["blocks"][0]["basis"] = [[[value, "0"]]]
    else:
        doc["source"]["atoms"][0]["dim"] = value
    code, out, err = run_cli(
        ["compute", "--instance", "qrel", "--load", f"f={json.dumps(doc)}", "dagger(f)"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("end", ["from", "to"])
def test_qrel_block_with_unknown_label_is_input_error(end, capsys):
    doc = json.loads(QREL_DOC)
    doc["blocks"][0][end] = "nosuch"
    code, out, err = run_cli(
        ["compute", "--instance", "qrel", "--load", f"f={json.dumps(doc)}", "dagger(f)"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no component labelled 'nosuch'" in err


@pytest.mark.parametrize("label", [{"a": 1}, 1.5, True, None], ids=["dict", "float", "bool", "null"])
@pytest.mark.parametrize("document", ["set", "relation", "quantum set"])
def test_non_string_non_integer_label_is_input_error(document, label, capsys):
    if document == "set":
        argv = ["power", "--instance", "rel", json.dumps({"labels": [label, "b"]})]
    elif document == "relation":
        doc = json.loads(REL_DOC)
        doc["source"]["labels"][0] = label
        argv = ["neg", "--instance", "rel", json.dumps(doc)]
    else:
        doc = {"atoms": [{"label": label, "dim": 1}, {"label": "b", "dim": 2}]}
        argv = ["power", "--instance", "qrel", json.dumps(doc)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "is not a JSON string, integer or list" in err


def test_check_passes_on_a_non_integral_quantale(capsys):
    # The chain 0 < m < 1 with unit m: its unit is not its top.
    els = ["0", "m", "1"]
    doc = {
        "elements": els,
        "mul": [["0", "0", "0"], ["0", "m", "1"], ["0", "1", "1"]],
        "join": [[max(a, b, key=els.index) for b in els] for a in els],
        "unit": "m",
    }
    code, out, err = run_cli(
        ["check", "--instance", "vrel", "--quantale", json.dumps(doc), "--format", "json"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("basis", [
    # The kernel's squared column norms are near 2e18 and keep cofactors with
    # no prime factor below the trial-division bound 10**6.
    [[["999999937", "1000000007", "999999929"]]],
    # The kernel columns (x, y, 0, 0) and (0, 0, 1, 0) have squared norms
    # x^2 + y^2, the product of the first 20 primes 1 mod 4, and 1: every
    # representation of that product as a^2 + b^2 has a beyond 10**6.
    [[["-893540203220881136", "1260169942195344313", "0", "0"]], [["0", "0", "0", "1"]]],
], ids=["large-cofactor", "long-two-squares-search"])
def test_kernel_beyond_the_factoring_bound_is_input_error(basis):
    doc = json.loads(QREL_DOC)
    doc["source"]["atoms"][0]["dim"] = len(basis[0][0])
    doc["blocks"][0]["basis"] = basis
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", "kernel", json.dumps(doc)],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "bound 1000000" in proc.stderr


@pytest.mark.parametrize("instance", ["rel", "vrel"])
@pytest.mark.parametrize("labels", [5, "ab"], ids=["int", "str"])
def test_power_needs_a_labels_list(instance, labels):
    # A string is iterable: it must not be read as the set of its characters.
    proc = subprocess.run(
        [sys.executable, "-m", "qlab.cli", "power", "--instance", instance,
         json.dumps({"labels": labels})],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: a set needs a 'labels' list\n"


@pytest.mark.parametrize("argv, message", [
    (["neg", "--instance", "rel",
      '{"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "pairs": ["ab"]}'],
     "error: malformed relation: entry 'ab' of 'pairs' is not a [source, target] list\n"),
    (["compute", "--instance", "vrel", "--quantale", "chain3", "--load",
      'f={"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "values": ["ab2"]}',
      "dagger(f)"],
     "error: malformed valued relation: entry 'ab2' of 'values' is not a "
     "[source, target, value] list\n"),
    (["neg", "--instance", "rel",
      '{"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "pairs": {"ab": 1}}'],
     "error: malformed relation: 'pairs' must be a list of [source, target] lists\n"),
    (["compute", "--instance", "vrel", "--quantale", "chain3", "--load",
      'f={"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "values": [["a", "b"]]}',
      "dagger(f)"],
     "error: malformed valued relation: entry ['a', 'b'] of 'values' is not a "
     "[source, target, value] list\n"),
], ids=["rel-string-pair", "vrel-string-value", "rel-pairs-dict", "vrel-short-value"])
def test_relation_entries_must_be_lists_of_their_length(argv, message):
    # A string is iterable: "ab" must not be read as the pair (a, b).
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == message


@pytest.mark.parametrize("argv, message", [
    (["check", "--instance", "vrel", "--quantale",
      '{"elements": [], "mul": [], "join": [], "unit": "0"}'],
     "error: invalid quantale: ('no elements', ())\n"),
    (["compute", "--instance", "vrel", "--quantale",
      '{"elements": ["0"], "mul": [["0"]], "join": [["0"]], "unit": "1"}', "--load",
      'f={"source": {"labels": ["a"]}, "target": {"labels": ["b"]}, "values": []}',
      "dagger(f)"],
     "error: invalid quantale: ('unit outside elements', ('1',))\n"),
], ids=["no-elements", "unit-outside"])
def test_malformed_quantale_exits_2_with_one_line(argv, message):
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == message


@pytest.mark.parametrize("table, rows", [
    ("mul", ["00", "01"]), ("join", ["01", "11"]), ("leq", ["11", "01"]),
])
def test_quantale_table_rows_must_be_lists(table, rows):
    # A string is iterable: the row "01" must not be read as ["0", "1"].
    doc = {"elements": ["0", "1"], "mul": [["0", "0"], ["0", "1"]],
           "join": [["0", "1"], ["1", "1"]], "unit": "1", table: rows}
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", "power", "--instance", "vrel",
                           "--quantale", json.dumps(doc), '{"labels": ["a"]}'],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {table} table must be a 2x2 list of lists\n"


@pytest.mark.parametrize("option", [["--format", "text"], ["--seed", "7"]],
                         ids=["format", "seed"])
@pytest.mark.parametrize("argv", [
    ["compute", "--instance", "rel", "--load", f"f={REL_DOC}", "dagger(f)"],
    ["kernel", QREL_DOC],
    ["neg", "--instance", "rel", REL_DOC],
    ["power", "--instance", "rel", json.dumps({"labels": ["x"]})],
    ["embed", "--instance", "qrel", REL_DOC],
], ids=lambda argv: argv[0])
def test_only_check_takes_seed_and_format(argv, option, capsys):
    # These subcommands always print JSON and draw nothing, so the options
    # would be ignored: they are refused as usage errors instead.
    assert run_cli(argv, capsys)[0] == 0
    code, out, err = run_cli(argv[:1] + option + argv[1:], capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {option[0]}" in err


@pytest.mark.parametrize("spec", ["chain3", "nosuch", '{"elements": []}'],
                         ids=["builtin", "unknown", "malformed"])
@pytest.mark.parametrize("argv", [
    ["check", "--instance", "rel"],
    ["compute", "--instance", "qrel", "--load", f"f={QREL_DOC}", "dagger(f)"],
    ["neg", "--instance", "rel", REL_DOC],
    ["power", "--instance", "rel", json.dumps({"labels": ["x"]})],
    ["embed", "--instance", "rel", REL_DOC],
    ["embed", "--instance", "qrel", REL_DOC],
    ["kernel", QREL_DOC],
], ids=["check", "compute", "neg", "power", "embed-rel", "embed-qrel", "kernel"])
def test_quantale_outside_vrel_exits_2_with_one_line(argv, spec, capsys):
    # Only vrel reads a quantale, so elsewhere the option would be ignored.
    code, out, err = run_cli(argv[:1] + ["--quantale", spec] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == "error: --quantale applies only to --instance vrel\n"


_LOADED_SCRIPT = """\
import sys
import qlab.cli
seen = lambda: [m for m in ("qlab.lawcheck", "qlab.power") if m in sys.modules]
before = seen()
code = qlab.cli.main(sys.argv[1:])
print(code, before, seen(), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["compute", "--instance", "rel", "--load", f"f={REL_DOC}", "dagger(f)"], []),
    (["neg", "--instance", "qrel", QREL_DOC], []),
    (["kernel", QREL_DOC], []),
    (["power", "--instance", "rel", json.dumps({"labels": ["x"]})], []),
    (["embed", "--instance", "qrel", REL_DOC], []),
    (["check", "--instance", "rel", "--suite", "dagger"], ["qlab.lawcheck", "qlab.power"]),
], ids=["compute", "neg", "kernel", "power", "embed", "check"])
def test_only_check_loads_the_law_suites(argv, loaded):
    # Importing the CLI and running any other command never compiles or runs
    # the law suites, nor `power`, which only they read.
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.stderr == f"0 [] {loaded}\n"


_QLAB_LOADED_SCRIPT = """\
import json
import sys
import qlab.cli
qlab_modules = lambda: {m for m in sys.modules if m.split(".")[0] == "qlab"}
before = qlab_modules()
code = qlab.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(before), sorted(qlab_modules() - before)]), file=sys.stderr)
"""
_QSET_DOC = json.dumps({"atoms": [{"label": "u", "dim": 2}]})
_CLASSICAL = ["qlab.finrel", "qlab.quantale"]


@pytest.mark.parametrize("argv, loaded", [
    *[(["compute", "--instance", "qrel", "--load", f"f={QREL_DOC}", expr], [])
      for expr in ("dagger(f) ∘ f ∨ dagger(f) ∘ f ∧ dagger(f) ∘ f", "trace(dagger(f) ∘ f)",
                   "tensor(f, f)", "name(f)", "coname(f)", "star(f)", "sum(f, f)")],
    (["neg", "--instance", "qrel", QREL_DOC], []),
    (["kernel", QREL_DOC], []),
    (["power", "--instance", "qrel", _QSET_DOC], []),
    (["embed", "--instance", "qrel", REL_DOC], []),
    (["power", "--instance", "rel", json.dumps({"labels": ["x"]})], _CLASSICAL),
    (["power", "--instance", "vrel", "--quantale", "chain3", json.dumps({"labels": ["x"]})],
     _CLASSICAL),
], ids=["compute-lattice", "compute-trace", "compute-tensor", "compute-name",
        "compute-coname", "compute-star", "compute-sum", "neg-qrel", "kernel", "power-qrel",
        "embed-qrel", "power-rel", "power-vrel"])
def test_only_rel_and_vrel_load_the_classical_models(argv, loaded):
    # Neither importing the CLI nor running a qrel command compiles or runs
    # finrel or quantale; a qrel command imports no qlab module at all as it
    # runs, so no import cost moves from start-up into the command.
    proc = subprocess.run([sys.executable, "-c", _QLAB_LOADED_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=30)
    code, before, new = json.loads(proc.stderr)
    assert code == 0
    assert not set(_CLASSICAL) & set(before)
    assert new == loaded


def test_check_refuses_samples(capsys):
    # Every suite draws with its own caps, so a sample count would be ignored.
    code, out, err = run_cli(["check", "--instance", "rel", "--samples", "5"], capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --samples" in err


# -- malformed relations ----------------------------------------------------------
#
# Every malformed relation, valued relation or qRel document must exit 2 with
# one line on stderr, and every well-formed one exit 0 with nothing there; an
# uncaught exception fails the test.

FUZZ_BASE = {
    "source": {"atoms": [{"label": "u", "dim": 2}, {"label": ["v", 1], "dim": 1}]},
    "target": {"atoms": [{"label": "w", "dim": 2}]},
    "blocks": [
        {"from": "u", "to": "w", "basis": [[["1", "0"], ["i", "1/2"]], [["0", "1"], ["0", "0"]]]},
        {"from": ["v", 1], "to": "w", "basis": [[["1+i"], ["-2/3 i"]]]},
    ],
}
REL_FUZZ_BASE = {
    "source": {"labels": ["a", ["b", 1]]},
    "target": {"labels": ["x", "y"]},
    "pairs": [["a", "x"], [["b", 1], "y"]],
}
VREL_FUZZ_BASE = {
    "source": {"labels": ["a", ["b", 1]]},
    "target": {"labels": ["x", "y"]},
    "values": [["a", "x", "1"], [["b", 1], "y", "2"]],
}
SET_FUZZ_BASE = {"labels": ["a", ["b", 1], 2]}
QSET_FUZZ_BASE = {"atoms": [{"label": "u", "dim": 2}, {"label": ["v", 1], "dim": 1}]}
QUANTALE_FUZZ_BASE = {  # chain3
    "elements": ["0", "1", "2"],
    "mul": [["0", "0", "0"], ["0", "1", "1"], ["0", "1", "2"]],
    "join": [["0", "1", "2"], ["1", "1", "2"], ["2", "2", "2"]],
    "unit": "2",
}

_fuzz_scalars = st.sampled_from(["0", "1", "-i", "1/2", "2-i", "1/0", "", "x", "1/2i"])


def _fuzz_json(keys):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4, allow_nan=False)
        | _fuzz_scalars | st.text("uvw01/+-i ", max_size=5),
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
            st.sampled_from(keys), kids, max_size=3),
        max_leaves=8,
    )


_fuzz_labels = st.sampled_from(["a", "b", "x", "y", "0", "1", "2", "ab", "ax2"]) | st.integers(0, 2)
# Entries and entry lists of any small length, strings included.
_fuzz_entries = (st.lists(_fuzz_labels, max_size=4)
                 | st.lists(st.lists(_fuzz_labels, max_size=4), max_size=3) | _fuzz_labels)
# Per format: its base document, any JSON, and values of the format's own
# shape, right or not.
_FUZZ_FORMATS = {
    "qrel": (FUZZ_BASE, _fuzz_json(["atoms", "label", "dim", "from", "to", "basis", "x"]),
             # Matrices of scalar strings of any small shape, ragged ones included.
             st.lists(st.lists(_fuzz_scalars, max_size=3), max_size=3)),
    "rel": (REL_FUZZ_BASE, _fuzz_json(["labels", "source", "target", "pairs", "x"]),
            _fuzz_entries),
    "vrel": (VREL_FUZZ_BASE, _fuzz_json(["labels", "source", "target", "values", "x"]),
             _fuzz_entries),
    "set": (SET_FUZZ_BASE, _fuzz_json(["labels", "x"]), _fuzz_entries),
    "qset": (QSET_FUZZ_BASE, _fuzz_json(["atoms", "label", "dim", "x"]),
             _fuzz_labels | st.lists(_fuzz_labels, max_size=3)),
    # Tables of labels of any small shape, ragged ones and strings included.
    "quantale": (QUANTALE_FUZZ_BASE,
                 _fuzz_json(["elements", "mul", "join", "leq", "unit", "x"]), _fuzz_entries),
}


def _fuzz_paths(node, path=()):
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


def _fuzz_document(kind, data):
    """The format's base document with one or two parts replaced or deleted."""
    base, any_json, shaped = _FUZZ_FORMATS[kind]
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_fuzz_paths(doc)) or [None]))
        if path is None:
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["json", "shaped", "delete"]))
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(any_json if action == "json" else shaped)
    return json.dumps(doc)


def _assert_json_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("command", ["compute", "neg", "kernel", "power"])
@settings(max_examples=120, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_qrel_input_exits_2_with_one_line(command, data):
    text = _fuzz_document("qset" if command == "power" else "qrel", data)
    _assert_json_or_one_error_line({
        "compute": ["compute", "--instance", "qrel", "--load", f"f={text}", "dagger(f)"],
        "neg": ["neg", "--instance", "qrel", text],
        "kernel": ["kernel", text],
        "power": ["power", "--instance", "qrel", text],
    }[command])


_SET = json.dumps({"labels": ["a", "b"]})


@pytest.mark.parametrize("kind, command", [
    ("rel", "compute"), ("rel", "neg"), ("vrel", "compute"),
    ("set", "power-rel"), ("set", "power-vrel"), ("rel", "embed-vrel"), ("rel", "embed-qrel"),
    ("quantale", "power-vrel"), ("quantale", "embed-vrel"), ("quantale", "compute-vrel"),
])
@settings(max_examples=120, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_classical_input_exits_2_with_one_line(kind, command, data):
    text = _fuzz_document(kind, data)
    q = text if kind == "quantale" else "chain3"
    _assert_json_or_one_error_line({
        ("rel", "compute"): ["compute", "--instance", "rel", "--load", f"f={text}", "dagger(f)"],
        ("rel", "neg"): ["neg", "--instance", "rel", text],
        ("vrel", "compute"): ["compute", "--instance", "vrel", "--quantale", "chain3",
                              "--load", f"f={text}", "dagger(f)"],
        ("set", "power-rel"): ["power", "--instance", "rel", text],
        ("set", "power-vrel"): ["power", "--instance", "vrel", "--quantale", "chain3", text],
        ("rel", "embed-vrel"): ["embed", "--instance", "vrel", "--quantale", "chain3", text],
        ("rel", "embed-qrel"): ["embed", "--instance", "qrel", text],
        ("quantale", "power-vrel"): ["power", "--instance", "vrel", "--quantale", q, _SET],
        ("quantale", "embed-vrel"): ["embed", "--instance", "vrel", "--quantale", q, REL_DOC],
        ("quantale", "compute-vrel"): ["compute", "--instance", "vrel", "--quantale", q, "--load",
                                       f"f={json.dumps(VREL_FUZZ_BASE)}", "dagger(f)"],
    }[kind, command])


# sha256 of `qlab check --format json` per instance and seed: qrel at seeds 0-3
# (test ids 0-3), rel and vrel over each builtin quantale at seeds 0-3.  A change
# that alters reports on purpose must update these digests and say so.
REPORT_SHA256 = {
    "0": (["--instance", "qrel", "--seed", "0"],
          "461a119bc62e5b703bdab536a9b21dcc4413a4ffd318e7bcf53571b852e1b39b"),
    "1": (["--instance", "qrel", "--seed", "1"],
          "6336701b2ce60416728946a3ff973555296b479cf2e43a10fa879ecbe6d9ffa2"),
    "2": (["--instance", "qrel", "--seed", "2"],
          "9275ab0bb3908d70f24c5e1622a18a74ca3462ac42efe654a856963f1bd4a2f8"),
    "3": (["--instance", "qrel", "--seed", "3"],
          "fd3b34d7d986fc25cacee54da90b5f90a96aed3cbffdc68cc12990d96b2d6613"),
    "rel-0": (["--instance", "rel", "--seed", "0"],
              "7e41a4f1ae6eba8d27b24265abba3ef0ea40b8658333ee6dd0331a329c6f9940"),
    "vrel-bool-0": (["--instance", "vrel", "--quantale", "bool", "--seed", "0"],
                    "c18a92af5c01ebc52d8b0c54735e57d8a9bd9019b661a077fe410d29a9ea71ab"),
    "vrel-chain3-0": (["--instance", "vrel", "--quantale", "chain3", "--seed", "0"],
                      "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "vrel-chain4-0": (["--instance", "vrel", "--quantale", "chain4", "--seed", "0"],
                      "3ca5899750e57e0726b70ed971da941f229b6fac56aeb66e575deb46b8463b7a"),
    "vrel-lukasiewicz3-0": (["--instance", "vrel", "--quantale", "lukasiewicz3", "--seed", "0"],
                            "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "rel-1": (["--instance", "rel", "--seed", "1"],
              "7e41a4f1ae6eba8d27b24265abba3ef0ea40b8658333ee6dd0331a329c6f9940"),
    "vrel-bool-1": (["--instance", "vrel", "--quantale", "bool", "--seed", "1"],
                    "c18a92af5c01ebc52d8b0c54735e57d8a9bd9019b661a077fe410d29a9ea71ab"),
    "vrel-chain3-1": (["--instance", "vrel", "--quantale", "chain3", "--seed", "1"],
                      "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "vrel-chain4-1": (["--instance", "vrel", "--quantale", "chain4", "--seed", "1"],
                      "beef90ce1a73a7caf6b2d289958ef90fb02347a60d52a869c664a1e9498e3d94"),
    "vrel-lukasiewicz3-1": (["--instance", "vrel", "--quantale", "lukasiewicz3", "--seed", "1"],
                            "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "rel-2": (["--instance", "rel", "--seed", "2"],
              "7e41a4f1ae6eba8d27b24265abba3ef0ea40b8658333ee6dd0331a329c6f9940"),
    "vrel-bool-2": (["--instance", "vrel", "--quantale", "bool", "--seed", "2"],
                    "c18a92af5c01ebc52d8b0c54735e57d8a9bd9019b661a077fe410d29a9ea71ab"),
    "vrel-chain3-2": (["--instance", "vrel", "--quantale", "chain3", "--seed", "2"],
                      "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "vrel-chain4-2": (["--instance", "vrel", "--quantale", "chain4", "--seed", "2"],
                      "c7ab08498934d84f54da3458e6f82801753e128920c2a163687fc45d7bb7b729"),
    "vrel-lukasiewicz3-2": (["--instance", "vrel", "--quantale", "lukasiewicz3", "--seed", "2"],
                            "40473f26da636bb0461f0db53b7ffb69c1e8e9f7ba2fd3568e1ddbbbe32f1531"),
    "rel-3": (["--instance", "rel", "--seed", "3"],
              "7e41a4f1ae6eba8d27b24265abba3ef0ea40b8658333ee6dd0331a329c6f9940"),
    "vrel-bool-3": (["--instance", "vrel", "--quantale", "bool", "--seed", "3"],
                    "c18a92af5c01ebc52d8b0c54735e57d8a9bd9019b661a077fe410d29a9ea71ab"),
    "vrel-chain3-3": (["--instance", "vrel", "--quantale", "chain3", "--seed", "3"],
                      "66d29e3d60995b88f6ecc8739166d011fabd0d903d62e2c983e4bb915dd8584c"),
    "vrel-chain4-3": (["--instance", "vrel", "--quantale", "chain4", "--seed", "3"],
                      "472dea98844c6bae140eb17a749b5f9c8f585bd789ddc567fab3ea46a06400d4"),
    "vrel-lukasiewicz3-3": (["--instance", "vrel", "--quantale", "lukasiewicz3", "--seed", "3"],
                            "66d29e3d60995b88f6ecc8739166d011fabd0d903d62e2c983e4bb915dd8584c"),
}


@pytest.mark.parametrize("case", list(REPORT_SHA256))
def test_qrel_report_is_byte_identical(case, capsys):
    args, digest = REPORT_SHA256[case]
    code, out, _ = run_cli(["check", *args, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- morphism-printing commands ---------------------------------------------------
#
# The check reports above hold only counts, so they cannot see how a basis is
# rendered.  These pin the printed morphisms of compute, neg and kernel on
# fixed seeded qrel inputs.  The inputs are raw JSON documents of random
# spanning matrices (zeros, pure imaginaries, denominators up to 5), so their
# canonical form is computed by the command itself.  The same table pins
# power, embed, neg and compute on seeded sets and on boolean and chain3-valued
# relations, so every printing command's output is fixed byte for byte.

_PALETTE = ("0", "0", "1", "-1", "i", "-i", "1+i", "1/2", "-2/3 i", "3/4-1/5 i", "2-i")


def _qrel_docs(seed):
    rng = random.Random(f"qlab-cli-pins:{seed}")

    def atoms(spec):
        return {"atoms": [{"label": lab, "dim": d} for lab, d in spec]}

    def doc(src, tgt, k, matrix=None):
        def rand(rows, cols):
            return [[rng.choice(_PALETTE) for _ in range(cols)] for _ in range(rows)]
        matrix = matrix or rand
        return {
            "source": atoms(src), "target": atoms(tgt),
            "blocks": [{"from": a, "to": b, "basis": [matrix(db, da) for _ in range(k)]}
                       for a, da in src for b, db in tgt],
        }

    # Every row r of the kernel input satisfies r . (1, k1, k2) = 0, so the
    # joint kernel at atom p is a line.
    k1, k2 = parse_scalar(rng.choice(_PALETTE)), parse_scalar(rng.choice(_PALETTE[2:]))

    def kernel_row():
        r0, r1 = (parse_scalar(rng.choice(_PALETTE)) for _ in range(2))
        return [format_scalar(z) for z in (r0, r1, gq(0) - (r0 + r1 * k1) / k2)]

    x, y, z = [("u", 2), ("v", 1)], [("w", 2)], [("s", 2)]
    return {
        "a": doc(y, x, 1), "b": doc(x, y, 1), "c": doc(x, x, 1), "e": doc(x, x, 1),
        "p": doc(z, z, 2), "q": doc(z, z, 1), "s": doc(z, z, 2), "f": doc(x, y, 2),
        "k": {"source": atoms([("p", 3), ("q", 2)]), "target": atoms([("r", 2)]),
              "blocks": [{"from": "p", "to": "r",
                          "basis": [[kernel_row() for _ in range(2)] for _ in range(2)]}]},
    }


def _classical_docs(seed):
    """Seeded sets, quantum sets, and boolean and chain3-valued relations, named
    in capitals so that a compute expression never loads a qrel document."""
    rng = random.Random(f"qlab-cli-classical-pins:{seed}")
    x, y = rng.sample(["p", "q", "r", "s"], 3), rng.sample(["x", "y"], 2)

    def labels(a):
        return {"labels": a}

    def rel(src, tgt):
        return {"source": labels(src), "target": labels(tgt),
                "pairs": [[a, b] for a in src for b in tgt if rng.random() < 0.5]}

    def vrel(src, tgt):
        return {"source": labels(src), "target": labels(tgt),
                "values": [[a, b, rng.choice("12")] for a in src for b in tgt
                           if rng.random() < 0.7]}

    return {
        "A": labels(x),
        "X": {"atoms": [{"label": lab, "dim": rng.randint(1, 3)} for lab in y]},
        "R": rel(y, x), "S": rel(x, y), "T": rel(x, x),
        "V": vrel(y, x), "W": vrel(x, y), "Z": vrel(x, x),
    }


PRINT_COMMANDS = {
    "compose-join": ["compute", "--instance", "qrel", "a ∘ b ∨ c"],
    "trace": ["compute", "--instance", "qrel", "trace(e)"],
    "tensor": ["compute", "--instance", "qrel", "tensor(p, q)"],
    "name": ["compute", "--instance", "qrel", "name(b)"],
    "star": ["compute", "--instance", "qrel", "star(s)"],
    "neg": ["neg", "--instance", "qrel", "f"],
    "kernel": ["kernel", "k"],
    "power-rel": ["power", "--instance", "rel", "A"],
    "power-vrel": ["power", "--instance", "vrel", "--quantale", "chain3", "A"],
    "power-qrel": ["power", "--instance", "qrel", "X"],
    "embed-vrel": ["embed", "--instance", "vrel", "--quantale", "chain3", "S"],
    "embed-qrel": ["embed", "--instance", "qrel", "S"],
    "neg-rel": ["neg", "--instance", "rel", "S"],
    "compute-rel": ["compute", "--instance", "rel", "R ∘ S ∨ T"],
    "compute-vrel": ["compute", "--instance", "vrel", "--quantale", "chain3",
                     "(V ∘ W ∨ Z) ⊗ W"],
}

# sha256 of stdout per command and seed (0-2).
PRINT_SHA256 = {
    "compose-join-0": "dbf0a670d7653dcda3c7936b5e77a4402f026e08114fc061490b8b8bf6c2de80",
    "trace-0": "696b974d58af42fca30a65fd7c8aa3856ca8d666e292446fd5ab3f27654ebe6b",
    "tensor-0": "12e755f43ab8345c0adee7fd3cda52843b45dde1c3e3cb09e155ff8f467fb0cc",
    "name-0": "e8faf5cd94ab4ca03331972bfc07d94b85fb6faafc4590e896863cd239d89e4d",
    "star-0": "f386ad63dd7b2df42950d4a1bf73909b05e7906342d408fe721652c2deb2171f",
    "neg-0": "4980cef4c11c989f6ff239e93e4a293654ca12964a6d900d9910beda17c9dc64",
    "kernel-0": "08fd8f521f40e83245eaf9ba1c88cce1cf401ab5daf55842c728db81ae2d3a3c",
    "compose-join-1": "134b2456263830cfa3f811ab39d3ee9f21f9e7e2642193937f9cfa29d874f510",
    "trace-1": "696b974d58af42fca30a65fd7c8aa3856ca8d666e292446fd5ab3f27654ebe6b",
    "tensor-1": "05a35c8b0543125f122a95a19a40629572a7993734f1a24098e03fb90a62e557",
    "name-1": "229e6d3191e20fd5e0284a68fa0d1bd31c9392b7cfa3d9cb02d7eddc2b39b304",
    "star-1": "ef4236e4cd8b16e8aed6fe1d61825e77916e23564605a96287d7720fd5f5441b",
    "neg-1": "8981a0c7b71390e8955c7237be333deebf744273a83a806cac1ef4abb1981b5f",
    "kernel-1": "c329446e59d2656add48d2a18e3b0b37c0a880a5bf453b9c07649fef939b026f",
    "compose-join-2": "71971a0e276a738ca3c000134d0f175ec7095ed49049d09dac4c906715eb01c4",
    "trace-2": "696b974d58af42fca30a65fd7c8aa3856ca8d666e292446fd5ab3f27654ebe6b",
    "tensor-2": "a40e8225fc19aaf53fff131cee0cc37b61fe8a9826d728e1d0572e19834fbd15",
    "name-2": "a557eec2a27e866797c308c2ea6f6d2e4714f1e51cf0a81c7385936612db1420",
    "star-2": "ab9c0f3856f9fbd92b85a4dfea73b3e7e64a1742cc7164710a660a00d7609dec",
    "neg-2": "40c7a3f6e1e4b133f93703217517a37682ba256445768390148a24f17909208e",
    "kernel-2": "bd88bdf586c8dd38545bde8cd606dc9a527fbdc6c9b1dd8758a60d7e3e197978",
    "power-rel-0": "24aef4bfda105471c69386b05b41e7248ee2a60746d2712fb2a5f2e4bc7524d9",
    "power-vrel-0": "66f9497bf85ebe0c2ba31f80f7442c36d972209604174b896b2fc4457b15c1c0",
    "power-qrel-0": "4c8ec1406feebd442acd7b626ee3f06c8e4162fa86044e49b067630578d7f7d2",
    "embed-vrel-0": "4ba2eda49e46bae1d56c8780b012befe88f8edcc618a5cfafb3d78c8757780b3",
    "embed-qrel-0": "20c6d5790747cd55696f2d1a52db434ac617da2bf3c08ccc89748724cd1e688f",
    "neg-rel-0": "1ee1ec933c6b9ec6df9ce32575ea2bae6c5c339d1914a45c3d1d2dbaebbdad70",
    "compute-rel-0": "b28d4d49dc9bed158d7bc29d4059db8833c09149d4891d09550d2a78df102a02",
    "compute-vrel-0": "863a6ee7f72ada1b283353aefa6994a68f6d773dd1f2058ab2579646981a989c",
    "power-rel-1": "f9cf5428a327dcd7b09151b4d373fdbf946917752763b801728fd2633ed8a365",
    "power-vrel-1": "0c5083042ca459f4be6191404a1ba95c335dfac2cc8c524193c76d73f135a0f5",
    "power-qrel-1": "41c7a66fa39365e6e58545c99e24324efd55cdb774a472fe6e36d699dae800c7",
    "embed-vrel-1": "3756d80d07d1d3b9068cd781092abb2e7decba4c91c5f9d7d1a8f7ac7b69606e",
    "embed-qrel-1": "508f5a1d566ed406612dc7721b8d35c160fe32c6354628239e72577c0604f7a4",
    "neg-rel-1": "ecf056ff36f2c62ee308901a44311a3d18629070677aa46c5454b2806a1b1092",
    "compute-rel-1": "0089a75a4bc2e3fe5ad45110181845745706b4cde63507931d28a47733f4dccb",
    "compute-vrel-1": "ccc4ba01389d898ac0785f490eeaf1760339f5d3b6669a63681c9429c8a90a34",
    "power-rel-2": "7d7e7bf5368f2bf6fb729ecd210cc92279714291eadc489edb84a166defeb005",
    "power-vrel-2": "f55605aa294d3693870934e72521c23f4d540976561ab7b2f84cf6724d9e5642",
    "power-qrel-2": "015b88d26394692f53c09e8d54d268d6ee65ee3c64e6ca7f810b4d823aebde88",
    "embed-vrel-2": "7540735d74a64fbedbdb85e4377d7b3ae0ad74f354e050389241c39d60262d60",
    "embed-qrel-2": "0479d8c9693989275e953ad4a7f346a7fb24709918b28f82e97c80e4e3eff52e",
    "neg-rel-2": "bf1dc412c41b737df133e1a9f1889b2c799e17a79a5aecce79f8bfef0f25e365",
    "compute-rel-2": "f0b9f7471836ab7ad5c4a6c3054294d035020e4f921147b86d24bf86e5dbc5e3",
    "compute-vrel-2": "3fb05c5ad635240be262f52d7e6984f501900a8023cf68ebb42c3ebf3f524e92",
}


def _print_argv(case, seed):
    docs = _qrel_docs(seed) | _classical_docs(seed)
    argv = PRINT_COMMANDS[case]
    if argv[0] == "compute":
        loads = []
        for key in sorted(set(argv[-1]) & set(docs)):
            loads += ["--load", f"{key}={json.dumps(docs[key])}"]
        return argv[:-1] + loads + argv[-1:]
    return argv[:-1] + [json.dumps(docs[argv[-1]])]


@pytest.mark.parametrize("case", list(PRINT_SHA256))
def test_printed_qrel_morphisms_are_byte_identical(case, capsys):
    command, seed = case.rsplit("-", 1)
    code, out, _ = run_cli(_print_argv(command, int(seed)), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRINT_SHA256[case]
