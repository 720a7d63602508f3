"""Every module of the package uses each name it imports, and every private
module-level function or class is used somewhere in the package.

All output text is written by `serialize.dumps`: no other module of the
package calls `json.dump` or `json.dumps`.

`__init__.py` is exempt: importing names to re-export them is its job.

The benchmark's tracer (`bench/tracing.py`) patches qlab functions by
attribute path; every path it names must still exist where it looks, and a
law run under it must reach the layers it reports.

A qrel law run computes each block product and each adjoint at most once per
instance, so a change that routes around the memo of `FdOSBase` fails here.

No operation keeps state for the process: only the constructors
`qrel.instance`, `qset` and `qmor` read the module-level `qrel._INSTANCE`,
and it is the only `MatrInstance` a module builds as it loads.

A law suite pads a law only through `law(text, pad=True)`, so one grep finds
every padding; the single explicit `record(True)` is the `maps` suite's.

Start-up pays only for what a command runs: a `@dataclass` generates its
methods through `exec` at import, so only the value classes with validation,
a hand-written `__init__` or mutable state are dataclasses (the field-only
records are `NamedTuple`s), only `cli.cmd_check` imports the law suites,
and only `lawcheck` and `quantale` (which builds on `finrel`) import
the direct models `finrel` and `quantale` as they load, so the qrel path
never compiles them.

Every error qlab raises on purpose is a `QlabError`: each exception class of
the package derives from it, no module raises a bare `ValueError`, `KeyError`
or `TypeError`, and only the two boundaries that report a refusal catch it,
`cli.main` (exit 2) and `lawcheck.run_all` (a failed law).  A catch of a
builtin `KeyError`, `TypeError`, `ValueError` or `IndexError` stays in the
four places that guard one call each; the input readers check their fields
instead.
"""

import ast
import collections
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from qlab import exact, lawcheck
from qlab.errors import QlabError
from qlab.quantale import BUILTIN_QUANTALES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_sees_unused_and_used_names():
    src = "import os\nfrom typing import Any, Sequence\nx: Any = os.sep\n"
    assert unused_imports(src) == ["Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_defs(sources: dict) -> list[str]:
    """The module-level private functions and classes (`_name`, not dunders)
    that no code in any of the sources refers to outside their own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            used = any(
                id(n) not in inside
                and ((isinstance(n, ast.Name) and n.id == node.name)
                     or (isinstance(n, ast.Attribute) and n.attr == node.name))
                for t in trees.values() for n in ast.walk(t)
            )
            if not used:
                out.append(f"{module}:{node.name}")
    return sorted(out)


def test_scan_sees_orphaned_private_defs():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Orphan:\n    pass\n",
        "b": "from a import _used\nx = _used()\n",
    }
    assert orphaned_private_defs(sources) == ["a:_Orphan", "a:_recursive"]


def test_no_orphaned_private_defs():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [d for d in orphaned_private_defs(sources) if not d.startswith("__init__.py:")] == []


def json_writers(source: str) -> list[str]:
    """The calls of json.dump or json.dumps, through the module or an alias of
    it, and the imports of either name from json."""
    tree = ast.parse(source)
    modules = {"json"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            out += [f"{node.lineno}: from json import {a.name}"
                    for a in node.names if a.name in ("dump", "dumps")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("dump", "dumps")
              and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            out.append(f"{node.lineno}: {node.func.value.id}.{node.func.attr}")
    return out


def test_scan_sees_json_writers():
    src = ("import json\nimport json as j\nfrom json import dumps as d, loads\n"
           "json.dumps(1, indent=2)\nj.dump(1, f)\njson.loads('1')\nother.dumps(1)\n")
    assert json_writers(src) == ["3: from json import dumps", "4: json.dumps", "5: j.dump"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "serialize.py"],
                         ids=lambda p: p.name)
def test_only_serialize_writes_json(path):
    assert json_writers(path.read_text()) == []


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attribute_paths_resolve():
    """As `Tracer._patch` does: walk the path with getattr, then find the last
    part in its owner's own `__dict__`."""
    tracing = load_tracing()
    paths = [(module, path) for module, path, _ in tracing.SPANNED.values()]
    paths += list(tracing.COUNTED.values())
    missing = []
    for module, path in paths:
        owner = importlib.import_module(f"qlab.{module}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"qlab.{module}.{path}")
    assert missing == []
    suites = importlib.import_module("qlab.lawcheck").SUITES
    assert suites and all(callable(fn) for fn, _ in suites.values())


@pytest.mark.parametrize("kind, quantale, layers", [
    ("qrel", None, ("exact.subspace_product", "matr.compose", "matr.mor", "matr.dagger",
                    "core.trace_of", "core.star_of", "core.name_of")),
    ("vrel", BUILTIN_QUANTALES["chain4"],
     ("matr.compose", "matr.mor", "matr.dagger", "core.trace_of", "core.star_of",
      "core.name_of")),
    # Only the rel suite `endorelation-flags` asks for every endorelation flag.
    ("rel", None, ("core.endorelation_class", "core.is_map")),
], ids=["qrel", "vrel-chain4", "rel"])
def test_traced_layers_record_calls(kind, quantale, layers):
    """A law run under the tracer reaches every traced layer it should, so a
    refactor that routes around a traced function fails here instead of
    silently reporting zero for that layer."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = lawcheck.run_all(kind, 0, quantale=quantale)
    finally:
        tracer.uninstall()
    assert all(rep.ok for rep in reports)
    metrics = tracing.derive(tracer.spans, tracer.counts)
    assert [layer for layer in layers if not metrics[f"{layer}.calls"]] == []


def test_qrel_law_run_computes_no_product_or_adjoint_twice_per_instance(monkeypatch):
    """Every binding of exact.subspace_product, exact.subspace_adjoint,
    exact.kronecker and exact.hs_orthocomplement in the package is wrapped to
    count executions by arguments and by the base instance whose method
    called them (None for any other caller)."""
    counts = collections.Counter()
    callers = {}  # id(base) -> base, kept alive so no id is reused

    def counting(fn):
        def wrapper(*args):
            owner = sys._getframe(1).f_locals.get("self")
            callers[id(owner)] = owner
            key = (fn.__name__, tuple(args[0]) if fn is exact.subspace_product else args[0],
                   *args[1:])
            counts[id(owner), key] += 1
            return fn(*args)
        return wrapper

    for fn in (exact.subspace_product, exact.subspace_adjoint, exact.kronecker,
               exact.hs_orthocomplement):
        wrapped = counting(fn)
        for name, module in list(sys.modules.items()):
            if name.startswith("qlab"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
    assert all(rep.ok for rep in lawcheck.run_all("qrel", 0))
    names = collections.Counter(key[0] for (_, key) in counts)
    assert all(names[fn] for fn in ("subspace_product", "subspace_adjoint", "kronecker",
                                    "hs_orthocomplement"))
    assert [key for key, n in counts.items() if n > 1] == []


INSTANCE_BUILDERS = {"MatrInstance", "rel_instance", "vrel_instance", "qrel_instance"}


def singleton_uses(module: str, source: str) -> tuple[list[str], list[str]]:
    """The functions and methods that read `_INSTANCE`, as "<module>.<name>",
    and the module-level statements that build a `MatrInstance` as the module
    loads (outside function bodies), as "<module>.<assigned name>" or, when
    the statement assigns no single name, "<module>:<line>"."""
    tree = ast.parse(source)
    readers, builders = [], []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, functions):
            defs = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{n.name}", n) for n in top.body if isinstance(n, functions)]
        else:
            defs = []
        for name, fn in defs:
            if any(getattr(n, "id", None) == "_INSTANCE" or getattr(n, "attr", None) == "_INSTANCE"
                   for n in ast.walk(fn)):
                readers.append(f"{module}.{name}")

    def visit(node, where):
        if isinstance(node, (*functions, ast.Lambda)):
            return
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in INSTANCE_BUILDERS
                or getattr(node.func, "attr", None) in INSTANCE_BUILDERS):
            builders.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for top in tree.body:
        targets = top.targets if isinstance(top, ast.Assign) else []
        named = len(targets) == 1 and isinstance(targets[0], ast.Name)
        visit(top, f"{module}.{targets[0].id}" if named else f"{module}:{top.lineno}")
    return readers, builders


def test_scan_sees_singleton_reads_and_import_time_instances():
    src = ("from .matr import MatrInstance, qrel_instance\n"
           "_INSTANCE = qrel_instance()\n"
           "def instance():\n    return _INSTANCE\n"
           "class C:\n    inst = MatrInstance(None)\n"
           "    def m(self):\n        return mod._INSTANCE.obj([])\n"
           "def make():\n    return qrel_instance()\n"
           "CACHE = {'q': m.rel_instance()}\n")
    assert singleton_uses("m", src) == (["m.instance", "m.C.m"],
                                        ["m._INSTANCE", "m:5", "m.CACHE"])


def test_only_the_constructors_read_the_qrel_singleton():
    readers, builders = [], []
    for p in sorted(PACKAGE.glob("*.py")):
        found = singleton_uses(p.stem, p.read_text())
        readers += found[0]
        builders += found[1]
    assert readers == ["qrel.instance", "qrel.qset", "qrel.qmor"]
    assert builders == ["qrel._INSTANCE"]


def suite_paddings(source: str) -> tuple[list[str], list[str]]:
    """In the bodies of the functions decorated with `@suite(...)`: the lines
    that compare a `.checked` count, as "<function>:<line>", and the
    `record(True, ...)` calls, as "<function>:<receiver>"."""
    tree = ast.parse(source)
    compares, pads = [], []
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "suite"
                for d in node.decorator_list)):
            continue
        for n in ast.walk(node):
            if (isinstance(n, ast.Compare) and isinstance(n.left, ast.Attribute)
                    and n.left.attr == "checked"):
                compares.append(f"{node.name}:{n.lineno}")
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "record" and n.args
                  and isinstance(n.args[0], ast.Constant) and n.args[0].value is True):
                pads.append(f"{node.name}:{ast.unparse(n.func.value)}")
    return compares, pads


def test_scan_sees_suite_paddings():
    src = ("@suite('a', ('rel',))\ndef body(ctx, law):\n    x = law('x')\n"
           "    if x.checked == 0:\n        x.record(True)\n    x.record(True, 'w')\n"
           "    x.record(ok)\n\ndef helper(x):\n    x.record(True)\n")
    assert suite_paddings(src) == (["body:4"], ["body:x", "body:x"])


def test_paddings_are_marked_where_the_suite_declares_its_laws():
    """Every pad-if-empty padding is a `pad=True` mark, so a grep for
    `pad=True` finds them all.  The one explicit `record(True)` left is the
    `rigid` law of `maps`, which is padded also beside real checks."""
    source = (PACKAGE / "lawcheck.py").read_text()
    assert suite_paddings(source) == ([], ["suite_maps:rigid"])
    assert source.count("orders.discrete(") == 1


# The classes that stay dataclasses: validated or hand-initialised values, and
# the mutable `LawResult`.
DATACLASSES = {
    "GaussianRational", "ExactMatrix", "OperatorSubspace", "FiniteSet", "BoolRelation",
    "LawResult", "MatrObject", "MatrMorphism", "FiniteQuantale", "VRelation",
}


def dataclasses_in(source: str) -> list[str]:
    """The classes decorated with `dataclass`, called or not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(target).split(".")[-1] == "dataclass":
                    out.append(node.name)
    return out


def lawcheck_importers(module: str, source: str) -> list[str]:
    """Where a module imports `lawcheck`: `module` at its top level, else
    `module.function` (or class) holding the import."""
    out = []
    for top in ast.parse(source).body:
        where = module
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where += "." + top.name
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names] + [node.module or ""]
            else:
                continue
            if any(n.split(".")[-1] == "lawcheck" for n in names):
                out.append(where)
    return out


def test_scan_sees_dataclasses_and_lawcheck_imports():
    src = ("import dataclasses\nfrom dataclasses import dataclass\n"
           "@dataclass\nclass A:\n    x: int\n"
           "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n"
           "class C(NamedTuple):\n    x: int\n"
           "from . import core, lawcheck\n"
           "def f():\n    from .lawcheck import run_all\n"
           "def g():\n    import qlab.lawcheck\n")
    assert dataclasses_in(src) == ["A", "B"]
    assert lawcheck_importers("m", src) == ["m", "m.f", "m.g"]


def test_only_value_classes_are_dataclasses():
    found = [name for p in MODULES for name in dataclasses_in(p.read_text())]
    assert sorted(found) == sorted(DATACLASSES)


def test_only_cmd_check_imports_the_law_suites():
    found = [where for p in sorted(PACKAGE.glob("*.py"))
             for where in lawcheck_importers(p.stem, p.read_text())]
    assert found == ["cli.cmd_check"]


def import_time_imports(source: str) -> set[str]:
    """The package modules a module imports as it loads: its import
    statements outside function bodies and `if TYPE_CHECKING:` blocks."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("qlab."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "qlab"):
            found.update([node.module] if node.module and node.level
                         else [a.name for a in node.names])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_scan_sees_import_time_imports():
    src = ("from typing import TYPE_CHECKING\nfrom . import core, finrel as f\n"
           "from .quantale import X\nimport qlab.qrel\nfrom qlab import orders\n"
           "if TYPE_CHECKING:\n    from .lawcheck import Y\nelse:\n    from .exact import W\n"
           "def g():\n    from .serialize import Z\n"
           "class C:\n    from .matr import V\n")
    assert import_time_imports(src) == {"core", "finrel", "quantale", "qrel", "orders",
                                        "exact", "matr"}


def test_only_the_classical_side_loads_finrel_and_quantale_with_itself():
    # The kernel, the qrel instance, the readers and writers and the CLI load
    # neither direct model as they are imported: the direct models import
    # the kernel, never the other way round.
    found = {p.stem: sorted(import_time_imports(p.read_text()) & {"finrel", "quantale"})
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {
        "lawcheck": ["finrel", "quantale"],
        "quantale": ["finrel"],
    }


_IMPORT_SCRIPT = """\
import sys
import qlab, qlab.exact, qlab.matr, qlab.core, qlab.calculus, qlab.qrel, qlab.orders
import qlab.serialize, qlab.cli
print([m for m in ("qlab.finrel", "qlab.quantale") if m in sys.modules])
"""


def test_importing_the_qrel_path_loads_neither_classical_model():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                          capture_output=True, text=True, timeout=30)
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_the_lazy_names_of_the_package_resolve():
    import qlab

    assert sorted(qlab._LAZY) == ["BUILTIN_QUANTALES", "BoolRelation", "FiniteQuantale",
                                  "FiniteSet", "VRelation", "fset", "validate_quantale"]
    for name, module in qlab._LAZY.items():
        assert getattr(qlab, name) is getattr(importlib.import_module(f"qlab.{module}"), name)
    from qlab import FiniteSet, fset

    assert fset("a") == FiniteSet(("a",))
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        qlab.nosuch


def test_every_exception_class_derives_from_qlab_error():
    classes = {}
    for p in MODULES:
        module = importlib.import_module(f"qlab.{p.stem}")
        classes.update({f"{p.stem}.{name}": obj for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    assert len(classes) == 9
    assert [name for name, cls in classes.items() if not issubclass(cls, QlabError)] == []


def where_errors_go(module: str, source: str) -> tuple[list[str], list[str], list[str]]:
    """The `raise` of a bare ValueError, KeyError or TypeError, the `except`
    clauses naming QlabError, and the `except` clauses naming KeyError,
    TypeError, ValueError or IndexError, each as `module.function` or
    `module.Class.method`."""
    raises, catches, builtin = [], [], []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc) in ("ValueError", "KeyError", "TypeError"):
                    raises.append(where)
            elif isinstance(child, ast.ExceptHandler) and child.type is not None:
                names = [ast.unparse(n) for n in
                         (child.type.elts if isinstance(child.type, ast.Tuple) else [child.type])]
                if any(n.split(".")[-1] == "QlabError" for n in names):
                    catches.append(where)
                if any(n in ("KeyError", "TypeError", "ValueError", "IndexError") for n in names):
                    builtin.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return raises, catches, builtin


def test_scan_sees_builtin_raises_and_qlab_error_catches():
    src = ("def f():\n    raise ValueError('x')\n"
           "class C:\n    def g(self):\n        raise KeyError\n"
           "    def m(self):\n        try:\n            pass\n"
           "        except (OSError, IndexError):\n            pass\n"
           "def h():\n    try:\n        raise OtherError()\n"
           "    except (OSError, errors.QlabError):\n        raise\n"
           "def k():\n    try:\n        pass\n    except QlabError:\n        raise TypeError\n"
           "    except ValueError:\n        pass\n")
    assert where_errors_go("m", src) == (["m.f", "m.C.g", "m.k"], ["m.h", "m.k"],
                                         ["m.C.m", "m.k"])


def test_qlab_raises_only_its_own_errors_and_catches_them_at_two_boundaries():
    raises, catches, builtin = [], [], []
    for p in sorted(PACKAGE.glob("*.py")):
        r, c, b = where_errors_go(p.stem, p.read_text())
        raises += r
        catches += c
        builtin += b
    assert raises == []
    assert catches == ["cli.main", "lawcheck.run_all"]
    # A catch of a builtin lookup or value error could report a fault in the
    # library as bad input.  These four each guard one call: the JSON parse
    # of the input, two label lookups that become `MatrError`, and the fast
    # path of the output writer.
    assert builtin == ["cli._read_json", "matr.MatrObject.base_obj", "matr.MatrInstance.mor",
                       "serialize._write"]
