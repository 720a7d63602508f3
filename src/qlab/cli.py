"""Command-line front end.

Subcommands:
  check    run law suites for an instance and report pass/fail
  compute  evaluate an expression over named morphisms loaded from files
  kernel   dagger kernel of a quantum relation
  neg      complement (boolean) or orthocomplement (quantum) of a relation
  power    power data for an object: powerset, valued predicates, or the
           classical truth-value object
  embed    embed a plain boolean relation into a valued or quantum instance

Inputs are file paths or inline JSON.  Exit codes: 0 success, 1 a law suite
found a failure, 2 bad input or usage (a `QlabError`, or a file that cannot be
read or written); any other exception is a bug and ends in a traceback.

A command loads only what it runs: `check` imports the law suites, and only
the rel and vrel paths import the classical models `finrel` and `quantale`,
so `compute`, `neg`, `kernel` and `power` on qrel load neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import calculus, core, qrel as qrel_mod, serialize
from .errors import QlabError
from .matr import boolean_complement, qrel_instance, rel_instance, vrel_instance

if TYPE_CHECKING:
    from .quantale import FiniteQuantale


class CliError(QlabError):
    pass


def _read_json(spec: str):
    text = spec.strip()
    try:
        if not (text.startswith("{") or text.startswith("[")):
            text = Path(spec).read_text()
        return json.loads(text)
    except RecursionError:
        raise CliError("JSON input nested too deeply to parse") from None
    except ValueError as exc:  # not UTF-8, or not JSON (an integer too long, say)
        raise CliError(str(exc)) from None


def _load_quantale(spec: str | None) -> FiniteQuantale:
    from .quantale import BUILTIN_QUANTALES, validate_quantale  # vrel only

    if spec is None:
        return BUILTIN_QUANTALES["chain3"]
    if spec in BUILTIN_QUANTALES:
        return BUILTIN_QUANTALES[spec]
    q = serialize.quantale_from_json(_read_json(spec))
    report = validate_quantale(q)
    if not report.ok:
        raise CliError(f"invalid quantale: {report.failures[0]}")
    return q


def _instance(kind: str, quantale_spec: str | None):
    """The instance named by --instance, whose choices are rel, vrel and qrel."""
    if kind == "vrel":
        return vrel_instance(_load_quantale(quantale_spec))
    return rel_instance() if kind == "rel" else qrel_instance()


def _emit(args, doc, text: str | None = None) -> None:
    """Write `text` if given, else `doc` as JSON, to --out or stdout."""
    payload = serialize.dumps(doc) if text is None else text
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)


# -- expression evaluation --------------------------------------------------------

# Each function's arity and evaluation.  An evaluation looks its function up
# when it runs, so one replaced after import (by a tracer, say) is the one called.
_FUNCTIONS = {
    "compose": (2, lambda inst, f, g: inst.compose(f, g)),
    "dagger": (1, lambda inst, f: inst.dagger(f)),
    "join": (2, lambda inst, f, g: inst.join2(f, g)),
    "meet": (2, lambda inst, f, g: inst.meet2(f, g)),
    "tensor": (2, lambda inst, f, g: inst.tensor_mor(f, g)),
    "name": (1, lambda inst, f: core.name_of(inst, f)),
    "coname": (1, lambda inst, f: core.coname_of(inst, f)),
    "star": (1, lambda inst, f: core.star_of(inst, f)),
    "trace": (1, lambda inst, f: core.trace_of(inst, f)),
    "sum": (2, lambda inst, f, g: calculus.superposition_sum(inst, f, g)),
}

# The infix symbols, loosest first, and the function each one names.
_INFIX = {"∨": "join", "∧": "meet", "⊗": "tensor", "∘": "compose"}


def _tokenize(src: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "()," or ch in _INFIX:
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(src[i:j])
            i = j
        else:
            raise CliError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    """Infix precedence, loosest first: v, ^, tensor, then composition."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise CliError(f"expected {expected or 'a token'}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.level(0)
        if self.peek() is not None:
            raise CliError(f"unexpected trailing token {self.peek()!r}")
        return node

    def level(self, n):
        if n == len(_INFIX):
            return self.atom()
        op, name = list(_INFIX.items())[n]
        node = self.level(n + 1)
        while self.peek() == op:
            self.take()
            node = (name, node, self.level(n + 1))
        return node

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.level(0)
            self.take(")")
            return node
        if tok in _FUNCTIONS and self.peek() == "(":
            self.take("(")
            args = [self.level(0)]
            while self.peek() == ",":
                self.take(",")
                args.append(self.level(0))
            self.take(")")
            arity = _FUNCTIONS[tok][0]
            if len(args) != arity:
                raise CliError(f"{tok} takes {arity} argument(s)")
            return (tok, *args)
        if tok in "(),":
            raise CliError(f"unexpected token {tok!r}")
        return ("ref", tok)


def _eval_expr(node, inst, env):
    op, *args = node
    if op == "ref":
        if args[0] not in env:
            raise CliError(f"unknown name {args[0]!r}; load it with --load")
        return env[args[0]]
    return _FUNCTIONS[op][1](inst, *[_eval_expr(a, inst, env) for a in args])


# -- subcommands --------------------------------------------------------------------

def cmd_check(args) -> int:
    from . import lawcheck  # the law suites load only for the command that runs them

    quantale = _load_quantale(args.quantale) if args.instance == "vrel" else None
    suites = args.suite or None
    reports = lawcheck.run_all(args.instance, seed=args.seed, quantale=quantale,
                               suites=suites)
    doc = lawcheck.render_json(reports)
    _emit(args, doc, lawcheck.render_text(reports) if args.format == "text" else None)
    return 0 if doc["ok"] else 1


def cmd_compute(args) -> int:
    inst = _instance(args.instance, args.quantale)
    env = {}
    for item in args.load or []:
        if "=" not in item:
            raise CliError("--load expects NAME=FILE_OR_JSON")
        name, spec = item.split("=", 1)
        env[name] = serialize.morphism_from_json(inst, _read_json(spec))
    try:
        result = _eval_expr(_Parser(_tokenize(args.expression)).parse(), inst, env)
    except RecursionError:
        raise CliError("expression nested too deeply to evaluate") from None
    _emit(args, serialize.morphism_to_json(inst, result))
    return 0


def cmd_kernel(args) -> int:
    if args.instance != "qrel":
        raise CliError("kernel is defined for the qrel instance")
    inst = qrel_instance()
    f = serialize.qrelation_from_json(inst, _read_json(args.relation))
    kernel, inclusion = qrel_mod.dagger_kernel(inst, [f])
    doc = {
        "kernel": serialize.qset_to_json(kernel),
        "inclusion": serialize.qrelation_to_json(inclusion),
    }
    _emit(args, doc)
    return 0


def cmd_neg(args) -> int:
    inst = _instance(args.instance, args.quantale)
    f = serialize.morphism_from_json(inst, _read_json(args.relation))
    if args.instance == "rel":
        result = boolean_complement(inst, f)
    elif args.instance == "qrel":
        result = qrel_mod.orthocomplement(inst, f)
    else:
        raise CliError("neg is defined for the rel and qrel instances")
    _emit(args, serialize.morphism_to_json(inst, result))
    return 0


# power on rel builds P(X) -> X with |P(X)| |X| cells; it refuses a set for
# which that exceeds this bound (14 labels pass, 15 do not).  On vrel every
# label of V^X is a tuple of |X| values, written again in each cell, so it
# bounds the scalars written, |V|^|X| |X|^2, instead (7 labels pass over three
# values, 6 over four).
_POWER_BOUND = 2**18


def _bounded_power_base(doc, values: int, valued: bool = False):
    """The set of `doc`, if its power set over `values` truth values is
    within _POWER_BOUND cells, or, when `valued`, scalars."""
    x = serialize.set_from_json(doc)
    n = len(x)
    size, what = values ** n * n, "membership cells"
    if valued:
        size, what = size * n, "scalars"
    if size > _POWER_BOUND:
        raise CliError(f"power of {n} labels would build {size} {what}, "
                       f"above the bound {_POWER_BOUND}")
    return x


def cmd_power(args) -> int:
    doc = _read_json(args.object)
    inst = _instance(args.instance, args.quantale)
    if args.instance == "rel":
        from .finrel import powerset_adjoint, relation_to_matr

        data = powerset_adjoint(_bounded_power_base(doc, 2))
        out = {
            "power": serialize.set_to_json(data.power),
            "membership": serialize.relation_to_json(relation_to_matr(inst, data.membership)),
            "singleton": serialize.relation_to_json(relation_to_matr(inst, data.singleton)),
        }
    elif args.instance == "vrel":
        from .quantale import v_power_adjoint, vrelation_to_matr

        q = inst.base.quantale
        data = v_power_adjoint(q, _bounded_power_base(doc, len(q.elements), valued=True))
        out = {
            "power": serialize.set_to_json(data.power),
            "omega": serialize.set_to_json(data.omega),
            "counit": serialize.vrelation_to_json(vrelation_to_matr(inst, data.counit)),
            "omega_effect": serialize.vrelation_to_json(
                vrelation_to_matr(inst, data.omega_effect)),
        }
    else:
        x = serialize.qset_from_json(inst, doc)
        om = calculus.omega_data(inst)
        out = {
            "object": serialize.qset_to_json(x),
            "omega": serialize.qset_to_json(om.total),
            "injection_false": serialize.qrelation_to_json(om.injections[0]),
            "injection_true": serialize.qrelation_to_json(om.injections[1]),
        }
    _emit(args, out)
    return 0


def cmd_embed(args) -> int:
    if args.instance == "rel":
        raise CliError("embed targets the vrel or qrel instance")
    inst = _instance(args.instance, args.quantale)
    result = serialize.relation_from_json(inst, _read_json(args.relation))
    _emit(args, serialize.morphism_to_json(inst, result))
    return 0


# -- argument parsing -----------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It records only the
    subcommand's name; `main` looks up `cmd_<name>` at each call, so a handler
    replaced after the parser was built (by a tracer, say) is the one called."""
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Exact dagger compact quantaloids: relations, valued "
                    "relations and quantum relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance_default=None):
        p.add_argument("--instance", choices=["rel", "vrel", "qrel"],
                       default=instance_default, required=instance_default is None)
        p.add_argument("--quantale", default=None,
                       help="builtin name (bool, chain3, chain4, lukasiewicz3) "
                            "or a quantale JSON file")
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="run law suites")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable); defaults to all")

    p = sub.add_parser("compute", help="evaluate an expression over loaded morphisms")
    common(p)
    p.add_argument("expression")
    p.add_argument("--load", action="append", default=None, metavar="NAME=FILE")

    p = sub.add_parser("kernel", help="dagger kernel of a quantum relation")
    common(p, instance_default="qrel")
    p.add_argument("relation", help="quantum relation file or inline JSON")

    p = sub.add_parser("neg", help="complement / orthocomplement of a relation")
    common(p)
    p.add_argument("relation")

    p = sub.add_parser("power", help="power data for an object")
    common(p)
    p.add_argument("object", help="set or quantum set file or inline JSON")

    p = sub.add_parser("embed", help="embed a boolean relation into an instance")
    common(p)
    p.add_argument("relation", help="boolean relation file or inline JSON")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.quantale is not None and args.instance != "vrel":
            raise CliError("--quantale applies only to --instance vrel")
        return globals()["cmd_" + args.command](args)
    except (QlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
