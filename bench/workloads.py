"""The benchmark's workloads: seeded inputs, the fixed job list of one pass,
and an output check per job.

Every job is one `qlab.cli.main(argv)` call that writes its result to a file
with `--out`.  A check reads that file after the timed pass and returns None
when the output is right, or a one-line reason when it is not; it never
re-runs the timed call.  qlab is imported inside `setup`, so the import is part
of the measured set-up time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

QUANTALES = ("bool", "chain3", "chain4", "lukasiewicz3")

# The documented exit-2 error of `qlab kernel` when the kernel columns lie in
# different norm classes; counted on its own, not as a failure.
NORM_CLASS_ERROR = "column norms lie in different norm classes"


@dataclass
class Job:
    name: str
    argv: list
    out: Path
    check: Callable[[Path], "str | None"]
    norm_class_allowed: bool = False


def setup(workload: str, seed: int, workdir: Path) -> list:
    """Import qlab, generate the workload's inputs and build its job list."""
    if workload == "laws-qrel":
        return _laws(seed, workdir, [("qrel", None)])
    if workload == "laws-classical":
        return _laws(seed, workdir, [("rel", None)] + [("vrel", q) for q in QUANTALES])
    if workload == "cli-qrel":
        return _cli_qrel(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- laws workloads ---------------------------------------------------------------

def _report_ok(path: Path):
    doc = json.loads(path.read_text())
    if doc.get("ok") is not True:
        bad = [s["suite"] for s in doc.get("suites", []) if not s.get("ok")]
        return f"report not ok: failing suites {bad}"
    return None


def _laws(seed: int, workdir: Path, targets: list) -> list:
    from qlab import cli, lawcheck  # noqa: F401  (import is part of set-up)

    jobs = []
    for kind, quantale in targets:
        name = f"check-{kind}" + (f"-{quantale}" if quantale else "")
        out = workdir / f"{name}.json"
        argv = ["check", "--instance", kind, "--seed", str(seed), "--out", str(out)]
        if quantale:
            argv += ["--quantale", quantale]
        jobs.append(Job(name, argv, out, _report_ok))
    return jobs


# -- cli-qrel ---------------------------------------------------------------------

def _cli_qrel(seed: int, workdir: Path) -> list:
    from qlab import cli, qrel, serialize  # noqa: F401  (import is part of set-up)
    from qlab.exact import ExactMatrix, canonical_basis, gq, nullspace

    inst = qrel.instance()
    rng = random.Random(f"cli-qrel:{seed}")
    palette = (gq(0), gq(1), gq(-1), gq(0, 1), gq(1, 1), gq(Fraction(1, 2)))

    def matrix(rows, cols):
        return ExactMatrix.from_vector(
            tuple(rng.choice(palette) for _ in range(rows * cols)), rows, cols)

    def morphism(x, y, k):
        return inst.mor(x, y, {
            (a, b): canonical_basis([matrix(db, da) for _ in range(k)], da, db)
            for a, da in x.components for b, db in y.components
        })

    def low_rank(x, y, k):
        # Every block out of atom a factors through the same map of rank at
        # most da - 1, drawn again until the joint kernel at a has dimension
        # exactly 1.  A one-column kernel never meets the norm-class
        # restriction, so `qlab kernel` succeeds and its output is checked.
        blocks = {}
        for a, da in x.components:
            while True:
                right = matrix(da - 1, da)
                mats = {b: [matrix(db, da - 1) @ right for _ in range(k)]
                        for b, db in y.components}
                rows = [m.row(i) for ms in mats.values() for m in ms for i in range(m.rows)]
                if len(nullspace(rows, da)) == 1:
                    break
            for b, db in y.components:
                blocks[(a, b)] = canonical_basis(mats[b], da, db)
        return inst.mor(x, y, blocks)

    x = inst.obj([("u", 2), ("v", 3)])
    y = inst.obj([("w", 4)])
    z = inst.obj([("s", 4)])
    kx = inst.obj([("p", 3), ("q", 4)])
    ky = inst.obj([("r", 2)])
    m = {
        "a": morphism(y, x, 2), "b": morphism(x, y, 2), "c": morphism(x, x, 2),
        "e": morphism(x, x, 3), "p": morphism(z, z, 4), "q": morphism(z, z, 4),
        "s": morphism(z, z, 3), "f": morphism(x, y, 2), "k": low_rank(kx, ky, 2),
    }
    files = {}
    for key, mor in m.items():
        files[key] = workdir / f"in-{key}.json"
        files[key].write_text(serialize.dumps(serialize.qrelation_to_json(mor)))

    def load(path):
        return serialize.qrelation_from_json(inst, json.loads(path.read_text()))

    def typed(path, src, tgt):
        r = load(path)
        if (r.source, r.target) != (src, tgt):
            return None, f"wrong type {r.source!r} -> {r.target!r}"
        return r, None

    def check_compose_join(path):
        r, err = typed(path, x, x)
        if err is None and not inst.leq(m["c"], r):
            err = "c is not below a . b v c"
        return err

    def check_trace(path):
        return typed(path, inst.unit_obj(), inst.unit_obj())[1]

    def check_tensor(path):
        r, err = typed(path, inst.tensor_obj(z, z), inst.tensor_obj(z, z))
        if err is None:
            (_, v), = r.blocks
            want = m["p"].blocks[0][1].dim * m["q"].blocks[0][1].dim
            if v.dim != want:
                err = f"tensor block has dimension {v.dim}, expected {want}"
        return err

    def check_name(path):
        return typed(path, inst.unit_obj(), inst.tensor_obj(inst.dual_obj(x), y))[1]

    def check_star(path):
        # On one atom of dimension d, f* is spanned by the transposes.
        r, err = typed(path, inst.dual_obj(z), inst.dual_obj(z))
        if err is None:
            (_, v), = m["s"].blocks
            want = canonical_basis([b.transpose() for b in v.basis], 4, 4)
            if r.blocks != ((("s", "s"), want),):
                err = "star is not the transpose"
        return err

    def check_neg(path):
        g, err = typed(path, x, y)
        if err is None and not qrel.is_perp_blockwise(m["f"], g):
            err = "f and neg f are not orthogonal"
        if err is None and inst.join2(m["f"], g) != inst.top(x, y):
            err = "f v neg f is not top"
        return err

    def check_kernel(path):
        doc = json.loads(path.read_text())
        k = serialize.qset_from_json(inst, doc["kernel"])
        incl = serialize.qrelation_from_json(inst, doc["inclusion"])
        if (incl.source, incl.target) != (k, kx):
            return "inclusion has the wrong type"
        if inst.compose(m["k"], incl).blocks:
            return "f . incl is not zero"
        if inst.compose(inst.dagger(incl), incl) != inst.identity(k):
            return "incl is not dagger monic"
        return None

    def compute(name, expr, loads, check):
        out = workdir / f"{name}.json"
        argv = ["compute", "--instance", "qrel", "--out", str(out)]
        for key in loads:
            argv += ["--load", f"{key}={files[key]}"]
        return Job(name, argv + [expr], out, check)

    return [
        compute("compose-join", "a ∘ b ∨ c", "abc", check_compose_join),
        compute("trace", "trace(e)", "e", check_trace),
        compute("tensor", "tensor(p, q)", "pq", check_tensor),
        compute("name", "name(b)", "b", check_name),
        compute("star", "star(s)", "s", check_star),
        Job("neg", ["neg", "--instance", "qrel", "--out", str(workdir / "neg.json"),
                    str(files["f"])], workdir / "neg.json", check_neg),
        Job("kernel", ["kernel", "--out", str(workdir / "kernel.json"), str(files["k"])],
            workdir / "kernel.json", check_kernel, norm_class_allowed=True),
    ]
