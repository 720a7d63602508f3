"""qlab benchmark: run one workload (or all) at a seed and print its metrics.

    python3 bench/run.py --workload {laws-qrel,laws-classical,cli-qrel,all}
        --seed N [--seconds S] [--trace 0|1]

Run it from the repository root.  The workloads, metrics and the default of
`--seconds` are those of `BENCHMARK.json`.  Each timed pass of a workload is
one fresh child process (`bench/child.py`), as a user's `qlab check` or
`qlab compute` is, with a pinned environment: PYTHONHASHSEED=0 and no
QLAB_THREADS.  Each child times its own set-up (import of qlab, input
generation, instance construction) and its one pass, then checks its outputs
after the timed pass.  Children are started one after another for about
`--seconds`, and the per-pass medians are reported.

With `--trace 0` the end-to-end metrics are printed.  The judged ones are
wall_ref and cpu_ref (a pass's wall and CPU time in units of a fixed
stdlib-only loop sampled every quarter second during the pass, which cancels
the swings in speed of a shared machine; see `child.Speedometer`), setup_s and
peak_rss_mb.  The pass's wall_s and cpu_s in seconds, fail_ratio and the
output digests are printed with them as information.  With
`--trace 1` untraced and traced passes alternate and the per-layer metrics of
`bench/tracing.py` are printed.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full report is written to
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
CHILD_TIMEOUT_S = 120
# The judged metrics of BENCHMARK.json, and the raw times printed beside them.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]} | {"wall_s": "s", "cpu_s": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QLAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(out: Path, workload: str, seed: int, traced: bool,
           spans: Path | None, corrupt: bool) -> dict:
    result = out / f"child-{workload}-s{seed}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result), "--trace", str(int(traced))]
    if spans:
        cmd += ["--spans", str(spans)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "PYTHONHASHSEED": "0",
        "QLAB_THREADS": None,
    }


def _jobs(passes: list) -> dict:
    """Per job: passes attempted, failures, norm-class exits, distinct digests."""
    jobs = {}
    for p in passes:
        for name, job in p["jobs"].items():
            rec = jobs.setdefault(name, {"attempted": 0, "failed": 0, "norm_class": 0,
                                         "sha256": [], "reasons": []})
            rec["attempted"] += 1
            if job["status"] != "ok":
                rec[job["status"]] += 1
            if job["reason"] and len(rec["reasons"]) < 3:
                rec["reasons"].append(job["reason"])
            if job["sha256"] not in rec["sha256"]:
                rec["sha256"].append(job["sha256"])
    return jobs


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 corrupt: bool = False) -> dict:
    """Run fresh one-pass children for about `seconds` and report their medians.

    With `corrupt`, every child truncates its first job's output before the
    check; the self-tests use it to see that a bad output is counted."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env_before = environment()
    kinds = ("plain", "traced") if trace else ("plain",)
    passes = {k: [] for k in kinds}
    took = {}
    deadline = time.perf_counter() + seconds
    while True:
        for kind in kinds:
            traced = kind == "traced"
            spans = (out / f"spans-{workload}-s{seed}.jsonl"
                     if traced and not passes[kind] else None)
            start = time.perf_counter()
            passes[kind].append(_child(out, workload, seed, traced, spans, corrupt))
            took[kind] = time.perf_counter() - start
        if time.perf_counter() + sum(took.values()) > deadline:
            break

    plain = passes["plain"]
    everything = [p for k in kinds for p in passes[k]]
    jobs = _jobs(everything)
    attempted = sum(j["attempted"] for j in jobs.values())
    failed = sum(j["failed"] for j in jobs.values())
    samples = {key: [p[key] for p in plain] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["wall_ref"] = [p["wall_ref"] for p in plain]
    samples["cpu_ref"] = [p["cpu_ref"] for p in plain]
    samples["setup_s"] = [p["setup_s"] for p in everything]
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "env": env_before, "loadavg_after": list(os.getloadavg()),
        "passes": len(plain), "samples": samples,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "norm_class": sum(j["norm_class"] for j in jobs.values()),
        "jobs": jobs,
        "end_to_end": {key: statistics.median(v) for key, v in samples.items()},
    }
    if trace:
        runs = [p["per_layer"] for p in passes["traced"]]
        per_layer = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
        per_layer["trace_overhead"] = (
            statistics.median(p["wall_s"] for p in passes["traced"])
            / report["end_to_end"]["wall_s"])
        calls = [{k: v for k, v in run.items() if k.endswith(".calls")} for run in runs]
        report.update(per_layer=per_layer, calls_repeat=all(c == calls[0] for c in calls),
                      traced_wall_s_samples=[p["wall_s"] for p in passes["traced"]])
    path = out / f"report-{workload}-s{seed}-t{trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    report["path"] = str(path.relative_to(ROOT))
    return report


def _print_report(rep: dict) -> None:
    env = rep["env"]
    print(f"workload {rep['workload']} seed {rep['seed']} trace {rep['trace']}: "
          f"{rep['passes']} untraced passes; python {env['python']}, nproc {env['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    for name, value in rep["end_to_end"].items():
        print(f"  {name:<12} {value:.6g} {UNITS[name]}")
    print(f"  {'fail_ratio':<12} {rep['fail_ratio']:.6g} ratio "
          f"({rep['failed']}/{rep['attempted']} jobs; "
          f"{rep['norm_class']} kernel norm-class exits)")
    for name, job in rep["jobs"].items():
        digests = ",".join(d[:16] if d else "-" for d in job["sha256"])
        print(f"  job {name}: {job['attempted'] - job['failed']}/{job['attempted']} ok, "
              f"sha256 {digests}" + "".join(f"\n    {r}" for r in job["reasons"]))
    print(f"  report {rep['path']}")


def _metrics(rep: dict, trace: int) -> dict:
    values = rep["per_layer"] if trace else rep["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qlab" / "__init__.py").is_file():
        print(f"error: no qlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        _print_report(rep)
    if len(reports) == 1:
        metrics = _metrics(reports[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in reports for k, v in _metrics(r, args.trace).items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
