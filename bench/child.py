"""One timed pass of one workload in one fresh process, as a user's run would be.

    python3 bench/child.py --workload NAME --seed N --result FILE
        [--trace 0|1] [--spans FILE] [--corrupt]

Times its own set-up (import of qlab, input generation, instance
construction), then one pass over the workload's job list, then checks every
output after the timed pass and writes its measurements as one JSON document
to FILE.  `bench/run.py` starts this process with a pinned environment and
repeats it; run that instead of this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_STEPS = 1_000  # one speed sample: about 5 ms
SAMPLE_EVERY_S = 0.25


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _setup(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qlab

    src = (ROOT / "src").resolve()
    if src not in Path(qlab.__file__).resolve().parents:
        raise RuntimeError(f"qlab was imported from {qlab.__file__}, not from {src}")
    jobs = workloads.setup(workload, seed, workdir)
    return jobs, time.perf_counter() - start


def _speed_sample() -> tuple[float, float]:
    """Wall and CPU time of a fixed loop: a sample of the machine's speed now.

    The loop does the kind of work qlab does (Fraction arithmetic, tuples,
    dicts) but uses only the standard library, so no change to qlab can move
    it."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, SAMPLE_STEPS):
        acc = acc * Fraction(1, 2) + Fraction(i % 7, i % 5 + 1)
        table[(i % 97, i % 13)] = (acc.numerator % 1000, i)
        if i % 64 == 0:
            acc = Fraction(0)
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Speedometer:
    """Takes a speed sample every SAMPLE_EVERY_S of wall time while a pass runs.

    On a shared 2-vCPU VM the speed of a fixed loop swung by up to 1.9x, in
    spells of seconds to a minute.  A pass's time over the mean sample time taken
    during it counts the pass in units of the sample loop, which cancels
    those swings.  The samples run from a timer signal, in this process and
    thread, and their own time is taken off the pass's time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _take(self, signum, frame) -> None:
        self.samples.append(_speed_sample())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_pass(main, jobs: list, speed: Speedometer | None) -> tuple[float, float, list]:
    """Run every job once; only this is timed.  Returns (wall, cpu, raw results)."""
    raw = []
    cpu0, wall0 = _cpu(), time.perf_counter()
    if speed:
        speed.start()
    for job in jobs:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(job.argv)
        except Exception:  # noqa: BLE001  (a traceback is a failed job)
            code, err = None, io.StringIO(traceback.format_exc())
        raw.append((code, err.getvalue()))
    if speed:
        speed.stop()
    return time.perf_counter() - wall0, _cpu() - cpu0, raw


def _judge(job, code, stderr: str, corrupt: bool) -> tuple[str, str | None]:
    """Classify one job's outcome after the pass: ok, norm_class or failed."""
    if code is None or "Traceback" in stderr:
        return "failed", "traceback: " + stderr.strip().splitlines()[-1]
    if code == 2 and job.norm_class_allowed and workloads.NORM_CLASS_ERROR in stderr:
        return "norm_class", None
    if code != 0:
        return "failed", f"exit code {code}: {stderr.strip()[:200]}"
    if corrupt:
        data = job.out.read_bytes()
        job.out.write_bytes(data[: len(data) // 2])
    try:
        reason = job.check(job.out)
    except Exception as exc:  # noqa: BLE001  (an unreadable output is a failure)
        reason = f"check raised {type(exc).__name__}: {exc}"
    return ("failed", reason) if reason else ("ok", None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    p.add_argument("--corrupt", action="store_true",
                   help="truncate the first job's output before its check (self-test)")
    args = p.parse_args(argv)

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        jobs, setup_s = _setup(args.workload, args.seed, workdir)
        result = {"setup_s": setup_s, **_measure(args, jobs)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


def _measure(args, jobs: list) -> dict:
    from qlab import cli

    # A traced pass is not sampled, so its spans hold qlab's time only.
    tracer = tracing.Tracer() if args.trace else None
    speed = None if tracer else Speedometer()
    if tracer:
        tracer.install()
    try:
        wall, cpu, raw = _run_pass(cli.main, jobs, speed)
    finally:
        if tracer:
            tracer.uninstall()
    # Taken before the checks, which are not part of the user's run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb}
    if speed:
        result["wall_s"] -= sum(w for w, _ in speed.samples)
        result["cpu_s"] -= sum(c for _, c in speed.samples)
        # One more sample after the pass, so that a short pass has one too.
        samples = speed.samples + [_speed_sample()]
        result["wall_ref"] = result["wall_s"] / statistics.fmean(w for w, _ in samples)
        result["cpu_ref"] = result["cpu_s"] / statistics.fmean(c for _, c in samples)
        result["speed_samples"] = len(samples)

    outcome = {}
    for i, (job, (code, stderr)) in enumerate(zip(jobs, raw)):
        status, reason = _judge(job, code, stderr, args.corrupt and i == 0)
        outcome[job.name] = {
            "status": status, "reason": reason,
            "sha256": (hashlib.sha256(job.out.read_bytes()).hexdigest()
                       if job.out.exists() else None),
        }
    result["jobs"] = outcome
    if tracer:
        if args.spans:
            tracer.write_spans(args.spans)
        result["per_layer"] = tracing.derive(tracer.spans, tracer.counts)
    return result


if __name__ == "__main__":
    sys.exit(main())
