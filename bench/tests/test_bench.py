"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests

Each test runs a workload for one second, so it makes the fewest passes it
can: one untraced pass, or one untraced and one traced.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402


def run_bench(workload: str, trace: int, corrupt: bool = False) -> dict:
    """Run the benchmark at seed 0; return its report."""
    return bench_run.run_workload(workload, 0, 1, trace, corrupt=corrupt)


bench = functools.cache(run_bench)


def _calls(report: dict) -> dict:
    return {k: v for k, v in report["per_layer"].items() if k.endswith(".calls")}


def _digests(report: dict) -> dict:
    return {name: job["sha256"] for name, job in report["jobs"].items()}


@pytest.mark.parametrize("workload", ["laws-classical", "cli-qrel"])
def test_two_traced_runs_give_identical_calls(workload):
    first = bench(workload, 1)
    second = run_bench(workload, 1)
    assert first["failed"] == second["failed"] == 0
    assert _calls(first) == _calls(second)
    assert first["calls_repeat"]


def test_traced_run_gives_every_per_layer_metric():
    names = {m["name"] for m in bench_run.SPEC["per_layer"]}
    assert set(bench("cli-qrel", 1)["per_layer"]) == names


def test_rref_is_not_called_on_laws_classical():
    per_layer = bench("laws-classical", 1)["per_layer"]
    assert per_layer["exact.rref.calls"] == 0
    assert per_layer["quantale.FiniteQuantale.join.calls"] > 0


@pytest.mark.parametrize("workload", ["laws-qrel", "cli-qrel"])
def test_rref_is_called_on_the_qrel_workloads(workload):
    report = bench(workload, 1)
    assert report["failed"] == 0
    assert report["per_layer"]["exact.rref.calls"] > 0


def test_traced_and_untraced_outputs_are_byte_identical():
    plain, traced = bench("cli-qrel", 0), bench("cli-qrel", 1)
    assert plain["failed"] == 0
    assert all(len(d) == 1 for d in _digests(traced).values())
    assert _digests(plain) == _digests(traced)


def test_kernel_job_succeeds_so_its_output_is_checked():
    kernel = bench("cli-qrel", 0)["jobs"]["kernel"]
    assert kernel["attempted"] > 0
    assert kernel["failed"] == kernel["norm_class"] == 0


def test_corrupted_output_counts_as_a_failure():
    report = run_bench("cli-qrel", 0, corrupt=True)
    assert report["failed"] == report["passes"] > 0
    assert report["fail_ratio"] == report["failed"] / report["attempted"]
