"""Tests of the benchmark's own code: answer checking, job encoding and
tracing.  Run with `python3 -m pytest perfbench`."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from homlie import algebra, solver  # noqa: E402

WITTQ_SPACE = workloads.SpaceJob(
    "wittq", "bilinear", "biderivation", 0, 1, 0, (-1, 1), 1, ("phi_ad",)
)
WITTQ_FAMILY = workloads.CommutingJob("wittq", 0, (-2, 2), 1, ("identity",), ("zero",))


def test_paper_answers_pass():
    assert workloads.run(WITTQ_SPACE) == []
    assert workloads.run(WITTQ_FAMILY) == []


@pytest.mark.parametrize("job", [
    WITTQ_SPACE._replace(dim=2),
    WITTQ_SPACE._replace(s=1),  # the paper's space sits at s=0 only
    WITTQ_FAMILY._replace(dim=2),
    WITTQ_FAMILY._replace(automorphisms=("zero",)),
    WITTQ_FAMILY._replace(derivations=("identity",)),
])
def test_wrong_expected_value_is_a_failure(job):
    assert worker.execute(0, job, None)["problems"]


def test_exception_is_a_failure():
    result = worker.execute(3, WITTQ_SPACE._replace(knowns=("phi_0",)), None)
    assert result["id"] == 3
    assert result["problems"][0].startswith("raised ")


def test_workloads_carry_the_papers_answers():
    scan = workloads.scan_jobs()
    assert len(scan) == 108
    assert sorted(j.dim for j in scan if j.dim) == [1, 1, 1, 2]
    assert sorted(j.dim for j in workloads.basis_jobs()) == [1, 1, 1, 2]
    assert sorted(j.dim for j in workloads.commuting_jobs()) == [1, 1, 1, 2]
    for make_jobs, _ in workloads.WORKLOADS.values():
        for job in make_jobs():
            assert workloads.decode(workloads.encode(job)) == job


def test_tracer_records_nested_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 7
        p = algebra.builtin("wittq")
        space = solver.stable_solve(
            p, "bilinear", "biderivation", s=0, window=algebra.Window(-1, 1), delta=2
        )
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert not hasattr(solver.stable_solve, "__wrapped__")
    assert space.dim == 1
    names = [s[0] for s in spans]
    assert names[:2] == ["algebra.builtin", "solver.stable_solve"]
    assert names.count("solver.build_system") == 2
    assert all(s[4] == 7 for s in spans)
    top = names.index("solver.stable_solve")
    assert all(s[3] == top for s in spans[top + 1:])
    metrics, table = tracing.summarize([spans])
    assert metrics["solver.build_system.calls"] == 2
    assert metrics["solver.enlarged_useful_frac"] == 1.0
    assert 0 < metrics["solver.enlarged.s"] < table["solver.stable_solve"][1]
    assert metrics["solver.unknowns"] > 0 and metrics["solver.rows"] > 0


def test_self_time_subtracts_children():
    spans = [
        ["classify.solve_commuting_maps", 0.0, 10.0, None, 1, {}],
        ["solver.stable_solve", 2.0, 5.0, 0, 1,
         {"window": [-1, 1], "raw_window_dim": 0, "basis_bits": 0}],
        ["solver.build_system", 2.5, 4.0, 1, 1,
         {"window": [-3, 3], "unknowns": 4, "rows": 9}],
    ]
    metrics, table = tracing.summarize([spans])
    assert table["classify.solve_commuting_maps"] == [1, 10.0, 7.0]
    assert table["solver.stable_solve"] == [1, 3.0, 1.5]
    assert metrics["solver.enlarged.s"] == 1.5
    assert metrics["classify.s"] == 7.0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
