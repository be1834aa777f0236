"""Smoke test of benchmarks/bench.py: its sections run against the current
API on a small window, one run each."""

import importlib.util
from pathlib import Path

import pytest

from homlie.algebra import BUILTIN_NAMES, Window
from homlie.classify import COMMUTING_MAPS

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "WINDOW", Window(-1, 1))
    monkeypatch.setattr(module, "REPEAT", 1)
    return module


def test_bench_times_the_spaces_that_reproduce_paper_scans(bench):
    assert len(bench.SPACES) == 4 and len(bench.SCAN) == 104
    assert ("wittq", "biderivation", 0, 0) in bench.SPACES
    row = bench.bench_space("wittq", "biderivation", 0, 0)
    assert row["stable_dim"] == 1
    assert row["raw_rows"] > 0
    spread = row["stable_solve"]
    assert spread["q1_s"] == spread["median_s"] == spread["q3_s"]


def test_bench_checks_every_named_map_and_builtin(bench):
    rows = bench.bench_checker()
    assert {row["check"] for row in rows} == {
        "check_bilinear_class", "check_linear_class", "check_axioms", "check_multiplicative"}
    assert all(row["instances"] > 0 for row in rows)
    assert all((row["witnesses"] == 0) == row["passed"] for row in rows)


def test_bench_times_failing_checks(bench):
    rows = bench.bench_checker()
    failing = {(row["check"], row["algebra"], row.get("map"))
               for row in rows if not row["passed"]}
    assert failing == {
        *(("check_multiplicative", alg, None) for alg in ("w22q", "wittq", "wittsuperq")),
        ("check_bilinear_class", "w22q", "phi_0"),
        ("check_bilinear_class", "wittsuperq", "phi_minus1"),
    }
    assert {row["algebra"] for row in rows if row["check"] == "check_multiplicative"} == set(
        BUILTIN_NAMES)


def test_bench_stops_on_a_wrong_verdict(bench, monkeypatch):
    monkeypatch.setattr(bench, "NOT_MULTIPLICATIVE", ("w22q", "wittq", "wittsuperq", "example49"))
    with pytest.raises(AssertionError, match="example49"):
        bench.bench_checker()


def test_bench_checks_every_commuting_map(bench):
    rows = [row for row in bench.bench_checker() if row["check"] == "check_linear_class"]
    assert {row["class"] for row in rows} == {"commuting_map"}
    assert {row["map"] for row in rows} == set(COMMUTING_MAPS)
    assert ("w22q", "L->W") in {(row["algebra"], row["map"]) for row in rows}
    assert ("wittsuperq", "L->G") in {(row["algebra"], row["map"]) for row in rows}
    assert {row["algebra"] for row in rows if row["map"] == "identity"} == set(BUILTIN_NAMES)
