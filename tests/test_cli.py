import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homlie
from homlie import cli, solver, suite
from homlie.algebra import BUILTIN_NAMES, Window, builtin
from homlie.cli import BILINEAR_FLAGS, LINEAR_FLAGS, main
from homlie.dsl import serialize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_axioms_passes(capsys):
    code, out, _ = run(capsys, "check-axioms", "--algebra", "w22q", "--window", "-3..3")
    assert code == 0
    assert "[PASS] axioms" in out
    assert "[FAIL] multiplicative" in out  # informational: the twist is not a homomorphism


def test_check_axioms_json_schema(capsys):
    code, out, _ = run(
        capsys, "check-axioms", "--algebra", "wittq", "--window", "-2..2",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check-axioms"
    assert payload["config"]["algebra"] == "wittq"
    names = [r["name"] for r in payload["results"]]
    assert names == ["axioms", "multiplicative", "random-bilinearity"]
    for r in payload["results"]:
        assert r["status"] in ("pass", "fail")


def test_json_output_is_deterministic(capsys):
    args = ("solve", "--algebra", "wittq", "--class", "biderivation",
            "--degree", "0", "--window", "-3..3", "--delta", "1",
            "--output", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_reports_stable_dim(capsys):
    code, out, _ = run(
        capsys, "solve", "--algebra", "wittq", "--class", "biderivation",
        "--degree", "0", "--window", "-3..3", "--delta", "1", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["dim"] == 1


def test_solve_alpha_class_dim_zero(capsys):
    code, out, _ = run(
        capsys, "solve", "--algebra", "wittq", "--class", "alpha-biderivation",
        "--degree", "0", "--window", "-3..3", "--delta", "1", "--output", "json",
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["dim"] == 0
    assert result["details"][0] == (
        "stable dim 0 (raw window 0, enlarged not solved (window space is 0))"
    )


def test_solve_specialize_q(capsys):
    code, out, _ = run(
        capsys, "solve", "--algebra", "wittq", "--class", "biderivation",
        "--degree", "0", "--window", "-2..2", "--delta", "1",
        "--specialize-q", "2", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert "dim_specialized" in payload["results"][0]


@pytest.mark.parametrize("cls,enlarged", [
    ("biderivation", True),
    ("alpha-biderivation", False),
])
def test_specialize_q_reuses_the_window_system(capsys, monkeypatch, cls, enlarged):
    windows = []
    build = solver.build_system

    def counting_build_system(p, ansatz, *args, **kwargs):
        windows.append(ansatz.window)
        return build(p, ansatz, *args, **kwargs)

    monkeypatch.setattr(solver, "build_system", counting_build_system)
    monkeypatch.setattr(cli, "build_system", counting_build_system, raising=False)
    code, out, _ = run(
        capsys, "solve", "--algebra", "wittq", "--class", cls,
        "--degree", "0", "--window", "-1..1", "--specialize-q", "2",
        "--output", "json",
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    window = Window(-1, 1)
    # each window is built once, the enlarged one first
    assert windows == ([window.widen(2), window] if enlarged else [window])
    p = builtin("wittq")
    sysw = build(p, solver.build_ansatz(
        p, "bilinear", cls.replace("-", "_"), s=0, window=window,
    ))
    assert result["dim_specialized"] == solver.nullspace_dim_specialized(sysw, 2)


def test_specialize_q_rejects_forbidden(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algebra", "wittq", "--class", "biderivation",
              "--specialize-q", "1"])
    assert err.value.code == 2


def test_classify_w22q(capsys):
    code, out, _ = run(
        capsys, "classify", "--algebra", "w22q", "--class", "biderivation",
        "--degree", "0", "--window", "-3..3", "--delta", "1", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    res = payload["results"][0]
    assert res["dim"] == 2 and res["residual_dim"] == 0


def test_classify_named_maps_of_another_degree_are_no_dependence(capsys):
    # phi_ad and phi_0 have degree 0, so in a degree -1 ansatz both are zero:
    # they span nothing there, and the whole space is residual
    code, out, err = run(
        capsys, "classify", "--algebra", "w22q", "--class", "alpha-biderivation",
        "--degree", "-1", "--window", "0..1", "--delta", "0", "--output", "json",
    )
    assert code == 1 and err == ""
    res = json.loads(out)["results"][0]
    assert res["dim"] == 2 and res["residual_dim"] == 2
    assert res["coefficients"] == [None, None]


def test_check_map_failure_exits_nonzero(capsys):
    code, out, _ = run(
        capsys, "check-map", "--algebra", "w22q", "--map", "phi_0",
        "--class", "alpha-biderivation", "--window", "-2..2",
    )
    assert code == 1
    assert "[FAIL]" in out


def test_commuting_maps_and_corollaries(capsys):
    code, out, _ = run(
        capsys, "commuting-maps", "--algebra", "wittq", "--window", "-3..3",
        "--delta", "1", "--degree-range", "-1..1",
    )
    assert code == 0 and "1 parameter(s)" in out
    code, out, _ = run(
        capsys, "corollaries", "--algebra", "wittq", "--window", "-3..3",
        "--delta", "1", "--degree-range", "-1..1",
    )
    assert code == 0
    assert "'identity'" in out and "'zero'" in out


def test_alg_file_input(tmp_path, capsys):
    path = tmp_path / "user.alg"
    path.write_text(serialize(builtin("wittq")))
    code, out, _ = run(capsys, "check-axioms", "--algebra", str(path),
                       "--window", "-2..2")
    assert code == 0


def test_bad_alg_file_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.alg"
    broken.write_text("algebra x; mode lie; family L parity 0 degrees int;\n"
                      "bracket [L(m), L(n)] = qbr(m-n) * L(m+n+1);\n"
                      "alpha L(m) = (1) * L(m);\n")
    # a UTF-16 byte order mark is not UTF-8
    not_utf8 = tmp_path / "utf16.alg"
    not_utf8.write_bytes(b"\xff\xfe" + "algebra x;".encode("utf-16-le"))
    for path in (broken, not_utf8, tmp_path):
        code, err = run_bad_input(capsys, "check-axioms", "--algebra", str(path),
                                  "--window", "-2..2")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("coeff,where", [
    ("1/(q-q)", "(m, n) = (-1, -1)"),
    ("1/qbr(m)", "(m, n) = (0, -1)"),
], ids=["zero", "qbr0"])
@pytest.mark.parametrize("command", [
    ("check-axioms",),
    ("solve", "--class", "biderivation"),
    ("check-map", "--map", "phi_ad", "--class", "biderivation"),
], ids=lambda command: command[0])
def test_coefficient_dividing_by_zero_exits_two(tmp_path, capsys, coeff, where, command):
    path = tmp_path / "zero.alg"
    path.write_text("algebra z; mode lie; family L parity 0 degrees int;\n"
                    f"bracket [L(m), L(n)] = ({coeff}) * L(m+n);\n"
                    "alpha L(m) = (1) * L(m);\n")
    code, err = run_bad_input(capsys, *command, "--algebra", str(path), "--window", "-1..1")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: coefficient ")
    assert "divides by zero" in err[0] and where in err[0]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algebra", "wittq"])  # missing --class
    assert err.value.code == 2


def run_bad_input(capsys, *argv):
    """Exit status and stderr lines of an input the CLI must reject."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err.splitlines()


@pytest.mark.parametrize("argv", [
    ("solve", "--algebra", "wittq", "--class", "biderivation", "--window", "-2..2"),
    ("classify", "--algebra", "wittq", "--class", "biderivation", "--window", "-2..2"),
    ("commuting-maps", "--algebra", "wittq", "--window", "-2..2"),
    ("corollaries", "--algebra", "wittq", "--window", "-2..2"),
    ("reproduce-paper", "--window", "-2..2"),
])
def test_negative_delta_exits_two(capsys, argv):
    code, err = run_bad_input(capsys, *argv, "--delta", "-3")
    assert code == 2
    assert len(err) == 1 and "--delta" in err[0]


def test_negative_samples_exits_two(capsys):
    code, err = run_bad_input(
        capsys, "check-axioms", "--algebra", "wittq", "--window", "-1..1",
        "--samples", "-5",
    )
    assert code == 2
    assert len(err) == 1 and "--samples" in err[0]


@pytest.mark.parametrize("argv", [
    ("solve", "--class", "biderivation"),
    ("classify", "--class", "biderivation"),
    ("commuting-maps",),
    ("corollaries",),
])
def test_odd_parity_on_a_lie_algebra_exits_two(capsys, argv):
    code, err = run_bad_input(
        capsys, *argv, "--algebra", "wittq", "--window", "-1..1", "--parity", "1",
    )
    assert code == 2
    assert err == ["error: odd maps need a super presentation"]


BAD_THREAD_COUNTS = ("0", "-3", "two", "1.5")


@pytest.mark.parametrize("value", BAD_THREAD_COUNTS)
def test_bad_thread_count_exits_two(capsys, value):
    code, err = run_bad_input(
        capsys, "reproduce-paper", "--window", "-1..1", "--threads", value
    )
    assert code == 2
    assert len(err) == 1 and "--threads" in err[0]


@pytest.mark.parametrize("value", BAD_THREAD_COUNTS)
def test_bad_thread_environment_exits_two_before_any_scan(capsys, monkeypatch, value):
    monkeypatch.setenv("HOMLIE_THREADS", value)
    ran = []
    monkeypatch.setattr(suite.AcceptanceSuite, "run_all", lambda self: ran.append(self) or [])
    code, err = run_bad_input(capsys, "reproduce-paper", "--window", "-1..1")
    assert code == 2
    assert err == [f"error: HOMLIE_THREADS must be a positive integer, got {value!r}"]
    assert ran == []
    with pytest.raises(suite.BadThreadCount):
        suite.SuiteConfig(threads=0).resolved_threads()


def test_scan_pool_is_capped_by_the_task_count(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(suite, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suite, "_scan_task", lambda task: {"id": task[0]})
    tasks = [(i,) for i in range(3)]
    for threads in (64, 2):
        assert suite._run_scan_tasks(tasks, threads) == {i: {"id": i} for i in range(3)}
    assert sizes == [3, 2]


FUZZ_VALUES = {
    "--class": tuple(sorted(BILINEAR_FLAGS) + sorted(LINEAR_FLAGS)) + ("bogus",),
    "--parity": ("0", "1", "2", "both"),
    "--degree": ("-1", "0", "1"),
    "--delta": ("0", "1"),
    "--map": ("phi_ad", "phi_0", "phi_minus1"),
}
# every subcommand but reproduce-paper (whose criteria use fixed windows),
# with the options it takes
FUZZ_OPTIONS = {
    "check-axioms": (),
    "check-map": ("--map", "--class"),
    "solve": ("--class", "--degree", "--parity", "--delta"),
    "classify": ("--class", "--degree", "--parity", "--delta"),
    "commuting-maps": ("--parity", "--delta"),
    "corollaries": ("--parity", "--delta"),
}


def _fragment(flag):
    # an option left out, or given one of its values (valid or not)
    return st.one_of(st.just(()), st.sampled_from(FUZZ_VALUES[flag]).map(lambda v: (flag, v)))


def _fuzz_argv(command):
    return st.tuples(
        st.just((command,)),
        st.sampled_from(BUILTIN_NAMES + ("no-such-algebra",)).map(lambda a: ("--algebra", a)),
        st.sampled_from(("-1..1", "0..1", "0..0", "-1..0", "1..0")).map(lambda w: ("--window", w)),
        *[_fragment(flag) for flag in FUZZ_OPTIONS[command]],
        # now and then one more option, which the subcommand may not take
        st.one_of(st.just(()), st.just(()), st.just(()),
                  st.sampled_from(sorted(FUZZ_VALUES)).flatmap(_fragment)),
    ).map(lambda parts: [arg for part in parts for arg in part])


FUZZ_ARGV = st.sampled_from(sorted(FUZZ_OPTIONS)).flatmap(_fuzz_argv)


@settings(max_examples=100, deadline=None)
@given(FUZZ_ARGV)
@example(["solve", "--algebra", "wittq", "--class", "biderivation",
          "--window", "-1..1", "--parity", "1"])
@example(["classify", "--algebra", "w22q", "--window", "0..1",
          "--class", "alpha-biderivation", "--degree", "-1", "--delta", "0"])
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


def run_module(*argv):
    """`python -m homlie` in a fresh interpreter that imports this homlie."""
    src = str(Path(homlie.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "homlie", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )


def test_python_m_homlie_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "usage: homlie" in proc.stdout


def test_python_m_homlie_rejects_bad_input():
    proc = run_module("solve", "--algebra", "wittq", "--class", "biderivation",
                      "--window", "-1..1", "--delta", "-1")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_negative_twist_power_exits_two(capsys):
    code, err = run_bad_input(
        capsys, "solve", "--algebra", "wittq", "--class", "alpha-derivation",
        "--window", "-1..1", "--k", "-1",
    )
    assert code == 2
    assert len(err) == 1 and "--k" in err[0]


def test_unknown_named_map_exits_two(capsys):
    code, err = run_bad_input(
        capsys, "classify", "--algebra", "wittq", "--class", "biderivation",
        "--window", "-1..1", "--knowns", "bogus",
    )
    assert code == 2
    assert err == ["error: unknown named map 'bogus'"]


def test_map_outside_the_algebra_exits_two(capsys):
    # phi_0 takes values in the W family, which wittq does not have; neither
    # map has its L family on example49
    for algebra, name, cls, missing in (
        ("wittq", "phi_0", "biderivation", "W"),
        ("example49", "phi_0", "super-biderivation", "L"),
        ("example49", "phi_minus1", "super-biderivation", "L"),
    ):
        code, err = run_bad_input(
            capsys, "check-map", "--algebra", algebra, "--map", name,
            "--class", cls, "--window", "-1..1",
        )
        assert code == 2
        assert err == [f"error: unknown generator {missing!r}"]


@pytest.mark.parametrize("argv", [
    ("solve", "--class", "biderivation"),
    ("commuting-maps",),
])
def test_finite_index_set_solves(tmp_path, capsys, argv):
    path = tmp_path / "finite.alg"
    path.write_text("algebra finite; mode lie; family L parity 0 degrees {0, 1, 2};\n"
                    "bracket [L(m), L(n)] = (m - n) * L(m+n);\n"
                    "alpha L(m) = (1) * L(m);\n")
    code, _, err = run(capsys, *argv, "--algebra", str(path), "--window", "0..2")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ("solve", "--class", "alpha-super-biderivation", "--degree", "3"),
    ("classify", "--class", "super-biderivation", "--degree", "3"),
])
def test_degree_shift_on_an_unindexed_presentation_exits_two(capsys, argv):
    code, err = run_bad_input(capsys, *argv, "--algebra", "example49")
    assert code == 2
    assert err == ["error: example49 is unindexed, so its maps have degree 0, not 3"]


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "stable_solve", exhausted)
    code, err = run_bad_input(
        capsys, "solve", "--algebra", "wittq", "--class", "biderivation",
        "--window", "-1..1", "--degree", "99999999999",
    )
    assert code == 2
    assert err == ["error: the input is too large to evaluate in memory"]


def test_repeated_known_exits_two(capsys):
    code, err = run_bad_input(
        capsys, "classify", "--algebra", "wittq", "--class", "biderivation",
        "--window", "-1..1", "--knowns", "phi_ad,phi_ad",
    )
    assert code == 2
    assert err == ["error: the named maps are linearly dependent: phi_ad is listed twice"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check-axioms", "--algebra", "wittq", "--window", "-2..2",
        "--output", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "check-axioms"
