"""The checking scripts under ``scripts/``: the digest comparison of
``check_bit_identity.py``, the run pairing of ``bench_trajectory.py`` and the
line counts of ``code_lines.py``."""

import hashlib
import importlib.util
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load(name):
    """Import ``scripts/<name>.py`` as a module, putting back the thread variables
    that ``check_bit_identity`` pins when it is imported."""
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return module


@pytest.fixture(scope="module")
def bit_identity():
    return load("check_bit_identity")


@pytest.fixture(scope="module")
def bench_trajectory():
    return load("bench_trajectory")


def test_loading_leaves_the_thread_variables_as_they_were(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    load("check_bit_identity")
    assert {var: os.environ.get(var) for var in THREAD_VARS} == before


class TestMoved:
    def test_nothing_moved(self, bit_identity):
        assert bit_identity.moved(dict(bit_identity.EXPECTED), dict(bit_identity.EXPECTED_FILES)) == []

    def test_names_a_moved_digest(self, bit_identity):
        digests = dict(bit_identity.EXPECTED, **{"baselines sha256": "0" * 64})
        recorded = bit_identity.EXPECTED["baselines sha256"]
        assert bit_identity.moved(digests, dict(bit_identity.EXPECTED_FILES)) == [
            f"moved: baselines sha256 {'0' * 64} (recorded {recorded})"]

    def test_names_a_missing_digest(self, bit_identity):
        digests = dict(bit_identity.EXPECTED)
        del digests["harness sha256"]
        lines = bit_identity.moved(digests, dict(bit_identity.EXPECTED_FILES))
        assert lines == [f"moved: harness sha256 None (recorded {bit_identity.EXPECTED['harness sha256']})"]

    def test_names_a_moved_missing_and_extra_file(self, bit_identity):
        files = dict(bit_identity.EXPECTED_FILES)
        recorded = {name: files[name] for name in ("sweep.csv", "trace-ar1.csv")}
        files["sweep.csv"] = "abcdef012345"
        del files["trace-ar1.csv"]
        files["extra.csv"] = "0123456789ab"
        assert bit_identity.moved(dict(bit_identity.EXPECTED), files) == [
            "moved: file extra.csv 0123456789ab (recorded None)",
            f"moved: file sweep.csv abcdef012345 (recorded {recorded['sweep.csv']})",
            f"moved: file trace-ar1.csv None (recorded {recorded['trace-ar1.csv']})",
        ]


def test_paired_digest_is_the_recorded_one(bit_identity):
    # The six-digit tables cannot show a score that moves in its last bits; this digest can.
    digest = hashlib.sha256()
    bit_identity.paired(digest)
    assert digest.hexdigest() == bit_identity.EXPECTED["paired sha256"]


DECLARED = [
    {"name": "calls_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
]


def run(calls, ms, raw_calls, digest="d", failed=0):
    """One untraced result file's contents, as ``_runs`` reads them."""
    return {
        "result": {"failed": failed,
                   "metrics": {"calls_per_s": {"value": calls}, "call_ms_p50": {"value": ms}}},
        "info": {"mse_table_sha256": digest,
                 "as_measured": {"calls_per_s": raw_calls, "call_ms_p50": ms / 2}},
    }


class TestTrajectory:
    @pytest.fixture()
    def result(self, bench_trajectory):
        parent = {
            # seed 1 has no change run, so it is left out
            ("w", 1): run(1.0, 9.0, 1.0),
            ("w", 2): run(100.0, 5.0, 50.0, digest="p2"),
            ("w", 3): run(200.0, 4.0, 60.0, digest="p3"),
            ("w", 4): run(300.0, 3.0, 70.0, digest="p4"),
            # a workload with one shared seed is skipped
            ("short", 1): run(10.0, 1.0, 1.0),
            ("short", 2): run(10.0, 1.0, 1.0),
        }
        change = {
            # seed 2: a win on calls_per_s (higher), a loss on call_ms_p50 (lower)
            ("w", 2): run(110.0, 6.0, 40.0, digest="c2", failed=1),
            # seed 3: ties on both, counted for neither side
            ("w", 3): run(200.0, 4.0, 60.0, digest="c3"),
            # seed 4: a loss on calls_per_s, a win on call_ms_p50
            ("w", 4): run(290.0, 2.0, 80.0, digest="c4"),
            ("w", 5): run(1e9, 1e-9, 1e9),
            ("short", 2): run(20.0, 0.5, 2.0),
        }
        return bench_trajectory.trajectory(parent, change, DECLARED)

    def test_pairs_by_seed_and_skips_workloads_with_fewer_than_two(self, result):
        assert list(result) == ["w"]
        w = result["w"]
        assert w["seeds"] == [2, 3, 4] and w["pairs"] == 3
        assert w["failed"] == [[0, 1], [0, 0], [0, 0]]
        assert w["mse_table_sha256"] == [["p2", "c2"], ["p3", "c3"], ["p4", "c4"]]

    def test_medians_quartiles_and_ratio(self, result):
        calls = result["w"]["metrics"]["calls_per_s"]
        assert calls["unit"] == "1/s" and calls["better"] == "higher"
        assert calls["parent"] == {"median": 200.0, "q1": 150.0, "q3": 250.0}
        assert calls["change"] == {"median": 200.0, "q1": 155.0, "q3": 245.0}
        assert calls["change_over_parent"] == 1.0

    def test_wins_follow_each_metric_direction_and_ties_count_for_neither(self, result):
        metrics = result["w"]["metrics"]
        assert metrics["calls_per_s"]["change_wins"] == 1  # seed 2
        assert metrics["call_ms_p50"]["change_wins"] == 1  # seed 4
        assert metrics["call_ms_p50"]["change_over_parent"] == 1.0

    def test_reports_the_timings_as_measured(self, result):
        raw = result["w"]["as_measured"]
        assert set(raw) == {"calls_per_s", "call_ms_p50"}
        assert raw["calls_per_s"]["parent"]["median"] == 60.0
        assert raw["calls_per_s"]["change"]["median"] == 60.0
        assert raw["calls_per_s"]["change_wins"] == 1  # seed 4, higher is better
        assert raw["call_ms_p50"]["better"] == "lower"
        assert raw["call_ms_p50"]["change_wins"] == 1  # seed 4's 1.0 ms against 1.5 ms


SAMPLE_MODULE = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return x  # a trailing comment


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_leaves_out_blanks_comments_and_docstrings_only(tmp_path, capsys):
    code_lines = load("code_lines")
    # def f, text = (two lines), return, class C, y = 1
    assert code_lines.code_lines(SAMPLE_MODULE) == 6
    (tmp_path / "sample.py").write_text(SAMPLE_MODULE)
    (tmp_path / "other.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     3      2  other.py", "    17      6  sample.py", "    20      8  total", ""]
