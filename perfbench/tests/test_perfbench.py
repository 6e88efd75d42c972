"""Tests of the benchmark's own code: span arithmetic, end-to-end metrics,
the verdict checker and the job runner's failure accounting.

usage: python3 -m pytest -q perfbench/tests    (from the root of a checkout)
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harness import JobResult, run_job
from run import JobRun, end_to_end
from spans import layer_metrics, self_times
from verdict import check, observe
from workloads import Job, build, verify

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["covers.build_cover", 1.0, 4.0, 0],
        ["graphs.cayley", 2.0, 3.0, 1],
        ["graphs.cayley", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx(
        {"cli": 3.0, "covers.build_cover": 2.0, "graphs.cayley": 5.0})


def test_layer_metrics_sum_jobs_and_count_unattributed_time():
    job_a = {"spans": [["cli", 0.0, 4.0, -1], ["spectra.eigen", 1.0, 3.0, 0]],
             "counts": {"spectra.eigen_calls": 1}}
    job_b = {"spans": [["cli", 0.0, 1.0, -1]], "counts": {"spectra.eigen_calls": 2}}
    out = layer_metrics([job_a, job_b], [5.0, 1.5])
    assert out["spectra.eigen_s"] == pytest.approx(2.0)
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["spectra.eigen_calls"] == 3
    assert out["graphs.girth_s"] == 0.0
    assert out["trace.unattributed_s"] == pytest.approx(1.5)


def _verify_doc(girths):
    return {"command": "verify", "passed": True, "constructions": [
        {"fold": 3, "four_cycle_free": True, "p_cycle_present": sign == "plus",
         "passed": True, "girth": g}
        for sign, g in zip(("plus", "minus"), girths)]}


def test_verdict_accepts_right_output_and_flags_a_tampered_field():
    job = verify(3, 1, "both", "test", girth=True)
    good = json.dumps(_verify_doc([3, 5]))
    problems, seen = check(job, None, 0, False, good)
    assert problems == []
    assert check(job, seen, 0, False, good)[0] == []

    doc = _verify_doc([3, 5])
    doc["constructions"][1]["four_cycle_free"] = False
    problems, _ = check(job, seen, 0, False, json.dumps(doc))
    assert problems == ["constructions.1.four_cycle_free is False, the paper gives True"]

    problems, _ = check(job, seen, 0, False, json.dumps(_verify_doc([3, 7])))
    assert len(problems) == 1 and "constructions.*.girth" in problems[0]


def test_verdict_ignores_an_added_report_key():
    job = verify(3, 1, "both", "test", girth=True)
    doc = _verify_doc([3, 5])
    recorded = observe(job, json.dumps(doc))
    doc["stats"] = {"dfs_nodes": 12}
    assert check(job, recorded, 0, False, json.dumps(doc))[0] == []


def test_verdict_flags_a_changed_edge_list(tmp_path):
    job = build("--p 3 --d 1 --sign minus", "test")
    edges = tmp_path / "cover_p3_d1_minus.total.edges"
    edges.write_text("27 54\n0 1\n")
    stdout = f"{edges}\n"
    recorded = observe(job, stdout)
    assert check(job, recorded, 0, False, stdout)[0] == []
    edges.write_text("27 54\n0 2\n")
    problems, _ = check(job, recorded, 0, False, stdout)
    assert len(problems) == 1 and "cover_p3_d1_minus.total.edges" in problems[0]
    edges.unlink()
    assert check(job, recorded, 0, False, stdout)[0]


def _timed(job, job_s, setup_s=0.1, rss_kb=1024):
    result = JobResult(spawned=0.0, imported=setup_s, ended=setup_s + job_s,
                       exit_code=0, timed_out=False, peak_rss_kb=rss_kb)
    return JobRun(job, result, [], {}, None)


def test_end_to_end_sums_per_job_medians_so_one_slow_run_moves_nothing():
    a, b = Job(("verify", "a"), "test"), Job(("verify", "b"), "test")
    passes = [[_timed(a, 1.0), _timed(b, 3.0)],
              [_timed(b, 3.2), _timed(a, 9.0, rss_kb=4096)],
              [_timed(a, 1.2), _timed(b, 2.8)]]
    out = end_to_end(passes)
    assert out["wall_s"] == (pytest.approx(1.2 + 3.0), "s")
    assert out["slowest_job_s"] == (pytest.approx(3.0), "s")
    assert out["setup_s"] == (pytest.approx(0.1), "s")
    assert out["peak_rss_mb"] == (4.0, "MB")


def _run(tmp_path, code, timeout=30.0):
    return run_job([sys.executable, "-c", code], env={}, cwd=tmp_path,
                   stdout_path=tmp_path / "out", stamp_path=tmp_path / "stamp",
                   timeout=timeout)


@pytest.mark.parametrize("code", [
    "import sys; sys.exit(3)",
    "raise RuntimeError('crash')",
    "import os; os.abort()",
])
def test_a_job_that_exits_nonzero_or_crashes_counts_as_failed(tmp_path, code):
    result = _run(tmp_path, code)
    assert result.exit_code != 0 and not result.timed_out
    problems, _ = check(Job(("verify",), "test"), {}, result.exit_code, result.timed_out, "")
    assert problems


def test_a_job_that_times_out_is_killed_and_counts_as_failed(tmp_path):
    started = time.monotonic()
    result = _run(tmp_path, "import time; time.sleep(60)", timeout=0.5)
    assert time.monotonic() - started < 10
    assert result.timed_out and result.exit_code < 0
    problems, _ = check(Job(("verify",), "test"), {}, result.exit_code, result.timed_out, "")
    assert problems == ["timed out"]


def test_traced_child_records_spans_and_counts(tmp_path):
    trace = tmp_path / "trace.json"
    result = run_job(
        [sys.executable, str(HERE / "child.py"), str(tmp_path / "stamp"), str(trace), "7",
         "--", "verify", "--p", "3", "--d", "1", "--sign", "minus"],
        env={"PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path, stdout_path=tmp_path / "out",
        stamp_path=tmp_path / "stamp", timeout=60)
    assert result.exit_code == 0 and result.imported is not None
    doc = json.loads(trace.read_text())
    assert doc["job"] == 7
    times = self_times(doc["spans"])
    for name in ("cli", "covers.build_cover", "graphs.cayley", "graphs.cycle_scan",
                 "graphs.has_4cycle", "covers.verify_cover", "groups.order",
                 "reporting.stable_text"):
        assert name in times
    # cayley is called from covers.build_cover, so it must nest under it.
    names = [s[0] for s in doc["spans"]]
    cayley = doc["spans"][names.index("graphs.cayley")]
    assert doc["spans"][cayley[3]][0] == "covers.build_cover"
    assert doc["counts"]["groups.mul_calls"] > 27 * 4
    assert doc["counts"]["covers.vertices_built"] == 27


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
