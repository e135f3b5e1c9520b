"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They show that a wrong answer, a negative control that passes and one that
fails for another reason are all counted as failed requests, and that the traced run's counts repeat exactly
in fresh interpreters with different hash seeds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from worker import serve  # noqa: E402
from workloads import (  # noqa: E402
    RING7_ZERO_MINIMUM,
    CliResult,
    Request,
    cli,
    expect_search,
    expect_suite,
    expect_tiles_check,
)

RING7 = ["solve", "--r", "1", "--n", "7", "--plug", "zero"]


def failures(records):
    return [r["name"] for r in records if r["error"] is not None]


def test_wrong_expected_value_is_a_failed_request():
    records = serve(
        [
            Request("right", cli(RING7), expect_search(RING7_ZERO_MINIMUM)),
            Request("wrong", cli(RING7), expect_search(RING7_ZERO_MINIMUM + 1)),
        ]
    )
    assert failures(records) == ["wrong"]
    assert "minimum" in records[1]["error"]


def test_negative_control_that_exits_zero_is_a_failed_request():
    # the unmutated suite passes, so as a negative control it must count as failed
    control = expect_suite(10, failing=("c07",))
    records = serve([Request("control", cli(["verify", "--profile", "fast"]), control)])
    assert failures(records) == ["control"]
    assert "exit code 0" in records[0]["error"]


def suite_answer(*rows):
    criteria = [{"id": cid, "passed": ok, "detail": detail} for cid, ok, detail in rows]
    report = {"criteria": criteria, "all_passed": all(ok for _, ok, _ in rows)}
    return CliResult(0 if report["all_passed"] else 1, json.dumps(report))


@pytest.mark.parametrize(
    "answer",
    [
        # the expected criterion fails, but by crashing
        suite_answer(("c01", True, "ok"), ("c07", False, "raised KeyError('x')")),
        # another criterion fails in its place
        suite_answer(("c01", False, "floor missed"), ("c07", True, "ok")),
        # the expected criterion fails, and so does another
        suite_answer(("c01", False, "floor missed"), ("c07", False, "hash_stable=False")),
    ],
)
def test_negative_control_failing_for_another_reason_is_a_failed_request(answer):
    records = serve([Request("control", lambda: answer, expect_suite(2, failing=("c07",)))])
    assert failures(records) == ["control"]


def test_negative_control_failing_as_expected_passes():
    answer = suite_answer(("c01", True, "ok"), ("c07", False, "hash_stable=False"))
    assert not failures(serve([Request("control", lambda: answer, expect_suite(2, failing=("c07",)))]))


def test_wrong_tile_check_answer_is_a_failed_request():
    rules = {"forbidden_h": [["A", "B"]], "forbidden_v": []}
    rows = [["A", "B"], ["A", "A"]]
    # A left of B is the only forbidden pair, and it occurs once, at (0, 0)
    right = {"valid": False, "violations": [{"kind": "h", "at": [0, 0], "pair": ["A", "B"]}]}
    wrong = {"valid": True, "violations": []}
    records = serve(
        [
            Request("right", lambda: CliResult(0, json.dumps(right)), expect_tiles_check(rules, rows)),
            Request("wrong", lambda: CliResult(0, json.dumps(wrong)), expect_tiles_check(rules, rows)),
        ]
    )
    assert failures(records) == ["wrong"]


def test_request_that_raises_is_a_failed_request():
    def boom():
        raise RuntimeError("no answer")

    records = serve([Request("raises", boom, lambda out: None)])
    assert failures(records) == ["raises"]


def traced_counts(workload, hash_seed):
    env = run.child_env()
    env["PYTHONHASHSEED"] = str(hash_seed)
    run.WORKDIR.mkdir(exist_ok=True)
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", "3", "--mode", "trace",
            "--workdir", str(run.WORKDIR),
        ],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not failures(result["records"])
    return result["counts"]


@pytest.mark.parametrize("workload", ["scale", "certify", "verify"])
def test_counts_repeat_across_interpreters(workload):
    first = traced_counts(workload, 1)
    second = traced_counts(workload, 2)
    assert first == second
    assert first["cli.main.calls"] > 0
