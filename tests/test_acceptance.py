"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each."""

import pytest

from rih import acceptance
from rih.instance import verify_claims


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext()


@pytest.mark.parametrize(
    "crit",
    [
        pytest.param(
            c,
            id=c.cid,
            marks=pytest.mark.slow if "slow" in c.tags else (),
        )
        for c in acceptance.CRITERIA
    ],
)
def test_criterion(crit, ctx):
    passed, detail = crit.fn(ctx)
    print(f"{crit.cid} {crit.name}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{crit.cid} {crit.name}: {detail}"


def test_fast_profile_report():
    report = verify_claims(profile="fast")
    assert report["schema"] == "acceptance-report/1"
    assert report["all_passed"], [
        r for r in report["criteria"] if not r["passed"]
    ]
    ids = [r["id"] for r in report["criteria"]]
    assert "c06" not in ids and "c08" not in ids
    assert all(r["seconds"] >= 0 for r in report["criteria"])


def test_corrupted_coefficient_is_caught():
    report = verify_claims(
        profile="fast", coefficient_overrides={"pairing": 15.0}
    )
    assert not report["all_passed"]
    failed = {r["id"] for r in report["criteria"] if not r["passed"]}
    assert "c07" in failed


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        acceptance.run_criteria(profile="typo")


def test_term_audit_materializes_nothing():
    ctx = acceptance.AcceptanceContext()
    passed, detail = acceptance.crit_term_audit(ctx)
    assert passed, detail
    assert ctx.term("zero")._matrix is None
