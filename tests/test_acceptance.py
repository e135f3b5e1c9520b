"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each."""

import pytest

from rih import acceptance
from rih.instance import verify_claims
from rih.lattice import LatticeSpec
from rih.tiling import Tiling, epr_demand_graph, striped_witness


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


@pytest.mark.parametrize("spec", [acceptance.OPEN3, acceptance.OPEN6], ids=["open3", "open6"])
def test_straight_witness_chains_terminate(spec):
    w = striped_witness(spec)
    assert acceptance._pairing_chains_terminate(w, 1)
    assert acceptance._pairing_chains_terminate(w, 2)


@pytest.mark.parametrize(
    "boundary,colors,numbers,terminates",
    [
        ("periodic", [0, 0, 0], [0, 1, 2], False),  # a ring closed by its demands
        ("open", [0, 0, 0], [0, 1, 0], False),  # site 1's port-1 slot twice
        ("open", [0, 0, 0], [0, 0, 1], False),  # a rule conflict on the first edge
        ("open", [0, 1, 1], [0, 0, 1], True),  # the same numbers without one
    ],
    ids=["ring", "shared-slot", "rule-conflict", "open-chain"],
)
def test_pairing_chain_check(boundary, colors, numbers, terminates):
    t = Tiling(LatticeSpec(1, 3, boundary), colors, numbers)
    assert acceptance._pairing_chains_terminate(t, 1) is terminates


def test_a_rule_1_edge_stops_the_chains_of_the_open_witness():
    # site (0, 1) takes site (0, 0)'s color: the edge between them, numbered
    # 0 at both ends, now breaks rule 1, while every demand stays as it was
    w = striped_witness(acceptance.OPEN3)
    colors = w.colors1.copy()
    colors[1] = colors[0]
    t = Tiling(w.spec, colors, w.numbers1, w.colors2, w.numbers2)
    assert epr_demand_graph(t, 1) == epr_demand_graph(w, 1)
    assert acceptance._pairing_chains_terminate(w, 1)
    assert not acceptance._pairing_chains_terminate(t, 1)
