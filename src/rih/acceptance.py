"""End-to-end acceptance suite: every headline number recomputed from scratch.

Each criterion is an independent function returning (passed, detail); the
runner adds timings and isolates failures so one broken criterion never hides
another.  Shared expensive results (the certified ground search, the built
term) are memoized on the context.
"""

from __future__ import annotations

import collections
import json
import random
from importlib import resources
from time import perf_counter

import numpy as np

from rih import solver
from rih.hamiltonian import (
    EPR_HALF_PROJECTOR,
    build_site_term,
    check_term_symmetries,
    dense_entries,
    embed_operator,
    term_hash,
    tile_diagonality_check,
    toy_plugs,
)
from rih.instance import f_search, is_probable_prime
from rih.lattice import LatticeSpec, _local_groups, coordinates, lattice_symmetry_permutations
from rih.rules import (
    BLANK,
    BOTTOM_BC,
    FRAME_ADMITS_ALL_BLANK,
    LEFT_BC,
    RIGHT_BC,
    TileRuleSet,
    decode_lifted,
    enumerate_valid,
    frame_configuration,
    lift_3x3,
    open_bc_frame_ruleset,
)
from rih.tiling import (
    RULE_SAME_COLOR_SAME_NUMBER,
    Tiling,
    classical_energy,
    classify,
    epr_demand_graph,
    rule_violations,
    striped_witness,
)

REPORT_SCHEMA = "acceptance-report/1"
TORUS33 = LatticeSpec(2, 3, "periodic")
OPEN3 = LatticeSpec(2, 3, "open")
OPEN6 = LatticeSpec(2, 6, "open")

# frozen digest of the trivial-plug term's sparse entries
GOLDEN_TERM_HASH = "b2547d31b7ae05807d4aeca9a371687ac0b292abfa9975397a39179228c51d4c"


class AcceptanceContext:
    """Shared caches plus the knobs a run can turn."""

    def __init__(self, coefficient_overrides=None):
        self.coefficient_overrides = (
            dict(coefficient_overrides) if coefficient_overrides else None
        )
        self._memo = {}

    def memo(self, key, factory):
        if key not in self._memo:
            self._memo[key] = factory()
        return self._memo[key]

    def term(self, plug_name="zero"):
        return self.memo(
            ("term", plug_name),
            lambda: build_site_term(
                toy_plugs()[plug_name], self.coefficient_overrides
            ),
        )

    def zero_search(self):
        return self.memo("zero-search", lambda: solver.ground_energy_search(TORUS33, None))

    def fixtures(self):
        def load():
            text = (resources.files("rih") / "data" / "sector_fixtures.json").read_text()
            return json.loads(text)["fixtures"]

        return self.memo("fixtures", load)


def _snake_tiling(n):
    """Open grid whose serpentine numbering pairs former row ends through
    turns; the standard strictly-costlier alternative to straight chains."""
    spec = LatticeSpec(2, n, "open")
    sites = spec.sites()
    c1 = np.zeros(len(sites), dtype=int)
    m1 = np.zeros(len(sites), dtype=int)
    c2 = np.zeros(len(sites), dtype=int)
    m2 = np.zeros(len(sites), dtype=int)
    for i, (x, y) in enumerate(sites):
        c1[i] = (x // 2) % 3
        m1[i] = (y if x % 2 == 0 else 2 * n - 1 - y) % 3
        c2[i] = (y // 2) % 3
        m2[i] = (x if y % 2 == 0 else 2 * n - 1 - x) % 3
    return Tiling(spec, c1, m1, c2, m2)


def _simple_demands(t, copy):
    """The copy's pairing demands as a (D, 2) array of slot numbers, or None
    where a same-color, equal-number edge breaks rule 1 or a slot sits in
    two demands."""
    if any(rule == RULE_SAME_COLOR_SAME_NUMBER for _, rule in rule_violations(t, copy)):
        return None
    pairs = np.array(epr_demand_graph(t, copy), dtype=np.int64).reshape(-1, 2)
    return pairs if len(np.unique(pairs)) == pairs.size else None


def _pairing_chains_terminate(t, copy):
    """True iff the copy's pairing demands form open chains with every chain
    end slot (and so every chain endpoint qubit) left unpaired."""
    pairs = _simple_demands(t, copy)
    if pairs is None:
        return False
    # a chain has one demand fewer than sites; a closed one pairs every slot
    sites = (pairs // 2).tolist()
    return all(len(group) == k - 1 for group, k, _ in _local_groups(sites))


def _witness_line_ends_free(t):
    """For a straight witness on an open lattice: the unpaired slots must be
    exactly the inward port at coordinate 0 and the outward port at n-1
    along the axis the demands run on, for each copy."""
    spec = t.spec
    coords = coordinates(spec)
    for copy in (1, 2):
        pairs = _simple_demands(t, copy)
        if pairs is None:
            return False
        tails, heads = coords[pairs[:, 0] // 2], coords[pairs[:, 1] // 2]
        axes = set(np.argmax(tails != heads, axis=1).tolist())
        if len(axes) != 1:
            return False
        (axis,) = axes
        expected_free = {
            2 * idx + port - 1
            for port, end in ((1, 0), (2, spec.n - 1))
            for idx in np.flatnonzero(coords[:, axis] == end).tolist()
        }
        if set(range(2 * spec.num_sites)) - set(pairs.ravel().tolist()) != expected_free:
            return False
    return True


# --------------------------------------------------------------------------
# criteria


def crit_shared_slot_floor(ctx):
    t0 = perf_counter()
    dims = (2, 2, 2)
    dense = np.zeros((8, 8))
    for qubits in ((0, 1), (1, 2)):
        r, c, v = embed_operator(dense_entries(EPR_HALF_PROJECTOR), qubits, dims)
        np.add.at(dense, (r, c), v)
    value = solver.min_eigenvalue(dense)
    dt = perf_counter() - t0
    ok = abs(value - 0.25) <= 1e-12 and dt < 1.0
    return ok, (
        f"two half-projectors sharing a qubit: min eigenvalue {value:.15f} "
        "(target 0.25, tol 1e-12); time bound 1s"
    )


def crit_witness_energies(ctx):
    t0 = perf_counter()
    ff = toy_plugs()["frustration_free"]
    totals = []
    for r, n in ((2, 3), (2, 6), (3, 3)):
        spec = LatticeSpec(r, n, "periodic")
        w = striped_witness(spec)
        if rule_violations(w, 1) or rule_violations(w, 2):
            return False, f"witness ({r},{n}) has rule violations"
        expected = 4 * n**r * (r - 1)
        ce = classical_energy(w)
        if ce.total != expected:
            return False, (
                f"witness ({r},{n}) classical energy {ce.total} != {expected}"
            )
        se = solver.tile_sector_energy(w, ff)
        if not se.exact or abs(se.total - expected) > 1e-9:
            return False, (
                f"witness ({r},{n}) satisfiable-plug sector {se.total} "
                f"not certified at {expected}"
            )
        totals.append(expected)
    dt = perf_counter() - t0
    ok = dt < 10.0
    return ok, (
        f"witness classical and certified sector totals {totals} "
        "(4*n^r*(r-1)); time bound 10s"
    )


def crit_certified_ground_search(ctx):
    rep = ctx.zero_search()
    if not rep.certified:
        return False, "search did not certify its minimum"
    if abs(rep.minimum - 36.0) > 1e-9:
        return False, f"certified minimum {rep.minimum} != 36"
    cats = rep.categories
    not_looped = cats.get("some_copy_not_looped")
    if not_looped is None or not_looped < 37.0 - 1e-9:
        return False, f"non-looped sector bound {not_looped} below 37"
    turn = cats.get("some_copy_looped_with_turn")
    turn_masks = cats.get("looped_with_turn_masks", 0)
    if turn_masks != 0 and (turn is None or turn < 40.0 - 1e-9):
        return False, f"looped-with-turn bound {turn} below 40"
    needed = {"distinct_masks", "distinct_step_patterns", "sectors_total", "mask_pairs_swept"}
    if not needed <= set(rep.stats):
        return False, f"pruning statistics missing {needed - set(rep.stats)}"
    s = rep.stats
    return True, (
        f"ground energy 36 certified over {s['sectors_total']} sectors via "
        f"{s['distinct_masks']} color classes x {s['distinct_step_patterns']} "
        f"numbering classes ({s['mask_pairs_swept']} class pairs); "
        f"non-looped >= {not_looped:.0f}; looped-with-turn classes: "
        f"{turn_masks} (bound vacuous)"
    )


def crit_single_copy_floor(ctx):
    ok, margin = solver.single_copy_floor_check(TORUS33)
    passed = ok and margin >= -1e-9
    return passed, (
        f"counting floor holds for every single-copy class; worst margin "
        f"{margin:.2e} (tol 1e-9)"
    )


def crit_chain_ring_energies(ctx):
    ring = Tiling(LatticeSpec(1, 3, "periodic"), [0, 0, 0], [0, 1, 2])
    path = Tiling(LatticeSpec(1, 3, "open"), [0, 0, 0], [0, 1, 0])
    e_ring = solver.tile_sector_energy(ring)
    e_path = solver.tile_sector_energy(path)
    ok = (
        e_ring.exact
        and abs(e_ring.epr_copy1 - 0.0) <= 1e-10
        and e_path.exact
        and abs(e_path.epr_copy1 - 4.0) <= 1e-10
    )
    return ok, (
        f"ring 0,1,2 pairing energy {e_ring.epr_copy1:.2e} (target 0); "
        f"path 0,1,0 energy {e_path.epr_copy1:.10f} (target 4); tol 1e-10"
    )


def crit_oracle_agreement(ctx):
    plugs = toy_plugs()
    rows = [f for f in ctx.fixtures() if f["kind"] == "sector-full"]
    if len(rows) < 10:
        return False, f"only {len(rows)} full-space fixtures"
    worst = 0.0
    for f in rows:
        t = Tiling.from_json_dict(f["tiling"])
        plug = plugs[f["plug"]]
        oracle = solver.sector_full_oracle(t, plug)
        se = solver.tile_sector_energy(t, plug)
        if not se.exact:
            return False, f"decomposition not certified on fixture {f['plug']}"
        worst = max(worst, abs(oracle - se.total))
        if abs(oracle - se.total) > 1e-8:
            return False, (
                f"oracle {oracle} vs decomposition {se.total} on a "
                f"{f['plug']} fixture"
            )
        if abs(oracle - f["expected_total"]) > 1e-6:
            return False, f"oracle drifted from frozen value {f['expected_total']}"
    return True, (
        f"{len(rows)} full-space diagonalizations match the "
        f"classical+pairing+embedded decomposition; worst gap {worst:.2e} "
        "(tol 1e-8)"
    )


def crit_term_audit(ctx):
    term = ctx.term("zero")
    rep = check_term_symmetries(term)
    # one scan gives both; term_hash runs it, so traces bill the scan to it
    digest = term_hash(term)
    diag = tile_diagonality_check(term)
    ok = (
        rep.hermitian
        and rep.swap_symmetric
        and rep.min_eigenvalue >= -1e-9
        and diag
        and digest == GOLDEN_TERM_HASH
    )
    return ok, (
        f"hermitian={rep.hermitian} swap={rep.swap_symmetric} "
        f"min_eig={rep.min_eigenvalue:.2e} tile_diagonal={diag} "
        f"hash_stable={digest == GOLDEN_TERM_HASH}"
    )


def crit_open_boundary_endpoints(ctx):
    rep = solver.ground_energy_search(OPEN3, None)
    if not rep.certified or abs(rep.minimum - 24.0) > 1e-9:
        return False, f"open 3x3 certified minimum {rep.minimum} != 24"
    for copy in (1, 2):
        if not _pairing_chains_terminate(rep.argmin, copy):
            return False, f"open optimum copy {copy} closes a pairing chain"
    details = []
    for spec, expected in ((OPEN3, 24.0), (OPEN6, 120.0)):
        w = striped_witness(spec)
        base = solver.tile_sector_energy(w)
        if not base.exact or abs(base.total - expected) > 1e-9:
            return False, f"straight witness at n={spec.n} not certified at {expected}"
        if not _witness_line_ends_free(w):
            return False, f"witness line-end qubits not free at n={spec.n}"
        alt = _snake_tiling(spec.n)
        if not (classify(alt, 1).has_turn or classify(alt, 2).has_turn):
            return False, "alternative does not introduce a turn"
        alt_se = solver.tile_sector_energy(alt)
        if not alt_se.exact or alt_se.total <= base.total + 1.0:
            return False, (
                f"turn alternative at n={spec.n} not strictly costlier: "
                f"{alt_se.total} vs {base.total}"
            )
        details.append(f"n={spec.n}: {base.total:.0f} < {alt_se.total:.2f}")
    return True, (
        "open-boundary optimum certified at n=3 (24, chains open-ended); "
        "straight witnesses leave line-end qubits unpaired and every "
        f"turn-introducing alternative costs strictly more ({'; '.join(details)}); "
        f"n=6 full-space certification is out of reach (3^36 colorings), "
        "covered by the n=3 certificate plus exact alternatives"
    )


def crit_block_lift_bijection(ctx):
    mono = TileRuleSet(("m",), frozenset(), frozenset())
    res = enumerate_valid(lift_3x3(mono), 3)
    if len(res) != 9:
        return False, f"single-tile lift admits {len(res)} tilings, not 9"
    toys = [
        TileRuleSet(("a", "b"), frozenset({("a", "b")}), frozenset()),
        TileRuleSet(("x", "y"), frozenset(), frozenset({("x", "y")})),
    ]
    checked = []
    for rs in toys:
        for n in (1, 2):
            originals = {g.rows for g in enumerate_valid(rs, n)}
            lifted = enumerate_valid(lift_3x3(rs), 3 * n)
            if len(lifted) != 9 * len(originals):
                return False, (
                    f"lift count {len(lifted)} != 9*{len(originals)} at n={n}"
                )
            seen = set()
            for g in lifted:
                orig, off = decode_lifted(g, rs.alphabet)
                if orig.rows not in originals or (orig.rows, off) in seen:
                    return False, f"decode not a bijection at n={n}"
                seen.add((orig.rows, off))
            checked.append(f"{len(originals)}->{len(lifted)}")
    return True, (
        f"single-tile lift yields exactly 9 torus tilings at size 3; "
        f"offset-decode bijections verified ({', '.join(checked)})"
    )


def _frame_survivors(n):
    blanks = tuple((BLANK,) * n for _ in range(n - 1))
    bar = lambda left, right: ((left,) + (BOTTOM_BC,) * (n - 2) + (right,),) + blanks
    return {
        bar(LEFT_BC, BOTTOM_BC),
        bar(LEFT_BC, RIGHT_BC),
        bar(BOTTOM_BC, BOTTOM_BC),
        bar(BOTTOM_BC, RIGHT_BC),
        tuple((BLANK,) * n for _ in range(n)),
    }


def crit_frame_survey(ctx):
    rs = open_bc_frame_ruleset()
    for n in (3, 4, 5):
        res = enumerate_valid(rs, n)
        got = {g.rows for g in res}
        if res.truncated:
            return False, f"frame enumeration truncated at n={n}"
        if frame_configuration(n).rows not in got:
            return False, f"frame configuration missing at n={n}"
        if tuple((BLANK,) * n for _ in range(n)) not in got:
            return False, f"all-blank grid missing at n={n}"
        if got != _frame_survivors(n):
            return False, f"survivor set at n={n} drifted: {len(got)} configs"
    if not FRAME_ADMITS_ALL_BLANK:
        return False, "discrepancy flag lost"
    return True, (
        "frame and all-blank grid found at n=3,4,5; discrepancy documented: "
        "the stated prohibitions cannot see open edges, so three edge-stopped "
        "bars survive as well (5 configurations total, figure claims 1); "
        "require-present narrows to the frame alone"
    )


def crit_prime_length_encoding(ctx):
    t0 = perf_counter()
    rng = random.Random(20260822)
    check_rng = random.Random(777)
    for i in range(1000):
        bits = rng.randint(1, 16)
        x = "1" + "".join(rng.choice("01") for _ in range(bits - 1))
        enc = f_search(x, seed=i)
        if enc.n != 3 * enc.p:
            return False, f"n != 3p for x={x}"
        if enc.p.bit_length() != 3 * len(x):
            return False, f"bit length off for x={x}"
        if enc.p >> (2 * len(x)) != int(x, 2):
            return False, f"top third of bits wrong for x={x}"
        if not is_probable_prime(enc.p, rounds=64, rng=check_rng):
            return False, f"p={enc.p} failed 64-round primality for x={x}"
    dt = perf_counter() - t0
    ok = dt < 30.0
    return ok, (
        f"1000 random inputs (|x| <= 16) encoded: n=3p, p prime by 64-round "
        "checks, top third of bits spells x; time bound 30s"
    )


def crit_symmetry_invariance(ctx):
    plugs = toy_plugs()
    rng = np.random.default_rng(5)
    cases = [striped_witness(TORUS33), _snake_tiling(3)]
    for _ in range(2):
        cases.append(Tiling(TORUS33, *(rng.integers(0, 3, 9) for _ in range(4))))
    for f in ctx.fixtures():
        if f["kind"] == "sector-full":
            cases.append(Tiling.from_json_dict(f["tiling"]))
    def invariant_flags(t, copy):
        # the direction field is an axis label and co-varies with the
        # permutation; the boolean classifications must not
        f = classify(t, copy)
        return (f.looped, f.has_turn, f.uniformly_directed, f.numbered_consistently)

    def sector_totals(t):
        # the zero plug's sector is the afm sector without its embedded part
        se = solver.tile_sector_energy(t, plugs["afm"])
        return se.classical + se.epr_copy1 + se.epr_copy2, se.total

    worst = 0.0
    for t in cases:
        perms = lattice_symmetry_permutations(t.spec)
        base_flags = (invariant_flags(t, 1), invariant_flags(t, 2))
        base_zero, base_afm = sector_totals(t)
        for perm in perms:
            moved = t.permuted(perm)
            if (invariant_flags(moved, 1), invariant_flags(moved, 2)) != base_flags:
                return False, "classification flags changed under a coordinate permutation"
            zero, afm = sector_totals(moved)
            dz = abs(zero - base_zero)
            da = abs(afm - base_afm)
            worst = max(worst, dz, da)
            if dz > 1e-8 or da > 1e-8:
                return False, "sector energy changed under a coordinate permutation"
    a = ctx.zero_search()
    b = solver.ground_energy_search(TORUS33, None)
    if a.minimum != b.minimum or a.argmin != b.argmin:
        return False, "ground search not stable across reruns"
    return True, (
        f"{len(cases)} tilings invariant under coordinate permutations "
        f"(worst sector drift {worst:.2e}, tol 1e-8); ground search stable"
    )


Criterion = collections.namedtuple("Criterion", "cid name tags fn")

CRITERIA = (
    Criterion("c01", "shared-slot floor", {"fast"}, crit_shared_slot_floor),
    Criterion("c02", "witness energies", {"fast"}, crit_witness_energies),
    Criterion("c03", "certified ground search", {"fast"}, crit_certified_ground_search),
    Criterion("c04", "single-copy counting floor", {"fast"}, crit_single_copy_floor),
    Criterion("c05", "chain and ring pairing energies", {"fast"}, crit_chain_ring_energies),
    Criterion("c06", "oracle vs decomposition", {"slow"}, crit_oracle_agreement),
    Criterion("c07", "term audit and golden hash", {"fast"}, crit_term_audit),
    Criterion("c08", "open-boundary endpoints", {"slow"}, crit_open_boundary_endpoints),
    Criterion("c09", "block lift bijection", {"fast"}, crit_block_lift_bijection),
    Criterion("c10", "frame survey", {"fast"}, crit_frame_survey),
    Criterion("c11", "prime length encoding", {"fast"}, crit_prime_length_encoding),
    Criterion("c12", "symmetry invariance", {"fast"}, crit_symmetry_invariance),
)


def run_criteria(profile="full", coefficient_overrides=None):
    """Execute the suite and return a JSON-ready report."""
    if profile not in ("fast", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    chosen = [
        c for c in CRITERIA if profile == "full" or "fast" in c.tags
    ]
    ctx = AcceptanceContext(coefficient_overrides=coefficient_overrides)

    def run_one(c):
        t0 = perf_counter()
        try:
            passed, detail = c.fn(ctx)
        except Exception as exc:  # isolate: a crash is a failure, not an abort
            passed, detail = False, f"raised {exc!r}"
        return {
            "id": c.cid,
            "name": c.name,
            "passed": bool(passed),
            "seconds": round(perf_counter() - t0, 3),
            "detail": detail,
        }

    t0 = perf_counter()
    rows = [run_one(c) for c in chosen]
    return {
        "schema": REPORT_SCHEMA,
        "profile": profile,
        "criteria": rows,
        "all_passed": all(r["passed"] for r in rows),
        "elapsed_seconds": round(perf_counter() - t0, 3),
    }
