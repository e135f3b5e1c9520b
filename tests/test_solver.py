import functools
import itertools
import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rih.hamiltonian import (
    EPR_HALF_PROJECTOR,
    TranslationPlug,
    build_single_copy_term,
    dense_entries,
    embed_operator,
    toy_plugs,
)
from rih.lattice import LatticeSpec, edge_index_array, lattice_symmetry_permutations
from rih.tiling import (
    RULE_SAME_COLOR_SAME_NUMBER,
    Tiling,
    classical_energy,
    classify,
    epr_demand_graph,
    rule_violations,
    striped_witness,
)
from rih import solver
from test_tiling import reference_has_turn

FIXTURES = pathlib.Path(__file__).parent.parent / "src" / "rih" / "data"
RANDOM_PLUG_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "random_plug_reports.json").read_text()
)["cases"]

RANDOM_PLUG_IDS = [
    "{}-{r}d{n}{boundary:.1}".format(c["plug"]["name"], **c["spec"]) for c in RANDOM_PLUG_REPORTS
]


def _pinned_plug(case):
    """The plug a random-plug report case stores."""
    p = case["plug"]
    h, v = (
        np.array(p[k]["real"]) + 1j * np.array(p[k]["imag"]) for k in ("horizontal", "vertical")
    )
    return TranslationPlug(p["d"], h, v, p["name"])


TORUS = LatticeSpec(2, 3, "periodic")
OPEN3 = LatticeSpec(2, 3, "open")
RING = LatticeSpec(1, 3, "periodic")
CHAIN = LatticeSpec(1, 3, "open")


def snake_tiling(n):
    """Open grid where consecutive row pairs share a color and a serpentine
    numbering, pairing up the former row-end slots through turns."""
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


class TestMinEigenvalue:
    def test_identity(self):
        assert solver.min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_half_projector_annihilates_maximally_entangled(self):
        # a single pairing penalty has a zero mode: the matched slot pair
        op = 16 * EPR_HALF_PROJECTOR
        assert solver.min_eigenvalue(op) == pytest.approx(0.0, abs=1e-12)

    def test_two_overlapping_penalties(self):
        # two penalties sharing one slot cannot both reach zero; the floor is
        # a quarter of the single-penalty weight
        t0 = time.time()
        val = solver._pairing_minimum(*_chain(3, False))
        assert val / 16 == pytest.approx(0.25, abs=1e-12)
        assert time.time() - t0 < 1.0

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 40))
        m = m + m.T
        import scipy.sparse

        assert solver.min_eigenvalue(scipy.sparse.csr_matrix(m)) == pytest.approx(
            np.linalg.eigvalsh(m).min(), abs=1e-9
        )


def _chain(k, closed):
    """(k, edges) of a path of k slots or, closed, a cycle of k slots, in
    sequential slot order."""
    edges = tuple((i, i + 1) for i in range(k - 1))
    return k, edges + ((k - 1, 0),) if closed else edges


@st.composite
def bipartite_components(draw):
    """(k, edges) of a connected demand graph on k <= 12 slots whose two
    sides are the ports: a random spanning tree that joins each slot to an
    earlier one on the other side, plus extra demands that may repeat."""
    k = draw(st.integers(2, 12))
    side = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=k - 2, max_size=k - 2))
    edges = [
        (draw(st.sampled_from([u for u in range(v) if side[u] != side[v]])), v)
        for v in range(1, k)
    ]
    across = [(a, b) for a in range(k) for b in range(k) if side[a] < side[b]]
    edges += draw(st.lists(st.sampled_from(across), max_size=k))
    return k, tuple(draw(st.permutations(edges)))


class TestChainEnergies:
    def test_single_demand_is_free(self):
        assert solver._pairing_minimum(*_chain(2, False)) == pytest.approx(0.0, abs=1e-12)

    def test_paths_monotone_in_length(self):
        vals = [solver._pairing_minimum(*_chain(k, False)) for k in range(2, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_cycle_dominates_path(self):
        # dropping one summand can only lower the minimum
        for k in (4, 6):
            assert solver._pairing_minimum(*_chain(k, True)) >= (
                solver._pairing_minimum(*_chain(k, False)) - 1e-9
            )

    @pytest.mark.parametrize("k,closed", [(4, False), (5, False), (4, True), (6, True)])
    def test_cache_matches_direct_build(self, k, closed):
        _, local = _chain(k, closed)
        direct = np.linalg.eigvalsh(solver._pairing_sparse(local, k).toarray()).min()
        assert solver._pairing_minimum(k, local) == pytest.approx(direct, abs=1e-10)


def _full_space_minimum(edges, k):
    """Minimum of the 2^k pairing build: dense up to 2^10, ARPACK above."""
    m = solver._pairing_sparse(edges, k)
    if k <= 10:
        return np.linalg.eigvalsh(m.toarray()).min()
    v0 = np.random.default_rng(k).standard_normal(2**k)
    return scipy.sparse.linalg.eigsh(m, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]


class TestPairingMinimum:
    @settings(max_examples=20, deadline=None)
    @given(bipartite_components())
    def test_sector_build_matches_the_full_space(self, component):
        k, edges = component
        direct = _full_space_minimum(edges, k)
        assert abs(solver._pairing_minimum(k, edges) - direct) <= 1e-10

    @pytest.mark.parametrize("closed", [False, True])
    def test_paths_and_even_cycles_get_one_key(self, closed):
        # every relabeling and orientation of a chain meets one cache entry
        rng = np.random.default_rng(7)
        for k in range(4 if closed else 3, 19, 2 if closed else 1):
            _, edges = _chain(k, closed)
            keys = set()
            for _ in range(50):
                relabel = rng.permutation(k)
                flips = rng.integers(0, 2, len(edges))
                moved = [
                    (relabel[b], relabel[a]) if flip else (relabel[a], relabel[b])
                    for (a, b), flip in zip(edges, flips)
                ]
                moved = [moved[i] for i in rng.permutation(len(moved))]
                keys.add(solver._canonical_component_key(k, moved))
            assert len(keys) == 1, k


def slots(demands):
    """(site, port) demand pairs as the (tail, head) slot-number pairs that
    epr_min_energy takes, slot (x, port) being 2x + port - 1."""
    return [(2 * a + p - 1, 2 * b + q - 1) for (a, p), (b, q) in demands]


def each_slot_once(demands):
    """Whether no slot sits in two of these slot-number demands."""
    flat = [s for pair in demands for s in pair]
    return len(set(flat)) == len(flat)


class TestEprMinEnergy:
    def test_local_groups_keep_first_pair_and_input_order(self):
        # (1, 2) and (3, 4) join only through the later (2, 3); each group's
        # nodes are renumbered in ascending order
        pairs = [(1, 2), (5, 6), (3, 4), (6, 7), (2, 3), (9, 0)]
        assert solver._local_groups(pairs) == [
            ([0, 2, 4], 4, [(0, 1), (2, 3), (1, 2)]),
            ([1, 3], 3, [(0, 1), (1, 2)]),
            ([5], 2, [(1, 0)]),
        ]
        assert solver._local_groups([]) == []

    def test_cyclically_numbered_ring_is_satisfied(self):
        t = Tiling(RING, [0, 0, 0], [0, 1, 2])
        r = solver.epr_min_energy(epr_demand_graph(t, 1))
        assert r.value == pytest.approx(0.0, abs=1e-10)
        assert r.exact
        assert all(c.kind == "isolated-demand" for c in r.components)

    def test_colliding_path_numbering_costs_four(self):
        t = Tiling(CHAIN, [0, 0, 0], [0, 1, 0])
        r = solver.epr_min_energy(epr_demand_graph(t, 1))
        assert r.value == pytest.approx(4.0, abs=1e-10)
        (comp,) = r.components
        assert comp.kind == "exact" and comp.num_slots == 3

    def test_empty(self):
        r = solver.epr_min_energy([])
        assert r.value == 0.0 and r.exact and r.components == ()

    @pytest.mark.parametrize("m,expected", [(2, 4.0), (3, 8.0), (4, 12.0)])
    def test_shared_head_star(self, m, expected):
        # m demands into one slot: each extra demand past the first adds 4
        g = slots([((i, 2), (99, 1)) for i in range(m)])
        assert solver.epr_min_energy(g).value == pytest.approx(expected, abs=1e-8)

    def test_disjoint_components_add(self):
        a = slots([((0, 2), (1, 1)), ((2, 2), (1, 1))])
        b = slots([((10, 2), (11, 1)), ((12, 2), (11, 1))])
        va = solver.epr_min_energy(a).value
        vb = solver.epr_min_energy(b).value
        assert solver.epr_min_energy(a + b).value == pytest.approx(va + vb, abs=1e-9)

    @pytest.mark.parametrize("demand", [((0, 2), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))])
    def test_demand_off_the_two_ports_is_refused(self, demand):
        # the sector build holds only when each demand joins port 2 (an odd
        # slot number) to port 1 (an even one)
        with pytest.raises(ValueError, match="port-2 slot to a port-1 slot"):
            solver.epr_min_energy(slots([((5, 2), (6, 1)), demand]))

    def test_repeated_demands_count_once_in_the_bound(self, monkeypatch):
        # ten copies of one demand share a zero mode, so they must not count
        # as five cherries
        g = slots([((0, 2), (1, 1))] * 10 + [((2, 2), (1, 1))])
        exact = solver.epr_min_energy(g)
        monkeypatch.setattr(solver, "EXACT_PAIRING_CAP", 2)
        bound = solver.epr_min_energy(g)
        assert not bound.exact
        assert bound.value == 4.0 <= exact.value + 1e-9

    def test_oversized_component_reports_certified_bound(self, monkeypatch):
        # 11 slots; a cap below that size forces the bound tier
        g = slots([((i, 2), (99, 1)) for i in range(10)])
        exact = solver.epr_min_energy(g)
        monkeypatch.setattr(solver, "EXACT_PAIRING_CAP", 4)
        bound = solver.epr_min_energy(g)
        assert not bound.exact
        assert bound.components[0].kind == "bound"
        assert exact.exact
        assert bound.value <= exact.value + 1e-9
        assert exact.value == pytest.approx(36.0, abs=1e-8)

    def test_oversized_path_gets_the_bound_even_when_cached(self, monkeypatch):
        # an open chain numbered 0,1,0,1,... pairs its slots into one path;
        # the cap is checked ahead of the chain cache that the exact solve fills
        t = Tiling(LatticeSpec(1, 9, "open"), np.zeros(9, int), np.arange(9) % 2)
        g = epr_demand_graph(t, 1)
        exact = solver.epr_min_energy(g)
        (comp,) = exact.components
        assert (comp.num_slots, comp.kind, comp.exact) == (9, "exact", True)
        monkeypatch.setattr(solver, "EXACT_PAIRING_CAP", 8)
        bound = solver.epr_min_energy(g)
        (comp,) = bound.components
        assert (comp.num_slots, comp.kind, comp.exact) == (9, "bound", False)
        assert not bound.exact
        assert bound.value <= exact.value + 1e-9

    @pytest.mark.parametrize("k", [5, 8, 9, 10])
    def test_star_is_exact(self, k):
        # a star of k-1 demands into one slot branches; it is solved like any
        # other component, on either side of the dense cutoff
        g = slots([((i, 2), (99, 1)) for i in range(k - 1)])
        (comp,) = solver.epr_min_energy(g).components
        assert (comp.num_slots, comp.kind, comp.exact) == (k, "exact", True)
        local = [(i, k - 1) for i in range(k - 1)]
        direct = np.linalg.eigvalsh(solver._pairing_sparse(local, k).toarray()).min()
        assert comp.value == pytest.approx(direct, abs=1e-9)

    def test_isomorphic_components_share_energy(self):
        # same shape under relabeling: cached or not, values must agree
        a = slots([((0, 2), (5, 1)), ((1, 2), (5, 1)), ((5, 2), (2, 1)), ((3, 2), (2, 1))])
        b = slots([((40, 2), (9, 1)), ((41, 2), (9, 1)), ((9, 2), (44, 1)), ((47, 2), (44, 1))])
        assert solver.epr_min_energy(a).value == pytest.approx(
            solver.epr_min_energy(b).value, abs=1e-9
        )

    def test_values_do_not_depend_on_the_component_cache(self):
        # each of 400 seeded torus patterns solved from an empty cache equals,
        # bit for bit, its value once the table has filled the cache with
        # components in other labelings
        nt = solver.NumberingTable(TORUS)
        picks = np.random.default_rng(2026).choice(len(nt.patterns), 400, replace=False)
        demands = [solver._pattern_demands(nt.edge_idx, nt.patterns[p]) for p in picks]
        cold = []
        for d in demands:
            solver._pairing_minimum.cache_clear()
            cold.append(solver.epr_min_energy(d).value)
        nt.solve_all()
        warm = [solver.epr_min_energy(d).value for d in demands]
        assert np.array(cold).tobytes() == np.array(warm).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=8))
    def test_adding_demands_never_lowers_energy(self, raw):
        # each summand is positive semidefinite
        demands = slots([((a, 2), (b, 1)) for a, b in raw])
        prefix = solver.epr_min_energy(demands[:-1])
        full = solver.epr_min_energy(demands)
        if prefix.exact and full.exact:
            assert full.value >= prefix.value - 1e-8


def _embedded_entries(spec, steps1, steps2, plug):
    """COO entries of the embedded operator on the d^N space for the given
    per-edge step patterns (1 = forward, 2 = reverse, 0 = inactive), one
    embedded term per active edge: the reference build for the solver's
    classical sweep."""
    d = plug.d
    N = spec.num_sites
    dims = (d,) * N
    ei = edge_index_array(spec)
    rows, cols, vals = [], [], []
    for steps, mat in solver._active_terms(steps1, steps2, plug):
        e = dense_entries(mat)
        for j in range(len(ei)):
            a, b = int(ei[j, 0]), int(ei[j, 1])
            s = int(steps[j])
            if s == 1:
                pos = (a, b)
            elif s == 2:
                pos = (b, a)  # reversed orientation = swap-conjugated term
            else:
                continue
            r, c, v = embed_operator(e, pos, dims)
            rows.append(r)
            cols.append(c)
            vals.append(v)
    if not rows:
        return None
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


class TestEmbedded:
    def test_witness_with_alternating_plug(self):
        w = striped_witness(TORUS)
        assert solver.tile_sector_energy(w, toy_plugs()["afm"]).embedded == pytest.approx(
            3.0, abs=1e-9
        )

    def test_witness_with_satisfiable_plug(self):
        w = striped_witness(TORUS)
        assert solver.tile_sector_energy(
            w, toy_plugs()["frustration_free"]
        ).embedded == pytest.approx(0.0, abs=1e-9)

    def test_no_plug_contributes_nothing(self):
        assert solver.tile_sector_energy(striped_witness(TORUS), None).embedded == 0.0

    def test_oversized_components_are_rejected(self):
        # a non-diagonal plug along all 19 edges of ring 19 joins one
        # component of dimension 2^19 > DIAG_CAP; a diagonal one on the 12x12
        # torus has 2^12 layer states, too many for the classical sweep
        rng = np.random.default_rng(3)
        plug = TranslationPlug(2, _random_psd(rng, 2, False), np.zeros((4, 4)), name="h")
        ring = LatticeSpec(1, 19)
        ones, zeros = np.ones(19, dtype=np.int8), np.zeros(19, dtype=np.int8)
        with pytest.raises(solver.BudgetExceeded, match="exceeds cap"):
            solver.embedded_step_energy(ring, ones, zeros, plug)
        with pytest.raises(solver.BudgetExceeded, match="layer state space"):
            solver.tile_sector_energy(
                striped_witness(LatticeSpec(2, 12)), toy_plugs()["frustration_free"]
            )

    def test_diagonal_fast_path_matches_dense(self):
        # same operator assembled entrywise and minimized densely
        plug = toy_plugs()["afm"]
        s1 = np.array([1, 2, 1], dtype=np.int8)
        s2 = np.zeros(3, dtype=np.int8)
        fast = solver.embedded_step_energy(RING, s1, s2, plug)
        r, c, v = _embedded_entries(RING, s1, s2, plug)
        dim = plug.d ** RING.num_sites
        dense = np.zeros((dim, dim))
        np.add.at(dense, (r, c), v)
        assert fast == pytest.approx(np.linalg.eigvalsh(dense).min(), abs=1e-10)

    def test_inactive_term_does_not_pick_the_method(self, monkeypatch):
        # a diagonal horizontal term and a non-diagonal vertical one: with no
        # vertical steps only the horizontal term acts, so the minimum comes
        # from the classical sweep, bit-identical to the plug without it
        afm = toy_plugs()["afm"]
        vertical = _random_psd(np.random.default_rng(9), 2, False)
        mixed = TranslationPlug(2, afm.horizontal, vertical, name="mixed")
        s1 = np.array([1, 2, 1], dtype=np.int8)
        zero = np.zeros(3, dtype=np.int8)
        want = solver.embedded_step_energy(RING, s1, zero, afm)

        def no_diagonalization(*args):
            raise AssertionError("diagonalized a classical minimization")

        monkeypatch.setattr(solver, "_min_eigenvalue_coo", no_diagonalization)
        assert solver.embedded_step_energy(RING, s1, zero, mixed) == want

    def test_orientation_reversal_is_a_relabeling(self):
        plug = toy_plugs()["afm"]
        fwd = solver.embedded_step_energy(RING, np.full(3, 1, np.int8), np.zeros(3, np.int8), plug)
        rev = solver.embedded_step_energy(RING, np.full(3, 2, np.int8), np.zeros(3, np.int8), plug)
        assert fwd == pytest.approx(rev, abs=1e-10)


class TestSectorEnergy:
    @pytest.mark.parametrize(
        "r,n,expected", [(2, 3, 36.0), (2, 6, 144.0), (3, 3, 216.0)]
    )
    def test_striped_witness_totals(self, r, n, expected):
        t0 = time.time()
        w = striped_witness(LatticeSpec(r, n, "periodic"))
        se = solver.tile_sector_energy(w)
        assert se.total == pytest.approx(expected, abs=1e-9)
        assert se.method == "component-exact"
        assert se.epr_copy1 == pytest.approx(0.0, abs=1e-10)
        assert time.time() - t0 < 10.0

    def test_witness_stays_flat_under_satisfiable_plug(self):
        w = striped_witness(LatticeSpec(2, 6, "periodic"))
        se = solver.tile_sector_energy(w, toy_plugs()["frustration_free"])
        assert se.total == pytest.approx(144.0, abs=1e-9)

    def test_witness_pays_for_frustrated_plug(self):
        se = solver.tile_sector_energy(striped_witness(TORUS), toy_plugs()["afm"])
        assert se.total == pytest.approx(39.0, abs=1e-9)
        assert se.embedded == pytest.approx(3.0, abs=1e-9)

    def test_breakdown_serializes(self):
        se = solver.tile_sector_energy(striped_witness(TORUS))
        d = se.to_json_dict()
        assert d["total"] == se.total
        assert set(d) >= {"classical", "epr", "embedded", "method"}
        json.dumps(d)

    def test_oversized_chain_sector_is_bound_only(self):
        # 20 slots in one path: above the cap, so a certified bound, not an error
        t = Tiling(LatticeSpec(1, 20, "open"), np.zeros(20, int), np.arange(20) % 2)
        se = solver.tile_sector_energy(t)
        assert se.method == "bound-only"
        (comp,) = se.breakdown["epr_copy1"]["components"]
        assert (comp["slots"], comp["kind"], comp["exact"]) == (20, "bound", False)
        assert 0.0 < se.epr_copy1 <= 4.0 * 19

    def test_bound_only_method_flagged(self, monkeypatch):
        # the serpentine rows chain 12 slots into one branching component; a
        # cap below that size forces the bound tier, even though the exact
        # solve just cached the component's value
        t = snake_tiling(6)
        exact = solver.tile_sector_energy(t)
        assert exact.method == "component-exact"
        monkeypatch.setattr(solver, "EXACT_PAIRING_CAP", 10)
        se = solver.tile_sector_energy(t)
        assert se.method == "bound-only"
        assert se.total <= exact.total + 1e-9


def _random_tiling(spec, rng):
    return Tiling(spec, *(rng.integers(0, 3, spec.num_sites) for _ in range(4)))


ARRAY_PATH_SPECS = [TORUS, OPEN3] + [LatticeSpec(1, n) for n in range(3, 8)] + [
    LatticeSpec(1, 6, "open")
]


def _object_path_sector(t, plug):
    """The sector energy composed from tiling.epr_demand_graph: the
    reference for tile_sector_energy's array path."""
    ce = classical_energy(t)
    e1 = solver.epr_min_energy(epr_demand_graph(t, 1))
    e2 = solver.epr_min_energy(epr_demand_graph(t, 2))
    return solver.SectorEnergy(
        classical=float(ce.total),
        epr_copy1=e1.value,
        epr_copy2=e2.value,
        embedded=0.0 if plug is None else solver.embedded_step_energy(
            t.spec, *solver._step_patterns(t), plug
        ),
        method="component-exact" if (e1.exact and e2.exact) else "bound-only",
        breakdown={
            "classical": ce.to_json_dict(),
            "epr_copy1": e1.to_json_dict(),
            "epr_copy2": e2.to_json_dict(),
        },
    )


BUILDER_SPECS = ARRAY_PATH_SPECS + [LatticeSpec(3, 3)]


@st.composite
def drawn_tilings(draw):
    spec = draw(st.sampled_from(BUILDER_SPECS))
    tiles = st.lists(st.integers(0, 2), min_size=spec.num_sites, max_size=spec.num_sites)
    return Tiling(spec, *(draw(tiles) for _ in range(4)))


@settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(t=drawn_tilings())
def test_the_two_demand_builders_agree(t):
    # tiling.epr_demand_graph, which the qubit oracle and the acceptance
    # checks read, against solver._pattern_demands, which the sector and the
    # tables read: the same slot-number pairs, and the edges without a
    # demand are equal-number edges whose same-colored ones are exactly
    # rule 1's violations
    ei = edge_index_array(t.spec)
    sites = t.spec.sites()
    for copy, steps in zip((1, 2), solver._step_patterns(t)):
        demands = epr_demand_graph(t, copy)
        assert demands == solver._pattern_demands(ei, steps)
        kept = {tuple(sorted((a // 2, b // 2))) for a, b in demands}
        assert len(kept) == len(demands)
        dropped = [e for e in map(tuple, ei.tolist()) if e not in kept]
        c, m = t.colors(copy), t.numbers(copy)
        assert all(m[a] == m[b] for a, b in dropped)
        want = [
            ((sites[a], sites[b]), RULE_SAME_COLOR_SAME_NUMBER) for a, b in dropped if c[a] == c[b]
        ]
        rule1 = [v for v in rule_violations(t, copy) if v[1] == RULE_SAME_COLOR_SAME_NUMBER]
        assert rule1 == want


class TestArrayPath:
    @pytest.mark.parametrize("spec", ARRAY_PATH_SPECS, ids=str)
    def test_sector_energy_matches_the_object_composition(self, spec):
        rng = np.random.default_rng(22)
        for _ in range(10):
            t = _random_tiling(spec, rng)
            for plug in (None, toy_plugs()["afm"], toy_plugs()["frustration_free"]):
                got = solver.tile_sector_energy(t, plug)
                assert got == _object_path_sector(t, plug)
                assert got.total == _object_path_sector(t, plug).total

    def test_classical_part_reads_the_weights(self, monkeypatch):
        rng = np.random.default_rng(24)
        tilings = [_random_tiling(TORUS, rng) for _ in range(10)]
        for name, value in (("tile", 3.0), ("loop", 0.5), ("copy", 2.5)):
            monkeypatch.setitem(solver.DEFAULT_COEFFICIENTS, name, value)
        for t in tilings:
            ce = classical_energy(t)
            want = 3.0 * (ce.tile1 + ce.tile2) / 8 + 0.5 * (ce.loop1 + ce.loop2) / 2
            want += 2.5 * ce.copy_coupling
            se = solver.tile_sector_energy(t)
            assert se.classical == pytest.approx(want, abs=1e-12)
            # the breakdown stays the typed-in integer record
            assert se.breakdown["classical"] == ce.to_json_dict()

    def test_component_values_do_not_depend_on_the_key_cache(self):
        rng = np.random.default_rng(23)
        components = []
        for spec in (TORUS, OPEN3, LatticeSpec(1, 7)):
            for _ in range(20):
                for steps in solver._step_patterns(_random_tiling(spec, rng)):
                    demands = solver._pattern_demands(edge_index_array(spec), steps)
                    for _, k, local in solver._local_groups(demands):
                        components.append((k, local))
        cold = []
        for k, local in components:
            solver._component_key.cache_clear()
            cold.append(solver._solve_component(k, local))
        for _ in range(2):
            warm = [solver._solve_component(k, local) for k, local in components]
            assert warm == cold
        # the second warm pass reads every key of a component with two or
        # more demands from the cache
        keyed = sum(len(local) > 1 for _, local in components)
        assert solver._component_key.cache_info().hits >= keyed > 0


def _reference_diag_dp(spec, terms, d):
    """The classical embedded minimum with every table built in the call:
    per-edge cost tables in a Python loop, the layer digits, and one anchor
    at a time around a periodic lattice.  The reference for the cached
    layout and the vectorized cost tables of _embedded_diag_dp."""
    ei = edge_index_array(spec)
    costs = [None] * len(ei)
    for steps, mat in terms:
        diag = np.real(np.diag(mat)).reshape(d, d)
        for j in range(len(ei)):
            s = int(steps[j])
            if s == 0:
                continue
            add = diag if s == 1 else diag.T
            costs[j] = add.copy() if costs[j] is None else costs[j] + add
    n = spec.n
    m = spec.num_sites // n
    S = d**m
    idx = np.arange(S, dtype=np.int64)
    digits = np.empty((S, m), dtype=np.int64)
    for k in range(m - 1, -1, -1):
        digits[:, k] = idx % d
        idx //= d
    intra = [np.zeros(S) for _ in range(n)]
    inter = [np.zeros((S, S)) for _ in range(n)]
    for j, cost in enumerate(costs):
        if cost is None:
            continue
        a, b = int(ei[j, 0]), int(ei[j, 1])
        la, pa = divmod(a, m)
        lb, pb = divmod(b, m)
        if la == lb:
            intra[la] += cost[digits[:, pa], digits[:, pb]]
        elif lb == (la + 1) % n:
            inter[la] += cost[digits[:, pa][:, None], digits[:, pb][None, :]]
        else:
            inter[lb] += cost[digits[:, pa][None, :], digits[:, pb][:, None]]
    if spec.boundary == "open":
        dp = intra[0].copy()
        for l in range(1, n):
            dp = (dp[:, None] + inter[l - 1]).min(axis=0) + intra[l]
        return float(dp.min())
    floor = intra[0].min()
    for l in range(1, n):
        floor += intra[l].min()
    for l in range(n):
        floor += inter[l].min()
    best = np.inf
    for f in np.argsort(intra[0], kind="stable"):
        dp = np.full(S, np.inf)
        dp[f] = intra[0][f]
        for l in range(1, n):
            dp = (dp[:, None] + inter[l - 1]).min(axis=0) + intra[l]
        cand = float((dp + inter[n - 1][:, f]).min())
        if cand < best:
            best = cand
        if best <= floor + 1e-12:
            break
    return best


def _random_diagonal_plug(rng, vertical):
    h = np.diag(rng.random(4))
    v = np.diag(rng.random(4)) if vertical else np.zeros((4, 4))
    return TranslationPlug(2, h, v, name="random-diagonal")


class TestDiagonalSweep:
    # the open 3x3 and rings run the open and small periodic sweeps; the 4x4
    # and 6x6 tori have 16 and 64 layer states
    @pytest.mark.parametrize(
        "spec",
        [TORUS, OPEN3, LatticeSpec(1, 5), LatticeSpec(1, 6, "open"), LatticeSpec(2, 4),
         LatticeSpec(2, 6)],
        ids=str,
    )
    def test_cached_layout_matches_the_reference(self, spec):
        rng = np.random.default_rng(24)
        plugs = [toy_plugs()["afm"], toy_plugs()["frustration_free"]]
        plugs += [_random_diagonal_plug(rng, k % 2 == 1) for k in range(4)]
        solver._dp_layout.cache_clear()
        for k in range(12):
            s1, s2 = solver._step_patterns(_random_tiling(spec, rng))
            for plug in plugs:
                terms = solver._active_terms(s1, s2, plug)
                if not terms:
                    continue
                want = _reference_diag_dp(spec, terms, plug.d)
                assert solver._embedded_diag_dp(spec, terms, plug.d) == want
                assert solver.embedded_step_energy(spec, s1, s2, plug) == want
        assert solver._dp_layout.cache_info().currsize == 1

    def test_oversized_layer_fails_before_allocating(self):
        spec = LatticeSpec(2, 12)
        s1, s2 = solver._step_patterns(striped_witness(spec))
        edge_index_array(spec)
        layouts = solver._dp_layout.cache_info().currsize
        tracemalloc.start()
        try:
            with pytest.raises(solver.BudgetExceeded, match="layer state space"):
                solver.embedded_step_energy(spec, s1, s2, toy_plugs()["frustration_free"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert solver._dp_layout.cache_info().currsize == layouts

    def test_embedded_weights_scale_the_terms(self, monkeypatch):
        spec = LatticeSpec(2, 3)
        s1, s2 = solver._step_patterns(_random_tiling(spec, np.random.default_rng(25)))
        plug = _random_diagonal_plug(np.random.default_rng(26), True)
        zero = np.zeros_like(s1)
        h = solver.embedded_step_energy(spec, s1, zero, plug)
        v = solver.embedded_step_energy(spec, zero, s2, plug)
        assert h > 0 and v > 0
        monkeypatch.setitem(solver.DEFAULT_COEFFICIENTS, "horizontal", 2.0)
        monkeypatch.setitem(solver.DEFAULT_COEFFICIENTS, "vertical", 0.0)
        assert solver.embedded_step_energy(spec, s1, zero, plug) == 2 * h
        assert solver.embedded_step_energy(spec, zero, s2, plug) == 0.0


@pytest.fixture(scope="module")
def fixtures():
    return json.loads((FIXTURES / "sector_fixtures.json").read_text())["fixtures"]


@pytest.fixture(scope="module")
def zero_report():
    return solver.ground_energy_search(TORUS, None)


class TestOracleAgreement:
    def test_enough_fixtures(self, fixtures):
        assert len(fixtures) >= 10

    @pytest.mark.slow
    def test_full_sector_oracle_matches_decomposition(self, fixtures):
        plugs = toy_plugs()
        for f in (f for f in fixtures if f["kind"] == "sector-full"):
            t = Tiling.from_json_dict(f["tiling"])
            plug = plugs[f["plug"]]
            direct = solver.sector_full_oracle(t, plug)
            se = solver.tile_sector_energy(t, plug)
            assert direct == pytest.approx(se.total, abs=1e-8)
            assert direct == pytest.approx(f["expected_total"], abs=1e-6)

    @pytest.mark.slow
    def test_qubit_oracle_matches_decomposition(self, fixtures):
        for f in (f for f in fixtures if f["kind"] == "sector-qubits"):
            t = Tiling.from_json_dict(f["tiling"])
            copy = f["copy"]
            direct = solver.sector_qubit_oracle(t, copy)
            ce = classical_energy(t)
            part = (ce.tile1 + ce.loop1) if copy == 1 else (ce.tile2 + ce.loop2)
            epr = solver.epr_min_energy(epr_demand_graph(t, copy))
            assert epr.exact
            assert direct == pytest.approx(part + epr.value, abs=1e-8)
            assert direct == pytest.approx(f["expected_total"], abs=1e-6)

    def test_striped_single_copy_sector(self):
        # the classic anchor: pairing satisfied, color penalty 18 remains
        val = solver.sector_qubit_oracle(striped_witness(TORUS), 1)
        assert val == pytest.approx(18.0, abs=1e-8)

    def test_oversized_sectors_are_rejected(self):
        # 2^20 qubit states on ring 10; (2^4)^16 sector states on the 4x4
        # torus, a product that wraps to 0 in int64
        ring = LatticeSpec(1, 10)
        with pytest.raises(solver.BudgetExceeded, match="exceeds cap"):
            solver.sector_qubit_oracle(Tiling(ring, np.zeros(10, int), np.arange(10) % 3), 1)
        spec = LatticeSpec(2, 4)
        t = Tiling(spec, *(np.arange(16) % 3 for _ in range(4)))
        with pytest.raises(solver.BudgetExceeded, match="exceeds cap"):
            solver.sector_full_oracle(t, None)

    def test_full_space_ring_matches_sector_sweep(self):
        term = build_single_copy_term()
        whole = solver.full_space_oracle(RING, term)
        # min over one copy's sectors of tile + color + pairing energy
        nt, ct = solver._tables(RING)
        q, _ = solver._q_sweep(nt, ct)
        swept = float((ct.loop_cost + q).min())
        assert whole == pytest.approx(swept, abs=1e-8)
        assert whole == pytest.approx(0.0, abs=1e-8)


class TestGroundEnergySearch:
    def test_minimum_is_thirty_six(self, zero_report):
        assert zero_report.minimum == pytest.approx(36.0, abs=1e-9)
        assert zero_report.certified

    def test_argmin_is_a_clean_striped_sector(self, zero_report):
        t = zero_report.argmin
        from rih.tiling import rule_violations

        assert rule_violations(t, 1) == [] and rule_violations(t, 2) == []
        f = classify(t, 1)
        assert f.looped and not f.has_turn
        assert solver.tile_sector_energy(t).total == pytest.approx(36.0, abs=1e-9)

    def test_breaking_loops_costs_at_least_one_more(self, zero_report):
        cat = zero_report.categories
        assert cat["some_copy_not_looped"] >= 37.0 - 1e-9

    def test_turning_loops_cost_at_least_four_more(self, zero_report):
        cat = zero_report.categories
        # no mask on the small torus is looped with a turn; the claim holds
        # over an empty category
        assert cat["looped_with_turn_masks"] == 0
        assert cat["some_copy_looped_with_turn"] is None or (
            cat["some_copy_looped_with_turn"] >= 40.0 - 1e-9
        )

    def test_pruning_statistics_present(self, zero_report):
        s = zero_report.stats
        assert s["distinct_masks"] > 0
        assert s["distinct_step_patterns"] > 0
        assert s["mask_pairs_swept"] == s["distinct_masks"] ** 2
        assert s["sectors_total"] == 9**9

    def test_tables_are_built_once_per_lattice(self):
        # equal specs built apart share one solved table pair, so a later
        # search in the same process reuses it
        a = solver._tables(LatticeSpec(1, 5, "periodic"))
        b = solver._tables(LatticeSpec(1, 5, "periodic"))
        assert a[0] is b[0] and a[1] is b[1]
        assert isinstance(a[0], solver.NumberingTable)
        assert isinstance(a[1], solver.ColoringTable)

    @pytest.mark.parametrize(
        "spec,largest",
        [(TORUS, 9), (OPEN3, 9), (LatticeSpec(1, 11), 11)],
        ids=["torus3x3", "open3x3", "ring11"],
    )
    def test_every_pattern_is_exact_at_the_fixed_cap(self, spec, largest):
        # why the search needs no way to repair an inexact pairing value: the
        # largest pairing component stays below the cap
        nt, _ = solver._tables(spec)
        assert nt.epr_exact.all()
        sizes = [
            c.num_slots
            for p in nt.orbit_reps
            for c in solver.epr_min_energy(
                solver._pattern_demands(nt.edge_idx, nt.patterns[p])
            ).components
        ]
        assert max(sizes) == largest < solver.EXACT_PAIRING_CAP

    def test_inexact_pairing_value_leaves_the_search_uncertified(self, monkeypatch):
        # below 9 slots the torus's largest components, of every shape, get a
        # bound, whatever the caches hold
        monkeypatch.setattr(solver, "EXACT_PAIRING_CAP", 8)
        monkeypatch.setattr(solver, "_tables", functools.lru_cache(solver._tables.__wrapped__))
        rep = solver.ground_energy_search(TORUS)
        assert not solver._tables(TORUS)[0].epr_exact.all()
        assert not rep.certified
        assert rep.minimum <= 36.0
        assert solver.single_copy_floor_check(TORUS) == (False, -np.inf)

    def test_search_is_fast_enough(self):
        t0 = time.time()
        solver.ground_energy_search(TORUS, None)
        assert time.time() - t0 < 600.0

    def test_report_serializes(self, zero_report):
        d = zero_report.to_json_dict()
        assert d["schema"] == solver.REPORT_SCHEMA
        assert d["minimum"] == 36.0
        Tiling.from_json_dict(d["argmin"])  # argmin survives a round trip
        json.dumps(d)

    def test_satisfiable_plug_keeps_the_floor(self):
        rep = solver.ground_energy_search(TORUS, toy_plugs()["frustration_free"])
        assert rep.minimum == pytest.approx(36.0, abs=1e-9)
        assert rep.certified
        assert rep.stats["embedded_refinements"] == 4

    def test_frustrated_plug_raises_the_floor(self):
        rep = solver.ground_energy_search(TORUS, toy_plugs()["afm"])
        assert rep.minimum == pytest.approx(39.0, abs=1e-9)
        assert rep.certified
        se = solver.tile_sector_energy(rep.argmin, toy_plugs()["afm"])
        assert se.total == pytest.approx(39.0, abs=1e-9)

    def test_open_boundary_optimum_leaves_chain_ends_unpaired(self):
        rep = solver.ground_energy_search(OPEN3, None)
        assert rep.minimum == pytest.approx(24.0, abs=1e-9)
        assert rep.certified
        for copy in (1, 2):
            assert each_slot_once(epr_demand_graph(rep.argmin, copy))

    def test_oversized_lattice_is_rejected(self):
        with pytest.raises(solver.BudgetExceeded):
            solver.ground_energy_search(LatticeSpec(2, 6, "periodic"))

    @pytest.mark.parametrize("case", RANDOM_PLUG_REPORTS, ids=RANDOM_PLUG_IDS)
    def test_random_plug_report_is_pinned(self, case):
        # the separable sweep of a complex plug and the joint refinement of a
        # real one, as tests/fixtures/random_plug_reports.json records them
        spec = LatticeSpec.from_json_dict(case["spec"])
        out = solver.ground_energy_search(spec, _pinned_plug(case)).to_json_dict()
        del out["stats"]["elapsed_seconds"]
        assert json.dumps(out, indent=1) == json.dumps(case["report"], indent=1)

    @pytest.mark.parametrize("case", RANDOM_PLUG_REPORTS, ids=RANDOM_PLUG_IDS)
    def test_pinned_minimum_is_the_pinned_argmin_energy(self, case):
        # a regenerated pin whose two fields disagree fails here
        argmin = Tiling.from_json_dict(case["report"]["argmin"])
        total = solver.tile_sector_energy(argmin, _pinned_plug(case)).total
        assert abs(total - case["report"]["minimum"]) <= 1e-12


class TestCountingFloor:
    def test_every_mask_respects_the_floor(self):
        ok, margin = solver.single_copy_floor_check(TORUS)
        assert ok
        assert margin >= -1e-9

    def test_floor_is_tight_somewhere(self):
        _, margin = solver.single_copy_floor_check(TORUS)
        assert margin == pytest.approx(0.0, abs=1e-9)


class TestSymmetryInvariance:
    def test_sector_energy_invariant_under_lattice_symmetries(self):
        rng = np.random.default_rng(11)
        perms = lattice_symmetry_permutations(TORUS)
        for _ in range(3):
            t = Tiling(TORUS, *(rng.integers(0, 3, 9) for _ in range(4)))
            base = solver.tile_sector_energy(t).total
            for g in rng.choice(len(perms), 4, replace=False):
                moved = t.permuted(perms[g])
                assert solver.tile_sector_energy(moved).total == pytest.approx(
                    base, abs=1e-8
                )

    def test_search_minimum_stable_across_reruns(self):
        a = solver.ground_energy_search(TORUS, None)
        b = solver.ground_energy_search(TORUS, None)
        assert a.minimum == b.minimum
        assert a.argmin == b.argmin


def _burnside_orbit_count(spec):
    """(1/|G|) * sum over symmetries g of the step patterns g fixes.

    Counted on numberings: the lattice is connected, so each step pattern
    comes from exactly three numberings, a global shift apart."""
    perms = lattice_symmetry_permutations(spec)
    ei = edge_index_array(spec)
    numberings = np.array(list(itertools.product(range(3), repeat=spec.num_sites)))

    def steps(nums):
        return (nums[:, ei[:, 1]] - nums[:, ei[:, 0]]) % 3

    base = steps(numberings)
    fixed = 0
    for g in perms:
        moved = np.empty_like(numberings)
        moved[:, g] = numberings  # site g[i] carries what site i carried
        same = int((steps(moved) == base).all(axis=1).sum())
        assert same % 3 == 0
        fixed += same // 3
    assert fixed % len(perms) == 0
    return fixed // len(perms)


def _random_psd(rng, d, complex_entries):
    g = rng.standard_normal((d * d, d * d))
    if complex_entries:
        g = g + 1j * rng.standard_normal((d * d, d * d))
    return g @ g.conj().T / (d * d)


# every pattern of the two rings, 200 seeded patterns of the torus
ORBIT_CASES = [(LatticeSpec(1, 5), None), (LatticeSpec(1, 7), None), (TORUS, 200)]
ORBIT_IDS = ["ring5", "ring7", "torus3x3"]
# how far a direct solve may sit from its orbit's broadcast value: ring
# components are paths and cycles, one cached value per shape, so none; the
# torus's branching components are cached under a key that can split an
# isomorphism class, and a fresh solve of a relabeled operator moves the
# last bits (1.8e-14 on one of the 200 torus patterns)
ORBIT_TOLERANCE = [0.0, 0.0, 1e-12]


def _marked_slow(cases, ids, slow):
    """The cases as pytest params, the ones with an id in `slow` marked slow."""
    return [
        pytest.param(*case, id=i, marks=pytest.mark.slow if i in slow else ())
        for case, i in zip(cases, ids)
    ]


def _patterns_under_test(nt, sample):
    if sample is None:
        return range(len(nt.patterns))
    rng = np.random.default_rng(2024)
    return np.sort(rng.choice(len(nt.patterns), sample, replace=False))


def _oracle_components(n, a, b):
    """The smallest node of each node's component, through scipy's graph."""
    import scipy.sparse.csgraph

    graph = scipy.sparse.coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    _, label = scipy.sparse.csgraph.connected_components(graph, directed=False)
    _, first = np.unique(label, return_index=True)
    return first[label]


def _component_cases():
    rng = np.random.default_rng(19)
    cases = {"no-edges": (7, [], []), "one-node-self-loop": (1, [0], [0])}
    for n, m in ((10, 4), (1000, 300), (1000, 2000), (10**5, 5 * 10**4), (10**5, 2 * 10**5)):
        cases[f"random-{n}-{m}"] = (n, rng.integers(0, n, m), rng.integers(0, n, m))
    a, b = rng.integers(0, 500, 400), rng.integers(0, 500, 400)
    loops = rng.integers(0, 500, 50)
    cases["self-loops-and-repeats"] = (
        500,
        np.concatenate([a, b, loops, a]),
        np.concatenate([b, a, loops, b]),
    )
    # a long path is the deepest chain of hooks; in node order, reversed and
    # in shuffled order
    n = 10**4
    walk = np.arange(n)
    cases["path"] = (n, walk[:-1], walk[1:])
    cases["path-reversed"] = (n, walk[:0:-1], walk[-2::-1])
    walk = rng.permutation(n)
    cases["path-shuffled"] = (n, walk[:-1], walk[1:])
    return cases


COMPONENT_CASES = _component_cases()


class TestComponents:
    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_matches_the_scipy_oracle(self, name):
        n, a, b = COMPONENT_CASES[name]
        label = solver._components(n, a, b)
        assert label.dtype == np.int32
        assert (label == _oracle_components(n, np.asarray(a, int), np.asarray(b, int))).all()

    def test_joining_a_previous_labeling(self):
        rng = np.random.default_rng(7)
        n = 2000
        a, b = rng.integers(0, n, (2, 1500))
        c, d = rng.integers(0, n, (2, 1500))
        first = solver._components(n, a, b)
        kept = first.copy()
        joined = solver._components(n, c, d, first)
        assert (first == kept).all()
        want = _oracle_components(n, np.concatenate([a, c]), np.concatenate([b, d]))
        assert (joined == want).all()

    def test_orbit_index_matches_unique(self):
        canon = solver._components(*COMPONENT_CASES["random-1000-300"])
        reps, index = solver._orbit_index(canon)
        want_reps, want_index = np.unique(canon, return_inverse=True)
        assert reps.tobytes() == want_reps.astype(np.int64).tobytes()
        assert index.tobytes() == want_index.tobytes()


ORBIT_SPECS = [TORUS, OPEN3] + [
    LatticeSpec(1, n, boundary) for n in range(3, 12) for boundary in ("periodic", "open")
]


class TestSymmetryOrbits:
    @pytest.mark.parametrize("spec,orbits", [(TORUS, 150), (OPEN3, 954)])
    def test_orbit_count_is_the_burnside_count(self, spec, orbits):
        nt = solver.NumberingTable(spec)
        assert _burnside_orbit_count(spec) == orbits
        assert len(nt.orbit_reps) == orbits
        assert len(np.unique(nt.orbit_of)) == orbits

    @pytest.mark.parametrize("spec", [TORUS, OPEN3, LatticeSpec(1, 7)])
    def test_orbit_of_is_invariant_under_every_symmetry(self, spec):
        nt = solver.NumberingTable(spec)
        N = spec.num_sites
        place = 3 ** np.arange(N - 1, -1, -1)
        # digits holds each pattern's one numbering with site 0 at 0
        assert nt.digits.shape == (3 ** (N - 1), N) and not nt.digits[:, 0].any()
        pattern_at = np.full(3**N, -1)
        pattern_at[nt.digits.astype(np.int64) @ place] = np.arange(len(nt.patterns))
        for g in lattice_symmetry_permutations(spec):
            moved = np.empty_like(nt.digits)
            moved[:, g] = nt.digits
            moved = (moved - moved[:, :1]) % 3  # shift site 0 back to 0
            image = pattern_at[moved.astype(np.int64) @ place]
            assert (image >= 0).all()
            assert (nt.orbit_of[image] == nt.orbit_of).all()
        # each representative is its orbit's smallest pattern index
        assert (nt.orbit_reps[nt.orbit_of] <= np.arange(len(nt.patterns))).all()
        assert (nt.orbit_of[nt.orbit_reps] == np.arange(len(nt.orbit_reps))).all()

    @pytest.mark.parametrize("spec", ORBIT_SPECS, ids=lambda s: f"{s.r}d{s.n}{s.boundary[0]}")
    def test_orbits_are_the_minimum_over_every_symmetry_image(self, spec):
        # the symmetries form a group, so a pattern's orbit is its set of
        # images and the orbit's smallest member is the smallest image
        nt = solver.NumberingTable(spec)
        N = spec.num_sites
        place = 3 ** np.arange(N - 1, -1, -1)
        pattern_at = np.full(3**N, -1)
        pattern_at[nt.digits.astype(np.int64) @ place] = np.arange(len(nt.patterns))
        canon = np.arange(len(nt.patterns))
        for g in lattice_symmetry_permutations(spec):
            moved = np.empty_like(nt.digits)
            moved[:, g] = nt.digits
            moved = (moved - moved[:, :1]) % 3
            np.minimum(canon, pattern_at[moved.astype(np.int64) @ place], out=canon)
        orbit_reps, orbit_of = np.unique(canon, return_inverse=True)
        assert nt.orbit_reps.tobytes() == orbit_reps.tobytes()
        assert nt.orbit_of.tobytes() == orbit_of.tobytes()

    def test_ring_eleven_build_peak_memory(self):
        # the tables keep 2.7 MiB; the build holds one generator's image at a time
        tracemalloc.start()
        try:
            solver.NumberingTable(LatticeSpec(1, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "spec,sample,tol",
        [case + (tol,) for case, tol in zip(ORBIT_CASES, ORBIT_TOLERANCE)],
        ids=ORBIT_IDS,
    )
    def test_broadcast_pairing_minima_match_direct_solves(self, spec, sample, tol):
        nt = solver.NumberingTable(spec)
        nt.solve_all()
        for p in _patterns_under_test(nt, sample):
            direct = solver.epr_min_energy(solver._pattern_demands(nt.edge_idx, nt.patterns[p]))
            assert abs(direct.value - nt.epr[p]) <= tol
            assert direct.exact == nt.epr_exact[p]

    @pytest.mark.parametrize(
        "spec,sample", _marked_slow(ORBIT_CASES, ORBIT_IDS, {"torus3x3"})
    )
    def test_embedded_minima_are_orbit_invariant(self, spec, sample):
        rng = np.random.default_rng(5)
        nondiagonal = TranslationPlug(
            2, _random_psd(rng, 2, True), _random_psd(rng, 2, False), name="random"
        )
        ones = np.ones(len(edge_index_array(spec)), dtype=np.int8)
        assert not solver._plug_is_diagonal(solver._active_terms(ones, ones, nondiagonal))
        nt = solver.NumberingTable(spec)
        zero = np.zeros(nt.num_edges, dtype=np.int8)

        def energy(p, part, plug):
            steps = (nt.patterns[p], zero) if part == "h" else (zero, nt.patterns[p])
            return solver.embedded_step_energy(spec, *steps, plug)

        for plug in (toy_plugs()["afm"], nondiagonal):
            rep_value = {}
            for p in _patterns_under_test(nt, sample):
                rep = int(nt.orbit_reps[nt.orbit_of[p]])
                for part in ("h", "v"):
                    if (rep, part) not in rep_value:
                        rep_value[rep, part] = energy(rep, part, plug)
                    assert energy(p, part, plug) == pytest.approx(rep_value[rep, part], abs=1e-9)


def _joint_cases():
    """(spec, plug) of every pinned joint random plug, and frustration_free on
    the 3x3 torus."""
    cases = [
        (LatticeSpec.from_json_dict(c["spec"]), _pinned_plug(c))
        for c in RANDOM_PLUG_REPORTS
        if c["report"]["stats"]["embedded_refinements"]
    ]
    return cases + [(TORUS, toy_plugs()["frustration_free"])]


JOINT_CASES = _joint_cases()


def _spec_id(spec):
    return f"{spec.r}d{spec.n}{spec.boundary[0]}"


class TestJointOrbits:
    @pytest.mark.parametrize(
        "spec", [LatticeSpec(1, 7), LatticeSpec(1, 6, "open"), TORUS], ids=_spec_id
    )
    def test_images_of_a_pattern_are_its_orbit(self, spec):
        nt, _ = solver._tables(spec)
        assert (np.diff(_pattern_codes(nt.patterns)) > 0).all()
        perms = lattice_symmetry_permutations(spec)
        sizes = np.bincount(nt.orbit_of)
        for p in range(len(nt.patterns)):
            images = set(solver._pattern_images(nt, perms, p).tolist())
            assert p in images
            assert all(nt.orbit_of[q] == nt.orbit_of[p] for q in images)
            assert len(images) == sizes[nt.orbit_of[p]]

    @pytest.mark.parametrize(
        "spec,plug", JOINT_CASES, ids=[f"{p.name}-{_spec_id(s)}" for s, p in JOINT_CASES]
    )
    def test_each_refined_pair_has_its_key_value(self, monkeypatch, spec, plug):
        keys = {}
        pair_key = solver._pair_key

        def recording(nt, perms, p1, p2):
            keys[p1, p2] = key = pair_key(nt, perms, p1, p2)
            return key

        monkeypatch.setattr(solver, "_pair_key", recording)
        rep = solver.ground_energy_search(spec, plug)
        assert len(keys) == rep.stats["embedded_refinements"] > 0
        nt, _ = solver._tables(spec)
        perms = lattice_symmetry_permutations(spec)

        def energy(p1, p2):
            return solver.embedded_step_energy(spec, nt.patterns[p1], nt.patterns[p2], plug)

        for (p1, p2), key in keys.items():
            images = zip(*(solver._pattern_images(nt, perms, p) for p in (p1, p2)))
            assert key == min((int(a), int(b)) for a, b in images)
            assert abs(energy(p1, p2) - energy(*key)) <= 1e-12

    def test_ring_seven_solves_one_joint_minimum_per_orbit(self, monkeypatch):
        (case,) = (
            c
            for c, name in zip(RANDOM_PLUG_REPORTS, RANDOM_PLUG_IDS)
            if name == "random-hv-1-1d7p"
        )
        joint = []
        direct = solver.embedded_step_energy

        def counting(spec, steps1, steps2, plug):
            if np.count_nonzero(steps1) and np.count_nonzero(steps2):
                joint.append((steps1.tobytes(), steps2.tobytes()))
            return direct(spec, steps1, steps2, plug)

        monkeypatch.setattr(solver, "embedded_step_energy", counting)
        rep = solver.ground_energy_search(LatticeSpec(1, 7), _pinned_plug(case))
        assert rep.stats["embedded_refinements"] == 112
        assert len(joint) <= 8
        assert len(set(joint)) == len(joint)


def _exhaustive_ground_energy(spec, plug):
    """The ground energy from the definitions, with no table, sweep or pair
    key: the minimum over every numbering pair of its classical part
    minimized over the colorings, both copies' pairing minima and the joint
    embedded minimum.  A global shift of a copy's numbers or colors changes
    no energy, so site 0 holds 0 in every assignment.  The embedded part is
    nonnegative, so it is skipped where the rest already reaches the best."""
    ei = edge_index_array(spec)
    rows = np.array([(0, *x) for x in itertools.product(range(3), repeat=spec.num_sites - 1)])
    # an edge's ends are equal: same-colored read as a coloring, a zero step
    # read as a numbering; the classical part depends on nothing else
    sets, zero_of = np.unique(rows[:, ei[:, 0]] == rows[:, ei[:, 1]], axis=0, return_inverse=True)
    # one copy's part per (zero set, same-color set): 8 per violation (equal
    # colors with equal numbers, or different colors with different ones)
    # and 2 per different-color edge; 1 per edge same-colored in both copies
    one = 8 * (sets[:, None] == sets).sum(axis=2) + 2 * (~sets).sum(axis=1)
    both = (sets[:, None] & sets).sum(axis=2)
    classical = (one[:, None, :, None] + one[:, None] + both).min(axis=(2, 3))
    steps = (rows[:, ei[:, 1]] - rows[:, ei[:, 0]]) % 3
    epr = np.array([solver.epr_min_energy(solver._pattern_demands(ei, s)).value for s in steps])
    rest = classical[zero_of[:, None], zero_of] + epr[:, None] + epr
    best = np.inf
    for k in np.argsort(rest, axis=None).tolist():
        x1, x2 = divmod(k, len(rows))
        if rest[x1, x2] >= best:
            break
        emb = solver.embedded_step_energy(spec, steps[x1], steps[x2], plug)
        best = min(best, rest[x1, x2] + emb)
    return best


class TestJointExhaustive:
    CASES = [(spec, plug) for spec, plug in JOINT_CASES if spec.num_sites <= 6]

    def test_every_small_pinned_joint_case_is_checked(self):
        names = [f"{p.name}-{_spec_id(s)}" for s, p in self.CASES]
        assert names == [f"random-hv-{k}-{n}" for n in ("1d5p", "1d6o") for k in (1, 2, 3)]

    @pytest.mark.parametrize(
        "spec,plug", CASES, ids=[f"{p.name}-{_spec_id(s)}" for s, p in CASES]
    )
    def test_search_matches_every_numbering_pair(self, spec, plug):
        want = _exhaustive_ground_energy(spec, plug)
        assert abs(solver.ground_energy_search(spec, plug).minimum - want) <= 1e-9


def _reference_tables(spec):
    """The numbering and coloring tables built over all 3^N numberings and
    colorings: np.unique over every row's code, orbits by searchsorted on the
    sorted codes, one epr_min_energy call per orbit representative on the
    demand graph of its numbering, and has_turn from each mask's
    representative coloring by the site-by-site definition."""
    N = spec.num_sites
    ei = edge_index_array(spec)
    E = len(ei)
    digits = np.array(list(itertools.product(range(3), repeat=N)), dtype=np.int8)
    steps = (digits[:, ei[:, 1]] - digits[:, ei[:, 0]]) % 3
    weight = 3 ** np.arange(E - 1, -1, -1, dtype=np.int64)
    codes, first = np.unique(steps.astype(np.int64) @ weight, return_index=True)
    patterns = steps[first]
    bits = np.uint64(1) << np.arange(E, dtype=np.uint64)
    zero_mask = np.bitwise_or.reduce(np.where(patterns == 0, bits, np.uint64(0)), axis=1)
    zero_groups, group_of = np.unique(zero_mask, return_inverse=True)
    edge_at = {(int(a), int(b)): j for j, (a, b) in enumerate(ei)}
    canon = np.arange(len(patterns))
    for g in lattice_symmetry_permutations(spec):
        image = np.zeros(len(codes), dtype=np.int64)
        for j, (a, b) in enumerate(ei):
            ga, gb = int(g[a]), int(g[b])
            flip = np.array([0, 1, 2] if ga < gb else [0, 2, 1])
            image += weight[edge_at[min(ga, gb), max(ga, gb)]] * flip[patterns[:, j]]
        np.minimum(canon, np.searchsorted(codes, image), out=canon)
    orbit_reps, orbit_of = np.unique(canon, return_inverse=True)
    zeros = np.zeros(N, dtype=int)
    results = [
        solver.epr_min_energy(
            epr_demand_graph(Tiling(spec, zeros, digits[first[p]]), 1)
        )
        for p in orbit_reps
    ]
    same = digits[:, ei[:, 0]] == digits[:, ei[:, 1]]
    masks, mask_first = np.unique(
        np.bitwise_or.reduce(np.where(same, bits, np.uint64(0)), axis=1), return_index=True
    )
    rep_coloring = digits[mask_first]
    deg = np.zeros((len(masks), N), dtype=np.int8)
    for j, (a, b) in enumerate(ei):
        hit = (masks & bits[j]) != 0
        deg[hit, a] += 1
        deg[hit, b] += 1
    numbering = {
        "patterns": patterns,
        "digits": digits[first],
        "zero_mask": zero_mask,
        "zero_groups": zero_groups,
        "group_of": group_of,
        "orbit_reps": orbit_reps,
        "orbit_of": orbit_of,
        "epr": np.array([r.value for r in results])[orbit_of],
        "epr_exact": np.array([r.exact for r in results])[orbit_of],
    }
    coloring = {
        "masks": masks,
        "rep_coloring": rep_coloring,
        "same_degree": deg,
        "looped": (deg == 2).all(axis=1),
        "has_turn": np.array(
            [reference_has_turn(Tiling(spec, c, zeros), 1) for c in rep_coloring]
        ),
    }
    return numbering, coloring


def _pattern_codes(steps):
    """Base-3 code of each row of steps, first edge most significant, so that
    sorted codes are lexicographically sorted patterns."""
    codes = np.zeros(len(steps), dtype=np.int64)
    for column in steps.T:
        codes *= 3
        codes += column
    return codes


def _sorted_site0_digits(spec):
    """The site-0 digit table as it was built before the rows came out in
    their final order, kept as a literal reference: one int64 % 3 and //= 3
    per column."""
    if spec.r > solver._TABLE_DIGITS:
        raise solver.BudgetExceeded(f"numbering table infeasible for {spec.n}^{spec.r} sites")
    N = spec.num_sites
    if N - 1 > solver._TABLE_DIGITS:
        raise solver.BudgetExceeded(f"numbering table infeasible for {N} sites")
    count = 3 ** (N - 1)
    idx = np.arange(count, dtype=np.int64)
    out = np.zeros((count, N), dtype=np.int8)
    for k in range(N - 1, 0, -1):
        out[:, k] = idx % 3
        idx //= 3
    return out


class _SortedNumberingTable(solver.NumberingTable):
    """NumberingTable's build as it was before the rows came out in their
    final order, kept as a literal reference: every site-0 row's pattern,
    sorted by its base-3 code, and the orbits through the row index of each
    symmetry image.  solve_all and broadcast are NumberingTable's."""

    def __init__(self, spec):
        digits = _sorted_site0_digits(spec)
        self.spec = spec
        self.edge_idx = edge_index_array(spec)
        P, E = len(digits), len(self.edge_idx)
        self.num_edges = E
        steps = (digits[:, self.edge_idx[:, 1]] - digits[:, self.edge_idx[:, 0]]) % 3
        row_mask = np.zeros(P, dtype=np.uint64)
        for j in range(E):
            row_mask |= (steps[:, j] == 0).astype(np.uint64) << np.uint64(j)
        row_codes = _pattern_codes(steps)
        order = np.argsort(row_codes)
        del row_codes
        self.patterns = steps[order]
        del steps
        self.zero_groups, first, row_group = np.unique(
            row_mask, return_index=True, return_inverse=True
        )
        del row_mask
        self.group_of = row_group[order]
        del row_group
        self.digits = digits[order]
        del digits
        pattern_at = np.empty(P, dtype=np.int32)
        pattern_at[order] = np.arange(P, dtype=np.int32)
        del order
        self.group_rep = pattern_at[first]
        self.orbit_reps, self.orbit_of = self._orbits(pattern_at)
        self.epr = np.zeros(P)
        self.epr_exact = np.zeros(P, dtype=bool)

    def _orbits(self, pattern_at):
        P, N = self.digits.shape
        place = 3 ** np.arange(N - 1, -1, -1, dtype=np.int32)
        items = np.arange(P, dtype=np.int32)
        label = items
        for g in solver._generators(lattice_symmetry_permutations(self.spec)):
            origin = self.digits[:, np.argsort(g)[0]]
            row = np.zeros(P, dtype=np.int32)
            for i in range(N):
                row += place[g[i]] * ((self.digits[:, i] - origin) % 3)
            label = solver._components(P, items, pattern_at[row], label)
        return solver._orbit_index(label)


SORTED_BUILD_SPECS = (
    [TORUS, OPEN3]
    + [LatticeSpec(1, n) for n in range(3, 13)]
    + [LatticeSpec(1, n, "open") for n in range(4, 10)]
)


TABLE_SPECS = (
    [TORUS, OPEN3]
    + [LatticeSpec(1, n) for n in range(3, 12)]
    + [LatticeSpec(1, n, "open") for n in range(3, 10)]
)


class TestReducedTables:
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: f"{s.r}d{s.n}{s.boundary[0]}")
    def test_tables_match_the_full_enumeration(self, spec):
        # component minima are pure functions of their input, so the bits
        # agree whatever the cache already holds
        nt = solver.NumberingTable(spec)
        nt.solve_all()
        ct = solver.ColoringTable(nt)
        want_nt, want_ct = _reference_tables(spec)
        assert nt.zero_groups[nt.group_of].tobytes() == want_nt.pop("zero_mask").tobytes()
        for table, want in ((nt, want_nt), (ct, want_ct)):
            for name, ref in want.items():
                got = getattr(table, name)
                assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
                assert got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("spec", SORTED_BUILD_SPECS, ids=_spec_id)
    def test_rows_in_final_order_match_the_sorted_build(self, spec):
        digits, want_digits = solver._site0_digits(spec), _sorted_site0_digits(spec)
        assert (digits.dtype, digits.shape) == (want_digits.dtype, want_digits.shape)
        assert digits.tobytes() == want_digits.tobytes()
        got, want = solver.NumberingTable(spec), _SortedNumberingTable(spec)
        got.solve_all()
        want.solve_all()
        names = ("digits", "patterns", "zero_groups", "group_of", "group_rep")
        for name in names + ("orbit_reps", "orbit_of", "epr", "epr_exact"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize(
        "build", [solver.NumberingTable, solver._tables], ids=["NumberingTable", "tables"]
    )
    def test_oversized_table_fails_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(solver.BudgetExceeded, match="15 sites"):
                build(LatticeSpec(1, 15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "spec,solves",
        [(TORUS, 50), (OPEN3, 27), (LatticeSpec(1, 12), 10)],
        ids=["torus3x3", "open3x3", "ring12"],
    )
    def test_each_component_class_is_solved_once(self, spec, solves):
        # paths and cycles go through the canonical key like every other
        # shape, so the table fills one cache entry per key
        solver._pairing_minimum.cache_clear()
        solver.NumberingTable(spec).solve_all()
        assert solver._pairing_minimum.cache_info().currsize == solves

    def test_ring_fourteen_is_the_largest_accepted(self):
        digits = solver._site0_digits(LatticeSpec(1, 14))
        assert digits.shape == (3**13, 14) and not digits[:, 0].any()

    def test_one_build_enumerates_the_rows_once(self, monkeypatch):
        # the coloring table is read off the numbering table's rows
        calls = []
        site0_digits = solver._site0_digits

        def counted(spec):
            calls.append(spec)
            return site0_digits(spec)

        monkeypatch.setattr(solver, "_site0_digits", counted)
        solver._tables.__wrapped__(LatticeSpec(1, 7))
        assert calls == [LatticeSpec(1, 7)]


def _one_copy_extra(spec, nt, plug):
    """Horizontal one-copy embedded minima per pattern orbit, as the search
    folds them into the first copy's sweep."""
    zero = np.zeros(nt.num_edges, dtype=np.int8)
    reps = nt.patterns[nt.orbit_reps]
    return np.array([solver.embedded_step_energy(spec, s, zero, plug) for s in reps])


def _sweep_extra(spec, nt, kind):
    if kind == "none":
        return None
    if kind == "afm":
        return _one_copy_extra(spec, nt, toy_plugs()["afm"])
    rng = np.random.default_rng(7)
    if kind == "complex":
        plug = TranslationPlug(
            2, _random_psd(rng, 2, True), _random_psd(rng, 2, True), name="complex"
        )
        return _one_copy_extra(spec, nt, plug)
    # arbitrary floats, one per orbit like every embedded extra
    return 3 * rng.random(len(nt.orbit_reps))


def _violations_for_mask(mask, nt):
    """Tile-rule violation count per step pattern, one popcount per pattern:
    viol = 2*|mask & zero| + E - |mask| - |zero|."""
    zero_mask = nt.zero_groups[nt.group_of]
    inter = solver._popcount(np.bitwise_and(zero_mask, np.uint64(mask)))
    mask_count = int(solver._popcount(np.array([mask], dtype=np.uint64))[0])
    return 2 * inter + nt.num_edges - mask_count - solver._popcount(zero_mask)


def _q_loop(masks, nt, extra=None):
    """The per-mask reference for _q_sweep, over every mask: mask by mask, the
    np.argmin over patterns of 8*violations + (pairing + extra, one value per
    pattern orbit) and its value."""
    q = np.empty(len(masks))
    argmin = np.empty(len(masks), dtype=np.int64)
    base = nt.epr if extra is None else nt.epr + nt.broadcast(extra)
    for i, m in enumerate(masks):
        vals = 8.0 * _violations_for_mask(int(m), nt) + base
        argmin[i] = np.argmin(vals)
        q[i] = vals[argmin[i]]
    return q, argmin


def _brute_pair_min(values1, values2, masks):
    """Row-major argmin of the full M x M pair matrix, built in row blocks."""
    best, arg = np.inf, (0, 0)
    for s in range(0, len(masks), 128):
        block = values1[s : s + 128, None] + values2 + solver._popcount(
            masks[s : s + 128, None] & masks
        )
        k = int(np.argmin(block))
        if block.flat[k] < best:
            i, j = divmod(k, len(masks))
            best, arg = float(block.flat[k]), (s + i, j)
    return best, arg


# (spec, extra) pairs for the mask-sweep equivalence tests: the complex plug's
# embedded minima cost seconds to tens of seconds on the open 3x3 and ring 11,
# so there the orbit-constant random floats stand in for them
SWEEP_CASES = [
    (spec, kind)
    for spec, kinds in (
        (TORUS, ("none", "afm", "complex", "random")),
        (OPEN3, ("none", "afm", "random")),
        (LatticeSpec(1, 7), ("none", "afm", "complex", "random")),
        (LatticeSpec(1, 11), ("none", "afm", "random")),
    )
    for kind in kinds
]
SWEEP_IDS = [f"{s.r}d{s.n}{s.boundary[0]}-{k}" for s, k in SWEEP_CASES]


@pytest.fixture(scope="module")
def sweep_extra():
    """_sweep_extra, computed once per (spec, kind) for the module."""
    cache = {}

    def get(spec, nt, kind):
        if (spec, kind) not in cache:
            cache[spec, kind] = _sweep_extra(spec, nt, kind)
        return cache[spec, kind]

    return get


@st.composite
def pair_sweep_inputs(draw, crowded):
    """(values1, values2, masks) as _pair_sweep takes them: distinct masks of
    at most 8 bits, up to 64 of them, and values from a half-integer grid
    (exact ties) or non-integer floats, up to a quarter of them set to inf
    (the rows a category sweep leaves out).  Crowded inputs hold 4 to 7
    bits, at least half of the possible masks and values below 2, so that
    many pairs come near the minimum and the transform pays."""
    bits = draw(st.integers(4, 7) if crowded else st.integers(1, 8))
    most = min(2**bits, 64)
    masks = draw(
        st.lists(
            st.integers(0, 2**bits - 1),
            min_size=most // 2 if crowded else 1,
            max_size=most,
            unique=True,
        )
    )
    top = 2 if crowded else 20
    value = st.one_of(
        st.integers(0, 2 * top).map(lambda k: k / 2),
        st.floats(0, top, allow_nan=False, allow_infinity=False),
    )
    values = []
    for _ in range(2):
        v = np.array(draw(st.lists(value, min_size=len(masks), max_size=len(masks))))
        v[list(draw(st.sets(st.integers(0, len(masks) - 1), max_size=len(masks) // 4)))] = np.inf
        values.append(v)
    return values[0], values[1], np.array(masks, dtype=np.uint64)


def _takes_the_transform(values1, values2, masks):
    """Whether _pair_sweep bounds its listing by the hypercube transform:
    bits * 2^bits below the candidate count that the seed limit admits."""
    copy = solver.DEFAULT_COEFFICIENTS["copy"]
    i, j = int(np.argmin(values1)), int(np.argmin(values2))
    seed = values1[i] + values2[j] + copy * solver._popcount(masks[i] & masks[j])
    bits = int(masks.max()).bit_length()
    counts = solver._prefix_counts(values1, np.sort(values2), seed)
    return bits << bits < counts.sum()


class TestMaskSweep:
    @pytest.mark.parametrize(
        "spec,kind",
        _marked_slow(SWEEP_CASES, SWEEP_IDS, {"2d3p-complex", "1d11p-none", "1d11p-afm"}),
    )
    def test_q_all_matches_the_per_mask_loop(self, sweep_extra, spec, kind):
        # q from the orbit representatives, broadcast, and the row argmin of
        # every mask agree bit for bit with the loop over all masks
        nt, ct = solver._tables(spec)
        extra = sweep_extra(spec, nt, kind)
        q, argmin = solver._q_sweep(nt, ct, extra)
        want_q, want_argmin = _q_loop(ct.masks, nt, extra)
        assert q.tobytes() == want_q.tobytes()
        assert [argmin(i) for i in range(len(ct.masks))] == want_argmin.tolist()

    @pytest.mark.parametrize("spec,kind", SWEEP_CASES, ids=SWEEP_IDS)
    def test_pair_sweep_matches_brute_force(self, sweep_extra, spec, kind):
        nt, ct = solver._tables(spec)
        loop_cost = 2.0 * (nt.num_edges - ct.same_count)
        assert loop_cost.tobytes() == ct.loop_cost.tobytes()
        q1, _ = solver._q_sweep(nt, ct, sweep_extra(spec, nt, kind))
        q2, _ = solver._q_sweep(nt, ct)
        values1, values2 = loop_cost + q1, loop_cost + q2
        every = np.ones(len(ct.masks), dtype=bool)
        straight = ct.looped & ~ct.has_turn
        for allow1, allow2 in ((every, every), (straight, straight), (~ct.looped, every)):
            v1 = np.where(allow1, values1, np.inf)
            v2 = np.where(allow2, values2, np.inf)
            want = _brute_pair_min(v1, v2, ct.masks)
            assert solver._pair_sweep(v1, v2, ct.masks) == want

    @pytest.mark.parametrize("spec", [TORUS, LatticeSpec(1, 7)], ids=["torus3x3", "ring7"])
    def test_group_violations_match_the_per_pattern_count(self, spec):
        # the row kernel, read through group_of, is 8 times each pattern's count
        nt, ct = solver._tables(spec)
        for i, m in enumerate(ct.masks):
            got = solver._mask_violations([i], ct)[0][nt.group_of]
            assert (got == 8 * _violations_for_mask(int(m), nt)).all()

    @pytest.mark.parametrize("transform", [False, True], ids=["listing", "transform"])
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_pair_sweep_matches_every_pair(self, transform, data):
        # the value and the lexicographically first pair of the full M x M
        # matrix, bit for bit, on each side of the transform rule
        values1, values2, masks = data.draw(pair_sweep_inputs(crowded=transform))
        assume(_takes_the_transform(values1, values2, masks) == transform)
        copy = solver.DEFAULT_COEFFICIENTS["copy"]
        full = values1[:, None] + values2 + copy * solver._popcount(masks[:, None] & masks)
        k = int(np.argmin(full))  # row-major: the first (i, j) attaining the minimum
        value, pair = solver._pair_sweep(values1, values2, masks)
        assert np.float64(value).tobytes() == full.flat[k].tobytes()
        assert pair == divmod(k, len(masks))

    def test_pair_sweep_keeps_a_minimum_that_rounds_above_its_bound(self):
        # row 0's hypercube bound adds the overlap to values2 first, and
        # v1 + (v2 + 1) rounds one ulp below the pair's value (v1 + v2) + 1:
        # only the slack keeps the minimum pair (0, 6) under the lowered limit
        values1 = np.array([0.279306408785453, 4.3, 3.4, 4.8, 3.3, 3.4, 3.7, 3.6, 4.5, 2.4])
        values2 = np.array([0.0, 0.5, 0.4, 0.5, 0.3, 0.5, 0.36506324820918606, 0.1, 0.3, 0.4])
        masks = np.array([15, 10, 1, 4, 11, 12, 2, 13, 9, 5], dtype=np.uint64)
        assert _takes_the_transform(values1, values2, masks)
        v1, v2 = values1[0], values2[6]
        assert v1 + (v2 + 1.0) < v1 + v2 + 1.0
        assert solver._pair_sweep(values1, values2, masks) == (v1 + v2 + 1.0, (0, 6))

    def test_prefix_counts_keep_a_pair_whose_sum_is_the_limit(self):
        # the seed pair (0, 1) sets the limit a + b, and limit - a rounds
        # below b: only the slack keeps column 1 in row 0's prefix
        a, b = 2.035435882441491, 0.2705674395135961
        assert (a + b) - a < b
        values1, values2 = np.array([a, 9.0]), np.array([9.0, b])
        masks = np.array([1, 2], dtype=np.uint64)
        assert solver._pair_sweep(values1, values2, masks) == (2.306003321955087, (0, 1))

    def test_pairs_below_lists_every_pair_under_the_limit(self):
        nt, ct = solver._tables(LatticeSpec(1, 7))
        q, _ = solver._q_sweep(nt, ct)
        values = 2.0 * (nt.num_edges - ct.same_count) + q
        full = values[:, None] + values + solver._popcount(ct.masks[:, None] & ct.masks)
        limit = full.min() + 3.0
        val, i, j = solver._pairs_below(values, values, ct.masks, limit)
        wi, wj = np.nonzero(full <= limit)  # row-major, so (i, j) lexicographic
        order = np.argsort(full[wi, wj], kind="stable")
        assert len(val) > 100
        assert (i == wi[order]).all() and (j == wj[order]).all()
        assert val.tobytes() == full[wi, wj][order].tobytes()

    def test_copy_weight_scales_the_overlap(self, monkeypatch):
        nt, ct = solver._tables(LatticeSpec(1, 7))
        q, _ = solver._q_sweep(nt, ct)
        values = ct.loop_cost + q
        monkeypatch.setitem(solver.DEFAULT_COEFFICIENTS, "copy", 2.5)
        full = values[:, None] + values + 2.5 * solver._popcount(ct.masks[:, None] & ct.masks)
        k = int(np.argmin(full))
        want = (float(full.flat[k]), divmod(k, len(ct.masks)))
        assert solver._pair_sweep(values, values, ct.masks) == want

    def test_warm_search_allocates_little(self):
        # the kernels work in blocks of about SWEEP_BLOCK elements, never M x M
        solver.ground_energy_search(TORUS, None)
        tracemalloc.start()
        try:
            solver.ground_energy_search(TORUS, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_warm_search_sweeps_one_mask_per_orbit(self, monkeypatch):
        # the sweep hands the row kernel the 75 orbit representatives of the
        # torus's 2,914 masks, never all of them
        for plug in (None, toy_plugs()["afm"]):
            solver.ground_energy_search(TORUS, plug)
        rows, sweeps = [], []
        kernel, sweep = solver._mask_violations, solver._q_sweep

        def counted_kernel(reps, ct):
            rows.append(len(reps))
            return kernel(reps, ct)

        def counted_sweep(*args):
            start = len(rows)
            out = sweep(*args)
            sweeps.append(sum(rows[start:]))
            del rows[start:]
            return out

        monkeypatch.setattr(solver, "_mask_violations", counted_kernel)
        monkeypatch.setattr(solver, "_q_sweep", counted_sweep)
        for plug in (None, toy_plugs()["afm"]):
            solver.ground_energy_search(TORUS, plug)
        assert sweeps == [75, 75, 75]
        # outside the sweeps, each search's argmin reads one mask per copy
        assert rows == [1, 1, 1, 1]


def _mask_image(ct, g):
    """The index of each mask's image under the site permutation g."""
    edge_at = {(int(a), int(b)): j for j, (a, b) in enumerate(ct.edge_idx)}
    moved = np.zeros_like(ct.masks)
    for j, (a, b) in enumerate(ct.edge_idx):
        k = edge_at[min(g[a], g[b]), max(g[a], g[b])]
        moved |= ((ct.masks >> np.uint64(j)) & np.uint64(1)) << np.uint64(k)
    image = np.searchsorted(ct.masks, moved)
    assert (ct.masks[image] == moved).all()
    return image


MASK_ORBITS = [(TORUS, 75), (OPEN3, 212), (LatticeSpec(1, 11), 125)]


class TestMaskOrbits:
    @pytest.mark.parametrize("spec,orbits", MASK_ORBITS, ids=["torus3x3", "open3x3", "ring11"])
    def test_orbit_count_matches_the_brute_force_enumeration(self, spec, orbits):
        # the images under all symmetries, not just the generators, are
        # exactly the orbit, so the smallest image labels it
        ct = solver.ColoringTable(solver.NumberingTable(spec))
        canon = np.arange(len(ct.masks))
        for g in lattice_symmetry_permutations(spec):
            np.minimum(canon, _mask_image(ct, g), out=canon)
        assert len(np.unique(canon)) == orbits
        assert len(ct.orbit_reps) == orbits
        assert (ct.orbit_reps[ct.orbit_of] == canon).all()

    @pytest.mark.parametrize("spec", [TORUS, OPEN3, LatticeSpec(1, 7)])
    def test_orbit_of_is_invariant_under_every_symmetry(self, spec):
        ct = solver.ColoringTable(solver.NumberingTable(spec))
        for g in lattice_symmetry_permutations(spec):
            assert (ct.orbit_of[_mask_image(ct, g)] == ct.orbit_of).all()

    @pytest.mark.parametrize("spec", [TORUS, OPEN3, LatticeSpec(1, 7)])
    def test_each_representative_is_its_orbits_smallest_index(self, spec):
        ct = solver.ColoringTable(solver.NumberingTable(spec))
        M = len(ct.masks)
        assert (np.diff(ct.orbit_reps) > 0).all()
        assert (ct.orbit_of[ct.orbit_reps] == np.arange(len(ct.orbit_reps))).all()
        assert (ct.orbit_reps[ct.orbit_of] <= np.arange(M)).all()


class TestTurnAlternatives:
    @pytest.mark.parametrize("n,straight_total", [(3, 24.0), (6, 120.0)])
    def test_turns_cost_strictly_more_than_open_chains(self, n, straight_total):
        spec = LatticeSpec(2, n, "open")
        w = striped_witness(spec)
        base = solver.tile_sector_energy(w)
        assert base.total == pytest.approx(straight_total, abs=1e-9)
        assert each_slot_once(epr_demand_graph(w, 1))
        alt = snake_tiling(n)
        assert classify(alt, 1).has_turn
        alt_se = solver.tile_sector_energy(alt)
        assert alt_se.exact
        assert alt_se.total > base.total + 1.0
