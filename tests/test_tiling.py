import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rih.hamiltonian import BudgetExceeded
from rih.lattice import (
    OPEN,
    PERIODIC,
    LatticeSpec,
    _local_groups,
    coordinates,
    edge_axes,
    edge_index_array,
    lattice_symmetry_permutations,
)
from rih.tiling import (
    RULE_DIFF_COLOR_DIFF_NUMBER,
    RULE_SAME_COLOR_SAME_NUMBER,
    MAX_SITES,
    Tiling,
    classical_energy,
    classify,
    counting_floor,
    epr_demand_graph,
    rule_violations,
    same_color_geometry,
    striped_witness,
)
from test_lattice import coord_diff_count, edges, neighbors, site_index


def same_edges(t, copy):
    """Whether each edge of edge_index_array joins two sites of one color."""
    ei = edge_index_array(t.spec)
    c = t.colors(copy)
    return c[ei[:, 0]] == c[ei[:, 1]]


def h1lb(t, copy):
    """The counting floor of one copy of t, as c04 reaches it."""
    deg, _ = same_color_geometry(t.spec, same_edges(t, copy))
    return int(counting_floor(len(edge_index_array(t.spec)), deg))


def same_color_sizes(t, copy):
    """Site counts of the groups of same-color edges, smallest site first."""
    ei = edge_index_array(t.spec)
    return [k for _, k, _ in _local_groups(ei[same_edges(t, copy)].tolist())]


def random_tiling(spec, rng):
    N = spec.num_sites
    return Tiling(
        spec,
        rng.integers(0, 3, N),
        rng.integers(0, 3, N),
        rng.integers(0, 3, N),
        rng.integers(0, 3, N),
    )


class TestTilingBasics:
    def test_shape_validation(self):
        spec = LatticeSpec(2, 3)
        with pytest.raises(ValueError):
            Tiling(spec, [0] * 8, [0] * 9)
        with pytest.raises(ValueError):
            Tiling(spec, [0] * 9, [3] * 9)
        with pytest.raises(ValueError):
            Tiling(spec, [0] * 9, [-1] * 9)

    def test_site_cap_is_inclusive(self):
        zeros = np.zeros(MAX_SITES, dtype=np.int8)
        assert Tiling(LatticeSpec(1, MAX_SITES), zeros, zeros).spec.num_sites == MAX_SITES
        with pytest.raises(BudgetExceeded, match="tiling cap"):
            Tiling(LatticeSpec(1, MAX_SITES + 1), zeros, zeros)
        with pytest.raises(BudgetExceeded, match="tiling cap"):
            striped_witness(LatticeSpec(2, 363))

    def test_json_round_trip(self):
        spec = LatticeSpec(2, 3, OPEN)
        rng = np.random.default_rng(5)
        t = random_tiling(spec, rng)
        t2 = Tiling.from_json_dict(t.to_json_dict())
        assert t == t2

    def test_json_single_copy_defaults_second(self):
        spec = LatticeSpec(1, 3)
        obj = {
            "spec": spec.to_json_dict(),
            "copies": [[[0, 0], [1, 1], [2, 2]]],
        }
        t = Tiling.from_json_dict(obj)
        assert (t.colors2 == 0).all() and (t.numbers2 == 0).all()

    def test_permuted_moves_tiles(self):
        spec = LatticeSpec(1, 3)
        t = Tiling(spec, [0, 1, 2], [0, 1, 2])
        # cyclic shift: new site j carries old site j+1's tile
        p = [1, 2, 0]
        tp = t.permuted(p)
        assert list(tp.colors1) == [1, 2, 0]


class TestRules:
    def test_same_color_same_number_flagged(self):
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 0, 0], [1, 1, 2])
        v = rule_violations(t, 1)
        assert v == [(((0,), (1,)), RULE_SAME_COLOR_SAME_NUMBER)]

    def test_diff_color_diff_number_flagged(self):
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 1, 1], [0, 1, 2])
        v = rule_violations(t, 1)
        assert (((0,), (1,)), RULE_DIFF_COLOR_DIFF_NUMBER) in v
        # the (1,)-(2,) edge is same color, different number: legal
        assert len(v) == 1

    def test_legal_pairs_pass(self):
        spec = LatticeSpec(1, 3, OPEN)
        # same color different number, different color same number
        t = Tiling(spec, [0, 0, 2], [0, 1, 1])
        assert rule_violations(t, 1) == []

    def test_copies_independent(self):
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 0, 0], [0, 1, 2], [0, 0, 0], [0, 0, 0])
        assert rule_violations(t, 1) == []
        assert len(rule_violations(t, 2)) == 2


class TestWitness:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 6), (3, 3)])
    def test_periodic_witness_is_rule_clean(self, r, n):
        t = striped_witness(LatticeSpec(r, n))
        assert rule_violations(t, 1) == []
        assert rule_violations(t, 2) == []

    def test_open_witness_is_rule_clean(self):
        t = striped_witness(LatticeSpec(2, 3, OPEN))
        assert rule_violations(t, 1) == []
        assert rule_violations(t, 2) == []

    @pytest.mark.parametrize(
        "r,n,expected",
        [(2, 3, 36), (2, 6, 144), (3, 3, 216)],
    )
    def test_classical_energy_closed_form(self, r, n, expected):
        # all cost sits in the different-color loop edges: 4 n^r (r-1)
        t = striped_witness(LatticeSpec(r, n))
        e = classical_energy(t)
        assert e.tile1 == e.tile2 == 0
        assert e.copy_coupling == 0
        assert e.total == expected
        assert e.total == 4 * n**r * (r - 1)

    def test_witness_flags(self):
        t = striped_witness(LatticeSpec(2, 3))
        f1, f2 = classify(t, 1), classify(t, 2)
        for f in (f1, f2):
            assert f.looped and not f.has_turn
            assert f.uniformly_directed and f.numbered_consistently
        assert f1.direction == 0
        assert f2.direction == 1

    @pytest.mark.parametrize(
        "spec",
        [LatticeSpec(2, 3), LatticeSpec(2, 6), LatticeSpec(3, 3), LatticeSpec(3, 6, OPEN),
         LatticeSpec(4, 3)],
        ids=str,
    )
    def test_witness_matches_the_site_by_site_build(self, spec):
        t = striped_witness(spec)
        for copy, d in ((1, 0), (2, 1)):
            sites = spec.sites()
            colors = [sum(u[i] for i in range(spec.r) if i != d) % 3 for u in sites]
            assert t.colors(copy).tolist() == colors
            assert t.numbers(copy).tolist() == [u[d] % 3 for u in sites]
            if not spec.periodic:
                continue  # chains, not loops: no direction to number along
            f = classify(t, copy)
            assert f.direction == d and f.numbered_consistently
            # one number off its stripe breaks the numbering, not the loops
            numbers = t.numbers(copy).copy()
            numbers[-1] = (numbers[-1] + 1) % 3
            bent = Tiling(spec, t.colors(copy), numbers)
            g = classify(bent, 1)
            assert g.uniformly_directed and g.direction == d
            assert g.numbered_consistently == reference_numbered_consistently(bent, 1, d)
            assert not g.numbered_consistently

    def test_witness_loops_are_lines(self):
        spec = LatticeSpec(2, 6)
        t = striped_witness(spec)
        assert same_color_sizes(t, 1) == [6] * 6

    def test_same_direction_copies_pay_coupling(self):
        # both copies striped along dimension 0: every same-color edge doubles up
        spec = LatticeSpec(2, 3)
        w = striped_witness(spec)
        t = Tiling(spec, w.colors1, w.numbers1, w.colors1, w.numbers1)
        e = classical_energy(t)
        assert e.copy_coupling == 9
        assert e.total == 36 + 9

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            striped_witness(LatticeSpec(2, 4))
        with pytest.raises(ValueError, match="r >= 2"):
            striped_witness(LatticeSpec(1, 3))


class TestClassify:
    def test_staircase_loops_with_turns(self):
        # three interleaved 12-site staircase loops tile the 6x6 torus; each is
        # chordless, so every site keeps same-color degree 2, yet corners bend
        spec = LatticeSpec(2, 6)
        colors = np.zeros(36, dtype=np.int8)
        for u in spec.sites():
            colors[site_index(u, spec)] = ((u[0] - u[1]) % 6) // 2
        t = Tiling(spec, colors, np.zeros(36, dtype=np.int8))
        f = classify(t, 1)
        assert f.looped
        assert f.has_turn
        assert not f.uniformly_directed
        assert same_color_sizes(t, 1) == [12] * 3

    def test_constant_color_not_looped(self):
        spec = LatticeSpec(2, 3)
        t = Tiling(spec, np.zeros(9, dtype=np.int8), np.zeros(9, dtype=np.int8))
        f = classify(t, 1)
        assert not f.looped
        assert f.has_turn

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_flag_implications(self, seed):
        spec = LatticeSpec(2, 3)
        t = random_tiling(spec, np.random.default_rng(seed))
        f = classify(t, 1)
        if f.numbered_consistently:
            assert f.uniformly_directed
        if f.uniformly_directed:
            assert f.looped and not f.has_turn and f.direction is not None
        else:
            assert f.direction is None

    def test_flags_invariant_under_lattice_symmetry(self):
        spec = LatticeSpec(2, 3)
        rng = np.random.default_rng(11)
        perms = lattice_symmetry_permutations(spec)
        for _ in range(5):
            t = random_tiling(spec, rng)
            f = classify(t, 1)
            for g in perms[rng.integers(0, len(perms), 6)]:
                fg = classify(t.permuted(g), 1)
                assert fg.looped == f.looped
                assert fg.has_turn == f.has_turn
                assert fg.uniformly_directed == f.uniformly_directed


def reference_same_color_degrees(t, copy):
    """Same-color degrees counted literally, site by site over neighbors()."""
    spec = t.spec
    c = t.colors(copy)
    return [
        sum(1 for v in neighbors(u, spec) if c[site_index(v, spec)] == c[site_index(u, spec)])
        for u in spec.sites()
    ]


def reference_has_turn(t, copy):
    """has_turn by its definition, over neighbors() and site_index()."""
    spec = t.spec
    c = t.colors(copy)
    for v in spec.sites():
        same = [u for u in neighbors(v, spec) if c[site_index(u, spec)] == c[site_index(v, spec)]]
        for a, b in itertools.combinations(same, 2):
            if coord_diff_count(a, b) == 2:
                return True
    return False


def reference_rule_violations(t, copy):
    """rule_violations edge by edge, two site_index lookups per edge."""
    spec = t.spec
    c, m = t.colors(copy), t.numbers(copy)
    out = []
    for u, v in edges(spec):
        iu, iv = site_index(u, spec), site_index(v, spec)
        if c[iu] == c[iv]:
            if m[iu] == m[iv]:
                out.append(((u, v), RULE_SAME_COLOR_SAME_NUMBER))
        elif m[iu] != m[iv]:
            out.append(((u, v), RULE_DIFF_COLOR_DIFF_NUMBER))
    return out


def reference_numbered_consistently(t, copy, direction):
    """Whether the number depends only on the coordinate along direction,
    grouped site by site."""
    groups = {}
    for u, value in zip(t.spec.sites(), t.numbers(copy).tolist()):
        groups.setdefault(u[direction], set()).add(value)
    return all(len(values) == 1 for values in groups.values())


TABLE_SPECS = [
    LatticeSpec(r, n, boundary)
    for r, n in ((1, 3), (1, 7), (2, 3), (2, 4), (3, 3))
    for boundary in (PERIODIC, OPEN)
]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_neighbor_table_flags_match_the_literal_definitions(spec):
    rng = np.random.default_rng(31)
    same, want_deg, want_turn = [], [], []
    for k in range(40):
        t = random_tiling(spec, rng)
        if k % 2:
            # two colors make long same-color runs, so loops and straight
            # stretches come up as well as turns
            t = Tiling(spec, rng.integers(0, 2, spec.num_sites), t.numbers1)
        for copy in (1, 2):
            same.append(same_edges(t, copy))
            want_deg.append(reference_same_color_degrees(t, copy))
            want_turn.append(reference_has_turn(t, copy))
            deg, turn = same_color_geometry(spec, same[-1])
            assert (deg.shape, turn.shape) == ((spec.num_sites,), ())
            assert deg.tolist() == want_deg[-1]
            assert bool(turn) == want_turn[-1]
            got = rule_violations(t, copy)
            assert got == reference_rule_violations(t, copy)
            assert all(type(c) is int for (u, v), _ in got for c in u + v)
    assert any(want_turn) == (spec.r > 1)
    # the stacked (M, E) form the coloring table passes, and one more axis
    deg, turn = same_color_geometry(spec, np.array(same))
    assert deg.tolist() == want_deg and turn.tolist() == want_turn
    deg, turn = same_color_geometry(spec, np.array(same).reshape(8, 10, -1))
    assert deg.reshape(80, -1).tolist() == want_deg and turn.ravel().tolist() == want_turn


def reference_direction(t, copy):
    """The common axis of a looped, turn-free copy's same-color loops, by
    grouping the same-colored edges into loops with the dict union-find;
    None unless every loop has n sites and all loops share one axis."""
    spec = t.spec
    if set(reference_same_color_degrees(t, copy)) != {2} or reference_has_turn(t, copy):
        return None
    same = same_edges(t, copy)
    pairs = edge_index_array(spec)[same].tolist()
    axes = edge_axes(spec)[same].tolist()
    loops = [({axes[i] for i in group}, k) for group, k, _ in _local_groups(pairs)]
    dims = set().union(*(loop_axes for loop_axes, _ in loops))
    if len(dims) == 1 and all(k == spec.n for _, k in loops):
        return dims.pop()
    return None


def line_stripes(spec, rng):
    """Colors constant along the lines of one random axis.  Half the draws
    color every line at random; the other half color the lines by their
    off-axis coordinate sum mod 3 (mod 2 unless 3 divides n), which keeps
    neighboring lines apart, and recolor about one line in six at random."""
    axis = rng.integers(spec.r)
    off = np.delete(coordinates(spec), axis, axis=1)
    line = off @ spec.n ** np.arange(spec.r - 1)
    colors = rng.permutation(3)[off.sum(axis=1) % (3 if spec.n % 3 == 0 else 2)]
    recolor = rng.random(spec.n ** (spec.r - 1)) < rng.choice((1 / 6, 1))
    return np.where(recolor[line], rng.integers(0, 3, len(recolor))[line], colors)


DIRECTION_SPECS = [
    LatticeSpec(r, n, boundary)
    for r, n in ((1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 3), (3, 4))
    for boundary in (PERIODIC, OPEN)
]


@pytest.mark.parametrize("spec", DIRECTION_SPECS, ids=str)
def test_uniform_direction_matches_the_loop_grouping(spec):
    rng = np.random.default_rng(spec.num_sites + spec.periodic)
    tilings = [striped_witness(spec)] if spec.r >= 2 and spec.n % 3 == 0 else []
    N = spec.num_sites
    for _ in range(130):
        numbers = rng.integers(0, 3, N)
        tilings.append(Tiling(spec, rng.integers(0, 2, N), numbers))
        tilings.append(Tiling(spec, line_stripes(spec, rng), numbers))
    directed = 0
    for t in tilings:
        # copy 2 of the drawn tilings is all one color; the witness has two
        for copy in (1, 2) if t.colors2.any() else (1,):
            f, want = classify(t, copy), reference_direction(t, copy)
            assert f.uniformly_directed == (want is not None)
            assert f.direction == want
            directed += f.uniformly_directed
    # stripes close into loops only around a periodic lattice
    assert (directed > 0) == spec.periodic


def reference_demand_graph(t, copy):
    """The demands built literally, as (tail, head) slot-number pairs: two
    site_index lookups per edge."""
    spec = t.spec
    m = t.numbers(copy)
    out = []
    for u, v in edges(spec):
        iu, iv = site_index(u, spec), site_index(v, spec)
        step = (int(m[iv]) - int(m[iu])) % 3
        if step:
            tail, head = (iu, iv) if step == 1 else (iv, iu)
            out.append((2 * tail + 1, 2 * head))
    return out


def demand_sites(g):
    """The (tail site, head site) of each slot-number demand."""
    return {(a // 2, b // 2) for a, b in g}


DEMAND_SPECS = [
    LatticeSpec(2, 3),
    LatticeSpec(2, 3, OPEN),
    LatticeSpec(1, 5),
    LatticeSpec(1, 7),
    LatticeSpec(1, 6, OPEN),
]


class TestDemandGraph:
    @pytest.mark.parametrize("spec", DEMAND_SPECS, ids=str)
    def test_matches_literal_construction(self, spec):
        rng = np.random.default_rng(spec.num_sites)
        for _ in range(40):
            t = random_tiling(spec, rng)
            for copy in (1, 2):
                got = epr_demand_graph(t, copy)
                assert got == reference_demand_graph(t, copy)
                assert all(type(a) is int and type(b) is int for a, b in got)
            deg = reference_same_color_degrees(t, 1)
            want_bound = 2 * len(edges(spec)) - sum(deg) + 4 * sum(n // 3 for n in deg)
            assert h1lb(t, 1) == want_bound

    def test_ring_cycle_demands(self):
        # numbers 0,1,2 around a 3-ring: three demands, every slot used once
        spec = LatticeSpec(1, 3)
        t = Tiling(spec, [0, 0, 0], [0, 1, 2])
        g = epr_demand_graph(t, 1)
        assert g == [(1, 2), (5, 0), (3, 4)]
        assert sorted(s for pair in g for s in pair) == list(range(6))
        assert rule_violations(t, 1) == []
        assert demand_sites(g) == {(0, 1), (1, 2), (2, 0)}

    def test_path_shared_head_slot(self):
        # numbers 0,1,0 on an open path: both edges point into the middle
        # site's port-1 slot, number 2
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 0, 0], [0, 1, 0])
        g = epr_demand_graph(t, 1)
        assert [head for _, head in g] == [2, 2]

    def test_same_number_same_color_is_conflict(self):
        # no demand, and a rule-1 violation
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [2, 2, 0], [1, 1, 1])
        assert epr_demand_graph(t, 1) == []
        assert rule_violations(t, 1) == [(((0,), (1,)), RULE_SAME_COLOR_SAME_NUMBER)]

    def test_same_number_diff_color_is_silent(self):
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 1, 2], [1, 1, 1])
        assert epr_demand_graph(t, 1) == []
        assert rule_violations(t, 1) == []

    def test_demands_follow_numbers_not_colors(self):
        # stepping numbers demand pairing even across different colors; each
        # demand joins a port-2 slot (odd) to a port-1 slot (even)
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 1, 2], [0, 1, 2])
        g = epr_demand_graph(t, 1)
        assert len(g) == 2
        assert all(a % 2 == 1 and b % 2 == 0 for a, b in g)

    def test_demand_direction_follows_step(self):
        # numbers 2 -> 0 step forward; 0 -> 2 is the reverse orientation
        spec = LatticeSpec(1, 3, OPEN)
        t = Tiling(spec, [0, 0, 0], [2, 0, 2])
        assert demand_sites(epr_demand_graph(t, 1)) == {(0, 1), (2, 1)}

    def test_copy_two_reads_its_own_numbers(self):
        spec = LatticeSpec(1, 3)
        t = Tiling(spec, [0, 0, 0], [0, 1, 2], [0, 0, 0], [0, 2, 1])
        # copy 2 numbers run backwards, so demands flip
        assert demand_sites(epr_demand_graph(t, 2)) == {(1, 0), (2, 1), (0, 2)}


class TestEnergyBounds:
    def test_h1lb_witness(self):
        t = striped_witness(LatticeSpec(2, 3))
        assert h1lb(t, 1) == 18
        assert h1lb(t, 2) == 18

    def test_h1lb_constant_color(self):
        spec = LatticeSpec(2, 3)
        t = Tiling(spec, np.zeros(9, dtype=np.int8), np.zeros(9, dtype=np.int8))
        # degree 4 everywhere: 36 - 36 + 4*9
        assert h1lb(t, 1) == 36

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_h1lb_closed_form_periodic(self, seed):
        spec = LatticeSpec(2, 3)
        t = random_tiling(spec, np.random.default_rng(seed))
        deg = np.array(reference_same_color_degrees(t, 1))
        closed = 2 * spec.n**spec.r * spec.r - int(deg.sum()) + 4 * int((deg // 3).sum())
        assert h1lb(t, 1) == closed

    def test_classical_energy_breakdown(self):
        spec = LatticeSpec(1, 3)
        # copy 1: one rule-1 violation, one loop edge; copy 2: clean stripes
        t = Tiling(spec, [0, 0, 1], [0, 0, 0], [0, 1, 2], [0, 0, 0])
        e = classical_energy(t)
        assert e.tile1 == 8  # edge (0,1): same color same number
        assert e.loop1 == 4  # edges (1,2) and (0,2) cross colors
        assert e.tile2 == 0
        assert e.loop2 == 6
        assert e.copy_coupling == 0
        assert e.total == 18

    def test_copy_coupling_counts_doubly_monochrome_edges(self):
        spec = LatticeSpec(1, 3)
        t = Tiling(spec, [0, 0, 0], [0, 1, 2], [1, 1, 2], [0, 1, 0])
        e = classical_energy(t)
        # copy1 all same color (3 edges), copy2 same only on (0,1)
        assert e.copy_coupling == 1
