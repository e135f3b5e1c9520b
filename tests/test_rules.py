import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rih import rules
from rih.rules import (
    BLANK,
    BOTTOM_BC,
    FRAME_ADMITS_ALL_BLANK,
    LEFT_BC,
    RIGHT_BC,
    DecodeError,
    GridTiling,
    RuleSetError,
    TileRuleSet,
    check_tiling,
    decode_lifted,
    enumerate_valid,
    frame_configuration,
    lift_3x3,
    load_grid,
    load_ruleset,
    open_bc_frame_ruleset,
    split_subtile,
    subtile,
)

MONO = TileRuleSet(("m",), frozenset(), frozenset())
# oriented on purpose: b left of a stays legal
AB = TileRuleSet(("a", "b"), frozenset({("a", "b")}), frozenset())
FREE2 = TileRuleSet(("a", "b"), frozenset(), frozenset())
# two halves {a1, a2} and {b1, b2}: a tile may sit only beside the other half
HALVES = ("a1", "a2", "b1", "b2")
SAME_HALF = frozenset((x, y) for x in HALVES for y in HALVES if x[0] == y[0])
BIPARTITE = TileRuleSet(HALVES, SAME_HALF, SAME_HALF)


# each block position as (dx, dy) from its center, +y up
BLOCK_OFFSETS = {
    "c": (0, 0), "l": (-1, 0), "r": (1, 0), "t": (0, 1), "b": (0, -1),
    "tl": (-1, 1), "tr": (1, 1), "bl": (-1, -1), "br": (1, -1),
}


def filled(n, tile):
    """The n x n grid with tile in every cell."""
    return GridTiling(n, tuple((tile,) * n for _ in range(n)))


def encode_lifted(g, offset=(1, 1)):
    """The lifted grid of g with its block centers at offset: the reference
    inverse of decode_lifted."""
    ox, oy = offset
    n3 = 3 * g.n
    rows = [[None] * n3 for _ in range(n3)]
    for j in range(g.n):
        for i in range(g.n):
            cx, cy = ox + 3 * i, oy + 3 * j
            for p, (dx, dy) in BLOCK_OFFSETS.items():
                rows[(cy + dy) % n3][(cx + dx) % n3] = subtile(g.rows[j][i], p)
    return GridTiling(n3, tuple(map(tuple, rows)))


def brute_force_valid(rs, n):
    """Reference enumeration: filter every assignment through the checker."""
    out = []
    for cells in itertools.product(rs.alphabet, repeat=n * n):
        rows = tuple(cells[y * n:(y + 1) * n] for y in range(n))
        g = GridTiling(n, rows)
        if not check_tiling(rs, g):
            out.append(rows)
    return out


class TestRuleSetBasics:
    def test_duplicate_names_rejected(self):
        with pytest.raises(RuleSetError):
            TileRuleSet(("a", "a"), frozenset(), frozenset())

    def test_empty_alphabet_rejected(self):
        with pytest.raises(RuleSetError):
            TileRuleSet((), frozenset(), frozenset())

    def test_unknown_boundary_rejected(self):
        with pytest.raises(RuleSetError):
            TileRuleSet(("a",), frozenset(), frozenset(), boundary="torus")

    def test_pair_outside_alphabet_rejected(self):
        with pytest.raises(RuleSetError):
            TileRuleSet(("a",), frozenset({("a", "b")}), frozenset())

    def test_json_round_trip(self):
        rs = TileRuleSet(
            ("a", "b", "c"),
            frozenset({("a", "b"), ("c", "a")}),
            frozenset({("b", "b")}),
            boundary="open",
        )
        again = TileRuleSet.from_json_dict(rs.to_json_dict())
        assert again == rs
        # serialized pair lists are sorted for stable files
        d = rs.to_json_dict()
        assert d["forbidden_h"] == sorted(d["forbidden_h"])

    def test_file_loaders(self, tmp_path):
        rs = AB
        g = filled(2, "a")
        p1 = tmp_path / "rules.json"
        p2 = tmp_path / "grid.json"
        p1.write_text(json.dumps(rs.to_json_dict()))
        p2.write_text(json.dumps(g.to_json_dict()))
        assert load_ruleset(p1) == rs
        assert load_grid(p2) == g

    def test_grid_shape_enforced(self):
        with pytest.raises(RuleSetError):
            GridTiling(2, (("a", "a"),))
        with pytest.raises(RuleSetError):
            GridTiling(2, (("a",), ("a", "a")))
        with pytest.raises(RuleSetError, match="grid side must be positive"):
            GridTiling(0, ())


class TestCheckTiling:
    def test_no_rules_never_violates(self):
        for rows in itertools.product(itertools.product("ab", repeat=2), repeat=2):
            assert check_tiling(FREE2, GridTiling(2, rows)) == []

    @pytest.mark.parametrize(
        "boundary,expected", [("periodic", 9), ("open", 6)]
    )
    def test_self_pair_counts(self, boundary, expected):
        rs = TileRuleSet(("a",), frozenset({("a", "a")}), frozenset(), boundary)
        v = check_tiling(rs, filled(3, "a"))
        assert len(v) == expected
        assert all(kind == "h" for kind, _, _ in v)

    def test_violation_order_and_shape(self):
        rs = TileRuleSet(
            ("a", "b"),
            frozenset({("a", "b")}),
            frozenset({("a", "a")}),
            boundary="open",
        )
        g = GridTiling(2, (("a", "b"), ("a", "b")))
        assert check_tiling(rs, g) == [
            ("h", (0, 0), ("a", "b")),
            ("v", (0, 0), ("a", "a")),
            ("h", (0, 1), ("a", "b")),
        ]

    def test_unknown_tile_rejected(self):
        with pytest.raises(RuleSetError):
            check_tiling(MONO, filled(2, "x"))


class TestEnumerateValid:
    def test_single_tile_single_grid(self):
        res = enumerate_valid(MONO, 2)
        assert len(res) == 1 and not res.truncated
        assert res.tilings[0] == filled(2, "m")

    def test_oriented_pair_periodic(self):
        # any mixed row hits the forbidden order once it wraps
        res = enumerate_valid(AB, 2)
        rows = [g.rows for g in res]
        assert rows == [
            (("a", "a"), ("a", "a")),
            (("a", "a"), ("b", "b")),
            (("b", "b"), ("a", "a")),
            (("b", "b"), ("b", "b")),
        ]

    def test_limit_truncates(self):
        res = enumerate_valid(AB, 2, limit=2)
        assert len(res) == 2 and res.truncated
        full = enumerate_valid(AB, 2, limit=4)
        assert len(full) == 4 and not full.truncated
        assert len(enumerate_valid(AB, 2, limit=0)) == 0
        with pytest.raises(RuleSetError, match="nonnegative"):
            enumerate_valid(AB, 2, limit=-1)

    def test_require_present_filters(self):
        res = enumerate_valid(AB, 2, require_present={"a"})
        assert len(res) == 3
        assert all(any("a" in r for r in g.rows) for g in res)
        with pytest.raises(RuleSetError):
            enumerate_valid(AB, 2, require_present={"zz"})

    def test_unsatisfiable_is_empty(self):
        rs = TileRuleSet(("a",), frozenset({("a", "a")}), frozenset())
        assert len(enumerate_valid(rs, 2)) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        fh=st.frozensets(
            st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=3
        ),
        fv=st.frozensets(
            st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=3
        ),
        boundary=st.sampled_from(["periodic", "open"]),
        n=st.sampled_from([2, 3]),
    )
    def test_matches_brute_force(self, fh, fv, boundary, n):
        rs = TileRuleSet(("a", "b"), fh, fv, boundary)
        expected = brute_force_valid(rs, n)
        got = [g.rows for g in enumerate_valid(rs, n)]
        assert got == expected
        for g in enumerate_valid(rs, n):
            assert check_tiling(rs, g) == []


    @settings(max_examples=60, deadline=None)
    @given(
        allowed=st.lists(st.booleans(), min_size=9, max_size=9),
        wrap=st.booleans(),
        n=st.integers(1, 6),
    )
    def test_row_count_is_the_number_of_rows_built(self, allowed, wrap, n):
        allowed_h = np.array(allowed).reshape(3, 3)
        rows = rules._rows(n, allowed_h, wrap)
        assert rules._row_count(n, allowed_h, wrap) == len(rows)
        # the walks are the allowed tile sequences, in lexicographic order
        expected = [
            r for r in itertools.product(range(3), repeat=n)
            if all(allowed_h[a, b] for a, b in zip(r, (r[1:] + r[:1]) if wrap else r[1:]))
        ]
        assert rows == expected

    @pytest.mark.parametrize("n", [21, 361])
    def test_odd_bipartite_rows_end_fast(self, n):
        # every row alternates halves, so an odd side closes none, though
        # the open walks number 4 * 2^(n-1)
        start = time.perf_counter()
        result = enumerate_valid(BIPARTITE, n)
        assert time.perf_counter() - start < 2
        assert len(result) == 0 and result.valid_rows == 0

    @pytest.mark.parametrize(
        "rs,n",
        [(BIPARTITE, 21), (BIPARTITE, 6), (FREE2, 4), (AB, 5),
         (TileRuleSet(AB.alphabet, AB.forbidden_h, AB.forbidden_v, "open"), 5)],
    )
    def test_row_walk_extends_only_finishable_prefixes(self, monkeypatch, rs, n):
        extended = []
        walks = rules._walks

        def counted(n, first, successors):
            return walks(n, first, lambda walk: extended.append(walk) or successors(walk))

        monkeypatch.setattr(rules, "_walks", counted)
        allowed_h, _ = rules._index_rules(rs)
        rows = rules._rows(n, allowed_h, rs.boundary == "periodic")
        # each prefix extended lies on the way to a row, n - 1 of them per row
        assert len(extended) <= (n - 1) * len(rows)

    @pytest.mark.parametrize("cap,fails", [(16, False), (15, True)])
    def test_row_cap_is_exact(self, monkeypatch, cap, fails):
        # FREE2 has 2^4 = 16 rows of side 4
        monkeypatch.setattr(rules, "ROW_CAP", cap)
        if fails:
            with pytest.raises(RuleSetError, match="enumeration cap"):
                enumerate_valid(FREE2, 4)
        else:
            assert enumerate_valid(FREE2, 4).valid_rows == 16

    @pytest.mark.parametrize("cap,fails", [(16, False), (15, True)])
    def test_grid_walk_cap_is_exact(self, monkeypatch, cap, fails):
        # FREE2 has 2^4 = 16 grids of side 2
        monkeypatch.setattr(rules, "GRID_WALK_CAP", cap)
        if fails:
            with pytest.raises(RuleSetError, match="walked past the cap of 15 grids"):
                enumerate_valid(FREE2, 2)
        else:
            assert len(enumerate_valid(FREE2, 2)) == 16

    def test_grid_cell_cap_is_inclusive(self):
        side = math.isqrt(rules.GRID_CELL_CAP)
        assert enumerate_valid(MONO, side, limit=0).truncated
        with pytest.raises(RuleSetError, match=f"{side + 1}x{side + 1} grid exceeds"):
            enumerate_valid(MONO, side + 1, limit=0)

    def test_many_rows_need_no_pairwise_table(self):
        # 2^12 rows; successors are computed only for the rows a walk
        # reaches, never as a table over all pairs of rows (200 MiB here)
        rs = TileRuleSet(("a", "b"), frozenset(), frozenset({("a", "a")}))
        tracemalloc.start()
        try:
            res = enumerate_valid(rs, 12, limit=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res) == 10 and res.truncated and res.valid_rows == 4096
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("require", [None, {"b", "c"}])
    def test_limit_keeps_the_first_tilings(self, boundary, require):
        rng = random.Random(4)
        pairs = sorted(itertools.product("abc", repeat=2))
        rs = TileRuleSet(
            ("a", "b", "c"), frozenset(rng.sample(pairs, 3)), frozenset(rng.sample(pairs, 3)), boundary
        )
        full = enumerate_valid(rs, 3, require_present=require).tilings
        assert len(full) >= 6
        for k in (0, 1, 5, len(full) - 1, len(full)):
            res = enumerate_valid(rs, 3, limit=k, require_present=require)
            assert res.tilings == full[:k]
            assert res.truncated == (k < len(full))

    def test_oversized_row_space_fails_before_allocating(self):
        # 64^12 rows, far past ROW_CAP: counted, never generated
        rs = TileRuleSet(tuple(f"t{i}" for i in range(64)), frozenset(), frozenset())
        tracemalloc.start()
        try:
            with pytest.raises(RuleSetError, match="enumeration cap"):
                enumerate_valid(rs, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def all_offsets():
    return [(ox, oy) for ox in range(3) for oy in range(3)]


def reference_lift(rs):
    """The block lift written out bond by bond with one closure per side:
    the reference lift_3x3's single bond rule is checked against."""
    lifted = tuple(subtile(t, p) for t in rs.alphabet for p in rules.BLOCK_POSITIONS)
    universe = set(lifted)
    fh = set()
    fv = set()

    def only_right_of(left, allowed):
        fh.update((left, z) for z in universe - set(allowed))

    def only_left_of(right, allowed):
        fh.update((z, right) for z in universe - set(allowed))

    def only_above_of(below, allowed):
        fv.update((below, z) for z in universe - set(allowed))

    def only_below_of(above, allowed):
        fv.update((z, above) for z in universe - set(allowed))

    for m in rs.alphabet:
        c, l, r = subtile(m, "c"), subtile(m, "l"), subtile(m, "r")
        t, b = subtile(m, "t"), subtile(m, "b")
        tl, tr, bl, br = (subtile(m, p) for p in ("tl", "tr", "bl", "br"))
        only_above_of(c, {t})
        only_below_of(t, {c})
        only_below_of(c, {b})
        only_above_of(b, {c})
        only_left_of(c, {l})
        only_right_of(l, {c})
        only_right_of(c, {r})
        only_left_of(r, {c})
        only_left_of(t, {tl})
        only_right_of(tl, {t})
        only_right_of(t, {tr})
        only_left_of(tr, {t})
        only_left_of(b, {bl})
        only_right_of(bl, {b})
        only_right_of(b, {br})
        only_left_of(br, {b})

    left_types = {subtile(m, "l") for m in rs.alphabet}
    right_types = {subtile(m, "r") for m in rs.alphabet}
    top_types = {subtile(m, "t") for m in rs.alphabet}
    bottom_types = {subtile(m, "b") for m in rs.alphabet}
    for name in left_types:
        only_left_of(name, right_types)
    for name in right_types:
        only_right_of(name, left_types)
    for name in top_types:
        only_above_of(name, bottom_types)
    for name in bottom_types:
        only_below_of(name, top_types)

    for a, b2 in rs.forbidden_h:
        fh.add((subtile(a, "r"), subtile(b2, "l")))
    for a, b2 in rs.forbidden_v:
        fv.add((subtile(a, "t"), subtile(b2, "b")))

    return TileRuleSet(lifted, frozenset(fh), frozenset(fv), rs.boundary)


def random_ruleset(rng):
    names = tuple("abcd"[: rng.randint(1, 4)])
    pairs = list(itertools.product(names, repeat=2))
    return TileRuleSet(
        names,
        frozenset(p for p in pairs if rng.random() < 0.3),
        frozenset(p for p in pairs if rng.random() < 0.3),
        rng.choice(("periodic", "open")),
    )


class TestLift:
    def test_matches_the_bond_by_bond_reference(self):
        rng = random.Random(23)
        cases = [open_bc_frame_ruleset(), MONO, AB] + [random_ruleset(rng) for _ in range(300)]
        for rs in cases:
            assert lift_3x3(rs) == reference_lift(rs)

    def test_single_tile_lift_count(self):
        lifted = lift_3x3(MONO)
        res = enumerate_valid(lifted, 3)
        assert len(res) == 9 and not res.truncated
        base = GridTiling(1, (("m",),))
        expected = {encode_lifted(base, off).rows for off in all_offsets()}
        assert {g.rows for g in res} == expected

    @pytest.mark.parametrize("rs,n", [(MONO, 1), (AB, 1), (AB, 2), (FREE2, 1)])
    def test_offset_decode_bijection(self, rs, n):
        originals = {g.rows for g in enumerate_valid(rs, n)}
        lifted_rs = lift_3x3(rs)
        lifted = enumerate_valid(lifted_rs, 3 * n)
        assert len(lifted) == 9 * len(originals)
        seen = set()
        for g in lifted:
            orig, off = decode_lifted(g, rs.alphabet)
            assert orig.rows in originals
            assert (orig.rows, off) not in seen
            seen.add((orig.rows, off))
        assert seen == {(r, off) for r in originals for off in all_offsets()}

    def test_encode_decode_round_trip(self):
        g = GridTiling(2, (("a", "b"), ("b", "b")))
        for off in all_offsets():
            back, got_off = decode_lifted(encode_lifted(g, off), ("a", "b"))
            assert back == g and got_off == off

    def test_lift_preserves_emptiness(self):
        rs = TileRuleSet(("a",), frozenset({("a", "a")}), frozenset())
        assert len(enumerate_valid(rs, 1)) == 0
        assert len(enumerate_valid(lift_3x3(rs), 3)) == 0

    def test_decode_rejects_broken_blocks(self):
        with pytest.raises(DecodeError):
            decode_lifted(filled(3, subtile("m", "c")), ("m",))
        good = encode_lifted(GridTiling(1, (("m",),)), (1, 1))
        rows = [list(r) for r in good.rows]
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        with pytest.raises(DecodeError):
            decode_lifted(GridTiling(3, tuple(map(tuple, rows))), ("m",))
        with pytest.raises(DecodeError):
            decode_lifted(filled(2, subtile("m", "c")), ("m",))

    @pytest.mark.parametrize(
        "rs",
        [
            AB,
            TileRuleSet(
                ("x", "y", "z"),
                frozenset({("x", "y"), ("z", "z")}),
                frozenset({("y", "x"), ("x", "z")}),
                boundary="open",
            ),
        ],
    )
    def test_reflect_lift_commutes(self, rs):
        # mirror left to right: horizontal pairs swap order, vertical pairs
        # keep theirs; block subtiles also trade their sided positions
        mirror = {"l": "r", "r": "l", "tl": "tr", "tr": "tl", "bl": "br", "br": "bl"}

        def reflect_subtile_name(name):
            tile, p = split_subtile(name)
            return subtile(tile, mirror.get(p, p))

        def reflect_h(rs, rename=lambda t: t):
            return TileRuleSet(
                tuple(rename(t) for t in rs.alphabet),
                frozenset((rename(b), rename(a)) for a, b in rs.forbidden_h),
                frozenset((rename(a), rename(b)) for a, b in rs.forbidden_v),
                rs.boundary,
            )

        a = lift_3x3(reflect_h(rs))
        b = reflect_h(lift_3x3(rs), rename=reflect_subtile_name)
        assert set(a.alphabet) == set(b.alphabet)
        assert a.forbidden_h == b.forbidden_h
        assert a.forbidden_v == b.forbidden_v
        assert a.boundary == b.boundary


def bar_rows(n, left, right):
    first = (left,) + (BOTTOM_BC,) * (n - 2) + (right,)
    return (first,) + tuple((BLANK,) * n for _ in range(n - 1))


def expected_frame_survivors(n):
    """Everything the stated prohibitions admit: the frame, the all-blank
    grid, and bars that simply stop at an open edge instead of carrying an
    end marker (no neighbor exists there to trigger the flanking rules)."""
    return [
        bar_rows(n, LEFT_BC, BOTTOM_BC),
        bar_rows(n, LEFT_BC, RIGHT_BC),
        bar_rows(n, BOTTOM_BC, BOTTOM_BC),
        bar_rows(n, BOTTOM_BC, RIGHT_BC),
        tuple(((BLANK,) * n) for _ in range(n)),
    ]


class TestFrameRules:
    def test_frame_is_valid(self):
        rs = open_bc_frame_ruleset()
        for n in (3, 4, 5):
            assert check_tiling(rs, frame_configuration(n)) == []

    def test_left_end_pinned_to_corner(self):
        rs = open_bc_frame_ruleset()
        shifted = GridTiling(
            3,
            (
                (BLANK, LEFT_BC, BOTTOM_BC),
                (BLANK,) * 3,
                (BLANK,) * 3,
            ),
        )
        assert any(pair[1] == LEFT_BC for _, _, pair in check_tiling(rs, shifted))
        raised = GridTiling(
            3,
            (
                (BLANK,) * 3,
                (LEFT_BC, BOTTOM_BC, BOTTOM_BC),
                (BLANK,) * 3,
            ),
        )
        assert check_tiling(rs, raised) != []

    @pytest.mark.slow
    def test_exhaustive_n3_matches_brute_force(self):
        rs = open_bc_frame_ruleset()
        brute = brute_force_valid(rs, 3)
        assert brute == [g.rows for g in enumerate_valid(rs, 3)]
        assert set(brute) == set(expected_frame_survivors(3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_survivor_set_frozen(self, n):
        rs = open_bc_frame_ruleset()
        res = enumerate_valid(rs, n)
        assert not res.truncated
        assert {g.rows for g in res} == set(expected_frame_survivors(n))
        assert frame_configuration(n).rows in {g.rows for g in res}
        # the figure's single-configuration claim does not survive literal
        # rule reading: the blank grid and edge-stopped bars pass too
        assert FRAME_ADMITS_ALL_BLANK
        assert len(res) == 5

    def test_require_present_narrows_to_frame(self):
        rs = open_bc_frame_ruleset()
        res = enumerate_valid(rs, 4, require_present={LEFT_BC, RIGHT_BC})
        assert [g.rows for g in res] == [frame_configuration(4).rows]
