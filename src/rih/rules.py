"""Translation-invariant 2D tile rule sets with exhaustive enumeration.

Rule sets are oriented: a horizontal prohibition (left, right) says nothing
about (right, left), and no reflection closure is ever applied.  Grids store
the bottom row first, so "above" always means the next row index up.

The subtile lift replaces every tile with a named 3x3 block whose placement
rules force blocks to assemble rigidly and align across block borders; the
original adjacency prohibitions transfer to the facing border subtiles.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

RULESET_SCHEMA = "tile-rules/1"
GRID_SCHEMA = "grid-tiling/1"
ALPHABET_CAP = 64
ROW_CAP = 2_000_000
GRID_WALK_CAP = 2**17  # most grids one enumeration walks, as GRID_CELL_CAP
GRID_CELL_CAP = 2**17  # most cells of one enumerated grid, as tiling.MAX_SITES

BLOCK_POSITIONS = ("c", "l", "r", "t", "b", "tl", "tr", "bl", "br")


class RuleSetError(ValueError):
    pass


def _is_list_of(value, kind):
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _check_side(n):
    """Refuse a grid side below 1, for a stored grid as for an enumeration."""
    if n < 1:
        raise RuleSetError("grid side must be positive")


class DecodeError(ValueError):
    pass


@dataclass(frozen=True)
class TileRuleSet:
    alphabet: tuple
    forbidden_h: frozenset  # ordered (left, right)
    forbidden_v: frozenset  # ordered (below, above)
    boundary: str = "periodic"

    def __post_init__(self):
        names = tuple(self.alphabet)
        if len(set(names)) != len(names):
            raise RuleSetError("alphabet has repeated names")
        if not names:
            raise RuleSetError("alphabet is empty")
        if self.boundary not in ("periodic", "open"):
            raise RuleSetError(f"unknown boundary {self.boundary!r}")
        members = set(names)
        for kind, pairs in (("forbidden_h", self.forbidden_h), ("forbidden_v", self.forbidden_v)):
            for p in pairs:
                if len(p) != 2 or p[0] not in members or p[1] not in members:
                    raise RuleSetError(f"{kind} pair {p!r} outside the alphabet")
        object.__setattr__(self, "alphabet", names)
        object.__setattr__(self, "forbidden_h", frozenset(map(tuple, self.forbidden_h)))
        object.__setattr__(self, "forbidden_v", frozenset(map(tuple, self.forbidden_v)))

    def to_json_dict(self):
        return {
            "schema": RULESET_SCHEMA,
            "alphabet": list(self.alphabet),
            "forbidden_h": sorted(map(list, self.forbidden_h)),
            "forbidden_v": sorted(map(list, self.forbidden_v)),
            "boundary": self.boundary,
        }

    @classmethod
    def from_json_dict(cls, obj):
        """The rule set of a to_json_dict object; RuleSetError naming the
        field for a missing or ill-typed one."""
        if not isinstance(obj, dict):
            raise RuleSetError("rule set JSON must be an object")
        try:
            alphabet = obj["alphabet"]
        except KeyError as exc:
            raise RuleSetError(f"rule set JSON lacks the field {exc}") from None
        if not _is_list_of(alphabet, str):
            raise RuleSetError("rule set field 'alphabet' must be a list of tile names")
        forbidden = {}
        for kind in ("forbidden_h", "forbidden_v"):
            pairs = obj.get(kind, [])
            if not _is_list_of(pairs, list) or any(
                len(p) != 2 or not _is_list_of(p, str) for p in pairs
            ):
                raise RuleSetError(f"rule set field {kind!r} must be a list of [tile, tile] pairs")
            forbidden[kind] = frozenset(map(tuple, pairs))
        return cls(alphabet=tuple(alphabet), boundary=obj.get("boundary", "periodic"), **forbidden)


@dataclass(frozen=True)
class GridTiling:
    n: int
    rows: tuple  # rows[0] is the bottom row; rows[y][x] is a tile name

    def __post_init__(self):
        _check_side(self.n)
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise RuleSetError(f"grid is not {self.n}x{self.n}")
        object.__setattr__(self, "rows", rows)

    def to_json_dict(self):
        return {"schema": GRID_SCHEMA, "n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, obj):
        """The grid of a to_json_dict object; RuleSetError naming the field
        for a missing or ill-typed one."""
        if not isinstance(obj, dict):
            raise RuleSetError("grid JSON must be an object")
        try:
            n, rows = obj["n"], obj["rows"]
        except KeyError as exc:
            raise RuleSetError(f"grid JSON lacks the field {exc}") from None
        if type(n) is not int:
            raise RuleSetError("grid field 'n' must be an integer")
        if not (isinstance(rows, list) and all(_is_list_of(r, str) for r in rows)):
            raise RuleSetError("grid field 'rows' must be a list of rows of tile names")
        return cls(n=n, rows=tuple(map(tuple, rows)))


def check_tiling(rs, g):
    """All adjacency violations of g, in row-major order from the bottom.

    Each violation is (kind, (x, y), (first, second)) where (x, y) is the
    left cell for kind "h" and the lower cell for kind "v".
    """
    members = set(rs.alphabet)
    for row in g.rows:
        for t in row:
            if t not in members:
                raise RuleSetError(f"tile {t!r} outside the alphabet")
    n = g.n
    wrap = rs.boundary == "periodic"
    out = []
    for y in range(n):
        for x in range(n):
            a = g.rows[y][x]
            if x + 1 < n or wrap:
                b = g.rows[y][(x + 1) % n]
                if (a, b) in rs.forbidden_h:
                    out.append(("h", (x, y), (a, b)))
            if y + 1 < n or wrap:
                b = g.rows[(y + 1) % n][x]
                if (a, b) in rs.forbidden_v:
                    out.append(("v", (x, y), (a, b)))
    return out


@dataclass(frozen=True)
class EnumerationResult:
    tilings: tuple
    truncated: bool
    valid_rows: int

    def __iter__(self):
        return iter(self.tilings)

    def __len__(self):
        return len(self.tilings)


def _index_rules(rs):
    k = len(rs.alphabet)
    if k > ALPHABET_CAP:
        raise RuleSetError(f"alphabet of {k} exceeds the enumeration cap {ALPHABET_CAP}")
    pos = {t: i for i, t in enumerate(rs.alphabet)}
    allowed_h = np.ones((k, k), dtype=bool)
    allowed_v = np.ones((k, k), dtype=bool)
    for a, b in rs.forbidden_h:
        allowed_h[pos[a], pos[b]] = False
    for a, b in rs.forbidden_v:
        allowed_v[pos[a], pos[b]] = False
    return allowed_h, allowed_v


def _row_count(n, allowed_h, wrap):
    """How many rows enumerate_valid builds, counted without building one:
    the sum of A^(n-1) over the allowed-successor matrix A, or with wrap the
    trace of A^n.  Each product saturates at ROW_CAP + 1, so the int64
    entries stay far below overflow and the count is exact up to the cap
    (a saturated entry times a nonzero one saturates either way)."""
    cap = ROW_CAP + 1
    step = allowed_h.astype(np.int64)
    power = np.eye(len(step), dtype=np.int64)
    e = n if wrap else n - 1
    while e:
        if e & 1:
            power = np.minimum(power @ step, cap)
        step = np.minimum(step @ step, cap)
        e >>= 1
    return min(int(np.trace(power) if wrap else power.sum()), cap)


def _walks(n, first, successors):
    """Every walk of n items that starts at an item of first and steps from
    each item to one of successors(walk), where walk is the list of the
    items so far, as tuples.  When first and every successor list ascend,
    the walks come in lexicographic order."""
    walk = []
    branches = [iter(first)]
    while branches:
        depth = len(branches)
        del walk[depth - 1:]
        item = next(branches[-1], None)
        if item is None:
            branches.pop()
            continue
        walk.append(item)
        if depth < n:
            branches.append(iter(successors(walk)))
        else:
            yield tuple(walk)


def _rows(n, allowed_h, wrap):
    """Every walk of n tiles through the allowed successors (closing back on
    its first tile with wrap), as tuples in lexicographic order.

    A tile is placed only where the row can still be finished, read off the
    boolean powers reach[s] of the allowed-successor matrix (reach[s][a, b]:
    some walk of s steps leads from a to b), so every prefix walked ends in a
    counted row."""
    reach = [np.eye(len(allowed_h), dtype=bool)]
    for _ in range(n):
        reach.append(reach[-1] @ allowed_h)

    def ends(depth, first):
        """The tiles that can sit at position depth of a row that can still
        be finished: with wrap, back at tile first in the n - depth steps
        left; without, anywhere in n - 1 - depth steps."""
        return reach[n - depth][:, first] if wrap else reach[n - 1 - depth].any(axis=1)

    @functools.cache
    def steps(depth, a, first):
        return np.flatnonzero(allowed_h[a] & ends(depth, first)).tolist()

    starts = [a for a in range(len(allowed_h)) if ends(0, a)[a]]
    return list(_walks(n, starts, lambda w: steps(len(w), w[-1], w[0] if wrap else None)))


def enumerate_valid(rs, n, limit=None, require_present=None):
    """Exactly the valid n-by-n tilings, in lexicographic row order.

    Rows are the walks of n tiles through the horizontal rules (_rows).  A
    grid of more than GRID_CELL_CAP cells, or a row space that counts past
    ROW_CAP, is refused before any row is built.  Grids are the walks of n rows
    through the vertical rules; a row's successors are computed the first
    time a walk reaches it.  With wrap, both walks close.  A limit
    truncates the output and sets the flag; require_present keeps only
    tilings containing every listed tile.  Walking more than GRID_WALK_CAP
    grids, kept or not, is refused."""
    _check_side(n)
    if n * n > GRID_CELL_CAP:
        raise RuleSetError(f"{n}x{n} grid exceeds the enumeration cap of {GRID_CELL_CAP} cells")
    if limit is not None and limit < 0:
        raise RuleSetError(f"limit must be nonnegative, got {limit}")
    allowed_h, allowed_v = _index_rules(rs)
    wrap = rs.boundary == "periodic"
    if _row_count(n, allowed_h, wrap) > ROW_CAP:
        raise RuleSetError("row space exceeds the enumeration cap")
    rows = _rows(n, allowed_h, wrap)
    required = frozenset(require_present or ())
    missing = required - set(rs.alphabet)
    if missing:
        raise RuleSetError(f"required tiles {sorted(missing)} outside the alphabet")
    arr = np.array(rows, dtype=np.int16)

    @functools.cache
    def row_successors(i):
        return np.flatnonzero(allowed_v[arr[i], arr].all(axis=1)).tolist()

    names = rs.alphabet
    tilings = []
    # closed here, not in the walk, so that the cap counts the walks that
    # fail to close as well
    grids = _walks(n, range(len(rows)), lambda walk: row_successors(walk[-1]))
    for walked, walk in enumerate(grids, 1):
        if walked > GRID_WALK_CAP:
            raise RuleSetError(
                f"enumeration walked past the cap of {GRID_WALK_CAP} grids; "
                "--limit stops it at fewer tilings"
            )
        if wrap and walk[0] not in row_successors(walk[-1]):
            continue
        grid = tuple(tuple(names[t] for t in rows[i]) for i in walk)
        if required and not required <= {t for row in grid for t in row}:
            continue
        if limit is not None and len(tilings) >= limit:
            return EnumerationResult(tuple(tilings), True, len(rows))
        tilings.append(GridTiling(n, grid))
    return EnumerationResult(tuple(tilings), False, len(rows))


def subtile(tile, position):
    if position not in BLOCK_POSITIONS:
        raise RuleSetError(f"unknown block position {position!r}")
    return f"{tile}:{position}"


def split_subtile(name):
    tile, _, position = name.rpartition(":")
    if position not in BLOCK_POSITIONS or not tile:
        raise DecodeError(f"{name!r} is not a block subtile name")
    return tile, position


# the in-block bonds as (first, second, kind): first sits left of second
# for kind "h" and below it for kind "v"
_BLOCK_BONDS = (
    ("l", "c", "h"), ("c", "r", "h"), ("tl", "t", "h"), ("t", "tr", "h"),
    ("bl", "b", "h"), ("b", "br", "h"), ("c", "t", "v"), ("b", "c", "v"),
)


def lift_3x3(rs):
    """Blow each tile up into a named 3x3 block.

    Placement rules pin the eight border subtiles around their center (with
    reciprocals), alignment rules let blocks meet only edge-to-matching-edge,
    and every original prohibition transfers to the facing border subtiles.
    """
    lifted = tuple(subtile(t, p) for t in rs.alphabet for p in BLOCK_POSITIONS)
    universe = set(lifted)
    forbidden = {"h": set(), "v": set()}

    def bond(kind, firsts, seconds):
        # a first is followed only by a second, a second preceded only by a first
        forbidden[kind].update((a, z) for a in firsts for z in universe - seconds)
        forbidden[kind].update((z, b) for b in seconds for z in universe - firsts)

    def side(position):
        return {subtile(m, position) for m in rs.alphabet}

    for m in rs.alphabet:
        for first, second, kind in _BLOCK_BONDS:
            bond(kind, {subtile(m, first)}, {subtile(m, second)})
    bond("h", side("r"), side("l"))
    bond("v", side("t"), side("b"))

    for a, b in rs.forbidden_h:
        forbidden["h"].add((subtile(a, "r"), subtile(b, "l")))
    for a, b in rs.forbidden_v:
        forbidden["v"].add((subtile(a, "t"), subtile(b, "b")))

    return TileRuleSet(lifted, frozenset(forbidden["h"]), frozenset(forbidden["v"]), rs.boundary)


# block layout around a center, as (dx, dy) with +y pointing up
_BLOCK_OFFSETS = {
    "c": (0, 0), "l": (-1, 0), "r": (1, 0), "t": (0, 1), "b": (0, -1),
    "tl": (-1, 1), "tr": (1, 1), "bl": (-1, -1), "br": (1, -1),
}


def decode_lifted(g, original_alphabet):
    """Recover the original tiling and block offset from a lifted grid.

    The centers must sit on one 3-periodic sublattice and every surrounding
    cell must carry the matching border subtile of that center's tile.
    """
    n3 = g.n
    if n3 % 3:
        raise DecodeError("lifted grid side must be a multiple of three")
    n = n3 // 3
    originals = set(original_alphabet)
    centers = {}
    for y in range(n3):
        for x in range(n3):
            tile, p = split_subtile(g.rows[y][x])
            if tile not in originals:
                raise DecodeError(f"subtile of unknown tile {tile!r}")
            if p == "c":
                centers[(x, y)] = tile
    if len(centers) != n * n:
        raise DecodeError(f"expected {n * n} centers, found {len(centers)}")
    offsets = {(x % 3, y % 3) for x, y in centers}
    if len(offsets) != 1:
        raise DecodeError(f"centers sit on {len(offsets)} distinct sublattices")
    (ox, oy) = offsets.pop()
    rows = []
    for j in range(n):
        row = []
        for i in range(n):
            cx, cy = ox + 3 * i, oy + 3 * j
            m = centers[(cx, cy)]
            for p, (dx, dy) in _BLOCK_OFFSETS.items():
                got = g.rows[(cy + dy) % n3][(cx + dx) % n3]
                if got != subtile(m, p):
                    raise DecodeError(
                        f"block at ({cx},{cy}) broken: found {got!r} at offset {p}"
                    )
            row.append(m)
        rows.append(tuple(row))
    return GridTiling(n, tuple(rows)), (ox, oy)


LEFT_BC = "left_bc"
BOTTOM_BC = "bottom_bc"
RIGHT_BC = "right_bc"
BLANK = "blank"

# rule semantics note: as literally stated, nothing constrains blank-blank
# adjacency, so the all-blank grid is admitted alongside the frame; callers
# that want the frame alone should require the bottom tile to be present
FRAME_ADMITS_ALL_BLANK = True


def open_bc_frame_ruleset():
    """The open-boundary frame tile set: a marked bottom row between two end
    markers, blank everywhere above."""
    alphabet = (LEFT_BC, BOTTOM_BC, RIGHT_BC, BLANK)
    fh = set()
    fv = set()
    every = set(alphabet)
    # nothing to the left of or below the left end
    fh.update((z, LEFT_BC) for z in every)
    fv.update((z, LEFT_BC) for z in every)
    # nothing below the bottom marker
    fv.update((z, BOTTOM_BC) for z in every)
    # nothing to the right of or below the right end
    fh.update((RIGHT_BC, z) for z in every)
    fv.update((z, RIGHT_BC) for z in every)
    # the ends meet only the bottom marker sideways
    fh.update((LEFT_BC, z) for z in every - {BOTTOM_BC})
    fh.update((z, RIGHT_BC) for z in every - {BOTTOM_BC})
    # blank may not flank the bottom marker
    fh.add((BLANK, BOTTOM_BC))
    fh.add((BOTTOM_BC, BLANK))
    # only blank sits above any marked tile
    for t in (LEFT_BC, BOTTOM_BC, RIGHT_BC):
        fv.update((t, z) for z in every - {BLANK})
    return TileRuleSet(alphabet, frozenset(fh), frozenset(fv), "open")


def frame_configuration(n):
    """The intended frame: marked bottom row between the two ends, blanks
    above."""
    if n < 2:
        raise RuleSetError("frame needs side length at least 2")
    bottom = (LEFT_BC,) + (BOTTOM_BC,) * (n - 2) + (RIGHT_BC,)
    return GridTiling(n, (bottom,) + tuple((BLANK,) * n for _ in range(n - 1)))


def load_ruleset(path):
    with open(path) as fh:
        return TileRuleSet.from_json_dict(json.load(fh))


def load_grid(path):
    with open(path) as fh:
        return GridTiling.from_json_dict(json.load(fh))
