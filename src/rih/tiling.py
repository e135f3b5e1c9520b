"""Classical tile assignments on the lattice: rules, classification, energies.

A tile is a (color, number) pair with color in {red, yellow, blue} and number
in {0, 1, 2}; every site carries one tile per copy.  The adjacency rules are:

  rule 1: equal colors must carry different numbers;
  rule 2: different colors must carry equal numbers.

Numbers induce directed edges along the 0 -> 1 -> 2 -> 0 cycle, which is what
the qubit-pairing demands and the embedded two-dimensional terms key off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rih.hamiltonian import BudgetExceeded
from rih.lattice import LatticeSpec, coordinates, edge_axes, edge_index_array

COLORS = ("red", "yellow", "blue")  # fixed index mapping: red=0, yellow=1, blue=2
RULE_SAME_COLOR_SAME_NUMBER = 1
RULE_DIFF_COLOR_DIFF_NUMBER = 2

TILING_SCHEMA = "tiling/1"
MAX_SITES = 2**17  # largest lattice a tiling or a striped witness is built on


def _check_sites(spec):
    """Refuse a lattice of more than MAX_SITES sites with BudgetExceeded,
    before any per-site list or array exists.  With n >= 3 every r past
    MAX_SITES's bit length is over the cap, so n**r is never computed then."""
    if spec.r >= MAX_SITES.bit_length() or spec.num_sites > MAX_SITES:
        raise BudgetExceeded(
            f"the {spec.n}^{spec.r}-site lattice exceeds the tiling cap of {MAX_SITES} sites"
        )


class Tiling:
    """Per-site tiles for two copies, stored as int arrays in lex site order."""

    def __init__(self, spec, colors1, numbers1, colors2=None, numbers2=None):
        _check_sites(spec)
        self.spec = spec
        N = spec.num_sites
        if colors2 is None:
            colors2 = np.zeros(N, dtype=np.int8)
        if numbers2 is None:
            numbers2 = np.zeros(N, dtype=np.int8)
        arrays = []
        for name, a in (
            ("colors1", colors1),
            ("numbers1", numbers1),
            ("colors2", colors2),
            ("numbers2", numbers2),
        ):
            # range before narrowing: 128 would not fit in int8
            a = np.asarray(a)
            if a.shape != (N,):
                raise ValueError(f"{name} must have shape ({N},), got {a.shape}")
            if a.min() < 0 or a.max() > 2:
                raise ValueError(f"{name} entries must lie in 0..2")
            arrays.append(a.astype(np.int8))
        self.colors1, self.numbers1, self.colors2, self.numbers2 = arrays

    def colors(self, copy):
        return self.colors1 if copy == 1 else self.colors2

    def numbers(self, copy):
        return self.numbers1 if copy == 1 else self.numbers2

    def permuted(self, site_perm):
        """Relabeled tiling: new site j carries what old site site_perm[j] carried."""
        p = np.asarray(site_perm)
        return Tiling(
            self.spec,
            self.colors1[p],
            self.numbers1[p],
            self.colors2[p],
            self.numbers2[p],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Tiling)
            and self.spec == other.spec
            and (self.colors1 == other.colors1).all()
            and (self.numbers1 == other.numbers1).all()
            and (self.colors2 == other.colors2).all()
            and (self.numbers2 == other.numbers2).all()
        )

    def to_json_dict(self):
        copies = []
        for copy in (1, 2):
            c, m = self.colors(copy), self.numbers(copy)
            copies.append([[int(a), int(b)] for a, b in zip(c, m)])
        return {"schema": TILING_SCHEMA, "spec": self.spec.to_json_dict(), "copies": copies}

    @classmethod
    def from_json_dict(cls, obj):
        """The tiling of a to_json_dict object; ValueError naming the field
        for a missing or ill-typed one."""
        if not isinstance(obj, dict):
            raise ValueError("tiling JSON must be an object")
        try:
            spec, copies = obj["spec"], obj["copies"]
        except KeyError as exc:
            raise ValueError(f"tiling JSON lacks the field {exc}") from None
        spec = LatticeSpec.from_json_dict(spec)
        if not isinstance(copies, list) or len(copies) not in (1, 2):
            raise ValueError("tiling JSON must carry one or two copies")
        arrays = []
        for copy in copies:
            if not isinstance(copy, list) or not all(
                isinstance(t, list) and len(t) == 2 and all(type(v) is int for v in t)
                for t in copy
            ):
                raise ValueError("each tiling copy must be a list of [color, number] integer pairs")
            arrays += [[t[0] for t in copy], [t[1] for t in copy]]
        return cls(spec, *arrays)


def rule_violations(t, copy):
    """Edges whose tile pair breaks a rule, as (edge, rule_id) in edge order."""
    c, m = t.colors(copy), t.numbers(copy)
    ei = edge_index_array(t.spec)
    same = c[ei[:, 0]] == c[ei[:, 1]]
    # equal colors need different numbers, different colors equal numbers
    bad = np.flatnonzero(same == (m[ei[:, 0]] == m[ei[:, 1]]))
    rule = np.where(same[bad], RULE_SAME_COLOR_SAME_NUMBER, RULE_DIFF_COLOR_DIFF_NUMBER)
    ends = coordinates(t.spec)[ei[bad]].tolist()
    return [((tuple(u), tuple(v)), k) for (u, v), k in zip(ends, rule.tolist())]


def same_color_geometry(spec, same):
    """Same-color degrees and turn flags of edge sets on spec.

    same is an (..., E) bool array over the edges of edge_index_array(spec).
    Returns each site's count of same edges, shape (..., N), and whether
    some same-colored path u - v - w bends, shape (...).  With n >= 3 the
    two steps of a straight path run along one axis, so a turn is a site
    with same edges along two axes.  One bincount counts the edge ends per
    (set, axis, site)."""
    same = np.asarray(same, dtype=bool)
    lead, N, r = same.shape[:-1], spec.num_sites, spec.r
    flat = same.reshape(-1, same.shape[-1])
    ei, axes = edge_index_array(spec), edge_axes(spec)
    row, edge = np.nonzero(flat)
    cell = (row * r + axes[edge])[:, None] * N + ei[edge]
    ends = np.bincount(cell.ravel(), minlength=len(flat) * r * N).reshape(lead + (r, N))
    return ends.sum(axis=-2), (np.count_nonzero(ends, axis=-2) >= 2).any(axis=-1)


@dataclass(frozen=True)
class ClassificationFlags:
    looped: bool
    has_turn: bool
    uniformly_directed: bool
    direction: int | None
    numbered_consistently: bool

    def to_json_dict(self):
        return {
            "looped": self.looped,
            "has_turn": self.has_turn,
            "uniformly_directed": self.uniformly_directed,
            "direction": self.direction,
            "numbered_consistently": self.numbered_consistently,
        }


def classify(t, copy):
    """Structural flags for one copy.

    looped: every site has exactly two same-colored neighbors.  has_turn: some
    same-colored bent path exists.  uniformly_directed: looped, turn-free, and
    all loops run along one common dimension.  numbered_consistently: on top of
    that, the number depends only on the coordinate along that dimension.

    A looped, turn-free copy has both same-colored edges of each site along
    one axis, so every loop is a straight line of n sites, and the loops
    share a dimension exactly when the same-colored edges use one axis.
    """
    spec = t.spec
    ei = edge_index_array(spec)
    c = t.colors(copy)
    same = c[ei[:, 0]] == c[ei[:, 1]]
    deg, turn = same_color_geometry(spec, same)
    looped = bool((deg == 2).all())
    turn = bool(turn)

    direction = None
    if looped and not turn:
        dims = np.unique(edge_axes(spec)[same])
        direction = int(dims[0]) if len(dims) == 1 else None
    uniformly_directed = direction is not None

    numbered_consistently = False
    if uniformly_directed:
        # one number per coordinate along the loops: n distinct
        # (coordinate, number) pairs
        along = coordinates(spec)[:, direction]
        numbered_consistently = len(np.unique(3 * along + t.numbers(copy))) == spec.n

    return ClassificationFlags(
        looped=looped,
        has_turn=turn,
        uniformly_directed=uniformly_directed,
        direction=direction,
        numbered_consistently=numbered_consistently,
    )


def striped_witness(spec):
    """Low-energy tiling: per copy, stripes colored by the off-axis coordinate
    sum mod 3 and numbered by the on-axis coordinate mod 3.

    Copy 1's loops (periodic) or chains (open) run along dimension 0, copy 2's
    along dimension 1, so r must be at least 2.  Requires n divisible by 3 so
    the numbering closes around periodic loops.
    """
    if spec.n % 3 != 0:
        raise ValueError(f"striped witness needs n divisible by 3, got n={spec.n}")
    if spec.r < 2:
        raise ValueError(f"striped witness needs r >= 2, got r={spec.r}")
    _check_sites(spec)
    coords = coordinates(spec)
    total = coords.sum(axis=1)
    return Tiling(
        spec,
        (total - coords[:, 0]) % 3,
        coords[:, 0] % 3,
        (total - coords[:, 1]) % 3,
        coords[:, 1] % 3,
    )


def epr_demand_graph(t, copy):
    """Pairing demands of one copy as (tail, head) slot-number pairs in edge
    order, where slot (x, port) is 2x + port - 1: an edge whose numbers step
    by +1 from u to v asks u's outgoing qubit, slot 2u + 1, to form an EPR
    pair with v's incoming one, slot 2v, whatever the colors say.  An
    equal-number edge demands nothing; with equal colors too it breaks
    rule 1, which rule_violations reports."""
    ei = edge_index_array(t.spec)
    m = t.numbers(copy).astype(np.int64)
    step = (m[ei[:, 1]] - m[ei[:, 0]]) % 3
    live = step != 0
    ends = np.where((step[live] == 1)[:, None], ei[live], ei[live, ::-1])
    return list(zip((2 * ends[:, 0] + 1).tolist(), (2 * ends[:, 1]).tolist()))


@dataclass(frozen=True)
class ClassicalEnergy:
    """Diagonal energy of a tile sector, broken down by summand."""

    tile1: int
    tile2: int
    loop1: int
    loop2: int
    copy_coupling: int

    @property
    def total(self):
        return self.tile1 + self.tile2 + self.loop1 + self.loop2 + self.copy_coupling

    def to_json_dict(self):
        return {
            "tile": [self.tile1, self.tile2],
            "loop": [self.loop1, self.loop2],
            "copy_coupling": self.copy_coupling,
            "total": self.total,
        }

    @classmethod
    def from_counts(cls, counts):
        """The energy of the counts of classical_counts under the weights of
        classical_energy."""
        viol1, viol2, diff1, diff2, both = counts
        return cls(
            tile1=8 * viol1,
            tile2=8 * viol2,
            loop1=2 * diff1,
            loop2=2 * diff2,
            copy_coupling=both,
        )


def classical_counts(t):
    """The unweighted summands of the classical energy: the tile-rule
    violations of copy 1 and of copy 2, the different-color edges of copy 1
    and of copy 2, and the edges same-colored in both copies."""
    spec = t.spec
    ei = edge_index_array(spec)
    c1, m1, c2, m2 = t.colors1, t.numbers1, t.colors2, t.numbers2
    same1 = c1[ei[:, 0]] == c1[ei[:, 1]]
    same2 = c2[ei[:, 0]] == c2[ei[:, 1]]
    eqn1 = m1[ei[:, 0]] == m1[ei[:, 1]]
    eqn2 = m2[ei[:, 0]] == m2[ei[:, 1]]
    return (
        int((same1 & eqn1).sum() + (~same1 & ~eqn1).sum()),
        int((same2 & eqn2).sum() + (~same2 & ~eqn2).sum()),
        int((~same1).sum()),
        int((~same2).sum()),
        int((same1 & same2).sum()),
    )


def classical_energy(t):
    """Tile penalties (8 each), loop penalties (2 per different-color edge per
    copy), and the copy-coupling count (1 per edge same-colored in both
    copies), with these weights typed in; solver.tile_sector_energy weighs
    the same counts by hamiltonian.DEFAULT_COEFFICIENTS."""
    return ClassicalEnergy.from_counts(classical_counts(t))


def counting_floor(num_edges, deg):
    """2*num_edges - sum(deg) + 4 * sum(deg // 3) along deg's last axis, the
    counting floor of a copy with same-color degrees deg on num_edges edges."""
    return 2 * num_edges - deg.sum(axis=-1) + 4 * (deg // 3).sum(axis=-1)

