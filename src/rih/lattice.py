"""Hypercubic lattice geometry with periodic (Lee metric) or open boundaries.

Sites are plain tuples of ``r`` integers in ``[0, n)``.  Everything downstream
(site order, edge order, serialization) keys off the lexicographic site order,
so that order is fixed here once, in the coordinates table, and every other
table is built from it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
OPEN = "open"


@dataclass(frozen=True)
class LatticeSpec:
    """An r-dimensional side-n lattice with the given boundary mode."""

    r: int
    n: int
    boundary: str = PERIODIC

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"dimension r must be an integer >= 1, got {self.r!r}")
        # n < 3 would identify u+e_i with u-e_i under wraparound and is
        # rejected in both modes to keep the neighbor structure uniform.
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"side length n must be an integer >= 3, got {self.n!r}")
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(f"boundary must be {PERIODIC!r} or {OPEN!r}, got {self.boundary!r}")

    @property
    def periodic(self):
        return self.boundary == PERIODIC

    @property
    def num_sites(self):
        return self.n**self.r

    def sites(self):
        """All sites as tuples, in lexicographic order."""
        return [tuple(u) for u in coordinates(self).tolist()]

    def to_json_dict(self):
        return {"r": self.r, "n": self.n, "boundary": self.boundary}

    @classmethod
    def from_json_dict(cls, obj):
        """The spec of a to_json_dict object; ValueError naming the field for
        a missing or ill-typed one."""
        if not isinstance(obj, dict):
            raise ValueError("lattice spec JSON must be an object")
        try:
            r, n, boundary = obj["r"], obj["n"], obj["boundary"]
        except KeyError as exc:
            raise ValueError(f"lattice spec JSON lacks the field {exc}") from None
        # JSON true is a Python int, and int() would truncate 3.7 or parse "3"
        if any(type(v) is not int for v in (r, n)):
            raise ValueError("lattice spec fields 'r' and 'n' must be integers")
        return cls(r=r, n=n, boundary=boundary)


@functools.lru_cache(maxsize=None)
def coordinates(spec):
    """The sites as an (N, r) int array in lexicographic order: row i holds
    the coordinates of site i, the first coordinate most significant, so
    that coords @ _place_values(spec) gives back the site indices.

    Every other lattice table is built from this one.  Built once per spec
    and shared by every caller, so the array is read-only.
    """
    idx = np.arange(spec.num_sites, dtype=np.int64)
    out = idx[:, None] // _place_values(spec) % spec.n
    out.setflags(write=False)
    return out


def _place_values(spec):
    """n^(r-1-i) for each coordinate i: a site's index is the dot product
    of its coordinates with these."""
    return spec.n ** np.arange(spec.r - 1, -1, -1, dtype=np.int64)


def _shifted(spec, axis):
    """For every site u, the index of u + e_axis and whether that site
    exists (always, around a periodic lattice)."""
    c = coordinates(spec)[:, axis]
    moved = c + 1
    inside = np.full(len(c), True) if spec.periodic else moved < spec.n
    jump = (moved % spec.n - c) * _place_values(spec)[axis]
    return np.arange(spec.num_sites) + jump, inside


@functools.lru_cache(maxsize=None)
def edge_index_array(spec):
    """Edges as an (E, 2) int array of lexicographic site indices, smaller
    index first, in lexicographic row order: each site's +1 step along each
    axis, where it exists.

    Built once per spec and shared by every caller, so the array is read-only.
    """
    ends = []
    for axis in range(spec.r):
        head, inside = _shifted(spec, axis)
        tail = np.arange(spec.num_sites)[inside]
        head = head[inside]
        ends.append(np.stack((np.minimum(tail, head), np.maximum(tail, head)), axis=1))
    out = np.concatenate(ends)
    out = out[np.lexsort((out[:, 1], out[:, 0]))]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def edge_axes(spec):
    """The axis each edge of edge_index_array runs along, as an (E,) int
    array.  Built once per spec and shared by every caller, so the array is
    read-only."""
    coords, ei = coordinates(spec), edge_index_array(spec)
    out = np.argmax(coords[ei[:, 0]] != coords[ei[:, 1]], axis=1)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def lattice_symmetry_permutations(spec):
    """Site-index permutations generated by coordinate permutations, axis
    reflections, and (periodic only) translations.

    Returns an (G, N) int array; row g maps site index i to perms[g, i].
    The rows run over coordinate permutations, then reflections, then
    translations, each in itertools order.  With n >= 3 they are distinct:
    a map's images of 0 and of each e_i fix its translation and its signed
    coordinate permutation.  Built once per spec and shared by every caller,
    so the array is read-only.
    """
    n, r = spec.n, spec.r
    coords = coordinates(spec)
    place = _place_values(spec)
    # the translations in itertools order are the sites' own coordinates
    shifts = coords if spec.periodic else np.zeros((1, r), dtype=np.int64)
    blocks = []
    for perm in itertools.permutations(range(r)):
        for flips in itertools.product((False, True), repeat=r):
            rows = np.zeros((len(shifts), spec.num_sites), dtype=np.int64)
            for i in range(r):
                c = coords[:, perm[i]]
                if flips[i]:
                    c = (-c) % n if spec.periodic else n - 1 - c
                rows += (c[None, :] + shifts[:, i, None]) % n * place[i]
            blocks.append(rows)
    out = np.concatenate(blocks)
    out.setflags(write=False)
    return out


def _local_groups(pairs):
    """Connected groups of the graph whose edges are pairs, in the order of
    their first pair: for each, the indices of its pairs in input order, its
    node count k, and its pairs with the nodes renumbered 0..k-1 in
    ascending order.  A dict union-find over the nodes as met: on the dozen
    pairs of one demand graph it is cheaper than numbering the nodes for the
    array routine solver._components.  Over 600 demand lists of random 3x3
    torus tilings, about 12 pairs each, it took 18-30 us per call against
    103-193 us for the same groups through _components (two runs on one
    Xeon core)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(parent.setdefault(a, a)), find(parent.setdefault(b, b))
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for i, (a, _) in enumerate(pairs):
        groups.setdefault(find(a), []).append(i)
    out = []
    for group in groups.values():
        local = [pairs[i] for i in group]
        index = {x: n for n, x in enumerate(sorted({x for p in local for x in p}))}
        out.append((group, len(index), [(index[a], index[b]) for a, b in local]))
    return out
