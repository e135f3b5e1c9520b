"""Hypercubic lattice geometry with periodic (Lee metric) or open boundaries.

Sites are plain tuples of ``r`` integers in ``[0, n)``.  Everything downstream
(site order, edge order, serialization) keys off the lexicographic site order,
so that order is fixed here once and never revisited.
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
        return list(itertools.product(range(self.n), repeat=self.r))

    def site_index(self, u):
        """Lexicographic rank of a site; the first coordinate is most significant."""
        self.check_site(u)
        idx = 0
        for c in u:
            idx = idx * self.n + c
        return idx

    def index_site(self, idx):
        if not 0 <= idx < self.num_sites:
            raise ValueError(f"site index {idx} out of range for {self}")
        coords = []
        for _ in range(self.r):
            coords.append(idx % self.n)
            idx //= self.n
        return tuple(reversed(coords))

    def check_site(self, u):
        if len(u) != self.r:
            raise ValueError(f"site {u} has {len(u)} coordinates, expected {self.r}")
        if any(not 0 <= c < self.n for c in u):
            raise ValueError(f"site {u} has coordinates outside [0, {self.n})")

    def to_json_dict(self):
        return {"r": self.r, "n": self.n, "boundary": self.boundary}

    @classmethod
    def from_json_dict(cls, obj):
        return cls(r=int(obj["r"]), n=int(obj["n"]), boundary=obj["boundary"])


def lee_distance(x, y, spec):
    """Distance between two sites: wraparound per coordinate if periodic."""
    spec.check_site(x)
    spec.check_site(y)
    if spec.periodic:
        return sum(min(abs(a - b), spec.n - abs(a - b)) for a, b in zip(x, y))
    return sum(abs(a - b) for a, b in zip(x, y))


def coord_diff_count(u, w):
    """Number of coordinates in which two sites differ."""
    if len(u) != len(w):
        raise ValueError(f"sites {u} and {w} have different dimensions")
    return sum(1 for a, b in zip(u, w) if a != b)


def neighbors(u, spec):
    """Distance-1 sites of u, in (dimension, +then-) order.

    Periodic sites always have exactly 2r neighbors; open-boundary sites lose
    the out-of-range ones.
    """
    spec.check_site(u)
    out = []
    for i in range(spec.r):
        for step in (1, -1):
            c = u[i] + step
            if spec.periodic:
                c %= spec.n
            elif not 0 <= c < spec.n:
                continue
            out.append(u[:i] + (c,) + u[i + 1 :])
    return out


def edges(spec):
    """All unordered nearest-neighbor pairs, each once.

    Ordered lexicographically by (smaller endpoint, larger endpoint).  Periodic
    count is r*n^r; open count is r*n^(r-1)*(n-1).
    """
    out = []
    for u in spec.sites():
        for i in range(spec.r):
            c = u[i] + 1
            if c >= spec.n:
                if not spec.periodic:
                    continue
                c %= spec.n
            v = u[:i] + (c,) + u[i + 1 :]
            out.append((u, v) if u <= v else (v, u))
    out.sort()
    return out


@functools.lru_cache(maxsize=None)
def edge_index_array(spec):
    """Edges as an (E, 2) int array of lexicographic site indices.

    Built once per spec and shared by every caller, so the array is read-only.
    """
    out = np.array(
        [[spec.site_index(u), spec.site_index(v)] for u, v in edges(spec)], dtype=np.int64
    )
    out.setflags(write=False)
    return out


def permute_coords(u, perm):
    """Apply a coordinate permutation: result[i] = u[perm[i]]."""
    return tuple(u[p] for p in perm)


def lattice_symmetry_permutations(spec):
    """Site-index permutations generated by coordinate permutations, axis
    reflections, and (periodic only) translations.

    Returns an (G, N) int array; row g maps site index i to perms[g, i].
    Deduplicated, deterministic order.
    """
    n, r = spec.n, spec.r
    sites = spec.sites()
    translations = (
        list(itertools.product(range(n), repeat=r)) if spec.periodic else [(0,) * r]
    )
    seen = set()
    rows = []
    for perm in itertools.permutations(range(r)):
        for flips in itertools.product((False, True), repeat=r):
            for t in translations:
                row = []
                for u in sites:
                    v = []
                    for i in range(r):
                        c = u[perm[i]]
                        if flips[i]:
                            c = (n - 1 - c) if not spec.periodic else (-c) % n
                        if spec.periodic:
                            c = (c + t[i]) % n
                        v.append(c)
                    row.append(spec.site_index(tuple(v)))
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    return np.array(rows, dtype=np.int64)
