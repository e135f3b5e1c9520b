import itertools

import numpy as np
import pytest

from rih.lattice import (
    LatticeSpec,
    OPEN,
    PERIODIC,
    coordinates,
    edge_axes,
    edge_index_array,
    lattice_symmetry_permutations,
)


def check_site(u, spec):
    if len(u) != spec.r:
        raise ValueError(f"site {u} has {len(u)} coordinates, expected {spec.r}")
    if any(not 0 <= c < spec.n for c in u):
        raise ValueError(f"site {u} has coordinates outside [0, {spec.n})")


def site_index(u, spec):
    """Lexicographic rank of a site, the first coordinate most significant,
    one coordinate at a time: the numbering the tables are checked against."""
    check_site(u, spec)
    idx = 0
    for c in u:
        idx = idx * spec.n + c
    return idx


def lee_distance(x, y, spec):
    """Distance between two sites: wraparound per coordinate if periodic.
    The geometry reference the neighbor, edge and metric tests check against."""
    check_site(x, spec)
    check_site(y, spec)
    if spec.periodic:
        return sum(min(abs(a - b), spec.n - abs(a - b)) for a, b in zip(x, y))
    return sum(abs(a - b) for a, b in zip(x, y))


def coord_diff_count(u, w):
    """Number of coordinates in which two sites differ."""
    if len(u) != len(w):
        raise ValueError(f"sites {u} and {w} have different dimensions")
    return sum(1 for a, b in zip(u, w) if a != b)


def neighbors(u, spec):
    """Distance-1 sites of u, in (dimension, +then-) order, written out site
    by site: the reference the same-color degrees and turns are checked
    against.

    Periodic sites always have exactly 2r neighbors; open-boundary sites lose
    the out-of-range ones.
    """
    check_site(u, spec)
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
    """The edges of edge_index_array as pairs of coordinate tuples, in its
    order: the coordinate view the geometry tests read."""
    sites = spec.sites()
    return [(sites[a], sites[b]) for a, b in edge_index_array(spec).tolist()]


def reference_edges(spec):
    """Each site's +1 step along each axis as a sorted pair of tuples, the
    pairs sorted: the edge list written out site by site."""
    out = []
    for u in itertools.product(range(spec.n), repeat=spec.r):
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


def reference_symmetry_rows(spec):
    """Every coordinate permutation, then reflection, then translation
    applied to every site, one site_index at a time, each distinct row kept
    where it first occurs."""
    n, r = spec.n, spec.r
    sites = list(itertools.product(range(n), repeat=r))
    translations = sites if spec.periodic else [(0,) * r]
    seen, rows = set(), []
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
                    row.append(site_index(tuple(v), spec))
                if tuple(row) not in seen:
                    seen.add(tuple(row))
                    rows.append(row)
    return rows


BOTH = (PERIODIC, OPEN)
TABLE_SPECS = [LatticeSpec(r, n, b) for r in range(1, 5) for n in range(3, 8) for b in BOTH]
# the reference symmetry loop costs about G * N site_index calls
SYMMETRY_SPECS = [s for s in TABLE_SPECS if s.r <= 2 or (s.r == 3 and s.n <= 5)]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_tables_match_the_site_by_site_builders(spec):
    expected = reference_edges(spec)
    assert edges(spec) == expected
    assert {type(c) for e in edges(spec) for u in e for c in u} == {int}
    ei = edge_index_array(spec)
    assert ei.dtype == np.int64
    assert ei.tolist() == [[site_index(u, spec), site_index(v, spec)] for u, v in expected]
    axes = [next(i for i in range(spec.r) if u[i] != v[i]) for u, v in expected]
    assert edge_axes(spec).tolist() == axes


@pytest.mark.parametrize("spec", SYMMETRY_SPECS, ids=str)
def test_symmetries_match_the_site_by_site_loop(spec):
    perms = lattice_symmetry_permutations(spec)
    assert perms.dtype == np.int64
    assert perms.tolist() == reference_symmetry_rows(spec)


def test_spec_validation():
    LatticeSpec(1, 3)
    LatticeSpec(3, 6, OPEN)
    with pytest.raises(ValueError):
        LatticeSpec(0, 3)
    with pytest.raises(ValueError):
        LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        LatticeSpec(2, 2, OPEN)
    with pytest.raises(ValueError):
        LatticeSpec(2, 4, "torus")


def test_site_order_and_index_roundtrip():
    spec = LatticeSpec(2, 4)
    sites = spec.sites()
    assert sites == sorted(sites)
    assert sites == list(itertools.product(range(4), repeat=2))
    coords = coordinates(spec)
    assert coords.tolist() == [list(u) for u in sites]
    assert [site_index(u, spec) for u in sites] == list(range(16))
    assert (coords @ np.array([4, 1]) == np.arange(16)).all()


@pytest.mark.parametrize("spec", [LatticeSpec(1, 5), LatticeSpec(3, 4, OPEN)], ids=str)
def test_coordinates_are_shared_and_read_only(spec):
    coords = coordinates(spec)
    assert coordinates(LatticeSpec(spec.r, spec.n, spec.boundary)) is coords
    assert coords.shape == (spec.num_sites, spec.r)
    assert coords.tolist() == [list(u) for u in itertools.product(range(spec.n), repeat=spec.r)]
    with pytest.raises(ValueError):
        coords[0, 0] = 1


def test_lee_distance_wraparound():
    spec = LatticeSpec(2, 6)
    assert lee_distance((0, 0), (5, 5), spec) == 2
    assert lee_distance((0, 0), (5, 5), LatticeSpec(2, 6, OPEN)) == 10
    assert lee_distance((0, 0), (3, 3), spec) == 6


def test_distance_dimension_mismatch():
    spec = LatticeSpec(2, 4)
    with pytest.raises(ValueError):
        lee_distance((0, 0, 0), (1, 1, 1), spec)
    with pytest.raises(ValueError):
        coord_diff_count((0, 0), (1, 1, 1))


@pytest.mark.parametrize("r,n", [(1, 3), (1, 6), (2, 3), (2, 5), (3, 3), (3, 6)])
@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_metric_properties_exhaustive(r, n, boundary):
    """Symmetry, identity, and triangle inequality over all site pairs."""
    spec = LatticeSpec(r, n, boundary)
    sites = spec.sites()
    N = len(sites)
    D = np.zeros((N, N), dtype=np.int64)
    for i, u in enumerate(sites):
        for j, v in enumerate(sites):
            D[i, j] = lee_distance(u, v, spec)
    assert (D == D.T).all()
    assert (np.diag(D) == 0).all()
    assert (D[~np.eye(N, dtype=bool)] > 0).all()
    # min_k D[i,k] + D[k,j] >= D[i,j]
    through = (D[:, :, None] + D[None, :, :]).min(axis=1)
    assert (through >= D).all()


def test_neighbors_counts_and_distinctness():
    spec = LatticeSpec(3, 3)
    for u in spec.sites():
        nb = neighbors(u, spec)
        assert len(nb) == 6
        assert len(set(nb)) == 6
        assert all(lee_distance(u, v, spec) == 1 for v in nb)

    corner_spec = LatticeSpec(2, 4, OPEN)
    assert len(neighbors((0, 0), corner_spec)) == 2
    assert len(neighbors((1, 1), corner_spec)) == 4
    assert len(neighbors((0, 1), corner_spec)) == 3


def test_neighbors_matches_distance_one_set():
    for spec in [LatticeSpec(2, 3), LatticeSpec(2, 4, OPEN), LatticeSpec(3, 3)]:
        sites = spec.sites()
        for u in sites[:: max(1, len(sites) // 7)]:
            expected = {v for v in sites if lee_distance(u, v, spec) == 1}
            assert set(neighbors(u, spec)) == expected


@pytest.mark.parametrize(
    "spec,count",
    [
        (LatticeSpec(2, 3), 18),
        (LatticeSpec(2, 3, OPEN), 12),
        (LatticeSpec(3, 3), 81),
        (LatticeSpec(2, 6), 72),
        (LatticeSpec(2, 6, OPEN), 60),
        (LatticeSpec(1, 3), 3),
        (LatticeSpec(1, 3, OPEN), 2),
    ],
)
def test_edge_counts(spec, count):
    es = edges(spec)
    assert len(es) == count
    expected = (
        spec.r * spec.n**spec.r
        if spec.periodic
        else spec.r * spec.n ** (spec.r - 1) * (spec.n - 1)
    )
    assert len(es) == expected


def test_edge_index_array_is_shared_and_read_only():
    spec = LatticeSpec(2, 3)
    ei = edge_index_array(spec)
    assert edge_index_array(LatticeSpec(2, 3)) is ei
    with pytest.raises(ValueError):
        ei[0, 0] = 5
    with pytest.raises(ValueError):
        ei.sort(axis=0)


def test_symmetry_permutations_are_shared_and_read_only():
    perms = lattice_symmetry_permutations(LatticeSpec(2, 3))
    assert lattice_symmetry_permutations(LatticeSpec(2, 3)) is perms
    with pytest.raises(ValueError):
        perms[0, 0] = 1


def test_edges_unordered_unique_sorted():
    for spec in [LatticeSpec(2, 3), LatticeSpec(2, 4, OPEN), LatticeSpec(3, 3)]:
        es = edges(spec)
        assert es == sorted(es)
        assert len(set(es)) == len(es)
        for u, v in es:
            assert u < v
            assert lee_distance(u, v, spec) == 1


def test_coord_diff_count():
    assert coord_diff_count((0, 1, 2), (0, 1, 2)) == 0
    assert coord_diff_count((0, 1, 2), (0, 2, 1)) == 2
    assert coord_diff_count((1,), (0,)) == 1


def test_coordinate_permutation_maps_edges_bijectively():
    spec = LatticeSpec(3, 3)
    edge_set = set(edges(spec))
    for perm in itertools.permutations(range(3)):
        # result[i] = u[perm[i]]
        mapped = {
            tuple(sorted((tuple(u[p] for p in perm), tuple(v[p] for p in perm))))
            for u, v in edge_set
        }
        assert {(min(a, b), max(a, b)) for a, b in mapped} == edge_set


def test_symmetry_permutations_preserve_adjacency():
    for spec in [LatticeSpec(2, 3), LatticeSpec(2, 3, OPEN)]:
        perms = lattice_symmetry_permutations(spec)
        ei = edge_index_array(spec)
        edge_keys = {tuple(sorted(e)) for e in ei.tolist()}
        for g in perms:
            mapped = {tuple(sorted((g[a], g[b]))) for a, b in ei.tolist()}
            assert mapped == edge_keys
        # group sizes: translations x coord perms x axis flips, deduplicated
        if spec.periodic:
            assert len(perms) == 72
        else:
            assert len(perms) == 8
