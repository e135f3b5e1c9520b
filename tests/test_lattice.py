import itertools

import numpy as np
import pytest

from rih.lattice import (
    LatticeSpec,
    OPEN,
    PERIODIC,
    coord_diff_count,
    edge_index_array,
    edges,
    lattice_symmetry_permutations,
    neighbor_index_array,
    neighbors,
)


def lee_distance(x, y, spec):
    """Distance between two sites: wraparound per coordinate if periodic.
    The geometry reference the neighbor, edge and metric tests check against."""
    spec.check_site(x)
    spec.check_site(y)
    if spec.periodic:
        return sum(min(abs(a - b), spec.n - abs(a - b)) for a, b in zip(x, y))
    return sum(abs(a - b) for a, b in zip(x, y))


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
    assert len(sites) == 16
    for i, u in enumerate(sites):
        assert spec.site_index(u) == i
        assert spec.index_site(i) == u


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
    assert ei.tolist() == [[spec.site_index(u), spec.site_index(v)] for u, v in edges(spec)]
    with pytest.raises(ValueError):
        ei[0, 0] = 5
    with pytest.raises(ValueError):
        ei.sort(axis=0)


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 5), LatticeSpec(1, 5, OPEN), LatticeSpec(2, 3), LatticeSpec(2, 4, OPEN),
     LatticeSpec(3, 3, OPEN)],
    ids=str,
)
def test_neighbor_index_array_is_shared_and_read_only(spec):
    nbr = neighbor_index_array(spec)
    assert neighbor_index_array(LatticeSpec(spec.r, spec.n, spec.boundary)) is nbr
    assert nbr.shape == (spec.num_sites, 2 * spec.r)
    for i, u in enumerate(spec.sites()):
        row = [spec.site_index(v) for v in neighbors(u, spec)]
        assert nbr[i].tolist() == row + [-1] * (2 * spec.r - len(row))
    with pytest.raises(ValueError):
        nbr[0, 0] = 5


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
