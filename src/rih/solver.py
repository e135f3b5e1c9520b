"""Exact ground energies of the assembled model.

Within a fixed tile sector the operator splits into non-interacting pieces on
disjoint tensor factors: a classical scalar (tile, color, and copy penalties),
one pairing operator per copy on the qubit slots, and the embedded model on
the d-level factors.  The sector minimum is therefore the sum of the piece
minima, and the global ground energy is the minimum of that sum over sectors.

The sweep over sectors exploits four exact factorizations rather than
branching site by site:

  * pairing energies depend only on a copy's numbering (through the directed
    steps along edges), never on its colors;
  * tile-rule violation counts depend only on the same-color edge mask and
    the step pattern;
  * color-only costs (different-color penalties, both-copies-same coupling)
    depend only on the two masks;
  * a step pattern's pairing minimum and one-copy embedded minimum are the
    same for every image of the pattern under the lattice symmetries, and a
    color mask's minimum over the patterns is the same for every image of
    the mask, so each is solved once per symmetry orbit (150 orbits for the
    6,561 patterns and 75 for the 2,914 masks of the 3x3 torus) and
    broadcast to the orbit's members.

A global shift of a copy's numbers or colors changes neither its step
pattern nor its same-color mask, so both tables come from one enumeration of
the 3^(N-1) assignments with site 0 fixed to 0, one numbering per step
pattern.  A row's zero-step edges are its equal-value edges, so its zero mask
read as a numbering is its same-color mask read as a coloring: the coloring
table's masks, representatives and mask orbits are read off the numbering
table's zero-mask groups and pattern orbits.  The orbit representatives'
pairing minima are sums over slot components, and the same component recurs
across many representatives, so each distinct component is solved once (108
solves for the 2,806 orbits of ring 11, 303 for the 150 of the 3x3 torus).

So sectors group by (mask1, mask2, steps1, steps2), copies decouple given the
masks, and the per-copy number minimization is a vectorized sweep:

  * a violation count depends on a step pattern only through its zero mask,
    so patterns group by zero mask (2,914 groups for 6,561 patterns on the
    3x3 torus, the 2,914 color masks) and the per-mask minima are one
    min-plus product of the mask orbits' representatives against each
    group's smallest pairing value, through one AND-popcount kernel taken
    in blocks;
  * a mask pair's value values1[i] + values2[j] + copy*|m_i & m_j| is bounded
    below by values1[i] + values2[j], so the pair sweep evaluates only the
    pairs whose bound reaches the pair of row minima (4 of 8.5M on the 3x3
    torus); where that still admits more pairs than the masks' hypercube
    has points times bits, a min-plus transform over the hypercube gives
    every row's exact minimum first, and only the rows that reach the
    smallest are listed (on ring 11, 49,665 candidate pairs instead of
    359,965).

A plug that acts on both copies is not separable: the sweep's per-copy
values bound each mask pair from below, and _joint_refinement refines the
pairs that can still win with the joint embedded minimum
lambda_min(H_h(p1) + H_v(p2)) of their pattern pairs.  That minimum too is
the same for every lattice symmetry applied to both copies at once, so it
is solved once per orbit of pattern pairs, on the orbit's
lexicographically smallest image pair, and read by every pair of the orbit
(8 solves for the 112 pairs that ring 7 refines under the seed-1 random
plug of the pinned random-plug reports).  The tile, loop, pairing,
copy-coupling, horizontal and vertical weights are read from
hamiltonian.DEFAULT_COEFFICIENTS, the weights the term is built with.

Every demand joins a port-2 slot to a port-1 slot, so rotating each port-2
slot by pi about Y turns a pairing penalty 8(I - P_Phi+), at pairing weight
16, into 6 + 8 S_a.S_b: a pairing component is a Heisenberg antiferromagnet,
and its minimum lies in the sector of floor(k/2) up spins on its k slots, of
dimension C(k, floor(k/2)) instead of 2^k.  Components are solved there
exactly up to EXACT_PAIRING_CAP slots, whatever their shape.  A larger
component of any shape gets the certified cherry bound and is flagged
inexact, and a search whose table holds such a bound is reported
uncertified.  No lattice the numbering table accepts comes near the cap: its
largest component has 9 slots on the 3x3 lattices and 14 on ring 14.

Process caches hold computed values, and each is a pure function of its
input, so no result depends on what ran earlier in the process:
lattice.coordinates, lattice.edge_index_array, lattice.edge_axes and
lattice.lattice_symmetry_permutations (site coordinates, edge table, edge
axes and symmetries per lattice), hamiltonian._offsets (embed_operator's
flat offsets per factor dims and positions), _component_key (canonical key
per slot count and demand edge tuple), _pairing_minimum (pairing minimum
per canonical key), _dp_layout (the embedded layer sweep's layout per
lattice and level count) and _tables (the solved numbering and coloring
tables per lattice).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from rih._blas import one_blas_thread
from rih.hamiltonian import (
    DEFAULT_COEFFICIENTS,
    EPR_HALF_PROJECTOR,
    BudgetExceeded,
    _sum_embedded,
    dense_entries,
)
from rih.lattice import (
    LatticeSpec,
    _local_groups,
    edge_index_array,
    lattice_symmetry_permutations,
)
from rih.tiling import (
    ClassicalEnergy,
    Tiling,
    classical_counts,
    classical_energy,
    counting_floor,
    epr_demand_graph,
    same_color_geometry,
    striped_witness,
)

PAIR_PENALTY = DEFAULT_COEFFICIENTS["pairing"] * EPR_HALF_PROJECTOR  # one per demand

DEFAULT_TOL = 1e-10
# dense eigvalsh up to DENSE_CUTOFF, eigsh above: on a 2-core machine the
# crossover lies between dimensions 128 and 256 with one OpenBLAS thread, as
# with two (a ring of random d = 2 embedded terms); the pools start at one
# unless the caller set a count or loaded numpy first (rih._blas), and the CLI
# and ground_energy_search run on one whatever it is
DENSE_CUTOFF = 2**7
EXACT_PAIRING_CAP = 18  # slots of the largest pairing component solved exactly
DIAG_CAP = 2**18  # largest embedded component or sector oracle diagonalized
SWEEP_BLOCK = 2**14  # elements per block of the mask-sweep kernels
REPORT_SCHEMA = "energy-report/1"


class SolverConvergenceError(RuntimeError):
    pass


def _deterministic_start(dim):
    rng = np.random.default_rng(0xC0FFEE + dim)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def min_eigenvalue(op):
    """Smallest eigenvalue of a Hermitian operator.

    Dense solve up to DENSE_CUTOFF, shift-free Lanczos to DEFAULT_TOL above;
    iteration budget 10*sqrt(dim)+500.  Convergence failures raise, they are
    never papered over.

    Above DENSE_CUTOFF the result's last bits depend on the BLAS thread
    count (1-4 ulps between one and two OpenBLAS threads at dimension 4096)
    and can move by a few ulps between processes at one thread too, so no
    Lanczos value can be pinned bit-exactly.  The count is one unless the
    caller set one, or loaded numpy, before importing rih (rih._blas).
    """
    dim = op.shape[0]
    if dim <= DENSE_CUTOFF:
        return float(np.linalg.eigvalsh(op.toarray() if scipy.sparse.issparse(op) else op).min())
    maxiter = int(10 * np.sqrt(dim) + 500)
    try:
        vals = scipy.sparse.linalg.eigsh(
            op,
            k=1,
            which="SA",
            tol=DEFAULT_TOL,
            maxiter=maxiter,
            v0=_deterministic_start(dim),
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"extremal eigensolve failed to converge at dim {dim} within {maxiter} iterations"
        ) from exc
    return float(vals[0])


def _min_eigenvalue_coo(rows, cols, vals, dim):
    """Smallest eigenvalue of the dim x dim operator with these COO entries
    (duplicates summed).  Built dense up to DENSE_CUTOFF and as CSR above,
    the form min_eigenvalue solves at each size."""
    if dim <= DENSE_CUTOFF:
        op = np.zeros((dim, dim), dtype=vals.dtype)
        np.add.at(op, (rows, cols), vals)
    else:
        op = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return min_eigenvalue(op)


def _pairing_sparse(local_edges, k):
    """The summed pairing penalties on the full 2^k space of k qubit slots,
    one embedded PAIR_PENALTY per demand: the build of the independent
    oracles."""
    e = dense_entries(PAIR_PENALTY)
    r, c, v = _sum_embedded([(e, (a, b)) for a, b in local_edges], (2,) * k)
    return scipy.sparse.coo_matrix((v, (r, c)), shape=(2**k, 2**k)).tocsr()


@functools.lru_cache(maxsize=None)
def _pairing_minimum(k, edges):
    """Exact minimum of the pairing sum on k slots with these demand edges,
    built in the sector of floor(k/2) up spins, which the SU(2)-invariant
    rotated sum's ground multiplet meets (see the module docstring).  With
    pairing weight w, a demand (a, b) adds w/2 on the diagonal where the two
    spins agree, w/4 where they differ, and w/4 between the two states that
    swap them.  A pure function of its arguments, so its cache never makes a
    value depend on what ran earlier in the process."""
    w = DEFAULT_COEFFICIENTS["pairing"]
    states = np.arange(2**k, dtype=np.int64)
    states = states[np.bitwise_count(states) == k // 2]
    every = np.arange(len(states))
    rows, cols, vals = [], [], []
    for a, b in edges:
        differ = ((states >> a) ^ (states >> b)) & 1 == 1
        src = np.flatnonzero(differ)
        rows += [every, src]
        cols += [every, np.searchsorted(states, states[src] ^ ((1 << a) | (1 << b)))]
        vals += [np.where(differ, w / 4, w / 2), np.full(len(src), w / 4)]
    entries = (np.concatenate(x) for x in (rows, cols, vals))
    return _min_eigenvalue_coo(*entries, len(states))


def _canonical_component_key(k, local_edges):
    """Cheap canonical form: deterministic BFS relabeling from refinement-
    minimal roots.  Isomorphic inputs usually map to one key (a miss just
    costs a recompute); distinct keys for non-isomorphic graphs always, since
    the key contains a full relabeled edge set."""
    adj = [[] for _ in range(k)]
    for a, b in local_edges:
        adj[a].append(b)
        adj[b].append(a)
    labels = [len(adj[v]) for v in range(k)]
    for _ in range(3):
        labels = [
            hash((labels[v], tuple(sorted(labels[w] for w in adj[v])))) for v in range(k)
        ]
    lo = min(labels)
    best = None
    for root in (v for v in range(k) if labels[v] == lo):
        order = {root: 0}
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v], key=lambda x: (labels[x], order.get(x, k))):
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
        enc = tuple(
            sorted(
                (min(order[a], order[b]), max(order[a], order[b])) for a, b in local_edges
            )
        )
        if best is None or enc < best:
            best = enc
    return (k, best)


def _component_bound(local_edges):
    """Certified lower bound of a connected component: the cherry term.

    A connected graph with m edges splits into m // 2 edge-disjoint cherries
    (paths of two edges) and at most one lone edge (Kotzig's theorem, with a
    pendant edge added when m is odd).  A cherry's minimum is a quarter of
    the pairing weight, 4, and every summand is positive semidefinite, so
    4 * (m // 2) never exceeds the component's minimum.  Repeated demands
    count once: the split needs a simple graph, and dropping a copy, itself
    semidefinite, only lowers the minimum."""
    m = len({frozenset(e) for e in local_edges})
    return DEFAULT_COEFFICIENTS["pairing"] / 4 * (m // 2)


@dataclass(frozen=True)
class ComponentResult:
    num_slots: int
    num_demands: int
    kind: str
    value: float
    exact: bool


@dataclass(frozen=True)
class EprEnergy:
    value: float
    exact: bool
    components: tuple

    def to_json_dict(self):
        return {
            "value": self.value,
            "exact": self.exact,
            "components": [
                {
                    "slots": c.num_slots,
                    "demands": c.num_demands,
                    "kind": c.kind,
                    "value": c.value,
                    "exact": c.exact,
                }
                for c in self.components
            ],
        }


# the canonical key per (slot count, demand edge tuple) as met, a pure
# function of its arguments like _pairing_minimum
_component_key = functools.lru_cache(maxsize=None)(_canonical_component_key)


def _solve_component(k, local_edges):
    m = len(local_edges)
    if m == 1:
        return ComponentResult(k, 1, "isolated-demand", 0.0, True)
    # the cap is checked ahead of the cache, so the answer never depends on
    # what a wider cap cached earlier in the process
    if k > EXACT_PAIRING_CAP:
        return ComponentResult(k, m, "bound", _component_bound(local_edges), False)
    value = _pairing_minimum(*_component_key(k, tuple(local_edges)))
    return ComponentResult(k, m, "exact", value, True)


def epr_min_energy(demands):
    """Minimum total pairing penalty for a list of demands.

    A demand is a (tail, head) pair of slot numbers, slot (x, port) being
    2x + port - 1: the tail is a port-2 slot (odd) and the head a port-1
    slot (even), so a pairing component is bipartite with the ports as its
    sides, which the sector build of _pairing_minimum needs; any other
    demand raises ValueError.

    Connected slot components are independent.  A lone demand costs nothing
    (kind "isolated-demand").  Any other component of k <= EXACT_PAIRING_CAP
    slots is diagonalized (kind "exact") in the sector of floor(k/2) up
    spins, of dimension C(k, floor(k/2)) rather than 2^k, in the labeling of
    its canonical key.  A larger component gets the certified cherry bound
    (kind "bound") and is flagged inexact.  Components are listed and summed
    most slots first.
    """
    for a, b in demands:
        if a % 2 != 1 or b % 2 != 0:
            raise ValueError(f"demand {a}-{b} does not join a port-2 slot to a port-1 slot")
    results = [_solve_component(k, local) for _, k, local in _local_groups(demands)]
    results.sort(key=lambda c: -c.num_slots)
    return EprEnergy(
        value=float(sum(c.value for c in results)),
        exact=all(c.exact for c in results),
        components=tuple(results),
    )


# ---------------------------------------------------------------------------
# embedded model


def _active_terms(steps1, steps2, plug):
    """(steps, matrix) of each embedded term that acts: the horizontal term
    along steps1 and the vertical term along steps2, each scaled by its
    weight and kept when its matrix is nonzero and its step pattern has a
    nonzero step."""
    w = DEFAULT_COEFFICIENTS
    return [
        (steps, mat)
        for steps, mat in (
            (steps1, w["horizontal"] * plug.horizontal),
            (steps2, w["vertical"] * plug.vertical),
        )
        if np.count_nonzero(mat) and np.count_nonzero(steps)
    ]


def _plug_is_diagonal(terms):
    """Whether every active term (see _active_terms) is diagonal."""
    return all(np.count_nonzero(m - np.diag(np.diag(m))) == 0 for _, m in terms)


def _edge_cost_tables(spec, terms, d):
    """Per-edge (d, d) classical cost tables of diagonal active terms, indexed
    [level at edge tail, level at edge head] in site order (a, b), as an
    (E, d, d) array, and the ascending indices of the edges some term acts
    on."""
    costs = np.zeros((len(edge_index_array(spec)), d, d))
    acts = np.zeros(len(costs), dtype=bool)
    for steps, mat in terms:
        diag = np.real(np.diag(mat)).reshape(d, d)
        # indexed by step: no term, forward, reversed orientation
        costs += np.stack((np.zeros((d, d)), diag, diag.T))[steps]
        acts |= steps != 0
    return np.flatnonzero(acts).tolist(), costs


def _layer_states(spec, d):
    """Level assignments of one layer of constant first coordinate, d^k with
    k = N/n, checked against the sweep's budget before anything is
    allocated: k log2 d first, so a huge layer is refused without computing
    d^k (the product is exact wherever d^k can be 4096, at d a power of 2)."""
    k = spec.num_sites // spec.n
    if k * math.log2(d) > math.log2(4096) or d**k * d**k * spec.n > 2 * 10**8:
        raise BudgetExceeded(f"layer state space {d}^{k} too large for the classical sweep")
    return d**k


@functools.lru_cache(maxsize=None)
def _dp_layout(spec, d):
    """Where each edge's cost table lands in the layer sweep of
    _embedded_diag_dp, built once per (spec, d) and read-only: for edge j,
    (intra, layer, tail levels, head levels), so that its cost table indexed
    [tail levels, head levels] adds to the layer's intra-layer costs (S,) or
    to its layer -> layer+1 transition costs (S, S).  The level arrays are
    views of one (m, S) table of each layer position's level in every layer
    state, shaped for that broadcast."""
    n = spec.n
    m = spec.num_sites // n  # sites per layer; lex order keeps layers contiguous
    S = _layer_states(spec, d)
    levels = np.empty((m, S), dtype=np.int64)
    idx = np.arange(S, dtype=np.int64)
    for k in range(m - 1, -1, -1):
        levels[k] = idx % d
        idx //= d
    levels.setflags(write=False)
    places = []
    for a, b in edge_index_array(spec).tolist():
        la, pa = divmod(a, m)
        lb, pb = divmod(b, m)
        if la == lb:
            places.append((True, la, levels[pa], levels[pb]))
        elif lb == (la + 1) % n:
            places.append((False, la, levels[pa][:, None], levels[pb][None, :]))
        else:
            # wrap edges are stored smaller site first, so the layer-(n-1)
            # endpoint sits second; reorient onto the n-1 -> 0 transition
            assert la == (lb + 1) % n
            places.append((False, lb, levels[pa][None, :], levels[pb][:, None]))
    return tuple(places)


def _embedded_diag_dp(spec, terms, d):
    """Exact classical minimum of diagonal active terms by min-plus dynamic
    programming over layers of constant first coordinate.  Handles lattices
    whose full level space is far beyond enumeration.

    The layer-state budget is checked first.  The per-(spec, d) layout comes
    from the _dp_layout cache, so a call only adds each acting edge's cost
    table (see _edge_cost_tables) into its layer, in edge order, and runs
    the sweep.  Around a periodic lattice the sweep closes the cycle from
    one anchor state of layer 0 at a time, in promising order, and stops at
    the first anchor whose best reaches the open-chain floor."""
    n = spec.n
    S = _layer_states(spec, d)
    places = _dp_layout(spec, d)
    acting, costs = _edge_cost_tables(spec, terms, d)
    intra = np.zeros((n, S))
    inter = np.zeros((n, S, S))  # layer l -> l+1 (wrap at n-1)
    for j in acting:
        within, layer, tail, head = places[j]
        (intra if within else inter)[layer] += costs[j][tail, head]
    if spec.boundary == "open":
        dp = intra[0].copy()
        for l in range(1, n):
            dp = (dp[:, None] + inter[l - 1]).min(axis=0) + intra[l]
        return float(dp.min())
    # periodic: close the cycle, trying anchor states in promising order and
    # stopping once the open-chain floor is reached
    floor = sum(intra.min(axis=1).tolist() + inter.min(axis=(1, 2)).tolist())
    best = np.inf
    for f in np.argsort(intra[0], kind="stable").tolist():
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


def embedded_step_energy(spec, steps1, steps2, plug):
    """Exact minimum of the embedded terms for fixed step patterns.

    Only the active terms count (see _active_terms).  When they are all
    diagonal the minimization is classical and solved by a layered min-plus
    sweep; otherwise each connected group of active edges is diagonalized on
    its own factors, up to DIAG_CAP dimensions.
    """
    d = plug.d
    terms = _active_terms(steps1, steps2, plug)
    if not terms:
        return 0.0
    if _plug_is_diagonal(terms):
        return _embedded_diag_dp(spec, terms, d)
    ei = edge_index_array(spec).tolist()
    entries = [(steps, dense_entries(mat)) for steps, mat in terms]
    active = [j for j in range(len(ei)) if any(int(steps[j]) for steps, _ in terms)]
    total = 0.0
    for group, k, local in _local_groups([ei[j] for j in active]):
        dim = d**k
        if dim > DIAG_CAP:
            raise BudgetExceeded(f"embedded component dimension {dim} exceeds cap {DIAG_CAP}")
        ops = []
        for i, (a, b) in zip(group, local):
            for steps, e in entries:
                s = int(steps[active[i]])
                if s:
                    ops.append((e, (a, b) if s == 1 else (b, a)))
        total += _min_eigenvalue_coo(*_sum_embedded(ops, (d,) * k), dim)
    return float(total)


def _step_patterns(t):
    ei = edge_index_array(t.spec)
    s1 = (t.numbers1[ei[:, 1]].astype(int) - t.numbers1[ei[:, 0]].astype(int)) % 3
    s2 = (t.numbers2[ei[:, 1]].astype(int) - t.numbers2[ei[:, 0]].astype(int)) % 3
    return s1, s2


# ---------------------------------------------------------------------------
# sector energies


@dataclass(frozen=True)
class SectorEnergy:
    classical: float
    epr_copy1: float
    epr_copy2: float
    embedded: float
    method: str  # component-exact | bound-only
    breakdown: dict = field(default_factory=dict)

    @property
    def total(self):
        return self.classical + self.epr_copy1 + self.epr_copy2 + self.embedded

    @property
    def exact(self):
        return self.method != "bound-only"

    def to_json_dict(self):
        return {
            "classical": self.classical,
            "epr": [self.epr_copy1, self.epr_copy2],
            "embedded": self.embedded,
            "total": self.total,
            "method": self.method,
            "breakdown": self.breakdown,
        }


def tile_sector_energy(t, plug=None):
    """Ground energy of the sector that fixes every tile value of t: classical
    scalar plus both copies' pairing minima plus the embedded minimum.  These
    act on disjoint factors, so the sector minimum is their sum.

    The step patterns are read once: both copies' demands come from
    _pattern_demands, the builder the numbering table uses, which gives the
    slot-number pairs of tiling.epr_demand_graph in the same edge order,
    and the embedded part from embedded_step_energy on the same arrays.
    The classical part weighs
    tiling.classical_counts by DEFAULT_COEFFICIENTS, as the ground search
    does; its breakdown is tiling.classical_energy's, under the weights
    typed in there."""
    spec = t.spec
    ei = edge_index_array(spec)
    s1, s2 = _step_patterns(t)
    counts = classical_counts(t)
    viol1, viol2, diff1, diff2, both = counts
    w = DEFAULT_COEFFICIENTS
    classical = w["tile"] * (viol1 + viol2) + w["loop"] * (diff1 + diff2) + w["copy"] * both
    # the embedded part first, so that its budget refuses before any
    # pairing work
    emb = 0.0 if plug is None else embedded_step_energy(spec, s1, s2, plug)
    e1 = epr_min_energy(_pattern_demands(ei, s1))
    e2 = epr_min_energy(_pattern_demands(ei, s2))
    method = "component-exact" if (e1.exact and e2.exact) else "bound-only"
    return SectorEnergy(
        classical=float(classical),
        epr_copy1=e1.value,
        epr_copy2=e2.value,
        embedded=emb,
        method=method,
        breakdown={
            "classical": ClassicalEnergy.from_counts(counts).to_json_dict(),
            "epr_copy1": e1.to_json_dict(),
            "epr_copy2": e2.to_json_dict(),
        },
    )


# ---------------------------------------------------------------------------
# independent oracles


def sector_qubit_oracle(t, copy):
    """One copy's tile and color energy plus a direct diagonalization of its
    pairing operator over the full qubit space of the lattice (2 slots per
    site), no component splitting."""
    N = t.spec.num_sites
    k = 2 * N
    if 2**k > DIAG_CAP:
        raise BudgetExceeded(f"qubit space 2^{k} exceeds cap {DIAG_CAP}")
    local = epr_demand_graph(t, copy)  # slot numbers are the qubit indices
    ce = classical_energy(t)
    base = float(ce.tile1 + ce.loop1 if copy == 1 else ce.tile2 + ce.loop2)
    if not local:
        return base
    op = _pairing_sparse(local, k)
    return base + min_eigenvalue(op)


def full_space_oracle(spec, term):
    """Ground energy of the summed term over the whole many-site Hilbert
    space; independent of every sector decomposition above.  The size check
    is global_hamiltonian's, made before it allocates."""
    from rih.hamiltonian import global_hamiltonian

    H = global_hamiltonian(spec, term)
    return min_eigenvalue(H.asfptype())


def sector_full_oracle(t, plug):
    """Diagonalize the full non-tile factor space of a sector in one shot:
    both copies' qubits and the embedded levels together.  Each edge's steps
    are read off the numbers here; the only step shared with the
    decomposition is the scatter, hamiltonian._sum_embedded."""
    spec = t.spec
    d = 1 if plug is None else plug.d
    N = spec.num_sites
    per_site = (2, 2, 2, 2, d)  # qin1, qout1, qin2, qout2, embedded
    dims = per_site * N
    dim = math.prod(dims)  # Python ints: numpy's int64 product wraps past 2**63
    if dim > DIAG_CAP:
        raise BudgetExceeded(f"sector space {dim} exceeds cap {DIAG_CAP}")

    def pos(site, factor):
        return 5 * site + factor

    ei = edge_index_array(spec).tolist()
    pair_entries = dense_entries(PAIR_PENALTY)
    ops = []
    for a, b in ei:
        for numbers, qin, qout in ((t.numbers1, 0, 1), (t.numbers2, 2, 3)):
            s = (int(numbers[b]) - int(numbers[a])) % 3
            if s:
                u, v = (a, b) if s == 1 else (b, a)
                ops.append((pair_entries, (pos(u, qout), pos(v, qin))))
    if plug is not None:
        for numbers, mat in ((t.numbers1, plug.horizontal), (t.numbers2, plug.vertical)):
            if not np.count_nonzero(mat):
                continue
            e = dense_entries(mat)
            for a, b in ei:
                s = (int(numbers[b]) - int(numbers[a])) % 3
                if s:
                    u, v = (a, b) if s == 1 else (b, a)
                    ops.append((e, (pos(u, 4), pos(v, 4))))
    scalar = float(classical_energy(t).total)
    if not ops:
        return scalar
    rows, cols, vals = _sum_embedded(ops, dims)
    op = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return scalar + min_eigenvalue(op)


# ---------------------------------------------------------------------------
# exhaustive tables over numberings and colorings


def _popcount(arr):
    return np.bitwise_count(np.asarray(arr, dtype=np.uint64)).astype(np.int64)


TABLE_ROW_CAP = 3**13  # rows of the site-0 tables: N <= 14 sites, so E <= 18
_TABLE_DIGITS = len(np.base_repr(TABLE_ROW_CAP, 3)) - 1  # largest N - 1 the cap admits


def _site0_digits(spec):
    """(3^(N-1), N) base-3 assignments of 0, 1, 2 to the sites with site 0
    fixed to 0, in lexicographic order (site 1 most significant): the
    transpose of an int8 array with one contiguous row per site.

    On a connected lattice a global shift of the values changes neither a
    numbering's step pattern nor a coloring's same-color mask, so these rows
    reach every pattern and every mask; a numbering row is even the only one
    with its pattern.  The size is checked before anything is allocated, by
    exponents: with n >= 3, an r past _TABLE_DIGITS is over the cap, so
    neither n^r nor 3^(N-1) is computed for a large lattice."""
    if spec.r > _TABLE_DIGITS:
        raise BudgetExceeded(f"numbering table infeasible for {spec.n}^{spec.r} sites")
    N = spec.num_sites
    if N - 1 > _TABLE_DIGITS:
        raise BudgetExceeded(f"numbering table infeasible for {N} sites")
    out = np.zeros((N, 3 ** (N - 1)), dtype=np.int8)
    for k in range(1, N):
        # site k runs through 0, 1, 2 in runs of 3^(N-1-k) rows
        out[k].reshape(-1, 3, 3 ** (N - 1 - k))[...] = np.arange(3, dtype=np.int8)[:, None]
    return out.T


def _mod3(x):
    """x mod 3 in place, for an int8 array with entries in [-3, 5]: numpy's
    int8 remainder is an order of magnitude slower."""
    x += 3 * (x < 0).view(np.int8)
    x -= 3 * (x >= 3).view(np.int8)
    return x


def _forest_index(digits, ends):
    """Pattern index (see NumberingTable) of each numbering, a column of
    digits with one row per site: its steps along the forest edges, whose
    (tail, head) sites are the rows of ends in forest order, read in base 3
    with the first most significant, as int32 (below TABLE_ROW_CAP)."""
    index = np.zeros(digits.shape[1], dtype=np.int32)
    for a, b in ends.tolist():
        index *= 3
        index += _mod3(digits[b] - digits[a])
    return index


def _forest_walk(edge_idx, N):
    """The spanning forest that keeps each edge, in edge order, unless it
    closes a cycle, as the (tail, head) rows of its edges, and a walk over it
    from site 0: (site, parent, k, forward) for every site it reaches past
    site 0, each after its parent, reached over forest edge k, which runs
    parent -> site when forward."""
    root = list(range(N))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    forest = []
    for j, (a, b) in enumerate(edge_idx.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
            forest.append(j)
    ends = edge_idx[forest]
    walk, reached = [], [0]
    for site in reached:
        for k, (a, b) in enumerate(ends.tolist()):
            if site in (a, b) and a + b - site not in reached:
                reached.append(a + b - site)
                walk.append((a + b - site, site, k, a == site))
    return ends, walk


def _components(n, a, b, label=None):
    """Connected components of the graph on nodes 0..n-1 (n < 2^31) with
    edges (a, b): the smallest node of each node's component, as int32.

    Label propagation (Shiloach & Vishkin, J. Algorithms 3, 57 (1982)): every
    edge whose ends carry different labels hooks the larger label onto the
    smaller, then pointer jumping (label = label[label]) takes each node to
    its root, until every edge has equal labels.  Labels only decrease and
    each stays in its node's component, so the smallest node of a component
    is its one root.  label, a result of this function over other edges on
    the same nodes, joins those edges' components with these."""
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    label = np.arange(n, dtype=np.int32) if label is None else label.copy()
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return label
        la, lb = la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _orbit_index(canon):
    """(reps, index) for canon, each node's smallest class member (a
    _components result): the distinct members in ascending order and each
    node's position among them, as np.unique(canon, return_inverse=True)
    gives them, without its sort."""
    is_rep = canon == np.arange(len(canon))
    return np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[canon]


def _generators(perms):
    """Rows of perms that generate the same group as all of them, picked
    greedily in row order."""
    N = perms.shape[1]
    gens, group = [], {tuple(range(N))}
    for g in perms:
        if tuple(g) in group:
            continue
        gens.append(g)
        group, frontier = set(), [np.arange(N)]
        while frontier:
            h = frontier.pop()
            if tuple(h) not in group:
                group.add(tuple(h))
                frontier.extend(s[h] for s in gens)
    return gens


def _pattern_images(nt, perms, p):
    """Pattern index of the image of pattern p under each row of perms.

    The row g carries numbering x to the numbering with x[i] at site g[i],
    whose step pattern is the image of x's.  Its index reads its steps on
    the forest edges in base 3, as _forest_index does for a whole table,
    but in one product over all edges: on the few dozen rows of perms,
    _forest_index's loop over the edges takes two to four times as long
    (3x3 torus and ring 7).  A global shift of the numbering changes no step,
    so site 0 need not be brought back to 0 first."""
    moved = np.empty(perms.shape, dtype=np.int64)
    moved[np.arange(len(perms))[:, None], perms] = nt.digits[p]
    a, b = nt.forest_ends.T
    return ((moved[:, b] - moved[:, a]) % 3) @ 3 ** np.arange(len(a) - 1, -1, -1)


def _pair_key(nt, perms, p1, p2):
    """The orbit key of the pattern pair (p1, p2) under the symmetries in
    perms applied to both copies at once: its lexicographically smallest
    image pair (g.p1, g.p2), as pattern indices (see _pattern_images)."""
    images = (_pattern_images(nt, perms, p).tolist() for p in (p1, p2))
    return min(zip(*images))


def _pattern_demands(edge_idx, steps):
    """Pairing demands of a step pattern as slot numbers (see
    epr_min_energy), in edge order: a forward step on edge (a, b) asks slot
    (a, 2), number 2a + 1, to pair with (b, 1), number 2b; a reverse one
    (b, 2) with (a, 1)."""
    out = []
    for (a, b), s in zip(edge_idx.tolist(), steps.tolist()):
        if s:
            out.append((2 * a + 1, 2 * b) if s == 1 else (2 * b + 1, 2 * a))
    return out


class NumberingTable:
    """Per-edge step patterns and exact pairing minima for every numbering of
    a small lattice, with the patterns grouped by zero mask.

    A connected lattice gives each step pattern from exactly three numberings,
    a global shift apart, so the table holds the 3^(N-1) numberings with
    site 0 fixed to 0: patterns[p] is the pattern of digits[p], in ascending
    order of their base-3 codes (first edge most significant).
    A pattern's zero mask marks the edges whose ends carry equal digits, so
    it is also the same-color mask of its digits read as a coloring: the
    distinct zero masks, zero_groups, are every same-color mask, and
    group_rep holds the pattern whose digits come first in lexicographic
    order in each group.  Pairing energies depend only on the step pattern
    and are invariant under the lattice symmetries, so they are solved once
    per symmetry orbit of patterns and broadcast to the orbit's members.

    The rows are built in that order, with no sort.  Take the edges in edge
    order and keep each one that closes no cycle: the N - 1 kept edges, the
    forest, span the lattice, and any other edge's step is a signed sum of
    the steps of forest edges that come before it.  So the first edge where
    two patterns differ is a forest edge, and the patterns in code order are
    the forest steps counted in base 3, first forest edge most significant:
    the site-0 digit table's rows, entry k + 1 read as forest edge k's step.
    Each row's digits follow from site 0 along the forest, and the pattern
    index of any numbering is its steps on the forest edges, whose (tail,
    head) sites forest_ends lists, read in base 3 (_forest_index)."""

    def __init__(self, spec):
        # the site-0 digit table, one contiguous row per site: its columns
        # read as digits are the numberings in lexicographic order, and read
        # as forest steps (entry k + 1 for forest edge k) the patterns in
        # code order; each intermediate is dropped once read, so the build
        # peaks near the size of the tables it keeps
        table = _site0_digits(spec).T
        N, P = table.shape
        self.spec = spec
        self.edge_idx = edge_index_array(spec)
        self.num_edges = E = len(self.edge_idx)
        # taken in lexicographic order, one np.unique over the zero masks
        # gives the groups, each group's first row and every row's group;
        # violation counts depend on a pattern only through its group
        row_mask = np.zeros(P, dtype=np.uint64)
        for j, (a, b) in enumerate(self.edge_idx.tolist()):
            row_mask |= (table[a] == table[b]).astype(np.uint64) << np.uint64(j)
        self.zero_groups, first, row_group = np.unique(
            row_mask, return_index=True, return_inverse=True
        )
        del row_mask
        self.forest_ends, walk = _forest_walk(self.edge_idx, N)
        # pattern index of the numbering in each row of the site-0 digit table
        pattern_at = _forest_index(table, self.forest_ends)
        self.group_rep = pattern_at[first]
        self.group_of = np.empty_like(row_group)
        self.group_of[pattern_at] = row_group
        del row_group, pattern_at
        digits = np.zeros_like(table)
        for site, parent, k, forward in walk:
            step = table[k + 1]
            digits[site] = _mod3(digits[parent] + step if forward else digits[parent] - step)
        del table
        self.digits = digits.T
        self.orbit_reps, self.orbit_of = self._orbits()
        patterns = np.empty((E, P), dtype=np.int8)
        for j, (a, b) in enumerate(self.edge_idx.tolist()):
            patterns[j] = _mod3(digits[b] - digits[a])
        self.patterns = patterns.T
        self.epr = np.zeros(P)
        self.epr_exact = np.zeros(P, dtype=bool)

    def _orbits(self):
        """Lattice-symmetry orbits of the step patterns: (orbit_reps,
        orbit_of), each orbit's smallest pattern index in ascending order and
        the orbit index of every pattern.

        A symmetry g moves numbering x to the numbering y that carries x[i]
        at site g[i], and y's step pattern is the image of x's: its index
        reads x's steps along the forest edges' ends moved back by g.
        The images under a generating set of the symmetries join the
        patterns into connected components, the orbits, taken one generator
        at a time."""
        digits = self.digits.T
        P = digits.shape[1]
        items = np.arange(P, dtype=np.int32)
        label = items
        for g in _generators(lattice_symmetry_permutations(self.spec)):
            # y at site s is x at site argsort(g)[s]
            image = _forest_index(digits, np.argsort(g)[self.forest_ends])
            label = _components(P, items, image, label)
        return _orbit_index(label)

    def broadcast(self, rep_values):
        """Spread per-orbit values (in orbit_reps order) over every pattern."""
        return np.asarray(rep_values)[self.orbit_of]

    def solve_all(self):
        """Pairing minima of every pattern, through its orbit representative.

        The slot components of all representatives are labeled at once.  A
        component is keyed by its step pattern restricted to its own edges,
        and each distinct key is solved by one epr_min_energy call.  Each
        representative then adds its components' values one at a time from 0,
        ordered as epr_min_energy orders them (most slots first, then first
        demand edge), so every value is bit-identical to solving
        the representative on its own."""
        reps = self.patterns[self.orbit_reps]
        R, E = reps.shape
        # demand d joins slot (tail, 2) to slot (head, 1); slot (x, port) of
        # representative r is node r*2N + 2x + port - 1
        r, j = np.nonzero(reps)
        fwd = reps[r, j] == 1
        a, b = self.edge_idx[j, 0], self.edge_idx[j, 1]
        base = r * (2 * self.spec.num_sites)
        tail = base + 2 * np.where(fwd, a, b) + 1
        head = base + 2 * np.where(fwd, b, a)
        label = _components(R * 2 * self.spec.num_sites, tail, head)[tail]
        # components, each with its representative, first demand edge and key
        _, first, comp = np.unique(label, return_index=True, return_inverse=True)
        comp_rep, comp_edge = r[first], j[first]
        weight = 3 ** np.arange(E - 1, -1, -1, dtype=np.int64)
        key = np.zeros(len(first), dtype=np.int64)
        np.add.at(key, comp, weight[j] * reps[r, j])
        # one epr_min_energy call per distinct key
        keys, key_of = np.unique(key, return_inverse=True)
        solved = [
            epr_min_energy(_pattern_demands(self.edge_idx, (code // weight) % 3)).components[0]
            for code in keys
        ]
        value = np.array([c.value for c in solved])[key_of]
        exact = np.array([c.exact for c in solved], dtype=bool)[key_of]
        slots = np.array([c.num_slots for c in solved], dtype=np.int64)[key_of]
        # each representative's sum, one component at a time
        order = np.lexsort((comp_edge, -slots, comp_rep))
        rep_sorted, value = comp_rep[order], value[order]
        position = np.arange(len(order)) - np.searchsorted(rep_sorted, rep_sorted)
        total = np.zeros(R)
        for k in range(int(position.max(initial=-1)) + 1):
            at = position == k
            total[rep_sorted[at]] += value[at]
        rep_exact = np.ones(R, dtype=bool)
        rep_exact[comp_rep[~exact]] = False
        self.epr = self.broadcast(total)
        self.epr_exact = self.broadcast(rep_exact)


class ColoringTable:
    """The distinct same-color edge masks of a small lattice, with one
    representative coloring per mask, each mask's loop penalty, mask-level
    geometry flags and the lattice-symmetry orbits of the masks, all read off
    a NumberingTable.

    A global shift of the colors keeps every mask, and a coloring's mask is
    the zero mask of the numbering with the same digits, so the masks are the
    numbering table's zero groups (2,914 on the 3x3 torus).  Each mask's
    representative is its group's first site-0 row in lexicographic order,
    which is also its first coloring over all 3^N.  A symmetry carries a
    pattern to a pattern and the pattern's zero mask to the image mask, and
    every mask is some pattern's zero mask, so the mask orbits are the
    pattern orbits read through group_of: orbit_reps and orbit_of group the
    masks as NumberingTable groups the patterns (75 orbits on the 3x3
    torus)."""

    def __init__(self, nt):
        self.spec = nt.spec
        self.edge_idx = nt.edge_idx
        self.num_edges = nt.num_edges
        self.masks = nt.zero_groups
        self.rep_coloring = nt.digits[nt.group_rep]
        self.same_count = _popcount(self.masks)
        # the loop weight for each different-color edge
        self.loop_cost = DEFAULT_COEFFICIENTS["loop"] * (self.num_edges - self.same_count)
        bits = np.arange(self.num_edges, dtype=np.uint64)
        same = ((self.masks[:, None] >> bits) & np.uint64(1)).astype(bool)
        deg, self.has_turn = same_color_geometry(self.spec, same)
        self.same_degree = deg.astype(np.int8)
        self.looped = (deg == 2).all(axis=1)
        # each pattern joins its own mask to its orbit representative's
        group_of = nt.group_of
        canon = _components(len(self.masks), group_of, group_of[nt.orbit_reps[nt.orbit_of]])
        self.orbit_reps, self.orbit_of = _orbit_index(canon)


@functools.lru_cache(maxsize=None)
def _tables(spec):
    """The solved numbering table and the coloring table read off it, built
    once per lattice from one enumeration of the site-0 rows and shared by
    every later search in the process."""
    nt = NumberingTable(spec)
    nt.solve_all()
    return nt, ColoringTable(nt)


def _mask_violations(rows, ct):
    """The row kernel: for each mask m indexed by rows and each mask z of ct,
    tile * (2*|m & z| + E - |m| - |z|), the tile penalty under color mask m
    of every step pattern whose zero mask is z.  Shape (len(rows), M)."""
    viol = 2 * _popcount(ct.masks[rows, None] & ct.masks) - ct.same_count
    viol += ct.num_edges - ct.same_count[rows, None]
    return DEFAULT_COEFFICIENTS["tile"] * viol


def _pattern_costs(i, nt, ct, base):
    """tile*violations + base of every step pattern under mask i of ct; base
    holds one value per pattern."""
    return _mask_violations([i], ct)[0][nt.group_of] + base


def _q_sweep(nt, ct, extra=None):
    """Per mask, the min over step patterns of tile*violations + (pairing +
    extra), and a function giving, for one mask index, the smallest pattern
    index attaining it.

    extra holds one value per pattern orbit, in orbit_reps order, and is
    broadcast inside, so like the pairing minima it is invariant under the
    lattice symmetries.  A violation count depends on a pattern only through
    its zero group, so q is one min-plus product of the kernel against each
    group's smallest pairing + extra; rounding is monotone, so each q is
    bit-identical to the smallest per-pattern cost.  A symmetry maps masks to
    masks and zero groups to zero groups and keeps every violation count, so
    a mask's q is its orbit representative's: the kernel runs over the
    representatives only, in blocks of about SWEEP_BLOCK elements, and q is
    broadcast to the other masks.  The argmin is the np.argmin of one mask's
    _pattern_costs, computed only for the masks read."""
    base = nt.epr if extra is None else nt.epr + nt.broadcast(extra)
    group_min = np.full(len(ct.masks), np.inf)
    np.minimum.at(group_min, nt.group_of, base)
    reps = ct.orbit_reps
    q = np.empty(len(reps))
    step = max(1, SWEEP_BLOCK // len(ct.masks))
    for s in range(0, len(reps), step):
        q[s : s + step] = (_mask_violations(reps[s : s + step], ct) + group_min).min(axis=1)

    def argmin(i):
        return int(np.argmin(_pattern_costs(i, nt, ct, base)))

    return q[ct.orbit_of], argmin


@dataclass
class EnergyReport:
    spec: LatticeSpec
    plug_name: str
    minimum: float
    argmin: Tiling | None
    certified: bool
    categories: dict
    stats: dict
    thresholds: dict | None = None
    decision: str | None = None

    def to_json_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "spec": self.spec.to_json_dict(),
            "plug": self.plug_name,
            "minimum": self.minimum,
            "argmin": None if self.argmin is None else self.argmin.to_json_dict(),
            "certified": self.certified,
            "categories": self.categories,
            "stats": self.stats,
            "thresholds": self.thresholds,
            "decision": self.decision,
        }


def _slack(limit, values1):
    """The rounding slack of a bound on a float sum values1[i] + values2[j]
    + copy*k tested against limit: far above the rounding error of any such
    sum, so that a slack only admits extra candidates, which the exact test
    val <= limit then drops."""
    return 1e-9 * (1 + abs(limit) + np.abs(values1))


def _prefix_counts(values1, sorted2, limit):
    """For each row i, the length of the prefix of sorted2 (values2 in
    ascending order) whose bound values1[i] + values2[j] can reach limit, 0
    where values1[i] is not finite."""
    finite = np.isfinite(values1)
    # a float sum at most limit needs values2[j] <= limit - values1[i] up to
    # rounding
    reach = np.full(len(values1), -np.inf)
    reach[finite] = limit - values1[finite] + _slack(limit, values1[finite])
    return np.searchsorted(sorted2, reach, side="right")


def _pairs_below(values1, values2, masks, limit, order=None, counts=None):
    """Every mask pair whose value values1[i] + values2[j] + copy*|m_i & m_j|
    is at most limit, as (value, i, j) arrays in lexicographic order, with
    the copy-coupling weight copy >= 0.

    values1[i] + values2[j] bounds a pair's value from below, so each row i
    evaluates only the prefix of values2, in ascending order, whose bound
    can reach limit: its _prefix_counts over values2's stable ascending
    order, which a caller that holds them passes in.  The exact test
    val <= limit drops what the slack admitted.  Candidates go through in
    blocks of about SWEEP_BLOCK."""
    copy = DEFAULT_COEFFICIENTS["copy"]
    if order is None:
        order = np.argsort(values2, kind="stable")
        counts = _prefix_counts(values1, values2[order], limit)
    rows = np.flatnonzero(counts)
    ends = np.cumsum(counts[rows])
    found = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    start = 0
    while start < len(rows):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + SWEEP_BLOCK, side="right")))
        c = counts[rows[start:stop]]
        i = np.repeat(rows[start:stop], c)
        j = order[np.arange(len(i)) - np.repeat(np.cumsum(c) - c, c)]
        val = values1[i] + values2[j] + copy * _popcount(masks[i] & masks[j])
        keep = val <= limit
        found.append((val[keep], i[keep], j[keep]))
        start = stop
    val, i, j = (np.concatenate(parts) for parts in zip(*found))
    lex = np.lexsort((j, i, val))
    return val[lex], i[lex], j[lex]


def _overlap_floor(values2, masks, bits):
    """g(y) = min over j of values2[j] + copy*|m_j & y|, for every y of the
    given number of bits, as a 2^bits array indexed by y: the masks are
    distinct, so values2 scatters onto them, and one min-plus pass per bit
    moves that bit from the masks' side to y's (a separable distance
    transform: Felzenszwalb & Huttenlocher, Theory of Computing 8, 415
    (2012)), in bits * 2^bits steps."""
    copy = DEFAULT_COEFFICIENTS["copy"]
    g = np.full(1 << bits, np.inf)
    g[masks.astype(np.intp)] = values2
    for b in range(bits):
        half = g.reshape(-1, 2, 1 << b)
        low = np.minimum(half[:, 0], half[:, 1])
        np.minimum(half[:, 0], half[:, 1] + copy, out=half[:, 1])
        half[:, 0] = low
    return g


def _pair_sweep(values1, values2, masks):
    """min over ordered mask pairs of values1[i] + values2[j] + copy*|m_i & m_j|,
    with the lexicographically smallest (i, j) attaining it.

    The pair of the two row minima seeds the limit for _pairs_below.  When
    _overlap_floor's bits * 2^bits steps are fewer than the candidate pairs
    that limit admits, it gives each row's exact minimum values1[i] +
    g(m_i) up to rounding, so the limit drops to the smallest row minimum
    plus a slack, and only the rows within that slack of it are listed.
    Every pair attaining the minimum lies in such a row and under that
    limit, and _pairs_below's exact test and lexicographic order pick the
    same value and pair as from the seed."""
    i, j = int(np.argmin(values1)), int(np.argmin(values2))
    copy = DEFAULT_COEFFICIENTS["copy"]
    limit = values1[i] + values2[j] + copy * _popcount(masks[i] & masks[j])
    if not np.isfinite(limit):
        return np.inf, (0, 0)
    order = np.argsort(values2, kind="stable")
    sorted2 = values2[order]
    counts = _prefix_counts(values1, sorted2, limit)
    bits = int(masks.max()).bit_length()
    if bits << bits < counts.sum():
        row_min = values1 + _overlap_floor(values2, masks, bits)[masks.astype(np.intp)]
        lo = row_min.min()
        slack = _slack(lo, values1[np.isfinite(values1)]).max()
        values1 = np.where(row_min <= lo + slack, values1, np.inf)
        limit = min(limit, lo + slack)
        counts = _prefix_counts(values1, sorted2, limit)
    val, rows, cols = _pairs_below(values1, values2, masks, limit, order, counts)
    return float(val[0]), (int(rows[0]), int(cols[0]))


def _joint_minimum(nt, plug, keys, minima, p1, p2):
    """lambda_min(H_h(p1) + H_v(p2)), solved once per orbit of pattern pairs
    on its key (see _pair_key): keys maps each pattern pair met to its key,
    minima each key solved to its value."""
    if (p1, p2) not in keys:
        keys[p1, p2] = key = _pair_key(nt, lattice_symmetry_permutations(nt.spec), p1, p2)
        if key not in minima:
            minima[key] = embedded_step_energy(nt.spec, *nt.patterns[list(key)], plug)
    return minima[keys[p1, p2]]


def _refine_mask_pair(nt, ct, plug, keys, minima, i, j, best, sector):
    """(best, sector) after the numbering pairs of mask pair (i, j): a pattern
    pair replaces the incumbent only with a strictly smaller total.  The
    pair of the copies' classical argmins comes first; embedded parts are
    nonnegative, so no pair outside the window it leaves can win."""
    inter = int(np.bitwise_count(ct.masks[i] & ct.masks[j]))
    base = float(ct.loop_cost[i] + ct.loop_cost[j] + DEFAULT_COEFFICIENTS["copy"] * inter)
    v1, v2 = _pattern_costs(i, nt, ct, nt.epr), _pattern_costs(j, nt, ct, nt.epr)
    pa, pb = int(np.argmin(v1)), int(np.argmin(v2))
    total = base + float(v1[pa] + v2[pb]) + _joint_minimum(nt, plug, keys, minima, pa, pb)
    if total < best:
        best, sector = total, (i, j, pa, pb)
    limit = best - base
    for p1 in np.flatnonzero(v1 + v2.min() <= limit).tolist():
        for p2 in np.flatnonzero(v2 <= limit - v1[p1]).tolist():
            total = base + float(v1[p1] + v2[p2]) + _joint_minimum(nt, plug, keys, minima, p1, p2)
            if total < best:
                best, sector = total, (i, j, p1, p2)
    return best, sector


def _joint_refinement(spec, nt, ct, plug, values1, values2, seed):
    """(minimum, sector, refinements) of a plug that acts on both copies:
    sector is the (i, j, p1, p2) attaining the minimum, None where the
    striped witness does, and refinements the number of pattern pairs keyed.

    The separable values bound each mask pair's total from below, so the
    pairs whose bound undercuts the incumbent are refined in ascending
    order of bound.  The seed pair, the sweep's argmin, goes first, so the
    listing's limit is finite; listed again, it changes nothing.  The
    striped witness, where the lattice has one, is the first incumbent and
    so breaks ties in the argmin."""
    keys, minima = {}, {}
    best, sector = np.inf, None
    if spec.n % 3 == 0 and spec.r >= 2:
        best = tile_sector_energy(striped_witness(spec), plug).total
    best, sector = _refine_mask_pair(nt, ct, plug, keys, minima, *seed, best, sector)
    bounds, rows, cols = _pairs_below(values1, values2, ct.masks, best)
    for bound, i, j in zip(bounds.tolist(), rows.tolist(), cols.tolist()):
        if bound >= best:
            break
        best, sector = _refine_mask_pair(nt, ct, plug, keys, minima, i, j, best, sector)
    return best, sector, len(keys)


def _categories(ct, values1, values2):
    """Each category's minimum over mask pairs, None where it has no pair:
    the flags apply per copy, and where one copy must carry a flag both
    orientations count, since a plug may treat the copies unequally."""
    L, T = ct.looped, ct.has_turn
    every = np.ones(len(ct.masks), dtype=bool)
    cat = {}
    for name, allowed in (
        ("both_copies_straight_looped", [(L & ~T, L & ~T)]),
        ("some_copy_not_looped", [(~L, every), (every, ~L)]),
        ("some_copy_looped_with_turn", [(L & T, every), (every, L & T)]),
    ):
        v = min(
            _pair_sweep(np.where(a, values1, np.inf), np.where(b, values2, np.inf), ct.masks)[0]
            for a, b in allowed
        )
        cat[name] = v if v < np.inf else None
    cat["looped_with_turn_masks"] = int((L & T).sum())
    return cat


@one_blas_thread()
def ground_energy_search(spec, plug=None):
    """Exhaustive certified minimum of the summed term over all tile sectors.

    Sectors are grouped by (same-color mask, step pattern) per copy; the
    groups cover every sector exactly once, so the sweep is exhaustive even
    though nothing is enumerated site by site.  Feasible when 3^(sites) is
    enumerable; larger lattices raise BudgetExceeded.

    The phases: tables, per-copy mask minima, pair sweep, joint refinement
    where the plug acts on both copies, categories.  embedded_refinements
    counts the distinct pattern pairs refined, not the eigensolves, which
    number one per orbit met.  The search runs on one OpenBLAS thread even
    where the caller chose more, and gives the caller's thread counts back on
    return.
    """
    t0 = time.perf_counter()
    nt, ct = _tables(spec)
    # like the pairing minima, one-copy embedded minima are invariant under
    # the lattice symmetries: one pattern per orbit is solved, and a term
    # that does not act leaves its copy's entry None
    zero = np.zeros(nt.num_edges, dtype=np.int8)
    reps = nt.patterns[nt.orbit_reps]
    eh = ev = None
    if plug is not None and np.count_nonzero(plug.horizontal):
        eh = [embedded_step_energy(spec, s, zero, plug) for s in reps]
    if plug is not None and np.count_nonzero(plug.vertical):
        ev = [embedded_step_energy(spec, zero, s, plug) for s in reps]
    q1, argn1 = _q_sweep(nt, ct, eh)
    q2, argn2 = (q1, argn1) if eh is None and ev is None else _q_sweep(nt, ct, ev)
    values1, values2 = ct.loop_cost + q1, ct.loop_cost + q2
    best, (i, j) = _pair_sweep(values1, values2, ct.masks)
    separable = eh is None or ev is None
    if separable:
        sector, refinements = (i, j, argn1(i), argn2(j)), 0
    else:
        best, sector, refinements = _joint_refinement(spec, nt, ct, plug, values1, values2, (i, j))
    if sector is None:
        argmin = striped_witness(spec)
    else:
        i, j, p1, p2 = sector
        argmin = Tiling(spec, ct.rep_coloring[i], nt.digits[p1], ct.rep_coloring[j], nt.digits[p2])
    # the refinement, if any, explored every pair under the bound, so the
    # minimum is certified unless some pairing value is only a bound; with a
    # non-separable plug the category figures omit the cross-copy part of
    # the embedded energy, so they are certified lower bounds only
    return EnergyReport(
        spec=spec,
        plug_name="zero" if plug is None else plug.name,
        minimum=float(best),
        argmin=argmin,
        certified=bool(nt.epr_exact.all()),
        categories={**_categories(ct, values1, values2), "exact": separable},
        stats={
            "distinct_masks": len(ct.masks),
            "distinct_step_patterns": len(nt.patterns),
            "sectors_total": 9**spec.num_sites,
            "mask_pairs_swept": len(ct.masks) ** 2,
            "embedded_refinements": refinements,
            "elapsed_seconds": round(time.perf_counter() - t0, 3),
        },
    )


def single_copy_floor_check(spec):
    """Verify, for every single-copy tile sector of a small lattice, that the
    sector energy respects the counting floor of tiling.counting_floor,
    minimizing over all numberings per color mask.  Returns (ok, margin) with
    the smallest slack found."""
    nt, ct = _tables(spec)
    if not nt.epr_exact.all():
        return False, -np.inf
    q, _ = _q_sweep(nt, ct)
    floor = counting_floor(nt.num_edges, ct.same_degree.astype(int))
    energy = ct.loop_cost + q
    worst = float((energy - floor).min())
    return bool(worst > -1e-9), worst
