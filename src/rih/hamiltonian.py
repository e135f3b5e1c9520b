"""Two-body nearest-neighbor term assembly.

Each site carries, in fixed order (first factor most significant in the basis
index):

    color1(3), number1(3), color2(3), number2(3),
    qin1(2), qout1(2), qin2(2), qout2(2), embedded(d)

The 3-level factors are the two copies of the classical tile; qin/qout are the
qubits that form pairs with the neighboring sites (qout of the lower-numbered
site pairs with qin of the next one along the 0->1->2->0 cycle); the embedded
factor is the site space of a pluggable translation-invariant two-dimensional
model.  The two-site basis index is u_state * site_dim + v_state.

The term is a sum of projector-style summands with integer weights:

    tile rules (8), pairing penalties (16), different-color penalty (2),
    both-copies-same-color penalty (1), and the embedded horizontal and
    vertical terms (1 each), conditioned on the number step of copy 1 and
    copy 2 respectively, with the reversed step applying the swap-conjugated
    embedded term.

Every summand is diagonal on the tile factors, so the term decomposes into
blocks labeled by the two sites' tile indices.  Assembly and the symmetry
checks ride on that block structure.  The canonical sparse matrix is produced
from it one band at a time, a band being the rows of one first-site tile, so
the term's hash and its tile-diagonality check read the matrix without ever
holding it; materializing the matrix fills it from the same bands.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from rih.lattice import edge_index_array

DEFAULT_COEFFICIENTS = {
    "tile": 8.0,
    "pairing": 16.0,
    "loop": 2.0,
    "copy": 1.0,
    "horizontal": 1.0,
    "vertical": 1.0,
}

# (identity - projector onto the maximally entangled pair) / 2, basis 00,01,10,11
EPR_HALF_PROJECTOR = np.array(
    [
        [0.25, 0.0, 0.0, -0.25],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [-0.25, 0.0, 0.0, 0.25],
    ]
)

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-9
MAX_MATRIX_NNZ = 50_000_000
GLOBAL_DIM_CAP = 2**26  # largest many-site space global_hamiltonian builds


@dataclass(frozen=True)
class FactorLayout:
    """Ordered tensor factors of one site; tile factors come first."""

    dims: tuple
    num_tile_factors: int

    @property
    def site_dim(self):
        return int(np.prod(self.dims))

    @property
    def tile_dim(self):
        return int(np.prod(self.dims[: self.num_tile_factors]))

    @property
    def inner_dim(self):
        return int(np.prod(self.dims[self.num_tile_factors :]))

    @property
    def pair_dim(self):
        return self.site_dim**2


def two_copy_layout(d):
    return FactorLayout(dims=(3, 3, 3, 3, 2, 2, 2, 2, d), num_tile_factors=4)


def single_copy_layout():
    return FactorLayout(dims=(3, 3, 2, 2), num_tile_factors=2)


@functools.lru_cache(maxsize=1024)
def _offsets(dims, positions):
    """Flat offsets, in the mixed-radix space with the given dims, of every
    joint setting of the factors at positions, the first listed most
    significant; read-only."""
    out = np.zeros(1, dtype=np.int64)
    for p in positions:
        stride = math.prod(dims[p + 1 :])
        out = np.add.outer(out, np.arange(dims[p], dtype=np.int64) * stride).ravel()
    out.setflags(write=False)
    return out


def dense_entries(mat):
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat)
    return rows.astype(np.int64), cols.astype(np.int64), mat[rows, cols]


def embed_operator(entries, positions, dims):
    """Scatter a small operator into the mixed-radix space with the given dims.

    entries is a (rows, cols, vals) triple over the small space whose radix is
    [dims[p] for p in positions], most significant first in the listed order.
    Listing positions in a transposed order embeds the correspondingly
    conjugated operator, which is how mirrored terms are produced.  Returns
    COO triples over the full space; the identity is implied on the rest.
    """
    dims = tuple(dims)
    positions = tuple(positions)
    srows, scols, svals = entries
    own = _offsets(dims, positions)
    rest = _offsets(dims, tuple(p for p in range(len(dims)) if p not in positions))
    rows = (own[np.asarray(srows, dtype=np.int64)][:, None] + rest[None, :]).ravel()
    cols = (own[np.asarray(scols, dtype=np.int64)][:, None] + rest[None, :]).ravel()
    vals = np.repeat(np.asarray(svals), len(rest))
    return rows, cols, vals


def swap_permutation(m):
    """Index permutation of the two-site space |a,b> -> |b,a>, per-site dim m."""
    idx = np.arange(m * m, dtype=np.int64)
    return (idx % m) * m + idx // m


class BudgetExceeded(RuntimeError):
    """A size cap refused an input before anything was allocated."""


class PlugValidationError(ValueError):
    pass


def _check_hermitian_psd(name, mat, d):
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (d * d, d * d):
        raise PlugValidationError(f"{name} must be {d * d}x{d * d} for embedded dim {d}")
    defect = np.abs(mat - mat.conj().T).max()
    if defect > HERMITICITY_TOL:
        raise PlugValidationError(f"{name} is not Hermitian (defect {defect:.3e})")
    lo = float(np.linalg.eigvalsh(mat).min())
    if lo < -PSD_TOL:
        raise PlugValidationError(f"{name} is not positive semidefinite (min eig {lo:.3e})")
    if np.abs(mat.imag).max() == 0.0:
        return mat.real.copy()
    return mat


class TranslationPlug:
    """Pluggable two-body terms of the embedded translation-invariant model.

    horizontal applies along copy-1 number steps, vertical along copy-2 steps.
    Both act on (left embedded factor, right embedded factor) and must be
    Hermitian and positive semidefinite.
    """

    def __init__(self, d, horizontal, vertical, name="custom"):
        if not isinstance(d, int) or d < 1:
            raise PlugValidationError(f"embedded dimension must be a positive integer, got {d!r}")
        if d > 4:
            raise PlugValidationError(f"embedded dimension capped at 4, got {d}")
        self.d = d
        self.horizontal = _check_hermitian_psd("horizontal term", horizontal, d)
        self.vertical = _check_hermitian_psd("vertical term", vertical, d)
        self.name = name

    def __repr__(self):
        return f"TranslationPlug(name={self.name!r}, d={self.d})"


def toy_plugs():
    """Small stand-in plugs: a trivial one, a frustration-free one, and a
    frustrated antiferromagnet."""
    zero = TranslationPlug(1, [[0.0]], [[0.0]], name="zero")
    ff = np.diag([0.0, 1.0, 1.0, 0.0])  # penalize mixed pairs 01 and 10
    frustration_free = TranslationPlug(2, ff, ff, name="frustration_free")
    afm = np.diag([1.0, 0.0, 0.0, 1.0])  # penalize aligned pairs 00 and 11
    antiferro = TranslationPlug(2, afm, np.zeros((4, 4)), name="afm")
    return {"zero": zero, "frustration_free": frustration_free, "afm": antiferro}


@dataclass
class BlockStructure:
    """Tile-diagonal decomposition: block (U, V) equals scalar[U, V] times the
    identity plus the variant operator selected by sig[U, V]."""

    inner_dims: tuple  # factor dims of (u inner, v inner), concatenated
    scalar: np.ndarray  # (tile_dim, tile_dim)
    sig: np.ndarray  # (tile_dim, tile_dim) int
    variants: list  # sig value -> (rows, cols, vals) over inner_dim**2
    mirror_sig: np.ndarray  # sig value under exchanging the two sites

    def variant_dense(self, s, dtype=None):
        n = int(np.round(np.sqrt(np.prod(self.inner_dims))))
        rows, cols, vals = self.variants[s]
        if dtype is None:
            dtype = vals.dtype if len(vals) else np.float64
        out = np.zeros((n * n, n * n), dtype=dtype)
        np.add.at(out, (rows, cols), vals)
        return out


def _epr_ops(step, out_u, in_v, out_v, in_u, weight):
    e = dense_entries(weight * EPR_HALF_PROJECTOR)
    if step == 1:
        return [(e, (out_u, in_v))]
    if step == 2:
        return [(e, (out_v, in_u))]
    return []


def _embedded_ops(step, emb_u, emb_v, mat):
    if np.count_nonzero(mat) == 0:
        return []
    e = dense_entries(mat)
    if step == 1:
        return [(e, (emb_u, emb_v))]
    if step == 2:
        # reversed step applies the swap-conjugated term, i.e. the same matrix
        # read with the two embedded factors exchanged
        return [(e, (emb_v, emb_u))]
    return []


def _build_blocks_two_copy(plug, w):
    d = plug.d
    layout = two_copy_layout(d)
    T = 81
    c1 = np.arange(T) // 27
    n1 = (np.arange(T) // 9) % 3
    c2 = (np.arange(T) // 3) % 3
    n2 = np.arange(T) % 3

    def illegal(cu, nu, cv, nv):
        return ((cu[:, None] == cv[None, :]) == (nu[:, None] == nv[None, :])).astype(float)

    scalar = w["tile"] * (illegal(c1, n1, c1, n1) + illegal(c2, n2, c2, n2))
    scalar += w["loop"] * (c1[:, None] != c1[None, :]).astype(float)
    scalar += w["loop"] * (c2[:, None] != c2[None, :]).astype(float)
    scalar += w["copy"] * ((c1[:, None] == c1[None, :]) & (c2[:, None] == c2[None, :]))

    s1 = (n1[None, :] - n1[:, None]) % 3
    s2 = (n2[None, :] - n2[:, None]) % 3
    sig = (s1 * 3 + s2).astype(np.int16)

    # inner factor order: u then v, each (qin1, qout1, qin2, qout2, embedded)
    inner_dims = (2, 2, 2, 2, d, 2, 2, 2, 2, d)
    U_IN1, U_OUT1, U_IN2, U_OUT2, U_EMB = 0, 1, 2, 3, 4
    V_IN1, V_OUT1, V_IN2, V_OUT2, V_EMB = 5, 6, 7, 8, 9

    variants = []
    for a in range(3):
        for b in range(3):
            ops = []
            ops += _epr_ops(a, U_OUT1, V_IN1, V_OUT1, U_IN1, w["pairing"])
            ops += _epr_ops(b, U_OUT2, V_IN2, V_OUT2, U_IN2, w["pairing"])
            ops += _embedded_ops(a, U_EMB, V_EMB, w["horizontal"] * plug.horizontal)
            ops += _embedded_ops(b, U_EMB, V_EMB, w["vertical"] * plug.vertical)
            variants.append(_sum_embedded(ops, inner_dims))

    mirror = np.array([((-a) % 3) * 3 + ((-b) % 3) for a in range(3) for b in range(3)])
    return layout, BlockStructure(inner_dims, scalar, sig, variants, mirror)


def _build_blocks_single_copy(w):
    layout = single_copy_layout()
    T = 9
    c = np.arange(T) // 3
    n = np.arange(T) % 3
    scalar = w["tile"] * ((c[:, None] == c[None, :]) == (n[:, None] == n[None, :])).astype(float)
    scalar += w["loop"] * (c[:, None] != c[None, :])
    sig = ((n[None, :] - n[:, None]) % 3).astype(np.int16)

    inner_dims = (2, 2, 2, 2)  # u qin, u qout, v qin, v qout
    variants = [
        _sum_embedded(_epr_ops(s, 1, 2, 3, 0, w["pairing"]), inner_dims) for s in range(3)
    ]
    mirror = np.array([(-s) % 3 for s in range(3)])
    return layout, BlockStructure(inner_dims, scalar, sig, variants, mirror)


def _sum_embedded(ops, dims):
    """COO triples of the sum of the (entries, positions) pieces, each placed
    by embed_operator in the space with these dims, concatenated in order and
    duplicates not yet summed."""
    if not ops:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0)
    parts = [embed_operator(entries, positions, dims) for entries, positions in ops]
    return tuple(np.concatenate(x) for x in zip(*parts))


class TwoBodyTerm:
    """The assembled two-site operator, held block-diagonally over tile factors.

    The explicit sparse matrix is materialized lazily, band by band; symmetry
    checks work on the block structure so large embedded dimensions stay
    cheap, and term_hash and tile_diagonality_check scan the bands without
    materializing the matrix, caching their result on the term.
    """

    def __init__(self, layout, coefficients, blocks):
        self.layout = layout
        self.coefficients = dict(coefficients)
        self.blocks = blocks
        self._matrix = None
        self._audit = None  # (term_hash, tile diagonality), see _audit

    @property
    def site_dim(self):
        return self.layout.site_dim

    @property
    def pair_dim(self):
        return self.layout.pair_dim

    def matrix(self):
        """The explicit sparse matrix in canonical CSR form (sorted indices,
        duplicates summed, zeros dropped).  Raises BudgetExceeded, before any
        array of the term's size exists, if it has more than MAX_MATRIX_NNZ
        entries."""
        if self._matrix is None:
            self._matrix = self._materialize()
        return self._matrix

    def _materialize(self):
        bands = _Bands(self)
        indptr = np.zeros(self.pair_dim + 1, dtype=bands.index_dtype)
        indices = np.empty(bands.nnz, dtype=bands.index_dtype)
        data = np.empty(bands.nnz, dtype=bands.dtype)
        for lo, counts, cols, vals in bands():
            at = indptr[lo]
            ends = indptr[lo + 1 : lo + 1 + len(counts)]
            np.cumsum(counts, out=ends)
            ends += at
            indices[at : ends[-1]] = cols
            data[at : ends[-1]] = vals
        m = scipy.sparse.csr_matrix((data, indices, indptr), shape=(self.pair_dim, self.pair_dim))
        m.has_canonical_format = True
        return m


class _Bands:
    """A term's canonical CSR (sorted indices, duplicates summed, zeros
    dropped), one tile of the first site at a time: band U holds rows
    U*inner*site .. (U+1)*inner*site.

    Each band is computed from the term's distinct block types, so no array
    of the whole term's size exists; building one raises BudgetExceeded
    first if the term has more than MAX_MATRIX_NNZ entries."""

    def __init__(self, term):
        layout = term.layout
        self.rows = layout.inner_dim * layout.site_dim
        self.count = layout.tile_dim
        b = term.blocks
        inner = layout.inner_dim
        nn = inner * inner
        # blocks of one (scalar, variant) type hold the same inner operator
        types, type_of = np.unique(
            np.stack([b.scalar.ravel(), b.sig.ravel()], axis=1), axis=0, return_inverse=True
        )
        local = _type_blocks(b, types, nn)
        row_nnz = np.diff(local.indptr)
        type_of = type_of.reshape(b.scalar.shape)
        band_nnz = row_nnz.reshape(len(types), nn).sum(axis=1)[type_of].sum(axis=1)
        self.nnz = int(band_nnz.sum())
        if self.nnz > MAX_MATRIX_NNZ:
            raise BudgetExceeded(
                f"materializing this term needs {self.nnz} nonzeros (cap {MAX_MATRIX_NNZ}); "
                "use the block structure instead"
            )
        idx = scipy.sparse.get_index_dtype(
            maxval=max(self.nnz, layout.pair_dim, local.shape[0], local.nnz)
        )
        self.dtype, self.index_dtype = local.data.dtype, idx
        # row (au, V, av) of band U copies row au*inner + av of block (U, V)'s
        # type, and each entry keeps its column's offset from the row
        spread = (np.arange(nn) // inner) * layout.site_dim + np.arange(nn) % inner
        local_row = np.repeat(np.arange(local.shape[0]), row_nnz)
        self._shift = (spread[local.indices % nn] - spread[local_row % nn]).astype(idx)
        au = np.arange(inner, dtype=idx)
        self._inner_row = au[:, None, None] * inner + au
        self._type_row0 = type_of.astype(idx)[:, None, :, None] * nn
        self._row_nnz = row_nnz.astype(idx)
        self._starts = local.indptr.astype(idx)
        self._data = local.data

    def __call__(self, columns=True, values=True):
        """Yield (first row, row counts, column indices, values) band by
        band; a part not asked for is None."""
        for U in range(self.count):
            yield (U * self.rows, *self._build(U, columns, values))

    def _build(self, U, columns, values):
        type_row = (self._type_row0[U] + self._inner_row).ravel()
        counts = self._row_nnz[type_row]
        if not (columns or values):
            return counts, None, None
        # where each band entry sits in the stacked type blocks
        offsets = np.zeros(len(counts) + 1, dtype=self.index_dtype)
        np.cumsum(counts, out=offsets[1:])
        entry = np.repeat(self._starts[type_row] - offsets[:-1], counts)
        entry += np.arange(offsets[-1], dtype=self.index_dtype)
        cols = vals = None
        if columns:
            lo = U * self.rows
            cols = np.repeat(np.arange(lo, lo + self.rows, dtype=self.index_dtype), counts)
            cols += self._shift[entry]
        if values:
            vals = self._data[entry]
        return counts, cols, vals


def _type_blocks(b, types, nn):
    """The inner operator of every block type, as one block-diagonal canonical
    CSR with type t in rows and columns t*nn .. (t+1)*nn.

    Each type lists its scalar diagonal, then its variant entries, and the
    whole stack goes through one COO-to-CSR conversion, so duplicates are
    summed in the order and the dtype that converting the full term's COO at
    once would use."""
    diag = np.arange(nn, dtype=np.int64)
    rows, cols, vals = [], [], []
    for t, (s, sig) in enumerate(types):
        vr, vc, vv = b.variants[int(sig)]
        if s != 0.0:
            rows.append(t * nn + diag)
            cols.append(t * nn + diag)
            vals.append(np.full(nn, s))
        rows.append(t * nn + vr)
        cols.append(t * nn + vc)
        vals.append(vv)
    size = len(types) * nn
    m = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsr()
    m.eliminate_zeros()
    return m


def _coefficients(coefficient_overrides):
    """DEFAULT_COEFFICIENTS with the overrides applied; an unknown name or a
    non-finite value raises ValueError."""
    w = dict(DEFAULT_COEFFICIENTS)
    if coefficient_overrides:
        unknown = set(coefficient_overrides) - set(w)
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        bad = sorted(k for k, v in coefficient_overrides.items() if not math.isfinite(v))
        if bad:
            raise ValueError(f"coefficients must be finite: {bad}")
        w.update(coefficient_overrides)
    return w


def build_site_term(plug, coefficient_overrides=None):
    """Assemble the full two-copy two-site term for the given embedded plug.

    coefficient_overrides replaces individual summand weights; it exists so
    self-checks can demonstrate that perturbed weights break the published
    invariants, and is not part of the normal construction path.
    """
    w = _coefficients(coefficient_overrides)
    layout, blocks = _build_blocks_two_copy(plug, w)
    return TwoBodyTerm(layout, w, blocks)


def build_single_copy_term(coefficient_overrides=None):
    """One copy's term alone (tile rules, pairing, color penalty): the reduced
    model used by the cross-check oracles."""
    w = _coefficients(coefficient_overrides)
    layout, blocks = _build_blocks_single_copy(w)
    return TwoBodyTerm(layout, w, blocks)


@dataclass(frozen=True)
class SymmetryReport:
    hermitian: bool
    psd: bool
    swap_symmetric: bool
    min_eigenvalue: float
    hermiticity_defect: float
    swap_defect: float

    @property
    def passed(self):
        return self.hermitian and self.psd and self.swap_symmetric


def _check_via_blocks(term):
    b = term.blocks
    perm = swap_permutation(term.layout.inner_dim)
    used = [int(s) for s in np.unique(b.sig)]
    mirror = [int(m) for m in b.mirror_sig]

    def spectrum(t, F):
        fmin = float(np.linalg.eigvalsh((F + F.conj().T) / 2).min()) if len(b.variants[t][2]) else 0.0
        return float(np.abs(F - F.conj().T).max()), fmin

    def swap_of(F, G):
        return float(np.abs(F[np.ix_(perm, perm)] - G).max())

    # per-variant defects and minima; a variant and its mirror are checked
    # together, so each is built once and at most two are held at a time
    herm, fmin, swap = {}, {}, {}
    for s in used:
        if s in herm:
            continue
        m = mirror[s]
        F = b.variant_dense(s)
        herm[s], fmin[s] = spectrum(s, F)
        G = F if m == s else b.variant_dense(m)
        swap[s] = swap_of(F, G)
        if m in used and m not in herm:
            swap[m] = swap_of(G, F if mirror[m] == s else b.variant_dense(mirror[m]))
            F = None
            herm[m], fmin[m] = spectrum(m, G)
    herm_defect = 0.0
    lo = float("inf")
    for s in used:
        herm_defect = max(herm_defect, herm[s])
        lo = min(lo, float(b.scalar[b.sig == s].min()) + fmin[s])

    # exchanging the sites maps block (U,V) to (V,U) and conjugates the inner
    # operator by the inner swap; verify both halves of that statement
    swap_defect = float(np.abs(b.scalar - b.scalar.T).max())
    if not (b.mirror_sig[b.sig] == b.sig.T).all():
        swap_defect = max(swap_defect, float("inf"))
    for s in used:
        swap_defect = max(swap_defect, swap[s])
    return herm_defect, lo, swap_defect


def check_term_symmetries(term):
    """Verify Hermiticity, positive semidefiniteness, and symmetry under
    exchanging the two sites; returns a report.

    The check runs block by block: each inner variant is built dense once,
    next to its mirror, and no array of the term's size exists."""
    herm, lo, swap = _check_via_blocks(term)
    return SymmetryReport(
        hermitian=herm <= HERMITICITY_TOL,
        psd=lo >= -PSD_TOL,
        swap_symmetric=swap == 0.0,
        min_eigenvalue=lo,
        hermiticity_defect=herm,
        swap_defect=swap,
    )


def tile_diagonality_check(term):
    """True iff no matrix element connects basis states whose tile digits
    differ, on either site."""
    try:
        return _audit(term)[1]
    except BudgetExceeded:
        # built block-diagonally over tiles, so the property holds structurally
        return True


def term_hash(term):
    """sha256 of the term's canonical sparse entries.

    The digest covers the dimension and the entry count, then every entry of
    the canonical form (duplicates summed, zeros dropped) in row-major order:
    the rows as int64, the columns as int64, the real parts as float64 and,
    for a complex term only, the imaginary parts as float64.  The toy plugs'
    terms hold only dyadic rationals, so their digests are bit-stable across
    platforms.  Raises BudgetExceeded, before any band exists, for a
    block-built term of more than MAX_MATRIX_NNZ entries."""
    return _audit(term)[0]


def _audit(term):
    """(term_hash, tile diagonality) from one scan of the term's bands, in
    the digest's section order; cached on the term.  The column section and
    the tile check share one pass, since gathering the columns is most of a
    pass's cost."""
    if term._audit is not None:
        return term._audit
    bands = _Bands(term)
    h = hashlib.sha256()
    h.update(f"dim={term.pair_dim};nnz={bands.nnz};".encode())
    for lo, counts, _, _ in bands(columns=False, values=False):
        h.update(np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts))
    # a column shares its row's first-site tile iff it lies in the row's
    # band, and its second-site tile iff it has the same band offset // inner
    # mod tile_dim, which is the row's
    second = (np.arange(bands.rows) // term.layout.inner_dim) % term.layout.tile_dim
    diagonal = True
    for lo, counts, cols, _ in bands(values=False):
        h.update(cols.astype(np.int64))
        diagonal = diagonal and bool(
            (cols >= lo).all()
            and (cols < lo + bands.rows).all()
            and (second[cols - lo] == np.repeat(second, counts)).all()
        )
    for part in (np.real, np.imag)[: 1 + (bands.dtype.kind == "c")]:
        for *_, vals in bands(columns=False):
            h.update(np.ascontiguousarray(part(vals), dtype=np.float64))
    term._audit = (h.hexdigest(), diagonal)
    return term._audit


def global_hamiltonian(spec, term):
    """Explicit sparse sum of the term over all nearest-neighbor pairs."""
    s = term.site_dim
    N = spec.num_sites
    D = s**N
    if D > GLOBAL_DIM_CAP:
        raise BudgetExceeded(f"global dimension {D} exceeds cap {GLOBAL_DIM_CAP}")
    M = term.matrix().tocoo()
    ops = [((M.row, M.col, M.data), (a, b)) for a, b in edge_index_array(spec).tolist()]
    rows, cols, vals = _sum_embedded(ops, (s,) * N)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(D, D)).tocsr()
