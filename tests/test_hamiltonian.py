import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from rih import hamiltonian
from rih.hamiltonian import (
    DEFAULT_COEFFICIENTS,
    EPR_HALF_PROJECTOR,
    BudgetExceeded,
    PlugValidationError,
    TranslationPlug,
    TwoBodyTerm,
    build_single_copy_term,
    build_site_term,
    check_term_symmetries,
    embed_operator,
    global_hamiltonian,
    single_copy_layout,
    term_hash,
    tile_diagonality_check,
    toy_plugs,
    two_copy_layout,
    _Bands,
)
from rih.lattice import LatticeSpec

# frozen digest of the d=1 zero-plug pair term; the construction behind it was
# cross-checked entry for entry against naive loop-based and kron-based builds
GOLDEN_D1_HASH = "b2547d31b7ae05807d4aeca9a371687ac0b292abfa9975397a39179228c51d4c"


def naive_embed(small, positions, dims):
    """Reference embedding via explicit digit loops; deliberately simple."""
    D = int(np.prod(dims))
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    def digits(x):
        return [(x // strides[k]) % dims[k] for k in range(len(dims))]

    out = np.zeros((D, D), dtype=complex)
    for r in range(D):
        dr = digits(r)
        for c in range(D):
            dc = digits(c)
            if any(dr[k] != dc[k] for k in range(len(dims)) if k not in positions):
                continue
            sr = sc = 0
            for p in positions:
                sr = sr * dims[p] + dr[p]
                sc = sc * dims[p] + dc[p]
            out[r, c] = small[sr, sc]
    return out


def reference_band(term, U):
    """Rows U*inner*site .. (U+1)*inner*site of the term (tile U on the first
    site), built block by block as COO and converted to canonical CSR: the
    original construction, kept as the oracle of the vectorized one and
    restricted to one band of rows to bound its memory.  Also returns whether
    some row's entries come out of order before sorting."""
    b = term.blocks
    layout = term.layout
    inner = layout.inner_dim
    site = layout.site_dim
    local = np.arange(inner * inner, dtype=np.int64)
    spread = (local // inner) * site + local % inner
    rows, cols, vals = [], [], []
    for V in range(layout.tile_dim):
        off = V * inner
        s = float(b.scalar[U, V])
        if s != 0.0:
            rows.append(off + spread)
            cols.append(off + spread)
            vals.append(np.full(inner * inner, s))
        vr, vc, vv = b.variants[b.sig[U, V]]
        if len(vv):
            rows.append(off + spread[vr])
            cols.append(off + spread[vc])
            vals.append(vv)
    r = np.concatenate(rows)
    c = np.concatenate(cols) + U * inner * site
    order = np.argsort(r, kind="stable")
    unsorted = bool(((r[order][1:] == r[order][:-1]) & (c[order][1:] < c[order][:-1])).any())
    m = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (r, c)), shape=(inner * site, layout.pair_dim)
    ).tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    return m, unsorted


def canonical(M):
    M = M.tocsr()
    if not M.has_canonical_format or not M.data.all():
        M = M.copy()
        M.sum_duplicates()
        M.eliminate_zeros()
    return M


def reference_hash(M):
    """term_hash computed from a whole matrix at once: the original digest,
    kept as the oracle of the band scan."""
    M = canonical(M)
    h = hashlib.sha256()
    h.update(f"dim={M.shape[0]};nnz={M.nnz};".encode())
    h.update(np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr)))
    h.update(M.indices.astype(np.int64))
    h.update(np.ascontiguousarray(M.data.real, dtype=np.float64))
    if np.iscomplexobj(M.data):
        h.update(np.ascontiguousarray(M.data.imag, dtype=np.float64))
    return h.hexdigest()


def reference_tile_diagonal(layout, M):
    """tile_diagonality_check computed from a whole matrix by decoding both
    tile digits of every canonical entry's row and column."""
    M = canonical(M)
    inner, site, tile_dim = layout.inner_dim, layout.site_dim, layout.tile_dim

    def tiles(i):
        return (i // site // inner) * tile_dim + i % site // inner

    rows = np.repeat(np.arange(M.shape[0], dtype=M.indices.dtype), np.diff(M.indptr))
    return bool((tiles(rows) == tiles(M.indices)).all())


def sparse_complex_plug(seed):
    """A d=2 plug of two random rank-one projectors on 2-sparse complex
    vectors, with non-dyadic entries off the diagonal."""
    rng = np.random.default_rng(seed)

    def term():
        h = np.zeros((4, 4), dtype=complex)
        for _ in range(2):
            v = np.zeros(4, dtype=complex)
            at = rng.choice(4, 2, replace=False)
            v[at] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h += np.outer(v, v.conj())
        return h

    return TranslationPlug(2, term(), term(), name=f"sparse_complex_{seed}")


def proj(dim, i):
    p = np.zeros((dim, dim))
    p[i, i] = 1.0
    return p


def ketbra(dim, i, j):
    p = np.zeros((dim, dim))
    p[i, j] = 1.0
    return p


class TestLayout:
    def test_dimension_bookkeeping(self):
        for d in (1, 2, 4):
            lay = two_copy_layout(d)
            assert lay.site_dim == 1296 * d
            assert lay.tile_dim == 81
            assert lay.inner_dim == 16 * d
            assert lay.pair_dim == (1296 * d) ** 2
        assert single_copy_layout().site_dim == 36


class TestPlugValidation:
    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(PlugValidationError):
            TranslationPlug(2, m, np.zeros((4, 4)))

    def test_negative_rejected(self):
        with pytest.raises(PlugValidationError):
            TranslationPlug(2, -np.eye(4), np.zeros((4, 4)))

    def test_shape_and_dim_caps(self):
        with pytest.raises(PlugValidationError):
            TranslationPlug(2, np.zeros((3, 3)), np.zeros((4, 4)))
        with pytest.raises(PlugValidationError):
            TranslationPlug(5, np.zeros((25, 25)), np.zeros((25, 25)))
        with pytest.raises(PlugValidationError):
            TranslationPlug(0, np.zeros((0, 0)), np.zeros((0, 0)))

    def test_complex_hermitian_accepted(self):
        m = np.array([[1.0, 1j], [-1j, 1.0]])
        eye = np.eye(1)
        p = TranslationPlug(1, m[:1, :1].real, eye * 0)  # d=1 slice is real
        assert p.d == 1
        q = TranslationPlug(2, np.kron(np.eye(2), m), np.zeros((4, 4)))
        assert q.horizontal.dtype == np.complex128


class TestToyPlugs:
    def test_catalog(self):
        plugs = toy_plugs()
        assert set(plugs) == {"zero", "frustration_free", "afm"}
        assert plugs["zero"].d == 1
        assert plugs["frustration_free"].d == 2

    def test_frustration_free_ground_state(self):
        h = toy_plugs()["frustration_free"].horizontal
        e00 = np.zeros(4)
        e00[0] = 1.0
        assert h @ e00 == pytest.approx(np.zeros(4))

    def test_afm_on_triangle_frustrated(self):
        # diagonal plug: penalty 1 per aligned edge; brute force all 2^3 states
        h = toy_plugs()["afm"].horizontal
        energies = []
        for s in range(8):
            bits = [(s >> k) & 1 for k in range(3)]
            e = 0.0
            for a, b in ((0, 1), (1, 2), (0, 2)):
                idx = 2 * bits[a] + bits[b]
                e += h[idx, idx]
            energies.append(e)
        assert min(energies) == 1.0


class TestEmbedOperator:
    @pytest.mark.parametrize(
        "dims,positions",
        [
            ((2, 3, 2), (0,)),
            ((2, 3, 2), (1,)),
            ((2, 3, 2, 2), (0, 2)),
            ((2, 2, 3, 2), (3, 1)),
        ],
    )
    def test_matches_naive(self, dims, positions):
        rng = np.random.default_rng(hash((dims, positions)) % 2**32)
        sd = int(np.prod([dims[p] for p in positions]))
        small = rng.standard_normal((sd, sd))
        rows, cols, vals = np.nonzero(small)[0], np.nonzero(small)[1], small[np.nonzero(small)]
        r, c, v = embed_operator((rows, cols, vals), positions, dims)
        D = int(np.prod(dims))
        got = np.zeros((D, D))
        np.add.at(got, (r, c), v)
        ref = naive_embed(small, positions, dims).real
        assert np.abs(got - ref).max() == 0.0

    @pytest.mark.parametrize(
        "dims,positions",
        [((2, 3, 2), (1,)), ((2, 3, 2, 2), (0, 2)), ((2, 2, 3, 2), (3, 1)), ((3,) * 4, (2, 0))],
    )
    def test_triples_match_the_digit_by_digit_build(self, dims, positions):
        # each small index split into digits, most significant listed first,
        # then every setting of the other factors in ascending factor order
        strides = [math.prod(dims[p + 1 :]) for p in range(len(dims))]

        def offset(i):
            out = 0
            for p in reversed(positions):
                i, digit = divmod(i, dims[p])
                out += digit * strides[p]
            return out

        others = [p for p in range(len(dims)) if p not in positions]
        rest = [
            sum(x * strides[p] for x, p in zip(setting, others))
            for setting in itertools.product(*(range(dims[p]) for p in others))
        ]
        sd = math.prod(dims[p] for p in positions)
        rows, cols = np.divmod(np.arange(sd * sd), sd)
        vals = np.arange(sd * sd) + 0.5
        r, c, v = embed_operator((rows, cols, vals), positions, dims)
        assert r.tolist() == [offset(i) + x for i in rows.tolist() for x in rest]
        assert c.tolist() == [offset(j) + x for j in cols.tolist() for x in rest]
        assert v.tolist() == [y for y in vals.tolist() for _ in rest]


class TestBlockContent:
    @pytest.mark.slow
    def test_variants_match_naive_embed_d1(self):
        term = build_site_term(toy_plugs()["zero"])
        b = term.blocks
        E16 = 16 * EPR_HALF_PROJECTOR
        for a in range(3):
            for bb in range(3):
                F = b.variant_dense(a * 3 + bb).astype(complex)
                ref = np.zeros_like(F)
                if a == 1:
                    ref += naive_embed(E16, (1, 5), b.inner_dims)
                if a == 2:
                    ref += naive_embed(E16, (6, 0), b.inner_dims)
                if bb == 1:
                    ref += naive_embed(E16, (3, 7), b.inner_dims)
                if bb == 2:
                    ref += naive_embed(E16, (8, 2), b.inner_dims)
                assert np.abs(F - ref).max() == 0.0

    @pytest.mark.slow
    def test_embedded_variant_matches_naive_d2(self):
        plug = toy_plugs()["afm"]
        term = build_site_term(plug)
        b = term.blocks
        E16 = 16 * EPR_HALF_PROJECTOR
        H = plug.horizontal
        # swap-conjugate by reading the two embedded slots in exchanged order
        Hs = H.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        F = b.variant_dense(2 * 3 + 1).astype(complex)  # copy1 reversed, copy2 forward
        ref = naive_embed(E16, (6, 0), b.inner_dims)
        ref += naive_embed(Hs, (4, 9), b.inner_dims)
        ref += naive_embed(E16, (3, 7), b.inner_dims)
        assert np.abs(F - ref).max() == 0.0

    def test_scalar_table_by_hand(self):
        term = build_site_term(toy_plugs()["zero"])
        scalar = term.blocks.scalar
        for U in range(81):
            c1u, n1u, c2u, n2u = U // 27, (U // 9) % 3, (U // 3) % 3, U % 3
            for V in range(81):
                c1v, n1v, c2v, n2v = V // 27, (V // 9) % 3, (V // 3) % 3, V % 3
                want = 0.0
                if (c1u == c1v) == (n1u == n1v):
                    want += 8
                if (c2u == c2v) == (n2u == n2v):
                    want += 8
                if c1u != c1v:
                    want += 2
                if c2u != c2v:
                    want += 2
                if c1u == c1v and c2u == c2v:
                    want += 1
                assert scalar[U, V] == want

    def test_matrix_blocks_match_structure(self):
        term = build_site_term(toy_plugs()["zero"])
        M = term.matrix()
        b = term.blocks
        site, inner = term.site_dim, term.layout.inner_dim
        rng = np.random.default_rng(3)
        for U, V in zip(rng.integers(0, 81, 8), rng.integers(0, 81, 8)):
            idx = np.array(
                [
                    (U * inner + au) * site + V * inner + av
                    for au in range(inner)
                    for av in range(inner)
                ]
            )
            block = M[idx, :][:, idx].toarray()
            want = b.scalar[U, V] * np.eye(inner * inner) + b.variant_dense(b.sig[U, V])
            assert np.abs(block - want).max() == 0.0


class TestSingleCopyTerm:
    def test_matches_kron_oracle(self):
        sc = build_single_copy_term()
        I2, I3, I4 = np.eye(2), np.eye(3), np.eye(4)
        E16 = 16 * EPR_HALF_PROJECTOR
        Hk = np.zeros((1296, 1296))
        ill = [
            (c1 * 3 + n1, c2 * 3 + n2)
            for c1 in range(3)
            for n1 in range(3)
            for c2 in range(3)
            for n2 in range(3)
            if (c1 == c2) == (n1 == n2)
        ]
        for s, t in ill:
            Hk += 8 * np.kron(proj(9, s), np.kron(I4, np.kron(proj(9, t), I4)))
        for c in range(3):
            for d in range(3):
                if c != d:
                    Hk += 2 * np.kron(
                        proj(3, c),
                        np.kron(I3, np.kron(I4, np.kron(proj(3, d), np.kron(I3, I4)))),
                    )
        for i in range(3):
            j = (i + 1) % 3
            for ab in range(4):
                for cd in range(4):
                    v = E16[ab, cd]
                    if v == 0:
                        continue
                    a, bq = ab // 2, ab % 2
                    cq, dq = cd // 2, cd % 2
                    Hk += v * np.kron(
                        I3,
                        np.kron(
                            proj(3, i),
                            np.kron(
                                I2,
                                np.kron(
                                    ketbra(2, a, cq),
                                    np.kron(
                                        I3,
                                        np.kron(proj(3, j), np.kron(ketbra(2, bq, dq), I2)),
                                    ),
                                ),
                            ),
                        ),
                    )
                    Hk += v * np.kron(
                        I3,
                        np.kron(
                            proj(3, j),
                            np.kron(
                                ketbra(2, bq, dq),
                                np.kron(
                                    I2,
                                    np.kron(
                                        I3,
                                        np.kron(proj(3, i), np.kron(I2, ketbra(2, a, cq))),
                                    ),
                                ),
                            ),
                        ),
                    )
        assert np.abs(sc.matrix().toarray() - Hk).max() == 0.0

    def test_report_passes(self):
        rep = check_term_symmetries(build_single_copy_term())
        assert rep.passed
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-9)


class TestFullTerm:
    def test_zero_plug_dimensions(self):
        term = build_site_term(toy_plugs()["zero"])
        assert term.pair_dim == 1296**2

    @pytest.mark.slow
    def test_symmetry_report_passes(self):
        for name in ("zero", "frustration_free", "afm"):
            rep = check_term_symmetries(build_site_term(toy_plugs()[name]))
            assert rep.passed, name

    def test_min_eigenvalue_nonnegative(self):
        rep = check_term_symmetries(build_site_term(toy_plugs()["zero"]))
        assert rep.min_eigenvalue >= -1e-9

    def test_tile_diagonality(self):
        assert tile_diagonality_check(build_site_term(toy_plugs()["zero"]))

    def test_swap_symmetry_with_asymmetric_horizontal_term(self):
        # the plug itself is not exchange symmetric, the assembled term must be
        h = np.zeros((4, 4))
        h[1, 1] = 1.0  # penalize |01> only
        plug = TranslationPlug(2, h, np.zeros((4, 4)))
        rep = check_term_symmetries(build_site_term(plug))
        assert rep.swap_symmetric
        assert rep.passed

    def test_diagonal_entry_hand_expansion(self):
        # u tiles: colors (0,0), numbers (0,1); v tiles: colors (0,0), numbers (1,2)
        # qubits and embedded all 0; both copies step forward
        term = build_site_term(toy_plugs()["zero"])
        M = term.matrix()
        lay = term.layout
        U = ((0 * 3 + 0) * 3 + 0) * 3 + 1
        V = ((0 * 3 + 1) * 3 + 0) * 3 + 2
        u_state = U * lay.inner_dim
        v_state = V * lay.inner_dim
        g = u_state * lay.site_dim + v_state
        # tile rules legal on both copies (0), same colors so no loop penalty
        # (0), both copies same color pair (+1), two forward pairing penalties
        # on the 00 qubit component (+4 each)
        assert M[g, g] == 9.0

    def test_golden_hash(self):
        term = build_site_term(toy_plugs()["zero"])
        assert term_hash(term) == GOLDEN_D1_HASH

    def test_coefficient_audit(self):
        term = build_site_term(toy_plugs()["zero"])
        assert term.coefficients == {
            "tile": 8.0,
            "pairing": 16.0,
            "loop": 2.0,
            "copy": 1.0,
            "horizontal": 1.0,
            "vertical": 1.0,
        }
        assert term.coefficients == DEFAULT_COEFFICIENTS

    @pytest.mark.parametrize("key", sorted(DEFAULT_COEFFICIENTS))
    def test_any_weight_change_breaks_hash(self, key):
        if key in ("horizontal", "vertical"):
            # zero plug leaves these weights inert; use a nonzero d=1 plug
            plug = TranslationPlug(1, [[1.0]], [[1.0]])
            base = term_hash(build_site_term(plug))
            bumped = term_hash(build_site_term(plug, {key: 3.0}))
            assert bumped != base
            return
        bumped = build_site_term(toy_plugs()["zero"], {key: DEFAULT_COEFFICIENTS[key] + 1})
        assert term_hash(bumped) != GOLDEN_D1_HASH

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            build_site_term(toy_plugs()["zero"], {"nonsense": 1.0})

    def test_unknown_single_copy_override_rejected(self):
        with pytest.raises(ValueError, match="pairng"):
            build_single_copy_term({"pairng": 3.0})


def _reference_cases():
    plugs = toy_plugs()
    slow = {"afm", "frustration_free"}
    cases = [
        pytest.param(
            lambda name=name: build_site_term(plugs[name]),
            id=name,
            marks=pytest.mark.slow if name in slow else (),
        )
        for name in plugs
    ]
    for key in sorted(DEFAULT_COEFFICIENTS):
        for value in (0.0, DEFAULT_COEFFICIENTS[key] + 1):
            cases.append(
                pytest.param(
                    lambda key=key, value=value: build_site_term(plugs["zero"], {key: value}),
                    id=f"zero-{key}={value:g}",
                )
            )
    cases.append(pytest.param(build_single_copy_term, id="single_copy"))
    cases.append(
        pytest.param(
            lambda: build_site_term(sparse_complex_plug(11)),
            id="sparse_complex",
            marks=pytest.mark.slow,
        )
    )
    return cases


class TestCanonicalBuild:
    @pytest.mark.parametrize("make_term", _reference_cases())
    def test_matches_the_block_by_block_build(self, make_term):
        term = make_term()
        digest, diagonal = term_hash(term), tile_diagonality_check(term)
        assert term._matrix is None
        M = term.matrix()
        assert isinstance(M, scipy.sparse.csr_matrix)
        fresh = scipy.sparse.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)
        assert M.has_canonical_format and fresh.has_canonical_format and M.data.all()
        band = term.layout.inner_dim * term.site_dim
        disorder = set()
        bands = _Bands(term)()
        for U in range(term.layout.tile_dim):
            ref, unsorted = reference_band(term, U)
            disorder.add(unsorted)
            lo, hi = M.indptr[U * band], M.indptr[(U + 1) * band]
            first, counts, cols, vals = next(bands)
            assert first == U * band
            pairs = (
                (M.indptr[U * band : (U + 1) * band + 1] - lo, ref.indptr),
                (M.indices[lo:hi], ref.indices),
                (M.data[lo:hi], ref.data),
                (np.diff(ref.indptr).astype(counts.dtype), counts),
                (cols, ref.indices),
                (vals, ref.data),
            )
            for got, want in pairs:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert next(bands, None) is None
        # converting the whole COO at once sorts every row as soon as one is
        # out of order, a band only its own rows: the same when all bands agree
        assert len(disorder) == 1
        assert digest == reference_hash(M)
        assert diagonal == reference_tile_diagonal(term.layout, M)

    def test_exact_size_check_runs_before_allocating(self, monkeypatch):
        term = build_site_term(toy_plugs()["zero"])
        nnz = 2_799_360
        monkeypatch.setattr(hamiltonian, "MAX_MATRIX_NNZ", nnz - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"{nnz} nonzeros"):
                term.matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        monkeypatch.setattr(hamiltonian, "MAX_MATRIX_NNZ", nnz)
        assert term.matrix().nnz == nnz

    def test_hash_and_tile_check_peak_memory(self):
        # the scan holds one band (1/81 of the term) at a time
        term = build_site_term(toy_plugs()["zero"])
        tracemalloc.start()
        try:
            assert tile_diagonality_check(term)
            assert term_hash(term) == GOLDEN_D1_HASH
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert term._matrix is None
        assert peak < 24 * 2**20

    def test_materialize_peak_memory(self):
        # the matrix itself keeps 38 MiB (int32 indices, float64 data)
        term = build_site_term(toy_plugs()["zero"])
        tracemalloc.start()
        try:
            assert term.matrix().nnz == 2_799_360
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 44 * 2**20

    def test_hash_size_check_runs_before_allocating(self, monkeypatch):
        term = build_site_term(toy_plugs()["zero"])
        nnz = 2_799_360
        monkeypatch.setattr(hamiltonian, "MAX_MATRIX_NNZ", nnz - 1)
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetExceeded,
                match=f"materializing this term needs {nnz} nonzeros \\(cap {nnz - 1}\\); "
                "use the block structure instead",
            ):
                term_hash(term)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # built block-diagonally, so the tile check still holds over the cap
        assert tile_diagonality_check(term)
        assert term._matrix is None and term._audit is None

    def test_hash_sees_signed_zero_real_parts(self):
        # one block type, the pairing variant made imaginary with every other
        # real part a negative zero; adding 0.0 turns those into positive zeros
        b = build_single_copy_term().blocks
        rows, cols, vals = b.variants[1]
        data = np.zeros(len(vals), dtype=complex)
        data.imag = vals
        data.real[::2] = -0.0
        digests = []
        for v in (data, data + 0.0):
            blocks = dataclasses.replace(
                b,
                scalar=np.zeros_like(b.scalar),
                sig=np.zeros_like(b.sig),
                variants=[(rows, cols, v)],
                mirror_sig=np.zeros(1, dtype=int),
            )
            term = TwoBodyTerm(single_copy_layout(), DEFAULT_COEFFICIENTS, blocks)
            M = term.matrix()
            assert np.signbit(M.data.real).any() == (v is data)
            assert term_hash(term) == reference_hash(M)
            digests.append(term_hash(term))
        assert digests[0] != digests[1]

    @pytest.mark.slow
    def test_conjugate_plugs_hash_differently(self):
        # nonzero real parts: with 0.5j and -0.5j the two terms would also
        # differ in the signs of zero real parts, which the hash sees
        h = np.eye(4, dtype=complex)
        h[1, 2] = 0.25 + 0.5j
        h[2, 1] = np.conj(h[1, 2])
        digests = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            for m in (h, h.conj()):
                digests.append(term_hash(build_site_term(TranslationPlug(2, m, np.zeros((4, 4))))))
        assert digests[0] != digests[1]


def reference_block_check(term):
    """The block check as two passes: every used variant for Hermiticity and
    the PSD minimum, then every used variant against its mirror."""
    b = term.blocks
    herm, lo = 0.0, float("inf")
    used = np.unique(b.sig)
    for s in used:
        F = b.variant_dense(s)
        herm = max(herm, float(np.abs(F - F.conj().T).max()))
        fmin = float(np.linalg.eigvalsh((F + F.conj().T) / 2).min()) if len(b.variants[s][2]) else 0.0
        lo = min(lo, float(b.scalar[b.sig == s].min()) + fmin)
    swap = float(np.abs(b.scalar - b.scalar.T).max())
    if not (b.mirror_sig[b.sig] == b.sig.T).all():
        swap = float("inf")
    perm = hamiltonian.swap_permutation(term.layout.inner_dim)
    for s in used:
        F, G = b.variant_dense(s), b.variant_dense(int(b.mirror_sig[s]))
        swap = max(swap, float(np.abs(F[np.ix_(perm, perm)] - G).max()))
    return herm, lo, swap


def _block_check_term(case):
    term = build_site_term(toy_plugs()["zero"])
    b = term.blocks
    if case == "non-hermitian variant":
        s = max(range(len(b.variants)), key=lambda v: len(b.variants[v][2]))
        rows, cols, vals = b.variants[s]
        variants = list(b.variants)
        variants[s] = (np.append(rows, 0), np.append(cols, 1), np.append(vals, 0.25))
        b = dataclasses.replace(b, variants=variants)
    elif case == "every variant its own mirror":
        b = dataclasses.replace(b, mirror_sig=np.arange(len(b.mirror_sig)))
    return TwoBodyTerm(term.layout, term.coefficients, blocks=b)


class TestBlockCheck:
    @pytest.mark.parametrize("case", ["zero", "non-hermitian variant", "every variant its own mirror"])
    def test_builds_each_variant_once_with_the_two_pass_result(self, case, monkeypatch):
        term = _block_check_term(case)
        want = reference_block_check(term)
        built = []
        variant_dense = hamiltonian.BlockStructure.variant_dense

        def counted(self, s, dtype=None):
            built.append(int(s))
            return variant_dense(self, s, dtype)

        monkeypatch.setattr(hamiltonian.BlockStructure, "variant_dense", counted)
        assert hamiltonian._check_via_blocks(term) == want
        used = {int(s) for s in np.unique(term.blocks.sig)}
        assert sorted(built) == sorted(used | {int(term.blocks.mirror_sig[s]) for s in used})
        if case != "zero":
            assert not check_term_symmetries(term).passed


def _corrupt_band_zero(monkeypatch, move):
    """Patch _Bands._build so that band 0's columns come out as
    move(bands, cols): a corrupted term for the tile check to catch."""
    build = _Bands._build

    def corrupted(self, U, columns, values):
        counts, cols, vals = build(self, U, columns, values)
        if U == 0 and cols is not None:
            cols = move(self, cols)
        return counts, cols, vals

    monkeypatch.setattr(_Bands, "_build", corrupted)


class TestNegativeControls:
    def test_tile_flip_perturbation_detected(self, monkeypatch):
        # band 0's entries moved into band 1's columns: each now joins tile 0
        # to tile 1 on the first site
        term = build_single_copy_term()
        _corrupt_band_zero(monkeypatch, lambda bands, cols: cols + bands.rows)
        assert not tile_diagonality_check(term)
        assert not reference_tile_diagonal(term.layout, term.matrix())

    def test_second_site_tile_flip_detected(self, monkeypatch):
        # one column moved by the inner dimension keeps its first-site tile
        # and steps its second-site tile
        term = build_single_copy_term()
        inner = term.layout.inner_dim

        def move(bands, cols):
            cols = cols.copy()
            cols[0] += inner
            return cols

        _corrupt_band_zero(monkeypatch, move)
        assert not tile_diagonality_check(term)
        assert not reference_tile_diagonal(term.layout, term.matrix())


class TestGlobalOperators:
    def test_dimension_cap(self):
        # ring 6 of the single-copy term already spans 36^6 > 2^26 states; the
        # cap is checked before anything of that size is allocated
        sc = build_single_copy_term()
        tracemalloc.start()
        try:
            for spec in (LatticeSpec(1, 6), LatticeSpec(2, 6)):
                cap = f"global dimension {36**spec.num_sites} exceeds cap"
                with pytest.raises(BudgetExceeded, match=cap):
                    global_hamiltonian(spec, sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_open_chain_differs_from_ring(self):
        ring = LatticeSpec(1, 3)
        chain = LatticeSpec(1, 3, "open")
        sc = build_single_copy_term()
        Hr = global_hamiltonian(ring, sc)
        Hc = global_hamiltonian(chain, sc)
        assert (Hr - Hc).nnz > 0

