"""Band assembly: closed forms, interior stencil rows, 2D Kronecker path."""

import numpy as np
import pytest

from basis_reference import reference_basis
from dense_reference import dense, dense_from_bands
from expected_values import EXACT_MASS, EXACT_STIFFNESS, MINIMIZED_MASS
from igadmm import assembly, cli, eigensolve
from igadmm.assembly import (
    MatrixPair,
    SymBandMatrix,
    _assemble_full,
    assemble_1d,
    assemble_1d_dmm,
    assemble_2d,
)
from igadmm.quadrature import (
    DegenerateBlendError,
    dmm_rule,
    gauss_legendre,
    gauss_lobatto,
    gauss_radau,
    optimal_blend,
)
from igadmm.splines import _ELEMENT_BLOCK, BSplineSpace, basis_table


def _interior_rows(space):
    # reduced row i maps to basis function i + 1; uniform translates need
    # full support away from the open-knot boundary layers
    return range(space.p - 1, space.N - space.p - 1)


def test_linear_elements_match_the_textbook_matrices():
    N = 10
    pair = assemble_1d(BSplineSpace(1, N), gauss_legendre(2))
    n = N - 1
    K = dense(pair.stiffness)
    M = dense(pair.mass)
    Kref = N * (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    Mref = (4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / (6 * N)
    assert np.max(np.abs(K - Kref)) < 1e-12 * N
    assert np.max(np.abs(M - Mref)) < 1e-15


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_interior_rows_reproduce_the_exact_stencils(p):
    N = 16
    space = BSplineSpace(p, N)
    pair = assemble_1d(space, gauss_legendre(p + 1))
    h = 1.0 / N
    for i in _interior_rows(space):
        for k in range(p + 1):
            kv = float(pair.stiffness.bands[k, i])
            mv = float(pair.mass.bands[k, i])
            assert abs(kv - float(EXACT_STIFFNESS[p][k]) / h) < 1e-12 / h
            assert abs(mv - float(EXACT_MASS[p][k]) * h) < 1e-16


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_minimized_assembly_interior_mass_rows(p):
    N = 16
    space = BSplineSpace(p, N)
    pair = assemble_1d_dmm(space)
    h = 1.0 / N
    for i in _interior_rows(space):
        for k in range(p + 1):
            mv = float(pair.mass.bands[k, i])
            kv = float(pair.stiffness.bands[k, i])
            assert abs(mv - float(MINIMIZED_MASS[p][k]) * h) < 1e-15
            assert abs(kv - float(EXACT_STIFFNESS[p][k]) / h) < 1e-12 / h


def test_point_rule_assembly_matches_blend_inside_only():
    # the tabulated two-node rule reproduces the interior stencils, but on
    # boundary elements its lack of polynomial exactness shows up as O(1)
    # deviations; this is why assemble_1d_dmm integrates with the blend
    p, N = 2, 16
    space = BSplineSpace(p, N)
    point = assemble_1d(space, dmm_rule(p, 1))
    ref = assemble_1d_dmm(space)
    for i in _interior_rows(space):
        for k in range(p + 1):
            dm = abs(float(point.mass.bands[k, i] - ref.mass.bands[k, i]))
            dk = abs(float(point.stiffness.bands[k, i] - ref.stiffness.bands[k, i]))
            assert dm < 1e-15 and dk < 1e-12
    corner = abs(float(point.mass.bands[0, 0] - ref.mass.bands[0, 0]))
    assert corner > 1e-6


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_mass_and_stiffness_are_positive_definite(p):
    pair = assemble_1d(BSplineSpace(p, 12), gauss_legendre(p + 1))
    np.linalg.cholesky(dense(pair.mass))
    np.linalg.cholesky(dense(pair.stiffness))
    dmm = assemble_1d_dmm(BSplineSpace(p, 12))
    np.linalg.cholesky(dense(dmm.mass))


def _assemble_full_by_scalar_loop(space, rule, form):
    """Reference band array: one scalar basis evaluation per element and
    node, each local outer product added into the bands as it comes."""
    p, N = space.p, space.N
    h = np.longdouble(1) / N
    nodes, weights = rule.as_longdouble()
    slot = 1 if form == "stiffness" else 0  # derivatives or values
    bands = np.zeros((p + 1, space.dim_full), dtype=np.longdouble)
    for e in range(N):
        for x, w in zip(nodes, weights):
            v = reference_basis(p, N, (e + x) * h, e)[slot]
            contrib = (w * h) * np.outer(v, v)
            for a in range(p + 1):
                for b in range(a, p + 1):
                    bands[b - a, e + a] += contrib[a, b]
    return bands


def _full_bands(space, rule, form):
    """_assemble_full on the table of the form, from one table pass over the
    whole mesh, into a band array of zeros."""
    nodes, weights = rule.as_longdouble()
    _, values, derivatives = basis_table(space, nodes)
    table = derivatives if form == "stiffness" else values
    bands = np.zeros((space.p + 1, space.dim_full), dtype=np.longdouble)
    return _assemble_full(bands, weights * (np.longdouble(1) / space.N), table, 0)


@pytest.mark.parametrize("form", ["mass", "stiffness"])
@pytest.mark.parametrize("N", [2, 3, 5, 17])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_band_assembly_is_bitwise_the_scalar_element_loop(p, N, form):
    space = BSplineSpace(p, N)
    for rule in (gauss_legendre(p + 1), gauss_lobatto(p + 1), gauss_radau(p + 1),
                 optimal_blend(p, "gl")):
        got = _full_bands(space, rule, form)
        assert got.dtype == np.longdouble
        want = _assemble_full_by_scalar_loop(space, rule, form)
        assert np.array_equal(got, want), rule.label
        pair = assemble_1d(space, rule)
        matrix = pair.stiffness if form == "stiffness" else pair.mass
        assert np.array_equal(matrix.bands, want[:, 1:-1]), rule.label


@pytest.mark.parametrize("N", [255, 256, 257, 513, 1024])
@pytest.mark.parametrize("label", ["gauss", "dmm"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_block_assembly_is_bitwise_one_pass_over_the_whole_mesh(monkeypatch, p, label, N):
    # assemble_1d reads the basis splines._ELEMENT_BLOCK elements at a time
    # and adds each block into the bands; the sums keep their order, so the
    # bands are those of one pass over the whole mesh's tables
    space = BSplineSpace(p, N)
    rule = gauss_legendre(p + 1) if label == "gauss" else optimal_blend(p, "gl")
    rows = []

    def recorded(*args):
        table = basis_table(*args)
        rows.append(len(table[0]))
        return table

    monkeypatch.setattr(assembly, "basis_table", recorded)
    pair = assemble_1d_dmm(space) if label == "dmm" else assemble_1d(space, rule)
    assert sum(rows) == N and max(rows) <= _ELEMENT_BLOCK
    for form, matrix in (("stiffness", pair.stiffness), ("mass", pair.mass)):
        assert np.array_equal(matrix.bands, _full_bands(space, rule, form)[:, 1:-1]), form


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_dmm_bands_from_the_cached_blend_are_those_of_a_fresh_one(p):
    space = BSplineSpace(p, 9)
    fresh = optimal_blend.__wrapped__(p, "gl")  # built as if uncached
    pair = assemble_1d_dmm(space)
    for form, got in (("stiffness", pair.stiffness), ("mass", pair.mass)):
        want = _full_bands(space, fresh, form)[:, 1:-1]
        assert np.array_equal(got.bands, want), form


def test_reduced_dimensions():
    for p, N in [(1, 5), (2, 9), (3, 7), (4, 11)]:
        pair = assemble_1d(BSplineSpace(p, N), gauss_legendre(p + 1))
        assert pair.stiffness.n == N + p - 2
        assert pair.mass.halfband == p
        assert isinstance(pair, MatrixPair)


def test_band_storage_helpers():
    bands = np.array([[4.0, 5.0, 6.0], [1.0, 2.0, 0.0]])
    A = SymBandMatrix(bands)
    assert (A.n, A.halfband) == (3, 1)
    D = eigensolve._dense(A.to_bands())
    assert np.array_equal(D, D.T)
    assert D[1, 0] == 1.0 and D[2, 1] == 2.0 and D[2, 0] == 0.0
    x = np.array([1.0, -2.0, 3.0])
    assert np.allclose(np.asarray(A.matvec(x), dtype=float), D @ x)
    # the dense copy of the band copy is bitwise that of an entry by entry
    # loop on the longdouble bands
    for p in range(1, 6):
        B = assemble_1d_dmm(BSplineSpace(p, 7)).mass
        want = np.zeros((B.n, B.n))
        for d in range(B.halfband + 1):
            for j in range(B.n - d):
                want[j + d, j] = want[j, j + d] = B.bands[d, j]
        got = eigensolve._dense(B.to_bands())
        assert got.dtype == np.float64 and np.array_equal(got, want), p


def _dense_2d_by_element_loop(space, rule):
    """Independent 2D assembly: nested element loop over the square,
    tensor quadrature, full matrices reduced by dropping boundary rows."""
    p, N = space.p, space.N
    h = 1.0 / N
    n_full = space.dim_full
    K2 = np.zeros((n_full * n_full, n_full * n_full))
    M2 = np.zeros_like(K2)
    pts = [(float(x), float(w)) for x, w in zip(rule.nodes, rule.weights)]
    for ex in range(N):
        for ey in range(N):
            for x, wx in pts:
                for y, wy in pts:
                    vx, dx = reference_basis(p, N, (ex + x) * h, ex)
                    vy, dy = reference_basis(p, N, (ey + y) * h, ey)
                    w = wx * wy * h * h
                    for a in range(p + 1):
                        for b in range(p + 1):
                            i = (ex + a) * n_full + (ey + b)
                            for c in range(p + 1):
                                for d in range(p + 1):
                                    j = (ex + c) * n_full + (ey + d)
                                    grad = dx[a] * vy[b] * dx[c] * vy[d] \
                                        + vx[a] * dy[b] * vx[c] * dy[d]
                                    K2[i, j] += w * grad
                                    M2[i, j] += w * vx[a] * vy[b] * vx[c] * vy[d]
    keep = [a * n_full + b
            for a in range(1, n_full - 1) for b in range(1, n_full - 1)]
    return K2[np.ix_(keep, keep)], M2[np.ix_(keep, keep)]


@pytest.mark.parametrize("p,N", [(1, 3), (2, 4)])
def test_kronecker_2d_agrees_with_element_loop(p, N):
    space = BSplineSpace(p, N)
    rule = gauss_legendre(p + 1)
    pair = assemble_2d(assemble_1d(space, rule))
    K2, M2 = _dense_2d_by_element_loop(space, rule)
    assert np.max(np.abs(eigensolve._dense(pair.stiffness.to_bands()) - K2)) < 1e-11
    assert np.max(np.abs(eigensolve._dense(pair.mass.to_bands()) - M2)) < 1e-13


# (2, 4) has 4 unknowns a side for half-band 2, so two Kronecker offsets
# share a band row
@pytest.mark.parametrize("p,N", [(1, 5), (2, 4), (3, 6)])
def test_kronecker_operator_products_and_copies_agree(p, N):
    pair = assemble_2d(assemble_1d_dmm(BSplineSpace(p, N)))
    x = np.random.default_rng(7).standard_normal(pair.mass.n).astype(np.longdouble)
    for op in (pair.stiffness, pair.mass):
        full = dense(op, np.longdouble)
        scale = float(np.max(np.abs(full)))
        assert float(np.max(np.abs(op.matvec(x) - full @ x))) < 1e-17 * scale * op.n
        bands = op.to_bands()
        assert bands.shape == (p * (N + p - 2) + p + 1, op.n)
        assert np.array_equal(dense_from_bands(bands, op.n), full.astype(np.float64))
        assert np.array_equal(eigensolve._dense(bands), full.astype(np.float64))
    bands = sum(m.bands.nbytes for m in pair.stiffness.terms[0])
    assert pair.stiffness.nbytes == bands and pair.mass.nbytes == bands // 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_the_dense_solve_reads_the_band_copies_bit_for_bit(p):
    # the dense eigh reads _dense(op.to_bands()): for each study label it is
    # the 1D bands expanded, and on the square the longdouble np.kron sum of
    # the 1D matrices, rounded once; at N = 2 and 3 the Kronecker half-band
    # p n1 + p reaches the order n
    checked = 0
    for label in cli._STUDY_RULES:
        for N in (2, 3, 4, 5, 8):
            try:
                pair = cli._pair(BSplineSpace(p, N), label)
            except DegenerateBlendError:  # blend:lr at p = 1
                continue
            square = assemble_2d(pair)
            for op in (pair.stiffness, pair.mass, square.stiffness, square.mass):
                got = eigensolve._dense(op.to_bands())
                assert got.dtype == np.float64, (label, N)
                assert np.array_equal(got, dense(op)), (label, N, op.n)
                checked += 1
    assert checked == 4 * 5 * (len(cli._STUDY_RULES) - (p == 1))


def test_band_matvec_takes_a_block_column_by_column():
    A = assemble_1d_dmm(BSplineSpace(3, 9)).mass
    X = np.random.default_rng(3).standard_normal((A.n, 4)).astype(np.longdouble)
    Y = A.matvec(X)
    for j in range(4):
        assert np.array_equal(Y[:, j], A.matvec(X[:, j]))
    assert np.array_equal(dense_from_bands(A.to_bands(), A.n), dense(A))


def test_kronecker_matvec_takes_a_block_column_by_column():
    pair = assemble_2d(assemble_1d_dmm(BSplineSpace(3, 6)))
    X = np.random.default_rng(5).standard_normal((pair.mass.n, 4)).astype(np.longdouble)
    for op in (pair.stiffness, pair.mass):
        Y = op.matvec(X)
        assert Y.shape == X.shape and Y.dtype == np.longdouble
        for j in range(4):
            assert np.array_equal(Y[:, j], op.matvec(X[:, j]))


def test_2d_guards_and_labels(monkeypatch):
    space = BSplineSpace(2, 4)
    pair = assemble_1d(space, gauss_legendre(3))
    monkeypatch.setattr(assembly, "KRON_MAX_DIM", 3)
    with pytest.raises(ValueError):
        assemble_2d(pair)
    # KRON_MAX_DIM caps the 2D unknown count: dim 4 gives 16
    monkeypatch.setattr(assembly, "KRON_MAX_DIM", 15)
    with pytest.raises(ValueError, match="2D dimension 16 exceeds limit 15"):
        assemble_2d(pair)
    monkeypatch.setattr(assembly, "KRON_MAX_DIM", 16)
    assert assemble_2d(pair).mass.shape == (16, 16)
    pair2 = assemble_2d(assemble_1d_dmm(space))
    assert pair2.stiffness.shape == (16, 16)


def test_2d_guard_rejects_a_large_mesh_before_any_assembly(monkeypatch):
    # 130 elements at p = 2: 16900 unknowns, over KRON_MAX_DIM = 16384
    pairs = (assemble_1d(BSplineSpace(2, 130), gauss_legendre(3)),
             assemble_1d_dmm(BSplineSpace(2, 130)))

    def forbidden(*args, **kwargs):
        raise AssertionError("Kronecker product or solve before the size check")

    for module, name in ((np, "kron"), (assembly.KroneckerSum, "to_bands"),
                         (eigensolve, "_lanczos"), (eigensolve, "_dense_eigh")):
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(ValueError, match="2D dimension 16900 exceeds limit 16384"):
        assemble_2d(pairs[0])
    with pytest.raises(ValueError, match="exceeds limit"):
        assemble_2d(pairs[1])
    # the cross-check assembles its 1D pair, then stops at the same guard
    with pytest.raises(ValueError, match="2D dimension 16900 exceeds limit 16384"):
        cli.kron_cross_check(2, 130, "dmm")
