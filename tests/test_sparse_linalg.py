import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from levelsurf import sparse_linalg
from levelsurf.sparse_linalg import (
    CondEstimate,
    EigNonConvergence,
    ZeroPivotError,
    build_reference_matrix,
    effective_cond,
    eig_extreme,
    ilu0_factor,
    pcg,
)
from levelsurf.surface_fem import assemble_mass, assemble_stiffness, diag_scale

# Spec oracle: the 2-blocks-of-2 reference matrix written out by hand.
REF_4x4 = np.array(
    [
        [6.0, -1.0, -1.0, -1.0],
        [-1.0, 6.0, 0.0, -1.0],
        [-1.0, 0.0, 6.0, -1.0],
        [-1.0, -1.0, -1.0, 6.0],
    ]
)


def random_spd(rng, n, density=0.1, shift=10.0):
    R = sp.random(n, n, density=density, random_state=rng, format="csr")
    S = (R + R.T).tocsr()
    S.sum_duplicates()
    # Gershgorin: a diagonal exceeding every off-diagonal row sum makes
    # the symmetric result positive definite with margin >= shift.
    dom = float(np.abs(S).sum(axis=1).max())
    A = S + (dom + shift) * sp.identity(n, format="csr")
    return A.tocsr()


# ---------------------------------------------------------------------------
# reference matrix


def test_reference_matrix_4x4_oracle():
    A = build_reference_matrix(blocks=2, size=2)
    npt.assert_allclose(A.toarray(), REF_4x4)


def test_reference_matrix_default_shape():
    A = build_reference_matrix()
    assert A.shape == (14400, 14400)
    row_nnz = np.diff(A.indptr)
    assert np.bincount(row_nnz).argmax() == 7


def test_reference_matrix_symmetric_pd():
    A = build_reference_matrix(blocks=6, size=5)
    assert abs(A - A.T).max() == 0.0
    assert np.linalg.eigvalsh(A.toarray())[0] > 0.0


def test_reference_matrix_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_reference_matrix(blocks=0, size=5)


# ---------------------------------------------------------------------------
# PCG


def test_pcg_identity_one_iteration():
    A = sp.identity(5, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    x, stats = pcg(A, b)
    npt.assert_allclose(x, b)
    assert stats.iterations == 1 and stats.converged


def test_pcg_diagonal_exact_in_two():
    A = sp.diags([np.array([1.0, 3.0])], [0], format="csr")
    x, stats = pcg(A, np.array([1.0, 1.0]), tol=1e-12)
    npt.assert_allclose(x, [1.0, 1.0 / 3.0], rtol=1e-12)
    assert stats.iterations <= 2


def test_pcg_jacobi_diagonal_one_iteration():
    A = sp.diags([np.arange(1.0, 8.0)], [0], format="csr")
    b = np.ones(7)
    _, stats = pcg(A, b, precond="jacobi")
    assert stats.iterations == 1


def test_pcg_ilu0_tridiagonal_one_iteration():
    # A tridiagonal matrix has no fill, so ILU(0) is an exact LU.
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(40, 40), format="csr")
    b = np.sin(np.arange(40.0))
    _, stats = pcg(A, b, precond="ilu0")
    assert stats.iterations == 1


def test_pcg_matches_direct_solver():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 120)
    b = rng.standard_normal(120)
    x_ref = spla.spsolve(A.tocsc(), b)
    for precond in ("none", "jacobi", "ilu0"):
        x, stats = pcg(A, b, tol=1e-10, precond=precond)
        assert stats.converged
        npt.assert_allclose(x, x_ref, rtol=1e-6)


def test_pcg_milu0_matches_direct_solver():
    # Row-sum compensation suits Laplacian-like stencils; random matrices
    # with positive off-diagonals can drive its pivots negative.
    A = build_reference_matrix(blocks=11, size=11)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    x_ref = spla.spsolve(A.tocsc(), b)
    x, stats = pcg(A, b, tol=1e-10, precond="milu0")
    assert stats.converged
    npt.assert_allclose(x, x_ref, rtol=1e-6)


def test_pcg_zero_rhs():
    A = sp.identity(4, format="csr")
    x, stats = pcg(A, np.zeros(4))
    npt.assert_allclose(x, 0.0)
    assert stats.iterations == 0 and stats.converged


def test_pcg_reports_nonconvergence():
    A = build_reference_matrix(blocks=8, size=8)
    b = np.ones(64)
    _, stats = pcg(A, b, tol=1e-300)
    assert not stats.converged
    assert stats.iterations == 64
    assert stats.relres > 1e-300


def test_pcg_breakdown_on_indefinite():
    A = sp.diags([np.array([1.0, -1.0])], [0], format="csr")
    with pytest.raises(np.linalg.LinAlgError, match="breakdown"):
        pcg(A, np.array([1.0, 1.0]))


def test_pcg_validates_shapes():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        pcg(A, np.ones(4))
    with pytest.raises(ValueError):
        pcg(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


def test_pcg_unknown_preconditioner():
    # Only the four names are accepted: no None, no object with .apply.
    class Identity:
        def apply(self, r):
            return r

    for precond in ("cholesky", None, Identity()):
        with pytest.raises(ValueError, match="unknown preconditioner"):
            pcg(sp.identity(2, format="csr"), np.ones(2), precond=precond)


def test_pcg_jacobi_zero_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        pcg(A, np.ones(2), precond="jacobi")


def test_pcg_deterministic():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 80)
    b = rng.standard_normal(80)
    x1, s1 = pcg(A, b, precond="ilu0")
    x2, s2 = pcg(A, b, precond="ilu0")
    assert np.array_equal(x1, x2)
    assert s1 == s2


# ---------------------------------------------------------------------------
# ILU(0)


def dense_ilu0(A, modified=False):
    """Textbook IKJ ILU(0) on a dense copy; the independent reference."""
    A = A.toarray() if sp.issparse(A) else np.array(A, dtype=float)
    P = A != 0.0
    n = len(A)
    F = A.copy()
    for i in range(n):
        dropped = 0.0
        for k in range(i):
            if not P[i, k]:
                continue
            lik = F[i, k] / F[k, k]
            F[i, k] = lik
            for j in range(k + 1, n):
                if not P[k, j]:
                    continue
                if P[i, j]:
                    F[i, j] -= lik * F[k, j]
                elif modified:
                    dropped += lik * F[k, j]
        F[i, i] -= dropped
    return np.tril(F, -1) + np.eye(n), np.triu(F)


def loop_ilu0(A, modified=False):
    """Row-by-row sparse IKJ ILU(0)/MILU(0): the bitwise reference.

    ``ilu0_factor`` must reproduce these factors exactly and raise at the
    same row; returns (L, U) or raises ZeroPivotError like it.
    """
    A = sp.csr_matrix(A).copy()
    A.sum_duplicates()
    A.sort_indices()
    n = A.shape[0]
    indptr, indices, data = A.indptr, A.indices, A.data

    # pos[j] is the position of entry (i, j) in data while row i is
    # eliminated, -1 outside row i's pattern (Saad, 2nd ed., 10.3).
    pos = [-1] * n
    diag_pos = np.empty(n, dtype=np.int64)
    diag_val = np.empty(n)

    for i in range(n):
        row = range(indptr[i], indptr[i + 1])
        for idx in row:
            pos[indices[idx]] = idx
        dropped = 0.0
        for idx in row:
            k = indices[idx]
            if k >= i:
                break
            piv = diag_val[k]
            lik = data[idx] / piv
            data[idx] = lik
            for jdx in range(diag_pos[k] + 1, indptr[k + 1]):
                p = pos[indices[jdx]]
                if p >= 0:
                    data[p] -= lik * data[jdx]
                elif modified:
                    dropped += lik * data[jdx]
        dpos = pos[i]
        if dpos < 0:
            raise ZeroPivotError(i, structural=True)
        data[dpos] -= dropped
        if data[dpos] == 0.0:
            raise ZeroPivotError(i)
        diag_pos[i] = dpos
        diag_val[i] = data[dpos]
        for idx in row:
            pos[indices[idx]] = -1

    F = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    L = (sp.tril(F, -1) + sp.identity(n, format="csr")).tocsr()
    U = sp.triu(F, 0).tocsr()
    L.sort_indices()
    U.sort_indices()
    return L, U


def _with_stored_zeros(A, entries):
    """A with explicitly stored 0.0 at the given (row, col) pairs."""
    A = A.tocoo()
    r, c = np.array(entries).T
    B = sp.csr_matrix((np.r_[A.data, np.zeros(len(r))],
                       (np.r_[A.row, r], np.r_[A.col, c])), shape=A.shape)
    assert B.nnz == A.nnz + len(r)
    return B


def _bitwise_cases(sphere_h4, sphere_h8):
    rng = np.random.default_rng(11)
    # Non-symmetric pattern: a lower entry (i, k) without its mirror (k, i)
    # and the other way round.
    R = sp.random(150, 150, density=0.04, random_state=rng, format="csr")
    nonsym = (R + 10.0 * sp.identity(150)).tocsr()
    pattern = (nonsym != 0).astype(int)
    assert (pattern != pattern.T).nnz > 0
    # Stored zeros in both triangles, and a stored zero pivot at (2, 2)
    # that the update from row 1 turns nonzero.
    stored = _with_stored_zeros(build_reference_matrix(6, 6),
                                [(5, 0), (0, 5), (20, 3), (3, 20), (17, 9)])
    zero_pivot = _with_stored_zeros(sp.csr_matrix(np.array(
        [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 0.0]])), [(2, 2)])
    return {
        "reference": build_reference_matrix(),
        "random_spd": random_spd(rng, 200, 0.05),
        "stiffness_h4": diag_scale(assemble_stiffness(sphere_h4[1]))[0],
        "stiffness_h8": diag_scale(assemble_stiffness(sphere_h8[1]))[0],
        "nonsymmetric_pattern": nonsym,
        "stored_zeros": stored,
        "stored_zero_pivot": zero_pivot,
        # One row per wavefront level.
        "tridiagonal": sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1],
                                shape=(300, 300), format="csr"),
    }


@pytest.mark.parametrize("modified", [False, True])
def test_ilu0_bitwise_equals_row_loop(modified, sphere_h4, sphere_h8):
    for name, A in _bitwise_cases(sphere_h4, sphere_h8).items():
        L, U = ilu0_factor(A, modified=modified)
        L_ref, U_ref = loop_ilu0(A, modified=modified)
        for got, ref in ((L, L_ref), (U, U_ref)):
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, field),
                                      getattr(ref, field)), (name, field)


@pytest.mark.parametrize("modified", [False, True])
def test_ilu0_matches_dense_reference(modified):
    rng = np.random.default_rng(4)
    for A in (build_reference_matrix(blocks=4, size=4), random_spd(rng, 60, 0.08)):
        L, U = ilu0_factor(A, modified=modified)
        L_ref, U_ref = dense_ilu0(A, modified=modified)
        npt.assert_allclose(L.toarray(), L_ref, rtol=1e-12, atol=1e-14)
        npt.assert_allclose(U.toarray(), U_ref, rtol=1e-12, atol=1e-14)


def test_ilu0_pattern_matches_input():
    A = build_reference_matrix(blocks=5, size=6)
    L, U = ilu0_factor(A)
    pat = lambda M: set(zip(*M.nonzero()))
    a_pat = pat(A)
    assert pat(sp.csr_matrix(sp.tril(L, -1))) == {(i, j) for i, j in a_pat if i > j}
    assert pat(U) == {(i, j) for i, j in a_pat if i <= j}


def test_ilu0_exact_on_pattern():
    # Plain ILU(0): the product L @ U agrees with A on A's pattern.
    A = build_reference_matrix(blocks=5, size=6)
    L, U = ilu0_factor(A)
    R = (L @ U - A).toarray()
    mask = A.toarray() != 0.0
    assert np.abs(R[mask]).max() <= 1e-12


def test_milu0_preserves_row_sums():
    rng = np.random.default_rng(5)
    for A in (build_reference_matrix(blocks=5, size=6), random_spd(rng, 50, 0.1)):
        L, U = ilu0_factor(A, modified=True)
        ones = np.ones(A.shape[0])
        npt.assert_allclose((L @ (U @ ones)), A @ ones, rtol=1e-10, atol=1e-10)


def test_ilu0_tridiagonal_exact():
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(25, 25), format="csr")
    L, U = ilu0_factor(A)
    npt.assert_allclose((L @ U).toarray(), A.toarray(), rtol=1e-14, atol=1e-14)


def test_ilu0_structurally_missing_pivot():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ZeroPivotError, match="structurally missing pivot in row 0"):
        ilu0_factor(A)


def test_ilu0_zero_pivot():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ZeroPivotError, match="zero pivot in row 1") as exc:
        ilu0_factor(A)
    assert exc.value.row == 1


@pytest.mark.parametrize("exc", [
    ZeroPivotError(7), ZeroPivotError(7, structural=True),
    EigNonConvergence("lambda_max estimate not converged", best=2.5),
    EigNonConvergence("lambda_2 estimate not converged"),
], ids=["zero", "structural", "eig-best", "eig-no-best"])
def test_solver_errors_survive_pickling(exc):
    # A conditioning row that runs in a worker process sends its error back
    # pickled; it must arrive with the same message and fields.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def _raised(factor, A, modified):
    with pytest.raises(ZeroPivotError) as exc:
        factor(A, modified=modified)
    return exc.value.row, str(exc.value)


# Row 1 has a zero pivot (1 - 1*1) and row 3 no stored diagonal; row 2
# reads row 1, and row 3 sits in the first wavefront level.
ZERO_THEN_MISSING = [[1.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 1.0, 0.0],
                     [0.0, 1.0, 3.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0]]
# Row 1 has no stored diagonal and row 2 reads it; row 3 has a zero pivot
# (1 - 1*1).
MISSING_THEN_ZERO = [[2.0, 0.0, 0.0, 1.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 1.0, 0.0],
                     [2.0, 0.0, 0.0, 1.0]]
# Row 1 has a zero pivot in the second wavefront level, row 2 a stored
# zero pivot in the first.
ZERO_THEN_ZERO = [[1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("dense, stored, row, kind", [
    (ZERO_THEN_MISSING, [], 1, "zero"),
    (MISSING_THEN_ZERO, [], 1, "structurally missing"),
    (ZERO_THEN_ZERO, [(2, 2)], 1, "zero"),
])
def test_ilu0_raises_at_lowest_failing_row(dense, stored, row, kind, modified):
    A = sp.csr_matrix(np.array(dense))
    if stored:
        A = _with_stored_zeros(A, stored)
    got = _raised(ilu0_factor, A, modified)
    assert got == _raised(loop_ilu0, A, modified)
    assert got[0] == row and f"{kind} pivot in row {row}" in got[1]


def test_ilu0_zero_pivot_emits_no_warning():
    # Row 2 reads the zero pivot of row 1: 1 / 0 is computed before the
    # lowest failing row is known, and must not surface as a warning.
    A = sp.csr_matrix(np.array(ZERO_THEN_MISSING)[:3, :3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroPivotError, match="zero pivot in row 1"):
            ilu0_factor(A)


def test_milu0_indefinite_on_singular_stiffness(sphere_h4):
    # Row-sum compensation turns the singular scaled stiffness matrix into
    # an indefinite preconditioner; the solver must refuse, not drift.
    _, surf = sphere_h4
    As, _ = diag_scale(assemble_stiffness(surf))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(As.shape[0])
    with pytest.raises((ZeroPivotError, np.linalg.LinAlgError)):
        pcg(As, As @ v, precond="milu0")


@pytest.mark.parametrize("modified", [False, True])
def test_ilu0_apply_matches_dense_triangular_solves(modified, sphere_h4):
    rng = np.random.default_rng(6)
    cases = [build_reference_matrix(10, 10), random_spd(rng, 90, 0.08)]
    if not modified:
        cases.append(diag_scale(assemble_stiffness(sphere_h4[1]))[0])
    precond = "milu0" if modified else "ilu0"
    for A in cases:
        L, U = ilu0_factor(A, modified=modified)
        apply_M = sparse_linalg._preconditioner(A, precond)
        r = rng.standard_normal(A.shape[0])
        r_before = r.copy()
        y = sla.solve_triangular(L.toarray(), r, lower=True,
                                 unit_diagonal=True)
        expected = sla.solve_triangular(U.toarray(), y)
        z = apply_M(r)
        npt.assert_allclose(z, expected, rtol=1e-12)
        npt.assert_array_equal(apply_M(r), z)
        npt.assert_array_equal(r, r_before)


# ---------------------------------------------------------------------------
# extreme eigenvalues


def test_eig_extreme_diagonal():
    A = sp.diags([np.arange(1.0, 11.0)], [0], format="csr")
    npt.assert_allclose(eig_extreme(A, "max"), 10.0, rtol=1e-6)
    npt.assert_allclose(eig_extreme(A, "min"), 1.0, rtol=1e-6)


def test_eig_extreme_reference_matrix():
    A = build_reference_matrix(blocks=10, size=10)
    w = np.linalg.eigvalsh(A.toarray())
    assert w[0] > 0.0
    npt.assert_allclose(eig_extreme(A, "max"), w[-1], rtol=1e-6)
    npt.assert_allclose(eig_extreme(A, "min"), w[0], rtol=1e-6)


def test_eig_extreme_random_spd():
    rng = np.random.default_rng(6)
    A = random_spd(rng, 200, 0.05, shift=5.0)
    w = np.linalg.eigvalsh(A.toarray())
    npt.assert_allclose(eig_extreme(A, "max"), w[-1], rtol=1e-6)
    npt.assert_allclose(eig_extreme(A, "min"), w[0], rtol=1e-6)


def test_eig_extreme_scaled_mass(sphere_h4):
    _, surf = sphere_h4
    Ms, _ = diag_scale(assemble_mass(surf))
    w = np.linalg.eigvalsh(Ms.toarray())
    npt.assert_allclose(eig_extreme(Ms, "max"), w[-1], rtol=1e-6)
    npt.assert_allclose(eig_extreme(Ms, "min"), w[0], rtol=1e-6)


def test_eig_extreme_seed_deterministic():
    rng = np.random.default_rng(7)
    A = random_spd(rng, 100, 0.05)
    assert eig_extreme(A, "max") == eig_extreme(A, "max")


def test_eig_extreme_rejects_bad_which():
    I3 = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        eig_extreme(I3, "median")


def test_eig_extreme_nonconvergence_carries_best(monkeypatch):
    rng = np.random.default_rng(8)
    A = random_spd(rng, 400, 0.02, shift=1.0)
    w = np.linalg.eigvalsh(A.toarray())
    monkeypatch.setattr(sparse_linalg, "_EIG_MAXITER", 5)
    with pytest.raises(EigNonConvergence) as exc:
        eig_extreme(A, "max")
    assert exc.value.best is not None
    assert abs(exc.value.best - w[-1]) < 0.5 * w[-1]


@pytest.mark.parametrize("lams", [
    np.concatenate(([-10.0], np.linspace(0.0, 1.0, 2000))),
    np.concatenate(([-10.0, -9.0], np.linspace(0.0, 1.0, 1000), [1.001])),
], ids=["one-isolated", "two-isolated"])
def test_eig_extreme_max_past_loss_of_orthogonality(monkeypatch, lams):
    # The isolated bottom converges within a few steps, after which the
    # plain recurrence loses orthogonality (|V^T V - I| near 1) long before
    # the clustered top converges; the top must still be accurate.
    A = sp.diags([lams], [0], format="csr")
    vectors = []
    lanczos = sparse_linalg._lanczos

    def recording(apply_op, n, **kw):
        def op(v):
            vectors.append(v.copy())
            return apply_op(v)
        return lanczos(op, n, **kw)

    monkeypatch.setattr(sparse_linalg, "_lanczos", recording)
    npt.assert_allclose(eig_extreme(A, "max"), lams.max(), rtol=1e-9)
    V = np.array(vectors)
    assert np.abs(V @ V.T - np.eye(len(V))).max() > 0.5


def test_effective_cond_small_diagonal():
    A = sp.diags([np.array([0.0, 1.0, 3.0])], [0], format="csr")
    est = effective_cond(A, np.array([1.0, 0.0, 0.0]))
    npt.assert_allclose(est.lambda_max, 3.0, rtol=1e-6)
    npt.assert_allclose(est.lambda_min, 1.0, rtol=1e-6)
    npt.assert_allclose(est.cond, 3.0, rtol=1e-6)


def test_effective_cond_deflated_bottom_cluster():
    # lambda_3 / lambda_2 - 1 = 2.5e-4, as on the h = 1/8, z_c = 0 sphere:
    # the one tracked pair of the shift-invert run must stop on lambda_2,
    # not between the two cluster members.
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((400, 400)))
    lams = np.concatenate(([0.0, 1e-3, 1e-3 * (1.0 + 2.5e-4)],
                           np.linspace(0.01, 2.0, 397)))
    A = sp.csr_matrix((Q * lams) @ Q.T)
    est = effective_cond(A, Q[:, 0])
    npt.assert_allclose(est.lambda_min, 1e-3, rtol=1e-6)
    npt.assert_allclose(est.lambda_max, 2.0, rtol=1e-6)


def test_effective_cond_path_laplacian():
    # Graph Laplacian of a 4-node path: nonzero spectrum 2-sqrt(2), 2, 2+sqrt(2).
    A = sp.csr_matrix(
        np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
    )
    est = effective_cond(A, np.ones(4))
    npt.assert_allclose(est.lambda_max, 2.0 + np.sqrt(2.0), rtol=1e-6)
    npt.assert_allclose(est.lambda_min, 2.0 - np.sqrt(2.0), rtol=1e-6)
    npt.assert_allclose(est.cond, 3.0 + 2.0 * np.sqrt(2.0), rtol=1e-6)


def test_effective_cond_permutation_invariant():
    rng = np.random.default_rng(9)
    L = sp.csr_matrix(
        np.diag([1.0, 2.0, 2.0, 2.0, 1.0])
        + np.diag([-1.0] * 4, 1)
        + np.diag([-1.0] * 4, -1)
    )
    base = effective_cond(L, np.ones(5))
    perm = rng.permutation(5)
    P = sp.csr_matrix((np.ones(5), (np.arange(5), perm)), shape=(5, 5))
    est = effective_cond(P @ L @ P.T, np.ones(5))
    npt.assert_allclose(est.cond, base.cond, rtol=1e-6)


def test_effective_cond_rejects_non_kernel():
    A = sp.diags([np.array([0.0, 1.0, 3.0])], [0], format="csr")
    with pytest.raises(ValueError, match="not in the kernel"):
        effective_cond(A, np.array([0.0, 1.0, 0.0]))


def test_zero_matrix_factors_nothing(monkeypatch):
    # a zero matrix has no shift to regularize it, so neither call factors
    def refuse(*args, **kwargs):
        raise AssertionError("a zero matrix was factorized")

    monkeypatch.setattr(spla, "splu", refuse)
    Z = sp.csr_matrix((3, 3))
    assert eig_extreme(Z, "min") == 0.0
    est = effective_cond(Z, np.ones(3))
    assert (est.lambda_max, est.lambda_min, est.cond) == (0.0, 0.0, np.inf)


@pytest.mark.parametrize("floor, delta", [(0.0, 4e-13), (0.5, 0.5)])
def test_shift_is_the_floor_or_the_norm_term(monkeypatch, floor, delta):
    # delta = max(1e-13 |A|_inf, floor); |A|_inf = 4 here
    A = sp.diags([np.array([1.0, 2.0, 4.0])], [0], format="csr")
    factored = []
    splu = spla.splu

    def recording(M, **kwargs):
        factored.append(M.diagonal() - A.diagonal())
        return splu(M, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    npt.assert_allclose(sparse_linalg._shift_invert_min(A, floor), 1.0,
                        rtol=1e-6)
    # A + delta*I rounds, so delta comes back to about 1e-3 relative
    npt.assert_allclose(factored, [[delta] * 3], rtol=1e-3)


def test_end_ritz_falls_back_to_the_full_tridiagonal_solve(monkeypatch):
    # A failed one-pair solve is redone as the full tridiagonal eigensolve.
    A = build_reference_matrix(10, 10)
    ref = eig_extreme(A, "max")
    eigh_tridiagonal = sla.eigh_tridiagonal
    selects = []

    def no_selection(d, e, *args, select="a", **kwargs):
        selects.append(select)
        if select == "i":
            raise sla.LinAlgError("selected eigenpair did not converge")
        return eigh_tridiagonal(d, e, *args, select=select, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", no_selection)
    lam = eig_extreme(A, "max")
    assert "i" in selects and "a" in selects
    npt.assert_allclose(lam, ref, rtol=1e-12)
    npt.assert_allclose(lam, np.linalg.eigvalsh(A.toarray())[-1], rtol=1e-6)


def test_cond_is_derived_from_the_two_ends():
    assert CondEstimate(6.0, 2.0).cond == 3.0
    est = CondEstimate(2.0, 4.0)
    est.lambda_min = 0.5                   # cond follows a changed end
    assert est.cond == 4.0
    # lambda_min <= 0, or below 1e-300 |lambda_max|, reports inf
    for lam_min in (0.0, -1.0, 1e-10):
        assert CondEstimate(1e300, lam_min).cond == np.inf
    assert CondEstimate(1.0, 1e-299).cond == 1e299


def test_effective_cond_rejects_zero_vector():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        effective_cond(A, np.zeros(3))


def test_effective_cond_stiffness(sphere_h4):
    # Deflating the exact kernel of the scaled stiffness matrix reproduces
    # the dense lambda_2-based effective condition number.
    _, surf = sphere_h4
    As, d = diag_scale(assemble_stiffness(surf))
    kernel = np.sqrt(d)
    est = effective_cond(As, kernel)
    w = np.linalg.eigvalsh(As.toarray())
    npt.assert_allclose(est.lambda_max, w[-1], rtol=1e-5)
    npt.assert_allclose(est.lambda_min, w[1], rtol=1e-5)


def test_effective_cond_singular_reports_huge():
    # diag(0, 0, 1) with e0 deflated keeps the zero eigenvalue of e1: the
    # shift-invert run puts lambda_2 at zero up to roundoff, either sign.
    A = sp.diags([np.array([0.0, 0.0, 1.0])], [0], format="csr")
    est = effective_cond(A, np.array([1.0, 0.0, 0.0]))
    assert est.cond == np.inf or est.cond > 1e10


def test_eig_extreme_ill_conditioned():
    d = np.logspace(-9.0, 0.0, 700)
    A = sp.diags([d], [0], format="csr")
    npt.assert_allclose(eig_extreme(A, "max"), 1.0, rtol=1e-6)
    npt.assert_allclose(eig_extreme(A, "min"), 1e-9, rtol=1e-6)
