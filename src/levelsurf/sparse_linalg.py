"""Sparse symmetric linear algebra: PCG, ILU(0), Lanczos extremes.

Matrices are scipy CSR with both triangles stored.  The preconditioned
conjugate gradient follows the textbook recurrence with a relative
residual stopping rule; ILU(0) keeps the factor pattern identical to the
input pattern.  It is factored by level scheduling: the rows fall into
wavefront levels of the strict-lower pattern, rows of one level are
independent, and each level is eliminated by a few vectorized updates per
lower-entry rank, in the same floating-point order as a row-by-row loop.
Its triangular factors are wrapped once in SuperLU solvers (natural
order, no pivoting, no fill), so each preconditioner application is two
substitution sweeps.  Extreme eigenvalues come from one Lanczos routine
with full reorthogonalization that tracks one Ritz pair per end and forms
no Ritz vectors.  The largest is taken from a run on the matrix itself.
The smallest of a positive definite matrix is taken from the same Krylov
basis when it converges within twice the steps the largest needed;
otherwise, and always for the smallest nonzero eigenvalue of a deflated
semidefinite matrix, it comes from a shift-invert run through a sparse LU
(symmetric minimum-degree order, diagonal pivots) of the slightly
regularized matrix, so that a singular matrix is never factorized.
Effective condition numbers project a supplied kernel vector off every
Krylov vector and report lambda_max / lambda_2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolveStats",
    "CondEstimate",
    "ZeroPivotError",
    "EigNonConvergence",
    "pcg",
    "ilu0_factor",
    "ILU0Preconditioner",
    "eig_extreme",
    "effective_cond",
    "spd_cond",
    "build_reference_matrix",
]


class ZeroPivotError(RuntimeError):
    """ILU(0) hit a zero (or structurally missing) pivot."""

    def __init__(self, row: int, structural: bool = False):
        self.row = row
        kind = "structurally missing" if structural else "zero"
        super().__init__(f"ILU(0) breakdown: {kind} pivot in row {row}")


class EigNonConvergence(RuntimeError):
    """Lanczos did not meet the tolerance within the iteration cap."""

    def __init__(self, message: str, best: float | None = None):
        self.best = best
        super().__init__(message)


@dataclass
class SolveStats:
    iterations: int
    relres: float
    converged: bool


@dataclass
class CondEstimate:
    lambda_max: float
    lambda_min: float
    cond: float
    deflated: bool


def _as_csr(A) -> sp.csr_matrix:
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    return A


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient


class JacobiPreconditioner:
    def __init__(self, A: sp.spmatrix):
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError(
                f"Jacobi preconditioner: zero diagonal at row {int(np.argmin(d != 0))}"
            )
        self.inv_diag = 1.0 / d

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.inv_diag * r


def _triangular_solver(T: sp.csr_matrix):
    """SuperLU solver of a triangular matrix, factored once.

    Natural column order and diagonal pivots leave the factor equal to T
    itself: no fill, no pivoting, so each solve is one substitution sweep.
    Single-column panels and no relaxed supernodes give the same factor
    with less workspace: with SuperLU's defaults, repeated reference-matrix
    solves peaked about 10 MiB higher in resident memory.
    """
    return spla.splu(T.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     relax=1, panel_size=1, options=dict(SymmetricMode=True))


class ILU0Preconditioner:
    def __init__(self, A: sp.spmatrix, modified: bool = False):
        self.L, self.U = ilu0_factor(A, modified=modified)
        self._solve_L = _triangular_solver(self.L).solve
        self._solve_U = _triangular_solver(self.U).solve

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._solve_U(self._solve_L(r))


def _make_preconditioner(A: sp.csr_matrix, precond):
    if precond is None or precond == "none":
        return None
    if precond == "jacobi":
        return JacobiPreconditioner(A)
    if precond == "ilu0":
        return ILU0Preconditioner(A)
    if precond == "milu0":
        return ILU0Preconditioner(A, modified=True)
    if hasattr(precond, "apply"):
        return precond
    raise ValueError(f"unknown preconditioner {precond!r}")


def pcg(A, b, tol: float = 1e-8, maxiter: int | None = None,
        precond=None, x0: np.ndarray | None = None):
    """Conjugate gradient with optional preconditioning.

    Parameters
    ----------
    A : sparse symmetric (positive semi-definite) matrix
    b : right-hand side
    tol : relative residual tolerance |b - Ax| / |b|
    precond : None | "jacobi" | "ilu0" | "milu0" | object with .apply(r)

    Returns
    -------
    (x, SolveStats)
        Iteration count, final true relative residual, and whether the
        tolerance was met.  Non-convergence is reported in the stats, not
        raised; a breakdown (non-positive curvature) raises LinAlgError.
    """
    A = _as_csr(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    if maxiter is None:
        maxiter = n
    M = _make_preconditioner(A, precond)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x * 0.0, SolveStats(0, 0.0, True)
    r = b - A @ x if x.any() else b.copy()
    if np.linalg.norm(r) / bnorm <= tol:
        return x, SolveStats(0, float(np.linalg.norm(r) / bnorm), True)

    z = M.apply(r) if M is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise np.linalg.LinAlgError(
                f"PCG breakdown at iteration {it}: curvature {pAp:.3e} <= 0"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) / bnorm <= tol:
            true_rel = float(np.linalg.norm(b - A @ x) / bnorm)
            if true_rel <= tol:
                return x, SolveStats(it, true_rel, True)
        z = M.apply(r) if M is not None else r
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise np.linalg.LinAlgError(
                f"PCG breakdown at iteration {it}: preconditioned product "
                f"{rz_new:.3e} <= 0"
            )
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, SolveStats(maxiter, float(np.linalg.norm(b - A @ x) / bnorm), False)


# ---------------------------------------------------------------------------
# ILU(0)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated aranges [s, s + c) over (starts, counts), as intp."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(len(out), dtype=out.dtype)
    return out


def _wavefront_levels(n: int, erow: np.ndarray, ecol: np.ndarray,
                      nlow: np.ndarray) -> tuple[np.ndarray, int]:
    """Level of every row in the DAG of the strict-lower entries (i, k).

    A row without lower entries has level 0, any other row 1 + the highest
    level among the rows k it reads.  Rows of one level are independent.
    Returns (level per row, number of levels); one numpy pass per level.
    """
    dependents = erow[np.argsort(ecol, kind="stable")]
    dptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ecol, minlength=n), out=dptr[1:])
    # intp like the decrement 1: ufunc.at is slow when the dtypes differ.
    waiting = nlow.astype(np.intp)
    level = np.empty(n, dtype=erow.dtype)
    front = np.flatnonzero(waiting == 0)
    nlev = 0
    while front.size:
        level[front] = nlev
        nlev += 1
        ready = dependents[_ranges(dptr[front], dptr[front + 1] - dptr[front])]
        np.subtract.at(waiting, ready, 1)
        front = np.unique(ready[waiting[ready] == 0])
    return level, nlev


def _factor_in_place(indptr, indices, data, modified: bool) -> None:
    """Level-scheduled ILU(0)/MILU(0) of a sorted CSR matrix, in place."""
    n = len(indptr) - 1
    nnz = len(indices)
    itype = indices.dtype

    # Per row: number of lower entries, diagonal position and the U part
    # (the entries right of the diagonal); (row, column) search keys.
    rows = np.repeat(np.arange(n, dtype=itype), np.diff(indptr))
    epos = np.flatnonzero(indices < rows).astype(itype)
    erow, ecol = rows[epos], indices[epos]
    has_diag = np.zeros(n, dtype=bool)
    has_diag[rows[indices == rows]] = True
    keys = rows.astype(np.int64) * n + indices
    del rows
    nlow = np.bincount(erow, minlength=n).astype(itype)
    dpos = indptr[:-1] + nlow
    ustart = dpos + has_diag
    ulen = indptr[1:] - ustart

    # Lower entries sorted into steps: step (level, t) holds the t-th lower
    # entry of every row of that level, rows ascending.
    level, nlev = _wavefront_levels(n, erow, ecol, nlow)
    steps_per_level = np.zeros(nlev, dtype=nlow.dtype)
    np.maximum.at(steps_per_level, level, nlow)
    level_step = np.concatenate(([0], np.cumsum(steps_per_level)))
    estep = level_step[level[erow]] + (epos - indptr[erow])
    order = np.argsort(estep, kind="stable")
    epos, erow, ecol = epos[order], erow[order], ecol[order]
    eptr = np.searchsorted(estep[order], np.arange(level_step[-1] + 1))
    del order, estep

    # Rows with a diagonal, by level: their pivots are written once the
    # level is done.  A row without one keeps a NaN pivot; it fails, and
    # the rows that read it lie below it.
    drow = np.flatnonzero(has_diag).astype(itype)
    drow = drow[np.argsort(level[drow], kind="stable")]
    rptr = np.searchsorted(level[drow], np.arange(nlev + 1)).tolist()
    ddpos = dpos[drow]
    piv = np.full(n, np.nan)
    dropped = np.zeros(n) if modified else None
    level_step = level_step.tolist()

    # Targets within a step are distinct, and a row meets its k in ascending
    # order, so every entry receives the loop's updates in the loop's
    # order; np.add.at sums each row's dropped fill in that order too.
    # Update triples are built one level at a time, which bounds their
    # memory by the widest level rather than by the whole matrix.
    with np.errstate(divide="ignore", invalid="ignore"):
        for lev in range(nlev):
            # The level's update triples: lower entry (i, k) at lpos, U entry
            # (k, j) at jdx and entry (i, j) at p, or a miss (dropped fill).
            steps = eptr[level_step[lev]:level_step[lev + 1] + 1]
            e = slice(steps[0], steps[-1])
            tcount = ulen[ecol[e]]
            jdx = _ranges(ustart[ecol[e]], tcount)
            lpos = np.repeat(epos[e], tcount)
            trow = np.repeat(erow[e], tcount)
            tkeys = trow.astype(np.int64) * n + indices[jdx]
            p = np.minimum(np.searchsorted(keys, tkeys), nnz - 1)
            hit = keys[p] == tkeys
            tptr = np.concatenate(([0], np.cumsum(tcount)))[steps - steps[0]]
            hptr = np.concatenate(([0], np.cumsum(hit)))[tptr]
            hl, hj, hp = lpos[hit], jdx[hit], p[hit]
            if modified:
                miss = ~hit
                ml, mj, mrow = lpos[miss], jdx[miss], trow[miss]
                mptr = (tptr - hptr).tolist()
            steps, hptr = steps.tolist(), hptr.tolist()
            for t in range(len(steps) - 1):
                s = slice(steps[t], steps[t + 1])
                data[epos[s]] /= piv[ecol[s]]
                h = slice(hptr[t], hptr[t + 1])
                data[hp[h]] -= data[hl[h]] * data[hj[h]]
                if modified:
                    m = slice(mptr[t], mptr[t + 1])
                    np.add.at(dropped, mrow[m], data[ml[m]] * data[mj[m]])
            r = slice(rptr[lev], rptr[lev + 1])
            if modified:
                data[ddpos[r]] -= dropped[drow[r]]
            piv[drow[r]] = data[ddpos[r]]

    # Rows above the lowest failing row read only rows above it, so they
    # are exact and that row is the one where the loop stops.
    missing = np.flatnonzero(~has_diag)
    zero = drow[data[ddpos] == 0.0]
    first_missing = int(missing[0]) if missing.size else n
    first_zero = int(zero.min()) if zero.size else n
    if min(first_missing, first_zero) < n:
        raise ZeroPivotError(min(first_missing, first_zero),
                             structural=first_missing < first_zero)


def ilu0_factor(A, modified: bool = False) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Incomplete LU with zero fill-in.

    Returns (L, U) in CSR with L unit lower triangular and U upper
    triangular; together they occupy exactly the sparsity pattern of A.
    With ``modified=False`` (plain ILU(0)), L@U reproduces A exactly on
    A's pattern.  With ``modified=True`` (MILU(0)), the fill dropped from
    each row is subtracted from that row's pivot instead, so L@U
    preserves the row sums of A; this row-compensated variant
    preconditions Laplacian-like stencils far better than plain ILU(0).
    Raises ZeroPivotError at the lowest row whose pivot is zero or whose
    diagonal is structurally absent.

    The factorization is level-scheduled (Saad, Iterative Methods for
    Sparse Linear Systems, 2nd ed., 11.6; Anderson & Saad, 1989): row i
    reads only the finished rows k of its strict-lower pattern, so the
    rows fall into wavefront levels (a row's level is 1 + the highest level
    among its k) and each level is eliminated at once, its rows taking
    their k in ascending order.  Every entry sees the floating-point
    operations of the row-by-row IKJ loop in the loop's order, so the
    factors are bitwise those of that loop.  Each level costs a fixed
    number of numpy calls to gather its updates plus a few per step (the
    t-th lower entry of all its rows), and the arithmetic is linear in
    the number of updates.  That is fast for few, wide levels (239 for
    the 14 400-dof reference matrix, about 115 for the h = 1/16 surface
    stiffness matrix), but a banded matrix of dimension n has n levels of
    one row each and factors slower than a plain Python loop would.
    """
    A = _as_csr(A).copy()
    A.sum_duplicates()
    A.sort_indices()
    _factor_in_place(A.indptr, A.indices, A.data, modified)

    n = A.shape[0]
    L = (sp.tril(A, -1) + sp.identity(n, format="csr")).tocsr()
    U = sp.triu(A, 0).tocsr()
    L.sort_indices()
    U.sort_indices()
    return L, U


# ---------------------------------------------------------------------------
# Lanczos extreme eigenvalues


def _end_ritz(alphas, betas, bottom):
    """Largest and, with ``bottom``, smallest Ritz value, with the last
    components of their tridiagonal eigenvectors; past 64 steps only these
    pairs are computed."""
    a = np.asarray(alphas)
    b = np.asarray(betas)
    k = len(a)
    if k <= 64:
        vals, vecs = sla.eigh_tridiagonal(a, b)
    else:
        try:
            vals, vecs = sla.eigh_tridiagonal(
                a, b, select="i", select_range=(k - 1, k - 1)
            )
            if bottom:
                low, low_vec = sla.eigh_tridiagonal(
                    a, b, select="i", select_range=(0, 0)
                )
                vals = np.concatenate((low, vals))
                vecs = np.hstack((low_vec, vecs))
        except sla.LinAlgError:
            vals, vecs = sla.eigh_tridiagonal(a, b)
    # eigh_tridiagonal returns the values ascending
    ends = [-1, 0] if bottom else [-1]
    return vals[ends], vecs[-1, ends]


def _lanczos(apply_op, n, rng, tol, maxiter, project=None, bottom=False):
    """End eigenvalues of a symmetric operator, full reorthogonalization.

    Tracks one Ritz pair at the top and, with ``bottom``, one at the
    bottom; no Ritz vector is formed.  A pair has converged when its
    residual bound beta * |last component| falls below tol * |value|.  The
    run stops when every tracked pair has converged, or on Krylov breakdown
    (invariant subspace, estimates exact).  If the top pair converges
    first, at step k_top, the bottom pair gets until step 2 k_top: the
    dense reorthogonalization costs O(k^2 n), so an unconverged bottom end
    costs at most three times the top run.  ``project`` is applied to the
    start vector and to every new Lanczos vector.

    Returns (top, bottom) as floats; bottom is None unless it was asked
    for and converged.  Raises EigNonConvergence, with the best top value,
    if the top pair does not converge within ``maxiter`` steps.
    """
    maxiter = min(maxiter, n)
    V = np.empty((maxiter + 1, n))
    v = rng.standard_normal(n)
    if project is not None:
        v = project(v)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("start vector vanished under deflation")
    V[0] = v / nv
    alphas: list[float] = []
    betas: list[float] = []
    alpha_max = beta_max = 0.0
    k_top = None

    for k in range(maxiter):
        w = apply_op(V[k])
        alphas.append(float(V[k] @ w))
        w = w - alphas[-1] * V[k]
        if k:
            w -= betas[-1] * V[k - 1]
        w -= V[: k + 1].T @ (V[: k + 1] @ w)
        if project is not None:
            w = project(w)
        beta = float(np.linalg.norm(w))

        alpha_max = max(alpha_max, abs(alphas[-1]))
        exact = beta <= 1e-14 * (alpha_max + beta_max) or k + 1 == n
        if k < 64 or k % 8 == 0 or k == maxiter - 1 or exact:
            vals, last = _end_ritz(alphas, betas, bottom)
            ok = beta * np.abs(last) <= tol * np.maximum(np.abs(vals), 1e-300)
            if k_top is None and ok[0]:
                k_top = k + 1
            if exact or ok.all() or (
                k_top is not None and (k + 1 >= 2 * k_top or k == maxiter - 1)
            ):
                low = float(vals[1]) if bottom and (exact or ok[1]) else None
                return float(vals[0]), low
        betas.append(beta)
        beta_max = max(beta_max, beta)
        V[k + 1] = w / beta

    vals, _ = _end_ritz(alphas, betas[:-1], False)
    raise EigNonConvergence(
        f"Lanczos did not converge within {maxiter} iterations",
        best=float(vals[0]))


def _deflation_projector(deflate: np.ndarray):
    k = np.asarray(deflate, dtype=float)
    nk = np.linalg.norm(k)
    if nk == 0.0:
        raise ValueError("deflation vector is zero")
    k = k / nk

    def project(w):
        return w - (k @ w) * k

    return k, project


def eig_extreme(A, which: str = "max", tol: float = 1e-6,
                maxiter: int | None = None, seed: int = 0,
                deflate: np.ndarray | None = None) -> float:
    """Extreme eigenvalue estimate by Lanczos.

    which="max" runs Lanczos on A itself.  which="min" runs Lanczos on the
    inverse of A + delta*I (sparse LU; delta a tiny multiple of |A| so a
    singular input is never factorized) and returns 1/mu - delta: the
    bottom of the spectrum becomes the well-separated top of the inverse's.
    :func:`spd_cond` falls back to this run when the bottom end does not
    converge in its direct run.  With ``deflate`` the supplied near-kernel
    direction is projected off the start vector and every new Lanczos
    vector, so the Krylov basis is orthogonal to it and "min" is the
    smallest nonzero eigenvalue.
    """
    A = _as_csr(A)
    n = A.shape[0]
    if maxiter is None:
        maxiter = min(n, 600)
    rng = np.random.default_rng(seed)

    khat = project = None
    if deflate is not None:
        khat, project = _deflation_projector(deflate)

    if which == "max":
        return _lanczos(lambda v: A @ v, n, rng, tol, maxiter,
                        project=project)[0]

    if which != "min":
        raise ValueError("which must be 'max' or 'min'")

    norm_inf = float(np.max(np.abs(A).sum(axis=1)))
    if norm_inf == 0.0:
        return 0.0
    delta = 1e-13 * norm_inf
    if khat is not None:
        delta = max(delta, 4.0 * float(np.linalg.norm(A @ khat)))
    # A + delta*I is positive definite (or semidefinite plus the shift), so
    # diagonal pivots suffice and a symmetric minimum-degree order keeps
    # the fill of both factors low.
    lu = spla.splu((A + delta * sp.identity(n, format="csr")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))

    mu, _ = _lanczos(lu.solve, n, rng, tol, maxiter, project=project)
    if mu <= 0.0:
        raise EigNonConvergence(
            "inverse operator returned a non-positive Ritz value")
    return 1.0 / mu - delta


def _cond_estimate(lam_max: float, lam_min: float,
                   deflated: bool) -> CondEstimate:
    """lambda_max / lambda_min; inf when lambda_min <= 0 or underflows it."""
    bad = lam_min <= 0.0 or lam_min < abs(lam_max) * 1e-300
    cond = float("inf") if bad else float(lam_max / lam_min)
    return CondEstimate(float(lam_max), float(lam_min), cond, deflated)


def effective_cond(A, kernel: np.ndarray, tol: float = 1e-6,
                   seed: int = 0) -> CondEstimate:
    """lambda_max / lambda_2 with the one-dimensional kernel deflated.

    ``kernel`` must actually be a kernel vector: |A k| <= 1e-8 lambda_max |k|
    is enforced.  An estimate with lambda_2 <= 0 reports cond = inf.
    """
    A = _as_csr(A)
    khat, _ = _deflation_projector(kernel)
    lam_max = eig_extreme(A, "max", tol=tol, seed=seed, deflate=kernel)
    resid = float(np.linalg.norm(A @ khat))
    if resid > 1e-8 * abs(lam_max):
        raise ValueError(
            f"supplied vector is not in the kernel: |A k| = {resid:.3e} "
            f"> 1e-8 * lambda_max = {1e-8 * abs(lam_max):.3e}"
        )
    lam2 = eig_extreme(A, "min", tol=tol, seed=seed, deflate=kernel)
    return _cond_estimate(lam_max, lam2, deflated=True)


def spd_cond(A, tol: float = 1e-6, seed: int = 0) -> CondEstimate:
    """lambda_max / lambda_min for a positive definite matrix.

    Both ends come from one Lanczos run on A itself.  Once lambda_max has
    converged at step k_top, the run continues for lambda_min up to step
    2 k_top; if lambda_min has not converged by then (a badly conditioned
    A), it is computed by the shift-invert run of
    ``eig_extreme(A, "min")`` instead, and only then is A factored.
    Raises EigNonConvergence, with the best lambda_max, if lambda_max does
    not converge within min(n, 600) steps.
    """
    A = _as_csr(A)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    lam_max, lam_min = _lanczos(lambda v: A @ v, n, rng, tol, min(n, 600),
                                bottom=True)
    if lam_min is None:
        lam_min = eig_extreme(A, "min", tol=tol, seed=seed)
    return _cond_estimate(lam_max, lam_min, deflated=False)


# ---------------------------------------------------------------------------
# reference matrix


def build_reference_matrix(blocks: int = 120, size: int = 120) -> sp.csr_matrix:
    """Symmetric block tridiagonal test matrix.

    Diagonal blocks D = tridiag(-1, 6, -1); the block above the diagonal is
    -B^T and the block below is -B, with B carrying ones on its diagonal
    and first subdiagonal.  With the default 120 blocks of size 120 the
    matrix has dimension 14400 and mostly 7 nonzeros per row.
    """
    if blocks < 1 or size < 1:
        raise ValueError("blocks and size must be positive")
    D = sp.diags([-1.0, 6.0, -1.0], [-1, 0, 1], shape=(size, size))
    B = sp.diags([1.0, 1.0], [0, -1], shape=(size, size))
    S = sp.diags([1.0], [1], shape=(blocks, blocks))
    A = (
        sp.kron(sp.identity(blocks), D)
        - sp.kron(S, B.T)
        - sp.kron(S.T, B)
    ).tocsr()
    # kron may pad small blocks with stored zeros; drop them so the
    # sparsity pattern (which ILU(0) factors) is the true stencil.
    A.eliminate_zeros()
    A.sort_indices()
    return A
