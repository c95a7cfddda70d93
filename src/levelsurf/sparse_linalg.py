"""Sparse symmetric linear algebra: PCG, ILU(0), Lanczos extremes.

Matrices are scipy CSR with both triangles stored.  The preconditioned
conjugate gradient follows the textbook recurrence from x = 0, with a
relative residual stopping rule and at most n steps; its preconditioner
is "none", "jacobi", "ilu0" or "milu0".  ILU(0) keeps the factor pattern
identical to the input pattern.  It is factored by level scheduling: the
rows fall into wavefront levels of the strict-lower pattern, rows of one
level are independent, and each level is eliminated by a few vectorized
updates per lower-entry rank, in the same floating-point order as a
row-by-row loop.  Its triangular factors are wrapped once in SuperLU
solvers (natural order, no pivoting, no fill), so each preconditioner
application is two substitution sweeps.  Extreme eigenvalues come from
the three-term Lanczos recurrence on two vectors, tracking the top Ritz
pair; lost orthogonality only repeats converged Ritz values, so an end
value needs no reorthogonalization.  A run starts from a seed-0 random
vector and stops on a residual bound below 1e-6 times the Ritz value, on
Krylov breakdown or at its cap of 600 steps.  The largest eigenvalue is
taken from a run on the matrix itself.  The smallest comes from one
shift-invert site: a sparse LU (symmetric minimum-degree order, diagonal
pivots) of A + delta*I, with delta > 0 so that a singular matrix is never
factorized, and a Lanczos run on its solve.  Effective condition numbers
project a supplied kernel vector off every Krylov vector and report
lambda_max / lambda_2.  Mass matrices need no factor: their condition
numbers come from :mod:`~levelsurf.surface_fem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

__all__ = [
    "SolveStats",
    "CondEstimate",
    "ZeroPivotError",
    "EigNonConvergence",
    "pcg",
    "ilu0_factor",
    "eig_extreme",
    "effective_cond",
    "build_reference_matrix",
]


class ZeroPivotError(RuntimeError):
    """ILU(0) hit a zero (or structurally missing) pivot."""

    def __init__(self, row: int, structural: bool = False):
        self.row = row
        self.structural = structural
        kind = "structurally missing" if structural else "zero"
        super().__init__(f"ILU(0) breakdown: {kind} pivot in row {row}")

    def __reduce__(self):
        # rebuilt from its fields, not from ``args`` (the message)
        return type(self), (self.row, self.structural)


class EigNonConvergence(RuntimeError):
    """Lanczos did not meet the tolerance within the iteration cap."""

    def __init__(self, message: str, best: float | None = None):
        self.best = best
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.best)


@dataclass
class SolveStats:
    iterations: int
    relres: float
    converged: bool


@dataclass
class CondEstimate:
    lambda_max: float
    lambda_min: float

    @property
    def cond(self) -> float:
        """lambda_max / lambda_min; inf when lambda_min <= 0 or underflows it."""
        lo, hi = self.lambda_min, self.lambda_max
        if lo <= 0.0 or lo < abs(hi) * 1e-300:
            return float("inf")
        return float(hi / lo)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y of two 1-D arrays, summed by numpy's own einsum loop.

    BLAS ``ddot`` (``x @ y``, ``np.linalg.norm``) splits long vectors over
    its threads, and the partial sums then add up in an order that depends
    on the thread count; this sum does not, so every output is the same
    whatever the BLAS thread settings.
    """
    return float(np.einsum("i,i->", x, y))


def _norm(x: np.ndarray) -> float:
    """2-norm of a 1-D array, sqrt(:func:`_dot` (x, x))."""
    return math.sqrt(_dot(x, x))


def _as_csr(A) -> sp.csr_matrix:
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    return A


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient


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


def _preconditioner(A: sp.csr_matrix, precond: str):
    """The map r -> z = M^-1 r of the named preconditioner of A."""
    if precond == "none":
        return lambda r: r
    if precond == "jacobi":
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError(
                f"Jacobi preconditioner: zero diagonal at row {int(np.argmin(d != 0))}"
            )
        inv_diag = 1.0 / d
        return lambda r: inv_diag * r
    if precond in ("ilu0", "milu0"):
        L, U = ilu0_factor(A, modified=precond == "milu0")
        solve_L = _triangular_solver(L).solve
        solve_U = _triangular_solver(U).solve
        return lambda r: solve_U(solve_L(r))
    raise ValueError(f"unknown preconditioner {precond!r}")


def pcg(A, b, tol: float = 1e-8, precond: str = "none"):
    """Conjugate gradient with optional preconditioning.

    Parameters
    ----------
    A : sparse symmetric (positive semi-definite) matrix
    b : right-hand side
    tol : relative residual tolerance |b - Ax| / |b|
    precond : "none" | "jacobi" | "ilu0" | "milu0"

    The iteration starts from x = 0 and stops after at most n steps, n the
    dimension of A.  It solves for b / 2^e, e the binary exponent of
    max |b|, and returns 2^e times that solution: a power of two scales
    every iterate exactly, so the run is that of b wherever b's own norms
    would underflow or overflow.  Each time the recursive residual passes
    ``tol``, the true residual b - Ax either meets ``tol`` or replaces the
    recursive one (residual replacement, van der Vorst & Ye, SIAM J. Sci.
    Comput. 22, 2000), and x is kept with it.  A replaced residual no
    smaller than the last one ends the run with the x kept at the last
    replacement; a run that ends at n steps or on an underflowed r.z
    returns the better of that x and the last one.

    Returns
    -------
    (x, SolveStats)
        Iteration count (the steps taken), true relative residual of the
        returned x, and whether the tolerance was met.  Non-convergence is
        reported in the stats, not raised; a breakdown (curvature
        p.Ap <= 0, or r.z < 0 from an indefinite preconditioner) raises
        LinAlgError naming which.
    """
    A = _as_csr(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    apply_M = _preconditioner(A, precond)
    e = math.frexp(float(np.abs(b).max(initial=0.0)))[1]
    b = np.ldexp(b, -e)

    x = np.zeros(n)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return x, SolveStats(0, 0.0, True)
    r = b.copy()
    if _norm(r) / bnorm <= tol:
        return x, SolveStats(0, _norm(r) / bnorm, True)

    z = apply_M(r)
    p = z.copy()
    rz = _dot(r, z)
    best = (x, math.inf)        # x and true residual at the last replacement
    for it in range(1, n + 1):
        Ap = A @ p
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            raise np.linalg.LinAlgError(
                f"PCG breakdown at iteration {it}: curvature {pAp:.3e} <= 0"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if _norm(r) / bnorm <= tol:
            r = b - A @ x
            true_rel = _norm(r) / bnorm
            if true_rel <= tol:
                return np.ldexp(x, e), SolveStats(it, true_rel, True)
            if true_rel >= best[1]:
                return np.ldexp(best[0], e), SolveStats(it, best[1], False)
            best = (x.copy(), true_rel)
        z = apply_M(r)
        rz_new = _dot(r, z)
        if rz_new < 0.0:
            raise np.linalg.LinAlgError(
                f"PCG breakdown at iteration {it}: preconditioned product "
                f"r.z = {rz_new:.3e} < 0"
            )
        if rz_new == 0.0:       # r.z underflowed: no further step is defined
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    relres = _norm(b - A @ x) / bnorm
    if best[1] < relres:
        x, relres = best
    return np.ldexp(x, e), SolveStats(it, relres, False)


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


def _end_ritz(alphas, betas):
    """Largest Ritz value and the last component of its tridiagonal
    eigenvector; only this pair is computed."""
    k = len(alphas)
    try:
        vals, vecs = sla.eigh_tridiagonal(alphas, betas, select="i",
                                          select_range=(k - 1, k - 1))
    except sla.LinAlgError:
        vals, vecs = sla.eigh_tridiagonal(alphas, betas)
    # eigh_tridiagonal returns the values ascending
    return vals[-1], vecs[-1, -1]


_EIG_TOL = 1e-6
_EIG_MAXITER = 600


def _lanczos(apply_op, n, project=None):
    """Largest eigenvalue of a symmetric operator by the three-term
    Lanczos recurrence on two vectors: O(n) memory per run.

    Lost orthogonality comes with convergence and only repeats converged
    Ritz values, and beta * |last component| of the top Ritz pair still
    bounds its distance to an eigenvalue up to O(eps |A|) (Paige, Linear
    Algebra Appl. 34, 1980; Parlett, The Symmetric Eigenvalue Problem,
    ch. 13), so no reorthogonalization is needed.  A run stops when that
    bound is below _EIG_TOL * |value| (checked at steps 0-63, then every
    8th and the last), or on Krylov breakdown (an invariant subspace:
    exact).  The start vector is drawn from ``default_rng(0)``, so a run is
    deterministic.  ``project`` is applied to the start vector and every
    new vector.

    The bound places the value near *an* eigenvalue, so where the two top
    eigenvalues lie closer than it, the value may sit between them: on the
    h = 1/8, z_c = 0.03 sphere the two smallest eigenvalues of the mass
    matrix lie 1.7e-6 apart, relative, and its lambda_min comes out 1.34e-6
    above the smallest.

    Returns the top Ritz value as a float.  Raises EigNonConvergence, with
    the best value, if it does not converge within _EIG_MAXITER steps.
    """
    v = np.random.default_rng(0).standard_normal(n)
    if project is not None:
        v = project(v)
    nv = _norm(v)
    if nv == 0.0:
        raise ValueError("start vector vanished under deflation")
    v = v / nv
    v_prev = None
    alphas, betas = [], []
    alpha_max = beta_max = 0.0

    for k in range(_EIG_MAXITER):
        w = apply_op(v)
        alphas.append(_dot(v, w))
        w = w - alphas[-1] * v
        if k:
            w -= betas[-1] * v_prev
        if project is not None:
            w = project(w)
        beta = _norm(w)

        alpha_max = max(alpha_max, abs(alphas[-1]))
        exact = beta <= 1e-14 * (alpha_max + beta_max)
        if k < 64 or k % 8 == 0 or k == _EIG_MAXITER - 1 or exact:
            val, last = _end_ritz(alphas, betas)
            if exact or beta * abs(last) <= _EIG_TOL * max(abs(val), 1e-300):
                return float(val)
        betas.append(beta)
        beta_max = max(beta_max, beta)
        v_prev, v = v, w / beta

    val, _ = _end_ritz(alphas, betas[:-1])
    raise EigNonConvergence(
        f"Lanczos did not converge within {_EIG_MAXITER} iterations",
        best=float(val))


def _shift_invert_min(A: sp.csr_matrix, floor: float = 0.0,
                      project=None) -> float:
    """Bottom of the spectrum of A from a shift-invert Lanczos run.

    Factors A + delta*I once by sparse LU, delta = max(1e-13 |A|_inf,
    ``floor``), and runs :func:`_lanczos` on its solve, passing ``project``
    on; the bottom of A's spectrum becomes the well-separated top of the
    inverse's.  A zero matrix returns 0.0 unfactorized, and with delta > 0
    a singular A is never factorized.  Returns 1/mu - delta, mu the top
    Ritz value, and raises EigNonConvergence if mu <= 0.
    """
    norm_inf = float(np.max(np.abs(A).sum(axis=1)))
    if norm_inf == 0.0:
        return 0.0
    delta = max(1e-13 * norm_inf, floor)
    n = A.shape[0]
    # A + delta*I is positive definite (or semidefinite plus the shift), so
    # diagonal pivots suffice and a symmetric minimum-degree order keeps
    # the fill of both factors low.
    lu = spla.splu((A + delta * sp.identity(n, format="csr")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    mu = _lanczos(lu.solve, n, project=project)
    if mu <= 0.0:
        raise EigNonConvergence(
            "inverse operator returned a non-positive Ritz value")
    return 1.0 / mu - delta


def eig_extreme(A, which: str = "max") -> float:
    """Extreme eigenvalue estimate by Lanczos.

    which="max" runs Lanczos on A itself.  which="min" runs it on the
    inverse of A + delta*I, delta = 1e-13 |A|_inf, and returns 0.0 for a
    zero matrix (:func:`_shift_invert_min`).  The Lanczos run has a fixed
    relative tolerance (1e-6), step cap (600) and start vector (seed 0); it
    raises EigNonConvergence at the cap.
    """
    A = _as_csr(A)
    if which == "max":
        return _lanczos(lambda v: A @ v, A.shape[0])
    if which != "min":
        raise ValueError("which must be 'max' or 'min'")
    return _shift_invert_min(A)


def effective_cond(A, kernel: np.ndarray) -> CondEstimate:
    """lambda_max / lambda_2 with the one-dimensional kernel deflated.

    The normalized kernel k is projected off every Lanczos vector, and
    lambda_2 comes from :func:`_shift_invert_min` with floor 4 |A k|, so
    delta = max(1e-13 |A|_inf, 4 |A k|).  ``kernel`` must actually be a kernel
    vector: |A k| <= 1e-8 lambda_max is enforced.  An estimate with
    lambda_2 <= 0 reports cond = inf.  On each component of A's graph, the
    part of k is a kernel vector too; so a k that is nonzero on c > 1
    components with a stored entry, as on a surface of c pieces, shows a
    kernel of at least c dimensions and raises ValueError.
    """
    A = _as_csr(A)
    khat = np.asarray(kernel, dtype=float)
    nk = _norm(khat)
    if nk == 0.0:
        raise ValueError("kernel vector is zero")
    khat = khat / nk
    labels = connected_components(A, directed=False)[1]
    c = np.unique(labels[(khat != 0.0) & (np.diff(A.indptr) > 0)]).size
    if c > 1:
        raise ValueError(f"the kernel vector spans {c} components of the "
                         f"matrix graph: the kernel has at least {c} "
                         "dimensions, not 1")

    def project(w):
        return w - _dot(khat, w) * khat

    lam_max = _lanczos(lambda v: A @ v, A.shape[0], project=project)
    resid = _norm(A @ khat)
    if resid > 1e-8 * abs(lam_max):
        raise ValueError(
            f"supplied vector is not in the kernel: |A k| = {resid:.3e} "
            f"> 1e-8 * lambda_max = {1e-8 * abs(lam_max):.3e}"
        )
    lam2 = _shift_invert_min(A, 4.0 * resid, project)
    return CondEstimate(float(lam_max), float(lam2))


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
