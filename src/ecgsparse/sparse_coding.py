"""L1-penalized least-squares coding (LASSO) by feature-sign search.

The production solver is feature-sign search, run by encode_all on blocks
of columns in lockstep (feature_sign codes one column the same way);
oracle_solve is an independent cyclic coordinate-descent solver kept for
verification.  Both minimize

    0.5 * ||y - D x||_2^2 + lambda * ||x||_1

for a fixed dictionary D with unit-ball columns.
"""

from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (BadConfigError, DegenerateInputError, MaxIterationsError,
                     ShapeMismatchError)

# optimality tolerance for the subgradient conditions
OPT_TOL = 1e-7
# ridge added to the active-set Gram system; rank-deficient active sets are
# possible with overcomplete dictionaries, and this stays below OPT_TOL
RIDGE = 1e-10
# columns encode_all codes in one lockstep block; bounds its working memory
BLOCK_COLUMNS = 256


def default_lambda(d):
    """Default sparsity weight for feature dimension d."""
    return 1.2 / np.sqrt(d)


@dataclass
class CodingProblem:
    dictionary: np.ndarray
    target: np.ndarray
    lam: float

    def __post_init__(self):
        D = np.asarray(self.dictionary, dtype=float)
        y = np.asarray(self.target, dtype=float)
        if D.ndim != 2 or y.ndim != 1 or D.shape[0] != len(y):
            raise ShapeMismatchError(
                f"dictionary {D.shape} incompatible with target length {len(y)}")
        _check_dictionary(D, self.lam)
        if not np.isfinite(y).all():
            raise DegenerateInputError("target holds NaN or inf")
        self.dictionary = D
        self.target = y


def _check_dictionary(D, lam):
    if not lam > 0:
        raise BadConfigError("lambda must be positive")
    if not np.isfinite(D).all():
        raise DegenerateInputError("dictionary holds NaN or inf")
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms > 1.0 + 1e-9):
        raise BadConfigError(
            f"dictionary columns must lie in the unit ball (max norm {norms.max():.6g})")


def _as_dense(x, k):
    x = np.asarray(x, dtype=float)
    if x.shape != (k,):
        raise ShapeMismatchError(f"code shape {x.shape} != ({k},)")
    return x


def lasso_objective(problem, x):
    """0.5*||y - Dx||^2 + lambda*||x||_1, exactly as defined."""
    D, y = problem.dictionary, problem.target
    xd = _as_dense(x, D.shape[1])
    r = y - D @ xd
    return 0.5 * float(r @ r) + problem.lam * float(np.abs(xd).sum())


# ---------------------------------------------------------------------------
# feature-sign search, run in lockstep over a block of columns
#
# Every column of a block walks the same state machine: activate the most
# violating zero coefficient, solve the active-set system, line-search when
# the solve is not sign-consistent, and stop once the subgradient conditions
# hold.  Each lockstep step costs a fixed number of NumPy calls per block and
# active-set size; stacked matmul and solve run one BLAS/LAPACK call per
# column inside them, with the same operands as a column coded alone, so the
# codes do not depend on which other columns share the block.  (Padding the
# systems to one size, or one D'Y product for all columns, would round
# differently and change the codes.)

_ACTIVATE, _SOLVE, _DONE = 0, 1, 2


def _quad_objectives(Gaa, ba, lam, c0, P):
    """Objective on the active set (c0 = y.y) at points P (m x c x a).

    Per point x of column i: 0.5*c0_i - ba_i.x + (0.5*x).(Gaa_i x) + lam*|x|_1,
    evaluated with one dot or gemv per term and point.
    """
    Pv = P[..., None]
    q1 = (ba[:, None, None, :] @ Pv)[..., 0, 0]
    q2 = ((0.5 * P)[..., None, :] @ (Gaa[:, None] @ Pv))[..., 0, 0]
    return 0.5 * c0[:, None] - q1 + q2 + lam * np.abs(P).sum(axis=2)


def _line_search(Gaa, ba, lam, c0, xa, xnew):
    """Discrete line search from xa towards xnew for m columns at once.

    Candidates per column are xnew, then every point where a coefficient
    crosses zero on the segment, in ascending coefficient order; the first
    minimum of the objective wins.
    """
    m, a = xa.shape
    step = xnew - xa
    crossing = (xa != 0) & (np.sign(xa) != np.sign(xnew))
    t = np.divide(xa, xa - xnew, out=np.zeros_like(xa), where=crossing)
    crossing &= (0.0 < t) & (t <= 1.0)
    rank = np.cumsum(crossing, axis=1)
    count = rank[:, -1]
    P = np.zeros((m, 1 + int(count.max()), a))
    P[:, 0] = xnew
    ri, mi = crossing.nonzero()
    ci = rank[ri, mi]
    P[ri, ci] = xa[ri] + t[ri, mi, None] * step[ri]
    P[ri, ci, mi] = 0.0
    obj = _quad_objectives(Gaa, ba, lam, c0, P)
    obj[np.arange(P.shape[1]) > count[:, None]] = np.inf
    return P[np.arange(m), obj.argmin(axis=1)]


class _Lockstep:
    """Feature-sign state of a block of columns; row i belongs to column i.

    Work arrays of one step are locals of activate and step, so they are
    freed before the next step allocates its own.
    """

    def __init__(self, D, G, Y, lam):
        n, k = Y.shape[1], G.shape[0]
        self.G, self.lam = G, lam
        self.ridge = RIDGE * np.eye(k)
        # b = D'y and y'y one column at a time: a single D'Y product rounds
        # differently and would change the codes
        self.B = np.empty((n, k))
        self.c0 = np.empty(n)
        for i in range(n):
            y = Y[:, i]
            self.B[i] = D.T @ y
            self.c0[i] = y @ y
        self.X = np.zeros((n, k))
        self.theta = np.zeros((n, k), dtype=np.int8)  # signs of the active set
        self.active = np.zeros((n, k), dtype=bool)

    def activate(self, rows):
        """Activate each row's most violating zero coefficient (condition b).

        Returns which rows go on to an active-set solve; the others are
        optimal.
        """
        lam = self.lam
        grad = (self.G @ self.X[rows, :, None])[:, :, 0]
        grad -= self.B[rows]
        held = self.active[rows]
        cand = np.abs(grad)
        cand[held] = -np.inf
        j = cand.argmax(axis=1)
        go = cand[np.arange(rows.size), j] > lam + OPT_TOL
        self.theta[rows[go], j[go]] = -np.sign(grad[go, j[go]])
        self.active[rows[go], j[go]] = True
        # every atom active: re-solve unless the conditions already hold
        full = np.flatnonzero(held.all(axis=1))
        if full.size:
            go[full] = ~(np.abs(grad[full] + lam * self.theta[rows[full]])
                         <= OPT_TOL).all(axis=1)
        return go

    def step(self, g, a):
        """One feature-sign step for rows g, whose active sets all have size a.

        Returns which rows go back to activation: their solve was
        sign-consistent, or the line search emptied the active set.
        """
        lam = self.lam
        idx = self.active[g].nonzero()[1].reshape(g.size, a)
        Gaa = self.G[idx[:, :, None], idx[:, None, :]]
        Gaa += self.ridge[:a, :a]
        ba = self.B[g[:, None], idx]
        th = self.theta[g[:, None], idx]
        xnew = np.linalg.solve(Gaa, (ba - lam * th)[:, :, None])[:, :, 0]
        ok = (np.sign(xnew) == th).all(axis=1)
        if not ok.all():
            bad = ~ok
            xnew[bad] = _line_search(Gaa[bad], ba[bad], lam, self.c0[g[bad]],
                                     self.X[g[bad, None], idx[bad]], xnew[bad])
        self.X[g[:, None], idx] = xnew  # zero off the active set already
        self.active[g[:, None], idx] = xnew != 0.0
        self.theta[g[:, None], idx] = np.sign(xnew)
        return ok | ~xnew.any(axis=1)


def _feature_sign_block(D, G, Y, lam, max_iter):
    """Feature-sign search on every column of Y in lockstep.

    Returns (X, failure): row i of X codes column i of Y, and failure is None
    or (i, message) for the lowest column index that hit the iteration cap.
    """
    n = Y.shape[1]
    state = _Lockstep(D, G, Y, lam)
    phase = np.full(n, _ACTIVATE, dtype=np.int8)
    outer = np.zeros(n, dtype=int)
    inner = np.zeros(n, dtype=int)
    failures = {}
    outer_cap = f"feature-sign exceeded {max_iter} activations"
    inner_cap = f"feature-sign inner loop exceeded {max_iter} steps"

    def cap(rows, counts, message):
        hit = counts[rows] >= max_iter
        for i in rows[hit]:
            failures[int(i)] = message
        phase[rows[hit]] = _DONE
        rows = rows[~hit]
        counts[rows] += 1
        return rows

    live = np.arange(n)
    while live.size:
        rows = cap(live[phase[live] == _ACTIVATE], outer, outer_cap)
        if rows.size:
            go = state.activate(rows)
            phase[rows] = np.where(go, _SOLVE, _DONE)
            inner[rows[go]] = 0
        # feature-sign steps, grouped by exact active-set size
        rows = cap(live[phase[live] == _SOLVE], inner, inner_cap)
        sizes = state.active[rows].sum(axis=1)
        for a in np.flatnonzero(np.bincount(sizes)):
            g = rows[sizes == a]
            phase[g[state.step(g, a)]] = _ACTIVATE
        live = live[phase[live] != _DONE]

    failure = min(failures.items()) if failures else None
    return state.X, failure


def feature_sign(problem, max_iter=None):
    """Solve the coding problem; returns the dense length-k code.

    The result satisfies the LASSO subgradient conditions at OPT_TOL:
    |D_j'(Dx - y) + lam*sign(x_j)| <= tol on the active set and
    |D_j'(Dx - y)| <= lam + tol elsewhere.  Raises MaxIterationsError if the
    active-set loop exceeds the cap (default 4k) instead of returning a
    silently wrong answer.
    """
    D, y, lam = problem.dictionary, problem.target, problem.lam
    if max_iter is None:
        max_iter = 4 * D.shape[1]
    X, failure = _feature_sign_block(D, D.T @ D, y[:, None], lam, max_iter)
    if failure:
        raise MaxIterationsError(failure[1])
    return X[0]


def encode_all(D, Y, lam, max_iter=None):
    """feature_sign on every column of Y; returns the dense k x Omega code matrix.

    Columns are coded in lockstep blocks of BLOCK_COLUMNS; each column's code
    is bit for bit the one feature_sign gives it alone.  The first column
    that hits the iteration cap is named in the MaxIterationsError.
    """
    D = np.asarray(D, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or D.ndim != 2 or D.shape[0] != Y.shape[0]:
        raise ShapeMismatchError(
            f"dictionary {D.shape} incompatible with features {Y.shape}")
    _check_dictionary(D, lam)
    if not np.isfinite(Y).all():
        raise DegenerateInputError("features hold NaN or inf")
    k = D.shape[1]
    if max_iter is None:
        max_iter = 4 * k
    G = D.T @ D
    X = np.zeros((k, Y.shape[1]))
    for start in range(0, Y.shape[1], BLOCK_COLUMNS):
        Xb, failure = _feature_sign_block(
            D, G, Y[:, start:start + BLOCK_COLUMNS], lam, max_iter)
        if failure:
            raise MaxIterationsError(f"column {start + failure[0]}: {failure[1]}")
        X[:, start:start + Xb.shape[0]] = Xb.T
    return X


# ---------------------------------------------------------------------------
# verification oracle: cyclic coordinate descent


def oracle_solve(problem, max_sweeps=10000, tol=1e-12):
    """Coordinate-descent LASSO, used only to cross-check feature_sign.

    Exact per-coordinate soft-threshold updates, swept cyclically until the
    largest coordinate change in a sweep is below tol.  Returns the final
    iterate, a dense length-k vector, even if the sweep cap is reached.
    """
    D, y, lam = problem.dictionary, problem.target, problem.lam
    k = D.shape[1]
    # Python floats: NumPy scalar steps made this sweep about 3x slower
    G = (D.T @ D).tolist()
    b = (D.T @ y).tolist()
    x = [0.0] * k
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(k):
            gj = G[j]
            gjj = gj[j]
            if gjj < 1e-15:
                continue
            cj = b[j] - sum(map(mul, gj, x)) + gjj * x[j]
            new = (cj - lam if cj > lam else cj + lam if cj < -lam else 0.0) / gjj
            delta = max(delta, abs(new - x[j]))
            x[j] = new
        if delta < tol:
            break
    return np.array(x)


def check_optimality(problem, x, tol=OPT_TOL):
    """Max violation of the LASSO subgradient conditions (0 when optimal)."""
    D, y, lam = problem.dictionary, problem.target, problem.lam
    xd = _as_dense(x, D.shape[1])
    grad = D.T @ (D @ xd - y)
    act = xd != 0
    viol_a = np.abs(grad[act] + lam * np.sign(xd[act]))
    viol_b = np.abs(grad[~act]) - lam
    worst = 0.0
    if viol_a.size:
        worst = max(worst, float(viol_a.max()))
    if viol_b.size:
        worst = max(worst, float(max(viol_b.max(), 0.0)))
    return worst
