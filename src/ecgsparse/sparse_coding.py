"""L1-penalized least-squares coding (LASSO) by feature-sign search.

Feature-sign search, run by encode_all on blocks of columns in lockstep
(feature_sign codes one column the same way), minimizes

    0.5 * ||y - D x||_2^2 + lambda * ||x||_1

for a fixed dictionary D with unit-ball columns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BadConfigError, DegenerateInputError, MaxIterationsError,
                     ShapeMismatchError)

# optimality tolerance for the subgradient conditions
OPT_TOL = 1e-7
# ridge added to the active-set Gram system; rank-deficient active sets are
# possible with overcomplete dictionaries, and this stays below OPT_TOL
RIDGE = 1e-10
# columns encode_all codes in one lockstep block; bounds its working memory,
# which peaked at 3.8 MB beside the 2.4 MB output on 1,980 ECG window
# columns at d = 75, k = 150 (tracemalloc)
BLOCK_COLUMNS = 512


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
    if not 0 < lam < np.inf:  # NaN fails too
        raise BadConfigError(f"lambda must be finite and positive, got {lam}")
    if not np.isfinite(D).all():
        raise DegenerateInputError("dictionary holds NaN or inf")
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms > 1.0 + 1e-9):
        raise BadConfigError(
            f"dictionary columns must lie in the unit ball (max norm {norms.max():.6g})")


# ---------------------------------------------------------------------------
# feature-sign search, run in lockstep over a block of columns
#
# Every column of a block walks the same state machine: activate the most
# violating zero coefficient, solve the active-set system, line-search when
# the solve is not sign-consistent, and stop once the subgradient conditions
# hold.  Each lockstep iteration activates in one call, and steps in one call
# every column that solves, whatever its active-set size.  The step sorts its
# rows by size and gathers their atom indices, right-hand sides and signs once,
# padded to the largest size; the sign test, the line-search candidates and
# the writes run once on the padded rows.  That is exact: padded signs and
# iterates are zero, and nothing padded is written back.  The a x a systems
# are never padded: for each active-set size a, the rows of that size gather
# their systems from the flat ridged Gram into one contiguous stack, solve it
# and drop it, and the line search gathers its own rows' systems the same way.
# A padded stack would copy about 1.6 times the entries the solves read and
# would be the block's largest work array.  Besides the gathers, two kinds of
# work loop over the sizes, on the first a entries of each row, because their
# rounding depends on the operand length: np.linalg.solve, and the dots, gemvs and |x| sums of
# the line-search objectives.  Stacked solve and matmul run one LAPACK/BLAS
# call per column with the same operands as a column coded alone (a gathered
# system is a copy of the same entries), so the codes do not depend on which
# other columns share the block.  (Solving padded systems whole, or one D'Y
# product for all columns, would round differently and change the codes.)

_ACTIVATE, _SOLVE, _DONE = 0, 1, 2
# what encode_all(counts=...) tallies: lockstep iterations, step calls, solve
# calls (one per active-set size and step), objective evaluations in line
# searches (likewise per size) and columns stopped by the iteration cap
_COUNTS = ("iterations", "steps", "solves", "line_search_groups", "cap_hits")


def _size_runs(sizes):
    """(size, lo, hi) for every run of equal values in sorted sizes."""
    cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    lo, hi = [0, *cuts], [*cuts, sizes.size]
    return [(int(sizes[i]), i, j) for i, j in zip(lo, hi)]


def _quad_objectives(Gaa, ba, lam, c0, P):
    """Objective on the active set (c0 = y.y) at points P (m x c x a).

    Per point x of column i: 0.5*c0_i - ba_i.x + (0.5*x).(Gaa_i x) + lam*|x|_1,
    evaluated with one dot or gemv per term and point.
    """
    Pv = P[..., None]
    q1 = (ba[:, None, None, :] @ Pv)[..., 0, 0]
    q2 = ((0.5 * P)[..., None, :] @ (Gaa[:, None] @ Pv))[..., 0, 0]
    return 0.5 * c0[:, None] - q1 + q2 + lam * np.abs(P).sum(axis=2)


def _line_search(systems, ba, lam, c0, xa, xnew, runs):
    """Discrete line search from xa towards xnew for m columns at once.

    Row i is padded with zeros past its active-set size; runs lists
    (size a, lo, hi) for the rows in size order, and systems holds each
    run's (hi - lo) x a x a stack of active-set systems.  Candidates per
    column are xnew, then every point where a coefficient crosses zero on
    the segment, in ascending coefficient order; the first minimum of the
    objective wins.
    """
    m = xa.shape[0]
    step = xnew - xa
    crossing = (xa != 0) & (np.sign(xa) != np.sign(xnew))
    t = np.divide(xa, xa - xnew, out=np.zeros_like(xa), where=crossing)
    crossing &= (0.0 < t) & (t <= 1.0)
    rank = np.cumsum(crossing, axis=1)
    count = rank[:, -1]
    P = np.zeros((m, 1 + int(count.max()), xa.shape[1]))
    P[:, 0] = xnew
    ri, mi = crossing.nonzero()
    ci = rank[ri, mi]
    P[ri, ci] = xa[ri] + t[ri, mi, None] * step[ri]
    P[ri, ci, mi] = 0.0
    obj = np.empty(P.shape[:2])
    for Gaa, (a, lo, hi) in zip(systems, runs):
        obj[lo:hi] = _quad_objectives(Gaa, ba[lo:hi, :a], lam, c0[lo:hi],
                                      P[lo:hi, :, :a])
    obj[np.arange(P.shape[1]) > count[:, None]] = np.inf
    return P[np.arange(m), obj.argmin(axis=1)]


class _Lockstep:
    """Feature-sign state of a block of columns; row i belongs to column i.

    Work arrays of one step are locals of activate and step, so they are
    freed before the next step allocates its own.  counts is the dict of
    _COUNTS that steps add into.
    """

    def __init__(self, D, G, Y, lam, counts):
        n, k = Y.shape[1], G.shape[0]
        self.G, self.lam, self.counts = G, lam, counts
        # G with the ridge on its diagonal, flat: gathering an active set's
        # rows and columns from it adds the same ridge to the same entries as
        # adding RIDGE * I to the gathered system
        self.Gr = (G + RIDGE * np.eye(k)).ravel()
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

    def step(self, rows):
        """One feature-sign step for every row in rows, taken in order of
        active-set size.

        Each size's systems are gathered at that size for its solve and
        dropped after it; the rows that line-search gather theirs again.
        Returns the rows that go back to activation: their solve was
        sign-consistent, or the line search emptied the active set.
        """
        lam, k = self.lam, self.G.shape[0]
        held = self.active[rows]
        sizes = held.sum(axis=1)
        order = sizes.argsort(kind="stable")
        g, sizes, held = rows[order], sizes[order], held[order]
        m, amax = g.size, sizes[-1]
        # row i holds its active atoms, ascending, in slots 0..sizes[i]-1; the
        # padding slots point at atom 0 and are masked out of every write
        slot = np.arange(amax) < sizes[:, None]
        atoms = np.flatnonzero(held) % k
        idx = np.zeros((m, amax), dtype=np.intp)
        idx[slot] = atoms
        # a size-a row's system is Gr.take(rk[:a, None] + idx[None, :a]), one
        # contiguous a x a copy; rows of one size are gathered in one stack
        rk = idx * k
        ba = self.B[g[:, None], idx]
        th = np.where(slot, self.theta[g[:, None], idx], 0)
        rhs = ba - lam * th
        xnew = np.zeros((m, amax))
        runs = _size_runs(sizes)
        for a, lo, hi in runs:
            xnew[lo:hi, :a] = np.linalg.solve(
                self.Gr.take(rk[lo:hi, :a, None] + idx[lo:hi, None, :a]),
                rhs[lo:hi, :a, None])[:, :, 0]
        self.counts["steps"] += 1
        self.counts["solves"] += len(runs)
        ok = (np.sign(xnew) == th).all(axis=1)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            rb, ib = rk[bad], idx[bad]
            xa = np.where(slot[bad], self.X[g[bad, None], ib], 0.0)
            runs = _size_runs(sizes[bad])
            systems = [self.Gr.take(rb[lo:hi, :a, None] + ib[lo:hi, None, :a])
                       for a, lo, hi in runs]
            xnew[bad] = _line_search(systems, ba[bad], lam, self.c0[g[bad]], xa,
                                     xnew[bad], runs)
            self.counts["line_search_groups"] += len(runs)
        at = np.repeat(g, sizes)
        x = xnew[slot]
        self.X[at, atoms] = x  # zero off the active set already
        self.active[at, atoms] = x != 0.0
        self.theta[at, atoms] = np.sign(x)
        return g[ok | ~xnew.any(axis=1)]


def _feature_sign_block(D, G, Y, lam, max_iter, counts):
    """Feature-sign search on every column of Y in lockstep.

    Returns (X, failure): row i of X codes column i of Y, and failure is None
    or (i, message) for the lowest column index that hit the iteration cap.
    Adds its tallies into counts (the keys of _COUNTS).
    """
    n = Y.shape[1]
    state = _Lockstep(D, G, Y, lam, counts)
    phase = np.full(n, _ACTIVATE, dtype=np.int8)
    outer = np.zeros(n, dtype=int)
    inner = np.zeros(n, dtype=int)
    failures = {}
    outer_cap = f"feature-sign exceeded {max_iter} activations"
    inner_cap = f"feature-sign inner loop exceeded {max_iter} steps"

    def cap(rows, used, message):
        hit = used[rows] >= max_iter
        for i in rows[hit]:
            failures[int(i)] = message
        phase[rows[hit]] = _DONE
        rows = rows[~hit]
        used[rows] += 1
        return rows

    live = np.arange(n)
    while live.size:
        counts["iterations"] += 1
        rows = cap(live[phase[live] == _ACTIVATE], outer, outer_cap)
        if rows.size:
            go = state.activate(rows)
            phase[rows] = np.where(go, _SOLVE, _DONE)
            inner[rows[go]] = 0
        rows = cap(live[phase[live] == _SOLVE], inner, inner_cap)
        if rows.size:
            phase[state.step(rows)] = _ACTIVATE
        live = live[phase[live] != _DONE]

    counts["cap_hits"] += len(failures)
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
    X, failure = _feature_sign_block(D, D.T @ D, y[:, None], lam, max_iter,
                                     dict.fromkeys(_COUNTS, 0))
    if failure:
        raise MaxIterationsError(failure[1])
    return X[0]


def encode_all(D, Y, lam, max_iter=None, counts=None):
    """feature_sign on every column of Y; returns the dense k x Omega code matrix.

    Columns are coded in lockstep blocks of BLOCK_COLUMNS, and a column's
    code depends neither on which columns share its block nor on where the
    blocks end.  It is bit for bit the code feature_sign gives the same view
    Y[:, i]: D'y is taken on that view, and on a contiguous copy of a column
    of a wider matrix the gemv can round differently and the code can differ
    in the last bits.  The first column that hits the iteration cap is named
    in the MaxIterationsError.  A given counts dict gets the solver's tallies
    added into it: lockstep "iterations", "steps" (at most one per
    iteration), "solves" (np.linalg.solve calls), "line_search_groups" and
    "cap_hits".
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
    if counts is None:
        counts = {}
    for key in _COUNTS:
        counts.setdefault(key, 0)
    G = D.T @ D
    X = np.zeros((k, Y.shape[1]))
    for start in range(0, Y.shape[1], BLOCK_COLUMNS):
        Xb, failure = _feature_sign_block(
            D, G, Y[:, start:start + BLOCK_COLUMNS], lam, max_iter, counts)
        if failure:
            raise MaxIterationsError(f"column {start + failure[0]}: {failure[1]}")
        X[:, start:start + Xb.shape[0]] = Xb.T
    return X
