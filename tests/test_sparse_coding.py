"""Feature-sign search against closed forms and the coordinate-descent oracle."""

import tracemalloc

import numpy as np
import pytest

from ecgsparse import sparse_coding
from ecgsparse.errors import (
    BadConfigError,
    DegenerateInputError,
    MaxIterationsError,
    ShapeMismatchError,
)
from ecgsparse.sparse_coding import BLOCK_COLUMNS, default_lambda, encode_all
from verification import (
    CodingProblem,
    check_optimality,
    feature_sign,
    lasso_objective,
    oracle_solve,
)


def random_problem(rng, d=8, k=12, lam=0.1):
    D = rng.standard_normal((d, k))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(d)
    return CodingProblem(dictionary=D, target=y, lam=lam)


# --- input checks -------------------------------------------------------------

def test_coding_problem_validation():
    D = np.eye(3)
    y = np.ones(3)
    with pytest.raises(BadConfigError):
        feature_sign(CodingProblem(dictionary=D, target=y, lam=0.0))
    with pytest.raises(ShapeMismatchError):
        feature_sign(CodingProblem(dictionary=D, target=np.ones(4), lam=0.1))
    with pytest.raises(BadConfigError):  # columns too long
        feature_sign(CodingProblem(dictionary=2.0 * D, target=y, lam=0.1))


def test_non_finite_input_rejected():
    # a NaN norm passes the unit-ball test, so it must be caught on its own
    rng = np.random.default_rng(12)
    D = rng.standard_normal((20, 40))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    Y = rng.standard_normal((20, 5))
    assert np.count_nonzero(encode_all(D, Y, 0.1)) > 0
    bad_D = D.copy()
    bad_D[3, 7] = np.nan
    bad_Y = Y.copy()
    bad_Y[2, 4] = np.inf
    with pytest.raises(DegenerateInputError):
        encode_all(bad_D, Y, 0.1)
    with pytest.raises(DegenerateInputError):
        encode_all(D, bad_Y, 0.1)
    with pytest.raises(DegenerateInputError):
        feature_sign(CodingProblem(dictionary=bad_D, target=Y[:, 0], lam=0.1))
    with pytest.raises(DegenerateInputError):
        feature_sign(CodingProblem(dictionary=D, target=np.where(Y[:, 0] > 0, np.nan, 0.0),
                                   lam=0.1))


# --- objective ----------------------------------------------------------------

def test_objective_empty_code():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([3.0, 4.0]), lam=0.1)
    x = np.zeros(2)
    assert lasso_objective(p, x) == pytest.approx(12.5)  # 0.5 * 25


def test_objective_exact_fit():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.0]), lam=0.1)
    x = np.array([1.0, 0.0])
    assert lasso_objective(p, x) == pytest.approx(0.1)


def test_objective_nonnegative():
    rng = np.random.default_rng(0)
    p = random_problem(rng)
    for _ in range(10):
        x = rng.standard_normal(12)
        assert lasso_objective(p, x) >= 0.0


# --- feature_sign -------------------------------------------------------------

def test_feature_sign_zero_when_lambda_large():
    rng = np.random.default_rng(1)
    D = rng.standard_normal((4, 6))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(4)
    lam = float(np.max(np.abs(D.T @ y))) + 0.01
    x = feature_sign(CodingProblem(dictionary=D, target=y, lam=lam))
    assert np.count_nonzero(x) == 0


def test_feature_sign_orthonormal_soft_threshold():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.2]), lam=0.5)
    x = feature_sign(p)
    np.testing.assert_allclose(x, [0.5, 0.0], atol=1e-12)


def test_feature_sign_optimality_conditions():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p = random_problem(rng)
        x = feature_sign(p)
        assert check_optimality(p, x) <= 1e-7


def test_feature_sign_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_problem(rng)
        fs = lasso_objective(p, feature_sign(p))
        cd = lasso_objective(p, oracle_solve(p))
        assert abs(fs - cd) <= 1e-6


def test_feature_sign_homogeneity():
    # scaling (y, lambda) by c scales the solution by c
    rng = np.random.default_rng(4)
    D = rng.standard_normal((6, 10))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(6)
    x1 = feature_sign(CodingProblem(dictionary=D, target=y, lam=0.2))
    x3 = feature_sign(CodingProblem(dictionary=D, target=3 * y, lam=0.6))
    np.testing.assert_allclose(x3, 3.0 * x1, atol=1e-8)


def test_feature_sign_sparsity_monotone_in_lambda():
    rng = np.random.default_rng(5)
    totals = {0.05: 0, 0.4: 0}
    problems = [random_problem(rng, lam=1.0) for _ in range(100)]
    for lam in totals:
        for base in problems:
            p = CodingProblem(dictionary=base.dictionary, target=base.target,
                              lam=lam)
            totals[lam] += np.count_nonzero(feature_sign(p))
    assert totals[0.4] <= totals[0.05]


def test_feature_sign_iteration_cap():
    rng = np.random.default_rng(6)
    p = random_problem(rng, lam=0.01)
    assert np.count_nonzero(feature_sign(p)) >= 2  # needs several activations
    with pytest.raises(MaxIterationsError):
        feature_sign(p, max_iter=1)


# --- oracle -------------------------------------------------------------------

def test_oracle_trivial_cases():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.2]), lam=0.5)
    np.testing.assert_allclose(oracle_solve(p), [0.5, 0.0], atol=1e-10)
    rng = np.random.default_rng(7)
    D = rng.standard_normal((4, 6))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(4)
    lam = float(np.max(np.abs(D.T @ y))) + 0.01
    assert np.count_nonzero(oracle_solve(CodingProblem(dictionary=D, target=y, lam=lam))) == 0


def test_oracle_satisfies_optimality():
    rng = np.random.default_rng(8)
    p = random_problem(rng, d=4, k=6)
    assert check_optimality(p, oracle_solve(p)) <= 1e-5


def test_check_optimality_flags_bad_points():
    rng = np.random.default_rng(9)
    p = random_problem(rng)
    x = rng.standard_normal(12)
    assert check_optimality(p, x) > 1e-3


# --- encode_all ---------------------------------------------------------------

def test_encode_all_zero_matrix():
    rng = np.random.default_rng(10)
    D = rng.standard_normal((5, 8))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    X = encode_all(D, np.zeros((5, 4)), lam=0.1)
    np.testing.assert_array_equal(X, np.zeros((8, 4)))


def test_encode_all_matches_per_column():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((6, 9))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    Y = rng.standard_normal((6, 5))
    X = encode_all(D, Y, lam=0.15)
    for i in range(5):
        p = CodingProblem(dictionary=D, target=Y[:, i], lam=0.15)
        np.testing.assert_array_equal(X[:, i], feature_sign(p))


def _reference_loop(G, b, lam, c0, max_iter):
    """Feature-sign search on one column, one NumPy call at a time: the
    reference the lockstep solver must reproduce bit for bit."""
    tol, ridge = sparse_coding.OPT_TOL, sparse_coding.RIDGE
    k = len(b)
    x, theta, active = np.zeros(k), np.zeros(k), np.zeros(k, dtype=bool)

    def objective(Gaa, ba, xa):
        return 0.5 * c0 - ba @ xa + 0.5 * xa @ (Gaa @ xa) + lam * np.abs(xa).sum()

    for _ in range(max_iter):
        grad = G @ x - b
        if np.any(~active):
            cand = np.where(~active, np.abs(grad), -np.inf)
            j = int(np.argmax(cand))
            if cand[j] <= lam + tol:
                return x
            theta[j] = -np.sign(grad[j])
            active[j] = True
        elif np.all(np.abs(grad + lam * theta) <= tol):
            return x
        for _ in range(max_iter):
            idx = np.flatnonzero(active)
            Gaa = G[np.ix_(idx, idx)] + ridge * np.eye(len(idx))
            ba = b[idx]
            xnew = np.linalg.solve(Gaa, ba - lam * theta[idx])
            if np.all(np.sign(xnew) == theta[idx]):
                x[idx] = xnew
                break
            xa = x[idx]
            best_x, best_obj = xnew, objective(Gaa, ba, xnew)
            for m in np.flatnonzero((xa != 0) & (np.sign(xa) != np.sign(xnew))):
                t = xa[m] / (xa[m] - xnew[m])
                if 0.0 < t <= 1.0:
                    xt = xa + t * (xnew - xa)
                    xt[m] = 0.0
                    obj = objective(Gaa, ba, xt)
                    if obj < best_obj:
                        best_obj, best_x = obj, xt
            x[idx] = best_x
            active[idx[best_x == 0.0]] = False
            theta[idx] = np.sign(best_x)
            if not np.any(active):
                break
        else:
            raise MaxIterationsError("inner loop cap")
    raise MaxIterationsError("activation cap")


def _per_column(D, Y, lam):
    return np.column_stack([
        feature_sign(CodingProblem(dictionary=D, target=Y[:, i], lam=lam))
        for i in range(Y.shape[1])])


def test_encode_all_blocks_bit_identical_to_feature_sign(monkeypatch):
    # lockstep blocks give each column exactly the code it gets alone,
    # whichever columns share its block and wherever the block ends
    W = BLOCK_COLUMNS
    searched = []
    line_search = sparse_coding._line_search

    def spy(systems, ba, lam, c0, xa, xnew, runs):
        searched.append(len(xa))
        return line_search(systems, ba, lam, c0, xa, xnew, runs)

    monkeypatch.setattr(sparse_coding, "_line_search", spy)
    rng = np.random.default_rng(13)
    D = rng.standard_normal((8, 16))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    Y = rng.standard_normal((8, 2 * W + 3))
    Y[:, [0, W - 1, W, 2 * W + 2]] = 0.0
    lam = 0.05
    ref = _per_column(D, Y, lam)
    assert sum(searched) > 0  # some columns reach the line search
    G = D.T @ D
    loop = np.column_stack([_reference_loop(G, D.T @ y, lam, float(y @ y), 64)
                            for y in Y.T])
    np.testing.assert_array_equal(ref, loop)
    assert np.all(ref[:, W] == 0.0)
    for width in (W - 1, W, W + 1, 2 * W + 3):
        np.testing.assert_array_equal(encode_all(D, Y[:, :width], lam),
                                      ref[:, :width])

    # k <= d: every atom of a column becomes active
    D = rng.standard_normal((10, 6))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    Y = rng.standard_normal((10, W + 1))
    X = encode_all(D, Y, 1e-3)
    assert np.all(X[:, -1] != 0.0)
    np.testing.assert_array_equal(X, _per_column(D, Y, 1e-3))


def _production_columns(rng, n, top):
    """d = 75, k = 150 as in the CLI's default geometry, with column scales
    spread over exp(-2.5)..exp(top) so that active-set sizes spread too."""
    d, k = 75, 150
    D = rng.standard_normal((d, k))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    Y = rng.standard_normal((d, n)) * np.exp(rng.uniform(-2.5, top, n))
    return D, Y, default_lambda(d)


def test_encode_all_bit_identical_at_production_scale(monkeypatch):
    # d = 75, k = 150 as in the CLI's default geometry: active sets reach
    # lengths where BLAS dots and NumPy's pairwise sums change their blocking,
    # so a padded operand that reached a solve or an objective would show
    step_sizes, searched_sizes, objective_widths, solved = [], [], [], []
    step, line_search = sparse_coding._Lockstep.step, sparse_coding._line_search
    quad_objectives, solve = sparse_coding._quad_objectives, np.linalg.solve

    def step_spy(self, rows):
        step_sizes.append(np.unique(self.active[rows].sum(axis=1)).size)
        return step(self, rows)

    def search_spy(systems, ba, lam, c0, xa, xnew, runs):
        # one unpadded, contiguous system stack per active-set size
        assert len(systems) == len(runs)
        for Gaa, (a, lo, hi) in zip(systems, runs):
            assert Gaa.shape == (hi - lo, a, a) and Gaa.flags.c_contiguous
        searched_sizes.append(len(runs))
        return line_search(systems, ba, lam, c0, xa, xnew, runs)

    def objectives_spy(Gaa, ba, lam, c0, P):
        # the solved point xnew is candidate 0: a zero in it would be padding
        assert np.all(P[:, 0] != 0.0) and Gaa.shape[1] == ba.shape[1] == P.shape[2]
        objective_widths.append(P.shape[2])
        return quad_objectives(Gaa, ba, lam, c0, P)

    def solve_spy(Gaa, rhs):
        # each size's systems are gathered at that size: an owned, contiguous
        # stack, never a slice of a stack padded to a larger size
        assert Gaa.flags.owndata and Gaa.flags.c_contiguous
        assert Gaa.shape[1:] == (rhs.shape[1],) * 2
        solved.append(Gaa.shape[1])
        return solve(Gaa, rhs)

    monkeypatch.setattr(sparse_coding._Lockstep, "step", step_spy)
    monkeypatch.setattr(sparse_coding, "_line_search", search_spy)
    monkeypatch.setattr(sparse_coding, "_quad_objectives", objectives_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    rng = np.random.default_rng(14)
    D, Y, lam = _production_columns(rng, 300, 1.0)
    k = D.shape[1]
    counts = {}
    X = encode_all(D, Y, lam, counts=counts)
    monkeypatch.setattr(np.linalg, "solve", solve)  # the reference solves too
    assert max(step_sizes) >= 3  # one step held rows of 3+ active-set sizes
    assert max(searched_sizes) >= 2  # one line search spanned 2+ sizes
    assert np.count_nonzero(X, axis=0).max() > 32
    assert counts["steps"] == len(step_sizes) <= counts["iterations"]
    assert counts["solves"] == sum(step_sizes) == len(solved)
    assert max(solved) > 32
    assert counts["line_search_groups"] == sum(searched_sizes) == len(objective_widths)
    assert max(objective_widths) > 32
    G = D.T @ D
    ref = np.column_stack([_reference_loop(G, D.T @ y, lam, float(y @ y), 4 * k)
                           for y in Y.T])
    np.testing.assert_array_equal(X, ref)


def test_encode_all_codes_do_not_depend_on_block_width(monkeypatch):
    # a column's code depends neither on which columns share its block nor
    # on where the blocks end, from one column per block to one block
    rng = np.random.default_rng(16)
    n = 515
    D, Y, lam = _production_columns(rng, n, 0.0)
    codes = []
    for width in (1, 7, 256, 512, n + 1):
        monkeypatch.setattr(sparse_coding, "BLOCK_COLUMNS", width)
        codes.append(encode_all(D, Y, lam))
    assert np.count_nonzero(codes[0], axis=0).max() > 32
    for X in codes[1:]:
        np.testing.assert_array_equal(X, codes[0])


def test_encode_all_memory_peak():
    # gathering each active-set size's systems at that size keeps the peak
    # of 512-column blocks at about 11.2 MB here, 2.4 MB of it the output;
    # gathering one stack padded to the largest size peaked at 13.8 MB
    rng = np.random.default_rng(15)
    D, Y, lam = _production_columns(rng, 2000, 1.0)
    tracemalloc.start()
    try:
        X = encode_all(D, Y, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(X, axis=0).max() == 75  # full-rank active sets
    assert peak < 12.5e6


def test_encode_all_iteration_cap_names_caller_column():
    # with one activation allowed, zero columns finish and the others fail;
    # the error names the first failing column of the caller's matrix
    W = BLOCK_COLUMNS
    rng = np.random.default_rng(6)
    p = random_problem(rng, lam=0.01)
    Y = np.zeros((len(p.target), 2 * W))
    Y[:, [W + 5, W + 9]] = p.target[:, None]
    np.testing.assert_array_equal(encode_all(p.dictionary, Y[:, :W], 0.01, max_iter=1),
                                  np.zeros((12, W)))
    with pytest.raises(MaxIterationsError, match=rf"^column {W + 5}: "):
        encode_all(p.dictionary, Y, 0.01, max_iter=1)


def test_default_lambda():
    assert default_lambda(144) == pytest.approx(0.1)
    assert default_lambda(75) == pytest.approx(1.2 / np.sqrt(75))
