"""Feature-sign search against closed forms and the coordinate-descent oracle."""

import numpy as np
import pytest

from ecgsparse import sparse_coding
from ecgsparse.errors import (
    BadConfigError,
    DegenerateInputError,
    MaxIterationsError,
    ShapeMismatchError,
)
from ecgsparse.sparse_coding import (
    BLOCK_COLUMNS,
    CodingProblem,
    SparseVector,
    check_optimality,
    default_lambda,
    encode_all,
    feature_sign,
    lasso_objective,
    oracle_solve,
)


def random_problem(rng, d=8, k=12, lam=0.1):
    D = rng.standard_normal((d, k))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(d)
    return CodingProblem(dictionary=D, target=y, lam=lam)


# --- SparseVector -------------------------------------------------------------

def test_sparse_vector_roundtrip():
    x = np.array([0.0, -2.5, 0.0, 1.0, 0.0])
    sv = SparseVector.from_dense(x)
    assert sv.nnz == 2
    assert all(v != 0 for _, v in sv.entries)
    np.testing.assert_array_equal(sv.to_dense(), x)


def test_coding_problem_validation():
    D = np.eye(3)
    y = np.ones(3)
    with pytest.raises(BadConfigError):
        CodingProblem(dictionary=D, target=y, lam=0.0)
    with pytest.raises(ShapeMismatchError):
        CodingProblem(dictionary=D, target=np.ones(4), lam=0.1)
    with pytest.raises(BadConfigError):
        CodingProblem(dictionary=2.0 * D, target=y, lam=0.1)  # columns too long


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
        CodingProblem(dictionary=bad_D, target=Y[:, 0], lam=0.1)
    with pytest.raises(DegenerateInputError):
        CodingProblem(dictionary=D, target=np.where(Y[:, 0] > 0, np.nan, 0.0), lam=0.1)


# --- objective ----------------------------------------------------------------

def test_objective_empty_code():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([3.0, 4.0]), lam=0.1)
    x = SparseVector.from_dense(np.zeros(2))
    assert lasso_objective(p, x) == pytest.approx(12.5)  # 0.5 * 25


def test_objective_exact_fit():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.0]), lam=0.1)
    x = SparseVector.from_dense(np.array([1.0, 0.0]))
    assert lasso_objective(p, x) == pytest.approx(0.1)


def test_objective_nonnegative():
    rng = np.random.default_rng(0)
    p = random_problem(rng)
    for _ in range(10):
        x = SparseVector.from_dense(rng.standard_normal(12))
        assert lasso_objective(p, x) >= 0.0


# --- feature_sign -------------------------------------------------------------

def test_feature_sign_zero_when_lambda_large():
    rng = np.random.default_rng(1)
    D = rng.standard_normal((4, 6))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(4)
    lam = float(np.max(np.abs(D.T @ y))) + 0.01
    x = feature_sign(CodingProblem(dictionary=D, target=y, lam=lam))
    assert x.nnz == 0


def test_feature_sign_orthonormal_soft_threshold():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.2]), lam=0.5)
    x = feature_sign(p).to_dense()
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
    x1 = feature_sign(CodingProblem(dictionary=D, target=y, lam=0.2)).to_dense()
    x3 = feature_sign(CodingProblem(dictionary=D, target=3 * y, lam=0.6)).to_dense()
    np.testing.assert_allclose(x3, 3.0 * x1, atol=1e-8)


def test_feature_sign_sparsity_monotone_in_lambda():
    rng = np.random.default_rng(5)
    totals = {0.05: 0, 0.4: 0}
    problems = [random_problem(rng, lam=1.0) for _ in range(100)]
    for lam in totals:
        for base in problems:
            p = CodingProblem(dictionary=base.dictionary, target=base.target,
                              lam=lam)
            totals[lam] += feature_sign(p).nnz
    assert totals[0.4] <= totals[0.05]


def test_feature_sign_iteration_cap():
    rng = np.random.default_rng(6)
    p = random_problem(rng, lam=0.01)
    assert feature_sign(p).nnz >= 2  # needs several activations
    with pytest.raises(MaxIterationsError):
        feature_sign(p, max_iter=1)


# --- oracle -------------------------------------------------------------------

def test_oracle_trivial_cases():
    p = CodingProblem(dictionary=np.eye(2), target=np.array([1.0, 0.2]), lam=0.5)
    np.testing.assert_allclose(oracle_solve(p).to_dense(), [0.5, 0.0], atol=1e-10)
    rng = np.random.default_rng(7)
    D = rng.standard_normal((4, 6))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    y = rng.standard_normal(4)
    lam = float(np.max(np.abs(D.T @ y))) + 0.01
    assert oracle_solve(CodingProblem(dictionary=D, target=y, lam=lam)).nnz == 0


def test_oracle_satisfies_optimality():
    rng = np.random.default_rng(8)
    p = random_problem(rng, d=4, k=6)
    assert check_optimality(p, oracle_solve(p)) <= 1e-5


def test_check_optimality_flags_bad_points():
    rng = np.random.default_rng(9)
    p = random_problem(rng)
    x = SparseVector.from_dense(rng.standard_normal(12))
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
        np.testing.assert_array_equal(X[:, i], feature_sign(p).to_dense())


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
        feature_sign(CodingProblem(dictionary=D, target=Y[:, i], lam=lam)).to_dense()
        for i in range(Y.shape[1])])


def test_encode_all_blocks_bit_identical_to_feature_sign(monkeypatch):
    # lockstep blocks give each column exactly the code it gets alone,
    # whichever columns share its block and wherever the block ends
    W = BLOCK_COLUMNS
    searched = []
    line_search = sparse_coding._line_search

    def spy(*args):
        searched.append(len(args[4]))
        return line_search(*args)

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
