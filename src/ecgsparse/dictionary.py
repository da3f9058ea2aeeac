"""Online dictionary learning (mini-batch) and the k-means VQ baseline.

Training accumulates the sufficient statistics A = sum X X', B = sum Y X'
across mini-batches and updates atoms by block coordinate descent:

    u_j = d_j + (b_j - D a_j) / A_jj,   d_j <- u_j / max(||u_j||_2, 1)

The unit-ball projection (rather than forced unit norm) is what guarantees
the surrogate 0.5*Tr(D'DA) - Tr(D'B) never increases across passes.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadConfigError, CorruptFileError, NotEnoughDataError,
                     ShapeMismatchError)
from .fileio import atomic_write_bytes
from .sparse_coding import encode_all

DEAD_ATOM_EPS = 1e-10


@dataclass
class OnlineStats:
    A: np.ndarray
    B: np.ndarray
    t: int = 0

    @classmethod
    def empty(cls, d, k):
        return cls(A=np.zeros((k, k)), B=np.zeros((d, k)), t=0)


@dataclass
class TrainConfig:
    k: int
    lam: float
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    atom_update_passes: int = 1
    diag_sparsity_T: int = None  # optional diagnostic only, never enforced

    def __post_init__(self):
        if self.k < 1:
            raise BadConfigError("k must be >= 1")
        if self.lam <= 0:
            raise BadConfigError("lambda must be positive")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise BadConfigError("epochs must be >= 1")
        if self.atom_update_passes < 1:
            raise BadConfigError("atom_update_passes must be >= 1")


@dataclass
class TrainResult:
    dictionary: np.ndarray
    objective_log: list = field(default_factory=list)


def init_dictionary(Y, k, seed):
    """Seeded draw of k distinct training columns, scaled to unit norm."""
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[1]
    if n < k:
        raise NotEnoughDataError(f"need at least {k} columns, got {n}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=k, replace=False)
    D = Y[:, picks].copy()
    for j in range(k):
        norm = np.linalg.norm(D[:, j])
        while norm == 0.0:
            D[:, j] = rng.standard_normal(Y.shape[0])
            norm = np.linalg.norm(D[:, j])
        D[:, j] /= norm
    return D


def update_stats(stats, Xb, Yb):
    """A += Xb Xb', B += Yb Xb', t += 1; returns a new OnlineStats."""
    Xb = np.asarray(Xb, dtype=float)
    Yb = np.asarray(Yb, dtype=float)
    if Xb.ndim != 2 or Yb.ndim != 2 or Xb.shape[1] != Yb.shape[1]:
        raise ShapeMismatchError(
            f"batch shapes disagree: codes {Xb.shape}, features {Yb.shape}")
    if stats.A.shape[0] != Xb.shape[0] or stats.B.shape[0] != Yb.shape[0]:
        raise ShapeMismatchError("batch dimensions do not match the stats")
    return OnlineStats(A=stats.A + Xb @ Xb.T, B=stats.B + Yb @ Xb.T,
                       t=stats.t + 1)


def surrogate(D, stats):
    """0.5*Tr(D'DA) - Tr(D'B): the quantity update_atoms descends."""
    return 0.5 * float(np.sum((D.T @ D) * stats.A)) - float(np.sum(D * stats.B))


def update_atoms(D, stats, Yb=None, Xb=None, passes=1, change_tol=1e-4):
    """Block coordinate descent over atoms against the accumulated stats.

    Atoms whose accumulated energy A_jj has stayed at zero are dead; when
    the current batch is supplied they are re-seeded to the batch column the
    dictionary currently reconstructs worst, normalized.
    """
    if stats.t < 1:
        raise BadConfigError("update_atoms needs at least one accumulated batch")
    D = np.array(D, dtype=float)
    A, B = stats.A, stats.B
    k = D.shape[1]

    dead = [j for j in range(k) if A[j, j] <= DEAD_ATOM_EPS]
    if dead and Yb is not None and Xb is not None:
        resid = np.linalg.norm(Yb - D @ Xb, axis=0)
        order = np.argsort(resid)[::-1]
        for rank, j in enumerate(dead):
            col = Yb[:, order[rank % len(order)]]
            norm = np.linalg.norm(col)
            if norm > 0:
                D[:, j] = col / norm

    for _ in range(passes):
        max_change = 0.0
        for j in range(k):
            ajj = A[j, j]
            if ajj <= DEAD_ATOM_EPS:
                continue
            u = D[:, j] + (B[:, j] - D @ A[:, j]) / ajj
            u /= max(np.linalg.norm(u), 1.0)
            max_change = max(max_change, float(np.max(np.abs(u - D[:, j]))))
            D[:, j] = u
        if max_change < change_tol:
            break
    return D


def train_online(Y, cfg):
    """Mini-batch online dictionary learning over the columns of Y.

    Seeded column shuffle each epoch; per batch: feature-sign encode against
    the current dictionary, accumulate stats, update atoms.  Returns a
    TrainResult whose objective_log holds the per-batch mean LASSO objective
    (evaluated at encode time, so the log tracks coding quality over training).
    """
    Y = np.asarray(Y, dtype=float)
    d, n = Y.shape
    if cfg.k <= d:
        raise BadConfigError(f"dictionary must be overcomplete: k={cfg.k} <= d={d}")
    D = init_dictionary(Y, cfg.k, cfg.seed)
    stats = OnlineStats.empty(d, cfg.k)
    rng = np.random.default_rng(cfg.seed)
    log = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            Yb = Y[:, batch]
            Xb = encode_all(D, Yb, cfg.lam)
            R = Yb - D @ Xb
            obj = 0.5 * np.sum(R * R, axis=0) + cfg.lam * np.sum(np.abs(Xb), axis=0)
            log.append(float(obj.mean()))
            stats = update_stats(stats, Xb, Yb)
            D = update_atoms(D, stats, Yb, Xb, passes=cfg.atom_update_passes)
    return TrainResult(dictionary=D, objective_log=log)


# ---------------------------------------------------------------------------
# k-means vector quantization (BOW baseline, cardinality-1 codes)


def kmeans_vq(Y, k, seed=0, iters=50):
    """Lloyd's algorithm; returns (centroids d x k, assignments).

    Each column gets a 1-of-k code with coefficient 1 (the quantized
    reconstruction is the centroid itself).  Empty clusters are re-seeded to
    the point farthest from its assigned centroid.
    """
    Y = np.asarray(Y, dtype=float)
    d, n = Y.shape
    if n < k:
        raise NotEnoughDataError(f"k={k} exceeds the {n} available columns")
    rng = np.random.default_rng(seed)
    C = Y[:, rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(iters):
        # squared distances via the expansion ||y||^2 - 2 y'c + ||c||^2
        d2 = (np.sum(Y * Y, axis=0)[:, None] - 2.0 * (Y.T @ C)
              + np.sum(C * C, axis=0)[None, :])
        new_assign = np.argmin(d2, axis=1)
        mind2 = d2[np.arange(n), new_assign]
        for j in range(k):
            members = new_assign == j
            if np.any(members):
                C[:, j] = Y[:, members].mean(axis=1)
            else:
                far = int(np.argmax(mind2))
                C[:, j] = Y[:, far]
                new_assign[far] = j
                mind2[far] = 0.0
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return C, assign


def vq_inertia(Y, C, assign):
    diff = Y - C[:, assign]
    return float(np.sum(diff * diff))


# ---------------------------------------------------------------------------
# SBD1 dictionary file


MAGIC_SBD1 = b"SBD1"


def save_dictionary(path, D):
    """SBD1: magic, LE u32 d, u32 k, then d*k float64 column-major."""
    D = np.ascontiguousarray(np.asarray(D, dtype=np.float64))
    d, k = D.shape
    blob = MAGIC_SBD1 + struct.pack("<II", d, k) + D.tobytes(order="F")
    atomic_write_bytes(path, blob)


def load_dictionary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_SBD1:
        raise CorruptFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise CorruptFileError(f"{path}: header truncated")
    d, k = struct.unpack("<II", blob[4:12])
    need = 12 + 8 * d * k
    if len(blob) != need:
        raise CorruptFileError(
            f"{path}: expected {need} bytes for {d}x{k} dictionary, got {len(blob)}")
    D = np.frombuffer(blob[12:], dtype="<f8").reshape((d, k), order="F")
    if not np.isfinite(D).all():
        raise CorruptFileError(f"{path}: dictionary holds NaN or inf")
    return D.copy()
