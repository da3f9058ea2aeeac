"""Time pyramid matching over sparse codes, plus the BOW histogram baseline.

A beat's k x Omega code is pooled over a hierarchy of contiguous window
blocks (2^l blocks at level l, levels 0..L, Pi = 2^(L+1)-1 blocks total).
Each block contributes one length-k vector z_j, either by stochastic
pooling (draw one column with probability proportional to its l1 mass) or
by its expectation; z = sum_j z_j.  Unlike the BOW histogram this keeps
coarse temporal structure, which is the point.  Blocks that hold no window
pool to zero and are never visited.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, ParseError
from .ingest import OTHER_LABEL, TARGET_LABELS

# A beat has Omega <= 300 windows, so from level 9 on (2^9 > 300) every
# non-empty block holds one window and a level only repeats the one before.
# The bound keeps a beat's work at (levels + 1) * Omega pools.
MAX_LEVELS = 64


@dataclass
class PyramidConfig:
    levels: int = 2
    mode: str = "expectation"  # or "stochastic"
    seed: int = 0
    normalize_output: bool = True

    def __post_init__(self):
        if not 0 <= self.levels <= MAX_LEVELS:
            raise BadConfigError(f"levels must be in [0, {MAX_LEVELS}], got {self.levels}")
        if self.mode not in ("stochastic", "expectation"):
            raise BadConfigError(f"unknown pooling mode {self.mode!r}")


def build_blocks(omega, levels):
    """The non-empty pyramid blocks [(index, start, stop), ...], coarse first.

    At level l the window axis {0..omega-1} is cut into 2^l contiguous
    near-equal ranges (sizes differ by at most one, longer ranges first).
    When omega < 2^l only the first omega ranges hold a window; the empty
    rest are left out.  index = 2^l - 1 + i numbers range i of level l in
    the full pyramid, whatever omega is.
    """
    if omega < 1:
        raise BadConfigError("omega must be >= 1")
    blocks = []
    for level in range(levels + 1):
        parts = 2 ** level
        base, rem = divmod(omega, parts)
        blocks += [(parts - 1 + i, i * base + min(i, rem), (i + 1) * base + min(i + 1, rem))
                   for i in range(min(parts, omega))]
    return blocks


def pool_block(Xabs, mode, rng=None):
    """Pool one block of nonnegative columns into a length-k vector.

    P(m) is column m's share of the block's total l1 mass.  Stochastic mode
    draws one column l ~ P and returns it; expectation mode returns
    sum_m P(m) X_m.  A block with zero total mass pools to the zero vector.
    """
    Xabs = np.asarray(Xabs, dtype=float)
    k = Xabs.shape[0]
    mass = Xabs.sum(axis=0)
    total = mass.sum()
    if total <= 0.0:
        return np.zeros(k)
    P = mass / total
    if mode == "expectation":
        return Xabs @ P
    pick = int(rng.choice(len(P), p=P))
    return Xabs[:, pick].copy()


def _source_key(source_id):
    digest = hashlib.sha256(str(source_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def tpm_feature(code, cfg):
    """Pyramid-pooled feature z for one SparseCode (Eq. 5, on |X|)."""
    X = np.abs(code.to_dense())
    z = np.zeros(code.k)
    stochastic = cfg.mode == "stochastic"
    # counter-based streams keyed by (seed, hash(source), block), so draws do
    # not depend on the order beats or blocks are evaluated in
    key = _source_key(code.source_id) if stochastic else None
    for bi, a, b in build_blocks(code.omega, cfg.levels):
        if b - a == 1:
            # one window: both modes pool to its column (P = [1], or no mass)
            z += X[:, a]
            continue
        rng = (np.random.default_rng(np.random.SeedSequence([cfg.seed, key, bi]))
               if stochastic else None)
        z += pool_block(X[:, a:b], cfg.mode, rng)
    return _unit(z) if cfg.normalize_output else z


def bow_histogram(assignments, k):
    """Count of windows assigned to each atom; sum equals the window count."""
    assignments = np.asarray(assignments, dtype=int)
    if assignments.size and (assignments.min() < 0 or assignments.max() >= k):
        raise BadConfigError("assignment index outside [0, k)")
    return np.bincount(assignments, minlength=k).astype(float)


def bow_feature(code, normalize=True):
    """Bag-of-words baseline for one SparseCode: each window votes for the
    atom of its largest |coefficient| (ties to the lowest atom); windows
    with no coefficient cast no vote.  The histogram is l2-normalized
    unless it is all zero or normalize is False.
    """
    X = np.abs(code.to_dense())
    filled = np.flatnonzero(X.sum(axis=0) > 0)
    assign = np.argmax(X[:, filled], axis=0) if filled.size else []
    h = bow_histogram(assign, code.k)
    return _unit(h) if normalize else h


def _unit(z):
    """z scaled to unit l2 norm, or z itself when it is all zero."""
    norm = np.linalg.norm(z)
    return z / norm if norm > 0.0 else z


# ---------------------------------------------------------------------------
# CSV export of featurized beats (one row: label, z_1..z_k)


def format_features_csv(labels, Z):
    rows = [",".join([label] + [f"{v:.12g}" for v in z]) for label, z in zip(labels, Z)]
    return "\n".join(rows) + ("\n" if rows else "")


def parse_features_csv(text):
    """(labels, N x k feature matrix) of a features CSV with at least one row."""
    labels, rows = [], []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ParseError("expected 'label, z_1..z_k'", line_no=i)
        label = parts[0].strip()
        try:
            z = np.array([float(v) for v in parts[1:]])
        except ValueError as e:
            raise ParseError(f"bad value: {e}", line_no=i)
        if not np.isfinite(z).all():
            raise ParseError("non-finite value", line_no=i)
        if rows and len(z) != len(rows[0]):
            raise ParseError(f"row has {len(z)} values, expected {len(rows[0])}",
                             line_no=i)
        labels.append(label if label in TARGET_LABELS else OTHER_LABEL)
        rows.append(z)
    if not rows:
        raise ParseError("no feature rows")
    return labels, np.vstack(rows)
