"""Time pyramid matching over sparse codes, plus the BOW histogram baseline.

A beat's k x Omega code is pooled over a hierarchy of contiguous window
blocks (2^l blocks at level l, levels 0..L, Pi = 2^(L+1)-1 blocks total).
Each block contributes one length-k vector z_j, either by stochastic
pooling (draw one column with probability proportional to its l1 mass) or
by its expectation; z = sum_j z_j.  Unlike the BOW histogram this keeps
coarse temporal structure, which is the point.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, ParseError
from .ingest import OTHER_LABEL, TARGET_LABELS


@dataclass
class PyramidConfig:
    levels: int = 2
    mode: str = "expectation"  # or "stochastic"
    seed: int = 0
    normalize_output: bool = True

    def __post_init__(self):
        if self.levels < 0:
            raise BadConfigError("levels must be >= 0")
        if self.mode not in ("stochastic", "expectation"):
            raise BadConfigError(f"unknown pooling mode {self.mode!r}")

    @property
    def block_count(self):
        return 2 ** (self.levels + 1) - 1


@dataclass
class PyramidHistogram:
    z: np.ndarray
    label: str = OTHER_LABEL


def build_blocks(omega, levels):
    """Index ranges [(start, stop), ...] for all pyramid levels, coarse first.

    At level l the window axis {0..omega-1} is cut into 2^l contiguous
    near-equal ranges (sizes differ by at most one, longer ranges first).
    When omega < 2^l the trailing ranges are empty but the level still
    partitions the axis exactly.
    """
    if omega < 1:
        raise BadConfigError("omega must be >= 1")
    blocks = []
    for level in range(levels + 1):
        parts = 2 ** level
        base, rem = divmod(omega, parts)
        start = 0
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            blocks.append((start, start + size))
            start += size
    return blocks


def pool_block(Xabs, mode, rng=None):
    """Pool one block of nonnegative columns into a length-k vector.

    P(m) is column m's share of the block's total l1 mass.  Stochastic mode
    draws one column l ~ P and returns it; expectation mode returns
    sum_m P(m) X_m.  A block with zero total mass pools to the zero vector.
    """
    Xabs = np.asarray(Xabs, dtype=float)
    k = Xabs.shape[0]
    if Xabs.shape[1] == 0:
        return np.zeros(k)
    mass = Xabs.sum(axis=0)
    total = mass.sum()
    if total <= 0.0:
        return np.zeros(k)
    P = mass / total
    if mode == "expectation":
        return Xabs @ P
    pick = int(rng.choice(len(P), p=P))
    return Xabs[:, pick].copy()


def _block_rng(seed, source_id, block_index):
    # counter-based stream: keyed by (seed, hash(source), block), so draws do
    # not depend on the order beats or blocks are evaluated in
    digest = hashlib.sha256(str(source_id).encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key, block_index]))


def tpm_feature(code, cfg):
    """Pyramid-pooled feature z for one SparseCode (Eq. 5, on |X|)."""
    X = np.abs(code.to_dense())
    z = np.zeros(code.k)
    for bi, (a, b) in enumerate(build_blocks(code.omega, cfg.levels)):
        rng = None
        if cfg.mode == "stochastic":
            rng = _block_rng(cfg.seed, code.source_id, bi)
        z += pool_block(X[:, a:b], cfg.mode, rng)
    if cfg.normalize_output:
        norm = np.linalg.norm(z)
        if norm > 0.0:
            z = z / norm
    return PyramidHistogram(z=z, label=code.label)


def bow_histogram(assignments, k):
    """Count of windows assigned to each atom; sum equals the window count."""
    assignments = np.asarray(assignments, dtype=int)
    if assignments.size and (assignments.min() < 0 or assignments.max() >= k):
        raise BadConfigError("assignment index outside [0, k)")
    return np.bincount(assignments, minlength=k).astype(float)


# ---------------------------------------------------------------------------
# CSV export of featurized beats (one row: label, z_1..z_k)


def format_features_csv(hists):
    rows = []
    for h in hists:
        rows.append(",".join([h.label] + [f"{v:.12g}" for v in h.z]))
    return "\n".join(rows) + ("\n" if rows else "")


def parse_features_csv(lines):
    if isinstance(lines, str):
        lines = lines.splitlines()
    hists = []
    width = None
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ParseError("expected 'label, z_1..z_k'", line_no=i)
        label = parts[0].strip()
        if label not in TARGET_LABELS:
            label = OTHER_LABEL
        try:
            z = np.array([float(v) for v in parts[1:]])
        except ValueError as e:
            raise ParseError(f"bad value: {e}", line_no=i)
        if not np.isfinite(z).all():
            raise ParseError("non-finite value", line_no=i)
        if width is None:
            width = len(z)
        elif len(z) != width:
            raise ParseError(f"row has {len(z)} values, expected {width}", line_no=i)
        hists.append(PyramidHistogram(z=z, label=label))
    return hists
