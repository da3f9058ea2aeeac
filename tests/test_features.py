"""Time pyramid matching, pooling modes, and the BOW baseline."""

import hashlib

import numpy as np
import pytest

from ecgsparse.errors import BadConfigError, ParseError
from ecgsparse.codec import SparseCode
from ecgsparse.features import (
    MAX_LEVELS,
    bow_feature,
    bow_histogram,
    build_blocks,
    check_pyramid_options,
    format_features_csv,
    parse_features_csv,
    pool_block,
    tpm_feature,
    unit,
)


# --- block structure ------------------------------------------------------------

def test_build_blocks_omega8():
    blocks = build_blocks(8, 2)
    assert blocks == [(0, 0, 8), (1, 0, 4), (2, 4, 8), (3, 0, 2), (4, 2, 4), (5, 4, 6),
                      (6, 6, 8)]


def test_build_blocks_degenerate_omega1():
    # with a single window each level's first range holds it; the trailing
    # ranges are empty and left out, and the kept ones keep their global index
    assert build_blocks(1, 2) == [(0, 0, 1), (1, 0, 1), (3, 0, 1)]


def test_build_blocks_longer_first():
    assert build_blocks(11, 1) == [(0, 0, 11), (1, 0, 6), (2, 6, 11)]


def test_build_blocks_each_level_partitions():
    # level l's blocks are numbered 2^l - 1 + i; the non-empty ones come
    # first in each level and cover the window axis exactly
    for omega in (1, 2, 5, 8, 11, 37):
        for L in (0, 1, 2, 3):
            blocks = build_blocks(omega, L)
            assert len(blocks) == sum(min(2 ** level, omega) for level in range(L + 1))
            for level in range(L + 1):
                first = 2 ** level - 1
                level_blocks = [blk for blk in blocks if first <= blk[0] < 2 * first + 1]
                assert [blk[0] for blk in level_blocks] == list(
                    range(first, first + min(2 ** level, omega)))
                covered = []
                for _, a, b in level_blocks:
                    assert b > a
                    covered.extend(range(a, b))
                assert covered == list(range(omega))


def test_build_blocks_bad_omega():
    with pytest.raises(BadConfigError):
        build_blocks(0, 2)


def test_pyramid_config_bounds():
    # past MAX_LEVELS a level only repeats single-window blocks; at the top
    # level a beat still pools each non-empty block once
    with pytest.raises(BadConfigError, match=r"levels must be in \[0, 64\], got -1"):
        check_pyramid_options(-1, "expectation")
    with pytest.raises(BadConfigError, match="got 65"):
        check_pyramid_options(MAX_LEVELS + 1, "expectation")
    with pytest.raises(BadConfigError, match="unknown pooling mode 'max'"):
        check_pyramid_options(2, "max")
    code = make_code(np.random.default_rng(0).standard_normal((5, 11)))
    # tpm_feature makes the same checks
    with pytest.raises(BadConfigError, match="got 65"):
        tpm_feature(code, MAX_LEVELS + 1, "expectation", 0)
    with pytest.raises(BadConfigError, match="unknown pooling mode 'max'"):
        tpm_feature(code, 2, "max", 0)
    assert len(build_blocks(11, MAX_LEVELS)) == 1 + 2 + 4 + 8 + 11 * (MAX_LEVELS - 3)
    for mode in ("expectation", "stochastic"):
        z = unit(tpm_feature(code, MAX_LEVELS, mode, 0))
        assert z.shape == (5,) and np.linalg.norm(z) == pytest.approx(1.0)


# --- pooling ----------------------------------------------------------------------

def test_pool_single_column():
    col = np.array([[1.0], [2.0], [0.0]])
    np.testing.assert_array_equal(pool_block(col, "expectation"), col[:, 0])
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(pool_block(col, "stochastic", rng), col[:, 0])


def test_pool_identical_columns():
    c = np.array([0.5, 1.5, 0.0])
    block = np.tile(c[:, None], (1, 4))
    np.testing.assert_allclose(pool_block(block, "expectation"), c, atol=1e-12)
    rng = np.random.default_rng(1)
    np.testing.assert_allclose(pool_block(block, "stochastic", rng), c)


def test_pool_expectation_weighted_mean():
    x1 = np.array([3.0, 0.0])   # mass 3
    x2 = np.array([0.0, 1.0])   # mass 1
    block = np.column_stack([x1, x2])
    np.testing.assert_allclose(pool_block(block, "expectation"),
                               0.75 * x1 + 0.25 * x2, atol=1e-12)


def test_pool_zero_mass():
    block = np.zeros((3, 4))
    np.testing.assert_array_equal(pool_block(block, "expectation"), np.zeros(3))
    rng = np.random.default_rng(2)
    np.testing.assert_array_equal(pool_block(block, "stochastic", rng), np.zeros(3))


def test_pool_stochastic_frequencies():
    # two columns with mass 3 and 1: selection frequencies near 0.75 / 0.25
    block = np.column_stack([np.array([3.0, 0.0]), np.array([0.0, 1.0])])
    rng = np.random.default_rng(3)
    picks = np.zeros(2)
    for _ in range(10000):
        z = pool_block(block, "stochastic", rng)
        picks[0 if z[0] > 0 else 1] += 1
    freq = picks / picks.sum()
    assert abs(freq[0] - 0.75) <= 0.02
    assert abs(freq[1] - 0.25) <= 0.02


# --- tpm_feature --------------------------------------------------------------------

def make_code(X, label="N", source_id="b0"):
    return SparseCode.from_dense(np.asarray(X, dtype=float), label=label,
                                 source_id=source_id)


def test_tpm_zero_code():
    code = make_code(np.zeros((5, 4)))
    z = tpm_feature(code, 2, "expectation", 0)
    np.testing.assert_array_equal(z, np.zeros(5))
    np.testing.assert_array_equal(unit(z), np.zeros(5))  # all zero stays zero


def test_tpm_single_window_level0():
    c = np.array([[1.0], [-2.0], [0.0]])
    code = make_code(c)
    np.testing.assert_allclose(tpm_feature(code, 0, "expectation", 0), np.abs(c[:, 0]),
                               atol=1e-12)


def test_tpm_normalized_output():
    rng = np.random.default_rng(4)
    code = make_code(rng.standard_normal((6, 8)))
    z = unit(tpm_feature(code, 2, "expectation", 0))
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)
    assert np.all(z >= 0)


def test_tpm_deterministic_stochastic_mode():
    rng = np.random.default_rng(5)
    code = make_code(rng.standard_normal((6, 8)), source_id="beat-42")
    z1 = tpm_feature(code, 2, "stochastic", 9)
    z2 = tpm_feature(code, 2, "stochastic", 9)
    np.testing.assert_array_equal(z1, z2)
    # a different source id draws differently somewhere
    other = make_code(code.to_dense(), source_id="beat-43")
    z3 = tpm_feature(other, 2, "stochastic", 9)
    assert not np.array_equal(z1, z3)


def _block_rng(seed, source_id, block_index):
    """One block's stochastic stream, keyed by (seed, SHA-256 of the source
    id, global block index)."""
    digest = hashlib.sha256(str(source_id).encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key, block_index]))


def _full_pyramid_tpm(code, levels, mode, seed):
    """Reference: pool all 2^(L+1) - 1 ranges in order, empty ones included."""
    X = np.abs(code.to_dense())
    z = np.zeros(code.k)
    bi = 0
    for level in range(levels + 1):
        base, rem = divmod(code.omega, 2 ** level)
        start = 0
        for i in range(2 ** level):
            stop = start + base + (1 if i < rem else 0)
            rng = (_block_rng(seed, code.source_id, bi)
                   if mode == "stochastic" else None)
            z += pool_block(X[:, start:stop], mode, rng)
            start, bi = stop, bi + 1
    return z


def test_tpm_matches_full_pyramid_walk():
    # skipping the empty blocks and keying each kept one by its global index
    # gives the same bits as walking every range, in both modes
    rng = np.random.default_rng(11)
    for omega in range(1, 14):
        X = rng.standard_normal((6, omega)) * (rng.random((6, omega)) < 0.4)
        code = make_code(X, source_id=f"b{omega}")
        for levels in range(5):
            for mode in ("expectation", "stochastic"):
                z = tpm_feature(code, levels, mode, omega)
                ref = _full_pyramid_tpm(code, levels, mode, omega)
                assert np.array_equal(z, ref)
                norm = np.linalg.norm(ref)
                assert np.array_equal(unit(z), ref / norm if norm > 0.0 else ref)


def test_tpm_sees_permutation_bow_does_not():
    # three windows, one atom each; reversing their order moves atoms
    # between the level-1 blocks (0,2) and (2,3), so the pyramid changes
    X = np.zeros((4, 3))
    X[0, 0] = 1.0
    X[1, 1] = 1.0
    X[2, 2] = 1.0
    Xp = X[:, ::-1]
    z = tpm_feature(make_code(X), 1, "expectation", 0)
    zp = tpm_feature(make_code(Xp), 1, "expectation", 0)
    assert np.max(np.abs(z - zp)) > 1e-9
    h = bow_histogram(np.argmax(np.abs(X), axis=0), 4)
    hp = bow_histogram(np.argmax(np.abs(Xp), axis=0), 4)
    np.testing.assert_array_equal(h, hp)


# --- BOW baseline ---------------------------------------------------------------

def test_bow_all_windows_one_atom():
    h = bow_histogram(np.full(11, 3), k=8)
    expect = np.zeros(8)
    expect[3] = 11
    np.testing.assert_array_equal(h, expect)


def test_bow_feature_hand_built_code():
    # window 0: atom 2 strongest; window 1: empty; window 2: |-3| ties
    # between atoms 1 and 4 and goes to atom 1; window 3: atom 4
    X = np.zeros((5, 4))
    X[0, 0], X[2, 0] = 0.5, -2.0
    X[1, 2], X[3, 2], X[4, 2] = -3.0, 1.0, 3.0
    X[4, 3] = 0.1
    code = make_code(X, label="V")
    raw = bow_feature(code)
    np.testing.assert_array_equal(raw, [0.0, 1.0, 1.0, 0.0, 1.0])
    np.testing.assert_allclose(unit(raw),
                               np.array([0.0, 1.0, 1.0, 0.0, 1.0]) / np.sqrt(3.0),
                               rtol=0, atol=1e-15)
    empty = unit(bow_feature(make_code(np.zeros((5, 3)))))
    np.testing.assert_array_equal(empty, np.zeros(5))


def test_bow_count_conservation():
    rng = np.random.default_rng(6)
    assign = rng.integers(0, 5, size=17)
    assert bow_histogram(assign, 5).sum() == 17


# --- CSV round trip -----------------------------------------------------------------

def test_features_csv_roundtrip():
    rng = np.random.default_rng(7)
    Z = np.vstack([unit(tpm_feature(make_code(rng.standard_normal((5, 6)),
                                              source_id=f"b{i}"), 1, "expectation", 0))
                   for i in range(4)])
    text = format_features_csv(["N", "V", "/", "Q"], Z)
    labels, again = parse_features_csv(text.splitlines())
    # a label outside the target classes reads back as the other class
    assert labels == ["N", "V", "/", "Other"]
    np.testing.assert_allclose(again, Z, atol=1e-9)
    with pytest.raises(ParseError, match="no feature rows"):
        parse_features_csv(["# no rows"])
