"""Kernels: stream correctness against the numpy Philox oracle, for the
NumPy words and the compiled ones, and bit-identity between the two."""

import math

import numpy as np
import pytest

import spde2d._kernels_py as pyk
from spde2d import kernels

U64_MAX = 2 ** 64 - 1


def _streams(rng, n):
    c2 = rng.integers(0, 2 ** 63, n, dtype=np.uint64)
    c3 = rng.integers(0, 2 ** 63, n, dtype=np.uint64)
    k1 = rng.integers(0, 2 ** 63, n, dtype=np.uint64)
    return c2, c3, k1


def test_raw_block_matches_numpy_philox(philox_words, rng):
    # numpy's generator emits the block at counter+1 first, so its stream
    # from counter b-1 is our block b.
    c2, c3, k1 = _streams(rng, 16)
    key0 = 97531
    block = 12
    ours = philox_words(block, c2, c3, key0, k1)
    for i in range(16):
        bg = np.random.Philox(key=[key0, int(k1[i])],
                              counter=[block - 1, 0, int(c2[i]), int(c3[i])])
        expected = bg.random_raw(4).astype(np.uint64)
        assert np.array_equal(ours[i], expected)


def test_blocks_advance_like_one_numpy_stream(philox_words):
    c2 = np.array([5], dtype=np.uint64)
    c3 = np.array([9], dtype=np.uint64)
    k1 = np.array([3], dtype=np.uint64)
    bg = np.random.Philox(key=[1, 3], counter=[0, 0, 5, 9])
    expected = bg.random_raw(12).astype(np.uint64)
    got = np.concatenate([philox_words(b, c2, c3, 1, k1)[0]
                          for b in (1, 2, 3)])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1, 7, 4096])
def test_compiled_words_and_normals_bit_identical(compiled_philox, n, rng,
                                                  monkeypatch):
    c2 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c3 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    k1 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c2[0], c3[0], k1[0] = 0, U64_MAX, U64_MAX
    c2[-1], c3[-1], k1[-1] = U64_MAX, 0, 0
    monkeypatch.setattr(kernels, "philox_raw_block",
                        kernels.compiled(compiled_philox))
    for block in (0, 1, 17, U64_MAX):
        for key0 in (0, 20220121, U64_MAX):
            assert np.array_equal(
                kernels.philox_raw_block(block, c2, c3, key0, k1),
                pyk.philox_raw_block(block, c2, c3, key0, k1))
            assert np.array_equal(
                kernels.normal_block(block, c2, c3, key0, k1),
                pyk.normal_block(block, c2, c3, key0, k1))


def test_normal_block_maps_the_active_words(monkeypatch):
    # callers swap kernels.philox_raw_block; normal_block must follow it
    raw = np.array([[0, 1 << 11, 2 ** 63, U64_MAX]], dtype=np.uint64)
    monkeypatch.setattr(kernels, "philox_raw_block", lambda *args: raw)
    assert np.array_equal(kernels.normal_block(0, None, None, 0, None),
                          pyk.normals(raw))


def test_compiled_fill_rejects_mismatched_buffers(compiled_philox):
    n = 8
    c2 = np.arange(n, dtype=np.uint64)
    out = np.empty((n, 4), dtype=np.uint64)
    fill = compiled_philox.fill
    with pytest.raises(ValueError):
        fill(0, c2, c2[:5], 1, c2, out)          # short ctr3
    with pytest.raises(ValueError):
        fill(0, c2, c2, 1, c2[:5], out)          # short key1
    with pytest.raises(ValueError):
        fill(0, c2, c2, 1, c2, out[:5])          # short out
    with pytest.raises(ValueError):
        fill(0, c2, c2, 1, c2.astype(np.float64), out)   # not uint64
    with pytest.raises(ValueError):
        fill(0, c2, c2, 1, c2.astype(np.uint32), out)    # 4-byte words
    with pytest.raises(ValueError):
        fill(0, c2[::2], c2[::2], 1, c2[::2], out[:4])   # not contiguous


def test_normal_map_is_inverse_cdf_of_top_bits(rng):
    from scipy.special import ndtri
    c2, c3, k1 = _streams(rng, 8)
    raw = pyk.philox_raw_block(0, c2, c3, 7, k1)
    z = pyk.normal_block(0, c2, c3, 7, k1)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    assert np.array_equal(z, ndtri(u))


def test_normals_have_standard_moments():
    n = 200_000
    c2 = np.arange(n, dtype=np.uint64)
    c3 = np.zeros(n, dtype=np.uint64)
    k1 = np.zeros(n, dtype=np.uint64)
    z = pyk.normal_block(0, c2, c3, 42, k1).ravel()
    assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / z.size)


def test_ou_step_formula(rng):
    x = rng.normal(size=100)
    expected = x * 0.5 + 0.25 * 2.0
    kernels.ou_step(x, np.full(100, 0.5), np.full(100, 0.25),
                    np.full(100, 2.0))
    assert np.allclose(x, expected, rtol=0, atol=0)


def test_kahan_accumulation_beats_naive():
    # Sum many tiny squared increments on top of a large one; the
    # compensated sum must match fsum essentially exactly.
    n_terms = 50_000
    curr = np.array([1e6])
    prev = np.array([0.0])
    acc = np.zeros(1)
    comp = np.zeros(1)
    kernels.sq_diff_accum(curr, prev, acc, comp)
    small_sq = 1e-4 ** 2
    exact = math.fsum([1e6 ** 2] + [small_sq] * n_terms)
    a = np.array([1e-4])
    b = np.array([0.0])
    for _ in range(n_terms):
        kernels.sq_diff_accum(a, b, acc, comp)
    assert abs(acc[0] - exact) <= 2.0 * np.finfo(float).eps * exact
