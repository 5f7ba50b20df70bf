"""Kernels: stream correctness against the numpy Philox oracle, for the
NumPy words and the compiled ones, and bit-identity between the two."""

import math
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

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


# the two largest sizes split into chunks over two threads, where fill runs
# without the interpreter lock
@pytest.mark.parametrize("n", [1, 7, 4096, kernels.CHUNK + 1,
                               2 * kernels.CHUNK + 7])
def test_compiled_words_and_normals_bit_identical(compiled_philox, n, rng,
                                                  monkeypatch):
    c2 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c3 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    k1 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c2[0], c3[0], k1[0] = 0, U64_MAX, U64_MAX
    c2[-1], c3[-1], k1[-1] = U64_MAX, 0, 0
    monkeypatch.setattr(kernels, "philox_raw_block",
                        kernels.compiled(compiled_philox))
    monkeypatch.setattr(kernels, "_threads", 2)
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
    one = np.zeros(1, dtype=np.uint64)
    monkeypatch.setattr(kernels, "philox_raw_block", lambda *args: raw)
    assert np.array_equal(kernels.normal_block(0, one, one, 0, one),
                          pyk.normals(raw))


def _edge_streams(n):
    rng = np.random.default_rng(n)
    c2, c3, k1 = (rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
                  for _ in range(3))
    c2[0], c3[0], k1[0] = 0, U64_MAX, U64_MAX
    c2[-1], c3[-1], k1[-1] = U64_MAX, 0, 0
    return c2, c3, k1


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [1, kernels.CHUNK - 1, kernels.CHUNK,
                               kernels.CHUNK + 1, 2 * kernels.CHUNK + 7,
                               65536])
def test_chunked_normal_block_bit_identical(n, threads, monkeypatch):
    # the split into chunks and threads must not show in the output
    monkeypatch.setattr(kernels, "_threads", threads)
    c2, c3, k1 = _edge_streams(n)
    for block, key0 in ((0, U64_MAX), (U64_MAX, 0), (17, 20220121)):
        assert np.array_equal(kernels.normal_block(block, c2, c3, key0, k1),
                              pyk.normal_block(block, c2, c3, key0, k1))


def test_concurrent_callers_under_fast_switching(monkeypatch):
    # more threads than cores, a fresh pool raced for by four callers, and
    # frequent switches: every caller still gets the reference block
    monkeypatch.setattr(kernels, "_threads", 3)
    monkeypatch.setattr(kernels, "_pool", (None, None))
    c2, c3, k1 = _edge_streams(3 * kernels.CHUNK + 5)
    expected = [pyk.normal_block(b, c2, c3, 4, k1) for b in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            got = list(callers.map(
                lambda b: kernels.normal_block(b, c2, c3, 4, k1), range(4),
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def _child_block(c2, c3, k1, expected):
    got = kernels.normal_block(3, c2, c3, 11, k1)
    os._exit(0 if np.array_equal(got, expected) else 1)


def test_forked_child_builds_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in a forked child; a child
    # that submitted to them would wait forever
    monkeypatch.setattr(kernels, "_threads", 2)
    c2, c3, k1 = _edge_streams(2 * kernels.CHUNK + 7)
    expected = pyk.normal_block(3, c2, c3, 11, k1)
    assert np.array_equal(kernels.normal_block(3, c2, c3, 11, k1), expected)
    child = multiprocessing.get_context("fork").Process(
        target=_child_block, args=(c2, c3, k1, expected))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive
    assert child.exitcode == 0


def test_normals_leave_the_words_unchanged(rng):
    raw = rng.integers(0, U64_MAX, (64, 4), dtype=np.uint64, endpoint=True)
    raw[0] = 0, 1 << 11, 2 ** 63, U64_MAX
    before = raw.copy()
    z = pyk.normals(raw)
    assert np.array_equal(raw, before)
    out = np.empty((64, 4))
    assert pyk.normals(raw, out=out) is out
    assert np.array_equal(out, z)
    assert np.array_equal(raw, before)


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
