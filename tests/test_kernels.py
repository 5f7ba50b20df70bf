"""Kernels: stream correctness against the numpy Philox oracle, for the
NumPy words and the compiled ones, bit-identity between the two and
between the compiled sweep and the NumPy loop, and the on-demand build of
the compiled words."""

import ctypes
import importlib.machinery
import importlib.util
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import spde2d
import spde2d._kernels_py as pyk
from spde2d import _cbuild, kernels

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


@pytest.mark.parametrize("n", [1, 7, 4096, 8193, 16391, 16385, 32775])
def test_compiled_words_and_normals_bit_identical(compiled_words, n, rng,
                                                  monkeypatch):
    c2 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c3 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    k1 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c2[0], c3[0], k1[0] = 0, U64_MAX, U64_MAX
    c2[-1], c3[-1], k1[-1] = U64_MAX, 0, 0
    monkeypatch.setattr(kernels, "philox_raw_block", compiled_words)
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


def _layout(n):
    """``(K, L, reps)`` of a sweep of ``n`` streams: as many of 3, 2 or 1
    replications as divide ``n``, of ``K x L`` modes with ``L`` the largest
    divisor of the modes up to their square root (1 for a prime)."""
    reps = next(r for r in (3, 2, 1) if n % r == 0)
    modes = n // reps
    L = max(d for d in range(1, math.isqrt(modes) + 1) if modes % d == 0)
    return modes // L, L, reps


def _stream_words(layout, first_rep):
    """The counter words ``(k, l)`` and key words of the sweep's streams
    over ``layout``'s replications from ``first_rep`` on, by the mode grid
    tiled once per replication."""
    K, L, reps = layout
    k, l = np.meshgrid(np.arange(1, K + 1, dtype=np.uint64),
                       np.arange(1, L + 1, dtype=np.uint64), indexing="ij")
    return (np.tile(k.ravel(), reps), np.tile(l.ravel(), reps),
            np.repeat(np.arange(reps, dtype=np.uint64) + np.uint64(first_rep),
                      K * L))


def test_chunk_follows_the_word_source():
    # the NumPy words hold the interpreter lock between ~170 ufunc calls
    # per chunk, and take chunks eight times as large as the compiled words
    assert kernels.CHUNK == 2048
    assert kernels._sweep_words(pyk.philox_raw_block)[1] == 16384
    if kernels.BACKEND == "c":
        assert kernels._sweep_words(kernels.philox_raw_block) == (
            kernels._words._philox.sweep, 2048)


def _sweep(layout, key0, first_rep, steps, decay, scale):
    """The states of ``ou_sweep`` from zero over ``layout``'s replications
    from ``first_rep`` on, ``(steps + 1, n)``."""
    K, L, reps = layout
    n = reps * K * L
    states = np.empty((steps + 1, n))

    def visit(i, state):
        states[i] = state
    kernels.ou_sweep(np.zeros(n), np.full(K * L, decay),
                     np.full(K * L, scale), L, key0, first_rep, steps, visit)
    return states


def _assert_sweep_draws_normal_block(n):
    # with decay 0 and scale 1 each state is its step's normal: lane
    # (i-1) % 4 of counter block (i-1) // 4 of normal_block; 9 steps span
    # two tiles at 32775 streams and above
    layout = _layout(n)
    steps = 9
    for key0, first_rep in ((U64_MAX, 0), (0, 2 ** 64 - layout[2])):
        states = _sweep(layout, key0, first_rep, steps, 0.0, 1.0)
        c2, c3, k1 = _stream_words(layout, first_rep)
        for i in range(1, steps + 1):
            z = kernels.normal_block((i - 1) // 4, c2, c3, key0, k1)
            assert np.array_equal(states[i], z[:, (i - 1) % 4])


# The sweep is the one kernel that draws normals in chunks over the kernel
# threads: its chunked normal blocks equal normal_block's bit for bit.
@pytest.mark.parametrize("threads", [1, 2])
# besides the edges of one chunk and of four, the sizes around field_io's
# 16384 streams and 32,775, past sixteen chunks
@pytest.mark.parametrize("n", [1, kernels.CHUNK - 1, kernels.CHUNK,
                               kernels.CHUNK + 1, 2 * kernels.CHUNK + 7,
                               8191, 8192, 8193, 16391,
                               16383, 16384, 16385, 32775, 65536])
def test_chunked_normal_block_bit_identical(n, threads, monkeypatch):
    monkeypatch.setattr(kernels, "_threads", threads)
    _assert_sweep_draws_normal_block(n)


@pytest.mark.parametrize("threads", [1, 2])
# the edges of one and of several 16,384-stream chunks
@pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 32775, 65536])
def test_chunked_normal_block_bit_identical_on_numpy_words(n, threads,
                                                           monkeypatch):
    monkeypatch.setattr(kernels, "_threads", threads)
    monkeypatch.setattr(kernels, "philox_raw_block", pyk.philox_raw_block)
    _assert_sweep_draws_normal_block(n)


def _child_sweep(layout, expected):
    got = _sweep(layout, 11, 5, 8, 0.5, 1.0)
    os._exit(0 if np.array_equal(got, expected) else 1)


def test_forked_child_builds_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in a forked child; a child
    # that submitted to them would wait forever
    monkeypatch.setattr(kernels, "_threads", 2)
    layout = _layout(16 * kernels.CHUNK + 7)
    expected = _sweep(layout, 11, 5, 8, 0.5, 1.0)
    assert kernels._pool[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(
        target=_child_sweep, args=(layout, expected))
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
    pyk.normals(raw)
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


# _philox.c with an entry point applying its u53 map to given words: the
# words that fill maps cannot be chosen, since Philox makes them
U53_SHIM = """
#include "{source}"
void map_words(const uint64_t *x, double *u, long n)
{{
    for (long i = 0; i < n; i++)
        u[i] = u53(x[i]);
}}
"""


@pytest.fixture(scope="module")
def compiled_u53(compiled_philox, tmp_path_factory):
    """The compiled ``u53`` map as a function of a uint64 array."""
    work = tmp_path_factory.mktemp("u53")
    (work / "shim.c").write_text(U53_SHIM.format(source=_cbuild.SOURCE))
    lib = work / "shim.so"
    subprocess.run([*_cbuild.COMMAND, str(work / "shim.c"), "-o", str(lib)],
                   check=True, capture_output=True)
    map_words = ctypes.CDLL(str(lib)).map_words
    map_words.restype = None
    map_words.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]

    def u53(words):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        out = np.empty(words.shape)
        map_words(words.ctypes.data, out.ctypes.data, words.size)
        return out
    return u53


def test_compiled_uniform_map_matches_numpy_on_edge_words(compiled_u53, rng):
    top = [0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1]
    words = np.array([t << 11 | low for t in top for low in (0, 1, 0x7FF)],
                     dtype=np.uint64)
    assert words[0] == 0 and words[-1] == U64_MAX
    last = len(words) - 1
    words = np.concatenate([words, rng.integers(0, U64_MAX, 100_000,
                                                dtype=np.uint64,
                                                endpoint=True)])
    got = compiled_u53(words)
    assert np.array_equal(got.view(np.uint64),
                          pyk.uniforms(words).view(np.uint64))
    # the + 0.5 is exact below 2**52 and rounds half to even from there
    assert got[0] == 2.0 ** -54
    assert got[words == (2 ** 52 - 1) << 11] == 0.5 - 2.0 ** -54
    assert got[words == 2 ** 52 << 11] == 0.5
    assert got[words == (2 ** 52 + 1) << 11] == 0.5 + 2.0 ** -52
    assert got[last] == 1.0


@pytest.mark.parametrize("n", [1, 7, 4096])
def test_compiled_sweep_draws_the_normals_of_its_words(compiled_philox, n):
    # with decay 0 and scale 1 row t of the tile is lane t of the block
    K, L, reps = _layout(n)
    zeros, ones = np.zeros(K * L), np.ones(K * L)
    for block, key0, first_rep in ((0, U64_MAX, 2 ** 64 - reps),
                                   (U64_MAX, 0, 0), (17, 20220121, 5)):
        tile = np.empty((4, n))
        compiled_philox.sweep(np.zeros(1, np.int64), n, kernels.CHUNK, block,
                              L, key0, first_rep, zeros, ones, np.zeros(n),
                              tile)
        c2, c3, k1 = _stream_words((K, L, reps), first_rep)
        assert np.array_equal(tile.T.view(np.uint64), pyk.normal_block(
            block, c2, c3, key0, k1).view(np.uint64))


def test_compiled_sweep_rejects_bad_buffers(compiled_philox):
    # two replications of K = L = 2 modes
    x, c = np.zeros(8), np.zeros(4)

    def sweep(*, cursor=None, hi=8, chunk=4, L=2, key0=1, first_rep=0,
              decay=c, scale=c, prev=x, tile=np.empty((2, 8))):
        compiled_philox.sweep(np.zeros(1, np.int64) if cursor is None
                              else cursor, hi, chunk, 0, L, key0, first_rep,
                              decay, scale, prev, tile)
    sweep()
    sweep(L=4)
    sweep(L=1, decay=x, scale=x)
    sweep(key0=U64_MAX, first_rep=2 ** 64 - 2)
    for tile in (np.empty((8, 4), dtype=np.float32),  # 4-byte reals
                 np.empty((7, 4)), np.empty((9, 4)),  # not a multiple of 8
                 np.empty((0, 8)),                    # no row
                 np.empty((8, 4), dtype=np.int64),    # signed words
                 np.empty((8, 4), dtype=np.complex64),
                 np.empty((4, 8))[:, ::2],            # not contiguous
                 np.frombuffer(bytes(128)).reshape(2, 8)):   # read-only
        with pytest.raises(ValueError):
            sweep(tile=tile)
    for cursor in (np.frombuffer(bytes(8), dtype=np.int64),  # read-only
                   np.zeros(1, np.uint64),            # unsigned
                   np.zeros(1),                       # a real
                   np.zeros(1, np.int32),             # 4 bytes
                   np.zeros(2, np.int64),             # two items
                   np.zeros(0, np.int64),             # no item
                   np.full(1, -1, np.int64)):         # below 0
        tile = np.full((2, 8), 7.0)
        with pytest.raises(ValueError):
            sweep(cursor=cursor, tile=tile)
        assert (tile == 7.0).all()
    for kwargs in ({"decay": c.view(np.uint64)},       # words for reals
                   {"scale": x[:3]},                   # short scale
                   {"decay": x[:0], "scale": x[:0]},   # no mode
                   {"prev": x.view(np.uint64)},        # words for reals
                   {"prev": np.zeros(16)[::2]},        # not contiguous
                   {"L": 0}, {"L": -2},
                   # coefficients not a multiple of L
                   {"L": 3}, {"decay": x, "scale": x, "L": 3},
                   # a prev not a multiple of the modes
                   {"decay": x[:3], "scale": x[:3], "L": 1},
                   {"prev": x[:6], "hi": 6, "tile": np.empty((2, 6))},
                   # key words outside [0, 2**64 - 1]: that of the second
                   # replication, of the first, and the first word
                   {"first_rep": U64_MAX}, {"first_rep": 2 ** 64},
                   {"first_rep": -1}, {"key0": 2 ** 64}, {"key0": -1},
                   {"hi": -1}, {"hi": 9}, {"chunk": 0}):
        with pytest.raises(ValueError):
            sweep(**kwargs)


@pytest.mark.parametrize("start", [0, 3, 8, 11])
@pytest.mark.parametrize("chunk", [1, 3, 8, 20])
def test_compiled_sweep_steps_the_streams_it_claims(compiled_philox, start,
                                                    chunk):
    # one call claims from the cursor's value up to hi, chunk by chunk,
    # steps exactly those streams and leaves the cursor at or past hi
    n = 8
    cursor = np.full(1, start, np.int64)
    tile = np.full((4, n), -1.0)
    compiled_philox.sweep(cursor, n, chunk, 0, 2, 1, 0, np.zeros(4),
                          np.ones(4), np.zeros(n), tile)
    whole = np.empty((4, n))
    compiled_philox.sweep(np.zeros(1, np.int64), n, n, 0, 2, 1, 0,
                          np.zeros(4), np.ones(4), np.zeros(n), whole)
    assert np.array_equal(tile[:, start:], whole[:, start:])
    assert (tile[:, :start] == -1.0).all()
    assert cursor[0] >= n


def _ou_paths(words, x, decay, scale, L, key0, first_rep, steps):
    """The states of ``ou_sweep`` on ``words``, ``(steps + 1, n)``."""
    states = np.empty((steps + 1, len(x)))

    def visit(i, state):
        states[i] = state
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "philox_raw_block", words)
        kernels.ou_sweep(x, decay, scale, L, key0, first_rep, steps, visit)
    return states


# (x, decay, scale, L, key0, first_rep, steps) that the compiled sweep
# refuses; the NumPy words once ran each, the first stepping its second
# stream by the normals of replication 0
ONE, TWO = np.zeros(1), np.zeros(2)
REFUSED_SWEEPS = {
    "replication past 2**64-1": (TWO, ONE, ONE, 1, 0, U64_MAX, 1),
    "replication below 0": (TWO, ONE, ONE, 1, 0, -1, 1),
    "key0 past 2**64-1": (TWO, ONE, ONE, 1, 2 ** 64, 0, 1),
    "key0 below 0": (TWO, ONE, ONE, 1, -1, 0, 1),
    "modes not a multiple of L": (np.zeros(6), *[np.zeros(3)] * 2, 2, 0, 0,
                                  1),
    "streams not a multiple of the modes": (np.zeros(5), *[np.zeros(3)] * 2,
                                            3, 0, 0, 1),
    "L of 0": (TWO, ONE, ONE, 0, 0, 0, 1),
    "L below 0": (TWO, ONE, ONE, -1, 0, 0, 1),
    "no stream": (np.zeros(0), ONE, ONE, 1, 0, 0, 1),
    "no mode": (TWO, np.zeros(0), np.zeros(0), 1, 0, 0, 1),
    "coefficients of two lengths": (TWO, TWO, ONE, 1, 0, 0, 1),
    "steps below 0": (TWO, ONE, ONE, 1, 0, 0, -1),
    "float32 states": (np.zeros(2, np.float32), ONE, ONE, 1, 0, 0, 1),
    "float32 coefficients": (TWO, ONE, np.zeros(1, np.float32), 1, 0, 0, 1),
    "strided states": (np.zeros(4)[::2], ONE, ONE, 1, 0, 0, 1),
    "states of two axes": (np.zeros((2, 1)), ONE, ONE, 1, 0, 0, 1),
}


@pytest.mark.parametrize("case", list(REFUSED_SWEEPS))
def test_sweep_refuses_before_the_first_visit(philox_words, case):
    visits = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "philox_raw_block", philox_words)
        with pytest.raises(ValueError, match="ou_sweep needs"):
            kernels.ou_sweep(*REFUSED_SWEEPS[case],
                             lambda i, state: visits.append(i))
    assert visits == []


@pytest.mark.parametrize("at", range(3, 7))
def test_sweep_refuses_a_fraction_for_an_integer(philox_words, at):
    # L, key0, first_rep or steps: a TypeError, as the compiled sweep's
    args = [TWO, ONE, ONE, 1, 0, 0, 1]
    args[at] = 1.0
    visits = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "philox_raw_block", philox_words)
        with pytest.raises(TypeError):
            kernels.ou_sweep(*args, lambda i, state: visits.append(i))
    assert visits == []


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, kernels.CHUNK - 1, kernels.CHUNK,
                               kernels.CHUNK + 1, 2 * kernels.CHUNK + 7,
                               8191, 8192, 8193, 16391, 65536])
def test_compiled_sweep_equals_the_numpy_words_path(compiled_words, n,
                                                    threads, monkeypatch):
    # random decay and scale from a nonzero start; 1, 2, 3 and 9 steps, the
    # last over three tiles at 65,536 streams and two at 16,391; key words
    # at both edges
    monkeypatch.setattr(kernels, "_threads", threads)
    rng = np.random.default_rng(n)
    K, L, reps = _layout(n)
    x = rng.normal(size=n)
    decay, scale = rng.uniform(0.0, 1.0, K * L), rng.uniform(0.0, 2.0, K * L)
    for key0, first_rep in ((0, 2 ** 64 - reps), (U64_MAX, 0)):
        for steps in (1, 2, 3, 9) if n < 65536 else (9,):
            got = _ou_paths(compiled_words, x, decay, scale, L, key0,
                            first_rep, steps)
            want = _ou_paths(pyk.philox_raw_block, x, decay, scale, L, key0,
                             first_rep, steps)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("threads", [1, 2, 3])
# chunks of 4 and 7 streams split the 15 modes of a replication, chunks of
# 15 match them, and chunks of 16 straddle them; the NumPy words take eight
# times as many
@pytest.mark.parametrize("chunk", [4, 7, 15, 16])
def test_sweep_over_chunks_that_split_replications(compiled_words, chunk,
                                                   threads, monkeypatch):
    # 7 replications of K=3 x L=5 modes, the last keyed by 2**64 - 1: each
    # stream steps by the normals of its own mode's words and key, with
    # its mode's coefficients, on either word source
    monkeypatch.setattr(kernels, "_threads", threads)
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    layout, first_rep, key0, steps = (3, 5, 7), 2 ** 64 - 7, U64_MAX, 9
    rng = np.random.default_rng(chunk)
    x = rng.normal(size=105)
    decay, scale = rng.uniform(0.0, 1.0, 15), rng.uniform(0.0, 2.0, 15)
    c2, c3, k1 = _stream_words(layout, first_rep)
    for words in (compiled_words, pyk.philox_raw_block):
        got = _ou_paths(words, x, decay, scale, 5, key0, first_rep, steps)
        want = x.copy()
        assert np.array_equal(got[0], want)
        for i in range(1, steps + 1):
            z = pyk.normal_block((i - 1) // 4, c2, c3, key0, k1)
            pyk.ou_step(want, np.tile(decay, 7), np.tile(scale, 7),
                        z[:, (i - 1) % 4])
            assert np.array_equal(got[i].view(np.uint64),
                                  want.view(np.uint64)), i


def test_compiled_sweep_does_not_contract_the_step(compiled_philox):
    # On these inputs a fused multiply-add, fma(x, d, s*z) or fma(s, z,
    # x*d), differs from NumPy's two roundings of x*d + s*z: a module
    # compiled free to contract the step (gcc -ffp-contract=fast with FMA
    # instructions) fails here.
    # One replication of K = L = 64 modes, whose coefficients are the
    # streams' own.
    n = 4096
    c2, c3, k1 = _stream_words((64, 64, 1), 5)
    z = pyk.normal_block(3, c2, c3, 5, k1)[:, 0]
    rng = np.random.default_rng(7)
    x, d, s = rng.normal(size=n), rng.uniform(size=n), rng.uniform(size=n)
    two = x * d + s * z
    fused = [float(Fraction(a) * Fraction(b) + Fraction(c * w)) != r
             and float(Fraction(c) * Fraction(w) + Fraction(a * b)) != r
             for a, b, c, w, r in zip(x, d, s, z, two)]
    assert sum(fused) > 100
    tile = np.empty((4, n))
    compiled_philox.sweep(np.zeros(1, np.int64), n, kernels.CHUNK, 3, 64, 5,
                          5, d, s, x, tile)
    want = x.copy()
    pyk.ou_step(want, d, s, z)
    assert np.array_equal(want, two)
    assert np.array_equal(tile[0], want)


def _unbound_copy(compiled_philox, tmp_path):
    """The compiled module loaded from a copy of its file: a new shared
    object, loaded without ``_cbuild.load``'s binding."""
    path = tmp_path / Path(compiled_philox.__file__).name
    shutil.copy(compiled_philox.__file__, path)
    loader = importlib.machinery.ExtensionFileLoader("spde2d._philox",
                                                     str(path))
    spec = importlib.util.spec_from_loader("spde2d._philox", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _sweep_one_stream(module):
    """Row 0 to 3 of ``module.sweep`` with decay 0 and scale 1, one stream:
    mode (1, 1) of replication 1 under key word 0."""
    tile = np.empty((4, 1))
    module.sweep(np.zeros(1, np.int64), 1, 1, 0, 1, 0, 1, np.zeros(1),
                 np.ones(1), np.zeros(1), tile)
    return tile[:, 0]


def test_unbound_sweep_raises(compiled_philox, tmp_path):
    with pytest.raises(RuntimeError, match="bind"):
        _sweep_one_stream(_unbound_copy(compiled_philox, tmp_path))


def test_sweep_reports_the_errors_of_its_loop(compiled_philox, tmp_path):
    # scipy's ndtri_exp has a domain error on every uniform; scipy sets it
    # as a Python exception where asked to raise
    module = _unbound_copy(compiled_philox, tmp_path)
    module.bind(scipy.special.ndtri_exp)
    assert np.isnan(_sweep_one_stream(module)).all()
    with scipy.special.errstate(domain="raise"):
        with pytest.raises(scipy.special.SpecialFunctionError):
            _sweep_one_stream(module)


def test_bind_takes_only_a_float64_ufunc_loop(compiled_philox):
    with pytest.raises(TypeError):
        compiled_philox.bind(lambda u: u)
    with pytest.raises(ValueError):
        compiled_philox.bind(np.invert)       # integer and bool loops only
    with pytest.raises(ValueError):
        compiled_philox.bind(np.add)          # two inputs
    # the refused binds leave scipy's ndtri bound
    one = np.ones(1, dtype=np.uint64)
    assert np.array_equal(_sweep_one_stream(compiled_philox),
                          pyk.normal_block(0, one, one, 0, one)[0])


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


# -- the on-demand build, in fresh interpreters on a copy of the package ----

# prints the active word source, then whether its words are the reference's
PROBE = """
import numpy as np
import spde2d
from spde2d import _kernels_py, kernels
s = np.arange(1, 40000, dtype=np.uint64)
print(spde2d.BACKEND)
print(np.array_equal(kernels.philox_raw_block(3, s, s[::-1], 7, s),
                     _kernels_py.philox_raw_block(3, s, s[::-1], 7, s)))
"""


def _package_copy(tmp_path):
    """A copy of the package without its caches; returns its directory."""
    pkg = tmp_path / "spde2d"
    shutil.copytree(Path(spde2d.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return pkg


def _import(pkg, probe=PROBE, **env):
    inherited = {k: v for k, v in os.environ.items()
                 if k != "PYTHONPYCACHEPREFIX"}
    return subprocess.Popen(
        [sys.executable, "-c", probe], cwd=pkg.parent,
        env={**inherited, "PYTHONPATH": str(pkg.parent), **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _expect(pkg, out, probe=PROBE, **env):
    """Run ``probe`` in a fresh interpreter on the package at ``pkg`` and
    check that it exits 0, printing ``out`` and nothing on stderr; a
    failure's message is the whole of stderr, which pytest would otherwise
    cut from the compared tuple."""
    with _import(pkg, probe, **env) as proc:
        got, err = proc.communicate(timeout=120)
    assert (proc.returncode, got, err) == (0, out, ""), err


def _cache(pkg):
    return sorted((pkg / "__pycache__").glob("_philox.*"))


def test_fresh_import_builds_the_compiled_words(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    _expect(pkg, "c\nTrue\n")
    (built,) = _cache(pkg)
    assert built.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def test_second_import_runs_no_compiler(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    _expect(pkg, "c\nTrue\n")
    (built,) = _cache(pkg)
    before = built.stat()
    # with no compiler on the path, a build would fall back to "python"
    empty = tmp_path / "empty"
    empty.mkdir()
    _expect(pkg, "c\nTrue\n", PATH=str(empty))
    assert _cache(pkg) == [built]
    after = built.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_changed_source_gets_its_own_cache_file(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    _expect(pkg, "c\nTrue\n")
    (first,) = _cache(pkg)
    with open(pkg / "_philox.c", "a") as fh:
        fh.write("/* edited */\n")
    _expect(pkg, "c\nTrue\n")
    assert len(_cache(pkg)) == 2 and first in _cache(pkg)


def test_missing_compiler_falls_back_silently(tmp_path):
    if os.path.isabs(_cbuild.COMMAND[0]):
        pytest.skip(f"the compiler is not looked up on PATH "
                    f"({_cbuild.COMMAND[0]})")
    pkg = _package_copy(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    _expect(pkg, "python\nTrue\n", PATH=str(empty))
    assert _cache(pkg) == []


def test_failed_compile_falls_back_silently(tmp_path):
    pkg = _package_copy(tmp_path)
    (pkg / "_philox.c").write_text("#error not a Philox\n")
    _expect(pkg, "python\nTrue\n")
    assert _cache(pkg) == []


def test_unwritable_cache_falls_back(tmp_path):
    # a file in place of the cache directory: permission bits would not
    # stop a process run as root
    pkg = _package_copy(tmp_path)
    (pkg / "__pycache__").write_text("")
    _expect(pkg, "python\nTrue\n")


def test_pycache_prefix_holds_the_cache(compiled_philox, tmp_path):
    # where Python writes bytecode, as a read-only install may ask for
    pkg = _package_copy(tmp_path)
    (pkg / "__pycache__").write_text("")
    prefix = tmp_path / "prefix"
    _expect(pkg, "c\nTrue\n", PYTHONPYCACHEPREFIX=str(prefix))
    assert len(list(prefix.rglob("_philox.*"))) == 1


def test_processes_building_at_once_load_working_modules(compiled_philox,
                                                         tmp_path):
    pkg = _package_copy(tmp_path)
    procs = [_import(pkg) for _ in range(2)]
    results = []
    for proc in procs:
        with proc:
            out, err = proc.communicate(timeout=120)
        results.append((proc.returncode, out, err))
    assert results == [(0, "c\nTrue\n", "")] * 2, \
        "\n".join(err for _, _, err in results)
    assert len(_cache(pkg)) == 1


# -- scipy's ndtri, loaded without scipy.special's package init -------------

@pytest.fixture(scope="module")
def loader_pkg(tmp_path_factory):
    """A copy of the package, shared by the loader's fresh interpreters."""
    return _package_copy(tmp_path_factory.mktemp("loader"))


# the CLI's imports leave scipy.special and its array-API layer unloaded; a
# later import of the package finds the loader's ufunc, and its error state
# and other functions work
LOADED_ALONE = """
import sys
import spde2d.cli
from spde2d import kernels
print(spde2d.BACKEND)
print([m for m in ("scipy.special", "scipy._lib._array_api")
       if m in sys.modules])
import scipy.special
print(kernels.ndtri is scipy.special.ndtri)
with scipy.special.errstate(domain="raise"):
    try:
        scipy.special.ndtri(2.0)
    except scipy.special.SpecialFunctionError:
        print(scipy.special.gamma(5.0))
"""


def test_cli_import_leaves_scipy_special_unloaded(compiled_philox,
                                                 loader_pkg):
    _expect(loader_pkg, "c\n[]\nTrue\n24.0\n", LOADED_ALONE)


def test_loader_reuses_a_loaded_scipy_special():
    def loaded():
        return {k: v for k, v in sys.modules.items()
                if k.split(".")[:2] == ["scipy", "special"]}

    before = loaded()
    assert pyk._scipy_ndtri() is scipy.special.ndtri
    after = loaded()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


# the first search for the extension, which the loader makes under its stub
# of the package, fails
REFUSED = """
import sys

class Refuse:
    count = 0

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not Refuse.count:
            Refuse.count += 1
            raise ImportError("refused")
        return None

sys.meta_path.insert(0, Refuse())
from spde2d import kernels
print(Refuse.count, "scipy.special" in sys.modules)
print(kernels.ndtri is sys.modules["scipy.special"].ndtri)
"""


def test_loader_falls_back_to_the_public_import(loader_pkg):
    _expect(loader_pkg, "1 True\nTrue\n", REFUSED)


# another thread imports from scipy.special while the loader's stub stands
# in for the package: it waits for the import lock, then reads the real
# package's names through the stub it took from sys.modules
RACE = """
import sys
import threading
import time

got = {}

def take():
    from scipy.special import gamma
    got["gamma"] = gamma

class Race:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not got:
            got["thread"] = threading.Thread(target=take)
            got["thread"].start()
            time.sleep(0.2)
        return None

sys.meta_path.insert(0, Race())
from spde2d import kernels
got["thread"].join(60)
print(got["thread"].is_alive(), got["gamma"](5.0))
import scipy.special
print(got["gamma"] is scipy.special.gamma,
      kernels.ndtri is scipy.special.ndtri)
"""


def test_import_in_another_thread_gets_the_real_package(loader_pkg):
    _expect(loader_pkg, "False 24.0\nTrue True\n", RACE)


# -- what an import loads ---------------------------------------------------

# The CLI's imports leave out the process pool (multiprocessing and socket)
# and hashlib (OpenSSL's libcrypto); a Monte Carlo run over two workers
# imports the pool then, forks through it and writes the serial run's bytes.
LEAN = """
import sys
import spde2d.cli
from spde2d import harness
heavy = ("multiprocessing", "concurrent.futures.process", "hashlib",
         "_hashlib")
print([m for m in heavy if m in sys.modules])
config = harness.ExperimentConfig.from_dict({
    "grid": {"N": 20, "M1": 10, "M2": 10}, "truncation": {"K": 4, "L": 4},
    "thinning": {"mbar1": 5, "mbar2": 5, "delta": 0.05, "n": 10},
    "replications": 2, "seed": 5})
serial = harness.run_monte_carlo(config).to_json()
print("concurrent.futures.process" in sys.modules)
forked = harness.run_monte_carlo(config, threads=2).to_json()
from concurrent.futures import process
print(harness.ProcessPoolExecutor is process.ProcessPoolExecutor,
      forked == serial)
"""


def test_cli_import_leaves_the_process_pool_and_hashlib_unloaded(loader_pkg):
    _expect(loader_pkg, "[]\nFalse\nTrue True\n", LEAN)
