"""Kernels: stream correctness against the numpy Philox oracle, for the
NumPy words and the compiled ones, bit-identity between the two, and the
on-demand build of the compiled words."""

import ctypes
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

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


# the sizes above CHUNK split into chunks over two threads, where fill runs
# without the interpreter lock; 16385 and 32775 straddle two and four chunks
@pytest.mark.parametrize("n", [1, 7, 4096, kernels.CHUNK + 1,
                               2 * kernels.CHUNK + 7, 16385, 32775])
def test_compiled_words_and_normals_bit_identical(compiled_words, n, rng,
                                                  monkeypatch):
    c2 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c3 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    k1 = rng.integers(0, U64_MAX, n, dtype=np.uint64, endpoint=True)
    c2[0], c3[0], k1[0] = 0, U64_MAX, U64_MAX
    c2[-1], c3[-1], k1[-1] = U64_MAX, 0, 0
    monkeypatch.setattr(kernels, "philox_raw_block", compiled_words)
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
# besides the edges of one chunk, the sizes around field_io's 16384 streams
# and one past four chunks
@pytest.mark.parametrize("n", [1, kernels.CHUNK - 1, kernels.CHUNK,
                               kernels.CHUNK + 1, 2 * kernels.CHUNK + 7,
                               16383, 16384, 16385, 32775, 65536])
def test_chunked_normal_block_bit_identical(n, threads, monkeypatch):
    # the split into chunks and threads must not show in the output
    monkeypatch.setattr(kernels, "_threads", threads)
    c2, c3, k1 = _edge_streams(n)
    for block, key0 in ((0, U64_MAX), (U64_MAX, 0), (17, 20220121)):
        assert np.array_equal(kernels.normal_block(block, c2, c3, key0, k1),
                              pyk.normal_block(block, c2, c3, key0, k1))


def test_chunk_follows_the_word_source():
    # the NumPy words hold the interpreter lock between ~170 ufunc calls
    # per chunk, and take chunks twice as large as the compiled words
    assert kernels.CHUNK == 8192
    assert kernels._chunk(pyk.philox_raw_block) == 16384
    if kernels.BACKEND == "c":
        assert kernels._chunk(kernels.philox_raw_block) == 8192


@pytest.mark.parametrize("threads", [1, 2])
# the edges of one and of several 16,384-stream chunks
@pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 32775, 65536])
def test_chunked_normal_block_bit_identical_on_numpy_words(n, threads,
                                                           monkeypatch):
    monkeypatch.setattr(kernels, "_threads", threads)
    monkeypatch.setattr(kernels, "philox_raw_block", pyk.philox_raw_block)
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
def test_compiled_fill_writes_the_uniforms_of_its_words(compiled_philox, n):
    c2, c3, k1 = _edge_streams(n)
    for block, key0 in ((0, U64_MAX), (U64_MAX, 0), (17, 20220121)):
        words = np.empty((n, 4), dtype=np.uint64)
        u = np.empty((n, 4))
        compiled_philox.fill(block, c2, c3, key0, k1, words)
        compiled_philox.fill(block, c2, c3, key0, k1, u)
        assert np.array_equal(words,
                              pyk.philox_raw_block(block, c2, c3, key0, k1))
        assert np.array_equal(u.view(np.uint64),
                              pyk.uniforms(words).view(np.uint64))


def test_compiled_fill_rejects_bad_uniform_buffers(compiled_philox):
    c2 = np.arange(8, dtype=np.uint64)
    fill = compiled_philox.fill
    for out in (np.empty((8, 4), dtype=np.float32),   # 4-byte reals
                np.empty((7, 4)), np.empty((9, 4)),   # wrong length
                np.empty((8, 4), dtype=np.int64),     # signed words
                np.empty((8, 4), dtype=np.complex64),
                np.empty((4, 8))[:, ::2]):            # not contiguous
        with pytest.raises(ValueError):
            fill(0, c2, c2, 1, c2, out)
    with pytest.raises(ValueError):
        fill(0, c2.astype(np.float64), c2, 1, c2, np.empty((8, 4)))
    with pytest.raises(ValueError):                   # read-only
        fill(0, c2, c2, 1, c2, np.frombuffer(bytes(256)).reshape(8, 4))


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


def _import(pkg, **env):
    inherited = {k: v for k, v in os.environ.items()
                 if k != "PYTHONPYCACHEPREFIX"}
    return subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=pkg.parent,
        env={**inherited, "PYTHONPATH": str(pkg.parent), **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _run(pkg, **env):
    with _import(pkg, **env) as proc:
        out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def _cache(pkg):
    return sorted((pkg / "__pycache__").glob("_philox.*"))


def test_fresh_import_builds_the_compiled_words(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    assert _run(pkg) == (0, "c\nTrue\n", "")
    (built,) = _cache(pkg)
    assert built.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def test_second_import_runs_no_compiler(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    assert _run(pkg)[0] == 0
    (built,) = _cache(pkg)
    before = built.stat()
    # with no compiler on the path, a build would fall back to "python"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run(pkg, PATH=str(empty)) == (0, "c\nTrue\n", "")
    assert _cache(pkg) == [built]
    after = built.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_changed_source_gets_its_own_cache_file(compiled_philox, tmp_path):
    pkg = _package_copy(tmp_path)
    assert _run(pkg) == (0, "c\nTrue\n", "")
    (first,) = _cache(pkg)
    with open(pkg / "_philox.c", "a") as fh:
        fh.write("/* edited */\n")
    assert _run(pkg) == (0, "c\nTrue\n", "")
    assert len(_cache(pkg)) == 2 and first in _cache(pkg)


def test_missing_compiler_falls_back_silently(tmp_path):
    if os.path.isabs(_cbuild.COMMAND[0]):
        pytest.skip(f"the compiler is not looked up on PATH "
                    f"({_cbuild.COMMAND[0]})")
    pkg = _package_copy(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run(pkg, PATH=str(empty)) == (0, "python\nTrue\n", "")
    assert _cache(pkg) == []


def test_failed_compile_falls_back_silently(tmp_path):
    pkg = _package_copy(tmp_path)
    (pkg / "_philox.c").write_text("#error not a Philox\n")
    assert _run(pkg) == (0, "python\nTrue\n", "")
    assert _cache(pkg) == []


def test_unwritable_cache_falls_back(tmp_path):
    # a file in place of the cache directory: permission bits would not
    # stop a process run as root
    pkg = _package_copy(tmp_path)
    (pkg / "__pycache__").write_text("")
    assert _run(pkg) == (0, "python\nTrue\n", "")


def test_pycache_prefix_holds_the_cache(compiled_philox, tmp_path):
    # where Python writes bytecode, as a read-only install may ask for
    pkg = _package_copy(tmp_path)
    (pkg / "__pycache__").write_text("")
    prefix = tmp_path / "prefix"
    assert _run(pkg, PYTHONPYCACHEPREFIX=str(prefix)) == (0, "c\nTrue\n", "")
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
    assert results == [(0, "c\nTrue\n", "")] * 2
    assert len(_cache(pkg)) == 1
