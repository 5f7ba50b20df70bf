"""The NumPy kernels, and the reference for the compiled Philox words.

Semantics here are the reference: the compiled ``_philox`` must reproduce
``philox_raw_block`` bit for bit; everything else runs here on both
backends (see ``kernels``).  All noise derives from the
Philox4x64-10 counter-based generator.  A logical stream is addressed by

    key     = (key0, key1[s])          two 64-bit words
    counter = (block, 0, ctr2[s], ctr3[s])

and draw ``i`` of a stream is lane ``i % 4`` of block ``i // 4``.  A raw
64-bit word ``x`` maps to a standard normal via the inverse CDF:

    z = ndtri(((x >> 11) + 0.5) * 2**-53)

which uses the top 53 bits and never hits the endpoints of (0, 1).
"""

import numpy as np
from scipy.special import ndtri

BACKEND_NAME = "python"

_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_M_HI = _M >> _SH32
_M_LO = _M & _MASK32
_U53 = 2.0 ** -53


def philox_raw_block(block, ctr2, ctr3, key0, key1):
    """Four raw 64-bit outputs per stream for one counter block.

    ``ctr2``, ``ctr3`` and ``key1`` are equal-length uint64 arrays defining
    the streams; ``block`` and ``key0`` are scalars.  Returns an
    ``(n, 4)`` uint64 array, lane order as produced by Philox4x64-10.
    """
    ctr2 = np.ascontiguousarray(ctr2, dtype=np.uint64)
    ctr3 = np.ascontiguousarray(ctr3, dtype=np.uint64)
    key1 = np.ascontiguousarray(key1, dtype=np.uint64)
    n = ctr2.shape[0]
    # Rows 0 and 1 hold the words each round multiplies by M0 and by M1,
    # so one ufunc call does both products: x = (x0, x2), y = (x1, x3),
    # k = (k0, k1).
    x, y, k, hi, lo, bh, bl, t = np.empty((8, 2, n), dtype=np.uint64)
    x[0], x[1] = block, ctr2
    y[0], y[1] = 0, ctr3
    k[0], k[1] = key0, key1
    for r in range(10):
        if r > 0:
            np.add(k, _W, out=k)
        # full 64x64 -> 128 bit products M * x via 32-bit partial products
        np.multiply(_M, x, out=lo)
        np.right_shift(x, _SH32, out=bh)
        np.bitwise_and(x, _MASK32, out=bl)
        np.multiply(_M_LO, bl, out=t)
        np.right_shift(t, _SH32, out=t)
        np.multiply(_M_HI, bl, out=bl)
        np.add(t, bl, out=t)                    # t = mh*bl + (ml*bl >> 32)
        np.bitwise_and(t, _MASK32, out=bl)
        np.multiply(_M_LO, bh, out=hi)
        np.add(bl, hi, out=bl)                  # u = ml*bh + (t & mask)
        np.right_shift(t, _SH32, out=t)
        np.right_shift(bl, _SH32, out=bl)
        np.multiply(_M_HI, bh, out=hi)
        np.add(hi, t, out=hi)
        np.add(hi, bl, out=hi)                  # hi = mh*bh + t>>32 + u>>32
        # x0 <- hi1 ^ x1 ^ k0, x2 <- hi0 ^ x3 ^ k1; x1 <- lo1, x3 <- lo0
        np.bitwise_xor(hi[::-1], y, out=x)
        np.bitwise_xor(x, k, out=x)
        y[:] = lo[::-1]
    out = np.empty((n, 4), dtype=np.uint64)
    out[:, 0::2] = x.T
    out[:, 1::2] = y.T
    return out


def normals(raw, out=None):
    """Standard normals from raw Philox words by the inverse-CDF map,
    written to ``out`` (a float64 array of ``raw``'s shape) when given."""
    if out is None:
        out = np.empty(raw.shape)
    np.right_shift(raw, _SH11, out=out)
    np.add(out, 0.5, out=out)
    np.multiply(out, _U53, out=out)
    return ndtri(out, out=out)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4)."""
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))


def ou_step(x, decay, scale, noise):
    """In-place ``x <- decay * x + scale * noise`` (flat float64 arrays)."""
    np.multiply(x, decay, out=x)
    t = np.multiply(scale, noise)
    np.add(x, t, out=x)


def sq_diff_accum(curr, prev, acc, comp):
    """Kahan-compensated in-place ``acc += (curr - prev)**2``.

    ``comp`` carries the running compensation; both are updated in place.
    """
    d = np.subtract(curr, prev)
    np.multiply(d, d, out=d)
    y = np.subtract(d, comp)
    t = np.add(acc, y)
    np.subtract(t, acc, out=comp)
    np.subtract(comp, y, out=comp)
    acc[...] = t
