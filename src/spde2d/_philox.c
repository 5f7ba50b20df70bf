/* Philox4x64-10 words, the one compiled kernel of spde2d.
 *
 * fill(block, ctr2, ctr3, key0, key1, out) writes the four words of counter
 * (block, 0, ctr2[s], ctr3[s]) under key (key0, key1[s]) to out[4s..4s+3]
 * for every stream s.  ctr2, ctr3 and key1 are C-contiguous uint64 buffers
 * of one length n and out a writable one of 4n; anything else raises
 * ValueError.  A uint64 out receives the words x, a float64 one the
 * uniforms u53(x) = ((x >> 11) + 0.5) * 2^-53 that the NumPy reference maps
 * to normals: the shift, the conversion of a value below 2^53 and the
 * scaling by a power of two are exact, and the one rounding, of the + 0.5,
 * is the IEEE double addition NumPy performs.  The 128-bit products follow
 * Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static inline double u53(uint64_t x) { return ((double)(x >> 11) + 0.5) * 0x1p-53; }

/* Acquire a buffer of len bytes (any length when len < 0) of uint64 items,
 * or of float64 ones where reals is not NULL; *reals then tells which. */
static int get_words(PyObject *obj, Py_buffer *view, int flags, Py_ssize_t len, int *reals)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format + (view->format[0] && strchr("@=<", view->format[0]));
    int real = reals && !strcmp(f, "d");
    if (view->itemsize == 8 && (real || !strcmp(f, "Q") || !strcmp(f, "L")) && (len < 0 || view->len == len)) {
        if (reals)
            *reals = real;
        return 0;
    }
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_ValueError, "fill needs uint64 ctr2, ctr3, key1 of one length n and a uint64 or float64 out of 4n");
    return -1;
}

static PyObject *fill(PyObject *self, PyObject *args)
{
    const uint64_t M0 = 0xD2E7470EE14C6C93u, M1 = 0xCA5A826395121157u;
    const uint64_t W0 = 0x9E3779B97F4A7C15u, W1 = 0xBB67AE8584CAA73Bu;
    unsigned long long block, key0;
    PyObject *obj[4];
    Py_buffer buf[4];
    int got = 0, reals = 0;
    if (!PyArg_ParseTuple(args, "KOOKOO:fill", &block, &obj[0], &obj[1], &key0, &obj[2], &obj[3]))
        return NULL;
    if (get_words(obj[0], &buf[0], 0, -1, NULL) < 0)
        return NULL;
    Py_ssize_t n = buf[0].len / 8;
    for (got = 1; got < 4; got++)
        if (get_words(obj[got], &buf[got], got == 3 ? PyBUF_WRITABLE : 0, (got == 3 ? 32 : 8) * n,
                      got == 3 ? &reals : NULL) < 0)
            break;
    const uint64_t *c2 = buf[0].buf, *c3 = buf[1].buf, *k1 = buf[2].buf;
    uint64_t *out = buf[3].buf;
    double *u = buf[3].buf;
    if (got == 4) {
        /* The held buffers keep the memory alive; the loop touches no
         * Python object, so other threads may run meanwhile. */
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t s = 0; s < n; s++) {
            uint64_t x0 = block, x1 = 0, x2 = c2[s], x3 = c3[s], ka = key0, kb = k1[s];
            for (int r = 0; r < 10; r++, ka += W0, kb += W1) {
                unsigned __int128 p0 = (unsigned __int128)M0 * x0, p1 = (unsigned __int128)M1 * x2;
                x0 = (uint64_t)(p1 >> 64) ^ x1 ^ ka;
                x1 = (uint64_t)p1;
                x2 = (uint64_t)(p0 >> 64) ^ x3 ^ kb;
                x3 = (uint64_t)p0;
            }
            if (reals)
                u[4 * s] = u53(x0), u[4 * s + 1] = u53(x1), u[4 * s + 2] = u53(x2), u[4 * s + 3] = u53(x3);
            else
                out[4 * s] = x0, out[4 * s + 1] = x1, out[4 * s + 2] = x2, out[4 * s + 3] = x3;
        }
        Py_END_ALLOW_THREADS
    }
    for (int i = 0; i < got; i++)
        PyBuffer_Release(&buf[i]);
    return got == 4 ? Py_NewRef(Py_None) : NULL;
}

static PyMethodDef methods[] = {
    {"fill", fill, METH_VARARGS, "Philox4x64-10 words, or their uniforms, of one counter block into out."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_philox", NULL, -1, methods};

PyMODINIT_FUNC PyInit__philox(void) { return PyModule_Create(&module); }
