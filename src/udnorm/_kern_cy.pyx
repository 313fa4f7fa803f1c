# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel for the O(n²) unit-pair scan over integer-scaled
coordinates.

Callers guarantee all values fit in int64 (the dispatch layer checks an
a-priori bound); results are bit-identical to the pure-Python reference in
`_kern_py`.
"""

from libc.stdlib cimport free, malloc


def unit_pairs(vals, bounds):
    """See _kern_py.unit_pairs; identical semantics, int64 arithmetic."""
    cdef Py_ssize_t n = len(vals)
    cdef Py_ssize_t m = len(bounds)
    cdef long long *v = <long long *> malloc(n * m * sizeof(long long))
    cdef long long *d = <long long *> malloc(m * sizeof(long long))
    if v == NULL or d == NULL:
        free(v)
        free(d)
        raise MemoryError()
    cdef Py_ssize_t i, j, c
    cdef long long dv
    cdef bint ok, tight
    try:
        for i in range(n):
            row = vals[i]
            for c in range(m):
                v[i * m + c] = row[c]
        for c in range(m):
            d[c] = bounds[c]
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                ok = True
                tight = False
                for c in range(m):
                    dv = v[j * m + c] - v[i * m + c]
                    if dv < 0:
                        dv = -dv
                    if dv > d[c]:
                        ok = False
                        break
                    if dv == d[c]:
                        tight = True
                if ok and tight:
                    out.append((i, j))
        return out
    finally:
        free(v)
        free(d)
