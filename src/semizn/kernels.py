"""Sparse-term kernels.

Terms are dicts mapping an exponent tuple (or any hashable key) to a nonzero
coefficient.  These two functions are the inner loops of Laurent polynomial
multiplication and addition.  The Groebner engine packs its terms into ints
and does its own module-vector arithmetic (`groebner._Packing.axpy`).
"""

BACKEND = "pure"


def mul_terms(a, b):
    """Product of two term dicts keyed by exponent tuples."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def add_terms(a, b):
    """Sum of two term dicts (keys need not be tuples)."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out
