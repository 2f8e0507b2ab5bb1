"""Dense copies of the band and Kronecker operators for the tests, built
apart from the package's band copies: a band matrix expanded entry by
entry from its longdouble bands, a Kronecker sum as the longdouble
np.kron sum of its expanded 1D matrices, each rounded once to the dtype
asked for.
"""

import numpy as np

from igadmm.assembly import SymBandMatrix


def dense_from_bands(ab, n, dtype=np.float64):
    """The symmetric matrix whose lower band storage is ab; as in LAPACK,
    the entries of ab past the last row are not read."""
    out = np.zeros((n, n), dtype=dtype)
    for d in range(min(len(ab), n)):
        out[np.arange(d, n), np.arange(n - d)] = ab[d, : n - d]
        out[np.arange(n - d), np.arange(d, n)] = ab[d, : n - d]
    return out


def dense(op, dtype=np.float64):
    """A SymBandMatrix or KroneckerSum as a dense array of dtype."""
    if isinstance(op, SymBandMatrix):
        return dense_from_bands(op.bands, op.n, dtype)
    out = sum(np.kron(dense_from_bands(A.bands, A.n, np.longdouble),
                      dense_from_bands(B.bands, B.n, np.longdouble)) for A, B in op.terms)
    return out.astype(dtype)
