"""Reference split Horner for ``LaurentPoly._horner``.

Each part starts from a full array of its top coefficient and forms a new
array per step, out = out * z + c, then adds acc * w for the 1/z part.  The
kernel in ``laurent`` runs the same products and sums in place, so its
values must equal these bit for bit.
"""

import numpy as np


def split_horner(p, z, w):
    """p at the complex points ``z`` with w = 1/z, both parts by Horner."""
    pos, neg = p._split
    out = np.full(z.shape, pos[-1], dtype=complex)
    for c in pos[-2::-1]:
        out = out * z + c
    if neg.size:
        acc = np.full(z.shape, neg[-1], dtype=complex)
        for c in neg[-2::-1]:
            acc = acc * w + c
        out = out + acc * w
    return out
