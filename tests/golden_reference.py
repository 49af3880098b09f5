"""Step-capped reference for the golden-section search.

It runs every one of ``GOLDEN_MAX_ITER`` steps until the bracket is no
wider than ``tol``, as ``finitekey.golden_max`` did before it stopped at
the first recurring state, so both must return the same ``(x, f(x))`` bit
for bit.
"""

import math

from triqss.finitekey import GOLDEN_MAX_ITER


def golden_max(f, lo, hi, *, tol=1e-5):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITER):
        if hi - lo <= tol:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)
