"""The binary entropy and the finite key length in 60-digit ``decimal`` arithmetic.

An independent transcription of the formulas, for tests that hold the float
code to them:

    H(x) = -x log2(x) - (1 - x) log2(1 - x),   H(0) = H(1) = 0
    raw  = n_x (1 - H(min(ep_bar, 1/2))) - n_x f H(eb_x)
           - log2(2 / eps_c) - log2(1 / (4 eps_pa^2))
    ell  = floor(raw) where raw > 0, else 0

Every float argument converts to ``Decimal`` exactly, and so does ``1 - x``,
so the only error on this side is the 60-digit rounding of ``ln``, products
and sums, far below a float's 16 digits.  Nothing here imports the package.
"""

from decimal import Context, Decimal, localcontext

DIGITS = 60
_CONTEXT = Context(prec=DIGITS)
# 1 - x is exact in 1,100 digits for any float x in [0, 1], whose last digit
# sits at 10^-1074 at most; ln rounds only its result, so ln(1 - x) keeps
# its 60 digits where x is far below 10^-60
_EXACT = Context(prec=1100)


def _log2(x: Decimal) -> Decimal:
    return x.ln() / Decimal(2).ln()


def entropy(x) -> Decimal:
    """``H(x)`` in bits, for ``x`` in [0, 1]."""
    with localcontext(_CONTEXT):
        x = Decimal(x)
        if x == 0 or x == 1:
            return Decimal(0)
        y = _EXACT.subtract(1, x)
        return -x * _log2(x) - y * _log2(y)


def key_length(n_x, ep_bar, eb_x, f, eps_c, eps_pa) -> tuple[int, Decimal, Decimal]:
    """``(ell, raw, lambda_EC)``: the floored length, the length before
    flooring, and the error-correction leak ``n_x f H(eb_x)``."""
    with localcontext(_CONTEXT):
        n_x, f = Decimal(n_x), Decimal(f)
        ep = min(Decimal(ep_bar), Decimal("0.5"))
        leak = n_x * f * entropy(eb_x)
        cost_c = _log2(2 / Decimal(eps_c))
        cost_pa = _log2(1 / (4 * Decimal(eps_pa) ** 2))
        raw = n_x * (1 - entropy(ep)) - leak - cost_c - cost_pa
        return (int(raw) if raw > 0 else 0), raw, leak
