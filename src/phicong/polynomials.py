"""The one dense product of coefficient lists, lowest degree first.

``mul_trunc`` multiplies the integer polynomials of ``divpoly``, two
elements of Q(zeta_12) before reduction, and two integer power series in
``qexp``.
"""

from __future__ import annotations

from typing import List, Sequence


def mul_trunc(a: Sequence, b: Sequence, n: int) -> List:
    """Coefficients of a*b below X^n, for dense coefficient lists a and b
    (lowest degree first); schoolbook, skipping zero coefficients of both."""
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in terms:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
    return out
