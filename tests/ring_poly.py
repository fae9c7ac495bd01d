"""Test helpers on phicong.polynomials.UniPoly that no library path
uses: Horner evaluation at an element of any ring, a map of the
coefficients (the tests lift integer polynomials to Fraction ones), and
the substitution X -> sX that ``divpoly_oracle`` rescales by."""

from phicong.polynomials import UniPoly


def evaluate(poly: UniPoly, x):
    """Horner evaluation; works for any argument ring."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def map_coeffs(poly: UniPoly, f) -> UniPoly:
    return UniPoly([f(c) for c in poly.coeffs])


def scale_arg(poly: UniPoly, s) -> UniPoly:
    """p(s*X): multiply coefficient i by s^i."""
    out, f = [], 1
    for c in poly.coeffs:
        out.append(c * f)
        f = f * s
    return UniPoly(out)
