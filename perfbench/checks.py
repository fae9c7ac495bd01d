"""Checks of each op's output, made apart from the program.

Nothing here imports `phicong`.  Each check recomputes what the output
claims from the paper's definitions and closed forms, with its own
arithmetic: q-series modulo a large prime, 4x4 matrices mod p, and
integer Z[zeta_12].  A check returns None when the output is right and
raises CheckError otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Tuple

from workloads import format_word


class CheckError(Exception):
    """The output of an op disagrees with the independent computation."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _load(stdout: str) -> Dict:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "output is not a JSON object")
    return doc


# -- qexp ---------------------------------------------------------------------

# Criterion-1 table of the paper: coefficients of xtilde at q^-2, q^4, ..., q^28.
GOLDEN_QEXP = {
    3: ("9", "40/3", "-68/81", "3904/2187", "-166558/19683",
        "-22205536/1594323"),
    4: ("16", "77/4", "2189/256", "-123117/16384", "-17529627/1048576",
        "-145441835/16777216"),
    5: ("25", "18104/625", "155226332/9765625", "-2222658420288/152587890625",
        "-311093336095872162/11920928955078125",
        "-1904353112035085290144/186264514923095703125"),
    10: ("100", "71444/625", "655600868/9765625", "-9499917323508/152587890625",
         "-1242573828554492628/11920928955078125",
         "-6786637255738163108224/186264514923095703125"),
}

P = (1 << 61) - 1                      # the prime the relation is checked mod
_SLOT = 18                             # bytes per coefficient when packed
_B = -1728                             # the curve y^2 = x^3 + B
_DEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DEN_CUTOFFS = (10, 20, 30)


def _smul(a: List[int], b: List[int], n: int) -> List[int]:
    """First n coefficients of the product of two series mod P, by packing
    each into one integer (Kronecker substitution)."""
    a, b = a[:n], b[:n]

    def pack(v):
        return int.from_bytes(b"".join(c.to_bytes(_SLOT, "little") for c in v),
                              "little")

    prod = (pack(a) * pack(b)).to_bytes(_SLOT * (len(a) + len(b)), "little")
    return [int.from_bytes(prod[i * _SLOT:(i + 1) * _SLOT], "little") % P
            for i in range(n)]


def _pmul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % P
    return out


def _psub(a: List[int], b: List[int]) -> List[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    out = [(x - y) % P for x, y in zip(a, b)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _division_polys(N: int) -> Tuple[List[int], List[int]]:
    """psi_N^2 and phi_N mod P for y^2 = x^3 - 1728, ascending coefficients.

    Uses the reduced polynomials g_n (psi_n = g_n for odd n and 2y g_n for
    even n), whose recurrences involve x only: with F = 4(x^3 + B) = (2y)^2,
    g_2m = g_m (g_m+2 g_m-1^2 - g_m-2 g_m+1^2) and g_2m+1 is
    F^2 g_m+2 g_m^3 - g_m-1 g_m+1^3 (m even) or
    g_m+2 g_m^3 - F^2 g_m-1 g_m+1^3 (m odd).
    """
    F = [4 * _B % P, 0, 0, 4]
    F2 = _pmul(F, F)
    g = {0: [0], 1: [1], 2: [1], 3: [0, 12 * _B % P, 0, 0, 3],
         4: [-16 * _B * _B % P, 0, 0, 40 * _B % P, 0, 0, 2]}

    def gn(n):
        if n not in g:
            m = n // 2
            if n % 2:
                a = _pmul(gn(m + 2), _pmul(gn(m), _pmul(gn(m), gn(m))))
                b = _pmul(gn(m - 1), _pmul(gn(m + 1), _pmul(gn(m + 1), gn(m + 1))))
                g[n] = _psub(_pmul(F2, a), b) if m % 2 == 0 else _psub(a, _pmul(F2, b))
            else:
                inner = _psub(_pmul(gn(m + 2), _pmul(gn(m - 1), gn(m - 1))),
                              _pmul(gn(m - 2), _pmul(gn(m + 1), gn(m + 1))))
                g[n] = _pmul(gn(m), inner)
        return g[n]

    psi_sq = _pmul(gn(N), gn(N))
    neighbours = _pmul(gn(N + 1), gn(N - 1))
    if N % 2:
        neighbours = _pmul(F, neighbours)
    else:
        psi_sq = _pmul(F, psi_sq)
    phi = _psub([0] + psi_sq, neighbours)
    return psi_sq, phi


def _homogeneous(poly: List[int], X: List[int], n: int) -> List[int]:
    """sum_i poly[i] X^i q^(2(deg - i)), to O(q^n), by Horner's rule."""
    deg = len(poly) - 1
    acc = [0] * n
    acc[0] = poly[deg]
    for i in range(deg - 1, -1, -1):
        acc = _smul(acc, X, n)
        if 2 * (deg - i) < n:
            acc[2 * (deg - i)] = (acc[2 * (deg - i)] + poly[i]) % P
    return acc


def _modular_forms(n: int) -> Tuple[List[int], List[int]]:
    """E4 and eta^8 / q^2 = prod (1 - q^6k)^8, mod P and to O(q^n)."""
    e4 = [0] * n
    e4[0] = 1
    for k in range(1, (n - 1) // 6 + 1):
        sigma3 = sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
        e4[6 * k] = 240 * sigma3 % P
    f = [0] * n
    f[0] = 1
    for k in range(6, n, 6):
        for j in range(n - 1, k - 1, -1):
            f[j] = (f[j] - f[j - k]) % P
    f2 = _smul(f, f, n)
    f4 = _smul(f2, f2, n)
    return e4, _smul(f4, f4, n)


def _coeff_mod_p(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, -1, P) % P


def _check_relation(N: int, terms: List[Tuple[int, Fraction]], prec: int) -> None:
    """psi_N(xt)^2 E4 = phi_N(xt) eta^8 mod P, to the precision claimed.

    With X = q^2 xt known to O(q^(prec+2)), multiplying through by
    q^(2N^2) turns the relation into A(X) E4 = B(X) eta^8/q^2 between
    power series, where A and B are psi_N^2 and phi_N homogenized by q^2.
    """
    n = prec + 2
    X = [0] * n
    for e, c in terms:
        if e < prec:
            X[e + 2] = _coeff_mod_p(c)
    psi_sq, phi = _division_polys(N)
    _require(psi_sq[-1] == N * N and len(psi_sq) == N * N, "psi_N^2 shape")
    e4, eta8_over_q2 = _modular_forms(n)
    lhs = _smul(_homogeneous(psi_sq, X, n), e4, n)
    rhs = _smul(_homogeneous(phi, X, n), eta8_over_q2, n)
    bad = next((k for k in range(n) if lhs[k] != rhs[k]), None)
    if bad is not None:
        raise CheckError(f"psi_N(xt)^2 E4 != phi_N(xt) eta^8 at q^{bad - 2 * N * N + 2}")


def _valuation(c: Fraction, ell: int) -> int:
    v = 0
    num, den = c.numerator, c.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def _check_denominators(N: int, terms, reports) -> None:
    """Valuation minima recomputed from the emitted coefficients, the
    dichotomy (l | N for l > 3, 4 | N for l = 2, 3 | N for l = 3) and the
    bound v_l(c_e) >= -2 v_l(N) (e + 1)."""
    _require(isinstance(reports, list) and len(reports) == len(_DEN_PRIMES),
             "one denominator report per prime up to 37")
    _require(len(terms) >= _DEN_CUTOFFS[-1], "too few terms for the cutoffs")
    for rep, ell in zip(reports, _DEN_PRIMES):
        r = _valuation(Fraction(N), ell)
        vals = [_valuation(c, ell) for _, c in terms]
        mins = [min(vals[:cut]) for cut in _DEN_CUTOFFS]
        integral = all(v >= 0 for v in vals)
        expected = N % 4 != 0 if ell == 2 else N % ell != 0
        trend = mins[0] > mins[1] > mins[2]
        bound = all(v >= -2 * r * (e + 1) for (e, _), v in zip(terms, vals))
        want = {"p": ell, "minValuations": mins, "integral": integral,
                "expectedIntegral": expected, "unboundedTrend": trend,
                "boundOk": bound}
        _require(rep == want, f"denominator report for l={ell}: {rep} != {want}")
        _require(integral == expected, f"dichotomy fails at l={ell}")
        _require(integral or trend, f"no unbounded trend at l={ell}")
        _require(bound, f"denominator bound fails at l={ell}")


def check_qexp(params, doc) -> None:
    N, wanted = params["N"], params["terms"]
    _require(doc.get("N") == N, "level echoed wrongly")
    prec = doc.get("prec")
    _require(isinstance(prec, int), "no precision")
    try:
        terms = [(t["exp"], Fraction(t["coeff"])) for t in doc["terms"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed terms: {exc!r}") from None
    _require(0 < len(terms) <= wanted, f"{len(terms)} terms for {wanted} asked")
    _require(all(c for _, c in terms), "a zero coefficient is emitted")
    exps = [e for e, _ in terms]
    _require(all(isinstance(e, int) and e % 6 == 4 for e in exps),
             "an exponent is not 4 mod 6")
    _require(exps == sorted(set(exps)) and exps[-1] < prec,
             "exponents not increasing below prec")
    _require(terms[0] == (-2, Fraction(N * N)), "leading term is not N^2 q^-2")
    coeffs = dict(terms)
    for i, printed in enumerate(GOLDEN_QEXP.get(N, ())):
        e = -2 + 6 * i
        if e <= exps[-1]:
            _require(coeffs.get(e) == Fraction(printed), f"golden coefficient at q^{e}")
    # a full list of `wanted` terms only vouches for exponents up to its last
    known = prec if len(terms) < wanted else min(prec, exps[-1] + 1)
    _check_relation(N, terms, known)
    if params["denominators"]:
        _check_denominators(N, terms, doc.get("denominators"))
    else:
        _require("denominators" not in doc, "unrequested denominator report")


# -- symplectic family ---------------------------------------------------------

def _legendre(a: int, p: int) -> int:
    """Euler's criterion."""
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _epsilons(p: int) -> Tuple[int, int]:
    return p + 2 + _legendre(-1, p), p + 1 + (p + 1) * _legendre(-3, p)


def _matmul(a, b, p):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) % p for j in range(4)]
            for i in range(4)]


def _order_rho_T(p: int, x: int) -> int:
    """Order of rho(T) in Sp4(F_p), with y = 1/x, by repeated products."""
    y = pow(x, -1, p)
    xi, yi = pow(x, -1, p), pow(y, -1, p)
    t = [[x, 3 * y, 3 * yi, xi], [0, y, 2 * yi, xi], [0, 0, yi, xi], [0, 0, 0, xi]]
    t = [[v % p for v in row] for row in t]
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    acc, k = t, 1
    while acc != ident:
        acc, k = _matmul(acc, t, p), k + 1
        _require(k <= p ** 4, "rho(T) has no finite order")
    return k


def _echo(doc, params, keys) -> None:
    for key in keys:
        _require(doc.get(key) == params[key], f"{key} echoed wrongly")


def check_surjectivity(params, doc) -> None:
    p, x = params["p"], params["x"]
    _echo(doc, params, ("p", "x"))
    order = p ** 4 * (p ** 4 - 1) * (p ** 2 - 1) // 2
    _require(doc.get("permGroupOrder") == str(order), "group order is not |PSp4(F_p)|")
    _require(doc.get("surjectivePSp4") is True, "surjectivity not certified")
    _require((doc.get("epsilon2"), doc.get("epsilon3")) == _epsilons(p),
             "elliptic counts disagree with the closed forms")
    _require(doc.get("orderT") == _order_rho_T(p, x), "order of rho(T)")


def check_epsilons(params, doc) -> None:
    _echo(doc, params, ("p", "x"))
    _require((doc.get("epsilon2"), doc.get("epsilon3")) == _epsilons(params["p"]),
             "elliptic counts disagree with the closed forms")


def _check_cusp_data(p: int, total, widths) -> None:
    expected = {1: 3, (p - 1) // 2: 4, p: 1, p * (p - 1) // 2: 2 * p + 4}
    _require(total == 2 * p + 12, f"{total} cusps, expected 2p+12")
    _require(widths == {str(w): m for w, m in sorted(expected.items())},
             f"cusp widths {widths}")
    _require(sum(int(w) * m for w, m in widths.items()) == (p * p + 1) * (p + 1),
             "cusp widths do not sum to (p^2+1)(p+1)")


def check_cycles(params, doc) -> None:
    # `grassmannian --cycles` echoes x, `cusps --oracle cycles` the oracle
    _require(doc.get("p") == params["p"], "p echoed wrongly")
    _require(doc.get("x", params["x"]) == params["x"], "x echoed wrongly")
    _require(doc.get("oracle", "cycles") == "cycles", "oracle echoed wrongly")
    _check_cusp_data(params["p"], doc.get("total"), doc.get("widths"))


def check_cusps(params, doc) -> None:
    _require(doc.get("p") == params["p"], "p echoed wrongly")
    _require(doc.get("oracle") == "character", "oracle echoed wrongly")
    _check_cusp_data(params["p"], doc.get("total"), doc.get("widths"))


GENUS = {23: 1026, 29: 2063, 31: 2500}        # the paper's values


def check_genus(params, doc) -> None:
    p = params["p"]
    _require(doc.get("p") == p, "p echoed wrongly")
    _require((doc.get("epsilon2"), doc.get("epsilon3")) == _epsilons(p),
             "elliptic counts disagree with the closed forms")
    cusps = doc.get("cusps") or {}
    _check_cusp_data(p, cusps.get("total"), cusps.get("widths"))
    _require(doc.get("genus") == GENUS[p], f"genus {doc.get('genus')} != {GENUS[p]}")


# -- words ---------------------------------------------------------------------

def _times_zeta(z):
    """z * zeta on the basis (1, zeta, zeta^2, zeta^3), zeta^4 = zeta^2 - 1."""
    a, b, c, d = z
    return (-d, a, b + d, c)


def _times_zeta_pow(z, k: int):
    for _ in range(k % 12):
        z = _times_zeta(z)
    return z


_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)


def _compose(g, h):
    """(zeta^k, b; 0, zeta^-k) times (zeta^k2, b2; 0, zeta^-k2)."""
    (k, b), (k2, b2) = g, h
    top = _times_zeta_pow(b2, k)
    bottom = _times_zeta_pow(b, -k2)
    return (k + k2) % 12, tuple(s + t for s, t in zip(top, bottom))


_S = (9, _ONE)                         # phi(S) = (-zeta^3, 1; 0, zeta^3)


def phi_upper(word) -> Tuple[int, Tuple[int, int, int, int]]:
    """phi(w) as (k, b) with phi(w) = (zeta^k, b; 0, zeta^-k), in integers."""
    acc = (0, _ZERO)
    for gen, e in word:
        if gen == "T":                 # phi(T) = diag(zeta, 1/zeta)
            acc = _compose(acc, (e % 12, _ZERO))
        else:                          # phi(S)^4 = 1
            for _ in range(e % 4):
                acc = _compose(acc, _S)
    return acc


def member(spec: str, word, n: int = 0, p: int = 0) -> bool:
    """Membership from the subgroup definitions, with phi(w) = (u, u v; 0, 1/u)."""
    k, b = phi_upper(word)
    v = _times_zeta_pow(b, -k)
    if v[0] or v[2]:
        raise CheckError(f"phi image v = {v} is not in Z zeta + Z zeta^3")
    if spec == "gamma-prime":
        return k in (0, 6)
    if spec == "gamma-double-prime":
        return k in (0, 6) and v == _ZERO
    if spec == "gamma-prime-n":
        return k in (0, 6) and all(c % n == 0 for c in v)
    if spec == "phicong":              # phi(w) = I mod n, entry by entry
        u, u_inv = _times_zeta_pow(_ONE, k), _times_zeta_pow(_ONE, -k)
        return all((s - t) % n == 0 for z in (u, u_inv) for s, t in zip(z, _ONE)) \
            and all(c % n == 0 for c in b)
    if spec == "gp":                   # p = 5 mod 12: zeta has order 12 in F_p^2
        return k % 3 == 0 and v[1] % p == 0
    raise CheckError(f"unknown spec {spec!r}")


def check_member(params, doc) -> None:
    spec = params["spec"]
    _require(doc.get("spec") == spec, "spec echoed wrongly")
    _require(doc.get("n") == params.get("n") and doc.get("p") == params.get("p"),
             "parameter echoed wrongly")
    _require(doc.get("word") == format_word(params["word"]), "word echoed wrongly")
    want = member(spec, params["word"], params.get("n", 0), params.get("p", 0))
    _require(doc.get("member") is want, f"member is {doc.get('member')}, expected {want}")


CHECKS = {
    "qexp": check_qexp,
    "surjectivity": check_surjectivity,
    "epsilons": check_epsilons,
    "cycles": check_cycles,
    "cusps": check_cusps,
    "genus": check_genus,
    "member": check_member,
}


def invalid_input_handled(returncode: int, stderr: str) -> bool:
    """The contract for invalid input: exit 2, a message, no traceback."""
    return returncode == 2 and bool(stderr.strip()) and "Traceback" not in stderr


def check(op, stdout: str) -> None:
    """Check the output of an op that exited 0; raises CheckError."""
    CHECKS[op.check](op.params, _load(stdout))
